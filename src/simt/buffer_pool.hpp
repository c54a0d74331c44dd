#pragma once
// Zero-copy message storage for the simulated machine (DESIGN.md §12).
//
// Every payload that crosses the wire — x-share panels, partial-y panels,
// ReliableExchange data/ACK frames — lives in a PooledBuffer: a move-only
// handle onto a 64-byte-aligned slab leased from a per-rank BufferPool
// shard. Slabs are size-bucketed in powers of two and returned to their
// shard's free list on destruction, so a steady-state superstep (same
// partition, same message sizes) recycles the slabs of the previous one
// and allocates no slab on the message path. The pool only
// manages storage; the CommLedger keeps counting every word exactly as
// before — pooling changes where bytes live, never how many move.
//
// A PooledBuffer can also exist unpooled (default-constructed, grown from
// an initializer list or copied from a std::vector) for cold call sites
// and tests; those allocations are tallied in a process-wide counter so
// the allocation guard can prove the hot path never takes that branch.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace sttsv::simt {

class BufferPool;

/// Move-only handle onto message storage. Holds `size()` doubles starting
/// at `data()`; the words before `data()` (see consume_front) and after
/// `capacity()` belong to the slab but are not part of the message.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  PooledBuffer(std::initializer_list<double> init);
  /// Implicit by design: cold call sites keep writing
  /// `Envelope{peer, some_vector}` and pay one copy, exactly as before.
  PooledBuffer(const std::vector<double>& values);  // NOLINT(google-explicit-constructor)
  PooledBuffer(std::size_t count, double value);
  ~PooledBuffer() { release(); }

  // Moves and release() are inline: every Envelope and Delivery sort or
  // vector growth moves these handles. Only freeing storage is out of line.
  PooledBuffer(PooledBuffer&& other) noexcept
      : base_(other.base_),
        offset_(other.offset_),
        size_(other.size_),
        capacity_(other.capacity_),
        pool_(other.pool_),
        shard_(other.shard_),
        bucket_(other.bucket_) {
    other.reset();
  }
  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      release();
      base_ = other.base_;
      offset_ = other.offset_;
      size_ = other.size_;
      capacity_ = other.capacity_;
      pool_ = other.pool_;
      shard_ = other.shard_;
      bucket_ = other.bucket_;
      other.reset();
    }
    return *this;
  }
  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  /// Words available from data() without growing.
  [[nodiscard]] std::size_t capacity() const { return capacity_ - offset_; }

  [[nodiscard]] double* data() { return base_ + offset_; }
  [[nodiscard]] const double* data() const { return base_ + offset_; }
  double& operator[](std::size_t i) { return data()[i]; }
  const double& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] double* begin() { return data(); }
  [[nodiscard]] double* end() { return data() + size_; }
  [[nodiscard]] const double* begin() const { return data(); }
  [[nodiscard]] const double* end() const { return data() + size_; }

  void reserve(std::size_t capacity_words);
  void push_back(double value);
  void append(const double* src, std::size_t count);
  /// Grows (zero-filling) or shrinks the logical size.
  void resize(std::size_t count);
  void clear() { size_ = 0; }

  /// Append-only shim for std::vector-style packing loops:
  /// `buf.insert(buf.end(), first, last)`. `pos` must be end().
  template <class It>
  void insert(const double* pos, It first, It last);
  template <class It>
  void assign(It first, It last);

  /// Drops the first `count` words in O(1) by advancing the view into the
  /// slab — how ReliableExchange strips wire headers without copying the
  /// payload. The words stay part of the slab and return with it.
  void consume_front(std::size_t count);

  /// Deep copy into the same pool shard (or unpooled if this is unpooled).
  [[nodiscard]] PooledBuffer clone() const;

  /// Releases the storage immediately (pooled slabs go back to their
  /// shard); the buffer becomes empty and unpooled.
  void release() {
    if (base_ != nullptr) free_storage();
    reset();
  }

  friend bool operator==(const PooledBuffer& a, const PooledBuffer& b);
  friend bool operator==(const PooledBuffer& a, const std::vector<double>& b);
  friend std::ostream& operator<<(std::ostream& os, const PooledBuffer& buf);

 private:
  friend class BufferPool;

  /// Moves the contents into storage with room for `min_capacity` words.
  void grow(std::size_t min_capacity);
  /// Returns owned storage to its pool shard, or frees it if unpooled.
  void free_storage();
  /// Forgets the storage without freeing it: empty and unpooled.
  void reset() {
    base_ = nullptr;
    offset_ = size_ = capacity_ = 0;
    pool_ = nullptr;
  }
  [[noreturn]] static void insert_position_error();

  double* base_ = nullptr;
  std::size_t offset_ = 0;    ///< words consumed from the slab front
  std::size_t size_ = 0;      ///< logical words, starting at data()
  std::size_t capacity_ = 0;  ///< slab words measured from base_
  BufferPool* pool_ = nullptr;  ///< nullptr: privately allocated storage
  std::uint32_t shard_ = 0;
  std::uint32_t bucket_ = 0;
};

/// Per-rank arena of size-bucketed, 64-byte-aligned slabs. Shard s serves
/// rank s: acquire() pops a free slab of the right bucket (or allocates
/// one), and the PooledBuffer returns it on destruction — possibly from a
/// different thread, hence the per-shard mutex. Slabs never shrink and
/// are only freed by trim() or the pool destructor, so a warmed pool
/// serves every steady-state superstep allocation-free.
class BufferPool {
 public:
  /// Smallest slab, in words. Buckets are kMinSlabWords << b.
  static constexpr std::size_t kMinSlabWords = 32;
  static constexpr std::size_t kAlignment = 64;

  struct Stats {
    std::uint64_t slab_allocations = 0;  ///< heap allocations ever made
    std::uint64_t slabs_live = 0;        ///< slabs currently owned
    std::uint64_t acquires = 0;          ///< acquire() calls served
    std::uint64_t reuses = 0;            ///< acquires served from a free list
    std::uint64_t words_capacity = 0;    ///< total words across owned slabs
  };

  explicit BufferPool(std::size_t shards);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  [[nodiscard]] std::size_t shards() const { return shards_.size(); }

  /// Leases a buffer with capacity >= capacity_words and logical size 0,
  /// charged to (and eventually returned to) the given shard.
  [[nodiscard]] PooledBuffer acquire(std::size_t shard,
                                     std::size_t capacity_words);

  /// Pre-sizes a shard: tops up the free list of the bucket serving
  /// `capacity_words`-word requests to at least `count` slabs. Plans call
  /// this once so steady-state supersteps never hit the allocator.
  void reserve(std::size_t shard, std::size_t capacity_words,
               std::size_t count);

  /// Frees every cached (idle) slab; outstanding buffers are unaffected.
  void trim();

  /// NUMA first touch (DESIGN.md §17): zero-fills every idle slab on the
  /// shard's free lists from the calling thread, faulting their pages on
  /// that thread's socket. Machine::first_touch runs this per rank from
  /// the worker that will drive the rank, so reserve()d slabs — which
  /// malloc lazily maps wherever the reserving thread ran — end up local
  /// to their consumer. Touches storage only; never allocates or frees.
  void touch(std::size_t shard);

  [[nodiscard]] Stats stats() const;

  /// Slab capacity a request for `capacity_words` is rounded up to.
  [[nodiscard]] static std::size_t bucket_capacity(std::size_t capacity_words);

 private:
  friend class PooledBuffer;

  struct Shard {
    std::mutex mu;
    std::vector<std::vector<double*>> free_lists;  ///< indexed by bucket
  };

  static std::uint32_t bucket_for(std::size_t capacity_words);
  double* pop_or_allocate(std::size_t shard, std::uint32_t bucket);
  void release_slab(std::size_t shard, std::uint32_t bucket, double* slab);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> slab_allocations_{0};
  std::atomic<std::uint64_t> slabs_live_{0};
  std::atomic<std::uint64_t> acquires_{0};
  std::atomic<std::uint64_t> reuses_{0};
  std::atomic<std::uint64_t> words_capacity_{0};
};

/// Process-wide count of heap allocations made by unpooled PooledBuffers
/// (cold paths, vector conversions). The steady-state message path must
/// not move this counter.
[[nodiscard]] std::uint64_t unpooled_buffer_allocations();

/// RAII witness that a scope performed zero slab allocations against a
/// pool and zero unpooled buffer allocations. check() (also run by the
/// destructor as an STTSV_DCHECK in Debug builds) reports violations;
/// new_slab_allocations()/new_unpooled_allocations() expose the deltas so
/// tests can assert them in every build type.
class AllocationGuard {
 public:
  explicit AllocationGuard(const BufferPool& pool);
  ~AllocationGuard() noexcept(false);
  AllocationGuard(const AllocationGuard&) = delete;
  AllocationGuard& operator=(const AllocationGuard&) = delete;

  [[nodiscard]] std::uint64_t new_slab_allocations() const;
  [[nodiscard]] std::uint64_t new_unpooled_allocations() const;
  /// Debug builds: throws InternalError if anything was allocated.
  void check() const;
  /// Disarms the destructor check — for scopes that expect allocations
  /// and assert on the deltas instead.
  void dismiss() { armed_ = false; }

 private:
  const BufferPool& pool_;
  std::uint64_t slab_baseline_;
  std::uint64_t unpooled_baseline_;
  bool armed_ = true;
};

template <class It>
void PooledBuffer::insert(const double* pos, It first, It last) {
  // Only the append form is supported: every packing loop in the tree
  // inserts at end(), and anything else would shuffle slab contents.
  if (pos != data() + size_) insert_position_error();
  for (; first != last; ++first) push_back(*first);
}

template <class It>
void PooledBuffer::assign(It first, It last) {
  clear();
  for (; first != last; ++first) push_back(*first);
}

}  // namespace sttsv::simt
