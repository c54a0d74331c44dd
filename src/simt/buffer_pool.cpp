#include "simt/buffer_pool.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <new>

#include "support/check.hpp"

namespace sttsv::simt {

namespace {

std::atomic<std::uint64_t> g_unpooled_allocations{0};

double* allocate_aligned(std::size_t words) {
  void* raw = ::operator new(words * sizeof(double),
                             std::align_val_t{BufferPool::kAlignment});
  return static_cast<double*>(raw);
}

void free_aligned(double* slab) {
  ::operator delete(slab, std::align_val_t{BufferPool::kAlignment});
}

}  // namespace

std::uint64_t unpooled_buffer_allocations() {
  return g_unpooled_allocations.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// PooledBuffer

PooledBuffer::PooledBuffer(std::initializer_list<double> init) {
  append(init.begin(), init.size());
}

PooledBuffer::PooledBuffer(const std::vector<double>& values) {
  append(values.data(), values.size());
}

PooledBuffer::PooledBuffer(std::size_t count, double value) {
  resize(count);
  std::fill(begin(), end(), value);
}

void PooledBuffer::free_storage() {
  if (pool_ != nullptr) {
    pool_->release_slab(shard_, bucket_, base_);
  } else {
    free_aligned(base_);
  }
}

void PooledBuffer::grow(std::size_t min_capacity) {
  // Doubling keeps unsized packing amortized-O(1); pooled buffers trade
  // up within their own shard so the old slab is immediately reusable.
  const std::size_t want =
      std::max({min_capacity, capacity() * 2, BufferPool::kMinSlabWords});
  if (pool_ != nullptr) {
    PooledBuffer bigger = pool_->acquire(shard_, want);
    std::memcpy(bigger.base_, data(), size_ * sizeof(double));
    bigger.size_ = size_;
    *this = std::move(bigger);
    return;
  }
  double* fresh = allocate_aligned(want);
  g_unpooled_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size_ > 0) std::memcpy(fresh, data(), size_ * sizeof(double));
  if (base_ != nullptr) free_aligned(base_);
  base_ = fresh;
  offset_ = 0;
  capacity_ = want;
}

void PooledBuffer::reserve(std::size_t capacity_words) {
  if (capacity_words > capacity()) grow(capacity_words);
}

void PooledBuffer::push_back(double value) {
  if (size_ == capacity()) grow(size_ + 1);
  data()[size_++] = value;
}

void PooledBuffer::append(const double* src, std::size_t count) {
  if (count == 0) return;
  if (size_ + count > capacity()) grow(size_ + count);
  std::memcpy(data() + size_, src, count * sizeof(double));
  size_ += count;
}

void PooledBuffer::resize(std::size_t count) {
  if (count > capacity()) grow(count);
  if (count > size_) std::fill(data() + size_, data() + count, 0.0);
  size_ = count;
}

void PooledBuffer::consume_front(std::size_t count) {
  STTSV_REQUIRE(count <= size_, "consume_front past the end of the buffer");
  offset_ += count;
  size_ -= count;
}

PooledBuffer PooledBuffer::clone() const {
  PooledBuffer copy =
      pool_ != nullptr ? pool_->acquire(shard_, size_) : PooledBuffer();
  copy.append(data(), size_);
  return copy;
}

void PooledBuffer::insert_position_error() {
  STTSV_REQUIRE(false, "PooledBuffer::insert only supports inserting at end()");
}

bool operator==(const PooledBuffer& a, const PooledBuffer& b) {
  return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const PooledBuffer& a, const std::vector<double>& b) {
  return a.size_ == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

std::ostream& operator<<(std::ostream& os, const PooledBuffer& buf) {
  os << '[';
  for (std::size_t i = 0; i < buf.size(); ++i) {
    if (i) os << ", ";
    os << buf[i];
  }
  return os << ']';
}

// ---------------------------------------------------------------------------
// BufferPool

BufferPool::BufferPool(std::size_t shards) {
  STTSV_REQUIRE(shards >= 1, "buffer pool needs at least one shard");
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

BufferPool::~BufferPool() { trim(); }

std::uint32_t BufferPool::bucket_for(std::size_t capacity_words) {
  std::uint32_t bucket = 0;
  std::size_t cap = kMinSlabWords;
  while (cap < capacity_words) {
    cap <<= 1;
    ++bucket;
  }
  return bucket;
}

std::size_t BufferPool::bucket_capacity(std::size_t capacity_words) {
  return kMinSlabWords << bucket_for(capacity_words);
}

double* BufferPool::pop_or_allocate(std::size_t shard, std::uint32_t bucket) {
  Shard& s = *shards_[shard];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (bucket < s.free_lists.size() && !s.free_lists[bucket].empty()) {
      double* slab = s.free_lists[bucket].back();
      s.free_lists[bucket].pop_back();
      reuses_.fetch_add(1, std::memory_order_relaxed);
      return slab;
    }
  }
  const std::size_t words = kMinSlabWords << bucket;
  double* slab = allocate_aligned(words);
  slab_allocations_.fetch_add(1, std::memory_order_relaxed);
  slabs_live_.fetch_add(1, std::memory_order_relaxed);
  words_capacity_.fetch_add(words, std::memory_order_relaxed);
  return slab;
}

void BufferPool::release_slab(std::size_t shard, std::uint32_t bucket,
                              double* slab) {
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.free_lists.size() <= bucket) s.free_lists.resize(bucket + 1);
  s.free_lists[bucket].push_back(slab);
}

PooledBuffer BufferPool::acquire(std::size_t shard,
                                 std::size_t capacity_words) {
  STTSV_REQUIRE(shard < shards_.size(), "buffer pool shard out of range");
  const std::uint32_t bucket = bucket_for(capacity_words);
  acquires_.fetch_add(1, std::memory_order_relaxed);
  PooledBuffer buf;
  buf.base_ = pop_or_allocate(shard, bucket);
  buf.capacity_ = kMinSlabWords << bucket;
  buf.pool_ = this;
  buf.shard_ = static_cast<std::uint32_t>(shard);
  buf.bucket_ = bucket;
  return buf;
}

void BufferPool::reserve(std::size_t shard, std::size_t capacity_words,
                         std::size_t count) {
  STTSV_REQUIRE(shard < shards_.size(), "buffer pool shard out of range");
  const std::uint32_t bucket = bucket_for(capacity_words);
  const std::size_t words = kMinSlabWords << bucket;
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.free_lists.size() <= bucket) s.free_lists.resize(bucket + 1);
  while (s.free_lists[bucket].size() < count) {
    s.free_lists[bucket].push_back(allocate_aligned(words));
    slab_allocations_.fetch_add(1, std::memory_order_relaxed);
    slabs_live_.fetch_add(1, std::memory_order_relaxed);
    words_capacity_.fetch_add(words, std::memory_order_relaxed);
  }
}

void BufferPool::touch(std::size_t shard) {
  STTSV_REQUIRE(shard < shards_.size(), "buffer pool shard out of range");
  Shard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  for (std::size_t b = 0; b < s.free_lists.size(); ++b) {
    const std::size_t words = kMinSlabWords << b;
    for (double* slab : s.free_lists[b]) {
      std::fill(slab, slab + words, 0.0);
    }
  }
}

void BufferPool::trim() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (std::size_t b = 0; b < shard->free_lists.size(); ++b) {
      for (double* slab : shard->free_lists[b]) {
        free_aligned(slab);
        slabs_live_.fetch_sub(1, std::memory_order_relaxed);
        words_capacity_.fetch_sub(kMinSlabWords << b,
                                  std::memory_order_relaxed);
      }
      shard->free_lists[b].clear();
    }
  }
}

BufferPool::Stats BufferPool::stats() const {
  Stats out;
  out.slab_allocations = slab_allocations_.load(std::memory_order_relaxed);
  out.slabs_live = slabs_live_.load(std::memory_order_relaxed);
  out.acquires = acquires_.load(std::memory_order_relaxed);
  out.reuses = reuses_.load(std::memory_order_relaxed);
  out.words_capacity = words_capacity_.load(std::memory_order_relaxed);
  return out;
}

// ---------------------------------------------------------------------------
// AllocationGuard

AllocationGuard::AllocationGuard(const BufferPool& pool)
    : pool_(pool),
      slab_baseline_(pool.stats().slab_allocations),
      unpooled_baseline_(unpooled_buffer_allocations()) {}

std::uint64_t AllocationGuard::new_slab_allocations() const {
  return pool_.stats().slab_allocations - slab_baseline_;
}

std::uint64_t AllocationGuard::new_unpooled_allocations() const {
  return unpooled_buffer_allocations() - unpooled_baseline_;
}

void AllocationGuard::check() const {
  STTSV_DCHECK(new_slab_allocations() == 0,
               "steady-state superstep allocated pool slabs");
  STTSV_DCHECK(new_unpooled_allocations() == 0,
               "steady-state superstep allocated unpooled buffers");
}

AllocationGuard::~AllocationGuard() noexcept(false) {
#if defined(STTSV_DEBUG_CHECKS)
  if (armed_ && std::uncaught_exceptions() == 0) check();
#endif
}

}  // namespace sttsv::simt
