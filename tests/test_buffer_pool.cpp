// Buffer pool tests (DESIGN.md §12): PooledBuffer semantics, slab
// recycling and exhaustion, zero-word messages through the pooled wire,
// the allocation guard's proof that warmed supersteps allocate no slab,
// and bounds on a warmed batch's remaining heap allocations over the
// Direct and the resilient exchange.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/fault_injector.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

// Every heap allocation in this binary is counted: each form of the global
// operator new is replaced by a malloc-backed version that only counts, so
// a test can bound what a code path allocates beyond pool slabs.
namespace {

std::atomic<std::uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size, std::align_val_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return std::aligned_alloc(a, (size + a - 1) / a * a + (size == 0 ? a : 0));
}

void* counted_alloc_or_throw(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_alloc_or_throw(std::size_t size, std::align_val_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new[](std::size_t size) { return counted_alloc_or_throw(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc_or_throw(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sttsv {
namespace {

using simt::AllocationGuard;
using simt::BufferPool;
using simt::Delivery;
using simt::Envelope;
using simt::PooledBuffer;

TEST(PooledBuffer, UnpooledBasicsAndGrowth) {
  PooledBuffer buf;
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.size(), 0u);
  for (std::size_t i = 0; i < 100; ++i) {
    buf.push_back(static_cast<double>(i));
  }
  ASSERT_EQ(buf.size(), 100u);
  EXPECT_EQ(buf[0], 0.0);
  EXPECT_EQ(buf[99], 99.0);

  const PooledBuffer lit = {1.0, 2.0, 3.0};
  EXPECT_EQ(lit, (std::vector<double>{1.0, 2.0, 3.0}));

  const std::vector<double> v{4.0, 5.0};
  const PooledBuffer from_vec = v;  // implicit, the cold-site shim
  EXPECT_EQ(from_vec, v);

  const PooledBuffer filled(5, 7.5);
  EXPECT_EQ(filled, (std::vector<double>(5, 7.5)));
}

TEST(PooledBuffer, MoveTransfersStorage) {
  BufferPool pool(2);
  PooledBuffer a = pool.acquire(1, 10);
  a.append(std::vector<double>{1.0, 2.0, 3.0}.data(), 3);
  const double* storage = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): reset state

  PooledBuffer c;
  c = std::move(b);
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(c.size(), 3u);
}

TEST(PooledBuffer, ConsumeFrontIsZeroCopy) {
  BufferPool pool(1);
  PooledBuffer buf = pool.acquire(0, 8);
  for (std::size_t i = 0; i < 8; ++i) buf.push_back(static_cast<double>(i));
  const double* before = buf.data();
  buf.consume_front(3);
  EXPECT_EQ(buf.data(), before + 3);  // view advanced, nothing copied
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf[0], 3.0);
  EXPECT_THROW(buf.consume_front(6), PreconditionError);
}

TEST(PooledBuffer, CloneAndReleaseRecycleSlabs) {
  BufferPool pool(1);
  PooledBuffer a = pool.acquire(0, 4);
  a.push_back(42.0);
  PooledBuffer b = a.clone();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.data(), b.data());

  const auto live_before = pool.stats().slabs_live;
  a.release();
  b.release();
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(pool.stats().slabs_live, live_before);  // cached, not freed
  // Both slabs are back on the free list: two fresh acquires reuse them.
  const auto allocs = pool.stats().slab_allocations;
  PooledBuffer c = pool.acquire(0, 4);
  PooledBuffer d = pool.acquire(0, 4);
  EXPECT_EQ(pool.stats().slab_allocations, allocs);
  (void)c;
  (void)d;
}

TEST(BufferPool, BucketCapacityRoundsUpInPowersOfTwo) {
  EXPECT_EQ(BufferPool::bucket_capacity(0), BufferPool::kMinSlabWords);
  EXPECT_EQ(BufferPool::bucket_capacity(1), BufferPool::kMinSlabWords);
  EXPECT_EQ(BufferPool::bucket_capacity(BufferPool::kMinSlabWords),
            BufferPool::kMinSlabWords);
  EXPECT_EQ(BufferPool::bucket_capacity(BufferPool::kMinSlabWords + 1),
            2 * BufferPool::kMinSlabWords);
  EXPECT_EQ(BufferPool::bucket_capacity(1000), 1024u);
}

TEST(BufferPool, SteadyStateRecyclesInsteadOfAllocating) {
  BufferPool pool(3);
  { PooledBuffer warm = pool.acquire(2, 100); }
  const auto allocs = pool.stats().slab_allocations;
  for (int round = 0; round < 50; ++round) {
    PooledBuffer buf = pool.acquire(2, 100);
    buf.resize(100);
  }
  EXPECT_EQ(pool.stats().slab_allocations, allocs);
  EXPECT_GE(pool.stats().reuses, 50u);
}

TEST(BufferPool, ExhaustionGrowsAndThenServesFromCache) {
  BufferPool pool(1);
  pool.reserve(0, 64, 2);
  const auto after_reserve = pool.stats().slab_allocations;
  EXPECT_EQ(after_reserve, 2u);

  // Demanding more simultaneous buffers than reserved must grow the pool,
  // not fail; the grown slabs then serve the next wave allocation-free.
  {
    std::vector<PooledBuffer> wave;
    for (int i = 0; i < 5; ++i) wave.push_back(pool.acquire(0, 64));
    EXPECT_EQ(pool.stats().slab_allocations, 5u);
  }
  {
    AllocationGuard guard(pool);
    std::vector<PooledBuffer> wave;
    for (int i = 0; i < 5; ++i) wave.push_back(pool.acquire(0, 64));
    EXPECT_EQ(guard.new_slab_allocations(), 0u);
  }
  // A pooled buffer outgrowing its slab trades up within its shard.
  PooledBuffer growing = pool.acquire(0, BufferPool::kMinSlabWords);
  for (std::size_t i = 0; i < 4 * BufferPool::kMinSlabWords; ++i) {
    growing.push_back(static_cast<double>(i));
  }
  EXPECT_EQ(growing.size(), 4 * BufferPool::kMinSlabWords);
  EXPECT_EQ(growing[BufferPool::kMinSlabWords], BufferPool::kMinSlabWords);
}

TEST(BufferPool, TrimFreesIdleSlabsOnly) {
  BufferPool pool(1);
  PooledBuffer held = pool.acquire(0, 32);
  { PooledBuffer idle = pool.acquire(0, 32); }
  EXPECT_EQ(pool.stats().slabs_live, 2u);
  pool.trim();
  EXPECT_EQ(pool.stats().slabs_live, 1u);  // the held slab survives
  held.push_back(1.0);
  EXPECT_EQ(held[0], 1.0);
}

TEST(Exchange, ZeroWordMessagesTravelThePooledPath) {
  // An empty message still occupies a round slot and produces an empty
  // delivery; it just carries no ledger words.
  simt::Machine machine(3);
  std::vector<std::vector<Envelope>> outboxes(3);
  outboxes[0].push_back(Envelope{1, machine.pool().acquire(0, 0)});
  outboxes[2].push_back(Envelope{1, machine.pool().acquire(2, 16)});
  auto in = simt::DirectExchange(machine).exchange(
      std::move(outboxes), simt::Transport::kPointToPoint);
  ASSERT_EQ(in[1].size(), 2u);
  EXPECT_EQ(in[1][0].from, 0u);
  EXPECT_TRUE(in[1][0].data.empty());
  EXPECT_EQ(in[1][1].from, 2u);
  EXPECT_TRUE(in[1][1].data.empty());
  EXPECT_EQ(machine.ledger().total_words(), 0u);
  // König schedule: rank 1 receives twice, so the exchange takes 2 rounds.
  EXPECT_EQ(machine.ledger().rounds(), 2u);
  machine.ledger().verify_conservation();
}

TEST(Exchange, EmptyOutboxesChargeScheduleSlotsButNoWords) {
  simt::Machine machine(4);
  auto in = simt::DirectExchange(machine).exchange(
      std::vector<std::vector<Envelope>>(4), simt::Transport::kAllToAll);
  ASSERT_EQ(in.size(), 4u);
  for (const auto& inbox : in) EXPECT_TRUE(inbox.empty());
  // The collective still runs its P-1 schedule slots; no words move on
  // any channel.
  EXPECT_EQ(machine.ledger().rounds(), 3u);
  EXPECT_EQ(machine.ledger().total_words(), 0u);
  EXPECT_EQ(machine.ledger().total_words(simt::Channel::kOverhead), 0u);
  EXPECT_EQ(machine.ledger().modeled_collective_words(), 0u);
  machine.ledger().verify_conservation();
}

// ---------------------------------------------------------------------------
// Steady-state allocation behaviour on the real Algorithm-5 drivers.
// ---------------------------------------------------------------------------

struct RunSetup {
  std::unique_ptr<partition::TetraPartition> part;
  std::unique_ptr<partition::VectorDistribution> dist;
  tensor::SymTensor3 a;
  std::vector<double> x;
};

RunSetup make_setup(std::size_t n, std::uint64_t seed) {
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(steiner::spherical_system(2)));
  auto dist = std::make_unique<partition::VectorDistribution>(*part, n);
  Rng rng(seed);
  auto a = tensor::random_symmetric(n, rng);
  auto x = rng.uniform_vector(n);
  return RunSetup{std::move(part), std::move(dist), std::move(a), std::move(x)};
}

TEST(AllocationGuard, WarmedSingleVectorRunIsAllocationFree) {
  const RunSetup s = make_setup(60, 5);
  simt::Machine machine(s.part->num_processors());
  // Warm-up run sizes every pool bucket the schedule needs.
  (void)core::parallel_sttsv(machine, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  const auto warm = core::parallel_sttsv(machine, *s.part, *s.dist, s.a, s.x,
                                         simt::Transport::kPointToPoint);
  AllocationGuard guard(machine.pool());
  const auto steady = core::parallel_sttsv(machine, *s.part, *s.dist, s.a,
                                           s.x, simt::Transport::kPointToPoint);
  EXPECT_EQ(guard.new_slab_allocations(), 0u);
  EXPECT_EQ(guard.new_unpooled_allocations(), 0u);
  guard.check();  // the Debug-build assertion path, explicitly
  EXPECT_EQ(steady.y, warm.y);
}

TEST(AllocationGuard, WarmedResilientRunIsAllocationFree) {
  const RunSetup s = make_setup(60, 6);
  simt::Machine machine(s.part->num_processors());
  simt::ReliableExchange rex(machine);
  (void)core::parallel_sttsv(rex, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  AllocationGuard guard(machine.pool());
  (void)core::parallel_sttsv(rex, *s.part, *s.dist, s.a, s.x,
                             simt::Transport::kPointToPoint);
  EXPECT_EQ(guard.new_slab_allocations(), 0u);
  EXPECT_EQ(guard.new_unpooled_allocations(), 0u);
}

// Beyond pool slabs: the protocol keeps its frame table, liveness
// vectors and wire and ACK boxes across exchanges, so a warmed reliable
// batch allocates only what a Direct batch does — O(P) containers of the
// seam and the B returned lanes — fault-free and under perfbench's
// reliable-p20 fault mix alike, not a constant per data frame. (Under
// faults a retry may still miss the pool: a fault pattern the warm-up did
// not see can hold more slabs at once, and each new slab is one heap
// allocation.)
TEST(AllocationGuard, ResilientBatchHeapAllocationsScaleWithRanks) {
  const std::size_t n_lanes = 4;
  struct Shape {
    batch::Family family;
    std::uint64_t param;
    std::size_t n;
  };
  for (const Shape& shape : {Shape{batch::Family::kSpherical, 2, 60},
                             Shape{batch::Family::kTrivial, 6, 120}}) {
    const auto plan = batch::Plan::build(batch::plan_key(
        shape.n, shape.family, shape.param, simt::Transport::kPointToPoint));
    Rng rng(12);
    const auto a = tensor::random_symmetric(shape.n, rng);
    std::vector<std::vector<double>> x(n_lanes);
    for (auto& xv : x) xv = rng.uniform_vector(shape.n);
    const std::size_t P = plan->num_processors();
    for (const bool faulty : {false, true}) {
      simt::Machine machine = plan->make_machine();
      simt::FaultInjector injector(
          {.drop = 0.02, .corrupt = 0.01, .seed = 29});
      if (faulty) machine.set_fault_injector(&injector);
      simt::ReliableExchange rex(machine, simt::RetryPolicy{},
                                 simt::RecoveryPolicy::kFailFast);
      (void)batch::parallel_sttsv_batch(rex, *plan, a, x);
      const std::uint64_t retransmitted = rex.stats().retransmitted_frames;
      const std::uint64_t before = g_heap_allocations.load();
      (void)batch::parallel_sttsv_batch(rex, *plan, a, x);
      const std::uint64_t allocs = g_heap_allocations.load() - before;
      EXPECT_GT(allocs, 0u) << "allocation counter not linked in";
      EXPECT_LE(allocs, 6 * P + n_lanes + 16)
          << "P=" << P << (faulty ? " under faults" : " fault-free");
      if (faulty) {
        // The measured batch itself went through the retry path.
        EXPECT_GT(rex.stats().retransmitted_frames, retransmitted);
      }
    }
  }
}

// The plan's host schedule is built once, role blocks come from the pool
// and inboxes are sized once, so a warmed Direct batch allocates only the
// O(P) envelope and delivery containers and the B returned lanes — not
// per leg of the walk.
TEST(AllocationGuard, WarmedDirectBatchHeapAllocationsScaleWithRanks) {
  const std::size_t n_lanes = 4;
  struct Shape {
    batch::Family family;
    std::uint64_t param;
    std::size_t n;
  };
  for (const Shape& shape : {Shape{batch::Family::kSpherical, 2, 60},
                             Shape{batch::Family::kTrivial, 6, 120}}) {
    const auto plan = batch::Plan::build(batch::plan_key(
        shape.n, shape.family, shape.param, simt::Transport::kPointToPoint));
    Rng rng(17);
    const auto a = tensor::random_symmetric(shape.n, rng);
    std::vector<std::vector<double>> x(n_lanes);
    for (auto& xv : x) xv = rng.uniform_vector(shape.n);
    simt::Machine machine = plan->make_machine();
    simt::DirectExchange direct(machine);
    (void)batch::parallel_sttsv_batch(direct, *plan, a, x);
    const std::uint64_t before = g_heap_allocations.load();
    (void)batch::parallel_sttsv_batch(direct, *plan, a, x);
    const std::uint64_t allocs = g_heap_allocations.load() - before;
    const std::size_t P = plan->num_processors();
    EXPECT_GT(allocs, 0u) << "allocation counter not linked in";
    EXPECT_LE(allocs, 6 * P + n_lanes + 16) << "P=" << P;
  }
}

TEST(AllocationGuard, PrewarmedPlanMakesFirstBatchAllocationFree) {
  const std::size_t n = 60;
  const std::size_t B = 4;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  Rng rng(9);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> x(B);
  for (auto& xv : x) xv = rng.uniform_vector(n);

  simt::Machine machine = plan->make_machine();
  plan->prewarm_pool(machine.pool(), B);
  AllocationGuard guard(machine.pool());
  (void)batch::parallel_sttsv_batch(machine, *plan, a, x);
  EXPECT_EQ(guard.new_slab_allocations(), 0u);
  EXPECT_EQ(guard.new_unpooled_allocations(), 0u);
}

TEST(AllocationGuard, ReportsNewSlabAllocations) {
  BufferPool pool(1);
  AllocationGuard guard(pool);
  guard.dismiss();  // this scope allocates on purpose
  { PooledBuffer buf = pool.acquire(0, 64); }
  EXPECT_EQ(guard.new_slab_allocations(), 1u);
#if defined(STTSV_DEBUG_CHECKS)
  EXPECT_THROW(guard.check(), InternalError);
#else
  guard.check();  // no-op outside Debug
#endif

  AllocationGuard unpooled_guard(pool);
  unpooled_guard.dismiss();
  PooledBuffer cold;
  cold.push_back(1.0);  // unpooled growth, tallied process-wide
  EXPECT_EQ(unpooled_guard.new_slab_allocations(), 0u);
  EXPECT_EQ(unpooled_guard.new_unpooled_allocations(), 1u);
#if defined(STTSV_DEBUG_CHECKS)
  EXPECT_THROW(unpooled_guard.check(), InternalError);
#endif
}

}  // namespace
}  // namespace sttsv
