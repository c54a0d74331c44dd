// Threaded superstep executor tests: running the per-rank compute phases
// on host threads must leave every observable — the output vector
// (bitwise), the per-rank op counts, and the full communication ledger —
// identical to the sequential rank-order schedule, for every workload
// that routes through simt::parallel_for.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/baselines.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/two_step.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "simt/parallel_for.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::core {
namespace {

using simt::Channel;

void expect_same_ledger(const simt::CommLedger& a, const simt::CommLedger& b) {
  ASSERT_EQ(a.num_ranks(), b.num_ranks());
  EXPECT_EQ(a.rounds(), b.rounds());
  EXPECT_EQ(a.total_words(), b.total_words());
  EXPECT_EQ(a.total_messages(), b.total_messages());
  EXPECT_EQ(a.modeled_collective_words(), b.modeled_collective_words());
  EXPECT_EQ(a.active_pairs(), b.active_pairs());
  for (std::size_t p = 0; p < a.num_ranks(); ++p) {
    EXPECT_EQ(a.words_sent(Channel::kGoodput, p),
              b.words_sent(Channel::kGoodput, p))
        << "p=" << p;
    EXPECT_EQ(a.words_received(Channel::kGoodput, p),
              b.words_received(Channel::kGoodput, p))
        << "p=" << p;
    EXPECT_EQ(a.messages_sent(Channel::kGoodput, p),
              b.messages_sent(Channel::kGoodput, p))
        << "p=" << p;
    EXPECT_EQ(a.messages_received(Channel::kGoodput, p),
              b.messages_received(Channel::kGoodput, p))
        << "p=" << p;
    for (std::size_t q = 0; q < a.num_ranks(); ++q) {
      if (p != q) {
        EXPECT_EQ(a.pair_words(p, q), b.pair_words(p, q));
      }
    }
  }
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    // EXPECT_EQ on doubles is exact comparison — bitwise for non-NaN.
    EXPECT_EQ(got[i], want[i]) << "i=" << i;
  }
}

// The distribution references the partition, so both live behind
// unique_ptrs (same pattern as test_parallel_sttsv.cpp).
struct Workload {
  std::unique_ptr<partition::TetraPartition> part_ptr;
  std::unique_ptr<partition::VectorDistribution> dist_ptr;
  tensor::SymTensor3 a;
  std::vector<double> x;

  [[nodiscard]] const partition::TetraPartition& part() const {
    return *part_ptr;
  }
  [[nodiscard]] const partition::VectorDistribution& dist() const {
    return *dist_ptr;
  }
};

Workload make_workload(steiner::SteinerSystem sys, std::size_t n,
                       std::uint64_t seed) {
  auto part = std::make_unique<partition::TetraPartition>(
      partition::TetraPartition::build(std::move(sys)));
  auto dist = std::make_unique<partition::VectorDistribution>(*part, n);
  Rng rng(seed);
  auto a = tensor::random_symmetric(n, rng);
  auto x = rng.uniform_vector(n);
  return Workload{std::move(part), std::move(dist), std::move(a),
                  std::move(x)};
}

TEST(ThreadedExecutor, ParallelSttsvBitwiseIdenticalAcrossThreadCounts) {
  struct Case {
    std::size_t q;
    std::size_t n;
    simt::Transport transport;
  };
  const Case cases[] = {
      {2, 60, simt::Transport::kPointToPoint},   // divisible
      {2, 37, simt::Transport::kPointToPoint},   // padded shares
      {2, 60, simt::Transport::kAllToAll},       // collective transport
      {3, 120, simt::Transport::kPointToPoint},  // P = 30
  };
  for (const Case& c : cases) {
    Workload w = make_workload(steiner::spherical_system(c.q), c.n, 11 * c.n);
    ParallelRunResult r1;
    simt::Machine m1(w.part().num_processors());
    {
      simt::ConcurrencyGuard serial(1);
      r1 = parallel_sttsv(m1, w.part(), w.dist(), w.a, w.x, c.transport);
    }
    for (const std::size_t threads : {2u, 4u, 7u}) {
      simt::ConcurrencyGuard guard(threads);
      simt::Machine mt(w.part().num_processors());
      const auto rt =
          parallel_sttsv(mt, w.part(), w.dist(), w.a, w.x, c.transport);
      expect_bitwise_equal(rt.y, r1.y);
      EXPECT_EQ(rt.ternary_mults, r1.ternary_mults);
      EXPECT_EQ(mt.ledger().max_words_sent(), m1.ledger().max_words_sent());
      expect_same_ledger(mt.ledger(), m1.ledger());
    }
  }
}

TEST(ThreadedExecutor, BooleanFamilyBitwiseIdentical) {
  Workload w = make_workload(steiner::boolean_quadruple_system(3), 56, 7);
  ParallelRunResult r1;
  simt::Machine m1(w.part().num_processors());
  {
    simt::ConcurrencyGuard serial(1);
    r1 = parallel_sttsv(m1, w.part(), w.dist(), w.a, w.x,
                        simt::Transport::kPointToPoint);
  }
  simt::ConcurrencyGuard guard(4);
  simt::Machine mt(w.part().num_processors());
  const auto rt = parallel_sttsv(mt, w.part(), w.dist(), w.a, w.x,
                                 simt::Transport::kPointToPoint);
  expect_bitwise_equal(rt.y, r1.y);
  expect_same_ledger(mt.ledger(), m1.ledger());
}

TEST(ThreadedExecutor, BaselinesBitwiseIdentical) {
  Rng rng(3);
  const std::size_t n = 48;
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);

  simt::ConcurrencyGuard serial(1);
  simt::Machine m1a(6), m1c(8);
  simt::DirectExchange d1a(m1a), d1c(m1c);
  const auto atomic1 = baseline_1d_atomic(d1a, a, x);
  const auto cubic1 = baseline_cubic(d1c, a, x);

  simt::ConcurrencyGuard guard(5);
  simt::Machine mta(6), mtc(8);
  simt::DirectExchange dta(mta), dtc(mtc);
  const auto atomict = baseline_1d_atomic(dta, a, x);
  const auto cubict = baseline_cubic(dtc, a, x);

  expect_bitwise_equal(atomict.y, atomic1.y);
  EXPECT_EQ(atomict.ternary_mults, atomic1.ternary_mults);
  expect_same_ledger(mta.ledger(), m1a.ledger());
  expect_bitwise_equal(cubict.y, cubic1.y);
  EXPECT_EQ(cubict.ternary_mults, cubic1.ternary_mults);
  expect_same_ledger(mtc.ledger(), m1c.ledger());
}

TEST(ThreadedExecutor, TwoStepBitwiseIdentical) {
  Rng rng(4);
  const std::size_t n = 40;
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::ConcurrencyGuard serial(1);
  const auto y1 = sttsv_two_step(a, x);
  simt::ConcurrencyGuard guard(4);
  const auto yt = sttsv_two_step(a, x);
  expect_bitwise_equal(yt, y1);
}

// ---- parallel_for unit behaviour -----------------------------------------

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 4u, 9u}) {
    simt::ConcurrencyGuard guard(threads);
    for (const std::size_t count : {0u, 1u, 3u, 64u, 257u}) {
      std::vector<std::atomic<int>> hits(count);
      for (auto& h : hits) h.store(0);
      simt::parallel_for(count, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
      }
    }
  }
}

TEST(ParallelFor, PropagatesFirstException) {
  for (const std::size_t threads : {1u, 4u}) {
    simt::ConcurrencyGuard guard(threads);
    EXPECT_THROW(
        simt::parallel_for(16,
                           [&](std::size_t i) {
                             if (i % 5 == 2) {
                               throw std::runtime_error("boom");
                             }
                           }),
        std::runtime_error);
    // The pool must stay usable after an exceptional job.
    std::atomic<int> total{0};
    simt::parallel_for(8, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 8);
  }
}

TEST(ParallelFor, BackToBackShortJobs) {
  // Trivial bodies let the caller drain a job before its helpers wake; a
  // helper waking late must not join the next job with stale fields
  // (under -fsanitize=thread this is the pool's race check).
  simt::ConcurrencyGuard guard(4);
  std::vector<std::atomic<int>> hits(64);
  for (int job = 0; job < 2000; ++job) {
    const std::size_t count = job % 2 == 0 ? 2 : hits.size();
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    simt::parallel_for(count, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), i < count ? 1 : 0)
          << "job " << job << " i=" << i;
    }
  }
}

TEST(ParallelFor, ConcurrencyGuardRestores) {
  const std::size_t before = simt::host_concurrency();
  {
    simt::ConcurrencyGuard guard(3);
    EXPECT_EQ(simt::host_concurrency(), 3u);
    {
      simt::ConcurrencyGuard inner(1);
      EXPECT_EQ(simt::host_concurrency(), 1u);
    }
    EXPECT_EQ(simt::host_concurrency(), 3u);
  }
  EXPECT_EQ(simt::host_concurrency(), before);
}

TEST(ParallelFor, HostThreadsEnvAcceptsDecimalDigitsOnly) {
  const char* raw = std::getenv("STTSV_HOST_THREADS");
  const bool had = raw != nullptr;
  const std::string saved = had ? raw : "";
  simt::ConcurrencyGuard automatic(0);  // no override: the env decides
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : hw;
  // strtoul would read each of these as about 2^64 threads.
  for (const char* junk :
       {"-1", "-4", "18446744073709551617", "99999999999999999999"}) {
    ::setenv("STTSV_HOST_THREADS", junk, 1);
    EXPECT_EQ(simt::host_concurrency(), fallback) << "value " << junk;
  }
  ::setenv("STTSV_HOST_THREADS", "4", 1);
  EXPECT_EQ(simt::host_concurrency(), 4u);
  if (had) {
    ::setenv("STTSV_HOST_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("STTSV_HOST_THREADS");
  }
}

}  // namespace
}  // namespace sttsv::core
