// Every algorithm over every backend: HOPM (both drivers), MTTKRP, the
// CP gradient (both drivers), the 2D SYMV, the communication replay, both
// E5 baselines and the elastic redistribution each take an Exchanger,
// and each result over "reliable", "onesided" and "hier" must be bitwise
// equal to "direct" with the ledger conserved on every channel. Every
// backend's deliveries outlive the exchanges after theirs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/cp_gradient.hpp"
#include "apps/hopm.hpp"
#include "backends.hpp"
#include "batch/plan.hpp"
#include "core/baselines.hpp"
#include "core/comm_only.hpp"
#include "core/mttkrp.hpp"
#include "elastic/assignment.hpp"
#include "elastic/recovery.hpp"
#include "matrix/pair_system.hpp"
#include "matrix/parallel_symv.hpp"
#include "matrix/sym_matrix.hpp"
#include "matrix/triangle_partition.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv {
namespace {

using simt::Channel;
using simt::Machine;
using simt::Transport;

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs `body` once per backend on a fresh P-rank machine, checks ledger
/// conservation after each run, and returns the results in kBackends
/// order ("direct" first).
template <class Body>
auto over_backends(std::size_t P, Body body) {
  std::vector<decltype(body(std::declval<simt::Exchanger&>()))> out;
  for (const char* name : test::kBackends) {
    SCOPED_TRACE(name);
    Machine machine(P);
    const auto ex = test::make_backend(name, machine);
    out.push_back(body(*ex));
    machine.ledger().verify_conservation();
  }
  return out;
}

/// Payload words on every channel that carries them: goodput for the
/// two-sided paths, onesided for Puts and node-local hand-offs.
std::uint64_t payload_words(const simt::CommLedger& led) {
  return led.total_words() + led.total_words(Channel::kOneSided);
}

/// The per-rank payload maximum, the Theorem 5.2 quantity on any backend:
/// max over ranks of goodput plus onesided words sent.
std::uint64_t max_payload_words_sent(const simt::CommLedger& led) {
  std::uint64_t most = 0;
  for (std::size_t p = 0; p < led.num_ranks(); ++p) {
    most = std::max(most, led.words_sent(Channel::kGoodput, p) +
                              led.words_sent(Channel::kOneSided, p));
  }
  return most;
}

struct TetraSetup {
  partition::TetraPartition part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  std::size_t n;
  partition::VectorDistribution dist;
  tensor::SymTensor3 a;

  explicit TetraSetup(std::size_t n_, std::uint64_t seed)
      : n(n_), dist(part, n_), a([&] {
          Rng rng(seed);
          return tensor::random_symmetric(n_, rng);
        }()) {}
};

TEST(Backends, EachWrapsItsMachineAndRunsNoDeliveryHandler) {
  for (const char* name : test::kBackends) {
    SCOPED_TRACE(name);
    Machine machine(4);
    const auto ex = test::make_backend(name, machine);
    EXPECT_EQ(&ex->machine(), &machine);
    EXPECT_FALSE(ex->supports_handler_delivery());
  }
}

TEST(Backends, DeliveriesOutliveTheNextExchange) {
  // Ranks 1 and 3 send leased slabs to rank 0 in each of three exchanges;
  // 1 -> 0 is node-local under "hier" (nodes {0, 1} and {2, 3}), 3 -> 0
  // crosses its fabric. The first exchange's inbox is read only after the
  // third returns: every backend delivers owned buffers, so it still
  // holds the first exchange's words, not whatever later reused a slab.
  constexpr std::size_t kWords = 8;
  const auto word = [](std::size_t exchange, std::size_t from,
                       std::size_t i) {
    return static_cast<double>(100 * exchange + 10 * from + i);
  };
  for (const char* name : test::kBackends) {
    SCOPED_TRACE(name);
    Machine machine(4);
    const auto ex = test::make_backend(name, machine);
    const auto exchange = [&](std::size_t k) {
      std::vector<std::vector<simt::Envelope>> out(4);
      for (const std::size_t from : {std::size_t{1}, std::size_t{3}}) {
        simt::PooledBuffer payload = machine.pool().acquire(from, kWords);
        for (std::size_t i = 0; i < kWords; ++i) {
          payload.push_back(word(k, from, i));
        }
        out[from].push_back(simt::Envelope{0, std::move(payload)});
      }
      return ex->exchange(std::move(out), Transport::kPointToPoint);
    };
    const auto first = exchange(1);
    (void)exchange(2);
    (void)exchange(3);
    ASSERT_EQ(first[0].size(), 2u);
    EXPECT_EQ(first[0][0].from, 1u);
    EXPECT_EQ(first[0][1].from, 3u);
    for (const simt::Delivery& d : first[0]) {
      ASSERT_EQ(d.data.size(), kWords);
      for (std::size_t i = 0; i < kWords; ++i) {
        EXPECT_EQ(d.data[i], word(1, d.from, i))
            << "from " << d.from << ", word " << i;
      }
    }
    machine.ledger().verify_conservation();
  }
}

TEST(Backends, HopmDriversMatchDirectBitwise) {
  const TetraSetup s(30, 51);
  apps::HopmOptions opts;
  opts.shift = 1.0;
  opts.max_iterations = 25;
  const std::size_t P = s.part.num_processors();
  for (const bool fully_distributed : {false, true}) {
    SCOPED_TRACE(fully_distributed ? "hopm_fully_distributed"
                                   : "hopm_parallel");
    const auto runs = over_backends(P, [&](simt::Exchanger& ex) {
      return fully_distributed
                 ? apps::hopm_fully_distributed(ex, s.part, s.dist, s.a, opts)
                 : apps::hopm_parallel(ex, s.part, s.dist, s.a, opts);
    });
    for (std::size_t k = 1; k < runs.size(); ++k) {
      SCOPED_TRACE(test::kBackends[k]);
      EXPECT_TRUE(bitwise_equal(runs[k].eigenvector, runs[0].eigenvector));
      EXPECT_TRUE(bitwise_equal({runs[k].eigenvalue, runs[k].residual},
                                {runs[0].eigenvalue, runs[0].residual}));
      EXPECT_EQ(runs[k].iterations, runs[0].iterations);
    }
  }
}

TEST(Backends, MttkrpMatchesDirectBitwise) {
  const TetraSetup s(41, 52);
  Rng rng(53);
  std::vector<std::vector<double>> cols(3);
  for (auto& c : cols) c = rng.uniform_vector(s.n);
  const auto runs =
      over_backends(s.part.num_processors(), [&](simt::Exchanger& ex) {
        return core::parallel_symmetric_mttkrp(ex, s.part, s.dist, s.a, cols,
                                               Transport::kPointToPoint);
      });
  for (std::size_t k = 1; k < runs.size(); ++k) {
    SCOPED_TRACE(test::kBackends[k]);
    ASSERT_EQ(runs[k].size(), cols.size());
    for (std::size_t l = 0; l < cols.size(); ++l) {
      EXPECT_TRUE(bitwise_equal(runs[k][l], runs[0][l])) << "column " << l;
    }
  }
}

TEST(Backends, CpGradientsMatchDirectBitwise) {
  const std::size_t n = 36;
  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, Transport::kPointToPoint));
  Rng rng(54);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> cols(3);
  for (auto& c : cols) c = rng.uniform_vector(n, -0.5, 0.5);
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "cp_gradient_batched" : "cp_gradient_parallel");
    const auto runs =
        over_backends(plan->num_processors(), [&](simt::Exchanger& ex) {
          return batched ? apps::cp_gradient_batched(ex, *plan, a, cols)
                         : apps::cp_gradient_parallel(
                               ex, plan->partition(), plan->distribution(),
                               a, cols);
        });
    for (std::size_t k = 1; k < runs.size(); ++k) {
      SCOPED_TRACE(test::kBackends[k]);
      ASSERT_EQ(runs[k].size(), cols.size());
      for (std::size_t l = 0; l < cols.size(); ++l) {
        EXPECT_TRUE(bitwise_equal(runs[k][l], runs[0][l])) << "column " << l;
      }
    }
  }
}

TEST(Backends, ParallelSymvMatchesDirectBitwise) {
  const std::size_t n = 47;
  const auto part = matrix::TrianglePartition::build(
      matrix::projective_plane_system(2), n);
  Rng rng(55);
  const auto a = matrix::random_symmetric_matrix(n, rng);
  const auto x = rng.uniform_vector(n);
  for (const Transport transport :
       {Transport::kPointToPoint, Transport::kAllToAll}) {
    const auto runs =
        over_backends(part.num_processors(), [&](simt::Exchanger& ex) {
          return matrix::parallel_symv(ex, part, a, x, transport).y;
        });
    for (std::size_t k = 1; k < runs.size(); ++k) {
      EXPECT_TRUE(bitwise_equal(runs[k], runs[0])) << test::kBackends[k];
    }
  }
}

TEST(Backends, SimulateCommunicationMovesDirectsWords) {
  const TetraSetup s(53, 56);
  const auto runs =
      over_backends(s.part.num_processors(), [&](simt::Exchanger& ex) {
        core::simulate_communication(ex, s.part, s.dist,
                                     Transport::kPointToPoint);
        const simt::CommLedger& led = ex.machine().ledger();
        return std::make_pair(payload_words(led), max_payload_words_sent(led));
      });
  EXPECT_GT(runs[0].first, 0u);
  EXPECT_GT(runs[0].second, 0u);
  for (std::size_t k = 1; k < runs.size(); ++k) {
    EXPECT_EQ(runs[k].first, runs[0].first) << test::kBackends[k];
    EXPECT_EQ(runs[k].second, runs[0].second) << test::kBackends[k];
  }
}

TEST(Backends, BaselinesMatchDirectBitwise) {
  const std::size_t n = 26;
  Rng rng(57);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  for (const bool cubic : {false, true}) {
    SCOPED_TRACE(cubic ? "baseline_cubic" : "baseline_1d_atomic");
    const auto runs = over_backends(8, [&](simt::Exchanger& ex) {
      return cubic ? core::baseline_cubic(ex, a, x)
                   : core::baseline_1d_atomic(ex, a, x);
    });
    for (std::size_t k = 1; k < runs.size(); ++k) {
      SCOPED_TRACE(test::kBackends[k]);
      EXPECT_TRUE(bitwise_equal(runs[k].y, runs[0].y));
      EXPECT_EQ(runs[k].ternary_mults, runs[0].ternary_mults);
    }
  }
}

TEST(Backends, RedistributionMovesThePlannedWords) {
  const TetraSetup s(60, 58);
  const std::size_t P = s.part.num_processors();
  Rng rng(59);
  const auto x = rng.uniform_vector(s.n);
  const auto from = elastic::BlockAssignment::identity(P);
  for (const std::vector<std::size_t>& dead :
       {std::vector<std::size_t>{2, 5}, std::vector<std::size_t>{0, 3, 7}}) {
    const auto plan = elastic::plan_redistribution(s.part, s.dist, from,
                                                   from.shrink(dead));
    ASSERT_GT(plan.planned_words, 0u);
    for (const char* name : test::kBackends) {
      SCOPED_TRACE(name);
      Machine machine(P);
      const auto ex = test::make_backend(name, machine);
      if (std::string(name) == "reliable") {
        // The protocol does not define how framing charges recovery
        // words, so it refuses them before anything moves.
        EXPECT_THROW((void)elastic::execute_redistribution(*ex, s.part,
                                                           s.dist, x, plan),
                     PreconditionError);
        EXPECT_EQ(machine.ledger().total_words(Channel::kRecovery), 0u);
        continue;
      }
      const std::uint64_t measured =
          elastic::execute_redistribution(*ex, s.part, s.dist, x, plan);
      EXPECT_EQ(measured, plan.planned_words);
      EXPECT_EQ(machine.ledger().total_words(Channel::kRecovery),
                plan.planned_words);
      EXPECT_EQ(payload_words(machine.ledger()), 0u);
      machine.ledger().verify_conservation();
    }
  }
}

}  // namespace
}  // namespace sttsv
