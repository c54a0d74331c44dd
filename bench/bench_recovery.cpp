// Rank-loss recovery reproduction (DESIGN.md §15): schedule f permanent
// crash faults, drive the elastic recovery loop, and measure the three
// quantities the subsystem promises to bound —
//
//   * detection latency: silent protocol attempts backing each verdict,
//   * redistribution traffic: measured recovery-channel words, checked
//     word-for-word against the planner's movement diff and compared to
//     the from-scratch redistribution lower bound,
//   * time-to-recover: wall time of the crashed run over the fault-free
//     elastic baseline,
//
// across f ∈ {1, 2, 4} dead ranks, while verifying the correctness
// contract on every run: the final y bitwise identical to the fault-free
// run, three-channel ledger conservation, and measured == planned
// redistribution words. Results go to BENCH_recovery.json in the working
// directory; `--quick` runs a reduced sweep for CI smoke.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/parallel_sttsv.hpp"
#include "elastic/recovery.hpp"
#include "obs/metrics.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "repro_common.hpp"
#include "simt/fault_injector.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tensor/generators.hpp"

namespace {

using namespace sttsv;
using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

struct FPoint {
  std::size_t f = 0;
  std::size_t seeds = 0;
  std::size_t seeds_bitwise = 0;
  std::size_t seeds_words_exact = 0;  // measured == planned, to the word
  double mean_detection_attempts = 0.0;
  double mean_redistribution_words = 0.0;
  double mean_from_scratch_words = 0.0;
  double mean_recover_ms = 0.0;   // crashed run, end to end
  double mean_baseline_ms = 0.0;  // fault-free elastic run
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  repro::banner(quick ? "Rank-loss recovery (quick smoke)"
                      : "Rank-loss recovery (full sweep)");
  repro::Checker check;

  const std::size_t n = quick ? 60 : 120;
  const std::size_t q = quick ? 2 : 3;
  const std::size_t num_seeds = quick ? 4 : 16;
  const std::vector<std::size_t> fs = {1, 2, 4};

  const auto part = partition::TetraPartition::build(
      steiner::spherical_system(static_cast<std::size_t>(q)));
  const partition::VectorDistribution dist(part, n);
  const std::size_t P = part.num_processors();
  Rng rng(2026);
  const tensor::SymTensor3 a = tensor::random_symmetric(n, rng);
  const std::vector<double> x = rng.uniform_vector(n);

  // Fault-free reference: y to match bitwise, and the elastic baseline
  // wall time the recovery runs are compared against.
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, part, dist, a, x,
                                        simt::Transport::kPointToPoint);

  std::cout << "  n = " << n << ", q = " << q << ", P = " << P
            << ", seeds per f = " << num_seeds << "\n\n";

  // The retry budget must exceed the liveness bound: a crash landing on
  // an ACK exchange leaves the dead ranks "heard" in attempt 1, so the
  // silence counter needs two further attempts to convict.
  elastic::RecoveryOptions ro;
  ro.retry = simt::RetryPolicy{3, 1, 4};
  ro.liveness = simt::LivenessPolicy{true, 2};

  std::vector<FPoint> points;
  for (const std::size_t f : fs) {
    FPoint pt;
    pt.f = f;
    pt.seeds = num_seeds;
    double detect_sum = 0.0;
    double words_sum = 0.0;
    double scratch_sum = 0.0;
    double recover_ms_sum = 0.0;
    double baseline_ms_sum = 0.0;
    for (std::uint64_t seed = 0; seed < num_seeds; ++seed) {
      // Fault-free elastic baseline (same code path, no injector).
      {
        simt::Machine machine(P);
        const auto t0 = Clock::now();
        const auto out =
            elastic::run_with_recovery(machine, part, dist, a, x, ro);
        baseline_ms_sum += elapsed_ms(t0, Clock::now());
        if (seed == 0) {
          check.check(out.shrinks == 0 && out.redistribution_words == 0,
                      "f=" + std::to_string(f) +
                          ": fault-free baseline neither shrinks nor moves");
        }
      }

      // f distinct ranks die at the same scheduled exchange.
      simt::FaultInjector injector({.seed = 0xEC0 + seed});
      const std::uint64_t site = 1 + seed % 3;
      for (std::size_t j = 0; j < f; ++j) {
        injector.schedule_crash((seed + j) % P, site);
      }
      simt::Machine machine(P);
      machine.set_fault_injector(&injector);
      const auto t0 = Clock::now();
      const auto out =
          elastic::run_with_recovery(machine, part, dist, a, x, ro);
      recover_ms_sum += elapsed_ms(t0, Clock::now());

      const bool bitwise =
          out.result.y.size() == ref.y.size() &&
          std::memcmp(out.result.y.data(), ref.y.data(),
                      ref.y.size() * sizeof(double)) == 0;
      if (bitwise) ++pt.seeds_bitwise;

      machine.ledger().verify_conservation();
      std::uint64_t planned = 0;
      std::uint64_t scratch = 0;
      for (const elastic::RedistributionPlan& plan : out.redistributions) {
        planned += plan.planned_words;
        scratch += plan.from_scratch_words;
      }
      const bool words_exact =
          out.redistribution_words == planned &&
          machine.ledger().total_words(simt::Channel::kRecovery) == planned;
      if (words_exact) ++pt.seeds_words_exact;
      check.check(machine.num_alive() == P - f,
                  "f=" + std::to_string(f) + " seed " + std::to_string(seed) +
                      ": run shrank to the survivor set");
      check.check(planned <= scratch,
                  "f=" + std::to_string(f) + " seed " + std::to_string(seed) +
                      ": movement diff within the from-scratch bound");

      detect_sum += static_cast<double>(out.detection_attempts);
      words_sum += static_cast<double>(out.redistribution_words);
      scratch_sum += static_cast<double>(scratch);
    }
    const double inv = 1.0 / static_cast<double>(num_seeds);
    pt.mean_detection_attempts = detect_sum * inv;
    pt.mean_redistribution_words = words_sum * inv;
    pt.mean_from_scratch_words = scratch_sum * inv;
    pt.mean_recover_ms = recover_ms_sum * inv;
    pt.mean_baseline_ms = baseline_ms_sum * inv;
    points.push_back(pt);
  }

  TextTable table({"f", "bitwise", "words exact", "detect attempts (mean)",
                   "redist words (mean)", "scratch words (mean)",
                   "recover ms (mean)", "baseline ms (mean)"},
                  std::vector<Align>(8, Align::kRight));
  for (const FPoint& pt : points) {
    table.add_row(
        {std::to_string(pt.f),
         std::to_string(pt.seeds_bitwise) + "/" + std::to_string(pt.seeds),
         std::to_string(pt.seeds_words_exact) + "/" +
             std::to_string(pt.seeds),
         format_double(pt.mean_detection_attempts, 1),
         format_double(pt.mean_redistribution_words, 1),
         format_double(pt.mean_from_scratch_words, 1),
         format_double(pt.mean_recover_ms, 2),
         format_double(pt.mean_baseline_ms, 2)});
  }
  std::cout << table << "\n";

  for (const FPoint& pt : points) {
    const std::string tag = "f=" + std::to_string(pt.f) + ": ";
    check.check(pt.seeds_bitwise == pt.seeds,
                tag + "y bitwise identical to fault-free for every seed");
    check.check(pt.seeds_words_exact == pt.seeds,
                tag + "measured redistribution words == planned diff");
    check.check(pt.mean_detection_attempts > 0.0,
                tag + "detector accumulated silent attempts");
    check.check(pt.mean_from_scratch_words > 0.0,
                tag + "from-scratch comparator is nontrivial");
  }
  check.check(points.back().mean_redistribution_words >
                  points.front().mean_redistribution_words,
              "redistribution traffic grows with f");

  // --- Machine-readable artifact. --------------------------------------
  {
    std::ofstream out("BENCH_recovery.json");
    repro::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "sttsv.bench/v1");
    w.field("bench", "bench_recovery");
    w.field("mode", quick ? "quick" : "full");
    w.field("n", static_cast<std::uint64_t>(n));
    w.field("family", "spherical");
    w.field("q", static_cast<std::uint64_t>(q));
    w.field("P", static_cast<std::uint64_t>(P));
    w.field("seeds_per_f", static_cast<std::uint64_t>(num_seeds));
    w.begin_array("sweep");
    for (const FPoint& pt : points) {
      w.begin_object();
      w.field("f", static_cast<std::uint64_t>(pt.f));
      w.field("seeds", static_cast<std::uint64_t>(pt.seeds));
      w.field("seeds_bitwise", static_cast<std::uint64_t>(pt.seeds_bitwise));
      w.field("seeds_words_exact",
              static_cast<std::uint64_t>(pt.seeds_words_exact));
      w.field("mean_detection_attempts", pt.mean_detection_attempts);
      w.field("mean_redistribution_words", pt.mean_redistribution_words);
      w.field("mean_from_scratch_words", pt.mean_from_scratch_words);
      w.field("diff_vs_scratch_ratio",
              pt.mean_from_scratch_words > 0.0
                  ? pt.mean_redistribution_words / pt.mean_from_scratch_words
                  : 0.0);
      w.field("mean_recover_ms", pt.mean_recover_ms);
      w.field("mean_baseline_ms", pt.mean_baseline_ms);
      w.end_object();
    }
    w.end_array();
    // Three-channel observability block from one representative f=2 run.
    {
      simt::FaultInjector injector({.seed = 0xEC0});
      injector.schedule_crash(0, 1);
      injector.schedule_crash(1, 1);
      simt::Machine machine(P);
      machine.set_fault_injector(&injector);
      (void)elastic::run_with_recovery(machine, part, dist, a, x, ro);
      obs::MetricsRegistry registry;
      machine.ledger().to_metrics(registry);
      injector.publish_metrics(registry);
      repro::write_observability(w, machine.ledger(), registry);
    }
    w.end_object();
  }
  std::cout << "\n  wrote BENCH_recovery.json\n";

  std::cout << "\n"
            << (check.failures() == 0 ? "All" : "Some") << " recovery checks "
            << (check.failures() == 0 ? "passed." : "FAILED.") << "\n";
  return check.exit_code();
}
