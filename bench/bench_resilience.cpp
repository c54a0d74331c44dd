// Resilient-exchange reproduction (DESIGN.md §10): sweep injected fault
// rates and seeds through ReliableExchange-driven Algorithm-5 runs and
// verify the subsystem's contract —
//
//   * y bitwise identical to the fault-free run at every rate/seed,
//   * the ledger's goodput channel (the Theorem 5.2 quantity) exactly
//     equal to the fault-free ledger, rank by rank,
//   * all resilience cost (framing, ACK/NACK rounds, retransmissions,
//     injected duplicates, backoff) confined to the overhead channel,
//   * kDegrade completing bitwise under extreme loss with structured
//     FaultReports on record,
//
// and report the overhead-vs-goodput price of the protocol per fault
// rate. Results go to BENCH_resilience.json in the working directory.
// `--quick` runs a reduced sweep for CI smoke. `--trace <path>` runs one
// extra faulty run with the obs tracer enabled and writes a Chrome
// trace_event JSON (open in chrome://tracing or ui.perfetto.dev) plus a
// flat metrics file at <path>.metrics.json.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/parallel_sttsv.hpp"
#include "elastic/recovery.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "repro_common.hpp"
#include "simt/fault_injector.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tensor/generators.hpp"

namespace {

using namespace sttsv;

struct RatePoint {
  double rate = 0.0;
  std::size_t seeds = 0;
  std::size_t seeds_bitwise = 0;
  std::size_t seeds_goodput_exact = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t retransmitted_frames = 0;
  std::uint64_t duplicate_frames_ignored = 0;
  std::uint64_t corrupt_frames_detected = 0;
  std::uint64_t goodput_words = 0;    // per run (identical across seeds)
  std::uint64_t overhead_words = 0;   // mean over seeds
  std::uint64_t overhead_rounds = 0;  // mean over seeds
  /// Injected-fault counts indexed by simt::FaultKind.
  std::uint64_t by_kind[6] = {};
};

constexpr const char* kKindNames[6] = {"drop",    "corrupt", "duplicate",
                                       "reorder", "stall",   "crash"};

/// One row of the per-fault-kind overhead breakdown: a single fault
/// class alone on the wire, so the protocol cost is attributable.
struct KindPoint {
  std::string kind;
  double rate = 0.0;
  std::size_t seeds = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t mean_overhead_words = 0;
  std::uint64_t mean_recovery_words = 0;
  std::size_t shrinks = 0;
  double mean_detection_attempts = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }

  repro::banner(quick ? "Resilient exchange under faults (quick smoke)"
                      : "Resilient exchange under faults (full sweep)");
  repro::Checker check;

  const std::size_t n = quick ? 60 : 120;
  const std::size_t q = quick ? 2 : 3;
  const std::size_t num_seeds = quick ? 8 : 32;
  const std::vector<double> rates =
      quick ? std::vector<double>{0.0, 0.05, 0.20}
            : std::vector<double>{0.0, 0.01, 0.05, 0.10, 0.20};

  const auto part = partition::TetraPartition::build(
      steiner::spherical_system(static_cast<std::size_t>(q)));
  const partition::VectorDistribution dist(part, n);
  const std::size_t P = part.num_processors();
  Rng rng(2026);
  const tensor::SymTensor3 a = tensor::random_symmetric(n, rng);
  const std::vector<double> x = rng.uniform_vector(n);

  // Fault-free reference: raw machine, raw exchange.
  simt::Machine clean(P);
  const auto ref = core::parallel_sttsv(clean, part, dist, a, x,
                                        simt::Transport::kPointToPoint);
  const std::uint64_t ref_words = clean.ledger().total_words();

  std::cout << "  n = " << n << ", q = " << q << ", P = " << P
            << ", seeds per rate = " << num_seeds << "\n\n";

  std::vector<RatePoint> points;
  for (const double rate : rates) {
    RatePoint pt;
    pt.rate = rate;
    pt.seeds = num_seeds;
    std::uint64_t overhead_sum = 0;
    std::uint64_t overhead_rounds_sum = 0;
    for (std::uint64_t seed = 0; seed < num_seeds; ++seed) {
      simt::FaultConfig cfg;
      cfg.drop = rate;
      cfg.corrupt = rate * 0.8;
      cfg.duplicate = rate * 0.6;
      cfg.reorder = rate > 0.0 ? 0.25 : 0.0;
      cfg.stall = rate * 0.25;
      cfg.seed = 0xC0FFEE + seed;
      simt::FaultInjector injector(cfg);

      simt::Machine machine(P);
      machine.set_fault_injector(&injector);
      simt::ReliableExchange rex(machine, simt::RetryPolicy{32, 1, 64},
                                 simt::RecoveryPolicy::kFailFast);
      const auto got = core::parallel_sttsv(
          rex, part, dist, a, x, simt::Transport::kPointToPoint);

      const bool bitwise =
          got.y.size() == ref.y.size() &&
          std::memcmp(got.y.data(), ref.y.data(),
                      ref.y.size() * sizeof(double)) == 0;
      if (bitwise) ++pt.seeds_bitwise;

      bool goodput_exact =
          machine.ledger().rounds() == clean.ledger().rounds();
      for (std::size_t p = 0; goodput_exact && p < P; ++p) {
        goodput_exact =
            machine.ledger().words_sent(simt::Channel::kGoodput, p) ==
                clean.ledger().words_sent(simt::Channel::kGoodput, p) &&
            machine.ledger().messages_sent(simt::Channel::kGoodput, p) ==
                clean.ledger().messages_sent(simt::Channel::kGoodput, p);
      }
      if (goodput_exact) ++pt.seeds_goodput_exact;

      machine.ledger().verify_conservation();
      pt.faults_injected += injector.log().size();
      for (const simt::FaultEvent& ev : injector.log()) {
        ++pt.by_kind[static_cast<std::size_t>(ev.kind)];
      }
      pt.retransmitted_frames += rex.stats().retransmitted_frames;
      pt.duplicate_frames_ignored += rex.stats().duplicate_frames_ignored;
      pt.corrupt_frames_detected += rex.stats().corrupt_frames_detected;
      pt.goodput_words = machine.ledger().total_words();
      overhead_sum += machine.ledger().total_words(simt::Channel::kOverhead);
      overhead_rounds_sum += machine.ledger().rounds(simt::Channel::kOverhead);
    }
    pt.overhead_words = overhead_sum / num_seeds;
    pt.overhead_rounds = overhead_rounds_sum / num_seeds;
    points.push_back(pt);
  }

  TextTable table({"fault rate", "bitwise", "goodput exact", "faults",
                   "retrans", "overhead words (mean)", "overhead/goodput"},
                  std::vector<Align>(7, Align::kRight));
  for (const RatePoint& pt : points) {
    table.add_row(
        {format_double(pt.rate, 2),
         std::to_string(pt.seeds_bitwise) + "/" + std::to_string(pt.seeds),
         std::to_string(pt.seeds_goodput_exact) + "/" +
             std::to_string(pt.seeds),
         std::to_string(pt.faults_injected),
         std::to_string(pt.retransmitted_frames),
         std::to_string(pt.overhead_words),
         format_double(static_cast<double>(pt.overhead_words) /
                           static_cast<double>(pt.goodput_words),
                       3)});
  }
  std::cout << table << "\n";

  for (const RatePoint& pt : points) {
    const std::string tag = "rate=" + format_double(pt.rate, 2) + ": ";
    check.check(pt.seeds_bitwise == pt.seeds,
                tag + "y bitwise identical to fault-free for every seed");
    check.check(pt.seeds_goodput_exact == pt.seeds,
                tag + "goodput channel exactly the fault-free ledger");
    check.check(pt.goodput_words == ref_words,
                tag + "goodput words equal the raw-run total");
    if (pt.rate > 0.0) {
      check.check(pt.faults_injected > 0, tag + "sweep injected faults");
      check.check(pt.overhead_words > 0,
                  tag + "protocol cost accounted as overhead");
    }
  }

  // --- Degraded-mode recovery under extreme loss. ----------------------
  std::uint64_t degraded_deliveries = 0;
  std::size_t degraded_reports = 0;
  bool degraded_bitwise = false;
  {
    simt::FaultInjector injector({.drop = 0.95, .seed = 7});
    simt::Machine machine(P);
    machine.set_fault_injector(&injector);
    simt::ReliableExchange rex(machine, simt::RetryPolicy{2, 1, 4},
                               simt::RecoveryPolicy::kDegrade);
    const auto got = core::parallel_sttsv(
        rex, part, dist, a, x, simt::Transport::kPointToPoint);
    degraded_bitwise =
        got.y.size() == ref.y.size() &&
        std::memcmp(got.y.data(), ref.y.data(),
                    ref.y.size() * sizeof(double)) == 0;
    degraded_deliveries = rex.stats().degraded_deliveries;
    degraded_reports = rex.reports().size();
    check.check(degraded_bitwise,
                "kDegrade recovers bitwise under 95% frame loss");
    check.check(degraded_reports > 0,
                "degraded exchanges leave structured FaultReports");
  }

  // --- Per-fault-kind overhead breakdown. ------------------------------
  // One fault class at a time on the wire isolates its marginal protocol
  // cost over the "none" baseline (framing + ACKs exist even fault-free).
  // The crash row runs the elastic recovery loop (two scheduled deaths
  // at the same site) and reports the redistribution traffic metered in
  // the ledger's recovery channel plus detection latency in protocol
  // attempts (DESIGN.md §15).
  std::vector<KindPoint> kinds;
  {
    const std::size_t kind_seeds = quick ? 4 : 8;
    struct KindCfg {
      const char* name;
      simt::FaultConfig cfg;
      double rate;
    };
    const std::vector<KindCfg> cfgs = {
        {"none", {}, 0.0},
        {"drop", {.drop = 0.10}, 0.10},
        {"corrupt", {.corrupt = 0.10}, 0.10},
        {"duplicate", {.duplicate = 0.10}, 0.10},
        {"reorder", {.reorder = 0.25}, 0.25},
        {"stall", {.stall = 0.10}, 0.10},
    };
    for (const KindCfg& kc : cfgs) {
      KindPoint kp;
      kp.kind = kc.name;
      kp.rate = kc.rate;
      kp.seeds = kind_seeds;
      std::uint64_t overhead_sum = 0;
      for (std::uint64_t seed = 0; seed < kind_seeds; ++seed) {
        simt::FaultConfig cfg = kc.cfg;
        cfg.seed = 0xB0B0 + seed;
        simt::FaultInjector injector(cfg);
        simt::Machine machine(P);
        machine.set_fault_injector(&injector);
        simt::ReliableExchange rex(machine, simt::RetryPolicy{32, 1, 64},
                                   simt::RecoveryPolicy::kFailFast);
        const auto got = core::parallel_sttsv(
            rex, part, dist, a, x, simt::Transport::kPointToPoint);
        check.check(got.y.size() == ref.y.size() &&
                        std::memcmp(got.y.data(), ref.y.data(),
                                    ref.y.size() * sizeof(double)) == 0,
                    std::string("kind=") + kc.name + " seed " +
                        std::to_string(seed) + ": bitwise recovery");
        machine.ledger().verify_conservation();
        kp.faults_injected += injector.log().size();
        overhead_sum += machine.ledger().total_words(simt::Channel::kOverhead);
      }
      kp.mean_overhead_words = overhead_sum / kind_seeds;
      kinds.push_back(kp);
    }

    KindPoint crash;
    crash.kind = "crash";
    crash.rate = 0.0;  // scheduled deterministically, not rolled
    crash.seeds = kind_seeds;
    std::uint64_t overhead_sum = 0;
    std::uint64_t recovery_sum = 0;
    std::size_t detection_sum = 0;
    for (std::uint64_t seed = 0; seed < kind_seeds; ++seed) {
      simt::FaultInjector injector({.seed = 0xDEAD00 + seed});
      const std::size_t r0 = seed % P;
      const std::size_t r1 = (r0 + 1 + seed % (P - 1)) % P;
      const std::uint64_t site = 1 + seed % 2;
      injector.schedule_crash(r0, site);
      injector.schedule_crash(r1, site);
      simt::Machine machine(P);
      machine.set_fault_injector(&injector);
      elastic::RecoveryOptions ro;
      // The retry budget must exceed the liveness bound: a crash landing
      // on an ACK exchange leaves the dead ranks "heard" in attempt 1,
      // so the silence counter needs two further attempts to convict.
      ro.retry = simt::RetryPolicy{3, 1, 4};
      ro.liveness = simt::LivenessPolicy{true, 2};
      const auto out =
          elastic::run_with_recovery(machine, part, dist, a, x, ro);
      check.check(out.result.y.size() == ref.y.size() &&
                      std::memcmp(out.result.y.data(), ref.y.data(),
                                  ref.y.size() * sizeof(double)) == 0,
                  "crash seed " + std::to_string(seed) +
                      ": y bitwise identical after elastic shrink");
      machine.ledger().verify_conservation();
      crash.faults_injected += injector.log().size();
      crash.shrinks += out.shrinks;
      overhead_sum += machine.ledger().total_words(simt::Channel::kOverhead);
      recovery_sum += machine.ledger().total_words(simt::Channel::kRecovery);
      detection_sum += out.detection_attempts;
    }
    crash.mean_overhead_words = overhead_sum / kind_seeds;
    crash.mean_recovery_words = recovery_sum / kind_seeds;
    crash.mean_detection_attempts =
        static_cast<double>(detection_sum) / static_cast<double>(kind_seeds);
    kinds.push_back(crash);

    TextTable kind_table({"kind", "rate", "faults", "overhead words (mean)",
                          "recovery words (mean)", "shrinks"},
                         std::vector<Align>(6, Align::kRight));
    for (const KindPoint& kp : kinds) {
      kind_table.add_row({kp.kind, format_double(kp.rate, 2),
                          std::to_string(kp.faults_injected),
                          std::to_string(kp.mean_overhead_words),
                          std::to_string(kp.mean_recovery_words),
                          std::to_string(kp.shrinks)});
    }
    std::cout << "\n" << kind_table << "\n";

    const std::uint64_t baseline = kinds.front().mean_overhead_words;
    check.check(kinds.front().faults_injected == 0,
                "breakdown baseline runs fault-free");
    for (const KindPoint& kp : kinds) {
      if (kp.kind == "none" || kp.kind == "reorder") continue;
      check.check(kp.faults_injected > 0,
                  "kind=" + kp.kind + ": faults injected");
      // Crash cost lives in the recovery channel (and the survivor run
      // frames fewer ranks, so its overhead can drop below baseline).
      if (kp.kind == "crash") continue;
      check.check(kp.mean_overhead_words > baseline,
                  "kind=" + kp.kind + ": overhead above fault-free baseline");
    }
    check.check(kinds.back().shrinks == kind_seeds,
                "crash rows shrink exactly once per run");
    check.check(recovery_sum > 0,
                "crash redistribution metered in the recovery channel");
  }

  // --- Optional traced faulty run (--trace <path>). --------------------
  if (!trace_path.empty()) {
    obs::tracer().clear();
    obs::tracer().configure({.tracing = true});

    simt::FaultConfig cfg;
    cfg.drop = 0.20;
    cfg.corrupt = 0.16;
    cfg.duplicate = 0.12;
    cfg.reorder = 0.25;
    cfg.stall = 0.05;
    cfg.seed = 0xC0FFEE;
    simt::FaultInjector injector(cfg);
    simt::Machine machine(P);
    machine.set_fault_injector(&injector);
    simt::ReliableExchange rex(machine, simt::RetryPolicy{32, 1, 64},
                               simt::RecoveryPolicy::kFailFast);
    const auto traced = core::parallel_sttsv(
        rex, part, dist, a, x, simt::Transport::kPointToPoint);

    const auto spans = obs::tracer().snapshot();
    obs::tracer().configure({.tracing = false});

    check.check(traced.y.size() == ref.y.size() &&
                    std::memcmp(traced.y.data(), ref.y.data(),
                                ref.y.size() * sizeof(double)) == 0,
                "traced run stays bitwise identical to fault-free");
    std::size_t overhead_spans = 0;
    for (const auto& s : spans) {
      if (s.category == obs::Category::kRetry) ++overhead_spans;
    }
    check.check(!spans.empty(), "tracer captured spans of the faulty run");
    check.check(overhead_spans > 0,
                "retry/ACK spans attributed to the overhead channel");

    obs::MetricsRegistry registry;
    machine.ledger().to_metrics(registry);
    rex.publish_metrics(registry);
    injector.publish_metrics(registry);

    // The exported metrics must reproduce the ledger exactly: the maxima
    // and every per-rank goodput word count, word for word.
    const simt::CommLedger& led = machine.ledger();
    check.check(registry.counter("ledger.goodput.max_words_sent") ==
                        led.max_words_sent() &&
                    registry.counter("ledger.goodput.max_words_received") ==
                        led.max_words_received() &&
                    registry.counter("ledger.overhead.max_words_sent") ==
                        led.max_words_sent(simt::Channel::kOverhead) &&
                    registry.counter("ledger.overhead.max_words_received") ==
                        led.max_words_received(simt::Channel::kOverhead),
                "exported metrics reproduce the ledger's maxima exactly");
    bool per_rank_exact = true;
    for (std::size_t p = 0; p < P; ++p) {
      const std::string r = ".r" + std::to_string(p);
      per_rank_exact =
          per_rank_exact &&
          registry.counter("ledger.goodput.words_sent" + r) ==
              led.words_sent(simt::Channel::kGoodput, p) &&
          registry.counter("ledger.goodput.words_received" + r) ==
              led.words_received(simt::Channel::kGoodput, p);
    }
    check.check(per_rank_exact,
                "per-rank goodput word counters match the ledger");

    {
      std::ofstream tf(trace_path);
      obs::write_chrome_trace(tf, spans);
    }
    {
      std::ofstream mf(trace_path + ".metrics.json");
      repro::JsonWriter w(mf);
      w.begin_object();
      w.field("schema", "sttsv.bench/v1");
      w.field("bench", "bench_resilience");
      w.field("run", "traced-faulty");
      repro::write_observability(w, machine.ledger(), registry);
      w.end_object();
    }
    const std::string summary = obs::rank_summary(spans);
    if (!summary.empty()) std::cout << "\n" << summary;
    std::cout << "\n  wrote " << trace_path << " and " << trace_path
              << ".metrics.json\n";
  }

  // --- Machine-readable artifact. --------------------------------------
  {
    std::ofstream out("BENCH_resilience.json");
    repro::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "sttsv.bench/v1");
    w.field("bench", "bench_resilience");
    w.field("mode", quick ? "quick" : "full");
    w.field("n", static_cast<std::uint64_t>(n));
    w.field("family", "spherical");
    w.field("q", static_cast<std::uint64_t>(q));
    w.field("P", static_cast<std::uint64_t>(P));
    w.field("seeds_per_rate", static_cast<std::uint64_t>(num_seeds));
    w.field("fault_free_total_words", ref_words);
    w.begin_array("sweep");
    for (const RatePoint& pt : points) {
      w.begin_object();
      w.field("fault_rate", pt.rate);
      w.field("seeds", static_cast<std::uint64_t>(pt.seeds));
      w.field("seeds_bitwise", static_cast<std::uint64_t>(pt.seeds_bitwise));
      w.field("seeds_goodput_exact",
              static_cast<std::uint64_t>(pt.seeds_goodput_exact));
      w.field("faults_injected", pt.faults_injected);
      w.field("retransmitted_frames", pt.retransmitted_frames);
      w.field("duplicate_frames_ignored", pt.duplicate_frames_ignored);
      w.field("corrupt_frames_detected", pt.corrupt_frames_detected);
      w.begin_object("injected_by_kind");
      for (std::size_t k = 0; k < 6; ++k) {
        w.field(kKindNames[k], pt.by_kind[k]);
      }
      w.end_object();
      w.field("goodput_words", pt.goodput_words);
      w.field("mean_overhead_words", pt.overhead_words);
      w.field("mean_overhead_rounds", pt.overhead_rounds);
      w.field("overhead_per_goodput",
              static_cast<double>(pt.overhead_words) /
                  static_cast<double>(pt.goodput_words));
      w.end_object();
    }
    w.end_array();
    w.begin_object("degraded_mode");
    w.field("drop_rate", 0.95);
    w.field("bitwise_recovery", degraded_bitwise);
    w.field("degraded_deliveries", degraded_deliveries);
    w.field("fault_reports", static_cast<std::uint64_t>(degraded_reports));
    w.end_object();
    w.begin_array("fault_kind_breakdown");
    for (const KindPoint& kp : kinds) {
      w.begin_object();
      w.field("kind", kp.kind);
      w.field("rate", kp.rate);
      w.field("seeds", static_cast<std::uint64_t>(kp.seeds));
      w.field("faults_injected", kp.faults_injected);
      w.field("mean_overhead_words", kp.mean_overhead_words);
      w.field("mean_recovery_words", kp.mean_recovery_words);
      w.field("shrinks", static_cast<std::uint64_t>(kp.shrinks));
      w.field("mean_detection_attempts", kp.mean_detection_attempts);
      w.end_object();
    }
    w.end_array();
    // Two-channel ledger of the last sweep run's machine shape, taken
    // from a dedicated fault-free protocol run so the artifact also
    // prices resilience at rate 0.
    {
      simt::Machine machine(P);
      simt::ReliableExchange rex(machine);
      core::parallel_sttsv(rex, part, dist, a, x,
                           simt::Transport::kPointToPoint);
      obs::MetricsRegistry registry;
      machine.ledger().to_metrics(registry);
      rex.publish_metrics(registry);
      repro::write_observability(w, machine.ledger(), registry);
    }
    w.end_object();
  }
  std::cout << "\n  wrote BENCH_resilience.json\n";

  std::cout << "\n"
            << (check.failures() == 0 ? "All" : "Some")
            << " resilience checks "
            << (check.failures() == 0 ? "passed." : "FAILED.") << "\n";
  return check.exit_code();
}
