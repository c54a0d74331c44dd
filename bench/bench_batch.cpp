// Batched multi-vector STTSV reproduction (DESIGN.md §9): sweep the
// panel width B and compare one aggregated batch::parallel_sttsv_batch
// pass against the B-iteration single-vector Algorithm-5 loop on the
// same plan. Verifies the subsystem's contract —
//
//   * lane outputs bitwise identical to the single-vector loop,
//   * ledger words identical (words/vector stays the paper's optimum),
//   * ledger messages and rounds divided by ~B (one aggregated message
//     per rank pair per phase, independent of B),
//
// and times both paths. The full sweep requires >= 2x vectors/s at the
// widest panel (the panel kernels walk each tensor block once for all of
// the panel's whole chunks, so every tensor-element load serves them
// all), and at the narrow widths B = 2 >= 1.3x and B = 3 >= 1.5x the
// loop's vectors/s (the lanes past the last whole chunk share one walk
// of each block on the core kernels). B = 1 runs the same kernels on
// both paths and only has to keep >= 0.7x. Each side is timed in process
// CPU time (CLOCK_PROCESS_CPUTIME_ID), the median of 9 interleaved
// repetitions: a batch takes 1-3 ms at the narrow widths, and on a shared
// host that steals vCPUs its wall time swings more than the gates allow.
// Widths 3 and 6 leave 3 and 2 lanes past the last whole 4-lane chunk, so
// the bitwise checks cover the tail lanes too. Results go to
// BENCH_batch.json in the working directory. `--quick` runs a reduced
// sweep without the throughput checks, for a fast smoke. `--trace <path>`
// records one traced batched run and writes a Chrome trace_event JSON
// there.

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/engine.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "repro_common.hpp"
#include "simt/machine.hpp"
#include "simt/simd.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tensor/generators.hpp"

namespace {

using namespace sttsv;

/// CPU time of the whole process, every host thread included.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> samples) {
  const auto mid =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

struct SweepPoint {
  std::size_t lanes = 0;
  double loop_s = 0.0;
  double batched_s = 0.0;
  std::uint64_t loop_words = 0;
  std::uint64_t batched_words = 0;
  std::uint64_t loop_messages = 0;
  std::uint64_t batched_messages = 0;
  std::uint64_t loop_rounds = 0;
  std::uint64_t batched_rounds = 0;
  std::uint64_t batched_max_words_sent = 0;
  bool bitwise = false;
};

/// Runs the first `lanes` panel columns through both paths: the
/// B-iteration core::parallel_sttsv loop and one aggregated batch pass.
/// Timing is the median process CPU time of `reps` interleaved
/// repetitions; ledger counters come from a dedicated (untimed) run of
/// each path after a reset_ledger().
SweepPoint run_point(simt::Machine& machine, const batch::Plan& plan,
                     const tensor::SymTensor3& a,
                     const std::vector<std::vector<double>>& panel,
                     std::size_t lanes, std::size_t reps) {
  SweepPoint pt;
  pt.lanes = lanes;
  const std::vector<std::vector<double>> x(panel.begin(),
                                           panel.begin() +
                                               static_cast<std::ptrdiff_t>(
                                                   lanes));
  const auto& part = plan.partition();
  const auto& dist = plan.distribution();
  const simt::Transport transport = plan.key().transport;

  const auto run_loop = [&] {
    std::vector<std::vector<double>> y(lanes);
    for (std::size_t v = 0; v < lanes; ++v) {
      y[v] = core::parallel_sttsv(machine, part, dist, a, x[v], transport).y;
    }
    return y;
  };

  // Reference outputs + loop-side ledger counters.
  machine.reset_ledger();
  const std::vector<std::vector<double>> y_loop = run_loop();
  pt.loop_words = machine.ledger().total_words();
  pt.loop_messages = machine.ledger().total_messages();
  pt.loop_rounds = machine.ledger().rounds();

  // Batched outputs + batch-side ledger counters.
  machine.reset_ledger();
  const batch::BatchRunResult batched =
      batch::parallel_sttsv_batch(machine, plan, a, x);
  pt.batched_words = machine.ledger().total_words();
  pt.batched_messages = machine.ledger().total_messages();
  pt.batched_rounds = machine.ledger().rounds();
  pt.batched_max_words_sent = machine.ledger().max_words_sent();

  pt.bitwise = batched.y.size() == lanes;
  for (std::size_t v = 0; pt.bitwise && v < lanes; ++v) {
    pt.bitwise = batched.y[v].size() == y_loop[v].size() &&
                 std::memcmp(batched.y[v].data(), y_loop[v].data(),
                             y_loop[v].size() * sizeof(double)) == 0;
  }

  // Median CPU time of each path over interleaved repetitions.
  std::vector<double> loop_s;
  std::vector<double> batched_s;
  for (std::size_t r = 0; r < reps; ++r) {
    machine.reset_ledger();
    double t0 = cpu_seconds();
    run_loop();
    loop_s.push_back(cpu_seconds() - t0);

    machine.reset_ledger();
    t0 = cpu_seconds();
    batch::parallel_sttsv_batch(machine, plan, a, x);
    batched_s.push_back(cpu_seconds() - t0);
  }
  pt.loop_s = median(std::move(loop_s));
  pt.batched_s = median(std::move(batched_s));
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sttsv;

  bool quick = false;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
    if (std::string(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    }
  }

  repro::banner(quick ? "Batched STTSV engine (quick smoke sweep)"
                      : "Batched STTSV engine (panel sweep, n = 256)");
  std::cout << "kernel ISA: " << simt::isa_name(simt::preferred_isa())
            << " (cpu: " << simt::cpu_features_string() << ")\n";
  repro::Checker check;

  const std::size_t q = 2;
  const std::size_t n = quick ? 60 : 256;
  const std::size_t reps = quick ? 1 : 9;
  const std::vector<std::size_t> widths =
      quick ? std::vector<std::size_t>{1, 3, 4, 6, 16}
            : std::vector<std::size_t>{1, 2, 3, 4, 6, 8, 16};
  const std::size_t max_b = widths.back();

  const std::shared_ptr<const batch::Plan> plan = batch::Plan::build(
      batch::plan_key(n, batch::Family::kSpherical, q,
                      simt::Transport::kPointToPoint));
  const std::size_t P = plan->num_processors();

  // --- Inputs: one tensor, max_b deterministic panel columns. ----------
  Rng rng(2025);
  const tensor::SymTensor3 a = tensor::random_symmetric(n, rng);
  std::vector<std::vector<double>> panel(max_b);
  for (std::size_t v = 0; v < max_b; ++v) {
    Rng lane_rng(9000 + v);
    panel[v] = lane_rng.uniform_vector(n, -1.0, 1.0);
  }

  simt::Machine machine = plan->make_machine();

  // --- Sweep the panel width. ------------------------------------------
  std::vector<SweepPoint> points;
  for (const std::size_t lanes : widths) {
    points.push_back(run_point(machine, *plan, a, panel, lanes, reps));
  }

  TextTable table({"B", "loop cpu s", "batched cpu s", "speedup",
                   "words ratio", "msgs loop", "msgs batched", "bitwise"},
                  std::vector<Align>(8, Align::kRight));
  for (const SweepPoint& pt : points) {
    table.add_row({std::to_string(pt.lanes), format_double(pt.loop_s, 4),
                   format_double(pt.batched_s, 4),
                   format_double(pt.loop_s / pt.batched_s, 2),
                   format_double(static_cast<double>(pt.batched_words) /
                                     static_cast<double>(pt.loop_words),
                                 3),
                   std::to_string(pt.loop_messages),
                   std::to_string(pt.batched_messages),
                   pt.bitwise ? "yes" : "NO"});
  }
  std::cout << table << "\n";

  for (const SweepPoint& pt : points) {
    const std::string tag = "B=" + std::to_string(pt.lanes) + ": ";
    check.check(pt.bitwise, tag + "batched lanes bitwise equal to loop");
    check.check(pt.batched_words == pt.loop_words,
                tag + "ledger words identical (words/vector unchanged)");
    check.check(pt.batched_messages * pt.lanes == pt.loop_messages,
                tag + "messages reduced exactly Bx");
    check.check(pt.batched_rounds * pt.lanes == pt.loop_rounds,
                tag + "rounds reduced exactly Bx");
  }
  const SweepPoint& widest = points.back();
  if (!quick) {
    check.check(widest.loop_s / widest.batched_s >= 2.0,
                "B=16 batched throughput >= 2x the single-vector loop");
    // Narrow-width minimum ratios, indexed by B: one walk per block
    // serves every tail lane, so B = 2 and 3 must beat the loop's B walks.
    const double narrow_min[] = {0.0, 0.7, 1.3, 1.5};
    for (const SweepPoint& pt : points) {
      if (pt.lanes >= simt::simd::kLanes) continue;
      const double min_ratio = narrow_min[pt.lanes];
      check.check(pt.loop_s / pt.batched_s >= min_ratio,
                  "B=" + std::to_string(pt.lanes) + ": batched throughput >= " +
                      format_double(min_ratio, 1) + "x the single-vector loop");
    }
  }

  // --- Engine smoke: FIFO admission + deterministic auto-flush. --------
  batch::EngineOptions opts;
  opts.max_batch_size = 4;
  batch::Engine engine(machine, plan, a, opts);
  std::vector<std::vector<double>> served(10);
  for (std::size_t v = 0; v < 10; ++v) {
    engine.submit(std::vector<double>(panel[v % max_b]),
                  [&served](std::size_t id, std::vector<double> y) {
                    served[id] = std::move(y);
                  });
  }
  engine.flush();
  const batch::EngineStats& stats = engine.stats();
  check.check(stats.requests_completed == 10 && engine.pending() == 0,
              "engine served all submitted requests");
  check.check(stats.batches_run == 3 && stats.largest_batch == 4,
              "engine cut batches at max_batch_size (4 + 4 + flush 2)");
  {
    machine.reset_ledger();
    bool engine_matches = true;
    for (std::size_t v = 0; v < 10 && engine_matches; ++v) {
      const auto single = core::parallel_sttsv(
          machine, plan->partition(), plan->distribution(), a,
          panel[v % max_b], plan->key().transport);
      engine_matches = served[v].size() == single.y.size() &&
                       std::memcmp(served[v].data(), single.y.data(),
                                   single.y.size() * sizeof(double)) == 0;
    }
    check.check(engine_matches,
                "engine outputs bitwise equal to single-vector runs");
  }

  // --- Optional traced batched run (--trace <path>). -------------------
  if (!trace_path.empty()) {
    obs::tracer().clear();
    obs::tracer().configure({.tracing = true});
    machine.reset_ledger();
    const std::vector<std::vector<double>> x(
        panel.begin(),
        panel.begin() + static_cast<std::ptrdiff_t>(widths.back()));
    batch::parallel_sttsv_batch(machine, *plan, a, x);
    const auto spans = obs::tracer().snapshot();
    obs::tracer().configure({.tracing = false});
    {
      std::ofstream tf(trace_path);
      obs::write_chrome_trace(tf, spans);
    }
    const std::string summary = obs::rank_summary(spans);
    if (!summary.empty()) std::cout << "\n" << summary;
    std::cout << "\n  wrote " << trace_path << "\n";
  }

  // --- Machine-readable artifact. --------------------------------------
  {
    std::ofstream out("BENCH_batch.json");
    repro::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "sttsv.bench/v1");
    w.field("bench", "bench_batch");
    w.field("mode", quick ? "quick" : "full");
    w.field("n", static_cast<std::uint64_t>(n));
    w.field("family", "spherical");
    w.field("q", static_cast<std::uint64_t>(q));
    w.field("P", static_cast<std::uint64_t>(P));
    w.field("transport", "point_to_point");
    w.begin_array("sweep");
    for (const SweepPoint& pt : points) {
      const double lanes = static_cast<double>(pt.lanes);
      w.begin_object();
      w.field("B", static_cast<std::uint64_t>(pt.lanes));
      w.field("loop_seconds", pt.loop_s);
      w.field("batched_seconds", pt.batched_s);
      w.field("speedup", pt.loop_s / pt.batched_s);
      w.field("loop_vectors_per_s", lanes / pt.loop_s);
      w.field("batched_vectors_per_s", lanes / pt.batched_s);
      w.field("loop_total_words", pt.loop_words);
      w.field("batched_total_words", pt.batched_words);
      w.field("loop_total_messages", pt.loop_messages);
      w.field("batched_total_messages", pt.batched_messages);
      w.field("loop_rounds", pt.loop_rounds);
      w.field("batched_rounds", pt.batched_rounds);
      w.field("batched_max_words_sent", pt.batched_max_words_sent);
      w.field("bitwise_match", pt.bitwise);
      w.end_object();
    }
    w.end_array();
    w.begin_object("engine");
    w.field("max_batch_size",
            static_cast<std::uint64_t>(opts.max_batch_size));
    w.field("requests_submitted", stats.requests_submitted);
    w.field("requests_completed", stats.requests_completed);
    w.field("batches_run", stats.batches_run);
    w.field("largest_batch", static_cast<std::uint64_t>(stats.largest_batch));
    w.end_object();
    // Shared observability block: the machine's ledger (as left by the
    // engine-verification runs) plus every publisher this bench touched.
    {
      obs::MetricsRegistry registry;
      machine.ledger().to_metrics(registry);
      engine.publish_metrics(registry);
      repro::write_observability(w, machine.ledger(), registry);
    }
    w.end_object();
  }
  std::cout << "\n  wrote BENCH_batch.json\n";

  std::cout << "\n"
            << (check.failures() == 0 ? "All" : "Some")
            << " batched-engine checks "
            << (check.failures() == 0 ? "passed." : "FAILED.") << "\n";
  return check.exit_code();
}
