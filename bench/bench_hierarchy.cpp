// Hierarchical communication (DESIGN.md §17): the same STTSV runs on a
// flat machine and on a two-level machine whose ranks are packed onto N
// nodes by the composed partition, sweeping the three Steiner families
// (P = 10, 14, 20), node counts N ∈ {2, 5}, problem size n, and batch
// width B ∈ {1, 8}. Both runs carry a node map on the ledger, so every
// cell reports the measured intra/inter word split next to the
// closed-form prediction of hier/compose.hpp.
//
// Checks on every (P, N, n, B) cell:
//   - y bitwise identical between the hierarchical backend and the flat
//     DirectExchange baseline;
//   - equal total payload words (placement cannot change the partition's
//     volume — it only moves words between levels);
//   - strictly fewer inter-node words under the composed placement than
//     under the contiguous flat map;
//   - intra-node synchronization <= one fence per node per phase (two
//     phases, so 2N);
//   - measured per-level words exactly equal to the closed form, for
//     both placements (flat measured == flat predicted, composed
//     measured == composed predicted);
//   - per-level α-β model (core::hier_time_s) prices the hierarchical
//     run strictly below the flat one.
//
// Results go to BENCH_hierarchy.json; `--quick` runs a reduced sweep.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "hier/compose.hpp"
#include "hier/hier_exchange.hpp"
#include "hier/topology.hpp"
#include "obs/metrics.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "repro_common.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tensor/generators.hpp"

namespace {

using namespace sttsv;

struct Family {
  const char* name;
  batch::Family batch_family;
  std::uint64_t param;
};

struct Cell {
  std::string family;
  std::size_t P = 0;
  std::size_t N = 0;
  std::size_t n = 0;
  std::size_t B = 0;
  const char* placement = "";  // "flat" or "composed"
  repro::LedgerRollup led;
  std::uint64_t predicted_intra = 0;  // closed form × B
  std::uint64_t predicted_inter = 0;
  double model_time_s = 0.0;    // per-level α-β price of the run
  bool bitwise = false;
};

std::shared_ptr<const batch::Plan> make_plan(const Family& f, std::size_t n) {
  return batch::Plan::build(batch::plan_key(n, f.batch_family, f.param,
                                            simt::Transport::kPointToPoint));
}

bool bitwise_equal(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (a[v].size() != b[v].size() ||
        std::memcmp(a[v].data(), b[v].data(),
                    a[v].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Per-level α-β price of a finished run: α per intra sync op (shared-
/// segment fence) or intra message (two-sided), α per inter message,
/// β per word on each level.
double model_time(const repro::LedgerRollup& r, std::uint64_t intra_alpha,
                  std::uint64_t inter_alpha) {
  const core::HierCostModel model;
  return core::hier_time_s(model, intra_alpha, r.intra_words, inter_alpha,
                           r.inter_words);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  repro::banner(quick ? "Hierarchical communication (quick smoke)"
                      : "Hierarchical communication (full sweep)");
  repro::Checker check;

  const std::vector<Family> families =
      quick ? std::vector<Family>{{"spherical q=2", batch::Family::kSpherical,
                                   2}}
            : std::vector<Family>{
                  {"spherical q=2", batch::Family::kSpherical, 2},
                  {"boolean k=3", batch::Family::kBoolean, 3},
                  {"trivial m=6", batch::Family::kTrivial, 6}};
  const std::vector<std::size_t> Ns =
      quick ? std::vector<std::size_t>{2} : std::vector<std::size_t>{2, 5};
  const std::vector<std::size_t> ns =
      quick ? std::vector<std::size_t>{130}
            : std::vector<std::size_t>{130, 250};
  const std::vector<std::size_t> Bs =
      quick ? std::vector<std::size_t>{1} : std::vector<std::size_t>{1, 8};

  std::vector<Cell> cells;
  for (const Family& fam : families) {
    for (const std::size_t n : ns) {
      const auto plan = make_plan(fam, n);
      const partition::TetraPartition& part = plan->partition();
      const partition::VectorDistribution& dist = plan->distribution();
      const std::size_t P = plan->num_processors();
      Rng rng(17000 + n + P);
      const tensor::SymTensor3 a = tensor::random_symmetric(n, rng);
      for (const std::size_t N : Ns) {
        const hier::NodeAssignment flat =
            hier::flat_assignment(part, dist, N);
        const hier::NodeAssignment composed =
            hier::compose_assignment(part, dist, N);
        const hier::LevelWords flat_pred =
            hier::predict_level_words(part, dist, flat.node_of);
        const hier::LevelWords comp_pred =
            hier::predict_level_words(part, dist, composed.node_of);
        for (const std::size_t B : Bs) {
          std::vector<std::vector<double>> xs;
          for (std::size_t v = 0; v < B; ++v) {
            xs.push_back(rng.uniform_vector(n));
          }
          const auto run = [&](simt::Exchanger& ex) {
            std::vector<std::vector<double>> ys;
            if (B == 1) {
              ys.push_back(
                  core::parallel_sttsv(ex, part, dist, a, xs[0],
                                       simt::Transport::kPointToPoint)
                      .y);
            } else {
              ys = batch::parallel_sttsv_batch(ex, *plan, a, xs).y;
            }
            return ys;
          };
          const std::string tag = std::string(fam.name) +
                                  " N=" + std::to_string(N) +
                                  " n=" + std::to_string(n) +
                                  " B=" + std::to_string(B) + ": ";

          // Flat baseline: DirectExchange with the contiguous node map
          // installed, so the ledger measures the flat placement's
          // per-level split.
          simt::Machine flat_machine(P);
          flat_machine.ledger().set_node_map(flat.node_of);
          simt::DirectExchange direct(flat_machine);
          const auto want = run(direct);
          Cell fc;
          fc.family = fam.name;
          fc.P = P;
          fc.N = N;
          fc.n = n;
          fc.B = B;
          fc.placement = "flat";
          fc.led = repro::ledger_rollup(flat_machine.ledger(), false);
          fc.predicted_intra = flat_pred.intra * B;
          fc.predicted_inter = flat_pred.inter * B;
          fc.bitwise = true;
          fc.model_time_s = model_time(
              fc.led,
              flat_machine.ledger().total_messages(simt::Channel::kGoodput,
                                                   simt::Level::kIntra),
              flat_machine.ledger().total_messages(simt::Channel::kGoodput,
                                                   simt::Level::kInter));
          cells.push_back(fc);

          // Hierarchical run: composed placement, shared-segment intra
          // path, Direct inner backend for the inter-node fabric.
          simt::Machine hier_machine(P);
          hier::HierarchicalExchange hx(
              hier_machine, hier::Topology::from_map(composed.node_of),
              std::make_unique<simt::DirectExchange>(hier_machine));
          const auto got = run(hx);
          Cell hc;
          hc.family = fam.name;
          hc.P = P;
          hc.N = N;
          hc.n = n;
          hc.B = B;
          hc.placement = "composed";
          hc.led = repro::ledger_rollup(hier_machine.ledger(), true);
          hc.predicted_intra = comp_pred.intra * B;
          hc.predicted_inter = comp_pred.inter * B;
          hc.bitwise = bitwise_equal(got, want);
          hc.model_time_s =
              model_time(hc.led, hc.led.intra_sync_ops,
                         hier_machine.ledger().total_messages(
                             simt::Channel::kGoodput, simt::Level::kInter));
          cells.push_back(hc);

          check.check(hc.bitwise,
                      tag + "y bitwise identical to flat DirectExchange");
          check.check(hc.led.payload_words == fc.led.payload_words,
                      tag + "equal total payload words (placement moves "
                            "words between levels, never adds any)");
          check.check(hc.led.inter_words < fc.led.inter_words,
                      tag + "composed placement moves strictly fewer "
                            "inter-node words than flat");
          check.check(
              hc.led.intra_sync_ops <= 2 * N,
              tag + "intra sync <= one fence per node per phase (" +
                  std::to_string(hc.led.intra_sync_ops) + " fences, N=" +
                  std::to_string(N) + ")");
          check.check(fc.led.intra_words == fc.predicted_intra &&
                          fc.led.inter_words == fc.predicted_inter,
                      tag + "flat measured per-level words == closed form");
          check.check(hc.led.intra_words == hc.predicted_intra &&
                          hc.led.inter_words == hc.predicted_inter,
                      tag + "composed measured per-level words == closed "
                            "form");
          check.check(hc.model_time_s < fc.model_time_s,
                      tag + "per-level α-β model prices composed below "
                            "flat");
        }
      }
    }
  }

  TextTable table({"family", "P", "N", "n", "B", "placement", "intra words",
                   "inter words", "pred intra", "pred inter", "sync",
                   "model µs", "bitwise"},
                  std::vector<Align>(13, Align::kRight));
  for (const Cell& c : cells) {
    table.add_row({c.family, std::to_string(c.P), std::to_string(c.N),
                   std::to_string(c.n), std::to_string(c.B), c.placement,
                   std::to_string(c.led.intra_words),
                   std::to_string(c.led.inter_words),
                   std::to_string(c.predicted_intra),
                   std::to_string(c.predicted_inter),
                   std::to_string(c.led.sync_ops),
                   format_double(c.model_time_s * 1e6, 2),
                   c.bitwise ? "yes" : "NO"});
  }
  std::cout << table << "\n";

  // --- Machine-readable artifact. --------------------------------------
  {
    std::ofstream out("BENCH_hierarchy.json");
    repro::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "sttsv.bench/v1");
    w.field("bench", "bench_hierarchy");
    w.field("mode", quick ? "quick" : "full");
    w.begin_array("sweep");
    for (const Cell& c : cells) {
      w.begin_object();
      w.field("family", c.family);
      w.field("P", static_cast<std::uint64_t>(c.P));
      w.field("N", static_cast<std::uint64_t>(c.N));
      w.field("n", static_cast<std::uint64_t>(c.n));
      w.field("B", static_cast<std::uint64_t>(c.B));
      w.field("placement", c.placement);
      repro::write_ledger_rollup(w, c.led);
      w.field("predicted_intra_words", c.predicted_intra);
      w.field("predicted_inter_words", c.predicted_inter);
      w.field("model_time_s", c.model_time_s);
      w.field("bitwise", c.bitwise);
      w.end_object();
    }
    w.end_array();
    // Full observability block from one representative hierarchical run
    // (largest swept configuration).
    {
      const auto plan = make_plan(families.back(), ns.back());
      const partition::TetraPartition& part = plan->partition();
      const partition::VectorDistribution& dist = plan->distribution();
      Rng rng(78);
      const auto a = tensor::random_symmetric(ns.back(), rng);
      const auto x = rng.uniform_vector(ns.back());
      const auto composed = hier::compose_assignment(part, dist, Ns.back());
      simt::Machine machine = plan->make_machine();
      hier::HierarchicalExchange hx(
          machine, hier::Topology::from_map(composed.node_of),
          std::make_unique<simt::DirectExchange>(machine));
      (void)core::parallel_sttsv(hx, part, dist, a, x,
                                 simt::Transport::kPointToPoint);
      obs::MetricsRegistry registry;
      machine.ledger().to_metrics(registry);
      repro::write_observability(w, machine.ledger(), registry);
    }
    w.end_object();
  }
  std::cout << "\n  wrote BENCH_hierarchy.json\n";

  std::cout << "\n"
            << (check.failures() == 0 ? "All" : "Some")
            << " hierarchy checks "
            << (check.failures() == 0 ? "passed." : "FAILED.") << "\n";
  return check.exit_code();
}
