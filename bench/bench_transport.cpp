// Transport comparison (DESIGN.md §16): the same STTSV runs driven over
// the three flat exchange backends — Direct, Reliable and OneSidedPut —
// sweeping problem size n ∈ {128, 256, 384}, the three Steiner families
// the repo constructs (P = 10, 14, 20), and batch width B ∈ {1, 16}. For
// each cell the bench reports the α-term message count (envelopes for
// two-sided transports; epoch fences + exposure notifications for
// one-sided, since Puts pay bandwidth only), payload words by channel,
// synchronization ops, rounds, and exchange-path throughput (payload
// words per second of wall time).
//
// Checks on every cell: y bitwise identical across the three backends,
// four-channel ledger conservation, equal payload words between Direct and
// OneSidedPut, and — the headline — the one-sided message count strictly
// below Direct's at every P ≥ 6 swept (sync ops scale with ranks, 2 per
// rank per phase, while envelope counts scale with pairs).
//
// Results go to BENCH_transport.json; `--quick` runs a reduced sweep.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/parallel_sttsv.hpp"
#include "obs/metrics.hpp"
#include "onesided/onesided_exchange.hpp"
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
using Clock = std::chrono::steady_clock;

/// The three flat backends, Direct first (the bitwise reference) and
/// OneSidedPut last (the per-cell checks read it there). A one-sided
/// backend's α-term is its sync ops, not its Puts.
struct Backend {
  const char* name;
  bool one_sided;
  std::unique_ptr<simt::Exchanger> (*make)(simt::Machine&);
};
constexpr Backend kBackends[] = {
    {"direct", false,
     [](simt::Machine& m) -> std::unique_ptr<simt::Exchanger> {
       return std::make_unique<simt::DirectExchange>(m);
     }},
    {"reliable", false,
     [](simt::Machine& m) -> std::unique_ptr<simt::Exchanger> {
       return std::make_unique<simt::ReliableExchange>(m);
     }},
    {"onesided", true,
     [](simt::Machine& m) -> std::unique_ptr<simt::Exchanger> {
       return std::make_unique<onesided::OneSidedExchange>(m);
     }},
};

struct Family {
  const char* name;
  batch::Family batch_family;
  std::uint64_t param;
};

struct Cell {
  std::string family;
  std::size_t P = 0;
  std::size_t n = 0;
  std::size_t B = 0;
  const Backend* backend = nullptr;
  repro::LedgerRollup led;  // shared per-backend rollup (repro_common)
  double words_per_s = 0.0;
  bool bitwise = false;
};

std::shared_ptr<const batch::Plan> make_plan(const Family& f, std::size_t n) {
  return batch::Plan::build(batch::plan_key(n, f.batch_family, f.param,
                                            simt::Transport::kPointToPoint));
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  repro::banner(quick ? "Transport comparison (quick smoke)"
                      : "Transport comparison (full sweep)");
  repro::Checker check;

  // The ISSUE's nominal P ∈ {6, 10, 15} are not all Steiner-achievable;
  // the repo's constructions give the bracketing sweep P ∈ {10, 14, 20}.
  const std::vector<Family> families =
      quick ? std::vector<Family>{{"spherical q=2", batch::Family::kSpherical,
                                   2}}
            : std::vector<Family>{
                  {"spherical q=2", batch::Family::kSpherical, 2},
                  {"boolean k=3", batch::Family::kBoolean, 3},
                  {"trivial m=6", batch::Family::kTrivial, 6}};
  const std::vector<std::size_t> ns =
      quick ? std::vector<std::size_t>{128}
            : std::vector<std::size_t>{128, 256, 384};
  const std::vector<std::size_t> Bs = {1, 16};

  std::vector<Cell> cells;
  for (const Family& fam : families) {
    for (const std::size_t n : ns) {
      const auto plan = make_plan(fam, n);
      const partition::TetraPartition& part = plan->partition();
      const partition::VectorDistribution& dist = plan->distribution();
      const std::size_t P = plan->num_processors();
      Rng rng(9000 + n + P);
      const tensor::SymTensor3 a = tensor::random_symmetric(n, rng);
      for (const std::size_t B : Bs) {
        std::vector<std::vector<double>> xs;
        for (std::size_t v = 0; v < B; ++v) {
          xs.push_back(rng.uniform_vector(n));
        }
        std::vector<std::vector<double>> want;  // Direct's outputs
        for (const Backend& backend : kBackends) {
          simt::Machine machine(P);
          auto ex = backend.make(machine);
          std::vector<std::vector<double>> ys;
          const auto t0 = Clock::now();
          if (B == 1) {
            ys.push_back(core::parallel_sttsv(*ex, part, dist, a, xs[0],
                                              simt::Transport::kPointToPoint)
                             .y);
          } else {
            ys = batch::parallel_sttsv_batch(*ex, *plan, a, xs).y;
          }
          const double secs =
              std::chrono::duration<double>(Clock::now() - t0).count();
          machine.ledger().verify_conservation();

          Cell cell;
          cell.family = fam.name;
          cell.P = P;
          cell.n = n;
          cell.B = B;
          cell.backend = &backend;
          cell.led = repro::ledger_rollup(machine.ledger(), backend.one_sided);
          cell.words_per_s =
              secs > 0.0 ? static_cast<double>(cell.led.payload_words +
                                               cell.led.overhead_words) /
                               secs
                         : 0.0;
          if (want.empty()) {
            want = ys;
            cell.bitwise = true;
          } else {
            cell.bitwise = ys.size() == want.size();
            for (std::size_t v = 0; cell.bitwise && v < ys.size(); ++v) {
              cell.bitwise = bitwise_equal(ys[v], want[v]);
            }
          }
          check.check(cell.bitwise,
                      std::string(fam.name) + " n=" + std::to_string(n) +
                          " B=" + std::to_string(B) + " " +
                          backend.name + ": y bitwise identical to direct");
          cells.push_back(cell);
        }

        // Per-cell cross-transport checks against the Direct baseline.
        const Cell& direct = cells[cells.size() - 3];
        const Cell& put = cells.back();
        const std::string tag = std::string(fam.name) +
                                " n=" + std::to_string(n) +
                                " B=" + std::to_string(B) + ": ";
        check.check(put.led.payload_words == direct.led.payload_words,
                    tag + "one-sided moves exactly direct's payload words");
        check.check(put.led.messages < direct.led.messages,
                    tag + "one-sided message count (sync ops) strictly "
                          "below direct envelopes");
        check.check(put.led.rounds == direct.led.rounds,
                    tag + "one-sided rounds follow the König schedule");
      }
    }
  }

  TextTable table({"family", "P", "n", "B", "transport", "messages",
                   "payload words", "overhead", "sync ops", "rounds",
                   "Mwords/s", "bitwise"},
                  std::vector<Align>(12, Align::kRight));
  for (const Cell& c : cells) {
    table.add_row({c.family, std::to_string(c.P), std::to_string(c.n),
                   std::to_string(c.B), c.backend->name,
                   std::to_string(c.led.messages),
                   std::to_string(c.led.payload_words),
                   std::to_string(c.led.overhead_words),
                   std::to_string(c.led.sync_ops),
                   std::to_string(c.led.rounds),
                   format_double(c.words_per_s / 1e6, 2),
                   c.bitwise ? "yes" : "NO"});
  }
  std::cout << table << "\n";

  // --- Machine-readable artifact. --------------------------------------
  {
    std::ofstream out("BENCH_transport.json");
    repro::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "sttsv.bench/v1");
    w.field("bench", "bench_transport");
    w.field("mode", quick ? "quick" : "full");
    w.begin_array("sweep");
    for (const Cell& c : cells) {
      w.begin_object();
      w.field("family", c.family);
      w.field("P", static_cast<std::uint64_t>(c.P));
      w.field("n", static_cast<std::uint64_t>(c.n));
      w.field("B", static_cast<std::uint64_t>(c.B));
      w.field("transport", c.backend->name);
      repro::write_ledger_rollup(w, c.led);
      w.field("words_per_s", c.words_per_s);
      w.field("bitwise", c.bitwise);
      w.end_object();
    }
    w.end_array();
    // Four-channel observability block from one representative one-sided
    // run (largest swept configuration).
    {
      const auto plan = make_plan(families.back(), ns.back());
      Rng rng(77);
      const auto a = tensor::random_symmetric(ns.back(), rng);
      const auto x = rng.uniform_vector(ns.back());
      simt::Machine machine = plan->make_machine();
      onesided::OneSidedExchange ex(machine);
      (void)core::parallel_sttsv(ex, plan->partition(), plan->distribution(),
                                 a, x, simt::Transport::kPointToPoint);
      obs::MetricsRegistry registry;
      machine.ledger().to_metrics(registry);
      repro::write_observability(w, machine.ledger(), registry);
    }
    w.end_object();
  }
  std::cout << "\n  wrote BENCH_transport.json\n";

  std::cout << "\n"
            << (check.failures() == 0 ? "All" : "Some")
            << " transport checks "
            << (check.failures() == 0 ? "passed." : "FAILED.") << "\n";
  return check.exit_code();
}
