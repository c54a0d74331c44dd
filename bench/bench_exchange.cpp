// Exchange-path microbenchmark (DESIGN.md §12): pump the Algorithm-5
// x-panel exchange pattern (spherical q=2, P=10, n=256, B-lane panels)
// through two packing paths, each one exchange per superstep, and compare
//
//   * baseline — the pre-pool path: every message packed into freshly
//     heap-allocated storage;
//   * pooled   — every message packed into a slab leased from the
//     sender's pool shard.
//
// Verifies the subsystem's contract before timing anything: both paths
// deliver identical bytes, both charge identical ledger words, messages
// and rounds, and the pooled path performs ZERO heap allocations per
// steady-state superstep (slab and unpooled counters both flat). The
// full run then requires >= 1.5x exchange-path words/s over the
// baseline. Results go to BENCH_exchange.json in the working directory;
// `--quick` runs a reduced size for CI smoke and skips the speedup gate
// (shared CI boxes are too noisy to gate on).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "batch/plan.hpp"
#include "obs/metrics.hpp"
#include "repro_common.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

using namespace sttsv;

struct Workload {
  const batch::Plan* plan = nullptr;
  std::size_t lanes = 0;
  std::size_t block_b = 0;
  std::vector<double> x_pad;            // lane-interleaved panel
  std::uint64_t words_per_superstep = 0;
};

/// Packs every rank's aggregated x messages, appending each slice of the
/// padded panel. `acquire` decides where the bytes live — the pool (hot
/// path) or fresh heap storage (baseline) — and is the ONLY difference
/// between the two packers.
template <class Acquire>
std::vector<std::vector<simt::Envelope>> pack(const Workload& w,
                                              Acquire&& acquire) {
  const std::size_t P = w.plan->num_processors();
  const std::size_t B = w.lanes;
  std::vector<std::vector<simt::Envelope>> outboxes(P);
  for (std::size_t p = 0; p < P; ++p) {
    for (const batch::Plan::PeerExchange& ex : w.plan->exchanges(p)) {
      if (ex.x_words == 0) continue;
      simt::PooledBuffer buf = acquire(p, ex.x_words * B);
      for (const batch::Plan::BlockSlice& s : ex.slices) {
        buf.append(
            w.x_pad.data() + (s.block * w.block_b + s.sender.offset) * B,
            s.sender.length * B);
      }
      outboxes[p].push_back(simt::Envelope{ex.peer, std::move(buf)});
    }
  }
  return outboxes;
}

/// Touches one word per delivery so the exchange cannot be optimized
/// away without the sink dominating the measured path.
double consume_touch(const std::vector<std::vector<simt::Delivery>>& in) {
  double sum = 0.0;
  for (const auto& inbox : in) {
    for (const simt::Delivery& d : inbox) {
      if (!d.data.empty()) sum += d.data[0];
    }
  }
  return sum;
}

/// One delivered message, keyed for order-independent comparison.
struct Arrival {
  std::size_t to = 0;
  std::size_t from = 0;
  std::vector<double> words;
  friend bool operator==(const Arrival&, const Arrival&) = default;
  friend bool operator<(const Arrival& a, const Arrival& b) {
    return std::tie(a.to, a.from) < std::tie(b.to, b.from);
  }
};

void collect(std::vector<Arrival>& out,
             const std::vector<std::vector<simt::Delivery>>& in) {
  for (std::size_t p = 0; p < in.size(); ++p) {
    for (const simt::Delivery& d : in[p]) {
      out.push_back(
          Arrival{p, d.from, std::vector<double>(d.data.begin(),
                                                 d.data.end())});
    }
  }
}

/// One baseline superstep: the pre-pool path. Each envelope starts empty
/// and grows as slices are appended — exactly the incremental
/// std::vector packing the drivers used before the pool (no up-front
/// reserve), so its realloc-and-copy churn is charged to the baseline.
double baseline_superstep(simt::Exchanger& exchanger, const Workload& w,
                          std::vector<Arrival>* arrivals = nullptr) {
  auto outboxes = pack(w, [](std::size_t, std::size_t) {
    return simt::PooledBuffer();  // unpooled, grows on demand
  });
  auto in =
      exchanger.exchange(std::move(outboxes), simt::Transport::kPointToPoint);
  if (arrivals != nullptr) collect(*arrivals, in);
  return consume_touch(in);
}

/// One pooled superstep: pool-leased pack, one exchange.
double pooled_superstep(simt::Exchanger& exchanger, const Workload& w,
                        std::vector<Arrival>* arrivals = nullptr) {
  simt::Machine& machine = exchanger.machine();
  auto outboxes = pack(w, [&](std::size_t p, std::size_t words) {
    return machine.pool().acquire(p, words);
  });
  auto in =
      exchanger.exchange(std::move(outboxes), simt::Transport::kPointToPoint);
  if (arrivals != nullptr) collect(*arrivals, in);
  return consume_touch(in);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  repro::banner(quick ? "Exchange path: pooled (quick smoke)"
                      : "Exchange path: pooled vs unpooled baseline "
                        "(n = 256, P = 10)");
  repro::Checker check;

  const std::size_t n = quick ? 60 : 256;
  const std::size_t lanes = quick ? 4 : 16;
  const std::size_t supersteps = quick ? 50 : 400;
  const std::size_t reps = quick ? 1 : 3;

  const auto plan = batch::Plan::build(batch::plan_key(
      n, batch::Family::kSpherical, 2, simt::Transport::kPointToPoint));
  const std::size_t P = plan->num_processors();
  const std::size_t b = plan->distribution().block_length_b();

  Workload w;
  w.plan = plan.get();
  w.lanes = lanes;
  w.block_b = b;
  Rng rng(2025);
  w.x_pad = rng.uniform_vector(plan->distribution().padded_n() * lanes);
  for (std::size_t p = 0; p < P; ++p) {
    for (const batch::Plan::PeerExchange& ex : plan->exchanges(p)) {
      w.words_per_superstep += ex.x_words * lanes;
    }
  }

  simt::Machine base_machine(P);
  simt::Machine pool_machine(P);
  simt::DirectExchange base(base_machine);
  simt::DirectExchange pooled(pool_machine);
  plan->prewarm_pool(pool_machine.pool(), lanes);

  // --- Contract checks before any timing. ------------------------------
  std::vector<Arrival> base_arrivals;
  std::vector<Arrival> pool_arrivals;
  (void)baseline_superstep(base, w, &base_arrivals);
  (void)pooled_superstep(pooled, w, &pool_arrivals);
  std::sort(base_arrivals.begin(), base_arrivals.end());
  std::sort(pool_arrivals.begin(), pool_arrivals.end());
  check.check(base_arrivals == pool_arrivals,
              "identical bytes delivered by both paths (bitwise)");
  check.check(base_machine.ledger().total_words() ==
                      pool_machine.ledger().total_words() &&
                  base_machine.ledger().total_messages() ==
                      pool_machine.ledger().total_messages() &&
                  base_machine.ledger().rounds() ==
                      pool_machine.ledger().rounds(),
              "ledger words/messages/rounds identical on both paths");
  base_machine.ledger().verify_conservation();
  pool_machine.ledger().verify_conservation();

  // Steady-state allocation proof: the warmed pooled path must not touch
  // the heap for message storage at all.
  std::uint64_t steady_slab = 0;
  std::uint64_t steady_unpooled = 0;
  {
    simt::AllocationGuard guard(pool_machine.pool());
    for (std::size_t s = 0; s < supersteps; ++s) {
      (void)pooled_superstep(pooled, w);
    }
    steady_slab = guard.new_slab_allocations();
    steady_unpooled = guard.new_unpooled_allocations();
  }
  check.check(steady_slab == 0,
              "zero pool slab allocations across steady-state supersteps");
  check.check(steady_unpooled == 0,
              "zero unpooled buffer allocations across steady-state "
              "supersteps");

  // The baseline, by construction, allocates per message.
  std::uint64_t baseline_allocs = 0;
  {
    simt::AllocationGuard guard(pool_machine.pool());
    guard.dismiss();
    (void)baseline_superstep(base, w);
    baseline_allocs = guard.new_unpooled_allocations();
  }
  check.check(baseline_allocs > 0,
              "baseline allocates fresh storage every superstep");

  // --- Timing: best-of-reps over `supersteps` supersteps each. ---------
  double base_s = 1e300;
  double pool_s = 1e300;
  volatile double sink = 0.0;
  for (std::size_t r = 0; r < reps; ++r) {
    Timer t;
    for (std::size_t s = 0; s < supersteps; ++s) {
      sink = sink + baseline_superstep(base, w);
    }
    base_s = std::min(base_s, t.seconds());

    t.reset();
    for (std::size_t s = 0; s < supersteps; ++s) {
      sink = sink + pooled_superstep(pooled, w);
    }
    pool_s = std::min(pool_s, t.seconds());
  }
  const double total_words =
      static_cast<double>(w.words_per_superstep) *
      static_cast<double>(supersteps);
  const double base_wps = total_words / base_s;
  const double pool_wps = total_words / pool_s;
  const double speedup = base_s / pool_s;

  TextTable table({"path", "seconds", "words/s", "allocs/superstep"},
                  {Align::kLeft, Align::kRight, Align::kRight, Align::kRight});
  table.add_row({"unpooled baseline", format_double(base_s, 4),
                 format_double(base_wps, 0), std::to_string(baseline_allocs)});
  table.add_row({"pooled", format_double(pool_s, 4),
                 format_double(pool_wps, 0), "0"});
  std::cout << table << "\n  exchange-path speedup: "
            << format_double(speedup, 2) << "x over " << supersteps
            << " supersteps of " << w.words_per_superstep << " words\n\n";

  if (!quick) {
    check.check(speedup >= 1.5,
                "pooled exchange path >= 1.5x unpooled baseline");
  }

  // --- Machine-readable artifact. --------------------------------------
  {
    std::ofstream out("BENCH_exchange.json");
    repro::JsonWriter jw(out);
    jw.begin_object();
    jw.field("schema", "sttsv.bench/v1");
    jw.field("bench", "bench_exchange");
    jw.field("mode", quick ? "quick" : "full");
    jw.field("n", static_cast<std::uint64_t>(n));
    jw.field("P", static_cast<std::uint64_t>(P));
    jw.field("lanes", static_cast<std::uint64_t>(lanes));
    jw.field("supersteps", static_cast<std::uint64_t>(supersteps));
    jw.field("words_per_superstep", w.words_per_superstep);
    jw.begin_object("baseline");
    jw.field("seconds", base_s);
    jw.field("words_per_s", base_wps);
    jw.field("allocations_per_superstep", baseline_allocs);
    jw.end_object();
    jw.begin_object("pooled");
    jw.field("seconds", pool_s);
    jw.field("words_per_s", pool_wps);
    jw.field("steady_state_slab_allocations", steady_slab);
    jw.field("steady_state_unpooled_allocations", steady_unpooled);
    jw.end_object();
    jw.field("speedup", speedup);
    const auto pool_stats = pool_machine.pool().stats();
    jw.begin_object("pool");
    jw.field("slab_allocations", pool_stats.slab_allocations);
    jw.field("slabs_live", pool_stats.slabs_live);
    jw.field("acquires", pool_stats.acquires);
    jw.field("reuses", pool_stats.reuses);
    jw.field("words_capacity", pool_stats.words_capacity);
    jw.end_object();
    {
      obs::MetricsRegistry registry;
      pool_machine.ledger().to_metrics(registry);
      repro::write_observability(jw, pool_machine.ledger(), registry);
    }
    jw.end_object();
  }
  std::cout << "  wrote BENCH_exchange.json\n";

  std::cout << "\n"
            << (check.failures() == 0 ? "All" : "Some")
            << " exchange-path checks "
            << (check.failures() == 0 ? "passed." : "FAILED.") << "\n";
  return check.exit_code();
}
