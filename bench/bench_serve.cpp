// Multi-tenant serving reproduction (DESIGN.md §14): drive the serve::
// Frontend with seeded open-loop Poisson traffic and sweep the offered
// load past saturation for a uniform and a Zipf-skewed tenant mix. For
// every (mix, load) point the bench reports p50/p99 end-to-end latency,
// goodput, reject rate (with per-tenant, per-reason attribution) and the
// Jain fairness index of per-tenant goodput, and checks the serving
// contract —
//
//   * below saturation admission is effectively open (reject rate ~ 0),
//   * past saturation goodput holds near the service-model ceiling while
//     admission control bounds the queues (reject rate > 0, backlog
//     bounded by construction),
//   * equal quotas under 2x overload share goodput fairly (Jain >= 0.95,
//     per-tenant spread within 10%),
//   * per-tenant ledger attribution sums exactly to the machine ledger.
//
// Everything runs on the front end's virtual clock, so every number here
// is deterministic in the traffic seed; only wall-clock timings would
// vary, and none are reported. Results go to BENCH_serve.json in the
// working directory. `--quick` runs a reduced sweep for CI smoke.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "batch/plan.hpp"
#include "obs/metrics.hpp"
#include "repro_common.hpp"
#include "serve/frontend.hpp"
#include "serve/tenant.hpp"
#include "serve/traffic.hpp"
#include "simt/machine.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "tensor/generators.hpp"

namespace {

using namespace sttsv;

struct TenantPoint {
  std::string name;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::array<std::uint64_t, serve::kNumRejectReasons> rejected_by_reason{};
  std::uint64_t words = 0;
  double latency_p50_ns = 0.0;
  double latency_p99_ns = 0.0;
};

struct SweepPoint {
  std::string mix;
  double load_factor = 0.0;
  double offered_jobs_per_s = 0.0;
  std::uint64_t arrivals = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  double reject_rate = 0.0;
  double goodput_jobs_per_s = 0.0;
  double latency_p50_ns = 0.0;
  double latency_p99_ns = 0.0;
  double jain = 0.0;
  bool ledger_conserved = false;
  std::vector<TenantPoint> tenants;
};

double jain_index(const std::vector<double>& shares) {
  double sum = 0.0;
  double sq = 0.0;
  for (const double s : shares) {
    sum += s;
    sq += s * s;
  }
  if (sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(shares.size()) * sq);
}

/// Accumulates per-tenant latency histograms into one aggregate (the
/// log-spaced buckets are positionally compatible by construction).
void merge_histogram(obs::HistogramStats& into,
                     const obs::HistogramStats& from) {
  if (from.count == 0) return;
  if (into.count == 0) {
    into.min = from.min;
    into.max = from.max;
  } else {
    into.min = std::min(into.min, from.min);
    into.max = std::max(into.max, from.max);
  }
  into.count += from.count;
  into.sum += from.sum;
  if (from.buckets.size() > into.buckets.size()) {
    into.buckets.resize(from.buckets.size(), 0);
  }
  for (std::size_t i = 0; i < from.buckets.size(); ++i) {
    into.buckets[i] += from.buckets[i];
  }
}

/// Runs one (mix, load) point on a fresh machine/front end: seeded
/// open-loop arrivals, per-arrival deterministic inputs, drain, stats.
SweepPoint run_point(const std::shared_ptr<const batch::Plan>& plan,
                     const tensor::SymTensor3& a, const std::string& mix,
                     const std::vector<double>& weights, double load_factor,
                     double duration_s, std::uint64_t seed) {
  SweepPoint pt;
  pt.mix = mix;
  pt.load_factor = load_factor;

  simt::Machine machine = plan->make_machine();
  serve::FrontendOptions opts;
  opts.batch_width = 16;
  opts.global_queue_depth = 256;
  serve::Frontend fe(machine, plan, a, opts);
  serve::TenantQuota quota;  // equal quotas across the mix
  quota.max_queue_depth = 32;
  for (std::size_t t = 0; t < weights.size(); ++t) {
    fe.add_tenant("tenant" + std::to_string(t), quota);
  }

  serve::TrafficSpec spec;
  spec.seed = seed;
  spec.duration_s = duration_s;
  spec.offered_jobs_per_s = fe.saturation_jobs_per_s() * load_factor;
  spec.tenant_weights = weights;
  const std::vector<serve::Arrival> arrivals =
      serve::generate_open_loop(spec);
  pt.arrivals = arrivals.size();
  pt.offered_jobs_per_s = spec.offered_jobs_per_s;

  const std::size_t n = plan->key().n;
  for (const serve::Arrival& arr : arrivals) {
    fe.advance_to(arr.time_ns);
    Rng job_rng(7000 + 1000 * arr.tenant + arr.seq);
    (void)fe.submit(arr.tenant, job_rng.uniform_vector(n, -1.0, 1.0),
                    nullptr);
  }
  fe.drain();

  const serve::FrontendStats& fs = fe.stats();
  pt.admitted = fs.admitted;
  pt.completed = fs.completed;
  pt.rejected = fs.rejected;
  pt.reject_rate = pt.arrivals == 0
                       ? 0.0
                       : static_cast<double>(pt.rejected) /
                             static_cast<double>(pt.arrivals);
  // Goodput over the busy period: completions per virtual second from the
  // first arrival to the last completion.
  const double busy_s = static_cast<double>(fe.now_ns()) / 1e9;
  pt.goodput_jobs_per_s =
      busy_s == 0.0 ? 0.0 : static_cast<double>(pt.completed) / busy_s;

  obs::HistogramStats latency;
  std::vector<double> goodput_shares;
  std::uint64_t words = 0;
  std::uint64_t overhead = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  for (std::size_t t = 0; t < weights.size(); ++t) {
    const serve::TenantStats& ts = fe.tenant_stats(t);
    TenantPoint tp;
    tp.name = ts.name;
    tp.admitted = ts.admitted;
    tp.completed = ts.completed;
    tp.rejected = ts.rejected_total;
    tp.rejected_by_reason = ts.rejected;
    tp.words = ts.words;
    tp.latency_p50_ns = ts.latency_ns.percentile(0.50);
    tp.latency_p99_ns = ts.latency_ns.percentile(0.99);
    pt.tenants.push_back(tp);
    merge_histogram(latency, ts.latency_ns);
    goodput_shares.push_back(static_cast<double>(ts.completed));
    words += ts.words;
    overhead += ts.overhead_words;
    messages += ts.messages;
    rounds += ts.rounds;
  }
  pt.latency_p50_ns = latency.percentile(0.50);
  pt.latency_p99_ns = latency.percentile(0.99);
  pt.jain = jain_index(goodput_shares);
  const simt::CommLedger& ledger = machine.ledger();
  pt.ledger_conserved =
      words == ledger.total_words() &&
      overhead == ledger.total_words(simt::Channel::kOverhead) &&
      messages == ledger.total_messages() && rounds == ledger.rounds();
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sttsv;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }

  repro::banner(quick ? "Multi-tenant serving (quick smoke sweep)"
                      : "Multi-tenant serving (open-loop load sweep)");
  repro::Checker check;

  // Small plans (trivial m=5 quick, spherical q=2 full; P = 10 both)
  // keep every admitted job's real STTSV run cheap while the virtual
  // clock carries the load model.
  const std::size_t n = quick ? 36 : 60;
  const double duration_s = quick ? 0.15 : 0.6;
  const std::uint64_t seed = 20250807;
  const std::vector<double> load_factors = {0.5, 1.0, 1.5, 2.0};
  const std::size_t tenants = 4;

  const std::shared_ptr<const batch::Plan> plan = batch::Plan::build(
      quick ? batch::plan_key(n, batch::Family::kTrivial, 5,
                              simt::Transport::kPointToPoint)
            : batch::plan_key(n, batch::Family::kSpherical, 2,
                              simt::Transport::kPointToPoint));

  Rng rng(2025);
  const tensor::SymTensor3 a = tensor::random_symmetric(n, rng);

  const std::vector<std::pair<std::string, std::vector<double>>> mixes = {
      {"uniform", serve::uniform_weights(tenants)},
      {"zipf", serve::zipf_weights(tenants, 1.0)},
  };

  std::vector<SweepPoint> points;
  for (const auto& [mix, weights] : mixes) {
    for (const double load : load_factors) {
      points.push_back(
          run_point(plan, a, mix, weights, load, duration_s, seed));
    }
  }

  TextTable table({"mix", "load", "offered/s", "arrivals", "goodput/s",
                   "reject", "p50 ms", "p99 ms", "jain"},
                  std::vector<Align>(9, Align::kRight));
  for (const SweepPoint& pt : points) {
    table.add_row({pt.mix, format_double(pt.load_factor, 2),
                   format_double(pt.offered_jobs_per_s, 0),
                   std::to_string(pt.arrivals),
                   format_double(pt.goodput_jobs_per_s, 0),
                   format_double(pt.reject_rate, 3),
                   format_double(pt.latency_p50_ns / 1e6, 2),
                   format_double(pt.latency_p99_ns / 1e6, 2),
                   format_double(pt.jain, 3)});
  }
  std::cout << table << "\n";

  // --- Serving-contract checks. ----------------------------------------
  const double saturation = [&] {
    serve::FrontendOptions opts;
    opts.batch_width = 16;
    const double width = static_cast<double>(opts.batch_width);
    return width /
           static_cast<double>(opts.service_alpha_ns +
                               opts.service_beta_ns * opts.batch_width) *
           1e9;
  }();
  for (const SweepPoint& pt : points) {
    const std::string tag = pt.mix + " @" + format_double(pt.load_factor, 2) +
                            "x: ";
    check.check(pt.ledger_conserved,
                tag + "per-tenant ledger attribution sums to the machine "
                      "ledger exactly");
    std::uint64_t rejected_sum = 0;
    bool reasons_sum = true;
    for (const TenantPoint& tp : pt.tenants) {
      std::uint64_t by_reason = 0;
      for (const std::uint64_t r : tp.rejected_by_reason) by_reason += r;
      reasons_sum = reasons_sum && by_reason == tp.rejected;
      rejected_sum += tp.rejected;
    }
    check.check(reasons_sum && rejected_sum == pt.rejected,
                tag + "every reject attributed to a tenant and reason");
    if (pt.load_factor <= 0.5) {
      check.check(pt.reject_rate < 0.01,
                  tag + "below saturation admission is effectively open");
    }
    if (pt.load_factor >= 2.0) {
      check.check(pt.reject_rate > 0.10,
                  tag + "past saturation backpressure rejects visibly");
      check.check(pt.goodput_jobs_per_s > 0.85 * saturation,
                  tag + "goodput holds near the service ceiling");
    }
  }

  // Fairness acceptance: uniform mix at 2x overload, equal quotas.
  for (const SweepPoint& pt : points) {
    if (pt.mix != "uniform" || pt.load_factor < 2.0) continue;
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (const TenantPoint& tp : pt.tenants) {
      lo = std::min(lo, tp.completed);
      hi = std::max(hi, tp.completed);
    }
    check.check(pt.jain >= 0.95,
                "uniform @2x: Jain fairness index >= 0.95 (got " +
                    format_double(pt.jain, 4) + ")");
    check.check(static_cast<double>(hi - lo) <=
                    0.10 * static_cast<double>(hi),
                "uniform @2x: per-tenant goodput within 10%");
  }

  // --- Machine-readable artifact. --------------------------------------
  // One extra instrumented point (uniform @2x) supplies the shared
  // observability block: its machine ledger plus front-end metrics.
  {
    simt::Machine machine = plan->make_machine();
    serve::FrontendOptions opts;
    opts.batch_width = 16;
    opts.global_queue_depth = 256;
    serve::Frontend fe(machine, plan, a, opts);
    serve::TenantQuota quota;
    quota.max_queue_depth = 32;
    for (std::size_t t = 0; t < tenants; ++t) {
      fe.add_tenant("tenant" + std::to_string(t), quota);
    }
    serve::TrafficSpec spec;
    spec.seed = seed;
    spec.duration_s = duration_s;
    spec.offered_jobs_per_s = fe.saturation_jobs_per_s() * 2.0;
    spec.tenant_weights = serve::uniform_weights(tenants);
    for (const serve::Arrival& arr : serve::generate_open_loop(spec)) {
      fe.advance_to(arr.time_ns);
      Rng job_rng(7000 + 1000 * arr.tenant + arr.seq);
      (void)fe.submit(arr.tenant, job_rng.uniform_vector(n, -1.0, 1.0),
                      nullptr);
    }
    fe.drain();

    std::ofstream out("BENCH_serve.json");
    repro::JsonWriter w(out);
    w.begin_object();
    w.field("schema", "sttsv.bench/v1");
    w.field("bench", "bench_serve");
    w.field("mode", quick ? "quick" : "full");
    w.field("n", static_cast<std::uint64_t>(n));
    w.field("family", quick ? "trivial" : "spherical");
    w.field("P", static_cast<std::uint64_t>(plan->num_processors()));
    w.field("tenants", static_cast<std::uint64_t>(tenants));
    w.field("batch_width", std::uint64_t{16});
    w.field("duration_virtual_s", duration_s);
    w.field("seed", seed);
    w.field("saturation_jobs_per_s", saturation);
    w.begin_array("sweep");
    for (const SweepPoint& pt : points) {
      w.begin_object();
      w.field("mix", pt.mix);
      w.field("load_factor", pt.load_factor);
      w.field("offered_jobs_per_s", pt.offered_jobs_per_s);
      w.field("arrivals", pt.arrivals);
      w.field("admitted", pt.admitted);
      w.field("completed", pt.completed);
      w.field("rejected", pt.rejected);
      w.field("reject_rate", pt.reject_rate);
      w.field("goodput_jobs_per_s", pt.goodput_jobs_per_s);
      w.field("latency_p50_ns", pt.latency_p50_ns);
      w.field("latency_p99_ns", pt.latency_p99_ns);
      w.field("jain_fairness", pt.jain);
      w.field("ledger_conserved", pt.ledger_conserved);
      w.begin_array("tenants");
      for (const TenantPoint& tp : pt.tenants) {
        w.begin_object();
        w.field("name", tp.name);
        w.field("admitted", tp.admitted);
        w.field("completed", tp.completed);
        w.field("rejected", tp.rejected);
        for (std::size_t r = 0; r < serve::kNumRejectReasons; ++r) {
          if (tp.rejected_by_reason[r] == 0) continue;
          const std::string field_name =
              std::string("rejected_") +
              serve::reject_reason_name(static_cast<serve::RejectReason>(r));
          w.field(field_name.c_str(), tp.rejected_by_reason[r]);
        }
        w.field("words", tp.words);
        w.field("latency_p50_ns", tp.latency_p50_ns);
        w.field("latency_p99_ns", tp.latency_p99_ns);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    {
      obs::MetricsRegistry registry;
      machine.ledger().to_metrics(registry);
      fe.publish_metrics(registry);
      repro::write_observability(w, machine.ledger(), registry);
    }
    w.end_object();
  }
  std::cout << "\n  wrote BENCH_serve.json\n";

  std::cout << "\n"
            << (check.failures() == 0 ? "All" : "Some") << " serving checks "
            << (check.failures() == 0 ? "passed." : "FAILED.") << "\n";
  return check.exit_code();
}
