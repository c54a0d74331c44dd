// Multi-tenant serving subsystem tests (DESIGN.md §14): the DRR
// scheduler's fairness and FIFO guarantees, deterministic token-bucket
// admission, the open-loop traffic generator's reproducibility and
// per-tenant stream independence, explicit (never silent) rejects under
// every quota, and the two serving-layer invariants: every tenant's
// outputs bitwise identical to running its jobs alone through
// batch::parallel_sttsv_batch, and per-tenant ledger attribution summing
// exactly to the global ledger.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "obs/metrics.hpp"
#include "serve/drr.hpp"
#include "serve/frontend.hpp"
#include "serve/tenant.hpp"
#include "serve/traffic.hpp"
#include "simt/fault_injector.hpp"
#include "simt/reliable_exchange.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::serve {
namespace {

using simt::Channel;

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    std::uint64_t gb = 0;
    std::uint64_t wb = 0;
    std::memcpy(&gb, &got[i], sizeof(double));
    std::memcpy(&wb, &want[i], sizeof(double));
    ASSERT_EQ(gb, wb) << what << " differs at i=" << i;
  }
}

// --- DRR scheduler ---------------------------------------------------------

TEST(DrrScheduler, EqualQuantaShareBatchesEqually) {
  DrrScheduler drr;
  for (int lane = 0; lane < 3; ++lane) drr.add_lane(1);
  for (std::uint64_t j = 0; j < 4; ++j) {
    for (std::size_t lane = 0; lane < 3; ++lane) {
      drr.enqueue(lane, lane * 100 + j);
    }
  }
  const auto batch = drr.next_batch(6);
  ASSERT_EQ(batch.size(), 6u);
  std::map<std::size_t, std::size_t> per_lane;
  for (const auto& [lane, handle] : batch) ++per_lane[lane];
  EXPECT_EQ(per_lane[0], 2u);
  EXPECT_EQ(per_lane[1], 2u);
  EXPECT_EQ(per_lane[2], 2u);
}

TEST(DrrScheduler, PreservesPerLaneFifoOrder) {
  DrrScheduler drr;
  drr.add_lane();
  drr.add_lane();
  for (std::uint64_t j = 0; j < 5; ++j) {
    drr.enqueue(0, j);
    drr.enqueue(1, 100 + j);
  }
  std::map<std::size_t, std::vector<std::uint64_t>> seen;
  while (drr.backlog() > 0) {
    for (const auto& [lane, handle] : drr.next_batch(3)) {
      seen[lane].push_back(handle);
    }
  }
  EXPECT_EQ(seen[0], (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(seen[1], (std::vector<std::uint64_t>{100, 101, 102, 103, 104}));
}

TEST(DrrScheduler, QuantaWeightService) {
  DrrScheduler drr;
  drr.add_lane(2);  // double share
  drr.add_lane(1);
  for (std::uint64_t j = 0; j < 12; ++j) {
    drr.enqueue(0, j);
    drr.enqueue(1, 100 + j);
  }
  // Both lanes stay backlogged for the first 9 picks: shares follow quanta.
  std::map<std::size_t, std::size_t> per_lane;
  for (const auto& [lane, handle] : drr.next_batch(9)) ++per_lane[lane];
  EXPECT_EQ(per_lane[0], 6u);
  EXPECT_EQ(per_lane[1], 3u);
}

TEST(DrrScheduler, TruncationCarriesDeficitAcrossBatches) {
  DrrScheduler drr;
  drr.add_lane(3);
  drr.add_lane(3);
  for (std::uint64_t j = 0; j < 6; ++j) {
    drr.enqueue(0, j);
    drr.enqueue(1, 100 + j);
  }
  // Width 2 truncates lane 0 mid-quantum; its leftover deficit must let it
  // finish its quantum before lane 1 is served.
  const auto b1 = drr.next_batch(2);
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_EQ(b1[0].first, 0u);
  EXPECT_EQ(b1[1].first, 0u);
  const auto b2 = drr.next_batch(2);
  ASSERT_EQ(b2.size(), 2u);
  EXPECT_EQ(b2[0].first, 0u);  // finishes lane 0's quantum of 3
  EXPECT_EQ(b2[1].first, 1u);  // then lane 1 starts its quantum
  // Over all 12 picks the shares even out 6/6 despite the truncations.
  std::map<std::size_t, std::size_t> per_lane;
  for (const auto& [lane, handle] : b1) ++per_lane[lane];
  for (const auto& [lane, handle] : b2) ++per_lane[lane];
  while (drr.backlog() > 0) {
    for (const auto& [lane, handle] : drr.next_batch(2)) ++per_lane[lane];
  }
  EXPECT_EQ(per_lane[0], 6u);
  EXPECT_EQ(per_lane[1], 6u);
}

TEST(DrrScheduler, IdleLaneBanksNoCredit) {
  DrrScheduler drr;
  drr.add_lane(1);
  drr.add_lane(1);
  drr.enqueue(0, 1);
  drr.enqueue(0, 2);
  // Lane 1 idles through two batches; its deficit must stay 0.
  (void)drr.next_batch(1);
  (void)drr.next_batch(1);
  for (std::uint64_t j = 0; j < 4; ++j) {
    drr.enqueue(0, 10 + j);
    drr.enqueue(1, 100 + j);
  }
  std::map<std::size_t, std::size_t> per_lane;
  for (const auto& [lane, handle] : drr.next_batch(4)) ++per_lane[lane];
  EXPECT_EQ(per_lane[0], 2u);
  EXPECT_EQ(per_lane[1], 2u);
}

// --- Token bucket ----------------------------------------------------------

TEST(TokenBucket, BurstThenRefill) {
  TokenBucket bucket(10.0, 2.0);  // 10 tokens/s, burst 2
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0));
  // 100 ms refills exactly one token.
  EXPECT_TRUE(bucket.try_take(100'000'000));
  EXPECT_FALSE(bucket.try_take(100'000'000));
}

TEST(TokenBucket, UnlimitedRateAlwaysAdmits) {
  TokenBucket bucket(std::numeric_limits<double>::infinity(), 1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(bucket.try_take(0));
}

TEST(TokenBucket, RefillCapsAtBurst) {
  TokenBucket bucket(1000.0, 3.0);
  EXPECT_TRUE(bucket.try_take(0));
  // A long idle period refills to burst, not beyond.
  EXPECT_DOUBLE_EQ(bucket.available(10'000'000'000ULL), 3.0);
}

// --- Open-loop traffic -----------------------------------------------------

TEST(Traffic, DeterministicInSeed) {
  TrafficSpec spec;
  spec.seed = 42;
  spec.duration_s = 0.5;
  spec.offered_jobs_per_s = 200.0;
  spec.tenant_weights = uniform_weights(3);
  const auto a = generate_open_loop(spec);
  const auto b = generate_open_loop(spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_ns, b[i].time_ns);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].seq, b[i].seq);
  }
  EXPECT_GT(a.size(), 50u);  // ~100 expected arrivals
}

TEST(Traffic, TenantStreamIndependentOfMixSize) {
  // Tenant 0 at 50 jobs/s should emit the identical trace whether it is
  // alone or sharing the schedule with another 50 jobs/s tenant.
  TrafficSpec solo;
  solo.seed = 7;
  solo.duration_s = 0.25;
  solo.offered_jobs_per_s = 50.0;
  solo.tenant_weights = {1.0};
  TrafficSpec mixed = solo;
  mixed.offered_jobs_per_s = 100.0;
  mixed.tenant_weights = {1.0, 1.0};

  const auto solo_arrivals = generate_open_loop(solo);
  std::vector<Arrival> mixed_t0;
  for (const Arrival& a : generate_open_loop(mixed)) {
    if (a.tenant == 0) mixed_t0.push_back(a);
  }
  ASSERT_EQ(solo_arrivals.size(), mixed_t0.size());
  for (std::size_t i = 0; i < mixed_t0.size(); ++i) {
    EXPECT_EQ(solo_arrivals[i].time_ns, mixed_t0[i].time_ns);
    EXPECT_EQ(solo_arrivals[i].seq, mixed_t0[i].seq);
  }
}

TEST(Traffic, ZipfWeightsSkewHead) {
  const auto w = zipf_weights(4, 1.0);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
  EXPECT_GT(w[2], w[3]);
}

// --- Frontend fixtures -----------------------------------------------------

struct Fixture {
  std::shared_ptr<const batch::Plan> plan;
  std::unique_ptr<simt::Machine> machine;
  tensor::SymTensor3 a;

  explicit Fixture(std::size_t n = 36)
      : plan(batch::Plan::build(batch::plan_key(
            n, batch::Family::kTrivial, 5, simt::Transport::kPointToPoint))),
        machine(std::make_unique<simt::Machine>(plan->num_processors())),
        a([n] {
          Rng rng(2025);
          return tensor::random_symmetric(n, rng);
        }()) {}
};

std::vector<double> job_vector(std::size_t n, std::size_t tenant,
                               std::uint64_t seq) {
  Rng rng(7000 + 1000 * tenant + seq);
  return rng.uniform_vector(n, -1.0, 1.0);
}

/// y of every input run alone on a fresh machine, in batches of at most
/// `width` in input order: the reference a served job must match bitwise.
std::vector<std::vector<double>> solo_outputs(
    const Fixture& f, const std::vector<std::vector<double>>& xs,
    std::size_t width) {
  simt::Machine solo(f.plan->num_processors());
  std::vector<std::vector<double>> ys;
  for (std::size_t v = 0; v < xs.size(); v += width) {
    std::vector<std::vector<double>> panel;
    for (std::size_t k = v; k < std::min(v + width, xs.size()); ++k) {
      panel.push_back(xs[k]);
    }
    for (auto& y : batch::parallel_sttsv_batch(solo, *f.plan, f.a, panel).y) {
      ys.push_back(std::move(y));
    }
  }
  return ys;
}

// --- Construction ----------------------------------------------------------

TEST(Frontend, ValidatesConstruction) {
  Fixture f;
  FrontendOptions zero_width;
  zero_width.batch_width = 0;
  EXPECT_THROW(Frontend(*f.machine, f.plan, f.a, zero_width),
               PreconditionError);
  EXPECT_THROW(Frontend(*f.machine, nullptr, f.a), PreconditionError);

  simt::Machine wider(f.plan->num_processors() + 1);
  EXPECT_THROW(Frontend(wider, f.plan, f.a), PreconditionError);

  simt::Machine other(f.plan->num_processors());
  simt::DirectExchange foreign(other);
  FrontendOptions foreign_opts;
  foreign_opts.exchanger = &foreign;
  EXPECT_THROW(Frontend(*f.machine, f.plan, f.a, foreign_opts),
               PreconditionError);

  Rng rng(3);
  const auto small = tensor::random_symmetric(f.plan->key().n - 1, rng);
  EXPECT_THROW(Frontend(*f.machine, f.plan, small), PreconditionError);
}

// --- Admission control -----------------------------------------------------

TEST(Frontend, RejectsShapeMismatch) {
  Fixture f;
  FrontendOptions opts;
  Frontend fe(*f.machine, f.plan, f.a, opts);
  const TenantId t = fe.add_tenant("t0");
  const Admission bad = fe.submit(t, std::vector<double>(5, 1.0), nullptr);
  EXPECT_FALSE(bad.admitted);
  EXPECT_EQ(bad.reason, RejectReason::kShapeMismatch);
  EXPECT_EQ(fe.tenant_stats(t).rejected_total, 1u);
  EXPECT_EQ(fe.tenant_stats(t).rejected[static_cast<std::size_t>(
                RejectReason::kShapeMismatch)],
            1u);
}

TEST(Frontend, BoundsTenantAndGlobalQueues) {
  Fixture f;
  FrontendOptions opts;
  opts.batch_width = 4;
  opts.global_queue_depth = 5;
  // Slow virtual server so submissions pile up while it is busy.
  opts.service_alpha_ns = 1'000'000;
  Frontend fe(*f.machine, f.plan, f.a, opts);
  TenantQuota quota;
  quota.max_queue_depth = 3;
  const TenantId t0 = fe.add_tenant("t0", quota);
  const TenantId t1 = fe.add_tenant("t1", quota);

  // First submit dispatches immediately (server idle); the rest queue.
  std::size_t tenant_full = 0;
  std::size_t global_full = 0;
  for (std::uint64_t j = 0; j < 6; ++j) {
    const Admission ad = fe.submit(t0, job_vector(36, 0, j), nullptr);
    if (!ad.admitted) {
      ASSERT_EQ(ad.reason, RejectReason::kTenantQueueFull);
      ++tenant_full;
    }
  }
  // Lane t0 holds 3 queued; two more from t1 hit the global bound of 5.
  for (std::uint64_t j = 0; j < 4; ++j) {
    const Admission ad = fe.submit(t1, job_vector(36, 1, j), nullptr);
    if (!ad.admitted) {
      ASSERT_EQ(ad.reason, RejectReason::kGlobalQueueFull);
      ++global_full;
    }
  }
  EXPECT_EQ(tenant_full, 2u);  // 1 dispatched + 3 queued, j=4,5 rejected
  EXPECT_EQ(global_full, 2u);  // backlog 3 + 2 admitted = 5, then full
  EXPECT_EQ(fe.tenant_stats(t0).rejected[static_cast<std::size_t>(
                RejectReason::kTenantQueueFull)],
            2u);
  EXPECT_EQ(fe.tenant_stats(t1).rejected[static_cast<std::size_t>(
                RejectReason::kGlobalQueueFull)],
            2u);
  fe.drain();
  EXPECT_EQ(fe.stats().completed, fe.stats().admitted);
}

TEST(Frontend, EnforcesRateLimit) {
  Fixture f;
  Frontend fe(*f.machine, f.plan, f.a, {});
  TenantQuota quota;
  quota.rate_per_s = 10.0;
  quota.burst = 2.0;
  const TenantId t = fe.add_tenant("limited", quota);
  EXPECT_TRUE(fe.submit(t, job_vector(36, 0, 0), nullptr).admitted);
  EXPECT_TRUE(fe.submit(t, job_vector(36, 0, 1), nullptr).admitted);
  const Admission third = fe.submit(t, job_vector(36, 0, 2), nullptr);
  EXPECT_FALSE(third.admitted);
  EXPECT_EQ(third.reason, RejectReason::kRateLimited);
  // 100 virtual ms refill one token.
  fe.advance_to(100'000'000);
  EXPECT_TRUE(fe.submit(t, job_vector(36, 0, 3), nullptr).admitted);
}

TEST(Frontend, EnforcesInFlightQuota) {
  Fixture f;
  FrontendOptions opts;
  opts.batch_width = 2;
  opts.service_alpha_ns = 1'000'000;  // jobs stay in flight a while
  Frontend fe(*f.machine, f.plan, f.a, opts);
  TenantQuota quota;
  quota.max_in_flight = 2;
  quota.max_queue_depth = 16;
  const TenantId t = fe.add_tenant("t0", quota);
  EXPECT_TRUE(fe.submit(t, job_vector(36, 0, 0), nullptr).admitted);
  EXPECT_TRUE(fe.submit(t, job_vector(36, 0, 1), nullptr).admitted);
  const Admission over = fe.submit(t, job_vector(36, 0, 2), nullptr);
  EXPECT_FALSE(over.admitted);
  EXPECT_EQ(over.reason, RejectReason::kInFlightQuota);
  // Once the virtual clock passes the completions, capacity returns.
  fe.advance_to(fe.busy_until_ns() + opts.service_alpha_ns * 4);
  EXPECT_TRUE(fe.submit(t, job_vector(36, 0, 3), nullptr).admitted);
}

// --- Serving invariants ----------------------------------------------------

struct Served {
  std::uint64_t seq;
  std::vector<double> y;
};

/// Drives a seeded, overloaded, mixed-tenant workload and returns per
/// tenant: the admitted inputs (submission order) and completions.
struct WorkloadResult {
  std::vector<std::vector<std::vector<double>>> admitted_x;
  std::vector<std::vector<Served>> served;
};

WorkloadResult run_mixed_workload(Frontend& fe, std::size_t n,
                                  std::size_t tenants,
                                  double overload_factor,
                                  std::uint64_t seed) {
  WorkloadResult result;
  result.admitted_x.resize(tenants);
  result.served.resize(tenants);

  TrafficSpec spec;
  spec.seed = seed;
  spec.duration_s = 0.02;
  spec.offered_jobs_per_s = fe.saturation_jobs_per_s() * overload_factor;
  spec.tenant_weights = uniform_weights(tenants);
  const auto arrivals = generate_open_loop(spec);
  EXPECT_GT(arrivals.size(), 20u);

  for (const Arrival& arr : arrivals) {
    fe.advance_to(arr.time_ns);
    std::vector<double> x = job_vector(n, arr.tenant, arr.seq);
    auto cb = [&result](JobResult r) {
      result.served[r.tenant].push_back(Served{r.seq, std::move(r.y)});
    };
    const Admission ad = fe.submit(arr.tenant, std::move(x), cb);
    if (ad.admitted) {
      result.admitted_x[arr.tenant].push_back(job_vector(n, arr.tenant,
                                                         arr.seq));
    }
  }
  fe.drain();
  return result;
}

TEST(Frontend, BitwiseIsolationUnderOverload) {
  Fixture f;
  FrontendOptions opts;
  opts.batch_width = 4;
  opts.service_alpha_ns = 20'000;
  opts.service_beta_ns = 5'000;
  Frontend fe(*f.machine, f.plan, f.a, opts);
  const std::size_t tenants = 3;
  TenantQuota quota;
  quota.max_queue_depth = 8;
  for (std::size_t t = 0; t < tenants; ++t) {
    fe.add_tenant("tenant" + std::to_string(t), quota);
  }
  // 2.5x saturation: queues stay full, every tenant sees rejects.
  WorkloadResult result = run_mixed_workload(fe, 36, tenants, 2.5, 99);

  std::uint64_t total_rejected = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    total_rejected += fe.tenant_stats(t).rejected_total;
  }
  EXPECT_GT(total_rejected, 0u) << "workload not actually overloaded";

  for (std::size_t t = 0; t < tenants; ++t) {
    // Completions preserve per-tenant FIFO order...
    const auto& served = result.served[t];
    ASSERT_EQ(served.size(), result.admitted_x[t].size());
    for (std::size_t i = 1; i < served.size(); ++i) {
      EXPECT_LT(served[i - 1].seq, served[i].seq) << "tenant " << t;
    }
    // ...and every y is bitwise identical to running this tenant's jobs
    // alone on a fresh machine.
    const auto solo_y =
        solo_outputs(f, result.admitted_x[t], opts.batch_width);
    ASSERT_EQ(solo_y.size(), served.size());
    for (std::size_t i = 0; i < served.size(); ++i) {
      expect_bitwise(served[i].y, solo_y[i], "tenant isolation");
    }
  }
}

TEST(Frontend, LedgerAttributionConservesExactly) {
  Fixture f;
  FrontendOptions opts;
  opts.batch_width = 4;
  opts.service_alpha_ns = 20'000;
  opts.service_beta_ns = 5'000;
  Frontend fe(*f.machine, f.plan, f.a, opts);
  const std::size_t tenants = 3;
  for (std::size_t t = 0; t < tenants; ++t) {
    TenantQuota quota;
    quota.max_queue_depth = 8;
    fe.add_tenant("tenant" + std::to_string(t), quota);
  }
  (void)run_mixed_workload(fe, 36, tenants, 2.0, 123);

  const simt::CommLedger& ledger = f.machine->ledger();
  ledger.verify_conservation();
  std::uint64_t words = 0;
  std::uint64_t overhead = 0;
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    const TenantStats& ts = fe.tenant_stats(t);
    words += ts.words;
    overhead += ts.overhead_words;
    messages += ts.messages;
    rounds += ts.rounds;
  }
  EXPECT_EQ(words, ledger.total_words());
  EXPECT_EQ(overhead, ledger.total_words(Channel::kOverhead));
  EXPECT_EQ(messages, ledger.total_messages());
  EXPECT_EQ(rounds, ledger.rounds());
  EXPECT_GT(words, 0u);
}

TEST(Frontend, EqualQuotasServeFairlyUnderOverload) {
  Fixture f;
  FrontendOptions opts;
  opts.batch_width = 4;
  opts.service_alpha_ns = 20'000;
  opts.service_beta_ns = 5'000;
  Frontend fe(*f.machine, f.plan, f.a, opts);
  const std::size_t tenants = 4;
  for (std::size_t t = 0; t < tenants; ++t) {
    TenantQuota quota;
    quota.max_queue_depth = 8;
    fe.add_tenant("tenant" + std::to_string(t), quota);
  }
  (void)run_mixed_workload(fe, 36, tenants, 2.0, 2024);

  std::uint64_t lo = UINT64_MAX;
  std::uint64_t hi = 0;
  for (std::size_t t = 0; t < tenants; ++t) {
    const std::uint64_t c = fe.tenant_stats(t).completed;
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  EXPECT_GT(lo, 0u);
  // Equal quotas + equal offered load: goodput within 15% across tenants.
  EXPECT_LE(static_cast<double>(hi - lo), 0.15 * static_cast<double>(hi));
}

TEST(Frontend, PublishesPerTenantMetrics) {
  Fixture f;
  Frontend fe(*f.machine, f.plan, f.a, {});
  const TenantId t = fe.add_tenant("alpha");
  ASSERT_TRUE(fe.submit(t, job_vector(36, 0, 0), nullptr).admitted);
  fe.drain();
  obs::MetricsRegistry reg;
  fe.publish_metrics(reg);
  EXPECT_EQ(reg.counter("serve.admitted"), 1u);
  EXPECT_EQ(reg.counter("serve.tenant.alpha.completed"), 1u);
  EXPECT_GT(reg.counter("serve.tenant.alpha.words"), 0u);
  EXPECT_GE(reg.gauge("serve.tenant.alpha.latency_p50_ns"), 0.0);
}

// --- Fault handling --------------------------------------------------------

TEST(Frontend, RequeuesBatchIntactWhenDispatchFaults) {
  Fixture f;
  simt::ReliableExchange rex(*f.machine, simt::RetryPolicy{2, 1, 2},
                             simt::RecoveryPolicy::kFailFast);
  FrontendOptions opts;
  opts.batch_width = 4;
  opts.service_alpha_ns = 1'000'000;  // server stays busy so jobs queue
  opts.service_beta_ns = 10'000;
  opts.exchanger = &rex;
  Frontend fe(*f.machine, f.plan, f.a, opts);
  TenantQuota quota;
  quota.max_queue_depth = 4;
  const TenantId ta = fe.add_tenant("a", quota);
  const TenantId tb = fe.add_tenant("b", quota);

  std::vector<JobResult> done;
  auto cb = [&done](JobResult r) { done.push_back(std::move(r)); };

  // First submit dispatches inline over the still-clean wire; the next
  // three queue behind the busy virtual server.
  ASSERT_TRUE(fe.submit(ta, job_vector(36, 0, 0), cb).admitted);
  ASSERT_TRUE(fe.submit(ta, job_vector(36, 0, 1), cb).admitted);
  ASSERT_TRUE(fe.submit(tb, job_vector(36, 1, 0), cb).admitted);
  ASSERT_TRUE(fe.submit(ta, job_vector(36, 0, 2), cb).admitted);
  ASSERT_EQ(fe.backlog(), 3u);
  const std::uint64_t batches_before = fe.stats().batches_run;

  // Kill the wire: every frame (data and ACK) is dropped, so the retry
  // budget runs out and the batch dispatch faults.
  simt::FaultInjector injector({.drop = 1.0, .seed = 0xFE11});
  f.machine->set_fault_injector(&injector);
  EXPECT_THROW(fe.drain(), simt::FaultError);

  // The batch was re-parked intact: same jobs, same lanes, nothing lost,
  // and the failed run never counted as a served batch.
  EXPECT_EQ(fe.backlog(), 3u);
  EXPECT_EQ(fe.stats().dispatch_failures, 1u);
  EXPECT_EQ(fe.stats().batches_run, batches_before);
  EXPECT_EQ(fe.stats().admitted, 4u);
  EXPECT_EQ(fe.stats().completed, 1u);  // only the pre-fault inline batch

  // Heal the wire and pump again: the re-parked jobs complete in the
  // original per-tenant FIFO order with bitwise-correct outputs.
  f.machine->set_fault_injector(nullptr);
  fe.drain();
  EXPECT_EQ(fe.backlog(), 0u);
  EXPECT_EQ(fe.stats().completed, 4u);
  ASSERT_EQ(done.size(), 4u);
  std::vector<std::uint64_t> seq_a;
  for (const JobResult& r : done) {
    if (r.tenant == ta) seq_a.push_back(r.seq);
  }
  ASSERT_EQ(seq_a.size(), 3u);
  EXPECT_TRUE(std::is_sorted(seq_a.begin(), seq_a.end()));

  std::vector<std::vector<double>> inputs;
  for (const JobResult& r : done) {
    inputs.push_back(job_vector(36, r.tenant == ta ? 0u : 1u, r.seq));
  }
  const auto want = solo_outputs(f, inputs, opts.batch_width);
  for (std::size_t k = 0; k < done.size(); ++k) {
    expect_bitwise(done[k].y, want[k], "requeued job output");
  }

  // No quota leaked and ledger attribution survived the faulted attempt:
  // per-tenant shares (including the re-parked batch's retry overhead)
  // still sum exactly to the machine ledger.
  EXPECT_TRUE(fe.submit(tb, job_vector(36, 1, 9), cb).admitted);
  fe.drain();
  const simt::CommLedger& ledger = f.machine->ledger();
  ledger.verify_conservation();
  std::uint64_t words = 0;
  std::uint64_t overhead = 0;
  std::uint64_t messages = 0;
  for (TenantId t = 0; t < fe.num_tenants(); ++t) {
    words += fe.tenant_stats(t).words;
    overhead += fe.tenant_stats(t).overhead_words;
    messages += fe.tenant_stats(t).messages;
  }
  EXPECT_EQ(words, ledger.total_words());
  EXPECT_EQ(overhead, ledger.total_words(Channel::kOverhead));
  EXPECT_EQ(messages, ledger.total_messages());
  EXPECT_GT(overhead, 0u) << "faulted attempt left no overhead trace";

  obs::MetricsRegistry reg;
  fe.publish_metrics(reg);
  EXPECT_EQ(reg.counter("serve.dispatch_failures"), 1u);
}

TEST(Frontend, DegradeCapacityRescalesServiceModel) {
  Fixture f;
  FrontendOptions opts;
  opts.service_alpha_ns = 100'000;
  opts.service_beta_ns = 30'000;
  Frontend fe(*f.machine, f.plan, f.a, opts);
  const std::size_t P = f.plan->num_processors();
  const double full = fe.saturation_jobs_per_s();

  fe.degrade_capacity(P - 2);
  const double degraded = fe.saturation_jobs_per_s();
  EXPECT_LT(degraded, full);
  // Idempotent in `alive`: rescaling always starts from the construction
  // beta, so repeating the call changes nothing.
  fe.degrade_capacity(P - 2);
  EXPECT_EQ(fe.saturation_jobs_per_s(), degraded);
  // Full membership restores full capacity exactly.
  fe.degrade_capacity(P);
  EXPECT_EQ(fe.saturation_jobs_per_s(), full);
  EXPECT_THROW(fe.degrade_capacity(0), PreconditionError);
  EXPECT_THROW(fe.degrade_capacity(P + 1), PreconditionError);
}

// --- Threading contract ----------------------------------------------------

#ifdef STTSV_DEBUG_CHECKS
TEST(FrontendOwnership, DebugCheckRejectsCrossThreadUse) {
  Fixture f;
  Frontend fe(*f.machine, f.plan, f.a, {});
  const TenantId t = fe.add_tenant("t0");
  fe.drain();  // binds the owner to this thread
  std::size_t rejected = 0;
  std::thread other([&] {
    const auto attempt = [&rejected](const auto& call) {
      try {
        call();
      } catch (const InternalError&) {
        ++rejected;
      }
    };
    attempt([&] { (void)fe.submit(t, job_vector(36, 0, 0), nullptr); });
    attempt([&] { fe.advance_to(fe.now_ns()); });
    attempt([&] { fe.drain(); });
  });
  other.join();
  EXPECT_EQ(rejected, 3u) << "cross-thread pump passed the owner check";
  EXPECT_EQ(fe.stats().admitted, 0u);
  // rebind_owner() is the sanctioned handoff: the next thread to pump the
  // front end becomes the owner.
  fe.rebind_owner();
  bool ok = false;
  std::thread next([&] {
    ok = fe.submit(t, job_vector(36, 0, 0), nullptr).admitted;
    fe.drain();
  });
  next.join();
  EXPECT_TRUE(ok);
  EXPECT_EQ(fe.stats().completed, 1u);
}
#endif

}  // namespace
}  // namespace sttsv::serve
