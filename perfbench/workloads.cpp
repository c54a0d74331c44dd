// The three benchmark workloads. Each one builds its stack from the
// workload seed, checks every output against a DirectExchange reference
// computed at set-up, checks the ledger against the closed form of the
// plan's exchange walk, and reports either the end-to-end metrics
// (untraced run) or the per-layer metrics (traced run).
//
//  * panel-b16: closed loop of B=16 batches at n=384 over DirectExchange.
//    Panel kernels carry most of the time, so kernel, SIMD and thread
//    work shows here; the packed tensor (~76 MB) is near the size of a
//    large last-level cache.
//  * serve-light: serve::Frontend replaying an open-loop trace at a
//    quarter of the service model's saturation, so greedy dispatch cuts
//    mostly width-1..3 batches: the narrow-panel path, the per-batch
//    engine cost and the serve layer's own time dominate.
//  * reliable-p20: closed loop of B=4 batches at n=120, P=20 over a
//    fail-fast ReliableExchange with seeded drops and corruptions. Kernels
//    are tiny; packing, the protocol and per-message costs dominate.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/costs.hpp"
#include "host_speed.hpp"
#include "kernel_probe.hpp"
#include "perfbench.hpp"
#include "serve/frontend.hpp"
#include "serve/traffic.hpp"
#include "simt/buffer_pool.hpp"
#include "simt/fault_injector.hpp"
#include "simt/parallel_for.hpp"
#include "simt/reliable_exchange.hpp"
#include "spans.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"
#include "timing_exchanger.hpp"

namespace perfbench {

namespace {

namespace sb = sttsv::batch;
namespace ss = sttsv::simt;
namespace sv = sttsv::serve;
using sttsv::tensor::SymTensor3;
using Panel = std::vector<std::vector<double>>;

/// Set-up is repeated and its median reported, so set-up time is steady:
/// at least kSetupReps times, and small set-ups until kSetupSeconds of
/// them have run (at most kSetupMaxReps).
constexpr std::size_t kSetupReps = 2;
constexpr std::size_t kSetupMaxReps = 200;
constexpr double kSetupSeconds = 0.15;
/// A run is split into this many segments, each on a freshly built stack,
/// so set-up time is sampled across the run and no single allocation or
/// host state decides a whole run's figures. Traced runs trace every
/// other segment; the rest give the untraced baseline.
constexpr std::size_t kSegments = 8;
/// Closed loops cycle through this many distinct input panels.
constexpr std::size_t kPanels = 4;
/// The exact counts are taken over this many leading batches: under
/// injected faults later batches see other fault draws, but a fixed
/// prefix of a seeded run is the same on every run.
constexpr std::size_t kExactBatches = 8;
/// Kernel-probe repetitions per lane width (median reported).
constexpr std::size_t kProbeReps = 5;

// Independent input streams derived from the workload seed.
enum Stream : std::uint64_t {
  kTensorStream = 1,
  kPanelStream,
  kFaultStream,
  kTrafficStream,
  kPickStream,
  kProbeStream,
};

std::uint64_t derive(std::uint64_t seed, Stream stream) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return sttsv::splitmix64(state);
}

double ms_since(std::uint64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e6;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double cpu_ms_since(std::uint64_t t0) {
  return static_cast<double>(cpu_ns() - t0) / 1e6;
}

/// Completed work over measured time on `clock` (cpu_ns for the end-to-end
/// figures, now_ns for the wall-clock ones). Time between segments (set-up
/// and warm-up) is paused out. The rate is the median over equal windows
/// of measured time, so a short stall moves one window rather than the
/// reported figure.
class ThroughputMeter {
 public:
  static constexpr std::size_t kWindows = 10;

  explicit ThroughputMeter(std::uint64_t (*clock)())
      : clock_(clock), paused_at_(clock()) {}

  void resume() {
    offset_ += clock_() - paused_at_;
    running_ = true;
  }
  void pause() {
    paused_at_ = clock_();
    running_ = false;
  }
  /// Records `work` more units completed now; ignored while paused.
  void add(std::uint64_t work) {
    if (!running_) return;
    done_ += work;
    points_.emplace_back(clock_() - offset_, done_);
  }

  [[nodiscard]] double per_second() const {
    if (points_.empty()) return 0.0;
    const std::uint64_t t0 = points_.front().first;
    const double span = static_cast<double>(points_.back().first - t0);
    const auto done_by = [&](double t) {
      std::uint64_t done = points_.front().second;
      for (const auto& [when, d] : points_) {
        if (static_cast<double>(when - t0) > t) break;
        done = d;
      }
      return static_cast<double>(done);
    };
    std::vector<double> rates;
    for (std::size_t k = 0; k < kWindows; ++k) {
      const double lo = span * static_cast<double>(k) / kWindows;
      const double hi = span * static_cast<double>(k + 1) / kWindows;
      rates.push_back((done_by(hi) - done_by(lo)) / ((hi - lo) / 1e9));
    }
    return median(rates);
  }

 private:
  std::uint64_t (*clock_)();
  bool running_ = false;
  std::uint64_t paused_at_;
  std::uint64_t offset_ = 0;
  std::uint64_t done_ = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> points_;
};

/// Takes a host speed reference pass, off both meters' clocks.
void reference_pass(HostSpeed& speed, ThroughputMeter& cpu_meter,
                    ThroughputMeter& wall_meter) {
  cpu_meter.pause();
  wall_meter.pause();
  speed.pass();
  wall_meter.resume();
  cpu_meter.resume();
}

std::unique_ptr<SymTensor3> make_tensor(std::size_t n, std::uint64_t seed) {
  sttsv::Rng rng(derive(seed, kTensorStream));
  return std::make_unique<SymTensor3>(
      sttsv::tensor::random_symmetric(n, rng));
}

std::shared_ptr<const sb::Plan> make_plan(std::size_t n, sb::Family family,
                                          std::uint64_t param) {
  return sb::Plan::build(
      sb::plan_key(n, family, param, ss::Transport::kPointToPoint));
}

// ---- Ledger closed form and exact counts. ----------------------------

/// What one batch must charge to the goodput channel, from the plan's
/// exchange walk: words scale with B, messages and rounds do not.
struct ClosedForm {
  std::uint64_t words_per_vector = 0;
  std::uint64_t max_rank_words_per_vector = 0;
  std::uint64_t messages_per_batch = 0;
  std::uint64_t rounds_per_batch = 0;
};

ClosedForm closed_form(const sb::Plan& plan) {
  const std::size_t P = plan.num_processors();
  ClosedForm cf;
  std::array<std::vector<std::size_t>, 2> sends{std::vector<std::size_t>(P),
                                                std::vector<std::size_t>(P)};
  std::array<std::vector<std::size_t>, 2> recvs = sends;
  for (std::size_t p = 0; p < P; ++p) {
    std::uint64_t rank_words = 0;
    for (const sb::Plan::PeerExchange& ex : plan.exchanges(p)) {
      const std::size_t words[2] = {ex.x_words, ex.y_words};
      for (std::size_t phase = 0; phase < 2; ++phase) {
        if (words[phase] == 0) continue;
        rank_words += words[phase];
        ++cf.messages_per_batch;
        ++sends[phase][p];
        ++recvs[phase][ex.peer];
      }
    }
    cf.words_per_vector += rank_words;
    cf.max_rank_words_per_vector =
        std::max(cf.max_rank_words_per_vector, rank_words);
  }
  // Point-to-point exchanges are charged König rounds: the largest send
  // or receive degree of any rank, once per phase.
  for (std::size_t phase = 0; phase < 2; ++phase) {
    std::size_t delta = 0;
    for (std::size_t p = 0; p < P; ++p) {
      delta = std::max({delta, sends[phase][p], recvs[phase][p]});
    }
    cf.rounds_per_batch += delta;
  }
  return cf;
}

/// Checks the goodput ledger accumulated over `batches` batches carrying
/// `vectors` vectors against the closed form, plus conservation.
void check_ledger(const ss::CommLedger& ledger, const ClosedForm& cf,
                  std::uint64_t batches, std::uint64_t vectors, Result& res) {
  const auto expect = [&](std::uint64_t got, std::uint64_t want,
                          const char* what) {
    if (got == want) return;
    ++res.failed;
    res.fail(std::string("ledger ") + what + " = " + std::to_string(got) +
             ", closed form " + std::to_string(want));
  };
  expect(ledger.total_words(), cf.words_per_vector * vectors, "words");
  expect(ledger.max_words_sent(), cf.max_rank_words_per_vector * vectors,
         "max words sent");
  expect(ledger.total_messages(), cf.messages_per_batch * batches, "messages");
  expect(ledger.rounds(), cf.rounds_per_batch * batches, "rounds");
  try {
    ledger.verify_conservation();
  } catch (const std::exception& e) {
    ++res.failed;
    res.fail(std::string("ledger conservation: ") + e.what());
  }
}

/// The counts that repeat exactly on every run of a seed.
struct ExactCounts {
  double max_words_per_vector = 0.0;
  double wire_words_per_vector = 0.0;
  double messages_per_batch = 0.0;
};

ExactCounts exact_counts(const ss::CommLedger& ledger, std::uint64_t batches,
                         std::uint64_t vectors) {
  const double v = static_cast<double>(vectors);
  ExactCounts c;
  c.max_words_per_vector = static_cast<double>(ledger.max_words_sent()) / v;
  std::uint64_t wire = 0;
  for (std::size_t p = 0; p < ledger.num_ranks(); ++p) {
    wire = std::max(wire, ledger.words_sent(ss::Channel::kGoodput, p) +
                              ledger.words_sent(ss::Channel::kOverhead, p));
  }
  c.wire_words_per_vector = static_cast<double>(wire) / v;
  c.messages_per_batch =
      static_cast<double>(ledger.total_messages() + ledger.overhead_messages()) /
      static_cast<double>(batches);
  return c;
}

/// Everything a ledger must agree on for two runs to be indistinguishable.
std::vector<std::uint64_t> ledger_digest(const ss::CommLedger& ledger) {
  std::vector<std::uint64_t> d;
  for (std::size_t c = 0; c < ss::kNumChannels; ++c) {
    const auto ch = static_cast<ss::Channel>(c);
    d.push_back(ledger.total_words(ch));
    d.push_back(ledger.total_messages(ch));
    d.push_back(ledger.rounds(ch));
    d.push_back(ledger.max_words_sent(ch));
    d.push_back(ledger.max_words_received(ch));
  }
  d.push_back(ledger.sync_ops());
  d.push_back(ledger.modeled_collective_words());
  return d;
}

// ---- The stack a run drives. -----------------------------------------

struct FaultMix {
  bool enabled = false;
  double drop = 0.0;
  double corrupt = 0.0;
};

/// Backend chosen by a workload: DirectExchange, or a fail-fast
/// ReliableExchange over a seeded fault injector.
struct Backend {
  std::unique_ptr<ss::FaultInjector> injector;
  std::unique_ptr<ss::Exchanger> exchanger;
};

Backend make_backend(ss::Machine& machine, const FaultMix& faults,
                     std::uint64_t seed) {
  Backend b;
  if (!faults.enabled) {
    b.exchanger = std::make_unique<ss::DirectExchange>(machine);
    return b;
  }
  b.injector = std::make_unique<ss::FaultInjector>(
      ss::FaultConfig{.drop = faults.drop,
                      .corrupt = faults.corrupt,
                      .seed = derive(seed, kFaultStream)});
  machine.set_fault_injector(b.injector.get());
  b.exchanger = std::make_unique<ss::ReliableExchange>(
      machine, ss::RetryPolicy{}, ss::RecoveryPolicy::kFailFast);
  return b;
}

/// Tensor, plan, machine, backend and the timing wrapper (plus the serve
/// front end for the serving workload). Members are released in reverse
/// order of construction.
struct Stack {
  std::unique_ptr<SymTensor3> a;
  std::shared_ptr<const sb::Plan> plan;
  std::unique_ptr<ss::Machine> machine;
  Backend backend;
  std::unique_ptr<TimingExchanger> timed;
  std::unique_ptr<sv::Frontend> frontend;

  void clear() {
    frontend.reset();
    timed.reset();
    backend.exchanger.reset();
    machine.reset();
    backend.injector.reset();
    plan.reset();
    a.reset();
  }
  ~Stack() { clear(); }
};

/// Set-up CPU times, one median per set-up burst. A run reports the mean
/// over its bursts: a burst can land in a slow phase, and the mean moves by
/// a fraction when one does, where a median would jump.
struct SetupTimes {
  std::vector<double> total_s;
  std::vector<double> generate_ms;
  std::vector<double> plan_ms;
  std::vector<double> engine_ms;
};

struct Shape {
  std::size_t n = 0;
  sb::Family family = sb::Family::kSpherical;
  std::uint64_t param = 0;
  std::size_t lanes = 0;  // widest batch the stack must serve
  FaultMix faults;
};

/// Builds the stack repeatedly (see kSetupReps), keeps the last one, and
/// appends the median of each layer's set-up time to `times`. `engine`
/// builds whatever sits above the exchanger.
void timed_setup(const Shape& shape, std::uint64_t seed, Stack& st,
                 SetupTimes& times,
                 const std::function<void(Stack&)>& engine) {
  SetupTimes reps;
  const std::uint64_t start = now_ns();
  for (std::size_t r = 0;
       r < kSetupReps ||
       (r < kSetupMaxReps &&
        static_cast<double>(now_ns() - start) < kSetupSeconds * 1e9);
       ++r) {
    st.clear();  // one stack resident at a time
    const std::uint64_t t0 = cpu_ns();
    st.a = make_tensor(shape.n, seed);
    const std::uint64_t t1 = cpu_ns();
    st.plan = make_plan(shape.n, shape.family, shape.param);
    const std::uint64_t t2 = cpu_ns();
    st.machine = std::make_unique<ss::Machine>(st.plan->num_processors());
    st.backend = make_backend(*st.machine, shape.faults, seed);
    st.timed = std::make_unique<TimingExchanger>(*st.backend.exchanger);
    engine(st);
    const std::uint64_t t3 = cpu_ns();
    reps.generate_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    reps.plan_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
    reps.engine_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    reps.total_s.push_back(static_cast<double>(t3 - t0) / 1e9);
  }
  times.generate_ms.push_back(median(reps.generate_ms));
  times.plan_ms.push_back(median(reps.plan_ms));
  times.engine_ms.push_back(median(reps.engine_ms));
  times.total_s.push_back(median(reps.total_s));
}

/// Direct reference outputs, one batch per panel, on a fault-free machine.
std::vector<Panel> reference_outputs(const Stack& st,
                                     const std::vector<Panel>& panels) {
  ss::Machine machine(st.plan->num_processors());
  std::vector<Panel> refs;
  for (const Panel& x : panels) {
    refs.push_back(sb::parallel_sttsv_batch(machine, *st.plan, *st.a, x).y);
  }
  return refs;
}

/// Runs one batch through the workload's backend with and without the
/// timing wrapper, each on a fresh machine with a fresh injector, and
/// requires bitwise-equal outputs and ledgers.
void check_wrapper_unobservable(const Stack& st, const Shape& shape,
                                std::uint64_t seed, const Panel& x,
                                Result& res) {
  const auto run = [&](bool wrapped) {
    ss::Machine machine(st.plan->num_processors());
    Backend backend = make_backend(machine, shape.faults, seed);
    sb::BatchRunResult out;
    if (wrapped) {
      TimingExchanger timed(*backend.exchanger);
      out = sb::parallel_sttsv_batch(timed, *st.plan, *st.a, x);
    } else {
      out = sb::parallel_sttsv_batch(*backend.exchanger, *st.plan, *st.a, x);
    }
    return std::make_pair(out.y, ledger_digest(machine.ledger()));
  };
  const auto bare = run(false);
  const auto wrapped = run(true);
  bool same = bare.second == wrapped.second;
  for (std::size_t v = 0; same && v < x.size(); ++v) {
    same = same_bits(bare.first[v], wrapped.first[v]);
  }
  if (!same) {
    ++res.failed;
    res.fail("timing wrapper changed the outputs or the ledger");
  }
}

std::vector<Panel> make_panels(std::size_t count, std::size_t lanes,
                               std::size_t n, std::uint64_t seed) {
  sttsv::Rng rng(derive(seed, kPanelStream));
  std::vector<Panel> panels(count, Panel(lanes));
  for (Panel& p : panels) {
    for (auto& x : p) x = rng.uniform_vector(n);
  }
  return panels;
}

// ---- Per-layer report. -----------------------------------------------

/// Every per-layer metric; each workload fills what applies and leaves
/// the rest at 0, so every traced run prints the same names.
struct Layers {
  double generate_ms = 0, plan_ms = 0, engine_construct_ms = 0;
  std::map<std::size_t, double> kernel_ms_per_vector;           // workload n
  std::map<std::size_t, double> kernel_ms_per_vector_n256;
  std::map<std::size_t, double> kernel_ms_per_vector_n384;
  double gflops_b16 = 0, flops_per_byte = 0, thread_speedup = 0;
  double driver_batch_ms = 0, driver_self_ms = 0, driver_kernel_share = 0;
  double calls_per_batch = 0, busy_ms = 0, blocked_ms = 0, rounds_per_batch = 0;
  double retransmits_per_batch = 0, goodput_share = 0;
  double overhead_words_per_vector = 0, unpooled_allocations = 0;
  double mean_width = 0, width_lt4_share = 0;
  double submit_us_p50 = 0, dispatch_self_ms = 0, virtual_p99_ms = 0;
  std::array<double, sv::kNumRejectReasons> rejects{};
  double words_over_bound = 0;
  double kernels_ms = 0, wire_ms = 0, unaccounted_share = 0;
  double trace_overhead_share = 0;
  double batch_samples = 0;
  double wall_vectors_per_s = 0, wall_batch_ms_p50 = 0;
  double host_speed_factor = 0;
};

constexpr std::size_t kProbeWidths[] = {1, 2, 4, 16};

void emit_layers(const Layers& l, Result& res) {
  res.add("tensor.generate_ms", l.generate_ms, "ms");
  res.add("plan.build_ms", l.plan_ms, "ms");
  res.add("engine.construct_ms", l.engine_construct_ms, "ms");
  const auto widths = [&](const char* prefix,
                          const std::map<std::size_t, double>& m) {
    for (const std::size_t w : kProbeWidths) {
      const auto it = m.find(w);
      res.add(std::string(prefix) + "b" + std::to_string(w) +
                  "_ms_per_vector",
              it == m.end() ? 0.0 : it->second, "ms");
    }
  };
  widths("kernels.", l.kernel_ms_per_vector);
  widths("kernels.n256.", l.kernel_ms_per_vector_n256);
  widths("kernels.n384.", l.kernel_ms_per_vector_n384);
  res.add("kernels.gflops_b16", l.gflops_b16, "GFLOP/s");
  res.add("kernels.flops_per_byte", l.flops_per_byte, "computed");
  res.add("kernels.thread_speedup", l.thread_speedup, "x");
  res.add("driver.batch_ms", l.driver_batch_ms, "ms");
  res.add("driver.self_ms", l.driver_self_ms, "ms");
  res.add("driver.kernel_share", l.driver_kernel_share, "ratio");
  res.add("exchange.calls_per_batch", l.calls_per_batch, "count");
  res.add("exchange.busy_ms_per_batch", l.busy_ms, "ms");
  res.add("exchange.blocked_ms_per_batch", l.blocked_ms, "ms");
  res.add("exchange.rounds_per_batch", l.rounds_per_batch, "count");
  res.add("exchange.retransmits_per_batch", l.retransmits_per_batch, "count");
  res.add("exchange.goodput_share", l.goodput_share, "ratio");
  res.add("exchange.overhead_words_per_vector", l.overhead_words_per_vector,
          "words");
  res.add("pool.unpooled_allocations", l.unpooled_allocations, "count");
  res.add("engine.mean_width", l.mean_width, "vectors");
  res.add("engine.width_lt4_share", l.width_lt4_share, "ratio");
  res.add("serve.submit_us_p50", l.submit_us_p50, "us");
  res.add("serve.dispatch_self_ms", l.dispatch_self_ms, "ms");
  res.add("serve.virtual_p99_ms", l.virtual_p99_ms, "ms");
  for (std::size_t r = 0; r < sv::kNumRejectReasons; ++r) {
    res.add(std::string("serve.rejects.") +
                sv::reject_reason_name(static_cast<sv::RejectReason>(r)),
            l.rejects[r], "count");
  }
  res.add("words_over_bound", l.words_over_bound, "ratio");
  res.add("self.kernels_ms", l.kernels_ms, "ms");
  res.add("self.exchange_wire_ms", l.wire_ms, "ms");
  res.add("unaccounted_share", l.unaccounted_share, "ratio");
  res.add("trace.overhead_share", l.trace_overhead_share, "ratio");
  res.add("batch.samples", l.batch_samples, "count");
  res.add("wall.vectors_per_s", l.wall_vectors_per_s, "1/s");
  res.add("wall.batch_ms_p50", l.wall_batch_ms_p50, "ms");
  res.add("host.speed_factor", l.host_speed_factor, "ratio");
}

/// Quantile q of batch times (in run order) that a burst of host noise
/// cannot dominate: the samples are cut into consecutive runs, each long
/// enough to hold one sample beyond q, and the median of the runs'
/// quantiles is reported (one run: the plain quantile).
double tail_quantile(const std::vector<double>& samples, double q) {
  const auto per_run = static_cast<std::size_t>(std::ceil(1.0 / (1.0 - q)));
  const std::size_t runs = std::max<std::size_t>(1, samples.size() / per_run);
  const std::size_t len = samples.size() / runs;
  std::vector<double> qs;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto begin = samples.begin() + static_cast<std::ptrdiff_t>(r * len);
    const auto end = r + 1 == runs ? samples.end()
                                   : begin + static_cast<std::ptrdiff_t>(len);
    qs.push_back(quantile(std::vector<double>(begin, end), q));
  }
  return median(qs);
}

/// The timings are process CPU time (see cpu_ns), which leaves out time
/// the host stole, divided by the host speed factor (see HostSpeed), which
/// takes out how far contention slowed the host while the run was taken.
void emit_end_to_end(Result& res, double setup_s, double vectors_per_cpu_s,
                     const std::vector<double>& batch_cpu_ms,
                     const ExactCounts& exact, const HostSpeed& speed) {
  const double attempted = static_cast<double>(res.attempted);
  const double f = speed.factor();
  const double p50 = quantile(batch_cpu_ms, 0.50);
  // p95: the highest percentile with ten samples beyond it in the
  // slowest workload's run (about 200 batches on a loaded host).
  const double p95 = tail_quantile(batch_cpu_ms, 0.95);
  note("host speed factor " + std::to_string(f) + " over " +
       std::to_string(speed.passes()) + " reference passes; unadjusted: " +
       "setup_s=" + std::to_string(setup_s) +
       " vectors_per_cpu_s=" + std::to_string(vectors_per_cpu_s) +
       " batch_cpu_ms_p50=" + std::to_string(p50) +
       " batch_cpu_ms_p95=" + std::to_string(p95));
  res.add("setup_s", setup_s / f, "s");
  res.add("vectors_per_cpu_s", vectors_per_cpu_s * f, "1/s");
  res.add("batch_cpu_ms_p50", p50 / f, "ms");
  res.add("batch_cpu_ms_p95", p95 / f, "ms");
  res.add("success_ratio",
          attempted > 0 ? 1.0 - static_cast<double>(res.failed) / attempted
                        : 0.0,
          "ratio");
  res.add("max_words_per_vector", exact.max_words_per_vector, "words");
  res.add("messages_per_batch", exact.messages_per_batch, "count");
  res.add("wire_words_per_vector", exact.wire_words_per_vector, "words");
  res.add("peak_rss_mib", peak_rss_mib(), "MiB");
}

void note_shape(const char* workload, const Stack& st, std::size_t lanes) {
  const double bytes = static_cast<double>(st.a->packed_size()) * 8.0;
  note(std::string(workload) + ": n=" + std::to_string(st.a->dim()) +
       " P=" + std::to_string(st.plan->num_processors()) +
       " B=" + std::to_string(lanes) + " tensor_bytes=" +
       std::to_string(static_cast<std::uint64_t>(bytes)) + " (" +
       std::to_string(bytes / (1024.0 * 1024.0)) + " MiB)");
}

/// Kernel probe numbers at the workload's n plus the fixed sizes 256 and
/// 384 (spherical q=2, P=10), reusing the workload's own stack where its
/// n matches.
void probe_kernels(const Stack& st, std::size_t threads, std::uint64_t seed,
                   Layers& l) {
  const auto sweep = [&](const sb::Plan& plan, const SymTensor3& a,
                         const ss::Machine& machine) {
    KernelProbe probe(plan, a, machine, derive(seed, kProbeStream));
    std::map<std::size_t, double> out;
    for (const std::size_t w : kProbeWidths) {
      out[w] = probe.measure(w, kProbeReps, true).ms / static_cast<double>(w);
    }
    return out;
  };
  l.kernel_ms_per_vector = sweep(*st.plan, *st.a, *st.machine);
  for (const std::size_t n : {std::size_t{256}, std::size_t{384}}) {
    auto& slot = n == 256 ? l.kernel_ms_per_vector_n256
                          : l.kernel_ms_per_vector_n384;
    if (n == st.a->dim() && st.plan->key().family == sb::Family::kSpherical &&
        st.plan->key().param == 2) {
      slot = l.kernel_ms_per_vector;
      continue;
    }
    const auto a = make_tensor(n, seed);
    const auto plan = make_plan(n, sb::Family::kSpherical, 2);
    const ss::Machine machine(plan->num_processors());
    slot = sweep(*plan, *a, machine);
  }

  // B=16 at the workload's n: throughput, arithmetic intensity, and
  // thread scaling of the same body at 1 vs `threads` host threads.
  KernelProbe probe(*st.plan, *st.a, *st.machine, derive(seed, kProbeStream));
  const ProbeTiming wide = probe.measure(16, kProbeReps, false);
  const double flops = 2.0 * static_cast<double>(wide.ternary_mults);
  l.gflops_b16 = flops / (wide.ms * 1e6);
  l.flops_per_byte = flops / (8.0 * static_cast<double>(st.a->packed_size()));
  ss::set_host_concurrency(1);
  const ProbeTiming serial = probe.measure(16, kProbeReps, false);
  ss::set_host_concurrency(threads);
  l.thread_speedup = serial.ms / wide.ms;
}

/// Median batch time of the traced segments against the untraced ones.
double overhead_share(const std::vector<double>& traced,
                      const std::vector<double>& untraced) {
  const double base = median(untraced);
  return base > 0 ? (median(traced) - base) / base : 0.0;
}

/// Ledger, pool and exchanger figures summed over a run's segments.
struct SegmentTotals {
  double batches = 0, vectors = 0, rounds = 0, retransmits = 0;
  double goodput_words = 0, overhead_words = 0, unpooled = 0;
  double traced_batches = 0;
  TimingExchanger::Counters traced{};
};

/// Counters at the start of a segment's measurement; close() adds the
/// segment's share to the totals.
class SegmentStart {
 public:
  explicit SegmentStart(const Stack& st)
      : st_(st),
        rex_(dynamic_cast<const ss::ReliableExchange*>(
            st.backend.exchanger.get())),
        unpooled_(ss::unpooled_buffer_allocations()),
        retransmits_(rex_ != nullptr ? rex_->stats().retransmitted_frames
                                     : 0),
        counters_(st.timed->counters()) {}

  void close(std::uint64_t batches, std::uint64_t vectors, bool traced,
             SegmentTotals& t) const {
    const ss::CommLedger& ledger = st_.machine->ledger();
    t.batches += static_cast<double>(batches);
    t.vectors += static_cast<double>(vectors);
    t.rounds += static_cast<double>(ledger.rounds() + ledger.overhead_rounds());
    t.goodput_words += static_cast<double>(ledger.total_words());
    t.overhead_words += static_cast<double>(ledger.total_overhead_words());
    t.unpooled +=
        static_cast<double>(ss::unpooled_buffer_allocations() - unpooled_);
    if (rex_ != nullptr) {
      t.retransmits += static_cast<double>(
          rex_->stats().retransmitted_frames - retransmits_);
    }
    if (traced) {
      const TimingExchanger::Counters now = st_.timed->counters();
      t.traced.calls += now.calls - counters_.calls;
      t.traced.busy_ns += now.busy_ns - counters_.busy_ns;
      t.traced.blocked_ns += now.blocked_ns - counters_.blocked_ns;
      t.traced_batches += static_cast<double>(batches);
    }
  }

 private:
  const Stack& st_;
  const ss::ReliableExchange* rex_;
  std::uint64_t unpooled_;
  std::uint64_t retransmits_;
  TimingExchanger::Counters counters_;
};

/// words_over_bound from the exact counts; below 1 is a failed check.
double words_over_bound(const ExactCounts& exact, const Stack& st,
                        Result& res) {
  const double ratio =
      exact.max_words_per_vector /
      sttsv::core::lower_bound_words(st.a->dim(), st.plan->num_processors());
  if (!(ratio >= 1.0)) {
    ++res.failed;
    res.fail("max words per vector below the Theorem 5.2 lower bound");
  }
  return ratio;
}

/// Wall (or self) time of the named span per traced batch, ms.
double span_ms_per_batch(const std::map<std::string, LayerTime>& layers,
                         const char* span, bool self, double batches) {
  const auto it = layers.find(span);
  if (it == layers.end()) return 0.0;
  return (self ? it->second.self_ns : it->second.total_ns) / 1e6 / batches;
}

/// Fills the per-layer figures both kinds of workload share, writes the
/// spans out, and returns their per-name times. `root` names the span
/// around one batch's library call ("driver" or "engine").
std::map<std::string, LayerTime> common_layers(
    const char* workload, const Options& opts, const Stack& st,
    const SetupTimes& setup, const SegmentTotals& t, const char* root,
    Layers& l) {
  const std::vector<SpanRecord> spans = span_log().snapshot();
  write_chrome_trace(".bench_build/traces/" + std::string(workload) +
                         "-seed" + std::to_string(opts.seed) + ".json",
                     spans);
  const std::map<std::string, LayerTime> layers = layer_times(spans);
  const auto per_batch_ms = [&](const char* span, bool self) {
    return span_ms_per_batch(layers, span, self, t.traced_batches);
  };
  l.generate_ms = mean(setup.generate_ms);
  l.plan_ms = mean(setup.plan_ms);
  l.engine_construct_ms = mean(setup.engine_ms);
  probe_kernels(st, opts.threads, opts.seed, l);
  l.driver_batch_ms = per_batch_ms(root, false);
  l.driver_self_ms = per_batch_ms(root, true);
  l.calls_per_batch = static_cast<double>(t.traced.calls) / t.traced_batches;
  l.busy_ms = static_cast<double>(t.traced.busy_ns) / 1e6 / t.traced_batches;
  l.blocked_ms =
      static_cast<double>(t.traced.blocked_ns) / 1e6 / t.traced_batches;
  l.wire_ms = per_batch_ms("exchange.part", false);
  l.rounds_per_batch = t.rounds / t.batches;
  l.retransmits_per_batch = t.retransmits / t.batches;
  l.goodput_share = t.goodput_words / (t.goodput_words + t.overhead_words);
  l.overhead_words_per_vector = t.overhead_words / t.vectors;
  l.unpooled_allocations = t.unpooled;
  return layers;
}

// ---- Closed-loop workloads. ------------------------------------------

Result run_closed_loop(const char* name, const Shape& shape,
                       const Options& opts) {
  Result res;
  SetupTimes setup;
  Stack st;
  const auto engine = [&](Stack& s) {
    s.plan->prewarm_pool(s.machine->pool(), shape.lanes);
    s.machine->first_touch();
  };
  const std::vector<Panel> panels =
      make_panels(kPanels, shape.lanes, shape.n, opts.seed);
  std::vector<Panel> refs;
  ClosedForm cf;

  std::size_t batch = 0;  // batches on the current stack since its reset
  ThroughputMeter meter(cpu_ns);
  ThroughputMeter wall_meter(now_ns);
  HostSpeed speed(opts.threads);
  std::vector<double> wall_ms;  // untraced batch wall times
  std::optional<ExactCounts> exact;
  // Runs one batch and returns its CPU time; its wall time goes to `wall`.
  const auto run_one = [&](std::vector<double>* wall) -> double {
    const Panel& x = panels[batch % kPanels];
    const Panel& ref = refs[batch % kPanels];
    res.attempted += x.size();
    std::optional<sb::BatchRunResult> out;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t c0 = cpu_ns();
    {
      ScopedSpan span("driver");
      try {
        out = sb::parallel_sttsv_batch(*st.timed, *st.plan, *st.a, x);
      } catch (const ss::FaultError& e) {
        res.fail(std::string("FaultError escaped: ") + e.what());
      }
    }
    const double ms = cpu_ms_since(c0);
    if (wall != nullptr) wall->push_back(ms_since(t0));
    ++batch;
    std::uint64_t ok = 0;
    if (!out) {
      res.failed += x.size();
    } else {
      for (std::size_t v = 0; v < x.size(); ++v) {
        if (same_bits(out->y[v], ref[v])) {
          ++ok;
          continue;
        }
        ++res.failed;
        res.fail("lane " + std::to_string(v) + " differs from the reference");
      }
    }
    meter.add(ok);
    wall_meter.add(ok);
    // The injector logs every fault for replay; drop the log between
    // batches so it does not grow with run length and skew peak memory.
    if (st.backend.injector) st.backend.injector->clear_log();
    if (batch == kExactBatches && !exact) {
      exact = exact_counts(st.machine->ledger(), batch, batch * shape.lanes);
    }
    return ms;
  };

  std::vector<double> ms;         // untraced batch times
  std::vector<double> traced_ms;  // traced batch times
  SegmentTotals totals;
  span_log().clear();
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    const bool trace_seg = opts.trace && seg % 2 == 1;
    timed_setup(shape, opts.seed, st, setup, engine);
    if (seg == 0) {
      note_shape(name, st, shape.lanes);
      refs = reference_outputs(st, panels);
      check_wrapper_unobservable(st, shape, opts.seed, panels[0], res);
      cf = closed_form(*st.plan);
    }

    // Two warm-up batches fill caches and the pool; the ledger then starts
    // from zero, so the exact counts cover a fixed stretch of the run.
    batch = 0;
    run_one(nullptr);
    run_one(nullptr);
    st.machine->reset_ledger();
    batch = 0;
    const SegmentStart start(st);
    speed.bind(st.a->data(), st.a->packed_size(), st.a->dim());

    std::vector<double>& out = trace_seg ? traced_ms : ms;
    const auto deadline =
        now_ns() + static_cast<std::uint64_t>(opts.seconds / kSegments * 1e9);
    meter.resume();
    wall_meter.resume();
    span_log().enable(trace_seg);
    do {
      out.push_back(run_one(trace_seg ? nullptr : &wall_ms));
      if (speed.due(static_cast<std::uint64_t>(out.back() * 1e6))) {
        reference_pass(speed, meter, wall_meter);
      }
    } while (batch < kExactBatches || now_ns() < deadline);
    span_log().enable(false);
    wall_meter.pause();
    meter.pause();

    check_ledger(st.machine->ledger(), cf, batch, batch * shape.lanes, res);
    start.close(batch, batch * shape.lanes, trace_seg, totals);
  }

  const double bound_ratio = words_over_bound(*exact, st, res);
  note("samples: " + std::to_string(ms.size()) + " untraced batches, " +
       std::to_string(traced_ms.size()) + " traced batches");

  if (!opts.trace) {
    emit_end_to_end(res, mean(setup.total_s), meter.per_second(), ms,
                    *exact, speed);
    return res;
  }

  Layers l;
  common_layers(name, opts, st, setup, totals, "driver", l);
  KernelProbe probe(*st.plan, *st.a, *st.machine,
                    derive(opts.seed, kProbeStream));
  l.kernels_ms = probe.measure(shape.lanes, kProbeReps, true).ms;
  l.driver_kernel_share = l.kernels_ms / l.driver_batch_ms;
  l.mean_width = static_cast<double>(shape.lanes);
  l.width_lt4_share = shape.lanes < 4 ? 1.0 : 0.0;
  l.words_over_bound = bound_ratio;
  l.unaccounted_share =
      1.0 - (l.kernels_ms + l.blocked_ms) / l.driver_batch_ms;
  l.trace_overhead_share = overhead_share(traced_ms, ms);
  l.batch_samples = static_cast<double>(ms.size() + traced_ms.size());
  l.wall_vectors_per_s = wall_meter.per_second();
  l.wall_batch_ms_p50 = median(wall_ms);
  l.host_speed_factor = speed.factor();
  emit_layers(l, res);
  return res;
}

}  // namespace

Result run_panel_b16(const Options& opts) {
  return run_closed_loop(
      "panel-b16",
      Shape{.n = 384, .family = sb::Family::kSpherical, .param = 2,
            .lanes = 16, .faults = {}},
      opts);
}

Result run_reliable_p20(const Options& opts) {
  return run_closed_loop(
      "reliable-p20",
      Shape{.n = 120, .family = sb::Family::kTrivial, .param = 6, .lanes = 4,
            .faults = {.enabled = true, .drop = 0.02, .corrupt = 0.01}},
      opts);
}

// ---- serve-light. ------------------------------------------------------

Result run_serve_light(const Options& opts) {
  constexpr std::size_t kTenants = 4;
  constexpr std::size_t kWidth = 16;
  constexpr std::size_t kInputs = 64;  // distinct request vectors
  // Virtual length of the trace. Segments continue it where the previous
  // one stopped, so a run replays most of it, and the mix of batch widths
  // differs little from seed to seed.
  constexpr double kTraceSeconds = 2.0;
  constexpr std::uint64_t kGapNs = 100'000'000;  // idle gap at a restart
  constexpr std::size_t kWarmupArrivals = 16;
  // The exact counts and virtual latencies cover this many leading
  // arrivals of the first segment, drained, on a fresh stack.
  constexpr std::size_t kExactArrivals = 256;
  const Shape shape{.n = 256, .family = sb::Family::kSpherical, .param = 2,
                    .lanes = kWidth, .faults = {}};

  Result res;
  SetupTimes setup;
  Stack st;
  const auto engine = [&](Stack& s) {
    sv::FrontendOptions fo;
    fo.batch_width = kWidth;
    fo.exchanger = s.timed.get();
    s.frontend = std::make_unique<sv::Frontend>(*s.machine, s.plan, *s.a, fo);
    for (std::size_t t = 0; t < kTenants; ++t) {
      std::string tenant = "tenant";
      tenant += std::to_string(t);
      s.frontend->add_tenant(tenant, sv::TenantQuota{.max_queue_depth = 1024});
    }
  };

  // Inputs: a pool of request vectors and an open-loop trace at a quarter
  // of the service model's saturation.
  const std::vector<Panel> pool =
      make_panels(kInputs / kWidth, kWidth, shape.n, opts.seed);
  std::vector<Panel> refs;
  ClosedForm cf;
  std::vector<sv::Arrival> trace;
  std::vector<std::size_t> pick;

  // What the measured calls record; one window per traced/untraced kind.
  struct Window {
    std::vector<double> batch_call_ms;  // CPU ms, calls that ran >= 1 batch
    std::vector<double> batch_call_wall_ms;
    std::vector<double> submit_us;      // submits that ran no batch
    std::vector<std::size_t> widths;    // one entry per batch
  };
  Window untraced;
  Window traced;
  Window* win = &untraced;
  ThroughputMeter meter(cpu_ns);
  ThroughputMeter wall_meter(now_ns);
  HostSpeed speed(opts.threads);
  std::uint64_t window_start = 0;
  bool window_open = false;
  std::uint64_t last_start_ns = ~std::uint64_t{0};
  bool exact_window = false;
  std::vector<double> virtual_ms;

  const auto pump = [&](bool is_submit, const auto& call) {
    const std::uint64_t b0 = st.timed->counters().batches;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t c0 = cpu_ns();
    call();
    const std::uint64_t c1 = cpu_ns();
    const std::uint64_t t1 = now_ns();
    const std::uint64_t ran = st.timed->counters().batches - b0;
    if (ran > 0) {
      span_log().record("serve", t0, t1);
      win->batch_call_ms.push_back(static_cast<double>(c1 - c0) / 1e6);
      win->batch_call_wall_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    } else if (is_submit) {
      win->submit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
  };

  const auto on_result = [&](std::size_t input, const sv::JobResult& r) {
    if (window_open) {
      window_open = false;
      span_log().record("engine", window_start, now_ns());
    }
    if (r.start_ns != last_start_ns) {
      last_start_ns = r.start_ns;
      win->widths.push_back(0);
    }
    ++win->widths.back();
    if (exact_window) {
      virtual_ms.push_back(
          static_cast<double>(r.completion_ns - r.arrival_ns) / 1e6);
    }
    if (same_bits(r.y, refs[input / kWidth][input % kWidth])) {
      meter.add(1);
      wall_meter.add(1);
    } else {
      ++res.failed;
      res.fail("served output differs from the reference");
    }
  };

  // Replays trace[cursor % size] onwards on the current front end; the
  // virtual clock is base + (arrival time - origin), restarting after an
  // idle gap whenever the trace wraps or a new front end starts.
  std::size_t cursor = 0;
  std::uint64_t base = 0;
  std::uint64_t origin = 0;
  const auto restart_clock = [&](std::size_t i) {
    base = st.frontend->now_ns() + kGapNs;
    origin = trace[i].time_ns;
  };
  const auto submit_next = [&] {
    const std::size_t i = cursor % trace.size();
    if (i == 0 && cursor > 0) restart_clock(0);
    ++cursor;
    sv::Frontend& fe = *st.frontend;
    pump(false, [&] { fe.advance_to(base + trace[i].time_ns - origin); });
    const std::size_t input = pick[i];
    ++res.attempted;
    sv::Admission adm;
    pump(true, [&] {
      adm = fe.submit(trace[i].tenant, pool[input / kWidth][input % kWidth],
                      [&, input](sv::JobResult r) { on_result(input, r); });
    });
    if (!adm.admitted) {
      ++res.failed;
      res.fail(std::string("request rejected: ") +
               sv::reject_reason_name(adm.reason));
    }
  };
  const auto drain = [&] { pump(false, [&] { st.frontend->drain(); }); };

  SegmentTotals totals;
  std::array<double, sv::kNumRejectReasons> rejects{};
  std::optional<ExactCounts> exact;
  span_log().clear();
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    const bool trace_seg = opts.trace && seg % 2 == 1;
    timed_setup(shape, opts.seed, st, setup, engine);
    sv::Frontend& fe = *st.frontend;
    if (seg == 0) {
      note_shape("serve-light", st, kWidth);
      refs = reference_outputs(st, pool);
      check_wrapper_unobservable(st, shape, opts.seed, pool[0], res);
      cf = closed_form(*st.plan);
      trace = sv::generate_open_loop(
          {.seed = derive(opts.seed, kTrafficStream),
           .duration_s = kTraceSeconds,
           .offered_jobs_per_s = fe.saturation_jobs_per_s() / 4.0,
           .tenant_weights = sv::uniform_weights(kTenants)});
      pick.resize(trace.size());
      sttsv::Rng rng(derive(opts.seed, kPickStream));
      for (auto& p : pick) p = rng.next_below(kInputs);
      note("serve-light: " + std::to_string(trace.size()) +
           " arrivals in the trace at " +
           std::to_string(fe.saturation_jobs_per_s() / 4.0) +
           " jobs/s (virtual)");
    }
    st.timed->on_batch_start([&] {
      window_start = now_ns();
      window_open = true;
    });

    // Warm-up on the trace's first arrivals, then the ledger starts from
    // zero and the replay resumes where the previous segment stopped.
    Window warmup;
    win = &warmup;
    const std::size_t resume_at = cursor;
    cursor = 0;
    restart_clock(0);
    while (cursor < std::min(kWarmupArrivals, trace.size())) submit_next();
    drain();
    cursor = resume_at;
    restart_clock(cursor % trace.size());
    st.machine->reset_ledger();
    const std::uint64_t batches0 = fe.stats().batches_run;
    const std::uint64_t completed0 = fe.stats().completed;
    const SegmentStart start(st);

    win = trace_seg ? &traced : &untraced;
    const auto deadline =
        now_ns() + static_cast<std::uint64_t>(opts.seconds / kSegments * 1e9);
    meter.resume();
    wall_meter.resume();
    span_log().enable(trace_seg);
    if (seg == 0) {
      exact_window = true;
      for (std::size_t k = 0; k < kExactArrivals; ++k) submit_next();
      drain();
      exact_window = false;
      exact = exact_counts(st.machine->ledger(),
                           fe.stats().batches_run - batches0,
                           fe.stats().completed - completed0);
      restart_clock(cursor % trace.size());  // drain() moved the clock on
    }
    speed.bind(st.a->data(), st.a->packed_size(), st.a->dim());
    while (now_ns() < deadline) {
      const std::uint64_t c0 = cpu_ns();
      submit_next();
      if (speed.due(cpu_ns() - c0)) reference_pass(speed, meter, wall_meter);
    }
    drain();
    span_log().enable(false);
    wall_meter.pause();
    meter.pause();

    const sv::FrontendStats& fs = fe.stats();
    if (fs.completed != fs.admitted) {
      res.failed += fs.admitted - fs.completed;
      res.fail("admitted jobs left unfinished");
    }
    check_ledger(st.machine->ledger(), cf, fs.batches_run - batches0,
                 fs.completed - completed0, res);
    start.close(fs.batches_run - batches0, fs.completed - completed0,
                trace_seg, totals);
    for (std::size_t t = 0; t < fe.num_tenants(); ++t) {
      for (std::size_t r = 0; r < sv::kNumRejectReasons; ++r) {
        rejects[r] += static_cast<double>(fe.tenant_stats(t).rejected[r]);
      }
    }
  }

  const double min_service_ms =
      static_cast<double>(st.frontend->options().service_alpha_ns +
                          st.frontend->options().service_beta_ns) /
      1e6;
  if (virtual_ms.empty() ||
      *std::min_element(virtual_ms.begin(), virtual_ms.end()) <
          min_service_ms) {
    ++res.failed;
    res.fail("virtual latencies missing or shorter than one batch's service");
  }
  const double bound_ratio = words_over_bound(*exact, st, res);
  note("samples: " + std::to_string(untraced.batch_call_ms.size()) +
       " untraced batch calls, " +
       std::to_string(traced.batch_call_ms.size()) + " traced batch calls");

  if (!opts.trace) {
    emit_end_to_end(res, mean(setup.total_s), meter.per_second(),
                    untraced.batch_call_ms, *exact, speed);
    return res;
  }

  Layers l;
  const std::map<std::string, LayerTime> layers =
      common_layers("serve-light", opts, st, setup, totals, "engine", l);
  {
    // Kernel time of the traced batches, probed at each width they had.
    KernelProbe probe(*st.plan, *st.a, *st.machine,
                      derive(opts.seed, kProbeStream));
    std::map<std::size_t, double> at_width;
    double kernels = 0;
    for (const std::size_t w : traced.widths) {
      if (!at_width.count(w)) at_width[w] = probe.measure(w, 3, true).ms;
      kernels += at_width[w];
    }
    l.kernels_ms = kernels / static_cast<double>(traced.widths.size());
  }
  l.driver_kernel_share = l.kernels_ms / l.driver_batch_ms;
  double jobs = 0, narrow = 0;
  for (const std::size_t w : traced.widths) {
    jobs += static_cast<double>(w);
    narrow += w < 4 ? 1.0 : 0.0;
  }
  l.mean_width = jobs / static_cast<double>(traced.widths.size());
  l.width_lt4_share = narrow / static_cast<double>(traced.widths.size());
  l.submit_us_p50 = median(traced.submit_us);
  l.dispatch_self_ms =
      span_ms_per_batch(layers, "serve", true, totals.traced_batches);
  l.virtual_p99_ms = quantile(virtual_ms, 0.99);
  l.rejects = rejects;
  l.words_over_bound = bound_ratio;
  const double wall =
      span_ms_per_batch(layers, "serve", false, totals.traced_batches);
  l.unaccounted_share =
      1.0 - (l.dispatch_self_ms + l.kernels_ms + l.blocked_ms) / wall;
  l.trace_overhead_share =
      overhead_share(traced.batch_call_ms, untraced.batch_call_ms);
  l.batch_samples = static_cast<double>(untraced.batch_call_ms.size() +
                                        traced.batch_call_ms.size());
  l.wall_vectors_per_s = wall_meter.per_second();
  l.wall_batch_ms_p50 = median(untraced.batch_call_wall_ms);
  l.host_speed_factor = speed.factor();
  emit_layers(l, res);
  return res;
}

}  // namespace perfbench
