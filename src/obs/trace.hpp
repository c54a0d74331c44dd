#pragma once
// Structured span tracing for the simulated machine (DESIGN.md §11).
//
// A Span brackets one unit of work — a superstep, an exchange, a block
// kernel, a protocol retry — with monotonic timestamps and a category.
// Spans land in per-thread buffers owned by the process-wide Tracer, so
// rank programs running on host threads (simt::parallel_for) record
// without locks; the current simulated rank is carried in thread-local
// state (ScopedRank) so every span is attributed to its rank's track.
//
// Overhead model:
//  * compiled out (STTSV_ENABLE_TRACING=OFF): Span is an empty object,
//    every instrumentation site folds to nothing;
//  * compiled in, runtime-disabled (the default): one relaxed atomic load
//    per span site, no clock reads, no allocation — the state every
//    production run and every tier-1 test measures;
//  * enabled: two steady_clock reads plus one amortized push_back per
//    span. Tracing reads clocks and writes side buffers only, so the
//    computed y and the communication ledger are bitwise identical with
//    tracing on or off (tests/test_obs.cpp proves it).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sttsv::obs {

#if defined(STTSV_OBS_TRACING) && STTSV_OBS_TRACING
inline constexpr bool kTracingCompiledIn = true;
#else
inline constexpr bool kTracingCompiledIn = false;
#endif

/// Rank value for spans recorded outside any rank program (the driver
/// thread running exchanges and packing); rendered as its own track.
inline constexpr std::size_t kDriverTrack = static_cast<std::size_t>(-1);

/// Span categories — the fixed vocabulary the exporters group by. kRetry
/// marks resilience-protocol work (retransmissions, ACK/NACK rounds,
/// backoff, degraded replay): everything the exporter attributes to the
/// ledger's overhead channel. All other categories are goodput-side.
enum class Category : std::uint8_t {
  kSuperstep,
  kExchange,
  kKernel,
  kRetry,
  kEngineFlush,
  kServe,
  kRecovery,
  kOneSided,
  kOther,
};

[[nodiscard]] const char* category_name(Category c);

/// One closed span. `name` must point at static storage (string literals
/// at the instrumentation sites) — records never own text.
struct SpanRecord {
  const char* name = "";
  Category category = Category::kOther;
  std::size_t rank = kDriverTrack;
  std::uint64_t begin_ns = 0;  // monotonic, relative to the tracer epoch
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;       // site-specific payload (words, lanes, rounds)
  std::uint32_t depth = 0;     // nesting depth within the recording thread
};

struct Config {
  /// Master switch. Ignored (forced false) when tracing is compiled out.
  bool tracing = false;
};

/// Process-wide span collector. Recording is lock-free per thread after a
/// one-time buffer registration; snapshot()/clear() must not race with
/// recording (call them between runs, as the benches and tests do — the
/// simulated machine is driven from one thread).
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void configure(const Config& config);
  [[nodiscard]] Config config() const;

  /// The one word every disabled span site reads.
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Monotonic nanoseconds since the tracer's construction.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Appends one closed span to the calling thread's buffer, attributed
  /// to the thread's current rank (see ScopedRank). No-op when disabled.
  void record(const SpanRecord& span);

  /// All spans from every thread buffer, sorted by (rank, begin, depth).
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  /// Drops every recorded span and every thread buffer. Threads re-attach
  /// on their next record. Must not race with recording.
  void clear();

  [[nodiscard]] std::size_t total_spans() const;
  /// Registered per-thread buffers — stays 0 while the tracer is
  /// disabled (the zero-allocation fast path the tests pin down).
  [[nodiscard]] std::size_t thread_buffers() const;

 private:
  friend class Span;
  friend class ScopedRank;

  std::atomic<bool> enabled_{false};
};

/// The process-wide tracer every Span and exporter talks to.
Tracer& tracer();

/// RAII rank attribution: rank programs run under a ScopedRank(p) (the
/// Machine::run_ranks wrapper installs one), so spans opened inside are
/// recorded on rank p's track. Restores the previous rank on destruction.
class ScopedRank {
 public:
  explicit ScopedRank(std::size_t rank);
  ~ScopedRank();
  ScopedRank(const ScopedRank&) = delete;
  ScopedRank& operator=(const ScopedRank&) = delete;

 private:
  std::size_t saved_ = kDriverTrack;
};

/// RAII span. Construction samples the clock and claims a nesting level;
/// destruction (or close()) records the finished span. When the tracer
/// is disabled, construction is a single relaxed load and destruction is
/// a branch on a local flag.
class Span {
 public:
  explicit Span(const char* name, Category category, std::uint64_t arg = 0);
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Updates the payload before the span closes (e.g. a word count known
  /// only after packing).
  void set_arg(std::uint64_t arg) { arg_ = arg; }
  /// Updates the category before the span closes (e.g. an exchange that
  /// turns out to carry pure protocol traffic reclassifies as kRetry).
  void set_category(Category category) { category_ = category; }

  /// Records the span now instead of at end of scope; idempotent.
  void close();

 private:
  const char* name_ = "";
  std::uint64_t begin_ns_ = 0;
  std::uint64_t arg_ = 0;
  Category category_ = Category::kOther;
  bool active_ = false;
};

}  // namespace sttsv::obs
