#pragma once
// Benchmark-side span recording. Spans are taken around calls into the
// library's public functions (never inside it), kept in memory, and
// folded into per-layer self times when the run ends: a span's self time
// is its duration minus the part its child spans on the same thread cover.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // static storage
  std::uint32_t thread = 0;
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Process-wide span buffer. Recording is off until enable(true); the
/// check is one relaxed load, so untraced runs pay nothing else.
class SpanLog {
 public:
  void enable(bool on);
  [[nodiscard]] bool enabled() const;
  /// Appends a closed span attributed to the calling thread.
  void record(const char* name, std::uint64_t begin_ns, std::uint64_t end_ns);
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

SpanLog& span_log();

/// RAII span around one call; records only while the log is enabled.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t begin_ns_ = 0;
  bool active_ = false;
};

/// Per span name: summed wall time and summed self time.
struct LayerTime {
  double total_ns = 0.0;
  double self_ns = 0.0;
};

std::map<std::string, LayerTime> layer_times(std::vector<SpanRecord> spans);

/// Writes spans as a Chrome trace_event JSON array.
void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans);

}  // namespace perfbench
