#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>

#include "perfbench.hpp"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanLog& span_log() {
  static SpanLog log;
  return log;
}

void SpanLog::enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool SpanLog::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

void SpanLog::record(const char* name, std::uint64_t begin_ns,
                     std::uint64_t end_ns) {
  if (!enabled()) return;
  const std::uint32_t thread = thread_index();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, thread, begin_ns, end_ns});
}

std::vector<SpanRecord> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanLog::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

ScopedSpan::ScopedSpan(const char* name) : name_(name) {
  if (span_log().enabled()) {
    active_ = true;
    begin_ns_ = now_ns();
  }
}

ScopedSpan::~ScopedSpan() {
  if (active_) span_log().record(name_, begin_ns_, now_ns());
}

std::map<std::string, LayerTime> layer_times(std::vector<SpanRecord> spans) {
  // Per thread, in begin order with enclosing spans first: a stack of
  // open spans finds each span's parent; the parent loses the child's
  // duration from its self time.
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.thread != b.thread) return a.thread < b.thread;
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              return a.end_ns > b.end_ns;
            });
  std::vector<double> child_ns(spans.size(), 0.0);
  std::vector<std::size_t> open;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    while (!open.empty() &&
           (spans[open.back()].thread != spans[s].thread ||
            spans[open.back()].end_ns <= spans[s].begin_ns)) {
      open.pop_back();
    }
    if (!open.empty()) {
      child_ns[open.back()] +=
          static_cast<double>(spans[s].end_ns - spans[s].begin_ns);
    }
    open.push_back(s);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const double dur = static_cast<double>(spans[s].end_ns - spans[s].begin_ns);
    LayerTime& lt = out[spans[s].name];
    lt.total_ns += dur;
    lt.self_ns += dur - child_ns[s];
  }
  return out;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<SpanRecord>& spans) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  out << "[\n";
  for (std::size_t s = 0; s < spans.size(); ++s) {
    const SpanRecord& r = spans[s];
    out << "{\"name\":\"" << r.name << "\",\"ph\":\"X\",\"pid\":0,\"tid\":"
        << r.thread << ",\"ts\":" << static_cast<double>(r.begin_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(r.end_ns - r.begin_ns) / 1e3
        << "}" << (s + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
