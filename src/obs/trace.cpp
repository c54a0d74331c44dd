#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>

namespace sttsv::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// One thread's append-only span log. Owned by the tracer (threads hold a
/// raw pointer validated by generation), so buffers survive thread exit
/// and clear() can invalidate every attachment at once.
struct SpanBuffer {
  std::vector<SpanRecord> spans;
};

struct ThreadState {
  SpanBuffer* buffer = nullptr;
  std::uint64_t generation = 0;  // the tracer generation `buffer` belongs to
  std::size_t rank = kDriverTrack;
  std::uint32_t depth = 0;
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  return state;
}

/// Tracer-private storage, kept out of the header so the hot path stays a
/// single atomic load. One process-wide instance (matching tracer()).
struct TracerState {
  Clock::time_point epoch = Clock::now();
  mutable std::mutex mu;
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  std::atomic<std::uint64_t> generation{1};
};

TracerState& state() {
  static TracerState s;
  return s;
}

SpanBuffer& attach(ThreadState& ts) {
  TracerState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.buffers.push_back(std::make_unique<SpanBuffer>());
  ts.buffer = s.buffers.back().get();
  ts.generation = s.generation.load(std::memory_order_relaxed);
  return *ts.buffer;
}

}  // namespace

const char* category_name(Category c) {
  switch (c) {
    case Category::kSuperstep:
      return "superstep";
    case Category::kExchange:
      return "exchange";
    case Category::kKernel:
      return "kernel";
    case Category::kRetry:
      return "retry";
    case Category::kServe:
      return "serve";
    case Category::kRecovery:
      return "recovery";
    case Category::kOneSided:
      return "onesided";
    case Category::kOther:
      return "other";
  }
  return "other";
}

Tracer::Tracer() = default;

void Tracer::configure(const Config& config) {
  enabled_.store(config.tracing, std::memory_order_relaxed);
}

Config Tracer::config() const { return Config{enabled()}; }

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           state().epoch)
          .count());
}

void Tracer::record(const SpanRecord& span) {
  if (!enabled()) return;
  ThreadState& ts = thread_state();
  if (ts.buffer == nullptr ||
      ts.generation != state().generation.load(std::memory_order_relaxed)) {
    attach(ts);
  }
  ts.buffer->spans.push_back(span);
}

std::vector<SpanRecord> Tracer::snapshot() const {
  const TracerState& s = state();
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    for (const auto& buf : s.buffers) {
      out.insert(out.end(), buf->spans.begin(), buf->spans.end());
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SpanRecord& a, const SpanRecord& b) {
                     if (a.rank != b.rank) return a.rank < b.rank;
                     if (a.begin_ns != b.begin_ns) {
                       return a.begin_ns < b.begin_ns;
                     }
                     return a.depth < b.depth;
                   });
  return out;
}

void Tracer::clear() {
  TracerState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.buffers.clear();
  s.generation.fetch_add(1, std::memory_order_relaxed);
}

std::size_t Tracer::total_spans() const {
  const TracerState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  std::size_t n = 0;
  for (const auto& buf : s.buffers) n += buf->spans.size();
  return n;
}

std::size_t Tracer::thread_buffers() const {
  const TracerState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.buffers.size();
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

ScopedRank::ScopedRank(std::size_t rank) {
  ThreadState& ts = thread_state();
  saved_ = ts.rank;
  ts.rank = rank;
}

ScopedRank::~ScopedRank() { thread_state().rank = saved_; }

Span::Span(const char* name, Category category, std::uint64_t arg) {
  if (!tracer().enabled()) return;
  name_ = name;
  category_ = category;
  arg_ = arg;
  begin_ns_ = tracer().now_ns();
  ++thread_state().depth;
  active_ = true;
}

void Span::close() {
  if (!active_) return;
  active_ = false;
  ThreadState& ts = thread_state();
  --ts.depth;
  SpanRecord rec;
  rec.name = name_;
  rec.category = category_;
  rec.rank = ts.rank;
  rec.begin_ns = begin_ns_;
  rec.end_ns = tracer().now_ns();
  rec.arg = arg_;
  rec.depth = ts.depth;
  tracer().record(rec);
}

}  // namespace sttsv::obs
