// Observability subsystem tests (DESIGN.md §11): span nesting and rank
// attribution, the disabled tracer's zero-allocation fast path, exporter
// round-trips (the emitted Chrome trace is parsed back and validated,
// including the retry -> "overhead" channel attribution), ledger/metrics
// export equivalence, and the core determinism contract — y and the
// ledger are bitwise identical with tracing on or off.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/parallel_sttsv.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/fault_injector.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"

namespace sttsv::obs {
namespace {

using simt::Channel;

/// RAII reset: every test leaves the process-wide tracer disabled and
/// empty, whatever it did.
struct TracerGuard {
  TracerGuard() {
    tracer().configure({.tracing = false});
    tracer().clear();
  }
  ~TracerGuard() {
    tracer().configure({.tracing = false});
    tracer().clear();
  }
};

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser — just enough to round-trip the
// documents our own JsonWriter emits (no string escapes, no unicode).
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> members;

  [[nodiscard]] const JsonValue& at(const std::string& key) const {
    const auto it = members.find(key);
    EXPECT_NE(it, members.end()) << "missing key: " << key;
    static const JsonValue null_value;
    return it == members.end() ? null_value : it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return members.count(key) > 0;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    EXPECT_EQ(pos_, text_.size()) << "trailing content after JSON document";
    return v;
  }

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    ok_ = false;
    ADD_FAILURE() << "expected '" << c << "' at offset " << pos_;
    return false;
  }

  [[nodiscard]] char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string string_literal() {
    std::string out;
    if (!consume('"')) return out;
    while (pos_ < text_.size() && text_[pos_] != '"') out += text_[pos_++];
    consume('"');
    return out;
  }

  JsonValue value() {
    JsonValue v;
    const char c = peek();
    if (c == '{') {
      v.kind = JsonValue::Kind::kObject;
      consume('{');
      if (peek() != '}') {
        do {
          std::string key = string_literal();
          consume(':');
          v.members[key] = value();
        } while (peek() == ',' && consume(','));
      }
      consume('}');
    } else if (c == '[') {
      v.kind = JsonValue::Kind::kArray;
      consume('[');
      if (peek() != ']') {
        do {
          v.items.push_back(value());
        } while (peek() == ',' && consume(','));
      }
      consume(']');
    } else if (c == '"') {
      v.kind = JsonValue::Kind::kString;
      v.text = string_literal();
    } else if (c == 't' || c == 'f') {
      v.kind = JsonValue::Kind::kBool;
      v.boolean = c == 't';
      pos_ += v.boolean ? 4 : 5;
    } else {
      v.kind = JsonValue::Kind::kNumber;
      std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-' || text_[pos_] == '+' ||
              text_[pos_] == '.' || text_[pos_] == 'e' ||
              text_[pos_] == 'E')) {
        ++pos_;
      }
      if (pos_ == start) {
        ok_ = false;
        ADD_FAILURE() << "unparseable value at offset " << pos_;
      } else {
        v.number = std::stod(text_.substr(start, pos_ - start));
      }
    }
    return v;
  }

  std::string text_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// MetricsRegistry.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.add_counter("a.count");
  reg.add_counter("a.count", 4);
  reg.set_counter("b.abs", 7);
  reg.set_counter("b.abs", 9);  // absolute: overwrite, not accumulate
  reg.set_gauge("g.load", 0.5);
  reg.observe("h.lat", 2.0);
  reg.observe("h.lat", 4.0);

  EXPECT_EQ(reg.counter("a.count"), 5u);
  EXPECT_EQ(reg.counter("b.abs"), 9u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g.load"), 0.5);
  const HistogramStats h = reg.histogram("h.lat");
  EXPECT_EQ(h.count, 2u);
  EXPECT_DOUBLE_EQ(h.sum, 6.0);
  EXPECT_DOUBLE_EQ(h.min, 2.0);
  EXPECT_DOUBLE_EQ(h.max, 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);

  // Snapshots are name-ordered for deterministic export.
  const auto counters = reg.counters();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "a.count");
  EXPECT_EQ(counters[1].first, "b.abs");

  reg.clear();
  EXPECT_TRUE(reg.empty());
}

// ---------------------------------------------------------------------------
// CommLedger::to_metrics.
// ---------------------------------------------------------------------------

TEST(LedgerMetrics, ExportMatchesLedgerExactly) {
  // Two nodes, {0, 1} and {2, 3}: every channel carries traffic, rounds
  // and (one-sided) sync ops at both levels.
  simt::CommLedger ledger(4);
  ledger.set_node_map({0, 0, 1, 1});
  std::size_t salt = 1;
  for (const Channel ch : simt::kAllChannels) {
    ledger.record(ch, 0, 1, 10 + salt);  // intra
    ledger.record(ch, 1, 2, 4 * salt);   // inter
    ledger.record(ch, 2, 0, 6 + salt);   // inter
    ledger.record(ch, 3, 2, salt);       // intra
    ledger.record(ch, 0, 2, 2 * salt);   // inter
    ledger.add_rounds(ch, simt::Level::kIntra, salt);
    ledger.add_rounds(ch, simt::Level::kInter, 2 * salt);
    ++salt;
  }
  ledger.add_sync_ops(simt::Level::kIntra, 3);
  ledger.add_sync_ops(simt::Level::kInter, 5);
  ledger.add_modeled_collective_words(44);

  MetricsRegistry reg;
  ledger.to_metrics(reg);

  // counter() reads a missing name as 0, so look every name up in the
  // export itself, and count them: every exported counter is checked.
  std::map<std::string, std::uint64_t> exported;
  for (const auto& [name, value] : reg.counters()) exported[name] = value;
  std::size_t checked = 0;
  const auto expect = [&](const std::string& name, std::uint64_t want) {
    ++checked;
    const auto it = exported.find(name);
    if (it == exported.end()) {
      ADD_FAILURE() << name << " not exported";
      return;
    }
    EXPECT_EQ(it->second, want) << name;
  };
  for (const Channel ch : simt::kAllChannels) {
    const std::string base = std::string("ledger.") + simt::channel_name(ch);
    expect(base + ".max_words_sent", ledger.max_words_sent(ch));
    expect(base + ".max_words_received", ledger.max_words_received(ch));
    expect(base + ".total_words", ledger.total_words(ch));
    expect(base + ".total_messages", ledger.total_messages(ch));
    expect(base + ".rounds", ledger.rounds(ch));
    for (const simt::Level lv : simt::kAllLevels) {
      EXPECT_GT(ledger.total_words(ch, lv), 0u);
      const std::string lvl = base + "." + simt::level_name(lv);
      expect(lvl + ".total_words", ledger.total_words(ch, lv));
      expect(lvl + ".total_messages", ledger.total_messages(ch, lv));
      expect(lvl + ".rounds", ledger.rounds(ch, lv));
    }
    for (std::size_t p = 0; p < ledger.num_ranks(); ++p) {
      const std::string r = ".r" + std::to_string(p);
      expect(base + ".words_sent" + r, ledger.words_sent(ch, p));
      expect(base + ".words_received" + r, ledger.words_received(ch, p));
      if (ch == Channel::kGoodput) {
        expect(base + ".messages_sent" + r, ledger.messages_sent(ch, p));
      }
    }
  }
  for (const simt::Level lv : simt::kAllLevels) {
    expect(std::string("ledger.sync_ops.") + simt::level_name(lv),
           ledger.sync_ops(lv));
  }
  expect("ledger.onesided.sync_ops", 8u);
  expect("ledger.num_nodes", 2u);
  expect("ledger.modeled_collective_words", 44u);
  expect("ledger.active_pairs", ledger.active_pairs());
  EXPECT_EQ(checked, exported.size());

  // Re-export is idempotent: values are set absolutely.
  ledger.to_metrics(reg);
  EXPECT_EQ(reg.counter("ledger.goodput.total_words"), ledger.total_words());
}

/// The acceptance-criterion shape: a real parallel run's exported per-rank
/// goodput maxima equal the ledger's maxima exactly.
TEST(LedgerMetrics, ParallelRunGoodputMaximaRoundTrip) {
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, 60);
  Rng rng(5);
  const auto a = tensor::random_symmetric(60, rng);
  const auto x = rng.uniform_vector(60);
  simt::Machine machine(part.num_processors());
  core::parallel_sttsv(machine, part, dist, a, x,
                       simt::Transport::kPointToPoint);

  MetricsRegistry reg;
  machine.ledger().to_metrics(reg);
  const std::uint64_t max_sent = machine.ledger().max_words_sent();
  EXPECT_GT(max_sent, 0u);
  EXPECT_EQ(reg.counter("ledger.goodput.max_words_sent"), max_sent);
  EXPECT_EQ(reg.counter("ledger.goodput.max_words_received"),
            machine.ledger().max_words_received());
  std::uint64_t max_seen = 0;
  for (std::size_t p = 0; p < machine.num_ranks(); ++p) {
    const std::uint64_t words =
        reg.counter("ledger.goodput.words_sent.r" + std::to_string(p));
    EXPECT_EQ(words, machine.ledger().words_sent(Channel::kGoodput, p))
        << "p=" << p;
    max_seen = std::max(max_seen, words);
  }
  EXPECT_EQ(max_seen, max_sent);
}

// ---------------------------------------------------------------------------
// Tracer: nesting, attribution, fast path.
// ---------------------------------------------------------------------------

TEST(Tracer, DisabledPathRecordsNothingAndAllocatesNoBuffers) {
  TracerGuard guard;
  EXPECT_FALSE(tracer().enabled());
  {
    Span outer("test.outer", Category::kOther);
    Span inner("test.inner", Category::kOther, 42);
    inner.close();
  }
  EXPECT_EQ(tracer().total_spans(), 0u);
  EXPECT_EQ(tracer().thread_buffers(), 0u);
  EXPECT_TRUE(tracer().snapshot().empty());
}

TEST(Tracer, SpanNestingAndPerRankOrdering) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (STTSV_ENABLE_TRACING=OFF)";
  }
  TracerGuard guard;
  tracer().configure({.tracing = true});

  const std::size_t P = 4;
  simt::Machine machine(P);
  machine.run_ranks([](std::size_t p) {
    Span inner("test.inner", Category::kKernel, p);
  });

  const auto spans = tracer().snapshot();
  // Per rank: one rank.compute (depth 0) and one test.inner (depth 1);
  // plus the driver's machine.run_ranks span.
  std::map<std::size_t, std::vector<SpanRecord>> by_rank;
  for (const auto& s : spans) by_rank[s.rank].push_back(s);
  ASSERT_TRUE(by_rank.count(kDriverTrack));
  ASSERT_EQ(by_rank[kDriverTrack].size(), 1u);
  EXPECT_STREQ(by_rank[kDriverTrack][0].name, "machine.run_ranks");
  EXPECT_EQ(by_rank[kDriverTrack][0].category, Category::kSuperstep);

  for (std::size_t p = 0; p < P; ++p) {
    ASSERT_TRUE(by_rank.count(p)) << "p=" << p;
    const auto& rank_spans = by_rank[p];
    ASSERT_EQ(rank_spans.size(), 2u) << "p=" << p;
    // snapshot() orders by begin time: the enclosing compute span first.
    const SpanRecord& compute = rank_spans[0];
    const SpanRecord& inner = rank_spans[1];
    EXPECT_STREQ(compute.name, "rank.compute");
    // Ranks run on pool workers (depth 0) or the participating calling
    // thread (depth 1, nested inside the machine.run_ranks span).
    EXPECT_LE(compute.depth, 1u);
    EXPECT_EQ(compute.arg, p);
    EXPECT_STREQ(inner.name, "test.inner");
    EXPECT_EQ(inner.depth, compute.depth + 1);
    EXPECT_EQ(inner.arg, p);
    // Interval containment: the nested span closes inside its parent.
    EXPECT_GE(inner.begin_ns, compute.begin_ns);
    EXPECT_LE(inner.end_ns, compute.end_ns);
    EXPECT_LE(compute.begin_ns, compute.end_ns);
  }

  // Global snapshot order: non-decreasing (rank, begin).
  for (std::size_t i = 1; i < spans.size(); ++i) {
    if (spans[i - 1].rank == spans[i].rank) {
      EXPECT_LE(spans[i - 1].begin_ns, spans[i].begin_ns);
    }
  }
}

TEST(Tracer, ExchangeSpansClassifyOverheadOnlyTrafficAsRetry) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (STTSV_ENABLE_TRACING=OFF)";
  }
  TracerGuard guard;
  tracer().configure({.tracing = true});

  simt::Machine machine(2);
  {
    // Goodput exchange: plain payload.
    std::vector<std::vector<simt::Envelope>> out(2);
    out[0].push_back(simt::Envelope{1, {1.0, 2.0}, 0});
    simt::DirectExchange(machine).exchange(std::move(out),
                                           simt::Transport::kPointToPoint);
  }
  {
    // Overhead-only exchange (an ACK round's shape).
    std::vector<std::vector<simt::Envelope>> out(2);
    out[1].push_back(simt::Envelope{0, {3.0}, 1});
    simt::DirectExchange(machine).exchange(std::move(out),
                                           simt::Transport::kPointToPoint);
  }

  const auto spans = tracer().snapshot();
  std::size_t exchange_spans = 0;
  std::size_t retry_spans = 0;
  for (const auto& s : spans) {
    if (std::string(s.name) != "machine.exchange") continue;
    if (s.category == Category::kExchange) ++exchange_spans;
    if (s.category == Category::kRetry) ++retry_spans;
  }
  EXPECT_EQ(exchange_spans, 1u);
  EXPECT_EQ(retry_spans, 1u);
}

TEST(Tracer, ClearDropsSpansAndSurvivesReuse) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (STTSV_ENABLE_TRACING=OFF)";
  }
  TracerGuard guard;
  tracer().configure({.tracing = true});
  { Span s("test.one", Category::kOther); }
  EXPECT_EQ(tracer().total_spans(), 1u);
  tracer().clear();
  EXPECT_EQ(tracer().total_spans(), 0u);
  // The recording thread re-attaches transparently after clear().
  { Span s("test.two", Category::kOther); }
  const auto spans = tracer().snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "test.two");
}

// ---------------------------------------------------------------------------
// Exporters.
// ---------------------------------------------------------------------------

TEST(Exporters, ChromeTraceRoundTripsThroughAParser) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (STTSV_ENABLE_TRACING=OFF)";
  }
  TracerGuard guard;
  tracer().configure({.tracing = true});

  {
    Span goodput("test.exchange", Category::kExchange, 128);
    Span retry("test.retry", Category::kRetry, 3);
  }
  const auto spans = tracer().snapshot();
  ASSERT_EQ(spans.size(), 2u);

  std::ostringstream os;
  write_chrome_trace(os, spans);

  JsonParser parser(os.str());
  const JsonValue doc = parser.parse();
  ASSERT_TRUE(parser.ok());
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  EXPECT_EQ(doc.at("displayTimeUnit").text, "ms");
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, JsonValue::Kind::kArray);

  std::size_t metadata = 0;
  std::size_t complete = 0;
  bool saw_overhead_retry = false;
  bool saw_goodput_exchange = false;
  for (const JsonValue& e : events.items) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const std::string ph = e.at("ph").text;
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(e.at("name").text, "thread_name");
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++complete;
    EXPECT_TRUE(e.has("ts") && e.has("dur") && e.has("tid") && e.has("pid"));
    EXPECT_GE(e.at("dur").number, 0.0);
    const JsonValue& args = e.at("args");
    const std::string channel = args.at("channel").text;
    if (e.at("name").text == "test.retry") {
      EXPECT_EQ(e.at("cat").text, "retry");
      EXPECT_EQ(channel, "overhead");
      EXPECT_DOUBLE_EQ(args.at("arg").number, 3.0);
      saw_overhead_retry = true;
    }
    if (e.at("name").text == "test.exchange") {
      EXPECT_EQ(channel, "goodput");
      EXPECT_DOUBLE_EQ(args.at("arg").number, 128.0);
      saw_goodput_exchange = true;
    }
  }
  EXPECT_EQ(metadata, 1u);  // both spans share the driver track
  EXPECT_EQ(complete, 2u);
  EXPECT_TRUE(saw_overhead_retry);
  EXPECT_TRUE(saw_goodput_exchange);
}

TEST(Exporters, MetricsJsonRoundTripsThroughAParser) {
  MetricsRegistry reg;
  reg.set_counter("a.words", 123);
  reg.set_gauge("b.ratio", 0.25);
  reg.observe("c.lat", 1.0);
  reg.observe("c.lat", 3.0);

  std::ostringstream os;
  {
    repro::JsonWriter w(os);
    w.begin_object();
    write_metrics_json(w, reg);
    w.end_object();
  }

  JsonParser parser(os.str());
  const JsonValue doc = parser.parse();
  ASSERT_TRUE(parser.ok());
  const JsonValue& metrics = doc.at("metrics");
  EXPECT_DOUBLE_EQ(metrics.at("counters").at("a.words").number, 123.0);
  EXPECT_DOUBLE_EQ(metrics.at("gauges").at("b.ratio").number, 0.25);
  const JsonValue& h = metrics.at("histograms").at("c.lat");
  EXPECT_DOUBLE_EQ(h.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(h.at("mean").number, 2.0);
}

TEST(Exporters, RankSummaryListsEveryTrack) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (STTSV_ENABLE_TRACING=OFF)";
  }
  TracerGuard guard;
  EXPECT_EQ(rank_summary({}), "");

  tracer().configure({.tracing = true});
  simt::Machine machine(3);
  machine.run_ranks([](std::size_t) {});
  const std::string summary = rank_summary(tracer().snapshot());
  EXPECT_NE(summary.find("driver"), std::string::npos);
  EXPECT_NE(summary.find("rank 0"), std::string::npos);
  EXPECT_NE(summary.find("rank 2"), std::string::npos);
  EXPECT_NE(summary.find("superstep"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism: tracing must be unobservable in y and in the ledger.
// ---------------------------------------------------------------------------

TEST(Determinism, TracingOnVsOffBitwiseIdentical) {
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, 60);
  Rng rng(17);
  const auto a = tensor::random_symmetric(60, rng);
  const auto x = rng.uniform_vector(60);
  const std::size_t P = part.num_processors();

  TracerGuard guard;
  simt::Machine off_machine(P);
  const auto off = core::parallel_sttsv(off_machine, part, dist, a, x,
                                        simt::Transport::kPointToPoint);

  tracer().configure({.tracing = true});
  simt::Machine on_machine(P);
  const auto on = core::parallel_sttsv(on_machine, part, dist, a, x,
                                       simt::Transport::kPointToPoint);
  if (kTracingCompiledIn) {
    EXPECT_GT(tracer().total_spans(), 0u);
  }
  tracer().configure({.tracing = false});

  ASSERT_EQ(on.y.size(), off.y.size());
  for (std::size_t i = 0; i < on.y.size(); ++i) {
    EXPECT_EQ(on.y[i], off.y[i]) << "i=" << i;  // exact == is bitwise here
  }
  EXPECT_EQ(on.ternary_mults, off.ternary_mults);
  EXPECT_EQ(on_machine.ledger().total_words(),
            off_machine.ledger().total_words());
  EXPECT_EQ(on_machine.ledger().total_messages(),
            off_machine.ledger().total_messages());
  EXPECT_EQ(on_machine.ledger().rounds(), off_machine.ledger().rounds());
  for (std::size_t p = 0; p < P; ++p) {
    EXPECT_EQ(on_machine.ledger().words_sent(Channel::kGoodput, p),
              off_machine.ledger().words_sent(Channel::kGoodput, p))
        << "p=" << p;
  }
}

TEST(Determinism, TracedResilientRunMatchesUntracedAndAttributesOverhead) {
  if (!kTracingCompiledIn) {
    GTEST_SKIP() << "tracing compiled out (STTSV_ENABLE_TRACING=OFF)";
  }
  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(2));
  const partition::VectorDistribution dist(part, 60);
  Rng rng(23);
  const auto a = tensor::random_symmetric(60, rng);
  const auto x = rng.uniform_vector(60);
  const std::size_t P = part.num_processors();

  const auto faulty_run = [&](simt::Machine& machine) {
    simt::FaultConfig cfg;
    cfg.drop = 0.15;
    cfg.corrupt = 0.10;
    cfg.duplicate = 0.05;
    cfg.seed = 99;
    simt::FaultInjector injector(cfg);
    machine.set_fault_injector(&injector);
    simt::ReliableExchange rex(machine, simt::RetryPolicy{32, 1, 64},
                               simt::RecoveryPolicy::kFailFast);
    auto r = core::parallel_sttsv(rex, part, dist, a, x,
                                  simt::Transport::kPointToPoint);
    machine.set_fault_injector(nullptr);
    return r;
  };

  TracerGuard guard;
  simt::Machine off_machine(P);
  const auto off = faulty_run(off_machine);

  tracer().configure({.tracing = true});
  simt::Machine on_machine(P);
  const auto on = faulty_run(on_machine);
  const auto spans = tracer().snapshot();
  tracer().configure({.tracing = false});

  ASSERT_EQ(on.y.size(), off.y.size());
  for (std::size_t i = 0; i < on.y.size(); ++i) {
    EXPECT_EQ(on.y[i], off.y[i]) << "i=" << i;
  }
  EXPECT_EQ(on_machine.ledger().total_words(Channel::kOverhead),
            off_machine.ledger().total_words(Channel::kOverhead));

  // The protocol's recovery work shows up as overhead-channel spans.
  std::size_t retry_spans = 0;
  for (const auto& s : spans) {
    if (s.category == Category::kRetry) ++retry_spans;
  }
  EXPECT_GT(retry_spans, 0u);
}

// --- Histogram percentiles (serving-layer latency reporting) --------------

TEST(HistogramPercentiles, EmptyAndSingleValue) {
  HistogramStats h;
  EXPECT_EQ(h.percentile(0.50), 0.0);
  h.observe(42.0);
  // A single sample: every percentile collapses to it exactly (the
  // geometric bucket midpoint is clamped to the observed [min, max]).
  EXPECT_EQ(h.percentile(0.0), 42.0);
  EXPECT_EQ(h.percentile(0.50), 42.0);
  EXPECT_EQ(h.percentile(0.99), 42.0);
}

TEST(HistogramPercentiles, UniformRampWithinBucketResolution) {
  HistogramStats h;
  for (int v = 1; v <= 1000; ++v) h.observe(static_cast<double>(v));
  // 8 sub-buckets per octave: relative bucket width 2^(1/8) ~ 9%.
  const double p50 = h.percentile(0.50);
  const double p90 = h.percentile(0.90);
  const double p99 = h.percentile(0.99);
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.10);
  EXPECT_NEAR(p90, 900.0, 900.0 * 0.10);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.10);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 1000.0);  // clamped to the observed max
  EXPECT_GE(h.percentile(0.0), 1.0);
}

TEST(HistogramPercentiles, UnderflowBucketReportsMin) {
  HistogramStats h;
  h.observe(0.0);  // non-positive values land in the underflow bucket
  h.observe(0.0);
  EXPECT_EQ(h.percentile(0.50), 0.0);
  h.observe(8.0);
  EXPECT_EQ(h.percentile(0.50), 0.0);   // rank 2 of 3 still underflow
  EXPECT_NEAR(h.percentile(0.99), 8.0, 8.0 * 0.10);
}

TEST(HistogramPercentiles, WideDynamicRange) {
  HistogramStats h;
  h.observe(1e-6);
  h.observe(1.0);
  h.observe(1e9);
  EXPECT_NEAR(h.percentile(0.50), 1.0, 0.10);
  EXPECT_NEAR(h.percentile(0.99), 1e9, 1e9 * 0.10);
  EXPECT_EQ(h.count, 3u);
}

TEST(HistogramPercentiles, RegistryExposesPercentiles) {
  MetricsRegistry reg;
  for (int v = 1; v <= 100; ++v) {
    reg.observe("latency", static_cast<double>(v));
  }
  EXPECT_NEAR(reg.percentile("latency", 0.50), 50.0, 5.0);
  EXPECT_EQ(reg.percentile("missing", 0.50), 0.0);
}

}  // namespace
}  // namespace sttsv::obs
