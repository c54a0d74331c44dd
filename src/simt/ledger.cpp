#include "simt/ledger.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace sttsv::simt {

const char* channel_name(Channel c) {
  switch (c) {
    case Channel::kGoodput:
      return "goodput";
    case Channel::kOverhead:
      return "overhead";
    case Channel::kRecovery:
      return "recovery";
    case Channel::kOneSided:
      return "onesided";
  }
  return "unknown";
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kIntra:
      return "intra";
    case Level::kInter:
      return "inter";
  }
  return "unknown";
}

CommLedger::CommLedger(std::size_t num_ranks) : num_ranks_(num_ranks) {
  STTSV_REQUIRE(num_ranks >= 1, "ledger needs at least one rank");
  STTSV_REQUIRE(num_ranks < (1ULL << 32), "too many ranks for the pair table");
  pair_.resize(num_ranks * num_ranks);
  for (auto& levels : chan_) {
    for (auto& c : levels) {
      c.sent.assign(num_ranks, 0);
      c.received.assign(num_ranks, 0);
      c.msg_sent.assign(num_ranks, 0);
      c.msg_received.assign(num_ranks, 0);
    }
  }
}

bool CommLedger::empty() const {
  for (const auto& levels : chan_) {
    for (const auto& c : levels) {
      if (c.rounds != 0) return false;
      for (std::size_t p = 0; p < num_ranks_; ++p) {
        if (c.sent[p] != 0 || c.received[p] != 0 || c.msg_sent[p] != 0 ||
            c.msg_received[p] != 0) {
          return false;
        }
      }
    }
  }
  return sync_ops_[0] == 0 && sync_ops_[1] == 0;
}

void CommLedger::set_node_map(std::vector<std::uint32_t> node_of) {
  if (node_of == node_of_) return;  // idempotent re-install
  STTSV_REQUIRE(node_of.size() == num_ranks_,
                "node map must cover every rank");
  // A dense map has at most one node per rank: checking that bound first
  // keeps a huge label from sizing (or wrapping) the tables below.
  std::size_t nodes = 0;
  for (const std::uint32_t node : node_of) {
    STTSV_REQUIRE(node < node_of.size(),
                  "node labels must be dense in [0, N)");
    nodes = std::max<std::size_t>(nodes, std::size_t{node} + 1);
  }
  STTSV_REQUIRE(nodes >= 1, "node map needs at least one node");
  // Dense labels: every node in [0, nodes) must host at least one rank,
  // so per-node iteration (fences, cost model) never sees a hole.
  std::vector<char> seen(nodes, 0);
  for (const std::uint32_t node : node_of) seen[node] = 1;
  for (std::size_t v = 0; v < nodes; ++v) {
    STTSV_REQUIRE(seen[v] != 0, "node labels must be dense in [0, N)");
  }
  STTSV_REQUIRE(empty(),
                "node map must be installed before any traffic is recorded");
  node_of_ = std::move(node_of);
  num_nodes_ = nodes;
}

void CommLedger::record(Channel channel, std::size_t from, std::size_t to,
                        std::size_t words) {
  STTSV_REQUIRE(from < num_ranks_ && to < num_ranks_, "rank out of range");
  STTSV_REQUIRE(from != to, "self-messages are local copies, not comm");
  ChannelCounters& c = chan(channel, level_of(from, to));
  c.sent[from] += words;
  c.received[to] += words;
  ++c.msg_sent[from];
  ++c.msg_received[to];
  if (channel == Channel::kGoodput) {
    PairCount& pair = pair_[from * num_ranks_ + to];
    if (!pair.recorded) ++active_pairs_;
    pair.recorded = true;
    pair.words += words;
  }
}

void CommLedger::add_rounds(Channel channel, Level level, std::size_t k) {
  chan(channel, level).rounds += k;
}

void CommLedger::add_modeled_collective_words(std::size_t words_per_rank) {
  modeled_words_ += words_per_rank;
}

std::uint64_t CommLedger::words_sent(Channel channel,
                                     std::size_t rank) const {
  return words_sent(channel, Level::kIntra, rank) +
         words_sent(channel, Level::kInter, rank);
}

std::uint64_t CommLedger::words_received(Channel channel,
                                         std::size_t rank) const {
  return words_received(channel, Level::kIntra, rank) +
         words_received(channel, Level::kInter, rank);
}

std::uint64_t CommLedger::words_sent(Channel channel, Level level,
                                     std::size_t rank) const {
  const ChannelCounters& c = chan(channel, level);
  STTSV_REQUIRE(rank < c.sent.size(), "rank out of range");
  return c.sent[rank];
}

std::uint64_t CommLedger::words_received(Channel channel, Level level,
                                         std::size_t rank) const {
  const ChannelCounters& c = chan(channel, level);
  STTSV_REQUIRE(rank < c.received.size(), "rank out of range");
  return c.received[rank];
}

std::uint64_t CommLedger::messages_sent(Channel channel,
                                        std::size_t rank) const {
  STTSV_REQUIRE(rank < num_ranks_, "rank out of range");
  std::uint64_t total = 0;
  for (const Level lv : kAllLevels) total += chan(channel, lv).msg_sent[rank];
  return total;
}

std::uint64_t CommLedger::messages_received(Channel channel,
                                            std::size_t rank) const {
  STTSV_REQUIRE(rank < num_ranks_, "rank out of range");
  std::uint64_t total = 0;
  for (const Level lv : kAllLevels) {
    total += chan(channel, lv).msg_received[rank];
  }
  return total;
}

std::uint64_t CommLedger::max_words_sent(Channel channel) const {
  std::uint64_t best = 0;
  for (std::size_t p = 0; p < num_ranks_; ++p) {
    best = std::max(best, words_sent(channel, p));
  }
  return best;
}

std::uint64_t CommLedger::max_words_received(Channel channel) const {
  std::uint64_t best = 0;
  for (std::size_t p = 0; p < num_ranks_; ++p) {
    best = std::max(best, words_received(channel, p));
  }
  return best;
}

std::uint64_t CommLedger::max_words_sent(Channel channel, Level level) const {
  const ChannelCounters& c = chan(channel, level);
  return *std::max_element(c.sent.begin(), c.sent.end());
}

std::uint64_t CommLedger::max_words_received(Channel channel,
                                             Level level) const {
  const ChannelCounters& c = chan(channel, level);
  return *std::max_element(c.received.begin(), c.received.end());
}

std::uint64_t CommLedger::total_words(Channel channel) const {
  return total_words(channel, Level::kIntra) +
         total_words(channel, Level::kInter);
}

std::uint64_t CommLedger::total_words(Channel channel, Level level) const {
  std::uint64_t total = 0;
  for (const auto w : chan(channel, level).sent) total += w;
  return total;
}

std::uint64_t CommLedger::total_messages(Channel channel) const {
  return total_messages(channel, Level::kIntra) +
         total_messages(channel, Level::kInter);
}

std::uint64_t CommLedger::total_messages(Channel channel,
                                         Level level) const {
  std::uint64_t total = 0;
  for (const auto m : chan(channel, level).msg_sent) total += m;
  return total;
}

std::uint64_t CommLedger::rounds(Channel channel) const {
  return rounds(channel, Level::kIntra) + rounds(channel, Level::kInter);
}

std::uint64_t CommLedger::rounds(Channel channel, Level level) const {
  return chan(channel, level).rounds;
}

std::uint64_t CommLedger::total_payload_words(Level level) const {
  return total_words(Channel::kGoodput, level) +
         total_words(Channel::kRecovery, level) +
         total_words(Channel::kOneSided, level);
}

std::uint64_t CommLedger::pair_words(std::size_t from, std::size_t to) const {
  STTSV_REQUIRE(from < num_ranks_ && to < num_ranks_, "rank out of range");
  return pair_[from * num_ranks_ + to].words;
}

void CommLedger::to_metrics(obs::MetricsRegistry& out,
                            const std::string& prefix) const {
  for (const Channel ch : kAllChannels) {
    const std::string base = prefix + "." + channel_name(ch);
    out.set_counter(base + ".max_words_sent", max_words_sent(ch));
    out.set_counter(base + ".max_words_received", max_words_received(ch));
    out.set_counter(base + ".total_words", total_words(ch));
    out.set_counter(base + ".total_messages", total_messages(ch));
    out.set_counter(base + ".rounds", rounds(ch));
    for (const Level lv : kAllLevels) {
      const std::string lvl = base + "." + level_name(lv);
      out.set_counter(lvl + ".total_words", total_words(ch, lv));
      out.set_counter(lvl + ".total_messages", total_messages(ch, lv));
      out.set_counter(lvl + ".rounds", rounds(ch, lv));
    }
    for (std::size_t p = 0; p < num_ranks_; ++p) {
      const std::string rank = ".r" + std::to_string(p);
      out.set_counter(base + ".words_sent" + rank, words_sent(ch, p));
      out.set_counter(base + ".words_received" + rank, words_received(ch, p));
      if (ch == Channel::kGoodput) {
        out.set_counter(base + ".messages_sent" + rank, messages_sent(ch, p));
      }
    }
  }
  out.set_counter(prefix + ".onesided.sync_ops", sync_ops());
  for (const Level lv : kAllLevels) {
    out.set_counter(
        prefix + ".sync_ops." + level_name(lv),
        sync_ops_[static_cast<std::size_t>(lv)]);
  }
  out.set_counter(prefix + ".num_nodes", num_nodes_);
  out.set_counter(prefix + ".modeled_collective_words", modeled_words_);
  out.set_counter(prefix + ".active_pairs", active_pairs_);
}

void CommLedger::verify_conservation() const {
  for (const Channel ch : kAllChannels) {
    for (const Level lv : kAllLevels) {
      const ChannelCounters& c = chan(ch, lv);
      std::uint64_t s = 0;
      std::uint64_t r = 0;
      for (std::size_t p = 0; p < num_ranks_; ++p) {
        s += c.sent[p];
        r += c.received[p];
      }
      // Keep the historical message for the goodput channel's default
      // (flat) arm; the others name themselves down to the level. The
      // message is built only when the check fails.
      STTSV_CHECK(s == r,
                  ch == Channel::kGoodput && lv == Level::kIntra
                      ? std::string(
                            "ledger conservation violated (sent != received)")
                      : std::string("ledger conservation violated (") +
                            channel_name(ch) + " " + level_name(lv) +
                            " sent != received)");
    }
  }
}

void CommLedger::debug_skew_sent_for_test(Channel channel, Level level,
                                          std::size_t rank,
                                          std::uint64_t words) {
  ChannelCounters& c = chan(channel, level);
  STTSV_REQUIRE(rank < c.sent.size(), "rank out of range");
  c.sent[rank] += words;
}

}  // namespace sttsv::simt
