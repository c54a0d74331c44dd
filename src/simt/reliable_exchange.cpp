#include "simt/reliable_exchange.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simt/fault_injector.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sttsv::simt {

namespace {

// Wire format. All header fields are uint64 values bit-cast into the
// double payload stream; no arithmetic ever touches them.
//
// Data frame:  [magic, seq, payload_len, payload_cksum, header_cksum,
//               payload...]
// ACK frame:   [magic, entry_count, cksum, entries...] where an entry is
//              (seq << 1) | ok_bit; ok = accepted, !ok = NACK (payload
//              checksum mismatch, retransmit immediately).
constexpr std::uint64_t kMagicData = 0x5354'5356'4441'5441ULL;  // STSVDATA
constexpr std::uint64_t kMagicAck = 0x5354'5356'4143'4b21ULL;   // STSVACK!
constexpr std::size_t kDataHeaderWords = 5;
constexpr std::size_t kAckHeaderWords = 3;

double enc(std::uint64_t v) { return std::bit_cast<double>(v); }
std::uint64_t dec(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t finalize(std::uint64_t h) { return splitmix64(h); }

std::uint64_t payload_checksum(const double* words, std::size_t n) {
  std::uint64_t h = 0x600DC0DEULL;
  for (std::size_t i = 0; i < n; ++i) h = mix(h, dec(words[i]));
  return finalize(h);
}

std::uint64_t data_header_checksum(std::uint64_t seq, std::uint64_t len,
                                   std::uint64_t payload_sum,
                                   std::size_t from, std::size_t to) {
  std::uint64_t h = kMagicData;
  h = mix(h, seq);
  h = mix(h, len);
  h = mix(h, payload_sum);
  h = mix(h, from);
  h = mix(h, to);
  return finalize(h);
}

/// Frames `payload` as (from, to, seq). Wire buffers are leased from the
/// sender's pool shard with the exact frame size, so framing neither
/// reallocates nor over-reserves.
PooledBuffer encode_data(BufferPool& pool, std::size_t from, std::size_t to,
                         std::uint64_t seq, const PooledBuffer& payload) {
  const std::uint64_t psum = payload_checksum(payload.data(), payload.size());
  PooledBuffer wire = pool.acquire(from, kDataHeaderWords + payload.size());
  wire.push_back(enc(kMagicData));
  wire.push_back(enc(seq));
  wire.push_back(enc(payload.size()));
  wire.push_back(enc(psum));
  wire.push_back(
      enc(data_header_checksum(seq, payload.size(), psum, from, to)));
  wire.append(payload.data(), payload.size());
  return wire;
}

struct DataHeader {
  std::uint64_t seq = 0;
  bool payload_ok = false;
};

/// False => frame unparseable (header damaged): no ACK/NACK possible, the
/// sender recovers it via retry on the missing ACK. The frame is read in
/// place; on acceptance the caller steals the delivery's buffer and
/// consumes the header, so the payload is never copied off the wire.
bool decode_data(const Delivery& d, std::size_t to, DataHeader& out) {
  if (d.data.size() < kDataHeaderWords) return false;
  if (dec(d.data[0]) != kMagicData) return false;
  const std::uint64_t seq = dec(d.data[1]);
  const std::uint64_t len = dec(d.data[2]);
  const std::uint64_t psum = dec(d.data[3]);
  if (dec(d.data[4]) != data_header_checksum(seq, len, psum, d.from, to)) {
    return false;
  }
  if (len != d.data.size() - kDataHeaderWords) return false;
  out.seq = seq;
  out.payload_ok =
      payload_checksum(d.data.data() + kDataHeaderWords, len) == psum;
  return true;
}

/// (sender of the acknowledged frame, entry word). An entry word is
/// (seq << 1) | ok_bit.
using AckWord = std::pair<std::size_t, std::uint64_t>;

PooledBuffer encode_ack(BufferPool& pool, std::size_t from, std::size_t to,
                        std::span<const AckWord> entries) {
  std::uint64_t h = mix(mix(mix(kMagicAck, entries.size()), from), to);
  PooledBuffer wire = pool.acquire(from, kAckHeaderWords + entries.size());
  wire.resize(kAckHeaderWords);
  for (const auto& [sender, w] : entries) {
    h = mix(h, w);
    wire.push_back(enc(w));
  }
  wire[0] = enc(kMagicAck);
  wire[1] = enc(entries.size());
  wire[2] = enc(finalize(h));
  return wire;
}

/// Validates an ACK frame in place; its entry words follow the header.
bool decode_ack(const Delivery& d, std::size_t to) {
  if (d.data.size() < kAckHeaderWords) return false;
  if (dec(d.data[0]) != kMagicAck) return false;
  const std::uint64_t count = dec(d.data[1]);
  if (count != d.data.size() - kAckHeaderWords) return false;
  std::uint64_t h = kMagicAck;
  h = mix(h, count);
  h = mix(h, d.from);
  h = mix(h, to);
  for (std::size_t i = 0; i < count; ++i) {
    h = mix(h, dec(d.data[kAckHeaderWords + i]));
  }
  return finalize(h) == dec(d.data[2]);
}

/// Runs `release` when the scope ends, however it ends.
template <class F>
class ScopeExit {
 public:
  explicit ScopeExit(F release) : release_(std::move(release)) {}
  ~ScopeExit() { release_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  F release_;
};

/// Empties every box of a set, keeping each one's capacity.
template <class Item>
void clear_each(std::vector<std::vector<Item>>& boxes) {
  for (std::vector<Item>& box : boxes) box.clear();
}

std::string describe(const FaultReport& report) {
  std::ostringstream os;
  os << "resilient exchange failed: " << report.undelivered.size()
     << " frame(s) undelivered after " << report.attempts_used
     << " attempt(s) in phase '" << report.phase << "' (exchange #"
     << report.exchange_index << ")";
  return os.str();
}

}  // namespace

FaultError::FaultError(FaultReport report)
    : std::runtime_error(describe(report)), report_(std::move(report)) {}

RankLossError::RankLossError(FaultReport report, RankLossReport loss)
    : FaultError(std::move(report)), loss_(std::move(loss)) {}

namespace {

/// Default Parts: collect every part's envelopes and run one ordinary
/// exchange() at finish(). Envelopes are concatenated per sender in part
/// order; the exchanger's own stable sort by destination then produces
/// the same frame order — and for ReliableExchange the same sequence
/// numbers, checksums, injected-fault pattern and ledger — as if the
/// caller had packed one big outbox set.
class BufferedParts final : public Exchanger::Parts {
 public:
  BufferedParts(Exchanger& exchanger, Transport transport)
      : exchanger_(exchanger), transport_(transport) {}

  std::vector<std::vector<Delivery>> part(
      std::vector<std::vector<Envelope>> outboxes) override {
    STTSV_CHECK(!finished_, "exchange parts already finished");
    if (merged_.empty()) {
      merged_ = std::move(outboxes);
    } else {
      STTSV_REQUIRE(outboxes.size() == merged_.size(),
                    "every part needs one outbox per rank");
      for (std::size_t p = 0; p < merged_.size(); ++p) {
        for (Envelope& env : outboxes[p]) {
          merged_[p].push_back(std::move(env));
        }
      }
    }
    return {};
  }

  std::vector<std::vector<Delivery>> finish() override {
    STTSV_CHECK(!finished_, "exchange parts already finished");
    finished_ = true;
    if (merged_.empty()) return {};
    return exchanger_.exchange(std::move(merged_), transport_);
  }

 private:
  Exchanger& exchanger_;
  Transport transport_;
  std::vector<std::vector<Envelope>> merged_;
  bool finished_ = false;
};

}  // namespace

std::unique_ptr<Exchanger::Parts> Exchanger::begin_parts(Transport transport) {
  return std::make_unique<BufferedParts>(*this, transport);
}

ReliableExchange::ReliableExchange(Machine& machine, RetryPolicy retry,
                                   RecoveryPolicy recovery,
                                   LivenessPolicy liveness)
    : Exchanger(machine),
      retry_(retry),
      recovery_(recovery),
      liveness_(liveness),
      next_seq_(machine.num_ranks() * machine.num_ranks(), 0),
      sender_begin_(machine.num_ranks() + 1, 0),
      silent_(machine.num_ranks(), 0),
      probed_(machine.num_ranks(), 0),
      heard_(machine.num_ranks(), 0),
      accepted_(machine.num_ranks(), 0),
      wire_out_(machine.num_ranks()),
      wire_in_(machine.num_ranks()),
      ack_out_(machine.num_ranks()),
      ack_in_(machine.num_ranks()) {
  STTSV_REQUIRE(retry_.max_attempts >= 1,
                "retry policy needs at least one attempt");
  STTSV_REQUIRE(!liveness_.enabled || liveness_.suspect_after_attempts >= 1,
                "liveness needs at least one silent attempt to suspect");
}

std::vector<std::vector<Delivery>> ReliableExchange::exchange(
    std::vector<std::vector<Envelope>> outboxes, Transport transport) {
  const std::size_t P = machine_.num_ranks();
  STTSV_REQUIRE(outboxes.size() == P, "one outbox per rank required");
  ++exchange_counter_;
  ++stats_.exchanges;

  obs::Span protocol_span("rex.exchange", obs::Category::kExchange);

  FaultInjector* injector = machine_.fault_injector();
  const std::size_t log_begin =
      injector != nullptr ? injector->log().size() : 0;

  std::size_t num_frames = 0;
  for (std::size_t from = 0; from < P; ++from) {
    for (const Envelope& env : outboxes[from]) {
      STTSV_REQUIRE(env.to < P, "envelope destination out of range");
      STTSV_REQUIRE(env.to != from,
                    "self-sends must be handled as local copies");
      STTSV_REQUIRE(env.overhead_words == 0,
                    "reliable exchange frames raw payloads only");
      // Framing would charge the payload as goodput; recovery traffic
      // goes over the raw exchange until the protocol accounts for it.
      STTSV_REQUIRE(!env.recovery,
                    "reliable exchange does not carry recovery envelopes");
    }
    num_frames += outboxes[from].size();
  }

  // Every exit, a FaultError or RankLossError included, empties the frame
  // table and the boxes but keeps their capacity, so each slab goes back
  // to its pool shard when the exchange ends, as it did when they were
  // locals of this call.
  const ScopeExit release([this] {
    frames_.clear();
    unacked_.clear();
    clear_each(wire_out_);
    clear_each(wire_in_);
    clear_each(ack_out_);
    clear_each(ack_in_);
  });

  // Frame the outboxes in the raw machine's deterministic order (stable
  // by destination) so per-pair sequence numbers reproduce the fault-free
  // delivery order exactly.
  frames_.reserve(num_frames);
  for (std::size_t from = 0; from < P; ++from) {
    sort_by_destination(outboxes[from]);
    sender_begin_[from] = frames_.size();
    for (Envelope& env : outboxes[from]) {
      PendingFrame& f = frames_.emplace_back();
      f.from = from;
      f.to = env.to;
      f.seq = next_seq_[from * P + env.to]++;
      f.payload = std::move(env.data);
    }
  }
  sender_begin_[P] = frames_.size();
  stats_.data_frames += frames_.size();
  protocol_span.set_arg(frames_.size());

  // The frame (from, to, seq) of this exchange, or nullptr: the pair's
  // frames start at the lower bound of `to` in the sender's range and
  // carry consecutive sequence numbers.
  const auto find_frame = [&](std::size_t from, std::size_t to,
                              std::uint64_t seq) -> PendingFrame* {
    PendingFrame* const first = frames_.data() + sender_begin_[from];
    PendingFrame* const last = frames_.data() + sender_begin_[from + 1];
    PendingFrame* const pair = std::lower_bound(
        first, last, to,
        [](const PendingFrame& f, std::size_t t) { return f.to < t; });
    if (pair == last || seq < pair->seq) return nullptr;
    const std::uint64_t offset = seq - pair->seq;
    if (offset >= static_cast<std::uint64_t>(last - pair)) return nullptr;
    PendingFrame* const f = pair + offset;
    return f->to == to && f->seq == seq ? f : nullptr;
  };

  // Accepts a data frame at most once; the delivery's buffer is stolen
  // and its header consumed in place.
  const auto accept_frame = [&](PendingFrame& f, Delivery& d) {
    if (f.accepted) {
      ++stats_.duplicate_frames_ignored;
      return;
    }
    f.accepted = true;
    f.delivered = std::move(d.data);
    f.delivered.consume_front(kDataHeaderWords);
    ++accepted_[f.to];
  };
  std::fill(accepted_.begin(), accepted_.end(), 0);

  // Liveness evidence: consecutive protocol attempts in which a probed
  // peer (endpoint of a pending frame) produced no delivery at all. Any
  // observed frame from a rank — data, ACK, even one too damaged to
  // decode — proves it alive, because wire metadata (Delivery::from) is
  // trustworthy in the simulator.
  std::fill(silent_.begin(), silent_.end(), 0);

  // One protocol attempt: transmit the given frames, then run an ACK/NACK
  // round. Both wire trips pass through the fault injector.
  auto run_attempt = [&](const std::vector<std::size_t>& send_idx,
                         bool first, Transport t) {
    // Deliveries the protocol did not keep (damaged, duplicate, ACKs) go
    // back to their shards when the attempt ends.
    const ScopeExit end_attempt([this] {
      clear_each(wire_in_);
      clear_each(ack_in_);
    });
    std::fill(probed_.begin(), probed_.end(), 0);
    std::fill(heard_.begin(), heard_.end(), 0);
    for (const std::size_t idx : send_idx) {
      probed_[frames_[idx].from] = 1;
      probed_[frames_[idx].to] = 1;
    }
    const auto settle_silence = [&] {
      if (!liveness_.enabled) return;
      for (std::size_t r = 0; r < P; ++r) {
        if (probed_[r] == 0) continue;
        if (heard_[r] != 0) {
          silent_[r] = 0;
        } else {
          ++silent_[r];
        }
      }
    };

    for (const std::size_t idx : send_idx) {
      PendingFrame& f = frames_[idx];
      ++f.attempts;
      if (!first) ++stats_.retransmitted_frames;
      Envelope env;
      env.to = f.to;
      env.data = encode_data(machine_.pool(), f.from, f.to, f.seq, f.payload);
      // The payload is goodput exactly once, on its first transmission;
      // headers always — and whole retransmissions — are overhead.
      env.overhead_words = first ? kDataHeaderWords : env.data.size();
      wire_out_[f.from].push_back(std::move(env));
    }
    machine_.exchange_into(wire_out_, wire_in_, t);

    // Each receiver answers every sender it heard a decodable frame from
    // with one ACK frame, senders ascending, entries in arrival order.
    bool any_acks = false;
    const auto by_sender = [](const AckWord& a, const AckWord& b) {
      return a.first < b.first;
    };
    for (std::size_t r = 0; r < P; ++r) {
      ack_words_.clear();
      for (Delivery& d : wire_in_[r]) {
        heard_[d.from] = 1;
        DataHeader h;
        PendingFrame* f =
            decode_data(d, r, h) ? find_frame(d.from, r, h.seq) : nullptr;
        if (f == nullptr) {
          // Header damaged — or, after a header-checksum collision,
          // naming no frame of this exchange: silence, the retry
          // recovers it.
          ++stats_.corrupt_frames_detected;
          continue;
        }
        if (!h.payload_ok) {
          ++stats_.corrupt_frames_detected;
          ++stats_.nack_entries;
          ack_words_.emplace_back(d.from, h.seq << 1);
          continue;
        }
        accept_frame(*f, d);
        // Accept and duplicate alike are (re-)ACKed, so a lost ACK heals.
        ack_words_.emplace_back(d.from, (h.seq << 1) | 1ULL);
      }
      // Only a reordered inbox leaves the senders out of order.
      if (!std::is_sorted(ack_words_.begin(), ack_words_.end(), by_sender)) {
        std::stable_sort(ack_words_.begin(), ack_words_.end(), by_sender);
      }
      for (auto run = ack_words_.begin(); run != ack_words_.end();) {
        const std::size_t sender = run->first;
        const auto run_end = std::find_if(
            run, ack_words_.end(),
            [sender](const AckWord& w) { return w.first != sender; });
        Envelope env;
        env.to = sender;
        env.data = encode_ack(machine_.pool(), r, sender, {run, run_end});
        env.overhead_words = env.data.size();
        ack_out_[r].push_back(std::move(env));
        ++stats_.ack_frames;
        any_acks = true;
        run = run_end;
      }
    }
    if (!any_acks) {
      settle_silence();
      return;
    }

    // ACK/NACK traffic is pure protocol: the round lands on the overhead
    // channel in any exported trace.
    obs::Span ack_span("rex.ack-round", obs::Category::kRetry);
    machine_.exchange_into(ack_out_, ack_in_, Transport::kPointToPoint);
    for (std::size_t s = 0; s < P; ++s) {
      for (const Delivery& d : ack_in_[s]) {
        heard_[d.from] = 1;
        if (!decode_ack(d, s)) {
          ++stats_.corrupt_frames_detected;
          continue;
        }
        for (std::size_t i = kAckHeaderWords; i < d.data.size(); ++i) {
          const std::uint64_t w = dec(d.data[i]);
          // A NACK leaves its frame pending, retried next loop.
          if ((w & 1ULL) == 0) continue;
          PendingFrame* f = find_frame(s, d.from, w >> 1);
          if (f != nullptr) f->acked = true;
        }
      }
    }
    settle_silence();
  };

  unacked_.reserve(frames_.size());
  const auto collect_unacked = [&] {
    unacked_.clear();
    for (std::size_t i = 0; i < frames_.size(); ++i) {
      if (!frames_[i].acked) unacked_.push_back(i);
    }
  };
  std::size_t attempt = 0;
  for (collect_unacked(); !unacked_.empty() && attempt < retry_.max_attempts;
       collect_unacked()) {
    if (attempt > 0) {
      // Exponential backoff: base << (attempt-1), saturating at the cap.
      std::size_t backoff = retry_.backoff_base_rounds;
      for (std::size_t k = 1; k < attempt && backoff < retry_.backoff_cap_rounds;
           ++k) {
        backoff *= 2;
      }
      backoff = std::min(backoff, retry_.backoff_cap_rounds);
      obs::Span backoff_span("rex.backoff", obs::Category::kRetry, backoff);
      machine_.ledger().add_rounds(Channel::kOverhead, backoff);
      stats_.backoff_rounds += backoff;
    }
    if (attempt == 0) {
      run_attempt(unacked_, true, transport);
    } else {
      obs::Span retry_span("rex.retry", obs::Category::kRetry,
                           unacked_.size());
      run_attempt(unacked_, false, Transport::kPointToPoint);
    }
    ++attempt;
  }

  const std::vector<std::size_t>& undelivered = unacked_;
  if (!undelivered.empty()) {
    FaultReport report;
    report.phase = phase_;
    report.exchange_index = exchange_counter_;
    report.attempts_used = attempt;
    for (const std::size_t idx : undelivered) {
      const PendingFrame& f = frames_[idx];
      report.undelivered.push_back(
          FrameFault{f.from, f.to, f.seq, f.payload.size(), f.attempts});
      report.affected_ranks.push_back(f.from);
      report.affected_ranks.push_back(f.to);
    }
    std::sort(report.affected_ranks.begin(), report.affected_ranks.end());
    report.affected_ranks.erase(std::unique(report.affected_ranks.begin(),
                                            report.affected_ranks.end()),
                                report.affected_ranks.end());
    report.injection_log_begin = log_begin;
    report.injection_log_end =
        injector != nullptr ? injector->log().size() : 0;

    if (liveness_.enabled) {
      // Verdict: an undelivered frame's peer that never produced a single
      // delivery for `suspect_after_attempts` consecutive attempts is
      // suspected dead. Silence alone cannot convict: once a peer dies,
      // its neighbours' remaining traffic all targets the corpse, so they
      // go quiet too (nothing deliverable to say) — the membership truth
      // arbitrates, standing in for the out-of-band failure detector a
      // real cluster manager provides. A live-but-quiet rank (fully
      // partitioned link) therefore stays a link fault. The verdict fires
      // under either recovery policy — a degraded replay cannot reach a
      // dead owner.
      std::vector<std::size_t> suspects;
      std::size_t max_silent = 0;
      for (const std::size_t r : report.affected_ranks) {
        if (silent_[r] >= liveness_.suspect_after_attempts &&
            !machine_.alive(r)) {
          suspects.push_back(r);
          max_silent = std::max(max_silent, silent_[r]);
        }
      }
      if (!suspects.empty()) {
        ++stats_.rank_loss_verdicts;
        for (const std::size_t r : suspects) machine_.mark_dead(r);
        RankLossReport loss;
        loss.dead_ranks = suspects;
        loss.phase = phase_;
        loss.exchange_index = exchange_counter_;
        loss.silent_attempts = max_silent;
        loss.undelivered_frames = report.undelivered.size();
        loss.membership_epoch = machine_.membership_epoch();
        loss.injection_log_begin = report.injection_log_begin;
        loss.injection_log_end = report.injection_log_end;
        machine_.record_rank_loss(loss);
        throw RankLossError(std::move(report), std::move(loss));
      }
    }

    if (recovery_ == RecoveryPolicy::kFailFast) {
      throw FaultError(std::move(report));
    }

    // kDegrade: the sender still owns every undelivered payload (the
    // owner-compute invariant — tensor blocks never travel, so each
    // contribution is deterministically replayable). Replay over a clean
    // channel with the injector bypassed, charged entirely as overhead.
    obs::Span replay_span("rex.degraded-replay", obs::Category::kRetry,
                          undelivered.size());
    machine_.set_fault_injector(nullptr);
    for (const std::size_t idx : undelivered) {
      const PendingFrame& f = frames_[idx];
      Envelope env;
      env.to = f.to;
      env.data = encode_data(machine_.pool(), f.from, f.to, f.seq, f.payload);
      env.overhead_words = env.data.size();
      wire_out_[f.from].push_back(std::move(env));
    }
    machine_.exchange_into(wire_out_, wire_in_, Transport::kPointToPoint);
    machine_.set_fault_injector(injector);
    for (std::size_t r = 0; r < P; ++r) {
      for (Delivery& d : wire_in_[r]) {
        DataHeader h;
        PendingFrame* f =
            decode_data(d, r, h) ? find_frame(d.from, r, h.seq) : nullptr;
        STTSV_CHECK(f != nullptr && h.payload_ok,
                    "degraded replay corrupted on a clean channel");
        // A frame whose ACK (not data) was lost is already accepted;
        // the idempotent accept path absorbs the replay copy.
        accept_frame(*f, d);
      }
    }
    stats_.degraded_deliveries += undelivered.size();
    report.degraded = true;
    reports_.push_back(std::move(report));
  }

  // Assemble inboxes in the fault-free machine's order: walking the frame
  // table hands each receiver its senders ascending and, per sender,
  // sequence numbers ascending (== the sender's post-sort envelope order).
  std::vector<std::vector<Delivery>> inboxes(P);
  for (std::size_t r = 0; r < P; ++r) inboxes[r].reserve(accepted_[r]);
  std::size_t delivered = 0;
  for (PendingFrame& f : frames_) {
    if (!f.accepted) continue;
    inboxes[f.to].push_back(Delivery{f.from, std::move(f.delivered)});
    ++delivered;
  }
  if (delivered != frames_.size()) {
    // Only reachable when a dead endpoint swallowed frames on the clean
    // degraded channel (the machine drops them below the protocol): a
    // replay cannot heal rank loss, so surface a structured failure
    // instead of an internal-invariant crash.
    FaultReport incomplete;
    incomplete.phase = phase_;
    incomplete.exchange_index = exchange_counter_;
    incomplete.attempts_used = retry_.max_attempts;
    incomplete.degraded = true;
    for (const PendingFrame& f : frames_) {
      if (!f.accepted) {
        incomplete.undelivered.push_back(
            FrameFault{f.from, f.to, f.seq, f.payload.size(), f.attempts});
        incomplete.affected_ranks.push_back(f.from);
        incomplete.affected_ranks.push_back(f.to);
      }
    }
    std::sort(incomplete.affected_ranks.begin(),
              incomplete.affected_ranks.end());
    incomplete.affected_ranks.erase(
        std::unique(incomplete.affected_ranks.begin(),
                    incomplete.affected_ranks.end()),
        incomplete.affected_ranks.end());
    incomplete.injection_log_begin = log_begin;
    incomplete.injection_log_end =
        injector != nullptr ? injector->log().size() : 0;
    throw FaultError(std::move(incomplete));
  }
  return inboxes;
}

void ReliableExchange::publish_metrics(obs::MetricsRegistry& out,
                                       const std::string& prefix) const {
  out.set_counter(prefix + ".exchanges", stats_.exchanges);
  out.set_counter(prefix + ".data_frames", stats_.data_frames);
  out.set_counter(prefix + ".retransmitted_frames",
                  stats_.retransmitted_frames);
  out.set_counter(prefix + ".ack_frames", stats_.ack_frames);
  out.set_counter(prefix + ".nack_entries", stats_.nack_entries);
  out.set_counter(prefix + ".corrupt_frames_detected",
                  stats_.corrupt_frames_detected);
  out.set_counter(prefix + ".duplicate_frames_ignored",
                  stats_.duplicate_frames_ignored);
  out.set_counter(prefix + ".degraded_deliveries",
                  stats_.degraded_deliveries);
  out.set_counter(prefix + ".backoff_rounds", stats_.backoff_rounds);
  out.set_counter(prefix + ".rank_loss_verdicts", stats_.rank_loss_verdicts);
  out.set_counter(prefix + ".degraded_reports", reports_.size());
}

}  // namespace sttsv::simt
