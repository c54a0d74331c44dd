#include "elastic/recovery.hpp"

#include <algorithm>
#include <cstring>

#include "obs/trace.hpp"
#include "support/check.hpp"

namespace sttsv::elastic {

namespace {

using partition::Share;

/// Words of x owned by `role`: Σ_{i∈R_role} |share(i, role)|.
std::size_t role_share_words(const partition::TetraPartition& part,
                             const partition::VectorDistribution& dist,
                             std::size_t role) {
  std::size_t words = 0;
  for (const std::size_t i : part.R(role)) {
    words += dist.share(i, role).length;
  }
  return words;
}

}  // namespace

RedistributionPlan plan_redistribution(
    const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const BlockAssignment& from,
    const BlockAssignment& to) {
  STTSV_REQUIRE(from.num_roles() == to.num_roles(),
                "assignments cover different role sets");
  RedistributionPlan plan;
  plan.coordinator = to.live_ranks().front();
  const std::size_t b = dist.block_length_b();
  for (std::size_t role = 0; role < from.num_roles(); ++role) {
    plan.from_scratch_words += role_share_words(part, dist, role);
    if (from.host(role) == to.host(role)) continue;
    RoleMove move;
    move.role = role;
    move.to = to.host(role);
    move.words =
        move.to == plan.coordinator ? 0 : role_share_words(part, dist, role);
    plan.planned_words += move.words;
    plan.regenerated_entries += part.stored_entries(role, b);
    plan.moves.push_back(move);
  }
  return plan;
}

std::uint64_t execute_redistribution(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const std::vector<double>& x,
    const RedistributionPlan& plan) {
  STTSV_REQUIRE(x.size() == dist.logical_n(),
                "x must have the distribution's logical length");
  simt::Machine& machine = exchanger.machine();
  obs::Span span("recovery.redistribute", obs::Category::kRecovery,
                 plan.planned_words);
  const std::size_t b = dist.block_length_b();
  std::vector<double> x_pad(dist.padded_n(), 0.0);
  std::copy(x.begin(), x.end(), x_pad.begin());

  const std::uint64_t before =
      machine.ledger().total_words(simt::Channel::kRecovery);

  // One aggregated payload per adopting host: moved roles ascending,
  // blocks in R_role order, the role's share slice of each.
  std::vector<std::size_t> hosts;
  for (const RoleMove& m : plan.moves) {
    if (m.words > 0) hosts.push_back(m.to);
  }
  std::sort(hosts.begin(), hosts.end());
  hosts.erase(std::unique(hosts.begin(), hosts.end()), hosts.end());

  std::vector<std::vector<simt::Envelope>> outboxes(machine.num_ranks());
  for (const std::size_t h : hosts) {
    std::size_t words = 0;
    for (const RoleMove& m : plan.moves) {
      if (m.to == h) words += m.words;
    }
    simt::PooledBuffer buf = machine.pool().acquire(plan.coordinator, words);
    for (const RoleMove& m : plan.moves) {
      if (m.to != h || m.words == 0) continue;
      for (const std::size_t i : part.R(m.role)) {
        const Share s = dist.share(i, m.role);
        buf.append(x_pad.data() + i * b + s.offset, s.length);
      }
    }
    simt::Envelope env;
    env.to = h;
    env.data = std::move(buf);
    env.recovery = true;
    outboxes[plan.coordinator].push_back(std::move(env));
  }
  exchanger.set_phase("redistribution");
  auto inboxes =
      exchanger.exchange(std::move(outboxes), simt::Transport::kPointToPoint);

  // Verify delivery word-for-word against the source slices: the walk is
  // deterministic, so the adopting host's view must equal the donor's.
  for (const std::size_t h : hosts) {
    std::size_t expect = 0;
    for (const RoleMove& m : plan.moves) {
      if (m.to == h) expect += m.words;
    }
    std::size_t got = 0;
    for (const simt::Delivery& d : inboxes[h]) {
      STTSV_CHECK(d.from == plan.coordinator,
                  "unexpected redistribution sender");
      std::size_t cursor = 0;
      for (const RoleMove& m : plan.moves) {
        if (m.to != h || m.words == 0) continue;
        for (const std::size_t i : part.R(m.role)) {
          const Share s = dist.share(i, m.role);
          STTSV_CHECK(std::memcmp(d.data.data() + cursor,
                                  x_pad.data() + i * b + s.offset,
                                  s.length * sizeof(double)) == 0,
                      "redistributed share diverges from source");
          cursor += s.length;
        }
      }
      got += d.data.size();
    }
    STTSV_CHECK(got == expect, "redistribution delivery incomplete");
  }

  return machine.ledger().total_words(simt::Channel::kRecovery) - before;
}

RecoveryOutcome run_with_recovery(simt::Machine& machine,
                                  const partition::TetraPartition& part,
                                  const partition::VectorDistribution& dist,
                                  const tensor::SymTensor3& a,
                                  const std::vector<double>& x,
                                  const RecoveryOptions& opts,
                                  std::optional<BlockAssignment> initial) {
  RecoveryOutcome out{{},
                      initial.has_value()
                          ? std::move(*initial)
                          : BlockAssignment::identity(part.num_processors()),
                      {},
                      {},
                      0,
                      0,
                      0};
  for (;;) {
    simt::ReliableExchange rex(machine, opts.retry,
                               simt::RecoveryPolicy::kFailFast,
                               opts.liveness);
    try {
      out.result =
          core::parallel_sttsv(rex, part, dist, a, x, opts.transport,
                               out.assignment.hosts());
      return out;
    } catch (const simt::RankLossError& e) {
      if (out.shrinks >= opts.max_shrinks) throw;
      out.reports.push_back(e.rank_loss());
      out.detection_attempts += e.rank_loss().silent_attempts;

      obs::Span span("recovery.shrink", obs::Category::kRecovery,
                     e.rank_loss().dead_ranks.size());
      BlockAssignment next = out.assignment.shrink(machine.dead_ranks());
      next.validate();
      RedistributionPlan plan =
          plan_redistribution(part, dist, out.assignment, next);
      // Direct, not `rex`: the protocol rejects recovery envelopes.
      simt::DirectExchange direct(machine);
      const std::uint64_t measured =
          execute_redistribution(direct, part, dist, x, plan);
      STTSV_CHECK(measured == plan.planned_words,
                  "measured redistribution diverges from the planned diff");
      out.redistribution_words += measured;
      out.redistributions.push_back(std::move(plan));
      out.assignment = next;
      ++out.shrinks;
    }
  }
}

}  // namespace sttsv::elastic
