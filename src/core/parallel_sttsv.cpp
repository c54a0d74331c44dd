#include "core/parallel_sttsv.hpp"

#include <algorithm>
#include <utility>

#include "core/panel_kernels.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace sttsv::core {

namespace {

using partition::ExchangeWalk;
using partition::Share;
using partition::TetraPartition;
using partition::VectorDistribution;
using simt::Delivery;
using simt::Envelope;
using Leg = HostSchedule::Leg;
using Route = HostSchedule::Route;

}  // namespace

HostSchedule::HostSchedule(const ExchangeWalk& w,
                           const std::vector<std::size_t>& placement)
    : walk(w),
      host_of(w.num_processors()),
      roles(w.num_processors()),
      routes(w.num_processors()),
      local(w.num_processors()),
      x_inbox(w.num_processors()),
      y_inbox(w.num_processors()),
      contributions(w.num_processors()) {
  const std::size_t P = w.num_processors();
  STTSV_REQUIRE(placement.empty() || placement.size() == P,
                "placement must host every partition role");
  for (std::size_t role = 0; role < P; ++role) {
    const std::size_t h = placement.empty() ? role : placement[role];
    STTSV_REQUIRE(h < P, "every role must be placed on a live rank");
    host_of[role] = h;
    roles[h].push_back(role);
    contributions[role].reserve(w.exchanges(role).size());
  }
  // Lift the role-pair walk onto host pairs: co-hosted role pairs are
  // local legs, off the wire and the ledger; the rest form one route per
  // destination host. As many wire legs enter a host as leave it, which
  // bounds its inboxes.
  std::vector<Leg> legs;
  for (std::size_t hf = 0; hf < P; ++hf) {
    if (roles[hf].empty()) continue;
    hosts.push_back(hf);
    legs.clear();
    for (const std::size_t sp : roles[hf]) {
      for (const ExchangeWalk::PeerExchange& ex : walk.exchanges(sp)) {
        (host_of[ex.peer] == hf ? local[hf] : legs).push_back(Leg{sp, &ex});
      }
    }
    std::ranges::stable_sort(
        legs, {}, [&](const Leg& l) { return host_of[l.ex->peer]; });
    routes[hf].reserve(legs.size());
    x_inbox[hf].reserve(legs.size());
    y_inbox[hf].reserve(legs.size());
    for (const Leg& leg : legs) {
      const std::size_t ht = host_of[leg.ex->peer];
      if (routes[hf].empty() || routes[hf].back().to != ht) {
        routes[hf].push_back(Route{hf, ht, {}, 0, 0});
      }
      routes[hf].back().legs.push_back(leg);
      routes[hf].back().x_words += leg.ex->x_words;
      routes[hf].back().y_words += leg.ex->y_words;
    }
  }
  // Walking sending hosts ascending fills every inbox in sender order.
  // Contributions reduce in sending-role order at every placement, so y
  // stays bitwise identical.
  for (const std::size_t hf : hosts) {
    for (const Leg& leg : local[hf]) contributions[leg.ex->peer].push_back(leg);
    for (Route& r : routes[hf]) {
      if (r.x_words > 0) x_inbox[r.to].push_back(&r);
      if (r.y_words > 0) y_inbox[r.to].push_back(&r);
      std::size_t offset = 0;
      for (Leg& leg : r.legs) {
        if (r.y_words > 0) leg.slot = y_inbox[r.to].size() - 1;
        leg.offset = offset;
        offset += leg.ex->y_words;
        contributions[leg.ex->peer].push_back(leg);
      }
    }
  }
  for (std::vector<Leg>& into : contributions) {
    std::ranges::sort(into, {}, &Leg::role);
  }
}

ParallelRunResult parallel_sttsv(simt::Machine& machine,
                                 const TetraPartition& part,
                                 const VectorDistribution& dist,
                                 const tensor::SymTensor3& a,
                                 const std::vector<double>& x,
                                 simt::Transport transport) {
  simt::DirectExchange direct(machine);
  return parallel_sttsv(direct, part, dist, a, x, transport);
}

ParallelRunResult parallel_sttsv(simt::Exchanger& exchanger,
                                 const TetraPartition& part,
                                 const VectorDistribution& dist,
                                 const tensor::SymTensor3& a,
                                 const std::vector<double>& x,
                                 simt::Transport transport,
                                 const std::vector<std::size_t>& placement) {
  PanelRunResult run =
      parallel_sttsv_panel(exchanger, part, dist, ExchangeWalk(part, dist), a,
                           {x}, transport, placement);
  ParallelRunResult result;
  result.y = std::move(run.y[0]);
  result.ternary_mults = std::move(run.ternary_mults);
  return result;
}

PanelRunResult parallel_sttsv_panel(simt::Exchanger& exchanger,
                                    const TetraPartition& part,
                                    const VectorDistribution& dist,
                                    const ExchangeWalk& walk,
                                    const tensor::SymTensor3& a,
                                    const std::vector<std::vector<double>>& x,
                                    simt::Transport transport,
                                    const std::vector<std::size_t>& placement) {
  return parallel_sttsv_panel(exchanger, part, dist,
                              HostSchedule(walk, placement), a, x, transport);
}

PanelRunResult parallel_sttsv_panel(simt::Exchanger& exchanger,
                                    const TetraPartition& part,
                                    const VectorDistribution& dist,
                                    const HostSchedule& schedule,
                                    const tensor::SymTensor3& a,
                                    const std::vector<std::vector<double>>& x,
                                    simt::Transport transport) {
  simt::Machine& machine = exchanger.machine();
  const ExchangeWalk& walk = schedule.walk;
  const std::size_t P = part.num_processors();
  const std::size_t b = dist.block_length_b();
  const std::size_t n = dist.logical_n();
  const std::size_t B = x.size();
  STTSV_REQUIRE(machine.num_ranks() == P,
                "machine rank count must match partition");
  STTSV_REQUIRE(walk.num_processors() == P,
                "exchange walk must match partition");
  STTSV_REQUIRE(a.dim() == n, "tensor dimension must match distribution");
  STTSV_REQUIRE(B >= 1, "panel must contain at least one vector");
  for (const auto& xv : x) {
    STTSV_REQUIRE(xv.size() == n, "input vector length mismatch");
  }
  // Membership can change between runs: liveness is checked every run.
  const std::vector<std::size_t>& hosts = schedule.hosts;
  for (const std::size_t h : hosts) {
    STTSV_REQUIRE(machine.alive(h), "every role must be placed on a live rank");
  }

  // Every word count below is per vector and scales by B. Element g of
  // lane v sits at g*B + v in the padded panels, and element e of row
  // block i of role r at (walk.local_index(r, i)*b + e)*B in its blocks.
  const auto pad = [&](std::vector<double>& panel, std::size_t i,
                       std::size_t e) {
    return panel.data() + (i * b + e) * B;
  };
  const auto at = [&](std::vector<simt::PooledBuffer>& blocks,
                      std::size_t role, std::size_t i, std::size_t e) {
    return blocks[role].data() + (walk.local_index(role, i) * b + e) * B;
  };
  // Leases a role's zeroed row blocks from its host's pool shard.
  const auto lease = [&](simt::PooledBuffer& blk, std::size_t h,
                         std::size_t role) {
    blk = machine.pool().acquire(h, part.R(role).size() * b * B);
    blk.resize(part.R(role).size() * b * B);
  };
  // A phase's inboxes must match the schedule's, sender by sender and size
  // by size, before any is read: a lost delivery would leave a wrong y.
  const auto check_inboxes = [&](const std::vector<std::vector<Delivery>>& in,
                                 bool y_phase) {
    STTSV_CHECK(in.size() == P, "exchange must return one inbox per rank");
    for (std::size_t h = 0; h < P; ++h) {
      const auto& want = y_phase ? schedule.y_inbox[h] : schedule.x_inbox[h];
      STTSV_CHECK(in[h].size() == want.size(), "lost or extra delivery");
      for (std::size_t i = 0; i < want.size(); ++i) {
        const std::size_t words = y_phase ? want[i]->y_words : want[i]->x_words;
        STTSV_CHECK(in[h][i].from == want[i]->from &&
                        in[h][i].data.size() == words * B,
                    "delivery differs from its route's sender or size");
      }
    }
  };

  // Padded lane-interleaved copy of the panel.
  std::vector<double> x_pad(dist.padded_n() * B, 0.0);
  for (std::size_t v = 0; v < B; ++v) {
    for (std::size_t g = 0; g < n; ++g) x_pad[g * B + v] = x[v][g];
  }

  // ---- Phase 1: exchange x shares (Algorithm 5 lines 10-21). ----------
  // Local row blocks are seeded with the role's own share (and co-hosted
  // roles' shares); every delivery then writes a disjoint (block,
  // sender-share) slice, so the landing order is irrelevant. Leasing and
  // seeding run on the worker threads (run_ranks) so each host's block
  // storage is first-touched by the thread that will feed it to the
  // kernels — the NUMA placement half of DESIGN.md §17. Host programs
  // stay disjoint (host h writes only its roles' blocks), so the
  // parallel seed is bitwise identical to the sequential one.
  obs::Span x_phase("sttsv.x-panel", obs::Category::kSuperstep, B);
  std::vector<simt::PooledBuffer> x_blk(P);
  std::vector<simt::PooledBuffer> y_blk(P);
  machine.run_ranks(hosts, [&](std::size_t h) {
    for (const std::size_t role : schedule.roles[h]) {
      lease(x_blk[role], h, role);
      for (const std::size_t i : part.R(role)) {
        const Share s = dist.share(i, role);
        std::copy_n(pad(x_pad, i, s.offset), s.length * B,
                    at(x_blk, role, i, s.offset));
      }
    }
    for (const Leg& leg : schedule.local[h]) {
      const std::size_t rp = leg.ex->peer;
      for (const ExchangeWalk::BlockSlice& s : leg.ex->slices) {
        std::copy_n(pad(x_pad, s.block, s.sender.offset), s.sender.length * B,
                    at(x_blk, rp, s.block, s.sender.offset));
      }
    }
  });

  // Pack: one envelope per host pair carrying the sender's share of every
  // common row block, in the route's walk order — receivers unpack with
  // the same walk. Buffers are leased exactly sized from the sender's
  // pool shard. The whole phase is one exchange (DESIGN.md §12).
  exchanger.set_phase("x-panel");
  std::vector<std::vector<Envelope>> x_out(P);
  for (const std::size_t hf : hosts) {
    x_out[hf].reserve(schedule.routes[hf].size());
    for (const Route& r : schedule.routes[hf]) {
      if (r.x_words == 0) continue;
      simt::PooledBuffer buf = machine.pool().acquire(hf, r.x_words * B);
      for (const Leg& leg : r.legs) {
        for (const ExchangeWalk::BlockSlice& s : leg.ex->slices) {
          buf.append(pad(x_pad, s.block, s.sender.offset),
                     s.sender.length * B);
        }
      }
      x_out[hf].push_back(Envelope{r.to, std::move(buf)});
    }
  }
  {
    // Scoped so the delivered slabs return to their pool shards before
    // the y phase leases its buffers.
    const std::vector<std::vector<Delivery>> x_in =
        exchanger.exchange(std::move(x_out), transport);
    check_inboxes(x_in, false);
    for (std::size_t ht = 0; ht < P; ++ht) {
      for (std::size_t slot = 0; slot < x_in[ht].size(); ++slot) {
        const double* src = x_in[ht][slot].data.data();
        for (const Leg& leg : schedule.x_inbox[ht][slot]->legs) {
          for (const ExchangeWalk::BlockSlice& s : leg.ex->slices) {
            std::copy_n(src, s.sender.length * B,
                        at(x_blk, leg.ex->peer, s.block, s.sender.offset));
            src += s.sender.length * B;
          }
        }
      }
    }
  }
  x_phase.close();

  // ---- Phases 2+3: block kernels feeding the partial-y exchange. ------
  // Every host runs its kernels in one superstep (host programs stay
  // independent — host h reads and writes only its roles' blocks), then
  // the partial-y messages go out in one exchange. The reduction below
  // walks each role's contributions in sending-role order, which pins
  // the exact floating-point order of the identity schedule at every
  // placement.
  PanelRunResult result;
  result.ternary_mults.assign(P, 0);

  obs::Span y_phase("sttsv.y-panel", obs::Category::kSuperstep, B);
  exchanger.set_phase("y-panel");
  machine.run_ranks(hosts, [&](std::size_t h) {
    for (const std::size_t role : schedule.roles[h]) {
      lease(y_blk[role], h, role);
      for (const partition::BlockCoord& coord : walk.owned(role)) {
        PanelBuffers buf;
        buf.x[0] = at(x_blk, role, coord.i, 0);
        buf.x[1] = at(x_blk, role, coord.j, 0);
        buf.x[2] = at(x_blk, role, coord.k, 0);
        buf.y[0] = at(y_blk, role, coord.i, 0);
        buf.y[1] = at(y_blk, role, coord.j, 0);
        buf.y[2] = at(y_blk, role, coord.k, 0);
        result.ternary_mults[role] += apply_block_panel(a, coord, b, B, buf);
      }
      x_blk[role].release();  // frees the inputs early
    }
  });
  std::vector<std::vector<Envelope>> y_out(P);
  for (const std::size_t hf : hosts) {
    y_out[hf].reserve(schedule.routes[hf].size());
    for (const Route& r : schedule.routes[hf]) {
      if (r.y_words == 0) continue;
      // Send the *receiving role's* share of each common row block.
      simt::PooledBuffer buf = machine.pool().acquire(hf, r.y_words * B);
      for (const Leg& leg : r.legs) {
        for (const ExchangeWalk::BlockSlice& s : leg.ex->slices) {
          buf.append(at(y_blk, leg.role, s.block, s.receiver.offset),
                     s.receiver.length * B);
        }
      }
      y_out[hf].push_back(Envelope{r.to, std::move(buf)});
    }
  }
  const std::vector<std::vector<Delivery>> y_in =
      exchanger.exchange(std::move(y_out), transport);
  check_inboxes(y_in, true);

  // Own share = local partial + every contribution, sending roles
  // ascending — wire-delivered (packed inside a delivery) and co-hosted
  // (read in place from the sender's y blocks) alike.
  std::vector<double> y_pad(dist.padded_n() * B, 0.0);
  const auto add = [&](std::size_t i, std::size_t offset, std::size_t length,
                       const double* src) {
    double* dst = pad(y_pad, i, offset);
    for (std::size_t e = 0; e < length * B; ++e) dst[e] += src[e];
  };
  for (std::size_t rp = 0; rp < P; ++rp) {
    for (const std::size_t i : part.R(rp)) {
      const Share s = dist.share(i, rp);
      add(i, s.offset, s.length, at(y_blk, rp, i, s.offset));
    }
    const std::vector<Delivery>& inbox = y_in[schedule.host_of[rp]];
    for (const Leg& c : schedule.contributions[rp]) {
      const double* data = c.slot == HostSchedule::kInPlace
                               ? nullptr
                               : inbox[c.slot].data.data() + c.offset * B;
      for (const ExchangeWalk::BlockSlice& s : c.ex->slices) {
        const Share& r = s.receiver;
        add(s.block, r.offset, r.length,
            data != nullptr ? data : at(y_blk, c.role, s.block, r.offset));
        if (data != nullptr) data += r.length * B;
      }
    }
  }

  machine.ledger().verify_conservation();
  result.y.assign(B, std::vector<double>(n));
  for (std::size_t v = 0; v < B; ++v) {
    for (std::size_t g = 0; g < n; ++g) result.y[v][g] = y_pad[g * B + v];
  }
  return result;
}

}  // namespace sttsv::core
