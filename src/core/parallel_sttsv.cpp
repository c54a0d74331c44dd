#include "core/parallel_sttsv.hpp"

#include <algorithm>
#include <map>
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

/// One walk record carried by a host-pair envelope: the sending role and
/// its exchange with the receiving role (ex->peer).
struct Leg {
  std::size_t role = 0;
  const ExchangeWalk::PeerExchange* ex = nullptr;
};

/// Everything one host sends one other host per phase, in the layout
/// both ends replay: sending roles ascending, then receiving roles
/// ascending, then common blocks ascending. At the identity placement
/// every route is exactly one walk record.
struct Route {
  std::size_t to = 0;
  std::vector<Leg> legs;
  std::size_t x_words = 0;
  std::size_t y_words = 0;
};

/// A partial-y contribution into one receiving role. `data` points at
/// the leg's packed receiver shares inside a delivery; nullptr marks a
/// co-hosted sender whose partials are read in place from its y blocks.
struct Contribution {
  std::size_t from = 0;
  const double* data = nullptr;
  const ExchangeWalk::PeerExchange* ex = nullptr;
};

}  // namespace

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
  result.max_words_sent = run.maxima.words_sent;
  result.max_words_received = run.maxima.words_received;
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
  simt::Machine& machine = exchanger.machine();
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
  STTSV_REQUIRE(placement.empty() || placement.size() == P,
                "placement must host every partition role");

  // roles_by_host[h]: the roles rank h runs, ascending (empty off the
  // live set). Every walk below iterates these.
  std::vector<std::vector<std::size_t>> roles_by_host(P);
  bool identity = true;
  for (std::size_t role = 0; role < P; ++role) {
    const std::size_t h = placement.empty() ? role : placement[role];
    STTSV_REQUIRE(h < P && machine.alive(h),
                  "every role must be placed on a live rank");
    roles_by_host[h].push_back(role);
    identity = identity && h == role;
  }
  std::vector<std::size_t> hosts;
  for (std::size_t h = 0; h < P; ++h) {
    if (!roles_by_host[h].empty()) hosts.push_back(h);
  }

  // Lift the role-pair walk onto host pairs. Role pairs on one host
  // become local legs and never touch the wire or the ledger.
  std::vector<std::vector<Route>> routes(P);  // per host, ascending `to`
  std::vector<std::vector<Leg>> local(P);
  for (const std::size_t hf : hosts) {
    std::map<std::size_t, Route> by_host;
    for (const std::size_t sp : roles_by_host[hf]) {
      for (const ExchangeWalk::PeerExchange& ex : walk.exchanges(sp)) {
        const std::size_t ht =
            placement.empty() ? ex.peer : placement[ex.peer];
        if (ht == hf) {
          local[hf].push_back(Leg{sp, &ex});
          continue;
        }
        Route& r = by_host[ht];
        r.to = ht;
        r.legs.push_back(Leg{sp, &ex});
        r.x_words += ex.x_words;
        r.y_words += ex.y_words;
      }
    }
    for (auto& [ht, r] : by_host) routes[hf].push_back(std::move(r));
  }
  const auto route_between = [&](std::size_t from,
                                 std::size_t to) -> const Route& {
    const auto& rs = routes[from];
    const auto it = std::lower_bound(
        rs.begin(), rs.end(), to,
        [](const Route& r, std::size_t host) { return r.to < host; });
    STTSV_CHECK(it != rs.end() && it->to == to,
                "delivery from a host outside the walk");
    return *it;
  };
  // Every word count below is per vector and scales by B. Element g of
  // lane v sits at g*B + v in the padded panels, and element e of row
  // block i of role r at (walk.local_index(r, i)*b + e)*B in its blocks.
  const auto pad = [&](std::vector<double>& panel, std::size_t i,
                       std::size_t e) {
    return panel.data() + (i * b + e) * B;
  };
  const auto at = [&](std::vector<double>& blocks, std::size_t role,
                      std::size_t i, std::size_t e) {
    return blocks.data() + (walk.local_index(role, i) * b + e) * B;
  };

  // Padded lane-interleaved copy of the panel.
  std::vector<double> x_pad(dist.padded_n() * B, 0.0);
  for (std::size_t v = 0; v < B; ++v) {
    for (std::size_t g = 0; g < n; ++g) x_pad[g * B + v] = x[v][g];
  }

  // ---- Phase 1: exchange x shares (Algorithm 5 lines 10-21). ----------
  // Local row blocks are seeded with the role's own share (and co-hosted
  // roles' shares); every delivery then writes a disjoint (block,
  // sender-share) slice, so the landing order is irrelevant. Seeding
  // runs on the worker threads (run_ranks) so each host's block storage
  // is first-touched by the thread that will feed it to the kernels —
  // the NUMA placement half of DESIGN.md §17. Host programs
  // stay disjoint (host h writes only its roles' blocks), so the
  // parallel seed is bitwise identical to the sequential one.
  obs::Span x_phase("sttsv.x-panel", obs::Category::kSuperstep, B);
  std::vector<std::vector<double>> x_loc(P);
  machine.run_ranks(hosts, [&](std::size_t h) {
    for (const std::size_t role : roles_by_host[h]) {
      x_loc[role].assign(part.R(role).size() * b * B, 0.0);
      for (const std::size_t i : part.R(role)) {
        const Share s = dist.share(i, role);
        std::copy_n(pad(x_pad, i, s.offset), s.length * B,
                    at(x_loc[role], role, i, s.offset));
      }
    }
    for (const Leg& leg : local[h]) {
      const std::size_t rp = leg.ex->peer;
      for (const ExchangeWalk::BlockSlice& s : leg.ex->slices) {
        std::copy_n(pad(x_pad, s.block, s.sender.offset), s.sender.length * B,
                    at(x_loc[rp], rp, s.block, s.sender.offset));
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
    for (const Route& r : routes[hf]) {
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
    for (std::size_t ht = 0; ht < x_in.size(); ++ht) {
      for (const Delivery& d : x_in[ht]) {
        std::size_t cursor = 0;
        for (const Leg& leg : route_between(d.from, ht).legs) {
          const std::size_t rp = leg.ex->peer;
          for (const ExchangeWalk::BlockSlice& s : leg.ex->slices) {
            const std::size_t words = s.sender.length * B;
            STTSV_CHECK(cursor + words <= d.data.size(),
                        "x delivery shorter than expected");
            std::copy_n(d.data.data() + cursor, words,
                        at(x_loc[rp], rp, s.block, s.sender.offset));
            cursor += words;
          }
        }
        STTSV_CHECK(cursor == d.data.size(),
                    "x delivery longer than expected");
      }
    }
  }
  x_phase.close();

  // ---- Phases 2+3: block kernels feeding the partial-y exchange. ------
  // Every host runs its kernels in one superstep (host programs stay
  // independent — host h reads and writes only its roles' blocks), then
  // the partial-y messages go out in one exchange. The reduction below
  // re-sorts contributions by sending role, which pins the exact
  // floating-point order of the identity schedule at every placement.
  std::vector<std::vector<double>> y_loc(P);
  PanelRunResult result;
  result.ternary_mults.assign(P, 0);

  // Active-message transports run the reduction at the target instead of
  // returning deliveries (DESIGN.md §16): local partials are seeded into
  // y_pad as soon as each rank's kernels finish (disjoint own-share
  // slices, so the host-threaded rank programs never collide), and a
  // handler registered below replays the walk for every landed payload.
  // Both happen in the local-first, senders-ascending order of the
  // two-sided reduction, so y is bitwise identical. Only at the identity
  // placement: there every host is one role, so landing order is role
  // order.
  const bool am_reduce = identity && exchanger.supports_handler_delivery();
  std::vector<double> y_pad(dist.padded_n() * B, 0.0);
  const auto add_own_share = [&](std::size_t role) {
    for (const std::size_t i : part.R(role)) {
      const Share s = dist.share(i, role);
      const double* src = at(y_loc[role], role, i, s.offset);
      double* dst = pad(y_pad, i, s.offset);
      for (std::size_t e = 0; e < s.length * B; ++e) dst[e] += src[e];
    }
  };
  // Adds one contribution's receiver shares into y_pad, slices ascending.
  const auto add_contribution = [&](const Contribution& c) {
    std::size_t cursor = 0;
    for (const ExchangeWalk::BlockSlice& s : c.ex->slices) {
      const std::size_t words = s.receiver.length * B;
      const double* src =
          c.data != nullptr
              ? c.data + cursor
              : at(y_loc[c.from], c.from, s.block, s.receiver.offset);
      double* dst = pad(y_pad, s.block, s.receiver.offset);
      for (std::size_t e = 0; e < words; ++e) dst[e] += src[e];
      cursor += words;
    }
  };
  // Splits one y payload from host `from` into per-leg contributions.
  const auto for_each_leg = [&](std::size_t from, std::size_t to,
                                const double* data, std::size_t words,
                                const auto& visit) {
    std::size_t cursor = 0;
    for (const Leg& leg : route_between(from, to).legs) {
      STTSV_CHECK(cursor + leg.ex->y_words * B <= words,
                  "y delivery shorter than expected");
      visit(Contribution{leg.role, data + cursor, leg.ex});
      cursor += leg.ex->y_words * B;
    }
    STTSV_CHECK(cursor == words, "y delivery longer than expected");
  };

  obs::Span y_phase("sttsv.y-panel", obs::Category::kSuperstep, B);
  exchanger.set_phase("y-panel");
  machine.run_ranks(hosts, [&](std::size_t h) {
    for (const std::size_t role : roles_by_host[h]) {
      y_loc[role].assign(part.R(role).size() * b * B, 0.0);
      for (const partition::BlockCoord& coord : walk.owned(role)) {
        PanelBuffers buf;
        buf.x[0] = at(x_loc[role], role, coord.i, 0);
        buf.x[1] = at(x_loc[role], role, coord.j, 0);
        buf.x[2] = at(x_loc[role], role, coord.k, 0);
        buf.y[0] = at(y_loc[role], role, coord.i, 0);
        buf.y[1] = at(y_loc[role], role, coord.j, 0);
        buf.y[2] = at(y_loc[role], role, coord.k, 0);
        result.ternary_mults[role] += apply_block_panel(a, coord, b, B, buf);
      }
      x_loc[role] = std::vector<double>();  // frees the inputs early
      if (am_reduce) add_own_share(role);
    }
  });
  std::vector<std::vector<Envelope>> y_out(P);
  for (const std::size_t hf : hosts) {
    for (const Route& r : routes[hf]) {
      if (r.y_words == 0) continue;
      // Send the *receiving role's* share of each common row block.
      simt::PooledBuffer buf = machine.pool().acquire(hf, r.y_words * B);
      for (const Leg& leg : r.legs) {
        for (const ExchangeWalk::BlockSlice& s : leg.ex->slices) {
          buf.append(
              at(y_loc[leg.role], leg.role, s.block, s.receiver.offset),
              s.receiver.length * B);
        }
      }
      y_out[hf].push_back(Envelope{r.to, std::move(buf)});
    }
  }
  if (am_reduce) {
    // Remote-reduce handler: ran once per landed payload, targets then
    // origins ascending — the same walk as the two-sided loop below.
    exchanger.set_delivery_handler(
        [&](std::size_t target, std::size_t from, const double* data,
            std::size_t words) {
          for_each_leg(from, target, data, words, add_contribution);
        });
  }
  const std::vector<std::vector<Delivery>> y_in =
      exchanger.exchange(std::move(y_out), transport);
  if (am_reduce) {
    exchanger.set_delivery_handler({});
  }

  // Own share = local partial + every contribution, sending roles
  // ascending — wire-delivered and co-hosted alike. In AM mode the
  // handler above already did both halves and y_in stays empty.
  if (!am_reduce) {
    std::vector<std::vector<Contribution>> contrib(P);
    for (std::size_t ht = 0; ht < P; ++ht) {
      for (const Delivery& d : y_in[ht]) {
        for_each_leg(d.from, ht, d.data.data(), d.data.size(),
                     [&](const Contribution& c) {
                       contrib[c.ex->peer].push_back(c);
                     });
      }
      for (const Leg& leg : local[ht]) {
        contrib[leg.ex->peer].push_back(
            Contribution{leg.role, nullptr, leg.ex});
      }
    }
    for (std::size_t rp = 0; rp < P; ++rp) {
      std::stable_sort(contrib[rp].begin(), contrib[rp].end(),
                       [](const Contribution& ca, const Contribution& cb) {
                         return ca.from < cb.from;
                       });
      add_own_share(rp);
      for (const Contribution& c : contrib[rp]) add_contribution(c);
    }
  }

  machine.ledger().verify_conservation();
  result.y.assign(B, std::vector<double>(n));
  for (std::size_t v = 0; v < B; ++v) {
    for (std::size_t g = 0; g < n; ++g) result.y[v][g] = y_pad[g * B + v];
  }
  result.maxima = machine.ledger().maxima();
  return result;
}

}  // namespace sttsv::core
