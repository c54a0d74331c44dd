#include "hier/compose.hpp"

#include <algorithm>
#include <iterator>

#include "support/check.hpp"

namespace sttsv::hier {

namespace {

using partition::TetraPartition;
using partition::VectorDistribution;

/// R_p ∩ R_q, ascending (both R's are sorted by construction).
std::vector<std::size_t> common_blocks(const TetraPartition& part,
                                       std::size_t p, std::size_t q) {
  const auto& a = part.R(p);
  const auto& b = part.R(q);
  std::vector<std::size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

/// Inter-node words of one STTSV under `node_of`, from the pair matrix.
std::uint64_t inter_words_of(
    const std::vector<std::vector<std::uint64_t>>& w,
    const std::vector<std::uint32_t>& node_of) {
  std::uint64_t inter = 0;
  for (std::size_t p = 0; p < w.size(); ++p) {
    for (std::size_t q = p + 1; q < w.size(); ++q) {
      if (node_of[p] != node_of[q]) inter += w[p][q];
    }
  }
  return inter;
}

/// Balanced node capacities, matching Topology::uniform's shape.
std::vector<std::size_t> node_capacities(std::size_t P, std::size_t N) {
  std::vector<std::size_t> cap(N, P / N);
  for (std::size_t v = 0; v < P % N; ++v) ++cap[v];
  return cap;
}

/// Greedy affinity seed: repeatedly open the next node and fill it with
/// the ranks most attached to what is already inside. The first resident
/// of each node is the unplaced rank with the heaviest remaining total
/// traffic, so hot cliques are packed before the leftovers spread out.
std::vector<std::uint32_t> greedy_seed(
    const std::vector<std::vector<std::uint64_t>>& w,
    const std::vector<std::size_t>& cap) {
  const std::size_t P = w.size();
  const std::size_t N = cap.size();
  std::vector<std::uint32_t> node_of(P, 0);
  std::vector<char> placed(P, 0);
  for (std::size_t v = 0; v < N; ++v) {
    std::size_t filled = 0;
    while (filled < cap[v]) {
      std::size_t best = P;
      std::uint64_t best_score = 0;
      for (std::size_t p = 0; p < P; ++p) {
        if (placed[p] != 0) continue;
        // Attachment to this node's residents; for the first resident,
        // total remaining traffic (pick the heaviest hub).
        std::uint64_t score = 0;
        for (std::size_t q = 0; q < P; ++q) {
          if (filled > 0) {
            if (placed[q] != 0 && node_of[q] == v) score += w[p][q];
          } else if (placed[q] == 0) {
            score += w[p][q];
          }
        }
        // Ties break to the lowest rank: deterministic across platforms.
        if (best == P || score > best_score) {
          best = p;
          best_score = score;
        }
      }
      placed[best] = 1;
      node_of[best] = static_cast<std::uint32_t>(v);
      ++filled;
    }
  }
  return node_of;
}

/// Kernighan–Lin-style refinement: sweep all rank pairs on different
/// nodes, take any swap that strictly reduces inter-node words, repeat
/// until a full sweep finds none. Swaps preserve node sizes exactly, and
/// every accepted swap strictly decreases a nonnegative integer, so the
/// loop terminates. Gains are evaluated exactly from the pair matrix.
void refine_swaps(const std::vector<std::vector<std::uint64_t>>& w,
                  std::vector<std::uint32_t>& node_of) {
  const std::size_t P = w.size();
  // Moving p from node A to node B changes its cut contribution by
  // (attachment to A) - (attachment to B); a p<->q swap combines both
  // deltas and un-double-counts the (p,q) edge itself, which stays cut.
  const auto attachment = [&](std::size_t p, std::uint32_t node) {
    std::uint64_t sum = 0;
    for (std::size_t q = 0; q < P; ++q) {
      if (q != p && node_of[q] == node) sum += w[p][q];
    }
    return sum;
  };
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t p = 0; p < P; ++p) {
      for (std::size_t q = p + 1; q < P; ++q) {
        const std::uint32_t a = node_of[p];
        const std::uint32_t b = node_of[q];
        if (a == b) continue;
        const std::uint64_t cut_now = attachment(p, b) + attachment(q, a) -
                                      2 * w[p][q];
        const std::uint64_t cut_swapped = attachment(p, a) + attachment(q, b);
        if (cut_swapped < cut_now) {
          node_of[p] = b;
          node_of[q] = a;
          improved = true;
        }
      }
    }
  }
}

}  // namespace

std::uint64_t pair_traffic_words(const TetraPartition& part,
                                 const VectorDistribution& dist,
                                 std::size_t p, std::size_t q) {
  if (p == q) return 0;
  std::uint64_t words = 0;
  for (const std::size_t i : common_blocks(part, p, q)) {
    words += dist.share(i, p).length + dist.share(i, q).length;
  }
  // Each direction carries the sender's x-shares plus the receiver's
  // y-partial slices; summed over both directions every share appears
  // twice.
  return 2 * words;
}

std::vector<std::vector<std::uint64_t>> pair_traffic_matrix(
    const TetraPartition& part, const VectorDistribution& dist) {
  const std::size_t P = part.num_processors();
  std::vector<std::vector<std::uint64_t>> w(
      P, std::vector<std::uint64_t>(P, 0));
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t q = p + 1; q < P; ++q) {
      w[p][q] = w[q][p] = pair_traffic_words(part, dist, p, q);
    }
  }
  return w;
}

LevelWords predict_level_words(const TetraPartition& part,
                               const VectorDistribution& dist,
                               const std::vector<std::uint32_t>& node_of) {
  const std::size_t P = part.num_processors();
  STTSV_REQUIRE(node_of.size() == P, "node map must cover every rank");
  LevelWords out;
  for (std::size_t p = 0; p < P; ++p) {
    for (std::size_t q = p + 1; q < P; ++q) {
      const std::uint64_t w = pair_traffic_words(part, dist, p, q);
      if (node_of[p] == node_of[q]) {
        out.intra += w;
      } else {
        out.inter += w;
      }
    }
  }
  return out;
}

NodeAssignment flat_assignment(const TetraPartition& part,
                               const VectorDistribution& dist,
                               std::size_t num_nodes) {
  const std::size_t P = part.num_processors();
  NodeAssignment out;
  out.node_of = Topology::uniform(P, num_nodes).node_map();
  out.inter_words = predict_level_words(part, dist, out.node_of).inter;
  return out;
}

NodeAssignment compose_assignment(const TetraPartition& part,
                                  const VectorDistribution& dist,
                                  std::size_t num_nodes) {
  const std::size_t P = part.num_processors();
  STTSV_REQUIRE(num_nodes >= 1 && num_nodes <= P,
                "composed partition needs 1 <= nodes <= ranks");
  const std::vector<std::vector<std::uint64_t>> w =
      pair_traffic_matrix(part, dist);
  const std::vector<std::size_t> cap = node_capacities(P, num_nodes);

  std::vector<std::vector<std::uint32_t>> candidates;
  candidates.push_back(Topology::uniform(P, num_nodes).node_map());
  candidates.push_back(greedy_seed(w, cap));
  for (auto& candidate : candidates) refine_swaps(w, candidate);
  // The unrefined flat map closes the <= guarantee even if refinement
  // were ever a no-op.
  candidates.push_back(Topology::uniform(P, num_nodes).node_map());

  NodeAssignment best;
  bool first = true;
  for (auto& candidate : candidates) {
    const std::uint64_t inter = inter_words_of(w, candidate);
    if (first || inter < best.inter_words) {
      best.node_of = std::move(candidate);
      best.inter_words = inter;
      first = false;
    }
  }
  return best;
}

}  // namespace sttsv::hier
