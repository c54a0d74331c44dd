#pragma once
// Physical topology model for hierarchical communication (DESIGN.md §17).
//
// The simulated machine of Section 3.1 is flat: P ranks, one network.
// Real clusters are not — ranks live on N nodes, and a word moved inside
// a node (shared memory) is orders of magnitude cheaper than one crossing
// the inter-node fabric. A Topology records the surjective rank -> node
// map that drives the two-level machinery: the CommLedger classifies
// every message intra/inter under it, the HierarchicalExchange routes
// node-local traffic through shared segments, and the composed partition
// (hier/compose.hpp) chooses the map that minimizes inter-node words.
//
// Node labels are dense in [0, N): every node hosts at least one rank.
// A topology with one node is legal and equivalent to the flat machine.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sttsv::hier {

class Topology {
 public:
  /// The contiguous "flat" map: rank p lives on node p / ceil(P/N) — the
  /// assignment a topology-blind launcher produces, and the baseline the
  /// composed partition must beat. Ranks are spread as evenly as
  /// possible (first P mod N nodes get one extra when N does not
  /// divide P). Requires 1 <= num_nodes <= num_ranks.
  [[nodiscard]] static Topology uniform(std::size_t num_ranks,
                                        std::size_t num_nodes);

  /// Wraps an explicit rank -> node map. Requires a non-empty map with
  /// dense node labels in [0, N).
  [[nodiscard]] static Topology from_map(std::vector<std::uint32_t> node_of);

  [[nodiscard]] std::size_t num_ranks() const { return node_of_.size(); }
  [[nodiscard]] std::size_t num_nodes() const { return ranks_on_.size(); }
  [[nodiscard]] std::uint32_t node_of(std::size_t rank) const;
  /// Ranks hosted on `node`, ascending.
  [[nodiscard]] const std::vector<std::size_t>& ranks_on(
      std::size_t node) const;
  /// The raw map, suitable for CommLedger::set_node_map.
  [[nodiscard]] const std::vector<std::uint32_t>& node_map() const {
    return node_of_;
  }

  [[nodiscard]] bool same_node(std::size_t a, std::size_t b) const {
    return node_of(a) == node_of(b);
  }

 private:
  explicit Topology(std::vector<std::uint32_t> node_of);

  std::vector<std::uint32_t> node_of_;
  std::vector<std::vector<std::size_t>> ranks_on_;
};

}  // namespace sttsv::hier
