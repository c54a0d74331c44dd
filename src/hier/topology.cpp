#include "hier/topology.hpp"

#include <algorithm>
#include <cstdint>

#include "support/check.hpp"

namespace sttsv::hier {

Topology::Topology(std::vector<std::uint32_t> node_of)
    : node_of_(std::move(node_of)) {
  STTSV_REQUIRE(!node_of_.empty(), "topology needs at least one rank");
  // A dense map has at most one node per rank: checking that bound first
  // keeps a huge label from sizing (or wrapping) ranks_on_.
  std::size_t nodes = 0;
  for (const std::uint32_t node : node_of_) {
    STTSV_REQUIRE(node < node_of_.size(),
                  "topology node labels must be dense in [0, N)");
    nodes = std::max<std::size_t>(nodes, std::size_t{node} + 1);
  }
  ranks_on_.assign(nodes, {});
  for (std::size_t p = 0; p < node_of_.size(); ++p) {
    ranks_on_[node_of_[p]].push_back(p);
  }
  for (std::size_t v = 0; v < nodes; ++v) {
    STTSV_REQUIRE(!ranks_on_[v].empty(),
                  "topology node labels must be dense in [0, N)");
  }
}

Topology Topology::uniform(std::size_t num_ranks, std::size_t num_nodes) {
  STTSV_REQUIRE(num_nodes >= 1, "topology needs at least one node");
  STTSV_REQUIRE(num_nodes <= num_ranks,
                "more nodes than ranks leaves empty nodes");
  // Contiguous runs, first (P mod N) nodes one rank larger: the map a
  // rank-ordered launcher (mpirun-style block placement) would produce.
  std::vector<std::uint32_t> node_of(num_ranks);
  const std::size_t base = num_ranks / num_nodes;
  const std::size_t extra = num_ranks % num_nodes;
  std::size_t p = 0;
  for (std::size_t v = 0; v < num_nodes; ++v) {
    const std::size_t count = base + (v < extra ? 1 : 0);
    for (std::size_t k = 0; k < count; ++k) {
      node_of[p++] = static_cast<std::uint32_t>(v);
    }
  }
  return Topology(std::move(node_of));
}

Topology Topology::from_map(std::vector<std::uint32_t> node_of) {
  return Topology(std::move(node_of));
}

std::uint32_t Topology::node_of(std::size_t rank) const {
  STTSV_REQUIRE(rank < node_of_.size(), "rank out of range");
  return node_of_[rank];
}

const std::vector<std::size_t>& Topology::ranks_on(std::size_t node) const {
  STTSV_REQUIRE(node < ranks_on_.size(), "node out of range");
  return ranks_on_[node];
}

}  // namespace sttsv::hier
