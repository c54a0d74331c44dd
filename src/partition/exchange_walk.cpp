#include "partition/exchange_walk.hpp"

#include <algorithm>
#include <cstdint>

#include "support/check.hpp"

namespace sttsv::partition {

ExchangeWalk::ExchangeWalk(const TetraPartition& part,
                           const VectorDistribution& dist) {
  const std::size_t P = part.num_processors();
  const std::size_t m = part.num_row_blocks();
  STTSV_REQUIRE(dist.num_processors() == P && dist.num_row_blocks() == m,
                "distribution is not laid out over this partition");

  // Peers of p and the blocks shared with each: by the Steiner property
  // two distinct subsets R_p, R_peer meet in at most 2 points, so every
  // PeerExchange carries 1 or 2 slices (Section 7.2.2).
  exchanges_.resize(P);
  owned_.resize(P);
  local_index_.assign(P, std::vector<std::size_t>(m, SIZE_MAX));
  for (std::size_t p = 0; p < P; ++p) {
    owned_[p] = part.owned_blocks(p);
    const auto& rp = part.R(p);
    for (std::size_t pos = 0; pos < rp.size(); ++pos) {
      local_index_[p][rp[pos]] = pos;
    }
    std::vector<std::size_t> peers;
    for (const std::size_t i : rp) {
      for (const std::size_t other : part.Q(i)) {
        if (other != p) peers.push_back(other);
      }
    }
    std::sort(peers.begin(), peers.end());
    peers.erase(std::unique(peers.begin(), peers.end()), peers.end());
    for (const std::size_t peer : peers) {
      PeerExchange ex;
      ex.peer = peer;
      const auto& rq = part.R(peer);
      std::vector<std::size_t> common;
      std::set_intersection(rp.begin(), rp.end(), rq.begin(), rq.end(),
                            std::back_inserter(common));
      for (const std::size_t i : common) {
        BlockSlice slice;
        slice.block = i;
        slice.sender = dist.share(i, p);
        slice.receiver = dist.share(i, peer);
        ex.x_words += slice.sender.length;
        ex.y_words += slice.receiver.length;
        ex.slices.push_back(slice);
      }
      if (ex.x_words > 0 || ex.y_words > 0) {
        exchanges_[p].push_back(std::move(ex));
      }
    }
  }
}

const ExchangeWalk::PeerExchange& ExchangeWalk::exchange_between(
    std::size_t from, std::size_t to) const {
  STTSV_REQUIRE(from < exchanges_.size(), "rank out of range");
  const auto& exs = exchanges_[from];
  const auto it = std::lower_bound(
      exs.begin(), exs.end(), to,
      [](const PeerExchange& e, std::size_t peer) { return e.peer < peer; });
  STTSV_REQUIRE(it != exs.end() && it->peer == to,
                "ranks do not exchange data under this walk");
  return *it;
}

std::size_t ExchangeWalk::local_index(std::size_t p, std::size_t i) const {
  STTSV_REQUIRE(p < local_index_.size(), "rank out of range");
  STTSV_REQUIRE(i < local_index_[p].size(), "row block out of range");
  const std::size_t pos = local_index_[p][i];
  STTSV_REQUIRE(pos != SIZE_MAX, "row block not in R_p");
  return pos;
}

}  // namespace sttsv::partition
