#pragma once
// The pair walk of Algorithm 5 (Section 7.2.2), precomputed once per
// (partition, distribution). Rank p exchanges vector data only with the
// other members of the Q_i for i ∈ R_p, and for each such peer only the
// shares of the row blocks both require — R_p ∩ R_peer, at most 2 blocks
// by the Steiner property. Phase 1 sends p's own share of each common
// block (x); phase 3 sends the peer's share of p's partial sums (y). Both
// endpoints replay the same slice order, so aggregated messages need no
// framing. The one Algorithm-5 driver, core::parallel_sttsv_panel,
// replays a walk built here (per call for single-vector and MTTKRP runs,
// cached in batch::Plan for batched runs), and so does the
// communication-only replay.

#include <cstddef>
#include <vector>

#include "partition/blocks.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"

namespace sttsv::partition {

class ExchangeWalk {
 public:
  /// One row-block share inside one aggregated message for the ordered
  /// pair (p, peer): `sender` is p's share of row block `block` (what a
  /// phase-1 x message carries), `receiver` is the peer's share (what a
  /// phase-3 partial-y message carries).
  struct BlockSlice {
    std::size_t block = 0;
    Share sender;
    Share receiver;
  };

  /// All traffic between p and one peer, slices in ascending block order
  /// (the deterministic walk both endpoints replay).
  struct PeerExchange {
    std::size_t peer = 0;
    std::vector<BlockSlice> slices;
    std::size_t x_words = 0;  // per-vector words sent p -> peer in phase 1
    std::size_t y_words = 0;  // per-vector words sent p -> peer in phase 3
  };

  /// Walks every ordered rank pair of `part` under `dist` (which must be
  /// laid out over the same partition).
  ExchangeWalk(const TetraPartition& part, const VectorDistribution& dist);

  [[nodiscard]] std::size_t num_processors() const {
    return exchanges_.size();
  }

  /// Exchanges of rank p, ascending peer order; only peers with traffic.
  [[nodiscard]] const std::vector<PeerExchange>& exchanges(
      std::size_t p) const {
    return exchanges_[p];
  }

  /// The exchange record for the ordered pair (from, to); both ranks must
  /// actually exchange data (throws otherwise).
  [[nodiscard]] const PeerExchange& exchange_between(std::size_t from,
                                                     std::size_t to) const;

  /// Owned blocks of p (cached copy of TetraPartition::owned_blocks(p)).
  [[nodiscard]] const std::vector<BlockCoord>& owned(std::size_t p) const {
    return owned_[p];
  }

  /// Position of row block i within R_p (p's local block numbering).
  [[nodiscard]] std::size_t local_index(std::size_t p, std::size_t i) const;

 private:
  std::vector<std::vector<PeerExchange>> exchanges_;
  std::vector<std::vector<BlockCoord>> owned_;
  // local_index lookup: per rank, row block -> position in R_p (or npos).
  std::vector<std::vector<std::size_t>> local_index_;
};

}  // namespace sttsv::partition
