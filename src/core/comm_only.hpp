#pragma once
// Communication-only replay of Algorithm 5's two exchange phases.
//
// The words moved by Algorithm 5 depend only on the partition and the
// vector distribution — never on tensor values — so benches that sweep
// large q/P measure communication exactly without allocating O(n³/P)
// tensor data or running O(n³/2) flops.

#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/reliable_exchange.hpp"

namespace sttsv::core {

/// Executes the x-gather and y-reduce exchanges of Algorithm 5 over
/// `exchanger` with zero-filled payloads of the exact sizes the real run
/// sends, labelled "x-replay" and "y-replay". After the call, the
/// machine's ledger holds the same communication statistics a full
/// parallel_sttsv run over the same backend would produce.
void simulate_communication(simt::Exchanger& exchanger,
                            const partition::TetraPartition& part,
                            const partition::VectorDistribution& dist,
                            simt::Transport transport);

}  // namespace sttsv::core
