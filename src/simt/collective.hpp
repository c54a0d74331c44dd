#pragma once
// Collective operations on the simulated machine, built from point-to-
// point exchanges so the ledger reflects the real message pattern:
//
//  * allreduce_sum — binomial-tree reduce to rank 0 followed by binomial
//    broadcast: 2·ceil(log₂ P) rounds, <= 2·ceil(log₂ P)·L words per rank
//    for vectors of length L. Used by the fully distributed iterative
//    solvers (norms, dot products) where only O(1)-length reductions
//    cross the network per iteration.

#include <vector>

#include "simt/reliable_exchange.hpp"

namespace sttsv::simt {

/// contributions[p] is rank p's local vector (all the same length L).
/// Returns the elementwise global sum; every rank "ends" holding it
/// (the broadcast phase is executed and counted). Each of the
/// 2·ceil(log₂ P) exchanges goes through `exchanger`, labelled
/// "allreduce".
std::vector<double> allreduce_sum(
    Exchanger& exchanger,
    const std::vector<std::vector<double>>& contributions);

}  // namespace sttsv::simt
