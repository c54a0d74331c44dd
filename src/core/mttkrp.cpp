#include "core/mttkrp.hpp"

#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"

namespace sttsv::core {

std::vector<std::vector<double>> symmetric_mttkrp(
    const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns) {
  std::vector<std::vector<double>> out;
  out.reserve(columns.size());
  for (const auto& col : columns) {
    out.push_back(sttsv_packed(a, col));
  }
  return out;
}

std::vector<std::vector<double>> parallel_symmetric_mttkrp(
    simt::Exchanger& exchanger, const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& columns,
    simt::Transport transport) {
  return parallel_sttsv_panel(exchanger, part, dist,
                              partition::ExchangeWalk(part, dist), a, columns,
                              transport)
      .y;
}

}  // namespace sttsv::core
