#include "batch/batched_run.hpp"

namespace sttsv::batch {

BatchRunResult parallel_sttsv_batch(
    simt::Machine& machine, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x) {
  simt::DirectExchange direct(machine);
  return parallel_sttsv_batch(direct, plan, a, x);
}

BatchRunResult parallel_sttsv_batch(
    simt::Exchanger& exchanger, const Plan& plan, const tensor::SymTensor3& a,
    const std::vector<std::vector<double>>& x) {
  return core::parallel_sttsv_panel(exchanger, plan.partition(),
                                    plan.distribution(), plan.schedule(), a,
                                    x, plan.key().transport);
}

}  // namespace sttsv::batch
