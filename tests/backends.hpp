#pragma once
// The four exchange backends by name, built over a machine (tests only):
// "direct", "reliable" (default retry and fail-fast policies),
// "onesided", and "hier" — two nodes of Topology::uniform over a
// DirectExchange fabric. Sweeps run one algorithm over each backend and
// compare it bit for bit with "direct".

#include <memory>
#include <string>
#include <string_view>

#include "hier/hier_exchange.hpp"
#include "hier/topology.hpp"
#include "onesided/onesided_exchange.hpp"
#include "simt/machine.hpp"
#include "simt/reliable_exchange.hpp"
#include "support/check.hpp"

namespace sttsv::test {

inline constexpr const char* kBackends[] = {"direct", "reliable", "onesided",
                                            "hier"};

/// The named backend over `machine`; "hier" needs at least two ranks and
/// installs its node map on the machine's ledger.
inline std::unique_ptr<simt::Exchanger> make_backend(std::string_view name,
                                                     simt::Machine& machine) {
  if (name == "direct") return std::make_unique<simt::DirectExchange>(machine);
  if (name == "reliable") {
    return std::make_unique<simt::ReliableExchange>(machine);
  }
  if (name == "onesided") {
    return std::make_unique<onesided::OneSidedExchange>(machine);
  }
  if (name == "hier") {
    return std::make_unique<hier::HierarchicalExchange>(
        machine, hier::Topology::uniform(machine.num_ranks(), 2),
        std::make_unique<simt::DirectExchange>(machine));
  }
  throw PreconditionError("unknown backend \"" + std::string(name) + "\"");
}

}  // namespace sttsv::test
