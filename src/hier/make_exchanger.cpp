#include "hier/make_exchanger.hpp"

#include <optional>
#include <utility>

#include "hier/hier_exchange.hpp"
#include "hier/topology.hpp"
#include "onesided/onesided_exchange.hpp"
#include "support/check.hpp"

namespace sttsv::simt {

namespace {

std::unique_ptr<Exchanger> make_flat(Machine& machine,
                                     const ExchangerConfig& config,
                                     TransportKind kind) {
  switch (kind) {
    case TransportKind::kDirect:
      return std::make_unique<DirectExchange>(machine);
    case TransportKind::kReliable:
      return std::make_unique<ReliableExchange>(
          machine, config.retry, config.recovery, config.liveness);
    case TransportKind::kOneSidedPut:
      return std::make_unique<onesided::OneSidedExchange>(machine);
    case TransportKind::kHierarchical:
      break;  // handled by the caller; rejected as an inner kind below
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Exchanger> make_exchanger(Machine& machine,
                                          const ExchangerConfig& config) {
  // A topology classifies the ledger under every kind (DESIGN.md §17):
  // flat backends run with per-level accounting, which is how the
  // hierarchy bench prices the same traffic both ways.
  if (!config.node_of.empty()) {
    machine.ledger().set_node_map(config.node_of);
  }

  if (config.kind == TransportKind::kHierarchical) {
    STTSV_REQUIRE(config.hier_inter != TransportKind::kHierarchical,
                  "hier_inter must be one of direct|reliable|onesided");
    hier::Topology topo =
        config.node_of.empty()
            ? [&] {
                std::optional<hier::Topology> env =
                    hier::Topology::from_env(machine.num_ranks());
                STTSV_REQUIRE(env.has_value(),
                              "hierarchical transport needs a topology: set "
                              "ExchangerConfig::node_of or STTSV_TOPOLOGY=NxM");
                return *std::move(env);
              }()
            : hier::Topology::from_map(config.node_of);
    std::unique_ptr<Exchanger> inner =
        make_flat(machine, config, config.hier_inter);
    STTSV_CHECK(inner != nullptr, "inner transport construction failed");
    return std::make_unique<hier::HierarchicalExchange>(
        machine, std::move(topo), std::move(inner));
  }

  std::unique_ptr<Exchanger> flat = make_flat(machine, config, config.kind);
  // Not a switch fall-through: an out-of-enum value (casted int, stale
  // config) must fail loudly, naming what the factory accepts.
  STTSV_REQUIRE(flat != nullptr,
                "unknown transport kind; accepted transports are "
                "direct|reliable|onesided|hier");
  return flat;
}

}  // namespace sttsv::simt
