#pragma once
// The one transport factory (DESIGN.md §16, §17). Declared in sttsv::simt
// — it completes the TransportKind vocabulary from simt/transport_kind.hpp
// — but lives in src/hier because it must see every concrete Exchanger,
// including the hierarchical one (which itself wraps the one-sided and
// reliable backends, so the factory has to sit at the top of the
// transport stack).

#include <cstdint>
#include <memory>
#include <vector>

#include "simt/reliable_exchange.hpp"
#include "simt/transport_kind.hpp"

namespace sttsv::simt {

/// Everything make_exchanger needs beyond the kind. The protocol knobs
/// only matter for kReliable; the topology fields for kHierarchical.
struct ExchangerConfig {
  TransportKind kind = TransportKind::kDirect;
  RetryPolicy retry{};
  RecoveryPolicy recovery = RecoveryPolicy::kFailFast;
  LivenessPolicy liveness{};
  /// Rank -> node map (DESIGN.md §17). Required for kHierarchical (or
  /// supplied via STTSV_TOPOLOGY=NxM when left empty). When non-empty it
  /// is installed on the machine's ledger for *every* kind, so a flat
  /// backend run under the same topology produces the per-level split
  /// the hierarchy bench compares against.
  std::vector<std::uint32_t> node_of;
  /// Inner backend carrying the inter-node traffic under kHierarchical.
  /// Must be a point-to-point kind: direct, reliable or onesided.
  TransportKind hier_inter = TransportKind::kDirect;
};

/// Constructs the backend for `config.kind` over `machine`:
/// kDirect -> DirectExchange, kReliable -> ReliableExchange,
/// kOneSidedPut -> onesided::OneSidedExchange, kHierarchical ->
/// hier::HierarchicalExchange over an inner `config.hier_inter` backend.
/// Every bench and the serving stack select their transport through here
/// instead of naming concrete backends. An unrecognized kind throws
/// PreconditionError naming the accepted spellings — never a silent
/// fallback.
[[nodiscard]] std::unique_ptr<Exchanger> make_exchanger(
    Machine& machine, const ExchangerConfig& config);

[[nodiscard]] inline std::unique_ptr<Exchanger> make_exchanger(
    Machine& machine, TransportKind kind) {
  ExchangerConfig config;
  config.kind = kind;
  return make_exchanger(machine, config);
}

}  // namespace sttsv::simt
