#pragma once
// Transport selection vocabulary (DESIGN.md §16, §17). The enum lives in
// simt so the batch/serve option structs can name a backend without
// pulling in the one-sided subsystem; the factory that actually
// constructs backends is simt::make_exchanger in
// src/hier/make_exchanger.hpp (declared there because it must see every
// concrete Exchanger, including the hierarchical one).

#include <optional>
#include <string>
#include <string_view>

namespace sttsv::simt {

/// The four exchange backends a driver can run on, spelled as the
/// STTSV_TRANSPORT values below.
enum class TransportKind {
  kDirect,        // "direct":   raw machine semantics, zero overhead
  kReliable,      // "reliable": framed/ACKed protocol (ReliableExchange)
  kOneSidedPut,   // "onesided": Puts into registered segments, view
                  //             deliveries, no framing round
  kHierarchical,  // "hier":     topology-split — node-local traffic via
                  //             shared segments, cross-node via an inner
                  //             backend (DESIGN.md §17)
};

/// Stable lowercase spelling: direct | reliable | onesided | hier.
[[nodiscard]] const char* transport_kind_name(TransportKind kind);

/// Parses the spellings above; nullopt for anything else.
[[nodiscard]] std::optional<TransportKind> parse_transport_kind(
    std::string_view text);

/// Reads STTSV_TRANSPORT from the environment: unset or empty returns
/// `fallback`; an unparsable value throws PreconditionError naming the
/// accepted spellings.
[[nodiscard]] TransportKind transport_kind_from_env(
    TransportKind fallback = TransportKind::kDirect);

}  // namespace sttsv::simt
