#include "simt/transport_kind.hpp"

#include <cstdlib>

#include "support/check.hpp"

namespace sttsv::simt {

const char* transport_kind_name(TransportKind kind) {
  switch (kind) {
    case TransportKind::kDirect:
      return "direct";
    case TransportKind::kReliable:
      return "reliable";
    case TransportKind::kOneSidedPut:
      return "onesided";
    case TransportKind::kHierarchical:
      return "hier";
  }
  return "direct";
}

std::optional<TransportKind> parse_transport_kind(std::string_view text) {
  if (text == "direct") return TransportKind::kDirect;
  if (text == "reliable") return TransportKind::kReliable;
  if (text == "onesided") return TransportKind::kOneSidedPut;
  if (text == "hier") return TransportKind::kHierarchical;
  return std::nullopt;
}

TransportKind transport_kind_from_env(TransportKind fallback) {
  const char* raw = std::getenv("STTSV_TRANSPORT");
  if (raw == nullptr || raw[0] == '\0') return fallback;
  const std::optional<TransportKind> parsed = parse_transport_kind(raw);
  STTSV_REQUIRE(parsed.has_value(),
                std::string("STTSV_TRANSPORT must be one of "
                            "direct|reliable|onesided|hier, got \"") +
                    raw + "\"");
  return *parsed;
}

}  // namespace sttsv::simt
