#include "support/cli.hpp"

#include "support/check.hpp"
#include "support/text.hpp"

namespace sttsv {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string key = token.substr(2);
      STTSV_REQUIRE(!key.empty(), "empty option name '--'");
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        options_[key] = std::string(argv[i + 1]);
        ++i;
      } else {
        options_[key] = std::nullopt;  // bare flag
      }
    } else {
      positional_.push_back(token);
    }
  }
}

bool ArgParser::has(const std::string& key) const {
  queried_[key] = true;
  return options_.count(key) > 0;
}

std::string ArgParser::get(const std::string& key) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  STTSV_REQUIRE(it != options_.end(), "missing required option --" + key);
  STTSV_REQUIRE(it->second.has_value(),
                "option --" + key + " needs a value");
  return *it->second;
}

std::string ArgParser::get_or(const std::string& key,
                              const std::string& fallback) const {
  queried_[key] = true;
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  STTSV_REQUIRE(it->second.has_value(),
                "option --" + key + " needs a value");
  return *it->second;
}

std::uint64_t ArgParser::get_u64(const std::string& key) const {
  return parse_u64(get(key));
}

std::uint64_t ArgParser::get_u64_or(const std::string& key,
                                    std::uint64_t fallback) const {
  if (!has(key)) return fallback;
  return parse_u64(get(key));
}

double ArgParser::get_f64_or(const std::string& key, double fallback) const {
  if (!has(key)) return fallback;
  return parse_f64(get(key));
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : options_) {
    (void)value;
    if (queried_.count(key) == 0) out.push_back(key);
  }
  return out;
}

}  // namespace sttsv
