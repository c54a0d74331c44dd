#pragma once
// Minimal command-line parsing for the tools: positional arguments plus
// "--key value" and "--flag" options. No external dependency; errors are
// PreconditionError so tools print a clean message.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace sttsv {

class ArgParser {
 public:
  /// Parses argv[1..): tokens starting with "--" become options (the
  /// following token is the value unless it also starts with "--" or is
  /// absent, in which case the option is a boolean flag); everything else
  /// is positional.
  ArgParser(int argc, const char* const* argv);

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] bool has(const std::string& key) const;

  /// Value of --key; throws if missing or if the option was a bare flag.
  [[nodiscard]] std::string get(const std::string& key) const;

  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;

  [[nodiscard]] std::uint64_t get_u64(const std::string& key) const;
  [[nodiscard]] std::uint64_t get_u64_or(const std::string& key,
                                         std::uint64_t fallback) const;
  /// --key as a finite number (parse_f64), or `fallback` when absent.
  [[nodiscard]] double get_f64_or(const std::string& key,
                                  double fallback) const;

  /// Keys that were provided but never queried — for typo detection.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::optional<std::string>> options_;
  mutable std::map<std::string, bool> queried_;
};

}  // namespace sttsv
