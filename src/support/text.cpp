#include "support/text.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>
#include <system_error>

#include "support/check.hpp"

namespace sttsv {

std::vector<std::string> split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string cur;
  for (const char ch : s) {
    if (ch == delim) {
      out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  out.push_back(cur);
  return out;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::uint64_t parse_u64(const std::string& s) {
  const std::string t = trim(s);
  STTSV_REQUIRE(!t.empty(), "parse_u64: empty string");
  std::uint64_t value = 0;
  for (const char ch : t) {
    STTSV_REQUIRE(ch >= '0' && ch <= '9',
                  "parse_u64: non-digit in '" + t + "'");
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    STTSV_REQUIRE(value <= (UINT64_MAX - digit) / 10,
                  "parse_u64: '" + t + "' does not fit in 64 bits");
    value = value * 10 + digit;
  }
  return value;
}

double parse_f64(const std::string& s) {
  double value = 0.0;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, value);
  STTSV_REQUIRE(ec == std::errc() && end == last,
                "parse_f64: '" + s + "' is not a number");
  STTSV_REQUIRE(std::isfinite(value), "parse_f64: '" + s + "' is not finite");
  return value;
}

std::string brace_set(const std::vector<std::size_t>& v) {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) os << ',';
    os << v[i];
  }
  os << '}';
  return os.str();
}

std::string triple(std::size_t i, std::size_t j, std::size_t k) {
  std::ostringstream os;
  os << '(' << i << ',' << j << ',' << k << ')';
  return os.str();
}

}  // namespace sttsv
