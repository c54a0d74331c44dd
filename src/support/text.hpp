#pragma once
// Small string utilities shared by benches and examples.

#include <cstdint>
#include <string>
#include <vector>

namespace sttsv {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(const std::string& s, char delim);

/// Trims ASCII whitespace from both ends.
std::string trim(const std::string& s);

/// Parses a nonnegative integer; throws PreconditionError on junk or on
/// a value that does not fit in 64 bits.
std::uint64_t parse_u64(const std::string& s);

/// Parses a finite decimal floating-point number. The whole token must be
/// the number (no surrounding whitespace or trailing text); nan, inf, an
/// out-of-range magnitude or junk throw PreconditionError.
double parse_f64(const std::string& s);

/// "1, 4, 6, 8" -> "{1,4,6,8}" style rendering of index sets (1-based in
/// the paper's tables; callers pass already-shifted values).
std::string brace_set(const std::vector<std::size_t>& v);

/// Renders a (i,j,k) triple as "(i,j,k)".
std::string triple(std::size_t i, std::size_t j, std::size_t k);

}  // namespace sttsv
