#include "tensor/io.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>

#include "support/check.hpp"
#include "support/text.hpp"

namespace sttsv::tensor {

namespace {
constexpr const char* kTensorMagic = "sttsv-symtensor3";
constexpr const char* kVectorMagic = "sttsv-vector";

/// The count after the magic line, digits only: operator>> into an
/// unsigned type would accept "-1" as 2^64 - 1.
std::size_t read_count(std::istream& is, const char* what) {
  std::string token;
  is >> token;
  STTSV_REQUIRE(static_cast<bool>(is), what);
  return parse_u64(token);
}

/// Reads `count` values, growing the buffer only as values arrive, so a
/// short stream that claims a huge count fails as truncated instead of
/// allocating the claim.
std::vector<double> read_values(std::istream& is, std::size_t count,
                                const char* what) {
  std::vector<double> values;
  double v = 0.0;
  while (values.size() < count && is >> v) values.push_back(v);
  STTSV_REQUIRE(values.size() == count, what);
  return values;
}
}  // namespace

void write_tensor(std::ostream& os, const SymTensor3& a) {
  os << kTensorMagic << " v1\n" << a.dim() << "\n";
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    os << a.packed(idx) << (idx + 1 == a.packed_size() ? '\n' : ' ');
  }
  STTSV_REQUIRE(static_cast<bool>(os), "tensor write failed");
}

SymTensor3 read_tensor(std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  STTSV_REQUIRE(magic == kTensorMagic && version == "v1",
                "not an sttsv-symtensor3 v1 stream");
  const std::size_t n = read_count(is, "bad tensor dimension");
  STTSV_REQUIRE(n >= 1, "bad tensor dimension");
  const std::vector<double> packed =
      read_values(is, tetra_count(n), "truncated tensor stream");
  SymTensor3 a(n);
  std::copy(packed.begin(), packed.end(), a.data());
  return a;
}

void save_tensor(const std::string& path, const SymTensor3& a) {
  std::ofstream os(path);
  STTSV_REQUIRE(os.is_open(), "cannot open '" + path + "' for writing");
  write_tensor(os, a);
}

SymTensor3 load_tensor(const std::string& path) {
  std::ifstream is(path);
  STTSV_REQUIRE(is.is_open(), "cannot open '" + path + "' for reading");
  return read_tensor(is);
}

void write_vector(std::ostream& os, const std::vector<double>& v) {
  os << kVectorMagic << " v1\n" << v.size() << "\n";
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << v[i] << (i + 1 == v.size() ? '\n' : ' ');
  }
  STTSV_REQUIRE(static_cast<bool>(os), "vector write failed");
}

std::vector<double> read_vector(std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  STTSV_REQUIRE(magic == kVectorMagic && version == "v1",
                "not an sttsv-vector v1 stream");
  const std::size_t n = read_count(is, "bad vector length");
  return read_values(is, n, "truncated vector stream");
}

}  // namespace sttsv::tensor
