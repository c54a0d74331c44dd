// Tensor/vector serialization tests: exact round trips, format errors.

#include <gtest/gtest.h>

#include <sstream>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"

namespace sttsv::tensor {
namespace {

TEST(TensorIo, RoundTripExact) {
  Rng rng(5);
  const auto a = random_symmetric(9, rng);
  std::stringstream ss;
  write_tensor(ss, a);
  const auto b = read_tensor(ss);
  ASSERT_EQ(b.dim(), a.dim());
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    EXPECT_EQ(a.packed(idx), b.packed(idx)) << "idx=" << idx;
  }
}

TEST(TensorIo, RoundTripExtremeValues) {
  SymTensor3 a(3);
  a.at(0, 0, 0) = 1e-300;
  a.at(2, 1, 0) = -1e300;
  a.at(2, 2, 2) = 0.1;  // not exactly representable in decimal
  std::stringstream ss;
  write_tensor(ss, a);
  const auto b = read_tensor(ss);
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    EXPECT_EQ(a.packed(idx), b.packed(idx));
  }
}

TEST(TensorIo, RejectsWrongMagic) {
  std::stringstream ss("not-a-tensor v1\n3\n");
  EXPECT_THROW(read_tensor(ss), PreconditionError);
}

TEST(TensorIo, RejectsTruncatedStream) {
  SymTensor3 a(4);
  std::stringstream ss;
  write_tensor(ss, a);
  std::string text = ss.str();
  text.resize(text.size() / 2);
  std::stringstream cut(text);
  EXPECT_THROW(read_tensor(cut), PreconditionError);
  // Hostile dimensions: a sign (which operator>> would wrap to 2^64 - 1),
  // a packed count that overflows, and a huge count the stream does not
  // hold. None may allocate the claimed count.
  for (const char* header :
       {"sttsv-symtensor3 v1\n-1\n", "sttsv-symtensor3 v1\n-1\n0\n",
        "sttsv-symtensor3 v1\n18446744073709551614\n",
        "sttsv-symtensor3 v1\n2097152\n0 1 2\n"}) {
    std::stringstream hostile(header);
    EXPECT_THROW(read_tensor(hostile), PreconditionError) << header;
  }
}

TEST(TensorIo, FileRoundTrip) {
  Rng rng(6);
  const auto a = random_symmetric(5, rng);
  const std::string path = "/tmp/sttsv_io_test.tensor";
  save_tensor(path, a);
  const auto b = load_tensor(path);
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    EXPECT_EQ(a.packed(idx), b.packed(idx));
  }
}

TEST(TensorIo, MissingFileThrows) {
  EXPECT_THROW(load_tensor("/nonexistent/dir/x.tensor"), PreconditionError);
}

TEST(VectorIo, RoundTrip) {
  Rng rng(7);
  const auto v = rng.uniform_vector(17, -3.0, 3.0);
  std::stringstream ss;
  write_vector(ss, v);
  const auto w = read_vector(ss);
  EXPECT_EQ(v, w);
}

TEST(VectorIo, EmptyVector) {
  std::stringstream ss;
  write_vector(ss, {});
  EXPECT_TRUE(read_vector(ss).empty());
}

TEST(VectorIo, RejectsWrongMagic) {
  std::stringstream ss("sttsv-symtensor3 v1\n1\n0\n");
  EXPECT_THROW(read_vector(ss), PreconditionError);
  // Hostile lengths: a sign, and a huge count the stream does not hold.
  for (const char* text :
       {"sttsv-vector v1\n-1\n", "sttsv-vector v1\n-1\n0.5\n",
        "sttsv-vector v1\n1000000000000\n0.5 0.25\n"}) {
    std::stringstream hostile(text);
    EXPECT_THROW(read_vector(hostile), PreconditionError) << text;
  }
}

}  // namespace
}  // namespace sttsv::tensor
