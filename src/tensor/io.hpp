#pragma once
// Plain-text serialization of symmetric tensors and vectors, so examples
// and external tools can exchange data. The format is line-oriented:
//
//   sttsv-symtensor3 v1
//   <n>
//   <packed values, whitespace separated, tetra_index order>
//
// Values are written with max_digits10 precision and round-trip exactly.
// The readers throw PreconditionError on a wrong magic line, a signed or
// overflowing count, or a stream holding fewer values than its count;
// they allocate only for values the stream actually holds.

#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/sym_tensor.hpp"

namespace sttsv::tensor {

void write_tensor(std::ostream& os, const SymTensor3& a);
SymTensor3 read_tensor(std::istream& is);

void save_tensor(const std::string& path, const SymTensor3& a);
SymTensor3 load_tensor(const std::string& path);

void write_vector(std::ostream& os, const std::vector<double>& v);
std::vector<double> read_vector(std::istream& is);

}  // namespace sttsv::tensor
