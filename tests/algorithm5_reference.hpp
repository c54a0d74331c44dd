#pragma once
// Message-free reference for the Algorithm-5 driver (tests only). Every
// rank runs its owned blocks, in order, through the core kernels on its
// own padded copy of x; each element of rank p's share of row block i
// is then 0.0 + p's partial + the partials of the other ranks of Q_i,
// ascending — the driver's reduction order. No exchange
// walk, no exchanger and no packing, so a driver that matches this bit
// for bit has moved, unpacked and reduced every share correctly.

#include <algorithm>
#include <vector>

#include "core/block_kernels.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "tensor/sym_tensor.hpp"

namespace sttsv::test {

inline std::vector<double> algorithm5_reference(
    const partition::TetraPartition& part,
    const partition::VectorDistribution& dist, const tensor::SymTensor3& a,
    const std::vector<double>& x) {
  const std::size_t b = dist.block_length_b();
  std::vector<double> x_pad(dist.padded_n(), 0.0);
  std::copy(x.begin(), x.end(), x_pad.begin());

  // partial[p]: rank p's partial y, laid out like the padded vector.
  std::vector<std::vector<double>> partial(
      part.num_processors(), std::vector<double>(dist.padded_n(), 0.0));
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    for (const partition::BlockCoord& c : part.owned_blocks(p)) {
      const std::size_t rows[3] = {c.i * b, c.j * b, c.k * b};
      core::BlockBuffers buf;
      for (std::size_t s = 0; s < 3; ++s) {
        buf.x[s] = x_pad.data() + rows[s];
        buf.y[s] = partial[p].data() + rows[s];
      }
      (void)core::apply_block(a, c, b, buf);
    }
  }

  std::vector<double> y(dist.padded_n(), 0.0);
  for (std::size_t i = 0; i < part.num_row_blocks(); ++i) {
    for (const std::size_t p : part.Q(i)) {
      const partition::Share s = dist.share(i, p);
      for (std::size_t g = i * b + s.offset; g < i * b + s.offset + s.length;
           ++g) {
        double sum = 0.0 + partial[p][g];
        for (const std::size_t q : part.Q(i)) {
          if (q != p) sum += partial[q][g];
        }
        y[g] = sum;
      }
    }
  }
  y.resize(dist.logical_n());
  return y;
}

}  // namespace sttsv::test
