#include "core/distributed_vector.hpp"

#include <algorithm>
#include <utility>

#include "core/parallel_sttsv.hpp"
#include "simt/collective.hpp"
#include "support/check.hpp"

namespace sttsv::core {

namespace {

using partition::Share;
using partition::TetraPartition;
using partition::VectorDistribution;

}  // namespace

DistributedVector::DistributedVector(const VectorDistribution& dist)
    : dist_(&dist), shares_(dist.num_processors()) {
  const auto& part_blocks = [&](std::size_t p) {
    return dist.required_blocks(p);
  };
  for (std::size_t p = 0; p < shares_.size(); ++p) {
    shares_[p].row_blocks = part_blocks(p);
    shares_[p].slices.resize(shares_[p].row_blocks.size());
    for (std::size_t t = 0; t < shares_[p].row_blocks.size(); ++t) {
      const Share s = dist.share(shares_[p].row_blocks[t], p);
      shares_[p].slices[t].assign(s.length, 0.0);
    }
  }
}

DistributedVector DistributedVector::scatter(
    const VectorDistribution& dist, const std::vector<double>& global) {
  STTSV_REQUIRE(global.size() == dist.logical_n(),
                "global vector length mismatch");
  DistributedVector dv(dist);
  const std::size_t b = dist.block_length_b();
  std::vector<double> padded(dist.padded_n(), 0.0);
  std::copy(global.begin(), global.end(), padded.begin());
  for (std::size_t p = 0; p < dv.shares_.size(); ++p) {
    auto& rs = dv.shares_[p];
    for (std::size_t t = 0; t < rs.row_blocks.size(); ++t) {
      const std::size_t i = rs.row_blocks[t];
      const Share s = dist.share(i, p);
      std::copy_n(padded.data() + i * b + s.offset, s.length,
                  rs.slices[t].data());
    }
  }
  return dv;
}

std::vector<double> DistributedVector::gather() const {
  const auto& dist = *dist_;
  const std::size_t b = dist.block_length_b();
  std::vector<double> padded(dist.padded_n(), 0.0);
  for (std::size_t p = 0; p < shares_.size(); ++p) {
    const auto& rs = shares_[p];
    for (std::size_t t = 0; t < rs.row_blocks.size(); ++t) {
      const std::size_t i = rs.row_blocks[t];
      const Share s = dist.share(i, p);
      std::copy(rs.slices[t].begin(), rs.slices[t].end(),
                padded.begin() + static_cast<long>(i * b + s.offset));
    }
  }
  return {padded.begin(),
          padded.begin() + static_cast<long>(dist.logical_n())};
}

const std::vector<double>& DistributedVector::share(
    std::size_t rank, std::size_t row_block) const {
  STTSV_REQUIRE(rank < shares_.size(), "rank out of range");
  const auto& rs = shares_[rank];
  const auto it = std::lower_bound(rs.row_blocks.begin(),
                                   rs.row_blocks.end(), row_block);
  STTSV_REQUIRE(it != rs.row_blocks.end() && *it == row_block,
                "rank does not own this row block");
  return rs.slices[static_cast<std::size_t>(it - rs.row_blocks.begin())];
}

std::vector<double>& DistributedVector::share(std::size_t rank,
                                              std::size_t row_block) {
  return const_cast<std::vector<double>&>(
      static_cast<const DistributedVector&>(*this).share(rank, row_block));
}

double DistributedVector::dot(simt::Exchanger& exchanger,
                              const DistributedVector& a,
                              const DistributedVector& b) {
  STTSV_REQUIRE(a.dist_ == b.dist_, "distribution mismatch");
  const std::size_t P = a.shares_.size();
  STTSV_REQUIRE(exchanger.machine().num_ranks() == P,
                "machine rank count mismatch");
  std::vector<std::vector<double>> partials(P, std::vector<double>(1, 0.0));
  for (std::size_t p = 0; p < P; ++p) {
    double local = 0.0;
    for (std::size_t t = 0; t < a.shares_[p].slices.size(); ++t) {
      const auto& av = a.shares_[p].slices[t];
      const auto& bv = b.shares_[p].slices[t];
      for (std::size_t i = 0; i < av.size(); ++i) local += av[i] * bv[i];
    }
    partials[p][0] = local;
  }
  return simt::allreduce_sum(exchanger, partials)[0];
}

std::pair<double, double> DistributedVector::diff_norms2(
    simt::Exchanger& exchanger, const DistributedVector& a,
    const DistributedVector& b) {
  STTSV_REQUIRE(a.dist_ == b.dist_, "distribution mismatch");
  const std::size_t P = a.shares_.size();
  std::vector<std::vector<double>> partials(P, std::vector<double>(2, 0.0));
  for (std::size_t p = 0; p < P; ++p) {
    double dm = 0.0;
    double dp = 0.0;
    for (std::size_t t = 0; t < a.shares_[p].slices.size(); ++t) {
      const auto& av = a.shares_[p].slices[t];
      const auto& bv = b.shares_[p].slices[t];
      for (std::size_t i = 0; i < av.size(); ++i) {
        dm += (av[i] - bv[i]) * (av[i] - bv[i]);
        dp += (av[i] + bv[i]) * (av[i] + bv[i]);
      }
    }
    partials[p] = {dm, dp};
  }
  const auto sums = simt::allreduce_sum(exchanger, partials);
  return {sums[0], sums[1]};
}

void DistributedVector::scale(double s) {
  for (auto& rs : shares_) {
    for (auto& slice : rs.slices) {
      for (auto& v : slice) v *= s;
    }
  }
}

void DistributedVector::axpy(double alpha, const DistributedVector& other) {
  STTSV_REQUIRE(dist_ == other.dist_, "distribution mismatch");
  for (std::size_t p = 0; p < shares_.size(); ++p) {
    for (std::size_t t = 0; t < shares_[p].slices.size(); ++t) {
      auto& dst = shares_[p].slices[t];
      const auto& src = other.shares_[p].slices[t];
      for (std::size_t i = 0; i < dst.size(); ++i) {
        dst[i] += alpha * src[i];
      }
    }
  }
}

DistributedVector parallel_sttsv_dist(
    simt::Exchanger& exchanger, const TetraPartition& part,
    const tensor::SymTensor3& a, const DistributedVector& x,
    simt::Transport transport, std::vector<std::uint64_t>* ternary_out) {
  // Gather and scatter are free in the paper's I/O model; all traffic is
  // the Algorithm-5 run in between.
  const VectorDistribution& dist = x.distribution();
  ParallelRunResult run =
      parallel_sttsv(exchanger, part, dist, a, x.gather(), transport);
  if (ternary_out != nullptr) *ternary_out = std::move(run.ternary_mults);
  return DistributedVector::scatter(dist, run.y);
}

}  // namespace sttsv::core
