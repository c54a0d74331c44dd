#include "host_speed.hpp"

#include <stdexcept>
#include <string>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLanes = 16;

/// Entries of a packed symmetric n^3 tensor with first index below i.
std::size_t entries_before(std::size_t i) { return i * (i + 1) * (i + 2) / 6; }

// The reference contraction over rows [i0, i1) of the packed tensor: every
// entry a_ijk (i >= j >= k) updates y_i, y_j and y_k on kLanes lanes, as a
// panel kernel does, reading the entries in storage order. One body,
// compiled with AVX2+FMA where the CPU has them (the ISA the library's
// panel kernels dispatch to there) and for the baseline ISA.
#define PERFBENCH_REFERENCE_BODY                   \
  const double* a = data + entries_before(i0);     \
  for (std::size_t i = i0; i < i1; ++i) {          \
    const double* xi = x + i * kLanes;             \
    double* yi = y + i * kLanes;                   \
    for (std::size_t j = 0; j <= i; ++j) {         \
      const double* xj = x + j * kLanes;           \
      double* yj = y + j * kLanes;                 \
      for (std::size_t k = 0; k <= j; ++k) {       \
        const double* xk = x + k * kLanes;         \
        double* yk = y + k * kLanes;               \
        const double v = *a++;                     \
        for (std::size_t l = 0; l < kLanes; ++l) { \
          yi[l] += v * xj[l] * xk[l];              \
          yj[l] += v * xi[l] * xk[l];              \
          yk[l] += v * xi[l] * xj[l];              \
        }                                          \
      }                                            \
    }                                              \
  }

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
__attribute__((target("avx2,fma"))) void reference_avx2(
    const double* data, std::size_t i0, std::size_t i1, const double* x,
    double* y) {
  PERFBENCH_REFERENCE_BODY
}
#endif

void reference_base(const double* data, std::size_t i0, std::size_t i1,
                    const double* x, double* y) {
  PERFBENCH_REFERENCE_BODY
}

#undef PERFBENCH_REFERENCE_BODY

void reference(const double* data, std::size_t i0, std::size_t i1,
               const double* x, double* y) {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  static const bool avx2 =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (avx2) {
    reference_avx2(data, i0, i1, x, y);
    return;
  }
#endif
  reference_base(data, i0, i1, x, y);
}

}  // namespace

void HostSpeed::bind(const double* data, std::size_t words, std::size_t n) {
  if (words != entries_before(n)) {
    throw std::invalid_argument("host speed reference: packed size " +
                                std::to_string(words) + " is not that of n=" +
                                std::to_string(n));
  }
  data_ = data;
  n_ = n;
  owed_ns_ = 0;
  x_.resize(n * kLanes);
  for (std::size_t i = 0; i < x_.size(); ++i) {
    x_[i] = 1.0 / static_cast<double>(i % 97 + 1);
  }
}

std::uint64_t HostSpeed::pass() {
  std::vector<std::vector<double>> y(threads_,
                                     std::vector<double>(n_ * kLanes, 0.0));
  // Rows split so every thread gets about the same number of entries.
  std::vector<std::size_t> cut(threads_ + 1, n_);
  cut[0] = 0;
  for (std::size_t t = 1, i = 0; t < threads_; ++t) {
    const std::size_t target = entries_before(n_) * t / threads_;
    while (i < n_ && entries_before(i) < target) ++i;
    cut[t] = i;
  }
  const std::uint64_t c0 = cpu_ns();
  {
    // jthreads join on every way out of this block, a failed spawn too.
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads_; ++t) {
      workers.emplace_back([&, t] {
        reference(data_, cut[t], cut[t + 1], x_.data(), y[t].data());
      });
    }
  }
  const std::uint64_t spent = cpu_ns() - c0;
  double sum = 0.0;
  for (const auto& yt : y) sum += yt[0];
  sink_ = sum;
  ns_per_entry_.push_back(static_cast<double>(spent) /
                          static_cast<double>(entries_before(n_)));
  last_pass_ns_ = spent;
  return spent;
}

bool HostSpeed::due(std::uint64_t work_cpu_ns) {
  owed_ns_ += work_cpu_ns;
  if (!ns_per_entry_.empty() &&
      static_cast<double>(owed_ns_) <
          kWorkPerPass * static_cast<double>(last_pass_ns_)) {
    return false;
  }
  owed_ns_ = 0;
  return true;
}

double HostSpeed::factor() const {
  return ns_per_entry_.empty() ? 1.0
                               : median(ns_per_entry_) / kNominalNsPerEntry;
}

}  // namespace perfbench
