#include "kernel_probe.hpp"

#include <algorithm>

#include "batch/panel_kernels.hpp"
#include "perfbench.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace sb = sttsv::batch;

KernelProbe::KernelProbe(const sb::Plan& plan,
                         const sttsv::tensor::SymTensor3& a,
                         const sttsv::simt::Machine& machine,
                         std::uint64_t seed)
    : plan_(plan), a_(a), machine_(machine), seed_(seed) {}

ProbeTiming KernelProbe::measure(std::size_t lanes, std::size_t reps,
                                 bool driver_chunks) {
  const std::size_t P = plan_.num_processors();
  const std::size_t b = plan_.distribution().block_length_b();
  // Lane-interleaved local panels, laid out as the batch driver lays
  // them out: one b x lanes panel per row block of R_p.
  std::vector<std::vector<double>> x(P);
  std::vector<std::vector<double>> y(P);
  for (std::size_t p = 0; p < P; ++p) {
    sttsv::Rng rng(seed_ + p);
    x[p] = rng.uniform_vector(plan_.partition().R(p).size() * b * lanes);
    y[p].assign(x[p].size(), 0.0);
  }
  std::vector<std::uint64_t> mults(P, 0);
  const auto body = [&](std::size_t p) {
    std::uint64_t m = 0;
    for (const sttsv::partition::BlockCoord& c : plan_.owned(p)) {
      sb::PanelBuffers buf;
      const std::size_t slot[3] = {plan_.local_index(p, c.i),
                                   plan_.local_index(p, c.j),
                                   plan_.local_index(p, c.k)};
      for (int s = 0; s < 3; ++s) {
        buf.x[s] = x[p].data() + slot[s] * b * lanes;
        buf.y[s] = y[p].data() + slot[s] * b * lanes;
      }
      m += sb::apply_block_panel(a_, c, b, lanes, buf);
    }
    mults[p] = m;
  };
  std::vector<std::vector<std::size_t>> groups;
  if (driver_chunks && P > 1) {
    groups.resize(2);
    for (std::size_t p = 0; p < P; ++p) groups[p % 2].push_back(p);
  } else {
    groups.emplace_back();
    for (std::size_t p = 0; p < P; ++p) groups[0].push_back(p);
  }

  std::vector<double> ms;
  for (std::size_t r = 0; r < reps; ++r) {
    for (auto& yp : y) std::fill(yp.begin(), yp.end(), 0.0);
    const std::uint64_t t0 = now_ns();
    for (const auto& g : groups) machine_.run_ranks(g, body);
    ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  ProbeTiming out;
  out.ms = median(ms);
  for (const std::uint64_t m : mults) out.ternary_mults += m;
  return out;
}

}  // namespace perfbench
