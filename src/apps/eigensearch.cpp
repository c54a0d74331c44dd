#include "apps/eigensearch.hpp"

#include <algorithm>
#include <cmath>

#include "apps/vec_ops.hpp"
#include "batch/batched_run.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sttsv::apps {

namespace {

/// Canonical representative of the (x, λ)/(-x, -λ) couple: make the
/// entry of largest magnitude positive; flip λ in step.
void canonicalize(std::vector<double>& x, double& lambda) {
  std::size_t arg = 0;
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (std::abs(x[i]) > std::abs(x[arg])) arg = i;
  }
  if (x[arg] < 0.0) {
    for (auto& v : x) v = -v;
    lambda = -lambda;
  }
}

/// Folds one converged start into the deduplicated set (shared by the
/// sequential and batched drivers so both apply identical policy).
void merge_eigenpair(std::vector<Eigenpair>& found, HopmResult res,
                     const EigenSearchOptions& opts) {
  canonicalize(res.eigenvector, res.eigenvalue);
  for (Eigenpair& pair : found) {
    if (std::abs(pair.value - res.eigenvalue) <= opts.dedup_value_tol &&
        sign_invariant_distance(pair.vector, res.eigenvector) <=
            opts.dedup_vector_tol) {
      ++pair.hits;
      // Keep the better-converged representative.
      if (res.residual < pair.residual) {
        pair.value = res.eigenvalue;
        pair.vector = std::move(res.eigenvector);
        pair.residual = res.residual;
      }
      return;
    }
  }
  found.push_back(Eigenpair{res.eigenvalue, std::move(res.eigenvector),
                            res.residual, 1});
}

void sort_by_magnitude(std::vector<Eigenpair>& found) {
  std::sort(found.begin(), found.end(),
            [](const Eigenpair& a_, const Eigenpair& b_) {
              return std::abs(a_.value) > std::abs(b_.value);
            });
}

}  // namespace

std::vector<Eigenpair> find_eigenpairs(const tensor::SymTensor3& a,
                                       const EigenSearchOptions& opts) {
  std::vector<Eigenpair> found;
  for (std::size_t start = 0; start < opts.num_starts; ++start) {
    HopmOptions run = opts.hopm;
    run.seed = opts.seed_base + start;
    HopmResult res = hopm(a, run);
    if (!res.converged) continue;
    merge_eigenpair(found, std::move(res), opts);
  }
  sort_by_magnitude(found);
  return found;
}

std::vector<Eigenpair> find_eigenpairs_batched(
    simt::Machine& machine, const batch::Plan& plan,
    const tensor::SymTensor3& a, const EigenSearchOptions& opts) {
  STTSV_REQUIRE(plan.key().n == a.dim(),
                "plan dimension must match the tensor");
  STTSV_REQUIRE(machine.num_ranks() == plan.num_processors(),
                "machine rank count must match plan");
  const std::size_t n = a.dim();
  const HopmOptions& hopts = opts.hopm;

  // Per-start SS-HOPM state, initialized exactly as hopm() would.
  struct Start {
    std::vector<double> x;
    std::size_t iterations = 0;
    bool converged = false;
  };
  std::vector<Start> starts(opts.num_starts);
  for (std::size_t s = 0; s < opts.num_starts; ++s) {
    Rng rng(opts.seed_base + s);
    starts[s].x = rng.uniform_vector(n, -1.0, 1.0);
    normalize(starts[s].x);
  }

  // Size the pool for the widest wave (every start) so even the first
  // wave's message path is allocation-free (DESIGN.md §12).
  plan.prewarm_pool(machine.pool(), std::max<std::size_t>(opts.num_starts, 1));
  machine.first_touch();

  // One batched apply of the iterates of every start in `wave`; results
  // land in ys[s].
  std::vector<std::vector<double>> ys(opts.num_starts);
  const auto batched_wave = [&](const std::vector<std::size_t>& wave) {
    std::vector<std::vector<double>> xs;
    xs.reserve(wave.size());
    for (const std::size_t s : wave) xs.push_back(starts[s].x);
    batch::BatchRunResult run =
        batch::parallel_sttsv_batch(machine, plan, a, xs);
    for (std::size_t k = 0; k < wave.size(); ++k) {
      ys[wave[k]] = std::move(run.y[k]);
    }
  };

  // Lockstep iteration waves: each wave is one aggregated exchange for
  // every start still iterating, mirroring hopm_loop step for step.
  std::vector<std::size_t> active(opts.num_starts);
  for (std::size_t s = 0; s < opts.num_starts; ++s) active[s] = s;
  for (std::size_t it = 1; it <= hopts.max_iterations && !active.empty();
       ++it) {
    batched_wave(active);
    std::vector<std::size_t> still_active;
    for (const std::size_t s : active) {
      std::vector<double> y = std::move(ys[s]);
      if (hopts.shift != 0.0) y = axpy(y, hopts.shift, starts[s].x);
      normalize(y);
      const double delta = sign_invariant_distance(starts[s].x, y);
      starts[s].x = std::move(y);
      starts[s].iterations = it;
      if (delta < hopts.tolerance) {
        starts[s].converged = true;
      } else {
        still_active.push_back(s);
      }
    }
    active = std::move(still_active);
  }

  // Final batched apply for the Rayleigh quotient and residual of every
  // converged start (non-converged starts are dropped, as in
  // find_eigenpairs).
  std::vector<std::size_t> converged;
  for (std::size_t s = 0; s < opts.num_starts; ++s) {
    if (starts[s].converged) converged.push_back(s);
  }
  if (converged.empty()) return {};
  batched_wave(converged);

  std::vector<Eigenpair> found;
  for (const std::size_t s : converged) {
    const std::vector<double>& x = starts[s].x;
    const std::vector<double>& ax = ys[s];
    HopmResult res;
    res.eigenvalue = dot(x, ax);
    double res2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double r = ax[i] - res.eigenvalue * x[i];
      res2 += r * r;
    }
    res.residual = std::sqrt(res2);
    res.iterations = starts[s].iterations;
    res.converged = true;
    res.eigenvector = starts[s].x;
    merge_eigenpair(found, std::move(res), opts);
  }
  sort_by_magnitude(found);
  return found;
}

}  // namespace sttsv::apps
