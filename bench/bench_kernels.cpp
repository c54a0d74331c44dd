// Microbenchmarks (google-benchmark) of the local kernels — the
// constant-factor motivation of the paper's Section 1: exploiting
// symmetry halves the ternary multiplications (Algorithm 4 vs 3), and
// blocked kernels process the same work tile-by-tile.
//
// After the google-benchmark suite, main() runs a fixed sweep of the
// class-specialized block kernels against the seed element-wise kernel
// (apply_block_generic) and of the threaded superstep executor against
// the sequential rank schedule, and writes the results to
// BENCH_kernels.json in the working directory — the machine-readable
// perf baseline this and future PRs are measured against.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/block_kernels.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "core/sttv_d.hpp"
#include "core/two_step.hpp"
#include "matrix/sym_matrix.hpp"
#include "repro_common.hpp"
#include "partition/blocks.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "simt/machine.hpp"
#include "simt/parallel_for.hpp"
#include "steiner/constructions.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "tensor/dense3.hpp"
#include "tensor/generators.hpp"
#include "tensor/sym_tensor_d.hpp"

namespace {

using namespace sttsv;

void BM_SttsvNaiveDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto a = tensor::random_symmetric(n, rng);
  const auto dense = tensor::to_dense(a);
  const auto x = rng.uniform_vector(n);
  for (auto _ : state) {
    auto y = core::sttsv_naive(dense, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_SttsvNaiveDense)->Arg(32)->Arg(64)->Arg(96);

void BM_SttsvSymmetric(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  for (auto _ : state) {
    auto y = core::sttsv_symmetric(a, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * (n + 1) / 2));
}
BENCHMARK(BM_SttsvSymmetric)->Arg(32)->Arg(64)->Arg(96);

void BM_SttsvPacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  for (auto _ : state) {
    auto y = core::sttsv_packed(a, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * (n + 1) / 2));
}
BENCHMARK(BM_SttsvPacked)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_BlockedKernels(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = 4;
  const std::size_t b = (n + m - 1) / m;
  Rng rng(4);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  const auto blocks = partition::all_lower_blocks(m);
  std::vector<double> x_pad(m * b, 0.0);
  std::copy(x.begin(), x.end(), x_pad.begin());
  std::vector<double> y_pad(m * b, 0.0);
  for (auto _ : state) {
    std::fill(y_pad.begin(), y_pad.end(), 0.0);
    for (const auto& c : blocks) {
      core::BlockBuffers buf;
      buf.x[0] = x_pad.data() + c.i * b;
      buf.x[1] = x_pad.data() + c.j * b;
      buf.x[2] = x_pad.data() + c.k * b;
      buf.y[0] = y_pad.data() + c.i * b;
      buf.y[1] = y_pad.data() + c.j * b;
      buf.y[2] = y_pad.data() + c.k * b;
      benchmark::DoNotOptimize(core::apply_block(a, c, b, buf));
    }
    benchmark::DoNotOptimize(y_pad.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * (n + 1) / 2));
}
BENCHMARK(BM_BlockedKernels)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

using KernelFn = std::uint64_t (*)(const tensor::SymTensor3&,
                                   const partition::BlockCoord&, std::size_t,
                                   const core::BlockBuffers&);

/// One strictly off-diagonal (interior) block, specialized vs seed kernel.
void single_interior_block(benchmark::State& state, KernelFn kernel) {
  const auto b = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 3 * b;
  Rng rng(5);
  const auto a = tensor::random_symmetric(n, rng);
  std::vector<double> x(n, 1.0);
  std::vector<double> y(n, 0.0);
  const partition::BlockCoord c{2, 1, 0};
  core::BlockBuffers buf;
  buf.x[0] = x.data() + 2 * b;
  buf.x[1] = x.data() + b;
  buf.x[2] = x.data();
  buf.y[0] = y.data() + 2 * b;
  buf.y[1] = y.data() + b;
  buf.y[2] = y.data();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(a, c, b, buf));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(3 * b * b * b));
}
void BM_SingleInteriorBlock(benchmark::State& state) {
  single_interior_block(state, core::apply_block);
}
void BM_SingleInteriorBlockSeed(benchmark::State& state) {
  single_interior_block(state, core::apply_block_generic);
}
BENCHMARK(BM_SingleInteriorBlock)->Arg(8)->Arg(16)->Arg(32)->Arg(64);
BENCHMARK(BM_SingleInteriorBlockSeed)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_TwoStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  for (auto _ : state) {
    auto y = core::sttsv_two_step(a, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n * n + n * n));
}
BENCHMARK(BM_TwoStep)->Arg(32)->Arg(64)->Arg(96);

void BM_Symv(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  const auto a = matrix::random_symmetric_matrix(n, rng);
  const auto x = rng.uniform_vector(n);
  for (auto _ : state) {
    auto y = matrix::symv(a, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * (n + 1) / 2));
}
BENCHMARK(BM_Symv)->Arg(256)->Arg(512)->Arg(1024);

void BM_SttvOrderD(benchmark::State& state) {
  const auto d = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 24;
  Rng rng(8);
  tensor::SymTensorD a(n, d);
  for (std::size_t idx = 0; idx < a.packed_size(); ++idx) {
    a.data()[idx] = rng.next_in(-1.0, 1.0);
  }
  const auto x = rng.uniform_vector(n);
  for (auto _ : state) {
    auto y = core::sttv_symmetric_d(a, x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(core::symmetric_dary_mults(n, d)));
}
BENCHMARK(BM_SttvOrderD)->Arg(2)->Arg(3)->Arg(4);

// ---------------------------------------------------------------------------
// BENCH_kernels.json: machine-readable perf baseline.
// ---------------------------------------------------------------------------

const char* class_name(const partition::BlockCoord& c) {
  if (c.i > c.j && c.j > c.k) return "interior";
  if (c.i == c.j && c.j > c.k) return "face_ij";
  if (c.i > c.j && c.j == c.k) return "face_jk";
  return "central";
}

struct ClassTiming {
  std::string cls;
  std::size_t blocks = 0;
  std::uint64_t entries = 0;
  std::uint64_t mults = 0;
  double seed_s = 0.0;
  double spec_s = 0.0;    // apply_block (preferred ISA)
  double scalar_s = 0.0;  // the same kernels pinned to the scalar ISA
};

/// Applies `kernel` once to every block of `blocks` (the usual padded
/// tiling buffers) and returns elapsed seconds.
template <typename Kernel>
double time_class_once(Kernel&& kernel, const tensor::SymTensor3& a,
                       const std::vector<partition::BlockCoord>& blocks,
                       std::size_t b, std::vector<double>& x_pad,
                       std::vector<double>& y_pad) {
  Timer t;
  std::uint64_t sink = 0;
  for (const auto& c : blocks) {
    core::BlockBuffers buf;
    buf.x[0] = x_pad.data() + c.i * b;
    buf.x[1] = x_pad.data() + c.j * b;
    buf.x[2] = x_pad.data() + c.k * b;
    buf.y[0] = y_pad.data() + c.i * b;
    buf.y[1] = y_pad.data() + c.j * b;
    buf.y[2] = y_pad.data() + c.k * b;
    sink += kernel(a, c, b, buf);
  }
  benchmark::DoNotOptimize(sink);
  return t.seconds();
}

/// Repeats a timed thunk until it has run >= min_total seconds (at least
/// `min_reps` times) and returns the fastest repetition. Minimum, not
/// mean: on a shared host the distribution is the kernel's true time
/// plus one-sided scheduler noise, so the min is the robust estimator.
template <typename F>
double time_per_rep(F&& thunk, double min_total = 0.08, int min_reps = 3) {
  (void)thunk();  // warm-up
  double total = 0.0;
  double best = 0.0;
  int reps = 0;
  while (reps < min_reps || total < min_total) {
    const double s = thunk();
    total += s;
    if (reps == 0 || s < best) best = s;
    ++reps;
  }
  return best;
}

/// Seed-vs-specialized timings for every block class of an m=4 tiling of
/// dimension n.
std::vector<ClassTiming> sweep_block_classes(std::size_t n) {
  const std::size_t m = 4;
  const std::size_t b = (n + m - 1) / m;
  Rng rng(19 + n);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  std::vector<double> x_pad(m * b, 0.0);
  std::copy(x.begin(), x.end(), x_pad.begin());
  std::vector<double> y_pad(m * b, 0.0);

  // Group the tiling's blocks by class.
  std::vector<ClassTiming> out;
  for (const char* cls : {"interior", "face_ij", "face_jk", "central"}) {
    std::vector<partition::BlockCoord> blocks;
    for (const auto& c : partition::all_lower_blocks(m)) {
      if (std::string(class_name(c)) == cls) blocks.push_back(c);
    }
    ClassTiming t;
    t.cls = cls;
    t.blocks = blocks.size();
    for (const auto& c : blocks) {
      core::BlockBuffers buf;
      buf.x[0] = x_pad.data() + c.i * b;
      buf.x[1] = x_pad.data() + c.j * b;
      buf.x[2] = x_pad.data() + c.k * b;
      buf.y[0] = y_pad.data() + c.i * b;
      buf.y[1] = y_pad.data() + c.j * b;
      buf.y[2] = y_pad.data() + c.k * b;
      t.mults += core::apply_block(a, c, b, buf);
      t.entries += partition::entries_in_block(partition::classify(c), b);
    }
    std::fill(y_pad.begin(), y_pad.end(), 0.0);
    t.seed_s = time_per_rep([&] {
      return time_class_once(core::apply_block_generic, a, blocks, b, x_pad,
                             y_pad);
    });
    std::fill(y_pad.begin(), y_pad.end(), 0.0);
    t.spec_s = time_per_rep([&] {
      return time_class_once(core::apply_block, a, blocks, b, x_pad, y_pad);
    });
    // The same kernels pinned to the portable scalar ISA, so the
    // artifact records the vectorization gain separately from the
    // class-specialization gain.
    const auto scalar_kernel = [](const tensor::SymTensor3& ten,
                                  const partition::BlockCoord& c,
                                  std::size_t bb,
                                  const core::BlockBuffers& buf) {
      return core::apply_block_isa(ten, c, bb, buf, simt::KernelIsa::kScalar);
    };
    std::fill(y_pad.begin(), y_pad.end(), 0.0);
    t.scalar_s = time_per_rep([&] {
      return time_class_once(scalar_kernel, a, blocks, b, x_pad, y_pad);
    });
    out.push_back(t);
  }
  return out;
}

/// End-to-end Algorithm 5 wall clock with the sequential rank schedule vs
/// the threaded superstep executor; also records the per-run ledger words
/// so the JSON itself witnesses that host threading leaves the modeled
/// communication untouched.
struct ExecutorTiming {
  std::size_t n = 0;
  std::size_t P = 0;
  double serial_s = 0.0;
  double threaded_s = 0.0;
  std::size_t threads = 0;
  std::uint64_t serial_words = 0;
  std::uint64_t threaded_words = 0;
};

ExecutorTiming sweep_executor(std::size_t q, std::size_t n) {
  auto part = partition::TetraPartition::build(steiner::spherical_system(q));
  partition::VectorDistribution dist(part, n);
  Rng rng(23);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);

  ExecutorTiming t;
  t.n = n;
  t.P = part.num_processors();
  t.threads = simt::host_concurrency();
  // Words per run, measured on a fresh machine each (resetting between
  // timing reps would pollute the timing, so words are probed separately).
  const auto words_of_one_run = [&] {
    simt::Machine probe(t.P);
    auto r = core::parallel_sttsv(probe, part, dist, a, x,
                                  simt::Transport::kPointToPoint);
    benchmark::DoNotOptimize(r.y.data());
    return probe.ledger().total_words();
  };
  {
    simt::ConcurrencyGuard serial(1);
    t.serial_words = words_of_one_run();
    simt::Machine machine(t.P);
    t.serial_s = time_per_rep([&] {
      Timer timer;
      auto r = core::parallel_sttsv(machine, part, dist, a, x,
                                    simt::Transport::kPointToPoint);
      benchmark::DoNotOptimize(r.y.data());
      return timer.seconds();
    });
  }
  {
    t.threaded_words = words_of_one_run();
    simt::Machine machine(t.P);
    t.threaded_s = time_per_rep([&] {
      Timer timer;
      auto r = core::parallel_sttsv(machine, part, dist, a, x,
                                    simt::Transport::kPointToPoint);
      benchmark::DoNotOptimize(r.y.data());
      return timer.seconds();
    });
  }
  return t;
}

void write_json(const char* path, bool quick) {
  std::ofstream out(path);
  repro::JsonWriter w(out);
  w.begin_object();
  w.field("schema", "sttsv.bench/v1");
  w.field("bench", "bench_kernels");
  w.field("mode", quick ? "quick" : "full");
  w.field("flops_per_ternary_mult", std::uint64_t{2});
  w.field("kernel_isa", simt::isa_name(simt::preferred_isa()));
  w.field("cpu_features", simt::cpu_features_string());
  w.field("simd_compiled", simt::simd_compiled());
  w.begin_array("block_classes");
  const std::vector<std::size_t> class_sizes =
      quick ? std::vector<std::size_t>{96} : std::vector<std::size_t>{96, 192, 256, 384};
  for (const std::size_t n : class_sizes) {
    for (const ClassTiming& t : sweep_block_classes(n)) {
      const double mults = static_cast<double>(t.mults);
      const double entries = static_cast<double>(t.entries);
      // Roofline coordinates: each packed entry is an 8-byte load and
      // contributes its class's multiplications at 2 flops each; x/y
      // block traffic is O(b²) against O(b³) tensor reads and is left
      // out. flops/byte ≈ 0.75 for all classes — far below any FP
      // roofline, i.e. the kernels live on the memory-bound slope.
      const double bytes = 8.0 * entries;
      w.begin_object();
      w.field("n", static_cast<std::uint64_t>(n));
      w.field("b", static_cast<std::uint64_t>((n + 3) / 4));
      w.field("class", t.cls);
      w.field("blocks", static_cast<std::uint64_t>(t.blocks));
      w.field("entries", t.entries);
      w.field("ternary_mults", t.mults);
      w.field("seed_seconds", t.seed_s);
      w.field("specialized_seconds", t.spec_s);
      w.field("scalar_seconds", t.scalar_s);
      w.field("seed_entries_per_s", entries / t.seed_s);
      w.field("specialized_entries_per_s", entries / t.spec_s);
      w.field("seed_gflops", 2.0 * mults / t.seed_s / 1e9);
      w.field("specialized_gflops", 2.0 * mults / t.spec_s / 1e9);
      w.field("tensor_bytes", bytes);
      w.field("flops_per_byte", 2.0 * mults / bytes);
      w.field("specialized_gbytes_per_s", bytes / t.spec_s / 1e9);
      w.field("speedup", t.seed_s / t.spec_s);
      w.field("simd_speedup", t.scalar_s / t.spec_s);
      w.end_object();
    }
  }
  w.end_array();
  w.begin_array("threaded_executor");
  const auto executor_sizes =
      quick ? std::vector<std::pair<std::size_t, std::size_t>>{{2, 120}}
            : std::vector<std::pair<std::size_t, std::size_t>>{{2, 120},
                                                               {2, 240}};
  for (const auto& [q, n] : executor_sizes) {
    const ExecutorTiming t = sweep_executor(q, n);
    w.begin_object();
    w.field("n", static_cast<std::uint64_t>(t.n));
    w.field("P", static_cast<std::uint64_t>(t.P));
    w.field("host_threads", static_cast<std::uint64_t>(t.threads));
    w.field("serial_seconds", t.serial_s);
    w.field("threaded_seconds", t.threaded_s);
    w.field("speedup", t.serial_s / t.threaded_s);
    w.field("serial_total_ledger_words", t.serial_words);
    w.field("threaded_total_ledger_words", t.threaded_words);
    w.end_object();
  }
  w.end_array();
  // Shared observability block (ledger + metrics) from one probe run of
  // the executor's smallest configuration, so this artifact carries the
  // same "ledger"/"metrics" shape as the other benches.
  {
    auto part =
        partition::TetraPartition::build(steiner::spherical_system(2));
    partition::VectorDistribution dist(part, 120);
    Rng rng(23);
    const auto a = tensor::random_symmetric(120, rng);
    const auto x = rng.uniform_vector(120);
    simt::Machine probe(part.num_processors());
    const auto r = core::parallel_sttsv(probe, part, dist, a, x,
                                        simt::Transport::kPointToPoint);
    obs::MetricsRegistry registry;
    probe.ledger().to_metrics(registry);
    std::uint64_t mults = 0;
    for (const auto m : r.ternary_mults) mults += m;
    registry.set_counter("kernels.ternary_mults", mults);
    repro::write_observability(w, probe.ledger(), registry);
  }
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  // `--quick` is ours, not google-benchmark's: strip it before Initialize.
  bool quick = false;
  for (int i = 1; i < argc;) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
    } else {
      ++i;
    }
  }
  std::cout << "kernel ISA   : " << simt::isa_name(simt::preferred_isa())
            << " (compiled-in SIMD: " << (simt::simd_compiled() ? "yes" : "no")
            << ")\n"
            << "cpu features : " << simt::cpu_features_string() << "\n"
            << "reg blocking : rj_interior=4 rj_face_ij=2 (fixed)\n";
  // Quick mode: run each google-benchmark case briefly (CI smoke) and
  // reduce the fixed JSON sweeps; the artifact keeps the same schema.
  std::vector<char*> bench_args(argv, argv + argc);
  std::string min_time_arg = "--benchmark_min_time=0.01";
  if (quick) bench_args.push_back(min_time_arg.data());
  int bench_argc = static_cast<int>(bench_args.size());
  benchmark::Initialize(&bench_argc, bench_args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, bench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_json("BENCH_kernels.json", quick);
  return 0;
}
