// sttsv — command-line front end to the library.
//
//   sttsv plan --max-p 500 [--n 4200]       admissible processor counts
//   sttsv partition --q 3 | --k 3 | --m 12  print R_p/N_p/D_p/Q_i tables
//   sttsv schedule --q 3                    point-to-point round schedule
//   sttsv run --q 2 --n 60 [--transport p2p|a2a] [--seed 1]
//                                           simulated parallel STTSV run
//   sttsv apply --tensor F --vector G [--out H]
//                                           sequential STTSV on files
//   sttsv hopm --n 40 [--rank 3] [--shift 1.0] [--seed 7]
//                                           Z-eigenpair demo
//
// Every command exits 0 on success and 1 on failure or bad usage.

#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "apps/eigensearch.hpp"
#include "apps/hopm.hpp"
#include "batch/batched_run.hpp"
#include "batch/plan.hpp"
#include "core/baselines.hpp"
#include "iosim/sequential_io.hpp"
#include "matrix/pair_system.hpp"
#include "matrix/parallel_symv.hpp"
#include "matrix/sym_matrix.hpp"
#include "matrix/triangle_partition.hpp"
#include "core/costs.hpp"
#include "core/parallel_sttsv.hpp"
#include "core/sttsv_seq.hpp"
#include "graph/bipartite.hpp"
#include "partition/tetra_partition.hpp"
#include "partition/vector_distribution.hpp"
#include "schedule/comm_schedule.hpp"
#include "simt/machine.hpp"
#include "steiner/constructions.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"
#include "support/text.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"

namespace {

using namespace sttsv;

void print_usage() {
  std::cout <<
      "usage: sttsv <command> [options]\n"
      "\n"
      "commands:\n"
      "  plan       --max-p P [--n N]          list admissible processor counts\n"
      "  partition  --q Q | --k K | --m M      print partition tables\n"
      "  schedule   --q Q | --k K | --m M      print the p2p round schedule\n"
      "  run        --q Q --n N [--transport p2p|a2a] [--seed S]\n"
      "  auto       --budget P --n N [--seed S]      planner-chosen partition\n"
      "  apply      --tensor FILE --vector FILE [--out FILE]\n"
      "  hopm       --n N [--rank R] [--shift A] [--seed S]\n"
      "  search     --n N [--rank R] [--starts K]    multi-start eigenpairs\n"
      "  symv       --q Q --n N                      2D triangle partition run\n"
      "  iosim      --n N [--tile B] [--cache M]     sequential I/O model\n";
}

/// Builds the Steiner system selected by --q/--k/--m (exactly one).
steiner::SteinerSystem system_from_args(const ArgParser& args) {
  const int given = static_cast<int>(args.has("q")) +
                    static_cast<int>(args.has("k")) +
                    static_cast<int>(args.has("m"));
  STTSV_REQUIRE(given == 1, "give exactly one of --q, --k, --m");
  if (args.has("q")) {
    return steiner::spherical_system(args.get_u64("q"));
  }
  if (args.has("k")) {
    return steiner::boolean_quadruple_system(
        static_cast<unsigned>(args.get_u64("k")));
  }
  return steiner::trivial_triple_system(args.get_u64("m"));
}

std::string set_1based(const std::vector<std::size_t>& v) {
  std::vector<std::size_t> shifted(v);
  for (auto& x : shifted) ++x;
  return brace_set(shifted);
}

std::string blocks_1based(const std::vector<partition::BlockCoord>& blocks) {
  std::string out;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (i) out += ' ';
    out += triple(blocks[i].i + 1, blocks[i].j + 1, blocks[i].k + 1);
  }
  return out.empty() ? "{}" : out;
}

int cmd_plan(const ArgParser& args) {
  const std::size_t max_p = args.get_u64_or("max-p", 600);
  const std::size_t n = args.get_u64_or("n", 0);
  TextTable table({"family", "param", "m", "r", "P", "lower bound",
                   "alg words", "p2p steps"},
                  std::vector<Align>(8, Align::kRight));
  for (const auto& f : steiner::admissible_processor_counts(max_p)) {
    std::string lb = "-";
    std::string words = "-";
    std::string steps = "-";
    if (n > 0) {
      lb = format_double(core::lower_bound_words(n, f.P), 0);
      if (f.family == "spherical") {
        words = format_double(core::optimal_algorithm_words(n, f.q), 0);
        steps = std::to_string(core::p2p_steps_per_vector(f.q));
      }
    }
    table.add_row({f.family,
                   f.family == "spherical" ? "q=" + std::to_string(f.q)
                                           : "k=" + std::to_string(f.k),
                   std::to_string(f.m), std::to_string(f.r),
                   std::to_string(f.P), lb, words, steps});
  }
  std::cout << table;
  std::cout << "(the trivial S(m,3,3) family additionally provides "
               "P = C(m,3) for every m >= 4; use `partition --m M`)\n";
  return 0;
}

int cmd_partition(const ArgParser& args) {
  const auto part = partition::TetraPartition::build(system_from_args(args));
  std::cout << "m = " << part.num_row_blocks()
            << " row blocks, P = " << part.num_processors()
            << " processors, |R_p| = " << part.steiner_block_size() << "\n\n";
  TextTable table({"p", "R_p", "N_p", "D_p"},
                  {Align::kRight, Align::kLeft, Align::kLeft, Align::kLeft});
  for (std::size_t p = 0; p < part.num_processors(); ++p) {
    table.add_row({std::to_string(p + 1), set_1based(part.R(p)),
                   blocks_1based(part.N(p)), blocks_1based(part.D(p))});
  }
  std::cout << table << "\n";
  TextTable qtable({"i", "Q_i"}, {Align::kRight, Align::kLeft});
  for (std::size_t i = 0; i < part.num_row_blocks(); ++i) {
    qtable.add_row({std::to_string(i + 1), set_1based(part.Q(i))});
  }
  std::cout << qtable;
  part.validate();
  std::cout << "partition validated: every lower-tetra block owned once\n";
  return 0;
}

int cmd_schedule(const ArgParser& args) {
  const auto part = partition::TetraPartition::build(system_from_args(args));
  const auto sched = schedule::build_schedule(part);
  sched.validate(part);
  std::cout << "P = " << part.num_processors() << ": "
            << sched.num_rounds() << " rounds ("
            << sched.two_block_rounds() << " two-share + "
            << sched.one_block_rounds() << " one-share), vs P-1 = "
            << part.num_processors() - 1 << " for All-to-All\n\n";
  std::size_t step = 1;
  for (const auto& round : sched.rounds()) {
    std::cout << "round " << step++ << ": ";
    bool first = true;
    for (std::size_t p = 0; p < round.send_to.size(); ++p) {
      if (round.send_to[p] == graph::kNone) continue;
      if (!first) std::cout << "  ";
      first = false;
      std::cout << (p + 1) << "->" << (round.send_to[p] + 1);
    }
    std::cout << "\n";
  }
  return 0;
}

int cmd_run(const ArgParser& args) {
  const std::size_t q = args.get_u64("q");
  const std::size_t n = args.get_u64("n");
  const std::uint64_t seed = args.get_u64_or("seed", 1);
  const std::string transport_name = args.get_or("transport", "p2p");
  STTSV_REQUIRE(transport_name == "p2p" || transport_name == "a2a",
                "--transport must be p2p or a2a");
  const auto transport = transport_name == "p2p"
                             ? simt::Transport::kPointToPoint
                             : simt::Transport::kAllToAll;

  const auto part =
      partition::TetraPartition::build(steiner::spherical_system(q));
  const partition::VectorDistribution dist(part, n);
  Rng rng(seed);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(part.num_processors());
  const auto result =
      core::parallel_sttsv(machine, part, dist, a, x, transport);

  const auto y_ref = core::sttsv_packed(a, x);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::abs(result.y[i] - y_ref[i]));
  }

  std::cout << "parallel STTSV: q = " << q << ", P = "
            << machine.num_ranks() << ", n = " << n << ", transport = "
            << transport_name << "\n";
  std::cout << "  max |parallel - sequential| = " << max_diff << "\n";
  std::cout << "  max words sent by any rank  = "
            << machine.ledger().max_words_sent() << "\n";
  std::cout << "  paper algorithm formula     = "
            << core::optimal_algorithm_words(n, q) << "\n";
  std::cout << "  lower bound (Theorem 5.2)   = "
            << core::lower_bound_words(n, machine.num_ranks()) << "\n";
  std::cout << "  communication rounds        = "
            << machine.ledger().rounds() << "\n";
  std::cout << "  total messages              = "
            << machine.ledger().total_messages() << "\n";
  return max_diff < 1e-8 ? 0 : 1;
}

int cmd_apply(const ArgParser& args) {
  const auto a = tensor::load_tensor(args.get("tensor"));
  std::ifstream vin(args.get("vector"));
  STTSV_REQUIRE(vin.is_open(), "cannot open vector file");
  const auto x = tensor::read_vector(vin);
  const auto y = core::sttsv_packed(a, x);
  if (args.has("out")) {
    std::ofstream out(args.get("out"));
    STTSV_REQUIRE(out.is_open(), "cannot open output file");
    tensor::write_vector(out, y);
  } else {
    tensor::write_vector(std::cout, y);
  }
  return 0;
}

int cmd_hopm(const ArgParser& args) {
  const std::size_t n = args.get_u64("n");
  const std::size_t rank = args.get_u64_or("rank", 3);
  const std::uint64_t seed = args.get_u64_or("seed", 7);
  Rng rng(seed);
  std::vector<double> weights(rank);
  for (std::size_t l = 0; l < rank; ++l) {
    weights[l] = static_cast<double>(rank - l);
  }
  const auto a = tensor::random_low_rank(n, weights, rng, nullptr);

  apps::HopmOptions opts;
  opts.seed = seed + 1;
  opts.shift = args.get_f64_or("shift", 1.0);
  opts.max_iterations = args.get_u64_or("max-iters", 3000);
  const auto res = apps::hopm(a, opts);
  std::cout << "HOPM on a rank-" << rank << " symmetric tensor (n = " << n
            << "): lambda = " << res.eigenvalue << ", iterations = "
            << res.iterations << ", residual = " << res.residual
            << (res.converged ? "" : " (NOT converged)") << "\n";
  return res.converged ? 0 : 1;
}

const char* family_name(batch::Family family) {
  switch (family) {
    case batch::Family::kSpherical:
      return "spherical";
    case batch::Family::kBoolean:
      return "boolean";
    case batch::Family::kTrivial:
      return "triples";
  }
  return "unknown";
}

int cmd_auto(const ArgParser& args) {
  const std::size_t budget = args.get_u64("budget");
  const std::size_t n = args.get_u64("n");
  const std::uint64_t seed = args.get_u64_or("seed", 1);

  const auto plan = batch::Plan::build(batch::plan_key_for_budget(
      budget, n, simt::Transport::kPointToPoint));
  const batch::PlanKey& key = plan->key();
  const auto& part = plan->partition();
  const auto& dist = plan->distribution();
  const std::size_t b = dist.block_length_b();
  const bool spherical = key.family == batch::Family::kSpherical;
  std::size_t tensor_words = 0;
  std::size_t vector_words = 0;
  for (std::size_t p = 0; p < key.processors; ++p) {
    tensor_words = std::max(tensor_words, part.stored_entries(p, b));
    vector_words = std::max(vector_words, dist.local_elements(p));
  }
  std::cout << "plan: family = " << family_name(key.family)
            << (spherical ? " (q = " + std::to_string(key.param) + ")" : "")
            << ", P = " << key.processors << " of budget " << budget
            << ", m = " << part.num_row_blocks() << ", b = " << b << "\n";
  // Spherical plans print the Section 7.2.2 closed form; the others the
  // busiest rank's words the chooser ranked them by.
  std::cout << "  predicted words/rank  = "
            << (spherical ? core::optimal_algorithm_words(n, key.param)
                          : core::steiner_algorithm_words(
                                n, part.num_row_blocks(),
                                part.steiner_block_size()))
            << "\n";
  std::cout << "  lower bound           = "
            << core::lower_bound_words(n, key.processors) << "\n";
  std::cout << "  tensor words/rank     = " << tensor_words << "\n";
  std::cout << "  vector words/rank     = " << vector_words << "\n";

  Rng rng(seed);
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  auto machine = plan->make_machine();
  const auto y = batch::parallel_sttsv_batch(machine, *plan, a, {x}).y[0];
  const auto y_ref = core::sttsv_packed(a, x);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::abs(y[i] - y_ref[i]));
  }
  std::cout << "  measured words/rank   = "
            << machine.ledger().max_words_sent() << "\n";
  std::cout << "  max |error|           = " << max_diff << "\n";
  return max_diff < 1e-8 ? 0 : 1;
}

int cmd_search(const ArgParser& args) {
  const std::size_t n = args.get_u64("n");
  const std::size_t rank = args.get_u64_or("rank", 3);
  Rng rng(args.get_u64_or("seed", 7));
  std::vector<double> weights(rank);
  for (std::size_t l = 0; l < rank; ++l) {
    weights[l] = static_cast<double>(2 * (rank - l));
  }
  const auto a = tensor::random_low_rank(n, weights, rng, nullptr);

  apps::EigenSearchOptions opts;
  opts.num_starts = args.get_u64_or("starts", 16);
  opts.hopm.shift = args.get_f64_or("shift", 1.0);
  opts.hopm.max_iterations = 3000;
  const auto pairs = apps::find_eigenpairs(a, opts);
  std::cout << "found " << pairs.size() << " distinct eigenpairs from "
            << opts.num_starts << " starts (rank-" << rank
            << " tensor, n = " << n << "):\n";
  for (const auto& pair : pairs) {
    std::cout << "  lambda = " << pair.value << "  (hits " << pair.hits
              << ", residual " << pair.residual << ")\n";
  }
  return pairs.empty() ? 1 : 0;
}

int cmd_symv(const ArgParser& args) {
  const std::size_t q = args.get_u64("q");
  const std::size_t n = args.get_u64("n");
  const auto part =
      matrix::TrianglePartition::build(matrix::projective_plane_system(q), n);
  Rng rng(args.get_u64_or("seed", 1));
  const auto a = matrix::random_symmetric_matrix(n, rng);
  const auto x = rng.uniform_vector(n);
  simt::Machine machine(part.num_processors());
  simt::DirectExchange direct(machine);
  const auto result = matrix::parallel_symv(direct, part, a, x,
                                            simt::Transport::kPointToPoint);
  const auto y_ref = matrix::symv(a, x);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::abs(result.y[i] - y_ref[i]));
  }
  std::cout << "parallel SYMV on PG(2," << q << "): P = "
            << part.num_processors() << ", n = " << n << "\n";
  std::cout << "  max |error|        = " << max_diff << "\n";
  std::cout << "  words/rank (max)   = "
            << machine.ledger().max_words_sent() << "\n";
  std::cout << "  closed form 2qn/P  = " << matrix::optimal_symv_words(n, q)
            << "\n";
  std::cout << "  2D lower bound     = "
            << matrix::symv_lower_bound_words(n, part.num_processors())
            << "\n";
  return max_diff < 1e-8 ? 0 : 1;
}

int cmd_iosim(const ArgParser& args) {
  const std::size_t n = args.get_u64("n");
  const std::size_t tile = args.get_u64_or("tile", 8);
  const std::size_t cache = args.get_u64_or("cache", 6 * tile);
  Rng rng(args.get_u64_or("seed", 1));
  const auto a = tensor::random_symmetric(n, rng);
  const auto x = rng.uniform_vector(n);
  const auto blocked = iosim::blocked_sttsv_io(a, x, tile, cache);
  const auto streaming = iosim::streaming_sttsv_io(a, x, cache);
  std::cout << "sequential I/O model, n = " << n << ", cache = " << cache
            << " words:\n";
  std::cout << "  tensor words (compulsory, both)   = "
            << blocked.tensor_words << "\n";
  std::cout << "  vector words, tiled b=" << tile << "           = "
            << blocked.vector_traffic << "\n";
  std::cout << "  vector words, streaming           = "
            << streaming.vector_traffic << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ArgParser args(argc, argv);
    if (args.positional().empty()) {
      print_usage();
      return 1;
    }
    const std::string& command = args.positional()[0];
    int rc;
    if (command == "plan") {
      rc = cmd_plan(args);
    } else if (command == "partition") {
      rc = cmd_partition(args);
    } else if (command == "schedule") {
      rc = cmd_schedule(args);
    } else if (command == "run") {
      rc = cmd_run(args);
    } else if (command == "apply") {
      rc = cmd_apply(args);
    } else if (command == "hopm") {
      rc = cmd_hopm(args);
    } else if (command == "auto") {
      rc = cmd_auto(args);
    } else if (command == "search") {
      rc = cmd_search(args);
    } else if (command == "symv") {
      rc = cmd_symv(args);
    } else if (command == "iosim") {
      rc = cmd_iosim(args);
    } else {
      std::cerr << "unknown command '" << command << "'\n\n";
      print_usage();
      return 1;
    }
    for (const auto& key : args.unused()) {
      std::cerr << "warning: unused option --" << key << "\n";
    }
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
