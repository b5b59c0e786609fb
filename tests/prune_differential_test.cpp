// Differential tests for GridFinder's analysis-driven version-space pruning
// (GridFinderConfig::analysis_pruning): with pruning on, the rebuilt
// survivor sequence must be exactly what the exhaustive scan produces, and
// full synthesis runs must follow identical trajectories. This is the
// contract that makes the pruning a pure speed knob.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/metrics.h"
#include "obs/run_context.h"
#include "oracle/ground_truth.h"
#include "pref/graph.h"
#include "sketch/eval.h"
#include "sketch/library.h"
#include "sketch/parser.h"
#include "solver/grid_finder.h"
#include "synth/synthesizer.h"
#include "util/rng.h"

namespace compsynth::solver {
namespace {

// Exact survivor-sequence equality: the same linear candidate indices in
// the same order, hence the same assignments and hole values.
void expect_identical(const GridFinder& pruned, const GridFinder& plain) {
  const auto a = pruned.survivor_linears();
  const auto b = plain.survivor_linears();
  ASSERT_EQ(std::vector<std::int64_t>(a.begin(), a.end()),
            std::vector<std::int64_t>(b.begin(), b.end()));
}

// A preference graph a ground-truth user would produce: random scenarios in
// the sketch's metric box, pairwise-ranked by the target assignment.
pref::PreferenceGraph ground_truth_graph(const sketch::Sketch& sk,
                                         const sketch::HoleAssignment& target,
                                         int scenarios, std::uint64_t seed,
                                         double tie_tolerance) {
  util::Rng rng(seed);
  const std::vector<double> target_values = sk.hole_values(target);
  pref::PreferenceGraph graph;
  std::vector<pref::VertexId> ids;
  std::vector<double> scores;
  for (int i = 0; i < scenarios; ++i) {
    pref::Scenario s;
    for (const auto& m : sk.metrics()) {
      s.metrics.push_back(rng.uniform_real(m.lo, m.hi));
    }
    ids.push_back(graph.intern(s));
    scores.push_back(sketch::eval_with_values(sk, target_values, s.metrics));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      if (std::abs(scores[i] - scores[j]) <= tie_tolerance) {
        graph.add_tie(ids[i], ids[j]);
      } else if (scores[i] > scores[j]) {
        graph.add_preference(ids[i], ids[j]);
      } else {
        graph.add_preference(ids[j], ids[i]);
      }
    }
  }
  return graph;
}

GridFinderConfig config_with_pruning(bool pruning) {
  GridFinderConfig c;
  // Pruning applies to the scalar backends only (the kBatch default always
  // runs the sharded exhaustive scan), so pin kCompiled to keep the on/off
  // comparison meaningful.
  c.eval_backend = EvalBackend::kCompiled;
  c.analysis_pruning = pruning;
  c.threads = 1;  // determinism is required either way; keep the test lean
  return c;
}

sketch::HoleAssignment middle_assignment(const sketch::Sketch& sk) {
  sketch::HoleAssignment a;
  for (const auto& h : sk.holes()) a.index.push_back(h.count / 2);
  return a;
}

void expect_differential(const sketch::Sketch& sk,
                         const sketch::HoleAssignment& target,
                         int scenarios, std::uint64_t seed) {
  constexpr double kTieTol = 1e-4;
  pref::PreferenceGraph graph =
      ground_truth_graph(sk, target, scenarios, seed, kTieTol);

  GridFinder pruned(sk, config_with_pruning(true));
  GridFinder plain(sk, config_with_pruning(false));
  pruned.sync(graph);
  plain.sync(graph);
  expect_identical(pruned, plain);

  // The batch lane engine (which ignores the pruning flag and always runs
  // the sharded exhaustive scan) must land on the identical sequence.
  GridFinderConfig batch_config = config_with_pruning(true);
  batch_config.eval_backend = EvalBackend::kBatch;
  GridFinder batched(sk, batch_config);
  batched.sync(graph);
  expect_identical(batched, plain);

  // Same again after growing the graph (incremental filter path) and after
  // a fresh full rebuild against the richer graph.
  pref::PreferenceGraph bigger =
      ground_truth_graph(sk, target, scenarios + 4, seed ^ 0x9e37, kTieTol);
  GridFinder pruned2(sk, config_with_pruning(true));
  GridFinder plain2(sk, config_with_pruning(false));
  pruned2.sync(bigger);
  plain2.sync(bigger);
  expect_identical(pruned2, plain2);
  GridFinder batched2(sk, batch_config);
  batched2.sync(bigger);
  expect_identical(batched2, plain2);
}

TEST(PruneDifferential, Swan) {
  expect_differential(sketch::swan_sketch(), sketch::swan_target(), 7, 11);
}

TEST(PruneDifferential, SwanForm) {
  expect_differential(sketch::swan_form_sketch(),
                      sketch::swan_form_target(1, 2, 100), 7, 12);
}

TEST(PruneDifferential, AbrQoe) {
  const auto& sk = sketch::abr_qoe_sketch();
  expect_differential(sk, middle_assignment(sk), 6, 13);
}

TEST(PruneDifferential, Homenet) {
  const auto& sk = sketch::homenet_sketch();
  expect_differential(sk, middle_assignment(sk), 6, 14);
}

TEST(PruneDifferential, UnusedHoleReplication) {
  // `ghost` is never read: the pruned rebuild pins the dimension, evaluates
  // one slice and replicates it. The result must still match the exhaustive
  // scan candidate for candidate.
  const sketch::Sketch sk = sketch::parse_sketch(R"(
    sketch replicated(x in [0, 10], y in [0, 10]) {
      hole a in grid(0, 1, 6);
      hole ghost in grid(0, 2, 7);
      hole b in grid(0, 1, 5);
      x - a*y + b
    })");
  sketch::HoleAssignment target;
  target.index = {2, 3, 1};
  expect_differential(sk, target, 6, 15);

  // With an empty graph there is nothing to refute, but the replication
  // path still runs; the full candidate space must come back in order.
  pref::PreferenceGraph empty;
  GridFinder pruned(sk, config_with_pruning(true));
  GridFinder plain(sk, config_with_pruning(false));
  pruned.sync(empty);
  plain.sync(empty);
  ASSERT_EQ(plain.version_space_size(),
            static_cast<std::size_t>(sk.candidate_space_size()));
  expect_identical(pruned, plain);
}

TEST(PruneDifferential, PruningActuallyPrunes) {
  // Guard against the pruned path silently degenerating into the fallback:
  // on a well-constrained swan graph the analysis must discard regions.
  obs::MetricsRegistry metrics;
  obs::RunContext ctx;
  ctx.metrics = &metrics;

  GridFinder pruned(sketch::swan_sketch(), config_with_pruning(true));
  pruned.set_run_context(&ctx);
  pref::PreferenceGraph graph = ground_truth_graph(
      sketch::swan_sketch(), sketch::swan_target(), 9, 21, 1e-4);
  pruned.sync(graph);

  EXPECT_GT(metrics.counter("analysis.pruned_regions").value(), 0);
  EXPECT_GT(metrics.counter("analysis.pruned_candidates").value(), 0);

  // And the pruned result still matches the exhaustive scan.
  GridFinder plain(sketch::swan_sketch(), config_with_pruning(false));
  plain.sync(graph);
  expect_identical(pruned, plain);
}

// Full synthesis runs must be trajectory-identical: same status, same
// learned objective, same iteration/interaction counts, same per-iteration
// edge/tie accounting.
void expect_synthesis_identical(const sketch::Sketch& sk,
                                const sketch::HoleAssignment& target,
                                std::uint64_t seed) {
  synth::SynthesisConfig config;
  config.seed = seed;
  config.grid_threads = 1;
  // The pruning knob only matters on the scalar backends; under the kBatch
  // default both runs would take the identical always-exhaustive path.
  config.grid_eval_backend = solver::EvalBackend::kCompiled;

  auto run = [&](bool pruning) {
    synth::SynthesisConfig c = config;
    c.grid_analysis_pruning = pruning;
    synth::Synthesizer s = synth::make_grid_synthesizer(sk, c);
    oracle::GroundTruthOracle user(sk, target, c.finder.tie_tolerance);
    return s.run(user);
  };

  const synth::SynthesisResult on = run(true);
  const synth::SynthesisResult off = run(false);
  EXPECT_EQ(on.status, off.status);
  ASSERT_EQ(on.objective.has_value(), off.objective.has_value());
  if (on.objective) {
    EXPECT_EQ(*on.objective, *off.objective);
  }
  EXPECT_EQ(on.iterations, off.iterations);
  EXPECT_EQ(on.interactions, off.interactions);
  EXPECT_EQ(on.oracle_comparisons, off.oracle_comparisons);
  ASSERT_EQ(on.transcript.size(), off.transcript.size());
  for (std::size_t i = 0; i < on.transcript.size(); ++i) {
    EXPECT_EQ(on.transcript[i].pairs_presented, off.transcript[i].pairs_presented);
    EXPECT_EQ(on.transcript[i].edges_added, off.transcript[i].edges_added);
    EXPECT_EQ(on.transcript[i].ties_added, off.transcript[i].ties_added);
  }
}

TEST(PruneDifferential, SynthesisTrajectorySwan) {
  expect_synthesis_identical(sketch::swan_sketch(), sketch::swan_target(), 5);
}

TEST(PruneDifferential, SynthesisTrajectoryAbr) {
  const auto& sk = sketch::abr_qoe_sketch();
  expect_synthesis_identical(sk, middle_assignment(sk), 6);
}

TEST(PruneDifferential, SynthesisTrajectoryHomenet) {
  const auto& sk = sketch::homenet_sketch();
  expect_synthesis_identical(sk, middle_assignment(sk), 7);
}

}  // namespace
}  // namespace compsynth::solver
