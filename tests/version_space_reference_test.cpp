// Reference differential for GridFinder's version space: after every sync,
// survivor_linears() must equal a brute-force filter of the whole hole grid
// through the tree interpreter (sketch::eval), the project's one reference
// semantics.
//
// The reference decides each candidate's fate in the order a finder syncs:
// at every sync, the edges and then the ties added since the previous sync,
// the better/first endpoint evaluated before the worse/second. The first
// constraint a candidate fails removes it; the first EvalError it raises
// makes it a raiser of that sync. Covered: full SWAN sessions at 1 and 4
// threads, a finder restored from save_state() mid-session, and a sketch
// whose lanes divide by a hole expression that can be 0 — where the set of
// candidates that raise, and the error each raises, must match the
// reference candidate for candidate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "oracle/ground_truth.h"
#include "pref/graph.h"
#include "sketch/eval.h"
#include "sketch/library.h"
#include "sketch/parser.h"
#include "solver/grid_finder.h"
#include "synth/synthesizer.h"

namespace compsynth::solver {
namespace {

constexpr double kTieTolerance = 1e-4;

std::vector<std::int64_t> to_vector(std::span<const std::int64_t> s) {
  return {s.begin(), s.end()};
}

class ReferenceSpace {
 public:
  explicit ReferenceSpace(const sketch::Sketch& sk)
      : sk_(sk),
        alive_(static_cast<std::size_t>(sk.candidate_space_size()), 1) {}

  struct Sync {
    std::vector<std::int64_t> survivors;
    /// Raisers in candidate order, with the EvalError message each raised.
    std::vector<std::pair<std::int64_t, std::string>> raisers;
  };

  /// Folds the edges/ties added since the previous call into every
  /// candidate still alive.
  Sync advance(const pref::PreferenceGraph& graph) {
    Sync out;
    std::vector<double> values(sk_.holes().size());
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      if (!alive_[i]) continue;
      std::int64_t rest = static_cast<std::int64_t>(i);
      for (std::size_t h = 0; h < values.size(); ++h) {
        values[h] = sk_.holes()[h].value_at(rest % sk_.holes()[h].count);
        rest /= sk_.holes()[h].count;
      }
      try {
        alive_[i] = consistent(values, graph) ? 1 : 0;
      } catch (const sketch::EvalError& e) {
        alive_[i] = 0;
        out.raisers.emplace_back(static_cast<std::int64_t>(i), e.what());
      }
      if (alive_[i]) out.survivors.push_back(static_cast<std::int64_t>(i));
    }
    edges_seen_ = graph.edges().size();
    ties_seen_ = graph.ties().size();
    return out;
  }

 private:
  bool consistent(std::span<const double> values,
                  const pref::PreferenceGraph& graph) const {
    const auto f = [&](pref::VertexId v) {
      return sketch::eval_with_values(sk_, values, graph.scenario(v).metrics);
    };
    for (std::size_t i = edges_seen_; i < graph.edges().size(); ++i) {
      const double better = f(graph.edges()[i].better);
      const double worse = f(graph.edges()[i].worse);
      if (!(better > worse)) return false;
    }
    for (std::size_t i = ties_seen_; i < graph.ties().size(); ++i) {
      const double fu = f(graph.ties()[i].first);
      const double fv = f(graph.ties()[i].second);
      if (std::abs(fu - fv) > kTieTolerance + 1e-9) return false;
    }
    return true;
  }

  const sketch::Sketch& sk_;
  std::vector<char> alive_;
  std::size_t edges_seen_ = 0;
  std::size_t ties_seen_ = 0;
};

// Forwards to a GridFinder and compares its version space with the
// reference after every finder call (each call syncs first). After
// `restore_after` calls the finder is replaced by a fresh one restored from
// its save_state(), which then serves the rest of the session.
class CheckedFinder final : public CandidateFinder {
 public:
  CheckedFinder(const sketch::Sketch& sk, GridFinderConfig config,
                int restore_after)
      : sk_(sk), config_(config), reference_(sk), restore_after_(restore_after),
        inner_(std::make_unique<GridFinder>(sk, config)) {}

  FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                   int num_pairs) override {
    maybe_restore();
    FinderResult r = inner_->find_distinguishing(graph, num_pairs);
    check(graph);
    return r;
  }
  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override {
    maybe_restore();
    auto r = inner_->find_consistent(graph);
    check(graph);
    return r;
  }
  std::string save_state() const override { return inner_->save_state(); }
  void restore_state(const std::string& state) override {
    inner_->restore_state(state);
  }

  int checks() const { return checks_; }
  bool restored() const { return restored_; }

 private:
  void maybe_restore() {
    if (restored_ || calls_++ < restore_after_) return;
    auto fresh = std::make_unique<GridFinder>(sk_, config_);
    fresh->restore_state(inner_->save_state());
    ASSERT_EQ(to_vector(fresh->survivor_linears()),
              to_vector(inner_->survivor_linears()));
    inner_ = std::move(fresh);
    restored_ = true;
  }

  void check(const pref::PreferenceGraph& graph) {
    const ReferenceSpace::Sync want = reference_.advance(graph);
    ASSERT_TRUE(want.raisers.empty());
    ASSERT_EQ(to_vector(inner_->survivor_linears()), want.survivors)
        << "after " << graph.edges().size() << " edges, "
        << graph.ties().size() << " ties";
    // survivor_assignment decodes the linear column (index 0 fastest).
    for (std::size_t i = 0; i < want.survivors.size(); i += 97) {
      const sketch::HoleAssignment a = inner_->survivor_assignment(i);
      std::int64_t linear = 0, stride = 1;
      for (std::size_t h = 0; h < a.index.size(); ++h) {
        linear += a.index[h] * stride;
        stride *= sk_.holes()[h].count;
      }
      ASSERT_EQ(linear, want.survivors[i]);
    }
    ++checks_;
  }

  const sketch::Sketch& sk_;
  GridFinderConfig config_;
  ReferenceSpace reference_;
  int restore_after_;
  int calls_ = 0;
  bool restored_ = false;
  int checks_ = 0;
  std::unique_ptr<GridFinder> inner_;
};

void run_swan_session(int threads, std::uint64_t seed,
                      const sketch::HoleAssignment& target,
                      int restore_after) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  synth::SynthesisConfig config;
  config.seed = seed;
  GridFinderConfig gc;
  gc.base = config.finder;
  gc.seed = seed ^ 0x9e3779b97f4a7c15ULL;
  gc.threads = threads;
  auto finder = std::make_unique<CheckedFinder>(sk, gc, restore_after);
  CheckedFinder* checked = finder.get();
  synth::Synthesizer synthesizer(sk, std::move(finder), config);
  oracle::GroundTruthOracle user(sk, target, config.finder.tie_tolerance);
  const synth::SynthesisResult r = synthesizer.run(user);
  EXPECT_EQ(r.status, synth::SynthesisStatus::kConverged);
  EXPECT_GT(checked->checks(), 3);
  EXPECT_EQ(checked->restored(), restore_after < checked->checks());
}

TEST(VersionSpaceReference, SwanSessionOneThread) {
  run_swan_session(1, 3, sketch::swan_target(), 1 << 30);
}

TEST(VersionSpaceReference, SwanSessionFourThreads) {
  run_swan_session(4, 3, sketch::swan_target(), 1 << 30);
}

TEST(VersionSpaceReference, SwanSessionRestoredMidway) {
  const sketch::HoleAssignment other = sketch::swan_target_with(3, 70, 2, 4);
  run_swan_session(1, 8, other, 4);
  run_swan_session(4, 8, other, 4);
}

// `c` at its top grid value switches to a quotient whose divisor is 0 at
// every vertex with x + y == a + b, so a few candidates raise "division by
// zero" — and which ones depends on the vertices each constraint reaches
// and on which candidates earlier constraints already removed (12 raise in
// round one, 1 in round two). 5000 candidates make two fixed-range shards,
// so at 4 threads the full sync and the incremental filter both take the
// pooled path.
const sketch::Sketch& raising_sketch() {
  static const sketch::Sketch sk = sketch::parse_sketch(R"(
    sketch raising(x in [0, 4], y in [0, 4]) {
      hole a in grid(0, 1, 5);
      hole b in grid(0, 1, 5);
      hole c in grid(0, 1, 200);
      if c >= 199 then x / (a + b - x - y) else a * x - b * y + c
    })");
  return sk;
}

// Two rounds of answers from the target (a, b, c) = (2, 1, 3), which never
// raises: round one ranks four scenarios, round two adds three more and
// compares them with the first ones. Integer metrics make exact ties.
struct RaisingGraph {
  pref::PreferenceGraph graph;
  std::vector<pref::VertexId> ids;

  void add_round(const std::vector<std::pair<double, double>>& points) {
    const std::size_t first_new = ids.size();
    for (const auto& [x, y] : points) {
      pref::Scenario s;
      s.metrics = {x, y};
      ids.push_back(graph.intern(s));
    }
    const auto target = [&](pref::VertexId v) {
      const auto& m = graph.scenario(v).metrics;
      return 2 * m[0] - m[1] + 3;
    };
    for (std::size_t i = first_new; i < ids.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        const double fi = target(ids[i]);
        const double fj = target(ids[j]);
        if (fi == fj) {
          graph.add_tie(ids[i], ids[j]);
        } else if (fi > fj) {
          graph.add_preference(ids[i], ids[j]);
        } else {
          graph.add_preference(ids[j], ids[i]);
        }
      }
    }
  }
};

const std::vector<std::pair<double, double>> kRoundOne = {
    {1, 1}, {3, 0}, {0, 3}, {2, 2}};
const std::vector<std::pair<double, double>> kRoundTwo = {
    {4, 4}, {4, 1}, {1, 0}};

// Runs both rounds through a finder that never sees the `excluded`
// candidates (a viability gate), optionally restoring it from its saved
// state between the rounds. Returns the survivors after each round, or the
// message of the EvalError that stopped it and the round it happened in.
struct RaisingOutcome {
  std::vector<std::vector<std::int64_t>> survivors;
  int raised_in_round = 0;  // 0 = no error
  std::string message;
};

RaisingOutcome run_raising(int threads, bool restore,
                           const std::set<std::int64_t>& excluded) {
  const sketch::Sketch& sk = raising_sketch();
  GridFinderConfig config;
  config.base.tie_tolerance = kTieTolerance;
  config.threads = threads;
  Viability viability;
  viability.concrete = [&sk, &excluded](std::span<const double> values) {
    std::int64_t linear = 0, stride = 1;
    for (std::size_t h = 0; h < values.size(); ++h) {
      linear += sk.holes()[h].nearest_index(values[h]) * stride;
      stride *= sk.holes()[h].count;
    }
    return excluded.count(linear) == 0;
  };
  auto finder = std::make_unique<GridFinder>(sk, config, viability);
  RaisingGraph g;
  RaisingOutcome out;
  int round = 0;
  try {
    for (const auto* points : {&kRoundOne, &kRoundTwo}) {
      ++round;
      if (round == 2 && restore) {
        auto fresh = std::make_unique<GridFinder>(sk, config, viability);
        fresh->restore_state(finder->save_state());
        finder = std::move(fresh);
      }
      g.add_round(*points);
      finder->sync(g.graph);
      out.survivors.push_back(to_vector(finder->survivor_linears()));
    }
  } catch (const sketch::EvalError& e) {
    out.raised_in_round = round;
    out.message = e.what();
  }
  return out;
}

TEST(VersionSpaceReference, RaisingLanesMatchCandidateForCandidate) {
  // The reference: fates of all 5000 candidates over the two rounds.
  ReferenceSpace reference(raising_sketch());
  RaisingGraph g;
  g.add_round(kRoundOne);
  const ReferenceSpace::Sync round_one = reference.advance(g.graph);
  g.add_round(kRoundTwo);
  const ReferenceSpace::Sync round_two = reference.advance(g.graph);
  ASSERT_FALSE(round_one.raisers.empty());
  ASSERT_FALSE(round_two.raisers.empty());
  ASSERT_GT(g.graph.ties().size(), 0u);

  std::set<std::int64_t> all_raisers;
  for (const auto* sync : {&round_one, &round_two}) {
    for (const auto& [linear, message] : sync->raisers) {
      all_raisers.insert(linear);
    }
  }
  const auto without = [&](const std::vector<std::int64_t>& survivors) {
    std::vector<std::int64_t> kept;
    for (const std::int64_t s : survivors) {
      if (all_raisers.count(s) == 0) kept.push_back(s);
    }
    return kept;
  };

  for (const int threads : {1, 4}) {
    for (const bool restore : {false, true}) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads
                                      << " restore=" << restore);
      // Without the raisers, both rounds sync and match the reference.
      const RaisingOutcome clean = run_raising(threads, restore, all_raisers);
      ASSERT_EQ(clean.raised_in_round, 0) << clean.message;
      ASSERT_EQ(clean.survivors.size(), 2u);
      EXPECT_EQ(clean.survivors[0], without(round_one.survivors));
      EXPECT_EQ(clean.survivors[1], without(round_two.survivors));

      // With exactly one raiser let back in, the finder raises its error in
      // its round: so the finder's raisers are the reference's, one by one.
      int round = 0;
      for (const auto* sync : {&round_one, &round_two}) {
        ++round;
        for (const auto& [linear, message] : sync->raisers) {
          std::set<std::int64_t> excluded = all_raisers;
          excluded.erase(linear);
          const RaisingOutcome one = run_raising(threads, restore, excluded);
          EXPECT_EQ(one.raised_in_round, round) << "candidate " << linear;
          EXPECT_EQ(one.message, message) << "candidate " << linear;
        }
      }
    }
  }
}

}  // namespace
}  // namespace compsynth::solver
