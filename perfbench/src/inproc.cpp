// swan_grid: the paper's interaction loop (synth::Synthesizer::run) in
// process, on the SWAN sketch with the grid back-end at its defaults, against
// a ground-truth oracle. Sessions run back to back from one caller. A
// bench-side CandidateFinder wrapper and Oracle wrapper record every finder
// result for the correctness check and, in traced runs, time each call into
// the solver and oracle modules. The traced run also replays its sessions'
// first queries through Z3Finder, the paper's engine.
#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "obs/metrics.h"
#include "oracle/ground_truth.h"
#include "oracle/oracle.h"
#include "solver/grid_finder.h"
#include "solver/z3_finder.h"
#include "sketch/eval.h"
#include "synth/synthesizer.h"

namespace perfbench {
namespace {

namespace solver = compsynth::solver;
namespace synth = compsynth::synth;
namespace oracle = compsynth::oracle;
namespace pref = compsynth::pref;
namespace obs = compsynth::obs;

/// Per-layer timings collected by the wrappers in traced runs.
struct LayerSamples {
  Samples sync_full, sync_incr, search, consistent, restore;
  Samples z3_query, z3_consistent;
  double sync_wall = 0;
  double sync_cpu = 0;
  double survivor_frac_sum = 0;
  long full_syncs = 0;
};

/// One finder call, kept for the post-session correctness check: the
/// preference graph only grows during a session, so the graph the call saw
/// is the final graph's edge/tie prefix.
struct FinderCall {
  std::size_t edges = 0;
  std::size_t ties = 0;
  bool distinguishing = true;
  solver::FinderResult result;
  std::optional<sketch::HoleAssignment> consistent;
};

class BenchFinder final : public solver::CandidateFinder {
 public:
  BenchFinder(std::unique_ptr<solver::GridFinder> inner, Spans& spans,
              int parent, LayerSamples& layer, std::vector<FinderCall>& calls)
      : inner_(std::move(inner)), spans_(spans), parent_(parent),
        layer_(layer), calls_(calls) {}

  solver::FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                           int num_pairs) override {
    FinderCall call{graph.edges().size(), graph.ties().size(), true, {}, {}};
    if (spans_.on()) timed_sync(graph);
    {
      const Scope scope(spans_, "finder.search", parent_);
      const double t0 = spans_.on() ? now_s() : 0;
      call.result = inner_->find_distinguishing(graph, num_pairs);
      if (spans_.on()) layer_.search.add(now_s() - t0);
    }
    calls_.push_back(call);
    return call.result;
  }

  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override {
    FinderCall call{graph.edges().size(), graph.ties().size(), false, {}, {}};
    {
      const Scope scope(spans_, "finder.consistent", parent_);
      const double t0 = spans_.on() ? now_s() : 0;
      call.consistent = inner_->find_consistent(graph);
      if (spans_.on()) layer_.consistent.add(now_s() - t0);
    }
    calls_.push_back(call);
    return call.consistent;
  }

  void set_run_context(const obs::RunContext* ctx) override {
    obs_ = ctx;
    inner_->set_run_context(ctx);
  }
  std::string save_state() const override { return inner_->save_state(); }
  void restore_state(const std::string& state) override {
    inner_->restore_state(state);
  }

 private:
  // GridFinder::sync is idempotent, so syncing first splits the finder's
  // query into its version-space sync and its pair search.
  void timed_sync(const pref::PreferenceGraph& graph) {
    const bool full = !synced_;
    const Scope scope(spans_, "finder.sync", parent_);
    const double c0 = cpu_s(RUSAGE_SELF);
    const double t0 = now_s();
    inner_->sync(graph);
    const double wall = now_s() - t0;
    layer_.sync_cpu += cpu_s(RUSAGE_SELF) - c0;
    layer_.sync_wall += wall;
    (full ? layer_.sync_full : layer_.sync_incr).add(wall);
    if (full) {
      ++layer_.full_syncs;
      layer_.survivor_frac_sum +=
          static_cast<double>(inner_->version_space_size()) /
          static_cast<double>(inner_->shard_ranges().back().hi);
    }
    synced_ = true;
  }

  std::unique_ptr<solver::GridFinder> inner_;
  Spans& spans_;
  int parent_;
  LayerSamples& layer_;
  std::vector<FinderCall>& calls_;
  bool synced_ = false;
};

/// Ground-truth architect. Records the architect's wait: from returning one
/// answer to being asked the next comparison.
class BenchOracle final : public oracle::Oracle {
 public:
  BenchOracle(const sketch::Sketch& sk, const sketch::HoleAssignment& target,
              Spans& spans, int parent, Samples& turnaround)
      : inner_(sk, target), spans_(spans), parent_(parent),
        turnaround_(turnaround) {}

 protected:
  oracle::Preference do_compare(const pref::Scenario& a,
                                const pref::Scenario& b) override {
    if (last_answer_ > 0) turnaround_.add(now_s() - last_answer_);
    oracle::Preference p;
    {
      const Scope scope(spans_, "oracle.compare", parent_);
      p = inner_.compare(a, b);
    }
    last_answer_ = now_s();
    return p;
  }

  oracle::RankingResponse do_rank(
      std::span<const pref::Scenario> scenarios) override {
    oracle::RankingResponse r;
    {
      const Scope scope(spans_, "oracle.rank", parent_);
      r = inner_.rank(scenarios);
    }
    last_answer_ = now_s();
    return r;
  }

 private:
  oracle::GroundTruthOracle inner_;
  Spans& spans_;
  int parent_;
  Samples& turnaround_;
  double last_answer_ = 0;
};

bool consistent_with(const sketch::Sketch& sk, const sketch::HoleAssignment& c,
                     const pref::PreferenceGraph& g, std::size_t edges,
                     std::size_t ties, double tie_tolerance) {
  const auto value = [&](pref::VertexId v) {
    return compsynth::sketch::eval(sk, c, g.scenario(v).metrics);
  };
  for (std::size_t i = 0; i < edges; ++i) {
    if (!(value(g.edges()[i].better) > value(g.edges()[i].worse))) return false;
  }
  for (std::size_t i = 0; i < ties; ++i) {
    const double d = value(g.ties()[i].first) - value(g.ties()[i].second);
    if (std::abs(d) > tie_tolerance + 1e-9) return false;
  }
  return true;
}

/// Re-checks finder results with the reference interpreter (sketch::eval):
/// returned candidates honour G, and each pair separates them by at least
/// distinguish_margin inside the metric box. Returns the checks made.
long check_calls(const sketch::Sketch& sk, const std::vector<FinderCall>& calls,
                 const pref::PreferenceGraph& g, Result& out) {
  const solver::FinderConfig fc;
  long checks = 0;
  const auto expect = [&](bool ok, const char* what) {
    ++checks;
    if (!ok) out.fail(what);
  };
  // Z3 scenario values are exact rationals rounded to doubles.
  const double margin = fc.distinguish_margin - 1e-9;
  for (const FinderCall& call : calls) {
    if (call.edges > g.edges().size() || call.ties > g.ties().size()) {
      expect(false, "preference graph shrank during a session");
      continue;
    }
    const auto consistent = [&](const sketch::HoleAssignment& c) {
      return consistent_with(sk, c, g, call.edges, call.ties, fc.tie_tolerance);
    };
    if (!call.distinguishing) {
      expect(call.consistent.has_value() && consistent(*call.consistent),
             "find_consistent returned no G-consistent candidate");
      continue;
    }
    const solver::FinderResult& r = call.result;
    if (r.status == solver::FinderStatus::kUniqueRanking) {
      expect(consistent(r.candidate_a), "converged candidate violates G");
      continue;
    }
    if (r.status != solver::FinderStatus::kFound) {
      expect(false, "finder reported no candidate or gave up");
      continue;
    }
    expect(consistent(r.candidate_a) && consistent(r.candidate_b),
           "distinguishing candidate violates G");
    expect(!r.pairs.empty(), "distinguishing result without a pair");
    for (const solver::DistinguishingPair& p : r.pairs) {
      const auto& s1 = p.preferred_by_a.metrics;
      const auto& s2 = p.preferred_by_b.metrics;
      const double da = compsynth::sketch::eval(sk, r.candidate_a, s1) -
                        compsynth::sketch::eval(sk, r.candidate_a, s2);
      const double db = compsynth::sketch::eval(sk, r.candidate_b, s2) -
                        compsynth::sketch::eval(sk, r.candidate_b, s1);
      expect(da >= margin && db >= margin,
             "pair does not separate the candidates by distinguish_margin");
      expect(solver::domain_contains(sk, {}, s1) &&
                 solver::domain_contains(sk, {}, s2),
             "pair scenario outside the metric box");
    }
  }
  return checks;
}

/// The graph a finder call saw: the first `edges`/`ties` of `g`.
pref::PreferenceGraph graph_prefix(const pref::PreferenceGraph& g,
                                   std::size_t edges, std::size_t ties) {
  pref::PreferenceGraph out(true);
  for (pref::VertexId v = 0; v < g.vertex_count(); ++v) out.intern(g.scenario(v));
  for (std::size_t i = 0; i < edges; ++i) {
    out.add_preference(g.edges()[i].better, g.edges()[i].worse);
  }
  for (std::size_t i = 0; i < ties; ++i) {
    out.add_tie(g.ties()[i].first, g.ties()[i].second);
  }
  return out;
}

struct SessionOutcome {
  std::size_t spec = 0;
  double wall = 0;
  synth::SynthesisStatus status = synth::SynthesisStatus::kSolverGaveUp;
  std::optional<sketch::HoleAssignment> objective;
  long comparisons = 0;
  long edges = 0;
  /// The graph of the session's first finder query (for the Z3 replay).
  std::size_t first_edges = 0, first_ties = 0;
  pref::PreferenceGraph graph{true};
};

struct Phase {
  std::vector<SessionOutcome> sessions;
  Samples iters;  // each session's mean solver seconds per iteration
  Samples turnaround;
  long iterations = 0;
  LayerSamples layer;
  double wall = 0;  // summed session wall time
  double cpu = 0;
  double peak_rss_mb = 0;
};

class SwanGrid {
 public:
  explicit SwanGrid(const Options& opt)
      : opt_(opt), sk_(load_sketch(opt.sketch_dir + "/swan.sketch")), eq_(sk_) {}

  Result run() {
    Result out;
    // Set-up: a fresh process loads the libraries, parses the sketch, builds
    // the synthesizer and starts the shared thread pool (--setup-probe).
    Samples setup;
    for (int i = 0; i < 21; ++i) {
      setup.add(run_child({opt_.self_bin, "--setup-probe", opt_.sketch_dir}));
    }
    out.set("setup_s", setup.median(), "s");
    if (opt_.trace) {
      run_traced(out);
    } else {
      Spans off(false);
      Phase ph;
      run_phase(ph, off, opt_.seconds, nullptr, out);
      report_end_to_end(ph, out);
    }
    return out;
  }

 private:
  SessionOutcome run_session(std::size_t i, Spans& spans, Phase& ph,
                             obs::MetricsRegistry* metrics, Result& out) {
    const SessionSpec spec = session_spec(sk_, opt_.seed, i);
    SessionOutcome o;
    o.spec = i;
    std::vector<FinderCall> calls;
    const double t0 = now_s();
    const int root = spans.open("session", -1);
    synth::SynthesisConfig cfg;
    cfg.seed = spec.seed;
    cfg.obs.metrics = metrics;
    std::unique_ptr<BenchFinder> finder;
    solver::GridFinder* grid = nullptr;
    {
      const Scope scope(spans, "finder.build", root);
      // The configuration synth::make_grid_synthesizer builds.
      solver::GridFinderConfig gc;
      gc.base = cfg.finder;
      gc.seed = cfg.seed ^ 0x9e3779b97f4a7c15ULL;
      gc.eval_backend = cfg.grid_eval_backend;
      gc.threads = cfg.grid_threads;
      gc.analysis_pruning = cfg.grid_analysis_pruning;
      auto g = std::make_unique<solver::GridFinder>(sk_, gc);
      grid = g.get();
      finder = std::make_unique<BenchFinder>(std::move(g), spans, root, ph.layer,
                                             calls);
    }
    synth::Synthesizer synth(sk_, std::move(finder), cfg);
    BenchOracle user(sk_, spec.target, spans, root, ph.turnaround);
    synth::SynthesisResult r = synth.run(user);
    spans.close(root);
    o.wall = now_s() - t0;

    if (spans.on()) {
      // Layers a converged session does not reach: extracting a consistent
      // candidate, and restoring the finder from its saved state.
      FinderCall call{r.graph.edges().size(), r.graph.ties().size(), false, {}, {}};
      double c0 = now_s();
      call.consistent = grid->find_consistent(r.graph);
      ph.layer.consistent.add(now_s() - c0);
      calls.push_back(std::move(call));
      const std::string blob = grid->save_state();
      solver::GridFinder fresh(sk_, solver::GridFinderConfig{});
      c0 = now_s();
      fresh.restore_state(blob);
      ph.layer.restore.add(now_s() - c0);
    }
    out.attempted += check_calls(sk_, calls, r.graph, out);
    ph.iters.add(r.average_iteration_seconds);
    ph.iterations += r.iterations;
    o.status = r.status;
    o.objective = r.objective;
    o.comparisons = r.oracle_comparisons;
    o.edges = static_cast<long>(r.graph.edges().size());
    if (!calls.empty()) {
      o.first_edges = calls.front().edges;
      o.first_ties = calls.front().ties;
    }
    o.graph = std::move(r.graph);
    return o;
  }

  /// Runs sessions 0, 1, 2, ... back to back until `seconds` of session time
  /// have elapsed; each session's finder results are checked after it, off
  /// the clock.
  void run_phase(Phase& ph, Spans& spans, double seconds,
                 obs::MetricsRegistry* metrics, Result& out) {
    const double c0 = cpu_s(RUSAGE_SELF);
    for (std::size_t i = 0; ph.wall < seconds; ++i) {
      SessionOutcome o = run_session(i, spans, ph, metrics, out);
      ph.wall += o.wall;
      ph.peak_rss_mb = self_peak_rss_mb();
      ph.sessions.push_back(std::move(o));
    }
    ph.cpu = cpu_s(RUSAGE_SELF) - c0;
  }

  /// Every session must end converged. Returns the share of converged
  /// objectives ranking-equivalent to the latent target.
  double check_outcomes(const Phase& ph, Result& out) {
    long converged = 0, correct = 0;
    for (const SessionOutcome& o : ph.sessions) {
      ++out.attempted;
      if (o.status != synth::SynthesisStatus::kConverged || !o.objective) {
        out.fail("session did not converge");
        continue;
      }
      ++converged;
      if (eq_.equivalent(*o.objective, session_spec(sk_, opt_.seed, o.spec).target)) {
        ++correct;
      }
    }
    out.detail["converged_sessions"] = static_cast<double>(converged);
    out.detail["inequivalent_sessions"] = static_cast<double>(converged - correct);
    return converged == 0 ? 0.0
                          : static_cast<double>(correct) /
                                static_cast<double>(converged);
  }

  void report_end_to_end(const Phase& ph, Result& out) {
    const double n = static_cast<double>(ph.sessions.size());
    long comparisons = 0;
    for (const SessionOutcome& o : ph.sessions) comparisons += o.comparisons;
    out.set("sessions_per_s", n / ph.wall, "1/s");
    out.set_pct("iter_s.p50", ph.iters, 0.5, "s");
    out.set_pct("iter_s.p90", ph.iters, 0.9, "s");
    out.set("queries_per_session", static_cast<double>(comparisons) / n, "count");
    out.set("answers_per_s", static_cast<double>(comparisons) / ph.wall, "1/s");
    out.set_pct("turnaround_s.p50", ph.turnaround, 0.5, "s");
    out.set_pct("turnaround_s.p99", ph.turnaround, 0.99, "s");
    out.set("peak_rss_mb", ph.peak_rss_mb, "MB");
    out.set("correct_frac", check_outcomes(ph, out), "fraction");
    out.detail["sessions"] = n;
    out.detail["wall_s"] = ph.wall;
    out.detail["cpu_self_s"] = ph.cpu;
    out.detail["cpu_children_s"] = cpu_s(RUSAGE_CHILDREN);
  }

  /// Replays the traced sessions' first queries through Z3Finder for
  /// `seconds`: the query the paper's engine answers on the same graph.
  void replay_z3(const Phase& ph, double seconds, Result& out, LayerSamples& L,
                 obs::MetricsRegistry& registry) {
    obs::RunContext ctx;
    ctx.metrics = &registry;
    double spent = 0;
    for (std::size_t i = 0; i < ph.sessions.size() && spent < seconds; ++i) {
      const SessionOutcome& o = ph.sessions[i];
      const pref::PreferenceGraph g = graph_prefix(o.graph, o.first_edges, o.first_ties);
      solver::Z3Finder z3(sk_);
      z3.set_run_context(&ctx);
      std::vector<FinderCall> calls(2);
      calls[0].edges = calls[1].edges = o.first_edges;
      calls[0].ties = calls[1].ties = o.first_ties;
      calls[1].distinguishing = false;
      double t0 = now_s();
      calls[0].result = z3.find_distinguishing(g, 1);
      const double q = now_s() - t0;
      t0 = now_s();
      calls[1].consistent = z3.find_consistent(g);
      const double c = now_s() - t0;
      L.z3_query.add(q);
      L.z3_consistent.add(c);
      spent += q + c;
      out.attempted += check_calls(sk_, calls, g, out);
    }
  }

  /// Half the time untraced, then the same sessions traced: per-layer
  /// metrics come from the traced half, the tracing overhead from comparing
  /// the sessions both halves ran.
  void run_traced(Result& out) {
    Spans off(false);
    Phase plain;
    run_phase(plain, off, opt_.seconds / 2, nullptr, out);
    Spans spans(true);
    obs::MetricsRegistry registry;
    Phase ph;
    run_phase(ph, spans, opt_.seconds / 2, &registry, out);
    check_outcomes(plain, out);
    check_outcomes(ph, out);

    const std::size_t common = std::min(plain.sessions.size(), ph.sessions.size());
    double plain_s = 0, traced_s = 0;
    for (std::size_t i = 0; i < common; ++i) {
      plain_s += plain.sessions[i].wall;
      traced_s += ph.sessions[i].wall;
    }
    out.set("trace.overhead_frac", (traced_s - plain_s) / plain_s, "fraction");

    LayerSamples& L = ph.layer;
    obs::MetricsRegistry z3_registry;
    replay_z3(ph, std::min(opt_.seconds / 2, 10.0), out, L, z3_registry);
    const auto counter = [](const obs::MetricsRegistry& reg, const char* name) {
      for (const auto& [k, v] : reg.counters()) {
        if (k == name) return static_cast<double>(v);
      }
      return 0.0;
    };
    const double syncs = counter(registry, "grid.syncs");
    const double lane_evals = counter(registry, "grid.lane_evals");
    out.set("sketch.lane_evals_per_sync", lane_evals / syncs, "count");
    out.set("sketch.lane_evals_per_s", lane_evals / L.sync_wall, "1/s");
    out.set_pct("solver.sync_full_s.p50", L.sync_full, 0.5, "s");
    out.set_pct("solver.sync_incr_s.p50", L.sync_incr, 0.5, "s");
    out.set_pct("solver.pair_search_s.p50", L.search, 0.5, "s");
    out.set_pct("solver.consistent_s.p50", L.consistent, 0.5, "s");
    out.set_pct("solver.restore_s.p50", L.restore, 0.5, "s");
    out.set("solver.survivor_frac",
            L.survivor_frac_sum / static_cast<double>(L.full_syncs), "fraction");
    out.set("util.pool_cpu_per_wall", L.sync_cpu / L.sync_wall, "ratio");
    // Z3 queries on SWAN take about a second, too few per run for exact
    // percentiles: means, with the sample counts in the detail line.
    out.set("z3.query_s.mean", L.z3_query.mean(), "s");
    out.set("z3.consistent_s.mean", L.z3_consistent.mean(), "s");
    out.detail["z3.queries.n"] = static_cast<double>(L.z3_query.size());
    const double z3_checks = counter(z3_registry, "z3.queries");
    const double prechecks = counter(z3_registry, "solver.precheck_hits");
    out.set("z3.precheck_frac", prechecks / (z3_checks + prechecks), "fraction");

    const SpanSummary sum = summarize(spans.recs());
    const double iterations = static_cast<double>(ph.iterations);
    out.set("oracle.compare_share",
            (sum.self("oracle.compare") + sum.self("oracle.rank")) / sum.root_s,
            "fraction");
    // The session span's self time: synthesizer loop work outside the finder
    // and the oracle.
    out.set("synth.loop_s", sum.self("session") / iterations, "s");
    long edges = 0;
    for (const SessionOutcome& o : ph.sessions) edges += o.edges;
    out.set("pref.edges_per_session",
            static_cast<double>(edges) / static_cast<double>(ph.sessions.size()),
            "count");
    report_spans(sum, out);
  }

  const Options& opt_;
  sketch::Sketch sk_;
  Equivalence eq_;
};

}  // namespace

Result run_inprocess(const Options& opt) { return SwanGrid(opt).run(); }

}  // namespace perfbench
