// Solver-free candidate finder over the explicit hole grid.
//
// Maintains the version space — the set of hole assignments consistent with
// the preference graph — explicitly, shrinking it incrementally as edges and
// ties arrive. Distinguishing scenario pairs are found by sampling the
// (continuous) metric box plus a structured sweep near the candidates'
// decision boundaries.
//
// The engine is built for bulk scoring: sketches are lowered once to a flat
// instruction tape (sketch/compile.h) instead of re-walking the AST per
// evaluation, the initial grid enumeration and the incremental filter are
// sharded across a thread pool (util/thread_pool.h), and the version space is
// stored as two flat columns — ascending linear candidate indices and the
// survivors' hole values, row-major — so a sync streams contiguous rows into
// the lane tape and compacts both columns in place. Re-filtering after new
// answers checks only the new edges/ties, evaluating their endpoints afresh
// (evaluation is deterministic, so nothing needs caching across syncs).
// bench/bench_eval.cpp tracks the speedup over the tree interpreter;
// tests/compile_test.cpp proves backend equivalence.
//
// Compared to Z3Finder:
//   + no SMT dependency, trivially debuggable, very fast per query;
//   - its "unique ranking" verdict is approximate (based on a sampling
//     budget rather than a proof), so it may stop early on adversarial
//     sketches. The differential tests quantify this.
// It is the "search loop" baseline the repro notes anticipate, and the
// ablation bench (bench_ablation_solver) compares the two head to head.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "sketch/compile.h"
#include "solver/finder.h"
#include "solver/shard_sync.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace compsynth::solver {

/// How the finder picks which distinguishing pair to ask the user about.
enum class QueryStrategy {
  /// First disagreement found between a random candidate pair — mirrors the
  /// paper's Z3 behaviour, where the solver returns an arbitrary witness.
  kFirstFound,
  /// Active learning: examine several disagreement witnesses and ask about
  /// the one whose answer splits the surviving version space most evenly,
  /// maximizing the information per user interaction.
  kBisection,
};

/// Which evaluator scores candidates during sync. All three are semantically
/// identical bit-for-bit (differentially tested); kTree exists as the
/// reference baseline and kCompiled as the scalar perf comparison in
/// bench_eval. kBatch — the default — evaluates kBatchLaneWidth candidates
/// per tape pass (SIMD where the host supports it, see docs/EVALUATOR.md)
/// and syncs the version space in fixed-range shards.
enum class EvalBackend {
  kTree,      // recursive AST interpreter (sketch/eval.h)
  kCompiled,  // flat-tape stack machine, one candidate at a time
  kBatch,     // structure-of-arrays lane tape (sketch::BatchTape)
};

struct GridFinderConfig {
  FinderConfig base;
  /// Random scenario pairs examined per candidate pair when hunting for a
  /// distinguishing input.
  int scenario_samples = 512;
  /// Candidate pairs examined before concluding (approximately) that all
  /// survivors rank identically.
  int candidate_pair_budget = 64;
  QueryStrategy strategy = QueryStrategy::kFirstFound;
  /// Disagreement witnesses scored per iteration under kBisection.
  int bisection_samples = 12;
  std::uint64_t seed = 0x5eed;
  EvalBackend eval_backend = EvalBackend::kBatch;
  /// Worker threads for sync / filtering / bisection scoring: 0 = the
  /// process-wide shared pool, 1 = fully sequential, N > 1 = a dedicated
  /// pool of N. Any Viability::concrete callback must be thread-safe when
  /// this is not 1 (it is invoked concurrently from the pool).
  int threads = 0;
  /// Use the sketch static analyzer (sketch/analyze.h) to cut work out of
  /// full version-space rebuilds: hole dimensions the body never reads are
  /// enumerated once and replicated, and index sub-boxes whose interval
  /// evaluation refutes some edge/tie are discarded without enumerating
  /// them. Guaranteed to produce the identical survivor sequence as the
  /// plain enumeration (tests/prune_differential_test.cpp); off switches
  /// back to the exhaustive scan. Applies to kTree/kCompiled only: the
  /// kBatch engine always runs the sharded exhaustive scan, because
  /// interval refutation costs more than it saves at lane-tape speeds
  /// (measured — docs/EVALUATOR.md §Why kBatch skips analysis pruning).
  bool analysis_pruning = true;
  /// Distribution seam (non-owning; must outlive the finder): when set and
  /// the kBatch backend performs a *full* rebuild with no Viability callback
  /// (callbacks cannot cross the wire), sync() asks the backend to compute
  /// the fixed-range shards remotely and merges the returned records. Any
  /// backend failure — nullopt, a torn/malformed record, a range mismatch —
  /// falls back to the local scan, so a configured backend can only change
  /// where the work runs, never whether the sync completes or what it
  /// produces (docs/DISTRIBUTED.md §Equivalence). Incremental filters
  /// always run locally (they compact the survivor columns in place).
  ShardSyncBackend* shard_backend = nullptr;
};

class GridFinder final : public CandidateFinder {
 public:
  explicit GridFinder(sketch::Sketch sketch, GridFinderConfig config = {},
                      Viability viability = {}, ScenarioDomain domain = {});

  FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                   int num_pairs) override;

  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override;

  /// Brings the version space in line with `graph`: full (parallel) grid
  /// enumeration on first use or after the graph shrank, incremental filter
  /// over the new edges/ties otherwise. Idempotent; exposed so benches and
  /// tests can drive/measure it directly.
  void sync(const pref::PreferenceGraph& graph);

  /// Survivors consistent with the most recently seen graph state.
  std::size_t version_space_size() const { return survivors_.linears.size(); }
  /// The survivors' linear candidate indices over the hole grid, ascending
  /// (index 0 fastest-varying, see survivor_assignment). Fixed-range shards
  /// are therefore contiguous subranges, and the serialized per-shard
  /// bitmaps partition the survivor set.
  std::span<const std::int64_t> survivor_linears() const {
    return survivors_.linears;
  }
  /// The hole assignment of survivor `i` (0 <= i < version_space_size()).
  sketch::HoleAssignment survivor_assignment(std::size_t i) const {
    return assignment_at(survivors_.linears[i]);
  }

  /// Executor threads / shards the most recent sync() actually used (1 when
  /// the work was too small to shard and ran serially — see the work-size
  /// thresholds in grid_finder.cpp). Under kBatch the shard count is the
  /// fixed-range geometry (shard_span), which holds even when the scan runs
  /// serially; only the thread count drops to 1 then. Reported by
  /// bench_eval so regressions from parallel overhead on small workloads
  /// are visible in the JSON.
  std::size_t last_sync_threads() const { return last_sync_threads_; }
  std::size_t last_sync_shards() const { return last_sync_shards_; }

  /// Cooperative cancellation for portfolio racing (non-owning; nullptr
  /// disables). find_distinguishing polls the flag between candidate pairs
  /// and returns kUnknown promptly once it flips; sync() always runs to
  /// completion so the version space stays consistent. A cancelled search
  /// still advances the pair-search RNG by however many pairs it examined,
  /// so race-mode runs are not replay-deterministic (docs/SOLVER.md
  /// §Portfolio). Not part of save_state.
  void set_cancel_flag(const std::atomic<bool>* cancel) { cancel_ = cancel; }

  /// Durable-session persistence: the pair-search RNG stream, the sync
  /// cursors (edges/ties already folded into the version space) and the
  /// survivor set as per-shard bitmaps over linear candidate indices
  /// (format v2; self-describing `shard <k> <lo> <hi>` ranges so a future
  /// multi-worker split can emit one shard per worker with no format
  /// change — docs/EVALUATOR.md §Shard state). v1 single-bitmap blobs from
  /// older snapshots still restore. Survivor hole values are
  /// re-materialized from the grid on restore, so a restored finder
  /// continues the identical query sequence.
  std::string save_state() const override;
  void restore_state(const std::string& state) override;

  /// One decoded `shard <k> <lo> <hi> <count> <hex>` record: the range, and
  /// the surviving linear candidate indices in ascending order.
  struct ParsedShardBlob {
    std::size_t index = 0;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::vector<std::int64_t> linears;
  };

  /// Parses and structurally validates one serialized shard record (the
  /// per-shard line of the `gridfinder 2` format and the dist wire blob —
  /// docs/EVALUATOR.md §Shard state). Throws std::invalid_argument with a
  /// specific reason on any damage: truncation mid-bitmap, a bitmap whose
  /// length disagrees with [lo, hi), non-hex bytes, or a `count` field that
  /// disagrees with the bitmap's population. Shared by restore_state, the
  /// remote-merge path and the dist coordinator's response validation, so a
  /// torn blob is rejected identically at every layer.
  static ParsedShardBlob parse_shard_blob(const std::string& record);

  /// Renders the inverse: linears must lie in [lo, hi) ascending.
  static std::string encode_shard_blob(std::size_t index, std::int64_t lo,
                                       std::int64_t hi,
                                       const std::vector<std::int64_t>& linears);

  /// The machine-independent fixed-range shard list for this sketch's
  /// candidate space — exactly the geometry a full kBatch sync uses.
  std::vector<ShardRange> shard_ranges() const;

  /// Computes one shard of a full kBatch sync against `graph` and returns
  /// its serialized record. Pure: reads only immutable members (the sketch,
  /// tapes and config), so concurrent calls — the worker side of a
  /// distributed sync — are safe. Lane evaluation errors propagate as the
  /// local scan would throw them.
  std::string sync_shard_blob(const pref::PreferenceGraph& graph,
                              std::size_t index, std::int64_t lo,
                              std::int64_t hi) const;

 private:
  /// The version space in column form: survivor i has linear candidate index
  /// linears[i] (ascending) and hole values values[i*H, (i+1)*H) for the
  /// sketch's H holes. Shard scans fill one of these each; the finder's own
  /// survivor set is one too.
  struct Columns {
    std::vector<std::int64_t> linears;
    std::vector<double> values;
  };
  /// Objective values of the one candidate under test at the graph's
  /// vertices, each computed on first use. The scalar scans reuse one per
  /// scan; reset() starts the next candidate.
  struct VertexValues {
    std::vector<double> value;
    std::vector<char> done;
    void reset(std::size_t n_vertices) {
      done.assign(n_vertices, 0);
      value.resize(n_vertices);
    }
  };
  /// Per-shard evaluation tallies, summed into the grid_sync trace event.
  struct BatchCounters {
    long long lane_evals = 0;  // lanes pushed through BatchTape::eval_lanes
    long long groups = 0;      // kLaneWidth-candidate groups formed
  };

  /// Scalar consistency check of one candidate against edges/ties from
  /// `first_edge`/`first_tie` on, evaluating each vertex at most once.
  bool consistent(std::span<const double> hole_values,
                  const pref::PreferenceGraph& graph, std::size_t first_edge,
                  std::size_t first_tie, VertexValues& vertices) const;
  /// One evaluation through the configured backend.
  double objective(std::span<const double> hole_values,
                   std::span<const double> metrics) const;
  /// Evaluates one candidate at out.size() scenarios stored row-major in
  /// `metrics_flat`.
  void objective_batch(std::span<const double> hole_values,
                       std::span<const double> metrics_flat,
                       std::span<double> out) const;
  /// Decodes a linear candidate index into a hole assignment (index 0 is
  /// the fastest-varying digit, matching odometer order).
  sketch::HoleAssignment assignment_at(std::int64_t linear) const;
  /// Hole values of survivor `i` (a row of survivors_.values).
  std::span<const double> survivor_row(std::size_t i) const;
  /// Makes `linears` (ascending) the version space, decoding each
  /// survivor's hole values from the grid.
  void assign_survivors(std::vector<std::int64_t> linears);
  /// Full enumeration of grid candidates [lo, hi) (linear indices),
  /// appending survivors in order.
  void enumerate_range(std::int64_t lo, std::int64_t hi,
                       const pref::PreferenceGraph& graph, Columns& out) const;
  /// Fixed-range shard width for `total` candidates. A pure function of the
  /// candidate-space size — never of thread count — so shard geometry (and
  /// therefore the serialized per-shard state) is machine-independent.
  static std::int64_t shard_span(std::int64_t total);
  /// kBatch full rebuild of one shard: enumerates [lo, hi) in
  /// kBatchLaneWidth groups through the lane tape, appending survivors in
  /// order. Sequence and error behaviour are bit-for-bit those of
  /// enumerate_range (lane errors re-thrown in candidate order).
  void enumerate_range_batch(std::int64_t lo, std::int64_t hi,
                             const pref::PreferenceGraph& graph, Columns& out,
                             BatchCounters& counters) const;
  /// kBatch incremental filter of survivors [lo, hi) (one shard's
  /// contiguous position range) against the new edges/ties: writes only
  /// this range's keep flags, so shards run in parallel without shared
  /// mutable state.
  void filter_range_batch(std::size_t lo, std::size_t hi,
                          const pref::PreferenceGraph& graph,
                          std::vector<char>& keep,
                          BatchCounters& counters) const;
  /// Analysis-driven full rebuild (see GridFinderConfig::analysis_pruning):
  /// branch-and-prune over index sub-boxes plus degenerate-dimension
  /// replication. Returns false when there is nothing to exploit (caller
  /// falls back to the exhaustive scan); on true, survivors_ holds exactly
  /// the sequence the exhaustive scan would have produced.
  bool rebuild_pruned(const pref::PreferenceGraph& graph);
  /// Remote full rebuild through config_.shard_backend: dispatches the
  /// fixed-range shards, decodes + merges the returned records into
  /// survivors_ in shard order. Returns false (leaving survivors_ empty,
  /// exactly as the local path expects it) when the backend declines or any
  /// record fails validation — the caller then runs the local scan.
  bool rebuild_remote(const pref::PreferenceGraph& graph,
                      std::size_t n_shards, std::int64_t span_len,
                      std::int64_t total);
  /// Decodes one shard record, appending its survivors' linear indices to
  /// `linears`; returns the header with an empty linears list. The single
  /// structural validator behind parse_shard_blob and restore_state.
  static ParsedShardBlob decode_shard_blob(const std::string& record,
                                           std::vector<std::int64_t>& linears);
  /// Appends the boundary probes of `metric` for one candidate.
  void append_boundary_values(std::span<const double> hole_values,
                              std::size_t metric,
                              std::vector<double>& out) const;
  std::optional<DistinguishingPair> distinguish(std::span<const double> a,
                                                std::span<const double> b);
  /// The pool to shard work over, or nullptr when configured sequential.
  util::ThreadPool* pool() const;

  sketch::Sketch sketch_;
  sketch::CompiledSketch compiled_;  // must follow sketch_ (init order)
  sketch::BatchTape batch_;          // must follow sketch_ (init order)
  /// Which holes the body actually reads (sketch::used_holes), computed
  /// once; unread dimensions are candidates for pinning + replication.
  std::vector<bool> hole_used_;
  GridFinderConfig config_;
  Viability viability_;
  ScenarioDomain domain_;
  util::Rng rng_;
  std::unique_ptr<util::ThreadPool> own_pool_;  // when config_.threads > 1

  // Shard state. GridFinder holds no mutex: parallel_for shards write only
  // their own slots of pre-sized output vectors (never these members), and
  // every member write below happens on the caller's thread either before
  // the shards are submitted or after parallel_for's completion barrier —
  // the pool's own synchronization publishes them. The only cross-thread
  // member is cancel_, a pointer to the caller-owned atomic, set strictly
  // before (and cleared strictly after) the racing search it cancels.
  Columns survivors_;
  /// Buffers distinguish() reuses from call to call, so the pair search
  /// allocates nothing per scenario sample.
  struct PairScratch {
    std::vector<std::vector<double>> boundaries;  // probes per metric
    std::vector<std::size_t> cursor;              // cross-product odometer
    std::vector<double> points;  // cross-product scenarios, row-major
    std::vector<double> fa, fb;  // both candidates at every point
    std::vector<std::size_t> order;
    std::vector<double> sample1, sample2;  // random scenario pair
  } pair_scratch_;
  bool initialized_ = false;
  std::size_t edges_seen_ = 0;
  std::size_t ties_seen_ = 0;
  std::size_t last_sync_threads_ = 1;
  std::size_t last_sync_shards_ = 1;
  const std::atomic<bool>* cancel_ = nullptr;

  bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }
};

}  // namespace compsynth::solver
