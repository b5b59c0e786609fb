#include "solver/grid_finder.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/run_context.h"
#include "sketch/analyze.h"
#include "sketch/eval.h"
#include "util/log.h"
#include "util/timer.h"

namespace compsynth::solver {

namespace {

constexpr std::int64_t kMaxEnumerableCandidates = 4'000'000;

// Below this many candidates a parallel rebuild costs more in scheduling
// than it saves; run inline.
constexpr std::int64_t kMinParallelCandidates = 2048;

}  // namespace

GridFinder::GridFinder(sketch::Sketch sketch, GridFinderConfig config,
                       Viability viability, ScenarioDomain domain)
    : sketch_(std::move(sketch)),
      compiled_(sketch_),
      batch_(sketch_),
      hole_used_(sketch::used_holes(*sketch_.body(), sketch_.holes().size())),
      config_(config),
      viability_(std::move(viability)),
      domain_(std::move(domain)),
      rng_(config.seed) {
  validate_domain(sketch_, domain_);
  if (config_.base.distinguish_margin <= config_.base.tie_tolerance) {
    throw std::invalid_argument(
        "GridFinder: distinguish_margin must exceed tie_tolerance");
  }
  if (config_.threads < 0) {
    throw std::invalid_argument("GridFinder: threads must be >= 0");
  }
  if (sketch_.candidate_space_size() > kMaxEnumerableCandidates) {
    throw std::invalid_argument(
        "GridFinder: hole grid too large to enumerate; use Z3Finder");
  }
  if (config_.threads > 1) {
    own_pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(config_.threads));
  }
}

util::ThreadPool* GridFinder::pool() const {
  if (config_.threads == 1) return nullptr;
  if (own_pool_ != nullptr) return own_pool_.get();
  return &util::ThreadPool::shared();
}

double GridFinder::objective(std::span<const double> hole_values,
                             std::span<const double> metrics) const {
  // kBatch shares the scalar tape here: distinguishing-pair search and
  // bisection scoring evaluate ONE candidate against many scenarios — the
  // transpose of the lane tape's 8-candidates-1-scenario shape — and the
  // two tapes are bit-identical anyway (tests/compile_test.cpp).
  if (config_.eval_backend != EvalBackend::kTree) {
    return compiled_.eval(metrics, hole_values);
  }
  return sketch::eval_with_values(sketch_, hole_values, metrics);
}

void GridFinder::objective_batch(std::span<const double> hole_values,
                                 std::span<const double> metrics_flat,
                                 std::span<double> out) const {
  if (config_.eval_backend != EvalBackend::kTree) {
    compiled_.eval_many(metrics_flat, hole_values, out);
    return;
  }
  const std::size_t width = sketch_.metrics().size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = sketch::eval_with_values(
        sketch_, hole_values, metrics_flat.subspan(i * width, width));
  }
}

bool GridFinder::consistent(std::span<const double> hole_values,
                            const pref::PreferenceGraph& graph,
                            std::size_t first_edge, std::size_t first_tie,
                            VertexValues& vertices) const {
  vertices.reset(graph.vertex_count());
  const auto value_of = [&](pref::VertexId v) {
    if (!vertices.done[v]) {
      vertices.value[v] = objective(hole_values, graph.scenario(v).metrics);
      vertices.done[v] = 1;
    }
    return vertices.value[v];
  };
  const double tie_bound = config_.base.tie_tolerance + 1e-9;
  const auto& edges = graph.edges();
  for (std::size_t i = first_edge; i < edges.size(); ++i) {
    const double better = value_of(edges[i].better);
    const double worse = value_of(edges[i].worse);
    if (!(better > worse)) return false;
  }
  const auto& ties = graph.ties();
  for (std::size_t i = first_tie; i < ties.size(); ++i) {
    const double fu = value_of(ties[i].first);
    const double fv = value_of(ties[i].second);
    if (std::abs(fu - fv) > tie_bound) return false;
  }
  return true;
}

sketch::HoleAssignment GridFinder::assignment_at(std::int64_t linear) const {
  sketch::HoleAssignment a;
  a.index.resize(sketch_.holes().size());
  for (std::size_t i = 0; i < a.index.size(); ++i) {
    const std::int64_t count = sketch_.holes()[i].count;
    a.index[i] = linear % count;
    linear /= count;
  }
  return a;
}

std::span<const double> GridFinder::survivor_row(std::size_t i) const {
  const std::size_t n_holes = sketch_.holes().size();
  return std::span<const double>(survivors_.values).subspan(i * n_holes,
                                                            n_holes);
}

void GridFinder::assign_survivors(std::vector<std::int64_t> linears) {
  const auto& holes = sketch_.holes();
  survivors_.values.resize(linears.size() * holes.size());
  double* row = survivors_.values.data();
  for (std::int64_t linear : linears) {
    for (const sketch::HoleSpec& hole : holes) {
      *row++ = hole.value_at(linear % hole.count);
      linear /= hole.count;
    }
  }
  survivors_.linears = std::move(linears);
}

void GridFinder::enumerate_range(std::int64_t lo, std::int64_t hi,
                                 const pref::PreferenceGraph& graph,
                                 Columns& out) const {
  const auto& holes = sketch_.holes();
  sketch::HoleAssignment cursor = assignment_at(lo);
  std::vector<double> hole_values(holes.size());
  VertexValues vertices;
  for (std::int64_t i = lo; i < hi; ++i) {
    for (std::size_t h = 0; h < holes.size(); ++h) {
      hole_values[h] = holes[h].value_at(cursor.index[h]);
    }
    const bool viable =
        !viability_.concrete || viability_.concrete(hole_values);
    if (viable && consistent(hole_values, graph, 0, 0, vertices)) {
      out.linears.push_back(i);
      out.values.insert(out.values.end(), hole_values.begin(),
                        hole_values.end());
    }
    // Odometer increment over the grid (index 0 varies fastest, matching
    // assignment_at's linear decoding).
    std::size_t pos = 0;
    while (pos < cursor.index.size()) {
      if (++cursor.index[pos] < holes[pos].count) break;
      cursor.index[pos] = 0;
      ++pos;
    }
  }
}

std::int64_t GridFinder::shard_span(std::int64_t total) {
  // Wide enough that per-shard overhead (part vectors, scratch buffers) is
  // noise, narrow enough that a big grid still yields ~64 shards to balance
  // across a pool. Depends only on `total`, never on the thread count, so
  // the serialized per-shard state (save_state v2) is machine-independent.
  return std::max<std::int64_t>(4096, (total + 63) / 64);
}

namespace {

constexpr std::size_t kLanes = sketch::kBatchLaneWidth;
using LaneErrors = std::array<sketch::LaneError, kLanes>;

// The lane-tape constraint check shared by the full scan and the incremental
// filter. One group of kLanes candidates at a time: each graph vertex a
// constraint reaches is evaluated once per group, for every lane, and its
// values and error codes kept until the next group.
class LaneCheck {
 public:
  LaneCheck(const sketch::BatchTape& tape, const pref::PreferenceGraph& graph,
            double tie_bound)
      : tape_(tape),
        graph_(graph),
        tie_bound_(tie_bound),
        vals_(graph.vertex_count() * kLanes),
        errs_(graph.vertex_count() * kLanes),
        done_(graph.vertex_count(), 0),
        err_bits_(graph.vertex_count(), 0) {}

  // Checks the first `n` lanes of `holes_soa` (hole h, lane l at
  // h*kLanes+l) that are set in `alive` against the edges from `first_edge`
  // and the ties from `first_tie`. Returns the lanes that pass them all;
  // lane_err[l] receives the error of each lane that raised one.
  //
  // The checks mirror GridFinder::consistent per lane: the better vertex's
  // error is observed first, then the worse one's, then the comparison — so
  // each lane's recorded error is exactly the EvalError the scalar scan
  // would have thrown for that candidate. Error lanes take the scalar slow
  // path (rare); the comparison itself is one vectorized mask per
  // constraint. lane_gt_bits is false on NaN, matching `!(fb > fw)` killing
  // the lane; lane_abs_diff_gt_bits is false on NaN, so a NaN difference
  // never exceeds the tie bound and the lane survives, as in consistent().
  unsigned run(std::span<const double> holes_soa, std::size_t n,
               unsigned alive, std::size_t first_edge, std::size_t first_tie,
               LaneErrors& lane_err, long long& lane_evals) {
    lane_err.fill(sketch::LaneError::kNone);
    std::fill(done_.begin(), done_.end(), char{0});
    const auto ensure = [&](pref::VertexId v) {
      if (done_[v]) return;
      done_[v] = 1;
      tape_.eval_lanes(graph_.scenario(v).metrics, holes_soa,
                       &vals_[v * kLanes], &errs_[v * kLanes]);
      unsigned bits = 0;
      for (std::size_t l = 0; l < n; ++l) {
        if (errs_[v * kLanes + l] != sketch::LaneError::kNone) bits |= 1u << l;
      }
      err_bits_[v] = static_cast<unsigned char>(bits);
      lane_evals += static_cast<long long>(kLanes);
    };
    // Retires the alive lanes that raised on u or v (u's error first).
    const auto retire_errors = [&](pref::VertexId u, pref::VertexId v) {
      const unsigned err_mask =
          static_cast<unsigned>(err_bits_[u] | err_bits_[v]) & alive;
      for (unsigned bits = err_mask; bits != 0; bits &= bits - 1) {
        const auto l = static_cast<std::size_t>(std::countr_zero(bits));
        const sketch::LaneError eu = errs_[u * kLanes + l];
        lane_err[l] =
            eu != sketch::LaneError::kNone ? eu : errs_[v * kLanes + l];
      }
      alive &= ~err_mask;
    };

    const auto& edges = graph_.edges();
    for (std::size_t i = first_edge; i < edges.size() && alive != 0; ++i) {
      const pref::VertexId b = edges[i].better;
      const pref::VertexId w = edges[i].worse;
      ensure(b);
      ensure(w);
      retire_errors(b, w);
      alive &= sketch::lane_gt_bits(&vals_[b * kLanes], &vals_[w * kLanes]);
    }
    const auto& ties = graph_.ties();
    for (std::size_t i = first_tie; i < ties.size() && alive != 0; ++i) {
      const pref::VertexId u = ties[i].first;
      const pref::VertexId v = ties[i].second;
      ensure(u);
      ensure(v);
      retire_errors(u, v);
      alive &= ~sketch::lane_abs_diff_gt_bits(&vals_[u * kLanes],
                                              &vals_[v * kLanes], tie_bound_);
    }
    return alive;
  }

 private:
  const sketch::BatchTape& tape_;
  const pref::PreferenceGraph& graph_;
  double tie_bound_;
  std::vector<double> vals_;              // vertex v, lane l at v*kLanes+l
  std::vector<sketch::LaneError> errs_;   // same layout
  std::vector<char> done_;                // vertex evaluated for this group
  // Bit l of err_bits_[v] = lane l errored on vertex v (valid when done_[v]).
  std::vector<unsigned char> err_bits_;
};

// Copies the last real lane into the spare lanes of a tail group narrower
// than kLanes, so every lane holds in-domain values; spare lanes start dead
// and their outputs are ignored.
void pad_spare_lanes(std::vector<double>& holes_soa, std::size_t n_holes,
                     std::size_t n) {
  for (std::size_t l = n; l < kLanes; ++l) {
    for (std::size_t h = 0; h < n_holes; ++h) {
      holes_soa[h * kLanes + l] = holes_soa[h * kLanes + (n - 1)];
    }
  }
}

}  // namespace

void GridFinder::enumerate_range_batch(std::int64_t lo, std::int64_t hi,
                                       const pref::PreferenceGraph& graph,
                                       Columns& out,
                                       BatchCounters& counters) const {
  const auto& holes = sketch_.holes();
  const std::size_t n_holes = holes.size();
  LaneCheck check(batch_, graph, config_.base.tie_tolerance + 1e-9);

  // Odometer cursor shared across groups (index 0 varies fastest, matching
  // assignment_at / enumerate_range).
  sketch::HoleAssignment cursor = assignment_at(lo);
  std::vector<double> holes_soa(n_holes * kLanes);  // h*kLanes+l
  std::vector<double> lane_values(n_holes);         // AoS view for viability
  LaneErrors lane_err{};

  for (std::int64_t base = lo; base < hi; base += kLanes) {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::int64_t>(kLanes, hi - base));
    ++counters.groups;

    // Stage the group: decode + advance the odometer per lane, compute hole
    // values, run the viability gate.
    unsigned alive_bits = 0;  // bit l = lane l still satisfies everything
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t h = 0; h < n_holes; ++h) {
        const double v = holes[h].value_at(cursor.index[h]);
        lane_values[h] = v;
        holes_soa[h * kLanes + l] = v;
      }
      if (!viability_.concrete || viability_.concrete(lane_values)) {
        alive_bits |= 1u << l;
      }
      std::size_t pos = 0;
      while (pos < n_holes) {
        if (++cursor.index[pos] < holes[pos].count) break;
        cursor.index[pos] = 0;
        ++pos;
      }
    }
    pad_spare_lanes(holes_soa, n_holes, n);
    alive_bits = check.run(holes_soa, n, alive_bits, 0, 0, lane_err,
                           counters.lane_evals);

    // Drain the group in candidate order: survivors below an erroring lane
    // are appended before its EvalError is re-thrown, exactly as the scalar
    // scan would have produced them before throwing.
    for (std::size_t l = 0; l < n; ++l) {
      if (lane_err[l] != sketch::LaneError::kNone) {
        sketch::throw_lane_error(lane_err[l]);
      }
      if (((alive_bits >> l) & 1u) == 0) continue;
      out.linears.push_back(base + static_cast<std::int64_t>(l));
      for (std::size_t h = 0; h < n_holes; ++h) {
        out.values.push_back(holes_soa[h * kLanes + l]);
      }
    }
  }
}

void GridFinder::filter_range_batch(std::size_t lo, std::size_t hi,
                                    const pref::PreferenceGraph& graph,
                                    std::vector<char>& keep,
                                    BatchCounters& counters) const {
  const std::size_t n_holes = sketch_.holes().size();
  LaneCheck check(batch_, graph, config_.base.tie_tolerance + 1e-9);
  std::vector<double> holes_soa(n_holes * kLanes);
  LaneErrors lane_err{};

  for (std::size_t base = lo; base < hi; base += kLanes) {
    const std::size_t n = std::min(kLanes, hi - base);
    ++counters.groups;
    // Stage the group from n contiguous rows of the hole-value column. Only
    // the new edges/ties are checked: every survivor already passed the
    // older ones, and their endpoints are simply evaluated again — the tape
    // is deterministic, so a re-evaluated vertex neither changes value nor
    // raises where it did not before.
    const double* rows = survivors_.values.data() + base * n_holes;
    for (std::size_t l = 0; l < n; ++l) {
      for (std::size_t h = 0; h < n_holes; ++h) {
        holes_soa[h * kLanes + l] = rows[l * n_holes + h];
      }
    }
    pad_spare_lanes(holes_soa, n_holes, n);
    const unsigned alive_bits =
        check.run(holes_soa, n, (1u << n) - 1, edges_seen_, ties_seen_,
                  lane_err, counters.lane_evals);

    for (std::size_t l = 0; l < n; ++l) {
      if (lane_err[l] != sketch::LaneError::kNone) {
        sketch::throw_lane_error(lane_err[l]);
      }
      keep[base + l] = static_cast<char>((alive_bits >> l) & 1u);
    }
  }
}

bool GridFinder::rebuild_pruned(const pref::PreferenceGraph& graph) {
  const auto& holes = sketch_.holes();
  const std::size_t n_holes = holes.size();

  // Degenerate dimensions: holes the body never reads cannot influence any
  // objective value, so consistency is decided by the used dimensions alone.
  // Enumerate index 0 of each unread dimension and replicate the survivors
  // across its full grid afterwards. A concrete viability callback may
  // inspect unread hole values, so pinning is disabled in that case.
  std::vector<std::size_t> pinned;
  if (!viability_.concrete) {
    for (std::size_t h = 0; h < n_holes; ++h) {
      if (!hole_used_[h] && holes[h].count > 1) pinned.push_back(h);
    }
  }
  const bool have_constraints =
      !graph.edges().empty() || !graph.ties().empty();
  if (pinned.empty() && !have_constraints) return false;  // nothing to gain

  obs::Span span(obs_, "analysis");

  const sketch::Expr& body = *sketch_.body();
  const double tie_bound = config_.base.tie_tolerance + 1e-9;

  // Every graph vertex as a point metric box, built once.
  std::vector<std::vector<sketch::Interval>> vertex_metrics(
      graph.vertex_count());
  for (pref::VertexId v = 0; v < graph.vertex_count(); ++v) {
    auto& mv = vertex_metrics[v];
    const auto& metrics = graph.scenario(v).metrics;
    mv.reserve(metrics.size());
    for (const double x : metrics) mv.push_back(sketch::Interval::point(x));
  }

  // An inclusive index sub-box of the hole grid.
  struct Node {
    std::vector<std::int64_t> lo, hi;
  };
  const auto volume_of = [&](const Node& nd) {
    std::int64_t vol = 1;
    for (std::size_t h = 0; h < nd.lo.size(); ++h) {
      vol *= nd.hi[h] - nd.lo[h] + 1;
    }
    return vol;
  };

  // A box is refuted when the interval evaluation proves every candidate in
  // it violates some edge or tie of the graph. Edge {better, worse} fails
  // for a candidate unless f(better) > f(worse); if the better-vertex
  // enclosure lies entirely at or below the worse-vertex enclosure, no
  // candidate can pass (NaN outcomes fail `better > worse` anyway), provided
  // neither side can throw (a throwing candidate must be reached so the
  // exhaustive scan's behaviour is preserved). A tie fails only when
  // |f(u) - f(v)| > tie_bound, which a NaN never satisfies — so tie
  // refutation additionally requires NaN-freedom.
  const auto refuted = [&](const Node& nd) {
    std::vector<sketch::Interval> hole_iv(n_holes);
    for (std::size_t h = 0; h < n_holes; ++h) {
      hole_iv[h] = sketch::grid_interval(holes[h], nd.lo[h], nd.hi[h]);
    }
    sketch::Box box;
    box.holes = std::move(hole_iv);
    const auto eval_vertex = [&](pref::VertexId v) {
      box.metrics = vertex_metrics[v];
      return sketch::eval_interval(body, box);
    };
    for (const auto& e : graph.edges()) {
      const sketch::Interval ib = eval_vertex(e.better);
      const sketch::Interval iw = eval_vertex(e.worse);
      if (!ib.maybe_error && !iw.maybe_error && ib.hi <= iw.lo) return true;
    }
    for (const auto& t : graph.ties()) {
      const sketch::Interval iu = eval_vertex(t.first);
      const sketch::Interval iv = eval_vertex(t.second);
      const sketch::Interval d = sketch::interval_sub(iu, iv);
      if (!d.maybe_nan && !d.maybe_error &&
          (d.lo > tie_bound || d.hi < -tie_bound)) {
        return true;
      }
    }
    return false;
  };

  // Branch and prune: subdivide until a box is refuted or small enough to
  // enumerate. Below the leaf volume the per-candidate scan is cheaper than
  // further interval evaluations.
  constexpr std::int64_t kLeafVolume = 512;
  Node root;
  root.lo.assign(n_holes, 0);
  root.hi.resize(n_holes);
  for (std::size_t h = 0; h < n_holes; ++h) root.hi[h] = holes[h].count - 1;
  for (const std::size_t p : pinned) root.hi[p] = 0;

  std::vector<Node> leaves;
  long long pruned_regions = 0;
  long long pruned_candidates = 0;
  if (!have_constraints) {
    leaves.push_back(std::move(root));  // pinning alone does the work
  } else {
    std::vector<Node> work;
    work.push_back(std::move(root));
    while (!work.empty()) {
      Node nd = std::move(work.back());
      work.pop_back();
      if (refuted(nd)) {
        ++pruned_regions;
        pruned_candidates += volume_of(nd);
        continue;
      }
      std::size_t widest = 0;
      std::int64_t width = 0;
      for (std::size_t h = 0; h < n_holes; ++h) {
        if (nd.hi[h] - nd.lo[h] > width) {
          width = nd.hi[h] - nd.lo[h];
          widest = h;
        }
      }
      if (width == 0 || volume_of(nd) <= kLeafVolume) {
        leaves.push_back(std::move(nd));
        continue;
      }
      const std::int64_t mid = nd.lo[widest] + (nd.hi[widest] - nd.lo[widest]) / 2;
      Node right = nd;
      nd.hi[widest] = mid;
      right.lo[widest] = mid + 1;
      // Push the upper half first so the lower half is processed first,
      // keeping leaf discovery roughly in ascending index order.
      work.push_back(std::move(right));
      work.push_back(std::move(nd));
    }
  }

  // Linear index strides (index 0 fastest, matching assignment_at).
  std::vector<std::int64_t> stride(n_holes, 1);
  for (std::size_t h = 1; h < n_holes; ++h) {
    stride[h] = stride[h - 1] * holes[h - 1].count;
  }

  // Enumerate the surviving leaves into linear candidate indices; the final
  // sort reproduces the exhaustive scan order.
  const auto enumerate_leaf = [&](const Node& nd,
                                  std::vector<std::int64_t>& out) {
    sketch::HoleAssignment cursor;
    cursor.index = nd.lo;
    std::vector<double> hole_values(n_holes);
    VertexValues vertices;
    for (;;) {
      std::int64_t linear = 0;
      for (std::size_t h = 0; h < n_holes; ++h) {
        hole_values[h] = holes[h].value_at(cursor.index[h]);
        linear += cursor.index[h] * stride[h];
      }
      const bool viable =
          !viability_.concrete || viability_.concrete(hole_values);
      if (viable && consistent(hole_values, graph, 0, 0, vertices)) {
        out.push_back(linear);
      }
      std::size_t pos = 0;
      while (pos < n_holes) {
        if (++cursor.index[pos] <= nd.hi[pos]) break;
        cursor.index[pos] = nd.lo[pos];
        ++pos;
      }
      if (pos == n_holes) break;
    }
  };

  // The parallel path pays per-leaf scheduling and a result merge; with few
  // surviving candidates that overhead exceeds the scan itself (the
  // BENCH_eval "parallel vs compiled" regression), so small totals stay
  // serial just like the exhaustive rebuild below.
  std::int64_t leaf_volume = 0;
  for (const Node& nd : leaves) leaf_volume += volume_of(nd);

  std::vector<std::int64_t> found;
  util::ThreadPool* pool = this->pool();
  if (pool == nullptr || leaves.size() <= 1 ||
      leaf_volume < kMinParallelCandidates) {
    last_sync_threads_ = 1;
    last_sync_shards_ = 1;
    for (const Node& nd : leaves) enumerate_leaf(nd, found);
  } else {
    last_sync_threads_ = pool->size();
    last_sync_shards_ = leaves.size();
    std::vector<std::vector<std::int64_t>> parts(leaves.size());
    pool->parallel_for(0, leaves.size(), [&](std::size_t lo, std::size_t hi) {
      for (std::size_t k = lo; k < hi; ++k) enumerate_leaf(leaves[k], parts[k]);
    });
    for (const auto& p : parts) found.insert(found.end(), p.begin(), p.end());
  }

  // Replicate across pinned dimensions: the objective never reads them, so
  // each replica shares the base survivor's consistency verdict.
  for (const std::size_t p : pinned) {
    const std::size_t base_n = found.size();
    for (std::int64_t idx = 1; idx < holes[p].count; ++idx) {
      for (std::size_t i = 0; i < base_n; ++i) {
        found.push_back(found[i] + idx * stride[p]);
      }
    }
  }

  std::sort(found.begin(), found.end());
  assign_survivors(std::move(found));

  if (obs::active(obs_)) {
    obs_->count("analysis.pruned_regions", pruned_regions);
    obs_->count("analysis.pruned_candidates", pruned_candidates);
    if (obs::TraceEvent* e = span.event()) {
      e->str("kind", "prune")
          .integer("edges", static_cast<long long>(graph.edges().size()))
          .integer("ties", static_cast<long long>(graph.ties().size()))
          .integer("pruned_regions", pruned_regions)
          .integer("pruned_candidates", pruned_candidates)
          .integer("degenerate_dims", static_cast<long long>(pinned.size()))
          .integer("leaves", static_cast<long long>(leaves.size()))
          .integer("survivors", static_cast<long long>(version_space_size()));
    }
  }
  return true;
}

void GridFinder::sync(const pref::PreferenceGraph& graph) {
  const bool shrunk =
      graph.edges().size() < edges_seen_ || graph.ties().size() < ties_seen_;
  const bool rebuild = !initialized_ || shrunk;
  const bool grown = graph.edges().size() > edges_seen_ ||
                     graph.ties().size() > ties_seen_;
  if (!rebuild && !grown) return;  // already in line with `graph`

  obs::Span span(obs_, "grid_sync");
  const std::size_t survivors_before = version_space_size();
  const long long new_edges =
      static_cast<long long>(graph.edges().size()) -
      static_cast<long long>(edges_seen_);
  const long long new_ties = static_cast<long long>(graph.ties().size()) -
                             static_cast<long long>(ties_seen_);
  std::size_t shards = 1;
  std::vector<double> shard_secs;
  const bool batch_backend = config_.eval_backend == EvalBackend::kBatch;
  BatchCounters batch_tally;

  // Concatenates per-shard column buffers in shard order, which reproduces
  // the sequential survivor order exactly.
  const auto join_parts = [&](const std::vector<Columns>& parts) {
    std::size_t rows = 0, cells = 0;
    for (const Columns& p : parts) {
      rows += p.linears.size();
      cells += p.values.size();
    }
    survivors_.linears.reserve(rows);
    survivors_.values.reserve(cells);
    for (const Columns& p : parts) {
      survivors_.linears.insert(survivors_.linears.end(), p.linears.begin(),
                                p.linears.end());
      survivors_.values.insert(survivors_.values.end(), p.values.begin(),
                               p.values.end());
    }
  };

  util::ThreadPool* pool = this->pool();
  bool pruned = false;
  bool distributed = false;
  if (rebuild) {
    survivors_.linears.clear();
    survivors_.values.clear();
    // kBatch always runs the sharded exhaustive scan: interval refutation
    // costs more than it saves at lane-tape speeds (measured in
    // docs/EVALUATOR.md §Why kBatch skips analysis pruning), and the
    // differential suite proves pruning never changes the sequence anyway.
    if (!batch_backend && config_.analysis_pruning) {
      pruned = rebuild_pruned(graph);
    }
    const std::int64_t total = sketch_.candidate_space_size();
    if (batch_backend) {
      // Fixed-range shards: geometry is a pure function of the candidate
      // space (shard_span), never of the thread count, so the shard list —
      // and the per-shard snapshot state derived from it — is identical
      // whether the scan runs serially or across a pool. Shards share no
      // mutable state: each appends to its own column buffers, joined here
      // in shard order.
      const std::int64_t span_len = shard_span(total);
      const auto n_shards =
          static_cast<std::size_t>((total + span_len - 1) / span_len);
      // Distribution seam: a configured backend gets first crack at the
      // fixed-range shards (full rebuilds only — they are pure functions of
      // sketch + graph + range). Viability callbacks cannot cross the wire,
      // so their presence pins the scan local. Any backend failure falls
      // through to the local scan below; a remote sync can change where the
      // work runs but never whether it completes.
      if (config_.shard_backend != nullptr && !viability_.concrete) {
        distributed = rebuild_remote(graph, n_shards, span_len, total);
      }
      if (distributed) {
        shards = n_shards;
        last_sync_shards_ = n_shards;
        last_sync_threads_ = 1;
      } else {
        std::vector<Columns> parts(n_shards);
        std::vector<BatchCounters> tallies(n_shards);
        if (obs::active(obs_)) shard_secs.assign(n_shards, 0);
        const auto run_shard = [&](std::size_t k) {
          const std::int64_t a = static_cast<std::int64_t>(k) * span_len;
          const std::int64_t b = std::min<std::int64_t>(total, a + span_len);
          if (shard_secs.empty()) {
            enumerate_range_batch(a, b, graph, parts[k], tallies[k]);
          } else {
            util::Stopwatch shard_watch;
            enumerate_range_batch(a, b, graph, parts[k], tallies[k]);
            shard_secs[k] = shard_watch.elapsed_seconds();
          }
        };
        if (pool == nullptr || n_shards <= 1 ||
            total < kMinParallelCandidates) {
          last_sync_threads_ = 1;
          for (std::size_t k = 0; k < n_shards; ++k) run_shard(k);
        } else {
          last_sync_threads_ = pool->size();
          pool->parallel_for(0, n_shards, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k) run_shard(k);
          });
        }
        shards = n_shards;
        last_sync_shards_ = n_shards;
        join_parts(parts);
        for (const BatchCounters& t : tallies) {
          batch_tally.lane_evals += t.lane_evals;
          batch_tally.groups += t.groups;
        }
      }
    } else if (pruned) {
      // rebuild_pruned already produced the full survivor sequence (and
      // recorded the threads/shards it used).
    } else if (pool == nullptr || total < kMinParallelCandidates) {
      last_sync_threads_ = 1;
      last_sync_shards_ = 1;
      enumerate_range(0, total, graph, survivors_);
    } else {
      // Shard the linear candidate range; joining the per-chunk results in
      // chunk order means parallelism never changes the version space.
      const auto n_chunks = static_cast<std::size_t>(std::min<std::int64_t>(
          total, static_cast<std::int64_t>(pool->size() * 8)));
      const std::int64_t chunk =
          (total + static_cast<std::int64_t>(n_chunks) - 1) /
          static_cast<std::int64_t>(n_chunks);
      std::vector<Columns> parts(n_chunks);
      shards = n_chunks;
      last_sync_threads_ = pool->size();
      last_sync_shards_ = n_chunks;
      // Per-shard wall times, written into disjoint slots by the workers;
      // only measured when someone is listening.
      if (obs::active(obs_)) shard_secs.assign(n_chunks, 0);
      pool->parallel_for(0, n_chunks, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          const std::int64_t a = static_cast<std::int64_t>(k) * chunk;
          const std::int64_t b = std::min<std::int64_t>(total, a + chunk);
          if (a >= b) continue;
          if (shard_secs.empty()) {
            enumerate_range(a, b, graph, parts[k]);
          } else {
            util::Stopwatch shard_watch;
            enumerate_range(a, b, graph, parts[k]);
            shard_secs[k] = shard_watch.elapsed_seconds();
          }
        }
      });
      join_parts(parts);
    }
    initialized_ = true;
  } else {
    // Incremental filter: only the new edges/ties are checked, then both
    // columns are compacted in place.
    std::vector<std::int64_t>& linears = survivors_.linears;
    std::vector<double>& values = survivors_.values;
    const std::size_t n_survivors = linears.size();
    std::vector<char> keep(n_survivors, 1);
    // Work estimate: each survivor re-checks only the new edges/ties. Late-
    // loop syncs see a handful of survivors x one new edge — dispatching
    // pool chunks for that costs more than the filter itself (the
    // BENCH_eval "parallel" full-sync regression), so small workloads run
    // on the caller.
    const std::size_t filter_work =
        n_survivors * (graph.edges().size() - edges_seen_ +
                       graph.ties().size() - ties_seen_ + 1);
    constexpr std::size_t kMinParallelFilterWork = 8192;
    if (batch_backend) {
      // The linear column is ascending, so each fixed-range shard owns a
      // contiguous position range: find the boundaries by shard id
      // (linear / span). Shards write only their own keep slots — no shared
      // mutable state until the compaction below.
      const std::int64_t span_len = shard_span(sketch_.candidate_space_size());
      std::vector<std::size_t> bounds{0};
      for (std::size_t i = 1; i < n_survivors; ++i) {
        if (linears[i] / span_len != linears[i - 1] / span_len) {
          bounds.push_back(i);
        }
      }
      bounds.push_back(n_survivors);
      const std::size_t n_ranges = bounds.size() - 1;
      std::vector<BatchCounters> tallies(n_ranges);
      if (obs::active(obs_)) shard_secs.assign(n_ranges, 0);
      const auto run_range = [&](std::size_t k) {
        if (shard_secs.empty()) {
          filter_range_batch(bounds[k], bounds[k + 1], graph, keep,
                             tallies[k]);
        } else {
          util::Stopwatch shard_watch;
          filter_range_batch(bounds[k], bounds[k + 1], graph, keep,
                             tallies[k]);
          shard_secs[k] = shard_watch.elapsed_seconds();
        }
      };
      if (pool == nullptr || n_ranges <= 1 ||
          filter_work < kMinParallelFilterWork) {
        last_sync_threads_ = 1;
        for (std::size_t k = 0; k < n_ranges; ++k) run_range(k);
      } else {
        last_sync_threads_ = pool->size();
        pool->parallel_for(0, n_ranges, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) run_range(k);
        });
      }
      shards = n_ranges;
      last_sync_shards_ = n_ranges;
      for (const BatchCounters& t : tallies) {
        batch_tally.lane_evals += t.lane_evals;
        batch_tally.groups += t.groups;
      }
    } else {
      auto filter = [&](std::size_t lo, std::size_t hi) {
        VertexValues vertices;
        for (std::size_t i = lo; i < hi; ++i) {
          keep[i] = consistent(survivor_row(i), graph, edges_seen_,
                               ties_seen_, vertices)
                        ? 1
                        : 0;
        }
      };
      if (pool == nullptr || filter_work < kMinParallelFilterWork) {
        last_sync_threads_ = 1;
        last_sync_shards_ = 1;
        filter(0, n_survivors);
      } else {
        last_sync_threads_ = pool->size();
        last_sync_shards_ = (n_survivors + 15) / 16;
        pool->parallel_for(0, n_survivors, filter, /*min_chunk=*/16);
      }
    }
    const std::size_t n_holes = sketch_.holes().size();
    std::size_t out = 0;
    for (std::size_t i = 0; i < n_survivors; ++i) {
      if (!keep[i]) continue;
      if (out != i) {
        linears[out] = linears[i];
        const auto row = [&](std::size_t k) {
          return values.begin() + static_cast<std::ptrdiff_t>(k * n_holes);
        };
        std::copy_n(row(i), n_holes, row(out));
      }
      ++out;
    }
    linears.resize(out);
    values.resize(out * n_holes);
  }
  edges_seen_ = graph.edges().size();
  ties_seen_ = graph.ties().size();
  util::log(util::LogLevel::kDebug, "GridFinder: version space size ",
            version_space_size());

  if (obs::active(obs_)) {
    obs_->count("grid.syncs");
    obs_->gauge("grid.survivors", static_cast<double>(version_space_size()));
    if (batch_backend) {
      obs_->count("grid.lane_evals", batch_tally.lane_evals);
      obs_->count("grid.batch_groups", batch_tally.groups);
    }
    double shard_min = 0, shard_max = 0;
    for (std::size_t k = 0; k < shard_secs.size(); ++k) {
      obs_->observe("grid.shard.seconds", shard_secs[k]);
      shard_min = k == 0 ? shard_secs[k] : std::min(shard_min, shard_secs[k]);
      shard_max = std::max(shard_max, shard_secs[k]);
    }
    if (obs::TraceEvent* e = span.event()) {
      e->str("mode", rebuild ? "full" : "incremental")
          .integer("pruned", pruned ? 1 : 0)
          .integer("survivors", static_cast<long long>(version_space_size()))
          .integer("survivors_before",
                   static_cast<long long>(survivors_before))
          .integer("new_edges", new_edges)
          .integer("new_ties", new_ties)
          .integer("shards", static_cast<long long>(shards))
          .integer("threads", static_cast<long long>(last_sync_threads_));
      if (batch_backend) {
        // Which lane kernel the dispatcher ran (schema rev 1.5): the ISA is
        // selected once at startup, so benches and bug reports can tell the
        // SIMD and scalar paths apart from the trace alone. "distributed"
        // (schema rev 1.6) marks a full rebuild satisfied by the configured
        // ShardSyncBackend instead of the local scan.
        e->str("lane_isa", sketch::lane_isa_name(sketch::active_lane_isa()))
            .integer("lane_width",
                     static_cast<long long>(sketch::kBatchLaneWidth))
            .integer("distributed", distributed ? 1 : 0);
      }
      if (!shard_secs.empty()) {
        e->num("shard_min_s", shard_min).num("shard_max_s", shard_max);
      }
    }
  }
}

void GridFinder::append_boundary_values(std::span<const double> hole_values,
                                        std::size_t metric,
                                        std::vector<double>& out) const {
  const sketch::MetricSpec& m = sketch_.metrics()[metric];
  const double nudge = (m.hi - m.lo) * 1e-3;
  for (const double v : hole_values) {
    if (v > m.lo && v < m.hi) {
      out.push_back(v);
      out.push_back(std::min(m.hi, v + nudge));
      out.push_back(std::max(m.lo, v - nudge));
    }
  }
}

namespace {

pref::Scenario scenario_of(std::span<const double> metrics) {
  pref::Scenario s;
  s.metrics.assign(metrics.begin(), metrics.end());
  return s;
}

}  // namespace

std::optional<DistinguishingPair> GridFinder::distinguish(
    std::span<const double> a, std::span<const double> b) {
  const double margin = config_.base.distinguish_margin;
  const std::size_t n_metrics = sketch_.metrics().size();
  PairScratch& scratch = pair_scratch_;

  // Boundary candidates per metric: hole values of either candidate (where
  // piecewise objectives flip regions), nudged to both sides, plus range
  // endpoints and midpoints.
  std::vector<std::vector<double>>& boundaries = scratch.boundaries;
  boundaries.resize(n_metrics);
  std::size_t cross_size = 1;
  for (std::size_t m = 0; m < n_metrics; ++m) {
    const sketch::MetricSpec& spec = sketch_.metrics()[m];
    std::vector<double>& probes = boundaries[m];
    probes.assign({spec.lo, spec.hi});
    append_boundary_values(a, m, probes);
    probes.push_back(spec.lo);
    probes.push_back(spec.hi);
    append_boundary_values(b, m, probes);
    probes.push_back((spec.lo + spec.hi) / 2);
    std::sort(probes.begin(), probes.end());
    // Dedupe with a tolerance relative to the metric range: boundary values
    // from the two candidates often differ only by rounding, and keeping
    // both would inflate cross_size past the deterministic-pass cutoff.
    // The tolerance is far below the 1e-3 nudge, so intentionally nudged
    // points are never merged.
    const double tol = (spec.hi - spec.lo) * 1e-6;
    std::size_t kept = 0;
    for (const double v : probes) {
      if (kept == 0 || v - probes[kept - 1] > tol) probes[kept++] = v;
    }
    probes.resize(kept);
    cross_size *= probes.size();
  }

  // Deterministic pass: for objectives that are piecewise products of the
  // metrics (the SWAN family), any ranking disagreement is witnessed at the
  // cross product of boundary values. Enumerate it when small enough.
  if (cross_size <= 1024) {
    std::vector<double>& points = scratch.points;
    points.clear();
    std::vector<std::size_t>& idx = scratch.cursor;
    idx.assign(n_metrics, 0);
    for (;;) {
      const std::size_t row = points.size();
      for (std::size_t m = 0; m < n_metrics; ++m) {
        points.push_back(boundaries[m][idx[m]]);
      }
      if (!domain_contains(sketch_, domain_,
                           std::span<const double>(points).subspan(row))) {
        points.resize(row);
      }
      std::size_t pos = 0;
      while (pos < n_metrics && ++idx[pos] == boundaries[pos].size()) {
        idx[pos++] = 0;
      }
      if (pos == n_metrics) break;
    }
    const std::size_t n_points = points.size() / n_metrics;
    const auto point = [&](std::size_t i) {
      return std::span<const double>(points).subspan(i * n_metrics, n_metrics);
    };
    // Cache both candidates' values so each pair test is two comparisons.
    scratch.fa.resize(n_points);
    scratch.fb.resize(n_points);
    objective_batch(a, points, scratch.fa);
    objective_batch(b, points, scratch.fb);
    const std::vector<double>& fa = scratch.fa;
    const std::vector<double>& fb = scratch.fb;
    // Randomize the scan order so repeated calls surface different pairs
    // (the synthesizer wants fresh scenarios each iteration).
    std::vector<std::size_t>& order = scratch.order;
    order.resize(n_points);
    for (std::size_t i = 0; i < n_points; ++i) order[i] = i;
    rng_.shuffle(order);
    for (const std::size_t i : order) {
      for (const std::size_t j : order) {
        if (i == j) continue;  // a scenario can never distinguish from itself
        if (fa[i] >= fa[j] + margin && fb[j] >= fb[i] + margin) {
          return DistinguishingPair{scenario_of(point(i)),
                                    scenario_of(point(j))};
        }
      }
    }
  }

  // Randomized fallback for sketch families whose disagreements are not
  // boundary-witnessed (or whose boundary cross product is too large).
  const auto sample_scenario = [&](std::vector<double>& s) {
    s.clear();
    for (std::size_t m = 0; m < n_metrics; ++m) {
      const sketch::MetricSpec& spec = sketch_.metrics()[m];
      if (rng_.bernoulli(0.5)) {
        s.push_back(rng_.uniform_real(spec.lo, spec.hi));
      } else {
        s.push_back(boundaries[m][rng_.index(boundaries[m].size())]);
      }
    }
  };
  std::vector<double>& s1 = scratch.sample1;
  std::vector<double>& s2 = scratch.sample2;
  for (int i = 0; i < config_.scenario_samples; ++i) {
    sample_scenario(s1);
    sample_scenario(s2);
    if (domain_.constraint != nullptr &&
        (!domain_contains(sketch_, domain_, s1) ||
         !domain_contains(sketch_, domain_, s2))) {
      continue;
    }
    const double fa1 = objective(a, s1);
    const double fa2 = objective(a, s2);
    const double fb1 = objective(b, s1);
    const double fb2 = objective(b, s2);
    if (fa1 >= fa2 + margin && fb2 >= fb1 + margin) {
      return DistinguishingPair{scenario_of(s1), scenario_of(s2)};
    }
    if (fa2 >= fa1 + margin && fb1 >= fb2 + margin) {
      return DistinguishingPair{scenario_of(s2), scenario_of(s1)};
    }
  }
  return std::nullopt;
}

FinderResult GridFinder::find_distinguishing(const pref::PreferenceGraph& graph,
                                             int num_pairs) {
  if (num_pairs < 1) throw std::invalid_argument("find_distinguishing: num_pairs < 1");
  if (cancelled()) {
    // Cancelled before any work: skip even the sync (the next uncancelled
    // call will bring the version space in line).
    FinderResult res;
    res.status = FinderStatus::kUnknown;
    return res;
  }
  sync(graph);

  // The span covers the candidate-pair search proper (sync has its own
  // "grid_sync" event above); `note` stamps the outcome just before return.
  obs::Span span(obs_, "pair_search");
  const std::size_t n_survivors = version_space_size();
  auto note = [&](const char* status, std::size_t examined,
                  std::size_t witnesses, std::size_t pairs) {
    if (obs_ != nullptr) obs_->count("grid.pair_searches");
    if (obs::TraceEvent* e = span.event()) {
      e->str("status", status)
          .integer("survivors", static_cast<long long>(n_survivors))
          .integer("examined", static_cast<long long>(examined))
          .integer("witnesses", static_cast<long long>(witnesses))
          .integer("pairs", static_cast<long long>(pairs))
          .str("strategy", config_.strategy == QueryStrategy::kBisection
                               ? "bisection"
                               : "first_found");
    }
  };

  if (n_survivors == 0) {
    note("no_candidate", 0, 0, 0);
    FinderResult res;
    res.status = FinderStatus::kNoCandidate;
    return res;
  }
  if (n_survivors == 1) {
    note("unique_ranking", 0, 0, 0);
    FinderResult res;
    res.status = FinderStatus::kUniqueRanking;
    res.candidate_a = survivor_assignment(0);
    return res;
  }

  // Candidate pair schedule: exhaustive for small version spaces (so the
  // "unique ranking" verdict is as strong as possible), random otherwise.
  std::vector<std::pair<std::size_t, std::size_t>> schedule;
  if (n_survivors <= 48) {
    for (std::size_t i = 0; i < n_survivors; ++i) {
      for (std::size_t j = i + 1; j < n_survivors; ++j) {
        schedule.emplace_back(i, j);
      }
    }
    rng_.shuffle(schedule);
  } else {
    for (int attempt = 0; attempt < config_.candidate_pair_budget; ++attempt) {
      const std::size_t ia = rng_.index(n_survivors);
      std::size_t ib = rng_.index(n_survivors - 1);
      if (ib >= ia) ++ib;
      schedule.emplace_back(ia, ib);
    }
  }

  // Collect disagreement witnesses. Under kFirstFound the first one wins
  // (mirroring an SMT solver's arbitrary model); under kBisection several
  // are scored by how evenly the user's answer would split the version
  // space, and the most informative one is asked.
  struct Witness {
    std::size_t ia = 0, ib = 0;
    DistinguishingPair pair;
  };
  std::vector<Witness> witnesses;
  const int wanted =
      config_.strategy == QueryStrategy::kBisection ? config_.bisection_samples : 1;

  std::size_t examined = 0;
  for (const auto& [ia, ib] : schedule) {
    if (static_cast<int>(witnesses.size()) >= wanted) break;
    if (cancelled()) {
      // Portfolio racing: the other leg already answered. kUnknown tells
      // the portfolio this leg has no verdict to contribute.
      note("cancelled", examined, witnesses.size(), 0);
      FinderResult res;
      res.status = FinderStatus::kUnknown;
      return res;
    }
    ++examined;
    if (auto pair = distinguish(survivor_row(ia), survivor_row(ib))) {
      witnesses.push_back(Witness{ia, ib, *std::move(pair)});
    }
  }

  if (witnesses.empty()) {
    // No disagreement among the survivors: report (approximate) ranking
    // uniqueness with an arbitrary representative.
    note("unique_ranking", schedule.size(), 0, 0);
    FinderResult res;
    res.status = FinderStatus::kUniqueRanking;
    res.candidate_a = survivor_assignment(0);
    return res;
  }

  std::size_t chosen = 0;
  if (witnesses.size() > 1) {
    // Guaranteed elimination of an answer = survivors inconsistent with it;
    // the worst case over the two strict answers is the witness's value.
    // Every survivor's hole values are already materialized, and the chunked
    // counts are plain integer sums, so sharding keeps the score exact.
    util::ThreadPool* pool = this->pool();
    long best_score = -1;
    for (std::size_t w = 0; w < witnesses.size(); ++w) {
      const auto& p = witnesses[w].pair;
      std::atomic<long> prefer_1{0}, prefer_2{0};
      auto score = [&](std::size_t lo, std::size_t hi) {
        long local_1 = 0, local_2 = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::span<const double> cand = survivor_row(i);
          const double f1 = objective(cand, p.preferred_by_a.metrics);
          const double f2 = objective(cand, p.preferred_by_b.metrics);
          if (f1 > f2) ++local_1;
          else if (f2 > f1) ++local_2;
        }
        prefer_1 += local_1;
        prefer_2 += local_2;
      };
      if (pool == nullptr) {
        score(0, n_survivors);
      } else {
        pool->parallel_for(0, n_survivors, score, /*min_chunk=*/64);
      }
      const long score_w = std::min(prefer_1.load(), prefer_2.load());
      if (score_w > best_score) {
        best_score = score_w;
        chosen = w;
      }
    }
  }

  FinderResult res;
  res.status = FinderStatus::kFound;
  const std::size_t chosen_a = witnesses[chosen].ia;
  const std::size_t chosen_b = witnesses[chosen].ib;
  res.candidate_a = survivor_assignment(chosen_a);
  res.candidate_b = survivor_assignment(chosen_b);
  res.pairs.push_back(std::move(witnesses[chosen].pair));

  // Additional pairs (Fig. 4 protocol) come from the same candidate pair.
  for (int tries = 0;
       static_cast<int>(res.pairs.size()) < num_pairs && tries < 4 * num_pairs;
       ++tries) {
    const auto pair =
        distinguish(survivor_row(chosen_a), survivor_row(chosen_b));
    if (!pair) break;
    const bool duplicate = std::any_of(
        res.pairs.begin(), res.pairs.end(), [&](const DistinguishingPair& p) {
          return p.preferred_by_a == pair->preferred_by_a &&
                 p.preferred_by_b == pair->preferred_by_b;
        });
    if (!duplicate) res.pairs.push_back(*pair);
  }
  note("found", schedule.size(), witnesses.size(), res.pairs.size());
  return res;
}

std::optional<sketch::HoleAssignment> GridFinder::find_consistent(
    const pref::PreferenceGraph& graph) {
  sync(graph);
  if (version_space_size() == 0) return std::nullopt;
  return survivor_assignment(0);
}

namespace {

constexpr char kGridStateTag[] = "gridfinder";

// Decodes a survivor bitmap over candidates [lo, lo + len): bit j%8 of byte
// j/8 marks candidate lo + j, each byte two lowercase hex digits, high
// nibble first. Appends the marked candidates in ascending order. One hex
// digit carries bits j..j+3 for j%4 == 0, so the scan goes a digit at a
// time; only digits that hold a bit below `len` are read. Returns false on a
// digit that is not lowercase hex.
bool decode_bitmap(const std::string& hex, std::int64_t lo, std::int64_t len,
                   std::vector<std::int64_t>& out) {
  for (std::int64_t j = 0; j < len; j += 4) {
    const char c =
        hex[static_cast<std::size_t>(j / 8) * 2 + (j % 8 == 0 ? 1 : 0)];
    int nib = 0;
    if (c >= '0' && c <= '9') {
      nib = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      nib = c - 'a' + 10;
    } else {
      return false;
    }
    const std::int64_t bits = std::min<std::int64_t>(4, len - j);
    for (std::int64_t b = 0; b < bits && nib != 0; ++b, nib >>= 1) {
      if (nib & 1) out.push_back(lo + j + b);
    }
  }
  return true;
}
// v2 stores the survivor set as one bitmap per fixed-range shard
// (self-describing [lo, hi) ranges); v1 single-bitmap blobs still restore.
constexpr int kGridStateVersion = 2;

[[noreturn]] void bad_grid_state(const char* why) {
  throw std::invalid_argument(std::string("GridFinder::restore_state: ") + why);
}

}  // namespace

std::string GridFinder::save_state() const {
  const std::int64_t total = sketch_.candidate_space_size();
  const std::int64_t span_len = shard_span(total);
  const auto n_shards =
      static_cast<std::size_t>((total + span_len - 1) / span_len);
  std::ostringstream os;
  os << kGridStateTag << ' ' << kGridStateVersion << '\n'
     << "rng " << rng_.save_state() << '\n'
     << "seen " << (initialized_ ? 1 : 0) << ' ' << edges_seen_ << ' '
     << ties_seen_ << '\n'
     << "shards " << n_shards << ' ' << span_len << ' ' << total << ' '
     << version_space_size() << '\n';
  // The linear column is ascending, so each shard's survivors are the next
  // run of it below the shard's upper bound; each run is rendered through
  // the shared record encoder (encode_shard_blob — the same lines the dist
  // workers produce).
  const std::vector<std::int64_t>& linears = survivors_.linears;
  std::vector<std::int64_t> run;
  auto next = linears.begin();
  for (std::size_t k = 0; k < n_shards; ++k) {
    const std::int64_t lo = static_cast<std::int64_t>(k) * span_len;
    const std::int64_t hi = std::min<std::int64_t>(total, lo + span_len);
    const auto end = std::lower_bound(next, linears.end(), hi);
    run.assign(next, end);
    next = end;
    os << encode_shard_blob(k, lo, hi, run) << '\n';
  }
  return os.str();
}

std::string GridFinder::encode_shard_blob(
    std::size_t index, std::int64_t lo, std::int64_t hi,
    const std::vector<std::int64_t>& linears) {
  // Bit j%8 of byte j/8 marks candidate lo + j; lowercase hex, two digits
  // per byte (low nibble first on the wire via the j%8<4 digit order the
  // decoder uses — identical to the v1/v2 save-state rendering).
  std::string bitmap(static_cast<std::size_t>((hi - lo + 7) / 8), '\0');
  for (const std::int64_t linear : linears) {
    const std::int64_t j = linear - lo;
    bitmap[static_cast<std::size_t>(j / 8)] |=
        static_cast<char>(1 << (j % 8));
  }
  std::ostringstream os;
  os << "shard " << index << ' ' << lo << ' ' << hi << ' ' << linears.size()
     << ' ';
  std::string record = os.str();
  record.reserve(record.size() + 2 * bitmap.size());
  static constexpr char kHex[] = "0123456789abcdef";
  for (const char byte : bitmap) {
    const auto u = static_cast<unsigned char>(byte);
    record += kHex[u >> 4];
    record += kHex[u & 0xf];
  }
  return record;
}

GridFinder::ParsedShardBlob GridFinder::parse_shard_blob(
    const std::string& record) {
  std::vector<std::int64_t> linears;
  ParsedShardBlob blob = decode_shard_blob(record, linears);
  blob.linears = std::move(linears);
  return blob;
}

GridFinder::ParsedShardBlob GridFinder::decode_shard_blob(
    const std::string& record, std::vector<std::int64_t>& linears) {
  const auto bad = [](const char* why) {
    throw std::invalid_argument(std::string("shard record: ") + why);
  };
  std::istringstream in(record);
  std::string tag, hex;
  ParsedShardBlob blob;
  std::size_t count = 0;
  if (!(in >> tag) || tag != "shard") bad("missing 'shard' tag");
  if (!(in >> blob.index >> blob.lo >> blob.hi >> count)) {
    bad("truncated header fields");
  }
  if (blob.lo < 0 || blob.hi <= blob.lo) bad("empty or inverted range");
  if (!(in >> hex)) bad("truncated before bitmap");
  std::string trailing;
  if (in >> trailing) bad("trailing garbage after bitmap");
  const std::size_t bytes =
      static_cast<std::size_t>((blob.hi - blob.lo + 7) / 8);
  if (hex.size() != 2 * bytes) {
    bad(hex.size() < 2 * bytes ? "bitmap truncated mid-record"
                               : "bitmap longer than the shard range");
  }
  const std::size_t first = linears.size();
  if (!decode_bitmap(hex, blob.lo, blob.hi - blob.lo, linears)) {
    bad("bitmap is not lowercase hex");
  }
  if (linears.size() - first != count) {
    bad("survivor count disagrees with the bitmap");
  }
  return blob;
}

std::vector<ShardRange> GridFinder::shard_ranges() const {
  const std::int64_t total = sketch_.candidate_space_size();
  const std::int64_t span_len = shard_span(total);
  const auto n_shards =
      static_cast<std::size_t>((total + span_len - 1) / span_len);
  std::vector<ShardRange> ranges(n_shards);
  for (std::size_t k = 0; k < n_shards; ++k) {
    ranges[k].index = k;
    ranges[k].lo = static_cast<std::int64_t>(k) * span_len;
    ranges[k].hi = std::min<std::int64_t>(total, ranges[k].lo + span_len);
  }
  return ranges;
}

std::string GridFinder::sync_shard_blob(const pref::PreferenceGraph& graph,
                                        std::size_t index, std::int64_t lo,
                                        std::int64_t hi) const {
  if (lo < 0 || hi <= lo || hi > sketch_.candidate_space_size()) {
    throw std::invalid_argument("sync_shard_blob: range outside the grid");
  }
  Columns found;
  BatchCounters tally;
  enumerate_range_batch(lo, hi, graph, found, tally);
  return encode_shard_blob(index, lo, hi, found.linears);
}

bool GridFinder::rebuild_remote(const pref::PreferenceGraph& graph,
                                std::size_t n_shards, std::int64_t span_len,
                                std::int64_t total) {
  std::vector<ShardRange> ranges(n_shards);
  for (std::size_t k = 0; k < n_shards; ++k) {
    ranges[k].index = k;
    ranges[k].lo = static_cast<std::int64_t>(k) * span_len;
    ranges[k].hi = std::min<std::int64_t>(total, ranges[k].lo + span_len);
  }
  std::optional<std::vector<std::string>> records;
  try {
    records = config_.shard_backend->sync_shards(graph, ranges);
  } catch (const std::exception& ex) {
    util::log(util::LogLevel::kWarn,
              "GridFinder: remote sync failed, falling back to local scan: ",
              ex.what());
    return false;
  }
  if (!records || records->size() != n_shards) return false;
  // Decode every record before touching the columns: a torn record must
  // leave survivors_ empty for the local fallback, never half-merged.
  std::vector<std::int64_t> linears;
  try {
    for (std::size_t k = 0; k < n_shards; ++k) {
      const ParsedShardBlob blob = decode_shard_blob((*records)[k], linears);
      if (blob.index != ranges[k].index || blob.lo != ranges[k].lo ||
          blob.hi != ranges[k].hi) {
        throw std::invalid_argument("shard record: range mismatch");
      }
    }
  } catch (const std::exception& ex) {
    util::log(util::LogLevel::kWarn,
              "GridFinder: rejecting remote shard record (", ex.what(),
              "); falling back to local scan");
    return false;
  }
  assign_survivors(std::move(linears));
  return true;
}

void GridFinder::restore_state(const std::string& state) {
  std::istringstream in(state);
  std::string tag;
  int version = 0;
  if (!(in >> tag >> version) || tag != kGridStateTag) {
    bad_grid_state("malformed header");
  }
  if (version != 1 && version != kGridStateVersion) {
    bad_grid_state("unsupported version");
  }

  std::string rng_line;
  if (!(in >> tag) || tag != "rng") bad_grid_state("missing rng section");
  in.ignore();  // the space after "rng"
  if (!std::getline(in, rng_line)) bad_grid_state("truncated rng section");

  int initialized = 0;
  std::size_t edges_seen = 0, ties_seen = 0;
  if (!(in >> tag >> initialized >> edges_seen >> ties_seen) || tag != "seen") {
    bad_grid_state("malformed seen section");
  }

  // Decode into a fresh linear column first so a throw leaves `this`
  // untouched; the hole values are re-materialized from the grid at the end.
  std::vector<std::int64_t> restored;

  std::size_t survivor_count = 0;
  if (version == 1) {
    // v1: one bitmap over the whole candidate space.
    std::int64_t total = 0;
    if (!(in >> tag >> survivor_count >> total) || tag != "survivors") {
      bad_grid_state("malformed survivors section");
    }
    if (total != sketch_.candidate_space_size()) {
      bad_grid_state(
          "candidate space size mismatch (different sketch/config?)");
    }
    std::string hex;
    if (!(in >> hex)) bad_grid_state("truncated bitmap");
    const std::size_t bytes = static_cast<std::size_t>((total + 7) / 8);
    if (hex.size() != 2 * bytes) bad_grid_state("bitmap length mismatch");
    restored.reserve(std::min<std::size_t>(survivor_count,
                                           static_cast<std::size_t>(total)));
    if (!decode_bitmap(hex, 0, total, restored)) {
      bad_grid_state("bitmap is not lowercase hex");
    }
  } else {
    // v2: one bitmap per shard. The `shard` lines are self-describing
    // [lo, hi) ranges required to tile [0, total) contiguously in order, so
    // restore accepts any shard geometry — a future span-formula change or
    // a multi-worker split (one shard per worker) needs no format change.
    std::size_t n_shards = 0;
    std::int64_t span_len = 0, total = 0;
    if (!(in >> tag >> n_shards >> span_len >> total >> survivor_count) ||
        tag != "shards") {
      bad_grid_state("malformed shards section");
    }
    if (total != sketch_.candidate_space_size()) {
      bad_grid_state(
          "candidate space size mismatch (different sketch/config?)");
    }
    restored.reserve(std::min<std::size_t>(survivor_count,
                                           static_cast<std::size_t>(total)));
    std::int64_t next_lo = 0;
    for (std::size_t k = 0; k < n_shards; ++k) {
      // Each shard record is one line; decode_shard_blob is the single
      // validator for its structure (shared with the dist merge path), so a
      // blob torn mid-bitmap is rejected with the same specific error here
      // and there. It appends the shard's survivors straight to `restored`.
      std::string line;
      do {
        if (!std::getline(in, line)) bad_grid_state("missing shard line");
        while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
          line.pop_back();
        }
      } while (line.empty());
      ParsedShardBlob blob;
      try {
        blob = decode_shard_blob(line, restored);
      } catch (const std::invalid_argument& ex) {
        bad_grid_state(ex.what());
      }
      if (blob.index != k) bad_grid_state("shard lines out of order");
      if (blob.lo != next_lo || blob.hi > total) {
        bad_grid_state("shards do not tile the candidate space");
      }
      next_lo = blob.hi;
    }
    if (next_lo != total) {
      bad_grid_state("shards do not tile the candidate space");
    }
  }
  if (restored.size() != survivor_count) {
    bad_grid_state("survivor count disagrees with bitmap");
  }

  util::Rng rng(config_.seed);
  rng.restore_state(rng_line);  // throws before any member is mutated

  rng_ = std::move(rng);
  assign_survivors(std::move(restored));
  initialized_ = initialized != 0;
  edges_seen_ = edges_seen;
  ties_seen_ = ties_seen;
}

}  // namespace compsynth::solver
