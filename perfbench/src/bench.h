// Shared pieces of the perfbench driver: clocks, exact percentiles over raw
// samples, the in-memory span recorder of traced runs, the host fingerprint
// and the result record every workload fills.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sketch/ast.h"

namespace perfbench {

namespace sketch = compsynth::sketch;

/// Monotonic seconds (std::chrono::steady_clock).
double now_s();

/// User plus system seconds of a getrusage record.
double cpu_s(const rusage& ru);

/// Process CPU seconds (user + system) of RUSAGE_SELF or RUSAGE_CHILDREN.
double cpu_s(int who);

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double self_peak_rss_mb();

/// Raw samples; percentiles are exact order statistics over all of them.
class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  std::size_t size() const { return values_.size(); }
  double sum() const;
  double mean() const;
  /// Plain median (no minimum sample count).
  double median() const;
  /// Nearest-rank percentile (q in (0, 1]): the smallest sample with at least
  /// q of all samples at or below it. nullopt when fewer than 10 samples lie
  /// strictly beyond that rank.
  std::optional<double> pct(double q) const;

 private:
  std::vector<double> values_;
};

/// In-memory spans of a traced run: name, start, end and parent index.
class Spans {
 public:
  struct Rec {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  explicit Spans(bool on = false) : on_(on) {}
  bool on() const { return on_; }
  /// Opens a span under `parent` (-1 = root); returns its index, or -1 when
  /// tracing is off.
  int open(const char* name, int parent);
  void close(int id);
  const std::vector<Rec>& recs() const { return recs_; }

 private:
  bool on_;
  std::vector<Rec> recs_;
};

/// Scoped span: opens at construction, closes at destruction.
class Scope {
 public:
  Scope(Spans& spans, const char* name, int parent)
      : spans_(spans), id_(spans.open(name, parent)) {}
  ~Scope() { spans_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// Per-name self time (duration minus the union of child intervals), the
/// share of root spans' time their children cover, and how many roots fall
/// below 90% coverage.
struct SpanSummary {
  std::map<std::string, double> self_s;  // summed over all spans of the name
  double root_s = 0;
  double root_covered_s = 0;
  long roots = 0;
  long roots_under_90 = 0;

  double self(const std::string& name) const {
    const auto it = self_s.find(name);
    return it == self_s.end() ? 0.0 : it->second;
  }
};
SpanSummary summarize(const std::vector<Spans::Rec>& recs);

/// A workload run's result: correctness tallies plus named metrics.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // first few, for stderr
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Extra per-run facts for the detail line (sample counts, sizing).
  std::map<std::string, double> detail;

  void fail(const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Sets `name` to the percentile when it has enough samples beyond it;
  /// records the sample count in detail either way.
  void set_pct(const std::string& name, const Samples& s, double q,
               const std::string& unit);
};

/// Sets self_s.<span> (self seconds per root span) for every span name the
/// workloads record, plus the root spans' child coverage.
void report_spans(const SpanSummary& sum, Result& out);

/// Ranking-equivalence of learned objectives to latent targets
/// (solver::ranking_equivalent, memoized), and the inverse of
/// sketch::print_instantiated for objectives the service reports as text.
class Equivalence {
 public:
  explicit Equivalence(const sketch::Sketch& sk) : sk_(sk) {}
  bool equivalent(const sketch::HoleAssignment& a, const sketch::HoleAssignment& b);
  std::optional<sketch::HoleAssignment> parse_objective(const std::string& text);

 private:
  const sketch::Sketch& sk_;
  std::map<std::pair<std::vector<std::int64_t>, std::vector<std::int64_t>>, bool>
      cache_;
  std::map<std::string, sketch::HoleAssignment> printed_;
};

/// Runs a child process to completion; returns its wall seconds. Throws when
/// it cannot start or exits non-zero.
double run_child(const std::vector<std::string>& argv);

struct Options {
  std::string self_bin;  // this driver, for set-up probes
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_bin;   // compsynth_serve executable
  std::string sketch_dir;  // the benchmark's frozen sketch files
  std::string work_dir;    // scratch space inside the checkout
};

/// Usable cores: the size of this process's sched_getaffinity mask.
int usable_cores();

sketch::Sketch load_sketch(const std::string& path);

/// One simulated architect: the synthesis seed and the latent target.
struct SessionSpec {
  std::uint64_t seed = 1;
  sketch::HoleAssignment target;
};

/// Session i of a workload, a pure function of the workload seed and i. The
/// target is drawn uniformly from the sketch's hole grid, except that session
/// 0 on the SWAN sketch is the paper's Fig. 2b target.
SessionSpec session_spec(const sketch::Sketch& sk, std::uint64_t workload_seed,
                         std::size_t i);

Result run_inprocess(const Options& opt);
Result run_service(const Options& opt);

}  // namespace perfbench
