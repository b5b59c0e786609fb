#include "bench.h"

#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "sketch/parser.h"
#include "sketch/printer.h"
#include "solver/equivalence.h"
#include "util/rng.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s(const rusage& ru) {
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return cpu_s(ru);
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::mean() const {
  return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
}

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  return n % 2 == 1 ? sorted[n / 2] : (sorted[n / 2 - 1] + sorted[n / 2]) / 2;
}

std::optional<double> Samples::pct(double q) const {
  const std::size_t n = values_.size();
  if (n == 0) return std::nullopt;
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::vector<double> sorted = values_;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<long>(rank - 1),
                   sorted.end());
  return sorted[rank - 1];
}

int Spans::open(const char* name, int parent) {
  if (!on_) return -1;
  recs_.push_back({name, now_s(), 0, parent});
  return static_cast<int>(recs_.size()) - 1;
}

void Spans::close(int id) {
  if (id >= 0) recs_[static_cast<std::size_t>(id)].end = now_s();
}


SpanSummary summarize(const std::vector<Spans::Rec>& recs) {
  std::vector<std::vector<std::pair<double, double>>> kids(recs.size());
  for (const Spans::Rec& r : recs) {
    if (r.parent >= 0) {
      kids[static_cast<std::size_t>(r.parent)].emplace_back(r.start, r.end);
    }
  }
  SpanSummary out;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Spans::Rec& r = recs[i];
    std::vector<std::pair<double, double>>& k = kids[i];
    std::sort(k.begin(), k.end());
    double covered = 0;
    double reach = r.start;
    for (auto [lo, hi] : k) {
      lo = std::max(lo, reach);
      hi = std::min(hi, r.end);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    const double dur = r.end - r.start;
    out.self_s[r.name] += dur - covered;
    if (r.parent < 0) {
      out.root_s += dur;
      out.root_covered_s += covered;
      ++out.roots;
      if (covered < 0.9 * dur) ++out.roots_under_90;
    }
  }
  return out;
}

void Result::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void Result::set_pct(const std::string& name, const Samples& s, double q,
                     const std::string& unit) {
  detail[name + ".n"] = static_cast<double>(s.size());
  if (const std::optional<double> v = s.pct(q)) set(name, *v, unit);
}

void report_spans(const SpanSummary& sum, Result& out) {
  const double roots = static_cast<double>(std::max<long>(1, sum.roots));
  for (const char* name :
       {"session", "finder.build", "finder.sync", "finder.search",
        "finder.consistent", "oracle.compare", "oracle.rank", "turnaround",
        "first_pair", "rpc.create", "rpc.answer", "rpc.next"}) {
    out.set(std::string("self_s.") + name, sum.self(name) / roots, "s");
  }
  out.set("trace.root_coverage",
          sum.root_s > 0 ? sum.root_covered_s / sum.root_s : 0, "fraction");
  out.set("trace.roots_under_90",
          static_cast<double>(sum.roots_under_90) / roots, "fraction");
}

int usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

sketch::Sketch load_sketch(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read sketch " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return compsynth::sketch::parse_sketch(text.str());
}

bool Equivalence::equivalent(const sketch::HoleAssignment& a,
                             const sketch::HoleAssignment& b) {
  if (a == b) return true;
  const auto key = std::make_pair(a.index, b.index);
  const auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  const bool eq = compsynth::solver::ranking_equivalent(sk_, a, b);
  cache_.emplace(key, eq);
  return eq;
}

std::optional<sketch::HoleAssignment> Equivalence::parse_objective(
    const std::string& text) {
  if (printed_.empty()) {
    const std::int64_t total = sk_.candidate_space_size();
    sketch::HoleAssignment a;
    a.index.assign(sk_.holes().size(), 0);
    for (std::int64_t linear = 0; linear < total; ++linear) {
      std::int64_t rest = linear;
      for (std::size_t h = 0; h < a.index.size(); ++h) {
        a.index[h] = rest % sk_.holes()[h].count;
        rest /= sk_.holes()[h].count;
      }
      printed_.emplace(compsynth::sketch::print_instantiated(sk_, a), a);
    }
  }
  const auto it = printed_.find(text);
  if (it == printed_.end()) return std::nullopt;
  return it->second;
}

double run_child(const std::vector<std::string>& argv) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const double t0 = now_s();
  pid_t pid = 0;
  if (posix_spawn(&pid, args[0], nullptr, nullptr, args.data(), environ) != 0) {
    throw std::runtime_error("cannot start " + argv[0]);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error(argv[0] + " failed");
  }
  return now_s() - t0;
}

SessionSpec session_spec(const sketch::Sketch& sk, std::uint64_t workload_seed,
                         std::size_t i) {
  compsynth::util::Rng rng(workload_seed * 0x9e3779b97f4a7c15ULL + i);
  SessionSpec spec;
  // Below 2^31: the protocol carries numbers as JSON doubles.
  spec.seed = static_cast<std::uint64_t>(rng.uniform_int(1, (1LL << 31) - 1));
  const bool fig2b = i == 0 && sk.name() == "swan";
  const double fig2b_values[] = {1, 50, 1, 5};  // tp_thrsh, l_thrsh, slope1, slope2
  for (std::size_t h = 0; h < sk.holes().size(); ++h) {
    const sketch::HoleSpec& hole = sk.holes()[h];
    spec.target.index.push_back(fig2b ? hole.nearest_index(fig2b_values[h])
                                      : rng.uniform_int(0, hole.count - 1));
  }
  return spec;
}

}  // namespace perfbench
