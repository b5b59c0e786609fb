// Golden query sequence for the SWAN grid loop.
//
// Runs 20 synthesis sessions on the SWAN sketch with the grid back-end at
// its defaults against ground-truth oracles, and renders everything a user
// or a snapshot could observe into one transcript: every distinguishing
// pair's metrics at %.17g, both candidates of every query, an FNV-1a hash of
// the finder's save_state() blob after every finder call, and each
// session's final objective. The transcript must reproduce
// tests/golden/swan_grid_sequence.txt byte for byte, at 1 thread and at 4.
//
// That fixture was recorded before the survivor storage became columnar;
// it pins the invariant that an optimization of the version space never
// changes the query sequence, the saved finder states or the answers.
//
// On a mismatch the test writes the transcript it produced next to the gtest
// temp dir and names the file, so an intended behaviour change can be
// reviewed with diff and the fixture replaced by that file.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "oracle/ground_truth.h"
#include "sketch/library.h"
#include "solver/grid_finder.h"
#include "synth/synthesizer.h"
#include "util/rng.h"

namespace compsynth {
namespace {

constexpr int kSessions = 20;

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string render(const sketch::HoleAssignment& a) {
  std::string out;
  for (std::size_t i = 0; i < a.index.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(a.index[i]);
  }
  return out;
}

std::string render(const pref::Scenario& s) {
  std::string out;
  char buf[32];
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", s.metrics[i]);
    if (i > 0) out += ',';
    out += buf;
  }
  return out;
}

// Forwards to a GridFinder and appends every answer, plus the hash of the
// finder state it leaves behind, to the transcript.
class RecordingFinder final : public solver::CandidateFinder {
 public:
  RecordingFinder(std::unique_ptr<solver::GridFinder> inner, std::ostream& out)
      : inner_(std::move(inner)), out_(out) {}

  solver::FinderResult find_distinguishing(const pref::PreferenceGraph& graph,
                                           int num_pairs) override {
    solver::FinderResult r = inner_->find_distinguishing(graph, num_pairs);
    out_ << "find " << static_cast<int>(r.status) << " a "
         << render(r.candidate_a) << " b " << render(r.candidate_b) << '\n';
    for (const solver::DistinguishingPair& p : r.pairs) {
      out_ << "pair " << render(p.preferred_by_a) << " | "
           << render(p.preferred_by_b) << '\n';
    }
    out_ << "state " << hex64(fnv1a(inner_->save_state())) << '\n';
    return r;
  }

  std::optional<sketch::HoleAssignment> find_consistent(
      const pref::PreferenceGraph& graph) override {
    std::optional<sketch::HoleAssignment> r = inner_->find_consistent(graph);
    out_ << "consistent " << (r ? render(*r) : std::string("none")) << '\n'
         << "state " << hex64(fnv1a(inner_->save_state())) << '\n';
    return r;
  }

  void set_run_context(const obs::RunContext* ctx) override {
    inner_->set_run_context(ctx);
  }
  std::string save_state() const override { return inner_->save_state(); }
  void restore_state(const std::string& state) override {
    inner_->restore_state(state);
  }

 private:
  std::unique_ptr<solver::GridFinder> inner_;
  std::ostream& out_;
};

std::string transcript(int threads) {
  const sketch::Sketch& sk = sketch::swan_sketch();
  std::ostringstream out;
  for (int i = 0; i < kSessions; ++i) {
    util::Rng rng(0x901dULL * 1000 + static_cast<std::uint64_t>(i));
    synth::SynthesisConfig config;
    config.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));
    sketch::HoleAssignment target = sketch::swan_target();
    if (i > 0) {
      for (std::size_t h = 0; h < sk.holes().size(); ++h) {
        target.index[h] = rng.uniform_int(0, sk.holes()[h].count - 1);
      }
    }
    // The finder synth::make_grid_synthesizer builds, at `threads`.
    solver::GridFinderConfig gc;
    gc.base = config.finder;
    gc.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
    gc.threads = threads;
    out << "session " << i << " seed " << config.seed << " target "
        << render(target) << '\n';
    synth::Synthesizer synthesizer(
        sk,
        std::make_unique<RecordingFinder>(
            std::make_unique<solver::GridFinder>(sk, gc), out),
        config);
    oracle::GroundTruthOracle user(sk, target, config.finder.tie_tolerance);
    const synth::SynthesisResult r = synthesizer.run(user);
    out << "result " << static_cast<int>(r.status) << " iterations "
        << r.iterations << " comparisons " << r.oracle_comparisons
        << " objective " << (r.objective ? render(*r.objective) : "none")
        << '\n';
  }
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void expect_golden(int threads) {
  const std::string golden =
      read_file(std::string(COMPSYNTH_GOLDEN_DIR) + "/swan_grid_sequence.txt");
  const std::string actual = transcript(threads);
  if (actual == golden) return;
  const std::string path = ::testing::TempDir() + "swan_grid_sequence.t" +
                           std::to_string(threads) + ".txt";
  std::ofstream(path, std::ios::binary) << actual;
  std::size_t line = 1;
  std::size_t i = 0;
  while (i < actual.size() && i < golden.size() && actual[i] == golden[i]) {
    if (actual[i] == '\n') ++line;
    ++i;
  }
  ADD_FAILURE() << "transcript at threads=" << threads
                << " differs from the fixture at line " << line
                << "; the produced transcript is in " << path;
}

TEST(GoldenSequence, SwanGridOneThread) { expect_golden(1); }

TEST(GoldenSequence, SwanGridFourThreads) { expect_golden(4); }

}  // namespace
}  // namespace compsynth
