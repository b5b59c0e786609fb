// perfbench driver: runs one named workload from a seed, checks its outputs
// and prints the metrics (perfbench/README.md). The last stdout line is the
// result object {"correct", "attempted", "failed", "metrics"}; the line
// before it carries the host fingerprint and per-run detail.
//
//   perfbench_driver --workload W --seed N --seconds S --trace 0|1
//                    --serve-bin PATH --sketch-dir DIR --work-dir DIR
//   perfbench_driver --setup-probe SKETCH_DIR
//
// The set-up probe is what swan_grid's setup_s times, in a fresh process:
// library load, sketch parse, synthesizer construction, shared pool start.
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <set>
#include <string>

#include "bench.h"
#include "sketch/compile.h"
#include "synth/synthesizer.h"
#include "util/thread_pool.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Result;

const std::set<std::string> kWorkloads = {"swan_grid", "serve_resident"};

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::stoull(v);
    else if (k == "--seconds") opt.seconds = std::stod(v);
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--serve-bin") opt.serve_bin = v;
    else if (k == "--sketch-dir") opt.sketch_dir = v;
    else if (k == "--work-dir") opt.work_dir = v;
    else return false;
  }
  return argc % 2 == 1 && kWorkloads.count(opt.workload) == 1 &&
         opt.seconds > 0 && !opt.sketch_dir.empty() && !opt.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--setup-probe") == 0) {
    const compsynth::sketch::Sketch sk =
        perfbench::load_sketch(std::string(argv[2]) + "/swan.sketch");
    compsynth::synth::Synthesizer synth = compsynth::synth::make_grid_synthesizer(sk);
    return compsynth::util::ThreadPool::shared().size() > 0 ? 0 : 1;
  }
  Options opt;
  opt.self_bin = argv[0];
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << "usage: perfbench_driver --workload "
                   "swan_grid|serve_resident --seed N "
                   "--seconds S --trace 0|1 --serve-bin PATH --sketch-dir DIR "
                   "--work-dir DIR\n";
      return 2;
    }
  } catch (const std::exception&) {
    std::cerr << "perfbench_driver: malformed number\n";
    return 2;
  }

  Result r;
  try {
    r = opt.workload == "swan_grid" ? perfbench::run_inprocess(opt)
                                            : perfbench::run_service(opt);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench_driver: " << opt.workload << ": " << ex.what() << "\n";
    return 1;
  }
  for (const std::string& f : r.failures) std::cerr << "check failed: " << f << "\n";

  // Host fingerprint and detail, then the result line.
  std::string detail = "{\"host\":{\"usable_cores\":" +
                       std::to_string(perfbench::usable_cores()) +
                       ",\"lane_isa\":" +
                       json_str(compsynth::sketch::lane_isa_name(
                           compsynth::sketch::active_lane_isa())) +
                       ",\"compiler\":" + json_str(PERFBENCH_COMPILER) +
                       ",\"build_type\":" + json_str(PERFBENCH_BUILD_TYPE) +
                       "},\"workload\":" + json_str(opt.workload) +
                       ",\"seed\":" + std::to_string(opt.seed) +
                       ",\"trace\":" + (opt.trace ? "1" : "0") + ",\"detail\":{";
  bool first = true;
  for (const auto& [k, v] : r.detail) {
    detail += (first ? "" : ",") + json_str(k) + ":" + num(v);
    first = false;
  }
  detail += "}}";
  std::cout << detail << "\n";

  std::string line = "{\"correct\":" + std::string(r.failed == 0 ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(r.attempted) +
                     ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":{";
  first = true;
  for (const auto& [name, vu] : r.metrics) {
    line += (first ? "" : ",") + json_str(name) + ":{\"value\":" + num(vu.first) +
            ",\"unit\":" + json_str(vu.second) + "}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
