// Multi-class priority trade-offs learned from preferences (paper §2,
// "Expressing fairness and priority requirements").
//
// SWAN strictly prioritizes higher traffic classes; the paper argues a
// weighted max-min allocation "may be more reflective of designer intent" —
// but then someone must pick the weights. This example:
//
//   1. builds a Waxman random WAN with a gravity-model demand matrix and
//      marks the largest flows as the interactive (high-priority) class;
//   2. generates candidate designs: weighted max-min across a sweep of
//      high:low class weights, plus SWAN's strict-priority default;
//   3. learns the architect's latent class trade-off (a floor on
//      interactive throughput plus a value for background traffic) from
//      preference comparisons alone;
//   4. picks the final design with the learned objective and compares with
//      the latent intent's own pick.
//
// Build & run:  ./build/examples/priority_te
#include <cstdio>
#include <string>
#include <utility>

#include "oracle/ground_truth.h"
#include "sketch/library.h"
#include "sketch/printer.h"
#include "synth/synthesizer.h"
#include "te/scenario_gen.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace compsynth;

  // 1. Random WAN + gravity workload, two traffic classes.
  util::Rng rng(909);
  const te::Topology topo = te::waxman_wan(rng, 12, 0.5, 0.5);
  const auto demands = te::gravity_demands(topo, rng, 60.0, 10);
  std::vector<te::FlowRequest> requests;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    std::string name = std::to_string(i);
    name.insert(name.begin(), 'f');
    te::Flow flow{.src = demands[i].src,
                  .dst = demands[i].dst,
                  .demand_gbps = demands[i].demand_gbps,
                  .priority = i < 4 ? 1 : 0,  // biggest flows are interactive
                  .name = std::move(name)};
    requests.push_back(te::make_request(topo, std::move(flow), 3));
  }
  std::printf("Waxman WAN: %zu nodes, %zu links; %zu flows (4 high-priority)\n\n",
              topo.node_count(), topo.link_count(), requests.size());

  // 2. Candidate designs across class-weight ratios + strict priority.
  const std::vector<double> weights{1, 2, 4, 8, 16};
  const auto designs = te::sweep_class_weights(topo, requests, weights);
  util::Table table({"design", "hi-class (Gbps)", "lo-class (Gbps)",
                     "latency (ms)"});
  for (const auto& d : designs) {
    table.add_row({d.label, util::format_number(d.scenario.metrics[0]),
                   util::format_number(d.scenario.metrics[1]),
                   util::format_number(d.scenario.metrics[2])});
  }
  std::printf("Candidate designs:\n%s\n", table.to_string().c_str());

  // 3. Learn the architect's class trade-off from comparisons.
  const sketch::Sketch& sk = sketch::swan_priority_sketch();
  sketch::HoleAssignment latent;
  latent.index = {sk.holes()[0].nearest_index(10),   // interactive floor
                  sk.holes()[1].nearest_index(4),    // background value
                  sk.holes()[2].nearest_index(0.5)}; // mild latency penalty

  synth::SynthesisConfig config;
  config.seed = 42;
  config.max_iterations = 300;
  synth::Synthesizer synthesizer = synth::make_grid_synthesizer(sk, config);
  oracle::GroundTruthOracle architect(sk, latent, config.finder.tie_tolerance);
  const synth::SynthesisResult learned = synthesizer.run(architect);
  if (!learned.objective) {
    std::printf("synthesis failed\n");
    return 1;
  }
  std::printf("Learned class objective after %d interactions:\n  %s\n\n",
              learned.interactions,
              sketch::print_instantiated(sk, *learned.objective).c_str());

  // 4. Pick the design.
  const std::size_t picked = te::pick_best(sk, *learned.objective, designs);
  const std::size_t truth = te::pick_best(sk, latent, designs);
  std::printf("learned objective picks:  %s\n", designs[picked].label.c_str());
  std::printf("latent intent would pick: %s\n", designs[truth].label.c_str());
  const bool agree = designs[picked].scenario == designs[truth].scenario;
  std::printf("agreement: %s\n", agree ? "YES" : "NO");
  return agree ? 0 : 1;
}
