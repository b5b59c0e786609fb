#include "te/scenario_gen.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sketch/eval.h"
#include "sketch/library.h"
#include "util/table.h"

namespace compsynth::te {

pref::Scenario to_scenario(const Allocation& alloc) {
  return pref::Scenario{{alloc.total_throughput_gbps, alloc.weighted_latency_ms}};
}

pref::Scenario to_fair_scenario(const Allocation& alloc,
                                const std::vector<FlowRequest>& requests) {
  if (alloc.flow_rates.size() != requests.size()) {
    throw std::invalid_argument("to_fair_scenario: allocation/request mismatch");
  }
  double min_frac = 1.0;
  for (std::size_t f = 0; f < requests.size(); ++f) {
    const double demand = requests[f].flow.demand_gbps;
    if (demand <= 0) continue;
    min_frac = std::min(min_frac, std::clamp(alloc.flow_rates[f] / demand, 0.0, 1.0));
  }
  return pref::Scenario{
      {alloc.total_throughput_gbps, alloc.weighted_latency_ms, min_frac}};
}

pref::Scenario to_class_scenario(const Allocation& alloc,
                                 const std::vector<FlowRequest>& requests) {
  if (alloc.flow_rates.size() != requests.size()) {
    throw std::invalid_argument("to_class_scenario: allocation/request mismatch");
  }
  double hi = 0, lo = 0;
  for (std::size_t f = 0; f < requests.size(); ++f) {
    (requests[f].flow.priority > 0 ? hi : lo) += alloc.flow_rates[f];
  }
  const sketch::Sketch& sk = sketch::swan_priority_sketch();
  pref::Scenario s{{hi, lo, alloc.weighted_latency_ms}};
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    s.metrics[i] = std::clamp(s.metrics[i], sk.metrics()[i].lo, sk.metrics()[i].hi);
  }
  return s;
}

std::vector<CandidateDesign> sweep_class_weights(
    const Topology& topo, const std::vector<FlowRequest>& requests,
    std::span<const double> hi_class_weights) {
  std::vector<CandidateDesign> out;
  out.reserve(hi_class_weights.size() + 1);
  for (const double w : hi_class_weights) {
    if (w <= 0) throw std::invalid_argument("sweep_class_weights: weight <= 0");
    std::vector<FlowRequest> weighted = requests;
    for (FlowRequest& r : weighted) {
      r.flow.weight = r.flow.priority > 0 ? w : 1.0;
    }
    CandidateDesign d;
    d.label = "weighted-maxmin hi:lo=" + util::format_number(w, 3) + ":1";
    d.knob = w;
    d.allocation = max_min_fair(topo, weighted);
    d.scenario = to_class_scenario(d.allocation, requests);
    out.push_back(std::move(d));
  }
  // SWAN's default: strict priority between classes, max-min within.
  CandidateDesign strict;
  strict.label = "strict priority";
  strict.knob = std::numeric_limits<double>::infinity();
  strict.allocation = priority_layered(topo, requests);
  strict.scenario = to_class_scenario(strict.allocation, requests);
  out.push_back(std::move(strict));
  return out;
}

std::vector<CandidateDesign> sweep_epsilon(const Topology& topo,
                                           const std::vector<FlowRequest>& requests,
                                           std::span<const double> epsilons) {
  std::vector<CandidateDesign> out;
  out.reserve(epsilons.size());
  for (const double eps : epsilons) {
    CandidateDesign d;
    d.label = "swan eps=" + util::format_number(eps, 4);
    d.knob = eps;
    d.allocation = swan_allocation(topo, requests, eps);
    d.scenario = to_scenario(d.allocation);
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<CandidateDesign> sweep_fairness(const Topology& topo,
                                            const std::vector<FlowRequest>& requests,
                                            std::span<const double> q_fairs) {
  std::vector<CandidateDesign> out;
  out.reserve(q_fairs.size());
  for (const double q : q_fairs) {
    CandidateDesign d;
    d.label = "danna q=" + util::format_number(q, 3);
    d.knob = q;
    d.allocation = danna_balanced(topo, requests, q);
    d.scenario = to_scenario(d.allocation);
    out.push_back(std::move(d));
  }
  return out;
}

std::size_t pick_best(const sketch::Sketch& sketch,
                      const sketch::HoleAssignment& objective,
                      std::span<const CandidateDesign> designs) {
  if (designs.empty()) throw std::invalid_argument("pick_best: no designs");
  std::size_t best = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    const double v = sketch::eval(sketch, objective, designs[i].scenario.metrics);
    if (v > best_value) {
      best_value = v;
      best = i;
    }
  }
  return best;
}

std::vector<FlowRequest> random_workload(const Topology& topo, util::Rng& rng,
                                         std::size_t flows, double min_demand,
                                         double max_demand, int k_tunnels) {
  if (topo.node_count() < 2) {
    throw std::invalid_argument("random_workload: topology too small");
  }
  if (min_demand < 0 || max_demand < min_demand) {
    throw std::invalid_argument("random_workload: bad demand range");
  }
  std::vector<FlowRequest> out;
  out.reserve(flows);
  while (out.size() < flows) {
    Flow f;
    f.src = rng.index(topo.node_count());
    f.dst = rng.index(topo.node_count());
    if (f.src == f.dst) continue;
    f.demand_gbps = rng.uniform_real(min_demand, max_demand);
    f.name = std::to_string(out.size());
    f.name.insert(f.name.begin(), 'f');
    out.push_back(make_request(topo, std::move(f), k_tunnels));
  }
  return out;
}

}  // namespace compsynth::te
