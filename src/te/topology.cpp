#include "te/topology.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace compsynth::te {

NodeId Topology::add_node(std::string name) {
  nodes_.push_back(Node{std::move(name)});
  out_.emplace_back();
  return nodes_.size() - 1;
}

LinkId Topology::add_link(NodeId from, NodeId to, double capacity_gbps,
                          double latency_ms) {
  if (from >= nodes_.size() || to >= nodes_.size()) {
    throw std::invalid_argument("add_link: unknown endpoint");
  }
  if (from == to) throw std::invalid_argument("add_link: self-loop");
  if (capacity_gbps <= 0) throw std::invalid_argument("add_link: capacity must be positive");
  if (latency_ms < 0) throw std::invalid_argument("add_link: negative latency");
  links_.push_back(Link{from, to, capacity_gbps, latency_ms});
  out_[from].push_back(links_.size() - 1);
  return links_.size() - 1;
}

void Topology::add_duplex_link(NodeId a, NodeId b, double capacity_gbps,
                               double latency_ms) {
  add_link(a, b, capacity_gbps, latency_ms);
  add_link(b, a, capacity_gbps, latency_ms);
}

bool Topology::strongly_connected() const {
  if (nodes_.empty()) return true;
  // BFS forward from node 0 and backward (via reversed adjacency).
  auto bfs = [&](bool forward) {
    std::vector<bool> seen(nodes_.size(), false);
    std::vector<NodeId> queue{0};
    seen[0] = true;
    std::size_t count = 1;
    while (!queue.empty()) {
      const NodeId v = queue.back();
      queue.pop_back();
      for (const Link& l : links_) {
        const NodeId src = forward ? l.from : l.to;
        const NodeId dst = forward ? l.to : l.from;
        if (src == v && !seen[dst]) {
          seen[dst] = true;
          ++count;
          queue.push_back(dst);
        }
      }
    }
    return count == nodes_.size();
  };
  return bfs(true) && bfs(false);
}

Topology abilene() {
  Topology t;
  const NodeId sea = t.add_node("Seattle");
  const NodeId sun = t.add_node("Sunnyvale");
  const NodeId lax = t.add_node("LosAngeles");
  const NodeId den = t.add_node("Denver");
  const NodeId kan = t.add_node("KansasCity");
  const NodeId hou = t.add_node("Houston");
  const NodeId chi = t.add_node("Chicago");
  const NodeId ind = t.add_node("Indianapolis");
  const NodeId atl = t.add_node("Atlanta");
  const NodeId was = t.add_node("Washington");
  const NodeId nyc = t.add_node("NewYork");

  // Duplex trunks; latency approximates great-circle propagation delay.
  t.add_duplex_link(sea, sun, 10, 14);
  t.add_duplex_link(sea, den, 10, 21);
  t.add_duplex_link(sun, lax, 10, 6);
  t.add_duplex_link(sun, den, 10, 16);
  t.add_duplex_link(lax, hou, 10, 24);
  t.add_duplex_link(den, kan, 10, 10);
  t.add_duplex_link(kan, hou, 10, 13);
  t.add_duplex_link(kan, ind, 10, 8);
  t.add_duplex_link(hou, atl, 10, 14);
  t.add_duplex_link(chi, ind, 10, 4);
  t.add_duplex_link(chi, nyc, 10, 16);
  t.add_duplex_link(ind, atl, 10, 9);
  t.add_duplex_link(atl, was, 10, 11);
  t.add_duplex_link(was, nyc, 10, 5);
  return t;
}

Topology random_wan(util::Rng& rng, std::size_t nodes, std::size_t extra_links,
                    double min_capacity, double max_capacity) {
  if (nodes < 2) throw std::invalid_argument("random_wan: need at least 2 nodes");
  if (min_capacity <= 0 || max_capacity < min_capacity) {
    throw std::invalid_argument("random_wan: bad capacity range");
  }
  Topology t;
  for (std::size_t i = 0; i < nodes; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    t.add_node(std::move(name));
  }

  auto random_capacity = [&] { return rng.uniform_real(min_capacity, max_capacity); };
  auto random_latency = [&] { return rng.uniform_real(1.0, 40.0); };

  // Ring backbone guarantees strong connectivity.
  for (std::size_t i = 0; i < nodes; ++i) {
    t.add_duplex_link(i, (i + 1) % nodes, random_capacity(), random_latency());
  }
  // Random chords add path diversity.
  for (std::size_t i = 0; i < extra_links; ++i) {
    const NodeId a = rng.index(nodes);
    NodeId b = rng.index(nodes);
    if (a == b) continue;
    t.add_duplex_link(a, b, random_capacity(), random_latency());
  }
  return t;
}

Topology waxman_wan(util::Rng& rng, std::size_t nodes, double alpha, double beta,
                    double min_capacity, double max_capacity,
                    double diagonal_latency_ms) {
  if (nodes < 2) throw std::invalid_argument("waxman_wan: need at least 2 nodes");
  if (alpha <= 0 || alpha > 1 || beta <= 0) {
    throw std::invalid_argument("waxman_wan: alpha in (0,1], beta > 0 required");
  }
  if (min_capacity <= 0 || max_capacity < min_capacity) {
    throw std::invalid_argument("waxman_wan: bad capacity range");
  }

  Topology t;
  std::vector<std::pair<double, double>> pos;
  pos.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    t.add_node(std::move(name));
    pos.emplace_back(rng.uniform_real(0, 1), rng.uniform_real(0, 1));
  }
  const double diagonal = std::sqrt(2.0);
  auto distance = [&](std::size_t i, std::size_t j) {
    const double dx = pos[i].first - pos[j].first;
    const double dy = pos[i].second - pos[j].second;
    return std::sqrt(dx * dx + dy * dy);
  };
  auto latency = [&](std::size_t i, std::size_t j) {
    // Clamp away from zero so co-located nodes still get a positive delay.
    return std::max(0.5, distance(i, j) / diagonal * diagonal_latency_ms);
  };
  auto capacity = [&] { return rng.uniform_real(min_capacity, max_capacity); };

  // Connectivity backbone: a ring in random order.
  std::vector<std::size_t> order(nodes);
  for (std::size_t i = 0; i < nodes; ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::size_t a = order[i];
    const std::size_t b = order[(i + 1) % nodes];
    t.add_duplex_link(a, b, capacity(), latency(a, b));
  }

  // Waxman chords.
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = i + 1; j < nodes; ++j) {
      const double p = alpha * std::exp(-distance(i, j) / (beta * diagonal));
      if (rng.bernoulli(p)) {
        t.add_duplex_link(i, j, capacity(), latency(i, j));
      }
    }
  }
  return t;
}

std::vector<Demand> gravity_demands(const Topology& topo, util::Rng& rng,
                                    double total_demand_gbps,
                                    std::size_t top_pairs) {
  const std::size_t n = topo.node_count();
  if (n < 2) throw std::invalid_argument("gravity_demands: topology too small");
  if (total_demand_gbps <= 0) {
    throw std::invalid_argument("gravity_demands: non-positive total demand");
  }

  // Lognormal node weights: a few "big" PoPs dominate, as in real matrices.
  std::vector<double> weight(n);
  for (double& w : weight) w = std::exp(rng.gaussian(0.0, 1.0));

  std::vector<Demand> all;
  double mass = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      const double m = weight[i] * weight[j];
      all.push_back(Demand{i, j, m});
      mass += m;
    }
  }
  for (Demand& d : all) d.demand_gbps = d.demand_gbps / mass * total_demand_gbps;

  std::sort(all.begin(), all.end(), [](const Demand& a, const Demand& b) {
    return a.demand_gbps > b.demand_gbps;
  });
  if (all.size() > top_pairs) all.resize(top_pairs);
  return all;
}

}  // namespace compsynth::te
