#include "core/collab_graph.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace ddos::core {

CollaborationGraph CollaborationGraph::Build(
    const data::Dataset& /*dataset*/,
    std::span<const CollaborationEvent> events) {
  CollaborationGraph graph;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::pair<std::uint32_t, bool>>
      edge_map;  // (a,b) -> (weight, cross_family)

  auto node_of = [&](std::uint32_t botnet, data::Family family) -> Node& {
    const auto [it, inserted] =
        graph.node_index_.try_emplace(botnet, graph.nodes_.size());
    if (inserted) {
      graph.nodes_.push_back(Node{botnet, family, 0, 0});
    }
    return graph.nodes_[it->second];
  };

  for (const CollaborationEvent& event : events) {
    // Distinct botnets of the event (a botnet may appear twice via two
    // attacks; count it once per event).
    std::map<std::uint32_t, data::Family> members;
    for (const CollabParticipant& p : event.participants) {
      members.emplace(p.botnet_id, p.family);
    }
    for (const auto& [botnet, family] : members) {
      ++node_of(botnet, family).events;
    }
    for (auto it = members.begin(); it != members.end(); ++it) {
      for (auto jt = std::next(it); jt != members.end(); ++jt) {
        auto& entry = edge_map[{it->first, jt->first}];
        ++entry.first;
        entry.second = it->second != jt->second;
      }
    }
  }

  graph.edges_.reserve(edge_map.size());
  for (const auto& [key, value] : edge_map) {
    graph.edges_.push_back(Edge{key.first, key.second, value.first, value.second});
    ++graph.nodes_[graph.node_index_[key.first]].degree;
    ++graph.nodes_[graph.node_index_[key.second]].degree;
  }
  return graph;
}

std::vector<std::vector<std::uint32_t>> CollaborationGraph::Components() const {
  // Union-find over node indices.
  std::vector<std::size_t> parent(nodes_.size());
  std::iota(parent.begin(), parent.end(), 0);
  std::vector<std::size_t> rank(nodes_.size(), 0);
  auto find = [&](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (rank[a] < rank[b]) std::swap(a, b);
    parent[b] = a;
    if (rank[a] == rank[b]) ++rank[a];
  };
  for (const Edge& e : edges_) {
    unite(node_index_.at(e.a), node_index_.at(e.b));
  }
  std::map<std::size_t, std::vector<std::uint32_t>> groups;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    groups[find(i)].push_back(nodes_[i].botnet_id);
  }
  std::vector<std::vector<std::uint32_t>> out;
  out.reserve(groups.size());
  for (auto& [root, members] : groups) {
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.size() > b.size();
  });
  return out;
}

CollaborationGraph::Stats CollaborationGraph::ComputeStats() const {
  Stats s;
  s.nodes = nodes_.size();
  s.edges = edges_.size();
  for (const Edge& e : edges_) s.cross_family_edges += e.cross_family;
  const auto components = Components();
  s.components = components.size();
  s.largest_component = components.empty() ? 0 : components.front().size();
  std::uint64_t degree_sum = 0;
  for (const Node& n : nodes_) {
    degree_sum += n.degree;
    if (n.degree > s.hub_degree) {
      s.hub_degree = n.degree;
      s.hub_botnet = n.botnet_id;
      s.hub_family = n.family;
    }
  }
  if (!nodes_.empty()) {
    s.mean_degree = static_cast<double>(degree_sum) /
                    static_cast<double>(nodes_.size());
  }
  return s;
}

}  // namespace ddos::core
