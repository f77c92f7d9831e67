#include "reference.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <queue>

namespace grfbench {

RefGraph::RefGraph(const std::vector<grfusion::VertexRow>& vertexes,
                   const std::vector<grfusion::EdgeRow>& edges,
                   bool directed) {
  ids_.reserve(vertexes.size());
  for (const grfusion::VertexRow& v : vertexes) {
    index_.emplace(v.id, static_cast<uint32_t>(ids_.size()));
    ids_.push_back(v.id);
  }
  std::vector<size_t> degree(ids_.size() + 1, 0);
  auto at = [&](int64_t id) {
    auto it = index_.find(id);
    if (it == index_.end()) {
      std::fprintf(stderr, "reference: edge endpoint %lld is no vertex\n",
                   static_cast<long long>(id));
      std::abort();
    }
    return it->second;
  };
  for (const grfusion::EdgeRow& e : edges) {
    ++degree[at(e.src)];
    if (!directed) ++degree[at(e.dst)];
  }
  offsets_.assign(ids_.size() + 1, 0);
  for (size_t i = 0; i < ids_.size(); ++i) {
    offsets_[i + 1] = offsets_[i] + degree[i];
  }
  arcs_.resize(offsets_.back());
  std::vector<size_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < edges.size(); ++i) {
    const grfusion::EdgeRow& e = edges[i];
    uint32_t s = at(e.src);
    uint32_t d = at(e.dst);
    uint32_t edge = static_cast<uint32_t>(i);
    arcs_[fill[s]++] = Arc{d, edge, e.rank, e.weight};
    if (!directed) arcs_[fill[d]++] = Arc{s, edge, e.rank, e.weight};
  }
}

int RefGraph::Index(int64_t id) const {
  auto it = index_.find(id);
  return it == index_.end() ? -1 : static_cast<int>(it->second);
}

uint64_t RefGraph::Count(uint32_t v, uint32_t start, int depth_left,
                         int64_t rank_bound, std::vector<uint32_t>* edge_stack,
                         std::vector<uint8_t>* on_path) const {
  uint64_t total = 0;
  for (size_t a = offsets_[v]; a < offsets_[v + 1]; ++a) {
    const Arc& arc = arcs_[a];
    if (rank_bound >= 0 && arc.rank >= rank_bound) continue;
    if (arc.to == start) {
      // A closing edge ends the path; it may not reuse an edge already on
      // the path (an undirected edge walked back to the start).
      if (edge_stack->empty() ||
          std::find(edge_stack->begin(), edge_stack->end(), arc.edge) !=
              edge_stack->end()) {
        continue;
      }
      ++total;
      continue;
    }
    if ((*on_path)[arc.to]) continue;
    ++total;
    if (depth_left > 1) {
      edge_stack->push_back(arc.edge);
      (*on_path)[arc.to] = 1;
      total += Count(arc.to, start, depth_left - 1, rank_bound, edge_stack,
                     on_path);
      (*on_path)[arc.to] = 0;
      edge_stack->pop_back();
    }
  }
  return total;
}

uint64_t RefGraph::CountPaths(int64_t start, int max_len,
                              int64_t rank_bound) const {
  int s = Index(start);
  if (s < 0 || max_len < 1) return 0;
  std::vector<uint32_t> edge_stack;
  std::vector<uint8_t> on_path(ids_.size(), 0);
  on_path[s] = 1;
  return Count(static_cast<uint32_t>(s), static_cast<uint32_t>(s), max_len,
               rank_bound, &edge_stack, &on_path);
}

bool RefGraph::Reachable(int64_t src, int64_t dst, int64_t rank_bound) const {
  int s = Index(src);
  int d = Index(dst);
  if (s < 0 || d < 0) return false;
  std::vector<uint8_t> seen(ids_.size(), 0);
  std::deque<uint32_t> frontier{static_cast<uint32_t>(s)};
  seen[s] = 1;
  while (!frontier.empty()) {
    uint32_t u = frontier.front();
    frontier.pop_front();
    for (size_t a = offsets_[u]; a < offsets_[u + 1]; ++a) {
      const Arc& arc = arcs_[a];
      if (rank_bound >= 0 && arc.rank >= rank_bound) continue;
      if (arc.to == static_cast<uint32_t>(d)) return true;
      if (!seen[arc.to]) {
        seen[arc.to] = 1;
        frontier.push_back(arc.to);
      }
    }
  }
  return false;
}

std::vector<int> RefGraph::HopDistances(int64_t src) const {
  std::vector<int> dist(ids_.size(), -1);
  int s = Index(src);
  if (s < 0) return dist;
  std::deque<uint32_t> frontier{static_cast<uint32_t>(s)};
  dist[s] = 0;
  while (!frontier.empty()) {
    uint32_t u = frontier.front();
    frontier.pop_front();
    for (size_t a = offsets_[u]; a < offsets_[u + 1]; ++a) {
      uint32_t to = arcs_[a].to;
      if (dist[to] < 0) {
        dist[to] = dist[u] + 1;
        frontier.push_back(to);
      }
    }
  }
  return dist;
}

double RefGraph::ShortestCost(int64_t src, int64_t dst) const {
  int s = Index(src);
  int d = Index(dst);
  if (s < 0 || d < 0) return -1;
  std::vector<double> dist(ids_.size(),
                           std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  dist[s] = 0;
  pq.emplace(0.0, static_cast<uint32_t>(s));
  while (!pq.empty()) {
    auto [cost, u] = pq.top();
    pq.pop();
    if (u == static_cast<uint32_t>(d)) return cost;
    if (cost > dist[u]) continue;
    for (size_t a = offsets_[u]; a < offsets_[u + 1]; ++a) {
      const Arc& arc = arcs_[a];
      double next = cost + arc.weight;
      if (next < dist[arc.to]) {
        dist[arc.to] = next;
        pq.emplace(next, arc.to);
      }
    }
  }
  return -1;
}

std::vector<std::pair<int64_t, int64_t>> PairsAtDistance(
    const RefGraph& g, grfusion::Random& rng, size_t count, int hops,
    size_t per_source) {
  std::vector<std::pair<int64_t, int64_t>> pairs;
  const int64_t n = static_cast<int64_t>(g.num_vertexes());
  for (size_t attempt = 0; attempt < 4 * count && pairs.size() < count;
       ++attempt) {
    const int64_t src = g.id_at(static_cast<size_t>(rng.Uniform(0, n - 1)));
    const std::vector<int> dist = g.HopDistances(src);
    std::vector<size_t> at;
    for (size_t i = 0; i < dist.size(); ++i) {
      if (dist[i] == hops) at.push_back(i);
    }
    for (size_t k = 0; k < per_source && !at.empty() && pairs.size() < count;
         ++k) {
      const size_t pick = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(at.size()) - 1));
      pairs.emplace_back(src, g.id_at(at[pick]));
      at[pick] = at.back();
      at.pop_back();
    }
  }
  return pairs;
}

}  // namespace grfbench
