#ifndef GRFUSION_TESTS_BFS_REFERENCE_H_
#define GRFUSION_TESTS_BFS_REFERENCE_H_

// Engine-independent BFScan order for the tests: a brute-force level-order
// enumeration of the engine's path language over the test's own edge list.
//
// The order is the one DESIGN §14 defines for BFScan:
//  - starts ascending by id, each a length-0 path;
//  - level by level: every path of length L is emitted before any path of
//    length L+1;
//  - level L+1 lists the extensions of level L's paths in level-L order,
//    each path's extensions in its end vertex's neighbor order: the edges
//    leaving it in edge-insertion order, then (undirected views only) the
//    edges entering it, in insertion order.
// Admission is the engine's path language: edge-simple, and vertex-simple
// except that an edge closing a cycle back to the start is taken and ends
// the path. An optional position-free filter (P.Edges[0..*].rank < R) drops
// edges. The first row ending at a bound target is therefore the
// lexicographically first minimum-hop path: the LIMIT 1 witness.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace grfusion {

struct BfsRefQuery {
  std::vector<int64_t> starts;  ///< Vertexes of the view; any order.
  size_t min_len = 1;
  std::optional<size_t> max_len;  ///< Unset = unbounded (needs end_vertex).
  std::optional<int64_t> end_vertex;
  std::optional<int64_t> rank_below;
  size_t limit = std::numeric_limits<size_t>::max();
};

struct BfsRefPath {
  std::vector<int64_t> vertexes, edges;
  bool closing = false;

  /// The engine's PathString: "0 -[3]-> 3 -[201]-> 41".
  std::string ToString() const {
    std::string out = std::to_string(vertexes[0]);
    for (size_t i = 0; i < edges.size(); ++i) {
      out += " -[" + std::to_string(edges[i]) + "]-> " +
             std::to_string(vertexes[i + 1]);
    }
    return out;
  }
};

/// The rows a BFScan of `q` emits, in order. `Edge` needs id, src, dst and
/// rank members; `edges` is in insertion order. With a bound end vertex the
/// enumeration only extends paths that can still reach it within the
/// current horizon, and deepens the horizon one hop at a time until `limit`
/// rows are found: pruning whole subtrees keeps the survivors' order, so
/// the rows are the unpruned enumeration's, and an unbounded LIMIT 1 probe
/// costs only its near-shortest paths.
template <typename Edge>
std::vector<BfsRefPath> BfsReference(const std::vector<Edge>& edges,
                                     bool directed, const BfsRefQuery& q) {
  constexpr size_t kInf = std::numeric_limits<size_t>::max();
  // Neighbor order per vertex: every out-edge in insertion order, then every
  // in-edge (undirected), as (edge id, neighbor).
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> nbrs;
  for (int side = 0; side < (directed ? 1 : 2); ++side) {
    for (const Edge& e : edges) {
      if (q.rank_below.has_value() && e.rank >= *q.rank_below) continue;
      if (side == 0) {
        nbrs[e.src].emplace_back(e.id, e.dst);
      } else {
        nbrs[e.dst].emplace_back(e.id, e.src);
      }
    }
  }
  // Hops from each vertex to the end vertex (absent = unreachable).
  std::map<int64_t, size_t> to_end;
  if (q.end_vertex.has_value()) {
    std::map<int64_t, std::vector<int64_t>> reverse;
    for (const auto& [v, list] : nbrs) {
      for (const auto& [eid, w] : list) reverse[w].push_back(v);
    }
    to_end[*q.end_vertex] = 0;
    std::deque<int64_t> queue{*q.end_vertex};
    while (!queue.empty()) {
      const int64_t x = queue.front();
      queue.pop_front();
      for (int64_t v : reverse[x]) {
        if (to_end.emplace(v, to_end[x] + 1).second) queue.push_back(v);
      }
    }
  }
  std::vector<int64_t> starts = q.starts;
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  auto enumerate = [&](size_t horizon) {
    std::vector<BfsRefPath> out, level, next;
    for (int64_t s : starts) level.push_back(BfsRefPath{{s}, {}, false});
    for (size_t len = 0; !level.empty(); ++len) {
      for (const BfsRefPath& p : level) {
        if (len < q.min_len) continue;
        if (q.end_vertex.has_value() && p.vertexes.back() != *q.end_vertex) {
          continue;
        }
        out.push_back(p);
        if (out.size() >= q.limit) return out;
      }
      if (len >= horizon) break;
      next.clear();
      for (const BfsRefPath& p : level) {
        if (p.closing) continue;
        for (const auto& [eid, nbr] : nbrs[p.vertexes.back()]) {
          if (std::find(p.edges.begin(), p.edges.end(), eid) !=
              p.edges.end()) {
            continue;
          }
          const bool closing = nbr == p.vertexes[0] && len >= 1;
          if (!closing && std::find(p.vertexes.begin(), p.vertexes.end(),
                                    nbr) != p.vertexes.end()) {
            continue;
          }
          if (q.end_vertex.has_value()) {
            size_t rest = kInf;
            if (nbr == *q.end_vertex) {
              rest = 0;
            } else if (!closing && to_end.count(nbr) > 0) {
              rest = to_end[nbr];
            }
            if (rest == kInf || len + 1 + rest > horizon) continue;
          }
          BfsRefPath ext = p;
          ext.edges.push_back(eid);
          ext.vertexes.push_back(nbr);
          ext.closing = closing;
          next.push_back(std::move(ext));
        }
      }
      level.swap(next);
    }
    return out;
  };

  const size_t cap = q.max_len.value_or(kInf);
  if (!q.end_vertex.has_value()) return enumerate(cap);
  // No edge-simple path is longer than the edge list.
  for (size_t horizon = 0;; ++horizon) {
    const size_t h = std::min(horizon, cap);
    std::vector<BfsRefPath> rows = enumerate(h);
    if (rows.size() >= q.limit || h == cap || horizon >= edges.size()) {
      return rows;
    }
  }
}

}  // namespace grfusion

#endif  // GRFUSION_TESTS_BFS_REFERENCE_H_
