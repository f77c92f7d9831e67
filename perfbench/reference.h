#ifndef GRFBENCH_REFERENCE_H_
#define GRFBENCH_REFERENCE_H_

// Reference answers computed from the generated edge lists, never from the
// engine: brute-force simple-path counts, BFS reachability and hop
// distances, and Dijkstra shortest-path costs.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "workload/datasets.h"

namespace grfbench {

class RefGraph {
 public:
  /// Adjacency over `edges`; undirected graphs list each edge at both ends.
  RefGraph(const std::vector<grfusion::VertexRow>& vertexes,
           const std::vector<grfusion::EdgeRow>& edges, bool directed);
  explicit RefGraph(const grfusion::Dataset& d)
      : RefGraph(d.vertexes, d.edges, d.directed) {}

  /// Number of paths of length 1..max_len from `start` under the engine's
  /// path semantics: no edge repeats, no vertex repeats, except that a
  /// final edge may close a cycle back to the start (and ends the path).
  /// With rank_bound >= 0 only edges with rank < rank_bound are followed.
  uint64_t CountPaths(int64_t start, int max_len,
                      int64_t rank_bound = -1) const;

  /// Whether `dst` is reachable from `src` over edges with rank <
  /// rank_bound (all edges when rank_bound < 0).
  bool Reachable(int64_t src, int64_t dst, int64_t rank_bound = -1) const;

  /// Hop distance from `src` to every vertex (-1 = unreachable), by vertex
  /// index.
  std::vector<int> HopDistances(int64_t src) const;

  /// Cheapest path cost from src to dst by edge weight; -1 if unreachable.
  double ShortestCost(int64_t src, int64_t dst) const;

  size_t num_vertexes() const { return ids_.size(); }
  int64_t id_at(size_t index) const { return ids_[index]; }
  size_t degree(size_t index) const {
    return offsets_[index + 1] - offsets_[index];
  }

 private:
  struct Arc {
    uint32_t to;
    uint32_t edge;  ///< Index into the edge list (identity for no-repeat).
    int64_t rank;
    double weight;
  };

  int Index(int64_t id) const;
  uint64_t Count(uint32_t v, uint32_t start, int depth_left,
                 int64_t rank_bound, std::vector<uint32_t>* edge_stack,
                 std::vector<uint8_t>* on_path) const;

  std::vector<int64_t> ids_;
  std::unordered_map<int64_t, uint32_t> index_;
  std::vector<size_t> offsets_;
  std::vector<Arc> arcs_;
};

/// Up to `count` (source, target) pairs exactly `hops` apart: random
/// sources, each with up to `per_source` random targets at that distance.
std::vector<std::pair<int64_t, int64_t>> PairsAtDistance(
    const RefGraph& g, grfusion::Random& rng, size_t count, int hops,
    size_t per_source);

}  // namespace grfbench

#endif  // GRFBENCH_REFERENCE_H_
