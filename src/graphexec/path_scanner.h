#ifndef GRFUSION_GRAPHEXEC_PATH_SCANNER_H_
#define GRFUSION_GRAPHEXEC_PATH_SCANNER_H_

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/query_context.h"
#include "expr/row.h"
#include "graph/path.h"
#include "graphexec/traversal_spec.h"

namespace grfusion {

/// Lazy traversal engine behind the PathScan operator: enumerates simple
/// paths from a set of start vertexes, on demand, under a TraversalSpec.
/// This class runs DFScan and SPScan; BFScan is the level-synchronous
/// FrontierScanner derived from it.
///
/// The scanner is re-armed per probe row via Reset() — this is how an outer
/// relational join tuple "probes" the traversal (paper Fig. 6). Between
/// Reset() calls it holds the traversal frontier (DFS path stack / Dijkstra
/// priority queue) and yields one qualifying path per Next().
///
/// Every engine has one "materialize or count" switch: Next() builds the
/// qualifying path, Count() runs the same traversal to exhaustion and only
/// counts. Admission, pruning, statistics, interrupt checks and memory
/// charging are identical in both modes.
///
/// DFS keeps one current path and extends it in place: per depth it holds
/// the admissible extensions ExpandCore produced (edge, neighbor, closing
/// flag, sums) and pops them from the back, which is exactly the order of a
/// stack of whole-path candidates. SPScan keeps a heap of Candidates.
///
/// FrontierScanner derives from this to run the same per-edge admission
/// pipeline (ExpandCore) level-synchronously over whole frontiers; the
/// virtual surface is Reset/Run/Release/Rebind.
class PathScanner {
 public:
  PathScanner(std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx)
      : spec_(std::move(spec)), ctx_(ctx) {
    for (const auto& pred : spec_->element_preds) {
      (pred->attr().kind == PathElementKind::kEdges ? edge_preds_
                                                    : vertex_preds_) = true;
    }
  }
  virtual ~PathScanner() = default;

  /// Arms the scanner for a new probe. `starts` may be empty (yields no
  /// paths). `target`, when set, restricts emission to paths ending there.
  /// `outer_row` is kept (borrowed) to evaluate predicate right-hand sides
  /// that reference outer columns; it must outlive the pulls.
  virtual Status Reset(std::vector<VertexId> starts,
                       std::optional<VertexId> target,
                       const ExecRow* outer_row);

  /// Produces the next qualifying path, or false when the traversal space is
  /// exhausted.
  StatusOr<bool> Next(PathPtr* out) { return Run(out, nullptr); }

  /// Count mode: runs the rest of the traversal and returns how many paths
  /// qualify, without materializing any of them.
  StatusOr<uint64_t> Count() {
    uint64_t count = 0;
    GRF_RETURN_IF_ERROR(Run(nullptr, &count).status());
    return count;
  }

  /// Points the scanner at the context of its operator's next execution (a
  /// re-opened plan-cache instance), so its buffers keep their capacity
  /// instead of being reallocated per statement. Charges made under the
  /// previous context are not carried over.
  virtual void Rebind(QueryContext* ctx) {
    ctx_ = ctx;
    charged_ = 0;
  }

  /// Drops frontier state and releases its memory charge (operator Close).
  virtual void Release() {
    heap_ = decltype(heap_)();
    dfs_depth_ = 0;
    dfs_pending_ = 0;
    // Freed, not cleared: a reused scanner's next statement must not pay
    // for clearing the buckets a large visited-once search left behind.
    visited_ = {};
    expansions_.clear();
    if (charged_ > 0) {
      ctx_->ReleaseBytes(charged_);
      charged_ = 0;
    }
  }

 protected:
  /// A partial (or complete) candidate path on the frontier.
  struct Candidate {
    PathData path;
    std::vector<double> sums;  ///< Running totals, one per spec sum-bound.
    bool closing = false;      ///< Cycle back to start: emit but never extend.
  };

  /// Min-heap over the deterministic SPScan total order (cost, vertex seq,
  /// edge seq — see ComparePathOrder). The tie-break makes serial emission
  /// and the parallel per-morsel merge produce the same sequence.
  struct CostOrder {
    bool operator()(const Candidate& a, const Candidate& b) const {
      return ComparePathOrder(a.path, b.path) > 0;
    }
  };

  /// One admissible one-edge extension of a path, as ExpandCore hands it to
  /// its sink. `sums` holds the extended path's running totals (one per
  /// spec sum-bound) and is only valid during the sink call.
  struct Extension {
    EdgeId edge = 0;
    VertexId nbr = 0;
    bool closing = false;
    double cost = 0.0;  ///< Accumulated cost of the extended path (SPScan).
    const double* sums = nullptr;
  };

  /// Frontier-entry footprint for the query-memory accountant.
  static size_t CandidateBytes(const PathData& path) {
    return 64 + path.vertexes.size() * sizeof(VertexId) +
           path.edges.size() * sizeof(EdgeId);
  }

  /// The engine loop behind Next and Count. Materializing (`out` set): stops
  /// at the next qualifying path and returns it. Counting (`out` null): runs
  /// to exhaustion, adding one to `*count` per qualifying path.
  virtual StatusOr<bool> Run(PathPtr* out, uint64_t* count);

  /// Builds `parent` extended by `ext` as a frontier Candidate.
  Candidate Extend(const Candidate& parent, const Extension& ext) const;

  /// Per-probe setup shared by every engine: drops the previous probe's
  /// state, evaluates the bound right-hand sides, decides visited_once_ and
  /// returns the distinct starts (ascending) that exist and pass the pushed
  /// position-0 vertex predicates.
  StatusOr<std::vector<VertexId>> ArmProbe(std::vector<VertexId> starts,
                                           std::optional<VertexId> target,
                                           const ExecRow* outer_row);

  /// SPScan heap.
  bool PopCandidate(Candidate* out);
  void PushCandidate(Candidate candidate);

  /// True when the candidate may be emitted (length window, target, pushed
  /// filters when running un-pushed, residual predicates, exact sum bounds).
  StatusOr<bool> Qualifies(const Candidate& candidate);

  /// The per-edge admission pipeline shared by the DFS/SPScan engines and
  /// the level-synchronous frontier kernel: edge-simple / vertex-simple /
  /// closing-cycle rules, pushed element filters, sum-bound accumulation and
  /// monotone pruning, SPScan weights. `already_visited(nbr)` implements the
  /// visited-once claim check (consulted only when visited_once_ is set, and
  /// only for non-closing extensions); `sink(const Extension&)` receives each
  /// admissible extension in neighbor-enumeration order and owns visited
  /// marking.
  ///
  /// Thread-safety: reads only const state (spec_, outer_row_,
  /// sum_bound_values_) plus the expansions_ map — which is SPScan-only, and
  /// SPScan never runs level-parallel — so concurrent workers may invoke
  /// this on a shared scanner as long as each passes its own `ctx` (stats,
  /// cancellation) and the visited set is frozen for the duration.
  template <typename Visited, typename Sink>
  Status ExpandCore(const Candidate& candidate, QueryContext* ctx,
                    Visited&& already_visited, Sink&& sink) {
    const VertexEntry* end = spec_->gv->FindVertex(candidate.path.EndVertex());
    if (end == nullptr) return Status::OK();  // Vertex deleted mid-query.

    const VertexId start = candidate.path.StartVertex();

    // SPScan expansion cap (classic k-shortest-paths pruning), counted per
    // (start, vertex) so every start enumerates its own k shortest paths
    // independently — identical under serial and per-morsel parallel
    // execution.
    if (spec_->physical == TraversalSpec::Physical::kShortestPath &&
        spec_->sp_expansion_cap != kNoMaxLength) {
      size_t& count = expansions_[{start, end->id}];
      if (++count > spec_->sp_expansion_cap) return Status::OK();
    }

    const size_t edge_index = candidate.path.Length();
    Status status = Status::OK();
    std::vector<double> sums(candidate.sums.size());

    spec_->gv->ForEachNeighbor(*end, [&](const EdgeEntry& edge, VertexId nbr) {
      ++ctx->stats().edges_examined;

      // Edge-simple: never reuse an edge within one path.
      if (std::find(candidate.path.edges.begin(), candidate.path.edges.end(),
                    edge.id) != candidate.path.edges.end()) {
        return true;
      }
      // Vertex-simple, with one exception: an edge closing a cycle back to
      // the start vertex is emitted (that is how sub-graph patterns like
      // triangles are matched, paper Listing 4) but never extended.
      bool closing = nbr == start && candidate.path.Length() >= 1;
      if (!closing) {
        if (std::find(candidate.path.vertexes.begin(),
                      candidate.path.vertexes.end(),
                      nbr) != candidate.path.vertexes.end()) {
          return true;
        }
        if (visited_once_ && already_visited(nbr)) return true;
      }

      std::copy(candidate.sums.begin(), candidate.sums.end(), sums.begin());
      if (spec_->push_filters) {
        if (edge_preds_) {
          auto edge_ok = EdgeAdmissible(edge, edge_index);
          if (!edge_ok.ok()) {
            status = edge_ok.status();
            return false;
          }
          if (!*edge_ok) {
            ++ctx->stats().paths_pruned;
            return true;
          }
        }
        const VertexEntry* nv =
            vertex_preds_ ? spec_->gv->FindVertex(nbr) : nullptr;
        if (nv != nullptr) {
          auto vertex_ok = VertexAdmissible(*nv, edge_index + 1);
          if (!vertex_ok.ok()) {
            status = vertex_ok.status();
            return false;
          }
          if (!*vertex_ok) {
            ++ctx->stats().paths_pruned;
            return true;
          }
        }
        // Accumulate sum bounds and prune monotone upper bounds early.
        for (size_t i = 0; i < spec_->sum_bounds.size(); ++i) {
          auto v =
              ExtractEdgeValue(*spec_->gv, edge, spec_->sum_bounds[i].attr);
          if (!v.ok()) {
            status = v.status();
            return false;
          }
          if (!v->is_null()) sums[i] += v->AsNumeric();
          CompareOp op = spec_->sum_bounds[i].op;
          double bound = sum_bound_values_[i];
          bool prune = (op == CompareOp::kLt && sums[i] >= bound) ||
                       (op == CompareOp::kLe && sums[i] > bound);
          if (prune) {
            ++ctx->stats().paths_pruned;
            return true;
          }
        }
      } else {
        // Pushdown disabled (ablation / paper §7.1 control): still
        // accumulate sums so emission checks stay exact.
        for (size_t i = 0; i < spec_->sum_bounds.size(); ++i) {
          auto v =
              ExtractEdgeValue(*spec_->gv, edge, spec_->sum_bounds[i].attr);
          if (!v.ok()) {
            status = v.status();
            return false;
          }
          if (!v->is_null()) sums[i] += v->AsNumeric();
        }
      }

      Extension next;
      next.edge = edge.id;
      next.nbr = nbr;
      next.closing = closing;
      next.cost = candidate.path.accumulated_cost;
      next.sums = sums.data();

      if (spec_->physical == TraversalSpec::Physical::kShortestPath) {
        auto w = ExtractEdgeValue(*spec_->gv, edge, spec_->sp_attr);
        if (!w.ok()) {
          status = w.status();
          return false;
        }
        if (w->is_null() || w->AsNumeric() < 0) {
          status = Status::InvalidArgument(
              "SHORTESTPATH requires a non-null, non-negative edge attribute");
          return false;
        }
        next.cost += w->AsNumeric();
      }

      sink(next);
      return true;
    });
    return status;
  }

  /// Incremental checks for appending `edge`->`next_vertex` at position
  /// `edge_index`; false means the branch is pruned.
  StatusOr<bool> EdgeAdmissible(const EdgeEntry& edge, size_t edge_index);
  StatusOr<bool> VertexAdmissible(const VertexEntry& vertex,
                                  size_t vertex_index);

  std::shared_ptr<const TraversalSpec> spec_;
  QueryContext* ctx_;
  /// Whether the spec pushes edge / vertex element predicates; without any,
  /// the per-edge admission skips their lookups.
  bool edge_preds_ = false;
  bool vertex_preds_ = false;

  const ExecRow* outer_row_ = nullptr;
  std::optional<VertexId> target_;
  std::vector<double> sum_bound_values_;  ///< Bounds evaluated per probe.
  /// This probe's length window: the spec's, narrowed by its length bounds.
  size_t min_length_ = 1;
  size_t max_length_ = kNoMaxLength;
  /// This probe runs visited-once: the spec's global_visited, unless the
  /// target is one of the starts and the forest could hide the answer (see
  /// ArmProbe).
  bool visited_once_ = false;

  std::priority_queue<Candidate, std::vector<Candidate>, CostOrder> heap_;
  std::unordered_set<VertexId> visited_;      ///< Visited-once claims.
  /// SPScan expansion cap, counted per (start, vertex): each start's
  /// k-shortest enumeration is independent of the other starts, so a
  /// multi-source probe gives the same answers whether the starts run in one
  /// shared frontier (serial) or in per-morsel scanners (parallel).
  std::map<std::pair<VertexId, VertexId>, size_t> expansions_;
  size_t charged_ = 0;  ///< Bytes currently charged for the frontier.

 private:
  /// DFS with one current path extended in place.
  StatusOr<bool> RunDfs(PathPtr* out, uint64_t* count);
  /// SPScan over the Candidate heap.
  StatusOr<bool> RunShortestPath(PathPtr* out, uint64_t* count);

  /// A pending DFS extension (its sums live in the frame's flat `sums`).
  struct DfsStep {
    EdgeId edge = 0;
    VertexId nbr = 0;
    bool closing = false;
  };
  /// The pending extensions of one DFS depth: frame d extends the current
  /// path's first d vertexes (frame 0 holds the start vertexes).
  struct DfsFrame {
    std::vector<DfsStep> steps;  ///< Popped from the back.
    std::vector<double> sums;    ///< steps.size() x sum-bound count.
    size_t charged = 0;          ///< Bytes charged for the frame's steps.
  };
  /// Memory charged per pending DFS extension.
  size_t DfsStepBytes() const {
    return sizeof(DfsStep) + spec_->sum_bounds.size() * sizeof(double);
  }
  /// Appends a pending extension to `frame` (ChargeDfsFrame charges it).
  void PushDfsStep(DfsFrame* frame, EdgeId edge, VertexId nbr, bool closing,
                   const double* sums);
  /// Charges a freshly filled frame's extensions to the memory budget in one
  /// call; ReleaseDfsFrame returns them once the frame is exhausted. One
  /// charge per expansion instead of one per extension keeps parallel
  /// workers off the shared budget's atomic counter.
  void ChargeDfsFrame(DfsFrame* frame);
  void ReleaseDfsFrame(DfsFrame* frame);

  Candidate dfs_path_;  ///< The current DFS path, extended in place.
  /// Frames [0, dfs_depth_) are live; deeper ones keep their capacity.
  std::vector<DfsFrame> dfs_frames_;
  size_t dfs_depth_ = 0;
  size_t dfs_pending_ = 0;  ///< Pending extensions over all live frames.
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_PATH_SCANNER_H_
