#ifndef GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_
#define GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_

#include <memory>
#include <optional>
#include <vector>

#include "graphexec/path_scanner.h"

namespace grfusion {

/// The BFScan engine: a level-synchronous BFS. Instead of popping one
/// candidate at a time, it holds a whole depth level in a double-buffered
/// frontier and alternates two phases:
///
///  - Phase A walks the current level in order, qualifying and emitting
///    paths. Because a level is fully emitted *before* any deeper expansion
///    happens, a LIMIT-k consumer stops the traversal without paying for the
///    next level — the common reachability probe (LIMIT 1) touches exactly
///    the levels up to the witness path.
///  - Phase B expands the whole level through the shared ExpandCore
///    admission pipeline into the next-level buffer. When the level is large
///    enough and a task pool is available, expansion runs morsel-parallel
///    over the frontier array; per-candidate child lists are then merged on
///    the coordinating thread in (candidate, neighbor) order, applying
///    visited-once claims first-occurrence-wins. That merge order equals
///    the serial claim order, so the kernel returns byte-identical results
///    at any worker count — including in visited-once mode, which the
///    per-path fan-out (ParallelPathProbe) must refuse.
///
/// The emission order is level order: starts ascending, then per hop the
/// neighbor-enumeration order of each frontier path in turn (DESIGN §14).
///
/// In visited-once mode over a pure-CSR topology the visited set is a dense
/// bitmap indexed by CSR position rather than a hash set — and the kernel
/// drops the Candidate machinery entirely: because every vertex is claimed
/// at most once, the traversal is a BFS forest, so levels are flat arrays of
/// claim events carrying parent pointers (CSR indexes) instead of
/// materialized path prefixes. A path is reconstructed from the parent chain
/// only when an event survives the cheap length/target pre-filters — the
/// reachability probe reconstructs exactly one. Admission per edge (pushed
/// filters, sum bounds, the closing-cycle rule) mirrors ExpandCore statement
/// for statement, so results stay byte-identical with the Candidate levels.
///
/// A BFS-forest probe with a bound target that is not one of its starts
/// (and no sum bounds) runs bidirectionally instead: the forward side
/// expands from the starts, the backward side from the target over the
/// reverse adjacency, always the side whose level has the smaller adjacency
/// volume, until the two balls touch. The witness it reconstructs is the
/// path the one-sided forest would have emitted (DESIGN §14).
class FrontierScanner : public PathScanner {
 public:
  FrontierScanner(std::shared_ptr<const TraversalSpec> spec, QueryContext* ctx)
      : PathScanner(std::move(spec), ctx) {}

  Status Reset(std::vector<VertexId> starts, std::optional<VertexId> target,
               const ExecRow* outer_row) override;
  void Release() override;
  void Rebind(QueryContext* ctx) override {
    PathScanner::Rebind(ctx);
    bidir_probes_ = 0;
  }

  /// Probes answered by the bidirectional search since the last Rebind.
  uint64_t bidir_probes() const { return bidir_probes_; }

 protected:
  StatusOr<bool> Run(PathPtr* out, uint64_t* count) override;

 private:
  /// Expands every extendable candidate of `current_` into `next_`.
  Status ExpandLevel();
  Status ExpandLevelSerial();
  Status ExpandLevelParallel();

  std::vector<Candidate> current_;   ///< The level being emitted/expanded.
  std::vector<Candidate> next_;      ///< The level under construction.
  size_t qualify_cursor_ = 0;        ///< Phase-A resume point in current_.

  /// The BFS forest's snapshot and its dense visited bitmap over CSR
  /// positions (set only on the fast path below). Candidate levels keep
  /// visited-once claims in the inherited visited_ hash set.
  const CsrTopology* csr_ = nullptr;
  std::vector<char> visited_map_;

  // --- Index-addressed BFS-forest fast path (visited-once + pure CSR) ---

  /// One frontier slot: a vertex claimed at this depth, or a cycle closing
  /// back to its tree root (emitted, never expanded).
  struct FastEvent {
    uint32_t vertex = 0;        ///< CSR index: claimed vertex / closing's source.
    EdgeId closing_edge = 0;    ///< The cycle-closing edge (closing only).
    bool closing = false;
    std::vector<double> sums;   ///< Closing-path sums (closing only).
  };
  static constexpr uint32_t kNoParent = static_cast<uint32_t>(-1);

  /// Accounting footprint of one frontier event.
  static size_t FastEventBytes(size_t bounds) {
    return sizeof(FastEvent) + bounds * sizeof(double);
  }

  StatusOr<bool> FastRun(PathPtr* out, uint64_t* count);
  Status FastExpandLevel();
  /// Materializes the event's path (parent-chain walk) and its sums as a
  /// Candidate, for the shared Qualifies pipeline and emission.
  Candidate FastMaterialize(const FastEvent& ev) const;

  /// Arms the one-sided forest over the seeds in fwd_.level: per-vertex
  /// parent/root/sum arrays and the level-0 claim events.
  void ArmForest();

  // --- Bidirectional probe (BFS forest + bound target) ---

  /// visited_map_ bits while a bidirectional probe runs.
  static constexpr char kForwardSide = 1;
  static constexpr char kBackwardSide = 2;

  /// One side of the search: its current level (CSR indexes in claim
  /// order), the level under construction, the radius (depth of `level`)
  /// and the adjacency volume of `level`.
  struct BidirSide {
    std::vector<uint32_t> level, next;
    size_t radius = 0;
    size_t volume = 0;
  };

  /// Emits the probe's witness (or nothing) on the first call, then ends.
  StatusOr<bool> BidirRun(PathPtr* out);
  /// Expands one whole level of a side. `*meet` receives the first vertex
  /// that side claims which the other side holds already (kNoParent if
  /// none); the forward side stops right there, the backward side finishes
  /// its level.
  Status BidirExpand(bool forward, uint32_t* meet);
  /// Degree of CSR index `i` on the forward or backward side.
  size_t BidirDegree(size_t i, bool forward) const;
  /// The forest prefix to `x` followed by the greedy descent to the target.
  StatusOr<Candidate> BidirWitness(uint32_t x);

  bool bidir_ = false;       ///< Bidirectional probe armed by Reset.
  bool bidir_done_ = false;  ///< Its one witness was already produced.
  uint64_t bidir_probes_ = 0;
  BidirSide fwd_, bwd_;
  /// Per CSR index, allocated for overwrite: an entry is written when its
  /// side claims the vertex and read only after that (visited_map_ says
  /// which entries are live), so no probe pays an O(V) fill for them.
  std::unique_ptr<uint32_t[]> bidir_parent_;
  std::unique_ptr<EdgeId[]> bidir_parent_edge_;
  std::unique_ptr<uint32_t[]> bidir_depth_;  ///< Hops to the target.
  size_t bidir_capacity_ = 0;

  bool fast_ = false;          ///< Fast path armed by Reset.
  size_t fast_level_ = 0;      ///< Depth (= path length) of fast_current_.
  std::vector<FastEvent> fast_current_, fast_next_;
  std::vector<uint32_t> fast_parent_;     ///< Per CSR index; kNoParent = root.
  std::vector<EdgeId> fast_parent_edge_;  ///< Tree edge that claimed it.
  std::vector<VertexId> fast_root_;       ///< Tree root (the path's start).
  std::vector<double> fast_sums_;         ///< Vertex-major, B per vertex.
};

}  // namespace grfusion

#endif  // GRFUSION_GRAPHEXEC_FRONTIER_SCANNER_H_
