#include "graphexec/frontier_scanner.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "common/task_pool.h"

namespace grfusion {

Status FrontierScanner::Reset(std::vector<VertexId> starts,
                              std::optional<VertexId> target,
                              const ExecRow* outer_row) {
  current_.clear();
  next_.clear();
  qualify_cursor_ = 0;
  csr_ = nullptr;
  visited_map_.clear();
  fast_ = false;
  fast_level_ = 0;
  fast_current_.clear();
  fast_next_.clear();
  bidir_ = false;
  bidir_done_ = false;
  for (BidirSide* side : {&fwd_, &bwd_}) {
    side->level.clear();
    side->next.clear();
    side->radius = 0;
    side->volume = 0;
  }
  const bool target_is_start =
      target.has_value() &&
      std::find(starts.begin(), starts.end(), *target) != starts.end();
  GRF_ASSIGN_OR_RETURN(starts,
                       ArmProbe(std::move(starts), target, outer_row));
  ctx_->stats().NoteFrontier(starts.size());
  if (visited_once_ && spec_->gv->PureCsr() &&
      spec_->gv->csr()->NumVertexes() < static_cast<size_t>(kNoParent)) {
    // BFS-forest fast path: level 0 is the starts' CSR indexes, claimed.
    csr_ = spec_->gv->csr();
    visited_map_.assign(csr_->NumVertexes(), 0);
    fast_ = true;
    for (VertexId id : starts) {
      const size_t i = csr_->IndexOf(id);
      if (i == CsrTopology::kAbsent) continue;
      visited_map_[i] = kForwardSide;
      fwd_.level.push_back(static_cast<uint32_t>(i));
    }

    // A bound target that is not a start, without sum bounds (which need a
    // full prefix per vertex) and with only position-free pushed predicates
    // (the backward side cannot know an element's position): meet in the
    // middle. Every other forest probe keeps the one-sided loop.
    const auto& preds = spec_->element_preds;
    const bool position_free =
        !spec_->push_filters ||
        std::all_of(preds.begin(), preds.end(), [](const auto& pred) {
          return pred->lo() == 0 &&
                 pred->hi() == PathRangePredicateExpr::kOpenEnd;
        });
    if (target_.has_value() && !target_is_start &&
        spec_->sum_bounds.empty() && position_free) {
      bidir_ = true;
      const size_t v_count = csr_->NumVertexes();
      if (bidir_capacity_ < v_count) {
        bidir_parent_ = std::make_unique_for_overwrite<uint32_t[]>(v_count);
        bidir_parent_edge_ =
            std::make_unique_for_overwrite<EdgeId[]>(v_count);
        bidir_depth_ = std::make_unique_for_overwrite<uint32_t[]>(v_count);
        bidir_capacity_ = v_count;
      }
      for (uint32_t i : fwd_.level) {
        bidir_parent_[i] = kNoParent;
        fwd_.volume += BidirDegree(i, /*forward=*/true);
      }
      const size_t array_bytes =
          v_count * (1 + 2 * sizeof(uint32_t) + sizeof(EdgeId)) +
          fwd_.level.size() * sizeof(uint32_t);
      charged_ += array_bytes;
      (void)ctx_->ChargeBytes(array_bytes);
    } else {
      ArmForest();
    }
    return Status::OK();
  }

  // Candidate levels: level 0 is one single-vertex path per start.
  if (visited_once_) visited_.insert(starts.begin(), starts.end());
  const size_t bounds = spec_->sum_bounds.size();
  for (VertexId start : starts) {
    Candidate seed;
    seed.path.vertexes.push_back(start);
    seed.sums.assign(bounds, 0.0);
    const size_t bytes = CandidateBytes(seed.path);
    charged_ += bytes;
    (void)ctx_->ChargeBytes(bytes);
    current_.push_back(std::move(seed));
  }
  return Status::OK();
}

void FrontierScanner::ArmForest() {
  bidir_ = false;
  fast_level_ = 0;
  const size_t v_count = csr_->NumVertexes();
  const size_t bounds = spec_->sum_bounds.size();
  fast_parent_.assign(v_count, kNoParent);
  fast_parent_edge_.assign(v_count, 0);
  fast_root_.assign(v_count, 0);
  fast_sums_.assign(v_count * bounds, 0.0);  // Seeds start at zero sums.
  fast_current_.clear();
  fast_next_.clear();
  for (uint32_t i : fwd_.level) {
    fast_root_[i] = csr_->vertex_ids[i];
    FastEvent ev;
    ev.vertex = i;
    fast_current_.push_back(std::move(ev));
  }
  const size_t array_bytes =
      v_count * (sizeof(uint32_t) + sizeof(EdgeId) + sizeof(VertexId) + 1 +
                 bounds * sizeof(double)) +
      fast_current_.size() * FastEventBytes(bounds);
  charged_ += array_bytes;
  (void)ctx_->ChargeBytes(array_bytes);
}

void FrontierScanner::Release() {
  current_.clear();
  next_.clear();
  qualify_cursor_ = 0;
  csr_ = nullptr;
  visited_map_.clear();
  fast_ = false;
  fast_level_ = 0;
  fast_current_.clear();
  fast_next_.clear();
  fast_parent_.clear();
  fast_parent_edge_.clear();
  fast_root_.clear();
  fast_sums_.clear();
  bidir_ = false;
  fwd_ = BidirSide();
  bwd_ = BidirSide();
  bidir_parent_.reset();
  bidir_parent_edge_.reset();
  bidir_depth_.reset();
  bidir_capacity_ = 0;
  PathScanner::Release();
}

StatusOr<bool> FrontierScanner::Run(PathPtr* out, uint64_t* count) {
  if (bidir_) {
    if (out != nullptr) return BidirRun(out);
    ArmForest();  // Count mode runs the one-sided forest to exhaustion.
  }
  if (fast_) return FastRun(out, count);
  while (true) {
    // Phase A: qualify and emit the current level, in frontier order, before
    // any deeper expansion. A LIMIT-k consumer that stops pulling here never
    // pays for the next level.
    while (qualify_cursor_ < current_.size()) {
      GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      Candidate& candidate = current_[qualify_cursor_];
      ++qualify_cursor_;
      ++ctx_->stats().vertexes_expanded;
      GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(candidate));
      if (qualifies) {
        ++ctx_->stats().paths_emitted;
        if (out == nullptr) {
          ++*count;
          continue;
        }
        if (candidate.closing || candidate.path.Length() >= max_length_) {
          // Phase B never touches this candidate again — hand the path over
          // instead of copying it, and settle its charge now (retirement
          // releases the empty husk's 64 bytes).
          const size_t bytes = CandidateBytes(candidate.path);
          *out = std::make_shared<const PathData>(std::move(candidate.path));
          candidate.path = PathData();
          candidate.closing = true;  // Keep it out of Phase B expansion.
          const size_t moved = bytes - CandidateBytes(candidate.path);
          ctx_->ReleaseBytes(moved);
          charged_ -= std::min(charged_, moved);
        } else {
          *out = std::make_shared<const PathData>(candidate.path);
        }
        return true;
      }
    }
    if (current_.empty()) return false;

    // Phase B: batch-expand the whole level, then retire it.
    GRF_RETURN_IF_ERROR(ExpandLevel());
    for (const Candidate& candidate : current_) {
      const size_t bytes = CandidateBytes(candidate.path);
      ctx_->ReleaseBytes(bytes);
      charged_ -= std::min(charged_, bytes);
    }
    current_.swap(next_);  // Both buffers keep their capacity.
    next_.clear();
    qualify_cursor_ = 0;
  }
}

Status FrontierScanner::ExpandLevel() {
  next_.clear();
  // Morsel-parallel expansion pays task dispatch plus a merge; small levels
  // run serially. The switch never changes results (the merge reproduces
  // the serial claim order), so the threshold is purely a cost knob.
  if (ctx_->parallel_enabled() &&
      current_.size() >= std::max<size_t>(2, ctx_->parallel_min_starts())) {
    return ExpandLevelParallel();
  }
  return ExpandLevelSerial();
}

Status FrontierScanner::ExpandLevelSerial() {
  for (const Candidate& candidate : current_) {
    if (candidate.closing || candidate.path.Length() >= max_length_) {
      continue;
    }
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    GRF_RETURN_IF_ERROR(ExpandCore(
        candidate, ctx_,
        [this](VertexId nbr) { return visited_.count(nbr) > 0; },
        [&](const Extension& ext) {
          if (visited_once_ && !ext.closing) visited_.insert(ext.nbr);
          Candidate next = Extend(candidate, ext);
          const size_t bytes = CandidateBytes(next.path);
          charged_ += bytes;
          (void)ctx_->ChargeBytes(bytes);
          next_.push_back(std::move(next));
        }));
    if (ctx_->current_bytes() > ctx_->memory_cap()) {
      return Status::ResourceExhausted(
          "traversal frontier exceeded the query memory cap");
    }
  }
  ctx_->stats().NoteFrontier(current_.size() + next_.size());
  return Status::OK();
}

Status FrontierScanner::ExpandLevelParallel() {
  const size_t n = current_.size();
  const size_t k = ctx_->max_parallelism();
  // ~4 morsels per worker so stealing can rebalance degree skew, capped so
  // small levels still split.
  const size_t morsel_size =
      std::max<size_t>(1, std::min<size_t>(64, (n + 4 * k - 1) / (4 * k)));
  const size_t num_morsels = (n + morsel_size - 1) / morsel_size;

  std::vector<std::vector<Candidate>> children(n);
  std::vector<Status> statuses(num_morsels, Status::OK());
  std::vector<ExecStats> worker_stats(num_morsels);
  std::vector<size_t> worker_peaks(num_morsels, 0);
  std::atomic<bool> abort{false};
  // Workers charge against the query's remaining headroom so the memory cap
  // stays a per-query guarantee (same protocol as ParallelPathProbe).
  SharedMemoryBudget budget(ctx_->remaining_budget());

  Status submitted = ParallelFor(
      ctx_->task_pool(), n, morsel_size, [&](size_t begin, size_t end) {
        const size_t m = begin / morsel_size;
        QueryContext wctx(ctx_->memory_cap());
        wctx.set_shared_budget(&budget);
        wctx.set_trace(ctx_->trace());
        wctx.set_cancellation(ctx_->cancellation());
        wctx.set_snapshot_epoch(ctx_->snapshot_epoch());
        wctx.set_include_open(ctx_->include_open());
        // Pin the pool thread to the statement's MVCC snapshot
        // (GraphReadScope is thread-local and does not propagate here).
        GraphReadScope graph_scope(ctx_->snapshot_epoch(),
                                   ctx_->include_open());
        for (size_t i = begin;
             i < end && !abort.load(std::memory_order_relaxed); ++i) {
          const Candidate& candidate = current_[i];
          if (candidate.closing || candidate.path.Length() >= max_length_) {
            continue;
          }
          Status st = wctx.CheckInterrupt();
          if (st.ok()) {
            // The shared visited state is frozen for the level; `local`
            // replicates the serial rule that the candidate's own earlier
            // extension already claimed the vertex. Cross-candidate claims
            // are resolved deterministically at merge time.
            std::vector<VertexId> local;
            Status charge_failure;
            st = ExpandCore(
                candidate, &wctx,
                [&](VertexId nbr) {
                  return visited_.count(nbr) > 0 ||
                         std::find(local.begin(), local.end(), nbr) !=
                             local.end();
                },
                [&](const Extension& ext) {
                  if (visited_once_ && !ext.closing) {
                    local.push_back(ext.nbr);
                  }
                  Candidate next = Extend(candidate, ext);
                  Status charge =
                      wctx.ChargeBytes(CandidateBytes(next.path));
                  if (!charge.ok() && charge_failure.ok()) {
                    charge_failure = charge;
                  }
                  children[i].push_back(std::move(next));
                });
            if (st.ok()) st = charge_failure;
          }
          if (!st.ok()) {
            statuses[m] = st;
            abort.store(true, std::memory_order_relaxed);
            break;
          }
        }
        worker_stats[m] = wctx.stats();
        worker_peaks[m] = wctx.peak_bytes();
      });
  for (const ExecStats& s : worker_stats) ctx_->stats().MergeFrom(s);
  for (size_t p : worker_peaks) ctx_->FoldChildPeak(p);
  GRF_RETURN_IF_ERROR(submitted);
  for (const Status& st : statuses) GRF_RETURN_IF_ERROR(st);

  // Deterministic merge: apply visited claims in (candidate, neighbor)
  // order — exactly the order the serial loop would have claimed them — so
  // the surviving set and its sequence do not depend on the worker count.
  for (size_t i = 0; i < n; ++i) {
    for (Candidate& next : children[i]) {
      if (visited_once_ && !next.closing &&
          !visited_.insert(next.path.EndVertex()).second) {
        continue;
      }
      const size_t bytes = CandidateBytes(next.path);
      charged_ += bytes;
      (void)ctx_->ChargeBytes(bytes);
      next_.push_back(std::move(next));
    }
  }
  ctx_->stats().NoteFrontier(current_.size() + next_.size());
  if (ctx_->current_bytes() > ctx_->memory_cap()) {
    return Status::ResourceExhausted(
        "traversal frontier exceeded the query memory cap");
  }
  return Status::OK();
}

// --- BFS-forest fast path --------------------------------------------------

StatusOr<bool> FrontierScanner::FastRun(PathPtr* out, uint64_t* count) {
  while (true) {
    while (qualify_cursor_ < fast_current_.size()) {
      GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
      const FastEvent& ev = fast_current_[qualify_cursor_];
      ++qualify_cursor_;
      ++ctx_->stats().vertexes_expanded;
      // Cheap pre-filters replicating Qualifies' first two rejections, so a
      // path is materialized only for plausible emissions (a reachability
      // probe materializes exactly one).
      const size_t len = fast_level_;
      if (len < min_length_ || len > max_length_) continue;
      if (target_.has_value()) {
        const VertexId endv = ev.closing ? fast_root_[ev.vertex]
                                         : csr_->vertex_ids[ev.vertex];
        if (endv != *target_) continue;
      }
      Candidate candidate = FastMaterialize(ev);
      GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(candidate));
      if (qualifies) {
        ++ctx_->stats().paths_emitted;
        if (out == nullptr) {
          ++*count;
          continue;
        }
        *out = std::make_shared<const PathData>(std::move(candidate.path));
        return true;
      }
    }
    if (fast_current_.empty()) return false;

    GRF_RETURN_IF_ERROR(FastExpandLevel());
    const size_t bounds = spec_->sum_bounds.size();
    const size_t retired = fast_current_.size() * FastEventBytes(bounds);
    ctx_->ReleaseBytes(retired);
    charged_ -= std::min(charged_, retired);
    fast_current_ = std::move(fast_next_);
    fast_next_.clear();
    qualify_cursor_ = 0;
    ++fast_level_;
  }
}

Status FrontierScanner::FastExpandLevel() {
  fast_next_.clear();
  const size_t bounds = spec_->sum_bounds.size();
  std::vector<double> sums(bounds);
  for (const FastEvent& ev : fast_current_) {
    if (ev.closing || fast_level_ >= max_length_) continue;
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    const uint32_t u = ev.vertex;
    const VertexId root = fast_root_[u];
    const size_t edge_index = fast_level_;
    Status status = Status::OK();
    spec_->gv->ForEachNeighbor(
        spec_->gv->CsrVertex(u), [&](const EdgeEntry& edge, VertexId nbr) {
          ++ctx_->stats().edges_examined;

          // The admission pipeline below mirrors ExpandCore under the fast
          // path's preconditions. Edge-simple and vertex-simple collapse:
          // every vertex on a tree path is globally claimed, so any edge
          // already on the path leads to a claimed vertex; the one edge the
          // visited test cannot see is a depth-1 cycle reusing the claiming
          // edge itself, rejected explicitly.
          const bool closing = nbr == root && fast_level_ >= 1;
          size_t j = CsrTopology::kAbsent;
          if (closing) {
            if (fast_level_ == 1 && fast_parent_edge_[u] == edge.id) {
              return true;
            }
          } else {
            j = csr_->IndexOf(nbr);
            if (j == CsrTopology::kAbsent || visited_map_[j] != 0) {
              return true;
            }
          }

          for (size_t b = 0; b < bounds; ++b) {
            sums[b] = fast_sums_[u * bounds + b];
          }
          if (spec_->push_filters) {
            if (edge_preds_) {
              auto edge_ok = EdgeAdmissible(edge, edge_index);
              if (!edge_ok.ok()) {
                status = edge_ok.status();
                return false;
              }
              if (!*edge_ok) {
                ++ctx_->stats().paths_pruned;
                return true;
              }
            }
            const size_t nj = !vertex_preds_ ? CsrTopology::kAbsent
                              : closing      ? csr_->IndexOf(nbr)
                                             : j;
            if (nj != CsrTopology::kAbsent) {
              auto vertex_ok =
                  VertexAdmissible(spec_->gv->CsrVertex(nj), edge_index + 1);
              if (!vertex_ok.ok()) {
                status = vertex_ok.status();
                return false;
              }
              if (!*vertex_ok) {
                ++ctx_->stats().paths_pruned;
                return true;
              }
            }
            for (size_t b = 0; b < bounds; ++b) {
              auto v = ExtractEdgeValue(*spec_->gv, edge,
                                        spec_->sum_bounds[b].attr);
              if (!v.ok()) {
                status = v.status();
                return false;
              }
              if (!v->is_null()) sums[b] += v->AsNumeric();
              const CompareOp op = spec_->sum_bounds[b].op;
              const double bound = sum_bound_values_[b];
              const bool prune =
                  (op == CompareOp::kLt && sums[b] >= bound) ||
                  (op == CompareOp::kLe && sums[b] > bound);
              if (prune) {
                ++ctx_->stats().paths_pruned;
                return true;
              }
            }
          } else {
            for (size_t b = 0; b < bounds; ++b) {
              auto v = ExtractEdgeValue(*spec_->gv, edge,
                                        spec_->sum_bounds[b].attr);
              if (!v.ok()) {
                status = v.status();
                return false;
              }
              if (!v->is_null()) sums[b] += v->AsNumeric();
            }
          }

          FastEvent next;
          if (closing) {
            next.vertex = u;
            next.closing_edge = edge.id;
            next.closing = true;
            next.sums.assign(sums.begin(), sums.end());
          } else {
            visited_map_[j] = 1;
            fast_parent_[j] = u;
            fast_parent_edge_[j] = edge.id;
            fast_root_[j] = root;
            for (size_t b = 0; b < bounds; ++b) {
              fast_sums_[j * bounds + b] = sums[b];
            }
            next.vertex = static_cast<uint32_t>(j);
          }
          const size_t bytes = FastEventBytes(bounds);
          charged_ += bytes;
          (void)ctx_->ChargeBytes(bytes);
          fast_next_.push_back(std::move(next));
          return true;
        });
    GRF_RETURN_IF_ERROR(status);
    if (ctx_->current_bytes() > ctx_->memory_cap()) {
      return Status::ResourceExhausted(
          "traversal frontier exceeded the query memory cap");
    }
  }
  ctx_->stats().NoteFrontier(fast_current_.size() + fast_next_.size());
  return Status::OK();
}

PathScanner::Candidate FrontierScanner::FastMaterialize(
    const FastEvent& ev) const {
  Candidate candidate;
  candidate.closing = ev.closing;
  std::vector<VertexId>& vs = candidate.path.vertexes;
  std::vector<EdgeId>& es = candidate.path.edges;
  for (uint32_t v = ev.vertex;;) {
    vs.push_back(csr_->vertex_ids[v]);
    const uint32_t parent = fast_parent_[v];
    if (parent == kNoParent) break;
    es.push_back(fast_parent_edge_[v]);
    v = parent;
  }
  std::reverse(vs.begin(), vs.end());
  std::reverse(es.begin(), es.end());
  const size_t bounds = spec_->sum_bounds.size();
  if (ev.closing) {
    es.push_back(ev.closing_edge);
    vs.push_back(fast_root_[ev.vertex]);
    candidate.sums = ev.sums;
  } else {
    candidate.sums.assign(
        fast_sums_.begin() +
            static_cast<std::ptrdiff_t>(ev.vertex * bounds),
        fast_sums_.begin() +
            static_cast<std::ptrdiff_t>((ev.vertex + 1) * bounds));
  }
  return candidate;
}

// --- Bidirectional probe ---------------------------------------------------
//
// The one-sided forest claims every vertex once, in level order, from the
// first admissible edge (in enumeration order) of the first vertex of the
// previous level that reaches it. Level order is therefore lexicographic
// order of the tree paths (by start, then adjacency position per hop), and
// the emitted witness is the lexicographically first minimum-hop path to
// the target. With every pushed predicate position-free, the bidirectional
// search below reproduces that path exactly: the forward side is the same
// forest up to the meeting depth, so its level order and parents agree;
// the witness's prefix is the tree path to the first vertex of that level
// with a backward depth that completes a minimum-hop path, and its suffix is
// the greedy descent (first admissible edge towards backward depth - 1).

size_t FrontierScanner::BidirDegree(size_t i, bool forward) const {
  const size_t out = csr_->OutEnd(i) - csr_->OutBegin(i);
  const size_t in = csr_->InEnd(i) - csr_->InBegin(i);
  if (!spec_->gv->directed()) return out + in;
  return forward ? out : in;
}

StatusOr<bool> FrontierScanner::BidirRun(PathPtr* out) {
  if (bidir_done_) return false;
  bidir_done_ = true;
  ++bidir_probes_;

  const size_t t = csr_->IndexOf(*target_);
  if (t == CsrTopology::kAbsent) return false;
  if (spec_->push_filters && vertex_preds_) {
    GRF_ASSIGN_OR_RETURN(bool ok,
                         VertexAdmissible(spec_->gv->CsrVertex(t), 1));
    if (!ok) {
      ++ctx_->stats().paths_pruned;
      return false;
    }
  }
  visited_map_[t] |= kBackwardSide;
  bidir_depth_[t] = 0;
  bwd_.level.push_back(static_cast<uint32_t>(t));
  bwd_.volume = BidirDegree(t, /*forward=*/false);
  charged_ += sizeof(uint32_t);
  (void)ctx_->ChargeBytes(sizeof(uint32_t));

  // Invariant between steps: the forward ball of radius fwd_.radius and the
  // backward ball of radius bwd_.radius share no vertex, so every path is
  // longer than the two radii together.
  uint32_t meet = kNoParent;
  while (meet == kNoParent) {
    if (fwd_.level.empty() || bwd_.level.empty()) return false;
    if (fwd_.radius + bwd_.radius >= max_length_) return false;
    const bool forward = fwd_.volume <= bwd_.volume;
    GRF_RETURN_IF_ERROR(BidirExpand(forward, &meet));
    if (meet != kNoParent && !forward) {
      // The backward level is complete, so every forward-frontier vertex on
      // a minimum-hop path carries the backward bit: take the first one.
      for (uint32_t x : fwd_.level) {
        if ((visited_map_[x] & kBackwardSide) != 0) {
          meet = x;
          break;
        }
      }
    }
  }
  // The balls touched at `meet`: forward depth fwd_.radius, backward depth
  // bwd_.radius, and no shorter path exists.
  const size_t length = fwd_.radius + bidir_depth_[meet];
  if (length < min_length_ || length > max_length_) return false;
  GRF_ASSIGN_OR_RETURN(Candidate candidate, BidirWitness(meet));
  GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(candidate));
  if (!qualifies) return false;
  ++ctx_->stats().paths_emitted;
  *out = std::make_shared<const PathData>(std::move(candidate.path));
  return true;
}

Status FrontierScanner::BidirExpand(bool forward, uint32_t* meet) {
  BidirSide& side = forward ? fwd_ : bwd_;
  const char mine = forward ? kForwardSide : kBackwardSide;
  const char theirs = forward ? kBackwardSide : kForwardSide;
  const uint32_t depth = static_cast<uint32_t>(side.radius + 1);
  side.next.clear();
  size_t volume = 0;
  *meet = kNoParent;
  for (uint32_t u : side.level) {
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    ++ctx_->stats().vertexes_expanded;
    Status status = Status::OK();
    // Same admission as the forest's: pushed predicates are position-free
    // here, so the edge index passed is only a placeholder.
    auto claim = [&](const EdgeEntry& edge, VertexId nbr) {
      ++ctx_->stats().edges_examined;
      const size_t j = csr_->IndexOf(nbr);
      if (j == CsrTopology::kAbsent || (visited_map_[j] & mine) != 0) {
        return true;
      }
      if (spec_->push_filters) {
        if (edge_preds_) {
          auto edge_ok = EdgeAdmissible(edge, side.radius);
          if (!edge_ok.ok()) {
            status = edge_ok.status();
            return false;
          }
          if (!*edge_ok) {
            ++ctx_->stats().paths_pruned;
            return true;
          }
        }
        if (vertex_preds_) {
          auto vertex_ok =
              VertexAdmissible(spec_->gv->CsrVertex(j), side.radius + 1);
          if (!vertex_ok.ok()) {
            status = vertex_ok.status();
            return false;
          }
          if (!*vertex_ok) {
            ++ctx_->stats().paths_pruned;
            return true;
          }
        }
      }
      visited_map_[j] |= mine;
      if (forward) {
        bidir_parent_[j] = u;
        bidir_parent_edge_[j] = edge.id;
      } else {
        bidir_depth_[j] = depth;
      }
      side.next.push_back(static_cast<uint32_t>(j));
      volume += BidirDegree(j, forward);
      charged_ += sizeof(uint32_t);
      (void)ctx_->ChargeBytes(sizeof(uint32_t));
      if ((visited_map_[j] & theirs) != 0 && *meet == kNoParent) {
        *meet = static_cast<uint32_t>(j);
        return !forward;
      }
      return true;
    };
    const VertexEntry& v = spec_->gv->CsrVertex(u);
    if (forward) {
      spec_->gv->ForEachNeighbor(v, claim);
    } else {
      spec_->gv->ForEachReverseNeighbor(v, claim);
    }
    GRF_RETURN_IF_ERROR(status);
    if (ctx_->current_bytes() > ctx_->memory_cap()) {
      return Status::ResourceExhausted(
          "traversal frontier exceeded the query memory cap");
    }
    if (forward && *meet != kNoParent) break;
  }
  ctx_->stats().NoteFrontier(side.level.size() + side.next.size());
  const size_t retired = side.level.size() * sizeof(uint32_t);
  ctx_->ReleaseBytes(retired);
  charged_ -= std::min(charged_, retired);
  side.level.swap(side.next);
  side.next.clear();
  side.volume = volume;
  side.radius = depth;
  return Status::OK();
}

StatusOr<PathScanner::Candidate> FrontierScanner::BidirWitness(uint32_t x) {
  Candidate candidate;
  std::vector<VertexId>& vs = candidate.path.vertexes;
  std::vector<EdgeId>& es = candidate.path.edges;
  for (uint32_t v = x;;) {
    vs.push_back(csr_->vertex_ids[v]);
    const uint32_t parent = bidir_parent_[v];
    if (parent == kNoParent) break;
    es.push_back(bidir_parent_edge_[v]);
    v = parent;
  }
  std::reverse(vs.begin(), vs.end());
  std::reverse(es.begin(), es.end());

  // Greedy descent: every hop takes the first admissible edge, in
  // enumeration order, to a vertex one backward level closer.
  for (uint32_t u = x, hops = bidir_depth_[x]; hops > 0; --hops) {
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    Status status = Status::OK();
    uint32_t next = kNoParent;
    spec_->gv->ForEachNeighbor(
        spec_->gv->CsrVertex(u), [&](const EdgeEntry& edge, VertexId nbr) {
          ++ctx_->stats().edges_examined;
          const size_t j = csr_->IndexOf(nbr);
          if (j == CsrTopology::kAbsent ||
              (visited_map_[j] & kBackwardSide) == 0 ||
              bidir_depth_[j] != hops - 1) {
            return true;
          }
          if (spec_->push_filters && edge_preds_) {
            auto edge_ok = EdgeAdmissible(edge, es.size());
            if (!edge_ok.ok()) {
              status = edge_ok.status();
              return false;
            }
            if (!*edge_ok) return true;
          }
          es.push_back(edge.id);
          vs.push_back(nbr);
          next = static_cast<uint32_t>(j);
          return false;
        });
    GRF_RETURN_IF_ERROR(status);
    if (next == kNoParent) {
      return Status::Internal("bidirectional probe lost its witness path");
    }
    u = next;
  }
  return candidate;
}

}  // namespace grfusion
