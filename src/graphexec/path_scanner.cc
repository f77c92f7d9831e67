#include "graphexec/path_scanner.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace grfusion {

std::string TraversalSpec::DebugString() const {
  std::string out = "PathScan(";
  out += gv == nullptr ? "?" : gv->name();
  switch (physical) {
    case Physical::kDfs: out += ", DFScan"; break;
    case Physical::kBfs: out += ", BFScan"; break;
    case Physical::kShortestPath: out += ", SPScan"; break;
  }
  if (start_vertex_expr != nullptr) {
    out += ", start: " + start_vertex_expr->ToString();
  }
  if (end_vertex_expr != nullptr) {
    out += ", end: " + end_vertex_expr->ToString();
  }
  out += StrFormat(", len: [%zu, ", min_length);
  out += max_length == kNoMaxLength ? "*]" : StrFormat("%zu]", max_length);
  if (!element_preds.empty()) {
    out += StrFormat(", pushed: %zu", element_preds.size());
  }
  if (!length_bounds.empty()) {
    out += StrFormat(", len-bounds: %zu", length_bounds.size());
  }
  if (!sum_bounds.empty()) {
    out += StrFormat(", sum-bounds: %zu", sum_bounds.size());
  }
  if (!push_filters) out += ", NO-PUSHDOWN";
  if (global_visited) out += ", visited-once";
  return out + ")";
}

bool TightenLengthWindow(CompareOp op, int64_t c, size_t* min_len,
                         size_t* max_len) {
  auto raise_min = [&](int64_t v) {
    if (v > 0 && static_cast<size_t>(v) > *min_len) {
      *min_len = static_cast<size_t>(v);
    }
  };
  auto lower_max = [&](int64_t v) {
    size_t bound_v = v < 0 ? 0 : static_cast<size_t>(v);
    if (bound_v < *max_len) *max_len = bound_v;
  };
  switch (op) {
    case CompareOp::kEq:
      raise_min(c);
      lower_max(c);
      return true;
    case CompareOp::kLt:
      lower_max(c - 1);
      return true;
    case CompareOp::kLe:
      lower_max(c);
      return true;
    case CompareOp::kGt:
      raise_min(c + 1);
      return true;
    case CompareOp::kGe:
      raise_min(c);
      return true;
    case CompareOp::kNe:
      return false;
  }
  return false;
}

namespace {

/// Folds one evaluated `Length <op> v` bound into a probe's window. A NULL
/// bound admits no path (the comparison is never true); a fractional one
/// rounds to the integer window it admits.
Status ApplyLengthBound(CompareOp op, const Value& v, size_t* min_len,
                        size_t* max_len) {
  if (v.is_null()) {
    *min_len = 1;
    *max_len = 0;
    return Status::OK();
  }
  if (v.type() == ValueType::kBigInt) {
    TightenLengthWindow(op, v.AsBigInt(), min_len, max_len);
    return Status::OK();
  }
  if (v.type() != ValueType::kDouble) {
    return Status::InvalidArgument("path length bound must be a number");
  }
  const double d = std::clamp(v.AsDouble(), -1e15, 1e15);
  if (d == std::floor(d)) {
    TightenLengthWindow(op, static_cast<int64_t>(d), min_len, max_len);
  } else if (op == CompareOp::kEq) {
    *min_len = 1;
    *max_len = 0;
  } else if (op == CompareOp::kLt || op == CompareOp::kLe) {
    TightenLengthWindow(CompareOp::kLe, static_cast<int64_t>(std::floor(d)),
                        min_len, max_len);
  } else if (op == CompareOp::kGt || op == CompareOp::kGe) {
    TightenLengthWindow(CompareOp::kGe, static_cast<int64_t>(std::ceil(d)),
                        min_len, max_len);
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::vector<VertexId>> PathScanner::ArmProbe(
    std::vector<VertexId> starts, std::optional<VertexId> target,
    const ExecRow* outer_row) {
  heap_ = decltype(heap_)();
  dfs_depth_ = 0;
  dfs_pending_ = 0;
  visited_.clear();
  expansions_.clear();
  if (charged_ > 0) {
    ctx_->ReleaseBytes(charged_);
    charged_ = 0;
  }
  outer_row_ = outer_row;
  target_ = target;

  // Evaluate sum-bound and length-bound right-hand sides once per probe.
  sum_bound_values_.clear();
  static const ExecRow kEmptyRow;
  const ExecRow& row = outer_row_ == nullptr ? kEmptyRow : *outer_row_;
  for (const TraversalSpec::SumBound& bound : spec_->sum_bounds) {
    GRF_ASSIGN_OR_RETURN(Value v, bound.bound->Eval(row));
    if (v.is_null() ||
        (v.type() != ValueType::kBigInt && v.type() != ValueType::kDouble)) {
      return Status::InvalidArgument(
          "path aggregate bound must evaluate to a number");
    }
    sum_bound_values_.push_back(v.AsNumeric());
  }
  min_length_ = spec_->min_length;
  max_length_ = spec_->max_length;
  for (const TraversalSpec::LengthBound& bound : spec_->length_bounds) {
    GRF_ASSIGN_OR_RETURN(Value v, bound.bound->Eval(row));
    GRF_RETURN_IF_ERROR(
        ApplyLengthBound(bound.op, v, &min_length_, &max_length_));
  }

  // Deduplicate starts (a probe may legitimately produce repeats).
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());

  // Visited-once keeps the LIMIT-1 answer only while no path to the target
  // needs a vertex the forest claimed first. A target among the starts can
  // break that: every start is claimed at depth 0, so no other start's path
  // may end there; and on an undirected view both ends of a cycle's closing
  // edge can be claimed at one depth (triangle 1-2-3 from 1 claims 2 and 3
  // at depth 1 over the edges that would close the cycle). A lone start on
  // a directed view is safe: the last vertex of the shortest cycle is
  // claimed by a tree edge other than the closing one.
  visited_once_ = spec_->global_visited;
  if (visited_once_ && target.has_value() &&
      std::binary_search(starts.begin(), starts.end(), *target)) {
    visited_once_ = spec_->gv->directed() && starts.size() == 1;
  }

  size_t admitted = 0;
  for (VertexId start : starts) {
    const VertexEntry* v = spec_->gv->FindVertex(start);
    if (v == nullptr) continue;
    if (spec_->push_filters) {
      GRF_ASSIGN_OR_RETURN(bool ok, VertexAdmissible(*v, 0));
      if (!ok) {
        ++ctx_->stats().paths_pruned;
        continue;
      }
    }
    starts[admitted++] = start;
  }
  starts.resize(admitted);
  return starts;
}

Status PathScanner::Reset(std::vector<VertexId> starts,
                          std::optional<VertexId> target,
                          const ExecRow* outer_row) {
  GRF_ASSIGN_OR_RETURN(starts,
                       ArmProbe(std::move(starts), target, outer_row));
  if (visited_once_) visited_.insert(starts.begin(), starts.end());
  if (spec_->physical == TraversalSpec::Physical::kDfs) {
    // Frame 0 holds the start vertexes, popped from the back like the
    // extensions of every deeper frame.
    if (dfs_frames_.empty()) dfs_frames_.emplace_back();
    DfsFrame& frame = dfs_frames_[0];
    frame.steps.clear();
    frame.sums.clear();
    frame.charged = 0;
    dfs_depth_ = 1;
    const std::vector<double> zero_sums(spec_->sum_bounds.size(), 0.0);
    for (VertexId start : starts) {
      PushDfsStep(&frame, 0, start, false, zero_sums.data());
    }
    ChargeDfsFrame(&frame);
    ctx_->stats().NoteFrontier(dfs_pending_);
    return Status::OK();
  }
  for (VertexId start : starts) {
    Candidate candidate;
    candidate.path.vertexes.push_back(start);
    candidate.sums.assign(spec_->sum_bounds.size(), 0.0);
    PushCandidate(std::move(candidate));
  }
  return Status::OK();
}

void PathScanner::PushDfsStep(DfsFrame* frame, EdgeId edge, VertexId nbr,
                              bool closing, const double* sums) {
  frame->steps.push_back(DfsStep{edge, nbr, closing});
  if (!spec_->sum_bounds.empty()) {
    frame->sums.insert(frame->sums.end(), sums,
                       sums + spec_->sum_bounds.size());
  }
}

void PathScanner::ChargeDfsFrame(DfsFrame* frame) {
  frame->charged = frame->steps.size() * DfsStepBytes();
  dfs_pending_ += frame->steps.size();
  charged_ += frame->charged;
  // As in PushCandidate: a failed charge is recorded by the context and the
  // caller's cap check aborts the traversal.
  (void)ctx_->ChargeBytes(frame->charged);
}

void PathScanner::ReleaseDfsFrame(DfsFrame* frame) {
  ctx_->ReleaseBytes(frame->charged);
  charged_ -= std::min(charged_, frame->charged);
  frame->charged = 0;
}

bool PathScanner::PopCandidate(Candidate* out) {
  if (heap_.empty()) return false;
  *out = heap_.top();
  heap_.pop();
  ctx_->ReleaseBytes(CandidateBytes(out->path));
  charged_ -= std::min(charged_, CandidateBytes(out->path));
  return true;
}

void PathScanner::PushCandidate(Candidate candidate) {
  size_t bytes = CandidateBytes(candidate.path);
  charged_ += bytes;
  // Frontier growth counts against the query memory cap; the status is
  // surfaced on the next Charge-returning call path. Charge failures here
  // are recorded by the context (peak accounting) — the next qualifying
  // charge check will abort the query.
  (void)ctx_->ChargeBytes(bytes);
  heap_.push(std::move(candidate));
  ctx_->stats().NoteFrontier(heap_.size());
}

StatusOr<bool> PathScanner::EdgeAdmissible(const EdgeEntry& edge,
                                           size_t edge_index) {
  static const ExecRow kEmptyRow;
  const ExecRow& row = outer_row_ == nullptr ? kEmptyRow : *outer_row_;
  for (const auto& pred : spec_->element_preds) {
    if (pred->attr().kind != PathElementKind::kEdges) continue;
    if (edge_index < pred->lo()) continue;
    if (pred->hi() != PathRangePredicateExpr::kOpenEnd &&
        edge_index > pred->hi()) {
      continue;
    }
    GRF_ASSIGN_OR_RETURN(Value v, ExtractEdgeValue(*spec_->gv, edge,
                                                   pred->attr()));
    GRF_ASSIGN_OR_RETURN(bool pass, pred->TestElement(v, row));
    if (!pass) return false;
  }
  return true;
}

StatusOr<bool> PathScanner::VertexAdmissible(const VertexEntry& vertex,
                                             size_t vertex_index) {
  static const ExecRow kEmptyRow;
  const ExecRow& row = outer_row_ == nullptr ? kEmptyRow : *outer_row_;
  for (const auto& pred : spec_->element_preds) {
    if (pred->attr().kind != PathElementKind::kVertexes) continue;
    if (vertex_index < pred->lo()) continue;
    if (pred->hi() != PathRangePredicateExpr::kOpenEnd &&
        vertex_index > pred->hi()) {
      continue;
    }
    GRF_ASSIGN_OR_RETURN(Value v, ExtractVertexValue(*spec_->gv, vertex,
                                                     pred->attr()));
    GRF_ASSIGN_OR_RETURN(bool pass, pred->TestElement(v, row));
    if (!pass) return false;
  }
  return true;
}

PathScanner::Candidate PathScanner::Extend(const Candidate& parent,
                                           const Extension& ext) const {
  Candidate next;
  next.path.edges.reserve(parent.path.edges.size() + 1);
  next.path.edges = parent.path.edges;
  next.path.edges.push_back(ext.edge);
  next.path.vertexes.reserve(parent.path.vertexes.size() + 1);
  next.path.vertexes = parent.path.vertexes;
  next.path.vertexes.push_back(ext.nbr);
  next.path.accumulated_cost = ext.cost;
  next.sums.assign(ext.sums, ext.sums + spec_->sum_bounds.size());
  next.closing = ext.closing;
  return next;
}

StatusOr<bool> PathScanner::Qualifies(const Candidate& candidate) {
  const size_t len = candidate.path.Length();
  if (len < min_length_ || len > max_length_) return false;
  if (target_.has_value() && candidate.path.EndVertex() != *target_) {
    return false;
  }
  // A range predicate whose window the path never reached fails (its Eval
  // semantics); enforce the structural requirement without re-evaluating.
  for (const auto& pred : spec_->element_preds) {
    size_t count =
        pred->attr().kind == PathElementKind::kEdges ? len : len + 1;
    if (pred->lo() >= count) return false;
    if (pred->hi() != PathRangePredicateExpr::kOpenEnd &&
        pred->hi() >= count) {
      return false;
    }
  }
  // Exact sum-bound checks.
  for (size_t i = 0; i < spec_->sum_bounds.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(
        Value v, EvalCompare(spec_->sum_bounds[i].op,
                             Value::Double(candidate.sums[i]),
                             Value::Double(sum_bound_values_[i])));
    if (v.is_null() || !v.AsBoolean()) return false;
  }

  const bool needs_row_eval =
      spec_->residual != nullptr || !spec_->push_filters;
  if (needs_row_eval) {
    ExecRow row = outer_row_ == nullptr ? ExecRow() : *outer_row_;
    if (row.paths.size() <= spec_->path_slot) {
      row.paths.resize(spec_->path_slot + 1);
    }
    row.paths[spec_->path_slot] =
        std::make_shared<const PathData>(candidate.path);
    if (!spec_->push_filters) {
      for (const auto& pred : spec_->element_preds) {
        GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*pred, row));
        if (!pass) return false;
      }
    }
    if (spec_->residual != nullptr) {
      GRF_ASSIGN_OR_RETURN(bool pass, EvalPredicate(*spec_->residual, row));
      if (!pass) return false;
    }
  }
  return true;
}

StatusOr<bool> PathScanner::Run(PathPtr* out, uint64_t* count) {
  if (spec_->physical == TraversalSpec::Physical::kDfs) {
    return RunDfs(out, count);
  }
  return RunShortestPath(out, count);
}

StatusOr<bool> PathScanner::RunDfs(PathPtr* out, uint64_t* count) {
  const size_t bounds = spec_->sum_bounds.size();
  PathData& path = dfs_path_.path;
  while (true) {
    // The deepest frame with a pending extension holds the candidate the
    // whole-path stack would pop next.
    while (dfs_depth_ > 0 && dfs_frames_[dfs_depth_ - 1].steps.empty()) {
      ReleaseDfsFrame(&dfs_frames_[--dfs_depth_]);
    }
    if (dfs_depth_ == 0) return false;
    const size_t depth = dfs_depth_ - 1;
    {
      DfsFrame& frame = dfs_frames_[depth];
      const DfsStep step = frame.steps.back();
      frame.steps.pop_back();
      // Rewind the current path to the frame's prefix and apply the step.
      path.vertexes.resize(depth);
      path.edges.resize(depth == 0 ? 0 : depth - 1);
      path.vertexes.push_back(step.nbr);
      if (depth > 0) path.edges.push_back(step.edge);
      if (bounds > 0) {
        dfs_path_.sums.assign(
            frame.sums.end() - static_cast<ptrdiff_t>(bounds),
            frame.sums.end());
        frame.sums.resize(frame.sums.size() - bounds);
      }
      dfs_path_.closing = step.closing;
      --dfs_pending_;
    }

    // Path enumeration can be combinatorially unbounded, so a runaway
    // traversal must notice cancellation/deadline per expansion, not only at
    // the operator boundary (which it may never reach before emitting).
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    ++ctx_->stats().vertexes_expanded;
    if (!dfs_path_.closing && path.Length() < max_length_) {
      if (dfs_frames_.size() <= depth + 1) dfs_frames_.emplace_back();
      DfsFrame& next = dfs_frames_[depth + 1];
      next.steps.clear();
      next.sums.clear();
      next.charged = 0;
      dfs_depth_ = depth + 2;
      GRF_RETURN_IF_ERROR(ExpandCore(
          dfs_path_, ctx_,
          [this](VertexId nbr) { return visited_.count(nbr) > 0; },
          [&](const Extension& ext) {
            if (visited_once_ && !ext.closing) visited_.insert(ext.nbr);
            PushDfsStep(&next, ext.edge, ext.nbr, ext.closing, ext.sums);
          }));
      ChargeDfsFrame(&next);
      ctx_->stats().NoteFrontier(dfs_pending_);
      // Frontier growth may have tripped the memory cap.
      if (ctx_->current_bytes() > ctx_->memory_cap()) {
        return Status::ResourceExhausted(
            "traversal frontier exceeded the query memory cap");
      }
    }
    GRF_ASSIGN_OR_RETURN(bool qualifies, Qualifies(dfs_path_));
    if (qualifies) {
      ++ctx_->stats().paths_emitted;
      if (out == nullptr) {
        ++*count;
        continue;
      }
      *out = std::make_shared<const PathData>(path);
      return true;
    }
  }
}

StatusOr<bool> PathScanner::RunShortestPath(PathPtr* out, uint64_t* count) {
  Candidate candidate;
  while (PopCandidate(&candidate)) {
    GRF_RETURN_IF_ERROR(ctx_->CheckInterrupt());
    ++ctx_->stats().vertexes_expanded;
    const bool can_extend =
        !candidate.closing && candidate.path.Length() < max_length_;
    if (can_extend) {
      GRF_RETURN_IF_ERROR(ExpandCore(
          candidate, ctx_, [](VertexId) { return false; },
          [&](const Extension& ext) {
            PushCandidate(Extend(candidate, ext));
          }));
      if (ctx_->current_bytes() > ctx_->memory_cap()) {
        return Status::ResourceExhausted(
            "traversal frontier exceeded the query memory cap");
      }
    }
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
  return false;
}

}  // namespace grfusion
