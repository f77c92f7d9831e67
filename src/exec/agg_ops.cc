#include "exec/agg_ops.h"

#include <algorithm>

#include "exec/filter_ops.h"

namespace grfusion {

// --- AggregateOp ------------------------------------------------------------------

AggregateOp::AggregateOp(OperatorPtr child, std::vector<ExprPtr> group_by,
                         std::vector<std::string> group_names,
                         std::vector<AggregateSpec> aggs)
    : child_(std::move(child)), group_by_(std::move(group_by)),
      aggs_(std::move(aggs)) {
  for (size_t i = 0; i < group_by_.size(); ++i) {
    schema_.AddColumn(Column(group_names[i], group_by_[i]->result_type()));
  }
  for (const AggregateSpec& spec : aggs_) {
    ValueType type;
    switch (spec.func) {
      case AggFunc::kCount:
        type = ValueType::kBigInt;
        break;
      case AggFunc::kAvg:
        type = ValueType::kDouble;
        break;
      default:
        type = spec.arg == nullptr ? ValueType::kDouble
                                   : spec.arg->result_type();
        break;
    }
    schema_.AddColumn(Column(spec.output_name, type));
  }
}

Status AggregateOp::Accumulate(Group* group, const ExecRow& row) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggregateSpec& spec = aggs_[i];
    AggState& state = group->states[i];
    if (spec.arg == nullptr) {  // COUNT(*)
      ++state.count;
      continue;
    }
    GRF_ASSIGN_OR_RETURN(Value v, spec.arg->Eval(row));
    if (v.is_null()) continue;  // Aggregates skip NULLs.
    ++state.count;
    if (spec.func == AggFunc::kCount) continue;
    if (v.type() != ValueType::kBigInt && v.type() != ValueType::kDouble &&
        spec.func != AggFunc::kMin && spec.func != AggFunc::kMax) {
      return Status::InvalidArgument("cannot " +
                                     std::string(AggFuncToString(spec.func)) +
                                     " non-numeric value " + v.ToString());
    }
    if (v.type() == ValueType::kDouble) state.integral = false;
    if (v.type() == ValueType::kBigInt || v.type() == ValueType::kDouble) {
      state.sum += v.AsNumeric();
    }
    if (state.min.is_null()) {
      state.min = v;
      state.max = v;
    } else {
      GRF_ASSIGN_OR_RETURN(int cmp_min, v.Compare(state.min));
      if (cmp_min < 0) state.min = v;
      GRF_ASSIGN_OR_RETURN(int cmp_max, v.Compare(state.max));
      if (cmp_max > 0) state.max = v;
    }
  }
  return Status::OK();
}

StatusOr<Value> AggregateOp::Finalize(const AggregateSpec& spec,
                                      const AggState& state) const {
  switch (spec.func) {
    case AggFunc::kCount:
      return Value::BigInt(state.count);
    case AggFunc::kSum:
      if (state.count == 0) return Value::Null();
      return state.integral ? Value::BigInt(static_cast<int64_t>(state.sum))
                            : Value::Double(state.sum);
    case AggFunc::kAvg:
      if (state.count == 0) return Value::Null();
      return Value::Double(state.sum / static_cast<double>(state.count));
    case AggFunc::kMin:
      return state.min;
    case AggFunc::kMax:
      return state.max;
  }
  return Status::Internal("bad aggregate function");
}

Status AggregateOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  groups_.clear();
  group_index_.clear();
  charged_ = 0;
  cursor_ = 0;
  materialized_ = false;

  GRF_RETURN_IF_ERROR(child_->Open(ctx));
  ExecRow row;
  Status result = Status::OK();
  while (true) {
    auto has = child_->Next(&row);
    if (!has.ok()) {
      result = has.status();
      break;
    }
    if (!*has) break;
    if (group_by_.empty()) {
      // Scalar aggregate: one group, no key to build or look up.
      if (groups_.empty()) {
        Group group;
        group.states.resize(aggs_.size());
        const size_t bytes = 64 + group.states.size() * sizeof(AggState);
        charged_ += bytes;
        result = ctx->ChargeBytes(bytes);
        if (!result.ok()) break;
        groups_.push_back(std::move(group));
      }
      result = Accumulate(&groups_[0], row);
      if (!result.ok()) break;
      continue;
    }
    std::vector<Value> keys;
    keys.reserve(group_by_.size());
    for (const ExprPtr& expr : group_by_) {
      auto v = expr->Eval(row);
      if (!v.ok()) {
        result = v.status();
        break;
      }
      keys.push_back(std::move(v).value());
    }
    if (!result.ok()) break;
    std::string key = RowKey(keys);
    auto [it, inserted] = group_index_.emplace(std::move(key), groups_.size());
    if (inserted) {
      Group group;
      group.keys = std::move(keys);
      group.states.resize(aggs_.size());
      size_t bytes = 64 + group.keys.size() * sizeof(Value) +
                     group.states.size() * sizeof(AggState);
      charged_ += bytes;
      result = ctx->ChargeBytes(bytes);
      if (!result.ok()) break;
      groups_.push_back(std::move(group));
    }
    result = Accumulate(&groups_[it->second], row);
    if (!result.ok()) break;
  }
  child_->Close();
  GRF_RETURN_IF_ERROR(result);

  // Scalar aggregate over empty input still yields one row.
  if (group_by_.empty() && groups_.empty()) {
    Group group;
    group.states.resize(aggs_.size());
    groups_.push_back(std::move(group));
  }
  materialized_ = true;
  return Status::OK();
}

StatusOr<bool> AggregateOp::NextImpl(ExecRow* out) {
  if (!materialized_ || cursor_ >= groups_.size()) return false;
  const Group& group = groups_[cursor_++];
  ExecRow row;
  row.columns = group.keys;
  for (size_t i = 0; i < aggs_.size(); ++i) {
    GRF_ASSIGN_OR_RETURN(Value v, Finalize(aggs_[i], group.states[i]));
    row.columns.push_back(std::move(v));
  }
  *out = std::move(row);
  return true;
}

void AggregateOp::CloseImpl() {
  groups_.clear();
  group_index_.clear();
  if (ctx_ != nullptr) ctx_->ReleaseBytes(charged_);
  charged_ = 0;
  materialized_ = false;
}

std::string AggregateOp::name() const {
  std::string out = "Aggregate(";
  for (size_t i = 0; i < aggs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += AggFuncToString(aggs_[i].func);
    out += "(";
    out += aggs_[i].arg == nullptr ? "*" : aggs_[i].arg->ToString();
    out += ")";
  }
  if (!group_by_.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < group_by_.size(); ++i) {
      if (i > 0) out += ", ";
      out += group_by_[i]->ToString();
    }
  }
  return out + ")";
}

// --- SortOp -----------------------------------------------------------------------

Status SortOp::OpenImpl(QueryContext* ctx) {
  ctx_ = ctx;
  rows_.clear();
  charged_ = 0;
  cursor_ = 0;

  GRF_RETURN_IF_ERROR(child_->Open(ctx));
  ExecRow row;
  Status result = Status::OK();
  while (true) {
    auto has = child_->Next(&row);
    if (!has.ok()) {
      result = has.status();
      break;
    }
    if (!*has) break;
    size_t bytes = row.ByteSize();
    charged_ += bytes;
    result = ctx->ChargeBytes(bytes);
    if (!result.ok()) break;
    rows_.push_back(std::move(row));
  }
  child_->Close();
  GRF_RETURN_IF_ERROR(result);

  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const ExecRow& a, const ExecRow& b) {
                     for (const SortKey& key : keys_) {
                       const Value& va = a.columns[key.column];
                       const Value& vb = b.columns[key.column];
                       // NULLs first (SQL NULLS FIRST on ASC).
                       if (va.is_null() || vb.is_null()) {
                         if (va.is_null() == vb.is_null()) continue;
                         bool less = va.is_null();
                         return key.descending ? !less : less;
                       }
                       auto cmp = va.Compare(vb);
                       int c = cmp.ok() ? *cmp : 0;
                       if (c != 0) return key.descending ? c > 0 : c < 0;
                     }
                     return false;
                   });
  return Status::OK();
}

StatusOr<bool> SortOp::NextImpl(ExecRow* out) {
  if (cursor_ >= rows_.size()) return false;
  *out = std::move(rows_[cursor_++]);
  return true;
}

void SortOp::CloseImpl() {
  rows_.clear();
  if (ctx_ != nullptr) ctx_->ReleaseBytes(charged_);
  charged_ = 0;
}

std::string SortOp::name() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "#" + std::to_string(keys_[i].column);
    if (keys_[i].descending) out += " DESC";
  }
  return out + ")";
}

}  // namespace grfusion
