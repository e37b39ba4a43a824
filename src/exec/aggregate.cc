#include "exec/aggregate.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "obs/mem_tracker.h"

namespace patchindex {

namespace {
/// Estimated heap cost per generic hash-index entry (node + key + value).
constexpr std::uint64_t kIndexEntryBytes = 48;
/// Rows the INT64 path prefetches its hash slot ahead of the lookup.
constexpr std::size_t kPrefetchAhead = 16;
}  // namespace

std::uint64_t HashAggregateOperator::ApproxStateBytes() const {
  // Encoded generic keys roughly mirror the group columns' content,
  // which ApproxBytes(groups_) already counted; the flat per-entry cost
  // covers the index nodes themselves.
  return ApproxBytes(groups_) + i64_index_.ApproxBytes() +
         generic_index_.size() * kIndexEntryBytes;
}

HashAggregateOperator::HashAggregateOperator(
    OperatorPtr child, std::vector<std::size_t> group_cols,
    std::vector<AggSpec> aggs)
    : child_(std::move(child)),
      group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)) {
  PIDX_CHECK(!group_cols_.empty());
  const std::vector<ColumnType> input = child_->OutputTypes();
  for (std::size_t c : group_cols_) output_types_.push_back(input[c]);
  for (const AggSpec& a : aggs_) {
    output_types_.push_back(a.op == AggOp::kCount ? ColumnType::kInt64
                                                  : input[a.column]);
  }
  single_i64_key_ = group_cols_.size() == 1 &&
                    input[group_cols_[0]] == ColumnType::kInt64;
}

void HashAggregateOperator::Open() {
  child_->Open();
  groups_.Reset(output_types_);
  i64_index_.Clear();
  generic_index_.clear();

  // Re-estimate the table's footprint as groups accumulate (an exact
  // running count would touch the accounting on every row); the final
  // GrowTo settles the charge to the exact size.
  obs::OpMemory mem(mem_label_, mem_stats_);
  std::size_t sized_groups = 0;
  Batch in;
  while (child_->Next(&in)) {
    if (single_i64_key_) {
      ConsumeSingleInt64(in);
    } else {
      ConsumeGeneric(in);
    }
    if (groups_.num_rows() - sized_groups >= 4096) {
      sized_groups = groups_.num_rows();
      mem.GrowTo(ApproxStateBytes());
    }
  }
  mem.GrowTo(ApproxStateBytes());
  child_->Close();
  // Every lookup is done: the result is read out of groups_ alone.
  i64_index_.Clear();
  generic_index_.clear();
  pos_ = 0;
}

namespace {
// Encodes a group key as a byte string (generic slow path).
std::string EncodeKey(const Batch& in, const std::vector<std::size_t>& cols,
                      std::size_t row) {
  std::string key;
  for (std::size_t c : cols) {
    const ColumnVector& col = in.columns[c];
    switch (col.type) {
      case ColumnType::kInt64: {
        const std::int64_t v = col.i64[row];
        key.append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case ColumnType::kDouble: {
        const double v = col.f64[row];
        key.append(reinterpret_cast<const char*>(&v), sizeof(v));
        break;
      }
      case ColumnType::kString:
        key.append(col.str[row]);
        key.push_back('\0');
        break;
    }
  }
  return key;
}
}  // namespace

void HashAggregateOperator::AddGroupState() {
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    ColumnVector& state = groups_.columns[group_cols_.size() + a];
    const AggOp op = aggs_[a].op;
    if (state.type == ColumnType::kDouble) {
      state.f64.push_back(op == AggOp::kMin
                              ? std::numeric_limits<double>::infinity()
                              : (op == AggOp::kMax
                                     ? -std::numeric_limits<double>::infinity()
                                     : 0.0));
    } else {
      state.i64.push_back(op == AggOp::kMin
                              ? std::numeric_limits<std::int64_t>::max()
                              : (op == AggOp::kMax
                                     ? std::numeric_limits<std::int64_t>::min()
                                     : 0));
    }
  }
}

void HashAggregateOperator::Accumulate(std::size_t g, const Batch& in,
                                       std::size_t i) {
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    const AggSpec& spec = aggs_[a];
    ColumnVector& state = groups_.columns[group_cols_.size() + a];
    if (spec.op == AggOp::kCount) {
      ++state.i64[g];
      continue;
    }
    const ColumnVector& col = in.columns[spec.column];
    if (col.type == ColumnType::kInt64) {
      const std::int64_t v = col.i64[i];
      std::int64_t& s = state.i64[g];
      switch (spec.op) {
        case AggOp::kSum:
          s += v;
          break;
        case AggOp::kMin:
          s = std::min(s, v);
          break;
        case AggOp::kMax:
          s = std::max(s, v);
          break;
        default:
          break;
      }
    } else if (col.type == ColumnType::kDouble) {
      const double v = col.f64[i];
      double& s = state.f64[g];
      switch (spec.op) {
        case AggOp::kSum:
          s += v;
          break;
        case AggOp::kMin:
          s = std::min(s, v);
          break;
        case AggOp::kMax:
          s = std::max(s, v);
          break;
        default:
          break;
      }
    } else {
      PIDX_CHECK_MSG(false, "string aggregates not supported");
    }
  }
}

void HashAggregateOperator::ConsumeSingleInt64(const Batch& in) {
  const auto& keys = in.columns[group_cols_[0]].i64;
  std::vector<std::int64_t>& group_keys = groups_.columns[0].i64;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (i + kPrefetchAhead < keys.size()) {
      i64_index_.Prefetch(keys[i + kPrefetchAhead]);
    }
    const auto [g, inserted] =
        i64_index_.FindOrInsert(keys[i], groups_.num_rows());
    if (inserted) {
      group_keys.push_back(keys[i]);
      groups_.row_ids.push_back(in.row_ids[i]);
      AddGroupState();
    }
    Accumulate(g, in, i);
  }
}

void HashAggregateOperator::ConsumeGeneric(const Batch& in) {
  for (std::size_t i = 0; i < in.num_rows(); ++i) {
    std::string key = EncodeKey(in, group_cols_, i);
    auto [it, inserted] =
        generic_index_.try_emplace(std::move(key), groups_.num_rows());
    const std::size_t g = it->second;
    if (inserted) {
      for (std::size_t k = 0; k < group_cols_.size(); ++k) {
        groups_.columns[k].AppendFrom(in.columns[group_cols_[k]], i);
      }
      groups_.row_ids.push_back(in.row_ids[i]);
      AddGroupState();
    }
    Accumulate(g, in, i);
  }
}

bool HashAggregateOperator::Next(Batch* out) {
  out->Reset(output_types_);
  const std::size_t end = std::min(pos_ + kBatchSize, groups_.num_rows());
  if (pos_ >= end) return false;
  for (std::size_t c = 0; c < out->columns.size(); ++c) {
    out->columns[c].AppendRange(groups_.columns[c], pos_, end);
  }
  out->row_ids.assign(groups_.row_ids.begin() + pos_,
                      groups_.row_ids.begin() + end);
  pos_ = end;
  return true;
}

Batch HashAggregateOperator::TakeResult() {
  Batch out = std::move(groups_);
  groups_.Reset(output_types_);
  pos_ = 0;
  return out;
}

void HashAggregateOperator::Close() {
  groups_.Clear();
  i64_index_.Clear();
  generic_index_.clear();
}

}  // namespace patchindex
