#ifndef PATCHINDEX_EXEC_AGGREGATE_H_
#define PATCHINDEX_EXEC_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/flat_i64_map.h"
#include "exec/operator.h"

namespace patchindex {

namespace obs {
struct NodeStats;
}

enum class AggOp { kCount, kSum, kMin, kMax };

struct AggSpec {
  AggOp op;
  /// Input column of the child (ignored for kCount).
  std::size_t column = 0;
};

/// Hash-based grouping aggregation. With an empty `aggs` list this is the
/// DISTINCT operator — the most expensive operator of a distinct query,
/// which the PatchIndex NUC optimization drops from the patch-excluded
/// subtree (paper §3.3, Figure 2 left). Output: group columns, then one
/// column per aggregate (kCount/kSum over INT64 produce INT64, over
/// DOUBLE produce DOUBLE; kMin/kMax keep the input type).
///
/// A specialized fast path handles the common single-INT64-group-key case
/// (the shape of the paper's microbenchmark distinct query) on a flat
/// open-addressing table (FlatI64Map); other keys are encoded to byte
/// strings. Groups keep first-seen order and the rowID of their first
/// row. The hash index is released at the end of Open(): the result is
/// then read out column-wise, by Next() in kBatchSize slices or whole by
/// TakeResult().
class HashAggregateOperator : public Operator {
 public:
  HashAggregateOperator(OperatorPtr child, std::vector<std::size_t> group_cols,
                        std::vector<AggSpec> aggs = {});

  std::vector<ColumnType> OutputTypes() const override {
    return output_types_;
  }
  void Open() override;
  bool Next(Batch* out) override;
  void Close() override;

  std::uint64_t num_groups() const { return groups_.num_rows(); }

  /// After Open(): moves the whole result (group columns, then one column
  /// per aggregate) out without copying; Next() then returns nothing.
  Batch TakeResult();

  /// Attributes this operator's hash-table memory to a plan node's
  /// profile accumulator (EXPLAIN ANALYZE `mem=`) under `label` (the
  /// operator named when a budget is exceeded). Budget enforcement
  /// against the thread's query tracker happens either way.
  void SetMemoryStats(obs::NodeStats* stats,
                      const char* label = "HashAggregate") {
    mem_stats_ = stats;
    mem_label_ = label;
  }

  /// Estimated bytes of the group/aggregate state: the result columns
  /// plus the hash index (the flat table's allocated capacity; a flat
  /// per-entry cost for the generic index).
  std::uint64_t ApproxStateBytes() const;

 private:
  void ConsumeGeneric(const Batch& in);
  void ConsumeSingleInt64(const Batch& in);
  /// Appends the initial aggregate states of a new group.
  void AddGroupState();
  /// Folds row `i` of `in` into group `g`'s aggregate states.
  void Accumulate(std::size_t g, const Batch& in, std::size_t i);

  OperatorPtr child_;
  std::vector<std::size_t> group_cols_;
  std::vector<AggSpec> aggs_;
  std::vector<ColumnType> output_types_;
  bool single_i64_key_ = false;
  obs::NodeStats* mem_stats_ = nullptr;
  const char* mem_label_ = "HashAggregate";

  // The result in output layout: one row per group — group keys, then
  // one aggregate-state column per AggSpec — and each group's first
  // rowID.
  Batch groups_;
  FlatI64Map i64_index_;
  std::unordered_map<std::string, std::size_t> generic_index_;
  std::size_t pos_ = 0;
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_AGGREGATE_H_
