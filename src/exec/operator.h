#ifndef PATCHINDEX_EXEC_OPERATOR_H_
#define PATCHINDEX_EXEC_OPERATOR_H_

#include <memory>
#include <vector>

#include "exec/batch.h"

namespace patchindex {

namespace obs {
class OpMemory;
}

/// Pull-based vectorized operator (Volcano iteration over kBatchSize
/// tuple vectors, as in X100/Vectorwise). Lifecycle: Open() once, Next()
/// until it returns false, Close() once.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Types of the produced columns.
  virtual std::vector<ColumnType> OutputTypes() const = 0;

  virtual void Open() = 0;

  /// Produces the next batch. Returns false when exhausted (out is left
  /// empty in that case). `out` is reset by the callee.
  virtual bool Next(Batch* out) = 0;

  virtual void Close() {}
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Drains `op` (Open/Next*/Close) into a single materialized batch,
/// appending column-wise. Every incoming batch is charged to `mem` before
/// it is appended, so an over-budget drain aborts mid-way rather than
/// after the damage; without `mem` the drain is charged as "Materialize"
/// to the thread's query tracker (if any).
Batch Collect(Operator& op, obs::OpMemory* mem = nullptr);

/// Drains `op` counting rows without materializing them.
std::uint64_t CountRows(Operator& op);

/// Emits a pre-materialized batch in kBatchSize chunks; used to feed
/// operator inputs in tests and to replay buffered intermediates.
class InMemorySource : public Operator {
 public:
  explicit InMemorySource(Batch data) : data_(std::move(data)) {}

  std::vector<ColumnType> OutputTypes() const override {
    std::vector<ColumnType> types;
    types.reserve(data_.columns.size());
    for (const auto& c : data_.columns) types.push_back(c.type);
    return types;
  }

  void Open() override { pos_ = 0; }

  bool Next(Batch* out) override;

 private:
  Batch data_;
  std::size_t pos_ = 0;
};

}  // namespace patchindex

#endif  // PATCHINDEX_EXEC_OPERATOR_H_
