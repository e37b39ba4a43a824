#include "exec/operator.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "obs/mem_tracker.h"

namespace patchindex {

Batch Collect(Operator& op, obs::OpMemory* mem) {
  // Result materialization is charged to the thread's query tracker (if
  // any) so serial plans are budgeted too, not just the morsel path.
  std::optional<obs::OpMemory> materialize;
  if (mem == nullptr) mem = &materialize.emplace("Materialize");
  op.Open();
  Batch all;
  all.Reset(op.OutputTypes());
  Batch in;
  while (op.Next(&in)) {
    mem->Add(ApproxBytes(in));
    AppendBatch(&all, std::move(in));
  }
  op.Close();
  return all;
}

std::uint64_t CountRows(Operator& op) {
  op.Open();
  std::uint64_t total = 0;
  Batch in;
  while (op.Next(&in)) total += in.num_rows();
  op.Close();
  return total;
}

bool InMemorySource::Next(Batch* out) {
  out->Reset(OutputTypes());
  const std::size_t end = std::min(pos_ + kBatchSize, data_.num_rows());
  out->AppendRange(data_, pos_, end);
  pos_ = end;
  return out->num_rows() > 0;
}

}  // namespace patchindex
