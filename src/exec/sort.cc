#include "exec/sort.h"

#include <utility>

#include "common/check.h"
#include "exec/sort_merge.h"
#include "obs/mem_tracker.h"

namespace patchindex {

SortOperator::SortOperator(OperatorPtr child, std::vector<SortKeySpec> keys,
                           std::size_t limit)
    : child_(std::move(child)), keys_(std::move(keys)), limit_(limit) {
  PIDX_CHECK(!keys_.empty());
}

void SortOperator::Open() {
  obs::OpMemory mem("Sort", mem_stats_);
  data_ = Collect(*child_, &mem);

  mem.Add(data_.num_rows() * sizeof(std::size_t));  // the permutation
  order_ = SortedPermutation(data_, keys_, limit_);
  pos_ = 0;
}

bool SortOperator::Next(Batch* out) {
  out->Reset(OutputTypes());
  while (out->num_rows() < kBatchSize && pos_ < order_.size()) {
    out->AppendRowFrom(data_, order_[pos_++]);
  }
  return out->num_rows() > 0;
}

void SortOperator::Close() {
  data_.Clear();
  order_.clear();
}

}  // namespace patchindex
