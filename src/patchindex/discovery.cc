#include "patchindex/discovery.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "exec/flat_i64_map.h"

namespace patchindex {

namespace {
/// Rows a counting scan prefetches its hash slot ahead of the insert.
constexpr std::size_t kPrefetchAhead = 16;
}  // namespace

std::vector<RowId> DiscoverNucPatches(const Column& column) {
  PIDX_CHECK(column.type() == ColumnType::kInt64);
  const auto& data = column.i64_data();
  PIDX_CHECK(data.size() < std::numeric_limits<std::uint32_t>::max());
  // First pass: number the distinct values and count their occurrences,
  // remembering each row's value number. Second pass (sequential): every
  // row whose value is duplicated is a patch (all occurrences, not
  // all-but-one — see header). A NUC column is nearly unique, so the
  // table is sized for every row up front.
  FlatI64Map index(data.size());
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> group_of(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i + kPrefetchAhead < data.size()) {
      index.Prefetch(data[i + kPrefetchAhead]);
    }
    const auto [g, inserted] = index.FindOrInsert(data[i], counts.size());
    if (inserted) counts.push_back(0);
    ++counts[g];
    group_of[i] = static_cast<std::uint32_t>(g);
  }
  index.Clear();
  std::vector<RowId> patches;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (counts[group_of[i]] > 1) patches.push_back(i);
  }
  return patches;  // ascending by construction
}

NccDiscovery DiscoverNccPatches(const Column& column) {
  PIDX_CHECK(column.type() == ColumnType::kInt64);
  const auto& data = column.i64_data();
  NccDiscovery out;
  if (data.empty()) return out;
  // Few distinct values are expected: the table grows on demand.
  FlatI64Map index;
  std::vector<std::uint64_t> counts;
  for (std::int64_t v : data) {
    const auto [g, inserted] = index.FindOrInsert(v, counts.size());
    if (inserted) counts.push_back(0);
    ++counts[g];
  }
  // The most frequent value, ties to the smallest: independent of the
  // table's iteration order.
  std::uint64_t best_count = 0;
  index.ForEach([&](std::int64_t v, std::size_t g) {
    const std::uint64_t c = counts[g];
    if (c > best_count || (c == best_count && v < out.constant)) {
      out.constant = v;
      best_count = c;
    }
  });
  out.has_constant = true;
  out.patches.reserve(data.size() - best_count);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] != out.constant) out.patches.push_back(i);
  }
  return out;
}

std::vector<std::size_t> LongestSortedSubsequence(
    const std::vector<std::int64_t>& values, bool ascending) {
  // Patience sorting over (possibly negated) values; non-decreasing runs
  // are allowed, so ties extend the subsequence (upper_bound).
  const std::size_t n = values.size();
  std::vector<std::size_t> pile_tail_idx;  // index of smallest tail per length
  std::vector<std::int64_t> pile_tail_val;
  std::vector<std::size_t> prev(n, static_cast<std::size_t>(-1));
  auto key = [&](std::size_t i) {
    return ascending ? values[i] : -values[i];
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t v = key(i);
    const auto it =
        std::upper_bound(pile_tail_val.begin(), pile_tail_val.end(), v);
    const std::size_t pos =
        static_cast<std::size_t>(it - pile_tail_val.begin());
    if (pos > 0) prev[i] = pile_tail_idx[pos - 1];
    if (pos == pile_tail_val.size()) {
      pile_tail_val.push_back(v);
      pile_tail_idx.push_back(i);
    } else {
      pile_tail_val[pos] = v;
      pile_tail_idx[pos] = i;
    }
  }
  std::vector<std::size_t> result;
  if (pile_tail_idx.empty()) return result;
  result.reserve(pile_tail_idx.size());
  for (std::size_t i = pile_tail_idx.back(); i != static_cast<std::size_t>(-1);
       i = prev[i]) {
    result.push_back(i);
  }
  std::reverse(result.begin(), result.end());
  return result;
}

NscDiscovery DiscoverNscPatches(const Column& column, bool ascending) {
  PIDX_CHECK(column.type() == ColumnType::kInt64);
  const auto& data = column.i64_data();
  NscDiscovery out;
  if (data.empty()) return out;
  const std::vector<std::size_t> keep =
      LongestSortedSubsequence(data, ascending);
  out.tail_value = data[keep.back()];
  out.has_tail = true;
  out.patches.reserve(data.size() - keep.size());
  std::size_t ki = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (ki < keep.size() && keep[ki] == i) {
      ++ki;
    } else {
      out.patches.push_back(i);
    }
  }
  return out;
}

}  // namespace patchindex
