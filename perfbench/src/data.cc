#include "data.h"

#include <algorithm>
#include <unordered_map>

#include "patchindex/patch_index.h"

namespace perfbench {

using patchindex::ColumnType;
using patchindex::Engine;
using patchindex::PartitionedTable;
using patchindex::PatchIndex;
using patchindex::Row;
using patchindex::Schema;
using patchindex::Table;
using patchindex::Value;

std::vector<std::int64_t> MakeNucColumn(std::uint64_t n, double rate,
                                        Rng& rng) {
  std::vector<std::int64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = static_cast<std::int64_t>(2 * i);
  const auto exceptions = static_cast<std::uint64_t>(rate * n);
  const std::uint64_t domain = std::max<std::uint64_t>(1, exceptions / 4);
  std::vector<std::uint64_t> rows(n);
  for (std::uint64_t i = 0; i < n; ++i) rows[i] = i;
  // Partial Fisher-Yates: the first `exceptions` slots are a uniform
  // random subset of rows.
  for (std::uint64_t i = 0; i < exceptions; ++i) {
    std::swap(rows[i], rows[rng.Uniform(i, n - 1)]);
    v[rows[i]] = static_cast<std::int64_t>(2 * (i % domain) + 1);
  }
  return v;
}

std::vector<std::int64_t> MakeNscColumn(std::uint64_t n, double rate,
                                        Rng& rng) {
  std::vector<std::int64_t> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = static_cast<std::int64_t>(2 * i);
  const auto exceptions = static_cast<std::uint64_t>(rate * n);
  for (std::uint64_t i = 0; i < exceptions; ++i) {
    v[rng.Uniform(0, n - 1)] = static_cast<std::int64_t>(rng.Uniform(0, 2 * n));
  }
  return v;
}

namespace {

Schema MakeSchema(const std::vector<std::string>& extra_names) {
  std::vector<patchindex::Field> fields = {{"key", ColumnType::kInt64},
                                           {"val", ColumnType::kInt64}};
  for (const std::string& name : extra_names) {
    fields.push_back({name, ColumnType::kInt64});
  }
  return Schema(std::move(fields));
}

Row MakeRow(std::uint64_t i, const std::vector<std::int64_t>& val,
            const std::vector<std::vector<std::int64_t>>& extra) {
  Row row;
  row.cells.reserve(2 + extra.size());
  row.cells.push_back(Value(static_cast<std::int64_t>(i)));
  row.cells.push_back(Value(val[i]));
  for (const auto& col : extra) row.cells.push_back(Value(col[i]));
  return row;
}

}  // namespace

std::unique_ptr<Table> MakeTable(
    const std::vector<std::int64_t>& val,
    const std::vector<std::vector<std::int64_t>>& extra,
    const std::vector<std::string>& extra_names) {
  auto t = std::make_unique<Table>(MakeSchema(extra_names));
  for (std::uint64_t i = 0; i < val.size(); ++i) {
    t->AppendRow(MakeRow(i, val, extra));
  }
  return t;
}

std::unique_ptr<PartitionedTable> MakePartitionedTable(
    const std::vector<std::int64_t>& val, std::size_t parts,
    const std::vector<std::vector<std::int64_t>>& extra,
    const std::vector<std::string>& extra_names) {
  auto t = std::make_unique<PartitionedTable>(MakeSchema(extra_names), parts);
  const std::uint64_t per = (val.size() + parts - 1) / parts;
  for (std::uint64_t i = 0; i < val.size(); ++i) {
    t->partition(std::min<std::uint64_t>(i / per, parts - 1))
        .AppendRow(MakeRow(i, val, extra));
  }
  return t;
}

std::uint64_t NucMinimalPatches(const std::vector<std::int64_t>& values) {
  std::vector<std::int64_t> s = values;
  std::sort(s.begin(), s.end());
  std::uint64_t patches = 0;
  for (std::size_t i = 0; i < s.size();) {
    std::size_t j = i;
    while (j < s.size() && s[j] == s[i]) ++j;
    if (j - i > 1) patches += j - i;
    i = j;
  }
  return patches;
}

std::uint64_t NscMinimalPatches(const std::vector<std::int64_t>& values) {
  // Patience sorting for the longest non-decreasing subsequence.
  std::vector<std::int64_t> tails;
  for (std::int64_t x : values) {
    auto it = std::upper_bound(tails.begin(), tails.end(), x);
    if (it == tails.end()) {
      tails.push_back(x);
    } else {
      *it = x;
    }
  }
  return values.size() - tails.size();
}

std::vector<PatchIndex*> IndexesOf(Engine& engine, const std::string& table) {
  std::vector<PatchIndex*> out;
  PartitionedTable* pt = engine.catalog().FindPartitionedTable(table);
  if (pt == nullptr) return out;
  for (std::size_t p = 0; p < pt->num_partitions(); ++p) {
    for (PatchIndex* idx :
         engine.catalog().manager().IndexesOn(pt->partition(p))) {
      out.push_back(idx);
    }
  }
  return out;
}

std::uint64_t IndexBytes(Engine& engine) {
  std::uint64_t bytes = 0;
  for (const std::string& name : engine.catalog().TableNames()) {
    for (PatchIndex* idx : IndexesOf(engine, name)) {
      bytes += idx->MemoryUsageBytes();
    }
  }
  return bytes;
}

std::uint64_t IndexedRows(Engine& engine) {
  std::uint64_t rows = 0;
  for (const std::string& name : engine.catalog().TableNames()) {
    for (PatchIndex* idx : IndexesOf(engine, name)) rows += idx->NumRows();
  }
  return rows;
}

std::uint64_t CheckIndex(const PatchIndex& index, const std::string& what,
                         double slack, Report* report) {
  const Table& t = index.table();
  const patchindex::Column& col = t.column(index.column());
  const std::uint64_t n = t.num_rows();
  if (index.NumRows() != n) {
    report->Fail(what + ": index covers " + std::to_string(index.NumRows()) +
                 " rows, table has " + std::to_string(n));
    return index.NumPatches();
  }
  std::vector<std::int64_t> values(n);
  for (std::uint64_t r = 0; r < n; ++r) values[r] = col.GetInt64(r);

  std::uint64_t patches = 0;
  std::uint64_t minimal = 0;
  if (index.constraint() == patchindex::ConstraintKind::kNearlyUnique) {
    // A non-patch value must occur exactly once in the whole column, so
    // that distinct(non-patches) and distinct(patches) are disjoint.
    std::unordered_map<std::int64_t, std::uint32_t> count;
    count.reserve(n);
    for (std::int64_t v : values) ++count[v];
    std::uint64_t bad = 0;
    for (std::uint64_t r = 0; r < n; ++r) {
      if (index.IsPatch(r)) {
        ++patches;
      } else if (count[values[r]] != 1) {
        ++bad;
      }
    }
    if (bad > 0) {
      report->Fail(what + ": " + std::to_string(bad) +
                   " non-patch rows hold a duplicated value");
    }
    minimal = NucMinimalPatches(values);
  } else {
    bool have = false;
    std::int64_t prev = 0;
    std::uint64_t bad = 0;
    for (std::uint64_t r = 0; r < n; ++r) {
      if (index.IsPatch(r)) {
        ++patches;
        continue;
      }
      if (have && values[r] < prev) ++bad;
      prev = values[r];
      have = true;
    }
    if (bad > 0) {
      report->Fail(what + ": non-patch rows not sorted (" +
                   std::to_string(bad) + " inversions)");
    }
    minimal = NscMinimalPatches(values);
  }
  if (patches != index.NumPatches()) {
    report->Fail(what + ": NumPatches() disagrees with the patch set");
  }
  if (static_cast<double>(patches) > slack * static_cast<double>(minimal) + 1) {
    report->Fail(what + ": " + std::to_string(patches) +
                 " patches exceed " + std::to_string(slack) + " x the " +
                 std::to_string(minimal) + " a fresh discovery needs");
  }
  return patches;
}

patchindex::obs::HistogramSnapshot Hist(Engine& engine, const char* name) {
  return engine.metrics().HistogramSnapshotOf(name);
}

std::uint64_t CounterValue(Engine& engine, const char* name) {
  for (const patchindex::obs::MetricSample& s :
       engine.metrics().SnapshotAll()) {
    if (s.name == name) return static_cast<std::uint64_t>(s.value);
  }
  return 0;
}

double IntervalMeanUs(const patchindex::obs::HistogramSnapshot& before,
                      patchindex::obs::HistogramSnapshot after) {
  after.Subtract(before);
  return after.MeanUs();
}

std::string OperatorName(const std::string& label) {
  const std::size_t end = label.find_first_of("( [");
  return end == std::string::npos ? label : label.substr(0, end);
}

const std::vector<std::string>& KnownOperators() {
  static const std::vector<std::string> ops = {
      "Scan", "Select", "Project", "Aggregate", "Distinct", "PatchDistinct",
      "Sort", "PatchSort", "Join", "PatchJoin", "Other"};
  return ops;
}

}  // namespace perfbench
