// Input generation and reference computations. The benchmark builds its
// columns from --seed with its own random stream, keeps its own copy of
// them, and computes every expected answer from that copy — never from
// the engine's output.

#ifndef PERFBENCH_DATA_H_
#define PERFBENCH_DATA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"

namespace perfbench {

/// Nearly unique column: `rate * n` exception rows drawn from a domain of
/// `n * rate / 4` odd values (each value lands on ~4 rows, so every
/// exception value is duplicated); every other row i holds the even value
/// 2*i. Exception and unique values are disjoint.
std::vector<std::int64_t> MakeNucColumn(std::uint64_t n, double rate,
                                        Rng& rng);

/// Nearly sorted column: row i holds 2*i except `rate * n` random rows,
/// which hold a random value in [0, 2n).
std::vector<std::int64_t> MakeNscColumn(std::uint64_t n, double rate,
                                        Rng& rng);

/// A single-partition engine table with columns (key = row position,
/// val) plus optional extra int columns.
std::unique_ptr<patchindex::Table> MakeTable(
    const std::vector<std::int64_t>& val,
    const std::vector<std::vector<std::int64_t>>& extra = {},
    const std::vector<std::string>& extra_names = {});

/// The same rows range-partitioned on the key into `parts` partitions
/// (global rowID order = key order).
std::unique_ptr<patchindex::PartitionedTable> MakePartitionedTable(
    const std::vector<std::int64_t>& val, std::size_t parts,
    const std::vector<std::vector<std::int64_t>>& extra = {},
    const std::vector<std::string>& extra_names = {});

/// Rows that must be patches for a nearly-unique constraint to hold:
/// every occurrence of a value that occurs more than once.
std::uint64_t NucMinimalPatches(const std::vector<std::int64_t>& values);

/// Rows outside a longest non-decreasing subsequence: the fewest patches
/// a nearly-sorted constraint admits.
std::uint64_t NscMinimalPatches(const std::vector<std::int64_t>& values);

/// Sum of PatchIndex::MemoryUsageBytes over every index in the catalog.
std::uint64_t IndexBytes(patchindex::Engine& engine);

/// Sum of indexed rows over every index in the catalog.
std::uint64_t IndexedRows(patchindex::Engine& engine);

/// Every index on `table` (all partitions, partition order).
std::vector<patchindex::PatchIndex*> IndexesOf(patchindex::Engine& engine,
                                               const std::string& table);

/// Checks one maintained index against its partition's current column:
/// non-patch rows satisfy the constraint, and the patch count is at most
/// `slack` times the minimal patch count computed here from the column.
/// Appends failures to `report`; returns the patch count.
std::uint64_t CheckIndex(const patchindex::PatchIndex& index,
                         const std::string& what, double slack,
                         Report* report);

/// A histogram snapshot of an engine metric.
patchindex::obs::HistogramSnapshot Hist(patchindex::Engine& engine,
                                        const char* name);

/// The current value of an engine counter (0 when never registered).
std::uint64_t CounterValue(patchindex::Engine& engine, const char* name);

/// Mean microseconds of the histogram interval `after - before`.
double IntervalMeanUs(const patchindex::obs::HistogramSnapshot& before,
                      patchindex::obs::HistogramSnapshot after);

/// Operator name of an EXPLAIN label ("PatchDistinct [NUC e=5%]" ->
/// "PatchDistinct", "Scan(2 cols, ...)" -> "Scan").
std::string OperatorName(const std::string& label);

/// Operator names the olap plans can contain, plus "Other" for any
/// operator outside the list; exec.self_ms.<name> is reported for each.
const std::vector<std::string>& KnownOperators();

}  // namespace perfbench

#endif  // PERFBENCH_DATA_H_
