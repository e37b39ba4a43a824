// The two-phase partitioned parallel aggregation: per-worker partial
// aggregates hash-partitioned into one spill per partition, merged by one
// task per partition. Every plan runs on the serial operator tree and on
// pools of 1, 3 (a partition count above the worker count) and 4
// workers; all must return the same groups and aggregate values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "optimizer/rewriter.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

/// Order-insensitive, exact rendering of a result: one string per row,
/// doubles by their bit pattern, sorted. RowIDs are left out — a group's
/// first-seen row depends on morsel scheduling.
std::vector<std::string> CanonicalRows(const Batch& b) {
  std::vector<std::string> rows(b.num_rows());
  for (std::size_t r = 0; r < b.num_rows(); ++r) {
    for (const ColumnVector& col : b.columns) {
      switch (col.type) {
        case ColumnType::kInt64:
          rows[r] += "i" + std::to_string(col.i64[r]);
          break;
        case ColumnType::kDouble: {
          std::uint64_t bits;
          std::memcpy(&bits, &col.f64[r], sizeof(bits));
          rows[r] += "d" + std::to_string(bits);
          break;
        }
        case ColumnType::kString:
          rows[r] += "s" + col.str[r];
          break;
      }
      rows[r] += "|";
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<ColumnType> TypesOf(const Batch& b) {
  std::vector<ColumnType> types;
  for (const ColumnVector& c : b.columns) types.push_back(c.type);
  return types;
}

Batch RunSerial(const LogicalPtr& plan) {
  OperatorPtr op = CompilePlan(plan);
  return Collect(*op);
}

/// Small morsels and no size gate, so every test table runs many morsels
/// through the parallel path.
ParallelExecOptions TestOptions() {
  ParallelExecOptions options;
  options.morsel_rows = 512;
  options.min_parallel_rows = 0;
  return options;
}

/// Serial tree vs 1-, 3- and 4-worker parallel runs.
void ExpectAllRunsAgree(const LogicalPtr& plan) {
  const Batch serial = RunSerial(plan);
  const std::vector<std::string> expected = CanonicalRows(serial);
  for (std::size_t threads : {1u, 3u, 4u}) {
    ThreadPool pool(threads);
    Batch parallel;
    ASSERT_TRUE(ExecuteParallel(*plan, pool, TestOptions(), &parallel))
        << threads << " workers";
    EXPECT_EQ(TypesOf(parallel), TypesOf(serial)) << threads << " workers";
    EXPECT_EQ(CanonicalRows(parallel), expected) << threads << " workers";
  }
}

/// (k INT64, v INT64, d DOUBLE) with v and d derived from the row number;
/// d is a multiple of 0.25 so every partial-sum order is exact.
Table MakeKeyTable(const std::vector<std::int64_t>& keys) {
  Table t(Schema({{"k", ColumnType::kInt64},
                  {"v", ColumnType::kInt64},
                  {"d", ColumnType::kDouble}}));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::int64_t v = static_cast<std::int64_t>(i * 7919 % 1'000) - 500;
    const double d = static_cast<double>(static_cast<int>(i % 41) - 20) * 0.25;
    t.AppendRow(Row{{Value(keys[i]), Value(v), Value(d)}});
  }
  return t;
}

/// DISTINCT k, and GROUP BY k with COUNT/SUM/MIN/MAX over INT64 and
/// DOUBLE columns.
void ExpectKeyPlansAgree(const Table& t) {
  ExpectAllRunsAgree(LDistinct(LScan(t, {0}), {0}));
  ExpectAllRunsAgree(LAggregate(LScan(t, {0, 1, 2}), {0},
                                {{AggOp::kCount, 0},
                                 {AggOp::kSum, 1},
                                 {AggOp::kMin, 1},
                                 {AggOp::kMax, 1},
                                 {AggOp::kSum, 2},
                                 {AggOp::kMin, 2},
                                 {AggOp::kMax, 2}}));
}

TEST(ParallelAggregateTest, AllUniqueAndAllDuplicateKeys) {
  std::vector<std::int64_t> unique(6'000);
  for (std::size_t i = 0; i < unique.size(); ++i) {
    unique[i] = static_cast<std::int64_t>(i) * 3 - 9'000;
  }
  ExpectKeyPlansAgree(MakeKeyTable(unique));
  ExpectKeyPlansAgree(MakeKeyTable(std::vector<std::int64_t>(6'000, 42)));
}

TEST(ParallelAggregateTest, ExtremeKeyValues) {
  // 0, negatives and both INT64 limits are ordinary group keys: no value
  // is reserved as an empty-slot marker anywhere in the pipeline.
  const std::vector<std::int64_t> special = {0,        -1,       -77,
                                             kMin,     kMax,     kMin + 1,
                                             kMax - 1, 1,        -4096};
  Rng rng(5);
  std::vector<std::int64_t> keys;
  for (std::size_t i = 0; i < 5'000; ++i) {
    keys.push_back(rng.NextBool(0.5)
                       ? special[rng.Uniform(0, special.size() - 1)]
                       : static_cast<std::int64_t>(rng.engine()()));
  }
  ExpectKeyPlansAgree(MakeKeyTable(keys));
  // Only the limits.
  ExpectKeyPlansAgree(MakeKeyTable({kMin, kMax, kMin, 0, kMax, kMin}));
}

TEST(ParallelAggregateTest, EmptyInput) {
  Table empty = MakeKeyTable({});
  ExpectKeyPlansAgree(empty);
  // Rows exist but the filter drops them all.
  Table t = MakeKeyTable(std::vector<std::int64_t>(3'000, 1));
  ExpectAllRunsAgree(LAggregate(
      LSelect(LScan(t, {0, 1, 2}), Lt(Col(0), ConstInt(0)), 0.0), {0},
      {{AggOp::kCount, 0}, {AggOp::kSum, 2}}));
  ExpectAllRunsAgree(
      LDistinct(LSelect(LScan(t, {0}), Lt(Col(0), ConstInt(0)), 0.0), {0}));
}

TEST(ParallelAggregateTest, GroupCountsBelowAndFarAbovePartitions) {
  // From one group (a single partition receives everything) through
  // fewer groups than partitions to thousands per partition.
  for (std::int64_t groups : {1, 2, 3, 5, 64, 4'000}) {
    std::vector<std::int64_t> keys(8'000);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      keys[i] = static_cast<std::int64_t>(i) % groups;
    }
    SCOPED_TRACE(groups);
    ExpectKeyPlansAgree(MakeKeyTable(keys));
  }
}

TEST(ParallelAggregateTest, CountSumMinMaxOverInt64AndDouble) {
  // Aggregate columns whose values straddle zero, grouped by a column
  // other than the first, over a 4-partition table.
  GeneratorConfig config;
  config.num_rows = 12'000;
  config.exception_rate = 0.2;
  auto table = GenerateNucPartitioned(config, 4);
  ExpectAllRunsAgree(LAggregate(LScan(*table, {0, 1}), {1},
                                {{AggOp::kCount, 0},
                                 {AggOp::kSum, 0},
                                 {AggOp::kMin, 0},
                                 {AggOp::kMax, 0}}));
  ExpectAllRunsAgree(LDistinct(LScan(*table, {1}), {0}));

  std::vector<std::int64_t> keys(7'000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::int64_t>(i % 97) - 48;
  }
  Table t = MakeKeyTable(keys);
  ExpectAllRunsAgree(LAggregate(LScan(t, {2, 0, 1}), {1},
                                {{AggOp::kMin, 0},
                                 {AggOp::kMax, 0},
                                 {AggOp::kSum, 0},
                                 {AggOp::kCount, 2},
                                 {AggOp::kMin, 2},
                                 {AggOp::kMax, 2}}));
}

TEST(ParallelAggregateTest, CompositeDoubleAndStringKeys) {
  // Keys outside the flat INT64 path partition on their byte content.
  Table t(Schema({{"a", ColumnType::kInt64},
                  {"b", ColumnType::kDouble},
                  {"s", ColumnType::kString}}));
  for (std::int64_t i = 0; i < 6'000; ++i) {
    t.AppendRow(Row{{Value(i % 13 - 6), Value(static_cast<double>(i % 7) * 0.5),
                     Value("name" + std::to_string(i % 29))}});
  }
  ExpectAllRunsAgree(LDistinct(LScan(t, {0, 1}), {0, 1}));
  ExpectAllRunsAgree(LDistinct(LScan(t, {2}), {0}));
  ExpectAllRunsAgree(LDistinct(LScan(t, {1}), {0}));
  ExpectAllRunsAgree(LAggregate(LScan(t, {2, 0, 1}), {0, 1},
                                {{AggOp::kCount, 0},
                                 {AggOp::kSum, 2},
                                 {AggOp::kMax, 1}}));
}

OptimizerOptions Forced() {
  OptimizerOptions options;
  options.force_patch_rewrites = true;
  return options;
}

TEST(ParallelAggregateTest, PatchDistinctOnNucAndNcc) {
  // The use-patches phase runs the partitioned merge.
  for (double rate : {0.0, 0.05, 0.5, 1.0}) {
    GeneratorConfig config;
    config.num_rows = 6'000;
    config.exception_rate = rate;
    Table t = GenerateNucTable(config);
    PatchIndexManager manager;
    manager.CreateIndex(t, 1, ConstraintKind::kNearlyUnique);
    LogicalPtr plan =
        OptimizePlan(LDistinct(LScan(t, {1}), {0}), manager, Forced());
    ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchDistinct);
    SCOPED_TRACE(rate);
    ExpectAllRunsAgree(plan);
  }

  Rng rng(19);
  Table t(Schema({{"key", ColumnType::kInt64}, {"val", ColumnType::kInt64}}));
  for (std::int64_t i = 0; i < 6'000; ++i) {
    const std::int64_t v = rng.NextBool(0.8)
                               ? kMin
                               : static_cast<std::int64_t>(rng.Uniform(0, 900));
    t.AppendRow(Row{{Value(i), Value(v)}});
  }
  PatchIndexManager manager;
  manager.CreateIndex(t, 1, ConstraintKind::kNearlyConstant);
  LogicalPtr plan =
      OptimizePlan(LDistinct(LScan(t, {1}), {0}), manager, Forced());
  ASSERT_EQ(plan->kind, LogicalNode::Kind::kPatchDistinct);
  ExpectAllRunsAgree(plan);
}

TEST(ParallelAggregateTest, RootProjectOverAggregateAndSort) {
  std::vector<std::int64_t> keys(5'000);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = static_cast<std::int64_t>(keys.size() - i);
  }
  Table t = MakeKeyTable(keys);

  // The binder's global COUNT(*): a constant group key, dropped above.
  LogicalPtr count = LProject(
      LAggregate(LProject(LScan(t, {0, 1}), {ConstInt(0), Col(0), Col(1)}),
                 {0}, {{AggOp::kCount, 1}, {AggOp::kSum, 2}}),
      {Col(1), Col(2)});
  ExpectAllRunsAgree(count);

  // ORDER BY a column outside the select list: the order must match the
  // serial tree exactly (k is unique, so the order is total).
  LogicalPtr ordered =
      LProject(LSort(LScan(t, {0, 1, 2}), {{0, true}}), {Col(2), Col(1)});
  const Batch serial = RunSerial(ordered);
  ThreadPool pool(4);
  Batch parallel;
  ParallelExecReport report;
  ASSERT_TRUE(
      ExecuteParallel(*ordered, pool, TestOptions(), &parallel, &report));
  EXPECT_TRUE(report.parallel_sort);
  ASSERT_EQ(TypesOf(parallel), TypesOf(serial));
  EXPECT_EQ(parallel.columns[0].f64, serial.columns[0].f64);
  EXPECT_EQ(parallel.columns[1].i64, serial.columns[1].i64);
}

TEST(ParallelAggregateTest, SqlCountAndOrderByRunOnThePool) {
  EngineOptions options;
  options.num_threads = 4;
  options.min_parallel_rows = 0;
  Engine engine(options);
  Session session = engine.CreateSession();
  ASSERT_TRUE(session.Sql("CREATE TABLE t (a INT64, b INT64)").ok());

  // COUNT(*) over an empty table still returns its one row of zero.
  Result<QueryResult> empty = session.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty.value().parallel);
  ASSERT_EQ(empty.value().rows.num_rows(), 1u);
  EXPECT_EQ(empty.value().rows.columns[0].i64[0], 0);

  std::string insert = "INSERT INTO t VALUES ";
  for (int i = 0; i < 300; ++i) {
    if (i > 0) insert += ", ";
    insert += "(" + std::to_string(i) + ", " + std::to_string(299 - i) + ")";
  }
  ASSERT_TRUE(session.Sql(insert).ok());

  Result<QueryResult> count =
      session.Sql("SELECT COUNT(*), SUM(a) FROM t WHERE b < 100");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_TRUE(count.value().parallel);
  ASSERT_EQ(count.value().rows.num_rows(), 1u);
  EXPECT_EQ(count.value().rows.columns[0].i64[0], 100);
  EXPECT_EQ(count.value().rows.columns[1].i64[0], (200 + 299) * 100 / 2);

  Result<QueryResult> ordered =
      session.Sql("SELECT a FROM t WHERE a < 50 ORDER BY b");
  ASSERT_TRUE(ordered.ok()) << ordered.status().ToString();
  EXPECT_TRUE(ordered.value().parallel);
  EXPECT_TRUE(ordered.value().parallel_sort);
  ASSERT_EQ(ordered.value().rows.num_rows(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(ordered.value().rows.columns[0].i64[i],
              static_cast<std::int64_t>(49 - i));
  }
  EXPECT_EQ(session.path_counters().serial_fallbacks.load(), 0u);
}

}  // namespace
}  // namespace patchindex
