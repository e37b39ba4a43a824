// Property tests for the morsel executor's parallel hash join and
// parallel order-by: results must equal the serial operator tree's
// (exactly for Sort-rooted plans, modulo order otherwise), across join
// shapes, NUC-indexed build keys, exception rates, TopN limits, and
// pending PDT inserts/deletes on both join sides. Also covers the
// Session execution-path counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/engine.h"
#include "engine/engine_test_util.h"
#include "engine/executor.h"
#include "optimizer/rewriter.h"
#include "patchindex/manager.h"
#include "workload/generator.h"

namespace patchindex {
namespace {

Batch RunSerial(const LogicalPtr& plan) {
  OperatorPtr op = CompilePlan(plan);
  return Collect(*op);
}

/// Small morsels so 2-4K-row test tables still produce many of them,
/// stressing partition boundaries and the dedicated inserts morsel.
ParallelExecOptions StressOptions() {
  ParallelExecOptions options;
  options.morsel_rows = 512;
  options.min_parallel_rows = 0;
  return options;
}

void ExpectEquivalent(const LogicalPtr& plan, ThreadPool& pool) {
  Batch parallel_out;
  ASSERT_TRUE(ExecuteParallel(*plan, pool, StressOptions(), &parallel_out));
  ExpectSameRows(RunSerial(plan), parallel_out);
}

/// Exact row-for-row equality, for Sort-rooted plans whose output order
/// is part of the contract.
void ExpectSameOrderedRows(const Batch& expected, const Batch& actual) {
  ASSERT_EQ(expected.columns.size(), actual.columns.size());
  ASSERT_EQ(expected.num_rows(), actual.num_rows());
  for (std::size_t c = 0; c < expected.columns.size(); ++c) {
    ASSERT_EQ(expected.columns[c].type, ColumnType::kInt64);
    EXPECT_EQ(expected.columns[c].i64, actual.columns[c].i64) << "col " << c;
  }
}

void ExpectOrderedEquivalent(const LogicalPtr& plan, ThreadPool& pool) {
  Batch parallel_out;
  ASSERT_TRUE(ExecuteParallel(*plan, pool, StressOptions(), &parallel_out));
  ExpectSameOrderedRows(RunSerial(plan), parallel_out);
}

OptimizerOptions Forced() {
  OptimizerOptions options;
  options.force_patch_rewrites = true;
  return options;
}

/// A fact table (fk, val) whose fk values are drawn from `dim`'s column
/// `dim_col`, so joins produce matches; every ~8th fk misses.
Table MakeFactTable(const Table& dim, std::size_t dim_col,
                    std::uint64_t rows, std::uint64_t seed) {
  Table fact(
      Schema({{"fk", ColumnType::kInt64}, {"val", ColumnType::kInt64}}));
  Rng rng(seed);
  for (std::uint64_t i = 0; i < rows; ++i) {
    std::int64_t fk;
    if (rng.NextBool(0.125)) {
      fk = -static_cast<std::int64_t>(i) - 1;  // guaranteed miss
    } else {
      fk = dim.column(dim_col).GetInt64(rng.Uniform(0, dim.num_rows() - 1));
    }
    fact.column(0).AppendInt64(fk);
    fact.column(1).AppendInt64(static_cast<std::int64_t>(i));
  }
  return fact;
}

TEST(ParallelJoinTest, JoinShapesMatchSerial) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 2'000;
  config.exception_rate = 0.2;
  Table dim = GenerateNucTable(config);
  Table fact = MakeFactTable(dim, 1, 6'000, 7);

  // Plain scan join, both key orders.
  ExpectEquivalent(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                   pool);
  ExpectEquivalent(LJoin(LScan(fact, {0, 1}), LScan(dim, {0, 1}), 0, 1),
                   pool);

  // Selections and projections on both children.
  ExpectEquivalent(
      LJoin(LSelect(LScan(dim, {0, 1}), Gt(Col(0), ConstInt(100)), 0.9),
            LProject(LScan(fact, {0, 1}), {Col(0), Add(Col(1), Col(1))}),
            1, 0),
      pool);

  // Select + project above the join (the fused probe pipeline).
  ExpectEquivalent(
      LProject(
          LSelect(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                  Lt(Col(3), ConstInt(3'000)), 0.5),
          {Add(Col(0), Col(3)), Col(1)}),
      pool);

  // Grouping aggregate over the join, merged from per-worker partials.
  ExpectEquivalent(
      LAggregate(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0), {0},
                 {{AggOp::kCount, 0}, {AggOp::kSum, 3}, {AggOp::kMax, 3}}),
      pool);
}

TEST(ParallelJoinTest, NucIndexedBuildKeyAcrossExceptionRates) {
  ThreadPool pool(4);
  for (double rate : {0.0, 0.1, 0.5, 1.0}) {
    GeneratorConfig config;
    config.num_rows = 2'000;
    config.exception_rate = rate;
    Table dim = GenerateNucTable(config);
    Table fact = MakeFactTable(dim, 1, 6'000, 11);
    PatchIndexManager manager;
    manager.CreateIndex(dim, 1, ConstraintKind::kNearlyUnique);

    LogicalPtr plan = OptimizePlan(
        LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0), manager,
        Forced());
    ASSERT_EQ(plan->kind, LogicalNode::Kind::kJoin);
    EXPECT_NE(plan->left_key_nuc, nullptr) << "rate " << rate;
    ExpectEquivalent(plan, pool);

    // Through a selection on the indexed side.
    LogicalPtr filtered = OptimizePlan(
        LJoin(LSelect(LScan(dim, {0, 1}), Gt(Col(0), ConstInt(-1)), 0.99),
              LScan(fact, {0, 1}), 1, 0),
        manager, Forced());
    ASSERT_EQ(filtered->kind, LogicalNode::Kind::kJoin);
    EXPECT_NE(filtered->left_key_nuc, nullptr);
    ExpectEquivalent(filtered, pool);
  }
}

/// Pending (buffered, uncommitted) PDT deltas on both join sides: base
/// morsels plus the dedicated inserts morsel must reproduce the serial
/// scan merge exactly, and pending inserts on a NUC build side must take
/// the exception path (their rowIDs are outside the index's domain).
TEST(ParallelJoinTest, PendingDeltasOnBothSides) {
  ThreadPool pool(4);
  Rng rng(29);
  for (int round = 0; round < 6; ++round) {
    GeneratorConfig config;
    config.num_rows = 2'000;
    config.exception_rate = 0.1;
    config.seed = 100 + round;
    Table dim = GenerateNucTable(config);
    Table fact = MakeFactTable(dim, 1, 5'000, 200 + round);
    PatchIndexManager manager;
    manager.CreateIndex(dim, 1, ConstraintKind::kNearlyUnique);

    // Inserts on the dim side duplicate existing build keys (stressing
    // the unique-map demotion) and add fresh ones; deletes hit both.
    for (int i = 0; i < 32; ++i) {
      const std::int64_t dup =
          dim.column(1).GetInt64(rng.Uniform(0, dim.num_rows() - 1));
      dim.BufferInsert(Row{{Value(static_cast<std::int64_t>(
                                config.num_rows + i)),
                            Value(i % 2 == 0 ? dup : 9'000'000 + i)}});
    }
    std::set<RowId> dim_victims;
    while (dim_victims.size() < 32) {
      dim_victims.insert(rng.Uniform(0, dim.num_rows() - 1));
    }
    for (RowId r : dim_victims) ASSERT_TRUE(dim.BufferDelete(r).ok());

    for (int i = 0; i < 48; ++i) {
      const std::int64_t fk =
          dim.column(1).GetInt64(rng.Uniform(0, dim.num_rows() - 1));
      fact.BufferInsert(Row{{Value(fk), Value(static_cast<std::int64_t>(
                                           100'000 + i))}});
    }
    std::set<RowId> fact_victims;
    while (fact_victims.size() < 48) {
      fact_victims.insert(rng.Uniform(0, fact.num_rows() - 1));
    }
    for (RowId r : fact_victims) ASSERT_TRUE(fact.BufferDelete(r).ok());

    LogicalPtr plan = OptimizePlan(
        LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0), manager,
        Forced());
    ASSERT_EQ(plan->kind, LogicalNode::Kind::kJoin);
    EXPECT_NE(plan->left_key_nuc, nullptr);
    ExpectEquivalent(plan, pool);

    // Same deltas, unannotated join (no index consulted).
    ExpectEquivalent(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
                     pool);
  }
}

TEST(ParallelSortTest, OrderByMatchesSerialExactly) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 4'000;
  config.exception_rate = 0.3;
  Table t = GenerateNucTable(config);

  // Unique sort key (col 0): order fully determined.
  ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, true}}), pool);
  ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, false}}), pool);

  // Duplicated primary key broken by the unique secondary: multi-key
  // comparator, still fully determined.
  ExpectOrderedEquivalent(
      LSort(LScan(t, {1, 0}), {{0, true}, {1, false}}), pool);

  // Through a selection, and over a projection.
  ExpectOrderedEquivalent(
      LSort(LSelect(LScan(t, {0, 1}), Lt(Col(0), ConstInt(2'500)), 0.6),
            {{0, true}}),
      pool);
  ExpectOrderedEquivalent(
      LSort(LProject(LScan(t, {0, 1}), {Sub(Col(0), Col(1)), Col(0)}),
            {{0, true}, {1, true}}),
      pool);
}

TEST(ParallelSortTest, TopNLimitMatchesSerial) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 4'000;
  Table t = GenerateNucTable(config);

  for (std::size_t limit : {1u, 10u, 1'000u, 4'000u, 10'000u}) {
    ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, true}}, limit),
                            pool);
    ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, false}}, limit),
                            pool);
  }
}

TEST(ParallelSortTest, SortOverAggregateAndPendingDeltas) {
  ThreadPool pool(4);
  Rng rng(37);
  GeneratorConfig config;
  config.num_rows = 3'000;
  config.exception_rate = 0.4;
  Table t = GenerateNucTable(config);

  // Sort over a grouping aggregate: partial-aggregate parallel, final
  // sort on the merged result (group keys are unique after the merge).
  ExpectOrderedEquivalent(
      LSort(LAggregate(LScan(t, {1, 0}), {0},
                       {{AggOp::kCount, 0}, {AggOp::kMax, 1}}),
            {{0, true}}),
      pool);

  // Pending deltas under a sort: deletes then inserts.
  std::set<RowId> victims;
  while (victims.size() < 64) victims.insert(rng.Uniform(0, t.num_rows() - 1));
  for (RowId r : victims) ASSERT_TRUE(t.BufferDelete(r).ok());
  for (int i = 0; i < 64; ++i) {
    t.BufferInsert(MakeGeneratorRow(
        static_cast<std::int64_t>(config.num_rows) + i, 5'000'000 + i));
  }
  ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, true}}), pool);
  ExpectOrderedEquivalent(LSort(LScan(t, {0, 1}), {{0, true}}, 100), pool);
}

TEST(ParallelSortTest, JoinWithOrderByRunsParallelEndToEnd) {
  ThreadPool pool(4);
  GeneratorConfig config;
  config.num_rows = 2'000;
  config.exception_rate = 0.1;
  Table dim = GenerateNucTable(config);
  Table fact = MakeFactTable(dim, 1, 6'000, 13);

  // ORDER BY the fact's unique val column over the join, tie-broken by
  // the dim's unique key (one fact row can match several dim exception
  // rows): fully determined output order end to end.
  LogicalPtr plan =
      LSort(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
            {{3, true}, {0, true}});
  ParallelExecReport report;
  Batch parallel_out;
  ASSERT_TRUE(ExecuteParallel(*plan, pool, StressOptions(), &parallel_out,
                              &report));
  EXPECT_TRUE(report.parallel_join);
  EXPECT_TRUE(report.parallel_sort);
  ExpectSameOrderedRows(RunSerial(plan), parallel_out);

  // TopN over the join.
  ExpectOrderedEquivalent(
      LSort(LJoin(LScan(dim, {0, 1}), LScan(fact, {0, 1}), 1, 0),
            {{3, false}, {0, true}}, 50),
      pool);
}

TEST(ParallelPlanSupportTest, ShapeClassification) {
  GeneratorConfig config;
  config.num_rows = 64;
  Table t = GenerateNucTable(config);
  Table u = GenerateNucTable(config);

  EXPECT_TRUE(ParallelPlanSupported(
      *LJoin(LScan(t, {0, 1}), LScan(u, {0, 1}), 0, 0)));
  EXPECT_TRUE(ParallelPlanSupported(*LSort(LScan(t, {0}), {{0, true}})));
  EXPECT_TRUE(ParallelPlanSupported(
      *LSort(LJoin(LScan(t, {0, 1}), LScan(u, {0, 1}), 0, 0), {{1, true}})));
  EXPECT_TRUE(ParallelPlanSupported(*LSort(
      LAggregate(LScan(t, {1}), {0}, {{AggOp::kCount, 0}}), {{0, true}})));

  // A join over a non-chain input (aggregate below the join) and a
  // global aggregate stay serial.
  EXPECT_FALSE(ParallelPlanSupported(*LJoin(
      LAggregate(LScan(t, {1}), {0}, {{AggOp::kCount, 0}}),
      LScan(u, {0, 1}), 0, 0)));
  EXPECT_FALSE(ParallelPlanSupported(
      *LAggregate(LScan(t, {0}), {}, {{AggOp::kCount, 0}})));
}

TEST(ParallelPlanSupportTest, RootProjectOverSortOrAggregate) {
  GeneratorConfig config;
  config.num_rows = 64;
  Table t = GenerateNucTable(config);

  // The binder's global COUNT(*): Project over an Aggregate on a
  // constant group key.
  EXPECT_TRUE(ParallelPlanSupported(*LProject(
      LAggregate(LProject(LScan(t, {0, 1}), {ConstInt(0), Col(0), Col(1)}),
                 {0}, {{AggOp::kCount, 1}}),
      {Col(1)})));
  // ORDER BY a column outside the select list: Project over a Sort.
  EXPECT_TRUE(ParallelPlanSupported(*LProject(
      LSort(LSelect(LScan(t, {0, 1}), Lt(Col(0), ConstInt(10)), 0.2),
            {{1, true}}),
      {Col(0)})));
  // Project over a Distinct, and over a Sort of an Aggregate.
  EXPECT_TRUE(ParallelPlanSupported(
      *LProject(LDistinct(LScan(t, {1}), {0}), {Col(0)})));
  EXPECT_TRUE(ParallelPlanSupported(*LProject(
      LSort(LAggregate(LScan(t, {1}), {0}, {{AggOp::kCount, 0}}),
            {{1, false}}),
      {Col(0)})));
  // Only one root Project: a Project over that shape stays serial.
  EXPECT_FALSE(ParallelPlanSupported(*LProject(
      LProject(LSort(LScan(t, {0, 1}), {{1, true}}), {Col(0)}), {Col(0)})));
}

/// The Session-level counters: one query bumps exactly one of
/// serial_fallbacks / parallel_pipelines, or the join/sort feature
/// counters when those paths ran.
TEST(ExecPathCounterTest, SessionReportsExecutionPaths) {
  EngineOptions options;
  options.num_threads = 4;
  options.min_parallel_rows = 0;
  Engine engine(options);
  GeneratorConfig config;
  config.num_rows = 2'000;
  auto* dim = engine.catalog()
                  .AddTable("dim", std::make_unique<Table>(
                                       GenerateNucTable(config)))
                  .value();
  auto* fact = engine.catalog()
                   .AddTable("fact", std::make_unique<Table>(MakeFactTable(
                                         *dim, 1, 4'000, 17)))
                   .value();

  Session session = engine.CreateSession();
  const ExecPathCounters& counters = session.path_counters();

  // Plain pipeline.
  ASSERT_TRUE(session.Execute(LScan(*dim, {0, 1})).ok());
  EXPECT_EQ(counters.parallel_pipelines.load(), 1u);

  // Join + order-by: both feature counters, not the pipeline counter.
  auto result = session.Execute(
      LSort(LJoin(LScan(*dim, {0, 1}), LScan(*fact, {0, 1}), 1, 0),
            {{3, true}}, 100));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().parallel);
  EXPECT_TRUE(result.value().parallel_join);
  EXPECT_TRUE(result.value().parallel_sort);
  EXPECT_EQ(counters.parallel_joins.load(), 1u);
  EXPECT_EQ(counters.parallel_sorts.load(), 1u);
  EXPECT_EQ(counters.parallel_pipelines.load(), 1u);
  EXPECT_EQ(counters.serial_fallbacks.load(), 0u);

  // Unsupported shape falls back and says so.
  auto fallback = session.Execute(LJoin(
      LAggregate(LScan(*dim, {1}), {0}, {{AggOp::kCount, 0}}),
      LScan(*fact, {0, 1}), 0, 0));
  ASSERT_TRUE(fallback.ok());
  EXPECT_FALSE(fallback.value().parallel);
  EXPECT_EQ(counters.serial_fallbacks.load(), 1u);
}

}  // namespace
}  // namespace patchindex
