// Per-query memory limits end to end: an over-budget statement aborts
// with kResourceExhausted naming the operator while the engine stays
// fully usable, the accounted balance drains when statements retire,
// peak_mem figures agree byte-for-byte across every surface (EXPLAIN
// ANALYZE text, QueryResult::profile, pi_stats.queries), and the new
// pi_stats.memory / pi_stats.histograms system tables serve live rows.

#include <gtest/gtest.h>

#include <cstdint>
#include <regex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "obs/profile.h"
#include "server/meta_commands.h"

namespace patchindex {
namespace {

void MustSql(Session& session, const std::string& sql) {
  Result<QueryResult> r = session.Sql(sql);
  ASSERT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
}

/// Loads the standard generated table `big` (key INT64, val INT64).
void GenBig(Engine& engine, Session& session, std::size_t rows) {
  const std::string out = RunMetaCommand(
      engine, session, ".gen nuc big " + std::to_string(rows) + " 0.05");
  ASSERT_EQ(out.rfind("error:", 0), std::string::npos) << out;
}

std::string PlanText(const QueryResult& r) {
  std::string out;
  for (std::size_t i = 0; i < r.rows.num_rows(); ++i) {
    if (!out.empty()) out += "\n";
    out += r.rows.columns[0].str[i];
  }
  return out;
}

TEST(ResourceLimitTest, OverLimitQueryAbortsNamingOperatorEngineUsable) {
  EngineOptions options;
  options.query_memory_limit = 256 * 1024;
  Engine engine(options);
  Session session = engine.CreateSession();
  GenBig(engine, session, 200'000);

  // Materializing 200k two-column rows charges megabytes against a 256KB
  // budget: the statement must abort with the structured status.
  Result<QueryResult> r = session.Sql("SELECT key, val FROM big ORDER BY val");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  const std::string msg = r.status().message();
  EXPECT_NE(msg.find("memory limit exceeded in operator"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("query"), std::string::npos) << msg;

  // The failed statement released everything it had charged.
  EXPECT_EQ(engine.memory().current(), 0u);

  // The session and engine keep working: a statement under budget runs,
  // and the failure is recorded — not wedged — in the flight recorder.
  Result<QueryResult> count = session.Sql("SELECT COUNT(*) FROM big");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows.columns[0].i64[0], 200'000);
  Result<QueryResult> status = session.Sql(
      "SELECT COUNT(*) FROM pi_stats.queries "
      "WHERE status = 'ResourceExhausted'");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status.value().rows.columns[0].i64[0], 1);
}

TEST(ResourceLimitTest, HighCardinalityDistinctUnwindsInPartitionedMerge) {
  // 200k unique keys on 4 workers. The partial phase charges at most
  // ~75 bytes per key (a flat table of at most 8/3 slots x 16 bytes per
  // group, plus the 16-byte group rows and their spill); the merge phase
  // charges at least ~53 bytes per key again. A 90-bytes-per-key budget
  // therefore admits every partial aggregate and trips in the merge.
  constexpr std::size_t kRows = 200'000;
  EngineOptions options;
  options.num_threads = 4;
  options.query_memory_limit = 90 * kRows;
  Engine engine(options);
  Session session = engine.CreateSession();
  GenBig(engine, session, kRows);

  Result<QueryResult> r = session.Sql("SELECT DISTINCT key FROM big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("operator HashAggregate merge"),
            std::string::npos)
      << r.status().message();
  EXPECT_EQ(engine.memory().current(), 0u);

  // The engine stays usable: a small DISTINCT and a COUNT(*) over the
  // same table run on the pool under the same budget.
  Result<QueryResult> small =
      session.Sql("SELECT DISTINCT key FROM big WHERE key < 1000");
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  EXPECT_TRUE(small.value().parallel);
  EXPECT_EQ(small.value().rows.num_rows(), 1'000u);
  Result<QueryResult> count = session.Sql("SELECT COUNT(*) FROM big");
  ASSERT_TRUE(count.ok()) << count.status().ToString();
  EXPECT_EQ(count.value().rows.columns[0].i64[0],
            static_cast<std::int64_t>(kRows));
  EXPECT_EQ(engine.memory().current(), 0u);
}

TEST(ResourceLimitTest, DmlDeltaChargesAgainstTheBudget) {
  EngineOptions options;
  options.query_memory_limit = 16 * 1024;
  Engine engine(options);
  Session session = engine.CreateSession();
  MustSql(session, "CREATE TABLE t (a INT64, b STRING)");

  // One small insert fits.
  MustSql(session, "INSERT INTO t VALUES (1, 'x')");

  // A bulk insert whose delta alone exceeds 16KB must be refused as
  // kResourceExhausted — and must not partially apply.
  std::string bulk = "INSERT INTO t VALUES (0, 'padpadpadpadpadpad')";
  for (int i = 1; i < 400; ++i) {
    bulk += ", (" + std::to_string(i) + ", 'padpadpadpadpadpad')";
  }
  Result<QueryResult> r = session.Sql(bulk);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
      << r.status().ToString();

  Result<QueryResult> count = session.Sql("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().rows.columns[0].i64[0], 1);
}

TEST(ResourceLimitTest, PeakMemAgreesAcrossAllSurfaces) {
  Engine engine;
  Session session = engine.CreateSession();
  GenBig(engine, session, 50'000);

  const std::string sql =
      "EXPLAIN ANALYZE SELECT key, val FROM big ORDER BY val LIMIT 10";
  Result<QueryResult> r = session.Sql(sql);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::string plan = PlanText(r.value());

  // The rendered phases line carries the statement-wide peak.
  std::smatch m;
  ASSERT_TRUE(std::regex_search(plan, m, std::regex("peak_mem=([0-9]+)")))
      << plan;
  const std::uint64_t rendered = std::stoull(m[1]);
  EXPECT_GT(rendered, 0u);

  // Same figure on the programmatic profile...
  ASSERT_NE(r.value().profile, nullptr);
  EXPECT_EQ(r.value().profile->peak_mem_bytes, rendered);

  // ...and on the statement's pi_stats.queries row: one peak read feeds
  // every surface, so these are byte-identical, not merely close.
  Result<QueryResult> rec = session.Sql(
      "SELECT peak_mem_bytes FROM pi_stats.queries WHERE sql = '" + sql +
      "'");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(rec.value().rows.num_rows(), 1u);
  EXPECT_EQ(static_cast<std::uint64_t>(rec.value().rows.columns[0].i64[0]),
            rendered);
}

TEST(ResourceLimitTest, MemorySystemTableReportsScopes) {
  Engine engine;
  Session session = engine.CreateSession();
  GenBig(engine, session, 10'000);
  MustSql(session, "SELECT COUNT(*) FROM big");

  Result<QueryResult> r = session.Sql(
      "SELECT scope, name, current_bytes FROM pi_stats.memory");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  bool saw_process = false;
  bool saw_engine = false;
  bool saw_big = false;
  const auto& rows = r.value().rows;
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    const std::string& scope = rows.columns[0].str[i];
    const std::string& name = rows.columns[1].str[i];
    if (scope == "process" && name == "process") saw_process = true;
    if (scope == "engine" && name == "engine") saw_engine = true;
    if (scope == "table" && name == "big") {
      saw_big = true;
      // 10k rows of two INT64 columns occupy at least 160KB resident.
      EXPECT_GE(rows.columns[2].i64[i], 160 * 1024);
    }
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_engine);
  EXPECT_TRUE(saw_big);
}

TEST(ResourceLimitTest, HistogramsSystemTableServesBucketRows) {
  Engine engine;
  Session session = engine.CreateSession();
  MustSql(session, "CREATE TABLE t (a INT64)");
  MustSql(session, "INSERT INTO t VALUES (1), (2), (3)");
  MustSql(session, "SELECT SUM(a) FROM t");

  // Completed statements recorded into the query-latency histogram; the
  // system table explodes it into one row per non-empty bucket with
  // Prometheus-style cumulative counts.
  Result<QueryResult> r = session.Sql(
      "SELECT le_us, bucket_count, cumulative_count, total_count "
      "FROM pi_stats.histograms WHERE name = 'pidx_query_latency_us'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& rows = r.value().rows;
  ASSERT_GT(rows.num_rows(), 0u);
  std::int64_t prev_le = -1;
  std::int64_t prev_cumulative = 0;
  for (std::size_t i = 0; i < rows.num_rows(); ++i) {
    EXPECT_GT(rows.columns[0].i64[i], prev_le);  // ascending bounds
    prev_le = rows.columns[0].i64[i];
    EXPECT_GT(rows.columns[1].i64[i], 0);  // only non-empty buckets
    EXPECT_EQ(rows.columns[2].i64[i],
              prev_cumulative + rows.columns[1].i64[i]);
    prev_cumulative = rows.columns[2].i64[i];
    EXPECT_LE(rows.columns[2].i64[i], rows.columns[3].i64[i]);
  }
  // The last cumulative count accounts for every sample.
  EXPECT_EQ(prev_cumulative, rows.columns[3].i64[rows.num_rows() - 1]);
}

TEST(ResourceLimitTest, WaitEventHistogramsRegisterAndRecord) {
  EngineOptions options;
  options.min_parallel_rows = 0;  // force pool use so queue waits record
  Engine engine(options);
  Session session = engine.CreateSession();
  GenBig(engine, session, 20'000);
  Result<QueryResult> sorted =
      session.Sql("SELECT key, val FROM big ORDER BY val");
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_TRUE(sorted.value().parallel);  // else no pool tasks were queued
  MustSql(session, "INSERT INTO big VALUES (999999999, 1)");

  // Pool-queue waits record for every parallel query; table-lock waits
  // for every DML statement (even uncontended ones record ~0us spans).
  EXPECT_GT(engine.metrics().HistogramSnapshotOf("pidx_wait_pool_queue_us")
                .count,
            0u);
  EXPECT_GT(engine.metrics().HistogramSnapshotOf("pidx_wait_table_lock_us")
                .count,
            0u);
}

}  // namespace
}  // namespace patchindex
