// PinnedReadSet's per-table resolution order (engine/read_pin.h): a
// current published version is read lock-free, a stale head (a bulk load
// through a raw Table*) is read live under a try-shared-lock, and a stale
// head whose exclusive lock a writer holds falls back to the last
// published version — in no case does a SELECT wait on the writer.

#include "engine/read_pin.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/engine.h"

namespace patchindex {
namespace {

/// Holds a table's exclusive lock on its own thread — a writer
/// mid-commit — from construction until destruction.
class ExclusiveHolder {
 public:
  explicit ExclusiveHolder(std::shared_mutex* mu) {
    std::future<void> held = held_.get_future();
    thread_ = std::thread(
        [this, mu, release = release_.get_future()]() mutable {
          std::unique_lock<std::shared_mutex> lock(*mu);
          held_.set_value();
          release.wait();
        });
    held.wait();
  }
  ~ExclusiveHolder() {
    release_.set_value();
    thread_.join();
  }

  ExclusiveHolder(const ExclusiveHolder&) = delete;
  ExclusiveHolder& operator=(const ExclusiveHolder&) = delete;

 private:
  std::promise<void> held_;
  std::promise<void> release_;
  std::thread thread_;
};

class ReadPinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Session session = engine_.CreateSession();
    ASSERT_TRUE(session.Sql("CREATE TABLE t (a INT64)").ok());
    ASSERT_TRUE(session.Sql("INSERT INTO t VALUES (1), (2), (3)").ok());
  }

  Catalog::TableRef Ref() { return engine_.catalog().Ref("t"); }

  /// Whether t's published version still matches its head.
  bool VersionCurrent() {
    EpochGc::Guard guard(EpochGc::Global());
    const Catalog::TableRef ref = Ref();
    const TableVersion* version = engine_.catalog().PinnedVersion(ref);
    return version != nullptr &&
           Catalog::VersionMatchesHead(*version, *ref.ptable);
  }

  /// Appends a row through the raw Table*, bypassing the commit protocol:
  /// the head moves on, the published version does not.
  void AppendRaw(std::int64_t a) {
    engine_.catalog().FindTable("t")->AppendRow(Row{{Value(a)}});
  }

  /// t's values in order, read by a SELECT on a fresh session.
  std::vector<std::int64_t> Select() {
    Result<QueryResult> r =
        engine_.CreateSession().Sql("SELECT a FROM t ORDER BY a");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    return r.value().rows.columns[0].i64;
  }

  /// Select() on another thread while a writer holds t's exclusive lock;
  /// nullopt when the SELECT did not finish while the lock was held (the
  /// writer then releases it, so a blocked reader cannot hang the suite).
  std::optional<std::vector<std::int64_t>> SelectUnderWriter() {
    std::optional<ExclusiveHolder> writer;
    writer.emplace(Ref().lock);
    std::future<std::vector<std::int64_t>> select =
        std::async(std::launch::async, [this] { return Select(); });
    const bool finished = select.wait_for(std::chrono::seconds(20)) ==
                          std::future_status::ready;
    writer.reset();
    std::vector<std::int64_t> rows = select.get();
    if (!finished) return std::nullopt;
    return rows;
  }

  Engine engine_;
};

TEST_F(ReadPinTest, CurrentVersionIsReadWithoutTheLock) {
  ASSERT_TRUE(VersionCurrent());
  const auto rows = SelectUnderWriter();
  ASSERT_TRUE(rows.has_value()) << "SELECT waited on the exclusive lock";
  EXPECT_EQ(*rows, (std::vector<std::int64_t>{1, 2, 3}));
}

TEST_F(ReadPinTest, RawTableAppendIsVisibleThroughTheStaleHead) {
  AppendRaw(4);
  ASSERT_FALSE(VersionCurrent());
  EXPECT_EQ(Select(), (std::vector<std::int64_t>{1, 2, 3, 4}));
}

TEST_F(ReadPinTest, StaleHeadUnderWriterFallsBackToPublishedVersion) {
  AppendRaw(4);
  ASSERT_FALSE(VersionCurrent());
  const auto rows = SelectUnderWriter();
  ASSERT_TRUE(rows.has_value()) << "SELECT waited on the exclusive lock";
  EXPECT_EQ(*rows, (std::vector<std::int64_t>{1, 2, 3}));
}

}  // namespace
}  // namespace patchindex
