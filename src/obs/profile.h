#ifndef PATCHINDEX_OBS_PROFILE_H_
#define PATCHINDEX_OBS_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace patchindex {

struct LogicalNode;

namespace obs {

/// Per-plan-node accumulator filled by the executor while a profiled
/// query runs. Workers add with relaxed atomics; the coordinator reads
/// after the worker barrier, so no stronger ordering is needed.
struct NodeStats {
  /// Rows produced by the operator, summed across workers. For merge
  /// operators (aggregate/sort), the coordinator overwrites this with the
  /// final merged row count — per-worker partial-group counts depend on
  /// morsel scheduling and would not be deterministic.
  std::atomic<std::uint64_t> rows{0};
  /// Morsels claimed from the shared queue (scan nodes only).
  std::atomic<std::uint64_t> morsels{0};
  /// Worker pipeline instances that executed this operator.
  std::atomic<std::uint64_t> workers{0};
  /// Wall time inside the operator (inclusive of its inputs), summed
  /// across workers, nanoseconds.
  std::atomic<std::uint64_t> time_ns{0};
  /// Slowest single worker's inclusive wall time, nanoseconds.
  std::atomic<std::uint64_t> max_worker_ns{0};
  /// Join build phase wall time (join nodes only), nanoseconds.
  std::atomic<std::uint64_t> build_ns{0};
  /// Bytes this operator materialized (hash tables, sort buffers, spill
  /// partitions), summed across workers. Row estimates are content-based
  /// — per-worker parts sum to the same total regardless of morsel
  /// scheduling; flat aggregate tables are charged by their power-of-two
  /// capacity, which depends on how groups split across workers.
  std::atomic<std::uint64_t> mem_bytes{0};

  void AddWorkerTime(std::uint64_t ns) {
    time_ns.fetch_add(ns, std::memory_order_relaxed);
    std::uint64_t prev = max_worker_ns.load(std::memory_order_relaxed);
    while (prev < ns && !max_worker_ns.compare_exchange_weak(
                            prev, ns, std::memory_order_relaxed)) {
    }
  }
};

/// Execution-time profile accumulator, keyed by plan node. The whole plan
/// is registered up front on the coordinator thread; workers then only do
/// read-only lookups, so StatsFor is safe without locking while the query
/// runs.
class ExecProfile {
 public:
  /// Pre-registers every node of `plan` (recursively). Must be called
  /// before any worker touches the profile.
  void RegisterPlan(const LogicalNode& plan);

  /// The accumulator for `node`; registers it on the spot if RegisterPlan
  /// missed it (coordinator-thread use only).
  NodeStats& StatsFor(const LogicalNode* node);

  /// Lookup without registration; nullptr when the node is unknown. Safe
  /// from worker threads (the map is read-only once registration is
  /// done); the returned stats are written with atomics.
  NodeStats* Find(const LogicalNode* node) const;

 private:
  std::unordered_map<const LogicalNode*, std::unique_ptr<NodeStats>> stats_;
};

/// One plan operator's finished measurements, self-contained (no plan
/// pointers), in pre-order plan position.
struct OpProfile {
  std::string label;
  int depth = 0;
  std::uint64_t rows = 0;
  std::uint64_t morsels = 0;
  std::uint64_t workers = 0;
  double time_ms = 0.0;
  double max_worker_ms = 0.0;
  double build_ms = 0.0;
  std::uint64_t mem_bytes = 0;
};

/// A finished query's profile: phase spans, execution mode, and (when
/// operator profiling was requested, i.e. EXPLAIN ANALYZE) the annotated
/// operator tree. Attached to QueryResult::profile.
struct QueryProfile {
  double parse_ms = 0.0;
  double bind_ms = 0.0;
  double optimize_ms = 0.0;
  /// Plan execution for reads; row matching / delta building for DML.
  double execute_ms = 0.0;
  /// Time spent waiting for the table's exclusive catalog lock (DML).
  double commit_wait_ms = 0.0;
  /// PatchIndex commit protocol (handle -> checkpoint -> maintain) (DML).
  double commit_ms = 0.0;
  double total_ms = 0.0;

  bool parallel = false;
  bool parallel_join = false;
  bool parallel_sort = false;
  /// Worker pool size used by the executor (0 when not profiled).
  std::size_t pool_workers = 0;
  /// Statement-wide peak of the per-query MemoryTracker — the figure
  /// QueryRecord::peak_mem_bytes and pi_stats.queries report.
  std::uint64_t peak_mem_bytes = 0;

  /// Pre-order operator tree; empty unless operator profiling ran.
  std::vector<OpProfile> ops;

  /// The EXPLAIN ANALYZE rendering: one line per operator
  /// (`label  [rows=.., morsels=.., workers=.., time=..ms]`) followed by
  /// a `phases:` line and an `execution:` line. Row/morsel/worker counts
  /// are deterministic for a fixed engine configuration; times are not —
  /// golden tests mask `..ms` values.
  std::vector<std::string> RenderLines() const;
};

/// Converts `profile`'s per-node accumulators into `out->ops` in plan
/// pre-order, labelling each node with its EXPLAIN label.
void FillOpProfiles(const LogicalNode& plan, const ExecProfile& profile,
                    QueryProfile* out);

}  // namespace obs
}  // namespace patchindex

#endif  // PATCHINDEX_OBS_PROFILE_H_
