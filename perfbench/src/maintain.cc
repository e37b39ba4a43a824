// Workload `maintain`: one session streams update queries through
// Session::ExecuteUpdate — the paper's Figure 9 setting — against a
// nearly-unique and a nearly-sorted table (~2M rows, 1 partition each,
// created through SQL so every commit is written to the WAL; fsync off).
// A round is 12 update queries (insert, modify and delete, at two
// granularities, on both tables) in a seeded order, with a SELECT
// DISTINCT on the NUC column after every 6th. About half of the new
// values collide with existing ones; inserts and deletes balance, so the
// tables keep their size.

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "data.h"
#include "layers.h"
#include "patchindex/patch_index.h"

namespace perfbench {
namespace {

using patchindex::CellUpdate;
using patchindex::ConstraintKind;
using patchindex::Engine;
using patchindex::EngineOptions;
using patchindex::RowId;
using patchindex::Session;
using patchindex::UpdateQuery;
using patchindex::Value;

struct Sizes {
  std::uint64_t rows;
  double rate;
  std::uint64_t small;
  std::uint64_t large;
};

Sizes SizesFor(Scale s) {
  if (s == Scale::kTiny) return {20'000, 0.05, 5, 50};
  return {2'000'000, 0.05, 10, 1000};
}

/// WAL bytes after which a table is checkpointed (snapshot + truncation),
/// small enough that a run sees several checkpoints.
constexpr std::uint64_t kCheckpointWalBytes = 1ull << 20;
/// Rows per bulk-load update query during set-up.
constexpr std::uint64_t kLoadChunk = 250'000;
/// Fresh NUC values never collide: they start far above every generated
/// value and only grow.
constexpr std::int64_t kFreshBase = 1'000'000'000'000LL;
/// Maintained patch sets may exceed a fresh discovery by this factor.
constexpr double kPatchSlack = 1.5;

/// Multiset of int64 values with the sum of distinct ones (the
/// benchmark's shadow of the NUC column).
class ValueCounts {
 public:
  void Add(std::int64_t v) {
    if (counts_[v]++ == 0) sum_ += v;
  }
  void Remove(std::int64_t v) {
    auto it = counts_.find(v);
    if (it == counts_.end() || --it->second > 0) return;
    counts_.erase(it);
    sum_ -= v;
  }
  std::uint64_t distinct() const { return counts_.size(); }
  std::int64_t sum() const { return sum_; }
  std::vector<std::int64_t> SortedDistinct() const {
    std::vector<std::int64_t> out;
    out.reserve(counts_.size());
    for (const auto& [v, n] : counts_) out.push_back(v);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::unordered_map<std::int64_t, std::uint32_t> counts_;
  std::int64_t sum_ = 0;
};

enum class Kind { kInsert = 0, kModify = 1, kDelete = 2 };
const char* const kKindNames[] = {"insert", "modify", "delete"};

struct Step {
  Kind kind;
  bool nuc;  // else the NSC table
  bool large;  // the large granularity, else the small one
  std::uint64_t rows;
};

/// Latency types: kind x table x granularity, then the DISTINCT.
constexpr std::size_t kTypes = 13;
constexpr std::size_t kDistinctType = 12;
std::size_t StepType(const Step& s) {
  return static_cast<std::size_t>(s.kind) * 4 + (s.nuc ? 0 : 2) + (s.large ? 1 : 0);
}

struct State {
  std::unique_ptr<Engine> engine;
  double discovery_nuc_ms = 0;
  double discovery_nsc_ms = 0;
};

std::unique_ptr<State> Setup(const std::vector<std::int64_t>& nuc,
                             const std::vector<std::int64_t>& nsc,
                             const RunConfig& cfg, int rep, Report* report) {
  auto st = std::make_unique<State>();
  EngineOptions options;
  options.num_threads = cfg.threads;
  options.durability.data_dir = cfg.workdir + "/maintain-" + std::to_string(rep);
  options.durability.fsync = false;
  options.durability.checkpoint_wal_bytes = kCheckpointWalBytes;
  st->engine = std::make_unique<Engine>(options);
  Engine& e = *st->engine;
  if (!e.recovery_status().ok()) {
    report->Fail("maintain: opening the data directory: " +
                 e.recovery_status().ToString());
  }
  Session s = e.CreateSession();
  auto load = [&](const char* table, const std::vector<std::int64_t>& val) {
    auto created = s.Sql(std::string("CREATE TABLE ") + table +
                         " (key INT64, val INT64)");
    if (!created.ok()) report->Fail("maintain: " + created.status().ToString());
    for (std::uint64_t lo = 0; lo < val.size(); lo += kLoadChunk) {
      std::vector<patchindex::Row> rows;
      const std::uint64_t hi = std::min<std::uint64_t>(val.size(), lo + kLoadChunk);
      rows.reserve(hi - lo);
      for (std::uint64_t i = lo; i < hi; ++i) {
        rows.push_back(patchindex::Row{
            {Value(static_cast<std::int64_t>(i)), Value(val[i])}});
      }
      const patchindex::Status st =
          s.ExecuteUpdate(table, UpdateQuery::Insert(std::move(rows)));
      if (!st.ok()) report->Fail("maintain: load " + st.ToString());
    }
  };
  load("nuc", nuc);
  load("nsc", nsc);
  // Start the stream from a truncated log.
  const patchindex::Status cp = e.Checkpoint();
  if (!cp.ok()) report->Fail("maintain: checkpoint: " + cp.ToString());
  auto index = [&](const char* table, ConstraintKind kind, double* ms) {
    const std::int64_t t0 = NowNs();
    const patchindex::Status st = s.CreatePatchIndex(table, 1, kind);
    *ms = NsToMs(NowNs() - t0);
    if (!st.ok()) report->Fail("maintain: CreatePatchIndex: " + st.ToString());
  };
  index("nuc", ConstraintKind::kNearlyUnique, &st->discovery_nuc_ms);
  index("nsc", ConstraintKind::kNearlySorted, &st->discovery_nsc_ms);
  return st;
}

/// The update stream with the benchmark's shadow of both tables.
class Stream {
 public:
  Stream(const Sizes& z, std::uint64_t seed, std::vector<std::int64_t> nuc,
         std::vector<std::int64_t> nsc)
      : z_(z),
        rng_(seed * 1000 + 3),
        nuc_(std::move(nuc)),
        nsc_(std::move(nsc)),
        next_key_(static_cast<std::int64_t>(z.rows)) {
    for (std::int64_t v : nuc_) counts_.Add(v);
    next_sorted_ = 2 * static_cast<std::int64_t>(z.rows);
  }

  /// Self-test hook: the shadow's DISTINCT answer is off by one.
  void Corrupt() { sum_offset_ = 1; }

  /// Update queries and DISTINCTs that returned an error.
  std::uint64_t failed = 0;

  struct Totals {
    std::uint64_t rounds = 0;
    std::uint64_t ops = 0;
    std::uint64_t rows_changed = 0;
    Samples round_rate;         // untraced rounds
    Samples traced_round_rate;  // traced rounds
    /// Per type: the 12 update steps (see StepType), then DISTINCT.
    TypedSamples latency{kTypes};
    Acc commit_ms[3][2];  // [kind][nuc ? 0 : 1]
    Acc scan_fraction;
  };

  /// Runs whole rounds until `seconds` have passed. With an enabled
  /// tracer every second round is traced, so drift over the run weighs on
  /// traced and untraced rounds alike.
  Totals Run(Engine& e, double seconds, Tracer& tracer, Report* report) {
    Totals t;
    Session s = e.CreateSession();
    Tracer off(false);
    const std::uint64_t min_rounds = tracer.enabled() ? 2 : 1;
    const std::int64_t start = NowNs();
    const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
    do {
      const bool traced_round = tracer.enabled() && t.rounds % 2 == 1;
      Tracer& rt = traced_round ? tracer : off;
      const std::int64_t round_start = NowNs();
      const std::uint64_t ops_before = t.ops;
      std::vector<Step> steps;
      for (Kind k : {Kind::kInsert, Kind::kModify, Kind::kDelete}) {
        for (bool nuc : {true, false}) {
          steps.push_back({k, nuc, false, z_.small});
          steps.push_back({k, nuc, true, z_.large});
        }
      }
      rng_.Shuffle(steps);
      for (std::size_t i = 0; i < steps.size(); ++i) {
        Update(e, s, steps[i], rt, &t, report);
        if (i % 6 == 5) Distinct(s, rt, &t, report);
      }
      ++t.rounds;
      (traced_round ? t.traced_round_rate : t.round_rate)
          .Add(static_cast<double>(t.ops - ops_before) * 1e9 /
               static_cast<double>(NowNs() - round_start));
    } while (t.rounds < min_rounds || NowNs() < deadline);
    return t;
  }

  /// Final checks: engine columns equal the shadow, the final DISTINCT
  /// equals the shadow's distinct set, and both indexes are valid and
  /// within kPatchSlack of a fresh discovery.
  void CheckFinal(Engine& e, Report* report) {
    for (bool nuc : {true, false}) {
      const char* name = nuc ? "nuc" : "nsc";
      const patchindex::Table* t = e.catalog().FindTable(name);
      const std::vector<std::int64_t>& shadow = nuc ? nuc_ : nsc_;
      bool same = t != nullptr && t->num_rows() == shadow.size();
      for (std::uint64_t r = 0; same && r < shadow.size(); ++r) {
        same = t->column(1).GetInt64(r) == shadow[r];
      }
      if (!same) report->Fail(std::string("maintain: table ") + name +
                              " differs from the shadow copy");
      const auto indexes = IndexesOf(e, name);
      if (indexes.size() != 1) {
        report->Fail(std::string("maintain: index on ") + name + " is gone");
        continue;
      }
      CheckIndex(*indexes[0], std::string("maintain index ") + name,
                 kPatchSlack, report);
    }
    Session s = e.CreateSession();
    auto r = s.Sql("SELECT DISTINCT val FROM nuc");
    if (!r.ok() || r.value().rows.columns.size() != 1) {
      report->Fail("maintain: final DISTINCT failed");
      return;
    }
    std::vector<std::int64_t> got = r.value().rows.columns[0].i64;
    std::sort(got.begin(), got.end());
    std::vector<std::int64_t> want = counts_.SortedDistinct();
    if (sum_offset_ != 0) want.back() += sum_offset_;
    if (got != want) {
      report->Fail("maintain: final DISTINCT (" + std::to_string(got.size()) +
                   " values) differs from the shadow (" +
                   std::to_string(want.size()) + ")");
    }
  }

 private:
  std::vector<RowId> DistinctRows(std::uint64_t k, std::uint64_t n) {
    std::vector<RowId> rows;
    while (rows.size() < k) {
      for (std::uint64_t i = rows.size(); i < k; ++i) rows.push_back(rng_.Uniform(0, n - 1));
      std::sort(rows.begin(), rows.end());
      rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    }
    return rows;
  }

  std::int64_t NewValue(bool nuc) {
    std::vector<std::int64_t>& col = nuc ? nuc_ : nsc_;
    if (rng_.Uniform(0, 1) == 0) return col[rng_.Uniform(0, col.size() - 1)];
    if (nuc) return kFreshBase + fresh_++;
    // NSC: extend the sorted run.
    next_sorted_ += 2;
    return next_sorted_;
  }

  void Update(Engine& e, Session& s, const Step& step, Tracer& tracer,
              Totals* t, Report* report) {
    std::vector<std::int64_t>& col = step.nuc ? nuc_ : nsc_;
    const char* table = step.nuc ? "nuc" : "nsc";
    UpdateQuery q;
    std::vector<RowId> rows;
    std::vector<std::int64_t> values;
    switch (step.kind) {
      case Kind::kInsert: {
        std::vector<patchindex::Row> ins;
        for (std::uint64_t i = 0; i < step.rows; ++i) {
          values.push_back(NewValue(step.nuc));
          ins.push_back(patchindex::Row{{Value(next_key_++), Value(values.back())}});
        }
        q = UpdateQuery::Insert(std::move(ins));
        break;
      }
      case Kind::kModify: {
        rows = DistinctRows(step.rows, col.size());
        std::vector<CellUpdate> cells;
        for (RowId r : rows) {
          values.push_back(NewValue(step.nuc));
          cells.push_back(CellUpdate{r, 1, Value(values.back())});
        }
        q = UpdateQuery::Modify(std::move(cells));
        break;
      }
      case Kind::kDelete:
        rows = DistinctRows(step.rows, col.size());
        q = UpdateQuery::Delete(rows);
        break;
    }

    const std::uint64_t op = tracer.NewOp();
    const std::int64_t t0 = NowNs();
    const patchindex::Status st = s.ExecuteUpdate(table, std::move(q));
    const std::int64_t t1 = NowNs();
    const double ms = NsToMs(t1 - t0);
    ++t->ops;
    t->rows_changed += step.rows;
    t->latency.Add(StepType(step), ms);
    t->commit_ms[static_cast<int>(step.kind)][step.nuc ? 0 : 1].Add(ms);
    if (tracer.enabled()) {
      tracer.Record(step.nuc ? "patchindex.ExecuteUpdate.nuc"
                             : "patchindex.ExecuteUpdate.nsc",
                    op, 0, t0, t1);
      if (step.nuc && step.kind != Kind::kDelete) {
        const auto idx = IndexesOf(e, "nuc");
        if (!idx.empty()) t->scan_fraction.Add(idx[0]->last_handled_scan_fraction());
      }
    }
    if (!st.ok()) {
      ++failed;
      report->Fail(std::string("maintain: ") + kKindNames[static_cast<int>(step.kind)] +
                   " on " + table + ": " + st.ToString());
      return;
    }

    // Mirror the committed change in the shadow: modifies in place,
    // deletes compact, inserts append (the engine's row order).
    switch (step.kind) {
      case Kind::kInsert:
        for (std::int64_t v : values) {
          col.push_back(v);
          if (step.nuc) counts_.Add(v);
        }
        break;
      case Kind::kModify:
        for (std::size_t i = 0; i < rows.size(); ++i) {
          if (step.nuc) {
            counts_.Remove(col[rows[i]]);
            counts_.Add(values[i]);
          }
          col[rows[i]] = values[i];
        }
        break;
      case Kind::kDelete: {
        std::size_t out = 0;
        std::size_t d = 0;
        for (std::size_t r = 0; r < col.size(); ++r) {
          if (d < rows.size() && rows[d] == r) {
            if (step.nuc) counts_.Remove(col[r]);
            ++d;
            continue;
          }
          col[out++] = col[r];
        }
        col.resize(out);
        break;
      }
    }
  }

  void Distinct(Session& s, Tracer& tracer, Totals* t, Report* report) {
    const std::uint64_t op = tracer.NewOp();
    const std::int64_t t0 = NowNs();
    auto r = s.Sql("SELECT DISTINCT val FROM nuc");
    const std::int64_t t1 = NowNs();
    ++t->ops;
    t->latency.Add(kDistinctType, NsToMs(t1 - t0));
    if (!r.ok()) {
      ++failed;
      report->Fail("maintain: DISTINCT: " + r.status().ToString());
      return;
    }
    if (tracer.enabled()) {
      const std::uint64_t span = tracer.Record("engine.Session::Sql", op, 0, t0, t1);
      RecordPhaseSpans(tracer, op, span, t0, r.value().profile.get());
    }
    const auto& cols = r.value().rows.columns;
    std::int64_t sum = 0;
    const std::size_t n = cols.empty() ? 0 : cols[0].i64.size();
    for (std::size_t i = 0; i < n; ++i) sum += cols[0].i64[i];
    if (n != counts_.distinct() || sum != counts_.sum() + sum_offset_) {
      report->Fail("maintain: DISTINCT returned " + std::to_string(n) +
                   " values (sum " + std::to_string(sum) + "), the shadow holds " +
                   std::to_string(counts_.distinct()) + " (sum " +
                   std::to_string(counts_.sum() + sum_offset_) + ")");
    }
  }

  Sizes z_;
  Rng rng_;
  std::vector<std::int64_t> nuc_;
  std::vector<std::int64_t> nsc_;
  ValueCounts counts_;
  std::int64_t next_key_;
  std::int64_t next_sorted_ = 0;
  std::int64_t fresh_ = 0;
  std::int64_t sum_offset_ = 0;
};

}  // namespace

int RunMaintain(const RunConfig& cfg, Report* report) {
  const Sizes z = SizesFor(cfg.scale);
  Rng rng(cfg.seed * 1000 + 4);
  std::vector<std::int64_t> nuc = MakeNucColumn(z.rows, z.rate, rng);
  std::vector<std::int64_t> nsc = MakeNscColumn(z.rows, z.rate, rng);

  std::unique_ptr<State> st;
  const double setup_s = RepeatedSetup(kSetupReps, &st, [&](int rep) {
    return Setup(nuc, nsc, cfg, rep, report);
  });
  Engine& e = *st->engine;
  Stream stream(z, cfg.seed, std::move(nuc), std::move(nsc));
  if (cfg.corrupt) stream.Corrupt();

  auto exception_rate = [&](const char* table) {
    const auto idx = IndexesOf(e, table);
    return idx.empty() ? 0.0 : idx[0]->exception_rate();
  };
  const char* const tables[] = {"nuc", "nsc"};
  const double rate_before[] = {exception_rate(tables[0]),
                                exception_rate(tables[1])};

  // Storage and pool figures of a traced run cover all rounds, traced
  // or not: a run holds only a few checkpoints.
  const auto pool_before = Hist(e, "pidx_wait_pool_queue_us");
  const auto ckpt_before = Hist(e, "pidx_checkpoint_duration_us");
  const std::uint64_t wal_before = CounterValue(e, "pidx_wal_appended_bytes_total");
  Tracer tracer(cfg.trace);
  const Stream::Totals t = stream.Run(e, cfg.seconds, tracer, report);
  LayerMetrics lm;
  if (cfg.trace) {
    auto ckpt = Hist(e, "pidx_checkpoint_duration_us");
    ckpt.Subtract(ckpt_before);
    lm.Set("storage.checkpoints", static_cast<double>(ckpt.count));
    lm.Set("storage.checkpoint_ms", ckpt.MeanUs() / 1e3);
    lm.Set("storage.wal_bytes_per_row",
           static_cast<double>(CounterValue(e, "pidx_wal_appended_bytes_total") -
                               wal_before) /
               static_cast<double>(t.rows_changed));
    lm.Set("engine.pool_queue_wait_us",
           IntervalMeanUs(pool_before, Hist(e, "pidx_wait_pool_queue_us")));
  }
  report->attempted = t.ops;
  report->failed = stream.failed;
  stream.CheckFinal(e, report);

  if (!cfg.trace) {
    EmitEndToEnd(report, setup_s, t.round_rate, t.latency,
                 static_cast<double>(IndexBytes(e)));
    return 0;
  }

  for (int k = 0; k < 3; ++k) {
    for (int x = 0; x < 2; ++x) {
      lm.Set(std::string("patchindex.commit_ms.") + kKindNames[k] + "." +
                 tables[x],
             t.commit_ms[k][x].Mean());
    }
  }
  lm.Set("patchindex.nuc_scan_fraction", t.scan_fraction.Mean());
  lm.Set("client.distinct_p50_ms",
         t.latency.type(kDistinctType).Percentile(0.50));
  for (int x = 0; x < 2; ++x) {
    const auto idx = IndexesOf(e, tables[x]);
    if (idx.empty()) continue;
    lm.Set(std::string("patchindex.patches.") + tables[x],
           static_cast<double>(idx[0]->NumPatches()));
    lm.Set(std::string("patchindex.exception_rate_drift.") + tables[x],
           exception_rate(tables[x]) - rate_before[x]);
  }
  lm.Set("patchindex.discovery_ms.nuc", st->discovery_nuc_ms);
  lm.Set("patchindex.discovery_ms.nsc", st->discovery_nsc_ms);
  lm.Set("bitmap.bytes_per_row", static_cast<double>(IndexBytes(e)) /
                                     static_cast<double>(IndexedRows(e)));
  lm.Set("storage.resident_bytes", static_cast<double>(e.ApproxResidentBytes()));
  FinishTraced(cfg, tracer, t.round_rate.Percentile(0.5),
               t.traced_round_rate.Percentile(0.5), &lm, report);
  return 0;
}

}  // namespace perfbench
