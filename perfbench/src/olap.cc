// Workload `olap`: one in-process client runs a fixed round-robin set of
// read queries over a nearly-unique table, a nearly-sorted fact table
// (each once with 1 partition and once with 4) and a sorted dimension
// table. The 1-partition queries are shaped for the §3.3 rewrites
// (PatchDistinct, PatchSort, PatchJoin, the NUC-annotated hash join);
// the 4-partition copies show rewrite coverage on partitioned tables, and
// the global COUNT(*) the serial fallback.

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "data.h"
#include "layers.h"

namespace perfbench {
namespace {

using patchindex::ConstraintKind;
using patchindex::Engine;
using patchindex::EngineOptions;
using patchindex::QueryResult;
using patchindex::Session;

struct Sizes {
  std::uint64_t fact_rows;
  std::uint64_t dim_rows;
  double rate;
};

Sizes SizesFor(Scale s) {
  if (s == Scale::kTiny) return {20'000, 2'000, 0.05};
  return {2'000'000, 200'000, 0.05};
}

constexpr std::int64_t kFactGroups = 64;
constexpr std::int64_t kDimGroups = 50;

/// The benchmark's own copy of every generated column.
struct Data {
  std::vector<std::int64_t> nuc;
  std::vector<std::int64_t> nsc;
  std::vector<std::int64_t> nsc_grp;
  std::vector<std::int64_t> dim_grp;  // dim.id is the row position
};

struct State {
  std::unique_ptr<Engine> engine;
  double discovery_nuc_ms = 0;
  double discovery_nsc_ms = 0;
};

/// Per-group COUNT(*) and SUM of one column.
using GroupAgg = std::map<std::int64_t, std::pair<std::int64_t, std::int64_t>>;

struct Query {
  std::string name;
  std::string sql;
  /// Returns "" when the result matches the reference, else a reason.
  std::function<std::string(const QueryResult&)> check;
};

std::string CheckDistinct(const QueryResult& r, std::int64_t count,
                          std::int64_t sum) {
  if (r.rows.columns.size() != 1) return "expected one column";
  const auto& v = r.rows.columns[0].i64;
  std::int64_t s = 0;
  for (std::int64_t x : v) s += x;
  if (static_cast<std::int64_t>(v.size()) != count || s != sum) {
    return "distinct count/sum " + std::to_string(v.size()) + "/" +
           std::to_string(s) + ", expected " + std::to_string(count) + "/" +
           std::to_string(sum);
  }
  return "";
}

std::string CheckSorted(const QueryResult& r,
                        const std::vector<std::int64_t>& expected) {
  if (r.rows.columns.size() != 1) return "expected one column";
  // The reference is the sorted multiset, so equality checks both the
  // order and the multiset.
  if (r.rows.columns[0].i64 != expected) {
    return "ORDER BY output differs from the sorted reference (" +
           std::to_string(r.rows.columns[0].i64.size()) + " rows, expected " +
           std::to_string(expected.size()) + ")";
  }
  return "";
}

std::string CheckGroups(const QueryResult& r, const GroupAgg& expected) {
  if (r.rows.columns.size() != 3) return "expected three columns";
  GroupAgg got;
  const auto& g = r.rows.columns[0].i64;
  for (std::size_t i = 0; i < g.size(); ++i) {
    if (got.count(g[i]) != 0) return "group " + std::to_string(g[i]) + " twice";
    got[g[i]] = {r.rows.columns[1].i64[i], r.rows.columns[2].i64[i]};
  }
  if (got != expected) {
    return "per-group results differ (" + std::to_string(got.size()) +
           " groups, expected " + std::to_string(expected.size()) + ")";
  }
  return "";
}

std::vector<Query> MakeQueries(const Data& d, Rng& rng, bool corrupt) {
  const std::uint64_t n = d.nuc.size();
  const std::uint64_t m = d.dim_grp.size();
  std::vector<Query> qs;

  auto distinct_ref = [](std::vector<std::int64_t> v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
    std::int64_t sum = 0;
    for (std::int64_t x : v) sum += x;
    return std::make_pair(static_cast<std::int64_t>(v.size()), sum);
  };
  auto [dcount, dsum] = distinct_ref(d.nuc);
  if (corrupt) ++dsum;  // self-test: a wrong expected answer must fail
  const std::uint64_t half = n / 2;
  const std::uint64_t a2 = rng.Uniform(0, n - half);
  const auto [fcount, fsum] = distinct_ref(
      std::vector<std::int64_t>(d.nuc.begin() + a2, d.nuc.begin() + a2 + half));
  const std::uint64_t w3 = n / 10;
  const std::uint64_t a3 = rng.Uniform(0, n - w3);
  std::vector<std::int64_t> sorted(d.nsc.begin() + a3, d.nsc.begin() + a3 + w3);
  std::sort(sorted.begin(), sorted.end());

  auto join_ref = [&](const std::vector<std::int64_t>& fact) {
    GroupAgg g;
    for (std::uint64_t i = 0; i < fact.size(); ++i) {
      if (fact[i] >= 0 && static_cast<std::uint64_t>(fact[i]) < m) {
        auto& e = g[d.dim_grp[fact[i]]];
        e.first += 1;
        e.second += static_cast<std::int64_t>(i);
      }
    }
    return g;
  };
  const GroupAgg nsc_join = join_ref(d.nsc);
  const GroupAgg nuc_join = join_ref(d.nuc);
  const std::uint64_t a6 = rng.Uniform(0, n - half);
  GroupAgg filter_agg;
  for (std::uint64_t i = a6; i < a6 + half; ++i) {
    auto& e = filter_agg[d.nsc_grp[i]];
    e.first += 1;
    e.second += d.nsc[i];
  }
  std::vector<std::int64_t> top = d.nsc;
  std::partial_sort(top.begin(), top.begin() + 10, top.end(),
                    std::greater<std::int64_t>());
  top.resize(10);

  const std::string range2 = " WHERE key >= " + std::to_string(a2) +
                             " AND key < " + std::to_string(a2 + half);
  const std::string range3 = " WHERE key >= " + std::to_string(a3) +
                             " AND key < " + std::to_string(a3 + w3);
  auto distinct = [=](std::int64_t c, std::int64_t s) {
    return [=](const QueryResult& r) { return CheckDistinct(r, c, s); };
  };
  auto sorted_check = [sorted](const QueryResult& r) {
    return CheckSorted(r, sorted);
  };
  auto groups = [](GroupAgg g) {
    return [g = std::move(g)](const QueryResult& r) { return CheckGroups(r, g); };
  };
  auto join_sql = [](const std::string& fact) {
    return "SELECT dim.grp, COUNT(*), SUM(" + fact + ".key) FROM dim JOIN " +
           fact + " ON dim.id = " + fact + ".val GROUP BY dim.grp";
  };

  qs.push_back({"distinct", "SELECT DISTINCT val FROM nuc1",
                distinct(dcount, dsum)});
  qs.push_back({"distinct_filtered", "SELECT DISTINCT val FROM nuc1" + range2,
                distinct(fcount, fsum)});
  qs.push_back({"sort_range", "SELECT val FROM nsc1" + range3 + " ORDER BY val",
                sorted_check});
  qs.push_back({"patch_join", join_sql("nsc1"), groups(nsc_join)});
  qs.push_back({"nuc_join", join_sql("nuc1"), groups(nuc_join)});
  qs.push_back({"filter_agg",
                "SELECT grp, COUNT(*), SUM(val) FROM nsc1 WHERE key >= " +
                    std::to_string(a6) + " AND key < " +
                    std::to_string(a6 + half) + " GROUP BY grp",
                groups(filter_agg)});
  qs.push_back({"count", "SELECT COUNT(*) FROM nuc1",
                [n](const QueryResult& r) -> std::string {
                  if (r.rows.columns.size() != 1 ||
                      r.rows.columns[0].i64.size() != 1 ||
                      r.rows.columns[0].i64[0] !=
                          static_cast<std::int64_t>(n)) {
                    return "COUNT(*) differs from the row count";
                  }
                  return "";
                }});
  qs.push_back({"topn", "SELECT key, val FROM nsc1 ORDER BY val DESC LIMIT 10",
                [top, &d](const QueryResult& r) -> std::string {
                  if (r.rows.columns.size() != 2) return "expected two columns";
                  const auto& k = r.rows.columns[0].i64;
                  const auto& v = r.rows.columns[1].i64;
                  if (v != top) return "TopN values differ from the reference";
                  for (std::size_t i = 0; i < k.size(); ++i) {
                    if (k[i] < 0 ||
                        static_cast<std::size_t>(k[i]) >= d.nsc.size() ||
                        d.nsc[k[i]] != v[i]) {
                      return "TopN row (key, val) not in the table";
                    }
                  }
                  return "";
                }});
  qs.push_back({"distinct_p4", "SELECT DISTINCT val FROM nuc4",
                distinct(dcount, dsum)});
  qs.push_back({"sort_range_p4",
                "SELECT val FROM nsc4" + range3 + " ORDER BY val",
                sorted_check});
  qs.push_back({"patch_join_p4", join_sql("nsc4"), groups(nsc_join)});
  return qs;
}

std::unique_ptr<State> Setup(const Data& d, const RunConfig& cfg,
                             Report* report) {
  auto st = std::make_unique<State>();
  EngineOptions options;
  options.num_threads = cfg.threads;
  st->engine = std::make_unique<Engine>(options);
  Engine& e = *st->engine;
  auto& cat = e.catalog();
  bool ok = cat.AddTable("nuc1", MakeTable(d.nuc)).ok() &&
            cat.AddPartitionedTable("nuc4", MakePartitionedTable(d.nuc, 4)).ok() &&
            cat.AddTable("nsc1", MakeTable(d.nsc, {d.nsc_grp}, {"grp"})).ok() &&
            cat.AddPartitionedTable(
                   "nsc4", MakePartitionedTable(d.nsc, 4, {d.nsc_grp}, {"grp"}))
                .ok();
  auto dim = std::make_unique<patchindex::Table>(patchindex::Schema(
      {{"id", patchindex::ColumnType::kInt64},
       {"grp", patchindex::ColumnType::kInt64}}));
  for (std::size_t i = 0; i < d.dim_grp.size(); ++i) {
    dim->AppendRow(patchindex::Row{{patchindex::Value(static_cast<std::int64_t>(i)),
                                    patchindex::Value(d.dim_grp[i])}});
  }
  ok = ok && cat.AddTable("dim", std::move(dim)).ok();
  if (!ok) report->Fail("olap: loading tables failed");

  Session s = e.CreateSession();
  auto index = [&](const char* table, std::size_t col, ConstraintKind kind,
                   double* ms) {
    const std::int64_t t0 = NowNs();
    const patchindex::Status status = s.CreatePatchIndex(table, col, kind);
    if (ms != nullptr) *ms += NsToMs(NowNs() - t0);
    if (!status.ok()) {
      report->Fail(std::string("olap: CreatePatchIndex on ") + table + ": " +
                   status.ToString());
    }
  };
  index("nuc1", 1, ConstraintKind::kNearlyUnique, &st->discovery_nuc_ms);
  index("nuc4", 1, ConstraintKind::kNearlyUnique, &st->discovery_nuc_ms);
  index("nsc1", 1, ConstraintKind::kNearlySorted, &st->discovery_nsc_ms);
  index("nsc4", 1, ConstraintKind::kNearlySorted, &st->discovery_nsc_ms);
  index("dim", 0, ConstraintKind::kNearlySorted, nullptr);
  return st;
}

/// Layer figures gathered during the traced rounds.
struct Traced {
  std::vector<Acc> execute_ms;  // per query
  Acc optimize_us;
};

struct LoopResult {
  std::uint64_t rounds = 0;
  Samples round_rate;         // untraced rounds
  Samples traced_round_rate;  // traced rounds
  TypedSamples latency{0};    // per query
};

/// Runs whole rounds until `seconds` have passed. With an enabled tracer
/// every second round is traced (spans and the figures in `traced`), so
/// drift over the run weighs on traced and untraced rounds alike.
LoopResult RunLoop(Session& s, const std::vector<Query>& qs, double seconds,
                   Tracer& tracer, Traced* traced, Report* report) {
  LoopResult out;
  out.latency = TypedSamples(qs.size());
  const std::uint64_t min_rounds = tracer.enabled() ? 2 : 1;
  const std::int64_t start = NowNs();
  const std::int64_t deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  while (out.rounds < min_rounds || NowNs() < deadline) {
    const bool traced_round = tracer.enabled() && out.rounds % 2 == 1;
    const std::int64_t round_start = NowNs();
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const std::uint64_t op = tracer.NewOp();
      const std::int64_t t0 = NowNs();
      patchindex::Result<QueryResult> r = s.Sql(qs[i].sql);
      const std::int64_t t1 = NowNs();
      out.latency.Add(i, NsToMs(t1 - t0));
      ++report->attempted;
      if (!r.ok()) {
        ++report->failed;
        report->Fail("olap " + qs[i].name + ": " + r.status().ToString());
        continue;
      }
      if (traced_round) {
        const std::uint64_t span =
            tracer.Record("engine.Session::Sql", op, 0, t0, t1);
        RecordPhaseSpans(tracer, op, span, t0, r.value().profile.get());
        if (r.value().profile != nullptr) {
          traced->execute_ms[i].Add(r.value().profile->execute_ms);
          traced->optimize_us.Add(r.value().profile->optimize_ms * 1e3);
        }
      }
      const std::string why = qs[i].check(r.value());
      if (!why.empty()) report->Fail("olap " + qs[i].name + ": " + why);
    }
    ++out.rounds;
    (traced_round ? out.traced_round_rate : out.round_rate)
        .Add(static_cast<double>(qs.size()) * 1e9 /
             static_cast<double>(NowNs() - round_start));
  }
  return out;
}

}  // namespace

int RunOlap(const RunConfig& cfg, Report* report) {
  const Sizes z = SizesFor(cfg.scale);
  Rng rng(cfg.seed * 1000 + 1);
  Data d;
  d.nuc = MakeNucColumn(z.fact_rows, z.rate, rng);
  d.nsc = MakeNscColumn(z.fact_rows, z.rate, rng);
  d.nsc_grp.resize(z.fact_rows);
  for (auto& g : d.nsc_grp) g = static_cast<std::int64_t>(rng.Uniform(0, kFactGroups - 1));
  d.dim_grp.resize(z.dim_rows);
  for (auto& g : d.dim_grp) g = static_cast<std::int64_t>(rng.Uniform(0, kDimGroups - 1));
  const std::vector<Query> qs = MakeQueries(d, rng, cfg.corrupt);

  std::unique_ptr<State> st;
  const double setup_s = RepeatedSetup(kSetupReps, &st, [&](int) {
    return Setup(d, cfg, report);
  });
  Engine& e = *st->engine;
  Session s = e.CreateSession();

  if (!cfg.trace) {
    Tracer off(false);
    const LoopResult r = RunLoop(s, qs, cfg.seconds, off, nullptr, report);
    EmitEndToEnd(report, setup_s, r.round_rate, r.latency,
                 static_cast<double>(IndexBytes(e)));
    return 0;
  }

  Tracer tracer(true);
  Traced traced;
  traced.execute_ms.resize(qs.size());
  const auto pool_before = Hist(e, "pidx_wait_pool_queue_us");
  const std::uint64_t fallbacks_before = s.path_counters().serial_fallbacks;
  const LoopResult r = RunLoop(s, qs, cfg.seconds, tracer, &traced, report);
  const std::uint64_t fallbacks =
      s.path_counters().serial_fallbacks - fallbacks_before;
  const double pool_wait_us =
      IntervalMeanUs(pool_before, Hist(e, "pidx_wait_pool_queue_us"));

  // One round through the optimizer (plan shapes) and one EXPLAIN ANALYZE
  // round (per-operator self time).
  std::uint64_t rewrites = 0;
  std::map<std::string, double> self_ms;
  for (const Query& q : qs) {
    const std::uint64_t op = tracer.NewOp();
    {
      Tracer::Scope span(tracer, "optimizer.Session::Explain", op);
      patchindex::Result<std::string> plan = s.Explain(q.sql);
      if (!plan.ok()) {
        report->Fail("olap explain " + q.name + ": " + plan.status().ToString());
      } else {
        rewrites += CountPatchRewrites(plan.value());
      }
    }
    Tracer::Scope span(tracer, "exec.ExplainAnalyze", op);
    patchindex::Result<QueryResult> analyzed = s.Sql("EXPLAIN ANALYZE " + q.sql);
    if (!analyzed.ok() || analyzed.value().profile == nullptr) {
      report->Fail("olap explain analyze " + q.name);
    } else {
      AddSelfTimes(*analyzed.value().profile, &self_ms);
    }
  }

  LayerMetrics lm;
  lm.Set("optimizer.patch_rewrites", static_cast<double>(rewrites));
  lm.Set("optimizer.optimize_us", traced.optimize_us.Mean());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    lm.Set("engine.execute_ms." + qs[i].name, traced.execute_ms[i].Mean());
  }
  lm.Set("engine.serial_fallbacks",
         static_cast<double>(fallbacks) / static_cast<double>(r.rounds));
  lm.Set("engine.pool_queue_wait_us", pool_wait_us);
  for (const auto& [op, ms] : self_ms) lm.Set("exec.self_ms." + op, ms);
  lm.Set("patchindex.discovery_ms.nuc", st->discovery_nuc_ms);
  lm.Set("patchindex.discovery_ms.nsc", st->discovery_nsc_ms);
  lm.Set("bitmap.bytes_per_row", static_cast<double>(IndexBytes(e)) /
                                     static_cast<double>(IndexedRows(e)));
  lm.Set("storage.resident_bytes", static_cast<double>(e.ApproxResidentBytes()));
  FinishTraced(cfg, tracer, r.round_rate.Percentile(0.5),
               r.traced_round_rate.Percentile(0.5), &lm, report);
  return 0;
}

}  // namespace perfbench
