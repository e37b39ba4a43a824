// Workload `oltp`: a PiServer hosted in this process on an ephemeral
// loopback port serves one PiClient connection per client thread. The
// table holds ~1M rows in 4 partitions with a NUC index on `val`. Each
// client runs rounds of 100 literal-SQL statements: 75 point SELECTs,
// 5 short key-range COUNT(*)s, 12 single-row UPDATEs, 4 INSERTs and 4
// DELETEs. A client updates only the original keys it owns (key % clients
// == client) and deletes only rows it inserted itself, so it knows the
// exact answer of every statement it sends.
//
// Reads and writes run in separate phases of each round, held apart by a
// barrier: all clients read concurrently, then all write concurrently.
// With reads and writes overlapping, the engine intermittently crashes
// (a scan touches a snapshot partition freed by a concurrent commit), so
// overlapping them would make the workload fail now and then.

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/client.h"
#include "common.h"
#include "data.h"
#include "layers.h"
#include "server/server.h"

namespace perfbench {
namespace {

using patchindex::ConstraintKind;
using patchindex::Engine;
using patchindex::EngineOptions;
using patchindex::QueryResult;
using patchindex::Session;
using patchindex::StatusCode;

struct Sizes {
  std::uint64_t rows;
  double rate;
};

Sizes SizesFor(Scale s) {
  if (s == Scale::kTiny) return {20'000, 0.05};
  return {1'000'000, 0.05};
}

constexpr std::size_t kPartitions = 4;
/// A set-up takes only ~0.1 s here, so a run repeats it more often than
/// kSetupReps to keep the median steady.
constexpr int kOltpSetupReps = 15;
constexpr std::size_t kMaxClients = 4;
constexpr std::int64_t kRangeWidth = 32;
/// Fresh (never colliding) values start here; client c uses
/// kFreshBase + c + clients * j.
constexpr std::int64_t kFreshBase = 4'000'000'000'000LL;
/// Inserted keys start at the table size; client c uses
/// rows + c + clients * j.

enum class Op { kPoint, kRange, kUpdate, kInsert, kDelete };
constexpr std::size_t kOpTypes = 5;
constexpr std::size_t kOpsPerRound = 100;

/// One round of a client: a read phase of 75 point SELECTs and 5
/// range COUNT(*)s, then a write phase of 12 UPDATEs, 4 INSERTs and 4
/// DELETEs, each in a seeded order; no prefix of the write phase holds
/// more DELETEs than INSERTs.
struct Round {
  std::vector<Op> reads;
  std::vector<Op> writes;
};

Round MakeRound(Rng& rng) {
  Round r;
  r.reads.insert(r.reads.end(), 75, Op::kPoint);
  r.reads.insert(r.reads.end(), 5, Op::kRange);
  rng.Shuffle(r.reads);
  std::vector<Op>& ops = r.writes;
  ops.insert(ops.end(), 12, Op::kUpdate);
  ops.insert(ops.end(), 4, Op::kInsert);
  ops.insert(ops.end(), 4, Op::kDelete);
  rng.Shuffle(ops);
  int balance = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i] == Op::kInsert) ++balance;
    if (ops[i] != Op::kDelete) continue;
    if (balance > 0) {
      --balance;
      continue;
    }
    std::size_t j = i + 1;
    while (ops[j] != Op::kInsert) ++j;  // a later INSERT exists
    std::swap(ops[i], ops[j]);
    ++balance;
  }
  return r;
}

/// Holds the clients together between phases: every client finishes its
/// read phase before any writes, and its write phase before the next
/// reads. The last client to finish a round decides whether another
/// round starts, so all clients run the same number of whole rounds.
class PhaseBarrier {
 public:
  /// With `alternate`, odd rounds are the traced ones (see Client::Run).
  PhaseBarrier(std::size_t clients, std::int64_t deadline_ns, bool alternate)
      : clients_(clients),
        deadline_ns_(deadline_ns),
        min_rounds_(alternate ? 2 : 1),
        alternate_(alternate),
        round_start_(NowNs()) {}
  /// Waits for every client; returns false when the run is over (only
  /// meaningful at the end of a round).
  bool Wait(bool end_of_round) {
    std::unique_lock<std::mutex> lock(mu_);
    const std::uint64_t gen = generation_;
    if (++arrived_ == clients_) {
      arrived_ = 0;
      ++generation_;
      if (end_of_round) {
        const std::int64_t now = NowNs();
        const bool traced = alternate_ && rounds_ % 2 == 1;
        (traced ? traced_round_rate : round_rate)
            .Add(static_cast<double>(clients_ * kOpsPerRound) * 1e9 /
                 static_cast<double>(now - round_start_));
        round_start_ = now;
        ++rounds_;
        more_ = rounds_ < min_rounds_ || now < deadline_ns_;
      }
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != gen; });
    }
    return more_;
  }

  /// Operations per second of each finished round, all clients together:
  /// untraced and traced rounds.
  Samples round_rate;
  Samples traced_round_rate;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t clients_;
  std::int64_t deadline_ns_;
  std::uint64_t min_rounds_;
  bool alternate_;
  std::int64_t round_start_;
  std::uint64_t rounds_ = 0;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  bool more_ = true;
};

struct State {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<patchindex::net::PiServer> server;
  double discovery_ms = 0;
};

/// Figures one client gathers during its traced rounds.
struct ClientTrace {
  Samples point_ms;
  Samples update_ms;
  Acc prepare_point_us;
  Acc prepare_update_us;
  Acc locate_ms;
  Acc commit_ms;
  Acc commit_wait_ms;
  Acc roundtrip_us;

  void Merge(const ClientTrace& o) {
    point_ms.Merge(o.point_ms);
    update_ms.Merge(o.update_ms);
    prepare_point_us.Merge(o.prepare_point_us);
    prepare_update_us.Merge(o.prepare_update_us);
    locate_ms.Merge(o.locate_ms);
    commit_ms.Merge(o.commit_ms);
    commit_wait_ms.Merge(o.commit_wait_ms);
    roundtrip_us.Merge(o.roundtrip_us);
  }
};

/// One client's closed loop and its knowledge of the keys it owns.
class Client {
 public:
  Client(std::size_t id, std::size_t clients, std::uint64_t rows,
         std::uint64_t seed, std::int64_t collide_domain,
         std::vector<std::int64_t>* shadow)
      : id_(id),
        clients_(clients),
        rows_(rows),
        collide_domain_(collide_domain),
        shadow_(shadow),
        rng_(seed * 1000 + 100 + id) {}

  /// Runs whole rounds, in step with the other clients, until the
  /// barrier ends the run. With an enabled tracer every second round is
  /// traced (spans and the figures in `trace`), so drift over the run
  /// weighs on traced and untraced rounds alike.
  void Run(patchindex::net::PiClient& client, PhaseBarrier& barrier,
           Engine& engine, Tracer& tracer, ClientTrace* trace,
           Report* report) {
    Session local = engine.CreateSession();
    Tracer off(false);
    std::uint64_t rounds = 0;
    do {
      const bool traced = tracer.enabled() && rounds % 2 == 1;
      Tracer& rt = traced ? tracer : off;
      ClientTrace* rtrace = traced ? trace : nullptr;
      const Round round = MakeRound(rng_);
      for (Op op : round.reads) Step(client, op, local, rt, rtrace, report);
      barrier.Wait(/*end_of_round=*/false);
      for (Op op : round.writes) Step(client, op, local, rt, rtrace, report);
      ++rounds;
    } while (barrier.Wait(/*end_of_round=*/true));
  }

  TypedSamples latency{kOpTypes};  // per Op
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  /// Rows this client inserted and has not deleted yet, oldest first.
  std::deque<std::pair<std::int64_t, std::int64_t>> live;

 private:
  std::int64_t OwnKey() {
    const std::uint64_t owned = (rows_ - id_ + clients_ - 1) / clients_;
    return static_cast<std::int64_t>(id_ + clients_ * rng_.Uniform(0, owned - 1));
  }
  std::int64_t NewValue() {
    if (rng_.Uniform(0, 1) == 0) {
      // Collides with the exception values already in the table.
      return static_cast<std::int64_t>(2 * rng_.Uniform(0, collide_domain_ - 1) + 1);
    }
    return kFreshBase + static_cast<std::int64_t>(id_ + clients_ * fresh_++);
  }

  void Step(patchindex::net::PiClient& client, Op op, Session& local,
            Tracer& tracer, ClientTrace* trace, Report* report) {
    std::string sql;
    // Expected outcome: rows (-1: a DML statement) and the checked value.
    std::int64_t expect_rows = -1;
    std::int64_t expect_val = 0;
    std::int64_t key = 0;
    std::int64_t value = 0;
    const std::uint64_t pick = rng_.Uniform(0, 74);
    switch (op) {
      case Op::kPoint:
        // Mostly the client's original keys; now and then its newest
        // inserted row (must be found) or its newest deleted one (must be
        // absent).
        if (pick == 0 && !live.empty()) {
          key = live.back().first;
          expect_rows = 1;
          expect_val = live.back().second;
        } else if (pick == 1 && last_deleted_ >= 0) {
          key = last_deleted_;
          expect_rows = 0;
        } else {
          key = OwnKey();
          expect_rows = 1;
          expect_val = (*shadow_)[key];
        }
        sql = "SELECT key, val FROM t WHERE key = " + std::to_string(key);
        break;
      case Op::kRange:
        key = static_cast<std::int64_t>(rng_.Uniform(0, rows_ - kRangeWidth));
        sql = "SELECT COUNT(*) FROM t WHERE key >= " + std::to_string(key) +
              " AND key < " + std::to_string(key + kRangeWidth);
        break;
      case Op::kUpdate:
        key = OwnKey();
        value = NewValue();
        sql = "UPDATE t SET val = " + std::to_string(value) +
              " WHERE key = " + std::to_string(key);
        break;
      case Op::kInsert:
        key = static_cast<std::int64_t>(rows_ + id_ + clients_ * inserted_++);
        value = NewValue();
        sql = "INSERT INTO t VALUES (" + std::to_string(key) + ", " +
              std::to_string(value) + ")";
        break;
      case Op::kDelete:
        key = live.front().first;
        sql = "DELETE FROM t WHERE key = " + std::to_string(key);
        break;
    }

    const std::uint64_t trace_op = tracer.NewOp();
    const std::int64_t t0 = NowNs();
    patchindex::Result<QueryResult> r = client.Sql(sql);
    while (!r.ok() && r.status().code() == StatusCode::kUnavailable &&
           client.connected()) {
      // SERVER_BUSY: admission control refused; send again.
      std::this_thread::yield();
      r = client.Sql(sql);
    }
    const std::int64_t t1 = NowNs();
    const double ms = NsToMs(t1 - t0);
    ++ops;
    latency.Add(static_cast<std::size_t>(op), ms);
    if (!r.ok()) {
      ++failed;
      report->Fail("oltp: " + sql + ": " + r.status().ToString());
      return;
    }
    const QueryResult& res = r.value();
    if (trace != nullptr) Trace(op, sql, t0, t1, trace_op, res, local, tracer, trace, report);

    const auto& cols = res.rows.columns;
    switch (op) {
      case Op::kPoint: {
        const std::size_t n = cols.empty() ? 0 : cols[0].i64.size();
        if (static_cast<std::int64_t>(n) != expect_rows ||
            (n == 1 && (cols.size() != 2 || cols[0].i64[0] != key ||
                        cols[1].i64[0] != expect_val))) {
          report->Fail("oltp: " + sql + " returned " + std::to_string(n) +
                       " rows, expected " + std::to_string(expect_rows) +
                       (expect_rows == 1 ? " with val " + std::to_string(expect_val)
                                         : std::string()));
        }
        break;
      }
      case Op::kRange:
        // Original keys are never deleted, so the count is exact.
        if (cols.size() != 1 || cols[0].i64.size() != 1 ||
            cols[0].i64[0] != kRangeWidth) {
          report->Fail("oltp: " + sql + " miscounted");
        }
        break;
      case Op::kUpdate:
      case Op::kInsert:
      case Op::kDelete:
        if (res.rows_affected != 1) {
          report->Fail("oltp: " + sql + " affected " +
                       std::to_string(res.rows_affected) + " rows");
        }
        if (op == Op::kUpdate) (*shadow_)[key] = value;
        if (op == Op::kInsert) live.emplace_back(key, value);
        if (op == Op::kDelete) {
          live.pop_front();
          last_deleted_ = key;
        }
        break;
    }
  }

  /// Traced-phase extras: spans, the phases the server reports back, and
  /// an in-process Session::Prepare of the same text (the sql layer).
  void Trace(Op op, const std::string& sql, std::int64_t t0, std::int64_t t1,
             std::uint64_t trace_op, const QueryResult& res, Session& local,
             Tracer& tracer, ClientTrace* trace, Report* report) {
    const std::uint64_t span =
        tracer.Record("client.PiClient::Sql", trace_op, 0, t0, t1);
    RecordPhaseSpans(tracer, trace_op, span, t0, res.profile.get());
    const double ms = NsToMs(t1 - t0);
    trace->roundtrip_us.Add(ms * 1e3);
    if (op == Op::kPoint) trace->point_ms.Add(ms);
    if (op == Op::kUpdate) {
      trace->update_ms.Add(ms);
      if (res.profile != nullptr) {
        trace->locate_ms.Add(res.profile->execute_ms);
        trace->commit_ms.Add(res.profile->commit_ms);
        trace->commit_wait_ms.Add(res.profile->commit_wait_ms);
      }
    }
    if (op == Op::kPoint || op == Op::kUpdate) {
      const std::int64_t p0 = NowNs();
      auto prepared = local.Prepare(sql);
      const std::int64_t p1 = NowNs();
      tracer.Record("sql.Session::Prepare", trace_op, 0, p0, p1);
      if (!prepared.ok()) report->Fail("oltp: Prepare " + sql);
      (op == Op::kPoint ? trace->prepare_point_us : trace->prepare_update_us)
          .Add(NsToMs(p1 - p0) * 1e3);
    }
  }

  std::size_t id_;
  std::size_t clients_;
  std::uint64_t rows_;
  std::int64_t collide_domain_;
  std::vector<std::int64_t>* shadow_;
  Rng rng_;
  std::uint64_t fresh_ = 0;
  std::uint64_t inserted_ = 0;
  std::int64_t last_deleted_ = -1;
};

struct PhaseResult {
  Samples round_rate;         // untraced rounds
  Samples traced_round_rate;  // traced rounds
  ClientTrace trace;
};

PhaseResult RunClients(std::vector<Client>& clients,
                       std::vector<patchindex::net::PiClient>& conns,
                       State& st, double seconds, Tracer& tracer,
                       Report* report) {
  std::vector<ClientTrace> traces(clients.size());
  const std::int64_t start = NowNs();
  PhaseBarrier barrier(clients.size(),
                       start + static_cast<std::int64_t>(seconds * 1e9),
                       tracer.enabled());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      clients[i].Run(conns[i], barrier, *st.engine, tracer, &traces[i],
                     report);
    });
  }
  for (std::thread& t : threads) t.join();
  PhaseResult out;
  out.round_rate = barrier.round_rate;
  out.traced_round_rate = barrier.traced_round_rate;
  for (const ClientTrace& t : traces) out.trace.Merge(t);
  return out;
}

std::unique_ptr<State> Setup(const std::vector<std::int64_t>& val,
                             const RunConfig& cfg, std::size_t clients,
                             Report* report) {
  auto st = std::make_unique<State>();
  EngineOptions options;
  options.num_threads = cfg.threads;
  st->engine = std::make_unique<Engine>(options);
  if (!st->engine->catalog()
           .AddPartitionedTable("t", MakePartitionedTable(val, kPartitions))
           .ok()) {
    report->Fail("oltp: loading the table failed");
  }
  Session s = st->engine->CreateSession();
  const std::int64_t t0 = NowNs();
  const patchindex::Status indexed =
      s.CreatePatchIndex("t", 1, ConstraintKind::kNearlyUnique);
  st->discovery_ms = NsToMs(NowNs() - t0);
  if (!indexed.ok()) report->Fail("oltp: CreatePatchIndex: " + indexed.ToString());

  patchindex::net::ServerOptions so;
  so.port = 0;  // ephemeral
  so.query_workers = cfg.threads;
  so.max_connections = clients + 4;
  st->server = std::make_unique<patchindex::net::PiServer>(*st->engine, so);
  const patchindex::Status started = st->server->Start();
  if (!started.ok()) report->Fail("oltp: server start: " + started.ToString());
  return st;
}

/// After the run: the whole table must equal the clients' combined
/// knowledge, and every partition's index must still be valid.
void CheckFinalState(Engine& engine, const std::vector<std::int64_t>& shadow,
                     const std::vector<Client>& clients, Report* report) {
  Session s = engine.CreateSession();
  auto r = s.Sql("SELECT key, val FROM t");
  if (!r.ok() || r.value().rows.columns.size() != 2) {
    report->Fail("oltp: final scan failed");
    return;
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> got;
  const auto& cols = r.value().rows.columns;
  for (std::size_t i = 0; i < cols[0].i64.size(); ++i) {
    got.emplace_back(cols[0].i64[i], cols[1].i64[i]);
  }
  std::vector<std::pair<std::int64_t, std::int64_t>> want;
  for (std::size_t k = 0; k < shadow.size(); ++k) {
    want.emplace_back(static_cast<std::int64_t>(k), shadow[k]);
  }
  for (const Client& c : clients) want.insert(want.end(), c.live.begin(), c.live.end());
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  if (got != want) {
    report->Fail("oltp: final table (" + std::to_string(got.size()) +
                 " rows) differs from the clients' shadow (" +
                 std::to_string(want.size()) + " rows)");
  }
  const auto indexes = IndexesOf(engine, "t");
  if (indexes.size() != kPartitions) report->Fail("oltp: index missing");
  for (std::size_t p = 0; p < indexes.size(); ++p) {
    CheckIndex(*indexes[p], "oltp index p" + std::to_string(p),
               /*slack=*/2.0, report);
  }
}

}  // namespace

int RunOltp(const RunConfig& cfg, Report* report) {
  const Sizes z = SizesFor(cfg.scale);
  const std::size_t nclients = std::min(cfg.threads, kMaxClients);
  Rng rng(cfg.seed * 1000 + 2);
  const std::vector<std::int64_t> val = MakeNucColumn(z.rows, z.rate, rng);
  const std::int64_t domain =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(z.rate * z.rows) / 4);

  std::unique_ptr<State> st;
  const double setup_s = RepeatedSetup(kOltpSetupReps, &st, [&](int) {
    return Setup(val, cfg, nclients, report);
  });
  Engine& e = *st->engine;

  std::vector<std::int64_t> shadow = val;
  if (cfg.corrupt) shadow[0] += 1;  // self-test: a wrong expected answer
  std::vector<Client> clients;
  std::vector<patchindex::net::PiClient> conns(nclients);
  for (std::size_t c = 0; c < nclients; ++c) {
    clients.emplace_back(c, nclients, z.rows, cfg.seed, domain, &shadow);
    const patchindex::Status connected =
        conns[c].Connect("127.0.0.1", st->server->port());
    if (!connected.ok()) {
      report->Fail("oltp: connect: " + connected.ToString());
      return 1;
    }
  }

  // Server and pool figures of a traced run cover all rounds, traced or
  // not: the server does the same work either way.
  const auto exec_before = Hist(e, "pidx_server_query_latency_us");
  const auto queue_before = Hist(e, "pidx_server_queue_wait_us");
  const auto pool_before = Hist(e, "pidx_wait_pool_queue_us");
  Tracer tracer(cfg.trace);
  const PhaseResult run = RunClients(clients, conns, *st, cfg.seconds, tracer, report);
  LayerMetrics lm;
  if (cfg.trace) {
    lm.Set("server.exec_us",
           IntervalMeanUs(exec_before, Hist(e, "pidx_server_query_latency_us")));
    lm.Set("server.queue_wait_us",
           IntervalMeanUs(queue_before, Hist(e, "pidx_server_queue_wait_us")));
    lm.Set("engine.pool_queue_wait_us",
           IntervalMeanUs(pool_before, Hist(e, "pidx_wait_pool_queue_us")));
  }
  const std::uint64_t busy_rejections =
      CounterValue(e, "pidx_server_queries_rejected_busy_total");
  for (auto& conn : conns) conn.Close();
  st->server->Stop();

  std::uint64_t ops = 0;
  TypedSamples latency(kOpTypes);
  for (const Client& c : clients) {
    ops += c.ops;
    report->failed += c.failed;
    latency.Merge(c.latency);
  }
  report->attempted = ops;
  CheckFinalState(e, shadow, clients, report);

  if (!cfg.trace) {
    EmitEndToEnd(report, setup_s, run.round_rate, latency,
                 static_cast<double>(IndexBytes(e)));
    return 0;
  }

  const ClientTrace& t = run.trace;
  lm.Set("client.point_p50_ms", t.point_ms.Percentile(0.50));
  lm.Set("client.point_p99_ms", t.point_ms.Percentile(0.99));
  lm.Set("client.update_p50_ms", t.update_ms.Percentile(0.50));
  lm.Set("client.update_p90_ms", t.update_ms.Percentile(0.90));
  lm.Set("sql.prepare_us.point", t.prepare_point_us.Mean());
  lm.Set("sql.prepare_us.update", t.prepare_update_us.Mean());
  lm.Set("engine.locate_ms", t.locate_ms.Mean());
  lm.Set("engine.commit_ms", t.commit_ms.Mean());
  lm.Set("engine.commit_wait_ms", t.commit_wait_ms.Mean());
  lm.Set("server.roundtrip_us", t.roundtrip_us.Mean());
  lm.Set("server.busy_rejections", static_cast<double>(busy_rejections));

  // Deterministic work counts of one point SELECT, from EXPLAIN ANALYZE.
  {
    Session s = e.CreateSession();
    const std::uint64_t op = tracer.NewOp();
    Tracer::Scope span(tracer, "exec.ExplainAnalyze", op);
    auto analyzed = s.Sql("EXPLAIN ANALYZE SELECT key, val FROM t WHERE key = 12345");
    if (!analyzed.ok() || analyzed.value().profile == nullptr) {
      report->Fail("oltp: EXPLAIN ANALYZE of the point SELECT failed");
    } else {
      double rows = 0;
      double morsels = 0;
      for (const auto& o : analyzed.value().profile->ops) {
        if (OperatorName(o.label) == "Scan") {
          rows += static_cast<double>(o.rows);
          morsels += static_cast<double>(o.morsels);
        }
      }
      lm.Set("exec.rows_scanned.point", rows);
      lm.Set("exec.morsels.point", morsels);
    }
  }
  double fraction = 0;
  const auto indexes = IndexesOf(e, "t");
  for (const auto* idx : indexes) fraction += idx->last_handled_scan_fraction();
  lm.Set("patchindex.nuc_scan_fraction",
         indexes.empty() ? 0.0 : fraction / static_cast<double>(indexes.size()));
  lm.Set("patchindex.discovery_ms.nuc", st->discovery_ms);
  lm.Set("bitmap.bytes_per_row", static_cast<double>(IndexBytes(e)) /
                                     static_cast<double>(IndexedRows(e)));
  lm.Set("storage.resident_bytes", static_cast<double>(e.ApproxResidentBytes()));
  FinishTraced(cfg, tracer, run.round_rate.Percentile(0.5),
               run.traced_round_rate.Percentile(0.5), &lm, report);
  return 0;
}

}  // namespace perfbench
