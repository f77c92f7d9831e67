// traverse: closed loop, embedded. One Session on one thread with the
// default planner options (max_parallelism = hardware concurrency), prepared
// statements only, read-only data at the large scale. graphexec, the CSR
// and the task pool do nearly all the work; server, parser/planner and the
// WAL do none.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "common/string_util.h"
#include "reference.h"
#include "workloads.h"

namespace grfbench {

namespace {

using grfusion::PreparedStatement;
using grfusion::Random;
using grfusion::StrFormat;

// khop path lengths per view. bio is a dense preferential-attachment graph:
// at scale 0.2 a 3-hop count from one of its hubs enumerates millions of
// paths (over a second), so bio is probed at 2 hops and social at 3.
const std::map<std::string, int> kKhopLength = {{"social", 3}, {"bio", 2}};
// Reachability pairs are a fixed hop distance apart.
const std::map<std::string, int> kReachHops = {{"road", 8}, {"dblp", 4}};
constexpr int kSweepLength = 2;
constexpr size_t kSweepStarts = 64;
constexpr int64_t kReachRankBound = 70;

// Statements of each class/view per round. A round is the unit of the
// closed loop: fixed counts keep the mix identical from run to run, and the
// counts give every class a comparable share of the time.
const std::vector<std::pair<std::string, int>> kRound = {
    {"khop/social", 8}, {"khop/bio", 8},   {"reach/road", 16},
    {"reach/dblp", 8},  {"sp/road", 16},   {"sweep/social", 2},
    {"sweep/bio", 1}};

/// One prepared call with its parameters and reference answer.
struct Call {
  PreparedStatement* stmt = nullptr;
  std::vector<Value> params;
  std::string label;  ///< For mismatch messages.
  enum class Check { kCount, kExists, kCost } check = Check::kCount;
  uint64_t count = 0;   ///< kCount: expected COUNT(P).
  bool exists = false;  ///< kExists: a path is expected.
  double cost = -1;     ///< kCost: expected cheapest cost (-1 = none).
};

/// Compares one result with its reference and sets the counted results.
bool CheckCall(const Call& call, const ResultSet& r, uint64_t* results,
               Report* report) {
  bool ok = false;
  std::string got;
  switch (call.check) {
    case Call::Check::kCount: {
      const uint64_t n = r.NumRows() == 1 ? r.rows[0][0].AsBigInt() : 0;
      *results = n;
      ok = r.NumRows() == 1 && n == call.count;
      got = StrFormat("count %llu, reference %llu",
                      static_cast<unsigned long long>(n),
                      static_cast<unsigned long long>(call.count));
      break;
    }
    case Call::Check::kExists:
      *results = r.NumRows();
      ok = (r.NumRows() > 0) == call.exists;
      got = StrFormat("%zu rows, reference reachable=%d", r.NumRows(),
                      call.exists ? 1 : 0);
      break;
    case Call::Check::kCost:
      *results = r.NumRows();
      ok = call.cost < 0 ? r.NumRows() == 0
                         : r.NumRows() == 1 &&
                               std::fabs(r.rows[0][0].AsNumeric() -
                                         call.cost) <=
                                   1e-9 * std::max(1.0, call.cost);
      got = StrFormat("%zu rows (first %s), reference cost %.17g",
                      r.NumRows(),
                      r.NumRows() > 0 ? r.rows[0][0].ToString().c_str() : "-",
                      call.cost);
      break;
  }
  if (!ok) report->Mismatch(call.label + ": " + got);
  return ok;
}

/// Start vertexes ordered by their reference path count at `len`: the
/// `extremes` costliest and cheapest ones (hubs and leaves), plus `count`
/// drawn from the rest by stratified antithetic sampling: the ranks are cut
/// into count / 2 equal strata and each stratum gives the vertexes at a
/// seeded offset o and at 1 - o into it. A costly draw in a stratum comes
/// with a cheap one, so the total work of a sample varies little from seed
/// to seed (on bio's 2-hop counts, half as much as one draw per stratum).
std::vector<int64_t> StratifiedStarts(const RefGraph& g, int len,
                                      size_t count, size_t extremes,
                                      Random& rng) {
  std::vector<std::pair<uint64_t, int64_t>> by_cost;
  for (size_t i = 0; i < g.num_vertexes(); ++i) {
    by_cost.emplace_back(g.CountPaths(g.id_at(i), len), g.id_at(i));
  }
  std::sort(by_cost.rbegin(), by_cost.rend());
  std::vector<int64_t> starts;
  extremes = std::min(extremes, by_cost.size() / 2);
  for (size_t i = 0; i < extremes; ++i) {
    starts.push_back(by_cost[i].second);
    starts.push_back(by_cost[by_cost.size() - 1 - i].second);
  }
  const size_t rest = by_cost.size() - 2 * extremes;
  const size_t strata = (count + 1) / 2;
  const double width = static_cast<double>(rest) / static_cast<double>(strata);
  const double offset = rng.NextDouble();
  std::vector<bool> taken(rest, false);
  for (size_t k = 0; k < count; ++k) {
    const double o = k % 2 == 0 ? offset : 1 - offset;
    size_t rank = static_cast<size_t>(
        (static_cast<double>(k / 2) + o) * width);
    // The two draws of a stratum meet when the offset is near 1/2.
    while (rank < rest && taken[rank]) ++rank;
    if (rank >= rest) continue;
    taken[rank] = true;
    starts.push_back(by_cost[extremes + rank].second);
  }
  return starts;
}

}  // namespace

Status RunTraverse(const RunConfig& cfg, Report* report, Tracer* tracer) {
  const double scale = cfg.smoke ? 0.01 : 0.2;
  SpanLog* log = cfg.trace ? tracer->NewLog() : nullptr;
  report->Note("scale", StrFormat("%g", scale));

  // Set-up, repeated; the last database is the one measured.
  std::vector<SetupTimes> times;
  std::unique_ptr<Database> db;
  std::vector<Dataset> datasets;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    datasets.clear();
    SetupTimes t;
    const int64_t t0 = NowNs();
    datasets = GenerateDatasets(scale, log);
    t.generate_s = (NowNs() - t0) / 1e9;
    db = std::make_unique<Database>();
    Status s = LoadDatasets(datasets, db.get(), &t, log);
    if (!s.ok()) return s;
    t.total_s = (NowNs() - t0) / 1e9;
    times.push_back(t);
  }
  ReportSetup(times, report);

  std::map<std::string, RefGraph> refs;
  for (const Dataset& d : datasets) refs.emplace(d.name, RefGraph(d));
  Random rng(cfg.seed * 0x9e3779b97f4a7c15ull + 11);
  Session session(*db);

  // The sweep class's start tables: the benchmark's own input, created
  // after the timed set-up.
  std::map<std::string, std::vector<int64_t>> sweep_ids;
  for (const char* g : {"bio", "social"}) {
    Status s = session.ExecuteScript(
        StrFormat("CREATE TABLE seeds_%s (id BIGINT PRIMARY KEY)", g));
    if (!s.ok()) return s;
    std::vector<std::vector<Value>> rows;
    for (int64_t id : StratifiedStarts(refs.at(g), kSweepLength,
                                       cfg.smoke ? 6 : kSweepStarts - 4, 2,
                                       rng)) {
      sweep_ids[g].push_back(id);
      rows.push_back({Value::BigInt(id)});
    }
    s = db->BulkInsert(StrFormat("seeds_%s", g), rows);
    if (!s.ok()) return s;
  }

  // Statements, prepared once: the timed loop never parses or plans.
  std::map<std::string, PreparedStatement> prepared;
  std::map<std::string, std::string> sql_of;
  auto prepare = [&](const std::string& key,
                     const std::string& sql) -> Status {
    ScopedSpan span(log, "session.prepare");
    StatusOr<PreparedStatement> p = session.Prepare(sql);
    if (!p.ok()) return p.status();
    prepared[key] = std::move(*p);
    sql_of[key] = sql;
    return Status::OK();
  };
  Status s;
  for (const auto& [g, len] : kKhopLength) {
    s = prepare("khop/" + g,
                StrFormat("SELECT COUNT(P) FROM %s.Paths P WHERE "
                          "P.StartVertex.Id = ? AND P.Length <= %d",
                          g.c_str(), len));
    if (!s.ok()) return s;
  }
  for (const auto& [g, hops] : kReachHops) {
    s = prepare("reach/" + g,
                StrFormat("SELECT PS.PathString FROM %s.Paths PS WHERE "
                          "PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? "
                          "LIMIT 1",
                          g.c_str()));
    if (!s.ok()) return s;
    s = prepare("reachf/" + g,
                StrFormat("SELECT PS.PathString FROM %s.Paths PS WHERE "
                          "PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? "
                          "AND PS.Edges[0..*].rank < ? LIMIT 1",
                          g.c_str()));
    if (!s.ok()) return s;
  }
  s = prepare("sp/road",
              "SELECT TOP 1 PS.Cost FROM road.Paths PS "
              "HINT(SHORTESTPATH(weight)) WHERE PS.StartVertex.Id = ? AND "
              "PS.EndVertex.Id = ?");
  if (!s.ok()) return s;
  for (const auto& [g, ids] : sweep_ids) {
    s = prepare("sweep/" + g,
                StrFormat("SELECT COUNT(P) FROM seeds_%s S, %s.Paths P "
                          "WHERE P.StartVertex.Id = S.id AND P.Length <= %d",
                          g.c_str(), g.c_str(), kSweepLength));
    if (!s.ok()) return s;
  }

  // Calls with reference answers, drawn from the seed.
  std::map<std::string, std::vector<Call>> calls;
  for (const auto& [g, len] : kKhopLength) {
    const RefGraph& ref = refs.at(g);
    for (int64_t start :
         StratifiedStarts(ref, len, cfg.smoke ? 4 : 64, 4, rng)) {
      Call c;
      c.stmt = &prepared["khop/" + g];
      c.params = {Value::BigInt(start)};
      c.label = StrFormat("khop %s start=%lld", g.c_str(),
                          static_cast<long long>(start));
      c.count = ref.CountPaths(start, len);
      calls["khop/" + g].push_back(std::move(c));
    }
  }
  for (const auto& [g, hops] : kReachHops) {
    const RefGraph& ref = refs.at(g);
    auto pairs = PairsAtDistance(ref, rng, cfg.smoke ? 4 : 256, hops, 4);
    for (size_t i = 0; i < pairs.size(); ++i) {
      const auto [src, dst] = pairs[i];
      // Half the reachability probes push `rank < s` into the traversal.
      const bool filtered = i % 2 == 1;
      Call c;
      c.stmt = &prepared[(filtered ? "reachf/" : "reach/") + g];
      c.params = {Value::BigInt(src), Value::BigInt(dst)};
      if (filtered) c.params.push_back(Value::BigInt(kReachRankBound));
      c.label = StrFormat("reach %s %lld->%lld%s", g.c_str(),
                          static_cast<long long>(src),
                          static_cast<long long>(dst),
                          filtered ? " filtered" : "");
      c.check = Call::Check::kExists;
      c.exists = ref.Reachable(src, dst, filtered ? kReachRankBound : -1);
      calls["reach/" + g].push_back(std::move(c));
      if (g != "road") continue;
      Call sp;
      sp.stmt = &prepared["sp/road"];
      sp.params = {Value::BigInt(src), Value::BigInt(dst)};
      sp.label = StrFormat("sp road %lld->%lld", static_cast<long long>(src),
                           static_cast<long long>(dst));
      sp.check = Call::Check::kCost;
      sp.cost = ref.ShortestCost(src, dst);
      calls["sp/road"].push_back(std::move(sp));
    }
  }
  for (const auto& [g, ids] : sweep_ids) {
    Call c;
    c.stmt = &prepared["sweep/" + g];
    c.label = "sweep " + g;
    for (int64_t id : ids) c.count += refs.at(g).CountPaths(id, kSweepLength);
    calls["sweep/" + g].push_back(std::move(c));
  }
  for (const auto& [key, count] : kRound) {
    std::vector<Call>& list = calls[key];
    if (list.empty()) return Status::Internal("no calls sampled for " + key);
    std::shuffle(list.begin(), list.end(), rng.engine());
  }

  // Statements and results per second of each round: ops_per_s and
  // rows_per_s are their medians, so a spell of host contention that slows
  // a minority of the rounds does not move them.
  struct RoundRates {
    Samples ops;
    Samples rows;
  };
  std::map<std::string, size_t> cursor;
  auto run_phase = [&](double seconds, SpanLog* span_log, ClassMap* classes,
                       Samples* gen_gap_us, RoundRates* rates) -> double {
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    int64_t last_done = start;
    uint64_t request = 0;
    while (NowNs() < deadline) {
      const int64_t round_start = NowNs();
      uint64_t round_ops = 0;
      uint64_t round_rows = 0;
      for (const auto& [key, count] : kRound) {
        const std::vector<Call>& list = calls[key];
        ClassStats& stats = (*classes)[key];
        stats.graph = true;
        for (int i = 0; i < count; ++i) {
          const Call& call = list[cursor[key]++ % list.size()];
          const int64_t t0 = NowNs();
          gen_gap_us->Add(NsToUs(t0 - last_done));
          StatusOr<ResultSet> r = call.stmt->Execute(call.params);
          const int64_t t1 = NowNs();
          last_done = t1;
          if (span_log != nullptr) {
            span_log->Add("session.execute", t0, t1, 0, ++request);
          }
          if (!r.ok()) {
            report->Attempt(false);
            std::fprintf(stderr, "%s: %s\n", call.label.c_str(),
                         r.status().ToString().c_str());
            continue;
          }
          uint64_t results = 0;
          if (!CheckCall(call, *r, &results, report)) continue;
          report->Attempt(true);
          ++stats.statements;
          stats.rows += r->NumRows();
          stats.results += results;
          ++round_ops;
          round_rows += results;
          stats.latency_us.Add(NsToUs(t1 - t0));
          stats.engine_us.Add(NsToUs(t1 - t0));
          stats.AddExec(session.last_stats());
        }
      }
      const double round_s = (NowNs() - round_start) / 1e9;
      rates->ops.Add(static_cast<double>(round_ops) / round_s);
      rates->rows.Add(static_cast<double>(round_rows) / round_s);
    }
    return (NowNs() - start) / 1e9;
  };

  const double seconds = cfg.smoke ? 0.5 : cfg.seconds;
  ClassMap classes;
  Samples gen_gap_us;
  RoundRates rates;
  CounterSnapshot before = CounterSnapshot::Take();
  double elapsed = 0;
  if (!cfg.trace) {
    elapsed = run_phase(seconds, nullptr, &classes, &gen_gap_us, &rates);
  } else {
    // A third untraced, the rest traced: the rate difference is the
    // tracing overhead.
    ClassMap untraced;
    Samples untraced_gap;
    RoundRates untraced_rates;
    const double untraced_s = run_phase(seconds / 3, nullptr, &untraced,
                                        &untraced_gap, &untraced_rates);
    before = CounterSnapshot::Take();
    elapsed =
        run_phase(seconds - seconds / 3, log, &classes, &gen_gap_us, &rates);
    ClassStats a, b;
    for (const auto& [key, c] : untraced) a.Merge(c);
    for (const auto& [key, c] : classes) b.Merge(c);
    const double rate_untraced = a.statements / untraced_s;
    const double rate_traced = b.statements / elapsed;
    report->Set("trace.overhead_frac",
                rate_traced == 0 ? 0 : rate_untraced / rate_traced - 1,
                "ratio", b.statements);
  }
  CounterSnapshot after = CounterSnapshot::Take();
  ReportClasses(classes, elapsed, report);
  report->SetQuantile("ops_per_s", rates.ops, 0.5, "1/s");
  report->SetQuantile("rows_per_s", rates.rows, 0.5, "1/s");
  ReportCounterDeltas(before, after, report);
  report->SetQuantile("gen.late_p99_us", gen_gap_us, 0.99, "us");
  report->Set("gen.backlog", 0, "count");

  ClassStats sweep;
  for (const auto& [key, c] : classes) {
    if (key.rfind("sweep/", 0) == 0) sweep.Merge(c);
  }
  if (sweep.statements > 0) {
    report->Set("sweep_paths_per_s",
                static_cast<double>(sweep.results) /
                    (sweep.latency_us.Sum() / 1e6),
                "paths/s", sweep.statements);
  }

  Status csr = ReportCsrBytes(*db, report);
  if (!csr.ok()) return csr;

  if (cfg.trace) {
    // Sweep at default parallelism against max_parallelism = 1, plus the
    // task-pool work one parallel sweep statement causes.
    Session serial(*db);
    serial.options().max_parallelism = 1;
    std::vector<double> par_ms, ser_ms;
    double tasks = 0, steals = 0;
    const int reps = cfg.smoke ? 1 : 3;
    for (const auto& [g, ids] : sweep_ids) {
      StatusOr<PreparedStatement> serial_stmt =
          serial.Prepare(sql_of["sweep/" + g]);
      if (!serial_stmt.ok()) return serial_stmt.status();
      PreparedStatement& parallel_stmt = prepared["sweep/" + g];
      for (int r = 0; r < reps; ++r) {
        const CounterSnapshot c0 = CounterSnapshot::Take();
        const int64_t t0 = NowNs();
        StatusOr<ResultSet> a = parallel_stmt.Execute();
        const int64_t t1 = NowNs();
        const CounterSnapshot c1 = CounterSnapshot::Take();
        StatusOr<ResultSet> b = serial_stmt->Execute();
        const int64_t t2 = NowNs();
        if (!a.ok()) return a.status();
        if (!b.ok()) return b.status();
        if (a->rows != b->rows) report->Mismatch("sweep serial != parallel");
        par_ms.push_back((t1 - t0) / 1e6);
        ser_ms.push_back((t2 - t1) / 1e6);
        tasks += c1.Delta(c0, "taskpool_tasks_total");
        steals += c1.Delta(c0, "taskpool_steals_total");
      }
    }
    const double runs = static_cast<double>(par_ms.size());
    report->Set("graphexec.parallel_speedup", Median(ser_ms) / Median(par_ms),
                "ratio", par_ms.size());
    report->Set("sweep.parallel_ms", Median(par_ms), "ms", par_ms.size());
    report->Set("sweep.serial_ms", Median(ser_ms), "ms", ser_ms.size());
    report->Set("common.taskpool_tasks", tasks / runs, "count",
                par_ms.size());
    report->Set("common.taskpool_steals", steals / runs, "count",
                par_ms.size());
    std::vector<std::string> texts;
    for (const auto& [key, sql] : sql_of) texts.push_back(sql);
    ReplayParsePlan(*db, session.options(), texts, log, report);
  }
  return Status::OK();
}

}  // namespace grfbench
