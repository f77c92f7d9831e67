// export: closed loop over the wire on two connections, read-only, large
// scale, server and clients on one CPU. Every statement is prepared and
// returns 10^3-10^5 rows, so result materialization, the row -> RowBatch
// transpose and wire encode/send dominate; the engine's per-statement fixed
// costs are noise here.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "reference.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace grfbench {

namespace {

using grfusion::Client;
using grfusion::Random;
using grfusion::StrFormat;

constexpr size_t kConnections = 2;
constexpr int kPathLength = 3;
// Start vertexes for the path statements return this many paths or more.
constexpr uint64_t kMinPathRows = 1000;
constexpr uint64_t kMaxPathRows = 100000;
constexpr int kCallsPerKind = 16;
// The scan's `rank < ?` bounds span this range (rank is uniform in 0..99).
constexpr int64_t kMinRank = 5;
constexpr int64_t kMaxRank = 50;

/// One prepared call and its expected row count.
struct Call {
  std::string key;
  std::vector<Value> params;
  uint64_t rows = 0;
  std::string label;
};

}  // namespace

Status RunExport(const RunConfig& cfg, Report* report, Tracer* tracer) {
  const double scale = cfg.smoke ? 0.01 : 0.2;
  // Server and clients share one CPU (see PinToOneCpu).
  const int cpu = PinToOneCpu();
  if (cpu < 0) return Status::Internal("cannot pin export to one CPU");
  SpanLog* setup_log = cfg.trace ? tracer->NewLog() : nullptr;
  report->Note("scale", StrFormat("%g", scale));
  report->Note("cpu", std::to_string(cpu));

  std::vector<SetupTimes> times;
  std::unique_ptr<Database> db;
  std::unique_ptr<grfusion::Server> server;
  std::vector<Dataset> datasets;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    db.reset();
    SetupTimes t;
    const int64_t t0 = NowNs();
    datasets = GenerateDatasets(scale, setup_log);
    t.generate_s = (NowNs() - t0) / 1e9;
    db = std::make_unique<Database>();
    Status s = LoadDatasets(datasets, db.get(), &t, setup_log);
    if (!s.ok()) return s;
    server = std::make_unique<grfusion::Server>(*db, grfusion::ServerOptions());
    s = server->Start();
    if (!s.ok()) return s;
    t.total_s = (NowNs() - t0) / 1e9;
    times.push_back(t);
  }
  ReportSetup(times, report);

  // Calls and their reference row counts.
  Random rng(cfg.seed * 0x9e3779b97f4a7c15ull + 37);
  const Dataset& social = Find(datasets, "social");
  const RefGraph ref(social);
  // The path length stays a literal: a `Length <= ?` bound is not used to
  // bound the traversal.
  const std::map<std::string, std::string> sqls = {
      {"scan", "SELECT src, dst, weight FROM social_e WHERE rank < ?"},
      {"paths", StrFormat("SELECT PS.PathString, PS.Length FROM social.Paths "
                          "PS WHERE PS.StartVertex.Id = ? AND PS.Length <= %d",
                          kPathLength)},
      // Paper Listing 2: a relational row drives the traversal and the
      // answer carries attributes of the path's end vertex. (Joining
      // social_v on V.id = PS.EndVertex.Id instead plans the scan of V
      // first and runs one traversal per vertex row.)
      {"join", StrFormat("SELECT U.name, PS.EndVertex.name, "
                         "PS.EndVertex.score, PS.Length FROM social_v U, "
                         "social.Paths PS WHERE U.id = ? AND "
                         "PS.StartVertex.Id = U.id AND PS.Length <= %d",
                         kPathLength)},
  };
  std::map<std::string, std::vector<Call>> calls;
  // Both samples are systematic (evenly spaced with a seeded offset), so
  // the rows a round returns vary little from seed to seed.
  const double offset = rng.NextDouble();
  for (int k = 0; k < kCallsPerKind; ++k) {
    const int64_t bound = kMinRank + static_cast<int64_t>(
        (k + offset) * (kMaxRank - kMinRank) / kCallsPerKind);
    Call c;
    c.key = "scan";
    c.params = {Value::BigInt(bound)};
    for (const grfusion::EdgeRow& e : social.edges) c.rows += e.rank < bound;
    c.label = StrFormat("scan rank < %lld", static_cast<long long>(bound));
    calls["scan"].push_back(std::move(c));
  }
  // Path starts whose answers fall in the 10^3..10^5 row window, ordered by
  // their row count.
  const uint64_t min_rows = cfg.smoke ? 10 : kMinPathRows;
  std::vector<std::pair<uint64_t, int64_t>> candidates;
  for (size_t i = 0; i < ref.num_vertexes(); ++i) {
    const uint64_t rows = ref.CountPaths(ref.id_at(i), kPathLength);
    if (rows >= min_rows && rows <= kMaxPathRows) {
      candidates.emplace_back(rows, ref.id_at(i));
    }
  }
  std::sort(candidates.begin(), candidates.end());
  for (int k = 0; k < kCallsPerKind && !candidates.empty(); ++k) {
    const auto [rows, start] = candidates[static_cast<size_t>(
        (k + offset) * static_cast<double>(candidates.size()) /
        kCallsPerKind)];
    for (const char* key : {"paths", "join"}) {
      Call c;
      c.key = key;
      c.params = {Value::BigInt(start)};
      c.rows = rows;
      c.label = StrFormat("%s start=%lld", key, static_cast<long long>(start));
      calls[key].push_back(std::move(c));
    }
  }
  for (const auto& [key, list] : calls) {
    if (list.empty()) return Status::Internal("no calls sampled for " + key);
  }

  struct Conn {
    Client client;
    std::map<std::string, uint64_t> stmt;
    ClassMap classes;
    SpanLog* log = nullptr;
    uint64_t request = 0;
    size_t cursor = 0;
    Samples gap_us;  ///< Generator time between a reply and the next call.
  };
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = 0; c < kConnections; ++c) {
    auto conn = std::make_unique<Conn>();
    Status s = conn->client.Connect("127.0.0.1", server->port());
    if (!s.ok()) return s;
    for (const auto& [key, sql] : sqls) {
      StatusOr<uint64_t> id = conn->client.Prepare(sql);
      if (!id.ok()) return id.status();
      conn->stmt[key] = *id;
    }
    conn->cursor = c * 7;
    conns.push_back(std::move(conn));
  }

  // A round is one statement of each kind; every connection loops rounds.
  const std::vector<std::string> order = {"scan", "paths", "join"};
  auto run_phase = [&](double seconds, bool traced) -> double {
    for (auto& c : conns) {
      c->classes.clear();
      c->gap_us = Samples();
      c->log = traced ? tracer->NewLog() : nullptr;
    }
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (auto& cp : conns) {
      Conn* c = cp.get();
      threads.emplace_back([&, c] {
        int64_t last_done = NowNs();
        while (NowNs() < deadline && c->client.connected()) {
          for (const std::string& key : order) {
            const std::vector<Call>& list = calls.at(key);
            const Call& call = list[c->cursor % list.size()];
            const int64_t due = last_done;
            const int64_t t0 = NowNs();
            c->gap_us.Add(NsToUs(t0 - due));
            StatusOr<ResultSet> r =
                c->client.Execute(c->stmt.at(key), call.params);
            const int64_t t1 = NowNs();
            const grfusion::wire::Done& done = c->client.last_stats();
            ClassStats& stats = c->classes[key];
            stats.graph = key != "scan";
            last_done = t1;
            if (!r.ok()) {
              report->Attempt(false);
              std::fprintf(stderr, "%s: %s\n", call.label.c_str(),
                           r.status().ToString().c_str());
              continue;
            }
            if (r->NumRows() != call.rows) {
              report->Mismatch(StrFormat("%s: %zu rows, reference %llu",
                                         call.label.c_str(), r->NumRows(),
                                         static_cast<unsigned long long>(
                                             call.rows)));
              continue;
            }
            report->Attempt(true);
            ++stats.statements;
            stats.rows += r->NumRows();
            stats.results += r->NumRows();
            stats.latency_us.Add(NsToUs(t1 - t0));
            stats.engine_us.Add(static_cast<double>(done.latency_us));
            stats.wire_us.Add(NsToUs(t1 - t0) -
                              static_cast<double>(done.latency_us));
            stats.AddDone(done);
            if (c->log != nullptr) {
              const uint64_t req = ++c->request;
              const uint32_t root = c->log->Add("gen.request", due, t1, 0, req);
              const uint32_t call_span =
                  c->log->Add("client.call", t0, t1, root, req);
              const int64_t server_ns =
                  static_cast<int64_t>(done.latency_us) * 1000;
              const int64_t mid = t0 + (t1 - t0) / 2;
              c->log->Add("server.stmt", mid - server_ns / 2,
                          mid + server_ns / 2, call_span, req,
                          /*derived=*/true);
            }
          }
          ++c->cursor;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    return (NowNs() - start) / 1e9;
  };
  auto merged = [&]() {
    ClassMap all;
    for (const auto& c : conns) {
      for (const auto& [key, stats] : c->classes) all[key].Merge(stats);
    }
    return all;
  };

  const double seconds = cfg.smoke ? 0.5 : cfg.seconds;
  CounterSnapshot before = CounterSnapshot::Take();
  GaugePeaks peaks;
  double elapsed = 0;
  if (!cfg.trace) {
    elapsed = run_phase(seconds, false);
  } else {
    const double untraced_s = run_phase(seconds / 3, false);
    ClassMap untraced = merged();
    before = CounterSnapshot::Take();
    peaks.Start();
    elapsed = run_phase(seconds - seconds / 3, true);
    peaks.Stop();
    report->Set("server.queued_max", static_cast<double>(peaks.queued_max()),
                "count");
    ClassStats a, b;
    for (const auto& [key, c] : untraced) a.Merge(c);
    for (const auto& [key, c] : merged()) b.Merge(c);
    const double rate_a = a.rows / untraced_s;
    const double rate_b = b.rows / elapsed;
    report->Set("trace.overhead_frac", rate_b == 0 ? 0 : rate_a / rate_b - 1,
                "ratio", b.statements);
  }
  const CounterSnapshot after = CounterSnapshot::Take();
  const ClassMap classes = merged();
  ReportClasses(classes, elapsed, report);
  ReportCounterDeltas(before, after, report);

  ClassStats all;
  for (const auto& [key, c] : classes) all.Merge(c);
  report->Set("export_rows_per_s", static_cast<double>(all.rows) / elapsed,
              "rows/s", all.statements);
  report->Set("export_p50_ms", all.latency_us.Quantile(0.5) / 1e3, "ms",
              all.statements);
  report->Set("server.bytes_out_per_row",
              all.rows == 0 ? 0
                            : after.Delta(before, "server_bytes_out") /
                                  static_cast<double>(all.rows),
              "B", all.rows);
  report->Set("server.bytes_in_per_stmt",
              all.statements == 0 ? 0
                                  : after.Delta(before, "server_bytes_in") /
                                        static_cast<double>(all.statements),
              "B", all.statements);
  Samples gap_us;
  for (const auto& c : conns) gap_us.Append(c->gap_us);
  report->SetQuantile("gen.late_p99_us", gap_us, 0.99, "us");
  report->Set("gen.backlog", 0, "count");

  Status csr = ReportCsrBytes(*db, report);
  if (!csr.ok()) return csr;
  if (cfg.trace) {
    std::vector<std::string> texts;
    for (const auto& [key, sql] : sqls) texts.push_back(sql);
    ReplayParsePlan(*db, db->options(), texts, setup_log, report);
  }

  for (auto& c : conns) c->client.Close();
  server->Stop();
  return Status::OK();
}

}  // namespace grfbench
