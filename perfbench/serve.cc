// serve: open loop over the wire, as a ladder of offered rates set as
// fractions of the read capacity measured first in the same run.
//
// One in-process Server over a durable database (WAL group commit on the
// checkout's disk) holds the four datasets at the small scale. Server and
// load generator run on one CPU. One sender thread per connection (3: one
// writer, two readers) sends requests at their due times whether or not
// earlier ones have returned; latency runs from the due time, so a stall
// also charges the requests queued behind it. The mix: prepared point
// reads, prepared short graph probes, unprepared ad-hoc SELECTs with
// Zipf-skewed literals, and durable single-statement writes (edge inserts
// and deletes on a view's edge table, attribute updates) that the probes
// read beside.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <thread>

#include "common/metrics.h"
#include "common/random.h"
#include "common/string_util.h"
#include "reference.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace grfbench {

namespace {

using grfusion::Client;
using grfusion::EdgeRow;
using grfusion::Random;
using grfusion::StrFormat;

// The ladder. An overload step comes first: its readers are offered far
// more than they can send, so each runs closed loop, and the read rate they
// achieve is the read capacity. The remaining steps offer fixed fractions of
// that capacity, so how hard the nominal step (the first) loads the server
// does not depend on the host. The nominal step is light, 1/32 of capacity
// (about 220 reads/s on one CPU of a Xeon VM): its latency is service time,
// not queueing. Shares of the run time: the nominal and overload steps get
// the larger ones, their numbers carry bounds.
constexpr double kOverloadRate = 1e6;
constexpr int kOverloadShare = 2;
const std::vector<double> kLadderFraction = {1.0 / 32, 1.0 / 16, 1.0 / 8};
const std::vector<int> kLadderShare = {4, 1, 1};
constexpr size_t kNominalStep = 0;
constexpr double kWarmupRate = 500;
// The writer connection's rate, the same in every step. One durable commit
// waits for an fsync (about 8 ms on a virtual disk), so one connection
// sustains about 125 writes/s; 50/s keeps it clear of its own backlog.
constexpr double kWriteRate = 50;
// A ladder step "meets the limit" when its read p99 stays under this and
// its backlog does not grow (see StepMeetsLimit).
constexpr double kReadP99LimitUs = 10000;
// One writer connection and two readers.
constexpr size_t kConnections = 3;
// How long a sender spins before a due time (see RunStep).
constexpr int64_t kSpinNs = 250'000;
constexpr size_t kAdhocDomain = 4096;  // Literals per ad-hoc template.
constexpr double kAdhocSkew = 3.0;     // Random::SkewedIndex exponent.
constexpr int kProbeLength = 2;
constexpr int kReachHops = 2;

// The written view: inserts and deletes go to social_e, updates to
// social_v.score, and the graph probes read it while it changes. Everything
// else stays read-only, so its references hold during the run.
const char* const kWrittenView = "social";
const char* const kAdhocEdgeViews[] = {"road", "bio", "dblp"};

enum class Kind { kPoint, kKhop, kReach, kAdhoc, kInsert, kDelete, kUpdate };

const char* ClassOf(Kind k) {
  switch (k) {
    case Kind::kPoint: return "point";
    case Kind::kKhop: return "khop";
    case Kind::kReach: return "reach";
    case Kind::kAdhoc: return "adhoc";
    default: return "write";
  }
}

/// Draws a request kind: the reader mix, or the writer's. The writer split
/// follows LinkBench's published operation mix (Armstrong et al., SIGMOD
/// 2013): add_link 9.0% : delete_link 3.0% : update_link 8.0% + update_node
/// 7.4%, i.e. 33% edge inserts, 11% edge deletes, 56% attribute updates. The
/// reader shares are an assumption, not taken from a measured trace:
/// LinkBench's reads are one-hop link lists, which none of these probes is.
Kind DrawKind(Random& rng, bool writer) {
  const int64_t r = rng.Uniform(0, 99);
  if (writer) {
    if (r < 33) return Kind::kInsert;
    if (r < 44) return Kind::kDelete;
    return Kind::kUpdate;
  }
  if (r < 50) return Kind::kPoint;
  if (r < 68) return Kind::kKhop;
  if (r < 80) return Kind::kReach;
  return Kind::kAdhoc;
}

/// Shared read-only inputs of all senders.
struct Inputs {
  std::vector<Dataset> datasets;
  std::map<std::string, std::map<int64_t, std::pair<std::string, std::string>>>
      name_kind;  ///< view -> id -> (name, kind)
  std::vector<std::pair<int64_t, int64_t>> reach_pairs;
  std::vector<int64_t> deletable;  ///< Base social edge ids, highest first.
  int64_t next_edge_id = 0;        ///< First id free for inserts.
  int64_t social_vertexes = 0;
};

/// What one connection's acknowledged writes did, for the final checks.
struct Acks {
  std::vector<EdgeRow> inserted;
  std::vector<int64_t> deleted;
  std::map<int64_t, double> score;  ///< Last acknowledged update per vertex.
  uint64_t user_bytes = 0;          ///< Payload bytes of acknowledged writes.
};

/// One connection: its client, prepared statements and write cursors.
/// Connection 0 is the writer; the others are readers. Writes sit on their
/// own connection so a read never waits behind a commit's fsync in the
/// generator: read latency shows what the server does beside the writes.
struct Sender {
  size_t index = 0;
  bool writer = false;
  Client client;
  std::map<std::string, uint64_t> stmt;
  Random rng{1};
  size_t delete_cursor = 0;
  int64_t insert_count = 0;
  Acks acks;
  SpanLog* log = nullptr;
  uint64_t request = 0;
};

/// Everything measured in one ladder step.
struct StepResult {
  ClassMap classes;
  Samples late_us;
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t backlog = 0;  ///< Requests due in the step but never sent.
  double elapsed_s = 0;
};

/// Executes one request, checks it, and files it into `out`.
void Issue(Sender& s, const Inputs& in, int64_t due_ns, StepResult* out,
           Report* report, std::mutex* mu) {
  const Kind kind = DrawKind(s.rng, s.writer);
  std::string key;
  std::vector<Value> params;
  std::string sql;  // Non-empty: an ad-hoc statement.
  std::function<bool(const ResultSet&)> check;
  std::function<void()> on_ack;
  uint64_t results = 0;
  switch (kind) {
    case Kind::kPoint: {
      const Dataset& d = in.datasets[static_cast<size_t>(
          s.rng.Uniform(0, static_cast<int64_t>(in.datasets.size()) - 1))];
      const int64_t id = d.vertexes[static_cast<size_t>(s.rng.Uniform(
          0, static_cast<int64_t>(d.vertexes.size()) - 1))].id;
      key = "point/" + d.name;
      params = {Value::BigInt(id)};
      const auto& expect = in.name_kind.at(d.name).at(id);
      check = [expect](const ResultSet& r) {
        return r.NumRows() == 1 && r.rows[0][0].AsVarchar() == expect.first &&
               r.rows[0][1].AsVarchar() == expect.second;
      };
      break;
    }
    case Kind::kKhop: {
      const Dataset& d = Find(in.datasets, kWrittenView);
      key = "khop";
      params = {Value::BigInt(d.vertexes[static_cast<size_t>(s.rng.Uniform(
          0, static_cast<int64_t>(d.vertexes.size()) - 1))].id)};
      // Counts move with the concurrent writes; they are checked against
      // the reference after the run, quiesced.
      check = [&results](const ResultSet& r) {
        if (r.NumRows() != 1) return false;
        results = static_cast<uint64_t>(r.rows[0][0].AsBigInt());
        return true;
      };
      break;
    }
    case Kind::kReach: {
      const auto& p = in.reach_pairs[static_cast<size_t>(s.rng.Uniform(
          0, static_cast<int64_t>(in.reach_pairs.size()) - 1))];
      key = "reach";
      params = {Value::BigInt(p.first), Value::BigInt(p.second)};
      check = [](const ResultSet& r) { return r.NumRows() <= 1; };
      break;
    }
    case Kind::kAdhoc: {
      const int64_t literal = s.rng.SkewedIndex(kAdhocDomain, kAdhocSkew);
      if (s.rng.Uniform(0, 2) < 2) {
        const Dataset& d = in.datasets[static_cast<size_t>(s.rng.Uniform(
            0, static_cast<int64_t>(in.datasets.size()) - 1))];
        const int64_t id =
            d.vertexes[static_cast<size_t>(literal) % d.vertexes.size()].id;
        sql = StrFormat("SELECT name, kind FROM %s_v WHERE id = %lld",
                        d.name.c_str(), static_cast<long long>(id));
        const auto& expect = in.name_kind.at(d.name).at(id);
        check = [expect](const ResultSet& r) {
          return r.NumRows() == 1 &&
                 r.rows[0][0].AsVarchar() == expect.first &&
                 r.rows[0][1].AsVarchar() == expect.second;
        };
      } else {
        const std::string g = kAdhocEdgeViews[s.rng.Uniform(0, 2)];
        const Dataset& d = Find(in.datasets, g);
        const EdgeRow& e =
            d.edges[static_cast<size_t>(literal) % d.edges.size()];
        sql = StrFormat("SELECT src, dst FROM %s_e WHERE id = %lld",
                        g.c_str(), static_cast<long long>(e.id));
        check = [src = e.src, dst = e.dst](const ResultSet& r) {
          return r.NumRows() == 1 && r.rows[0][0].AsBigInt() == src &&
                 r.rows[0][1].AsBigInt() == dst;
        };
      }
      break;
    }
    case Kind::kInsert: {
      EdgeRow e;
      e.id = in.next_edge_id + s.insert_count++;
      e.src = s.rng.Uniform(0, in.social_vertexes - 1);
      e.dst = s.rng.Uniform(0, in.social_vertexes - 1);
      e.weight = 1.0 + s.rng.NextDouble() * 9.0;
      e.label = "w";
      e.rank = s.rng.Uniform(0, 99);
      key = "insert";
      params = {Value::BigInt(e.id),     Value::BigInt(e.src),
                Value::BigInt(e.dst),    Value::Double(e.weight),
                Value::Varchar(e.label), Value::BigInt(e.rank)};
      check = [](const ResultSet& r) { return r.rows_affected == 1; };
      on_ack = [&s, e] {
        s.acks.inserted.push_back(e);
        s.acks.user_bytes += 5 * 8 + e.label.size();
      };
      break;
    }
    case Kind::kDelete: {
      const size_t pos = s.delete_cursor++;
      if (pos >= in.deletable.size()) return;  // Nothing left to delete.
      const int64_t id = in.deletable[pos];
      key = "delete";
      params = {Value::BigInt(id)};
      check = [](const ResultSet& r) { return r.rows_affected == 1; };
      on_ack = [&s, id] {
        s.acks.deleted.push_back(id);
        s.acks.user_bytes += 8;
      };
      break;
    }
    case Kind::kUpdate: {
      const int64_t id = s.rng.Uniform(0, in.social_vertexes - 1);
      const double score = std::round(s.rng.NextDouble() * 1e6) / 1e3;
      key = "update";
      params = {Value::Double(score), Value::BigInt(id)};
      check = [](const ResultSet& r) { return r.rows_affected == 1; };
      on_ack = [&s, id, score] {
        s.acks.score[id] = score;
        s.acks.user_bytes += 16;
      };
      break;
    }
  }

  const int64_t send_ns = NowNs();
  StatusOr<ResultSet> r = sql.empty() ? s.client.Execute(s.stmt.at(key), params)
                                      : s.client.Query(sql);
  const int64_t reply_ns = NowNs();
  const grfusion::wire::Done& done = s.client.last_stats();

  std::lock_guard<std::mutex> lock(*mu);
  ++out->sent;
  out->late_us.Add(NsToUs(send_ns - due_ns));
  if (!r.ok()) {
    ++out->failed;
    report->Attempt(false);
    std::fprintf(stderr, "serve %s: %s\n", ClassOf(kind),
                 r.status().ToString().c_str());
    return;
  }
  if (!check(*r)) {
    ++out->failed;
    report->Mismatch(StrFormat("serve %s %s: unexpected result %s",
                               ClassOf(kind), sql.empty() ? key.c_str()
                                                          : sql.c_str(),
                               r->ToString(3).c_str()));
    return;
  }
  report->Attempt(true);
  if (on_ack) on_ack();
  ClassStats& c = out->classes[ClassOf(kind)];
  c.graph = kind == Kind::kKhop || kind == Kind::kReach;
  ++c.statements;
  c.rows += r->NumRows();
  c.results += results > 0 ? results : r->NumRows();
  c.latency_us.Add(NsToUs(reply_ns - due_ns));
  c.round_trip_us.Add(NsToUs(reply_ns - send_ns));
  c.engine_us.Add(static_cast<double>(done.latency_us));
  c.wire_us.Add(NsToUs(reply_ns - send_ns) -
                static_cast<double>(done.latency_us));
  c.AddDone(done);
  if (s.log != nullptr) {
    const uint64_t req = ++s.request;
    const uint32_t root = s.log->Add("gen.request", due_ns, reply_ns, 0, req);
    const uint32_t call = s.log->Add("client.call", send_ns, reply_ns, root, req);
    // The server reports only its statement duration; center it in the
    // round trip and mark it derived.
    const int64_t server_ns = static_cast<int64_t>(done.latency_us) * 1000;
    const int64_t mid = send_ns + (reply_ns - send_ns) / 2;
    s.log->Add("server.stmt", mid - server_ns / 2, mid + server_ns / 2, call,
               req, /*derived=*/true);
  }
}

/// Runs one step for `seconds`: the readers share `read_rate` requests/s,
/// the writer sends kWriteRate.
StepResult RunStep(std::vector<std::unique_ptr<Sender>>& senders,
                   const Inputs& in, double read_rate, double seconds,
                   Report* report) {
  StepResult out;
  std::mutex mu;
  const int64_t readers = static_cast<int64_t>(senders.size()) - 1;
  const int64_t read_interval =
      static_cast<int64_t>(1e9 * static_cast<double>(readers) / read_rate);
  const int64_t write_interval = static_cast<int64_t>(1e9 / kWriteRate);
  const int64_t start = NowNs() + 2'000'000;
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  std::atomic<uint64_t> backlog{0};
  for (auto& sp : senders) {
    Sender* s = sp.get();
    threads.emplace_back([&, s] {
      const int64_t interval = s->writer ? write_interval : read_interval;
      int64_t due = s->writer ? start
                              : start + read_interval *
                                            static_cast<int64_t>(s->index - 1) /
                                            readers;
      // Sleep to shortly before the due time, then spin. The CPU is idle
      // between requests at the light rates, and an idle virtual CPU halts:
      // waking it is the hypervisor's latency, not the program's.
      prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
      while (due < end) {
        const int64_t wait = due - NowNs();
        if (wait > kSpinNs) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(wait - kSpinNs));
        }
        while (NowNs() < due) {
        }
        if (!s->client.connected()) break;
        Issue(*s, in, due, &out, report, &mu);
        due += interval;
        if (NowNs() >= end) break;
      }
      if (due < end) {
        backlog += static_cast<uint64_t>((end - due + interval - 1) / interval);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.backlog = backlog.load();
  out.elapsed_s = (NowNs() - start) / 1e9;
  return out;
}

ClassStats Pooled(const ClassMap& classes,
                  const std::vector<std::string>& names) {
  ClassStats all;
  for (const std::string& n : names) {
    auto it = classes.find(n);
    if (it != classes.end()) all.Merge(it->second);
  }
  return all;
}

/// The ladder's acceptance rule: read p99 (or the highest tail the step's
/// samples support) under the limit, no failures, and no backlog beyond
/// 0.5% of the step's requests.
bool StepMeetsLimit(const StepResult& step) {
  const ClassStats reads =
      Pooled(step.classes, {"point", "khop", "reach"});
  const double q = std::min(0.99, reads.latency_us.SupportedTail());
  return step.failed == 0 && reads.statements > 0 &&
         reads.latency_us.Quantile(q) <= kReadP99LimitUs &&
         static_cast<double>(step.backlog) <=
             std::max(2.0, 0.005 * static_cast<double>(step.sent));
}

}  // namespace

Status RunServe(const RunConfig& cfg, Report* report, Tracer* tracer) {
  const double scale = cfg.smoke ? 0.005 : 0.05;
  // Server and load generator share one CPU (see PinToOneCpu).
  const int cpu = PinToOneCpu();
  if (cpu < 0) return Status::Internal("cannot pin serve to one CPU");
  Inputs in;
  SpanLog* setup_log = cfg.trace ? tracer->NewLog() : nullptr;
  report->Note("scale", StrFormat("%g", scale));
  report->Note("connections", std::to_string(kConnections));
  report->Note("cpu", std::to_string(cpu));

  // Set-up, repeated; the last database and server are the ones measured.
  std::vector<SetupTimes> times;
  std::unique_ptr<Database> db;
  std::unique_ptr<grfusion::Server> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    db.reset();
    const std::string dir = StrFormat("%s/serve-wal-%d", cfg.work_dir.c_str(), i);
    std::filesystem::remove_all(dir);
    if (i > 0) {
      std::filesystem::remove_all(
          StrFormat("%s/serve-wal-%d", cfg.work_dir.c_str(), i - 1));
    }
    SetupTimes t;
    const int64_t t0 = NowNs();
    in.datasets = GenerateDatasets(scale, setup_log);
    t.generate_s = (NowNs() - t0) / 1e9;
    grfusion::DurabilityOptions durability;
    durability.data_dir = dir;
    durability.sync = grfusion::WalSyncMode::kGroup;
    db = std::make_unique<Database>(grfusion::PlannerOptions(), durability);
    if (!db->durability_status().ok()) return db->durability_status();
    Status s = LoadDatasets(in.datasets, db.get(), &t, setup_log);
    if (!s.ok()) return s;
    server = std::make_unique<grfusion::Server>(*db, grfusion::ServerOptions());
    s = server->Start();
    if (!s.ok()) return s;
    t.total_s = (NowNs() - t0) / 1e9;
    times.push_back(t);
  }
  ReportSetup(times, report);

  // References and request inputs from the generated datasets.
  Random rng(cfg.seed * 0x9e3779b97f4a7c15ull + 23);
  for (const Dataset& d : in.datasets) {
    for (const grfusion::VertexRow& v : d.vertexes) {
      in.name_kind[d.name][v.id] = {v.name, v.kind};
    }
  }
  // Many pairs, so the share of expensive ones varies little by seed.
  in.reach_pairs = PairsAtDistance(RefGraph(Find(in.datasets, kWrittenView)),
                                   rng, cfg.smoke ? 16 : 4096, kReachHops, 8);
  if (in.reach_pairs.empty()) return Status::Internal("no reach pairs");
  const Dataset& social = Find(in.datasets, kWrittenView);
  in.social_vertexes = static_cast<int64_t>(social.vertexes.size());
  for (const EdgeRow& e : social.edges) {
    in.next_edge_id = std::max(in.next_edge_id, e.id + 1);
    in.deletable.push_back(e.id);
  }
  std::sort(in.deletable.rbegin(), in.deletable.rend());
  const size_t initial_edges = social.edges.size();

  // Connections and their prepared statements.
  std::vector<std::unique_ptr<Sender>> senders;
  for (size_t c = 0; c < kConnections; ++c) {
    auto s = std::make_unique<Sender>();
    s->index = c;
    s->writer = c == 0;
    s->rng = Random(cfg.seed * 1315423911ull + 7919 * (c + 1));
    Status st = s->client.Connect("127.0.0.1", server->port());
    if (!st.ok()) return st;
    std::map<std::string, std::string> sqls;
    for (const Dataset& d : in.datasets) {
      sqls["point/" + d.name] = StrFormat(
          "SELECT name, kind FROM %s_v WHERE id = ?", d.name.c_str());
    }
    sqls["khop"] = StrFormat(
        "SELECT COUNT(P) FROM %s.Paths P WHERE P.StartVertex.Id = ? AND "
        "P.Length <= %d",
        kWrittenView, kProbeLength);
    sqls["reach"] = StrFormat(
        "SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = ? "
        "AND PS.EndVertex.Id = ? LIMIT 1",
        kWrittenView);
    sqls["insert"] =
        StrFormat("INSERT INTO %s_e VALUES (?, ?, ?, ?, ?, ?)", kWrittenView);
    sqls["delete"] = StrFormat("DELETE FROM %s_e WHERE id = ?", kWrittenView);
    sqls["update"] =
        StrFormat("UPDATE %s_v SET score = ? WHERE id = ?", kWrittenView);
    for (const auto& [key, sql] : sqls) {
      StatusOr<uint64_t> id = s->client.Prepare(sql);
      if (!id.ok()) return id.status();
      s->stmt[key] = *id;
    }
    senders.push_back(std::move(s));
  }

  // Warm-up at a light rate: connections, plan cache and page cache.
  const double share_s =
      cfg.smoke ? 0.1
                : cfg.seconds /
                      (kOverloadShare + std::accumulate(kLadderShare.begin(),
                                                        kLadderShare.end(), 0));
  RunStep(senders, in, kWarmupRate, cfg.smoke ? 0.2 : 0.5, report);

  // The read capacity, which sets the ladder's rates. serve's ops_per_s is
  // this capacity and its rows_per_s the results (rows, or paths counted)
  // delivered per second in the same step: the program sets both.
  const StepResult overload =
      RunStep(senders, in, kOverloadRate, kOverloadShare * share_s, report);
  const ClassStats served =
      Pooled(overload.classes, {"point", "khop", "reach", "adhoc"});
  const double capacity =
      static_cast<double>(served.statements) / overload.elapsed_s;
  report->Set("read_capacity_per_s", capacity, "1/s", served.statements);
  report->SetTail("overload.read_", "_us",
                  Pooled(overload.classes, {"point", "khop", "reach"}).latency_us,
                  "us");
  report->Set("overload.gen.backlog", static_cast<double>(overload.backlog),
              "count");
  const double nominal_rate = kLadderFraction[kNominalStep] * capacity;
  report->Note("nominal_read_rate", StrFormat("%.1f", nominal_rate));

  // Engine counters and the sampled gauges cover the measured nominal step
  // only: the ratios below divide them by that step's statements and rows.
  CounterSnapshot before;
  CounterSnapshot after;
  uint64_t user_bytes_before = 0;
  GaugePeaks peaks;
  auto begin_measure = [&] {
    before = CounterSnapshot::Take();
    for (const auto& s : senders) user_bytes_before += s->acks.user_bytes;
    if (cfg.trace) peaks.Start();
  };
  auto end_measure = [&] {
    peaks.Stop();
    after = CounterSnapshot::Take();
  };

  StepResult nominal;
  if (!cfg.trace) {
    // Latencies at the nominal rate are the headline numbers; the highest
    // rate meeting the limit is max_rate_ops.
    double max_rate = 0;
    for (size_t i = 0; i < kLadderFraction.size(); ++i) {
      const double rate = kLadderFraction[i] * capacity;
      if (i == kNominalStep) begin_measure();
      StepResult step =
          RunStep(senders, in, rate, kLadderShare[i] * share_s, report);
      if (i == kNominalStep) end_measure();
      const ClassStats reads =
          Pooled(step.classes, {"point", "khop", "reach"});
      const std::string p = StrFormat("step%zu.", i);
      report->Set(p + "rate", rate, "1/s", step.sent);
      report->SetTail(p + "read_", "_us", reads.latency_us, "us");
      report->SetTail(p + "gen.late_", "_us", step.late_us, "us");
      report->Set(p + "gen.backlog", static_cast<double>(step.backlog),
                  "count");
      const bool meets = StepMeetsLimit(step);
      report->Set(p + "meets_limit", meets ? 1 : 0, "bool");
      if (meets) max_rate = rate;
      if (i == kNominalStep) nominal = std::move(step);
    }
    report->Set("max_rate_ops", max_rate, "ops/s");
  } else {
    // Traced: the nominal rate only, a third untraced then the rest traced.
    const double trace_s =
        std::accumulate(kLadderShare.begin(), kLadderShare.end(), 0) * share_s;
    StepResult untraced = RunStep(senders, in, nominal_rate, trace_s / 3, report);
    begin_measure();
    for (auto& s : senders) s->log = tracer->NewLog();
    nominal = RunStep(senders, in, nominal_rate, trace_s - trace_s / 3, report);
    for (auto& s : senders) s->log = nullptr;
    end_measure();
    const double a =
        GeoMean({Pooled(untraced.classes, {"point"}).latency_us.Quantile(0.5),
                 Pooled(untraced.classes, {"khop"}).latency_us.Quantile(0.5)});
    const double b =
        GeoMean({Pooled(nominal.classes, {"point"}).latency_us.Quantile(0.5),
                 Pooled(nominal.classes, {"khop"}).latency_us.Quantile(0.5)});
    report->Set("trace.overhead_frac", a == 0 ? 0 : b / a - 1, "ratio");
  }

  ReportClasses(nominal.classes, nominal.elapsed_s, report);
  // serve's p50_us leaves the write class out: a durable write's median is
  // one group-commit fsync, set by the disk (its quartiles spread by 0.2
  // over ten runs), and write_p50_us and write_p90_us report it apart.
  std::vector<double> read_p50;
  uint64_t read_statements = 0;
  for (const char* name : {"point", "khop", "reach", "adhoc"}) {
    auto it = nominal.classes.find(name);
    if (it == nominal.classes.end() || it->second.statements == 0) continue;
    read_p50.push_back(it->second.latency_us.Quantile(0.5));
    read_statements += it->second.statements;
  }
  report->Set("p50_us", GeoMean(read_p50), "us", read_statements);
  report->Set("ops_per_s", capacity, "1/s", served.statements);
  report->Set("rows_per_s",
              static_cast<double>(served.results) / overload.elapsed_s, "1/s",
              served.statements);
  const ClassStats reads = Pooled(nominal.classes, {"point", "khop", "reach"});
  const ClassStats writes = Pooled(nominal.classes, {"write"});
  report->SetQuantile("read_p50_us", reads.latency_us, 0.5, "us");
  report->SetTail("read_", "_us", reads.latency_us, "us");
  report->SetTail("read_round_trip_", "_us", reads.round_trip_us, "us");
  report->SetTail("write_", "_us", writes.latency_us, "us");
  report->SetQuantile("gen.late_p99_us", nominal.late_us, 0.99, "us");
  report->Set("gen.backlog", static_cast<double>(nominal.backlog), "count");
  ReportCounterDeltas(before, after, report);

  uint64_t acked_writes = 0;
  uint64_t user_bytes = 0;
  uint64_t rows = 0;
  uint64_t statements = 0;
  for (const auto& s : senders) user_bytes += s->acks.user_bytes;
  user_bytes -= user_bytes_before;
  for (const auto& [name, c] : nominal.classes) {
    rows += c.rows;
    statements += c.statements;
    if (name == "write") acked_writes += c.statements;
  }
  // Per-layer server and storage ratios over the nominal step.
  report->Set("server.bytes_out_per_row",
              rows == 0 ? 0 : after.Delta(before, "server_bytes_out") / rows,
              "B", rows);
  report->Set("server.bytes_in_per_stmt",
              statements == 0
                  ? 0
                  : after.Delta(before, "server_bytes_in") / statements,
              "B", statements);
  report->Set("storage.wal_fsyncs_per_commit",
              acked_writes == 0
                  ? 0
                  : after.Delta(before, "wal_fsyncs_total") / acked_writes,
              "ratio", acked_writes);
  report->Set("storage.wal_bytes_per_user_byte",
              user_bytes == 0 ? 0
                              : after.Delta(before, "wal_bytes_total") /
                                    static_cast<double>(user_bytes),
              "ratio", acked_writes);
  if (cfg.trace) {
    report->Set("server.queued_max", static_cast<double>(peaks.queued_max()),
                "count");
    report->Set("graph.delta_bytes_max",
                static_cast<double>(peaks.delta_bytes_max()), "B");
  }

  // Quiesced checks: the edge count, probes against the final graph, and
  // the last acknowledged attribute values.
  Client checker;
  Status st = checker.Connect("127.0.0.1", server->port());
  if (!st.ok()) return st;
  std::vector<EdgeRow> final_edges;
  std::vector<uint8_t> gone;
  std::map<int64_t, size_t> pos;
  for (size_t i = 0; i < social.edges.size(); ++i) pos[social.edges[i].id] = i;
  gone.assign(social.edges.size(), 0);
  size_t inserted = 0, deleted = 0;
  std::map<int64_t, double> scores;
  for (const auto& s : senders) {
    for (int64_t id : s->acks.deleted) gone[pos.at(id)] = 1;
    deleted += s->acks.deleted.size();
    inserted += s->acks.inserted.size();
    for (const auto& [id, score] : s->acks.score) scores[id] = score;
  }
  for (size_t i = 0; i < social.edges.size(); ++i) {
    if (!gone[i]) final_edges.push_back(social.edges[i]);
  }
  for (const auto& s : senders) {
    final_edges.insert(final_edges.end(), s->acks.inserted.begin(),
                       s->acks.inserted.end());
  }
  StatusOr<ResultSet> count = checker.Query(
      StrFormat("SELECT COUNT(*) FROM %s_e", kWrittenView));
  const int64_t expect_edges =
      static_cast<int64_t>(initial_edges + inserted) -
      static_cast<int64_t>(deleted);
  if (!count.ok() || count->NumRows() != 1 ||
      count->rows[0][0].AsBigInt() != expect_edges) {
    report->Mismatch(StrFormat(
        "final %s_e count %s, expected %lld (%zu + %zu inserted - %zu deleted)",
        kWrittenView,
        count.ok() && count->NumRows() == 1
            ? count->rows[0][0].ToString().c_str()
            : count.status().ToString().c_str(),
        static_cast<long long>(expect_edges), initial_edges, inserted,
        deleted));
  } else {
    report->Attempt(true);
  }
  report->Note("final_edges", std::to_string(expect_edges));
  const RefGraph final_social(social.vertexes, final_edges, social.directed);
  const int64_t n = static_cast<int64_t>(final_social.num_vertexes());
  for (int k = 0; k < (cfg.smoke ? 4 : 32); ++k) {
    const int64_t start =
        final_social.id_at(static_cast<size_t>(rng.Uniform(0, n - 1)));
    StatusOr<ResultSet> r = checker.Query(StrFormat(
        "SELECT COUNT(P) FROM %s.Paths P WHERE P.StartVertex.Id = %lld AND "
        "P.Length <= %d",
        kWrittenView, static_cast<long long>(start), kProbeLength));
    const uint64_t expect = final_social.CountPaths(start, kProbeLength);
    if (!r.ok() || r->NumRows() != 1 ||
        static_cast<uint64_t>(r->rows[0][0].AsBigInt()) != expect) {
      report->Mismatch(StrFormat("quiesced khop start=%lld: reference %llu",
                                 static_cast<long long>(start),
                                 static_cast<unsigned long long>(expect)));
    } else {
      report->Attempt(true);
    }
    const auto& p = in.reach_pairs[static_cast<size_t>(k) %
                                   in.reach_pairs.size()];
    StatusOr<ResultSet> reach = checker.Query(StrFormat(
        "SELECT PS.PathString FROM %s.Paths PS WHERE PS.StartVertex.Id = "
        "%lld AND PS.EndVertex.Id = %lld LIMIT 1",
        kWrittenView, static_cast<long long>(p.first),
        static_cast<long long>(p.second)));
    const bool reachable = final_social.Reachable(p.first, p.second);
    if (!reach.ok() || (reach->NumRows() > 0) != reachable) {
      report->Mismatch(StrFormat("quiesced reach %lld->%lld: reference %d",
                                 static_cast<long long>(p.first),
                                 static_cast<long long>(p.second),
                                 reachable ? 1 : 0));
    } else {
      report->Attempt(true);
    }
  }
  size_t checked = 0;
  for (const auto& [id, score] : scores) {
    if (checked++ == (cfg.smoke ? 4u : 32u)) break;
    StatusOr<ResultSet> r = checker.Query(
        StrFormat("SELECT score FROM %s_v WHERE id = %lld", kWrittenView,
                  static_cast<long long>(id)));
    if (!r.ok() || r->NumRows() != 1 || r->rows[0][0].AsNumeric() != score) {
      report->Mismatch(StrFormat("quiesced score of %lld: expected %.3f",
                                 static_cast<long long>(id), score));
    } else {
      report->Attempt(true);
    }
  }

  Status csr = ReportCsrBytes(*db, report);
  if (!csr.ok()) return csr;
  checker.Close();

  if (cfg.trace) {
    // Parse and plan the ad-hoc texts alone, after the timed phase.
    Random replay(cfg.seed + 99);
    std::vector<std::string> texts;
    for (int k = 0; k < 256; ++k) {
      const Dataset& d = in.datasets[static_cast<size_t>(
          replay.Uniform(0, static_cast<int64_t>(in.datasets.size()) - 1))];
      const int64_t literal = replay.SkewedIndex(kAdhocDomain, kAdhocSkew);
      texts.push_back(StrFormat(
          "SELECT name, kind FROM %s_v WHERE id = %lld", d.name.c_str(),
          static_cast<long long>(
              d.vertexes[static_cast<size_t>(literal) % d.vertexes.size()]
                  .id)));
    }
    ReplayParsePlan(*db, db->options(), texts, setup_log, report);
  }

  for (auto& s : senders) s->client.Close();
  server->Stop();
  server.reset();
  db.reset();
  std::filesystem::remove_all(
      StrFormat("%s/serve-wal-%d", cfg.work_dir.c_str(), kSetups - 1));
  return Status::OK();
}

}  // namespace grfbench
