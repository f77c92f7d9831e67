// Reporting helpers shared by the three workloads.

#include <algorithm>
#include <cstdio>

#include "common/string_util.h"
#include "parser/parser.h"
#include "workloads.h"

namespace grfbench {

void ClassStats::AddDone(const grfusion::wire::Done& d) {
  exec.rows_scanned += d.rows_scanned;
  exec.rows_joined += d.rows_joined;
  exec.vertexes_expanded += d.vertexes_expanded;
  exec.edges_examined += d.edges_examined;
  exec.paths_emitted += d.paths_emitted;
  exec.paths_pruned += d.paths_pruned;
}

void ClassStats::Merge(const ClassStats& other) {
  latency_us.Append(other.latency_us);
  engine_us.Append(other.engine_us);
  wire_us.Append(other.wire_us);
  round_trip_us.Append(other.round_trip_us);
  statements += other.statements;
  rows += other.rows;
  results += other.results;
  graph = graph || other.graph;
  exec.MergeFrom(other.exec);
}

void ReportClasses(const ClassMap& classes, double elapsed_s,
                   Report* report) {
  ClassStats all;
  ClassStats graph;
  std::vector<double> class_p50;
  // Keys are "class/view" or "class": detail metrics are reported per key
  // (with '/' as '.') and per class.
  ClassMap by_class;
  for (const auto& [key, c] : classes) {
    if (c.statements == 0) continue;
    all.Merge(c);
    if (c.graph) graph.Merge(c);
    class_p50.push_back(c.latency_us.Quantile(0.5));
    const size_t slash = key.find('/');
    if (slash != std::string::npos) {
      by_class[key.substr(0, slash)].Merge(c);
      std::string name = key;
      name[slash] = '.';
      report->SetQuantile(name + "_p50_us", c.latency_us, 0.5, "us");
    } else {
      by_class[key].Merge(c);
    }
  }
  for (const auto& [name, c] : by_class) {
    double n = static_cast<double>(c.statements);
    report->SetQuantile(name + "_p50_us", c.latency_us, 0.5, "us");
    report->SetTail(name + "_", "_us", c.latency_us, "us", 0.999);
    report->Set(name + "_per_s", n / elapsed_s, "1/s", c.statements);
    report->SetQuantile("engine.stmt_us." + name, c.engine_us, 0.5, "us");
    report->SetTail("engine.stmt_", "_us." + name, c.engine_us, "us");
    if (!c.wire_us.empty()) {
      report->SetQuantile("server.wire_us." + name, c.wire_us, 0.5, "us");
    }
    if (c.graph) {
      report->Set("graphexec.edges_examined." + name,
                  static_cast<double>(c.exec.edges_examined) / n, "count",
                  c.statements);
      report->Set("graphexec.vertexes_expanded." + name,
                  static_cast<double>(c.exec.vertexes_expanded) / n, "count",
                  c.statements);
      report->Set("graphexec.paths_emitted." + name,
                  static_cast<double>(c.exec.paths_emitted) / n, "count",
                  c.statements);
    }
    if (c.rows > 0) {
      report->Set("exec.rows_scanned_per_row." + name,
                  static_cast<double>(c.exec.rows_scanned) /
                      static_cast<double>(c.rows),
                  "ratio", c.statements);
    }
  }
  if (all.statements == 0) return;

  // End-to-end statement metrics. The median is the geometric mean of the
  // per-class medians, so every class weighs the same however many
  // statements it ran.
  report->Set("p50_us", GeoMean(class_p50), "us", all.statements);
  report->SetTail("stmt_", "_us", all.latency_us, "us");
  report->Set("ops_per_s", static_cast<double>(all.statements) / elapsed_s,
              "1/s", all.statements);
  report->Set("rows_per_s", static_cast<double>(all.results) / elapsed_s,
              "1/s", all.statements);

  // Per-layer, pooled.
  const double n = static_cast<double>(all.statements);
  report->SetQuantile("engine.stmt_us", all.engine_us, 0.5, "us");
  if (!all.wire_us.empty()) {
    report->SetQuantile("server.wire_us", all.wire_us, 0.5, "us");
  }
  report->Set("exec.rows_scanned_per_row",
              all.rows == 0 ? 0
                            : static_cast<double>(all.exec.rows_scanned) /
                                  static_cast<double>(all.rows),
              "ratio", all.statements);
  report->Set("exec.rows_joined", static_cast<double>(all.exec.rows_joined) / n,
              "count", all.statements);
  if (graph.statements > 0) {
    const double gn = static_cast<double>(graph.statements);
    const double edges = static_cast<double>(graph.exec.edges_examined);
    report->Set("graphexec.edges_examined", edges / gn, "count",
                graph.statements);
    report->Set("graphexec.vertexes_expanded",
                static_cast<double>(graph.exec.vertexes_expanded) / gn,
                "count", graph.statements);
    report->Set("graphexec.paths_emitted",
                static_cast<double>(graph.exec.paths_emitted) / gn, "count",
                graph.statements);
    report->Set("graphexec.paths_pruned",
                static_cast<double>(graph.exec.paths_pruned) / gn, "count",
                graph.statements);
    report->Set("graphexec.max_frontier",
                static_cast<double>(graph.exec.max_frontier), "count",
                graph.statements);
    report->Set("graphexec.ns_per_edge",
                edges == 0 ? 0 : graph.engine_us.Sum() * 1e3 / edges, "ns",
                graph.statements);
    report->Set("graphexec.edges_per_result",
                graph.results == 0
                    ? 0
                    : edges / static_cast<double>(graph.results),
                "ratio", graph.statements);
  }
}

void ReportSetup(const std::vector<SetupTimes>& setups, Report* report) {
  std::vector<double> total, generate, bulk, view;
  std::map<std::string, std::vector<double>> per_view;
  for (const SetupTimes& s : setups) {
    total.push_back(s.total_s);
    generate.push_back(s.generate_s);
    bulk.push_back(s.bulk_load_s);
    view.push_back(s.graph_view_s);
    for (const auto& [name, secs] : s.view_build_s) {
      per_view[name].push_back(secs);
    }
  }
  const uint64_t n = setups.size();
  report->Set("setup_s", Median(total), "s", n);
  report->Set("setup.generate_s", Median(generate), "s", n);
  report->Set("storage.bulk_load_s", Median(bulk), "s", n);
  report->Set("graph.build_s", Median(view), "s", n);
  for (const auto& [name, secs] : per_view) {
    report->Set("graph.build_s." + name, Median(secs), "s", n);
  }
}

void ReportCounterDeltas(const CounterSnapshot& before,
                         const CounterSnapshot& after, Report* report) {
  auto delta = [&](const char* name) { return after.Delta(before, name); };
  const double hits = delta("plan_cache_hits");
  const double misses = delta("plan_cache_misses");
  report->Set("engine.plan_cache_hit_ratio",
              hits + misses == 0 ? 0 : hits / (hits + misses), "ratio",
              static_cast<uint64_t>(hits + misses));
  report->Set("engine.plan_cache_evictions", delta("plan_cache_evictions"),
              "count");
  report->Set("server.rejected", delta("server_queries_rejected"), "count");
  report->Set("graph.folds", delta("mvcc_folds_total"), "count");
  report->Set("graph.view_updates", delta("graph_view_updates_total"),
              "count");
  report->Set("storage.vacuumed_versions",
              delta("mvcc_vacuumed_versions_total"), "count");
}

Status ReportCsrBytes(Database& db, Report* report) {
  Session session(db);
  StatusOr<ResultSet> r =
      session.Execute("SELECT NAME, CSR_BYTES FROM SYS.GRAPH_VIEWS");
  if (!r.ok()) return r.status();
  double total = 0;
  for (const auto& row : r->rows) {
    const double bytes = static_cast<double>(row[1].AsBigInt());
    total += bytes;
    report->Set("graph.csr_bytes." + row[0].AsVarchar(), bytes, "B");
  }
  report->Set("graph.csr_bytes", total, "B");
  return Status::OK();
}

void ReplayParsePlan(Database& db, const grfusion::PlannerOptions& options,
                     const std::vector<std::string>& sqls, SpanLog* log,
                     Report* report) {
  Samples parse_us;
  Samples plan_us;
  grfusion::Planner planner(&db.catalog(), options);
  for (const std::string& sql : sqls) {
    size_t num_params = 0;
    int64_t t0 = NowNs();
    StatusOr<grfusion::Statement> stmt =
        grfusion::Parser::ParseSingle(sql, &num_params);
    int64_t t1 = NowNs();
    if (log != nullptr) log->Add("parser.parse", t0, t1, 0, 0);
    if (!stmt.ok()) {
      report->Mismatch("replay parse failed: " + stmt.status().ToString());
      continue;
    }
    parse_us.Add(NsToUs(t1 - t0));
    const auto* select = std::get_if<grfusion::SelectStmt>(&*stmt);
    if (select == nullptr) continue;
    grfusion::ParamSet params;
    int64_t t2 = NowNs();
    StatusOr<grfusion::PlannedQuery> planned =
        planner.PlanSelect(*select, num_params > 0 ? &params : nullptr);
    int64_t t3 = NowNs();
    if (log != nullptr) log->Add("plan.plan", t2, t3, 0, 0);
    if (!planned.ok()) {
      report->Mismatch("replay plan failed: " + planned.status().ToString());
      continue;
    }
    plan_us.Add(NsToUs(t3 - t2));
  }
  report->SetQuantile("parser.parse_us", parse_us, 0.5, "us");
  report->SetQuantile("plan.plan_us", plan_us, 0.5, "us");
}

void ReportSelfTimes(const Tracer& tracer, Report* report) {
  // Shares are taken within a family: set-up spans, the parse/plan replay,
  // and the requests of the measured phase.
  auto family_of = [](const std::string& name) {
    if (name.rfind("setup.", 0) == 0) return 0;
    if (name == "parser.parse" || name == "plan.plan") return 1;
    return 2;
  };
  auto self = tracer.SelfTimes();
  double totals[3] = {0, 0, 0};
  for (const auto& [name, entry] : self) {
    totals[family_of(name)] += entry.second;
  }
  for (const auto& [name, entry] : self) {
    std::string key = name;
    std::replace(key.begin(), key.end(), '.', '_');
    const double family = totals[family_of(name)];
    report->Set("self." + key, family == 0 ? 0 : entry.second / family,
                "ratio", entry.first);
    report->Set("self_us." + key,
                entry.first == 0 ? 0 : entry.second / 1e3 / entry.first, "us",
                entry.first);
  }
  report->Set("trace.spans", static_cast<double>(tracer.NumSpans()), "count");
}

void WriteSpans(const RunConfig& cfg, const Tracer& tracer, Report* report) {
  const std::string path = cfg.work_dir + "/spans-" + cfg.workload + ".jsonl";
  Status s = tracer.WriteJsonLines(path);
  if (s.ok()) {
    report->Note("spans_file", path);
  } else {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
  }
}

}  // namespace grfbench
