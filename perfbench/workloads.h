#ifndef GRFBENCH_WORKLOADS_H_
#define GRFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <vector>

#include "exec/query_context.h"
#include "harness.h"
#include "plan/planner.h"
#include "server/wire.h"

namespace grfbench {

/// serve: open-loop ladder of offered rates over the wire against a durable
/// in-process server (small scale, online writes beside graph probes).
Status RunServe(const RunConfig& cfg, Report* report, Tracer* tracer);

/// traverse: closed loop of prepared traversals on one embedded Session
/// (large scale, read-only).
Status RunTraverse(const RunConfig& cfg, Report* report, Tracer* tracer);

/// export: closed loop over the wire of prepared statements that return
/// 10^3-10^5 rows (large scale, read-only).
Status RunExport(const RunConfig& cfg, Report* report, Tracer* tracer);

/// Everything measured about one statement class.
struct ClassStats {
  Samples latency_us;  ///< What the caller waited (serve: from due time).
  Samples engine_us;   ///< Execute wall time embedded; Done.latency_us wire.
  Samples wire_us;     ///< Round trip minus Done.latency_us (wire only).
  Samples round_trip_us;  ///< Send to reply (wire only).
  uint64_t statements = 0;
  uint64_t rows = 0;     ///< Result rows delivered.
  uint64_t results = 0;  ///< Rows, or the counted paths of COUNT(P).
  bool graph = false;    ///< The class runs a traversal.
  grfusion::ExecStats exec;

  void AddExec(const grfusion::ExecStats& s) { exec.MergeFrom(s); }
  void AddDone(const grfusion::wire::Done& d);
  void Merge(const ClassStats& other);
};

using ClassMap = std::map<std::string, ClassStats>;

/// Reports the per-class detail metrics (latency percentiles with counts,
/// per-class engine/wire times and traversal counters) plus the pooled
/// end-to-end and per-layer statement metrics shared by every workload.
/// `elapsed_s` is the measured wall time behind `classes`.
void ReportClasses(const ClassMap& classes, double elapsed_s, Report* report);

/// Metrics every workload reports the same way: set-up repetitions, peak
/// RSS, CSR bytes, per-view build times and the engine-counter deltas of
/// the measured phase.
void ReportSetup(const std::vector<SetupTimes>& setups, Report* report);
void ReportCounterDeltas(const CounterSnapshot& before,
                         const CounterSnapshot& after, Report* report);

/// graph.csr_bytes (all views) and graph.csr_bytes.<view> from
/// SYS.GRAPH_VIEWS.
Status ReportCsrBytes(Database& db, Report* report);

/// Replays statement texts through Parser::ParseSingle and
/// Planner::PlanSelect alone, recording parser.parse / plan.plan spans and
/// the parser.parse_us / plan.plan_us medians.
void ReplayParsePlan(Database& db, const grfusion::PlannerOptions& options,
                     const std::vector<std::string>& sqls, SpanLog* log,
                     Report* report);

/// Self-time shares per span name (self.<span>), split into the set-up
/// family and the request family, plus the span count.
void ReportSelfTimes(const Tracer& tracer, Report* report);

/// Writes spans to <work_dir>/spans-<workload>.jsonl.
void WriteSpans(const RunConfig& cfg, const Tracer& tracer, Report* report);

}  // namespace grfbench

#endif  // GRFBENCH_WORKLOADS_H_
