#ifndef GRFBENCH_HARNESS_H_
#define GRFBENCH_HARNESS_H_

// Shared pieces of the benchmark harness: clocks, sample sets, the metric
// report, the in-memory span recorder, engine-counter snapshots and the
// timed set-up of the four generated datasets.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "engine/session.h"
#include "workload/datasets.h"

namespace grfbench {

using grfusion::Database;
using grfusion::Dataset;
using grfusion::ResultSet;
using grfusion::Session;
using grfusion::Status;
using grfusion::StatusOr;
using grfusion::Value;

int64_t NowNs();
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Command-line settings shared by every workload.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;       ///< Tiny scale, short phases: the self-test.
  std::string work_dir;     ///< Scratch space (WAL directories, spans).
};

/// A set of observations with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank q-quantile (q in [0, 1]); 0 when empty.
  double Quantile(double q) const;
  /// Highest standard percentile (0.999, 0.99, 0.9, 0.5) that leaves at
  /// least ten samples beyond it.
  double SupportedTail() const;
  double Sum() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  void Sort() const;
};

/// Every number a run produces, keyed by metric name. `n` is the sample
/// count behind the value (1 for a single measurement).
class Report {
 public:
  struct Metric {
    double value = 0;
    std::string unit;
    uint64_t n = 1;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t n = 1);
  /// Records a percentile with its sample count; `q` picks the quantile.
  void SetQuantile(const std::string& name, const Samples& s, double q,
                   const std::string& unit);
  /// Records the highest tail up to `max_q` that `s` supports (see
  /// Samples::SupportedTail) as prefix + "p999"/"p99"/"p90" + suffix, e.g.
  /// "write_p90_us"; nothing when the samples support no tail above p50.
  /// Returns the quantile used (0.5 when none).
  double SetTail(const std::string& prefix, const std::string& suffix,
                 const Samples& s, const std::string& unit,
                 double max_q = 0.99);

  /// Counts one attempted operation; `ok` false counts it as failed.
  void Attempt(bool ok) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// A wrong answer: counted as a failed attempt and remembered.
  void Mismatch(const std::string& what);
  void Note(const std::string& key, const std::string& value);
  bool Has(const std::string& name) const;
  double Get(const std::string& name) const;

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t mismatches() const { return mismatches_; }
  bool correct() const { return mismatches_ == 0; }

  /// Writes the whole report as one JSON object.
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;
  std::vector<std::string> errors_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t mismatches_ = 0;
};

/// In-memory span recorder. Each thread that records owns one SpanLog; the
/// tracer only merges them at the end, so recording takes no lock. A null
/// SpanLog pointer means tracing is off and every call is a no-op.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t id = 0;
  uint32_t parent = 0;  ///< 0 = root.
  uint64_t request = 0;
  bool derived = false;  ///< Reconstructed from a server-reported duration.
};

class SpanLog {
 public:
  explicit SpanLog(uint32_t thread_index) : thread_(thread_index) {}
  /// Appends a finished span and returns its id.
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent, uint64_t request, bool derived = false);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  uint32_t next_ = 1;
  std::vector<Span> spans_;
};

class Tracer {
 public:
  /// A new per-thread log (stable address for the tracer's lifetime).
  SpanLog* NewLog();
  /// Self time per span name: each span's duration minus the part of its
  /// interval that its children cover. Returns name -> (count, total ns).
  std::map<std::string, std::pair<uint64_t, double>> SelfTimes() const;
  /// Writes every span as one JSON line each.
  Status WriteJsonLines(const std::string& path) const;
  size_t NumSpans() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// RAII span around one call; no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint32_t parent = 0,
             uint64_t request = 0)
      : log_(log), name_(name), parent_(parent), request_(request),
        start_(log != nullptr ? NowNs() : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Add(name_, start_, NowNs(), parent_, request_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const char* name_;
  uint32_t parent_;
  uint64_t request_;
  int64_t start_;
};

/// Snapshot of the engine counters the benchmark reads through
/// MetricsRegistry::Global(). Delta() subtracts an earlier snapshot.
struct CounterSnapshot {
  std::map<std::string, double> values;
  static CounterSnapshot Take();
  double Delta(const CounterSnapshot& before, const std::string& name) const;
  double Get(const std::string& name) const;
};

/// Peaks of the server-queue and graph-delta gauges, sampled every
/// millisecond on a thread of its own between Start() and Stop().
class GaugePeaks {
 public:
  ~GaugePeaks() { Stop(); }
  void Start();
  void Stop();
  int64_t queued_max() const { return queued_max_; }
  int64_t delta_bytes_max() const { return delta_bytes_max_; }

 private:
  std::atomic<bool> running_{false};
  std::thread thread_;
  int64_t queued_max_ = 0;
  int64_t delta_bytes_max_ = 0;
};

/// Timed set-up of the four generated datasets (road, bio, dblp, social).
struct SetupTimes {
  double generate_s = 0;
  double bulk_load_s = 0;
  double graph_view_s = 0;
  std::map<std::string, double> view_build_s;
  double total_s = 0;
};

/// The graphs are generated from this fixed seed; --seed draws everything
/// else (query parameters, start samples, the serve request stream). Runs
/// on different seeds then measure the same graphs, so their spread is the
/// spread of the measurement, not of the generated graph shapes.
constexpr uint64_t kDatasetSeed = 2018;

/// Every workload sets up this many times and reports the median as
/// setup_s; the last set-up is the one measured.
constexpr int kSetups = 5;

/// Generates the datasets at `scale` from kDatasetSeed.
std::vector<Dataset> GenerateDatasets(double scale, SpanLog* log);

/// Loads generated datasets through the public API: CREATE TABLE via a
/// Session, rows via Database::BulkInsert, then CREATE GRAPH VIEW.
Status LoadDatasets(const std::vector<Dataset>& datasets, Database* db,
                    SetupTimes* times, SpanLog* log);

/// Restricts every thread of this process, and so every thread it starts
/// later, to one CPU: the highest one it may run on. Returns that CPU, or -1
/// when the affinity cannot be read or set. The wire workloads run server
/// and clients this way: a loopback round trip between CPUs waits on
/// cross-CPU wake-ups, which on a shared virtual machine wait on the
/// hypervisor, and unpinned, serve's read capacity of unchanged code moved
/// between 3.1K and 15K reads/s from run to run.
int PinToOneCpu();

/// Peak resident set of this process in MB (getrusage).
double PeakRssMb();

/// A dataset by name; aborts when absent (a harness bug).
const Dataset& Find(const std::vector<Dataset>& datasets,
                    const std::string& name);

/// Median of a small vector (set-up repetitions).
double Median(std::vector<double> v);

/// Geometric mean of positive values (0 when empty).
double GeoMean(const std::vector<double>& v);

std::string JsonEscape(const std::string& s);

}  // namespace grfbench

#endif  // GRFBENCH_HARNESS_H_
