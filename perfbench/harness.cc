#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/metrics.h"
#include "common/string_util.h"

namespace grfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Samples -----------------------------------------------------------------

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

void Samples::Sort() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  Sort();
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::SupportedTail() const {
  for (double q : {0.999, 0.99, 0.9}) {
    if (static_cast<double>(values_.size()) * (1 - q) >= 10) return q;
  }
  return 0.5;
}

double Samples::Sum() const {
  double total = 0;
  for (double v : values_) total += v;
  return total;
}

// --- GaugePeaks --------------------------------------------------------------

void GaugePeaks::Start() {
  Stop();
  running_.store(true);
  thread_ = std::thread([this] {
    grfusion::EngineMetrics& m = grfusion::EngineMetrics::Get();
    while (running_.load()) {
      queued_max_ = std::max(queued_max_, m.server_queries_queued->value());
      delta_bytes_max_ =
          std::max(delta_bytes_max_, m.graph_view_delta_bytes->value());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
}

void GaugePeaks::Stop() {
  running_.store(false);
  if (thread_.joinable()) thread_.join();
}

// --- Report ------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = Metric{value, unit, n};
}

void Report::SetQuantile(const std::string& name, const Samples& s, double q,
                         const std::string& unit) {
  Set(name, s.Quantile(q), unit, s.size());
}

double Report::SetTail(const std::string& prefix, const std::string& suffix,
                       const Samples& s, const std::string& unit,
                       double max_q) {
  const double q = std::min(max_q, s.SupportedTail());
  if (q <= 0.5) return q;
  const char* label = q >= 0.999 ? "p999" : q >= 0.99 ? "p99" : "p90";
  SetQuantile(prefix + label + suffix, s, q, unit);
  return q;
}

void Report::Mismatch(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  ++failed_;
  ++mismatches_;
  if (errors_.size() < 20) errors_.push_back(what);
  std::fprintf(stderr, "mismatch: %s\n", what.c_str());
}

void Report::Note(const std::string& key, const std::string& value) {
  std::lock_guard<std::mutex> lock(mu_);
  notes_[key] = value;
}

bool Report::Has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.count(name) > 0;
}

double Report::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += grfusion::StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return grfusion::StrFormat("%.17g", v);
}

}  // namespace

std::string Report::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"mismatches\": " + std::to_string(mismatches_) +
                    ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + JsonEscape(m.unit) +
           "\", \"n\": " + std::to_string(m.n) + "}";
  }
  out += "}, \"notes\": {";
  first = true;
  for (const auto& [key, value] : notes_) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
  }
  out += "}, \"errors\": [";
  for (size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(errors_[i]) + "\"";
  }
  out += "]}";
  return out;
}

// --- Spans -------------------------------------------------------------------

uint32_t SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                      uint32_t parent, uint64_t request, bool derived) {
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  // Ids are unique per log; the thread index in the top byte keeps them
  // unique across logs when the spans are merged.
  span.id = (thread_ << 24) | next_++;
  span.parent = parent;
  span.request = request;
  span.derived = derived;
  spans_.push_back(span);
  return span.id;
}

SpanLog* Tracer::NewLog() {
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(
      std::make_unique<SpanLog>(static_cast<uint32_t>(logs_.size() + 1)));
  return logs_.back().get();
}

size_t Tracer::NumSpans() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const auto& log : logs_) n += log->spans().size();
  return n;
}

std::map<std::string, std::pair<uint64_t, double>> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::pair<uint64_t, double>> out;
  for (const auto& log : logs_) {
    const std::vector<Span>& spans = log->spans();
    // Children are recorded before their parents finish, so group the
    // child intervals of every parent first.
    std::map<uint32_t, std::vector<std::pair<int64_t, int64_t>>> children;
    for (const Span& s : spans) {
      if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    for (const Span& s : spans) {
      int64_t covered = 0;
      auto it = children.find(s.id);
      if (it != children.end()) {
        std::vector<std::pair<int64_t, int64_t>> iv = it->second;
        std::sort(iv.begin(), iv.end());
        int64_t cursor = s.start_ns;
        for (auto [b, e] : iv) {
          b = std::max(b, cursor);
          e = std::min(e, s.end_ns);
          if (e > b) {
            covered += e - b;
            cursor = e;
          }
        }
      }
      auto& entry = out[s.name];
      ++entry.first;
      entry.second += static_cast<double>(s.end_ns - s.start_ns - covered);
    }
  }
  return out;
}

Status Tracer::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  for (const auto& log : logs_) {
    for (const Span& s : log->spans()) {
      out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"id\": " << s.id
          << ", \"parent\": " << s.parent << ", \"request\": " << s.request
          << ", \"derived\": " << (s.derived ? "true" : "false") << "}\n";
    }
  }
  out.close();
  return out ? Status::OK() : Status::IOError("short write to " + path);
}

// --- Engine counters ------------------------------------------------------------

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot snap;
  for (const auto& sample : grfusion::MetricsRegistry::Global().Samples()) {
    snap.values[sample.name] = sample.value;
  }
  return snap;
}

double CounterSnapshot::Get(const std::string& name) const {
  auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

double CounterSnapshot::Delta(const CounterSnapshot& before,
                              const std::string& name) const {
  return Get(name) - before.Get(name);
}

// --- Set-up --------------------------------------------------------------------

std::vector<Dataset> GenerateDatasets(double scale, SpanLog* log) {
  ScopedSpan span(log, "setup.generate");
  return grfusion::MakeAllDatasets(scale, kDatasetSeed);
}

Status LoadDatasets(const std::vector<Dataset>& datasets, Database* db,
                    SetupTimes* times, SpanLog* log) {
  Session session(*db);
  for (const Dataset& d : datasets) {
    const std::string vt = d.name + "_v";
    const std::string et = d.name + "_e";
    Status s = session.ExecuteScript(grfusion::StrFormat(
        "CREATE TABLE %s (id BIGINT PRIMARY KEY, name VARCHAR, kind VARCHAR, "
        "score DOUBLE);"
        "CREATE TABLE %s (id BIGINT PRIMARY KEY, src BIGINT, dst BIGINT, "
        "weight DOUBLE, label VARCHAR, rank BIGINT);",
        vt.c_str(), et.c_str()));
    if (!s.ok()) return s;

    std::vector<std::vector<Value>> vrows;
    vrows.reserve(d.vertexes.size());
    for (const grfusion::VertexRow& v : d.vertexes) {
      vrows.push_back({Value::BigInt(v.id), Value::Varchar(v.name),
                       Value::Varchar(v.kind), Value::Double(v.score)});
    }
    std::vector<std::vector<Value>> erows;
    erows.reserve(d.edges.size());
    for (const grfusion::EdgeRow& e : d.edges) {
      erows.push_back({Value::BigInt(e.id), Value::BigInt(e.src),
                       Value::BigInt(e.dst), Value::Double(e.weight),
                       Value::Varchar(e.label), Value::BigInt(e.rank)});
    }
    int64_t t0 = NowNs();
    {
      ScopedSpan span(log, "setup.bulk_load");
      s = db->BulkInsert(vt, vrows);
      if (s.ok()) s = db->BulkInsert(et, erows);
    }
    if (!s.ok()) return s;
    int64_t t1 = NowNs();
    {
      ScopedSpan span(log, "setup.graph_view");
      s = session
              .Execute(grfusion::StrFormat(
                  "CREATE %s GRAPH VIEW %s "
                  "VERTEXES (ID = id, name = name, kind = kind, score = score) "
                  "FROM %s EDGES (ID = id, FROM = src, TO = dst, "
                  "weight = weight, label = label, rank = rank) FROM %s",
                  d.directed ? "DIRECTED" : "UNDIRECTED", d.name.c_str(),
                  vt.c_str(), et.c_str()))
              .status();
    }
    if (!s.ok()) return s;
    int64_t t2 = NowNs();
    times->bulk_load_s += (t1 - t0) / 1e9;
    times->graph_view_s += (t2 - t1) / 1e9;
    times->view_build_s[d.name] = (t2 - t1) / 1e9;
  }
  return Status::OK();
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  // A new thread inherits its creator's mask, so pinning every thread that
  // exists now also covers every thread started later.
  DIR* tasks = opendir("/proc/self/task");
  if (tasks == nullptr) return -1;
  bool ok = true;
  while (const dirent* e = readdir(tasks)) {
    const pid_t tid = static_cast<pid_t>(std::atoi(e->d_name));
    if (tid > 0 && sched_setaffinity(tid, sizeof(one), &one) != 0) ok = false;
  }
  closedir(tasks);
  return ok ? cpu : -1;
}

double PeakRssMb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

const Dataset& Find(const std::vector<Dataset>& datasets,
                    const std::string& name) {
  for (const Dataset& d : datasets) {
    if (d.name == name) return d;
  }
  std::fprintf(stderr, "dataset %s missing\n", name.c_str());
  std::abort();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

}  // namespace grfbench
