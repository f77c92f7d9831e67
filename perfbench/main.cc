// grfbench: runs one benchmark workload against the GRFusion engine and
// prints its report as one JSON object on the last line of stdout.
//
//   grfbench --workload serve|traverse|export --seed N --seconds S
//            --trace 0|1 --work-dir DIR [--smoke]
//
// Exit status: 0 when every answer matched its reference, 1 on a mismatch
// or a failed operation, 2 on a usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "grfbench: %s\nusage: grfbench --workload serve|traverse|"
               "export --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  grfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      cfg.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--work-dir") {
      cfg.work_dir = argv[++i];
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (cfg.work_dir.empty()) return Usage("--work-dir is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.work_dir).c_str());

  grfbench::Report report;
  grfbench::Tracer tracer;
  grfbench::Status status;
  if (cfg.workload == "serve") {
    status = grfbench::RunServe(cfg, &report, &tracer);
  } else if (cfg.workload == "traverse") {
    status = grfbench::RunTraverse(cfg, &report, &tracer);
  } else if (cfg.workload == "export") {
    status = grfbench::RunExport(cfg, &report, &tracer);
  } else {
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "grfbench %s: %s\n", cfg.workload.c_str(),
                 status.ToString().c_str());
    return 2;
  }

  report.Set("peak_rss_mb", grfbench::PeakRssMb(), "MB");
  const double attempted = static_cast<double>(report.attempted());
  report.Set("ok_frac",
             attempted == 0 ? 0
                            : (attempted - static_cast<double>(report.failed())) /
                                  attempted,
             "ratio", report.attempted());
  report.Set("error_frac",
             attempted == 0 ? 1 : static_cast<double>(report.failed()) / attempted,
             "ratio", report.attempted());
  if (cfg.trace) {
    grfbench::ReportSelfTimes(tracer, &report);
    grfbench::WriteSpans(cfg, tracer, &report);
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
