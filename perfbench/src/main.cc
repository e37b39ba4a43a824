// The repository benchmark binary. Runs one named workload with a seed
// and prints, as the last line of standard output, one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Untraced runs report the end-to-end metrics; --trace 1 reports the
// per-layer metrics instead. Normally started through perfbench/run.py,
// which builds this binary first.
//
// Usage: pidx_perfbench --workload olap|oltp|maintain --seed N
//          --seconds S --trace 0|1 --workdir DIR [--trace-out FILE]
//          [--scale full|tiny] [--corrupt]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "layers.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "pidx_perfbench: %s\nusage: pidx_perfbench --workload "
               "olap|oltp|maintain --seed N --seconds S --trace 0|1 "
               "--workdir DIR [--trace-out FILE] [--scale full|tiny] "
               "[--corrupt]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string workdir;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--corrupt") {
      cfg.corrupt = true;
      continue;
    }
    const char* value = next();
    if (value == nullptr) return Usage(("missing value for " + arg).c_str());
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workdir") {
      workdir = value;
    } else if (arg == "--trace-out") {
      cfg.trace_path = value;
    } else if (arg == "--scale") {
      if (std::strcmp(value, "tiny") == 0) {
        cfg.scale = Scale::kTiny;
      } else if (std::strcmp(value, "full") != 0) {
        return Usage("--scale must be full or tiny");
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (workdir.empty()) return Usage("--workdir is required");
  if (!(cfg.seconds > 0)) return Usage("--seconds must be positive");
  cfg.threads = UsableCpus();

  // A private scratch directory for this run, removed at exit.
  std::error_code ec;
  std::filesystem::create_directories(workdir, ec);
  std::string tmpl = workdir + "/run-XXXXXX";
  if (ec || mkdtemp(tmpl.data()) == nullptr) {
    std::fprintf(stderr, "pidx_perfbench: cannot create a directory in %s\n",
                 workdir.c_str());
    return 2;
  }
  cfg.workdir = tmpl;

  Report report;
  int rc = 0;
  if (cfg.workload == "olap") {
    rc = RunOlap(cfg, &report);
  } else if (cfg.workload == "oltp") {
    rc = RunOltp(cfg, &report);
  } else if (cfg.workload == "maintain") {
    rc = RunMaintain(cfg, &report);
  } else {
    std::filesystem::remove_all(cfg.workdir, ec);
    return Usage(("unknown workload '" + cfg.workload + "'").c_str());
  }
  std::filesystem::remove_all(cfg.workdir, ec);

  report.PrintJson();
  if (rc != 0 || !report.correct() || report.failed > 0) {
    std::fprintf(stderr, "pidx_perfbench: %s run FAILED (%llu of %llu "
                 "operations failed%s)\n",
                 cfg.workload.c_str(),
                 static_cast<unsigned long long>(report.failed),
                 static_cast<unsigned long long>(report.attempted),
                 report.correct() ? "" : ", checks failed");
    return 1;
  }
  return 0;
}
