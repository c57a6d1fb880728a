// mc3_perfbench: the benchmark's harness binary. perfbench/run.py builds it
// and calls its modes; each mode is one step of a workload.
//
//   mc3_perfbench gen --workload W --seed S [--small] --out DIR
//       Writes the workload's instances as CSV files into DIR.
//   mc3_perfbench calibrate [--samples N]
//       Prints the host's speed from the host-speed kernel (run.py scales
//       the server launches it times by it).
//   mc3_perfbench plan --dir DIR --seconds T [--trace] [--corrupt]
//       Plan workloads: load, plan for T seconds, check, report.
//   mc3_perfbench serve-client --port P --base CSV --seed S --seconds T
//                 [--trace] [--corrupt] [--drift]
//       serve_churn: drive a running `mc3 serve`, check, report.
//
// Every mode that measures prints one JSON report line on stdout and exits
// 1 when a correctness check failed (2 on a usage error).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "common.h"
#include "data/io.h"
#include "plan.h"
#include "serve_client.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: mc3_perfbench gen|calibrate|plan|serve-client [flags]; "
               "see perfbench/README.md\n");
  return 2;
}

/// Minimal flag lookup over argv[2..].
class Flags {
 public:
  Flags(int argc, char** argv) : args_(argv + 2, argv + argc) {}

  const std::string* Value(const std::string& flag) const {
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == flag) return &args_[i + 1];
    }
    return nullptr;
  }
  bool Has(const std::string& flag) const {
    for (const std::string& arg : args_) {
      if (arg == flag) return true;
    }
    return false;
  }
  double Number(const std::string& flag, double fallback) const {
    const std::string* v = Value(flag);
    return v == nullptr ? fallback : std::strtod(v->c_str(), nullptr);
  }

 private:
  std::vector<std::string> args_;
};

int Gen(const Flags& flags) {
  const std::string* workload = flags.Value("--workload");
  const std::string* out = flags.Value("--out");
  if (workload == nullptr || out == nullptr) return Usage();
  const auto seed = static_cast<uint64_t>(flags.Number("--seed", 1));
  const std::vector<mc3::Instance> instances = perfbench::GenerateWorkload(
      *workload, seed,
      flags.Has("--small") ? perfbench::Scale::kSmall
                           : perfbench::Scale::kFull);
  for (size_t i = 0; i < instances.size(); ++i) {
    char name[64];
    std::snprintf(name, sizeof(name), "/instance_%02zu.csv", i);
    const mc3::Status status =
        mc3::data::SaveInstance(instances[i], *out + name);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

/// Prints the host's speed relative to the reference host from the median
/// of --samples runs of the host-speed kernel (HostSpeed::Speed).
int Calibrate(const Flags& flags) {
  std::vector<double> seconds;
  const int samples = static_cast<int>(flags.Number("--samples", 5));
  for (int i = 0; i < samples; ++i) {
    seconds.push_back(perfbench::CalibrationSeconds());
  }
  std::printf("%.9f\n", perfbench::kCalibrationNominalSeconds /
                             perfbench::Median(seconds));
  return 0;
}

int Plan(const Flags& flags) {
  perfbench::PlanOptions options;
  const std::string* dir = flags.Value("--dir");
  if (dir == nullptr) return Usage();
  options.dir = *dir;
  options.seconds = flags.Number("--seconds", options.seconds);
  options.trace = flags.Has("--trace");
  options.corrupt = flags.Has("--corrupt");
  return perfbench::RunPlan(options);
}

int ServeClient(const Flags& flags) {
  perfbench::ServeOptions options;
  const std::string* base = flags.Value("--base");
  const std::string* port = flags.Value("--port");
  if (base == nullptr || port == nullptr) return Usage();
  options.base_csv = *base;
  options.port = static_cast<int>(std::strtol(port->c_str(), nullptr, 10));
  options.seed = static_cast<uint64_t>(flags.Number("--seed", 1));
  options.seconds = flags.Number("--seconds", options.seconds);
  options.trace = flags.Has("--trace");
  options.corrupt = flags.Has("--corrupt");
  options.drift = flags.Has("--drift");
  return perfbench::RunServeClient(options);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  const Flags flags(argc, argv);
  try {
    if (mode == "gen") return Gen(flags);
    if (mode == "calibrate") return Calibrate(flags);
    if (mode == "plan") return Plan(flags);
    if (mode == "serve-client") return ServeClient(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mc3_perfbench %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  return Usage();
}
