// Shared pieces of the benchmark harness: workload generation from a seed,
// order statistics, and the one-line JSON result every mode prints.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "obs/metrics.h"

namespace perfbench {

/// Input size of a run: `kFull` is the benchmark proper, `kSmall` the
/// seconds-long smoke size the benchmark's own tests use for the plan
/// workloads. serve_churn has one size: on a small base its reads take
/// ~0.1 ms and their latency is all Nagle wait, too unsteady for the
/// stationarity check.
enum class Scale { kFull, kSmall };

/// Instances of the plan workloads (`plan_private`, `plan_synthetic`) and
/// the base workload of `serve_churn` (one instance). The logs are the same
/// for every `seed`; the plan instances' query rows come in a `seed`-chosen
/// order (serve_churn's seed drives its request stream instead).
std::vector<mc3::Instance> GenerateWorkload(const std::string& workload,
                                            uint64_t seed, Scale scale);

/// Value at quantile `q` in [0, 1] by linear interpolation between order
/// statistics; 0 for an empty sample. Sorts `values` in place.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// Value of counter `name` in a registry snapshot (0 when absent).
uint64_t CounterValue(const mc3::obs::MetricsSnapshot& snap,
                      const std::string& name);

/// Times of one kind of operation, as measured and scaled to the reference
/// host (HostSpeed).
class Samples {
 public:
  void Add(double raw, double scaled) {
    raw_.push_back(raw);
    scaled_.push_back(scaled);
  }
  double Quantile(double q, bool scaled) const {
    std::vector<double> values = scaled ? scaled_ : raw_;
    return perfbench::Quantile(&values, q);
  }
  double Median(bool scaled) const { return Quantile(0.5, scaled); }
  double size() const { return static_cast<double>(raw_.size()); }

 private:
  std::vector<double> raw_, scaled_;
};

/// Wall time of one run of a fixed, benchmark-own kernel (no program code):
/// the probe of the host's speed that reported times are scaled by.
double CalibrationSeconds();

/// The kernel's time on the reference host (README.md, "Host speed").
/// A reported time is what the operation would have taken on a host where
/// the kernel runs this fast.
constexpr double kCalibrationNominalSeconds = 0.0143;

/// Scales the times of consecutive operations to the reference host. The
/// shared host's speed moves by up to 2x within minutes, for the program
/// and the kernel alike, so the kernel runs between every two timed
/// operations and each operation is scaled by the mean of the samples
/// taken just before and just after it.
class HostSpeed {
 public:
  HostSpeed() : last_(Sample()) {}

  /// `seconds` of an operation that ended just now, at reference speed.
  double Scale(double seconds) {
    const double before = last_;
    last_ = Sample();
    return seconds * kCalibrationNominalSeconds * 2 / (before + last_);
  }
  /// Takes a sample with nothing timed since the last one.
  void Probe() { last_ = Sample(); }
  /// Host speed over all samples, relative to the reference host.
  double Speed() const {
    return kCalibrationNominalSeconds / Median(samples_);
  }

 private:
  double Sample() {
    samples_.push_back(CalibrationSeconds());
    return samples_.back();
  }

  std::vector<double> samples_;  // declared first: last_ is sampled into it
  double last_;
};

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// One named metric of the result line. `count` is the number of samples
/// or events the value rests on (its base).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  double count = 0;
  /// The value before scaling to the reference host (times only).
  std::optional<double> raw;
};

/// Result of one mode: outputs checked (`correct`), operations attempted
/// and failed, and the metrics.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// HostSpeed::Speed() of the run (1 when nothing was scaled).
  double host_speed = 1;
  /// Why `correct` is false; printed to stderr.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit,
           double count) {
    metrics.push_back({name, value, unit, count, std::nullopt});
  }
  /// A time or rate measured as `raw` and reported as `scaled`.
  void AddScaled(const std::string& name, double raw, double scaled,
                 const std::string& unit, double count) {
    metrics.push_back({name, scaled, unit, count, raw});
  }
  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

/// Name and unit of every metric a run reports: the end-to-end metrics of an
/// untraced run and the per-layer metrics of a traced one (BENCHMARK.json
/// lists the same names).
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// Prints the report as one JSON line on stdout (errors go to stderr). The
/// metrics are put in the order of `specs`; a spec the mode does not measure
/// (a serving layer in a plan workload, say) is reported as 0 with count 0,
/// and a metric missing from `specs` is a program error.
void PrintReport(Report report, const std::vector<MetricSpec>& specs);

}  // namespace perfbench
