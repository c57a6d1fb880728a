// Plan workloads: GeneralSolver (what `mc3 solve --solver general` runs) over
// a list of instances loaded from CSV, plus a recomposition of the same
// pipeline from the solver's public layer calls. The recomposition is the
// correctness reference of every run and, in a traced run, the source of the
// per-layer numbers: the benchmark times each layer call itself, so the
// program needs no extra instrumentation.
#include "plan.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/general_solver.h"
#include "core/k2_solver.h"
#include "core/preprocess.h"
#include "core/wsc_reduction.h"
#include "data/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "setcover/greedy.h"
#include "setcover/primal_dual.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mc3::Instance;
using mc3::Solution;

constexpr int kSetupRepeats = 3;  // loads of the whole list; median reported
constexpr int kTimedExports = 3;  // read samples per pass
constexpr double kTail = 0.9;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times the calls it wraps into one accumulator (the benchmark's span).
class Span {
 public:
  explicit Span(double* total) : total_(total), start_(Clock::now()) {}
  ~Span() { *total_ += SecondsSince(start_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  double* total_;
  Clock::time_point start_;
};

/// Per-layer totals of the recomposed pipeline, summed over solves.
struct Layers {
  double wall = 0;  ///< whole recomposed solves
  double preprocess = 0, step1 = 0, step3 = 0, step4 = 0, partition = 0;
  double k2 = 0, reduce = 0, greedy = 0, primal_dual = 0, map_back = 0;
  double merge = 0, verify = 0, prune = 0, total_cost = 0, release = 0;
  double removed = 0, covered = 0, queries = 0, components = 0;
  double k2_components = 0, wsc_components = 0, elements = 0, sets = 0;
  double pd_kept = 0, pruned = 0;

  /// Time inside the benchmark's spans; step times nest in `preprocess`.
  double SpannedSeconds() const {
    return preprocess + k2 + reduce + greedy + primal_dual + map_back + merge +
           verify + prune + total_cost + release;
  }
};

/// The plan and its cost, as GeneralSolver would return them.
struct Plan {
  std::vector<mc3::PropertySet> classifiers;  // sorted
  mc3::Cost cost = 0;
};

/// GeneralSolver::Solve with default SolverOptions, rebuilt from public
/// calls: Preprocess, then per component the k <= 2 flow path or the WSC
/// pair, then Covers / PruneUnusedClassifiers / TotalCost. With
/// `phase_tree` the preprocessing call runs under an obs::Trace so its
/// step times can be read from the program's own phase tree. Large
/// intermediates are released inside a span, so teardown is attributed too.
mc3::Result<Plan> Recompose(const Instance& instance, bool phase_tree,
                            Layers* layers) {
  const Clock::time_point start = Clock::now();
  const mc3::SolverOptions options;
  std::optional<mc3::PreprocessResult> pre;
  {
    Span span(&layers->preprocess);
    mc3::obs::Trace tree("perfbench");
    auto result = [&] {
      if (!phase_tree) {
        return mc3::Preprocess(instance, options.preprocess_options);
      }
      mc3::obs::ScopedTraceActivation active(&tree);
      return mc3::Preprocess(instance, options.preprocess_options);
    }();
    if (!result.ok()) return result.status();
    pre.emplace(std::move(*result));
    layers->step1 += tree.root()->TotalSeconds("step1");
    layers->step3 += tree.root()->TotalSeconds("step3");
    layers->step4 += tree.root()->TotalSeconds("step4");
    layers->partition += tree.root()->TotalSeconds("partition");
  }
  layers->removed += static_cast<double>(
      pre->stats.classifiers_removed_step3 +
      pre->stats.singletons_removed_step4);
  layers->covered += static_cast<double>(pre->stats.queries_covered);
  layers->queries += static_cast<double>(instance.NumQueries());
  layers->components += static_cast<double>(pre->components.size());
  Solution solution;
  {
    Span span(&layers->merge);
    solution.Merge(pre->forced);
  }

  for (const Instance& component : pre->components) {
    Solution part;
    if (component.NumQueries() > 0 && component.MaxQueryLength() <= 2) {
      mc3::SolverOptions k2_options = options;
      k2_options.num_threads = 1;
      k2_options.verify_solution = false;
      k2_options.prune_unused = false;
      Span span(&layers->k2);
      auto exact = mc3::K2ExactSolver(std::move(k2_options)).Solve(component);
      if (!exact.ok()) return exact.status();
      part = std::move(exact->solution);
      layers->k2_components += 1;
    } else {
      std::optional<mc3::WscReduction> reduction;
      using WscResult = mc3::Result<mc3::setcover::WscSolution>;
      std::optional<WscResult> greedy, primal_dual;
      {
        Span span(&layers->reduce);
        reduction.emplace(mc3::ReduceToWsc(component));
      }
      layers->wsc_components += 1;
      layers->elements += static_cast<double>(reduction->wsc.num_elements);
      layers->sets += static_cast<double>(reduction->wsc.sets.size());
      {
        Span span(&layers->greedy);
        greedy.emplace(mc3::setcover::SolveGreedy(reduction->wsc));
      }
      if (!greedy->ok()) return greedy->status();
      {
        Span span(&layers->primal_dual);
        primal_dual.emplace(mc3::setcover::SolvePrimalDual(reduction->wsc));
      }
      if (!primal_dual->ok()) return primal_dual->status();
      // Algorithm 3 keeps the greedy output unless primal-dual is cheaper.
      const bool keep_pd = (*primal_dual)->cost < (*greedy)->cost;
      layers->pd_kept += keep_pd ? 1 : 0;
      {
        Span span(&layers->map_back);
        part = mc3::WscSolutionToMc3(*reduction,
                                     keep_pd ? **primal_dual : **greedy);
      }
      Span span(&layers->release);
      reduction.reset();
      greedy.reset();
      primal_dual.reset();
    }
    Span span(&layers->merge);
    solution.Merge(part);
    part = Solution();
  }
  {
    Span span(&layers->release);
    pre.reset();
  }

  bool covers = false;
  {
    Span span(&layers->verify);
    covers = mc3::Covers(instance, solution);
  }
  if (!covers) return mc3::Status::Internal("recomposed plan does not cover");
  const size_t before_prune = solution.size();
  {
    Span span(&layers->prune);
    solution = mc3::PruneUnusedClassifiers(instance, solution);
  }
  layers->pruned += static_cast<double>(before_prune - solution.size());
  Plan plan;
  {
    Span span(&layers->total_cost);
    plan.cost = solution.TotalCost(instance);
  }
  layers->wall += SecondsSince(start);
  plan.classifiers = solution.Sorted();
  return plan;
}

/// Instance files of a plan workload directory, in name order.
std::vector<std::string> InstanceFiles(const std::string& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".csv") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Loads every instance once; returns the wall time, or -1 on failure.
double LoadAll(const std::vector<std::string>& files,
               std::vector<Instance>* out, Report* report) {
  out->clear();
  const Clock::time_point start = Clock::now();
  for (const std::string& file : files) {
    auto instance = mc3::data::LoadInstance(file);
    if (!instance.ok()) {
      report->Fail("cannot load " + file + ": " + instance.status().ToString());
      return -1;
    }
    out->push_back(std::move(*instance));
  }
  return SecondsSince(start);
}

}  // namespace

int RunPlan(const PlanOptions& options) {
  Report report;
  const std::vector<std::string> files = InstanceFiles(options.dir);
  if (files.empty()) {
    std::fprintf(stderr, "no instance CSVs under %s\n", options.dir.c_str());
    return 2;
  }

  // Set-up: loading every CSV is what a run must do before planning. It is
  // repeated and the median reported, so one slow disk read does not move it.
  // Every timed operation of an untraced run is scaled to the reference
  // host (HostSpeed); the raw times are reported next to the scaled ones.
  HostSpeed speed;
  std::vector<Instance> instances;
  Samples load_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double seconds = LoadAll(files, &instances, &report);
    if (seconds < 0) {
      PrintReport(report,
                  options.trace ? PerLayerMetrics() : EndToEndMetrics());
      return 1;
    }
    load_seconds.Add(seconds, speed.Scale(seconds));
  }
  size_t total_queries = 0;
  for (const Instance& instance : instances) {
    total_queries += instance.NumQueries();
  }

  // Reference plans from the recomposed pipeline (also warms caches).
  std::vector<Plan> reference(instances.size());
  mc3::Cost plan_cost = 0;
  {
    Layers unused;
    for (size_t i = 0; i < instances.size(); ++i) {
      auto plan = Recompose(instances[i], /*phase_tree=*/false, &unused);
      if (!plan.ok()) {
        report.Fail("recomposed pipeline failed on " + files[i] + ": " +
                    plan.status().ToString());
        continue;
      }
      reference[i] = std::move(*plan);
      plan_cost += reference[i].cost;
    }
  }

  // Runs GeneralSolver on instance i; returns its wall time in seconds and
  // checks the plan against the reference.
  const mc3::GeneralSolver solver;
  bool corrupted = false;
  auto solve = [&](size_t i) -> double {
    ++report.attempted;
    const Clock::time_point start = Clock::now();
    auto result = solver.Solve(instances[i]);
    const double seconds = SecondsSince(start);
    if (!result.ok()) {
      ++report.failed;
      report.Fail("GeneralSolver failed on " + files[i] + ": " +
                  result.status().ToString());
      return seconds;
    }
    if (options.corrupt && !corrupted) {
      result->cost += 1;  // self-test: a wrong cost must fail the check
      corrupted = true;
    }
    if (result->cost != reference[i].cost ||
        result->solution.Sorted() != reference[i].classifiers) {
      report.Fail("GeneralSolver plan for " + files[i] + " (cost " +
                  std::to_string(result->cost) +
                  ") differs from the recomposed pipeline (cost " +
                  std::to_string(reference[i].cost) + ")");
    }
    return seconds;
  };

  // The plans the reads export: equal to every solve's (checked above),
  // built once so that each export renders the same objects.
  std::vector<Solution> plans(instances.size());
  for (size_t i = 0; i < instances.size(); ++i) {
    for (const mc3::PropertySet& c : reference[i].classifiers) {
      plans[i].Add(c);
    }
  }

  const Clock::time_point run_start = Clock::now();
  if (!options.trace) {
    Samples pass_rates, op_ms, read_ms;
    speed.Probe();  // the reference plans ran since the last sample
    do {
      double pass_raw = 0, pass_scaled = 0;
      for (size_t i = 0; i < instances.size(); ++i) {
        const double seconds = solve(i);
        const double scaled = speed.Scale(seconds);
        pass_raw += seconds;
        pass_scaled += scaled;
        op_ms.Add(seconds * 1e3, scaled * 1e3);
      }
      const auto queries = static_cast<double>(total_queries);
      pass_rates.Add(queries / pass_raw, queries / pass_scaled);
      // The read: exporting the plans for their consumer, i.e. rendering
      // each as `mc3 solve -o` writes it. One untimed export warms
      // the caches the solves left cold; each of the kTimedExports after it
      // is one sample. Exports after every pass spread the samples over the
      // window, as the solves are.
      for (int e = 0; e <= kTimedExports; ++e) {
        const Clock::time_point start = Clock::now();
        for (size_t i = 0; i < instances.size(); ++i) {
          const std::string csv =
              mc3::data::SolutionToCsv(instances[i], plans[i]);
          if (csv.empty() && !plans[i].empty()) {
            report.Fail("empty plan CSV for " + files[i]);
          }
        }
        const double seconds = SecondsSince(start);
        const double scaled = speed.Scale(seconds);
        if (e > 0) read_ms.Add(seconds * 1e3, scaled * 1e3);
      }
    } while (SecondsSince(run_start) < options.seconds);
    report.host_speed = speed.Speed();
    report.AddScaled("setup_s", load_seconds.Median(false),
                     load_seconds.Median(true), "s", load_seconds.size());
    report.Add("peak_rss_mb", PeakRssMb(), "MB", 1);
    report.Add("plan_cost", plan_cost, "cost",
               static_cast<double>(instances.size()));
    report.AddScaled("throughput_per_s", pass_rates.Median(false),
                     pass_rates.Median(true), "1/s", pass_rates.size());
    report.AddScaled("op_p50_ms", op_ms.Quantile(0.5, false),
                     op_ms.Quantile(0.5, true), "ms", op_ms.size());
    // Tails: p90. A 25 s plan_private run has ~15 solves beyond it;
    // plan_synthetic's few, long solves leave ~3.
    report.AddScaled("op_tail_ms", op_ms.Quantile(kTail, false),
                     op_ms.Quantile(kTail, true), "ms", op_ms.size());
    report.AddScaled("read_p50_ms", read_ms.Quantile(0.5, false),
                     read_ms.Quantile(0.5, true), "ms", read_ms.size());
    report.AddScaled("read_tail_ms", read_ms.Quantile(kTail, false),
                     read_ms.Quantile(kTail, true), "ms", read_ms.size());
    const bool ok = report.correct;
    PrintReport(std::move(report), EndToEndMetrics());
    return ok ? 0 : 1;
  }

  // Traced run: alternate a pass of the real solver with a pass of the
  // recomposed, span-timed pipeline; the ratio of their medians is the
  // tracing overhead.
  Layers layers;
  std::vector<double> real_pass, traced_pass;
  // Work counters the layers keep in the program's metrics registry.
  const char* kCounters[] = {"flow.dinic.augmenting_paths",
                             "flow.dinic.edges_scanned",
                             "setcover.greedy.heap_pops",
                             "setcover.greedy.lazy_reevals"};
  std::map<std::string, double> counted;
  do {
    double seconds = 0;
    for (size_t i = 0; i < instances.size(); ++i) seconds += solve(i);
    real_pass.push_back(seconds);

    const mc3::obs::MetricsSnapshot before =
        mc3::obs::MetricsRegistry::Global().Snap();
    const Clock::time_point pass_start = Clock::now();
    for (size_t i = 0; i < instances.size(); ++i) {
      ++report.attempted;
      auto plan = Recompose(instances[i], /*phase_tree=*/true, &layers);
      if (!plan.ok() || plan->cost != reference[i].cost ||
          plan->classifiers != reference[i].classifiers) {
        ++report.failed;
        report.Fail("traced recomposition of " + files[i] +
                    " differs from its reference");
      }
    }
    traced_pass.push_back(SecondsSince(pass_start));
    const mc3::obs::MetricsSnapshot after =
        mc3::obs::MetricsRegistry::Global().Snap();
    for (const char* name : kCounters) {
      counted[name] += static_cast<double>(CounterValue(after, name) -
                                           CounterValue(before, name));
    }
  } while (SecondsSince(run_start) < options.seconds);

  // Per-layer values are per pass of the seed list (totals / passes).
  const double passes = static_cast<double>(traced_pass.size());
  const double solves = passes * static_cast<double>(instances.size());
  auto per_pass = [&](const char* name, double total, const char* unit,
                      double count) {
    report.Add(name, total / passes, unit, count);
  };
  report.Add("data.load_s", load_seconds.Median(false), "s",
             load_seconds.size());
  per_pass("core.preprocess_s", layers.preprocess, "s", solves);
  per_pass("core.preprocess.step1_s", layers.step1, "s", solves);
  per_pass("core.preprocess.step3_s", layers.step3, "s", solves);
  per_pass("core.preprocess.step4_s", layers.step4, "s", solves);
  per_pass("core.preprocess.partition_s", layers.partition, "s", solves);
  per_pass("core.preprocess.removed", layers.removed, "count", solves);
  report.Add("core.preprocess.covered_ratio", layers.covered / layers.queries,
             "ratio", layers.queries);
  per_pass("core.components", layers.components, "count", solves);
  per_pass("core.wsc_reduce_s", layers.reduce, "s", layers.wsc_components);
  per_pass("core.wsc.elements", layers.elements, "count",
           layers.wsc_components);
  per_pass("core.wsc.sets", layers.sets, "count", layers.wsc_components);
  per_pass("setcover.greedy_s", layers.greedy, "s", layers.wsc_components);
  per_pass("setcover.primal_dual_s", layers.primal_dual, "s",
           layers.wsc_components);
  per_pass("setcover.heap_pops", counted["setcover.greedy.heap_pops"],
           "count", layers.wsc_components);
  per_pass("setcover.lazy_reevals", counted["setcover.greedy.lazy_reevals"],
           "count", layers.wsc_components);
  report.Add("setcover.kept_ratio",
             layers.wsc_components > 0 ? layers.pd_kept / layers.wsc_components
                                       : 0,
             "ratio", layers.wsc_components);
  per_pass("flow.k2_s", layers.k2, "s", layers.k2_components);
  per_pass("flow.k2_components", layers.k2_components, "count", solves);
  per_pass("flow.augmenting_paths", counted["flow.dinic.augmenting_paths"],
           "count", layers.k2_components);
  per_pass("flow.edges_scanned", counted["flow.dinic.edges_scanned"],
           "count", layers.k2_components);
  per_pass("core.verify_s", layers.verify, "s", solves);
  per_pass("core.prune_s", layers.prune, "s", solves);
  per_pass("core.pruned", layers.pruned, "count", solves);
  report.Add("trace.coverage", layers.SpannedSeconds() / layers.wall, "ratio",
             passes);
  report.Add("trace.overhead", Median(traced_pass) / Median(real_pass) - 1,
             "ratio", passes);
  const bool ok = report.correct;
  PrintReport(std::move(report), PerLayerMetrics());
  return ok ? 0 : 1;
}

}  // namespace perfbench
