#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "data/private_dataset.h"
#include "data/synthetic.h"
#include "obs/json.h"
#include "online/churn.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// `instance` with its query rows in a seeded order. Written to CSV and
/// loaded back, the order also decides the property ids, so a seed changes
/// the layout and the solvers' tie-breaks but not the log itself.
mc3::Instance Shuffled(const mc3::Instance& instance, mc3::Rng* rng) {
  std::vector<mc3::PropertySet> queries = instance.queries();
  for (size_t j = queries.size() - 1; j > 0; --j) {
    std::swap(queries[j], queries[rng->UniformInt(0, j)]);
  }
  mc3::Instance out;
  for (mc3::PropertySet& q : queries) out.AddQuery(std::move(q));
  for (const auto& [classifier, cost] :
       mc3::SortedCostEntries(instance.costs())) {
    out.SetCost(classifier, cost);
  }
  out.set_property_names(instance.property_names());
  return out;
}

/// The fixed list of generator seeds a workload's instances come from.
std::vector<uint64_t> DatasetSeeds(const std::string& workload, Scale scale) {
  const bool full = scale == Scale::kFull;
  if (workload == "plan_private") {
    return full ? std::vector<uint64_t>{1, 2, 3, 4, 5, 6, 7, 8}
                : std::vector<uint64_t>{1, 2};
  }
  if (workload == "plan_synthetic") return {1, 2, 3};
  if (workload == "serve_churn") return {1};
  throw std::invalid_argument("unknown workload '" + workload + "'");
}

}  // namespace

std::vector<mc3::Instance> GenerateWorkload(const std::string& workload,
                                            uint64_t seed, Scale scale) {
  const bool full = scale == Scale::kFull;
  std::vector<mc3::Instance> out;
  mc3::Rng rng(seed);
  for (uint64_t dataset_seed : DatasetSeeds(workload, scale)) {
    if (workload == "plan_private") {
      // Table 1's P dataset: 10k queries, k <= 6, 77% short.
      mc3::data::PrivateConfig config;
      config.seed = dataset_seed;
      if (!full) {
        config.electronics_queries = 550;
        config.home_garden_queries = 350;
        config.fashion_queries = 100;
      }
      out.push_back(
          Shuffled(mc3::data::GeneratePrivate(config).instance, &rng));
    } else if (workload == "plan_synthetic") {
      // Section 6.1's generator at n = 20k.
      mc3::data::SyntheticConfig config;
      config.seed = dataset_seed;
      config.num_queries = full ? 20000 : 2000;
      out.push_back(Shuffled(mc3::data::GenerateSynthetic(config), &rng));
    } else {
      // 1000 independent domains of 15 queries: ~15k queries in ~1000
      // components, so each update re-solves one small component. The
      // client's request stream is what the seed varies.
      mc3::online::ShardedSyntheticConfig config;
      config.num_domains = 1000;  // one size: see Scale
      config.domain.num_queries = 15;
      config.domain.seed = dataset_seed;
      out.push_back(mc3::online::GenerateShardedSynthetic(config));
    }
  }
  return out;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0;
  std::sort(values->begin(), values->end());
  const double rank = q * static_cast<double>(values->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values->size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return (*values)[lo] + frac * ((*values)[hi] - (*values)[lo]);
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

uint64_t CounterValue(const mc3::obs::MetricsSnapshot& snap,
                      const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double CalibrationSeconds() {
  const auto start = std::chrono::steady_clock::now();
  // Short sorted id lists counted in a hash map, the shape of the solvers'
  // PropertySet maps, then a sort of their hashes.
  struct ListHash {
    size_t operator()(const std::vector<uint32_t>& v) const {
      uint64_t h = 1469598103934665603ull;
      for (uint32_t x : v) h = (h ^ x) * 1099511628211ull;
      return static_cast<size_t>(h);
    }
  };
  std::unordered_map<std::vector<uint32_t>, uint32_t, ListHash> counts;
  std::vector<uint64_t> hashes;
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < 50000; ++i) {
    std::vector<uint32_t> list(1 + next() % 4);
    for (uint32_t& id : list) id = static_cast<uint32_t>(next() % 3000);
    std::sort(list.begin(), list.end());
    hashes.push_back(ListHash()(list));
    ++counts[std::move(list)];
  }
  std::sort(hashes.begin(), hashes.end());
  if (counts.size() + hashes.size() == 0) std::abort();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"plan_cost", "cost"},     {"throughput_per_s", "1/s"},
      {"op_p50_ms", "ms"},       {"op_tail_ms", "ms"},
      {"read_p50_ms", "ms"},     {"read_tail_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"data.load_s", "s"},
      {"core.preprocess_s", "s"},
      {"core.preprocess.step1_s", "s"},
      {"core.preprocess.step3_s", "s"},
      {"core.preprocess.step4_s", "s"},
      {"core.preprocess.partition_s", "s"},
      {"core.preprocess.removed", "count"},
      {"core.preprocess.covered_ratio", "ratio"},
      {"core.components", "count"},
      {"core.wsc_reduce_s", "s"},
      {"core.wsc.elements", "count"},
      {"core.wsc.sets", "count"},
      {"setcover.greedy_s", "s"},
      {"setcover.primal_dual_s", "s"},
      {"setcover.heap_pops", "count"},
      {"setcover.lazy_reevals", "count"},
      {"setcover.kept_ratio", "ratio"},
      {"flow.k2_s", "s"},
      {"flow.k2_components", "count"},
      {"flow.augmenting_paths", "count"},
      {"flow.edges_scanned", "count"},
      {"core.verify_s", "s"},
      {"core.prune_s", "s"},
      {"core.pruned", "count"},
      {"online.apply_ms", "ms"},
      {"online.components_resolved_per_op", "count"},
      {"online.queries_touched_per_op", "count"},
      {"server.queue_wait_ms", "ms"},
      {"server.coalesce_ms", "ms"},
      {"server.shard_apply_ms", "ms"},
      {"server.serialize_ms", "ms"},
      {"server.update_ms", "ms"},
      {"server.solve_ms", "ms"},
      {"server.batch_size", "count"},
      {"server.engine_busy_ratio", "ratio"},
      {"server.queue_depth_max", "count"},
      {"server.rejected", "count"},
      {"durability.wal_durable_ms", "ms"},
      {"durability.records_per_sync", "count"},
      {"durability.bytes_per_update", "bytes"},
      {"concurrency.read_acquire_ms", "ms"},
      {"concurrency.read_render_ms", "ms"},
      {"net.rtt_floor_ms", "ms"},
      {"net.unattributed_update_ms", "ms"},
      {"net.unattributed_read_ms", "ms"},
      {"client.gen_lag_p99_ms", "ms"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return specs;
}

void PrintReport(Report report, const std::vector<MetricSpec>& specs) {
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : specs) {
    Metric metric{spec.name, 0, spec.unit, 0, std::nullopt};
    for (const Metric& measured : report.metrics) {
      if (measured.name == spec.name) metric = measured;
    }
    if (metric.unit != spec.unit) {
      throw std::logic_error("metric " + metric.name + " has unit " +
                             metric.unit + ", expected " + spec.unit);
    }
    ordered.push_back(metric);
  }
  for (const Metric& measured : report.metrics) {
    bool known = false;
    for (const MetricSpec& spec : specs) known |= measured.name == spec.name;
    if (!known) throw std::logic_error("unlisted metric " + measured.name);
  }
  report.metrics = std::move(ordered);
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  mc3::obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("correct").Bool(report.correct);
  writer.Key("attempted").Int(report.attempted);
  writer.Key("failed").Int(report.failed);
  writer.Key("host_speed").Number(report.host_speed);
  writer.Key("metrics").BeginObject();
  for (const Metric& metric : report.metrics) {
    writer.Key(metric.name).BeginObject();
    writer.Key("value").Number(std::isfinite(metric.value) ? metric.value : 0);
    writer.Key("unit").String(metric.unit);
    writer.Key("count").Number(metric.count);
    if (metric.raw) writer.Key("raw").Number(*metric.raw);
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
  std::printf("%s\n", writer.Take().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
