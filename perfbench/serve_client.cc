// serve_churn client. One process, three threads (sender, receiver,
// scraper) and four connections: one for updates, two for reads, one for
// control (pings, scrapes, the final checks).
//
// * Open loop: requests are due at Poisson arrival times of the offered
//   rate, sent then whatever the server does;
//   latency runs from the due time to the response, so a stall also charges
//   the requests queued behind it. How late the sender ran is reported as
//   client.gen_lag_p99_ms.
// * The mix is the repository's read-heavy churn mix (95% `solve` reads, 5%
//   updates, as scripts/read_sweep.sh offers it). Updates are
//   ChurnGenerator::Next(1, 1) batches (one live query retired, one retired
//   query revived), so the live set keeps its size. They all go over load
//   connection 0, whose requests the server applies in order, so the client
//   knows the server's final live set exactly. Reads alternate over
//   connections 1 and 2.
// * A warm-up is discarded; the control connection scrapes the server's
//   `metrics` and `health` at both ends of the window, and the server-side
//   numbers are the differences.
// * Checks: every request answered 200; the final served plan covers the
//   final live set and equals an in-process replay of the same updates; the
//   window is stationary (its halves agree, no backlog builds).
#include "serve_client.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "data/io.h"
#include "obs/exposition.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "online/churn.h"
#include "online/online_engine.h"
#include "online/sharded_engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using mc3::Instance;
using mc3::PropertySet;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// A blocking TCP connection to the server on localhost with Nagle off on
/// the client side (the server's own sockets are left as the server sets
/// them).
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to port " +
                               std::to_string(port));
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{};
    timeout.tv_usec = 200000;  // closed-loop calls re-check their deadline
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Connection() { ::close(fd_); }
  int fd() const { return fd_; }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void Send(const std::string& line) {
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads what is available and appends each complete line to `lines`.
  /// Returns false on EOF or error; a receive timeout returns true with no
  /// new lines.
  bool ReadLines(std::vector<std::string>* lines) {
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return false;
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    pending_.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (size_t nl; (nl = pending_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->push_back(pending_.substr(start, nl - start));
    }
    pending_.erase(0, start);
    return true;
  }

  /// Closed-loop call: sends one request line and waits for its response.
  std::string Call(const std::string& request) {
    Send(request + "\n");
    std::vector<std::string> lines;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(30);
    while (lines.empty()) {
      if (!ReadLines(&lines) || Clock::now() > deadline) {
        throw std::runtime_error("no response to " + request);
      }
    }
    return lines.front();
  }

 private:
  int fd_ = -1;
  std::string pending_;
};

/// Integer member `key` of a compact response line, -1 when absent. The
/// server renders "id" and "code" before any payload, so a prefix scan is
/// exact and keeps the receive path cheap.
long long FindInt(const std::string& line, const char* key) {
  const size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  return std::strtoll(line.c_str() + at + std::strlen(key), nullptr, 10);
}

mc3::obs::JsonValue ParseResponse(const std::string& line) {
  auto parsed = mc3::obs::ParseJson(line);
  if (!parsed.ok()) throw std::runtime_error("bad response: " + line);
  return std::move(*parsed);
}

double NumberMember(const mc3::obs::JsonValue& value, const char* key) {
  const mc3::obs::JsonValue* member = value.Find(key);
  if (member == nullptr || !member->is_number()) {
    throw std::runtime_error(std::string("response lacks ") + key);
  }
  return member->number;
}

/// One scrape of the server: its metrics exposition and queue depth.
struct Scrape {
  std::vector<mc3::obs::ParsedSample> samples;
  double queue_depth = 0;
  Clock::time_point at;
};

Scrape TakeScrape(Connection* control) {
  Scrape scrape;
  scrape.at = Clock::now();
  const auto metrics =
      ParseResponse(control->Call(R"({"op":"metrics","id":1000000001})"));
  const mc3::obs::JsonValue* body = metrics.Find("body");
  if (body == nullptr || !body->is_string()) {
    throw std::runtime_error("metrics response lacks a body");
  }
  auto samples = mc3::obs::ParseExposition(body->string);
  if (!samples.ok()) throw std::runtime_error(samples.status().ToString());
  scrape.samples = std::move(*samples);
  scrape.queue_depth = NumberMember(
      ParseResponse(control->Call(R"({"op":"health","id":1000000002})")),
      "queue_depth");
  return scrape;
}

double SampleValue(const Scrape& scrape, const std::string& name) {
  const mc3::obs::ParsedSample* sample =
      mc3::obs::FindSample(scrape.samples, name);
  return sample == nullptr ? 0 : sample->value;
}

double CounterDelta(const Scrape& from, const Scrape& to,
                    const std::string& raw) {
  const std::string name = mc3::obs::PrometheusName(raw) + "_total";
  return SampleValue(to, name) - SampleValue(from, name);
}

/// The window's share of server histogram `raw`: bucket, count and sum
/// differences of the two scrapes, with the program's own percentile math.
mc3::obs::HistogramSnapshot HistogramDelta(const Scrape& from, const Scrape& to,
                                           const std::string& raw) {
  const std::string name = mc3::obs::PrometheusName(raw);
  auto cumulative = [&](const Scrape& scrape) {
    std::vector<double> counts;
    for (const mc3::obs::ParsedSample& sample : scrape.samples) {
      if (sample.name == name + "_bucket" && sample.labels.count("le") &&
          sample.labels.at("le") != "+Inf") {
        counts.push_back(sample.value);
      }
    }
    return counts;
  };
  const std::vector<double> before = cumulative(from);
  const std::vector<double> after = cumulative(to);
  mc3::obs::HistogramSnapshot snap;
  snap.count = static_cast<uint64_t>(SampleValue(to, name + "_count") -
                                     SampleValue(from, name + "_count"));
  snap.sum = SampleValue(to, name + "_sum") - SampleValue(from, name + "_sum");
  double previous = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    const double delta = after[i] - (i < before.size() ? before[i] : 0);
    snap.buckets.push_back(static_cast<uint64_t>(delta - previous));
    if (snap.buckets.back() > 0) {
      snap.max = mc3::obs::HistogramBucketBound(static_cast<int>(i) + 1);
    }
    previous = delta;
  }
  return snap;
}

/// A scheduled request of the open loop.
struct Request {
  double due = 0;  ///< seconds after t0
  bool update = false;
  int conn = 0;
  std::string line;
  // Filled in by the run.
  Clock::time_point sent{};
  Clock::time_point answered{};
  int code = 0;
};

/// The request mix, the update batches in send order and the final live set.
struct Schedule {
  /// Retires a tenth of the base before the run, so that every later
  /// Next(1, 1) revives a different query than it removes.
  mc3::online::ChurnGenerator::Batch prime;
  std::string prime_line;
  std::vector<Request> requests;
  std::vector<mc3::online::ChurnGenerator::Batch> updates;
  std::vector<PropertySet> final_live;
};

void AppendNames(const Instance& base, const PropertySet& query,
                 mc3::obs::JsonWriter* writer) {
  writer->BeginArray();
  for (mc3::PropertyId id : query) {
    writer->String(base.property_names().at(id));
  }
  writer->EndArray();
}

// The request mix: the read-heavy 95/5 churn mix the repository measures
// its read path with (scripts/read_sweep.sh runs `mc3_loadgen --read-ratio
// 0.95`, whose reads are plain `solve`s). It repeats in blocks of kMixBlock
// requests holding exact shares in a seeded order.
constexpr double kUpdateShare = 0.05;
constexpr size_t kMixBlock = 200;
constexpr int kLoadConnections = 3;
// The offered load in requests per second over the load connections, and
// the discarded warm-up before the window (calibration: README.md).
constexpr double kOfferedRate = 400;
constexpr double kWarmupSeconds = 2;
// Latency tail: the highest percentile a 25 s window holds at least ten
// updates beyond (10 of ~500).
constexpr double kTail = 0.98;
// Spacing of the host-speed kernel's runs (~15 ms each) through the window:
// ~7% of one of the host's cores.
constexpr std::chrono::milliseconds kSpeedInterval{200};
// Stationarity: each half of the window must answer updates and reads with
// a p50 within this factor of the other half's (README.md gives the spread
// the recorded runs showed), and the queue may not grow by more than
// kMaxDepthGrowth requests.
constexpr double kHalfP50Ratio = 2;
constexpr double kMaxDepthGrowth = 64;
// Self-test (--drift): second-half latencies are scaled by this factor, a
// drift the stationarity check must catch.
constexpr double kDriftFactor = 3;

std::string UpdateLine(const Instance& base, uint64_t id,
                       const mc3::online::ChurnGenerator::Batch& batch) {
  mc3::obs::JsonWriter writer(/*compact=*/true);
  writer.BeginObject();
  writer.Key("op").String("update").Key("id").Int(id);
  writer.Key("add").BeginArray();
  for (const PropertySet& q : batch.add) AppendNames(base, q, &writer);
  writer.EndArray().Key("remove").BeginArray();
  for (const PropertySet& q : batch.remove) AppendNames(base, q, &writer);
  writer.EndArray().EndObject();
  return writer.Take() + "\n";
}

Schedule BuildSchedule(const Instance& base, const ServeOptions& options) {
  Schedule schedule;
  mc3::Rng rng(options.seed);
  mc3::online::ChurnGenerator churn(base, options.seed ^ 0x5eedULL);
  std::unordered_set<PropertySet, mc3::PropertySetHash> live(
      base.queries().begin(), base.queries().end());
  auto apply = [&live](const mc3::online::ChurnGenerator::Batch& batch) {
    for (const PropertySet& q : batch.remove) live.erase(q);
    for (const PropertySet& q : batch.add) live.insert(q);
  };
  // Poisson arrivals at the offered rate over warmup + window (a fixed grid
  // would phase-lock the client's sends with the server's delayed
  // responses and make latency jump between modes from seed to seed).
  std::vector<double> dues;
  for (double t = 0;;) {
    t += -std::log(1 - rng.UniformDouble()) / kOfferedRate;
    if (t >= kWarmupSeconds + options.seconds) break;
    dues.push_back(t);
  }
  const size_t total = dues.size();
  schedule.prime = churn.Next(0, base.NumQueries() / 10);
  schedule.prime_line = UpdateLine(base, total + 1, schedule.prime);
  apply(schedule.prime);
  // Exact shares per block, in a seeded order, so every seed offers the
  // same load.
  std::vector<char> block(kMixBlock, 0);  // 1: update, 0: read
  std::fill_n(block.begin(),
              static_cast<size_t>(std::llround(kMixBlock * kUpdateShare)), 1);
  size_t reads = 0;
  for (size_t i = 0; i < total; ++i) {
    if (i % kMixBlock == 0) {
      for (size_t j = block.size() - 1; j > 0; --j) {
        std::swap(block[j], block[rng.UniformInt(0, j)]);
      }
    }
    Request request;
    request.due = dues[i];
    request.update = block[i % kMixBlock] != 0;
    if (request.update) {
      mc3::online::ChurnGenerator::Batch batch = churn.Next(1, 1);
      request.line = UpdateLine(base, i + 1, batch);
      apply(batch);
      schedule.updates.push_back(std::move(batch));
    } else {
      request.conn = 1 + static_cast<int>(reads++ % 2);
      mc3::obs::JsonWriter writer(/*compact=*/true);
      writer.BeginObject();
      writer.Key("op").String("solve").Key("id").Int(i + 1);
      writer.EndObject();
      request.line = writer.Take() + "\n";
    }
    schedule.requests.push_back(std::move(request));
  }
  schedule.final_live.assign(live.begin(), live.end());
  std::sort(schedule.final_live.begin(), schedule.final_live.end());
  return schedule;
}

/// The final live set priced by the base cost table.
Instance LiveInstance(const Instance& base,
                      const std::vector<PropertySet>& queries) {
  Instance instance;
  for (const PropertySet& q : queries) instance.AddQuery(q);
  for (const auto& [classifier, cost] : mc3::SortedCostEntries(base.costs())) {
    instance.SetCost(classifier, cost);
  }
  return instance;
}

/// Cost a fresh engine computes for `instance`, solving it anew.
mc3::Cost FreshEngineCost(const Instance& instance) {
  mc3::online::OnlineEngine engine;
  auto init = engine.Initialize(instance);
  if (!init.ok()) throw std::runtime_error(init.status().ToString());
  return engine.TotalCost();
}

/// The served plan of a `solve` response with "solution":true, mapped back
/// to the client's property ids.
mc3::Solution ServedPlan(const mc3::obs::JsonValue& response,
                         const Instance& base) {
  std::unordered_map<std::string, mc3::PropertyId> id_of;
  for (size_t i = 0; i < base.property_names().size(); ++i) {
    id_of.emplace(base.property_names()[i], static_cast<mc3::PropertyId>(i));
  }
  const mc3::obs::JsonValue* plan = response.Find("solution");
  if (plan == nullptr || !plan->is_array()) {
    throw std::runtime_error("solve response lacks the solution");
  }
  mc3::Solution solution;
  for (const mc3::obs::JsonValue& classifier : plan->array) {
    std::vector<mc3::PropertyId> ids;
    for (const mc3::obs::JsonValue& name : classifier.array) {
      auto it = id_of.find(name.string);
      if (it == id_of.end()) {
        throw std::runtime_error("served plan names unknown property " +
                                 name.string);
      }
      ids.push_back(it->second);
    }
    std::sort(ids.begin(), ids.end());
    solution.Add(PropertySet::FromSorted(std::move(ids)));
  }
  return solution;
}

/// How far the incrementally maintained plan may drift from a fresh solve
/// of the same live set (tie-break order differs; see the final check).
constexpr double kFreshCostTolerance = 0.02;

bool SameCost(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

double Ms(double seconds) { return seconds * 1e3; }

/// Replays the update stream through an in-process engine with the server's
/// shard count, the layer beneath the server: per-update apply time and
/// work, and (traced) the solver phase tree summed over all updates. Its
/// final plan must equal the served one exactly.
struct Replay {
  std::vector<double> apply_ms;
  double resolved = 0, touched = 0, k2_components = 0;
  double wall = 0;
  mc3::Cost final_cost = 0;
  std::map<std::string, double> phase_seconds;  // span name -> total
  std::map<std::string, double> counters;       // registry name -> delta
};

Replay RunReplay(const Instance& base, const Schedule& schedule,
                 uint32_t shards, bool traced) {
  static const char* kSpans[] = {"preprocess", "step1",      "step3",
                                 "step4",      "partition",  "wsc_reduce",
                                 "greedy",     "primal_dual", "k2_solver"};
  static const char* kCounters[] = {
      "flow.dinic.augmenting_paths", "flow.dinic.edges_scanned",
      "setcover.greedy.heap_pops", "setcover.greedy.lazy_reevals",
      "preprocess.classifiers_removed", "preprocess.queries_covered"};
  Replay replay;
  mc3::online::ShardedEngine engine(shards);
  auto init = engine.Initialize(base);
  if (!init.ok()) throw std::runtime_error(init.status().ToString());
  auto primed = engine.ApplyUpdate(schedule.prime.add, schedule.prime.remove);
  if (!primed.ok()) throw std::runtime_error(primed.status().ToString());
  const mc3::obs::MetricsSnapshot before =
      mc3::obs::MetricsRegistry::Global().Snap();
  const Clock::time_point start = Clock::now();
  for (const auto& batch : schedule.updates) {
    mc3::obs::Trace tree("replay");
    const Clock::time_point t = Clock::now();
    auto stats = [&] {
      if (!traced) return engine.ApplyUpdate(batch.add, batch.remove);
      mc3::obs::ScopedTraceActivation active(&tree);
      return engine.ApplyUpdate(batch.add, batch.remove);
    }();
    replay.apply_ms.push_back(Ms(Seconds(Clock::now() - t)));
    if (!stats.ok()) throw std::runtime_error(stats.status().ToString());
    replay.resolved += static_cast<double>(stats->components_resolved);
    replay.touched += static_cast<double>(stats->queries_touched);
    if (traced) {
      for (const char* span : kSpans) {
        replay.phase_seconds[span] += tree.root()->TotalSeconds(span);
      }
      replay.k2_components +=
          static_cast<double>(tree.root()->CountSpans("k2_component"));
    }
  }
  replay.wall = Seconds(Clock::now() - start);
  const mc3::obs::MetricsSnapshot after =
      mc3::obs::MetricsRegistry::Global().Snap();
  for (const char* name : kCounters) {
    replay.counters[name] = static_cast<double>(CounterValue(after, name) -
                                                CounterValue(before, name));
  }
  replay.final_cost = engine.TotalCost();
  return replay;
}

}  // namespace

int RunServeClient(const ServeOptions& options) {
  Report report;
  std::vector<double> load_seconds;
  Instance base;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t = Clock::now();
    auto loaded = mc3::data::LoadInstance(options.base_csv);
    if (!loaded.ok()) throw std::runtime_error(loaded.status().ToString());
    load_seconds.push_back(Seconds(Clock::now() - t));
    base = std::move(*loaded);
  }
  Schedule schedule = BuildSchedule(base, options);
  std::vector<Request>& requests = schedule.requests;

  Connection control(options.port);
  // The replay needs the server's shard count: stats carries one view
  // version per shard.
  const mc3::obs::JsonValue stats =
      ParseResponse(control.Call(R"({"op":"stats","id":1000000004})"));
  const mc3::obs::JsonValue* versions = stats.Find("versions");
  if (versions == nullptr || !versions->is_array() ||
      versions->array.empty()) {
    throw std::runtime_error("stats response lacks the shard versions");
  }
  const auto shards = static_cast<uint32_t>(versions->array.size());

  // Transport floor: closed-loop health pings against the idle server.
  std::vector<double> rtt_ms;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point t = Clock::now();
    control.Call(R"({"op":"health","id":1000000000})");
    rtt_ms.push_back(Ms(Seconds(Clock::now() - t)));
  }

  // Load connections: 0 updates, 1 and 2 reads.
  std::vector<std::unique_ptr<Connection>> load;
  for (int c = 0; c < kLoadConnections; ++c) {
    load.push_back(std::make_unique<Connection>(options.port));
  }
  // Retire the pool on the update connection before the open loop starts.
  const std::string primed = load[0]->Call(
      schedule.prime_line.substr(0, schedule.prime_line.size() - 1));
  if (FindInt(primed, "\"code\":") != 200) {
    throw std::runtime_error("priming update failed: " + primed);
  }

  std::atomic<bool> stop{false};
  std::atomic<size_t> answered{0};
  auto receive = [&] {
    std::vector<pollfd> fds;
    for (const auto& conn : load) fds.push_back({conn->fd(), POLLIN, 0});
    std::vector<std::string> lines;
    while (answered.load() < requests.size() && !stop.load()) {
      if (::poll(fds.data(), fds.size(), /*timeout_ms=*/200) <= 0) continue;
      for (size_t c = 0; c < fds.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        lines.clear();
        if (!load[c]->ReadLines(&lines)) fds[c].fd = -1;  // peer closed
        const Clock::time_point now = Clock::now();
        for (const std::string& line : lines) {
          const long long id = FindInt(line, "\"id\":");
          if (id < 1 || static_cast<size_t>(id) > requests.size()) continue;
          Request& r = requests[static_cast<size_t>(id) - 1];
          r.answered = now;
          r.code = static_cast<int>(FindInt(line, "\"code\":"));
          answered.fetch_add(1);
        }
      }
    }
  };

  // Host speed (HostSpeed). A latency is no operation of this process that
  // the kernel could run between, so the kernel runs every kSpeedInterval
  // on the scraper thread while the window's load runs. Only the update
  // p50 is scaled by it: that is the engine's own work. Reads and the
  // update tail are mostly waits on the server's Nagle-held responses and
  // the client's delayed ACKs (README.md), which the host's speed does not
  // move, so they are reported as measured.
  HostSpeed speed;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(50);
  auto at = [&](double seconds) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
  };
  Scrape window_start, window_end;
  std::exception_ptr scrape_error;
  {
    std::thread receiver(receive);
    std::thread scraper([&] {
      try {
        std::this_thread::sleep_until(at(kWarmupSeconds));
        window_start = TakeScrape(&control);
        while (Clock::now() + kSpeedInterval <
               at(kWarmupSeconds + options.seconds)) {
          speed.Probe();
          std::this_thread::sleep_for(kSpeedInterval);
        }
        std::this_thread::sleep_until(at(kWarmupSeconds + options.seconds));
        window_end = TakeScrape(&control);
      } catch (...) {
        scrape_error = std::current_exception();
      }
    });
    std::exception_ptr send_error;
    try {
      for (Request& r : requests) {
        std::this_thread::sleep_until(at(r.due));
        r.sent = Clock::now();
        load[static_cast<size_t>(r.conn)]->Send(r.line);
      }
    } catch (...) {
      send_error = std::current_exception();
    }
    // Every request must be answered; give stragglers a bounded grace.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
    while (answered.load() < requests.size() && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop.store(true);
    receiver.join();
    scraper.join();
    if (send_error) std::rethrow_exception(send_error);
    if (scrape_error) std::rethrow_exception(scrape_error);
  }
  report.host_speed = speed.Speed();

  // Outcomes and window statistics.
  const double window_lo = kWarmupSeconds;
  const double window_hi = kWarmupSeconds + options.seconds;
  const double half = window_lo + options.seconds / 2;
  std::vector<double> update_ms, read_ms, lag_ms;
  std::vector<double> half_update_ms[2], half_read_ms[2];
  size_t lost = 0, rejected = 0;
  // Per window half: updates due, and updates acked by the half's end.
  double due_updates[2] = {0, 0}, acked_updates[2] = {0, 0};
  double acked_in_window = 0;
  for (const Request& r : requests) {
    ++report.attempted;
    if (r.code == 0) ++lost;
    if (r.code != 200) {
      ++report.failed;
      if (r.code != 0) ++rejected;
      continue;
    }
    const double answered = Seconds(r.answered - t0);
    if (r.update && answered >= window_lo && answered <= window_hi) {
      acked_in_window += 1;
    }
    if (r.due < window_lo || r.due >= window_hi) continue;
    const int h = r.due < half ? 0 : 1;
    double latency = Ms(answered - r.due);
    if (options.drift && h == 1) latency *= kDriftFactor;
    lag_ms.push_back(Ms(Seconds(r.sent - t0) - r.due));
    if (r.update) {
      update_ms.push_back(latency);
      half_update_ms[h].push_back(latency);
      due_updates[h] += 1;
      if (answered <= (h == 0 ? half : window_hi)) acked_updates[h] += 1;
    } else {
      read_ms.push_back(latency);
      half_read_ms[h].push_back(latency);
    }
  }
  // Updates acked per second in the window, as a share of the offered
  // update rate: equal to it unless a backlog builds.
  const double offered_ups = kOfferedRate * kUpdateShare;
  const double achieved_ups =
      acked_in_window / (due_updates[0] + due_updates[1]) * offered_ups;
  if (lost > 0) report.Fail(std::to_string(lost) + " requests got no response");
  if (rejected > 0) {
    report.Fail(std::to_string(rejected) + " requests answered non-200");
  }
  // Stationarity: the halves of the window agree and no backlog builds.
  const double depth_growth = window_end.queue_depth - window_start.queue_depth;
  const std::pair<const char*, std::vector<double>*> kinds[] = {
      {"update", half_update_ms}, {"read", half_read_ms}};
  for (const auto& [kind, halves] : kinds) {
    const double first = Median(halves[0]), second = Median(halves[1]);
    std::fprintf(stderr, "serve_churn: window halves %s p50 %.3f / %.3f ms\n",
                 kind, first, second);
    if (std::max(first, second) > kHalfP50Ratio * std::min(first, second)) {
      report.Fail(std::string("window halves disagree: ") + kind + " p50 " +
                  std::to_string(first) + " ms, then " +
                  std::to_string(second) + " ms: not stationary");
    }
  }
  for (int h = 0; h < 2; ++h) {
    if (acked_updates[h] < 0.9 * due_updates[h]) {
      report.Fail("window half " + std::to_string(h + 1) +
                  " acked fewer than 90% of its updates in time: backlog");
    }
  }
  if (depth_growth > kMaxDepthGrowth) {
    report.Fail("queue depth grew by " + std::to_string(depth_growth) +
                " over the window: backlog");
  }

  // Final plan checks. The served plan must cover the final live set at the
  // cost the server reports, and must equal an in-process replay of the same
  // update stream exactly. A fresh engine solving the final live set anew
  // visits the queries in another order, and the solvers' tie-breaks
  // depend on that order, so its cost is compared within a tolerance only.
  const mc3::obs::JsonValue final_solve = ParseResponse(
      control.Call(R"({"op":"solve","id":1000000003,"solution":true})"));
  double served_cost = NumberMember(final_solve, "cost");
  if (options.corrupt) served_cost += 1;
  const Instance final_instance = LiveInstance(base, schedule.final_live);
  if (NumberMember(final_solve, "queries") !=
      static_cast<double>(final_instance.NumQueries())) {
    report.Fail("server holds a different number of live queries");
  }
  const mc3::Solution served_plan = ServedPlan(final_solve, base);
  if (!mc3::Covers(final_instance, served_plan)) {
    report.Fail("served plan does not cover the final live set");
  }
  if (!SameCost(served_plan.TotalCost(final_instance), served_cost)) {
    report.Fail("served plan prices at " +
                std::to_string(served_plan.TotalCost(final_instance)) +
                ", server reports " + std::to_string(served_cost));
  }
  const mc3::Cost fresh_cost = FreshEngineCost(final_instance);
  std::fprintf(stderr, "serve_churn: served cost %.0f, fresh engine %.0f\n",
               served_cost, fresh_cost);
  if (std::fabs(served_cost / fresh_cost - 1) > kFreshCostTolerance) {
    report.Fail("served cost " + std::to_string(served_cost) +
                " is off the fresh engine's " + std::to_string(fresh_cost) +
                " by more than the tolerance");
  }
  const Replay plain = RunReplay(base, schedule, shards, false);
  if (!SameCost(plain.final_cost, served_cost)) {
    report.Fail("replayed cost " + std::to_string(plain.final_cost) +
                " != served cost " + std::to_string(served_cost));
  }

  const double window_updates = static_cast<double>(update_ms.size());
  const double window_reads = static_cast<double>(read_ms.size());
  if (!options.trace) {
    report.Add("plan_cost", served_cost, "cost", 1);
    report.Add("throughput_per_s", achieved_ups, "1/s", acked_in_window);
    const double update_p50 = Quantile(&update_ms, 0.5);
    report.AddScaled("op_p50_ms", update_p50, update_p50 * report.host_speed,
                     "ms", window_updates);
    report.Add("op_tail_ms", Quantile(&update_ms, kTail), "ms", window_updates);
    report.Add("read_p50_ms", Quantile(&read_ms, 0.5), "ms", window_reads);
    report.Add("read_tail_ms", Quantile(&read_ms, kTail), "ms", window_reads);
    const bool ok = report.correct;
    PrintReport(std::move(report), EndToEndMetrics());
    return ok ? 0 : 1;
  }

  // Server layers: stage histograms and counters over the window.
  const Scrape& a = window_start;
  const Scrape& b = window_end;
  auto stage_mean_ms = [&](const char* name, const char* raw) {
    const mc3::obs::HistogramSnapshot h = HistogramDelta(a, b, raw);
    report.Add(name, Ms(h.Mean()), "ms", static_cast<double>(h.count));
    return Ms(h.Mean());
  };
  double attributed = 0;
  attributed += stage_mean_ms("server.queue_wait_ms",
                              "server.stage.queue_wait.update");
  attributed +=
      stage_mean_ms("server.coalesce_ms", "server.stage.coalesce.update");
  attributed += stage_mean_ms("server.shard_apply_ms",
                              "server.stage.shard_apply.update");
  attributed += stage_mean_ms("durability.wal_durable_ms",
                              "server.stage.wal_durable.update");
  attributed += stage_mean_ms("server.serialize_ms",
                              "server.stage.serialize.update");
  stage_mean_ms("concurrency.read_acquire_ms", "server.read.acquire.solve");
  stage_mean_ms("concurrency.read_render_ms", "server.read.render.solve");
  // Engine worker busy share. An update's latency past its queue wait is
  // the service time of its batch (coalesce, apply, log, publish views,
  // ack), so summing that over requests and dividing by the mean batch size
  // estimates the worker's busy time in the window.
  const mc3::obs::HistogramSnapshot latency_update =
      HistogramDelta(a, b, "server.latency.update");
  const mc3::obs::HistogramSnapshot queue_wait =
      HistogramDelta(a, b, "server.stage.queue_wait.update");
  const mc3::obs::HistogramSnapshot batches =
      HistogramDelta(a, b, "server.batch_size");
  const double window_s = Seconds(b.at - a.at);
  report.Add("server.engine_busy_ratio",
             batches.Mean() > 0 ? (latency_update.sum - queue_wait.sum) /
                                      batches.Mean() / window_s
                                : 0,
             "ratio", static_cast<double>(batches.count));
  const mc3::obs::HistogramSnapshot server_update =
      HistogramDelta(a, b, "server.latency.update");
  const mc3::obs::HistogramSnapshot server_solve =
      HistogramDelta(a, b, "server.latency.solve");
  report.Add("server.update_ms", Ms(server_update.P50()), "ms",
             static_cast<double>(server_update.count));
  report.Add("server.solve_ms", Ms(server_solve.P50()), "ms",
             static_cast<double>(server_solve.count));
  const mc3::obs::HistogramSnapshot batch =
      HistogramDelta(a, b, "server.batch_size");
  report.Add("server.batch_size", batch.Mean(), "count",
             static_cast<double>(batch.count));
  report.Add("server.queue_depth_max",
             SampleValue(b, mc3::obs::PrometheusName("server.queue_depth_max")),
             "count", 1);
  report.Add("server.rejected", CounterDelta(a, b, "server.rejected"), "count",
             window_updates);
  const double syncs = CounterDelta(a, b, "durability.wal_syncs");
  const double records = CounterDelta(a, b, "durability.wal_records_appended");
  report.Add("durability.records_per_sync", syncs > 0 ? records / syncs : 0,
             "count", syncs);
  report.Add("durability.bytes_per_update",
             acked_in_window > 0
                 ? CounterDelta(a, b, "durability.wal_bytes_appended") /
                       acked_in_window
                 : 0,
             "bytes", acked_in_window);

  // Transport: what the client saw beyond what the server accounts for.
  report.Add("net.rtt_floor_ms", Median(rtt_ms), "ms",
             static_cast<double>(rtt_ms.size()));
  report.Add("net.unattributed_update_ms",
             Median(update_ms) - Ms(server_update.P50()), "ms", window_updates);
  report.Add("net.unattributed_read_ms",
             Median(read_ms) - Ms(server_solve.P50()), "ms", window_reads);
  report.Add("client.gen_lag_p99_ms", Quantile(&lag_ms, 0.99), "ms",
             static_cast<double>(lag_ms.size()));

  // Engine and solver layers: replay the update stream in process, once
  // plain (apply times, tracing overhead baseline) and once traced.
  const Replay traced = RunReplay(base, schedule, shards, true);
  if (!SameCost(traced.final_cost, served_cost)) {
    report.Fail("traced replay cost " + std::to_string(traced.final_cost) +
                " != served cost " + std::to_string(served_cost));
  }
  const double ops = static_cast<double>(schedule.updates.size());
  std::vector<double> apply_ms = plain.apply_ms;
  report.Add("online.apply_ms", Median(apply_ms), "ms", ops);
  report.Add("online.components_resolved_per_op", plain.resolved / ops, "count",
             ops);
  report.Add("online.queries_touched_per_op", plain.touched / ops, "count",
             ops);
  const auto& phase = traced.phase_seconds;
  report.Add("data.load_s", Median(load_seconds), "s",
             static_cast<double>(load_seconds.size()));
  report.Add("core.preprocess_s", phase.at("preprocess"), "s", ops);
  report.Add("core.preprocess.step1_s", phase.at("step1"), "s", ops);
  report.Add("core.preprocess.step3_s", phase.at("step3"), "s", ops);
  report.Add("core.preprocess.step4_s", phase.at("step4"), "s", ops);
  report.Add("core.preprocess.partition_s", phase.at("partition"), "s", ops);
  report.Add("core.preprocess.removed",
             traced.counters.at("preprocess.classifiers_removed"), "count",
             ops);
  report.Add("core.preprocess.covered_ratio",
             traced.touched > 0
                 ? traced.counters.at("preprocess.queries_covered") /
                       traced.touched
                 : 0,
             "ratio", traced.touched);
  report.Add("core.components", traced.resolved, "count", ops);
  report.Add("core.wsc_reduce_s", phase.at("wsc_reduce"), "s", ops);
  report.Add("setcover.greedy_s", phase.at("greedy"), "s", ops);
  report.Add("setcover.primal_dual_s", phase.at("primal_dual"), "s", ops);
  report.Add("setcover.heap_pops",
             traced.counters.at("setcover.greedy.heap_pops"), "count", ops);
  report.Add("setcover.lazy_reevals",
             traced.counters.at("setcover.greedy.lazy_reevals"), "count", ops);
  report.Add("flow.k2_s", phase.at("k2_solver"), "s", ops);
  report.Add("flow.k2_components", traced.k2_components, "count", ops);
  report.Add("flow.augmenting_paths",
             traced.counters.at("flow.dinic.augmenting_paths"), "count", ops);
  report.Add("flow.edges_scanned",
             traced.counters.at("flow.dinic.edges_scanned"), "count", ops);
  report.Add("trace.coverage",
             server_update.Mean() > 0 ? attributed / Ms(server_update.Mean())
                                      : 0,
             "ratio", static_cast<double>(server_update.count));
  report.Add("trace.overhead", traced.wall / plain.wall - 1, "ratio", ops);
  const bool ok = report.correct;
  PrintReport(std::move(report), PerLayerMetrics());
  return ok ? 0 : 1;
}

}  // namespace perfbench
