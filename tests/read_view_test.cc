// Incremental read views (src/online/read_view.h,
// docs/serving.md#lock-free-reads): a view is one shared, immutable piece
// per component, built when the component is committed. These tests pin
// down the two halves of that contract under seeded churn at 1, 2 and 4
// shards:
//
//   * equivalence — after every batch the views hold exactly what a
//     from-scratch render holds: CurrentSolution().Sorted() with CostOf
//     prices, and a classifier count equal to the merged size. This covers
//     cross-shard migrations, ImportState/recovery, a re-price through
//     SetCost and, through a live server, the per-request fallback of an
//     infeasible coalesced batch;
//   * O(batch) publishing — the pieces of untouched components are
//     pointer-identical across publishes: a batch adds exactly the pieces
//     of the components it re-solved and drops exactly those it dirtied.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/instance.h"
#include "core/solution.h"
#include "obs/json.h"
#include "online/churn.h"
#include "online/online_engine.h"
#include "online/read_view.h"
#include "online/sharded_engine.h"
#include "server/server.h"

namespace mc3 {
// Readable failure messages: classifiers print as id sets, not raw bytes.
void PrintTo(const PropertySet& set, std::ostream* os) {
  *os << set.ToString();
}
}  // namespace mc3

namespace mc3::online {
namespace {

using Priced = std::vector<std::pair<PropertySet, Cost>>;
using Views = std::vector<const EngineReadView*>;

/// A few dozen small independent domains: enough components to spread over
/// four shards, small enough to re-solve in microseconds.
Instance ChurnBase(uint64_t seed) {
  ShardedSyntheticConfig config;
  config.num_domains = 24;
  config.domain.num_queries = 8;
  config.domain.max_query_length = 3;
  config.domain.seed = seed;
  Instance base = GenerateShardedSynthetic(config);
  PropertyId max_id = 0;
  for (const PropertySet& q : base.queries()) {
    max_id = std::max(max_id, *(q.end() - 1));
  }
  std::vector<std::string> names;
  for (PropertyId id = 0; id <= max_id; ++id) {
    names.push_back("p" + std::to_string(id));
  }
  base.set_property_names(std::move(names));
  return base;
}

/// The from-scratch render the views must equal.
template <typename Engine>
Priced FromScratch(const Engine& engine) {
  Priced out;
  for (PropertySet& classifier : engine.CurrentSolution().Sorted()) {
    const Cost cost = engine.CostOf(classifier);
    out.emplace_back(std::move(classifier), cost);
  }
  return out;
}

std::vector<EngineReadView> BuildViews(const ShardedEngine& engine,
                                       uint64_t version) {
  std::vector<EngineReadView> views;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    views.push_back(BuildReadView(engine.shard(s), version));
  }
  return views;
}

Views Pointers(const std::vector<EngineReadView>& views) {
  Views out;
  for (const EngineReadView& view : views) out.push_back(&view);
  return out;
}

void ExpectViewsMatch(const ShardedEngine& engine, const Views& views) {
  ASSERT_EQ(views.size(), engine.num_shards());
  size_t count = 0;
  for (uint32_t s = 0; s < engine.num_shards(); ++s) {
    const OnlineEngine& shard = engine.shard(s);
    EXPECT_EQ(views[s]->num_queries, shard.NumQueries()) << "shard " << s;
    EXPECT_EQ(views[s]->pieces.size(), shard.NumComponents())
        << "shard " << s;
    EXPECT_EQ(MergeViewClassifiers({views[s]}), FromScratch(shard))
        << "shard " << s;
    count += views[s]->num_classifiers;
  }
  const Priced merged = MergeViewClassifiers(views);
  EXPECT_EQ(merged, FromScratch(engine));
  EXPECT_EQ(count, merged.size());
  EXPECT_EQ(count, engine.CurrentSolution().size());
}

/// How the pieces of `after` relate to those of `before` by address.
struct PieceDelta {
  size_t kept = 0;     ///< shared with `before` (untouched components)
  size_t fresh = 0;    ///< new since `before` (re-solved components)
  size_t dropped = 0;  ///< in `before` only (dirtied components)
};

/// `before` must still be alive, so no freed piece's address is reused.
PieceDelta Diff(const Views& before, const Views& after) {
  std::set<const ViewPiece*> old;
  for (const EngineReadView* view : before) {
    for (const auto& piece : view->pieces) old.insert(piece.get());
  }
  PieceDelta delta;
  for (const EngineReadView* view : after) {
    for (const auto& piece : view->pieces) {
      if (old.count(piece.get()) > 0) {
        ++delta.kept;
      } else {
        ++delta.fresh;
      }
    }
  }
  delta.dropped = old.size() - delta.kept;
  return delta;
}

/// A query joining the first live component to the first one placed on
/// another shard: the router migrates one side. Coverable through the
/// base's singleton prices.
PropertySet Bridge(const ShardedEngine& engine) {
  const ShardedState state = engine.ExportSharded();
  const std::vector<EngineState::Component>& components =
      state.state.components;
  for (size_t i = 1; i < components.size(); ++i) {
    if (state.component_shards[i] != state.component_shards[0]) {
      return PropertySet::FromUnsorted({components[0].queries[0].ids()[0],
                                        components[i].queries[0].ids()[0]});
    }
  }
  ADD_FAILURE() << "every live component sits on one shard";
  return components[0].queries[0];
}

/// Applies `add`/`remove`, then checks the new views against a from-scratch
/// render and against `*views` piece by piece; `*views` becomes the new set.
void ApplyAndCheck(ShardedEngine* engine, const std::vector<PropertySet>& add,
                   const std::vector<PropertySet>& remove,
                   std::vector<EngineReadView>* views) {
  auto stats = engine->ApplyUpdate(add, remove);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  std::vector<EngineReadView> next =
      BuildViews(*engine, views->front().version + 1);
  ExpectViewsMatch(*engine, Pointers(next));
  const PieceDelta delta = Diff(Pointers(*views), Pointers(next));
  EXPECT_EQ(delta.fresh, stats->components_resolved);
  EXPECT_EQ(delta.dropped, stats->components_dirtied);
  *views = std::move(next);
}

class ReadViewEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ReadViewEquivalenceTest, ChurnWithMigrationsMatchesFromScratch) {
  const uint32_t shards = GetParam();
  const Instance base = ChurnBase(11);
  ShardedEngine engine(shards);
  ASSERT_TRUE(engine.Initialize(base).ok());
  std::vector<EngineReadView> views = BuildViews(engine, 1);
  ExpectViewsMatch(engine, Pointers(views));

  ChurnGenerator churn(base, 5);
  for (int step = 0; step < 40; ++step) {
    ChurnGenerator::Batch batch = churn.Next(3, 3);
    if (shards > 1 && step % 5 == 4) batch.add.push_back(Bridge(engine));
    ApplyAndCheck(&engine, batch.add, batch.remove, &views);
    if (::testing::Test::HasFailure()) return;
  }
  ASSERT_TRUE(engine.CheckInvariants().ok());
  if (shards > 1) {
    EXPECT_GT(engine.migrated_total(), 0u);
  }
}

TEST_P(ReadViewEquivalenceTest, RepriceReplacesOnlyTheOwningPiece) {
  const uint32_t shards = GetParam();
  const Instance base = ChurnBase(12);
  ShardedEngine engine(shards);
  ASSERT_TRUE(engine.Initialize(base).ok());
  const std::vector<EngineReadView> before = BuildViews(engine, 1);

  const PropertySet bought = engine.CurrentSolution().Sorted().front();
  const Cost old_price = engine.CostOf(bought);
  ASSERT_TRUE(engine.SetCost(bought, old_price + 7).ok());
  const std::vector<EngineReadView> after = BuildViews(engine, 2);
  ExpectViewsMatch(engine, Pointers(after));
  const PieceDelta delta = Diff(Pointers(before), Pointers(after));
  EXPECT_EQ(delta.fresh, 1u);
  EXPECT_EQ(delta.dropped, 1u);
  // A published view is immutable: the earlier one keeps the old price.
  EXPECT_EQ(MergeViewClassifiers(Pointers(before)).front(),
            std::make_pair(bought, old_price));
  EXPECT_EQ(MergeViewClassifiers(Pointers(after)).front(),
            std::make_pair(bought, old_price + 7));
  ASSERT_TRUE(engine.CheckInvariants().ok());
}

TEST_P(ReadViewEquivalenceTest, ImportedStateKeepsPublishingIncrementally) {
  const uint32_t shards = GetParam();
  const Instance base = ChurnBase(13);
  ShardedEngine engine(shards);
  ASSERT_TRUE(engine.Initialize(base).ok());
  ChurnGenerator churn(base, 6);
  for (int step = 0; step < 10; ++step) {
    ChurnGenerator::Batch batch = churn.Next(4, 4);
    ASSERT_TRUE(engine.ApplyUpdate(batch.add, batch.remove).ok());
  }

  ShardedEngine restored(shards);
  ASSERT_TRUE(restored.ImportSharded(engine.ExportSharded()).ok());
  std::vector<EngineReadView> views = BuildViews(restored, 1);
  ExpectViewsMatch(restored, Pointers(views));
  EXPECT_EQ(MergeViewClassifiers(Pointers(views)),
            MergeViewClassifiers(Pointers(BuildViews(engine, 1))));
  for (int step = 0; step < 10; ++step) {
    ChurnGenerator::Batch batch = churn.Next(4, 4);
    if (shards > 1 && step == 3) batch.add.push_back(Bridge(restored));
    ApplyAndCheck(&restored, batch.add, batch.remove, &views);
    if (::testing::Test::HasFailure()) return;
  }
  ASSERT_TRUE(restored.CheckInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Shards, ReadViewEquivalenceTest,
                         ::testing::Values(1u, 2u, 4u));

// ---------------------------------------------------------------------------
// Through a live server: the views it publishes after every applied batch,
// including the per-request fallback of an infeasible coalesced batch and a
// restart that recovers from the WAL.

class Client {
 public:
  explicit Client(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }

  void Send(const std::string& line) {
    const std::string framed = line + "\n";
    size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  obs::JsonValue Read() {
    size_t newline;
    while ((newline = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return obs::JsonValue{};
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const std::string line = buffer_.substr(0, newline);
    buffer_.erase(0, newline + 1);
    auto parsed = obs::ParseJson(line);
    EXPECT_TRUE(parsed.ok()) << line;
    return parsed.ok() ? *parsed : obs::JsonValue{};
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

double NumberOf(const obs::JsonValue& response, const char* key) {
  const obs::JsonValue* value = response.Find(key);
  return value != nullptr && value->is_number() ? value->number : -1;
}

std::string QueryJson(const PropertySet& query,
                      const std::vector<std::string>& names) {
  std::string out = "[";
  for (const PropertyId id : query) {
    if (out.size() > 1) out += ",";
    out += "\"" + names.at(id) + "\"";
  }
  return out + "]";
}

/// The published views' merged classifiers, count and piece addresses. The
/// pieces are copied out (shared ownership), so their addresses stay
/// unique while the snapshot lives.
struct Published {
  Priced merged;
  size_t count = 0;
  std::vector<std::shared_ptr<const ViewPiece>> pieces;
};

Published ReadPublished(server::Server* server) {
  Published out;
  server->WithReadViews([&](const Views& views) {
    out.merged = MergeViewClassifiers(views);
    for (const EngineReadView* view : views) {
      out.count += view->num_classifiers;
      out.pieces.insert(out.pieces.end(), view->pieces.begin(),
                        view->pieces.end());
    }
  });
  return out;
}

/// Checks the published views against a from-scratch render of the engine
/// and returns them.
Published ExpectServerViewsMatch(server::Server* server) {
  Published published = ReadPublished(server);
  Priced expected;
  server->WithShardedEngine(
      [&](const ShardedEngine& engine) { expected = FromScratch(engine); });
  EXPECT_EQ(published.merged, expected);
  EXPECT_EQ(published.count, expected.size());
  return published;
}

size_t FreshPieces(const Published& before, const Published& after) {
  std::set<const ViewPiece*> old;
  for (const auto& piece : before.pieces) old.insert(piece.get());
  size_t fresh = 0;
  for (const auto& piece : after.pieces) fresh += old.count(piece.get()) == 0;
  return fresh;
}

struct DataDir {
  explicit DataDir(uint32_t shards)
      : path(::testing::TempDir() + "/mc3_read_view_" +
             std::to_string(shards) + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this))) {
    std::filesystem::remove_all(path);
  }
  ~DataDir() { std::filesystem::remove_all(path); }
  std::string path;
};

server::ServerOptions ServerOptionsFor(uint32_t shards,
                                       const std::string& data_dir) {
  server::ServerOptions options;
  options.port = 0;
  options.shards = shards;
  // Nothing drains the queue until ProcessQueuedNow: each round's requests
  // coalesce into one batch.
  options.start_engine_worker = false;
  options.connection_workers = 4;
  // No auto-pricing: an add over an unknown property is infeasible, which
  // fails its coalesced batch and forces the per-request fallback.
  options.default_cost = -1;
  options.durability.data_dir = data_dir;
  options.durability.wal.sync =
      durability::WalOptions::SyncPolicy::kImmediate;
  return options;
}

/// Sends one round of update requests, applies them as one coalesced batch
/// and checks the acks. Returns the components the round re-solved.
size_t RunRound(server::Server* server, Client* client,
                const std::vector<std::string>& requests,
                size_t expected_failures) {
  for (const std::string& request : requests) client->Send(request);
  while (server->QueueDepth() < requests.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->ProcessQueuedNow();
  size_t failures = 0;
  size_t resolved = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const obs::JsonValue ack = client->Read();
    if (NumberOf(ack, "code") != 200) {
      EXPECT_EQ(NumberOf(ack, "code"), 400);
      ++failures;
      continue;
    }
    // A coalesced ack reports the whole batch's work; a fallback ack its
    // own request's.
    const auto components = static_cast<size_t>(
        NumberOf(ack, "components_resolved"));
    if (NumberOf(ack, "batch_requests") == 1 || i == 0) resolved += components;
  }
  EXPECT_EQ(failures, expected_failures);
  return resolved;
}

TEST_P(ReadViewEquivalenceTest, ServerPublishesWhatEachBatchTouches) {
  const uint32_t shards = GetParam();
  const Instance base = ChurnBase(14);
  const std::vector<std::string>& names = base.property_names();
  DataDir dir(shards);
  ChurnGenerator churn(base, 7);
  Published last;
  int next_id = 1;
  // `list` is "add" or "remove".
  auto update = [&](const char* list, const PropertySet& query) {
    return R"({"op":"update","id":)" + std::to_string(next_id++) + R"(,")" +
           list + R"(":[)" + QueryJson(query, names) + "]}";
  };
  // One request per churn op; every third round adds an unknown property
  // (infeasible without auto-pricing), every fourth a cross-shard bridge.
  auto churn_round = [&](server::Server* server, Client* client, int round) {
    const ChurnGenerator::Batch batch = churn.Next(3, 3);
    std::vector<std::string> requests;
    for (const PropertySet& q : batch.remove) {
      requests.push_back(update("remove", q));
    }
    for (const PropertySet& q : batch.add) requests.push_back(update("add", q));
    if (shards > 1 && round % 4 == 3) {
      PropertySet bridge;
      server->WithShardedEngine(
          [&](const ShardedEngine& engine) { bridge = Bridge(engine); });
      requests.push_back(update("add", bridge));
    }
    const bool infeasible = round % 3 == 2;
    if (infeasible) {
      requests.push_back(R"({"op":"update","id":)" +
                         std::to_string(next_id++) +
                         R"(,"add":[["unpriced_)" + std::to_string(round) +
                         R"("]]})");
    }
    const size_t resolved =
        RunRound(server, client, requests, infeasible ? 1 : 0);
    const Published now = ExpectServerViewsMatch(server);
    // Every piece the publish added belongs to a component the round
    // re-solved; a single batch adds exactly those. The fallback applies
    // request by request, so a later request can re-dirty a component an
    // earlier one re-solved before anything is published.
    if (infeasible) {
      EXPECT_LE(FreshPieces(last, now), resolved) << "round " << round;
    } else {
      EXPECT_EQ(FreshPieces(last, now), resolved) << "round " << round;
    }
    client->Send(R"({"op":"solve","id":0})");
    const obs::JsonValue solve = client->Read();
    EXPECT_EQ(NumberOf(solve, "classifiers"),
              static_cast<double>(now.count));
    last = now;
  };

  Priced before_restart;
  {
    server::Server server(ServerOptionsFor(shards, dir.path));
    ASSERT_TRUE(server.Start(base).ok());
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    last = ExpectServerViewsMatch(&server);
    for (int round = 0; round < 12; ++round) {
      churn_round(&server, &client, round);
      if (::testing::Test::HasFailure()) break;
    }
    before_restart = last.merged;
    if (shards > 1) {
      EXPECT_GT(server.GetStats().migrated, 0u);
    }
    server.RequestDrain();
    server.Join();
  }
  if (::testing::Test::HasFailure()) return;

  // Recovery replays the WAL into a fresh engine (ImportState when a
  // snapshot exists, ApplyUpdate otherwise); its first views must match.
  server::Server server(ServerOptionsFor(shards, dir.path));
  ASSERT_TRUE(server.Start(base).ok());
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  last = ExpectServerViewsMatch(&server);
  EXPECT_EQ(last.merged, before_restart);
  for (int round = 12; round < 16; ++round) {
    churn_round(&server, &client, round);
    if (::testing::Test::HasFailure()) break;
  }
  server.RequestDrain();
  server.Join();
}

TEST(ReadViewRecoveryTest, SnapshotImportPublishesMatchingViews) {
  // A checkpoint makes the restart take the ImportState path.
  const Instance base = ChurnBase(15);
  DataDir dir(2);
  ChurnGenerator churn(base, 8);
  Priced before_restart;
  {
    server::Server server(ServerOptionsFor(2, dir.path));
    ASSERT_TRUE(server.Start(base).ok());
    Client client(server.port());
    ASSERT_TRUE(client.connected());
    const ChurnGenerator::Batch batch = churn.Next(0, 5);
    std::string remove_json;
    for (const PropertySet& q : batch.remove) {
      remove_json += (remove_json.empty() ? "" : ",") +
                     QueryJson(q, base.property_names());
    }
    client.Send(R"({"op":"update","id":1,"remove":[)" + remove_json + "]}");
    client.Send(R"({"op":"checkpoint","id":2})");
    while (server.QueueDepth() < 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.ProcessQueuedNow();
    EXPECT_EQ(NumberOf(client.Read(), "code"), 200);
    EXPECT_EQ(NumberOf(client.Read(), "code"), 200);
    before_restart = ExpectServerViewsMatch(&server).merged;
    server.RequestDrain();
    server.Join();
  }
  server::Server server(ServerOptionsFor(2, dir.path));
  ASSERT_TRUE(server.Start(base).ok());
  ASSERT_NE(server.durability_manager(), nullptr);
  EXPECT_TRUE(server.durability_manager()->recovery().snapshot_loaded);
  EXPECT_EQ(ExpectServerViewsMatch(&server).merged, before_restart);
  server.RequestDrain();
  server.Join();
}

}  // namespace
}  // namespace mc3::online
