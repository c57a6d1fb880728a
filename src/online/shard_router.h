// ShardRouter: deterministic query -> shard assignment for the sharded
// serving engine (src/online/sharded_engine.h, docs/serving.md).
//
// The paper's decomposition (Observation 3.2) makes connected components of
// the shared-property graph independent solve units, so a sharded engine is
// byte-equivalent to a single engine exactly when every component lives
// entirely on one shard. A per-query hash cannot guarantee that (two queries
// sharing a property could hash apart), so the router maintains a *monotone*
// union-find over property ids: every add unions its properties, and removes
// never split. Router groups therefore only over-approximate true
// connectivity — which is safe, because co-locating more than a component is
// still co-locating the component.
//
// Assignment rules (all deterministic in the update history):
//   * a group seen for the first time (all properties unknown) is placed by
//     a stable FNV-1a hash of the added query's sorted property ids;
//   * an add that touches one known group joins that group's shard;
//   * an add that merges groups placed on different shards picks the shard
//     owning the most live queries among them (ties: the smallest shard
//     index) and *migrates* the losing groups' live queries — emitted as a
//     remove on their old shard plus an add on the winning shard.
//
// Route() resolves one net update batch into per-shard batches by diffing
// the before/after placement of every affected query, so each query appears
// at most once per shard (as an add or a remove, never both) and per-shard
// application order cannot resurrect or double-apply anything. Each shard's
// ops keep first-touch order (batch order; migrated queries in their group's
// sorted order), so with one shard the engine sees the user's batch in its
// own order, minus the ops it would skip anyway (duplicate adds, missing
// removes, removes cancelled by an add).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/property_set.h"
#include "util/status.h"
#include "util/union_find.h"

namespace mc3::online {

/// One shard's slice of a routed batch. ApplyUpdate semantics: removes
/// apply before adds; here a query never appears in both.
struct ShardOps {
  std::vector<PropertySet> remove;
  std::vector<PropertySet> add;
  bool empty() const { return remove.empty() && add.empty(); }
  size_t ops() const { return remove.size() + add.size(); }
};

/// Result of routing one net batch.
struct RoutePlan {
  std::vector<ShardOps> shards;
  /// Live queries moved between shards by group merges (each contributes
  /// one remove and one add beyond the user's own ops).
  size_t migrated = 0;
  /// Net effect of the user's ops (excluding migrations), mirroring the
  /// single engine's UpdateStats accounting.
  size_t queries_added = 0;
  size_t queries_removed = 0;
  size_t duplicate_adds = 0;
  size_t missing_removes = 0;
};

class ShardRouter {
 public:
  explicit ShardRouter(uint32_t num_shards);

  uint32_t num_shards() const { return num_shards_; }
  size_t num_live() const { return live_.size(); }

  /// True when `query` is live (routed by an earlier add, not yet removed).
  bool IsLive(const PropertySet& query) const {
    return live_.count(query) > 0;
  }
  /// The shard a live query is placed on; num_shards() when not live.
  uint32_t ShardOf(const PropertySet& query) const;

  /// Routes one net update batch and commits the resulting placement.
  /// The caller must have validated the adds (the router assumes every
  /// listed op will be applied); removes of unknown queries and adds of
  /// live queries are counted and dropped, mirroring the engine.
  RoutePlan Route(const std::vector<PropertySet>& add,
                  const std::vector<PropertySet>& remove);

  /// Rebuilds the router from an existing placement (recovery from a
  /// sharded snapshot): every query of `live_by_shard[s]` is adopted as
  /// live on shard `s`. Fails when two connected queries are placed on
  /// different shards (such a snapshot violates the co-location invariant)
  /// or a query repeats.
  Status AdoptAssignment(
      const std::vector<std::vector<PropertySet>>& live_by_shard);

  /// Audit: every pair of live queries sharing a property is placed on the
  /// same shard (the invariant that makes sharded solving byte-equivalent
  /// to single-engine solving).
  Status CheckInvariants() const;

 private:
  /// Where a live query sits: its shard, and its index in its group's
  /// `queries` (so a remove unlinks it without a scan).
  struct Placement {
    uint32_t shard = 0;
    size_t slot = 0;
  };
  using LiveMap = std::unordered_map<PropertySet, Placement, PropertySetHash>;
  /// A live query's map node; its address is stable until it is erased.
  using LiveEntry = LiveMap::value_type;

  struct Group {
    uint32_t shard = 0;
    /// The group's live queries, in no particular order (sorted when
    /// migrated).
    std::vector<LiveEntry*> queries;
  };

  /// Stable placement hash for a brand-new group.
  uint32_t HashShard(const PropertySet& query) const;

  /// Union-find roots of `query`'s properties that own a group, sorted
  /// and unique.
  std::vector<uint32_t> TouchedRoots(const PropertySet& query) const;

  /// Folds the groups at `roots` into one group on `entry`'s shard that
  /// also holds `entry`, and unions the entry's properties. The largest
  /// group is moved, not copied, and only the others' queries are
  /// re-linked: a query moves only into a group at least as large as its
  /// own, so without removals it is re-linked at most log2(n) times.
  void Link(LiveEntry* entry, const std::vector<uint32_t>& roots);

  /// Removes a live query from its group in O(1) (the group's last query
  /// takes its slot).
  void Unlink(LiveEntry* entry);

  uint32_t num_shards_ = 1;
  /// Monotone connectivity over property ids (never split on removal).
  mutable UnionFind uf_;
  /// Union-find root -> group metadata. Rehomed when roots merge; empty
  /// groups are kept so re-added properties rejoin their old shard.
  std::unordered_map<uint32_t, Group> groups_;
  LiveMap live_;
};

}  // namespace mc3::online
