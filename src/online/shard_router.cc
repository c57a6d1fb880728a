#include "online/shard_router.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace mc3::online {

ShardRouter::ShardRouter(uint32_t num_shards)
    : num_shards_(num_shards == 0 ? 1 : num_shards) {}

uint32_t ShardRouter::ShardOf(const PropertySet& query) const {
  const auto it = live_.find(query);
  return it == live_.end() ? num_shards_ : it->second.shard;
}

uint32_t ShardRouter::HashShard(const PropertySet& query) const {
  // FNV-1a's low bits are weak (multiplication only carries upward, so
  // they see just the low bits of the input); a raw `% num_shards` sends
  // whole query families to one shard. Finalize with a splitmix64-style
  // mixer so every input bit reaches the modulus.
  uint64_t h = query.Hash();
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return static_cast<uint32_t>(h % num_shards_);
}

std::vector<uint32_t> ShardRouter::TouchedRoots(
    const PropertySet& query) const {
  std::vector<uint32_t> roots;
  for (const PropertyId p : query) {
    const uint32_t root = uf_.Find(p);
    if (groups_.count(root) > 0) roots.push_back(root);
  }
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

void ShardRouter::Link(LiveEntry* entry,
                       const std::vector<uint32_t>& roots) {
  Group merged;
  if (!roots.empty()) {
    const auto largest = std::max_element(
        roots.begin(), roots.end(), [this](uint32_t a, uint32_t b) {
          return groups_.at(a).queries.size() < groups_.at(b).queries.size();
        });
    merged = std::move(groups_.at(*largest));
    for (const uint32_t root : roots) {
      if (root == *largest) continue;
      for (LiveEntry* moved : groups_.at(root).queries) {
        moved->second.slot = merged.queries.size();
        merged.queries.push_back(moved);
      }
    }
    for (const uint32_t root : roots) groups_.erase(root);
  }
  merged.shard = entry->second.shard;
  const PropertySet& query = entry->first;
  for (const PropertyId p : query) uf_.Union(p, query.ids().front());
  entry->second.slot = merged.queries.size();
  merged.queries.push_back(entry);
  groups_[uf_.Find(query.ids().front())] = std::move(merged);
}

void ShardRouter::Unlink(LiveEntry* entry) {
  Group& group = groups_.at(uf_.Find(entry->first.ids().front()));
  LiveEntry* last = group.queries.back();
  group.queries[entry->second.slot] = last;
  last->second.slot = entry->second.slot;
  group.queries.pop_back();
}

RoutePlan ShardRouter::Route(const std::vector<PropertySet>& add,
                             const std::vector<PropertySet>& remove) {
  RoutePlan plan;
  plan.shards.resize(num_shards_);

  /// Before/after placement of one affected query; the plan is emitted from
  /// these diffs so every query appears at most once per shard.
  struct Delta {
    bool was_live = false;
    uint32_t old_shard = 0;
    bool now_live = false;
    uint32_t new_shard = 0;
  };
  // First-touch ordered: the map only indexes into the vector, so per-shard
  // ops are emitted in batch order (migrated queries in their group's
  // sorted order) and a 1-shard plan hands the engine the batch unchanged.
  std::vector<std::pair<PropertySet, Delta>> deltas;
  std::unordered_map<PropertySet, size_t, PropertySetHash> delta_index;
  const auto touch = [&](const PropertySet& q) -> std::pair<Delta*, bool> {
    const auto [it, inserted] = delta_index.try_emplace(q, deltas.size());
    if (inserted) deltas.emplace_back(q, Delta{});
    return {&deltas[it->second].second, inserted};
  };

  const std::unordered_set<PropertySet, PropertySetHash> added_set(
      add.begin(), add.end());

  // Removes first (ApplyUpdate order). A remove cancelled by an add of the
  // same query nets out, exactly as the engine nets it; repeated removes of
  // one query collapse silently, like the engine's slot dedup.
  std::unordered_set<PropertySet, PropertySetHash> removed_now;
  for (const PropertySet& q : remove) {
    if (added_set.count(q) > 0) continue;
    if (removed_now.count(q) > 0) continue;
    const auto it = live_.find(q);
    if (it == live_.end()) {
      ++plan.missing_removes;
      continue;
    }
    Unlink(&*it);
    Delta* d = touch(q).first;
    d->was_live = true;
    d->old_shard = it->second.shard;
    removed_now.insert(q);
    live_.erase(it);
    ++plan.queries_removed;
  }

  // Adds, in batch order: join the touched groups' shard (merging groups
  // and migrating losers when they disagree) or place a fresh group by
  // hash. A query repeated in the batch is live after its first add, so
  // the liveness check drops the repeats too.
  for (const PropertySet& q : add) {
    if (live_.count(q) > 0) {
      ++plan.duplicate_adds;
      continue;
    }
    const std::vector<uint32_t> roots = TouchedRoots(q);

    uint32_t target = 0;
    if (roots.empty()) {
      target = HashShard(q);
    } else {
      // Winner: the shard holding the most live queries among the touched
      // groups; ties break to the smallest shard index. Deterministic and
      // migration-minimizing.
      std::vector<std::pair<uint32_t, size_t>> live_per_shard;
      for (const uint32_t root : roots) {
        const Group& group = groups_.at(root);
        bool merged = false;
        for (auto& [shard, count] : live_per_shard) {
          if (shard == group.shard) {
            count += group.queries.size();
            merged = true;
            break;
          }
        }
        if (!merged) live_per_shard.emplace_back(group.shard,
                                                 group.queries.size());
      }
      target = live_per_shard.front().first;
      size_t best = live_per_shard.front().second;
      for (const auto& [shard, count] : live_per_shard) {
        if (count > best || (count == best && shard < target)) {
          target = shard;
          best = count;
        }
      }
    }

    // Migrate the losing groups' live queries to the target shard, then
    // fold every touched group and the query into one.
    for (const uint32_t root : roots) {
      const Group& group = groups_.at(root);
      if (group.shard == target) continue;
      std::vector<LiveEntry*> moving = group.queries;
      std::sort(moving.begin(), moving.end(),
                [](const LiveEntry* a, const LiveEntry* b) {
                  return a->first < b->first;
                });
      for (LiveEntry* m : moving) {
        m->second.shard = target;
        const auto [d, inserted] = touch(m->first);
        if (inserted) {
          d->was_live = true;
          d->old_shard = group.shard;
        }
        d->now_live = true;
        d->new_shard = target;
      }
    }
    Link(&*live_.try_emplace(q, Placement{target, 0}).first, roots);

    Delta* d = touch(q).first;
    d->now_live = true;
    d->new_shard = target;
    ++plan.queries_added;
  }

  // Emit per-shard ops from the placement diffs, in first-touch order.
  for (const auto& [q, d] : deltas) {
    const bool moved = d.was_live && d.now_live && d.new_shard != d.old_shard;
    if (d.was_live && (!d.now_live || moved)) {
      plan.shards[d.old_shard].remove.push_back(q);
    }
    if (d.now_live && (!d.was_live || moved)) {
      plan.shards[d.new_shard].add.push_back(q);
    }
    if (moved) ++plan.migrated;
  }
  return plan;
}

Status ShardRouter::AdoptAssignment(
    const std::vector<std::vector<PropertySet>>& live_by_shard) {
  if (!live_.empty() || !groups_.empty()) {
    return Status::Internal("AdoptAssignment requires an untouched router");
  }
  if (live_by_shard.size() != num_shards_) {
    return Status::InvalidArgument(
        "placement lists " + std::to_string(live_by_shard.size()) +
        " shards but the router has " + std::to_string(num_shards_));
  }
  for (uint32_t shard = 0; shard < live_by_shard.size(); ++shard) {
    for (const PropertySet& q : live_by_shard[shard]) {
      if (q.empty()) {
        return Status::InvalidArgument("cannot adopt an empty query");
      }
      const auto [it, inserted] = live_.try_emplace(q, Placement{shard, 0});
      if (!inserted) {
        return Status::InvalidArgument("placement repeats a query");
      }
      const std::vector<uint32_t> roots = TouchedRoots(q);
      for (const uint32_t root : roots) {
        const uint32_t other = groups_.at(root).shard;
        if (other != shard) {
          return Status::InvalidArgument(
              "placement splits connected queries across shards " +
              std::to_string(other) + " and " + std::to_string(shard));
        }
      }
      Link(&*it, roots);
    }
  }
  return Status::OK();
}

Status ShardRouter::CheckInvariants() const {
  size_t grouped = 0;
  // mc3-lint: unordered-ok(invariant scan; every failure is the same error)
  for (const auto& [root, group] : groups_) {
    if (group.shard >= num_shards_) {
      return Status::Internal("router group placed on an unknown shard");
    }
    for (size_t slot = 0; slot < group.queries.size(); ++slot) {
      const LiveEntry* entry = group.queries[slot];
      ++grouped;
      const auto it = live_.find(entry->first);
      if (it == live_.end() || &*it != entry) {
        return Status::Internal("router group lists a dead query");
      }
      if (entry->second.shard != group.shard) {
        return Status::Internal("query placement disagrees with its group");
      }
      if (entry->second.slot != slot) {
        return Status::Internal("query slot disagrees with its group");
      }
      for (const PropertyId p : entry->first) {
        if (uf_.Find(p) != root) {
          return Status::Internal(
              "query property outside its group's connectivity class");
        }
      }
    }
  }
  if (grouped != live_.size()) {
    return Status::Internal("router groups do not partition the live set");
  }
  return Status::OK();
}

}  // namespace mc3::online
