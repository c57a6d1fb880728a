// Immutable per-shard engine snapshot for the lock-free read path.
//
// After every applied batch the serving layer builds one EngineReadView per
// touched shard — a plain value object holding everything the read verbs
// (`solve`, `snapshot`, `stats`) render: the shard's running total cost,
// live-query and classifier counts, and the current solution as
// per-component pieces, each sorted and priced (OnlineEngine::ViewPieces).
// The view is published through a concurrency::VersionedPublisher and
// reclaimed through the concurrency::EpochManager, so readers dereference it
// without locks, refcounts or copies (docs/serving.md, "Lock-free reads").
//
// A piece is built once, when its component is committed, and is immutable
// afterwards; component ids are never reused. Building a view therefore
// copies one pointer per component, and successive views share the piece of
// every component the batch did not touch: the publish costs O(re-solved
// components + components), not O(solution).
//
// The numeric fields snapshot the engine accessors verbatim (TotalCost is
// the engine's own double running total, not a canonical re-sum), so a
// response rendered from views is byte-identical to one rendered under the
// engine mutex at the same instant — the property the sharded-vs-single
// and batched-vs-sequential determinism suites pin down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/instance.h"
#include "online/online_engine.h"

namespace mc3::online {

/// Point-in-time read-only snapshot of one OnlineEngine (one shard).
struct EngineReadView {
  /// Publish count of the owning shard's publisher (monotone, 1-based).
  uint64_t version = 0;
  /// The shard's running aggregate cost (OnlineEngine::TotalCost verbatim;
  /// cross-shard reads sum these in shard order, exactly like
  /// ShardedEngine::TotalCost).
  Cost total_cost = 0;
  size_t num_queries = 0;
  /// Size of the shard's current solution (the pieces' summed sizes).
  size_t num_classifiers = 0;
  /// The shard's current solution, one shared piece per component in
  /// component-id order (so also the shard's component count); each
  /// classifier carries its table price.
  std::vector<std::shared_ptr<const ViewPiece>> pieces;
};

/// Snapshots `engine` into a view stamped with `version`. Caller holds
/// whatever lock serializes engine mutations (the server's engine_mu_).
EngineReadView BuildReadView(const OnlineEngine& engine, uint64_t version);

/// Merges the views' pieces into the canonical cross-shard sequence:
/// exactly the contents and order of ShardedEngine::CurrentSolution()
/// .Sorted(), each classifier with its price at publish time. O(solution
/// log solution); only renders that list the classifiers pay for it.
std::vector<std::pair<PropertySet, Cost>> MergeViewClassifiers(
    const std::vector<const EngineReadView*>& views);

}  // namespace mc3::online
