#include "online/read_view.h"

#include <algorithm>

namespace mc3::online {

EngineReadView BuildReadView(const OnlineEngine& engine, uint64_t version) {
  EngineReadView view;
  view.version = version;
  view.total_cost = engine.TotalCost();
  view.num_queries = engine.NumQueries();
  view.pieces = engine.ViewPieces();
  for (const std::shared_ptr<const ViewPiece>& piece : view.pieces) {
    view.num_classifiers += piece->size();
  }
  return view;
}

std::vector<std::pair<PropertySet, Cost>> MergeViewClassifiers(
    const std::vector<const EngineReadView*>& views) {
  std::vector<std::pair<PropertySet, Cost>> merged;
  size_t total = 0;
  for (const EngineReadView* view : views) total += view->num_classifiers;
  merged.reserve(total);
  for (const EngineReadView* view : views) {
    for (const std::shared_ptr<const ViewPiece>& piece : view->pieces) {
      merged.insert(merged.end(), piece->begin(), piece->end());
    }
  }
  // Components (and shards) own disjoint properties, so no classifier
  // appears twice: sorting alone yields the canonical sequence.
  std::sort(merged.begin(), merged.end(),
            [](const std::pair<PropertySet, Cost>& a,
               const std::pair<PropertySet, Cost>& b) {
              return a.first < b.first;
            });
  return merged;
}

}  // namespace mc3::online
