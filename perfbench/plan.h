// Plan workloads (`plan_private`, `plan_synthetic`): see plan.cc.
#pragma once

#include <string>

#include "common.h"

namespace perfbench {

struct PlanOptions {
  std::string dir;        ///< directory of instance CSVs (one per seed)
  double seconds = 10;    ///< length of the timed window
  bool trace = false;     ///< per-layer run instead of end-to-end
  bool corrupt = false;   ///< self-test: perturb one plan cost
};

/// Loads the instances, plans them for `seconds`, checks every plan against
/// the recomposed pipeline and prints the report. Returns the exit code.
int RunPlan(const PlanOptions& options);

}  // namespace perfbench
