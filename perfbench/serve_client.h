// serve_churn: an open-loop client for a running `mc3 serve`; see
// serve_client.cc.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct ServeOptions {
  std::string base_csv;  ///< the workload the server was started on
  int port = 0;
  uint64_t seed = 1;     ///< request mix and churn stream
  double seconds = 10;   ///< steady-state window
  bool trace = false;    ///< per-layer run instead of end-to-end
  bool corrupt = false;  ///< self-test: perturb the server's final cost
  bool drift = false;    ///< self-test: perturb the window's second half
};

/// Drives the server for a warm-up plus `seconds`, checks every response
/// and the final plan, and prints the report (without setup_s and
/// peak_rss_mb, which belong to the server process and are added by
/// run.py). Returns the exit code.
int RunServeClient(const ServeOptions& options);

}  // namespace perfbench
