// One benchmark round of a workload: the untraced run (the program called
// the way users call it) and the traced run (the same cluster rebuilt from
// the public pieces with every layer boundary timed).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "stats/latency_stats.h"
#include "workloads.h"

namespace perfbench {

/// What the simulation produced; deterministic per seed, so the traced run
/// must reproduce the untraced run's figures exactly.
struct SimTotals {
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Latencies of the commands completed in the measured closed-loop phase.
  caesar::stats::LatencyStats measured;
  /// Per-site minimum latency and sample count after warmup.
  std::vector<caesar::Time> site_min_us;
  std::vector<std::uint64_t> site_count;

  bool same_as(const SimTotals& o, std::string* why) const;
  /// Pools another sub-seed's run into this one.
  void add(const SimTotals& o);
};

struct UntracedResult {
  SimTotals totals;
  double wall_s = 0;  // run_scenario + check_cluster_consistency
  std::uint64_t payload_divergent_keys = 0;
  Failures failures;
};

/// Runs one of `w`'s scenarios through harness::run_scenario and
/// harness::check_cluster_consistency, then the independent checks.
UntracedResult run_untraced(const Workload& w,
                            const caesar::harness::Scenario& s);

struct TracedResult {
  SimTotals totals;
  double wall_s = 0;  // cluster build + run + library oracle
  std::vector<std::pair<std::string, double>> layers;
  Failures failures;
};

/// Rebuilds the cluster of one of `w`'s scenarios from the public pieces
/// with every layer boundary timed, runs it, checks it, and writes the
/// sampled spans to `spans_path` (skipped when empty).
TracedResult run_traced(const Workload& w, const caesar::harness::Scenario& s,
                        const std::string& spans_path);

/// The library oracle's verdict on a batched run may fail only on store
/// convergence, and only where the independent check attributed every
/// divergent key to the finalize() fault. `relaxed_ok` is the oracle's
/// verdict with store convergence off.
void judge_oracle(bool ok, const std::string& detail, bool batched,
                  std::uint64_t payload_divergent_keys, bool relaxed_ok,
                  Failures& out);

/// Peak resident memory of this process so far.
double peak_rss_mb();

}  // namespace perfbench
