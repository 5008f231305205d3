// The benchmark's four workloads. Each is a list of harness::Scenarios that
// differ only in their simulation seed, plus what the benchmark needs to
// know to check and measure them. Every workload is closed
// loop and ends with a quiesce tail, so every submitted command completes
// before the run ends and the replica stores can be compared.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/scenario.h"

namespace perfbench {

struct Workload {
  std::string name;
  /// One scenario per sub-seed; a round runs them all and pools the results.
  std::vector<caesar::harness::Scenario> runs;
  /// The measured closed-loop phase: [scenario.warmup, quiesce_at).
  caesar::Time quiesce_at = 0;
  /// Total-order protocol: every live replica must deliver the same sequence.
  bool total_order = false;
  /// The run batches client commands into composites, the precondition of
  /// the rsm::Command::finalize() reordering fault (see README).
  bool batched = false;
};

/// Builds workload `name` with its inputs drawn from `seed`: sub-seed k
/// simulates with seed 16 * seed + k. Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed);

}  // namespace perfbench
