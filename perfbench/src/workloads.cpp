#include "workloads.h"

#include <stdexcept>

namespace perfbench {

using caesar::kMs;
using caesar::kSec;
using caesar::NodeId;
using caesar::harness::ProtocolKind;
using caesar::harness::ScenarioBuilder;

namespace {

constexpr NodeId kFrankfurt = 2;  // index in net::Topology::ec2_five_sites()
constexpr std::uint64_t kLanKeyspace = 1ull << 16;

/// One scenario per sub-seed of `seed`: the benchmark seed picks a family of
/// simulation seeds, so a run pools several simulated histories.
void add_runs(Workload& w, const ScenarioBuilder& b, std::uint64_t seed,
              unsigned sub_seeds) {
  for (unsigned k = 0; k < sub_seeds; ++k) {
    w.runs.push_back(ScenarioBuilder(b).seed(seed * 16 + k).build());
  }
}

// The paper's headline point: CAESAR at 30% conflicts on the five EC2 sites.
Workload caesar_conflict(std::uint64_t seed) {
  Workload w;
  w.name = "caesar-conflict";
  w.quiesce_at = 3 * kSec;
  ScenarioBuilder b(w.name);
  b.protocol(ProtocolKind::kCaesar)
      .conflicts(0.30)
      .closed_loop(0, 150)
      .quiesce(w.quiesce_at)
      .warmup(500 * kMs)
      .duration(4500 * kMs);
  add_runs(w, b, seed, 3);
  return w;
}

// Many open instances (the fig12-failover crowd and settings) with a
// mid-run partition that cuts Frankfurt off from every peer for 2 s. The
// link cut outlasts the FD timeout, so both sides suspect each other and
// CAESAR's recovery runs; held traffic is released at the heal.
Workload caesar_crowd_partition(std::uint64_t seed) {
  Workload w;
  w.name = "caesar-crowd-partition";
  w.quiesce_at = 3500 * kMs;
  caesar::core::CaesarConfig caesar;
  caesar.gossip_interval_us = 100 * kMs;
  caesar::rt::NodeConfig node;
  node.base_service_us = 12;
  caesar::wl::WorkloadConfig wl;
  wl.clients_per_site = 500;
  wl.conflict_fraction = 0.02;
  wl.reconnect_delay_us = 2 * kSec;
  ScenarioBuilder b(w.name);
  b.protocol(ProtocolKind::kCaesar)
      .workload(wl)
      .node(node)
      .caesar(caesar)
      .fd_timeout(1 * kSec)
      .fd_suspect_partitions()
      .closed_loop(0, 500)
      .quiesce(w.quiesce_at)
      .warmup(500 * kMs)
      .duration(4500 * kMs);
  for (NodeId peer = 0; peer < 5; ++peer) {
    if (peer == kFrankfurt) continue;
    b.partition(kFrankfurt, peer, 1 * kSec).heal(kFrankfurt, peer, 3 * kSec);
  }
  add_runs(w, b, seed, 1);
  return w;
}

// The `saturation` stack (batching, pipelining, coalescing) on a LAN,
// closed loop only.
Workload mencius_batched_lan(std::uint64_t seed) {
  Workload w;
  w.name = "mencius-batched-lan";
  w.quiesce_at = 350 * kMs;
  w.total_order = true;
  w.batched = true;
  ScenarioBuilder b(w.name);
  b.protocol(ProtocolKind::kMencius)
      .topology(caesar::net::Topology::lan(5))
      .uniform_keys(kLanKeyspace)
      .batching()
      .batch_delay(1000)
      .batch_max_ops(64)
      .pipeline_window(8)
      .coalescing()
      .closed_loop(0, 100)
      .quiesce(w.quiesce_at)
      .warmup(100 * kMs)
      .duration(400 * kMs);
  add_runs(w, b, seed, 4);
  return w;
}

// Four hash-partitioned Mencius groups behind the shard router, unbatched.
Workload sharded_lan(std::uint64_t seed) {
  Workload w;
  w.name = "sharded-lan";
  w.quiesce_at = 400 * kMs;
  w.total_order = true;
  ScenarioBuilder b(w.name);
  b.protocol(ProtocolKind::kMencius)
      .topology(caesar::net::Topology::lan(5))
      .uniform_keys(kLanKeyspace)
      .shards(4)
      .closed_loop(0, 20)
      .quiesce(w.quiesce_at)
      .warmup(100 * kMs)
      .duration(450 * kMs);
  add_runs(w, b, seed, 3);
  return w;
}

}  // namespace

Workload make_workload(std::string_view name, std::uint64_t seed) {
  if (name == "caesar-conflict") return caesar_conflict(seed);
  if (name == "caesar-crowd-partition") return caesar_crowd_partition(seed);
  if (name == "mencius-batched-lan") return mencius_batched_lan(seed);
  if (name == "sharded-lan") return sharded_lan(seed);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
