// Correctness checks the benchmark computes apart from the program under
// test. Each takes final replica state (or a latency summary) and appends a
// human-readable line per violation; an empty list means the check passed.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/topology.h"
#include "rsm/delivery_log.h"
#include "rsm/kvstore.h"

namespace perfbench {

using Failures = std::vector<std::string>;

/// One consensus group's final replica state.
struct ReplicaSet {
  const std::vector<caesar::rsm::DeliveryLog>& logs;
  const std::vector<caesar::rsm::KvStore>& stores;
  const std::vector<bool>& crashed;  // empty = every replica live
};

/// Every live replica's store version of each key equals the number of
/// commands its delivery log holds for that key, and every logged key is in
/// the store.
void check_versions_match_logs(const ReplicaSet& rs, Failures& out);

/// Every live replica holds the same keys with the same (value, version).
/// When `batched`, a key whose replicas delivered the same command ids but
/// ended with different values is the signature of the finalize() reordering
/// fault (README): it is counted in *payload_divergent_keys instead of
/// failing. Any other difference fails.
void check_stores_converged(const ReplicaSet& rs, bool batched,
                            std::uint64_t* payload_divergent_keys,
                            Failures& out);

/// Every live replica delivered the same full command sequence.
void check_equal_sequences(const ReplicaSet& rs, Failures& out);

/// Round trip from `site` to the nearest majority of the cluster (itself
/// included), from the topology's base one-way delays: no command can
/// commit faster.
caesar::Time majority_rtt_us(const caesar::net::Topology& topo,
                             std::size_t site);

/// Every site's fastest completion is at least its majority round trip.
/// `min_latency_us[i]` is site i's minimum (sites without samples: 0 is
/// skipped only when `count[i]` is 0).
void check_latency_floor(const caesar::net::Topology& topo,
                         const std::vector<caesar::Time>& min_latency_us,
                         const std::vector<std::uint64_t>& count,
                         Failures& out);

/// Every submitted command completed.
void check_all_completed(std::uint64_t submitted, std::uint64_t completed,
                         Failures& out);

/// Replays the ops every replica's deliver hook sees, per replica, into a
/// fresh map, and records which client request each replica delivered
/// under each command id.
class ReplayCheck {
 public:
  ReplayCheck(std::size_t groups, std::size_t replicas);

  void observe(std::size_t group, caesar::NodeId node,
               const caesar::rsm::Command& cmd);

  /// The replayed maps equal the live replicas' stores (values and
  /// versions) of `group`.
  void check_stores(std::size_t group, const ReplicaSet& rs,
                    Failures& out) const;

  /// Every replica delivered the same client request under each command id.
  /// When `batched`, a batch member delivered with another request of the
  /// same batch and key (the finalize() fault) is counted in
  /// *swapped_members instead of failing.
  void check_requests(bool batched, std::uint64_t* swapped_members,
                      Failures& out) const;

 private:
  struct Entry {
    std::uint64_t value = 0;
    std::uint64_t version = 0;
  };
  struct Delivered {
    caesar::ReqId req = 0;
    caesar::Key key = 0;
  };
  std::size_t replicas_;
  /// [group * replicas + node] -> key -> replayed entry.
  std::vector<std::unordered_map<caesar::Key, Entry>> maps_;
  /// [group] -> command id -> what the first replica to deliver it saw.
  std::vector<std::unordered_map<caesar::CmdId, Delivered>> first_;
  std::uint64_t mismatches_ = 0;
  std::uint64_t swaps_ = 0;
  std::string first_mismatch_;
};

}  // namespace perfbench
