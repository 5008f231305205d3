#include "checks.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

namespace perfbench {

using caesar::CmdId;
using caesar::Key;
using caesar::NodeId;
using caesar::Time;

namespace {

std::vector<std::size_t> live_replicas(const ReplicaSet& rs) {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < rs.stores.size(); ++i) {
    if (rs.crashed.size() == rs.stores.size() && rs.crashed[i]) continue;
    live.push_back(i);
  }
  return live;
}

bool is_batch_member(CmdId id) {
  return (caesar::cmd_seq(id) & caesar::kBatchSeqBit) != 0 &&
         !caesar::is_batch_cmd_id(id);
}

}  // namespace

void check_versions_match_logs(const ReplicaSet& rs, Failures& out) {
  for (std::size_t i : live_replicas(rs)) {
    const caesar::rsm::DeliveryLog& log = rs.logs[i];
    const caesar::rsm::KvStore& store = rs.stores[i];
    for (const auto& [key, entry] : store.contents()) {
      const std::size_t logged = log.key_sequence(key).size();
      if (entry.version != logged) {
        std::ostringstream os;
        os << "replica " << i << " key " << key << ": store version "
           << entry.version << " but " << logged << " logged commands";
        out.push_back(os.str());
        return;
      }
    }
    for (const auto& [key, ids] : log.per_key()) {
      if (!ids.empty() && !store.get(key).has_value()) {
        out.push_back("replica " + std::to_string(i) + " logged key " +
                      std::to_string(key) + " missing from its store");
        return;
      }
    }
  }
}

void check_stores_converged(const ReplicaSet& rs, bool batched,
                            std::uint64_t* payload_divergent_keys,
                            Failures& out) {
  const std::vector<std::size_t> live = live_replicas(rs);
  if (live.size() < 2) return;
  const std::size_t ref = live.front();
  const caesar::rsm::KvStore& a = rs.stores[ref];
  std::unordered_set<Key> divergent;
  for (std::size_t x = 1; x < live.size(); ++x) {
    const std::size_t i = live[x];
    const caesar::rsm::KvStore& b = rs.stores[i];
    if (a.key_count() != b.key_count()) {
      out.push_back("replicas " + std::to_string(ref) + " and " +
                    std::to_string(i) + " hold " +
                    std::to_string(a.key_count()) + " vs " +
                    std::to_string(b.key_count()) + " keys");
      return;
    }
    for (const auto& [key, ea] : a.contents()) {
      const auto eb = b.get(key);
      if (eb.has_value() && eb->value == ea.value &&
          eb->version == ea.version) {
        continue;
      }
      const bool same_ids =
          eb.has_value() && eb->version == ea.version &&
          rs.logs[ref].key_sequence(key) == rs.logs[i].key_sequence(key);
      if (batched && same_ids) {
        divergent.insert(key);
        continue;
      }
      std::ostringstream os;
      os << "replicas " << ref << " and " << i << " differ on key " << key;
      if (eb.has_value()) {
        os << ": " << ea.value << "/v" << ea.version << " vs " << eb->value
           << "/v" << eb->version;
      } else {
        os << ": missing on " << i;
      }
      out.push_back(os.str());
      return;
    }
  }
  if (payload_divergent_keys != nullptr) *payload_divergent_keys += divergent.size();
}

void check_equal_sequences(const ReplicaSet& rs, Failures& out) {
  const std::vector<std::size_t> live = live_replicas(rs);
  for (std::size_t x = 1; x < live.size(); ++x) {
    if (rs.logs[live[x]].sequence() != rs.logs[live.front()].sequence()) {
      out.push_back("replicas " + std::to_string(live.front()) + " and " +
                    std::to_string(live[x]) +
                    " delivered different sequences");
      return;
    }
  }
}

Time majority_rtt_us(const caesar::net::Topology& topo, std::size_t site) {
  std::vector<Time> rtts;
  for (std::size_t j = 0; j < topo.size(); ++j) {
    if (j != site) rtts.push_back(topo.one_way_us[site][j] + topo.one_way_us[j][site]);
  }
  std::sort(rtts.begin(), rtts.end());
  // A majority of n counts the site itself plus n/2 peers.
  const std::size_t peers = topo.size() / 2;
  return peers == 0 ? 0 : rtts[peers - 1];
}

void check_latency_floor(const caesar::net::Topology& topo,
                         const std::vector<Time>& min_latency_us,
                         const std::vector<std::uint64_t>& count,
                         Failures& out) {
  for (std::size_t i = 0; i < topo.size(); ++i) {
    if (count[i] == 0) {
      out.push_back("site " + std::to_string(i) + " completed no command");
      continue;
    }
    const Time floor = majority_rtt_us(topo, i);
    if (min_latency_us[i] < floor) {
      out.push_back("site " + std::to_string(i) + " completed a command in " +
                    std::to_string(min_latency_us[i]) +
                    " us, below its majority round trip of " +
                    std::to_string(floor) + " us");
    }
  }
}

void check_all_completed(std::uint64_t submitted, std::uint64_t completed,
                         Failures& out) {
  if (submitted != completed) {
    out.push_back(std::to_string(submitted) + " commands submitted but " +
                  std::to_string(completed) + " completed");
  }
}

ReplayCheck::ReplayCheck(std::size_t groups, std::size_t replicas)
    : replicas_(replicas), maps_(groups * replicas), first_(groups) {}

void ReplayCheck::observe(std::size_t group, NodeId node,
                          const caesar::rsm::Command& cmd) {
  auto& map = maps_[group * replicas_ + node];
  for (const caesar::rsm::Op& op : cmd.ops) {
    Entry& e = map[op.key];
    e.value = op.value;
    ++e.version;
  }
  if (cmd.ops.empty()) return;
  const Delivered d{cmd.ops.front().req, cmd.ops.front().key};
  const auto [it, inserted] = first_[group].try_emplace(cmd.id, d);
  if (inserted || it->second.req == d.req) return;
  if (is_batch_member(cmd.id) && it->second.key == d.key) {
    ++swaps_;
    return;
  }
  if (mismatches_++ == 0) {
    std::ostringstream os;
    os << "group " << group << " replica " << node << " delivered request "
       << d.req << " under command " << cmd.id << ", first seen as request "
       << it->second.req;
    first_mismatch_ = os.str();
  }
}

void ReplayCheck::check_stores(std::size_t group, const ReplicaSet& rs,
                               Failures& out) const {
  for (std::size_t i : live_replicas(rs)) {
    const auto& map = maps_[group * replicas_ + i];
    const caesar::rsm::KvStore& store = rs.stores[i];
    bool same = map.size() == store.key_count();
    for (auto it = map.begin(); same && it != map.end(); ++it) {
      const auto e = store.get(it->first);
      same = e.has_value() && e->value == it->second.value &&
             e->version == it->second.version;
    }
    if (!same) {
      out.push_back("group " + std::to_string(group) + " replica " +
                    std::to_string(i) +
                    ": replayed deliveries do not reproduce its store");
      return;
    }
  }
}

void ReplayCheck::check_requests(bool batched, std::uint64_t* swapped_members,
                                 Failures& out) const {
  if (mismatches_ > 0) {
    out.push_back(std::to_string(mismatches_) +
                  " deliveries named another request than the first replica "
                  "saw under the same command id; first: " +
                  first_mismatch_);
  }
  if (swaps_ > 0 && !batched) {
    out.push_back(std::to_string(swaps_) +
                  " batch members swapped within a key in an unbatched run");
  }
  if (swapped_members != nullptr) *swapped_members = swaps_;
}

}  // namespace perfbench
