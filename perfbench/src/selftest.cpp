#include "selftest.h"

#include <cstdio>
#include <string>

#include "checks.h"
#include "probe.h"
#include "round.h"

namespace perfbench {

using namespace caesar;

namespace {

int g_bad = 0;

void expect(const char* name, bool rejected, bool want_rejected) {
  const bool ok = rejected == want_rejected;
  if (!ok) ++g_bad;
  std::printf("%-58s %s\n", name, ok ? "ok" : "WRONG");
}

rsm::Command write(CmdId id, Key key, ReqId req, std::uint64_t value) {
  rsm::Command c;
  c.id = id;
  c.origin = 0;
  c.ops = {rsm::Op{key, req, value}};
  return c;
}

/// Three replicas that delivered the same three writes (two to key 7).
struct Replicas {
  std::vector<rsm::DeliveryLog> logs{3};
  std::vector<rsm::KvStore> stores{3};
  std::vector<bool> crashed;

  Replicas() {
    for (std::size_t i = 0; i < 3; ++i) {
      for (const rsm::Command& c :
           {write(11, 7, 101, 1), write(12, 8, 102, 2), write(13, 7, 103, 3)}) {
        deliver(i, c);
      }
    }
  }
  void deliver(std::size_t i, const rsm::Command& c) {
    logs[i].record(c);
    stores[i].apply(c);
  }
  ReplicaSet set() const { return ReplicaSet{logs, stores, crashed}; }
};

bool rejects_versions(const Replicas& r) {
  Failures f;
  check_versions_match_logs(r.set(), f);
  return !f.empty();
}

bool rejects_convergence(const Replicas& r, bool batched,
                         std::uint64_t* divergent = nullptr) {
  Failures f;
  check_stores_converged(r.set(), batched, divergent, f);
  return !f.empty();
}

}  // namespace

int run_selftest() {
  g_bad = 0;
  {
    Replicas r;
    expect("versions: consistent replicas accepted", rejects_versions(r), false);
    r.stores[1].install(7, 3, 5);  // version without matching log entries
    expect("versions: store version above its log rejected", rejects_versions(r), true);
  }
  {
    Replicas r;
    expect("convergence: equal stores accepted", rejects_convergence(r, false), false);
    // Swap the entries of keys 7 and 8 on replica 2.
    r.stores[2].install(7, 2, 1);
    r.stores[2].install(8, 3, 2);
    expect("convergence: swapped store entries rejected", rejects_convergence(r, false),
           true);
    expect("convergence: swapped store entries rejected (batched)",
           rejects_convergence(r, true), true);
  }
  {
    // Same ids, same versions, different final value: the finalize()
    // signature, counted (not failed) only on a batched run.
    Replicas r;
    r.stores[1].install(7, 1, 2);
    std::uint64_t divergent = 0;
    expect("convergence: same-id value swap rejected (unbatched)",
           rejects_convergence(r, false), true);
    const bool rejected = rejects_convergence(r, true, &divergent);
    expect("convergence: same-id value swap counted (batched)",
           rejected || divergent != 1, false);
  }
  {
    Replicas r;
    Failures ok;
    check_equal_sequences(r.set(), ok);
    expect("sequences: equal sequences accepted", !ok.empty(), false);
    r.logs[0] = rsm::DeliveryLog{};
    for (const rsm::Command& c :
         {write(12, 8, 102, 2), write(11, 7, 101, 1), write(13, 7, 103, 3)}) {
      r.logs[0].record(c);
    }
    Failures f;
    check_equal_sequences(r.set(), f);
    expect("sequences: reordered sequence rejected", !f.empty(), true);
  }
  {
    const net::Topology topo = net::Topology::ec2_five_sites();
    std::vector<Time> mins;
    for (std::size_t i = 0; i < topo.size(); ++i) mins.push_back(majority_rtt_us(topo, i));
    const std::vector<std::uint64_t> counts(topo.size(), 10);
    Failures ok;
    check_latency_floor(topo, mins, counts, ok);
    expect("latency floor: minima at the round trip accepted", !ok.empty(), false);
    mins[3] -= 1;
    Failures f;
    check_latency_floor(topo, mins, counts, f);
    expect("latency floor: latency below the round trip rejected", !f.empty(), true);
  }
  {
    Failures ok;
    check_all_completed(500, 500, ok);
    expect("completion: all completed accepted", !ok.empty(), false);
    Failures f;
    check_all_completed(500, 499, f);
    expect("completion: a missing completion rejected", !f.empty(), true);
  }
  {
    Replicas r;
    ReplayCheck replay(1, 3);
    for (NodeId i = 0; i < 3; ++i) {
      for (const rsm::Command& c :
           {write(11, 7, 101, 1), write(12, 8, 102, 2), write(13, 7, 103, 3)}) {
        replay.observe(0, i, c);
      }
    }
    Failures ok;
    replay.check_stores(0, r.set(), ok);
    replay.check_requests(false, nullptr, ok);
    expect("replay: matching stores and requests accepted", !ok.empty(), false);
    r.stores[2].install(8, 9, 1);
    Failures f;
    replay.check_stores(0, r.set(), f);
    expect("replay: store value the deliveries never wrote rejected", !f.empty(), true);
  }
  {
    ReplayCheck replay(1, 2);
    replay.observe(0, 0, write(11, 7, 101, 1));
    replay.observe(0, 1, write(11, 7, 102, 1));
    Failures f;
    replay.check_requests(true, nullptr, f);
    expect("replay: another request under one command id rejected", !f.empty(), true);
  }
  {
    // Member 0 of a batch delivered as two different requests on one key.
    const CmdId member = batch_member_cmd_id(make_batch_cmd_id(0, 1), 0);
    ReplayCheck replay(1, 2);
    replay.observe(0, 0, write(member, 7, 101, 1));
    replay.observe(0, 1, write(member, 7, 102, 2));
    std::uint64_t swapped = 0;
    Failures batched;
    replay.check_requests(true, &swapped, batched);
    expect("replay: same-key batch member swap counted (batched)",
           !batched.empty() || swapped != 1, false);
    Failures unbatched;
    replay.check_requests(false, nullptr, unbatched);
    expect("replay: same-key batch member swap rejected (unbatched)",
           !unbatched.empty(), true);
  }
  {
    SimTotals a;
    a.completed = a.submitted = 10;
    a.messages = 40;
    a.measured.record(1000);
    SimTotals b = a;
    std::string why;
    expect("reproduction: identical totals accepted", !a.same_as(b, &why), false);
    b.messages = 41;
    expect("reproduction: a different message count rejected", !a.same_as(b, &why),
           true);
  }
  {
    Failures f;
    judge_oracle(false, "stores differ", false, 0, true, f);
    expect("oracle: failing verdict on an unbatched run rejected", !f.empty(), true);
    Failures g;
    judge_oracle(false, "sequences differ", true, 3, false, g);
    expect("oracle: non-store failure on a batched run rejected", !g.empty(), true);
  }
  const ProbeResult p = finalize_probe();
  std::printf("finalize() probe: %llu of %llu keys diverge\n",
              static_cast<unsigned long long>(p.divergent),
              static_cast<unsigned long long>(p.keys));
  std::printf("%s\n", g_bad == 0 ? "selftest passed" : "selftest FAILED");
  return g_bad == 0 ? 0 : 1;
}

}  // namespace perfbench
