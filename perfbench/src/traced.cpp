// The traced run: the workload's cluster rebuilt from sim::Simulator,
// rt::Cluster / shard::ShardedCluster and wl::ClientPool in the order
// harness::run_scenario builds it, so the simulation is the same event for
// event, with a Scope around every call that crosses a layer boundary.
#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>

#include "harness/oracle.h"
#include "round.h"
#include "shard/shard_router.h"
#include "shard/sharded_cluster.h"
#include "tracer.h"

namespace perfbench {

using namespace caesar;

namespace {

/// Forwards every Env service to the node, timing sends and wrapping the
/// protocol's timer callbacks.
class TracingEnv final : public rt::Env {
 public:
  TracingEnv(rt::Env& node, Tracer& t) : node_(node), t_(t) {}

  NodeId id() const override { return node_.id(); }
  std::size_t cluster_size() const override { return node_.cluster_size(); }
  Time now() const override { return node_.now(); }
  net::Encoder encoder() override { return node_.encoder(); }
  void send(NodeId to, std::uint16_t type, net::Encoder body) override {
    Scope s(t_, Layer::kNetSend);
    ++messages_sent;
    node_.send(to, type, std::move(body));
  }
  void broadcast(std::uint16_t type, net::Encoder body,
                 bool include_self) override {
    Scope s(t_, Layer::kNetSend);
    messages_sent += node_.cluster_size() - (include_self ? 0 : 1);
    node_.broadcast(type, std::move(body), include_self);
  }
  sim::EventId set_timer(Time delay, std::function<void()> fn) override {
    return node_.set_timer(delay, [&t = t_, fn = std::move(fn)] {
      Scope s(t, Layer::kTimer);
      fn();
    });
  }
  void cancel_timer(sim::EventId id) override { node_.cancel_timer(id); }
  Rng& rng() override { return node_.rng(); }
  void charge_cpu(Time extra) override { node_.charge_cpu(extra); }
  CmdId fresh_cmd_id() override { return node_.fresh_cmd_id(); }
  CmdId fresh_batch_id() override { return node_.fresh_batch_id(); }
  storage::Durability* durability() override { return node_.durability(); }
  void notify_snapshot_install(const rsm::KvStore& store,
                               std::uint64_t delivered_count) override {
    node_.notify_snapshot_install(store, delivered_count);
  }

  /// Point-to-point messages handed to the network (a broadcast counts one
  /// per recipient).
  std::uint64_t messages_sent = 0;

 private:
  rt::Env& node_;
  Tracer& t_;
};

/// Times every protocol entry point of the wrapped protocol, which runs on
/// a TracingEnv. Owns both; the protocol is destroyed before its env.
class TracingProtocol final : public rt::Protocol {
 public:
  TracingProtocol(rt::Env& node, std::unique_ptr<TracingEnv> env,
                  std::unique_ptr<rt::Protocol> inner, Tracer& t)
      : rt::Protocol(node, nullptr),
        env_(std::move(env)),
        inner_(std::move(inner)),
        t_(t) {}

  void start() override {
    Scope s(t_, Layer::kUpcall);
    inner_->start();
  }
  void propose(rsm::Command cmd) override {
    Scope s(t_, Layer::kPropose, req_of(cmd), cmd.id);
    inner_->propose(std::move(cmd));
  }
  void propose_batch(std::vector<rsm::Command> cmds) override {
    Scope s(t_, Layer::kProposeBatch, cmds.empty() ? 0 : req_of(cmds.front()));
    inner_->propose_batch(std::move(cmds));
  }
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override {
    Scope s(t_, Layer::kOnMessage);
    inner_->on_message(from, type, d);
  }
  void on_node_suspected(NodeId peer) override {
    Scope s(t_, Layer::kUpcall);
    inner_->on_node_suspected(peer);
  }
  void on_node_recovered(NodeId peer) override {
    Scope s(t_, Layer::kUpcall);
    inner_->on_node_recovered(peer);
  }
  void on_recover() override {
    Scope s(t_, Layer::kUpcall);
    inner_->on_recover();
  }
  void on_catchup_request(NodeId from, net::Decoder& d) override {
    Scope s(t_, Layer::kOnCatchup);
    inner_->on_catchup_request(from, d);
  }
  void on_catchup_reply(NodeId from, net::Decoder& d) override {
    Scope s(t_, Layer::kOnCatchup);
    inner_->on_catchup_reply(from, d);
  }
  void on_catchup_snapshot(NodeId from, net::Decoder& d) override {
    Scope s(t_, Layer::kOnCatchup);
    inner_->on_catchup_snapshot(from, d);
  }
  void on_restore(storage::RecoveredState& st) override { inner_->on_restore(st); }
  std::string_view name() const override { return inner_->name(); }

  const TracingEnv& env() const { return *env_; }

 private:
  std::unique_ptr<TracingEnv> env_;
  std::unique_ptr<rt::Protocol> inner_;
  Tracer& t_;
};

/// The classic path's frontend (wl::ClusterFrontend), timing Node::submit.
class TracedClusterFrontend final : public wl::Frontend {
 public:
  TracedClusterFrontend(rt::Cluster& c, Tracer& t) : c_(c), t_(t) {}
  std::size_t sites() const override { return c_.size(); }
  bool crashed(NodeId site) const override { return c_.node(site).crashed(); }
  NodeId submit(NodeId site, rsm::Command cmd) override {
    if (c_.node(site).crashed()) return kNoNode;
    Scope s(t_, Layer::kRuntimeSubmit, req_of(cmd));
    c_.node(site).submit(std::move(cmd));
    return site;
  }

 private:
  rt::Cluster& c_;
  Tracer& t_;
};

/// Times ShardRouter::submit (which calls Node::submit inside).
class TracedRouterFrontend final : public wl::Frontend {
 public:
  TracedRouterFrontend(shard::ShardRouter& r, Tracer& t) : r_(r), t_(t) {}
  std::size_t sites() const override { return r_.sites(); }
  bool crashed(NodeId site) const override { return r_.crashed(site); }
  NodeId submit(NodeId site, rsm::Command cmd) override {
    Scope s(t_, Layer::kShardRoute, req_of(cmd));
    return r_.submit(site, std::move(cmd));
  }

 private:
  shard::ShardRouter& r_;
  Tracer& t_;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

TracedResult run_traced(const Workload& w, const harness::Scenario& s,
                        const std::string& spans_path) {
  using Clock = std::chrono::steady_clock;
  const std::size_t n = s.topology.size();
  const bool sharded = s.shards.sharded();
  const std::uint32_t groups = sharded ? s.shards.count : 1;
  for (const harness::FaultEvent& e : s.faults) {
    if (e.kind != harness::FaultEvent::Kind::kPartition &&
        e.kind != harness::FaultEvent::Kind::kHeal) {
      throw std::logic_error("the traced run replays partition/heal faults only");
    }
  }

  Tracer tr;
  TracedResult res;
  const auto t_build = Clock::now();

  sim::Simulator sim(s.seed);
  std::vector<stats::ProtocolStats> per_node(groups * n);
  std::vector<std::vector<rsm::DeliveryLog>> logs(
      groups, std::vector<rsm::DeliveryLog>(n));
  std::vector<std::vector<rsm::KvStore>> kvs(groups, std::vector<rsm::KvStore>(n));
  std::vector<TracingProtocol*> protocols;
  ReplayCheck replay(groups, n);
  std::uint64_t deliveries = 0;
  std::uint64_t instances = 0;

  rt::ClusterConfig ccfg;
  ccfg.node = s.node;
  ccfg.fd_timeout_us = s.fd_timeout_us;
  ccfg.suspect_partitions = s.fd_suspect_partitions;
  ccfg.storage = s.storage;

  // Wraps the library's protocol factory: the protocol runs on a TracingEnv,
  // its deliver callback is timed, and the node hosts the tracing shell.
  auto traced_factory = [&](rt::Cluster::ProtocolFactory base) {
    return [&, base = std::move(base)](rt::Env& node, rt::Protocol::DeliverFn deliver)
               -> std::unique_ptr<rt::Protocol> {
      auto env = std::make_unique<TracingEnv>(node, tr);
      rt::Protocol::DeliverFn timed = [&tr, deliver = std::move(deliver)](
                                          const rsm::Command& cmd) {
        Scope sc(tr, Layer::kRuntimeDeliver, req_of(cmd), cmd.id);
        deliver(cmd);
      };
      std::unique_ptr<rt::Protocol> inner = base(*env, std::move(timed));
      auto shell = std::make_unique<TracingProtocol>(node, std::move(env),
                                                     std::move(inner), tr);
      protocols.push_back(shell.get());
      return shell;
    };
  };

  wl::ClientPool* pool_ptr = nullptr;
  shard::ShardRouter* router_ptr = nullptr;
  auto on_deliver = [&](std::uint32_t g, NodeId node, const rsm::Command& cmd) {
    ++deliveries;
    {
      Scope sc(tr, Layer::kHarnessMirror, req_of(cmd), cmd.id);
      logs[g][node].record(cmd);
    }
    {
      Scope sc(tr, Layer::kRsmApply, req_of(cmd), cmd.id);
      kvs[g][node].apply(cmd);
    }
    {
      Scope sc(tr, Layer::kBenchCheck);
      replay.observe(g, node, cmd);
    }
    if (router_ptr != nullptr) {
      Scope sc(tr, Layer::kShardRoute, req_of(cmd), cmd.id);
      router_ptr->on_delivery(g, node, cmd);
    }
    if (pool_ptr != nullptr) {
      Scope sc(tr, Layer::kWorkloadDelivery, req_of(cmd), cmd.id);
      pool_ptr->on_delivery(node, cmd);
    }
  };

  std::unique_ptr<rt::Cluster> cluster;
  std::unique_ptr<shard::ShardedCluster> scluster;
  std::unique_ptr<shard::ShardRouter> router;
  std::unique_ptr<wl::Frontend> front;
  std::unique_ptr<wl::ClientPool> pool;
  if (sharded) {
    scluster = std::make_unique<shard::ShardedCluster>(
        sim, s.topology, ccfg, groups,
        [&](std::uint32_t g) {
          return traced_factory(harness::detail::make_factory(s, per_node, g * n));
        },
        on_deliver);
    scluster->set_instance_hook([&](std::uint32_t, NodeId) { ++instances; });
    router = std::make_unique<shard::ShardRouter>(*scluster, shard::ShardMap(s.shards));
    router_ptr = router.get();
    front = std::make_unique<TracedRouterFrontend>(*router, tr);
  } else {
    cluster = std::make_unique<rt::Cluster>(
        sim, s.topology, ccfg,
        traced_factory(harness::detail::make_factory(s, per_node)),
        [&](NodeId node, const rsm::Command& cmd) { on_deliver(0, node, cmd); });
    cluster->set_instance_hook([&](NodeId) { ++instances; });
    front = std::make_unique<TracedClusterFrontend>(*cluster, tr);
  }
  pool = std::make_unique<wl::ClientPool>(sim, *front, s.workload, sim.rng().fork(),
                                          s.phases, s.duration);
  pool_ptr = pool.get();
  if (router) router->set_loss_hook([&](ReqId req) { pool->on_request_lost(req); });

  SimTotals& t = res.totals;
  t.site_min_us.assign(n, 0);
  t.site_count.assign(n, 0);
  pool->set_completion_hook([&](const wl::Completion& c) {
    if (c.complete_time < s.warmup) return;
    const Time latency = c.complete_time - c.submit_time;
    if (t.site_count[c.site]++ == 0 || latency < t.site_min_us[c.site]) {
      t.site_min_us[c.site] = latency;
    }
    if (c.complete_time < w.quiesce_at) t.measured.record(latency);
  });
  const double build_s = seconds_since(t_build);

  if (sharded) {
    scluster->start();
  } else {
    cluster->start();
  }
  pool->start();
  for (const harness::FaultEvent& e : s.faults) {
    const bool up = e.kind == harness::FaultEvent::Kind::kHeal;
    sim.at(e.at, [&, e, up] {
      if (sharded) {
        scluster->set_link(e.group, e.a, e.b, up);
      } else {
        cluster->set_link(e.a, e.b, up);
      }
    });
  }

  // Simulator::run_until(duration), one timed step at a time: the sentinel
  // one microsecond past the end runs after every event due by then.
  bool done = false;
  sim.at(s.duration + 1, [&done] { done = true; });
  std::size_t peak_pending = 0;
  while (!done) {
    bool stepped = false;
    {
      Scope sc(tr, Layer::kSimStep);
      stepped = sim.step();
    }
    if (!stepped) break;
    peak_pending = std::max(peak_pending, sim.pending_events());
  }
  const std::uint64_t events = sim.executed_events() - (done ? 1 : 0);

  // The library oracle over the traced replica state.
  const auto t_oracle = Clock::now();
  harness::ConsistencyOptions opt;
  opt.require_equal_sequences = w.total_order;
  std::vector<bool> crashed(n, false);
  std::vector<harness::ConsistencyVerdict> verdicts;
  for (std::uint32_t g = 0; g < groups; ++g) {
    verdicts.push_back(
        harness::check_replica_set_consistency(logs[g], kvs[g], crashed, opt));
  }
  const double oracle_s = seconds_since(t_oracle);
  res.wall_s = seconds_since(t_build);

  t.completed = pool->completed();
  t.submitted = pool->submitted();
  std::uint64_t net_sent = 0;
  double busy_max = 0;
  std::vector<std::uint64_t> routed;
  for (std::uint32_t g = 0; g < groups; ++g) {
    rt::Cluster& c = sharded ? scluster->group(g) : *cluster;
    t.messages += c.network().messages_delivered();
    t.bytes += c.network().bytes_sent();
    for (NodeId i = 0; i < n; ++i) {
      busy_max = std::max(busy_max, static_cast<double>(c.node(i).cpu_busy_time()) /
                                        static_cast<double>(s.duration));
    }
  }
  for (const TracingProtocol* p : protocols) net_sent += p->env().messages_sent;

  // Independent checks on the traced state.
  Failures& f = res.failures;
  check_all_completed(t.submitted, t.completed, f);
  check_latency_floor(s.topology, t.site_min_us, t.site_count, f);
  std::uint64_t divergent_keys = 0;
  std::uint64_t swapped = 0;
  for (std::uint32_t g = 0; g < groups; ++g) {
    const ReplicaSet rs{logs[g], kvs[g], crashed};
    check_versions_match_logs(rs, f);
    check_stores_converged(rs, w.batched, &divergent_keys, f);
    if (w.total_order) check_equal_sequences(rs, f);
    replay.check_stores(g, rs, f);
    bool relaxed_ok = false;
    if (!verdicts[g].ok && w.batched) {
      harness::ConsistencyOptions relaxed = opt;
      relaxed.require_converged_stores = false;
      relaxed_ok = harness::check_replica_set_consistency(logs[g], kvs[g], crashed,
                                                          relaxed).ok;
    }
    judge_oracle(verdicts[g].ok, verdicts[g].detail, w.batched, divergent_keys,
                 relaxed_ok, f);
  }
  replay.check_requests(w.batched, &swapped, f);
  if (!spans_path.empty() && !tr.write_spans(spans_path)) {
    f.push_back("cannot write spans to " + spans_path);
  }

  // Per-layer metrics.
  const double cmds = static_cast<double>(t.completed);
  auto self_ns = [&](Layer l) { return static_cast<double>(tr.totals(l).self_ns); };
  auto calls = [&](Layer l) { return static_cast<double>(tr.totals(l).calls); };
  double handler_ns = 0;
  double handler_calls = 0;
  for (Layer l : kHandlerLayers) {
    handler_ns += self_ns(l);
    handler_calls += calls(l);
  }
  const bool is_caesar = s.protocol == harness::ProtocolKind::kCaesar;
  const bool is_mencius = s.protocol == harness::ProtocolKind::kMencius;
  const stats::ProtocolStats proto = harness::detail::aggregate(per_node);
  const double decisions =
      static_cast<double>(proto.fast_decisions + proto.slow_decisions);
  auto ms = [](Time us) { return static_cast<double>(us) / 1000.0; };
  double imbalance = 0;
  if (router) {
    const auto& r = router->stats().routed;
    double sum = 0;
    double top = 0;
    for (std::uint64_t x : r) {
      sum += static_cast<double>(x);
      top = std::max(top, static_cast<double>(x));
    }
    imbalance = ratio(top, sum / static_cast<double>(r.size()));
  }
  std::uint64_t mirror_entries = 0;
  for (const auto& group_logs : logs) {
    for (const rsm::DeliveryLog& log : group_logs) {
      mirror_entries += log.size();
      for (const auto& [key, ids] : log.per_key()) mirror_entries += ids.size();
    }
  }

  res.layers = {
      {"sim.events_per_cmd", ratio(static_cast<double>(events), cmds)},
      {"sim.self_ns_per_event", ratio(self_ns(Layer::kSimStep), static_cast<double>(events))},
      {"sim.peak_pending_events", static_cast<double>(peak_pending)},
      {"net.msgs_per_cmd", ratio(static_cast<double>(t.messages), cmds)},
      {"net.bytes_per_cmd", ratio(static_cast<double>(t.bytes), cmds)},
      {"net.send_ns_per_msg", ratio(self_ns(Layer::kNetSend), static_cast<double>(net_sent))},
      {"runtime.cpu_busy_max_frac", busy_max},
      {"runtime.cmds_per_instance",
       ratio(static_cast<double>(deliveries), static_cast<double>(instances))},
      {"runtime.submit_ns_per_cmd", ratio(self_ns(Layer::kRuntimeSubmit), cmds)},
      {"runtime.deliver_ns_per_cmd", ratio(self_ns(Layer::kRuntimeDeliver), cmds)},
      {"core.handler_ns_per_cmd", is_caesar ? ratio(handler_ns, cmds) : 0.0},
      {"core.handler_calls_per_cmd", is_caesar ? ratio(handler_calls, cmds) : 0.0},
      {"core.fast_path_frac",
       is_caesar ? ratio(static_cast<double>(proto.fast_decisions), decisions) : 0.0},
      {"core.retries_per_kcmd",
       is_caesar ? ratio(1000.0 * static_cast<double>(proto.retries), cmds) : 0.0},
      {"core.wait_p50_ms", is_caesar ? ms(proto.wait_time.percentile(50)) : 0.0},
      {"core.wait_p99_ms", is_caesar ? ms(proto.wait_time.percentile(99)) : 0.0},
      {"core.propose_phase_p50_ms",
       is_caesar ? ms(proto.propose_phase.percentile(50)) : 0.0},
      {"core.deliver_phase_p50_ms",
       is_caesar ? ms(proto.deliver_phase.percentile(50)) : 0.0},
      {"core.recoveries_per_kcmd",
       is_caesar ? ratio(1000.0 * static_cast<double>(proto.recoveries), cmds) : 0.0},
      {"mencius.handler_ns_per_cmd", is_mencius ? ratio(handler_ns, cmds) : 0.0},
      {"mencius.handler_calls_per_cmd", is_mencius ? ratio(handler_calls, cmds) : 0.0},
      {"rsm.apply_ns_per_cmd", ratio(self_ns(Layer::kRsmApply), cmds)},
      {"rsm.payload_divergent_keys", static_cast<double>(divergent_keys)},
      {"rsm.swapped_batch_members", static_cast<double>(swapped)},
      {"workload.on_delivery_ns_per_cmd", ratio(self_ns(Layer::kWorkloadDelivery), cmds)},
      {"harness.mirror_ns_per_cmd", ratio(self_ns(Layer::kHarnessMirror), cmds)},
      {"harness.mirror_entries", static_cast<double>(mirror_entries)},
      {"harness.oracle_s", oracle_s},
      {"harness.cluster_build_s", build_s},
      {"shard.route_ns_per_cmd", ratio(self_ns(Layer::kShardRoute), cmds)},
      {"shard.group_imbalance", imbalance},
  };
  return res;
}

}  // namespace perfbench
