#include "probe.h"

#include <optional>
#include <span>

#include "runtime/protocol.h"

namespace perfbench {

using namespace caesar;

namespace {

/// Just enough of a node for Protocol::propose_batch to build a composite.
class StubEnv final : public rt::Env {
 public:
  NodeId id() const override { return 0; }
  std::size_t cluster_size() const override { return 5; }
  Time now() const override { return 0; }
  void send(NodeId, std::uint16_t, net::Encoder) override {}
  void broadcast(std::uint16_t, net::Encoder, bool) override {}
  sim::EventId set_timer(Time, std::function<void()>) override {
    return sim::kNoEvent;
  }
  void cancel_timer(sim::EventId) override {}
  Rng& rng() override { return rng_; }
  void charge_cpu(Time) override {}
  CmdId fresh_cmd_id() override { return make_cmd_id(0, ++seq_); }

 private:
  Rng rng_{1};
  std::uint64_t seq_ = 0;
};

/// Keeps the command the default propose_batch hands to propose().
class CaptureProtocol final : public rt::Protocol {
 public:
  explicit CaptureProtocol(rt::Env& env)
      : rt::Protocol(env, [](const rsm::Command&) {}) {}
  void propose(rsm::Command cmd) override { proposed = std::move(cmd); }
  void on_message(NodeId, std::uint16_t, net::Decoder&) override {}
  std::string_view name() const override { return "capture"; }

  std::optional<rsm::Command> proposed;
};

rsm::KvStore unbundle(const rsm::Command& batch) {
  rsm::KvStore store;
  for (std::size_t k = 0; k < batch.ops.size(); ++k) {
    store.apply(rsm::batch_member(batch, k));
  }
  return store;
}

}  // namespace

ProbeResult finalize_probe() {
  // 64 single-write requests (the workload's batch_max_ops) over 24 keys,
  // in arrival order: 37 is coprime to 24, so each key's writes are spread
  // through the batch.
  constexpr std::uint64_t kOps = 64;
  constexpr std::uint64_t kKeys = 24;
  std::vector<rsm::Command> cmds;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    rsm::Command c;
    c.id = make_cmd_id(0, i + 1);
    c.origin = 0;
    c.ops = {rsm::Op{(i * 37) % kKeys, make_req_id(0, i + 1), i + 1}};
    c.finalize();
    cmds.push_back(std::move(c));
  }
  StubEnv env;
  CaptureProtocol origin(env);
  origin.propose_batch(std::move(cmds));
  const rsm::Command& sent = *origin.proposed;

  net::Encoder e;
  sent.encode(e);
  const std::vector<std::byte> wire = e.take();
  net::Decoder d{std::span<const std::byte>(wire)};
  const rsm::Command received = rsm::Command::decode(d);

  const rsm::KvStore at_origin = unbundle(sent);
  const rsm::KvStore at_receiver = unbundle(received);
  ProbeResult r;
  r.keys = at_origin.key_count();
  for (const auto& [key, entry] : at_origin.contents()) {
    const auto other = at_receiver.get(key);
    if (!other.has_value() || other->value != entry.value ||
        other->version != entry.version) {
      ++r.divergent;
    }
  }
  return r;
}

}  // namespace perfbench
