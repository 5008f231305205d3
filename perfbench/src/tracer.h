// Span tracer for the traced benchmark run.
//
// Every call that crosses a layer's public boundary is bracketed by a Scope.
// The tracer keeps, per layer, the call count, the inclusive time and the
// self time (inclusive time minus the time of the spans nested inside it).
// Totals cover every call. Full span records (start, end, parent, command
// id) are kept only for a sampled subset of client requests, together with
// the chain of enclosing spans that led to them, and are written out once
// the run ends.
//
// The tracer is single-threaded, like the simulator it observes.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "rsm/command.h"

namespace perfbench {

enum class Layer : std::uint8_t {
  kSimStep,            // sim::Simulator::step
  kPropose,            // rt::Protocol::propose
  kProposeBatch,       // rt::Protocol::propose_batch
  kOnMessage,          // rt::Protocol::on_message
  kOnCatchup,          // rt::Protocol::on_catchup_{request,reply,snapshot}
  kTimer,              // callbacks the protocol handed to Env::set_timer
  kUpcall,             // start / failure-detector / recover upcalls
  kNetSend,            // rt::Env::send / broadcast
  kRuntimeDeliver,     // the deliver callback the protocol receives
  kRuntimeSubmit,      // rt::Node::submit via the wl::Frontend
  kShardRoute,         // shard::ShardRouter::submit / on_delivery
  kRsmApply,           // rsm::KvStore::apply
  kHarnessMirror,      // rsm::DeliveryLog::record
  kWorkloadDelivery,   // wl::ClientPool::on_delivery
  kBenchCheck,         // the benchmark's own replay check (not a layer)
  kCount,
};

const char* layer_name(Layer l);

/// Protocol entry points, summed into the per-protocol handler metrics.
inline constexpr std::array<Layer, 6> kHandlerLayers = {
    Layer::kPropose, Layer::kProposeBatch, Layer::kOnMessage,
    Layer::kOnCatchup, Layer::kTimer,      Layer::kUpcall};

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t total_ns = 0;
};

struct SpanRecord {
  std::int64_t parent = -1;  // index into the span list, -1 for a root
  Layer layer = Layer::kSimStep;
  std::uint64_t start_ns = 0;  // relative to the tracer's epoch
  std::uint64_t end_ns = 0;
  caesar::ReqId req = 0;  // 0 when the boundary carries no command
  caesar::CmdId cmd = 0;
};

class Tracer {
 public:
  /// Keeps full spans for requests whose hashed id is 0 modulo this.
  static constexpr std::uint64_t kSampleEvery = 256;

  Tracer() : epoch_(now()) {}

  void push(Layer layer, caesar::ReqId req = 0, caesar::CmdId cmd = 0);
  void pop();

  const LayerTotals& totals(Layer l) const {
    return totals_[static_cast<std::size_t>(l)];
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Writes the sampled spans as JSON Lines; false when the file cannot be
  /// written.
  bool write_spans(const std::string& path) const;

  static std::uint64_t now() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  struct Frame {
    Layer layer;
    std::uint64_t start;
    std::uint64_t child_ns;
    std::int64_t record;  // index into spans_ once sampled, else -1
    caesar::ReqId req;
    caesar::CmdId cmd;
  };

  static bool sampled(caesar::ReqId req);
  /// Gives every open frame a span record, so a sampled span's parent chain
  /// is complete.
  void record_open_frames();

  std::uint64_t epoch_;
  std::vector<Frame> stack_;
  std::array<LayerTotals, static_cast<std::size_t>(Layer::kCount)> totals_{};
  std::vector<SpanRecord> spans_;
};

/// The request a command carries: its first op's client request (a batch
/// composite is named by its first member's).
inline caesar::ReqId req_of(const caesar::rsm::Command& cmd) {
  return cmd.ops.empty() ? 0 : cmd.ops.front().req;
}

class Scope {
 public:
  Scope(Tracer& t, Layer layer, caesar::ReqId req = 0, caesar::CmdId cmd = 0)
      : t_(t) {
    t_.push(layer, req, cmd);
  }
  ~Scope() { t_.pop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
};

}  // namespace perfbench
