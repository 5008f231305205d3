#include "tracer.h"

#include <fstream>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kSimStep: return "sim.step";
    case Layer::kPropose: return "protocol.propose";
    case Layer::kProposeBatch: return "protocol.propose_batch";
    case Layer::kOnMessage: return "protocol.on_message";
    case Layer::kOnCatchup: return "protocol.on_catchup";
    case Layer::kTimer: return "protocol.timer";
    case Layer::kUpcall: return "protocol.upcall";
    case Layer::kNetSend: return "net.send";
    case Layer::kRuntimeDeliver: return "runtime.deliver";
    case Layer::kRuntimeSubmit: return "runtime.submit";
    case Layer::kShardRoute: return "shard.route";
    case Layer::kRsmApply: return "rsm.apply";
    case Layer::kHarnessMirror: return "harness.mirror";
    case Layer::kWorkloadDelivery: return "workload.on_delivery";
    case Layer::kBenchCheck: return "bench.check";
    case Layer::kCount: break;
  }
  return "?";
}

bool Tracer::sampled(caesar::ReqId req) {
  if (req == 0) return false;
  // splitmix64 finaliser: request ids are dense per origin, so hash before
  // taking the modulus.
  std::uint64_t z = req + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z % kSampleEvery == 0;
}

void Tracer::record_open_frames() {
  std::int64_t parent = -1;
  for (Frame& f : stack_) {
    if (f.record < 0) {
      f.record = static_cast<std::int64_t>(spans_.size());
      spans_.push_back(
          SpanRecord{parent, f.layer, f.start - epoch_, 0, f.req, f.cmd});
    }
    parent = f.record;
  }
}

void Tracer::push(Layer layer, caesar::ReqId req, caesar::CmdId cmd) {
  stack_.push_back(Frame{layer, now(), 0, -1, req, cmd});
  if (sampled(req)) record_open_frames();
}

void Tracer::pop() {
  const std::uint64_t end = now();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = end - f.start;
  LayerTotals& t = totals_[static_cast<std::size_t>(f.layer)];
  ++t.calls;
  t.total_ns += dur;
  t.self_ns += dur > f.child_ns ? dur - f.child_ns : 0;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (f.record >= 0) spans_[static_cast<std::size_t>(f.record)].end_ns = end - epoch_;
}

bool Tracer::write_spans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"layer\":\""
        << layer_name(s.layer) << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"req\":" << s.req
        << ",\"cmd\":" << s.cmd << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
