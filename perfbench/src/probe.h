// Fixed-input reproduction of the rsm::Command::finalize() reordering fault.
//
// One batch of client writes, with several writes per key, goes through the
// path a batched run takes: the origin's batcher builds the composite with
// Protocol::propose_batch (make_composite + finalize), a receiver rebuilds
// it with Command::encode / Command::decode (which finalizes again), and
// both unbundle it with rsm::batch_member into their stores. A key whose
// final entry differs between the two stores is one failed operation. The
// inputs do not depend on the benchmark seed, so the count repeats exactly.
#pragma once

#include <cstdint>

namespace perfbench {

struct ProbeResult {
  std::uint64_t keys = 0;       // distinct keys the batch writes
  std::uint64_t divergent = 0;  // keys whose final entry differs
};

ProbeResult finalize_probe();

}  // namespace perfbench
