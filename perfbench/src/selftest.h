// Self-tests of the independent checks: each check is fed a consistent
// input it must accept and a corrupted one it must reject.
#pragma once

namespace perfbench {

/// Prints one line per case; returns 0 when every case behaves, 1 otherwise.
int run_selftest();

}  // namespace perfbench
