// perfbench_workload: runs one round of one benchmark workload and prints
// its figures as one JSON line. run.py starts one process per round.
//
//   perfbench_workload --workload NAME --seed N --mode plain|traced
//                      [--t0-ns NS] [--spans FILE]
//   perfbench_workload --selftest
//
// plain:  the untraced run; --t0-ns is the CLOCK_MONOTONIC instant the
//         parent started this process, for the set-up time.
// traced: the untraced run, then the traced run, which must reproduce it;
//         prints the per-layer figures and the tracing overhead.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "json_out.h"
#include "probe.h"
#include "round.h"
#include "selftest.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  std::string mode = "plain";
  std::int64_t t0_ns = -1;
  std::string spans;
  bool selftest = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_workload: %s\n"
               "usage: perfbench_workload --workload NAME --seed N "
               "--mode plain|traced [--t0-ns NS] [--spans FILE]\n"
               "       perfbench_workload --selftest\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || s[0] == '-') usage(what);
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v, "bad --seed");
      a.seed_set = true;
    } else if (flag == "--mode") {
      a.mode = v;
    } else if (flag == "--t0-ns") {
      a.t0_ns = static_cast<std::int64_t>(parse_u64(v, "bad --t0-ns"));
    } else if (flag == "--spans") {
      a.spans = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.selftest) return a;
  if (a.workload.empty() || !a.seed_set) usage("--workload and --seed are required");
  if (a.mode != "plain" && a.mode != "traced") usage("--mode is plain or traced");
  return a;
}

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// attempted/failed of one round. The seeded run's commands are the
/// operations, except on the batched workload: there the operations are the
/// keys of the fixed finalize() reproduction (probe.h), whose failures repeat
/// exactly whatever the seed.
void count_operations(const Workload& w, const SimTotals& t, JsonOut& out) {
  if (w.batched) {
    const ProbeResult p = finalize_probe();
    out.field("attempted", p.keys);
    out.field("failed", p.divergent);
  } else {
    out.field("attempted", t.completed);
    out.field("failed", std::uint64_t{0});
  }
}

void add_sim_figures(const Workload& w, std::size_t runs, const SimTotals& t,
                     JsonOut& out) {
  const double phase_s = static_cast<double>(runs) *
                         static_cast<double>(w.quiesce_at - w.runs.front().warmup) /
                         1e6;
  out.field("measured_cmds", t.measured.count());
  out.field("sim_throughput_tps", static_cast<double>(t.measured.count()) / phase_s);
  out.field("sim_latency_p50_ms", static_cast<double>(t.measured.percentile(50)) / 1000.0);
  out.field("sim_latency_p999_ms",
            static_cast<double>(t.measured.percentile(99.9)) / 1000.0);
}

int run(const Args& a) {
  const Workload w = make_workload(a.workload, a.seed);
  JsonOut out;
  out.field("workload", w.name);
  out.field("seed", a.seed);
  out.field("mode", a.mode);
  Failures failures;

  if (a.mode == "plain") {
    // Hand-off to the runner: everything before this is set-up.
    const double setup_s =
        a.t0_ns >= 0 ? static_cast<double>(monotonic_ns() - a.t0_ns) / 1e9 : 0.0;
    SimTotals totals;
    double wall_s = 0;
    std::uint64_t divergent = 0;
    for (const caesar::harness::Scenario& s : w.runs) {
      const UntracedResult u = run_untraced(w, s);
      totals.add(u.totals);
      wall_s += u.wall_s;
      divergent += u.payload_divergent_keys;
      failures.insert(failures.end(), u.failures.begin(), u.failures.end());
    }
    out.field("setup_s", setup_s);
    out.field("wall_s", wall_s);
    out.field("completed", totals.completed);
    out.field("host_cmds_per_s", static_cast<double>(totals.completed) / wall_s);
    out.field("peak_rss_mb", peak_rss_mb());
    add_sim_figures(w, w.runs.size(), totals, out);
    out.field("payload_divergent_keys", divergent);
    count_operations(w, totals, out);
  } else {
    // The traced run covers the first sub-seed.
    const UntracedResult u = run_untraced(w, w.runs.front());
    const TracedResult t = run_traced(w, w.runs.front(), a.spans);
    failures = u.failures;
    failures.insert(failures.end(), t.failures.begin(), t.failures.end());
    std::string why;
    if (!t.totals.same_as(u.totals, &why)) {
      failures.push_back("traced run does not reproduce the untraced run: " + why);
    }
    out.field("completed", t.totals.completed);
    add_sim_figures(w, 1, t.totals, out);
    out.begin_object("layers");
    for (const auto& [name, value] : t.layers) out.field(name, value);
    out.field("trace.overhead_frac", t.wall_s / u.wall_s - 1.0);
    out.end_object();
    count_operations(w, t.totals, out);
  }
  out.string_list("failures", failures);
  out.field("correct", failures.empty());
  std::printf("%s\n", out.finish().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.selftest) return perfbench::run_selftest();
    return run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
}
