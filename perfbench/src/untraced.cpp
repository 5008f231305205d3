#include <sys/resource.h>

#include <chrono>

#include "harness/oracle.h"
#include "round.h"

namespace perfbench {

using namespace caesar;

bool SimTotals::same_as(const SimTotals& o, std::string* why) const {
  auto differ = [why](const char* what, std::uint64_t a, std::uint64_t b) {
    *why = std::string(what) + " " + std::to_string(a) + " vs " + std::to_string(b);
    return false;
  };
  if (completed != o.completed) return differ("completed", completed, o.completed);
  if (submitted != o.submitted) return differ("submitted", submitted, o.submitted);
  if (messages != o.messages) return differ("messages", messages, o.messages);
  if (bytes != o.bytes) return differ("bytes", bytes, o.bytes);
  if (measured.count() != o.measured.count()) {
    return differ("measured commands", measured.count(), o.measured.count());
  }
  for (double p : {50.0, 99.0, 99.9}) {
    if (measured.percentile(p) != o.measured.percentile(p)) {
      return differ(("latency p" + std::to_string(p)).c_str(),
                    measured.percentile(p), o.measured.percentile(p));
    }
  }
  if (site_min_us != o.site_min_us || site_count != o.site_count) {
    *why = "per-site latency summaries";
    return false;
  }
  return true;
}

void SimTotals::add(const SimTotals& o) {
  completed += o.completed;
  submitted += o.submitted;
  messages += o.messages;
  bytes += o.bytes;
  measured.merge(o.measured);
  if (site_count.empty()) {
    site_min_us = o.site_min_us;
    site_count = o.site_count;
    return;
  }
  for (std::size_t i = 0; i < site_count.size(); ++i) {
    if (o.site_count[i] > 0 && (site_count[i] == 0 || o.site_min_us[i] < site_min_us[i])) {
      site_min_us[i] = o.site_min_us[i];
    }
    site_count[i] += o.site_count[i];
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void judge_oracle(bool ok, const std::string& detail, bool batched,
                  std::uint64_t payload_divergent_keys, bool relaxed_ok,
                  Failures& out) {
  if (ok) return;
  if (batched && relaxed_ok && payload_divergent_keys > 0) return;
  out.push_back("library oracle: " + detail);
}

UntracedResult run_untraced(const Workload& w, const harness::Scenario& s) {
  using Clock = std::chrono::steady_clock;
  UntracedResult res;
  harness::ConsistencyOptions opt;
  opt.require_equal_sequences = w.total_order;

  const auto t0 = Clock::now();
  const harness::RunReport r = harness::run_scenario(s);
  const harness::ConsistencyVerdict verdict =
      harness::check_cluster_consistency(r, opt);
  res.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  SimTotals& t = res.totals;
  t.completed = r.completed;
  t.submitted = r.submitted;
  t.messages = r.messages;
  t.bytes = r.bytes;
  if (const stats::MetricsWindow* win = r.window("phase0")) t.measured = win->latency;
  for (const harness::SiteMetrics& site : r.sites) {
    t.site_min_us.push_back(site.latency.min());
    t.site_count.push_back(site.latency.count());
  }

  Failures& f = res.failures;
  if (t.measured.empty()) f.push_back("no window 'phase0' or no command in it");
  check_all_completed(t.submitted, t.completed, f);
  check_latency_floor(s.topology, t.site_min_us, t.site_count, f);
  auto check_group = [&](const ReplicaSet& rs) {
    check_versions_match_logs(rs, f);
    check_stores_converged(rs, w.batched, &res.payload_divergent_keys, f);
    if (w.total_order) check_equal_sequences(rs, f);
  };
  if (r.sharded()) {
    for (const harness::ShardMetrics& sm : r.shards) {
      check_group(ReplicaSet{sm.delivery_logs, sm.stores, sm.crashed_at_end});
    }
  } else {
    check_group(ReplicaSet{r.delivery_logs, r.stores, r.crashed_at_end});
  }
  bool relaxed_ok = false;
  if (!verdict.ok && w.batched) {
    harness::ConsistencyOptions relaxed = opt;
    relaxed.require_converged_stores = false;
    relaxed_ok = harness::check_cluster_consistency(r, relaxed).ok;
  }
  judge_oracle(verdict.ok, verdict.detail, w.batched,
               res.payload_divergent_keys, relaxed_ok, f);
  return res;
}

}  // namespace perfbench
