// Lock-protected serving metrics for the real-concurrency gateway.
//
// The registry is the gateway's single source of truth for SLO reporting:
// monotonically increasing counters for every admission outcome, latency
// histograms for each request phase (queueing, denoise, post-processing,
// end-to-end), and per-worker dispatch/utilization tallies. Everything is
// guarded by one mutex — the gateway records a handful of samples per
// request, so contention is negligible next to denoising work — and exports
// as JSON for downstream dashboards (`BENCH_gateway.json` et al.).
#ifndef FLASHPS_SRC_GATEWAY_METRICS_H_
#define FLASHPS_SRC_GATEWAY_METRICS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/stats.h"

namespace flashps::gateway {

// Summary of one latency series (milliseconds) at export time.
struct LatencySummary {
  size_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

// A point-in-time copy of every metric, safe to read without locks.
struct MetricsSnapshot {
  // Admission counters. submitted = accepted + rejected_slo + shed_overload
  // + rejected_shutdown, always.
  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected_slo = 0;       // Admission: estimated drain misses SLO.
  uint64_t shed_overload = 0;      // Admission: queue depth cap exceeded.
  uint64_t rejected_shutdown = 0;  // Arrived after StopAccepting()/Stop().
  uint64_t completed = 0;
  uint64_t slo_met = 0;     // Completed within their deadline.
  uint64_t slo_missed = 0;  // Completed, but past their deadline.

  LatencySummary queueing;
  LatencySummary denoise;
  LatencySummary post;
  LatencySummary end_to_end;

  // Per-worker dispatch counts and busy time (denoise occupancy).
  std::vector<uint64_t> worker_dispatched;
  std::vector<uint64_t> worker_completed;
  std::vector<double> worker_busy_ms;
  // Per-worker streamed-record stalls, read from the workers at snapshot
  // time: member-steps sat out while a record's next step was still
  // landing, and the denoise thread's waits with no member able to step.
  std::vector<uint64_t> worker_sat_out_steps;
  std::vector<double> worker_stream_wait_ms;

  // Fraction of completed requests that met their deadline (1.0 when no
  // request carried a deadline).
  double SloAttainment() const;
  std::string ToJson() const;
};

class MetricsRegistry {
 public:
  explicit MetricsRegistry(int num_workers);

  // Admission outcomes.
  void RecordSubmitted();
  void RecordAccepted(int worker_id);
  void RecordRejectedSlo();
  void RecordShedOverload();
  void RecordRejectedShutdown();

  // Completion: phase latencies in milliseconds; `met_deadline` is
  // meaningful only when `had_deadline`.
  void RecordCompleted(int worker_id, double queueing_ms, double denoise_ms,
                       double post_ms, double end_to_end_ms, bool had_deadline,
                       bool met_deadline);

  MetricsSnapshot Snapshot() const;
  std::string ToJson() const { return Snapshot().ToJson(); }

 private:
  static LatencySummary Summarize(const StatAccumulator& acc);

  mutable std::mutex mu_;
  MetricsSnapshot counters_;  // Histogram fields unused; counters only.
  StatAccumulator queueing_ms_;
  StatAccumulator denoise_ms_;
  StatAccumulator post_ms_;
  StatAccumulator end_to_end_ms_;
};

}  // namespace flashps::gateway

#endif  // FLASHPS_SRC_GATEWAY_METRICS_H_
