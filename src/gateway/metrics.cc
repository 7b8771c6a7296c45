#include "src/gateway/metrics.h"

#include <sstream>

namespace flashps::gateway {

namespace {

void AppendLatency(std::ostringstream& out, const std::string& name,
                   const LatencySummary& s) {
  out << "\"" << name << "\":{\"count\":" << s.count << ",\"mean_ms\":"
      << s.mean_ms << ",\"p50_ms\":" << s.p50_ms << ",\"p95_ms\":" << s.p95_ms
      << ",\"p99_ms\":" << s.p99_ms << ",\"max_ms\":" << s.max_ms << "}";
}

template <typename T>
void AppendArray(std::ostringstream& out, const std::string& name,
                 const std::vector<T>& values) {
  out << "\"" << name << "\":[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out << ",";
    }
    out << values[i];
  }
  out << "]";
}

}  // namespace

double MetricsSnapshot::SloAttainment() const {
  const uint64_t with_deadline = slo_met + slo_missed;
  if (with_deadline == 0) {
    return 1.0;
  }
  return static_cast<double>(slo_met) / static_cast<double>(with_deadline);
}

std::string MetricsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{";
  out << "\"submitted\":" << submitted << ",\"accepted\":" << accepted
      << ",\"rejected_slo\":" << rejected_slo
      << ",\"shed_overload\":" << shed_overload
      << ",\"rejected_shutdown\":" << rejected_shutdown
      << ",\"completed\":" << completed << ",\"slo_met\":" << slo_met
      << ",\"slo_missed\":" << slo_missed
      << ",\"slo_attainment\":" << SloAttainment() << ",";
  AppendLatency(out, "queueing", queueing);
  out << ",";
  AppendLatency(out, "denoise", denoise);
  out << ",";
  AppendLatency(out, "post", post);
  out << ",";
  AppendLatency(out, "end_to_end", end_to_end);
  out << ",";
  AppendArray(out, "worker_dispatched", worker_dispatched);
  out << ",";
  AppendArray(out, "worker_completed", worker_completed);
  out << ",";
  AppendArray(out, "worker_busy_ms", worker_busy_ms);
  out << ",";
  AppendArray(out, "worker_sat_out_steps", worker_sat_out_steps);
  out << ",";
  AppendArray(out, "worker_stream_wait_ms", worker_stream_wait_ms);
  out << "}";
  return out.str();
}

MetricsRegistry::MetricsRegistry(int num_workers) {
  counters_.worker_dispatched.assign(num_workers, 0);
  counters_.worker_completed.assign(num_workers, 0);
  counters_.worker_busy_ms.assign(num_workers, 0.0);
}

void MetricsRegistry::RecordSubmitted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.submitted;
}

void MetricsRegistry::RecordAccepted(int worker_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.accepted;
  ++counters_.worker_dispatched.at(worker_id);
}

void MetricsRegistry::RecordRejectedSlo() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.rejected_slo;
}

void MetricsRegistry::RecordShedOverload() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.shed_overload;
}

void MetricsRegistry::RecordRejectedShutdown() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.rejected_shutdown;
}

void MetricsRegistry::RecordCompleted(int worker_id, double queueing_ms,
                                      double denoise_ms, double post_ms,
                                      double end_to_end_ms, bool had_deadline,
                                      bool met_deadline) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.completed;
  ++counters_.worker_completed.at(worker_id);
  counters_.worker_busy_ms.at(worker_id) += denoise_ms;
  if (had_deadline) {
    if (met_deadline) {
      ++counters_.slo_met;
    } else {
      ++counters_.slo_missed;
    }
  }
  queueing_ms_.Add(queueing_ms);
  denoise_ms_.Add(denoise_ms);
  post_ms_.Add(post_ms);
  end_to_end_ms_.Add(end_to_end_ms);
}

LatencySummary MetricsRegistry::Summarize(const StatAccumulator& acc) {
  LatencySummary s;
  s.count = acc.count();
  if (acc.empty()) {
    return s;
  }
  s.mean_ms = acc.Mean();
  s.p50_ms = acc.P50();
  s.p95_ms = acc.P95();
  s.p99_ms = acc.P99();
  s.max_ms = acc.Max();
  return s;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap = counters_;
  snap.queueing = Summarize(queueing_ms_);
  snap.denoise = Summarize(denoise_ms_);
  snap.post = Summarize(post_ms_);
  snap.end_to_end = Summarize(end_to_end_ms_);
  return snap;
}

}  // namespace flashps::gateway
