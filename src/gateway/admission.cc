#include "src/gateway/admission.h"

#include <algorithm>

namespace flashps::gateway {

AdmissionController::AdmissionController(sched::LatencyModel latency_model,
                                         Options options)
    : latency_model_(std::move(latency_model)), options_(options) {}

AdmissionController::Verdict AdmissionController::Evaluate(
    const trace::Request& request,
    const std::vector<sched::WorkerStatus>& statuses,
    std::optional<double> budget_s) const {
  Verdict verdict;

  size_t total_waiting = 0;
  double best_s = std::numeric_limits<double>::max();
  for (const auto& status : statuses) {
    total_waiting += status.waiting_ratios.size();
    best_s = std::min(
        best_s, sched::EstimateDrainSeconds(latency_model_, request, status));
  }
  verdict.estimated_wall_s = statuses.empty() ? 0.0 : best_s;

  if (budget_s.has_value()) {
    // A request with a deadline is admitted iff the best worker's estimated
    // drain fits the remaining budget; an infeasible request is rejected
    // explicitly rather than queued to miss its SLO.
    if (verdict.estimated_wall_s > *budget_s) {
      verdict.decision = Decision::kRejectSlo;
    }
    return verdict;
  }

  if (total_waiting >= options_.max_queue_depth) {
    verdict.decision = Decision::kShedOverload;
  }
  return verdict;
}

}  // namespace flashps::gateway
