// SLO admission control for the serving gateway.
//
// Before a request is routed, the gateway asks the admission controller
// whether any worker can plausibly finish it inside its deadline. The
// estimate reuses the scheduler's regression latency model (the same
// Algorithm 1/2 machinery that drives mask-aware routing): the best-case
// drain time over all workers. The gateway fits that model on this host's
// timed denoise steps at startup, so the estimate is in wall-clock seconds
// as it stands. Requests that cannot meet their SLO are rejected up front
// with a distinct status — shedding load early instead of queueing doomed
// work, as production diffusion frontends (InstGenIE-style) do. A
// queue-depth cap provides orthogonal overload shedding for requests
// without deadlines.
#ifndef FLASHPS_SRC_GATEWAY_ADMISSION_H_
#define FLASHPS_SRC_GATEWAY_ADMISSION_H_

#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "src/sched/latency_model.h"
#include "src/sched/scheduler.h"
#include "src/trace/workload.h"

namespace flashps::gateway {

class AdmissionController {
 public:
  struct Options {
    // Total accepted-but-not-yet-denoising requests (across all workers)
    // beyond which deadline-less requests are shed.
    size_t max_queue_depth = std::numeric_limits<size_t>::max();
  };

  enum class Decision {
    kAdmit,
    kRejectSlo,      // No worker can drain the request inside its budget.
    kShedOverload,   // Cluster-wide waiting depth exceeds the cap.
  };

  struct Verdict {
    Decision decision = Decision::kAdmit;
    // Best-case wall-clock drain estimate (seconds) over all workers.
    double estimated_wall_s = 0.0;
  };

  AdmissionController(sched::LatencyModel latency_model, Options options);

  // `budget_s`: wall-clock seconds until the request's deadline (nullopt
  // when the request carries no deadline; only the depth cap applies then).
  Verdict Evaluate(const trace::Request& request,
                   const std::vector<sched::WorkerStatus>& statuses,
                   std::optional<double> budget_s) const;

 private:
  sched::LatencyModel latency_model_;
  Options options_;
};

}  // namespace flashps::gateway

#endif  // FLASHPS_SRC_GATEWAY_ADMISSION_H_
