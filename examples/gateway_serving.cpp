// Serving-gateway demo: a multi-worker frontend over real OnlineServer
// threads. Phase 1 replays a Poisson burst through each routing policy and
// prints per-policy latency percentiles and SLO attainment; phase 2 shows
// admission control rejecting an infeasible SLO up front instead of
// queueing doomed work.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/gateway/gateway.h"

using namespace flashps;

namespace {

gateway::GatewayOptions MakeOptions(sched::RoutePolicy policy) {
  gateway::GatewayOptions options;
  options.num_workers = 2;
  options.worker.numerics = model::NumericsConfig::ForTests();
  options.worker.numerics.num_steps = 6;
  options.worker.max_batch = 3;
  options.policy = policy;
  options.slo = Duration::Seconds(2.0);  // Track attainment, admit everything.
  options.admission_control = false;
  return options;
}

// Replays `burst` open-loop: sleeps until each arrival, then submits it
// with a blob mask drawn from one seeded stream.
void Replay(gateway::Gateway& gw, const std::vector<trace::Request>& burst) {
  Rng rng(/*seed=*/5);
  const auto epoch = std::chrono::steady_clock::now();
  for (const auto& r : burst) {
    runtime::OnlineRequest request =
        gateway::MakeOnlineRequest(r, gw.options().worker.numerics, rng);
    std::this_thread::sleep_until(epoch +
                                  std::chrono::microseconds(r.arrival.micros()));
    gw.Submit(std::move(request));
  }
}

}  // namespace

int main() {
  // A shared burst: 16 Poisson arrivals at ~10 rps, production-like masks.
  trace::WorkloadSpec spec;
  spec.num_requests = 16;
  spec.rps = 10.0;
  spec.seed = 12;
  const std::vector<trace::Request> burst = trace::GenerateWorkload(spec);

  std::printf("gateway serving: %d requests at %.0f rps over 2 real workers\n\n",
              spec.num_requests, spec.rps);
  std::printf("%-16s %-10s %-10s %-12s %-12s\n", "policy", "p50(ms)",
              "p99(ms)", "queue(ms)", "SLO attain");
  for (const auto policy :
       {sched::RoutePolicy::kRoundRobin, sched::RoutePolicy::kRequestCount,
        sched::RoutePolicy::kTokenCount, sched::RoutePolicy::kMaskAware}) {
    gateway::Gateway gw(MakeOptions(policy));
    Replay(gw, burst);
    gw.Drain();
    const gateway::MetricsSnapshot m = gw.Metrics();
    gw.Stop();
    std::printf("%-16s %-10.1f %-10.1f %-12.1f %-12.3f\n",
                sched::ToString(policy).c_str(), m.end_to_end.p50_ms,
                m.end_to_end.p99_ms, m.queueing.mean_ms, m.SloAttainment());
  }

  // Admission control: with a 1 ms SLO no request is feasible — each is
  // rejected with a distinct status instead of missing its deadline quietly.
  gateway::GatewayOptions strict = MakeOptions(sched::RoutePolicy::kMaskAware);
  strict.slo = Duration::Millis(1);
  strict.admission_control = true;
  gateway::Gateway gw(strict);
  Replay(gw, burst);
  gw.Drain();
  const gateway::MetricsSnapshot m = gw.Metrics();
  std::printf("\nadmission control at a 1 ms SLO: %llu submitted, %llu "
              "rejected-slo, %llu accepted\n",
              static_cast<unsigned long long>(m.submitted),
              static_cast<unsigned long long>(m.rejected_slo),
              static_cast<unsigned long long>(m.accepted));
  std::printf("\nmetrics json:\n%s\n", gw.MetricsJson().c_str());
  gw.Stop();
  return 0;
}
