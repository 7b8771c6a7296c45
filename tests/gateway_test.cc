#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "src/cache/activation_store.h"
#include "src/gateway/admission.h"
#include "src/gateway/gateway.h"
#include "src/gateway/metrics.h"

namespace flashps::gateway {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistryTest, CountersPartitionSubmissions) {
  MetricsRegistry metrics(2);
  for (int i = 0; i < 10; ++i) {
    metrics.RecordSubmitted();
  }
  metrics.RecordAccepted(0);
  metrics.RecordAccepted(1);
  metrics.RecordAccepted(1);
  metrics.RecordRejectedSlo();
  metrics.RecordRejectedSlo();
  metrics.RecordShedOverload();
  metrics.RecordRejectedShutdown();

  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.submitted, 10u);
  EXPECT_EQ(snap.accepted, 3u);
  EXPECT_EQ(snap.rejected_slo, 2u);
  EXPECT_EQ(snap.shed_overload, 1u);
  EXPECT_EQ(snap.rejected_shutdown, 1u);
  ASSERT_EQ(snap.worker_dispatched.size(), 2u);
  EXPECT_EQ(snap.worker_dispatched[0], 1u);
  EXPECT_EQ(snap.worker_dispatched[1], 2u);
}

TEST(MetricsRegistryTest, PercentilesDeterministicUnderKnownInputs) {
  MetricsRegistry metrics(1);
  StatAccumulator reference;
  // 1..100 ms end-to-end, queueing = i/10, denoise = i/2, post = i/4.
  for (int i = 1; i <= 100; ++i) {
    const double v = static_cast<double>(i);
    metrics.RecordCompleted(0, v / 10.0, v / 2.0, v / 4.0, v,
                            /*had_deadline=*/true, /*met_deadline=*/i <= 90);
    reference.Add(v);
  }
  const MetricsSnapshot snap = metrics.Snapshot();
  EXPECT_EQ(snap.end_to_end.count, 100u);
  EXPECT_DOUBLE_EQ(snap.end_to_end.mean_ms, reference.Mean());
  EXPECT_DOUBLE_EQ(snap.end_to_end.p50_ms, reference.Percentile(0.50));
  EXPECT_DOUBLE_EQ(snap.end_to_end.p95_ms, reference.Percentile(0.95));
  EXPECT_DOUBLE_EQ(snap.end_to_end.p99_ms, reference.Percentile(0.99));
  EXPECT_DOUBLE_EQ(snap.end_to_end.max_ms, 100.0);
  EXPECT_DOUBLE_EQ(snap.queueing.max_ms, 10.0);
  EXPECT_DOUBLE_EQ(snap.denoise.max_ms, 50.0);
  EXPECT_DOUBLE_EQ(snap.post.max_ms, 25.0);
  EXPECT_EQ(snap.slo_met, 90u);
  EXPECT_EQ(snap.slo_missed, 10u);
  EXPECT_DOUBLE_EQ(snap.SloAttainment(), 0.9);
  EXPECT_DOUBLE_EQ(snap.worker_busy_ms[0], reference.sum() / 2.0);
}

TEST(MetricsRegistryTest, AttainmentIsOneWithoutDeadlines) {
  MetricsRegistry metrics(1);
  metrics.RecordCompleted(0, 1.0, 2.0, 3.0, 6.0, /*had_deadline=*/false,
                          /*met_deadline=*/false);
  EXPECT_DOUBLE_EQ(metrics.Snapshot().SloAttainment(), 1.0);
}

TEST(MetricsRegistryTest, JsonExportCarriesEveryField) {
  MetricsRegistry metrics(2);
  metrics.RecordSubmitted();
  metrics.RecordAccepted(1);
  metrics.RecordCompleted(1, 1.0, 2.0, 3.0, 6.0, true, true);
  const std::string json = metrics.ToJson();
  for (const char* key :
       {"\"submitted\":1", "\"accepted\":1", "\"rejected_slo\":0",
        "\"shed_overload\":0", "\"rejected_shutdown\":0", "\"completed\":1",
        "\"slo_attainment\":1", "\"queueing\"", "\"denoise\"", "\"post\"",
        "\"end_to_end\"", "\"worker_dispatched\":[0,1]",
        "\"worker_completed\":[0,1]", "\"worker_busy_ms\":[0,2]"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing: " << json;
  }
}

// ---------------------------------------------------------------------------
// AdmissionController

class AdmissionTest : public ::testing::Test {
 protected:
  static sched::LatencyModel Model() {
    return sched::LatencyModel::FitOffline(
        model::TimingConfig::Get(model::ModelKind::kSdxl),
        model::ComputeMode::kMaskAwareY);
  }
  static trace::Request Probe(double ratio, int steps) {
    trace::Request r;
    r.mask_ratio = ratio;
    r.denoise_steps = steps;
    return r;
  }
  static sched::WorkerStatus Idle(int id) {
    sched::WorkerStatus s;
    s.worker_id = id;
    s.max_batch = 4;
    return s;
  }
};

TEST_F(AdmissionTest, GenerousBudgetAdmits) {
  AdmissionController admission(Model(), {});
  const auto verdict =
      admission.Evaluate(Probe(0.2, 50), {Idle(0), Idle(1)}, 1e9);
  EXPECT_EQ(verdict.decision, AdmissionController::Decision::kAdmit);
  EXPECT_GT(verdict.estimated_wall_s, 0.0);
}

TEST_F(AdmissionTest, InfeasibleBudgetRejectsWithDistinctStatus) {
  AdmissionController admission(Model(), {});
  const auto verdict =
      admission.Evaluate(Probe(0.2, 50), {Idle(0), Idle(1)}, 1e-9);
  EXPECT_EQ(verdict.decision, AdmissionController::Decision::kRejectSlo);
}

TEST_F(AdmissionTest, PicksBestWorkerForTheEstimate) {
  AdmissionController admission(Model(), {});
  sched::WorkerStatus loaded = Idle(0);
  loaded.running_ratios = {0.9, 0.9, 0.9};
  loaded.remaining_steps = 150;
  const auto both =
      admission.Evaluate(Probe(0.2, 50), {loaded, Idle(1)}, 1e9);
  const auto loaded_only = admission.Evaluate(Probe(0.2, 50), {loaded}, 1e9);
  // The idle worker's drain estimate must be the one admission uses.
  EXPECT_LT(both.estimated_wall_s, loaded_only.estimated_wall_s);
}

TEST_F(AdmissionTest, QueueDepthCapShedsDeadlinelessRequests) {
  AdmissionController admission(Model(), {.max_queue_depth = 2});
  sched::WorkerStatus busy = Idle(0);
  busy.waiting_ratios = {0.1, 0.2};
  const auto verdict = admission.Evaluate(Probe(0.2, 50), {busy}, std::nullopt);
  EXPECT_EQ(verdict.decision, AdmissionController::Decision::kShedOverload);
  // With a feasible deadline the same request is admitted (the drain
  // estimate already accounts for the queue).
  const auto with_deadline = admission.Evaluate(Probe(0.2, 50), {busy}, 1e9);
  EXPECT_EQ(with_deadline.decision, AdmissionController::Decision::kAdmit);
}

// ---------------------------------------------------------------------------
// Gateway

runtime::OnlineRequest MakeRequest(const model::NumericsConfig& numerics,
                                   int i, Rng& rng) {
  runtime::OnlineRequest r;
  r.template_id = i % 3;
  r.mask = trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w,
                                   0.1 + 0.3 * rng.NextDouble(), rng);
  r.prompt_seed = 500 + i;
  return r;
}

GatewayOptions SmallGateway(sched::RoutePolicy policy) {
  GatewayOptions options;
  options.num_workers = 2;
  options.worker.numerics = model::NumericsConfig::ForTests();
  options.worker.numerics.num_steps = 4;
  options.worker.max_batch = 2;
  options.worker.cpu_lanes = 1;
  options.policy = policy;
  return options;
}

TEST(GatewayTest, ServesBurstAcrossWorkersAndResolvesEveryFuture) {
  Gateway gateway(SmallGateway(sched::RoutePolicy::kMaskAware));
  Rng rng(11);
  std::vector<SubmitResult> results;
  for (int i = 0; i < 8; ++i) {
    results.push_back(
        gateway.Submit(MakeRequest(gateway.options().worker.numerics, i, rng)));
  }
  std::set<uint64_t> seen;
  for (auto& r : results) {
    ASSERT_TRUE(r.accepted());
    ASSERT_GE(r.worker_id, 0);
    ASSERT_LT(r.worker_id, gateway.num_workers());
    const runtime::OnlineResponse resp = r.future.get();
    EXPECT_GE(resp.total_ms(), 0.0);
    seen.insert(resp.id + (static_cast<uint64_t>(r.worker_id) << 32));
  }
  EXPECT_EQ(seen.size(), 8u);
  gateway.Drain();
  const MetricsSnapshot snap = gateway.Metrics();
  EXPECT_EQ(snap.submitted, 8u);
  EXPECT_EQ(snap.accepted, 8u);
  EXPECT_EQ(snap.completed, 8u);
  EXPECT_EQ(snap.worker_dispatched[0] + snap.worker_dispatched[1], 8u);
  EXPECT_EQ(snap.end_to_end.count, 8u);
  gateway.Stop();
}

TEST(GatewayTest, EveryRoutePolicyDispatchesOnLiveWorkers) {
  for (const auto policy :
       {sched::RoutePolicy::kRoundRobin, sched::RoutePolicy::kFirstFit,
        sched::RoutePolicy::kRequestCount, sched::RoutePolicy::kTokenCount,
        sched::RoutePolicy::kMaskAware}) {
    Gateway gateway(SmallGateway(policy));
    Rng rng(23);
    std::vector<SubmitResult> results;
    for (int i = 0; i < 4; ++i) {
      results.push_back(gateway.Submit(
          MakeRequest(gateway.options().worker.numerics, i, rng)));
    }
    for (auto& r : results) {
      ASSERT_TRUE(r.accepted()) << sched::ToString(policy);
      r.future.get();
    }
    gateway.Stop();
    EXPECT_EQ(gateway.Metrics().completed, 4u) << sched::ToString(policy);
  }
}

TEST(GatewayTest, RoundRobinAlternatesWorkers) {
  Gateway gateway(SmallGateway(sched::RoutePolicy::kRoundRobin));
  Rng rng(31);
  std::vector<int> workers;
  for (int i = 0; i < 4; ++i) {
    auto r =
        gateway.Submit(MakeRequest(gateway.options().worker.numerics, i, rng));
    ASSERT_TRUE(r.accepted());
    workers.push_back(r.worker_id);
    r.future.get();
  }
  EXPECT_EQ(workers, (std::vector<int>{0, 1, 0, 1}));
  gateway.Stop();
}

TEST(GatewayTest, InfeasibleSloIsRejectedNeverSilentlyDropped) {
  GatewayOptions options = SmallGateway(sched::RoutePolicy::kMaskAware);
  options.slo = Duration::Micros(1);  // No request can finish in 1 us.
  Gateway gateway(options);
  Rng rng(5);
  for (int i = 0; i < 3; ++i) {
    const SubmitResult r =
        gateway.Submit(MakeRequest(options.worker.numerics, i, rng));
    EXPECT_EQ(r.status, SubmitStatus::kRejectedSlo);
    EXPECT_GT(r.estimated_wall_s, 0.0);
    EXPECT_FALSE(r.future.valid());
  }
  gateway.Stop();
  const MetricsSnapshot snap = gateway.Metrics();
  EXPECT_EQ(snap.submitted, 3u);
  EXPECT_EQ(snap.rejected_slo, 3u);
  EXPECT_EQ(snap.accepted, 0u);
  EXPECT_EQ(snap.completed, 0u);
}

TEST(GatewayTest, PerRequestDeadlineOverridesGatewaySlo) {
  GatewayOptions options = SmallGateway(sched::RoutePolicy::kMaskAware);
  options.slo = Duration::Micros(1);
  Gateway gateway(options);
  Rng rng(6);
  runtime::OnlineRequest request =
      MakeRequest(options.worker.numerics, 0, rng);
  request.deadline = std::chrono::steady_clock::now() +
                     std::chrono::seconds(30);
  SubmitResult r = gateway.Submit(std::move(request));
  ASSERT_TRUE(r.accepted());
  const runtime::OnlineResponse resp = r.future.get();
  EXPECT_TRUE(resp.has_deadline());
  EXPECT_TRUE(resp.met_deadline());
  gateway.Stop();
  EXPECT_EQ(gateway.Metrics().slo_met, 1u);
}

TEST(GatewayTest, RelativeSloOverridesGatewayDefault) {
  // A request-carried relative budget takes precedence over the (here
  // impossible) gateway-wide SLO and is stamped as a deadline at dispatch.
  GatewayOptions options = SmallGateway(sched::RoutePolicy::kMaskAware);
  options.slo = Duration::Micros(1);
  Gateway gateway(options);
  Rng rng(6);
  runtime::OnlineRequest request =
      MakeRequest(options.worker.numerics, 0, rng);
  request.slo = Duration::Seconds(30.0);
  SubmitResult r = gateway.Submit(std::move(request));
  ASSERT_TRUE(r.accepted());
  const runtime::OnlineResponse resp = r.future.get();
  EXPECT_TRUE(resp.has_deadline());
  EXPECT_TRUE(resp.met_deadline());
  gateway.Stop();
  EXPECT_EQ(gateway.Metrics().slo_met, 1u);
}

TEST(GatewayTest, ProfilesHostModelAndOverheadAtStartup) {
  // Startup profiling must produce a usable regression (positive slope,
  // near-linear fit on this host's timed steps) and a positive per-request
  // pre/post overhead estimate.
  GatewayOptions options = SmallGateway(sched::RoutePolicy::kMaskAware);
  Gateway gateway(options);
  EXPECT_GT(gateway.latency_model().compute_fit().slope, 0.0);
  EXPECT_GT(gateway.latency_model().compute_fit().r2, 0.5);
  EXPECT_GT(gateway.per_request_overhead_s(), 0.0);
  gateway.Stop();
}

TEST(GatewayTest, QueueDepthCapSheds) {
  GatewayOptions options = SmallGateway(sched::RoutePolicy::kRoundRobin);
  options.max_queue_depth = 1;
  options.worker.cpu_lanes = 1;
  Gateway gateway(options);
  Rng rng(7);
  // Burst fast enough that waiting depth exceeds the cap: outcomes must be
  // either accepted or shed, and the counters must account for all of them.
  std::vector<SubmitResult> results;
  for (int i = 0; i < 12; ++i) {
    results.push_back(
        gateway.Submit(MakeRequest(options.worker.numerics, i, rng)));
  }
  uint64_t accepted = 0;
  uint64_t shed = 0;
  for (auto& r : results) {
    if (r.accepted()) {
      ++accepted;
      r.future.get();
    } else {
      EXPECT_EQ(r.status, SubmitStatus::kShedOverload);
      ++shed;
    }
  }
  gateway.Stop();
  const MetricsSnapshot snap = gateway.Metrics();
  EXPECT_EQ(snap.submitted, 12u);
  EXPECT_EQ(snap.accepted, accepted);
  EXPECT_EQ(snap.shed_overload, shed);
  EXPECT_EQ(snap.completed, accepted);
}

TEST(GatewayTest, DrainCompletesEveryAcceptedRequest) {
  GatewayOptions options = SmallGateway(sched::RoutePolicy::kMaskAware);
  Gateway gateway(options);
  Rng rng(17);
  // Nobody waits on a future: Drain() alone must see every request done.
  for (int i = 0; i < 10; ++i) {
    gateway.Submit(MakeRequest(options.worker.numerics, i, rng));
  }
  gateway.Drain();

  const MetricsSnapshot snap = gateway.Metrics();
  EXPECT_EQ(snap.submitted, 10u);
  EXPECT_EQ(snap.accepted, 10u);
  EXPECT_EQ(snap.completed, 10u);  // Every accepted future resolved.
  EXPECT_EQ(snap.end_to_end.count, 10u);
  gateway.Stop();
}

TEST(GatewayTest, SubmitAfterStopReportsShutdownStatus) {
  Gateway gateway(SmallGateway(sched::RoutePolicy::kRoundRobin));
  gateway.Stop();
  Rng rng(8);
  const SubmitResult r =
      gateway.Submit(MakeRequest(gateway.options().worker.numerics, 0, rng));
  EXPECT_EQ(r.status, SubmitStatus::kRejectedShutdown);
  EXPECT_FALSE(r.future.valid());
  EXPECT_EQ(gateway.Metrics().rejected_shutdown, 1u);
}

// Entries of /proc/self/task: this process's threads, right now.
size_t ThreadCount() {
  std::error_code ec;
  size_t n = 0;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec)) {
    ++n;
  }
  return n;
}

TEST(GatewayTest, StartsOnlyItsWorkersThreads) {
  // Each worker runs one denoise thread and its CPU lanes; the gateway
  // itself runs none.
  const GatewayOptions options = SmallGateway(sched::RoutePolicy::kMaskAware);
  // A runtime may start a helper of its own at the process's first thread
  // creation (ThreadSanitizer's background thread); let that happen first.
  std::thread([] {}).join();
  const size_t before = ThreadCount();
  Gateway gateway(options);
  const size_t after = ThreadCount();
  EXPECT_EQ(after - before,
            static_cast<size_t>(options.num_workers *
                                (1 + options.worker.cpu_lanes)));
  gateway.Stop();
}

TEST(GatewayTest, StopIsIdempotentAndDrainAfterStopReturns) {
  Gateway gateway(SmallGateway(sched::RoutePolicy::kMaskAware));
  gateway.Stop();
  gateway.Stop();
  gateway.Drain();
}

TEST(GatewayTest, MultiThreadedWorkersServeAndStayDeterministic) {
  // Workers exploiting intra-op parallelism (compute_threads > 1) must
  // behave exactly like serial workers: same completions, same images.
  // scripts/check.sh runs this under TSan, racing the ParallelFor pool
  // against the workers' threads.
  Matrix images[2];
  const int thread_counts[2] = {1, 2};
  for (int variant = 0; variant < 2; ++variant) {
    GatewayOptions options = SmallGateway(sched::RoutePolicy::kRoundRobin);
    options.worker.compute_threads = thread_counts[variant];
    Gateway gateway(options);
    Rng rng(21);
    runtime::OnlineRequest request =
        MakeRequest(gateway.options().worker.numerics, 1, rng);
    SubmitResult pinned = gateway.Submit(request);
    ASSERT_TRUE(pinned.accepted());
    images[variant] = pinned.future.get().image;
    // A burst on top, to exercise fan-out under batching.
    std::vector<SubmitResult> burst;
    for (int i = 0; i < 4; ++i) {
      burst.push_back(gateway.Submit(
          MakeRequest(gateway.options().worker.numerics, i, rng)));
    }
    for (auto& r : burst) {
      ASSERT_TRUE(r.accepted());
      r.future.get();
    }
    gateway.Drain();
    EXPECT_EQ(gateway.Metrics().completed, 5u);
    gateway.Stop();
  }
  EXPECT_EQ(MeanAbsDiff(images[0], images[1]), 0.0);
}

// A shared activation source whose Acquire() blocks on a latch for one
// template, stalling the denoise loop of whichever worker admits it.
class LatchedSource : public cache::ActivationSource {
 public:
  explicit LatchedSource(int latched_template)
      : latched_template_(latched_template) {}

  std::shared_ptr<const model::ActivationRecord> Acquire(
      const model::DiffusionModel& m, int template_id,
      bool record_kv) override {
    if (template_id == latched_template_) {
      release_.wait();
    }
    return store_.Acquire(m, template_id, record_kv);
  }
  std::string MetricsJson() const override { return store_.MetricsJson(); }

  void Release() { release_.count_down(); }

 private:
  const int latched_template_;
  std::latch release_{1};
  cache::ActivationStore store_;
};

TEST(GatewayTest, FinishedRequestRepliesBeforeAnEarlierSlowerOne) {
  // Request A stalls worker 0 at admission; request B, submitted after it,
  // runs on worker 1. B's future must be ready, and B in the metrics,
  // while A is still blocked: no reply waits behind an unrelated one.
  constexpr int kLatched = 7;
  auto source = std::make_shared<LatchedSource>(kLatched);
  GatewayOptions options = SmallGateway(sched::RoutePolicy::kRoundRobin);
  options.worker.activation_source = source;
  Gateway gateway(options);
  Rng rng(41);
  runtime::OnlineRequest slow = MakeRequest(options.worker.numerics, 0, rng);
  slow.template_id = kLatched;
  SubmitResult a = gateway.Submit(std::move(slow));
  SubmitResult b =
      gateway.Submit(MakeRequest(options.worker.numerics, 1, rng));
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  EXPECT_NE(a.worker_id, b.worker_id);

  const bool b_ready = b.future.wait_for(std::chrono::seconds(20)) ==
                       std::future_status::ready;
  const bool a_blocked = a.future.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::timeout;
  const MetricsSnapshot while_blocked = gateway.Metrics();
  source->Release();
  EXPECT_TRUE(b_ready);
  EXPECT_TRUE(a_blocked);
  EXPECT_EQ(while_blocked.completed, 1u);
  EXPECT_EQ(while_blocked.worker_completed[static_cast<size_t>(b.worker_id)],
            1u);

  EXPECT_GE(a.future.get().total_ms(), 0.0);
  EXPECT_GE(b.future.get().total_ms(), 0.0);
  gateway.Stop();
  EXPECT_EQ(gateway.Metrics().completed, 2u);
}

TEST(GatewayTest, SubmitStatusNamesAreDistinct) {
  std::set<std::string> names;
  for (const auto s :
       {SubmitStatus::kAccepted, SubmitStatus::kRejectedSlo,
        SubmitStatus::kShedOverload, SubmitStatus::kRejectedShutdown}) {
    names.insert(ToString(s));
  }
  EXPECT_EQ(names.size(), 4u);
}

}  // namespace
}  // namespace flashps::gateway
