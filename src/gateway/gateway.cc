#include "src/gateway/gateway.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <utility>

#include "src/cache/activation_store.h"
#include "src/common/parallel_for.h"

namespace flashps::gateway {

namespace {

constexpr auto kNoDeadline = std::chrono::steady_clock::time_point::max();

// Timings behind each profiled sample, per step of the profiled window. A
// vCPU's speed can swing 2x within a second, so one timing may land in a
// slow spell and bend the fit; the fastest of a few repeats is the unloaded
// cost (the min-of-N method the kernel benches use).
constexpr int kProfileRepeats = 3;

// One profiled sample: a request on `model`, warmed up to the first timed
// step. `opts.mask` points at `mask`, so points live in a vector reserved
// up front.
struct ProfilePoint {
  const model::DiffusionModel* model = nullptr;
  trace::Mask mask;
  model::DiffusionModel::RunOptions opts;
  Matrix latent;
};

// The fastest of `rounds` one-step timings of step `begin` of every point,
// in seconds per point. The rounds run round-robin — each round times
// every point once — so a burst of host contention inflates one round's
// samples of several points, not every sample of one point; one step per
// timing gives each point more samples for the same steps timed. Each
// timing runs from the point's same input latent (every timing computes
// the same bits); on return the latent has advanced through the step.
std::vector<double> MinStepSeconds(std::vector<ProfilePoint>& points,
                                   int begin, int rounds) {
  std::vector<double> best(points.size(),
                           std::numeric_limits<double>::infinity());
  std::vector<Matrix> out(points.size());
  const int end = begin + 1;
  for (int rep = 0; rep < rounds; ++rep) {
    for (size_t i = 0; i < points.size(); ++i) {
      Matrix in = points[i].latent;
      const auto t0 = std::chrono::steady_clock::now();
      out[i] = points[i].model->RunStepRange(std::move(in), points[i].opts,
                                             begin, end);
      const auto t1 = std::chrono::steady_clock::now();
      best[i] = std::min(best[i],
                         std::chrono::duration<double>(t1 - t0).count());
    }
  }
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].latent = std::move(out[i]);
  }
  return best;
}

}  // namespace

std::string ToString(SubmitStatus status) {
  switch (status) {
    case SubmitStatus::kAccepted:
      return "accepted";
    case SubmitStatus::kRejectedSlo:
      return "rejected-slo";
    case SubmitStatus::kShedOverload:
      return "shed-overload";
    case SubmitStatus::kRejectedShutdown:
      return "rejected-shutdown";
  }
  return "?";
}

runtime::OnlineRequest MakeOnlineRequest(const trace::Request& request,
                                         const model::NumericsConfig& numerics,
                                         Rng& rng) {
  runtime::OnlineRequest out;
  out.template_id = request.template_id;
  // The request's own grid when the trace carries one (hybrid-resolution
  // mixtures), else the worker's native grid — byte-identical masks for
  // resolution-less traces.
  const int grid_h = request.has_resolution() ? request.grid_h : numerics.grid_h;
  const int grid_w = request.has_resolution() ? request.grid_w : numerics.grid_w;
  out.mask = trace::GenerateBlobMask(grid_h, grid_w, request.mask_ratio, rng);
  out.prompt_seed = request.id + 1;
  return out;
}

Gateway::Gateway(GatewayOptions options)
    : options_(std::move(options)),
      admission_(sched::LatencyModel(), AdmissionController::Options{}),
      metrics_(std::max(1, options_.num_workers)) {
  // The analytic FLOP model must price steps the way the workers execute
  // them: when the fleet serves the gathered sparse path, the regression's
  // x-axis (and the router's per-block costs) use the gathered formulas.
  options_.timing.sparse_compute =
      options_.worker.mask_aware && options_.worker.sparse_compute;
  workers_.reserve(std::max(1, options_.num_workers));
  for (int i = 0; i < std::max(1, options_.num_workers); ++i) {
    workers_.push_back(
        std::make_unique<runtime::OnlineServer>(options_.worker));
  }
  // Fit the routing/admission regression on timed real denoise steps, so
  // routing costs and admission budgets have this host's cost shape (not the
  // GPU device-model constants, whose fixed/variable split is different).
  ProfileHost();
  admission_ = AdmissionController(
      latency_model_, {.max_queue_depth = options_.max_queue_depth});
  if (options_.policy == sched::RoutePolicy::kMaskAware) {
    // Algorithm 2 on the profiled model (not the offline device-model fit),
    // with the serialized-batch cost reading that matches OnlineServer's
    // step-level batching on one denoise thread.
    router_ = std::make_unique<sched::MaskAwareRouter>(
        latency_model_, /*serialized_batches=*/true, per_request_overhead_s_);
  } else {
    router_ = sched::MakeRouter(options_.policy, options_.timing,
                                options_.worker.mask_aware
                                    ? model::ComputeMode::kMaskAwareY
                                    : model::ComputeMode::kFull);
  }
}

Gateway::~Gateway() { Stop(); }

void Gateway::ProfileHost() {
  // The paper fits its regressions on profiled (FLOPs, latency) samples of
  // the real system; do the same here. One single-request denoise step per
  // mask ratio, warm-started: the fastest of kProfileRepeats one-step
  // timings per step of a two-step window, taken round-robin over the
  // ratios from the same latent. x is the Table 1 whole-step FLOPs under
  // the worker's compute mode; the per-member math serializes on the
  // denoise thread, so batches are linear in these per-request samples by
  // construction. Profiling runs under the workers' compute-thread budget
  // so the fitted model prices the kernels exactly as the denoise threads
  // will execute them.
  ComputeThreadsScope compute_scope(options_.worker.compute_threads);
  const model::DiffusionModel& m = workers_.front()->model();
  const model::ComputeMode mode = options_.worker.mask_aware
                                      ? model::ComputeMode::kMaskAwareY
                                      : model::ComputeMode::kFull;
  cache::ActivationStore store;
  Rng rng(0x9A7E);
  const int total_steps = std::max(1, options_.worker.numerics.num_steps);
  const int warm = total_steps > 1 ? 1 : 0;
  const int timed = std::max(1, std::min(2, total_steps - warm));
  // A sample on `rm`'s grid at mask ratio `target`, run through its
  // warm-up steps. Returns the pre-processing seconds: the same
  // template-encode + latent-init the worker's CPU lanes run per request.
  auto add_point = [&](std::vector<ProfilePoint>& points,
                       const model::DiffusionModel& rm,
                       cache::ActivationStore& records, double target) {
    ProfilePoint& p = points.emplace_back();
    p.model = &rm;
    p.mask = trace::GenerateBlobMask(rm.config().grid_h, rm.config().grid_w,
                                     target, rng);
    const auto pre0 = std::chrono::steady_clock::now();
    const Matrix tmpl = rm.EncodeTemplate(0);
    p.latent = rm.InitEditLatent(tmpl, p.mask, /*prompt_seed=*/1);
    const auto pre1 = std::chrono::steady_clock::now();
    p.opts.mode = mode;
    if (options_.worker.mask_aware) {
      p.opts.cache = &records.GetOrRegister(
          rm, 0, /*record_kv=*/options_.worker.sparse_compute);
      p.opts.mask = &p.mask;
      p.opts.sparse_compute = options_.worker.sparse_compute;
    }
    p.latent = rm.RunStepRange(std::move(p.latent), p.opts, 0, warm);
    return std::chrono::duration<double>(pre1 - pre0).count();
  };

  const std::vector<double> targets = {0.05, 0.15, 0.3, 0.5, 0.7, 0.9};
  std::vector<ProfilePoint> points;
  points.reserve(targets.size());
  double overhead_s = 0.0;
  for (const double target : targets) {
    overhead_s += add_point(points, m, store, target);
  }
  const std::vector<double> step_s =
      MinStepSeconds(points, warm, kProfileRepeats * timed);
  std::vector<double> tflops;
  std::vector<double> seconds;
  for (size_t i = 0; i < points.size(); ++i) {
    // Post-processing, timed: the per-request decode.
    const auto post0 = std::chrono::steady_clock::now();
    const Matrix image = m.DecodeLatent(points[i].latent);
    const auto post1 = std::chrono::steady_clock::now();
    (void)image;
    overhead_s += std::chrono::duration<double>(post1 - post0).count();

    const std::vector<double> ratios{points[i].mask.ratio()};
    const auto workload =
        model::BuildStepWorkload(options_.timing, ratios, mode);
    double flops = workload.non_tf_flops;
    for (const auto& block : workload.blocks) {
      flops += options_.worker.mask_aware ? block.flops_with_cache
                                          : block.flops_without_cache;
    }
    tflops.push_back(flops / 1e12);
    seconds.push_back(step_s[i]);
  }
  latency_model_ = sched::LatencyModel::FitProfiled(options_.timing, mode,
                                                    tflops, seconds);
  per_request_overhead_s_ = overhead_s / static_cast<double>(points.size());

  // Hybrid-resolution serving: anchor TokenScale on the native grid and
  // fit one whole-step line per extra resolution from timed steps on that
  // resolution's model. The fit's x-axis is the masked-token fraction of
  // the PRIMARY grid, so routing costs across resolutions are directly
  // comparable. No extra resolutions → no fits; every estimate stays on
  // the primary regression, exactly as before.
  latency_model_.SetPrimaryGrid(options_.worker.numerics.grid_h,
                                options_.worker.numerics.grid_w);
  const double primary_tokens =
      static_cast<double>(options_.worker.numerics.tokens());
  for (const auto& [grid_h, grid_w] : options_.worker.extra_resolutions) {
    if (grid_h == options_.worker.numerics.grid_h &&
        grid_w == options_.worker.numerics.grid_w) {
      continue;
    }
    const model::DiffusionModel* rm =
        workers_.front()->ModelForGrid(grid_h, grid_w);
    if (rm == nullptr) {
      continue;  // Duplicate entry already profiled.
    }
    // Fresh store per resolution: the profiling records are keyed by bare
    // template id, and records of different shapes must not collide.
    cache::ActivationStore res_store;
    std::vector<ProfilePoint> res_points;
    res_points.reserve(3);
    for (const double target : {0.1, 0.3, 0.6}) {
      add_point(res_points, *rm, res_store, target);
    }
    const std::vector<double> res_s =
        MinStepSeconds(res_points, warm, kProfileRepeats * timed);
    std::vector<double> xs;
    std::vector<double> ys;
    for (size_t i = 0; i < res_points.size(); ++i) {
      xs.push_back(res_points[i].mask.ratio() *
                   static_cast<double>(grid_h * grid_w) / primary_tokens);
      ys.push_back(res_s[i]);
    }
    latency_model_.AddResolutionFit(grid_h, grid_w, FitLinear(xs, ys));
  }
}

MetricsSnapshot Gateway::Metrics() const {
  MetricsSnapshot snap = metrics_.Snapshot();
  for (const auto& worker : workers_) {
    snap.worker_sat_out_steps.push_back(worker->sat_out_steps());
    snap.worker_stream_wait_ms.push_back(worker->stream_wait_ms());
  }
  return snap;
}

std::string Gateway::MetricsJson() const {
  std::string json = Metrics().ToJson();
  if (options_.worker.activation_source != nullptr && !json.empty() &&
      json.back() == '}') {
    json.insert(json.size() - 1, ",\"activation_source\":" +
                                     options_.worker.activation_source
                                         ->MetricsJson());
  }
  if (!json.empty() && json.back() == '}') {
    // The host's profiled regression lines, round-trippable at full double
    // precision: a federated front fetches these at join time and rebuilds
    // this node's LatencyModel (FromFits) so the cross-machine Algorithm-2
    // cost prices each node with its own hardware's line.
    auto num = [](double v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    };
    std::string lm = "{\"compute_slope\":" + num(latency_model_.compute_fit().slope) +
                     ",\"compute_intercept\":" + num(latency_model_.compute_fit().intercept) +
                     ",\"compute_r2\":" + num(latency_model_.compute_fit().r2) +
                     ",\"load_slope\":" + num(latency_model_.load_fit().slope) +
                     ",\"load_intercept\":" + num(latency_model_.load_fit().intercept) +
                     ",\"load_r2\":" + num(latency_model_.load_fit().r2) +
                     ",\"per_request_overhead_s\":" + num(per_request_overhead_s_) +
                     ",\"mask_aware\":" + (options_.worker.mask_aware ? "true" : "false") +
                     ",\"sparse_compute\":" +
                     (options_.worker.mask_aware && options_.worker.sparse_compute
                          ? "true" : "false") +
                     ",\"workers\":" + std::to_string(workers_.size()) +
                     ",\"max_batch\":" + std::to_string(options_.worker.max_batch) +
                     ",\"grid_h\":" + std::to_string(latency_model_.primary_grid_h()) +
                     ",\"grid_w\":" + std::to_string(latency_model_.primary_grid_w()) +
                     "}";
    json.insert(json.size() - 1, ",\"latency_model\":" + lm);
    // Per-resolution whole-step fits, as a SEPARATE top-level array: the
    // registry's latency_model parser scans a flat object (it stops at the
    // first '}'), so nested objects must not live inside it.
    if (!latency_model_.resolution_fits().empty()) {
      std::string fits = "[";
      for (const auto& rf : latency_model_.resolution_fits()) {
        if (fits.size() > 1) {
          fits += ",";
        }
        fits += "{\"grid_h\":" + std::to_string(rf.grid_h) +
                ",\"grid_w\":" + std::to_string(rf.grid_w) +
                ",\"slope\":" + num(rf.fit.slope) +
                ",\"intercept\":" + num(rf.fit.intercept) +
                ",\"r2\":" + num(rf.fit.r2) + "}";
      }
      fits += "]";
      json.insert(json.size() - 1, ",\"resolution_fits\":" + fits);
    }
  }
  return json;
}

std::vector<sched::WorkerStatus> Gateway::WorkerStatuses() const {
  std::vector<sched::WorkerStatus> statuses(workers_.size());
  for (size_t i = 0; i < workers_.size(); ++i) {
    runtime::BatchSnapshot snap = workers_[i]->Snapshot();
    sched::WorkerStatus& status = statuses[i];
    status.worker_id = static_cast<int>(i);
    status.has_slack = snap.has_slack();
    status.max_batch = snap.max_batch;
    status.remaining_steps = snap.remaining_steps;
    status.running_ratios = std::move(snap.running_ratios);
    status.running_remaining_steps = std::move(snap.running_remaining);
    status.waiting_ratios = std::move(snap.waiting_ratios);
  }
  return statuses;
}

SubmitResult Gateway::Submit(runtime::OnlineRequest request,
                            runtime::OnlineServer::OnComplete on_complete) {
  std::shared_lock<std::shared_mutex> gate(submit_gate_);
  metrics_.RecordSubmitted();

  SubmitResult result;
  if (!accepting_.load()) {
    metrics_.RecordRejectedShutdown();
    result.status = SubmitStatus::kRejectedShutdown;
    return result;
  }

  const auto now = std::chrono::steady_clock::now();
  if (request.deadline == kNoDeadline) {
    // Per-request budget takes precedence over the gateway-wide default, so
    // open-loop drivers can attach slowdown-normalized SLOs.
    const Duration budget =
        request.slo > Duration::Zero() ? request.slo : options_.slo;
    if (budget > Duration::Zero()) {
      request.deadline = now + std::chrono::microseconds(budget.micros());
    }
  }

  // The request as the schedulers see it, carrying its own grid so the
  // resolution-aware cost terms can price it (TokenScale is 1.0 and the
  // per-resolution fits are empty outside hybrid setups).
  trace::Request probe;
  probe.mask_ratio = request.mask.ratio();
  probe.denoise_steps = options_.worker.numerics.num_steps;
  probe.grid_h = request.mask.grid_h;
  probe.grid_w = request.mask.grid_w;

  const std::vector<sched::WorkerStatus> statuses = WorkerStatuses();

  if (options_.admission_control) {
    std::optional<double> budget_s;
    if (request.deadline != kNoDeadline) {
      budget_s = std::chrono::duration<double>(request.deadline - now).count();
    }
    const AdmissionController::Verdict verdict =
        admission_.Evaluate(probe, statuses, budget_s);
    result.estimated_wall_s = verdict.estimated_wall_s;
    if (verdict.decision == AdmissionController::Decision::kRejectSlo) {
      metrics_.RecordRejectedSlo();
      result.status = SubmitStatus::kRejectedSlo;
      return result;
    }
    if (verdict.decision == AdmissionController::Decision::kShedOverload) {
      metrics_.RecordShedOverload();
      result.status = SubmitStatus::kShedOverload;
      return result;
    }
  }

  int worker_id = 0;
  {
    std::lock_guard<std::mutex> lock(route_mu_);
    worker_id = router_->Route(probe, statuses);
  }
  worker_id = std::clamp(worker_id, 0, num_workers() - 1);

  // The worker records the completion, runs the caller's callback and
  // retires the request on its own thread, before the future it hands
  // back becomes ready.
  auto record = [this, worker_id, caller = std::move(on_complete)](
                    const runtime::OnlineResponse* done) {
    if (done != nullptr) {
      metrics_.RecordCompleted(worker_id, done->queueing_ms(),
                               done->denoise_ms(), done->post_ms(),
                               done->total_ms(), done->has_deadline(),
                               done->met_deadline());
    }
    if (caller) {
      caller(done);
    }
    RetireInflight();
  };
  inflight_.fetch_add(1);
  try {
    result.future =
        workers_[worker_id]->Submit(std::move(request), std::move(record));
  } catch (const std::exception&) {
    // Worker already stopping (we lost a shutdown race despite the gate).
    RetireInflight();
    metrics_.RecordRejectedShutdown();
    result.status = SubmitStatus::kRejectedShutdown;
    return result;
  }
  metrics_.RecordAccepted(worker_id);
  result.status = SubmitStatus::kAccepted;
  result.worker_id = worker_id;
  return result;
}

void Gateway::Drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_cv_.wait(lock, [&] { return inflight_.load() == 0; });
}

void Gateway::RetireInflight() {
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    inflight_.fetch_sub(1);
  }
  drained_cv_.notify_all();
}

void Gateway::StopAccepting() {
  // Exclusive gate: once this returns no Submit() is mid-dispatch, so
  // every later submission observes the flip.
  std::unique_lock<std::shared_mutex> gate(submit_gate_);
  accepting_.store(false);
}

void Gateway::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopped_.load()) {
    return;
  }

  // Close the submit gate, drain accepted work, then retire the workers.
  StopAccepting();
  Drain();
  for (auto& worker : workers_) {
    worker->Stop();
  }
  stopped_.store(true);
}

}  // namespace flashps::gateway
