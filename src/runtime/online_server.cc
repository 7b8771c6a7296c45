#include "src/runtime/online_server.h"

#include <algorithm>
#include <stdexcept>

#include "src/common/parallel_for.h"
#include "src/common/thread_name.h"

namespace flashps::runtime {

OnlineServer::OnlineServer(Options options)
    : options_(std::move(options)), model_(options_.numerics) {
  // One model per extra resolution; skipping the native grid (and
  // duplicates) keeps the resolution index stable for cache-id salting.
  for (const auto& [grid_h, grid_w] : options_.extra_resolutions) {
    if (grid_h <= 0 || grid_w <= 0) {
      throw std::runtime_error("OnlineServer: non-positive resolution");
    }
    if (ModelForGrid(grid_h, grid_w) != nullptr) {
      continue;
    }
    model::NumericsConfig numerics = options_.numerics;
    numerics.grid_h = grid_h;
    numerics.grid_w = grid_w;
    extra_models_.push_back(std::make_unique<model::DiffusionModel>(numerics));
  }
  source_ = options_.activation_source != nullptr
                ? options_.activation_source
                : std::make_shared<cache::ActivationStore>();
  if (options_.disaggregate) {
    cpu_pool_ = std::make_unique<ThreadPool>(options_.cpu_lanes, "cpu-lane");
  }
  denoise_thread_ = std::thread([this] {
    SetThreadName("denoise");
    DenoiseLoop();
  });
}

OnlineServer::~OnlineServer() { Stop(); }

OnlineServer::ResolutionRoute OnlineServer::RouteForGrid(int grid_h,
                                                         int grid_w) const {
  if (grid_h == options_.numerics.grid_h && grid_w == options_.numerics.grid_w) {
    return {&model_, 0};
  }
  for (size_t i = 0; i < extra_models_.size(); ++i) {
    const model::NumericsConfig& numerics = extra_models_[i]->config();
    if (grid_h == numerics.grid_h && grid_w == numerics.grid_w) {
      return {extra_models_[i].get(), static_cast<int>(i) + 1};
    }
  }
  return {nullptr, 0};
}

const model::DiffusionModel* OnlineServer::ModelForGrid(int grid_h,
                                                        int grid_w) const {
  return RouteForGrid(grid_h, grid_w).model;
}

int OnlineServer::EffectiveTemplateId(int template_id, int grid_h,
                                      int grid_w) const {
  const ResolutionRoute route = RouteForGrid(grid_h, grid_w);
  if (route.model == nullptr) {
    return -1;
  }
  return template_id + kResolutionCacheStride * route.res_index;
}

void OnlineServer::Preprocess(InFlight& item) const {
  // The CPU-bound "pre-processing": decode the user's inputs into a latent.
  // Both the template encode and the activation record (AcquireRecord)
  // use the salted effective id, so they stay consistent per resolution.
  const Matrix tmpl = item.model->EncodeTemplate(item.effective_template_id);
  item.latent = item.model->InitEditLatent(tmpl, item.request.mask,
                                           item.request.prompt_seed);
}

std::shared_ptr<const model::ActivationRecord> OnlineServer::AcquireRecord(
    const InFlight& item) const {
  // Pinned for the request's lifetime. A local source registers on first
  // use; a remote source returns once step 0 is resident, with later
  // steps still landing, or after local registration on a miss (a request
  // never fails because the cache tier is down). sparse_compute needs
  // K/V in the record; the step loop degrades to the dense path if a
  // (remote) source hands back a Y-only one.
  return source_->Acquire(*item.model, item.effective_template_id,
                          /*record_kv=*/options_.sparse_compute);
}

void OnlineServer::AcquireOnLane(InFlight* item) {
  // `item` belongs to the denoise thread now; it cannot retire before it
  // has a record, so it outlives this call. Only `acquired` is shared. A
  // registration here gets the denoise thread's kernel parallelism, as it
  // did when it ran there.
  ComputeThreadsScope compute_scope(options_.compute_threads);
  std::shared_ptr<const model::ActivationRecord> record = AcquireRecord(*item);
  {
    std::lock_guard<std::mutex> lock(acquired_mu_);
    item->acquired = std::move(record);
  }
  bell_->Ring();
}

void OnlineServer::TakeAcquired(InFlight& item) {
  if (!options_.mask_aware || item.cache != nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(acquired_mu_);
  item.cache = std::move(item.acquired);
}

bool OnlineServer::MakeAdmissible(InFlightPtr item) {
  if (auto rejected = ready_.PushOrReturn(std::move(item))) {
    Reject(std::move(*rejected));
    return false;
  }
  bell_->Ring();
  return true;
}

bool OnlineServer::NextStepResident(const InFlight& item) const {
  if (!options_.mask_aware) {
    return true;
  }
  return item.cache != nullptr &&
         item.cache->ResidentSteps() > item.steps_done;
}

bool OnlineServer::NextStepLost(const InFlight& item) const {
  // Failure is final, so the resident count read after it is too.
  return item.cache != nullptr && item.cache->StreamFailed() &&
         item.cache->ResidentSteps() <= item.steps_done;
}

void OnlineServer::AwaitAnyStep(std::vector<InFlightPtr>& batch) {
  const uint64_t seen = bell_->Epoch();
  for (const InFlightPtr& member : batch) {
    if (member->cache != nullptr && member->cache->stream != nullptr) {
      member->cache->stream->Watch(bell_);
    }
  }
  // Checked again after watching: a record or a step may have landed, or
  // a request arrived with room for it, since the loop last looked.
  for (InFlightPtr& member : batch) {
    TakeAcquired(*member);
    if (NextStepResident(*member) || NextStepLost(*member)) {
      return;
    }
  }
  if (static_cast<int>(batch.size()) < options_.max_batch &&
      ready_.size() > 0) {
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  bell_->Wait(seen);
  stream_wait_us_.fetch_add(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
}

void OnlineServer::Postprocess(InFlightPtr item) {
  // The CPU-bound "post-processing": decode the latent to an image and
  // fulfil the caller's future.
  OnlineResponse response;
  response.id = item->id;
  response.image = item->model->DecodeLatent(item->latent);
  response.submitted = item->submitted;
  response.admitted = item->admitted;
  response.denoise_done = item->denoise_done;
  response.completed = std::chrono::steady_clock::now();
  response.deadline = item->request.deadline;
  if (item->on_complete) {
    item->on_complete(&response);
  }
  completed_.fetch_add(1);
  completed_.notify_all();  // Stop() waits on it.
  item->promise.set_value(std::move(response));
}

void OnlineServer::Reject(InFlightPtr item) {
  // A request that lost the race with Stop(): keep the accepted/completed
  // accounting balanced so Stop() never waits on work that will not run,
  // and fail the caller's future explicitly.
  StatusRetire(item->id);
  if (item->on_complete) {
    item->on_complete(nullptr);
  }
  completed_.fetch_add(1);
  completed_.notify_all();
  item->promise.set_exception(std::make_exception_ptr(
      std::runtime_error("OnlineServer: shutting down")));
}

void OnlineServer::StatusMarkWaiting(uint64_t id, double ratio) {
  std::lock_guard<std::mutex> lock(status_mu_);
  waiting_status_[id] = ratio;
}

void OnlineServer::StatusMarkRunning(uint64_t id) {
  std::lock_guard<std::mutex> lock(status_mu_);
  auto it = waiting_status_.find(id);
  RunningState state;
  if (it != waiting_status_.end()) {
    state.ratio = it->second;
    waiting_status_.erase(it);
  }
  running_status_[id] = state;
}

void OnlineServer::StatusUpdateSteps(uint64_t id, int steps_done) {
  std::lock_guard<std::mutex> lock(status_mu_);
  auto it = running_status_.find(id);
  if (it != running_status_.end()) {
    it->second.steps_done = steps_done;
  }
}

void OnlineServer::StatusRetire(uint64_t id) {
  std::lock_guard<std::mutex> lock(status_mu_);
  waiting_status_.erase(id);
  running_status_.erase(id);
}

BatchSnapshot OnlineServer::Snapshot() const {
  const int total_steps = options_.numerics.num_steps;
  BatchSnapshot snap;
  snap.max_batch = options_.max_batch;
  std::lock_guard<std::mutex> lock(status_mu_);
  snap.running_ratios.reserve(running_status_.size());
  snap.running_remaining.reserve(running_status_.size());
  for (const auto& [id, state] : running_status_) {
    const int remaining = std::max(0, total_steps - state.steps_done);
    snap.running_ratios.push_back(state.ratio);
    snap.running_remaining.push_back(remaining);
    snap.remaining_steps += remaining;
  }
  snap.waiting_ratios.reserve(waiting_status_.size());
  for (const auto& [id, ratio] : waiting_status_) {
    snap.waiting_ratios.push_back(ratio);
    snap.remaining_steps += total_steps;
  }
  return snap;
}

std::future<OnlineResponse> OnlineServer::Submit(OnlineRequest request,
                                                 OnComplete on_complete) {
  if (stopping_.load()) {
    throw std::runtime_error("OnlineServer: submit after Stop()");
  }
  const ResolutionRoute route =
      RouteForGrid(request.mask.grid_h, request.mask.grid_w);
  if (route.model == nullptr) {
    // Unsupported resolution: fail the future without touching the
    // accepted/completed accounting (neither is incremented, so Stop()
    // stays balanced).
    if (on_complete) {
      on_complete(nullptr);
    }
    std::promise<OnlineResponse> failed;
    failed.set_exception(std::make_exception_ptr(std::runtime_error(
        "OnlineServer: unsupported resolution " +
        std::to_string(request.mask.grid_h) + "x" +
        std::to_string(request.mask.grid_w))));
    return failed.get_future();
  }
  auto item = std::make_unique<InFlight>();
  item->id = next_id_.fetch_add(1);
  item->request = std::move(request);
  item->model = route.model;
  item->effective_template_id =
      item->request.template_id + kResolutionCacheStride * route.res_index;
  item->submitted = std::chrono::steady_clock::now();
  item->on_complete = std::move(on_complete);
  std::future<OnlineResponse> future = item->promise.get_future();
  // The status tables publish the EFFECTIVE ratio — masked tokens over the
  // native grid's token count — so routers comparing load across a
  // hybrid-resolution fleet see cost-comparable numbers. For native-grid
  // requests this is exactly mask.ratio().
  StatusMarkWaiting(item->id,
                    static_cast<double>(item->request.mask.masked_tokens.size()) /
                        static_cast<double>(options_.numerics.tokens()));
  accepted_.fetch_add(1);
  if (options_.mask_aware) {
    // Queue-ahead: this request waits behind pre-processing and the
    // running batch before admission Acquire()s its template, so start a
    // slow (remote) acquisition now — the wire fetch overlaps the
    // predecessors' denoise exactly like Algorithm 1 overlaps the next
    // step's cache load with the current step's compute.
    source_->Prefetch(*item->model, item->effective_template_id,
                      /*record_kv=*/options_.sparse_compute);
  }

  if (options_.disaggregate) {
    // Pre-processing runs on a CPU lane; the request becomes admissible
    // once its latent is ready. The lane then acquires its record while
    // the request sits in the batch, stepping once step 0 is resident.
    InFlight* raw = item.release();
    const bool ok = cpu_pool_->Submit([this, raw] {
      InFlightPtr owned(raw);
      Preprocess(*owned);
      if (MakeAdmissible(std::move(owned)) && options_.mask_aware) {
        AcquireOnLane(raw);
      }
    });
    if (!ok) {
      Reject(InFlightPtr(raw));
    }
  } else {
    // Strawman: raw request goes straight to the denoise thread, which will
    // pay the pre-processing and the acquire inline (interrupting the
    // running batch). Losing the race with Stop() (the queue closed
    // between the stopping_ check and the push) surfaces through the
    // future — never a silent broken promise.
    MakeAdmissible(std::move(item));
  }
  return future;
}

void OnlineServer::DenoiseLoop() {
  // Kernel-level parallelism for everything this thread computes (denoise
  // steps and — in the strawman — inline pre/post and cache registration).
  ComputeThreadsScope compute_scope(options_.compute_threads);
  std::vector<InFlightPtr> batch;
  const int total_steps = options_.numerics.num_steps;

  model::DiffusionModel::RunOptions run_options;
  run_options.mode = options_.mask_aware ? model::ComputeMode::kMaskAwareY
                                         : model::ComputeMode::kFull;
  run_options.sparse_compute = options_.mask_aware && options_.sparse_compute;
  const bool patch_batching = options_.mask_aware && options_.sparse_compute &&
                              options_.patch_batching;

  for (;;) {
    // Admit up to capacity. Block only when the batch is idle.
    while (static_cast<int>(batch.size()) < options_.max_batch) {
      std::optional<InFlightPtr> item =
          batch.empty() ? ready_.Pop() : ready_.TryPop();
      if (!item.has_value()) {
        break;
      }
      InFlightPtr inflight = std::move(*item);
      if (!options_.disaggregate) {
        Preprocess(*inflight);  // Interrupts the running batch.
        if (options_.mask_aware) {
          inflight->cache = AcquireRecord(*inflight);
        }
      }
      inflight->admitted = std::chrono::steady_clock::now();
      StatusMarkRunning(inflight->id);
      batch.push_back(std::move(inflight));
    }
    if (batch.empty()) {
      if (ready_.closed()) {
        return;  // Drained and shut down.
      }
      continue;
    }

    // Records acquired on the CPU lanes join their members here. A member
    // whose record stopped streaming before its next step landed acquires
    // it again — the source joins the flight still walking the ring, or
    // fetches from a replica, or registers — and keeps its progress:
    // every copy of a record holds the same bits.
    for (auto& member : batch) {
      TakeAcquired(*member);
      if (!NextStepLost(*member)) {
        continue;
      }
      if (options_.disaggregate) {
        member->cache.reset();
        InFlight* raw = member.get();
        cpu_pool_->Submit([this, raw] { AcquireOnLane(raw); });
      } else {
        member->cache = AcquireRecord(*member);
      }
    }

    // Members whose next step's cache is resident step; the rest sit this
    // step out (bits do not depend on who shares a step). With nobody able
    // to step, wait for a step to land or a request to arrive.
    std::vector<InFlight*> stepping;
    for (auto& member : batch) {
      if (NextStepResident(*member)) {
        stepping.push_back(member.get());
      }
    }
    if (stepping.empty()) {
      if (!batch.empty()) {
        AwaitAnyStep(batch);
      }
      continue;
    }
    sat_out_steps_.fetch_add(batch.size() - stepping.size());

    // One denoising step for every stepping member (step-level
    // interleaving). Patch-granular path: members whose pinned record
    // carries K/V advance through ONE cross-request gathered panel per
    // block — the token-wise GEMMs of the whole (possibly mixed-resolution)
    // batch run as single kernels over everyone's masked tokens. The rest
    // (full-compute mode, Y-only records from a degraded remote fetch,
    // patch batching off) step solo; both paths produce bitwise-identical
    // latents (see DiffusionModel::RunStepBatchGathered).
    std::vector<model::DiffusionModel::StepBatchMember> panel;
    std::vector<InFlight*> solo;
    for (InFlight* member : stepping) {
      if (patch_batching && member->cache != nullptr &&
          member->cache->has_kv()) {
        panel.push_back({member->model, &member->latent,
                         &member->request.mask, member->cache.get(),
                         member->steps_done});
      } else {
        solo.push_back(member);
      }
    }
    if (!panel.empty()) {
      model::DiffusionModel::RunStepBatchGathered(panel);
    }
    for (InFlight* member : solo) {
      model::DiffusionModel::RunOptions opts = run_options;
      if (options_.mask_aware) {
        opts.cache = member->cache.get();
        opts.mask = &member->request.mask;
      }
      member->latent = member->model->RunStepRange(std::move(member->latent),
                                                   opts, member->steps_done,
                                                   member->steps_done + 1);
    }
    for (InFlight* member : stepping) {
      ++member->steps_done;
      StatusUpdateSteps(member->id, member->steps_done);
    }

    // Retire finished members.
    for (auto it = batch.begin(); it != batch.end();) {
      if ((*it)->steps_done < total_steps) {
        ++it;
        continue;
      }
      InFlightPtr done = std::move(*it);
      it = batch.erase(it);
      done->denoise_done = std::chrono::steady_clock::now();
      StatusRetire(done->id);
      if (options_.disaggregate) {
        InFlight* raw = done.release();
        cpu_pool_->Submit([this, raw] { Postprocess(InFlightPtr(raw)); });
      } else {
        Postprocess(std::move(done));
      }
    }
  }
}

void OnlineServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Another caller is (or was) stopping; nothing to do — the first caller
    // joins the threads.
    return;
  }
  // No new submissions are accepted now. The denoise loop keeps running, so
  // wait for every accepted request to fully complete before tearing down.
  for (uint64_t done = completed_.load(); done < accepted_.load();
       done = completed_.load()) {
    completed_.wait(done);
  }
  ready_.Close();
  if (denoise_thread_.joinable()) {
    denoise_thread_.join();
  }
  if (cpu_pool_ != nullptr) {
    cpu_pool_->Shutdown();
  }
}

}  // namespace flashps::runtime
