// Real-time online serving runtime (the paper's §5 implementation layer).
//
// A dedicated denoise thread owns the running batch and advances its
// members by one denoising step per iteration — requests join and leave at
// step boundaries (continuous batching). CPU-bound pre-processing (latent
// preparation), the template's activation acquire and post-processing
// (decoding) either run disaggregated on a thread pool (FlashPS's design:
// the denoise thread is never interrupted) or inline on the denoise
// thread (the strawman), selectable per server.
//
// Records stream (the paper's Algorithm 1 on the real path). With
// disaggregation a request becomes admissible once pre-processed; the
// same CPU lane then calls Acquire(), which returns once step 0 of a
// remote record is resident (or after local registration on a miss), and
// hands the record to the denoise thread while its later steps are still
// on the wire. Each iteration steps only the members whose next step is
// resident; the others sit it out, which leaves every member's bits
// unchanged (a member's step is bitwise the same in any panel or solo).
// When no member can step, the thread blocks until a record or a step
// lands or a request arrives — never on a timer. A member whose stream
// fails before its next step lands acquires its record again (replica or
// local registration) and keeps its progress.
//
// This is the actual-concurrency counterpart of serving::Worker (which
// models the same policies in virtual time): real threads, real queues,
// real math, wall-clock timestamps.
#ifndef FLASHPS_SRC_RUNTIME_ONLINE_SERVER_H_
#define FLASHPS_SRC_RUNTIME_ONLINE_SERVER_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/cache/activation_store.h"
#include "src/common/concurrent_queue.h"
#include "src/common/doorbell.h"
#include "src/common/thread_pool.h"
#include "src/common/time.h"
#include "src/model/diffusion_model.h"

namespace flashps::runtime {

struct OnlineRequest {
  int template_id = 0;
  trace::Mask mask;
  uint64_t prompt_seed = 0;
  // Completion deadline (SLO) the caller wants; max() means "none". The
  // server itself never drops a late request — deadlines are carried through
  // so the gateway's admission control and metrics can act on them.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  // Relative SLO budget, stamped into `deadline` at dispatch time by the
  // gateway when no absolute deadline is set; Zero() means "none". Lets
  // open-loop drivers attach per-request (e.g. slowdown-normalized) SLOs
  // without knowing the dispatch wall-clock in advance.
  Duration slo = Duration::Zero();
};

struct OnlineResponse {
  uint64_t id = 0;
  Matrix image;
  std::chrono::steady_clock::time_point submitted;
  std::chrono::steady_clock::time_point admitted;      // Joined the batch.
  std::chrono::steady_clock::time_point denoise_done;  // Left the batch.
  std::chrono::steady_clock::time_point completed;     // Post done.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();

  double queueing_ms() const {
    return std::chrono::duration<double, std::milli>(admitted - submitted)
        .count();
  }
  double denoise_ms() const {
    return std::chrono::duration<double, std::milli>(denoise_done - admitted)
        .count();
  }
  double post_ms() const {
    return std::chrono::duration<double, std::milli>(completed - denoise_done)
        .count();
  }
  double total_ms() const {
    return std::chrono::duration<double, std::milli>(completed - submitted)
        .count();
  }
  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }
  bool met_deadline() const { return completed <= deadline; }
};

// Point-in-time view of a server's load, shaped for the routers: mask ratios
// of the batch members currently denoising, mask ratios of accepted requests
// not yet admitted (in pre-processing or queued), and the total outstanding
// denoising steps. This is the live counterpart of the virtual-time
// sched::WorkerStatus the cluster simulation publishes.
struct BatchSnapshot {
  std::vector<double> running_ratios;
  // Remaining denoise steps per running member, parallel to running_ratios.
  std::vector<int> running_remaining;
  std::vector<double> waiting_ratios;
  int64_t remaining_steps = 0;
  int max_batch = 0;

  // Room in the running batch that queued work will not already consume:
  // waiting requests are admitted the moment a slot opens, so they count
  // against the slack a router can still use.
  bool has_slack() const {
    return static_cast<int>(running_ratios.size() + waiting_ratios.size()) <
           max_batch;
  }
};

class OnlineServer {
 public:
  struct Options {
    model::NumericsConfig numerics = model::NumericsConfig::ForTests();
    int max_batch = 4;
    bool mask_aware = true;
    // true: pre/post on the CPU lanes (FlashPS); false: inline on the
    // denoise thread (the Fig. 10-Top strawman).
    bool disaggregate = true;
    int cpu_lanes = 2;
    // Mask-aware only: run cached blocks through the gathered-panel sparse
    // compute path, making per-step compute proportional to the mask ratio
    // (see model::DiffusionModel::RunOptions::sparse_compute). Acquires
    // activation records with K/V (3x the Y-only record bytes) so the
    // gathered path can replenish projections from the cache. Output is
    // bitwise-identical to the dense path.
    bool sparse_compute = false;
    // Grids served in addition to the native `numerics` grid. Each extra
    // resolution gets its own model that shares the native model's weight
    // family (same numerics except the grid), so its block weights are
    // bitwise-identical and cross-resolution panels batch safely (see
    // model::DiffusionModel::StepBatchMember). Requests route by their
    // mask's grid; a grid matching no configured resolution fails the
    // submit future immediately. Empty keeps the seed's single-resolution
    // server, byte for byte. Non-native resolutions key the activation
    // source with a salted template id (template_id +
    // kResolutionCacheStride * resolution_index) so records of different
    // shapes never collide in a shared cache tier; template ids should
    // stay below the stride.
    std::vector<std::pair<int, int>> extra_resolutions;
    // Patch-granular step batching (the hybrid-resolution serving unit):
    // when mask-aware sparse compute is on, batch members whose pinned
    // records carry K/V advance through ONE cross-request gathered panel
    // per block (DiffusionModel::RunStepBatchGathered) instead of solo
    // steps — bitwise-identical latents, with the token-wise GEMM cost of
    // the whole batch proportional to its total masked tokens rather than
    // paid per member. false = the serialize-per-resolution baseline
    // (every member steps alone). Ignored unless mask_aware and
    // sparse_compute are both set.
    bool patch_batching = true;
    // Intra-op kernel parallelism for the denoise thread: GEMM row panels,
    // LayerNorm/softmax rows and GeLU are fanned out across this many
    // threads (shared ParallelFor pool; 1 = the seed's serial kernels).
    // Results are bitwise-independent of this setting.
    int compute_threads = 1;
    // Where template activations come from. Null (the default) keeps the
    // seed behavior: a private in-process ActivationStore. A
    // cache::ShardedRemoteStore here puts the worker on the shared
    // cache tier; a shared_ptr to one local store puts a whole fleet on
    // one in-process store. Either way the denoise loop is identical —
    // records are acquired once per request (again only if a stream
    // fails) and pinned until it retires.
    std::shared_ptr<cache::ActivationSource> activation_source;
  };

  // Runs once per submitted request, on the thread that resolves it (a
  // CPU lane after post-processing, or whichever thread rejects it),
  // just before its future becomes ready: with the response, or with null
  // when the future will hold an exception instead.
  using OnComplete = std::function<void(const OnlineResponse*)>;

  explicit OnlineServer(Options options);
  ~OnlineServer();

  OnlineServer(const OnlineServer&) = delete;
  OnlineServer& operator=(const OnlineServer&) = delete;

  // Asynchronous submission; the future resolves when post-processing
  // finishes, right after `on_complete` (if set) returns. Throws
  // std::runtime_error after Stop(), and then never calls `on_complete`.
  std::future<OnlineResponse> Submit(OnlineRequest request,
                                     OnComplete on_complete = {});

  // Completes all accepted requests, then joins every thread. Idempotent.
  void Stop();

  // Thread-safe load snapshot for routing/admission decisions.
  BatchSnapshot Snapshot() const;

  uint64_t accepted_count() const { return accepted_.load(); }
  uint64_t completed_count() const { return completed_.load(); }
  // Member-steps skipped because the member's next step had not landed
  // while other members stepped.
  uint64_t sat_out_steps() const { return sat_out_steps_.load(); }
  // Time the denoise thread waited with members in its batch but none
  // able to step, in milliseconds.
  double stream_wait_ms() const {
    return static_cast<double>(stream_wait_us_.load()) / 1e3;
  }
  const Options& options() const { return options_; }
  const model::DiffusionModel& model() const { return model_; }

  // Salted-template-id stride for non-native resolutions (see
  // Options::extra_resolutions).
  static constexpr int kResolutionCacheStride = 1 << 20;

  // The model serving this grid, or null if the server accepts no such
  // resolution. The native numerics grid always resolves (to model()).
  const model::DiffusionModel* ModelForGrid(int grid_h, int grid_w) const;

  // The resolved source (the configured one, or the private local store).
  const std::shared_ptr<cache::ActivationSource>& activation_source() const {
    return source_;
  }

 private:
  struct InFlight {
    uint64_t id = 0;
    OnlineRequest request;
    // Resolution routing, fixed at submit: the model serving this
    // request's grid and the (salted) template id keying its activations.
    const model::DiffusionModel* model = nullptr;
    int effective_template_id = 0;
    Matrix latent;
    // Pinned activation record for the request's lifetime: an evicting
    // source (remote store LRU front) can drop its reference without
    // invalidating a batch member mid-denoise. Steps at or past
    // cache->ResidentSteps() may still be landing. Null (mask-aware)
    // until the CPU lane's acquire lands in `acquired`.
    std::shared_ptr<const model::ActivationRecord> cache;
    // Handed over by AcquireOnLane(); guarded by acquired_mu_.
    std::shared_ptr<const model::ActivationRecord> acquired;
    int steps_done = 0;
    OnComplete on_complete;
    std::promise<OnlineResponse> promise;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point admitted;
    std::chrono::steady_clock::time_point denoise_done;
  };
  using InFlightPtr = std::unique_ptr<InFlight>;

  // Resolution route: the serving model plus its index (0 = native, used
  // to salt the cache template id). `model` null means unsupported grid.
  struct ResolutionRoute {
    const model::DiffusionModel* model = nullptr;
    int res_index = 0;
  };
  ResolutionRoute RouteForGrid(int grid_h, int grid_w) const;

  void DenoiseLoop();
  // Prepares the initial latent (the CPU-bound "pre-processing").
  void Preprocess(InFlight& item) const;
  // The request's activation record from the source (mask-aware only).
  std::shared_ptr<const model::ActivationRecord> AcquireRecord(
      const InFlight& item) const;
  // Acquires on a CPU lane for a request the denoise thread already owns:
  // the record lands in `acquired` and the denoise thread is rung.
  void AcquireOnLane(InFlight* item);
  // Denoise thread: moves a landed `acquired` record into `cache`.
  void TakeAcquired(InFlight& item);
  // Queues the request for the denoise thread and rings it; false (and
  // the request rejected) when the queue is closed.
  bool MakeAdmissible(InFlightPtr item);
  bool NextStepResident(const InFlight& item) const;
  // The record's stream failed before the member's next step landed.
  bool NextStepLost(const InFlight& item) const;
  // Blocks until a record or a step lands for some member, a stream
  // fails, or a request arrives with room in the batch.
  void AwaitAnyStep(std::vector<InFlightPtr>& batch);
  // Decodes and fulfills the promise (the CPU-bound "post-processing").
  void Postprocess(InFlightPtr item);
  // Fails a request that lost the submit/Stop race (counts it completed).
  void Reject(InFlightPtr item);

  // Status-table transitions backing Snapshot().
  void StatusMarkWaiting(uint64_t id, double ratio);
  void StatusMarkRunning(uint64_t id);
  void StatusUpdateSteps(uint64_t id, int steps_done);
  void StatusRetire(uint64_t id);

  Options options_;
  model::DiffusionModel model_;
  // Models for Options::extra_resolutions (resolution index i+1); they
  // share model_'s weight family, so cross-resolution step panels are
  // bitwise-safe.
  std::vector<std::unique_ptr<model::DiffusionModel>> extra_models_;
  // The resolved activation source: options_.activation_source when set
  // (possibly shared across a fleet or remote), else a private local
  // store. Acquire() runs on the CPU lanes (on the denoise thread in the
  // strawman), and the source may be shared, so it must be thread-safe
  // (all of ours are).
  std::shared_ptr<cache::ActivationSource> source_;
  ConcurrentQueue<InFlightPtr> ready_;
  // Rung by every push to ready_, every record a CPU lane acquires, and
  // the streams of members the denoise thread waits on.
  std::shared_ptr<Doorbell> bell_ = std::make_shared<Doorbell>();
  std::mutex acquired_mu_;
  std::atomic<uint64_t> sat_out_steps_{0};
  std::atomic<uint64_t> stream_wait_us_{0};
  std::unique_ptr<ThreadPool> cpu_pool_;
  std::thread denoise_thread_;
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<bool> stopping_{false};

  // Live load table: accepted-but-not-admitted requests (waiting) and batch
  // members (running, with their progress). Written on the submit path and
  // the denoise thread; read by Snapshot() from arbitrary threads.
  struct RunningState {
    double ratio = 0.0;
    int steps_done = 0;
  };
  mutable std::mutex status_mu_;
  std::map<uint64_t, double> waiting_status_;
  std::map<uint64_t, RunningState> running_status_;
};

}  // namespace flashps::runtime

#endif  // FLASHPS_SRC_RUNTIME_ONLINE_SERVER_H_
