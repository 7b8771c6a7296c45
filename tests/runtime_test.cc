#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "src/common/concurrent_queue.h"
#include "src/common/thread_pool.h"
#include "src/quality/metrics.h"
#include "src/runtime/online_server.h"

namespace flashps::runtime {
namespace {

TEST(ConcurrentQueueTest, FifoOrder) {
  ConcurrentQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.TryPop(), 2);
  EXPECT_EQ(*q.Pop(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(ConcurrentQueueTest, CloseDrainsThenReturnsNullopt) {
  ConcurrentQueue<int> q;
  q.Push(7);
  q.Close();
  EXPECT_FALSE(q.Push(8));
  EXPECT_EQ(*q.Pop(), 7);
  EXPECT_FALSE(q.Pop().has_value());
  EXPECT_TRUE(q.closed());
}

TEST(ConcurrentQueueTest, DrainUpTo) {
  ConcurrentQueue<int> q;
  for (int i = 0; i < 5; ++i) {
    q.Push(i);
  }
  const auto batch = q.DrainUpTo(3);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0], 0);
  EXPECT_EQ(batch[2], 2);
  EXPECT_EQ(q.size(), 2u);
}

TEST(ConcurrentQueueTest, CrossThreadHandoff) {
  ConcurrentQueue<int> q;
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      q.Push(i);
    }
    q.Close();
  });
  int count = 0;
  int last = -1;
  while (auto v = q.Pop()) {
    EXPECT_EQ(*v, last + 1);
    last = *v;
    ++count;
  }
  producer.join();
  EXPECT_EQ(count, 100);
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
    }
    pool.Shutdown();
    EXPECT_EQ(pool.completed(), 50u);
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(1);
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
  pool.Shutdown();  // Idempotent.
}

class OnlineServerTest : public ::testing::Test {
 protected:
  static OnlineRequest MakeRequest(const model::NumericsConfig& numerics,
                                   int i, Rng& rng) {
    OnlineRequest r;
    r.template_id = i % 3;
    r.mask = trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w,
                                     0.15 + 0.2 * rng.NextDouble(), rng);
    r.prompt_seed = 900 + i;
    return r;
  }
};

TEST_F(OnlineServerTest, ServesRequestsEndToEnd) {
  OnlineServer::Options options;
  options.max_batch = 3;
  OnlineServer server(options);
  Rng rng(1);

  std::vector<std::future<OnlineResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        server.Submit(MakeRequest(options.numerics, i, rng)));
  }
  std::set<uint64_t> ids;
  for (auto& f : futures) {
    OnlineResponse r = f.get();
    EXPECT_TRUE(ids.insert(r.id).second);
    EXPECT_EQ(r.image.rows(), options.numerics.image_h());
    EXPECT_GE(r.total_ms(), 0.0);
    EXPECT_LE(r.submitted, r.admitted);
    EXPECT_LE(r.admitted, r.denoise_done);
    EXPECT_LE(r.denoise_done, r.completed);
  }
  server.Stop();
  EXPECT_EQ(server.completed_count(), 6u);
}

TEST_F(OnlineServerTest, MaskAwareOutputMatchesOfflineEngine) {
  OnlineServer::Options options;
  OnlineServer server(options);
  Rng rng(2);
  OnlineRequest request = MakeRequest(options.numerics, 1, rng);
  const OnlineRequest copy = request;
  OnlineResponse response = server.Submit(std::move(request)).get();
  server.Stop();

  // The offline engine with the same inputs must produce the same image.
  const model::DiffusionModel& m = server.model();
  cache::ActivationStore store;
  model::DiffusionModel::RunOptions opts;
  opts.mode = model::ComputeMode::kMaskAwareY;
  opts.cache = &store.GetOrRegister(m, copy.template_id);
  opts.mask = &copy.mask;
  const Matrix offline =
      m.EditImage(copy.template_id, copy.mask, copy.prompt_seed, opts);
  EXPECT_DOUBLE_EQ(MeanAbsDiff(response.image, offline), 0.0);
}

TEST_F(OnlineServerTest, MaskAwareMatchesReferenceImages) {
  // One session served twice: mask-aware, and by full computation
  // (Diffusers-equivalent). Every mask-aware image must stay close to
  // its reference.
  OnlineServer::Options options;
  OnlineServer::Options reference_options;
  reference_options.mask_aware = false;
  const model::NumericsConfig& numerics = options.numerics;
  Rng rng(5);
  std::vector<OnlineRequest> session;
  for (int i = 0; i < 4; ++i) {
    OnlineRequest r;
    r.template_id = i % 3;
    r.mask = trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w,
                                     0.1 + 0.3 * rng.NextDouble(), rng);
    r.prompt_seed = 100 + static_cast<uint64_t>(i);
    session.push_back(std::move(r));
    rng.Exponential(1.0);  // An arrival gap: the next mask's draws follow it.
  }
  OnlineServer flash(options);
  OnlineServer reference(reference_options);
  std::vector<std::future<OnlineResponse>> fast;
  std::vector<std::future<OnlineResponse>> exact;
  for (const OnlineRequest& r : session) {
    fast.push_back(flash.Submit(r));
    exact.push_back(reference.Submit(r));
  }
  for (size_t i = 0; i < session.size(); ++i) {
    const Matrix image = fast[i].get().image;
    EXPECT_GT(quality::Ssim(image, exact[i].get().image), 0.85) << i;
  }
  flash.Stop();
  reference.Stop();
}

TEST_F(OnlineServerTest, NonDisaggregatedAndFullComputeModes) {
  OnlineServer::Options options;
  options.disaggregate = false;
  options.mask_aware = false;
  OnlineServer server(options);
  Rng rng(3);
  auto f1 = server.Submit(MakeRequest(options.numerics, 0, rng));
  auto f2 = server.Submit(MakeRequest(options.numerics, 1, rng));
  EXPECT_GT(f1.get().image.rows(), 0);
  EXPECT_GT(f2.get().image.rows(), 0);
  server.Stop();
  EXPECT_EQ(server.completed_count(), 2u);
}

TEST_F(OnlineServerTest, StopWithoutRequestsIsClean) {
  OnlineServer::Options options;
  OnlineServer server(options);
  server.Stop();
  EXPECT_EQ(server.completed_count(), 0u);
}

TEST_F(OnlineServerTest, SubmitAfterStopThrows) {
  OnlineServer::Options options;
  OnlineServer server(options);
  server.Stop();
  Rng rng(4);
  EXPECT_THROW(server.Submit(MakeRequest(options.numerics, 0, rng)),
               std::runtime_error);
}

TEST_F(OnlineServerTest, StopWithInFlightSubmissionsResolvesAllFutures) {
  OnlineServer::Options options;
  options.max_batch = 2;
  OnlineServer server(options);
  Rng rng(6);
  std::vector<std::future<OnlineResponse>> futures;
  for (int i = 0; i < 8; ++i) {
    futures.push_back(server.Submit(MakeRequest(options.numerics, i, rng)));
  }
  // Stop with everything still in flight: it must wait for all accepted
  // requests, and every future must resolve (no broken promises).
  server.Stop();
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());
  }
  EXPECT_EQ(server.completed_count(), 8u);
}

TEST_F(OnlineServerTest, ConcurrentSubmitAndStopNeverLosesARequest) {
  OnlineServer::Options options;
  options.max_batch = 2;
  OnlineServer server(options);
  Rng rng(7);

  std::vector<std::future<OnlineResponse>> futures;
  std::atomic<bool> go{false};
  std::atomic<int> rejected_at_submit{0};
  std::thread submitter([&] {
    Rng thread_rng(8);
    while (!go.load()) {
    }
    for (int i = 0; i < 32; ++i) {
      try {
        auto f = server.Submit(MakeRequest(options.numerics, i, thread_rng));
        futures.push_back(std::move(f));
      } catch (const std::runtime_error&) {
        rejected_at_submit.fetch_add(1);  // Submit after Stop() observed it.
      }
    }
  });
  go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Stop();
  submitter.join();

  // Every future the submitter received resolves with a value or an explicit
  // shutdown error — never a silent drop or a broken promise.
  int resolved = 0;
  int failed = 0;
  for (auto& f : futures) {
    try {
      f.get();
      ++resolved;
    } catch (const std::runtime_error&) {
      ++failed;
    }
  }
  EXPECT_EQ(resolved + failed + rejected_at_submit.load(), 32);
  EXPECT_EQ(server.completed_count(), futures.size());
}

TEST_F(OnlineServerTest, SnapshotTracksOutstandingWork) {
  OnlineServer::Options options;
  options.max_batch = 2;
  options.numerics.num_steps = 16;
  OnlineServer server(options);
  Rng rng(9);

  std::vector<std::future<OnlineResponse>> futures;
  for (int i = 0; i < 3; ++i) {
    futures.push_back(server.Submit(MakeRequest(options.numerics, i, rng)));
  }

  // While requests are in flight, some snapshot must show outstanding work,
  // with invariants: running <= max_batch, remaining steps bounded by
  // outstanding * num_steps.
  bool saw_load = false;
  for (int poll = 0; poll < 2000 && !saw_load; ++poll) {
    const BatchSnapshot snap = server.Snapshot();
    EXPECT_LE(snap.running_ratios.size(), 2u);
    EXPECT_LE(snap.remaining_steps,
              static_cast<int64_t>(snap.running_ratios.size() +
                                   snap.waiting_ratios.size()) *
                  options.numerics.num_steps);
    for (const double r : snap.running_ratios) {
      EXPECT_GT(r, 0.0);
      EXPECT_LT(r, 1.0);
    }
    if (snap.remaining_steps > 0) {
      saw_load = true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(saw_load);
  EXPECT_EQ(server.Snapshot().max_batch, 2);

  for (auto& f : futures) {
    f.get();
  }
  server.Stop();
  // Drained: the snapshot is empty again.
  const BatchSnapshot snap = server.Snapshot();
  EXPECT_TRUE(snap.running_ratios.empty());
  EXPECT_TRUE(snap.waiting_ratios.empty());
  EXPECT_EQ(snap.remaining_steps, 0);
  EXPECT_TRUE(snap.has_slack());
}

TEST_F(OnlineServerTest, DeadlinePlumbsThroughToResponse) {
  OnlineServer::Options options;
  OnlineServer server(options);
  Rng rng(10);

  OnlineRequest with_deadline = MakeRequest(options.numerics, 0, rng);
  with_deadline.deadline =
      std::chrono::steady_clock::now() + std::chrono::hours(1);
  OnlineRequest without_deadline = MakeRequest(options.numerics, 1, rng);

  auto f1 = server.Submit(std::move(with_deadline));
  auto f2 = server.Submit(std::move(without_deadline));
  const OnlineResponse r1 = f1.get();
  const OnlineResponse r2 = f2.get();
  server.Stop();

  EXPECT_TRUE(r1.has_deadline());
  EXPECT_TRUE(r1.met_deadline());  // An hour is plenty.
  EXPECT_FALSE(r2.has_deadline());
  EXPECT_TRUE(r2.met_deadline());  // max() deadline is never missed.
  EXPECT_GE(r1.denoise_ms(), 0.0);
  EXPECT_GE(r1.post_ms(), 0.0);
}

TEST_F(OnlineServerTest, ContinuousBatchingInterleavesRequests) {
  // A request submitted while another is in flight must be admitted before
  // the first finishes (step-level join): its admission time precedes the
  // first request's denoise_done.
  OnlineServer::Options options;
  options.max_batch = 2;
  // Long enough that the second request's CPU-lane pre-processing lands
  // while the first is still denoising, even on a loaded host.
  options.numerics.num_steps = 48;
  OnlineServer server(options);
  Rng rng(5);

  auto f1 = server.Submit(MakeRequest(options.numerics, 0, rng));
  // Submit the second once the first is in the running batch. A fixed head
  // start would assume how long twelve steps take on this CPU. If the
  // first finishes between two polls, stop waiting; the interleaving check
  // below then reports the miss.
  while (server.Snapshot().running_ratios.empty() &&
         f1.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  auto f2 = server.Submit(MakeRequest(options.numerics, 1, rng));

  const OnlineResponse r1 = f1.get();
  const OnlineResponse r2 = f2.get();
  EXPECT_LT(r2.admitted, r1.denoise_done)
      << "second request should join the running batch mid-flight";
  server.Stop();
}

TEST_F(OnlineServerTest, ComputeThreadsProduceIdenticalImages) {
  // The parallel kernels are bitwise thread-count-invariant, so the denoise
  // output must not depend on the intra-op budget.
  Matrix images[2];
  const int thread_counts[2] = {1, 4};
  for (int variant = 0; variant < 2; ++variant) {
    OnlineServer::Options options;
    options.compute_threads = thread_counts[variant];
    OnlineServer server(options);
    Rng rng(9);
    OnlineResponse r =
        server.Submit(MakeRequest(options.numerics, 2, rng)).get();
    images[variant] = std::move(r.image);
    server.Stop();
  }
  ASSERT_EQ(images[0].rows(), images[1].rows());
  EXPECT_EQ(MeanAbsDiff(images[0], images[1]), 0.0);
}

TEST_F(OnlineServerTest, HybridResolutionRequestsRouteByMaskGrid) {
  OnlineServer::Options options;
  options.sparse_compute = true;
  options.extra_resolutions = {{8, 8}, {16, 12}};
  OnlineServer server(options);
  Rng rng(11);

  // One request per served grid, decoded image sized by its own grid.
  const std::vector<std::pair<int, int>> grids = {
      {options.numerics.grid_h, options.numerics.grid_w}, {8, 8}, {16, 12}};
  std::vector<std::future<OnlineResponse>> futures;
  for (size_t i = 0; i < grids.size(); ++i) {
    OnlineRequest r;
    r.template_id = static_cast<int>(i) % 3;
    r.mask = trace::GenerateBlobMask(grids[i].first, grids[i].second, 0.3, rng);
    r.prompt_seed = 700 + i;
    futures.push_back(server.Submit(std::move(r)));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    const OnlineResponse r = futures[i].get();
    EXPECT_EQ(r.image.rows(), grids[i].first * options.numerics.patch);
    EXPECT_EQ(r.image.cols(), grids[i].second * options.numerics.patch);
  }
  server.Stop();
  EXPECT_EQ(server.completed_count(), grids.size());
}

TEST_F(OnlineServerTest, UnsupportedGridFailsTheFutureNotTheServer) {
  OnlineServer::Options options;
  options.extra_resolutions = {{8, 8}};
  OnlineServer server(options);
  Rng rng(12);

  OnlineRequest bad;
  bad.template_id = 0;
  bad.mask = trace::GenerateBlobMask(5, 5, 0.3, rng);
  bad.prompt_seed = 1;
  auto failed = server.Submit(std::move(bad));
  EXPECT_THROW(failed.get(), std::runtime_error);

  // The server stays healthy for supported grids.
  OnlineResponse ok = server.Submit(MakeRequest(options.numerics, 0, rng)).get();
  EXPECT_EQ(ok.image.rows(), options.numerics.image_h());
  server.Stop();
}

TEST_F(OnlineServerTest, CompletionCallbackRunsOnceBeforeTheFutureIsReady) {
  // Once a future's get() returns, its request's callback has run, once,
  // with that response. A grid the server does not serve gets one null
  // callback before Submit() returns; a submit after Stop() throws and
  // never calls back.
  OnlineServer::Options options;
  options.max_batch = 2;
  OnlineServer server(options);
  Rng rng(5);
  std::mutex mu;
  std::map<uint64_t, int> calls;  // Response id -> callbacks seen.
  int null_calls = 0;
  const auto record = [&](const OnlineResponse* done) {
    std::lock_guard<std::mutex> lock(mu);
    if (done == nullptr) {
      ++null_calls;
    } else {
      ++calls[done->id];
    }
  };

  std::vector<std::future<OnlineResponse>> futures;
  for (int i = 0; i < 5; ++i) {
    futures.push_back(
        server.Submit(MakeRequest(options.numerics, i, rng), record));
  }
  for (auto& f : futures) {
    const OnlineResponse r = f.get();
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(calls[r.id], 1);
  }

  OnlineRequest bad;
  bad.mask = trace::GenerateBlobMask(5, 5, 0.3, rng);
  auto failed = server.Submit(std::move(bad), record);
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(null_calls, 1);
  }
  EXPECT_THROW(failed.get(), std::runtime_error);

  server.Stop();
  EXPECT_THROW(server.Submit(MakeRequest(options.numerics, 9, rng), record),
               std::runtime_error);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(calls.size(), 5u);
  EXPECT_EQ(null_calls, 1);
}

TEST_F(OnlineServerTest, PatchBatchingMatchesSerializedBaselineBitwise) {
  // The gathered cross-resolution step panel must not change any output:
  // a patch-batching server and a serialize-per-resolution server given
  // the same mixed-resolution submissions produce identical images.
  std::vector<Matrix> images[2];
  const bool batching[2] = {true, false};
  for (int variant = 0; variant < 2; ++variant) {
    OnlineServer::Options options;
    options.sparse_compute = true;
    options.patch_batching = batching[variant];
    options.extra_resolutions = {{8, 8}, {16, 12}};
    options.max_batch = 4;
    OnlineServer server(options);
    Rng rng(13);
    const std::vector<std::pair<int, int>> grids = {
        {options.numerics.grid_h, options.numerics.grid_w},
        {8, 8},
        {16, 12},
        {8, 8}};
    std::vector<std::future<OnlineResponse>> futures;
    for (size_t i = 0; i < grids.size(); ++i) {
      OnlineRequest r;
      r.template_id = static_cast<int>(i) % 3;
      r.mask =
          trace::GenerateBlobMask(grids[i].first, grids[i].second, 0.25, rng);
      r.prompt_seed = 50 + i;
      futures.push_back(server.Submit(std::move(r)));
    }
    for (auto& f : futures) {
      images[variant].push_back(f.get().image);
    }
    server.Stop();
  }
  ASSERT_EQ(images[0].size(), images[1].size());
  for (size_t i = 0; i < images[0].size(); ++i) {
    ASSERT_EQ(images[0][i].rows(), images[1][i].rows()) << i;
    EXPECT_EQ(MeanAbsDiff(images[0][i], images[1][i]), 0.0) << i;
  }
}

// An activation source whose records land when the test says so: Acquire()
// hands out a record with no step resident, and Land() copies the next
// steps in from a whole registration and publishes them on the record's
// stream, as a cache fetch does frame by frame.
class SteppedSource : public cache::ActivationSource {
 public:
  std::shared_ptr<const model::ActivationRecord> Acquire(
      const model::DiffusionModel& m, int template_id,
      bool record_kv) override {
    auto whole = std::make_shared<model::ActivationRecord>(
        m.Register(template_id, record_kv));
    auto record = std::make_shared<model::ActivationRecord>();
    record->steps.resize(whole->steps.size());
    for (size_t s = 0; s < whole->steps.size(); ++s) {
      record->steps[s].y.resize(whole->steps[s].y.size());
      record->steps[s].k.resize(whole->steps[s].k.size());
      record->steps[s].v.resize(whole->steps[s].v.size());
    }
    record->stream = std::make_shared<model::StepStream>(
        static_cast<int>(whole->steps.size()));
    {
      std::lock_guard<std::mutex> lock(mu_);
      records_[template_id] = {whole, record};
    }
    handed_out_.notify_all();
    return record;
  }
  std::string MetricsJson() const override { return "{}"; }

  // Waits until `template_id`'s record is handed out, then makes steps
  // [0, resident) resident.
  void Land(int template_id, int resident) {
    std::unique_lock<std::mutex> lock(mu_);
    handed_out_.wait(lock, [&] { return records_.contains(template_id); });
    auto& [whole, record] = records_[template_id];
    for (int s = record->ResidentSteps(); s < resident; ++s) {
      const model::StepActivations& from = whole->steps[s];
      model::StepActivations& to = record->steps[s];
      for (size_t b = 0; b < from.y.size(); ++b) {
        to.y[b] = from.y[b];
      }
      for (size_t b = 0; b < from.k.size(); ++b) {
        to.k[b] = from.k[b];
        to.v[b] = from.v[b];
      }
    }
    record->stream->Publish(resident);
  }

 private:
  std::mutex mu_;
  std::condition_variable handed_out_;
  std::map<int, std::pair<std::shared_ptr<const model::ActivationRecord>,
                          std::shared_ptr<model::ActivationRecord>>>
      records_;
};

// Polls until `done` holds or ~10 s pass.
template <typename Predicate>
bool WaitFor(Predicate done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// The image one request gets from a server whose records are whole from
// the start (its private local store).
Matrix SoloImage(const OnlineServer::Options& base, OnlineRequest request) {
  OnlineServer::Options options = base;
  options.activation_source = nullptr;
  OnlineServer server(options);
  return server.Submit(std::move(request)).get().image;
}

TEST_F(OnlineServerTest, StreamedRecordStepsAsItsStepsLand) {
  // Step 0 runs while the later steps are still landing, each later step
  // runs once it lands, and the output is bitwise the whole-record one.
  auto source = std::make_shared<SteppedSource>();
  OnlineServer::Options options;
  options.sparse_compute = true;
  options.activation_source = source;
  const int steps = options.numerics.num_steps;
  Rng rng(21);
  const OnlineRequest request = MakeRequest(options.numerics, 0, rng);
  OnlineServer server(options);
  std::future<OnlineResponse> future = server.Submit(request);
  const auto steps_done = [&] {
    const BatchSnapshot snap = server.Snapshot();
    return snap.running_remaining.empty()
               ? -1
               : steps - snap.running_remaining.front();
  };
  for (int landed = 1; landed <= steps; ++landed) {
    source->Land(request.template_id, landed);
    if (landed < steps) {
      // Everything that has landed has run; nothing else can.
      ASSERT_TRUE(WaitFor([&] { return steps_done() == landed; }))
          << "step " << landed - 1 << " did not run once it landed";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      EXPECT_EQ(steps_done(), landed) << "stepped past the landed steps";
    }
  }
  const Matrix streamed = future.get().image;
  server.Stop();
  EXPECT_EQ(server.sat_out_steps(), 0u);  // Alone in its batch.
  EXPECT_GT(server.stream_wait_ms(), 0.0);
  EXPECT_EQ(MeanAbsDiff(streamed, SoloImage(options, request)), 0.0);
}

TEST_F(OnlineServerTest, MemberWhoseStepHasNotLandedSitsOut) {
  // A batch of two: the member whose next step has not landed sits out
  // while the other runs to completion, and both keep their solo bits.
  auto source = std::make_shared<SteppedSource>();
  OnlineServer::Options options;
  options.sparse_compute = true;
  options.max_batch = 2;
  options.activation_source = source;
  const int steps = options.numerics.num_steps;
  Rng rng(22);
  const OnlineRequest late = MakeRequest(options.numerics, 0, rng);
  const OnlineRequest ready = MakeRequest(options.numerics, 1, rng);
  OnlineServer server(options);
  std::future<OnlineResponse> late_future = server.Submit(late);
  std::future<OnlineResponse> ready_future = server.Submit(ready);
  source->Land(late.template_id, 1);
  ASSERT_TRUE(WaitFor([&] {
    const BatchSnapshot snap = server.Snapshot();
    return snap.running_remaining.size() == 2 &&
           std::count(snap.running_remaining.begin(),
                      snap.running_remaining.end(), steps - 1) == 1;
  })) << "the late member did not run its landed step 0";
  source->Land(ready.template_id, steps);
  ASSERT_EQ(ready_future.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_NE(late_future.wait_for(std::chrono::milliseconds(0)),
            std::future_status::ready);
  EXPECT_GE(server.sat_out_steps(), static_cast<uint64_t>(steps - 1));
  const BatchSnapshot snap = server.Snapshot();
  ASSERT_EQ(snap.running_remaining.size(), 1u);
  EXPECT_EQ(snap.running_remaining.front(), steps - 1);

  source->Land(late.template_id, steps);
  const Matrix late_image = late_future.get().image;
  const Matrix ready_image = ready_future.get().image;
  server.Stop();
  EXPECT_GT(server.stream_wait_ms(), 0.0);
  EXPECT_EQ(MeanAbsDiff(late_image, SoloImage(options, late)), 0.0);
  EXPECT_EQ(MeanAbsDiff(ready_image, SoloImage(options, ready)), 0.0);
}

}  // namespace
}  // namespace flashps::runtime
