// In-memory store of real activation records keyed by template, used by the
// numerics path (examples, quality benchmarks) and — through the
// ActivationSource interface — by the online serving tier, where the
// records may instead come from shared cache nodes over the wire
// (cache::ShardedRemoteStore). The timing path uses CacheEngine, which
// manages the same caches as byte-sized resources in virtual time; this
// class holds the actual matrices.
#ifndef FLASHPS_SRC_CACHE_ACTIVATION_STORE_H_
#define FLASHPS_SRC_CACHE_ACTIVATION_STORE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "src/model/diffusion_model.h"

namespace flashps::cache {

// Where a worker's template activations come from. The serving runtime
// programs against this, so the backing store can be the worker-local
// ActivationStore below or a ShardedRemoteStore fronting a ring of shared
// cache nodes (one node is a ring of one) — the denoise loop cannot tell
// the difference.
//
// Acquire() returns a shared_ptr pin: the caller holds the record for the
// lifetime of its request, so a source that evicts (LRU fronts, remote
// stores) can drop its own reference without invalidating in-flight work.
class ActivationSource {
 public:
  virtual ~ActivationSource() = default;

  // Returns the template's activation record, obtaining it however the
  // source does (local registration pass, remote fetch, ...). Never
  // returns null: every source must degrade to local registration rather
  // than fail the request. A remote source may return a record that is
  // still streaming in, step by step (ActivationRecord::stream): read only
  // its resident steps, or AwaitWhole() first.
  virtual std::shared_ptr<const model::ActivationRecord> Acquire(
      const model::DiffusionModel& m, int template_id, bool record_kv) = 0;

  // Hint that `template_id` will be Acquire()d soon (the request is queued
  // behind earlier work). Sources that can overlap a slow acquisition with
  // the predecessor's compute start it in the background — Algorithm 1's
  // load/compute overlap, extended past the step loop to the serving tier.
  // Must return fast and never block on the acquisition itself; `m` is
  // only read during the call (nothing may retain it — the hinting request
  // may outlive the hinted-at worker's model). Default: no-op, which is
  // always correct — a hint dropped on the floor just means the later
  // Acquire() pays the full cost, exactly as without prefetch.
  virtual void Prefetch(const model::DiffusionModel& m, int template_id,
                        bool record_kv) {
    (void)m;
    (void)template_id;
    (void)record_kv;
  }

  // Flat JSON of the source's counters, spliced into serving metrics.
  virtual std::string MetricsJson() const = 0;
};

// The worker-local source: records live in this process, registered on
// first use, never evicted.
class ActivationStore : public ActivationSource {
 public:
  // Returns the template's activation record, running a registration pass on
  // first use (the paper's observation: templates are reused ~35k times, so
  // registration cost amortizes to nothing).
  const model::ActivationRecord& GetOrRegister(const model::DiffusionModel& m,
                                               int template_id,
                                               bool record_kv = false);

  // ActivationSource: same records, pinned. Thread-safe like the rest of
  // this class. Registration runs outside the lock with one flight per
  // template: a second Acquire() of a template being registered waits for
  // that registration, while hits on other templates never wait on it.
  std::shared_ptr<const model::ActivationRecord> Acquire(
      const model::DiffusionModel& m, int template_id,
      bool record_kv) override;
  std::string MetricsJson() const override;

  bool Contains(int template_id) const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.contains(template_id);
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }
  size_t TotalBytes() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable registered_;
  std::unordered_map<int, std::shared_ptr<model::ActivationRecord>> records_;
  std::unordered_set<int> registering_;  // Templates in Register(); mu_.
  uint64_t registrations_ = 0;  // Under mu_.
  uint64_t local_hits_ = 0;     // Under mu_.
};

}  // namespace flashps::cache

#endif  // FLASHPS_SRC_CACHE_ACTIVATION_STORE_H_
