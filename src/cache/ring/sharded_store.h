// ActivationSource backed by the shared cache tier: a sharded, replicated
// ring of flashps_cached nodes. A single cache node is a ring of one —
// replication clamps to 1, and read repair and failover have nothing to
// do — so every remote deployment runs this one client ladder:
//
//   1. in-process LRU front   — a hit costs no RPC at all; capacity is a
//                               record count (the hot templates of one
//                               worker, not the fleet's whole corpus).
//   2. prefetch staging       — records fetched by the background prefetch
//                               pipeline that no Acquire() has consumed
//                               yet, held outside the LRU cap so an
//                               undersized front cannot evict a prefetched
//                               record before its request arrives.
//   3. single-flight dedup    — concurrent Acquire()s of the same
//                               (template, kv) key collapse into one
//                               fetch; Prefetch() opens its flight
//                               synchronously, so a foreground Acquire()
//                               racing a prefetch joins it. A joiner
//                               returns as soon as step 0 of the flight's
//                               record is resident, holding a record whose
//                               later steps keep landing (its StepStream).
//                               A flight on which every member that
//                               answered missed carries that verdict, so
//                               its joiners register at once instead of
//                               walking the ring again.
//   4. ring fetch             — the whole record, pipelined one matrix per
//                               frame, checksum-verified and published
//                               step by step, from the template's
//                               preferred members (below).
//   5. fallback               — a miss registers locally and publishes
//                               the record to the replica set; with no
//                               member reachable it registers locally
//                               only, so one sick member degrades only
//                               its own arcs of the ring.
//
// The ring, over N members:
//
//   placement   — each template maps to an ordered preference list of
//                 nodes (consistent hashing, vnodes, FNV-1a over the
//                 template id). Entry 0 is the primary; the next k-1 are
//                 replicas; the rest is the failover order.
//   replication — a miss-publish and every read repair write the record
//                 to the first `replication` *reachable* members of the
//                 list, so the Zipf head (~970 templates at ~35k reuses,
//                 per the paper's trace analysis) is served by k nodes
//                 instead of melting one.
//   failover    — the fetch walk skips members whose per-member circuit
//                 breaker is open and moves past transport failures to
//                 the next preferred member; a walk only gives up when it
//                 has heard k clean answers or run out of members.
//   read repair — when replica i misses but replica j>i hits, the record
//                 is written back (best effort) to every earlier reachable
//                 replica that missed, healing holes left by node restarts
//                 and membership change without a rebalance pass.
//
// Streaming (the paper's Algorithm 1 on the real path): the thread that
// fetches a record publishes each step as its frames decode, and the
// flight hands its joiners the record once step 0 is resident, so a
// request can run step 0 while later steps are on the wire. The thread
// that returns a record is never the one still fetching it: a joiner
// returns at step 0 while the prefetch worker or foreground fetcher it
// joined keeps filling the record, and that fetcher itself returns only
// the whole record. A record enters the front or staging only once whole.
// If its transport dies or a member misses a key mid-stream, the stream
// is failed (its resident steps stay readable), the flight withdraws it
// and the walk moves on to the next member; a holder then calls Acquire()
// again, which joins the still-open flight or, once it has ended, runs the
// ladder — replica or local registration.
//
// The prefetch pipeline (Prefetch(), `prefetch_workers` > 0) is the
// serving-tier extension of Algorithm 1: the gateway and the worker
// runtime hint queued requests' templates ahead of admission, so the wire
// fetch overlaps the predecessor requests' denoise loop. A prefetch job
// runs the ring walk only — it never registers locally (registration needs
// the model, whose lifetime belongs to the hinting worker); a prefetch
// that misses or dies resolves its flight empty, and the foreground
// Acquire() that joined it registers (after a clean miss) or runs the
// ladder itself (after transport failures). Each ring member has its own
// net::ClientPool, so prefetches and foreground fetches to different
// nodes never share a socket.
//
// The invariant the serving tier relies on: Acquire() NEVER fails — a
// worker must never fail a request because the cache tier is down; the
// worst case is local-registration latency, visible in the fallback
// counters. Every counter exists twice: aggregated (the ladder identity
// on ShardedStoreStats) and per member, so a sick ring member is visible
// in one MetricsJson() dump instead of averaged away.
#ifndef FLASHPS_SRC_CACHE_RING_SHARDED_STORE_H_
#define FLASHPS_SRC_CACHE_RING_SHARDED_STORE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/activation_store.h"
#include "src/cache/ring/cache_ring.h"
#include "src/common/stats.h"
#include "src/net/client.h"

namespace flashps::cache {

struct ShardedStoreOptions {
  // Ring membership; placement is deterministic in this set (order does
  // not matter — the ring sorts by id).
  std::vector<RingMember> nodes;
  // Replicas per template (clamped to [1, nodes.size()]). 1 = pure
  // sharding, no redundancy.
  int replication = 2;
  int virtual_nodes = 64;

  // In-process front capacity, in records (0 = front disabled).
  size_t lru_capacity = 64;
  // Per-connection transport knobs: bounded connect retry with
  // exponential backoff, and the deadline for one whole-record fetch or
  // put.
  int connect_attempts = 2;
  std::chrono::milliseconds connect_backoff{50};
  std::chrono::milliseconds call_timeout{5000};
  // Shared secret presented to every ring member at connect. Empty = no
  // handshake.
  std::string auth_token;
  // Per-member circuit breaker: consecutive transport failures against
  // ONE member open that member's circuit only; the rest of the ring
  // keeps serving its own ranges.
  int max_consecutive_failures = 3;
  std::chrono::milliseconds degrade_cooldown{1000};
  // Encoding policy for replica publishes and read repairs
  // (--cache-precision): lossless keeps every cached byte bitwise-exact;
  // fp16/staged shrink wire frames and node residency at a quality-gated
  // precision cost. Fetches are self-describing, so this only shapes what
  // THIS store publishes.
  quant::PrecisionMode precision = quant::PrecisionMode::kLossless;
  // Async prefetch pipeline (0 disables; Prefetch() becomes a no-op).
  int prefetch_workers = 0;
  size_t prefetch_queue_cap = 64;
  size_t prefetch_staging_cap = 32;
  // Wire connections per ring member. Clamped up so every prefetch worker
  // plus one foreground fetch can be on the wire against the same member.
  int connections_per_member = 1;
};

// Wire-facing counters for one ring member. All monotonic except
// circuit_open, a gauge sampled at Stats() time.
struct RingMemberStats {
  std::string id;
  uint64_t remote_hits = 0;     // Whole records served (incl. prefetch).
  uint64_t remote_misses = 0;   // Reachable but not resident.
  uint64_t transport_failures = 0;
  uint64_t circuit_trips = 0;
  bool circuit_open = false;
  uint64_t puts_ok = 0;         // Replication publishes acked.
  uint64_t read_repairs = 0;    // Repair writes landed ON this member.
  uint64_t bytes_fetched = 0;   // Decoded fp32 bytes.
  uint64_t bytes_put = 0;
  uint64_t wire_bytes_fetched = 0;  // Encoded bytes (post-codec).
  uint64_t wire_bytes_put = 0;
};

// Aggregate ladder counters. Every non-coalesced Acquire() lands in exactly
// one of front_hits / remote_hits / remote_misses / fallbacks; coalesced
// ones land in singleflight_waits (joined a foreground fetch) or
// prefetch_coalesced (joined a prefetch flight or consumed a staged
// record). So
//   front_hits + remote_hits + remote_misses + fallbacks
//     + singleflight_waits + prefetch_coalesced == Acquire() calls,
// and remote_hits + remote_misses + fallbacks counts the foreground
// Acquire()s that stalled on the ladder (what queue-ahead prefetch drives
// toward zero).
struct ShardedStoreStats {
  uint64_t front_hits = 0;
  uint64_t remote_hits = 0;
  uint64_t remote_misses = 0;  // >=1 member reachable, none resident.
  uint64_t fallbacks = 0;      // No member reachable for this key.
  uint64_t singleflight_waits = 0;
  uint64_t prefetch_coalesced = 0;
  uint64_t local_registrations = 0;
  uint64_t puts_ok = 0;        // Replica publishes acked (all members).
  uint64_t read_repairs = 0;   // Back-fill writes acked (all members).
  uint64_t failovers = 0;      // Walk steps past a failed/open member.
  uint64_t degrade_trips = 0;  // Per-member circuit trips, summed.
  // Decoded vs wire (post-codec) bytes; equal in lossless mode.
  uint64_t remote_bytes_fetched = 0;
  uint64_t remote_bytes_put = 0;
  uint64_t remote_wire_bytes_fetched = 0;
  uint64_t remote_wire_bytes_put = 0;
  uint64_t front_size = 0;
  double fetch_p50_us = 0.0;   // Over successful foreground record fetches.
  double fetch_p99_us = 0.0;
  // When step 0 of those records was resident, from the same start.
  double first_step_p50_us = 0.0;

  // Prefetch pipeline. issued = hints that opened a flight; wasted =
  // prefetched records discarded unconsumed (staging overflow, or
  // redundant by the time they landed); redundant = hint already
  // satisfied at issue; dropped = job queue full at issue; the
  // remote_hits/misses/fallbacks split is per finished job.
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_wasted = 0;
  uint64_t prefetch_redundant = 0;
  uint64_t prefetch_suppressed = 0;  // Every member circuit open at issue.
  uint64_t prefetch_dropped = 0;
  uint64_t prefetch_remote_hits = 0;
  uint64_t prefetch_remote_misses = 0;
  uint64_t prefetch_fallbacks = 0;
  uint64_t prefetch_bytes_fetched = 0;
  uint64_t prefetch_wire_bytes_fetched = 0;
  uint64_t prefetch_staged = 0;  // Gauge.
  double prefetch_p50_us = 0.0;
  double prefetch_p99_us = 0.0;

  std::vector<RingMemberStats> members;
};

class ShardedRemoteStore : public ActivationSource {
 public:
  explicit ShardedRemoteStore(ShardedStoreOptions options);
  ~ShardedRemoteStore() override;

  ShardedRemoteStore(const ShardedRemoteStore&) = delete;
  ShardedRemoteStore& operator=(const ShardedRemoteStore&) = delete;

  // Never fails; see the failure ladder above. Returns at step 0 when it
  // joins a flight still streaming its record (wait on the record's
  // stream for later steps). Thread-safe.
  std::shared_ptr<const model::ActivationRecord> Acquire(
      const model::DiffusionModel& m, int template_id,
      bool record_kv) override;

  // Queue-ahead hint: opens a single-flight entry and hands the ring walk
  // to the background workers. Never blocks on the fetch; reads only
  // m.config() (steps/blocks) during the call. No-op when
  // `prefetch_workers` is 0; suppressed while every member's circuit is
  // open. Thread-safe.
  void Prefetch(const model::DiffusionModel& m, int template_id,
                bool record_kv) override;

  ShardedStoreStats Stats() const;
  std::string MetricsJson() const;

  // Liveness probe of every member (rides the metrics frame — no new wire
  // type). Best effort, for startup diagnostics; the per-member circuit
  // breakers are the live health signal.
  std::vector<bool> ProbeMembers(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(250));

  const CacheRing& ring() const { return ring_; }

 private:
  struct FrontEntry {
    std::shared_ptr<const model::ActivationRecord> record;
    std::list<int>::iterator lru_it;
  };

  struct Flight {
    bool done = false;
    bool prefetch = false;
    bool joined = false;
    // Ended without a record after at least one member answered and every
    // member that answered missed: joiners register without a walk.
    bool clean_miss = false;
    // What joiners take: the record of the fetch in progress once its
    // step 0 is resident, or the finished record. Null while no fetch has
    // a resident step.
    std::shared_ptr<const model::ActivationRecord> result;
  };

  struct PrefetchJob {
    int64_t flight_key = 0;
    std::shared_ptr<Flight> flight;
    int template_id = 0;
    int steps = 0;
    int blocks = 0;
    bool want_kv = false;
  };

  struct StagedEntry {
    std::shared_ptr<const model::ActivationRecord> record;
    uint64_t order = 0;
  };

  // One ring member's transport state. The pool is internally
  // synchronized; breaker fields live under breaker_mu_; counters under
  // mu_ (in stats_.members).
  struct Member {
    std::unique_ptr<net::ClientPool> pool;
    int consecutive_failures = 0;  // Under breaker_mu_.
    std::chrono::steady_clock::time_point degraded_until{};  // breaker_mu_.
  };

  // Outcome of one ring walk (the wire part of the ladder only).
  struct RingFetchResult {
    std::shared_ptr<model::ActivationRecord> record;
    int hit_member = -1;
    int reachable = 0;  // Members that answered (hit or miss).
    int failovers = 0;  // Walk steps past a failed/open member.
    int repairs = 0;    // Read-repair writes acked.
    uint64_t bytes = 0;
    uint64_t wire_bytes = 0;
    double fetch_us = 0.0;
    double first_step_us = 0.0;  // Until step 0 of the hit was resident.
    std::vector<int> missed;  // Reachable members that missed, pref order.
  };

  static int64_t FlightKey(int template_id, bool record_kv) {
    return static_cast<int64_t>(template_id) * 2 + (record_kv ? 1 : 0);
  }

  // Walks the preference list: skip open circuits, move past transport
  // failures, stop at a hit or after `replication` clean answers. Each
  // member's record is offered to `flight` once its step 0 is resident
  // and withdrawn if its fetch then fails. On a hit, read-repairs the
  // earlier reachable replicas that missed. No mu_ held; member counters
  // are updated under mu_ before returning.
  RingFetchResult RingFetch(int template_id, int steps, int blocks,
                            bool want_kv, Flight& flight);
  // The foreground ladder: RingFetch (skipped when a joined flight already
  // heard a clean miss), then register + replicate on miss, then local
  // fallback. Returns only a whole record.
  std::shared_ptr<const model::ActivationRecord> FetchOrRegister(
      const model::DiffusionModel& m, int template_id, bool record_kv,
      Flight& flight, bool known_miss);
  // Publishes `record` to up to `replication` reachable preferred members
  // (miss path). Returns acked put count; updates member counters.
  int Replicate(int template_id, const model::ActivationRecord& record);
  void PrefetchLoop();
  void InstallFront(int template_id,
                    std::shared_ptr<const model::ActivationRecord> record);
  void InstallStaged(int template_id,
                     std::shared_ptr<const model::ActivationRecord> record);
  bool CircuitClosed(size_t member);
  // Trips only `member`'s circuit; returns true when it tripped.
  void NoteTransport(size_t member, bool ok);
  // True when at least one member's circuit is closed.
  bool AnyMemberReachable();

  ShardedStoreOptions options_;
  CacheRing ring_;
  int replication_ = 1;  // Clamped.

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable prefetch_cv_;
  std::map<int, FrontEntry> front_;
  std::list<int> lru_;
  std::map<int, StagedEntry> staged_;
  uint64_t staged_order_ = 0;
  std::map<int64_t, std::shared_ptr<Flight>> flights_;
  std::deque<PrefetchJob> prefetch_queue_;
  bool prefetch_stop_ = false;
  ShardedStoreStats stats_;  // members[] sized at construction.
  StatAccumulator fetch_us_;
  StatAccumulator first_step_us_;
  StatAccumulator prefetch_us_;

  std::vector<Member> members_;  // Indexed like ring_.member().
  mutable std::mutex breaker_mu_;

  std::vector<std::thread> prefetch_threads_;
};

}  // namespace flashps::cache

#endif  // FLASHPS_SRC_CACHE_RING_SHARDED_STORE_H_
