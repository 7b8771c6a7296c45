#include "src/cache/ring/sharded_store.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "src/common/thread_name.h"

namespace flashps::cache {

ShardedRemoteStore::ShardedRemoteStore(ShardedStoreOptions options)
    : options_(std::move(options)),
      ring_([this] {
        CacheRingOptions ring_options;
        ring_options.members = options_.nodes;
        ring_options.virtual_nodes = options_.virtual_nodes;
        return ring_options;
      }()) {
  replication_ = std::clamp(options_.replication, 1,
                            static_cast<int>(std::max<size_t>(1, ring_.size())));

  net::ClientOptions copts;
  copts.connect_attempts = options_.connect_attempts;
  copts.connect_backoff = options_.connect_backoff;
  copts.default_timeout = options_.call_timeout;
  copts.auth_token = options_.auth_token;
  // Per member: enough connections that every prefetch worker plus one
  // foreground fetch can be on the wire against the SAME member at once —
  // a Zipf head means bursts do concentrate on one node.
  int pool_size = std::max(1, options_.connections_per_member);
  if (options_.prefetch_workers > 0) {
    pool_size = std::max(pool_size, options_.prefetch_workers + 1);
  }
  members_.reserve(ring_.size());
  stats_.members.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    Member member;
    member.pool = std::make_unique<net::ClientPool>(
        ring_.member(i).host, ring_.member(i).port, copts, pool_size);
    members_.push_back(std::move(member));
    RingMemberStats member_stats;
    member_stats.id = ring_.member(i).id();
    stats_.members.push_back(std::move(member_stats));
  }
  for (int i = 0; i < options_.prefetch_workers; ++i) {
    prefetch_threads_.emplace_back([this] {
      SetThreadName("ring-prefetch");
      PrefetchLoop();
    });
  }
}

ShardedRemoteStore::~ShardedRemoteStore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    prefetch_stop_ = true;
    for (const PrefetchJob& job : prefetch_queue_) {
      job.flight->done = true;
      flights_.erase(job.flight_key);
    }
    prefetch_queue_.clear();
  }
  prefetch_cv_.notify_all();
  cv_.notify_all();
  for (std::thread& t : prefetch_threads_) {
    t.join();
  }
}

void ShardedRemoteStore::InstallFront(
    int template_id, std::shared_ptr<const model::ActivationRecord> record) {
  auto sit = staged_.find(template_id);
  if (sit != staged_.end() &&
      (record->has_kv() || !sit->second.record->has_kv())) {
    staged_.erase(sit);
    ++stats_.prefetch_wasted;
  }
  if (options_.lru_capacity == 0) {
    return;
  }
  auto it = front_.find(template_id);
  if (it != front_.end()) {
    it->second.record = std::move(record);
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  while (front_.size() >= options_.lru_capacity) {
    const int victim = lru_.back();
    lru_.pop_back();
    front_.erase(victim);
  }
  FrontEntry entry;
  entry.record = std::move(record);
  lru_.push_front(template_id);
  entry.lru_it = lru_.begin();
  front_.emplace(template_id, std::move(entry));
}

void ShardedRemoteStore::InstallStaged(
    int template_id, std::shared_ptr<const model::ActivationRecord> record) {
  auto fit = front_.find(template_id);
  if (fit != front_.end() &&
      (fit->second.record->has_kv() || !record->has_kv())) {
    ++stats_.prefetch_wasted;
    return;
  }
  auto sit = staged_.find(template_id);
  if (sit != staged_.end()) {
    ++stats_.prefetch_wasted;
    sit->second.record = std::move(record);
    sit->second.order = staged_order_++;
    return;
  }
  while (staged_.size() >= options_.prefetch_staging_cap && !staged_.empty()) {
    auto oldest = staged_.begin();
    for (auto it = staged_.begin(); it != staged_.end(); ++it) {
      if (it->second.order < oldest->second.order) {
        oldest = it;
      }
    }
    staged_.erase(oldest);
    ++stats_.prefetch_wasted;
  }
  StagedEntry entry;
  entry.record = std::move(record);
  entry.order = staged_order_++;
  staged_.emplace(template_id, std::move(entry));
}

bool ShardedRemoteStore::CircuitClosed(size_t member) {
  std::lock_guard<std::mutex> lock(breaker_mu_);
  return std::chrono::steady_clock::now() >= members_[member].degraded_until;
}

bool ShardedRemoteStore::AnyMemberReachable() {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(breaker_mu_);
  for (const Member& member : members_) {
    if (now >= member.degraded_until) {
      return true;
    }
  }
  return false;
}

void ShardedRemoteStore::NoteTransport(size_t member, bool ok) {
  bool tripped = false;
  {
    std::lock_guard<std::mutex> lock(breaker_mu_);
    Member& m = members_[member];
    if (ok) {
      m.consecutive_failures = 0;
    } else {
      ++m.consecutive_failures;
      if (m.consecutive_failures >= options_.max_consecutive_failures) {
        m.degraded_until =
            std::chrono::steady_clock::now() + options_.degrade_cooldown;
        m.consecutive_failures = 0;
        tripped = true;
      }
    }
  }
  if (!ok || tripped) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ok) {
      ++stats_.members[member].transport_failures;
    }
    if (tripped) {
      ++stats_.members[member].circuit_trips;
      ++stats_.degrade_trips;
    }
  }
}

ShardedRemoteStore::RingFetchResult ShardedRemoteStore::RingFetch(
    int template_id, int steps, int blocks, bool want_kv, Flight& flight) {
  RingFetchResult result;
  const std::vector<int> prefs = ring_.PreferenceList(template_id);
  for (int idx : prefs) {
    if (result.record != nullptr || result.reachable >= replication_) {
      break;
    }
    const size_t member = static_cast<size_t>(idx);
    if (!CircuitClosed(member)) {
      // This member's ranges have shifted to its successors for the
      // duration of the cooldown.
      ++result.failovers;
      continue;
    }
    net::ClientPool::Lease lease = members_[member].pool->Checkout();
    const auto t0 = std::chrono::steady_clock::now();
    // Joiners take this member's record once its step 0 is resident.
    std::shared_ptr<const model::ActivationRecord> offered;
    auto first_step = t0;
    net::FetchRecordResult fetched = lease->FetchRecord(
        template_id, steps, blocks, want_kv,
        [&](const std::shared_ptr<model::ActivationRecord>& record) {
          first_step = std::chrono::steady_clock::now();
          offered = record;
          {
            std::lock_guard<std::mutex> lock(mu_);
            flight.result = offered;
          }
          cv_.notify_all();
        });
    if (offered != nullptr && !fetched.complete) {
      // Its stream is failed; the next member's record replaces it.
      std::lock_guard<std::mutex> lock(mu_);
      if (flight.result == offered) {
        flight.result = nullptr;
      }
    }
    NoteTransport(member, fetched.transport_ok);
    if (!fetched.transport_ok) {
      ++result.failovers;
      continue;
    }
    ++result.reachable;
    if (fetched.complete) {
      result.record = std::move(fetched.record);
      result.hit_member = idx;
      result.bytes = fetched.bytes;
      result.wire_bytes = fetched.wire_bytes;
      result.fetch_us = static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      result.first_step_us = static_cast<double>(
          std::chrono::duration_cast<std::chrono::microseconds>(first_step -
                                                                t0)
              .count());
    } else {
      result.missed.push_back(idx);
    }
  }

  // Read repair: a hit on replica j back-fills every earlier reachable
  // replica that missed, so the next fetch for this template hits its
  // primary again. Best effort — a failed repair only counts against the
  // target's circuit.
  if (result.record != nullptr && options_.read_repair) {
    for (int idx : result.missed) {
      const size_t member = static_cast<size_t>(idx);
      net::ClientPool::Lease lease = members_[member].pool->Checkout();
      net::PutRecordResult put = lease->PutRecord(
          template_id, *result.record, options_.precision);
      NoteTransport(member, put.transport_ok);
      if (put.transport_ok) {
        ++result.repairs;
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.members[member].read_repairs;
        stats_.members[member].bytes_put += put.bytes;
        stats_.members[member].wire_bytes_put += put.wire_bytes;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.hit_member >= 0) {
      RingMemberStats& hit = stats_.members[static_cast<size_t>(
          result.hit_member)];
      ++hit.remote_hits;
      hit.bytes_fetched += result.bytes;
      hit.wire_bytes_fetched += result.wire_bytes;
    }
    for (int idx : result.missed) {
      ++stats_.members[static_cast<size_t>(idx)].remote_misses;
    }
  }
  return result;
}

int ShardedRemoteStore::Replicate(int template_id,
                                  const model::ActivationRecord& record) {
  int acked = 0;
  for (int idx : ring_.PreferenceList(template_id)) {
    if (acked >= replication_) {
      break;
    }
    const size_t member = static_cast<size_t>(idx);
    if (!CircuitClosed(member)) {
      continue;
    }
    net::ClientPool::Lease lease = members_[member].pool->Checkout();
    net::PutRecordResult put =
        lease->PutRecord(template_id, record, options_.precision);
    NoteTransport(member, put.transport_ok);
    if (put.transport_ok) {
      ++acked;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.members[member].puts_ok;
      stats_.members[member].bytes_put += put.bytes;
      stats_.members[member].wire_bytes_put += put.wire_bytes;
      ++stats_.puts_ok;
      stats_.remote_bytes_put += put.bytes;
      stats_.remote_wire_bytes_put += put.wire_bytes;
    }
  }
  return acked;
}

std::shared_ptr<const model::ActivationRecord>
ShardedRemoteStore::FetchOrRegister(const model::DiffusionModel& m,
                                    int template_id, bool record_kv,
                                    Flight& flight, bool known_miss) {
  RingFetchResult fetched;
  if (known_miss) {
    // The flight this caller joined walked the ring and heard only
    // misses; a second walk would hear them again.
    fetched.reachable = 1;
  } else {
    fetched = RingFetch(template_id, m.config().num_steps,
                        m.config().num_blocks, record_kv, flight);
  }
  if (fetched.record != nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.remote_hits;
    stats_.remote_bytes_fetched += fetched.bytes;
    stats_.remote_wire_bytes_fetched += fetched.wire_bytes;
    stats_.failovers += static_cast<uint64_t>(fetched.failovers);
    stats_.read_repairs += static_cast<uint64_t>(fetched.repairs);
    fetch_us_.Add(fetched.fetch_us);
    first_step_us_.Add(fetched.first_step_us);
    return fetched.record;
  }

  // Miss (some member answered) or fallback (nobody reachable): either
  // way the worker must never fail the request.
  auto record = std::make_shared<model::ActivationRecord>(
      m.Register(template_id, record_kv));
  if (fetched.reachable > 0) {
    if (options_.put_on_miss) {
      Replicate(template_id, *record);
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.remote_misses;
    ++stats_.local_registrations;
    stats_.failovers += static_cast<uint64_t>(fetched.failovers);
  } else {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.fallbacks;
    ++stats_.local_registrations;
    stats_.failovers += static_cast<uint64_t>(fetched.failovers);
  }
  return record;
}

std::shared_ptr<const model::ActivationRecord> ShardedRemoteStore::Acquire(
    const model::DiffusionModel& m, int template_id, bool record_kv) {
  const int64_t flight_key = FlightKey(template_id, record_kv);
  std::shared_ptr<Flight> flight;
  bool known_miss = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto fit = front_.find(template_id);
      if (fit != front_.end() &&
          (!record_kv || fit->second.record->has_kv())) {
        ++stats_.front_hits;
        lru_.splice(lru_.begin(), lru_, fit->second.lru_it);
        return fit->second.record;
      }
      auto sit = staged_.find(template_id);
      if (sit != staged_.end() &&
          (!record_kv || sit->second.record->has_kv())) {
        auto record = std::move(sit->second.record);
        staged_.erase(sit);
        ++stats_.prefetch_coalesced;
        InstallFront(template_id, record);
        return record;
      }
      auto flit = flights_.find(flight_key);
      if (flit == flights_.end()) {
        break;
      }
      std::shared_ptr<Flight> joined = flit->second;
      joined->joined = true;
      const auto usable = [&] {
        return joined->result != nullptr && !joined->result->StreamFailed();
      };
      cv_.wait(lock, [&] { return joined->done || usable(); });
      if (usable()) {
        if (joined->prefetch) {
          ++stats_.prefetch_coalesced;
        } else {
          ++stats_.singleflight_waits;
        }
        return joined->result;
      }
      // The flight ended without a record. After a clean miss this caller
      // registers without walking the ring again; after transport
      // failures it walks the ring itself.
      known_miss = known_miss || joined->clean_miss;
    }
    flight = std::make_shared<Flight>();
    flights_.emplace(flight_key, flight);
  }

  std::shared_ptr<const model::ActivationRecord> record =
      FetchOrRegister(m, template_id, record_kv, *flight, known_miss);

  {
    std::lock_guard<std::mutex> lock(mu_);
    InstallFront(template_id, record);
    flight->result = record;
    flight->done = true;
    flights_.erase(flight_key);
  }
  cv_.notify_all();
  return record;
}

void ShardedRemoteStore::Prefetch(const model::DiffusionModel& m,
                                  int template_id, bool record_kv) {
  if (options_.prefetch_workers <= 0) {
    return;
  }
  PrefetchJob job;
  job.flight_key = FlightKey(template_id, record_kv);
  job.template_id = template_id;
  job.steps = m.config().num_steps;
  job.blocks = m.config().num_blocks;
  job.want_kv = record_kv;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (prefetch_stop_) {
      return;
    }
    auto fit = front_.find(template_id);
    if (fit != front_.end() &&
        (!record_kv || fit->second.record->has_kv())) {
      ++stats_.prefetch_redundant;
      return;
    }
    auto sit = staged_.find(template_id);
    if (sit != staged_.end() &&
        (!record_kv || sit->second.record->has_kv())) {
      ++stats_.prefetch_redundant;
      return;
    }
    if (flights_.contains(job.flight_key)) {
      ++stats_.prefetch_redundant;
      return;
    }
    if (!AnyMemberReachable()) {
      // The whole ring just proved unreachable; speculative fetches would
      // only burn workers on timeouts.
      ++stats_.prefetch_suppressed;
      return;
    }
    if (prefetch_queue_.size() >= options_.prefetch_queue_cap) {
      ++stats_.prefetch_dropped;
      return;
    }
    job.flight = std::make_shared<Flight>();
    job.flight->prefetch = true;
    flights_.emplace(job.flight_key, job.flight);
    prefetch_queue_.push_back(job);
    ++stats_.prefetch_issued;
  }
  prefetch_cv_.notify_one();
}

void ShardedRemoteStore::PrefetchLoop() {
  for (;;) {
    PrefetchJob job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      prefetch_cv_.wait(lock, [&] {
        return prefetch_stop_ || !prefetch_queue_.empty();
      });
      if (prefetch_stop_) {
        return;
      }
      job = prefetch_queue_.front();
      prefetch_queue_.pop_front();
    }

    RingFetchResult fetched;
    if (AnyMemberReachable()) {
      fetched = RingFetch(job.template_id, job.steps, job.blocks,
                          job.want_kv, *job.flight);
    }
    // A prefetch cannot register locally (it has no model); a miss or a
    // fully dead ring resolves the flight empty and the foreground
    // registers (clean miss) or runs the ladder itself.

    std::shared_ptr<model::ActivationRecord> record =
        std::move(fetched.record);
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.failovers += static_cast<uint64_t>(fetched.failovers);
      stats_.read_repairs += static_cast<uint64_t>(fetched.repairs);
      if (record != nullptr) {
        ++stats_.prefetch_remote_hits;
        stats_.prefetch_bytes_fetched += fetched.bytes;
        stats_.prefetch_wire_bytes_fetched += fetched.wire_bytes;
        prefetch_us_.Add(fetched.fetch_us);
      } else if (fetched.reachable > 0) {
        ++stats_.prefetch_remote_misses;
      } else {
        ++stats_.prefetch_fallbacks;
      }
      Flight& flight = *job.flight;
      if (record != nullptr) {
        if (flight.joined) {
          InstallFront(job.template_id, record);
        } else {
          InstallStaged(job.template_id, record);
        }
      }
      flight.result = std::move(record);
      flight.clean_miss = flight.result == nullptr && fetched.reachable > 0;
      flight.done = true;
      flights_.erase(job.flight_key);
    }
    cv_.notify_all();
  }
}

std::vector<bool> ShardedRemoteStore::ProbeMembers(
    std::chrono::milliseconds timeout) {
  std::vector<bool> alive(members_.size(), false);
  for (size_t i = 0; i < members_.size(); ++i) {
    net::ClientPool::Lease lease = members_[i].pool->Checkout();
    alive[i] = lease->QueryMetrics(timeout).has_value();
    NoteTransport(i, alive[i]);
  }
  return alive;
}

ShardedStoreStats ShardedRemoteStore::Stats() const {
  ShardedStoreStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
    out.front_size = front_.size();
    out.prefetch_staged = staged_.size();
    if (!fetch_us_.empty()) {
      out.fetch_p50_us = fetch_us_.P50();
      out.fetch_p99_us = fetch_us_.P99();
      out.first_step_p50_us = first_step_us_.P50();
    }
    if (!prefetch_us_.empty()) {
      out.prefetch_p50_us = prefetch_us_.P50();
      out.prefetch_p99_us = prefetch_us_.P99();
    }
  }
  // Sample the circuit gauges outside mu_ (breaker_mu_ is never nested
  // with it).
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(breaker_mu_);
  for (size_t i = 0; i < out.members.size() && i < members_.size(); ++i) {
    out.members[i].circuit_open = now < members_[i].degraded_until;
  }
  return out;
}

std::string ShardedRemoteStore::MetricsJson() const {
  const ShardedStoreStats s = Stats();
  std::ostringstream os;
  os << "{\"kind\":\"sharded\""
     << ",\"nodes\":" << s.members.size()
     << ",\"replication\":" << replication_
     << ",\"front_hits\":" << s.front_hits
     << ",\"remote_hits\":" << s.remote_hits
     << ",\"remote_misses\":" << s.remote_misses
     << ",\"fallbacks\":" << s.fallbacks
     << ",\"singleflight_waits\":" << s.singleflight_waits
     << ",\"local_registrations\":" << s.local_registrations
     << ",\"puts_ok\":" << s.puts_ok
     << ",\"read_repairs\":" << s.read_repairs
     << ",\"failovers\":" << s.failovers
     << ",\"degrade_trips\":" << s.degrade_trips
     << ",\"remote_bytes_fetched\":" << s.remote_bytes_fetched
     << ",\"remote_bytes_put\":" << s.remote_bytes_put
     << ",\"remote_wire_bytes_fetched\":" << s.remote_wire_bytes_fetched
     << ",\"remote_wire_bytes_put\":" << s.remote_wire_bytes_put
     << ",\"precision\":\"" << quant::ToString(options_.precision) << "\""
     << ",\"front_size\":" << s.front_size
     << ",\"fetch_p50_us\":" << s.fetch_p50_us
     << ",\"fetch_p99_us\":" << s.fetch_p99_us
     << ",\"first_step_p50_us\":" << s.first_step_p50_us
     << ",\"prefetch_issued\":" << s.prefetch_issued
     << ",\"prefetch_coalesced\":" << s.prefetch_coalesced
     << ",\"prefetch_wasted\":" << s.prefetch_wasted
     << ",\"prefetch_redundant\":" << s.prefetch_redundant
     << ",\"prefetch_suppressed\":" << s.prefetch_suppressed
     << ",\"prefetch_dropped\":" << s.prefetch_dropped
     << ",\"prefetch_remote_hits\":" << s.prefetch_remote_hits
     << ",\"prefetch_remote_misses\":" << s.prefetch_remote_misses
     << ",\"prefetch_fallbacks\":" << s.prefetch_fallbacks
     << ",\"prefetch_bytes_fetched\":" << s.prefetch_bytes_fetched
     << ",\"prefetch_wire_bytes_fetched\":" << s.prefetch_wire_bytes_fetched
     << ",\"prefetch_staged\":" << s.prefetch_staged
     << ",\"prefetch_p50_us\":" << s.prefetch_p50_us
     << ",\"prefetch_p99_us\":" << s.prefetch_p99_us
     << ",\"members\":[";
  for (size_t i = 0; i < s.members.size(); ++i) {
    const RingMemberStats& m = s.members[i];
    if (i > 0) os << ",";
    os << "{\"id\":\"" << m.id << "\""
       << ",\"remote_hits\":" << m.remote_hits
       << ",\"remote_misses\":" << m.remote_misses
       << ",\"transport_failures\":" << m.transport_failures
       << ",\"circuit_trips\":" << m.circuit_trips
       << ",\"circuit_open\":" << (m.circuit_open ? "true" : "false")
       << ",\"puts_ok\":" << m.puts_ok
       << ",\"read_repairs\":" << m.read_repairs
       << ",\"bytes_fetched\":" << m.bytes_fetched
       << ",\"bytes_put\":" << m.bytes_put
       << ",\"wire_bytes_fetched\":" << m.wire_bytes_fetched
       << ",\"wire_bytes_put\":" << m.wire_bytes_put << "}";
  }
  os << "]}";
  return os.str();
}

}  // namespace flashps::cache
