// Shared cache-tier microbenchmark: the cache client (ShardedRemoteStore)
// against in-process flashps_cached nodes over loopback TCP. Every leg but
// the three-node ring talks to one node, as a one-member ring.
//
// Legs, mirroring a fleet's lifecycle (EXPERIMENTS.md §cache-rpc):
//
//   cold   — the first worker of a fleet: every template misses the node,
//            registers locally, and publishes the record back. Measures
//            the register+publish cost and bytes shipped per template.
//   warm   — a freshly started worker joining a warm fleet: every
//            template is resident on the node, so the whole record
//            arrives over the wire. Measures fetch p50/p99, when step 0
//            of each record became resident (first_step_p50_us), the
//            process CPU time and minor page faults per fetched record
//            (fetch_cpu_us, fetch_minflt: getrusage around the leg, node
//            and client together), and the speedup over local
//            registration.
//   sweep  — a Zipf-like template-reuse trace replayed through fronts of
//            increasing LRU capacity: hit rate climbs with capacity until
//            the working set fits and RPCs vanish. Each point reports the
//            foreground fetch p50/p99 alongside the wall clock.
//   prefetch — the same trace and capacities, with a queue-ahead window
//            hinting the next --queue-ahead templates to the async
//            prefetch pipeline while the foreground consumes the current
//            one (Algorithm 1's load/compute overlap on the network
//            tier). Reports the fraction of the prefetch-off gap to the
//            warm leg that pipelining recovers, and the foreground
//            remote-fetch stalls after warmup (near zero when the window
//            keeps ahead of consumption).
//   ring   — the same Zipf trace replayed against a three-node
//            consistent-hash ring (k=2): a single node (one-member ring)
//            vs cold ring vs warm ring vs ring with one member killed at
//            the trace midpoint. Every leg's per-acquire record checksums
//            must be bitwise-identical to a local ActivationStore replay
//            (and zero Acquires may fail) — the bench exits non-zero
//            otherwise.
//   precision — cold publish + warm fetch of every template at each
//            --cache-precision mode (lossless / fp16 / staged) against a
//            fresh node per mode. Reports wire vs decoded bytes, the
//            compression ratio, and warm fetch p50/p99. Two hard gates:
//            the lossless leg must be bitwise-identical to local
//            registration, and the staged leg must cut wire
//            bytes_fetched at least 2x vs lossless — the bench exits
//            non-zero if either fails.
//
// Client and node byte counters are reconciled at the end (bytes put ==
// bytes stored, bytes fetched == bytes served) and everything is written
// to BENCH_cache_rpc.json behind the host header.
//
//   bench_cache_rpc --templates=12 --steps=4 --trace-len=96
//                   --queue-ahead=8 --prefetch-workers=3
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/cache/ring/sharded_store.h"
#include "src/common/flag_parser.h"
#include "src/common/rng.h"
#include "src/model/diffusion_model.h"
#include "src/net/cache_node.h"
#include "src/net/tcp_server.h"
#include "src/net/wire.h"

using namespace flashps;

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One cache node: a one-member ring, so replication clamps to 1.
cache::ShardedStoreOptions StoreOptions(uint16_t port, size_t lru_capacity) {
  cache::ShardedStoreOptions options;
  options.nodes = {{"127.0.0.1", port}};
  options.lru_capacity = lru_capacity;
  options.connect_attempts = 2;
  return options;
}

// A skewed reuse trace: popular templates dominate, the tail recurs
// rarely — the regime where a small LRU front pays off.
std::vector<int> ZipfTrace(int length, int templates, Rng& rng) {
  const ZipfSampler sampler(templates, /*s=*/1.0);
  std::vector<int> trace;
  trace.reserve(length);
  for (int i = 0; i < length; ++i) {
    trace.push_back(sampler.Sample(rng));
  }
  return trace;
}

// Checksum over every matrix in a record, so "bitwise-identical" is one
// comparable number per acquire. A record still streaming is waited for.
uint64_t RecordChecksum(const model::ActivationRecord& record) {
  if (!record.AwaitWhole()) {
    return 0;
  }
  std::vector<uint64_t> sums;
  for (const auto& step : record.steps) {
    for (const auto& m : step.y) sums.push_back(net::LatentChecksum(m));
    for (const auto& m : step.k) sums.push_back(net::LatentChecksum(m));
    for (const auto& m : step.v) sums.push_back(net::LatentChecksum(m));
  }
  return net::Fnv1a64(sums.data(), sums.size() * sizeof(uint64_t));
}

}  // namespace

int main(int argc, char** argv) {
  flags::FlagParser flags(argc, argv);
  const int templates =
      static_cast<int>(flags.LongInRange("templates", 12, 1, 1 << 20));
  const int steps = static_cast<int>(flags.LongInRange("steps", 4, 1, 1024));
  const int trace_len =
      static_cast<int>(flags.LongInRange("trace-len", 96, 1, 1 << 24));
  const uint64_t seed = static_cast<uint64_t>(flags.Long("seed", 7));
  const int queue_ahead =
      static_cast<int>(flags.LongInRange("queue-ahead", 8, 0, 1 << 16));
  const int prefetch_workers =
      static_cast<int>(flags.LongInRange("prefetch-workers", 3, 0, 64));
  if (!flags.ok()) {
    std::fprintf(stderr, "%s", flags.ErrorText().c_str());
    return 2;
  }

  bench::PrintHeader(
      "bench_cache_rpc — shared cache tier over the wire protocol",
      "templates are reused ~35k times fleet-wide (§3), so one cache node "
      "amortizes activation registration across every worker");

  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = steps;
  model::DiffusionModel model(numerics);

  net::CacheNode node;
  net::TcpServer server(node.Service());
  if (!server.Start()) {
    std::fprintf(stderr, "cannot start loopback cache node\n");
    return 1;
  }
  const uint16_t port = server.port();
  std::printf("cache node on 127.0.0.1:%u, %d templates, %d steps\n\n", port,
              templates, steps);

  // --- cold leg: first worker populates the node -------------------------
  auto cold = std::make_unique<cache::ShardedRemoteStore>(
      StoreOptions(port, /*lru_capacity=*/0));
  const auto cold_start = Clock::now();
  for (int t = 0; t < templates; ++t) {
    cold->Acquire(model, t, /*record_kv=*/false);
  }
  const double cold_ms = MsSince(cold_start);
  const cache::ShardedStoreStats cold_stats = cold->Stats();

  // --- warm leg: a fresh worker fetches everything remotely --------------
  auto warm = std::make_unique<cache::ShardedRemoteStore>(
      StoreOptions(port, /*lru_capacity=*/0));
  rusage usage_before{};
  getrusage(RUSAGE_SELF, &usage_before);
  const auto warm_start = Clock::now();
  for (int t = 0; t < templates; ++t) {
    warm->Acquire(model, t, /*record_kv=*/false);
  }
  const double warm_ms = MsSince(warm_start);
  rusage usage_after{};
  getrusage(RUSAGE_SELF, &usage_after);
  const cache::ShardedStoreStats warm_stats = warm->Stats();
  const auto cpu_us = [](const rusage& u) {
    return 1e6 * static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
  };
  const double fetch_cpu_us =
      (cpu_us(usage_after) - cpu_us(usage_before)) / templates;
  const double fetch_minflt =
      static_cast<double>(usage_after.ru_minflt - usage_before.ru_minflt) /
      templates;

  // Local baseline: registration cost with no cache tier at all.
  cache::ActivationStore local;
  const auto local_start = Clock::now();
  for (int t = 0; t < templates; ++t) {
    local.Acquire(model, t + templates, /*record_kv=*/false);
  }
  const double local_ms = MsSince(local_start);

  bench::PrintRow({"leg", "wall ms", "per-tmpl ms", "hit rate"}, 16);
  bench::PrintRow({"cold (register+put)", bench::Fmt(cold_ms, 1),
                   bench::Fmt(cold_ms / templates, 2), "0.00"},
                  16);
  bench::PrintRow({"warm (remote fetch)", bench::Fmt(warm_ms, 1),
                   bench::Fmt(warm_ms / templates, 2), "1.00"},
                  16);
  bench::PrintRow({"local (no tier)", bench::Fmt(local_ms, 1),
                   bench::Fmt(local_ms / templates, 2), "-"},
                  16);
  std::printf("\nwarm fetch p50 %.0f us (step 0 resident at %.0f us), "
              "p99 %.0f us, %llu bytes/record, %.0f us CPU and %.0f minor "
              "faults per record\n",
              warm_stats.fetch_p50_us, warm_stats.first_step_p50_us,
              warm_stats.fetch_p99_us,
              static_cast<unsigned long long>(warm_stats.remote_bytes_fetched /
                                             templates),
              fetch_cpu_us, fetch_minflt);

  // --- hit-rate sweep over the LRU front capacity ------------------------
  Rng rng(seed);
  const std::vector<int> trace = ZipfTrace(trace_len, templates, rng);
  struct SweepPoint {
    size_t capacity;
    uint64_t front_hits;
    uint64_t remote_hits;
    double hit_rate;
    double wall_ms;
    double fetch_p50_us;
    double fetch_p99_us;
  };
  std::vector<SweepPoint> sweep;
  std::printf("\nfront LRU sweep, %d-acquire Zipf trace over %d templates:\n",
              trace_len, templates);
  bench::PrintRow({"capacity", "front hits", "remote", "hit rate", "wall ms",
                   "p50 us", "p99 us"},
                  12);
  for (size_t capacity : {1ul, 2ul, 4ul, 8ul, 16ul}) {
    auto store = std::make_unique<cache::ShardedRemoteStore>(
        StoreOptions(port, capacity));
    const auto start = Clock::now();
    for (int t : trace) {
      store->Acquire(model, t, /*record_kv=*/false);
    }
    SweepPoint point;
    point.capacity = capacity;
    point.wall_ms = MsSince(start);
    const cache::ShardedStoreStats stats = store->Stats();
    point.front_hits = stats.front_hits;
    point.remote_hits = stats.remote_hits;
    point.hit_rate = static_cast<double>(stats.front_hits) / trace.size();
    point.fetch_p50_us = stats.fetch_p50_us;
    point.fetch_p99_us = stats.fetch_p99_us;
    sweep.push_back(point);
    bench::PrintRow({std::to_string(capacity),
                     std::to_string(point.front_hits),
                     std::to_string(point.remote_hits),
                     bench::Fmt(point.hit_rate, 2),
                     bench::Fmt(point.wall_ms, 1),
                     bench::Fmt(point.fetch_p50_us, 0),
                     bench::Fmt(point.fetch_p99_us, 0)},
                    12);
  }

  // --- prefetch leg: same trace, queue-ahead pipeline on -----------------
  //
  // The driver hints trace[i+1 .. i+W] before consuming trace[i], the way
  // a worker hints each request it queues ahead of admission; the background
  // workers overlap those whole-record fetches with the foreground's
  // consumption. Foreground stalls (ladder trips: remote fetches and
  // fallbacks) after the warmup quarter gauge the steady state — a
  // working pipeline keeps them near zero.
  struct PrefetchPoint {
    size_t capacity;
    double wall_ms;
    uint64_t front_hits;
    uint64_t prefetch_issued;
    uint64_t prefetch_coalesced;
    uint64_t prefetch_wasted;
    uint64_t foreground_stalls;  // remote_hits + remote_misses + fallbacks
    uint64_t steady_stalls;      // ... after the first quarter of the trace
    double gap_closed;           // Of (off_wall - warm_ms), 1.0 = all of it.
    double prefetch_p50_us;
    double prefetch_p99_us;
  };
  std::vector<PrefetchPoint> prefetch_sweep;
  std::printf("\nprefetch pipeline, same trace, window %d, %d workers:\n",
              queue_ahead, prefetch_workers);
  bench::PrintRow({"capacity", "wall ms", "gap closed", "issued", "coalesced",
                   "stalls", "steady"},
                  12);
  const auto stalls_of = [](const cache::ShardedStoreStats& s) {
    return s.remote_hits + s.remote_misses + s.fallbacks;
  };
  for (size_t i = 0; i < sweep.size(); ++i) {
    const size_t capacity = sweep[i].capacity;
    cache::ShardedStoreOptions options = StoreOptions(port, capacity);
    options.prefetch_workers = prefetch_workers;
    options.connections_per_member = prefetch_workers + 1;
    options.prefetch_queue_cap = static_cast<size_t>(queue_ahead) * 2;
    auto store = std::make_unique<cache::ShardedRemoteStore>(options);
    const int warmup = trace_len / 4;
    uint64_t stalls_at_warmup = 0;
    const auto start = Clock::now();
    for (int j = 0; j < trace_len; ++j) {
      // Re-hint the whole lookahead window every step (a worker hints
      // every submitted request the same way): issue-time dedup makes the
      // repeats free, and a record an undersized front evicted after its
      // first hint gets re-fetched before its request arrives instead of
      // stalling the foreground.
      const int limit = j + 1 + queue_ahead < trace_len
                            ? j + 1 + queue_ahead
                            : trace_len;
      for (int k = j + 1; k < limit; ++k) {
        store->Prefetch(model, trace[static_cast<size_t>(k)], false);
      }
      store->Acquire(model, trace[static_cast<size_t>(j)], false);
      if (j + 1 == warmup) {
        stalls_at_warmup = stalls_of(store->Stats());
      }
    }
    PrefetchPoint point;
    point.capacity = capacity;
    point.wall_ms = MsSince(start);
    const cache::ShardedStoreStats stats = store->Stats();
    point.front_hits = stats.front_hits;
    point.prefetch_issued = stats.prefetch_issued;
    point.prefetch_coalesced = stats.prefetch_coalesced;
    point.prefetch_wasted = stats.prefetch_wasted;
    point.foreground_stalls = stalls_of(stats);
    point.steady_stalls = point.foreground_stalls - stalls_at_warmup;
    const double gap = sweep[i].wall_ms - warm_ms;
    point.gap_closed =
        gap > 0.0 ? (sweep[i].wall_ms - point.wall_ms) / gap : 1.0;
    point.prefetch_p50_us = stats.prefetch_p50_us;
    point.prefetch_p99_us = stats.prefetch_p99_us;
    prefetch_sweep.push_back(point);
    bench::PrintRow({std::to_string(capacity), bench::Fmt(point.wall_ms, 1),
                     bench::Fmt(point.gap_closed, 2),
                     std::to_string(point.prefetch_issued),
                     std::to_string(point.prefetch_coalesced),
                     std::to_string(point.foreground_stalls),
                     std::to_string(point.steady_stalls)},
                    12);
  }

  // --- ring legs: the same trace over a three-node consistent-hash ring --
  //
  // Five replays of one Zipf trace, all required to produce bitwise-
  // identical per-acquire record checksums: a local ActivationStore (the
  // reference), a single cache node (a one-member ring), a cold and a warm
  // three-node ring (k=2), and a three-node ring that loses a member at
  // the trace midpoint. The degraded leg is the acceptance check: zero
  // failed Acquires, zero output drift, while the per-member counters show
  // the dead node's ranges shifting to its successors.
  constexpr int kRingNodes = 3;
  constexpr int kReplication = 2;
  // Fresh nodes and a fresh template range so the earlier legs' residency
  // doesn't leak in.
  const int ring_base = 2 * templates + 1000;
  Rng ring_rng(seed + 1);
  std::vector<int> ring_trace = ZipfTrace(trace_len, templates, ring_rng);
  for (int& t : ring_trace) {
    t += ring_base;
  }

  std::vector<std::unique_ptr<net::CacheNode>> ring_nodes;
  std::vector<std::unique_ptr<net::TcpServer>> ring_servers;
  for (int i = 0; i < kRingNodes; ++i) {
    ring_nodes.push_back(std::make_unique<net::CacheNode>());
    ring_servers.push_back(
        std::make_unique<net::TcpServer>(ring_nodes.back()->Service()));
    if (!ring_servers.back()->Start()) {
      std::fprintf(stderr, "cannot start ring node %d\n", i);
      return 1;
    }
  }
  auto ring_options = [&](int prefetch) {
    cache::ShardedStoreOptions options;
    for (const auto& ring_server : ring_servers) {
      options.nodes.push_back({"127.0.0.1", ring_server->port()});
    }
    options.replication = kReplication;
    options.lru_capacity = 0;  // Every reuse goes back to the wire.
    options.connect_attempts = 2;
    options.prefetch_workers = prefetch;
    return options;
  };

  // One replay = checksums + null count; `at_midpoint` runs after half the
  // trace (the degraded leg stops a server there).
  struct ReplayResult {
    std::vector<uint64_t> checksums;
    int nulls = 0;
    double wall_ms = 0.0;
  };
  auto replay = [&](cache::ActivationSource& source,
                    const std::function<void()>& at_midpoint) {
    ReplayResult result;
    result.checksums.reserve(ring_trace.size());
    const auto start = Clock::now();
    for (size_t i = 0; i < ring_trace.size(); ++i) {
      if (at_midpoint && i == ring_trace.size() / 2) {
        at_midpoint();
      }
      auto record = source.Acquire(model, ring_trace[i], false);
      if (record == nullptr) {
        ++result.nulls;
        result.checksums.push_back(0);
        continue;
      }
      result.checksums.push_back(RecordChecksum(*record));
    }
    result.wall_ms = MsSince(start);
    return result;
  };

  cache::ActivationStore ring_reference_store;
  const ReplayResult reference = replay(ring_reference_store, nullptr);

  net::CacheNode single_node;
  net::TcpServer single_server(single_node.Service());
  if (!single_server.Start()) {
    std::fprintf(stderr, "cannot start single-node server\n");
    return 1;
  }
  cache::ShardedRemoteStore single_store(
      StoreOptions(single_server.port(), /*lru_capacity=*/0));
  const ReplayResult single = replay(single_store, nullptr);

  cache::ShardedRemoteStore cold_ring(ring_options(0));
  const ReplayResult ring_cold = replay(cold_ring, nullptr);

  cache::ShardedRemoteStore warm_ring(ring_options(0));
  const ReplayResult ring_warm = replay(warm_ring, nullptr);
  const cache::ShardedStoreStats warm_ring_stats = warm_ring.Stats();

  // Degraded: a fresh store re-fetches everything off the ring; one member
  // dies mid-trace.
  cache::ShardedRemoteStore degraded_ring(ring_options(0));
  int killed_member = -1;
  const ReplayResult ring_degraded = replay(degraded_ring, [&] {
    // Kill the member that served the most so far — the worst case for
    // the Zipf head.
    const cache::ShardedStoreStats stats = degraded_ring.Stats();
    size_t busiest = 0;
    for (size_t i = 1; i < stats.members.size(); ++i) {
      if (stats.members[i].remote_hits >
          stats.members[busiest].remote_hits) {
        busiest = i;
      }
    }
    const uint16_t victim_port = degraded_ring.ring().member(busiest).port;
    for (size_t i = 0; i < ring_servers.size(); ++i) {
      if (ring_servers[i]->port() == victim_port) {
        ring_servers[i]->Stop();
        killed_member = static_cast<int>(busiest);
        break;
      }
    }
  });
  const cache::ShardedStoreStats degraded_stats = degraded_ring.Stats();

  auto identical = [&](const ReplayResult& leg) {
    return leg.nulls == 0 && leg.checksums == reference.checksums;
  };
  const bool single_ok = identical(single);
  const bool cold_ok = identical(ring_cold);
  const bool warm_ok = identical(ring_warm);
  const bool degraded_ok = identical(ring_degraded);
  const bool ring_bitwise =
      single_ok && cold_ok && warm_ok && degraded_ok;

  std::printf("\nring legs, %d-acquire Zipf trace, %d nodes, k=%d:\n",
              trace_len, kRingNodes, kReplication);
  bench::PrintRow({"leg", "wall ms", "hits", "misses", "fallbacks",
                   "bitwise"},
                  14);
  const auto ring_row = [&](const char* name, const ReplayResult& leg,
                            uint64_t hits, uint64_t misses,
                            uint64_t fallbacks, bool ok) {
    bench::PrintRow({name, bench::Fmt(leg.wall_ms, 1), std::to_string(hits),
                     std::to_string(misses), std::to_string(fallbacks),
                     ok ? "yes" : "NO"},
                    14);
  };
  ring_row("local ref", reference, 0, 0, 0, true);
  {
    const cache::ShardedStoreStats s = single_store.Stats();
    ring_row("single node", single, s.remote_hits, s.remote_misses,
             s.fallbacks, single_ok);
  }
  {
    const cache::ShardedStoreStats s = cold_ring.Stats();
    ring_row("ring cold", ring_cold, s.remote_hits, s.remote_misses,
             s.fallbacks, cold_ok);
  }
  ring_row("ring warm", ring_warm, warm_ring_stats.remote_hits,
           warm_ring_stats.remote_misses, warm_ring_stats.fallbacks, warm_ok);
  ring_row("ring -1 node", ring_degraded, degraded_stats.remote_hits,
           degraded_stats.remote_misses, degraded_stats.fallbacks,
           degraded_ok);

  std::printf("\nper-member counters, degraded leg (killed member %d at "
              "acquire %d):\n",
              killed_member, trace_len / 2);
  bench::PrintRow({"member", "hits", "misses", "xport fail", "trips", "puts",
                   "repairs"},
                  17);
  for (const cache::RingMemberStats& m : degraded_stats.members) {
    bench::PrintRow({m.id, std::to_string(m.remote_hits),
                     std::to_string(m.remote_misses),
                     std::to_string(m.transport_failures),
                     std::to_string(m.circuit_trips),
                     std::to_string(m.puts_ok),
                     std::to_string(m.read_repairs)},
                    17);
  }
  std::printf("degraded: failovers %llu, read repairs %llu, fallbacks %llu, "
              "failed acquires %d\n",
              static_cast<unsigned long long>(degraded_stats.failovers),
              static_cast<unsigned long long>(degraded_stats.read_repairs),
              static_cast<unsigned long long>(degraded_stats.fallbacks),
              ring_degraded.nulls);

  // --- precision legs: the codec modes against fresh nodes ---------------
  //
  // Cold publish + warm whole-fleet fetch per mode. The decoded byte
  // count is identical across modes by construction (same records); the
  // wire bytes are what the codec actually moved.
  struct PrecisionLeg {
    std::string mode;
    double cold_ms = 0.0;
    double warm_ms = 0.0;
    uint64_t bytes_put = 0;
    uint64_t wire_bytes_put = 0;
    uint64_t bytes_fetched = 0;
    uint64_t wire_bytes_fetched = 0;
    double fetch_p50_us = 0.0;
    double fetch_p99_us = 0.0;
    double compression = 1.0;  // decoded / wire, put path.
    bool bitwise = false;      // Warm records == local registration.
  };
  const int prec_base = 4 * templates + 10000;
  std::vector<uint64_t> prec_reference;
  prec_reference.reserve(static_cast<size_t>(templates));
  for (int t = 0; t < templates; ++t) {
    prec_reference.push_back(
        RecordChecksum(model.Register(prec_base + t, false)));
  }
  std::vector<PrecisionLeg> precision_legs;
  for (const quant::PrecisionMode mode :
       {quant::PrecisionMode::kLossless, quant::PrecisionMode::kF16,
        quant::PrecisionMode::kStaged}) {
    net::CacheNode prec_node;
    net::TcpServer prec_server(prec_node.Service());
    if (!prec_server.Start()) {
      std::fprintf(stderr, "cannot start precision-leg cache node\n");
      return 1;
    }
    cache::ShardedStoreOptions options =
        StoreOptions(prec_server.port(), /*lru_capacity=*/0);
    options.precision = mode;

    PrecisionLeg leg;
    leg.mode = quant::ToString(mode);
    cache::ShardedRemoteStore prec_cold(options);
    const auto prec_cold_start = Clock::now();
    for (int t = 0; t < templates; ++t) {
      prec_cold.Acquire(model, prec_base + t, /*record_kv=*/false);
    }
    leg.cold_ms = MsSince(prec_cold_start);
    const cache::ShardedStoreStats cold_s = prec_cold.Stats();
    leg.bytes_put = cold_s.remote_bytes_put;
    leg.wire_bytes_put = cold_s.remote_wire_bytes_put;

    cache::ShardedRemoteStore prec_warm(options);
    bool bitwise = true;
    const auto prec_warm_start = Clock::now();
    for (int t = 0; t < templates; ++t) {
      auto record = prec_warm.Acquire(model, prec_base + t, false);
      bitwise = bitwise && record != nullptr &&
                RecordChecksum(*record) ==
                    prec_reference[static_cast<size_t>(t)];
    }
    leg.warm_ms = MsSince(prec_warm_start);
    const cache::ShardedStoreStats warm_s = prec_warm.Stats();
    leg.bytes_fetched = warm_s.remote_bytes_fetched;
    leg.wire_bytes_fetched = warm_s.remote_wire_bytes_fetched;
    leg.fetch_p50_us = warm_s.fetch_p50_us;
    leg.fetch_p99_us = warm_s.fetch_p99_us;
    leg.compression = leg.wire_bytes_put > 0
                          ? static_cast<double>(leg.bytes_put) /
                                static_cast<double>(leg.wire_bytes_put)
                          : 1.0;
    leg.bitwise = bitwise && warm_s.remote_hits ==
                                 static_cast<uint64_t>(templates);
    precision_legs.push_back(leg);
    prec_server.Stop();
  }

  std::printf("\nprecision legs, %d templates, fresh node per mode:\n",
              templates);
  bench::PrintRow({"mode", "cold ms", "warm ms", "wire put KB",
                   "wire fetch KB", "ratio", "p50 us", "p99 us", "bitwise"},
                  14);
  for (const PrecisionLeg& leg : precision_legs) {
    bench::PrintRow(
        {leg.mode, bench::Fmt(leg.cold_ms, 1), bench::Fmt(leg.warm_ms, 1),
         std::to_string(leg.wire_bytes_put / 1024),
         std::to_string(leg.wire_bytes_fetched / 1024),
         bench::Fmt(leg.compression, 2), bench::Fmt(leg.fetch_p50_us, 0),
         bench::Fmt(leg.fetch_p99_us, 0), leg.bitwise ? "yes" : "no"},
        14);
  }
  // The two hard gates: lossless must not drift, staged must halve the
  // warm wire traffic.
  const bool lossless_bitwise = precision_legs[0].bitwise;
  const bool staged_cut_ok = precision_legs[2].wire_bytes_fetched * 2 <=
                             precision_legs[0].wire_bytes_fetched;
  if (!lossless_bitwise) {
    std::fprintf(stderr, "lossless precision leg drifted from local "
                         "registration\n");
  }
  if (!staged_cut_ok) {
    std::fprintf(stderr, "staged precision leg moved more than half the "
                         "lossless wire bytes\n");
  }

  // --- reconcile client-side byte counters with the node's ---------------
  const net::CacheNodeStats node_stats = node.Stats();
  const bool put_ok =
      node_stats.bytes_stored == cold_stats.remote_bytes_put;
  std::printf("\nreconcile: node stored %llu bytes vs client put %llu (%s), "
              "node served %llu bytes across all legs\n",
              static_cast<unsigned long long>(node_stats.bytes_stored),
              static_cast<unsigned long long>(cold_stats.remote_bytes_put),
              put_ok ? "ok" : "MISMATCH",
              static_cast<unsigned long long>(node_stats.bytes_served));

  std::ostringstream json;
  json << "{\n" << bench::HostHeaderJson();
  json << "  \"templates\":" << templates << ",\"steps\":" << steps
       << ",\"trace_len\":" << trace_len
       << ",\"cold\":{\"wall_ms\":" << cold_ms
       << ",\"remote_misses\":" << cold_stats.remote_misses
       << ",\"puts_ok\":" << cold_stats.puts_ok
       << ",\"bytes_put\":" << cold_stats.remote_bytes_put
       << "},\"warm\":{\"wall_ms\":" << warm_ms
       << ",\"remote_hits\":" << warm_stats.remote_hits
       << ",\"bytes_fetched\":" << warm_stats.remote_bytes_fetched
       << ",\"fetch_p50_us\":" << warm_stats.fetch_p50_us
       << ",\"first_step_p50_us\":" << warm_stats.first_step_p50_us
       << ",\"fetch_p99_us\":" << warm_stats.fetch_p99_us
       << ",\"fetch_cpu_us\":" << fetch_cpu_us
       << ",\"fetch_minflt\":" << fetch_minflt
       << "},\"local_baseline_ms\":" << local_ms << ",\"sweep\":[";
  for (size_t i = 0; i < sweep.size(); ++i) {
    if (i > 0) json << ",";
    json << "{\"capacity\":" << sweep[i].capacity
         << ",\"front_hits\":" << sweep[i].front_hits
         << ",\"remote_hits\":" << sweep[i].remote_hits
         << ",\"hit_rate\":" << sweep[i].hit_rate
         << ",\"wall_ms\":" << sweep[i].wall_ms
         << ",\"fetch_p50_us\":" << sweep[i].fetch_p50_us
         << ",\"fetch_p99_us\":" << sweep[i].fetch_p99_us << "}";
  }
  json << "],\"queue_ahead\":" << queue_ahead
       << ",\"prefetch_workers\":" << prefetch_workers
       << ",\"sweep_prefetch\":[";
  for (size_t i = 0; i < prefetch_sweep.size(); ++i) {
    const PrefetchPoint& p = prefetch_sweep[i];
    if (i > 0) json << ",";
    json << "{\"capacity\":" << p.capacity << ",\"wall_ms\":" << p.wall_ms
         << ",\"gap_closed\":" << p.gap_closed
         << ",\"front_hits\":" << p.front_hits
         << ",\"prefetch_issued\":" << p.prefetch_issued
         << ",\"prefetch_coalesced\":" << p.prefetch_coalesced
         << ",\"prefetch_wasted\":" << p.prefetch_wasted
         << ",\"foreground_stalls\":" << p.foreground_stalls
         << ",\"steady_stalls\":" << p.steady_stalls
         << ",\"prefetch_p50_us\":" << p.prefetch_p50_us
         << ",\"prefetch_p99_us\":" << p.prefetch_p99_us << "}";
  }
  json << "],\"ring\":{\"nodes\":" << kRingNodes
       << ",\"replication\":" << kReplication
       << ",\"killed_member\":" << killed_member
       << ",\"local_wall_ms\":" << reference.wall_ms
       << ",\"single_wall_ms\":" << single.wall_ms
       << ",\"cold_wall_ms\":" << ring_cold.wall_ms
       << ",\"warm_wall_ms\":" << ring_warm.wall_ms
       << ",\"degraded_wall_ms\":" << ring_degraded.wall_ms
       << ",\"degraded_failed_acquires\":" << ring_degraded.nulls
       << ",\"bitwise_identical\":" << (ring_bitwise ? "true" : "false")
       << ",\"warm\":" << warm_ring.MetricsJson()
       << ",\"degraded\":" << degraded_ring.MetricsJson() << "}";
  json << ",\"precision\":[";
  for (size_t i = 0; i < precision_legs.size(); ++i) {
    const PrecisionLeg& leg = precision_legs[i];
    if (i > 0) json << ",";
    json << "{\"mode\":\"" << leg.mode << "\""
         << ",\"cold_wall_ms\":" << leg.cold_ms
         << ",\"warm_wall_ms\":" << leg.warm_ms
         << ",\"bytes_put\":" << leg.bytes_put
         << ",\"wire_bytes_put\":" << leg.wire_bytes_put
         << ",\"bytes_fetched\":" << leg.bytes_fetched
         << ",\"wire_bytes_fetched\":" << leg.wire_bytes_fetched
         << ",\"compression_ratio\":" << leg.compression
         << ",\"fetch_p50_us\":" << leg.fetch_p50_us
         << ",\"fetch_p99_us\":" << leg.fetch_p99_us
         << ",\"bitwise_identical\":" << (leg.bitwise ? "true" : "false")
         << "}";
  }
  json << "],\"staged_wire_cut_ok\":" << (staged_cut_ok ? "true" : "false");
  json << ",\"node\":" << node.MetricsJson()
       << ",\"reconciled\":" << (put_ok ? "true" : "false") << "}";
  std::ofstream out("BENCH_cache_rpc.json");
  out << json.str() << "\n";
  std::printf("wrote BENCH_cache_rpc.json\n");
  if (!ring_bitwise) {
    std::fprintf(stderr,
                 "ring legs diverged from the local reference "
                 "(single %s, cold %s, warm %s, degraded %s)\n",
                 single_ok ? "ok" : "MISMATCH",
                 cold_ok ? "ok" : "MISMATCH", warm_ok ? "ok" : "MISMATCH",
                 degraded_ok ? "ok" : "MISMATCH");
  }

  single_server.Stop();
  for (auto& ring_server : ring_servers) {
    ring_server->Stop();
  }
  server.Stop();
  return put_ok && ring_bitwise && lossless_bitwise && staged_cut_ok ? 0 : 2;
}
