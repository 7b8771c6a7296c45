// Cache-ring units: consistent-hash placement (determinism, spread,
// minimal movement on membership change), and the ShardedRemoteStore
// ladder over three loopback cache nodes — k-way replication, read
// repair, per-member circuit breakers, failover down the preference
// list, and the node-by-node "Acquire never fails" invariant; and streamed
// records over two members: a flight that heard only misses costs one
// ring walk, and a stream cut mid-record finishes from the replica or by
// local registration with the whole-record bits.
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/cache/ring/cache_ring.h"
#include "src/cache/ring/sharded_store.h"
#include "src/net/cache_node.h"
#include "src/net/client.h"
#include "src/net/tcp_server.h"
#include "src/runtime/online_server.h"

namespace flashps::net {
namespace {

// Pulls `"key":<integer>` out of a flat metrics JSON string.
uint64_t JsonCounter(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return ~0ull;
  }
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

bool MatricesEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         LatentChecksum(a) == LatentChecksum(b);
}

// A record still streaming is compared once it is whole.
bool RecordsEqual(const model::ActivationRecord& a,
                  const model::ActivationRecord& b) {
  if (!a.AwaitWhole() || !b.AwaitWhole()) return false;
  if (a.steps.size() != b.steps.size()) return false;
  for (size_t s = 0; s < a.steps.size(); ++s) {
    const auto& as = a.steps[s];
    const auto& bs = b.steps[s];
    if (as.y.size() != bs.y.size() || as.k.size() != bs.k.size() ||
        as.v.size() != bs.v.size()) {
      return false;
    }
    for (size_t i = 0; i < as.y.size(); ++i) {
      if (!MatricesEqual(as.y[i], bs.y[i])) return false;
    }
    for (size_t i = 0; i < as.k.size(); ++i) {
      if (!MatricesEqual(as.k[i], bs.k[i])) return false;
    }
    for (size_t i = 0; i < as.v.size(); ++i) {
      if (!MatricesEqual(as.v[i], bs.v[i])) return false;
    }
  }
  return true;
}

std::vector<cache::RingMember> ThreeMembers() {
  return {{"10.0.0.1", 7412}, {"10.0.0.2", 7412}, {"10.0.0.3", 7412}};
}

// --- placement ------------------------------------------------------------

TEST(CacheRingTest, PlacementIsDeterministicAcrossInstancesAndListingOrder) {
  cache::CacheRingOptions a_options;
  a_options.members = ThreeMembers();
  cache::CacheRingOptions b_options;
  // Same membership SET, different listing order: placement must agree —
  // this is what lets every worker process compute replica locations
  // without coordination.
  b_options.members = {a_options.members[2], a_options.members[0],
                       a_options.members[1]};
  const cache::CacheRing a(a_options);
  const cache::CacheRing b(b_options);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(b.size(), 3u);
  for (int t = 0; t < 200; ++t) {
    const std::vector<int> pa = a.PreferenceList(t);
    const std::vector<int> pb = b.PreferenceList(t);
    ASSERT_EQ(pa.size(), 3u);
    ASSERT_EQ(pb.size(), 3u);
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(a.member(static_cast<size_t>(pa[i])).id(),
                b.member(static_cast<size_t>(pb[i])).id())
          << "template " << t << " position " << i;
    }
  }
}

TEST(CacheRingTest, RemovingAMemberOnlyShiftsItsRangesToSuccessors) {
  cache::CacheRingOptions full_options;
  full_options.members = ThreeMembers();
  const cache::CacheRing full(full_options);

  // Drop the middle member (by id) and compare: the smaller ring's
  // preference list must equal the full ring's list with the removed
  // member filtered out — nobody else's placement moves.
  const std::string removed = full.member(1).id();
  cache::CacheRingOptions small_options;
  for (const cache::RingMember& m : full.members()) {
    if (m.id() != removed) {
      small_options.members.push_back(m);
    }
  }
  const cache::CacheRing small(small_options);
  ASSERT_EQ(small.size(), 2u);

  for (int t = 0; t < 200; ++t) {
    std::vector<std::string> filtered;
    for (int idx : full.PreferenceList(t)) {
      const std::string id = full.member(static_cast<size_t>(idx)).id();
      if (id != removed) {
        filtered.push_back(id);
      }
    }
    std::vector<std::string> shrunk;
    for (int idx : small.PreferenceList(t)) {
      shrunk.push_back(small.member(static_cast<size_t>(idx)).id());
    }
    EXPECT_EQ(filtered, shrunk) << "template " << t;
  }
}

TEST(CacheRingTest, PlacementSpreadsPrimariesAcrossMembers) {
  cache::CacheRingOptions options;
  options.members = ThreeMembers();
  const cache::CacheRing ring(options);
  std::vector<int> primaries(ring.size(), 0);
  constexpr int kTemplates = 600;
  for (int t = 0; t < kTemplates; ++t) {
    ++primaries[static_cast<size_t>(ring.PrimaryFor(t))];
  }
  for (size_t m = 0; m < ring.size(); ++m) {
    // Every member owns a real share of the keyspace (vnodes smooth the
    // arcs); a member owning < 10% would mean the hot head concentrates.
    EXPECT_GT(primaries[m], kTemplates / 10) << ring.member(m).id();
  }
}

TEST(CacheRingTest, ParseRingMembersAcceptsListAndRejectsMalformed) {
  std::string error;
  const std::vector<cache::RingMember> ok =
      cache::ParseRingMembers("127.0.0.1:7412,example.org:7413,7414", &error);
  ASSERT_EQ(ok.size(), 3u) << error;
  EXPECT_EQ(ok[0].id(), "127.0.0.1:7412");
  EXPECT_EQ(ok[1].id(), "example.org:7413");
  EXPECT_EQ(ok[2].id(), "127.0.0.1:7414");  // Bare port = loopback.

  EXPECT_TRUE(cache::ParseRingMembers("", &error).empty());
  EXPECT_TRUE(cache::ParseRingMembers("host:notaport", &error).empty());
  EXPECT_NE(error.find("bad port"), std::string::npos);
  EXPECT_TRUE(cache::ParseRingMembers("host:1,,host:2", &error).empty());
  EXPECT_TRUE(cache::ParseRingMembers(":7412", &error).empty());
  EXPECT_TRUE(cache::ParseRingMembers("host:70000", &error).empty());
}

// --- sharded store over three loopback nodes ------------------------------

class CacheRingStoreTest : public ::testing::Test {
 protected:
  static constexpr int kNodes = 3;

  void SetUp() override {
    for (int i = 0; i < kNodes; ++i) {
      nodes_[i] = std::make_unique<CacheNode>();
      servers_[i] = std::make_unique<TcpServer>(nodes_[i]->Service());
      ASSERT_TRUE(servers_[i]->Start());
    }
    numerics_ = model::NumericsConfig::ForTests();
    numerics_.num_steps = 2;
    model_ = std::make_unique<model::DiffusionModel>(numerics_);
  }

  void TearDown() override {
    for (auto& server : servers_) {
      if (server != nullptr) {
        server->Stop();
      }
    }
  }

  cache::ShardedStoreOptions StoreOptions(int replication = 2) {
    cache::ShardedStoreOptions options;
    for (int i = 0; i < kNodes; ++i) {
      options.nodes.push_back({"127.0.0.1", servers_[i]->port()});
    }
    options.replication = replication;
    options.connect_attempts = 1;
    options.connect_backoff = std::chrono::milliseconds(1);
    return options;
  }

  // The ring sorts members by id; map a ring member index back to the
  // fixture's node/server slot via the port embedded in the id.
  int SlotOf(const cache::CacheRing& ring, int member_index) {
    const uint16_t port = ring.member(static_cast<size_t>(member_index)).port;
    for (int i = 0; i < kNodes; ++i) {
      if (servers_[i] != nullptr && servers_[i]->port() == port) {
        return i;
      }
    }
    return -1;
  }

  CacheKey FirstKey(int template_id) {
    CacheKey key;
    key.template_id = template_id;
    key.step = 0;
    key.block = 0;
    key.kind = kCacheKindY;
    return key;
  }

  std::unique_ptr<CacheNode> nodes_[kNodes];
  std::unique_ptr<TcpServer> servers_[kNodes];
  model::NumericsConfig numerics_;
  std::unique_ptr<model::DiffusionModel> model_;
};

TEST_F(CacheRingStoreTest, MissRegistersLocallyAndReplicatesKWays) {
  cache::ShardedRemoteStore store(StoreOptions(/*replication=*/2));
  constexpr int kTemplate = 3;
  auto record = store.Acquire(*model_, kTemplate, /*record_kv=*/false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, model_->Register(kTemplate, false)));

  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.remote_misses, 1u);
  EXPECT_EQ(stats.local_registrations, 1u);
  EXPECT_EQ(stats.puts_ok, 2u);  // k copies.
  EXPECT_EQ(stats.fallbacks, 0u);

  // The two residents are exactly the first two members of the
  // preference list, and only them.
  const std::vector<int> prefs = store.ring().PreferenceList(kTemplate);
  ASSERT_EQ(prefs.size(), 3u);
  EXPECT_TRUE(nodes_[SlotOf(store.ring(), prefs[0])]->Contains(
      FirstKey(kTemplate)));
  EXPECT_TRUE(nodes_[SlotOf(store.ring(), prefs[1])]->Contains(
      FirstKey(kTemplate)));
  EXPECT_FALSE(nodes_[SlotOf(store.ring(), prefs[2])]->Contains(
      FirstKey(kTemplate)));

  // Per-member accounting: the replica set took the puts.
  uint64_t member_puts = 0;
  for (const cache::RingMemberStats& m : stats.members) {
    member_puts += m.puts_ok;
  }
  EXPECT_EQ(member_puts, 2u);
}

TEST_F(CacheRingStoreTest, ReadRepairBackfillsEarlierReplicaOnLaterHit) {
  cache::ShardedStoreOptions options = StoreOptions(/*replication=*/2);
  cache::CacheRingOptions ring_options;
  ring_options.members = options.nodes;
  const cache::CacheRing ring(ring_options);
  constexpr int kTemplate = 5;
  const std::vector<int> prefs = ring.PreferenceList(kTemplate);

  // Seed ONLY replica 1 (preference position 1) — as if the primary
  // restarted and lost its copy.
  const model::ActivationRecord published =
      model_->Register(kTemplate, false);
  {
    const int slot = SlotOf(ring, prefs[1]);
    Client publisher("127.0.0.1", servers_[slot]->port());
    ASSERT_TRUE(publisher.PutRecord(kTemplate, published).transport_ok);
  }

  cache::ShardedRemoteStore store(options);
  auto record = store.Acquire(*model_, kTemplate, false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, published));

  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.remote_hits, 1u);
  EXPECT_EQ(stats.read_repairs, 1u);
  EXPECT_EQ(stats.local_registrations, 0u);
  // The primary was healed: it now holds the record.
  EXPECT_TRUE(
      nodes_[SlotOf(ring, prefs[0])]->Contains(FirstKey(kTemplate)));
  // Per-member view: the hit came from replica 1, the repair landed on
  // the primary.
  EXPECT_EQ(stats.members[static_cast<size_t>(prefs[1])].remote_hits, 1u);
  EXPECT_EQ(stats.members[static_cast<size_t>(prefs[0])].read_repairs, 1u);
  EXPECT_EQ(stats.members[static_cast<size_t>(prefs[0])].remote_misses, 1u);
}

TEST_F(CacheRingStoreTest, FailoverWalksPastDeadPrimaryToReplica) {
  cache::ShardedStoreOptions options = StoreOptions(/*replication=*/2);
  cache::CacheRingOptions ring_options;
  ring_options.members = options.nodes;
  const cache::CacheRing ring(ring_options);
  constexpr int kTemplate = 7;
  const std::vector<int> prefs = ring.PreferenceList(kTemplate);

  // Replica 1 holds the record; the primary is dead.
  const model::ActivationRecord published =
      model_->Register(kTemplate, false);
  {
    const int slot = SlotOf(ring, prefs[1]);
    Client publisher("127.0.0.1", servers_[slot]->port());
    ASSERT_TRUE(publisher.PutRecord(kTemplate, published).transport_ok);
  }
  const int dead_slot = SlotOf(ring, prefs[0]);
  servers_[dead_slot]->Stop();

  cache::ShardedRemoteStore store(options);
  auto record = store.Acquire(*model_, kTemplate, false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, published));

  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.remote_hits, 1u);
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_GE(stats.failovers, 1u);
  EXPECT_GE(
      stats.members[static_cast<size_t>(prefs[0])].transport_failures, 1u);
  EXPECT_EQ(stats.members[static_cast<size_t>(prefs[1])].remote_hits, 1u);
}

TEST_F(CacheRingStoreTest, KilledMemberMidRunNeverFailsAnAcquire) {
  cache::ShardedStoreOptions options = StoreOptions(/*replication=*/2);
  cache::CacheRingOptions ring_options;
  ring_options.members = options.nodes;
  const cache::CacheRing ring(ring_options);
  cache::ShardedRemoteStore store(options);
  constexpr int kTemplates = 6;
  for (int t = 0; t < kTemplates; ++t) {
    ASSERT_NE(store.Acquire(*model_, t, false), nullptr);
  }
  // One member dies mid-run: template 0's primary, so template 0's walk
  // meets it before its replica. (A member third on every template's
  // preference list is never walked at replication 2.) Every subsequent
  // Acquire — old templates through a fresh store (empty front) and
  // brand-new ones — must still succeed with bitwise-identical records.
  servers_[SlotOf(ring, ring.PrimaryFor(0))]->Stop();

  cache::ShardedRemoteStore fresh(StoreOptions(/*replication=*/2));
  for (int t = 0; t < kTemplates + 4; ++t) {
    auto record = fresh.Acquire(*model_, t, false);
    ASSERT_NE(record, nullptr) << "template " << t;
    EXPECT_TRUE(RecordsEqual(*record, model_->Register(t, false)))
        << "template " << t;
  }
  const cache::ShardedStoreStats stats = fresh.Stats();
  // Each Acquire is accounted exactly once on the ladder, and none of
  // them failed.
  EXPECT_EQ(stats.front_hits + stats.singleflight_waits + stats.remote_hits +
                stats.remote_misses + stats.fallbacks +
                stats.prefetch_coalesced,
            static_cast<uint64_t>(kTemplates + 4));
  // The dead member is visible in the per-member dump, not averaged away.
  uint64_t dead_failures = 0;
  uint64_t live_hits = 0;
  for (const cache::RingMemberStats& m : stats.members) {
    dead_failures += m.transport_failures;
    live_hits += m.remote_hits;
  }
  EXPECT_GE(dead_failures, 1u);
  EXPECT_GE(live_hits, 1u);
}

TEST_F(CacheRingStoreTest, WholeRingDeadFallsBackLocallyPerMemberCircuits) {
  cache::ShardedStoreOptions options = StoreOptions(/*replication=*/2);
  options.max_consecutive_failures = 1;
  options.degrade_cooldown = std::chrono::hours(1);
  for (auto& server : servers_) {
    server->Stop();
  }
  cache::ShardedRemoteStore store(options);
  auto record = store.Acquire(*model_, 1, false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, model_->Register(1, false)));

  cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.fallbacks, 1u);
  EXPECT_EQ(stats.local_registrations, 1u);
  // The walk tried every member once; each tripped its OWN circuit.
  EXPECT_EQ(stats.degrade_trips, 3u);
  for (const cache::RingMemberStats& m : stats.members) {
    EXPECT_EQ(m.transport_failures, 1u) << m.id;
    EXPECT_EQ(m.circuit_trips, 1u) << m.id;
    EXPECT_TRUE(m.circuit_open) << m.id;
  }
  // With every circuit open the next Acquire goes straight to local
  // registration — no further wire attempts, no further failures.
  ASSERT_NE(store.Acquire(*model_, 2, false), nullptr);
  stats = store.Stats();
  EXPECT_EQ(stats.fallbacks, 2u);
  for (const cache::RingMemberStats& m : stats.members) {
    EXPECT_EQ(m.transport_failures, 1u) << m.id;
  }
}

TEST_F(CacheRingStoreTest, OneSickMemberDegradesOnlyItsOwnRanges) {
  cache::ShardedStoreOptions options = StoreOptions(/*replication=*/1);
  options.max_consecutive_failures = 1;
  options.degrade_cooldown = std::chrono::hours(1);
  cache::CacheRingOptions ring_options;
  ring_options.members = options.nodes;
  const cache::CacheRing ring(ring_options);

  // Find a template whose primary is slot 0's member, then kill slot 0.
  int victim_template = -1;
  int victim_member = -1;
  for (int t = 0; t < 64 && victim_template < 0; ++t) {
    const int primary = ring.PrimaryFor(t);
    if (SlotOf(ring, primary) == 0) {
      victim_template = t;
      victim_member = primary;
    }
  }
  ASSERT_GE(victim_template, 0);
  servers_[0]->Stop();

  cache::ShardedRemoteStore store(options);
  // This Acquire fails over past the dead primary (trip) and still
  // completes — served by the successor, not by local fallback.
  auto record = store.Acquire(*model_, victim_template, false);
  ASSERT_NE(record, nullptr);
  cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(stats.degrade_trips, 1u);
  EXPECT_TRUE(
      stats.members[static_cast<size_t>(victim_member)].circuit_open);

  // Templates whose primaries are healthy members never touch the dead
  // one (its circuit is open; its ranges shifted to successors).
  for (int t = 64; t < 72; ++t) {
    ASSERT_NE(store.Acquire(*model_, t, false), nullptr);
  }
  stats = store.Stats();
  EXPECT_EQ(stats.fallbacks, 0u);
  EXPECT_EQ(
      stats.members[static_cast<size_t>(victim_member)].transport_failures,
      1u);
}

// Polls until `done` holds or ~2 s pass.
template <typename Predicate>
bool WaitFor(Predicate done,
             std::chrono::milliseconds timeout = std::chrono::seconds(2)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST_F(CacheRingStoreTest, PrefetchPipelineComposesOverTheRing) {
  cache::ShardedStoreOptions options = StoreOptions(/*replication=*/2);
  cache::CacheRingOptions ring_options;
  ring_options.members = options.nodes;
  const cache::CacheRing ring(ring_options);
  constexpr int kTemplate = 9;
  // Warm the primary so the prefetch hits remotely.
  {
    const int slot = SlotOf(ring, ring.PrimaryFor(kTemplate));
    Client publisher("127.0.0.1", servers_[slot]->port());
    ASSERT_TRUE(publisher.PutRecord(kTemplate, model_->Register(kTemplate,
                                                                false))
                    .transport_ok);
  }

  options.prefetch_workers = 1;
  cache::ShardedRemoteStore store(options);
  store.Prefetch(*model_, kTemplate, /*record_kv=*/false);
  ASSERT_TRUE(
      WaitFor([&] { return store.Stats().prefetch_remote_hits == 1; }));

  auto record = store.Acquire(*model_, kTemplate, false);
  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, model_->Register(kTemplate, false)));
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.prefetch_issued, 1u);
  EXPECT_EQ(stats.prefetch_coalesced, 1u);
  EXPECT_EQ(stats.remote_hits, 0u);  // Foreground never fetched.
  EXPECT_GT(stats.prefetch_bytes_fetched, 0u);
}

TEST_F(CacheRingStoreTest, ProbeMembersReflectsLiveness) {
  cache::ShardedStoreOptions options = StoreOptions();
  cache::CacheRingOptions ring_options;
  ring_options.members = options.nodes;
  const cache::CacheRing ring(ring_options);
  servers_[2]->Stop();

  cache::ShardedRemoteStore store(options);
  const std::vector<bool> alive =
      store.ProbeMembers(std::chrono::milliseconds(500));
  ASSERT_EQ(alive.size(), 3u);
  for (size_t i = 0; i < alive.size(); ++i) {
    const bool expect_alive = SlotOf(ring, static_cast<int>(i)) != 2;
    EXPECT_EQ(alive[i], expect_alive) << ring.member(i).id();
  }
}

TEST_F(CacheRingStoreTest, MetricsJsonCarriesPerMemberCounters) {
  cache::ShardedRemoteStore store(StoreOptions(/*replication=*/2));
  store.Acquire(*model_, 3, false);  // miss -> register + replicate x2
  store.Acquire(*model_, 3, false);  // front hit
  const std::string json = store.MetricsJson();
  EXPECT_NE(json.find("\"kind\":\"sharded\""), std::string::npos);
  EXPECT_EQ(JsonCounter(json, "nodes"), 3u);
  EXPECT_EQ(JsonCounter(json, "replication"), 2u);
  EXPECT_EQ(JsonCounter(json, "front_hits"), 1u);
  EXPECT_EQ(JsonCounter(json, "remote_misses"), 1u);
  EXPECT_EQ(JsonCounter(json, "puts_ok"), 2u);
  EXPECT_NE(json.find("\"members\":["), std::string::npos);
  for (int i = 0; i < kNodes; ++i) {
    const std::string id =
        "\"id\":\"127.0.0.1:" + std::to_string(servers_[i]->port()) + "\"";
    EXPECT_NE(json.find(id), std::string::npos) << id;
  }
  EXPECT_NE(json.find("\"read_repairs\":"), std::string::npos);
  EXPECT_NE(json.find("\"circuit_open\":false"), std::string::npos);
}

// A cache node whose fetches of one key hold until the test releases
// them. Once released, that fetch and — with `dies` — every later frame on
// any connection get a kError that closes the connection, as if the node
// died mid-record.
class LatchedNode {
 public:
  explicit LatchedNode(bool dies) : dies_(dies) {}

  void HoldAt(CacheKey key) {
    std::lock_guard<std::mutex> lock(mu_);
    hold_at_ = key;
  }

  InlineService Service() {
    return [this](const ParsedFrame& frame) {
      CacheFetchBody body;
      std::string error;
      const bool fetch = frame.type() == FrameType::kCacheFetch &&
                         DecodeCacheFetch(frame, &body, &error);
      {
        std::unique_lock<std::mutex> lock(mu_);
        const bool held = fetch && hold_at_.has_value() && body.key == *hold_at_;
        if (held) {
          ++holding_;
          cv_.notify_all();
          cv_.wait(lock, [&] { return released_; });
        }
        if (dead_ || (held && dies_)) {
          dead_ = true;
          return InlineReply{EncodeError(frame.header.seq,
                                         WireError::kConnectionClosed,
                                         "node died"),
                             /*close_connection=*/true};
        }
      }
      return node_.Service()(frame);
    };
  }

  // Blocks until a fetch of the held key is waiting on the latch.
  bool AwaitHolding() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return holding_ > 0; });
  }

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  CacheNode& node() { return node_; }

 private:
  const bool dies_;
  std::optional<CacheKey> hold_at_;  // Guarded by mu_.
  CacheNode node_;
  std::mutex mu_;
  std::condition_variable cv_;
  int holding_ = 0;
  bool released_ = false;
  bool dead_ = false;
};

// Two loopback members: member 0 latched, member 1 a plain node.
class CacheRingStreamTest : public ::testing::Test {
 protected:
  void Start(bool dies) {
    latched_ = std::make_unique<LatchedNode>(dies);
    latched_server_ = std::make_unique<TcpServer>(latched_->Service());
    plain_server_ = std::make_unique<TcpServer>(plain_.Service());
    ASSERT_TRUE(latched_server_->Start());
    ASSERT_TRUE(plain_server_->Start());
  }

  void TearDown() override {
    if (latched_ != nullptr) {
      latched_->Release();
    }
    for (TcpServer* server : {latched_server_.get(), plain_server_.get()}) {
      if (server != nullptr) {
        server->Stop();
      }
    }
  }

  cache::ShardedStoreOptions StoreOptions() {
    cache::ShardedStoreOptions options;
    options.nodes = {{"127.0.0.1", latched_server_->port()},
                     {"127.0.0.1", plain_server_->port()}};
    options.replication = 2;
    options.prefetch_workers = 1;
    options.connect_attempts = 1;
    options.connect_backoff = std::chrono::milliseconds(1);
    return options;
  }

  // A template whose primary is the latched member.
  int TemplateOnLatchedPrimary(const cache::CacheRing& ring) {
    for (int t = 0; t < 256; ++t) {
      const int primary = ring.PrimaryFor(t);
      if (ring.member(static_cast<size_t>(primary)).port ==
          latched_server_->port()) {
        return t;
      }
    }
    return -1;
  }

  std::unique_ptr<LatchedNode> latched_;
  CacheNode plain_;
  std::unique_ptr<TcpServer> latched_server_;
  std::unique_ptr<TcpServer> plain_server_;
};

TEST_F(CacheRingStreamTest, JoinerOfACleanMissRegistersWithoutASecondWalk) {
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 2;
  const model::DiffusionModel model(numerics);
  constexpr int kTemplate = 4;
  // Hold the prefetch's walk at its first fetch of the cold template, so
  // the foreground Acquire joins the flight while it is open.
  Start(/*dies=*/false);
  latched_->HoldAt(CacheKey{kTemplate, 0, 0, kCacheKindY});
  cache::ShardedRemoteStore store(StoreOptions());
  store.Prefetch(model, kTemplate, /*record_kv=*/false);
  std::shared_ptr<const model::ActivationRecord> record;
  std::thread acquirer(
      [&] { record = store.Acquire(model, kTemplate, /*record_kv=*/false); });
  ASSERT_TRUE(latched_->AwaitHolding());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  latched_->Release();
  acquirer.join();

  ASSERT_NE(record, nullptr);
  EXPECT_TRUE(RecordsEqual(*record, model.Register(kTemplate, false)));
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.local_registrations, 1u);
  EXPECT_EQ(stats.prefetch_remote_misses, 1u);
  EXPECT_EQ(stats.remote_misses, 1u);
  EXPECT_EQ(stats.puts_ok, 2u);
  // One walk: each member missed every key of the record once.
  const uint64_t keys =
      static_cast<uint64_t>(numerics.num_steps) * numerics.num_blocks;
  EXPECT_EQ(latched_->node().Stats().fetch_misses + plain_.Stats().fetch_misses,
            2 * keys);
}

// Runs one request through a worker on `store` while the latched member
// dies after serving step 0 of its record, and checks it completes with
// the whole-record bits. Returns the store's counters.
cache::ShardedStoreStats RunThroughACutStream(
    cache::ShardedRemoteStore& store, LatchedNode& latched,
    const model::NumericsConfig& numerics, int template_id) {
  runtime::OnlineServer::Options options;
  options.numerics = numerics;
  options.sparse_compute = true;
  Rng rng(31);
  runtime::OnlineRequest request;
  request.template_id = template_id;
  request.mask =
      trace::GenerateBlobMask(numerics.grid_h, numerics.grid_w, 0.2, rng);
  request.prompt_seed = 77;

  options.activation_source =
      std::shared_ptr<cache::ActivationSource>(&store, [](auto*) {});
  runtime::OnlineServer server(options);
  std::future<runtime::OnlineResponse> future = server.Submit(request);
  // Step 0 of the record has run before the node dies.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool stepped = false;
  while (!stepped && std::chrono::steady_clock::now() < deadline) {
    const runtime::BatchSnapshot snap = server.Snapshot();
    stepped = !snap.running_remaining.empty() &&
              snap.running_remaining.front() < numerics.num_steps;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  EXPECT_TRUE(stepped) << "step 0 never ran off the stream";
  latched.Release();
  const Matrix streamed = future.get().image;
  server.Stop();

  options.activation_source = nullptr;
  runtime::OnlineServer reference(options);
  EXPECT_EQ(LatentChecksum(streamed),
            LatentChecksum(reference.Submit(request).get().image));
  reference.Stop();

  // The request acquired twice: once off the stream that was cut, and
  // once more for the rest of its steps.
  const cache::ShardedStoreStats stats = store.Stats();
  EXPECT_EQ(stats.front_hits + stats.prefetch_coalesced +
                stats.singleflight_waits + stats.remote_hits +
                stats.remote_misses + stats.fallbacks,
            2u);
  // The front holds the whole record now; the failed one stayed nowhere.
  EXPECT_EQ(stats.prefetch_staged, 0u);
  const model::DiffusionModel model(numerics);
  auto again = store.Acquire(model, template_id, /*record_kv=*/true);
  EXPECT_EQ(store.Stats().front_hits, stats.front_hits + 1);
  EXPECT_FALSE(again->StreamFailed());
  EXPECT_EQ(again->ResidentSteps(), numerics.num_steps);
  EXPECT_TRUE(RecordsEqual(*again, model.Register(template_id, true)));
  return stats;
}

TEST_F(CacheRingStreamTest, CutStreamFinishesFromTheReplica) {
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 2;
  const model::DiffusionModel model(numerics);
  Start(/*dies=*/true);
  cache::ShardedRemoteStore store(StoreOptions());
  const int t = TemplateOnLatchedPrimary(store.ring());
  ASSERT_GE(t, 0);
  // Both members hold the record; the primary dies on step 1, once every
  // frame of step 0 is out.
  const model::ActivationRecord published = model.Register(t, true);
  for (TcpServer* server : {latched_server_.get(), plain_server_.get()}) {
    Client publisher("127.0.0.1", server->port());
    ASSERT_TRUE(publisher.PutRecord(t, published).transport_ok);
  }
  latched_->HoldAt(CacheKey{t, 1, 1, kCacheKindY});
  const cache::ShardedStoreStats stats =
      RunThroughACutStream(store, *latched_, numerics, t);
  EXPECT_EQ(stats.local_registrations, 0u);
  EXPECT_EQ(stats.prefetch_remote_hits, 1u);
  EXPECT_GE(stats.failovers, 1u);
}

TEST_F(CacheRingStreamTest, CutStreamFinishesByLocalRegistration) {
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.num_steps = 2;
  const model::DiffusionModel model(numerics);
  Start(/*dies=*/true);
  cache::ShardedRemoteStore store(StoreOptions());
  const int t = TemplateOnLatchedPrimary(store.ring());
  ASSERT_GE(t, 0);
  // Only the primary holds the record, and it dies on step 1.
  Client publisher("127.0.0.1", latched_server_->port());
  ASSERT_TRUE(publisher.PutRecord(t, model.Register(t, true)).transport_ok);
  latched_->HoldAt(CacheKey{t, 1, 1, kCacheKindY});
  const cache::ShardedStoreStats stats =
      RunThroughACutStream(store, *latched_, numerics, t);
  EXPECT_EQ(stats.local_registrations, 1u);
  EXPECT_EQ(stats.prefetch_remote_hits, 0u);
}

}  // namespace
}  // namespace flashps::net
