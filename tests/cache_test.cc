#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <list>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/cache/activation_store.h"
#include "src/cache/cache_engine.h"

namespace flashps::cache {
namespace {

constexpr uint64_t kMiB = 1ULL << 20;

device::DeviceSpec TestSpec() {
  device::DeviceSpec spec;
  spec.disk_bw = 100e6;  // 100 MB/s: 1 MiB loads in ~10.5 ms.
  return spec;
}

TEST(CacheEngineTest, RegistrationMakesHostResidentWhenItFits) {
  CacheEngine engine(10 * kMiB, TestSpec());
  engine.RegisterTemplate(1, 4 * kMiB, TimePoint());
  EXPECT_TRUE(engine.IsRegistered(1));
  EXPECT_EQ(engine.Locate(1), Tier::kHost);
  EXPECT_EQ(engine.host_bytes_used(), 4 * kMiB);
  EXPECT_EQ(engine.Locate(99), Tier::kUnknown);
}

TEST(CacheEngineTest, HostHitIsImmediate) {
  CacheEngine engine(10 * kMiB, TestSpec());
  engine.RegisterTemplate(1, 4 * kMiB, TimePoint());
  const TimePoint now = TimePoint::FromSeconds(5.0);
  EXPECT_EQ(engine.EnsureHostResident(1, now), now);
  EXPECT_EQ(engine.stats().host_hits, 1u);
}

TEST(CacheEngineTest, LruEvictionOnPressure) {
  CacheEngine engine(10 * kMiB, TestSpec());
  engine.RegisterTemplate(1, 4 * kMiB, TimePoint());
  engine.RegisterTemplate(2, 4 * kMiB, TimePoint());
  // Touch 1 so 2 becomes LRU.
  engine.Touch(1, TimePoint::FromSeconds(1.0));
  engine.RegisterTemplate(3, 4 * kMiB, TimePoint::FromSeconds(2.0));
  EXPECT_EQ(engine.Locate(3), Tier::kHost);
  EXPECT_EQ(engine.Locate(2), Tier::kDisk);  // Evicted.
  EXPECT_EQ(engine.Locate(1), Tier::kHost);  // Protected by the touch.
  EXPECT_EQ(engine.stats().evictions, 1u);
  EXPECT_LE(engine.host_bytes_used(), engine.host_capacity());
}

TEST(CacheEngineTest, DiskPromotionTakesBandwidthTime) {
  CacheEngine engine(4 * kMiB, TestSpec());
  engine.RegisterTemplate(1, 4 * kMiB, TimePoint());
  engine.RegisterTemplate(2, 4 * kMiB, TimePoint());  // Evicts 1.
  EXPECT_EQ(engine.Locate(1), Tier::kDisk);

  const TimePoint now = TimePoint::FromSeconds(10.0);
  const TimePoint ready = engine.EnsureHostResident(1, now);
  // 4 MiB at 100 MB/s ~= 42 ms.
  EXPECT_NEAR((ready - now).seconds(), 0.0419, 0.001);
  EXPECT_EQ(engine.stats().disk_promotions, 1u);

  // Idempotent while in flight.
  EXPECT_EQ(engine.EnsureHostResident(1, now + Duration::Millis(1)), ready);
  // After completion it's a host hit.
  EXPECT_EQ(engine.EnsureHostResident(1, ready + Duration::Millis(1)),
            ready + Duration::Millis(1));
}

TEST(CacheEngineTest, ConcurrentPromotionsSerializeOnDisk) {
  CacheEngine engine(8 * kMiB, TestSpec());
  engine.RegisterTemplate(1, 4 * kMiB, TimePoint());
  engine.RegisterTemplate(2, 4 * kMiB, TimePoint());
  engine.RegisterTemplate(3, 4 * kMiB, TimePoint());  // 1 evicted.
  engine.RegisterTemplate(4, 4 * kMiB, TimePoint());  // 2 evicted.
  ASSERT_EQ(engine.Locate(1), Tier::kDisk);
  ASSERT_EQ(engine.Locate(2), Tier::kDisk);

  const TimePoint now = TimePoint::FromSeconds(1.0);
  const TimePoint r1 = engine.EnsureHostResident(1, now);
  const TimePoint r2 = engine.EnsureHostResident(2, now);
  // The second promotion queues behind the first on the disk timeline.
  EXPECT_GE((r2 - r1).seconds(), (r1 - now).seconds() * 0.99);
}

TEST(CacheEngineTest, RegisterBiggerThanHostStaysOnDisk) {
  CacheEngine engine(2 * kMiB, TestSpec());
  engine.RegisterTemplate(1, 4 * kMiB, TimePoint());
  EXPECT_TRUE(engine.IsRegistered(1));
  EXPECT_EQ(engine.Locate(1), Tier::kDisk);
}

TEST(CacheEngineTest, ModelBasedLruAgainstReference) {
  // Randomized operation sequence checked against a simple reference model
  // of an LRU set with capacity in "slots" (all entries equal-sized).
  constexpr uint64_t kEntry = 1 * kMiB;
  constexpr int kSlots = 4;
  CacheEngine engine(kSlots * kEntry, TestSpec());
  std::list<int> reference_lru;  // Front = most recent, host-resident set.
  auto ref_contains = [&](int id) {
    return std::find(reference_lru.begin(), reference_lru.end(), id) !=
           reference_lru.end();
  };
  auto ref_touch = [&](int id) {
    reference_lru.remove(id);
    reference_lru.push_front(id);
    while (static_cast<int>(reference_lru.size()) > kSlots) {
      reference_lru.pop_back();
    }
  };

  Rng rng(77);
  std::set<int> registered;
  TimePoint now;
  for (int op = 0; op < 400; ++op) {
    now = now + Duration::Millis(100);
    const int id = static_cast<int>(rng.NextBelow(10));
    switch (rng.NextBelow(3)) {
      case 0:  // Register.
        engine.RegisterTemplate(id, kEntry, now);
        if (registered.insert(id).second) {
          ref_touch(id);  // New registrations become resident (MRU).
        }
        break;
      case 1:  // Promote/ensure.
        if (registered.count(id)) {
          engine.EnsureHostResident(id, now);
          ref_touch(id);
        }
        break;
      case 2:  // Touch.
        if (registered.count(id) && ref_contains(id)) {
          engine.Touch(id, now);
          ref_touch(id);
        }
        break;
    }
    // Invariants: capacity respected; residency matches the reference.
    ASSERT_LE(engine.host_bytes_used(), engine.host_capacity());
    for (const int t : registered) {
      const Tier tier = engine.Locate(t);
      if (ref_contains(t)) {
        EXPECT_EQ(tier, Tier::kHost) << "op " << op << " template " << t;
      } else {
        EXPECT_EQ(tier, Tier::kDisk) << "op " << op << " template " << t;
      }
    }
  }
}

TEST(ActivationStoreTest, RegistersOnceAndReuses) {
  model::DiffusionModel m(model::NumericsConfig::ForTests());
  ActivationStore store;
  EXPECT_FALSE(store.Contains(5));
  const auto& a = store.GetOrRegister(m, 5);
  EXPECT_TRUE(store.Contains(5));
  const auto& b = store.GetOrRegister(m, 5);
  EXPECT_EQ(&a, &b);  // Same record, no recomputation.
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.TotalBytes(), a.TotalBytes());
}

TEST(ActivationStoreTest, UpgradesToKvWhenRequested) {
  model::DiffusionModel m(model::NumericsConfig::ForTests());
  ActivationStore store;
  const auto& plain = store.GetOrRegister(m, 1, /*record_kv=*/false);
  EXPECT_FALSE(plain.has_kv());
  const auto& kv = store.GetOrRegister(m, 1, /*record_kv=*/true);
  EXPECT_TRUE(kv.has_kv());
}

TEST(ActivationStoreTest, HitReturnsWhileAnotherTemplateRegisters) {
  // One registration flight per template: a hit on a resident template
  // never waits for another template's registration.
  model::NumericsConfig numerics = model::NumericsConfig::ForTests();
  numerics.grid_h = numerics.grid_w = 24;  // A registration of ~100 ms.
  const model::DiffusionModel m(numerics);
  ActivationStore store;
  store.Acquire(m, 1, /*record_kv=*/false);
  std::atomic<bool> registered{false};
  std::thread cold([&] {
    store.Acquire(m, 2, /*record_kv=*/false);
    registered = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const auto start = std::chrono::steady_clock::now();
  auto hit = store.Acquire(m, 1, /*record_kv=*/false);
  const double hit_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const bool hit_first = !registered.load();
  cold.join();
  EXPECT_TRUE(hit_first) << "the hit waited " << hit_ms
                         << " ms for another template's registration";
  EXPECT_NE(hit, nullptr);
  const std::string json = store.MetricsJson();
  EXPECT_NE(json.find("\"registrations\":2,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"local_hits\":1,"), std::string::npos) << json;
}

TEST(ActivationStoreTest, ConcurrentAcquiresOfOneTemplateRegisterOnce) {
  const model::DiffusionModel m(model::NumericsConfig::ForTests());
  ActivationStore store;
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const model::ActivationRecord>> records(
      kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { records[i] = store.Acquire(m, 3, true); });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(records[i].get(), records[0].get());
  }
  const std::string json = store.MetricsJson();
  EXPECT_NE(json.find("\"registrations\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"local_hits\":3,"), std::string::npos) << json;
}

}  // namespace
}  // namespace flashps::cache
