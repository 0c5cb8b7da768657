// Fault-injection tests: the failpoint registry itself (arm/fire budgets,
// hit counters, environment arming) and the production failure paths it
// exists to exercise — transient snapshot-open failures healed by the
// engine's bounded retry+backoff, hard failures surfaced as Status, and
// FreeListPool exhaustion degrading to counted transient allocations with
// bit-identical query results.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/failpoint.h"
#include "common/free_list_pool.h"
#include "core/engine.h"
#include "test_util.h"

namespace grasp {
namespace {

using grasp::core::KeywordSearchEngine;

/// Every test starts and ends with nothing armed; a leaked arming would
/// poison unrelated suites through the global registry.
class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { failpoint::DisarmAll(); }
  void TearDown() override {
    failpoint::DisarmAll();
    ::unsetenv("GRASP_FAILPOINTS");
  }
};

TEST_F(FailpointTest, UnarmedSitesNeverFire) {
  EXPECT_FALSE(failpoint::ShouldFail("nonexistent.site"));
  EXPECT_FALSE(failpoint::ShouldFail("nonexistent.site"));
  // The unarmed fast path skips the registry, so nothing was counted.
  EXPECT_EQ(failpoint::HitCount("nonexistent.site"), 0u);
}

TEST_F(FailpointTest, ArmedBudgetFiresExactlyNTimes) {
  failpoint::Arm("test.site", 2);
  EXPECT_TRUE(failpoint::ShouldFail("test.site"));
  EXPECT_TRUE(failpoint::ShouldFail("test.site"));
  EXPECT_FALSE(failpoint::ShouldFail("test.site"));
  EXPECT_FALSE(failpoint::ShouldFail("test.site"));
  // Only the armed hits were counted: once the budget hit zero the
  // ShouldFail fast path stopped touching the registry.
  EXPECT_EQ(failpoint::HitCount("test.site"), 2u);
}

TEST_F(FailpointTest, AlwaysFiresUntilDisarmed) {
  failpoint::Arm("test.always", failpoint::kAlways);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(failpoint::ShouldFail("test.always"));
  }
  failpoint::Disarm("test.always");
  EXPECT_FALSE(failpoint::ShouldFail("test.always"));
}

TEST_F(FailpointTest, ArmZeroDisarms) {
  failpoint::Arm("test.zero", failpoint::kAlways);
  failpoint::Arm("test.zero", 0);
  EXPECT_FALSE(failpoint::ShouldFail("test.zero"));
}

TEST_F(FailpointTest, EnvironmentArmsSites) {
  ::setenv("GRASP_FAILPOINTS", "env.counted=2,env.forever=always", 1);
  failpoint::ReloadFromEnv();
  EXPECT_TRUE(failpoint::ShouldFail("env.counted"));
  EXPECT_TRUE(failpoint::ShouldFail("env.counted"));
  EXPECT_FALSE(failpoint::ShouldFail("env.counted"));
  EXPECT_TRUE(failpoint::ShouldFail("env.forever"));
  EXPECT_TRUE(failpoint::ShouldFail("env.forever"));
  // Reload with the variable gone clears all env arming.
  ::unsetenv("GRASP_FAILPOINTS");
  failpoint::ReloadFromEnv();
  EXPECT_FALSE(failpoint::ShouldFail("env.forever"));
}

// ---------------------------------------------------------------------------
// Production failure paths.

class SnapshotRetryTest : public FailpointTest {
 protected:
  SnapshotRetryTest() : dataset_(grasp::testing::MakeFigure1Dataset()) {}

  void SetUp() override {
    FailpointTest::SetUp();
    path_ = ::testing::TempDir() + "grasp_failpoint_retry.snap";
    KeywordSearchEngine cold(dataset_.store, dataset_.dictionary);
    const Status saved = cold.SaveIndex(path_);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
  }

  void TearDown() override {
    std::remove(path_.c_str());
    FailpointTest::TearDown();
  }

  static KeywordSearchEngine::Options RetryOptions(int attempts) {
    KeywordSearchEngine::Options options;
    options.snapshot_open_attempts = attempts;
    options.snapshot_open_backoff_millis = 0.1;  // keep the test fast
    return options;
  }

  grasp::testing::Dataset dataset_;
  std::string path_;
};

TEST_F(SnapshotRetryTest, TransientOpenFailuresAreRetriedAway) {
  // Two injected failures, three attempts: the third succeeds and the
  // caller never sees the transient faults.
  failpoint::Arm("snapshot.open", 2);
  auto opened = KeywordSearchEngine::Open(path_, RetryOptions(3));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // Both injected failures were consumed; the successful third attempt
  // took the unarmed fast path and is not registered as a hit.
  EXPECT_EQ(failpoint::HitCount("snapshot.open"), 2u);

  const auto result = (*opened)->Search({"publication", "aifb"}, 5);
  EXPECT_TRUE(result.status.ok());
  EXPECT_FALSE(result.queries.empty());
}

TEST_F(SnapshotRetryTest, TransientMmapFailuresAreRetriedAway) {
  failpoint::Arm("snapshot.mmap", 1);
  auto opened = KeywordSearchEngine::Open(path_, RetryOptions(2));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
}

TEST_F(SnapshotRetryTest, PersistentFailureExhaustsRetriesWithIoError) {
  failpoint::Arm("snapshot.open", failpoint::kAlways);
  auto opened = KeywordSearchEngine::Open(path_, RetryOptions(3));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIoError);
  // Exactly `attempts` tries: bounded, not an infinite retry loop.
  EXPECT_EQ(failpoint::HitCount("snapshot.open"), 3u);
}

TEST_F(SnapshotRetryTest, RetryBudgetOfOneMeansNoRetry) {
  failpoint::Arm("snapshot.open", 1);
  auto opened = KeywordSearchEngine::Open(path_, RetryOptions(1));
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(failpoint::HitCount("snapshot.open"), 1u);
}

TEST_F(SnapshotRetryTest, MadviseFailpointDoesNotFailOpen) {
  // Prefetch advice is an optimization, never a correctness dependency:
  // Open maps with willneed set, and an armed snapshot.madvise failpoint
  // must leave the open and its answers intact.
  failpoint::Arm("snapshot.madvise", failpoint::kAlways);
  auto opened = KeywordSearchEngine::Open(path_);
  EXPECT_GT(failpoint::HitCount("snapshot.madvise"), 0u);
  failpoint::DisarmAll();  // resets hit counters too
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  const KeywordSearchEngine cold(dataset_.store, dataset_.dictionary);
  const std::vector<std::string> keywords = {"publication", "author"};
  const auto expected = cold.Search(keywords, 5);
  const auto actual = (*opened)->Search(keywords, 5);
  ASSERT_FALSE(expected.queries.empty());
  ASSERT_EQ(actual.queries.size(), expected.queries.size());
  for (std::size_t i = 0; i < expected.queries.size(); ++i) {
    EXPECT_EQ(actual.queries[i].cost, expected.queries[i].cost) << "rank " << i;
    EXPECT_EQ(actual.queries[i].query.CanonicalString(),
              expected.queries[i].query.CanonicalString())
        << "rank " << i;
  }
  EXPECT_EQ(actual.degraded, expected.degraded);
}

TEST_F(FailpointTest, PoolExhaustionDegradesToCountedTransients) {
  grasp::testing::Dataset dataset = grasp::testing::MakeFigure1Dataset();
  KeywordSearchEngine engine(dataset.store, dataset.dictionary);
  const std::vector<std::string> keywords = {"publication", "aifb"};

  const auto baseline = engine.Search(keywords, 5);
  ASSERT_TRUE(baseline.status.ok());
  ASSERT_FALSE(baseline.queries.empty());
  const auto before = engine.index_stats();

  // Every scratch/overlay acquisition overflows to a transient allocation:
  // the degraded path must change performance only, never results.
  failpoint::Arm("pool.acquire", failpoint::kAlways);
  const auto starved = engine.Search(keywords, 5);
  failpoint::DisarmAll();

  ASSERT_TRUE(starved.status.ok());
  ASSERT_EQ(starved.queries.size(), baseline.queries.size());
  for (std::size_t i = 0; i < baseline.queries.size(); ++i) {
    EXPECT_EQ(starved.queries[i].cost, baseline.queries[i].cost) << i;
    EXPECT_EQ(starved.queries[i].query.CanonicalString(),
              baseline.queries[i].query.CanonicalString())
        << i;
  }

  const auto after = engine.index_stats();
  EXPECT_GT(after.scratch_pool_overflows + after.overlay_pool_overflows,
            before.scratch_pool_overflows + before.overlay_pool_overflows);
}

TEST_F(FailpointTest, FreeListPoolCountsInjectedOverflows) {
  FreeListPool<int> pool(4);
  failpoint::Arm("pool.acquire", 2);
  auto make = [] { return std::make_unique<int>(7); };

  auto t1 = pool.Acquire(make);  // injected overflow
  auto t2 = pool.Acquire(make);  // injected overflow
  auto p1 = pool.Acquire(make);  // budget spent: pooled again
  EXPECT_EQ(t1.slot, FreeListPool<int>::kTransient);
  EXPECT_EQ(t2.slot, FreeListPool<int>::kTransient);
  EXPECT_NE(p1.slot, FreeListPool<int>::kTransient);
  EXPECT_EQ(pool.overflow_count(), 2u);

  pool.Release(t1);
  pool.Release(t2);
  pool.Release(p1);
  // Transient releases destroyed their objects; the pooled slot survives.
  EXPECT_EQ(pool.created(), 1u);
}

}  // namespace
}  // namespace grasp
