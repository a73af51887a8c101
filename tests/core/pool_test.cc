#include "core/pool.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;

/// In-memory archive for testing eviction destinations.
class FakeArchive : public BundleArchive {
 public:
  Status Put(const Bundle& bundle) override {
    ids.push_back(bundle.id());
    total_messages += bundle.size();
    return Status::OK();
  }
  std::vector<BundleId> ids;
  uint64_t total_messages = 0;
};

Message Tagged(MessageId id, Timestamp date, const std::string& tag) {
  return MakeMessage(id, date, "user" + std::to_string(id), {tag});
}

// Adds a bundle of `n` messages, all dated `date`, tagged by bundle id.
Bundle* AddBundle(BundlePool* pool, SummaryIndex* index, size_t n,
                  Timestamp date) {
  Bundle* bundle = pool->Create();
  static MessageId next_mid = 1;
  for (size_t i = 0; i < n; ++i) {
    Message msg =
        Tagged(next_mid++, date, "tag" + std::to_string(bundle->id()));
    index->AddMessage(bundle->id(), msg, 6);
    pool->AddMessage(bundle, msg, i == 0 ? kInvalidMessageId : next_mid - 2,
                     ConnectionType::kHashtag, 0.5);
  }
  return bundle;
}

TEST(BundlePoolTest, CreateAssignsSequentialIds) {
  BundlePool pool(PoolOptions{});
  EXPECT_EQ(pool.Create()->id(), 1u);
  EXPECT_EQ(pool.Create()->id(), 2u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.stats().bundles_created, 2u);
}

TEST(BundlePoolTest, ReserveIdsThroughSkipsAhead) {
  BundlePool pool(PoolOptions{});
  pool.ReserveIdsThrough(41);
  EXPECT_EQ(pool.Create()->id(), 42u);
  pool.ReserveIdsThrough(10);  // no-op: already past
  EXPECT_EQ(pool.Create()->id(), 43u);
}

TEST(BundlePoolTest, GetFindsLiveBundles) {
  BundlePool pool(PoolOptions{});
  Bundle* bundle = pool.Create();
  EXPECT_EQ(pool.Get(bundle->id()), bundle);
  EXPECT_EQ(pool.Get(999), nullptr);
}

TEST(BundlePoolTest, NeedsRefinementRespectsLimit) {
  PoolOptions options;
  options.max_pool_size = 3;
  BundlePool pool(options);
  SummaryIndex index;
  for (int i = 0; i < 3; ++i) AddBundle(&pool, &index, 1, kTestEpoch);
  EXPECT_FALSE(pool.NeedsRefinement());
  AddBundle(&pool, &index, 1, kTestEpoch);
  EXPECT_TRUE(pool.NeedsRefinement());
}

TEST(BundlePoolTest, ZeroLimitNeverRefines) {
  PoolOptions options;
  options.max_pool_size = 0;  // Full Index configuration
  BundlePool pool(options);
  SummaryIndex index;
  for (int i = 0; i < 100; ++i) AddBundle(&pool, &index, 1, kTestEpoch);
  EXPECT_FALSE(pool.NeedsRefinement());
}

TEST(BundlePoolTest, RefineDeletesAgingTinyBundles) {
  PoolOptions options;
  options.max_pool_size = 1000;  // won't force ranked eviction
  options.aging_secs = kSecondsPerDay;
  options.tiny_size = 3;
  BundlePool pool(options);
  SummaryIndex index;
  Bundle* tiny_old = AddBundle(&pool, &index, 2, kTestEpoch);
  Bundle* big_old = AddBundle(&pool, &index, 10, kTestEpoch);
  Bundle* tiny_new =
      AddBundle(&pool, &index, 2, kTestEpoch + 3 * kSecondsPerDay);
  BundleId tiny_old_id = tiny_old->id();
  BundleId big_old_id = big_old->id();
  BundleId tiny_new_id = tiny_new->id();

  FakeArchive archive;
  ASSERT_TRUE(pool.Refine(kTestEpoch + 3 * kSecondsPerDay, &index,
                          &archive)
                  .ok());
  EXPECT_EQ(pool.Get(tiny_old_id), nullptr);
  EXPECT_NE(pool.Get(big_old_id), nullptr);
  EXPECT_NE(pool.Get(tiny_new_id), nullptr);
  EXPECT_EQ(pool.stats().bundles_deleted_tiny, 1u);
  // Tiny deletions are not archived.
  EXPECT_TRUE(archive.ids.empty());
}

TEST(BundlePoolTest, RefineDumpsAgingClosedBundles) {
  PoolOptions options;
  options.max_pool_size = 1000;
  options.aging_secs = kSecondsPerDay;
  BundlePool pool(options);
  SummaryIndex index;
  Bundle* closed_old = AddBundle(&pool, &index, 10, kTestEpoch);
  closed_old->Close();
  BundleId id = closed_old->id();

  FakeArchive archive;
  ASSERT_TRUE(pool.Refine(kTestEpoch + 2 * kSecondsPerDay, &index,
                          &archive)
                  .ok());
  EXPECT_EQ(pool.Get(id), nullptr);
  EXPECT_EQ(archive.ids, (std::vector<BundleId>{id}));
  EXPECT_EQ(pool.stats().bundles_dumped_closed, 1u);
}

TEST(BundlePoolTest, RankedEvictionReachesTarget) {
  PoolOptions options;
  options.max_pool_size = 10;
  options.target_fraction = 0.5;
  options.aging_secs = 365 * kSecondsPerDay;  // nothing ages
  BundlePool pool(options);
  SummaryIndex index;
  for (int i = 0; i < 12; ++i) {
    AddBundle(&pool, &index, 2 + i, kTestEpoch + i * kSecondsPerHour);
  }
  FakeArchive archive;
  ASSERT_TRUE(pool.Refine(kTestEpoch + kSecondsPerDay, &index, &archive)
                  .ok());
  EXPECT_LE(pool.size(), 5u);
  EXPECT_GT(pool.stats().bundles_evicted_ranked, 0u);
}

TEST(BundlePoolTest, RankedEvictionPrefersStaleAndSmall) {
  PoolOptions options;
  options.max_pool_size = 2;
  options.target_fraction = 0.5;  // keep 1
  options.aging_secs = 365 * kSecondsPerDay;
  BundlePool pool(options);
  SummaryIndex index;
  Bundle* stale_small = AddBundle(&pool, &index, 2, kTestEpoch);
  Bundle* fresh_big =
      AddBundle(&pool, &index, 20, kTestEpoch + kSecondsPerDay);
  BundleId keep = fresh_big->id();
  BundleId evict = stale_small->id();
  FakeArchive archive;
  ASSERT_TRUE(pool.Refine(kTestEpoch + kSecondsPerDay, &index, &archive)
                  .ok());
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_NE(pool.Get(keep), nullptr);
  EXPECT_EQ(pool.Get(evict), nullptr);
}

TEST(BundlePoolTest, EvictionRemovesSummaryIndexEntries) {
  PoolOptions options;
  options.max_pool_size = 1;
  options.target_fraction = 0.0;  // evict everything on refine
  options.aging_secs = 365 * kSecondsPerDay;
  BundlePool pool(options);
  SummaryIndex index;
  AddBundle(&pool, &index, 5, kTestEpoch);
  AddBundle(&pool, &index, 5, kTestEpoch);
  EXPECT_GT(index.num_postings(), 0u);
  FakeArchive archive;
  ASSERT_TRUE(pool.Refine(kTestEpoch, &index, &archive).ok());
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(index.num_postings(), 0u);
}

TEST(BundlePoolTest, EvictedNonTinyBundlesArchived) {
  PoolOptions options;
  options.max_pool_size = 1;
  options.target_fraction = 0.0;
  options.aging_secs = 365 * kSecondsPerDay;
  options.tiny_size = 3;
  BundlePool pool(options);
  SummaryIndex index;
  AddBundle(&pool, &index, 10, kTestEpoch);  // big: archived
  AddBundle(&pool, &index, 1, kTestEpoch);   // tiny: dropped
  FakeArchive archive;
  ASSERT_TRUE(pool.Refine(kTestEpoch, &index, &archive).ok());
  EXPECT_EQ(archive.ids.size(), 1u);
  EXPECT_EQ(archive.total_messages, 10u);
}

TEST(BundlePoolTest, TotalMessagesTracksAddAndDiscard) {
  PoolOptions options;
  options.max_pool_size = 1;
  options.target_fraction = 0.0;
  BundlePool pool(options);
  SummaryIndex index;
  AddBundle(&pool, &index, 7, kTestEpoch);
  AddBundle(&pool, &index, 3, kTestEpoch);
  EXPECT_EQ(pool.TotalMessages(), 10u);
  FakeArchive archive;
  ASSERT_TRUE(pool.Refine(kTestEpoch + 10 * kSecondsPerDay, &index,
                          &archive)
                  .ok());
  EXPECT_EQ(pool.TotalMessages(), 0u);
}

TEST(BundlePoolTest, DrainArchivesEverything) {
  BundlePool pool(PoolOptions{});
  SummaryIndex index;
  for (int i = 0; i < 5; ++i) AddBundle(&pool, &index, 4, kTestEpoch);
  FakeArchive archive;
  ASSERT_TRUE(pool.Drain(&index, &archive).ok());
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(archive.ids.size(), 5u);
  EXPECT_EQ(index.num_postings(), 0u);
}

TEST(BundlePoolTest, MemoryUsageShrinksAfterRefine) {
  PoolOptions options;
  options.max_pool_size = 4;
  options.target_fraction = 0.25;
  options.aging_secs = 365 * kSecondsPerDay;
  BundlePool pool(options);
  SummaryIndex index;
  for (int i = 0; i < 8; ++i) AddBundle(&pool, &index, 10, kTestEpoch);
  size_t before = pool.ApproxMemoryUsage();
  FakeArchive archive;
  ASSERT_TRUE(pool.Refine(kTestEpoch, &index, &archive).ok());
  EXPECT_LT(pool.ApproxMemoryUsage(), before);
}

}  // namespace
}  // namespace microprov
