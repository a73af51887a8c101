#include "core/bundle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "storage/bundle_codec.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;

using WordCounts = std::vector<std::pair<std::string, uint32_t>>;

/// Independent summary-word oracle: every keyword resolved, fully sorted
/// by (count desc, word asc), then cut to k.
WordCounts FullSortTopKeywords(const Bundle& bundle, size_t k) {
  WordCounts all = bundle.ResolvedCounts(IndicantType::kKeyword);
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  all.resize(std::min(k, all.size()));
  return all;
}

/// Adds one message per keyword list (each list within the per-message
/// summary cap), so the bundle's keyword counts are chosen by the test.
void AddKeywordMessages(Bundle* bundle,
                        const std::vector<std::vector<std::string>>& lists) {
  MessageId id = static_cast<MessageId>(bundle->size()) + 1;
  for (const auto& keywords : lists) {
    bundle->AddMessage(MakeMessage(id, kTestEpoch, "u", {}, {}, keywords),
                       bundle->empty() ? kInvalidMessageId : 1,
                       ConnectionType::kText, 0);
    ++id;
  }
}

TEST(BundleTest, EmptyBundle) {
  Bundle bundle(1);
  EXPECT_EQ(bundle.id(), 1u);
  EXPECT_EQ(bundle.size(), 0u);
  EXPECT_TRUE(bundle.empty());
  EXPECT_FALSE(bundle.closed());
}

TEST(BundleTest, AddMessageTracksTimeRange) {
  Bundle bundle(1);
  bundle.AddMessage(MakeMessage(1, kTestEpoch + 100, "a"),
                    kInvalidMessageId, ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(2, kTestEpoch + 50, "b"), 1,
                    ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(3, kTestEpoch + 500, "c"), 1,
                    ConnectionType::kText, 0);
  EXPECT_EQ(bundle.start_time(), kTestEpoch + 50);
  EXPECT_EQ(bundle.end_time(), kTestEpoch + 500);
  EXPECT_EQ(bundle.last_update(), kTestEpoch + 500);
  EXPECT_EQ(bundle.size(), 3u);
}

TEST(BundleTest, SummaryCountsAccumulate) {
  Bundle bundle(1);
  bundle.AddMessage(
      MakeMessage(1, kTestEpoch, "alice", {"redsox", "mlb"},
                  {"bit.ly/1"}, {"game"}),
      kInvalidMessageId, ConnectionType::kText, 0);
  bundle.AddMessage(
      MakeMessage(2, kTestEpoch, "bob", {"redsox"}, {}, {"game", "win"}),
      1, ConnectionType::kHashtag, 0);
  EXPECT_EQ(bundle.CountOf(IndicantType::kHashtag, "redsox"), 2u);
  EXPECT_EQ(bundle.CountOf(IndicantType::kHashtag, "mlb"), 1u);
  EXPECT_EQ(bundle.CountOf(IndicantType::kUrl, "bit.ly/1"), 1u);
  EXPECT_EQ(bundle.CountOf(IndicantType::kKeyword, "game"), 2u);
  EXPECT_EQ(bundle.CountOf(IndicantType::kUser, "alice"), 1u);
  EXPECT_TRUE(bundle.HasUser("bob"));
  EXPECT_FALSE(bundle.HasUser("carol"));
}

TEST(BundleTest, KeywordSummaryCapPerMessage) {
  Bundle bundle(1);
  std::vector<std::string> many_keywords;
  for (int i = 0; i < 20; ++i) {
    many_keywords.push_back("kw" + std::to_string(i));
  }
  bundle.AddMessage(MakeMessage(1, kTestEpoch, "u", {}, {}, many_keywords),
                    kInvalidMessageId, ConnectionType::kText, 0);
  EXPECT_EQ(bundle.id_counts(IndicantType::kKeyword).size(),
            Bundle::kSummaryKeywordsPerMessage);
}

TEST(BundleTest, FindLocatesMessages) {
  Bundle bundle(1);
  bundle.AddMessage(MakeMessage(10, kTestEpoch, "a"), kInvalidMessageId,
                    ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(20, kTestEpoch, "b"), 10,
                    ConnectionType::kRt, 1.0f);
  const BundleMessage* found = bundle.Find(20);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->msg.user, "b");
  EXPECT_EQ(found->parent, 10);
  EXPECT_EQ(bundle.Find(999), nullptr);
}

TEST(BundleTest, EdgesExcludeRoot) {
  Bundle bundle(1);
  bundle.AddMessage(MakeMessage(1, kTestEpoch, "a"), kInvalidMessageId,
                    ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(2, kTestEpoch, "b"), 1,
                    ConnectionType::kUrl, 0.7f);
  bundle.AddMessage(MakeMessage(3, kTestEpoch, "c"), 1,
                    ConnectionType::kRt, 1.0f);
  auto edges = bundle.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].parent, 1);
  EXPECT_EQ(edges[0].child, 2);
  EXPECT_EQ(edges[0].type, ConnectionType::kUrl);
  EXPECT_EQ(edges[1].child, 3);
}

TEST(BundleTest, TopKeywordsOrderedByCount) {
  Bundle bundle(1);
  bundle.AddMessage(
      MakeMessage(1, kTestEpoch, "a", {}, {}, {"win", "game"}),
      kInvalidMessageId, ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(2, kTestEpoch, "b", {}, {}, {"game"}), 1,
                    ConnectionType::kText, 0);
  bundle.AddMessage(MakeMessage(3, kTestEpoch, "c", {}, {}, {"game"}), 1,
                    ConnectionType::kText, 0);
  auto top = bundle.TopKeywords(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "game");
  EXPECT_EQ(top[0].second, 3u);
  EXPECT_EQ(top[1].first, "win");
}

TEST(BundleTest, TopKeywordsTieBreaksLexicographically) {
  Bundle bundle(1);
  bundle.AddMessage(
      MakeMessage(1, kTestEpoch, "a", {}, {}, {"zebra", "apple"}),
      kInvalidMessageId, ConnectionType::kText, 0);
  auto top = bundle.TopKeywords(10);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "apple");
}

TEST(BundleTest, TopKeywordsZeroKIsEmpty) {
  Bundle bundle(1);
  AddKeywordMessages(&bundle, {{"game", "win"}});
  EXPECT_TRUE(bundle.TopKeywords(0).empty());
}

TEST(BundleTest, TopKeywordsKLargerThanVocabularyReturnsAll) {
  Bundle bundle(1);
  AddKeywordMessages(&bundle, {{"game", "win", "loss"}, {"win"}});
  const WordCounts top = bundle.TopKeywords(50);
  EXPECT_EQ(top, (WordCounts{{"win", 2}, {"game", 1}, {"loss", 1}}));
  EXPECT_EQ(top, FullSortTopKeywords(bundle, 50));
}

TEST(BundleTest, TopKeywordsTiesStraddlingKthSlotBreakByWord) {
  Bundle bundle(1);
  // alpha 3; echo, delta, charlie, bravo 2 each; zulu 1. The k = 3 cut
  // falls inside the count-2 tie, which the word order settles.
  AddKeywordMessages(&bundle, {{"echo", "delta", "alpha", "zulu"},
                               {"charlie", "bravo", "alpha"},
                               {"bravo", "charlie", "delta", "echo", "alpha"}});
  EXPECT_EQ(bundle.TopKeywords(3),
            (WordCounts{{"alpha", 3}, {"bravo", 2}, {"charlie", 2}}));
  for (size_t k = 0; k <= 7; ++k) {
    EXPECT_EQ(bundle.TopKeywords(k), FullSortTopKeywords(bundle, k)) << k;
  }
}

TEST(BundleTest, TopKeywordsMatchesFullSortOracle) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> word(0, 39);
  std::uniform_int_distribution<int> per_message(1, 6);
  for (int trial = 0; trial < 20; ++trial) {
    Bundle bundle(1);
    std::vector<std::vector<std::string>> lists;
    for (int m = 0; m < 30; ++m) {
      std::vector<std::string> keywords;
      const int n = per_message(rng);
      for (int i = 0; i < n; ++i) {
        keywords.push_back("w" + std::to_string(word(rng) % (trial + 2)));
      }
      lists.push_back(std::move(keywords));
    }
    AddKeywordMessages(&bundle, lists);
    for (size_t k : {0, 1, 2, 5, 10, 17, 100}) {
      EXPECT_EQ(bundle.TopKeywords(k), FullSortTopKeywords(bundle, k))
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(BundleTest, TopKeywordsOnDecodedArchiveBundle) {
  // The live bundle shares a dictionary whose ids are offset by earlier
  // terms; the decoded copy interns into its own private dictionary, so
  // the two select over different id spaces.
  IndicantDictionary shared;
  for (const char* word : {"zeta", "theta", "iota"}) {
    shared.Intern(IndicantType::kKeyword, word);
  }
  Bundle live(9, &shared);
  AddKeywordMessages(&live, {{"storm", "flood", "river"},
                             {"flood", "warning"},
                             {"river", "flood", "storm", "levee"}});
  std::string encoded;
  EncodeBundle(live, &encoded);
  auto decoded_or = DecodeBundle(encoded);
  ASSERT_TRUE(decoded_or.ok());
  const Bundle& decoded = **decoded_or;
  ASSERT_NE(&decoded.dictionary(), &shared);
  for (size_t k : {0, 1, 3, 10}) {
    EXPECT_EQ(decoded.TopKeywords(k), live.TopKeywords(k)) << k;
    EXPECT_EQ(decoded.TopKeywords(k), FullSortTopKeywords(decoded, k)) << k;
  }
  EXPECT_EQ(decoded.TopKeywords(2), (WordCounts{{"flood", 3}, {"river", 2}}));
}

TEST(BundleTest, CloseMarksClosed) {
  Bundle bundle(1);
  bundle.Close();
  EXPECT_TRUE(bundle.closed());
}

TEST(BundleTest, MemoryUsageGrowsWithMessages) {
  Bundle bundle(1);
  size_t base = bundle.ApproxMemoryUsage();
  for (int i = 0; i < 100; ++i) {
    bundle.AddMessage(
        MakeMessage(i, kTestEpoch, "user_with_a_longish_name",
                    {"hashtag_value"}, {}, {"keyword_value"}),
        kInvalidMessageId, ConnectionType::kText, 0);
  }
  EXPECT_GT(bundle.ApproxMemoryUsage(), base + 100 * sizeof(BundleMessage));
}

}  // namespace
}  // namespace microprov
