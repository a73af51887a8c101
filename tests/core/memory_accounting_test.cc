// Pins the O(1) memory accounting: the pool's running bundle bytes and
// the dictionary's running term bytes must equal a walk over the live
// bundles and the interned terms, computed here, after every phase that
// adds, archives, evicts, drains or restores state.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/memory_usage.h"
#include "core/engine.h"
#include "storage/bundle_store.h"
#include "testing/test_util.h"

namespace microprov {
namespace {

using testing_util::kTestEpoch;
using testing_util::MakeMessage;
using testing_util::ScopedTempDir;

void ExpectAccountingExact(const ProvenanceEngine& engine,
                           const std::string& phase) {
  SCOPED_TRACE(phase);
  const BundlePool& pool = engine.pool();
  size_t bundle_bytes = 0;
  uint64_t messages = 0;
  for (const auto& [id, bundle] : pool.bundles()) {
    bundle_bytes += bundle->ApproxMemoryUsage();
    messages += bundle->size();
  }
  EXPECT_EQ(pool.approx_bytes(), bundle_bytes);
  EXPECT_EQ(pool.TotalMessages(), messages);
  EXPECT_EQ(pool.ApproxMemoryUsage(), sizeof(BundlePool) +
                                          ApproxMapOverhead(pool.bundles()) +
                                          bundle_bytes);

  const IndicantDictionary& dict = engine.dictionary();
  size_t term_bytes = 0;
  for (int t = 0; t < kNumIndicantTypes; ++t) {
    const IndicantType type = static_cast<IndicantType>(t);
    for (TermId id = 0; id < dict.NumTerms(type); ++id) {
      term_bytes +=
          sizeof(std::string) + ApproxMemoryUsage(dict.Resolve(type, id));
    }
  }
  EXPECT_EQ(dict.TermBytes(), term_bytes);
}

/// A bursty stream over a small vocabulary: topics recur so bundles grow
/// past the size cap, and long gaps age bundles out. Some terms are long
/// enough to leave the small-string buffer, so heap bytes are counted.
class AccountingStream {
 public:
  explicit AccountingStream(uint32_t seed) : rng_(seed) {}

  Message Next() {
    std::uniform_int_distribution<int> topic(0, 29);
    std::uniform_int_distribution<int> gap(0, 9);
    std::uniform_int_distribution<int> word(0, 199);
    date_ += gap(rng_) == 0 ? 3 * kSecondsPerHour : 20;
    const int t = topic(rng_);
    std::vector<std::string> keywords;
    for (int i = 0; i < 4; ++i) {
      keywords.push_back("keyword_number_" + std::to_string(word(rng_)));
    }
    ++id_;
    return MakeMessage(id_, date_, "user" + std::to_string(id_ % 97),
                       {"topic" + std::to_string(t)},
                       {"http://example.com/" + std::to_string(t)},
                       keywords);
  }

 private:
  std::mt19937 rng_;
  MessageId id_ = 0;
  Timestamp date_ = kTestEpoch;
};

EngineOptions AccountingOptions() {
  EngineOptions options =
      EngineOptions::ForConfig(IndexConfig::kBundleLimit, /*pool_limit=*/40,
                               /*bundle_cap=*/6);
  options.pool.aging_secs = kSecondsPerHour;
  options.memory.pool_bytes = 64 << 10;
  return options;
}

void IngestChecked(ProvenanceEngine* engine, SimulatedClock* clock,
                   AccountingStream* stream, int messages,
                   const std::string& phase) {
  for (int i = 0; i < messages; ++i) {
    Message msg = stream->Next();
    clock->Advance(msg.date);
    ASSERT_TRUE(engine->Ingest(msg).ok());
    if (i % 200 == 199) {
      ExpectAccountingExact(*engine, phase + " @" + std::to_string(i + 1));
    }
  }
  ExpectAccountingExact(*engine, phase);
}

TEST(MemoryAccountingTest, RunningTotalsMatchWalkThroughLifecycle) {
  ScopedTempDir dir;
  BundleStore::Options store_options;
  store_options.dir = dir.path() + "/store";
  auto store_or = BundleStore::Open(store_options);
  ASSERT_TRUE(store_or.ok());

  SimulatedClock clock(kTestEpoch);
  AccountingStream stream(17);
  ProvenanceEngine engine(AccountingOptions(), &clock, store_or->get());
  ExpectAccountingExact(engine, "empty");
  IngestChecked(&engine, &clock, &stream, 3000, "ingest");

  // Every removal path ran: tiny deletion, closed dumps to the archive,
  // and ranked evictions (count- and byte-driven).
  const PoolStats& stats = engine.pool().stats();
  EXPECT_GT(stats.bundles_deleted_tiny, 0u);
  EXPECT_GT(stats.bundles_dumped_closed, 0u);
  EXPECT_GT(stats.bundles_evicted_ranked, 0u);
  EXPECT_GT((*store_or)->bundle_count(), 0u);

  // Checkpoint round trip: a restored engine rebuilds the same totals.
  SimulatedClock restored_clock(clock.Now());
  ProvenanceEngine restored(AccountingOptions(), &restored_clock,
                            store_or->get());
  ASSERT_TRUE(restored.ImportState(engine.ExportState()).ok());
  ExpectAccountingExact(restored, "import");
  EXPECT_EQ(restored.pool().size(), engine.pool().size());
  EXPECT_EQ(restored.dictionary().TermBytes(),
            engine.dictionary().TermBytes());

  IngestChecked(&restored, &restored_clock, &stream, 1000, "after import");

  ASSERT_TRUE(restored.Drain().ok());
  ExpectAccountingExact(restored, "drain");
  EXPECT_EQ(restored.pool().approx_bytes(), 0u);
  EXPECT_EQ(restored.pool().TotalMessages(), 0u);
}

}  // namespace
}  // namespace microprov
