// Independent Eq. 7 reference for Service::Search.
//
// Written from the paper's Eq. 7 and DESIGN.md, not from query/: it
// enumerates every live bundle (pool().bundles()) and every archived
// bundle (BundleStore::Scan) of each shard, keeps the bundles whose own
// indicant counts contain a query term, and scores them itself. It never
// consults the summary index or the archive's term index, so a bundle
// either of them loses still shows up here.
#ifndef MICROPROV_PERFBENCH_REFERENCE_H_
#define MICROPROV_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/statusor.h"
#include "query/query_processor.h"
#include "service/service.h"

namespace perfbench {

/// One bundle as the reference ranks it.
struct RankedHit {
  double score = 0.0;
  uint32_t shard = 0;
  microprov::BundleId bundle = microprov::kInvalidBundleId;
  bool archived = false;
};

/// The reference's answer for one query: every matching bundle whose
/// score can reach a correct page, best first (score descending, then
/// shard, then bundle id — the service's documented total order).
struct ReferenceRanking {
  /// Entries down to the k-th best *live* bundle (and everything tied
  /// with it within tolerance). A correct page reads every live bundle,
  /// so its hits all score at least that much and all appear here.
  std::vector<RankedHit> top;
  /// Matching bundles in total, live and archived.
  size_t total_matches = 0;
};

/// Eq. 7 as the paper states it and DESIGN.md §8 shards it:
///   r(q,B) = α·s(q,B) + β·i(q,B) + (1−α−β)·t(B)
///   s: Σ over query keywords of idf·tf/(tf+2), divided by
///      (#keywords · idf_max); idf = ln(1 + (N−df+0.5)/(df+0.5)) with N
///      the live bundles of the whole service and df the live bundles of
///      B's shard holding the keyword (both floored at 1), idf_max the
///      idf of df = 1 over max(N, 2);
///   i: share of query terms (hashtags, URLs, keywords) among B's
///      hashtags/URLs, a keyword counting when its stem or its surface
///      form is one of B's hashtags;
///   t: 1 / (1 + age / time_scale), age = now − B's last update.
class Eq7Reference {
 public:
  /// Snapshots a quiesced service (after Flush, no concurrent calls).
  static microprov::StatusOr<std::unique_ptr<Eq7Reference>> Capture(
      const microprov::Service& service);

  ReferenceRanking Rank(const std::string& text, microprov::Timestamp now,
                        size_t k,
                        const microprov::QueryWeights& weights) const;

  size_t live_bundles() const { return live_bundles_; }
  size_t archived_bundles() const {
    return bundles_.size() - live_bundles_;
  }

 private:
  struct RefBundle {
    uint32_t shard = 0;
    microprov::BundleId id = microprov::kInvalidBundleId;
    bool archived = false;
    microprov::Timestamp last_update = 0;
    /// (term, count) sorted by term; terms are this reference's own ids.
    std::vector<std::pair<uint32_t, uint32_t>> counts;
  };

  Eq7Reference() = default;
  void Add(uint32_t shard, bool archived, const microprov::Bundle& bundle);
  /// Own term id of (type, value), or UINT32_MAX when never seen.
  uint32_t Find(char type, const std::string& value) const;
  static uint32_t CountOf(const RefBundle& bundle, uint32_t term);

  std::unordered_map<std::string, uint32_t> terms_;
  std::vector<RefBundle> bundles_;
  /// term -> indexes into bundles_ of the bundles counting it.
  std::vector<std::vector<uint32_t>> postings_;
  /// (shard << 32 | keyword term) -> live bundles of that shard with it.
  std::unordered_map<uint64_t, uint32_t> live_df_;
  size_t live_bundles_ = 0;
};

/// How one returned page compares with the reference.
struct PageVerdict {
  /// False when the page breaks a property every correct page has: a
  /// score off the reference, a live bundle matching no query term, bad
  /// order, a duplicate, or a missing live bundle.
  bool correct = true;
  /// False when the page is not the true top-k over live AND archived
  /// bundles. The archive's faults show only here: archived bundles
  /// missing from the page, or archived hits matching no query term.
  bool exact = true;
  std::string why;
};

/// Relative tolerance for score comparisons: loose enough that a change
/// reassociating Eq. 7's floating-point arithmetic still passes, tight
/// enough that any real scoring change does not.
constexpr double kScoreRelTolerance = 1e-9;

PageVerdict CheckPage(
    const std::vector<microprov::BundleSearchResult>& page, size_t k,
    const ReferenceRanking& reference);

/// The page and the head of the reference, for a failed check's log.
std::string Describe(const std::vector<microprov::BundleSearchResult>& page,
                     const ReferenceRanking& reference);

}  // namespace perfbench

#endif  // MICROPROV_PERFBENCH_REFERENCE_H_
