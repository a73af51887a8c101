#include "reference.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cmath>
#include <limits>
#include <set>
#include <utility>

#include "storage/bundle_store.h"

namespace perfbench {

using microprov::Bundle;
using microprov::BundleSearchResult;
using microprov::IndicantType;
using microprov::Status;
using microprov::Timestamp;

namespace {

constexpr uint32_t kNoTerm = std::numeric_limits<uint32_t>::max();

double Idf(double n, double df) {
  return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
}

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         kScoreRelTolerance * std::max({std::fabs(a), std::fabs(b), 1e-12});
}

/// Strictly better in the service's total order, with scores equal
/// within tolerance treated as ties (so a reassociated sum that flips
/// two near-equal scores is not flagged).
bool ClearlyAbove(double score, double than) {
  return score > than && !Close(score, than);
}

}  // namespace

microprov::StatusOr<std::unique_ptr<Eq7Reference>> Eq7Reference::Capture(
    const microprov::Service& service) {
  std::unique_ptr<Eq7Reference> ref(new Eq7Reference());
  const microprov::ShardedEngine& sharded = service.sharded();
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const uint32_t shard = static_cast<uint32_t>(s);
    const microprov::ProvenanceEngine& engine = sharded.shard(s);
    for (const auto& [id, bundle] : engine.pool().bundles()) {
      ref->Add(shard, /*archived=*/false, *bundle);
    }
    auto* store = dynamic_cast<microprov::BundleStore*>(engine.archive());
    if (store != nullptr) {
      Status scanned = store->Scan([&](const Bundle& bundle) {
        ref->Add(shard, /*archived=*/true, bundle);
        return Status::OK();
      });
      if (!scanned.ok()) return scanned;
    }
  }
  return ref;
}

void Eq7Reference::Add(uint32_t shard, bool archived, const Bundle& bundle) {
  RefBundle rb;
  rb.shard = shard;
  rb.id = bundle.id();
  rb.archived = archived;
  rb.last_update = bundle.last_update();
  const std::pair<IndicantType, char> types[] = {
      {IndicantType::kKeyword, 'k'},
      {IndicantType::kHashtag, 'h'},
      {IndicantType::kUrl, 'u'}};
  for (const auto& [type, tag] : types) {
    for (const auto& [value, count] : bundle.ResolvedCounts(type)) {
      if (count == 0) continue;
      auto [it, inserted] = terms_.try_emplace(
          std::string(1, tag) + value, static_cast<uint32_t>(terms_.size()));
      if (inserted) postings_.emplace_back();
      rb.counts.emplace_back(it->second, count);
      if (type == IndicantType::kKeyword && !archived) {
        ++live_df_[(uint64_t{shard} << 32) | it->second];
      }
    }
  }
  std::sort(rb.counts.begin(), rb.counts.end());
  const uint32_t index = static_cast<uint32_t>(bundles_.size());
  for (const auto& [term, count] : rb.counts) {
    postings_[term].push_back(index);
  }
  if (!archived) ++live_bundles_;
  bundles_.push_back(std::move(rb));
}

uint32_t Eq7Reference::Find(char type, const std::string& value) const {
  auto it = terms_.find(std::string(1, type) + value);
  return it == terms_.end() ? kNoTerm : it->second;
}

uint32_t Eq7Reference::CountOf(const RefBundle& bundle, uint32_t term) {
  if (term == kNoTerm) return 0;
  auto it = std::lower_bound(bundle.counts.begin(), bundle.counts.end(),
                             std::make_pair(term, uint32_t{0}));
  return it != bundle.counts.end() && it->first == term ? it->second : 0;
}

ReferenceRanking Eq7Reference::Rank(
    const std::string& text, Timestamp now, size_t k,
    const microprov::QueryWeights& weights) const {
  const microprov::ParsedQuery parsed = microprov::ParseQuery(text);
  std::vector<uint32_t> keyword_terms, stem_tags, raw_tags, tag_terms,
      url_terms;
  for (size_t i = 0; i < parsed.keywords.size(); ++i) {
    keyword_terms.push_back(Find('k', parsed.keywords[i]));
    stem_tags.push_back(Find('h', parsed.keywords[i]));
    raw_tags.push_back(i < parsed.raw_words.size()
                           ? Find('h', parsed.raw_words[i])
                           : kNoTerm);
  }
  for (const std::string& tag : parsed.hashtags) {
    tag_terms.push_back(Find('h', tag));
  }
  for (const std::string& url : parsed.urls) {
    url_terms.push_back(Find('u', url));
  }

  std::vector<uint32_t> matches;
  for (const auto* terms :
       {&keyword_terms, &stem_tags, &raw_tags, &tag_terms, &url_terms}) {
    for (uint32_t term : *terms) {
      if (term == kNoTerm) continue;
      matches.insert(matches.end(), postings_[term].begin(),
                     postings_[term].end());
    }
  }
  std::sort(matches.begin(), matches.end());
  matches.erase(std::unique(matches.begin(), matches.end()), matches.end());

  const double n = static_cast<double>(std::max<size_t>(live_bundles_, 1));
  const double idf_max =
      Idf(static_cast<double>(std::max<size_t>(live_bundles_, 2)), 1.0);
  const double gamma = 1.0 - weights.alpha_text - weights.beta_indicant;
  const size_t num_terms =
      parsed.keywords.size() + parsed.hashtags.size() + parsed.urls.size();

  std::vector<RankedHit> ranked;
  ranked.reserve(matches.size());
  for (uint32_t index : matches) {
    const RefBundle& b = bundles_[index];
    double text_score = 0.0;
    if (!keyword_terms.empty() && idf_max > 0.0) {
      for (uint32_t term : keyword_terms) {
        const uint32_t tf = CountOf(b, term);
        if (tf == 0) continue;
        auto df_it = live_df_.find((uint64_t{b.shard} << 32) | term);
        const double df =
            df_it == live_df_.end() ? 1.0 : std::max(1.0, double(df_it->second));
        text_score += Idf(n, df) * (tf / (tf + 2.0));
      }
      text_score /= static_cast<double>(keyword_terms.size()) * idf_max;
    }
    size_t hits = 0;
    for (uint32_t term : tag_terms) hits += CountOf(b, term) > 0;
    for (uint32_t term : url_terms) hits += CountOf(b, term) > 0;
    for (size_t i = 0; i < keyword_terms.size(); ++i) {
      hits += CountOf(b, stem_tags[i]) > 0 || CountOf(b, raw_tags[i]) > 0;
    }
    const double indicant =
        num_terms == 0 ? 0.0 : double(hits) / double(num_terms);
    const double age =
        static_cast<double>(std::max<Timestamp>(0, now - b.last_update));
    const double fresh = 1.0 / (age / weights.time_scale_secs + 1.0);
    ranked.push_back(RankedHit{weights.alpha_text * text_score +
                                   weights.beta_indicant * indicant +
                                   gamma * fresh,
                               b.shard, b.id, b.archived});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedHit& a, const RankedHit& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.bundle < b.bundle;
            });

  ReferenceRanking out;
  out.total_matches = ranked.size();
  // Keep everything down to the k-th live bundle, plus its ties.
  size_t live_seen = 0;
  double kth_live = 0.0;
  size_t keep = 0;
  for (; keep < ranked.size(); ++keep) {
    const RankedHit& hit = ranked[keep];
    if (live_seen >= k && ClearlyAbove(kth_live, hit.score)) break;
    if (!hit.archived && ++live_seen == k) kth_live = hit.score;
  }
  ranked.resize(keep);
  out.top = std::move(ranked);
  return out;
}

PageVerdict CheckPage(const std::vector<BundleSearchResult>& page, size_t k,
                      const ReferenceRanking& reference) {
  PageVerdict verdict;
  auto fail = [&](std::string why) {
    verdict.correct = false;
    verdict.exact = false;
    if (verdict.why.empty()) verdict.why = std::move(why);
  };
  // Faults confined to archived bundles make the page inexact (a failed
  // operation), not the run incorrect.
  auto inexact = [&](std::string why) {
    verdict.exact = false;
    if (verdict.why.empty()) verdict.why = std::move(why);
  };
  if (page.size() > k) fail("page longer than k");
  std::set<std::pair<uint32_t, microprov::BundleId>> on_page;
  for (size_t i = 0; i < page.size(); ++i) {
    const BundleSearchResult& hit = page[i];
    if (!on_page.emplace(hit.shard, hit.bundle).second) {
      fail("duplicate hit");
    }
    if (i > 0) {
      const BundleSearchResult& prev = page[i - 1];
      const bool ordered =
          prev.score > hit.score ||
          (prev.score == hit.score &&
           (prev.shard < hit.shard ||
            (prev.shard == hit.shard && prev.bundle < hit.bundle)));
      if (!ordered) fail("page out of order");
    }
    auto it = std::find_if(reference.top.begin(), reference.top.end(),
                           [&](const RankedHit& ref) {
                             return ref.shard == hit.shard &&
                                    ref.bundle == hit.bundle;
                           });
    if (it == reference.top.end()) {
      // Not among the bundles a correct page can hold: it matches no
      // query term, or scores below the k-th live bundle.
      if (hit.archived) {
        inexact("archived hit matches no query term");
      } else {
        fail("live hit matches no query term or ranks below the live top-k");
      }
    } else if (!Close(it->score, hit.score)) {
      fail("hit score differs from the reference score");
    } else if (it->archived != hit.archived) {
      fail("hit archived flag differs from where the bundle lives");
    }
  }
  if (!verdict.correct) return verdict;

  // A bundle the reference ranks clearly above the page's last hit (or
  // any matching bundle, when the page is short) must be on the page.
  const bool short_page = page.size() < k;
  const double last = page.empty() ? 0.0 : page.back().score;
  for (const RankedHit& ref : reference.top) {
    if (!short_page && !ClearlyAbove(ref.score, last)) break;
    if (on_page.count({ref.shard, ref.bundle}) > 0) continue;
    if (!ref.archived) {
      fail("a live bundle ranked above the page's last hit is missing");
      return verdict;
    }
    inexact("an archived bundle ranked above the last hit is missing");
  }
  if (page.size() != std::min(k, reference.total_matches)) {
    inexact("page length differs from the true top-k");
  }
  return verdict;
}

std::string Describe(const std::vector<BundleSearchResult>& page,
                     const ReferenceRanking& reference) {
  std::string out = "  page:";
  char buf[128];
  for (const BundleSearchResult& hit : page) {
    std::snprintf(buf, sizeof(buf), " %u/%" PRId64 "%s=%.17g", hit.shard,
                  hit.bundle, hit.archived ? "a" : "", hit.score);
    out += buf;
  }
  out += "\n  reference (" + std::to_string(reference.total_matches) +
         " matches):";
  for (size_t i = 0; i < reference.top.size() && i < 2 * page.size() + 4;
       ++i) {
    const RankedHit& ref = reference.top[i];
    std::snprintf(buf, sizeof(buf), " %u/%" PRId64 "%s=%.17g", ref.shard,
                  ref.bundle, ref.archived ? "a" : "", ref.score);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
