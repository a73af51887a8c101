#ifndef MICROPROV_CORE_INDICANT_DICTIONARY_H_
#define MICROPROV_CORE_INDICANT_DICTIONARY_H_

#include <string>
#include <string_view>

#include "core/indicant.h"
#include "obs/metrics.h"
#include "stream/message.h"
#include "text/vocabulary.h"

namespace microprov {

/// Per-shard interning table for connection indicants: one dense TermId
/// space per IndicantType. Strings cross it exactly once — inward at
/// ingest (Intern/InternMessage) and outward at the query/trace/store
/// boundary (Resolve); everything between (summary-index postings, Eq. 1
/// hit counting, Alg. 2 placement, pool refinement) runs on TermId32.
///
/// Single-writer like the engine that owns it: Intern/InternMessage are
/// not thread-safe. In the sharded service each shard worker owns one
/// dictionary; cross-shard readers (query fan-out) are synchronized by
/// the service's flush barrier.
class IndicantDictionary {
 public:
  IndicantDictionary() = default;
  IndicantDictionary(const IndicantDictionary&) = delete;
  IndicantDictionary& operator=(const IndicantDictionary&) = delete;

  /// Returns the id for `value` in `type`'s id space, interning if new.
  TermId Intern(IndicantType type, std::string_view value) {
    bool added;
    TermId id = vocabs_[static_cast<size_t>(type)].GetOrAdd(value, &added);
    added ? ++misses_ : ++hits_;
    return id;
  }

  /// Returns the id for `value` or kInvalidTermId if never interned.
  TermId Find(IndicantType type, std::string_view value) const {
    return vocabs_[static_cast<size_t>(type)].Find(value);
  }

  /// The surface form behind `id`. Requires id < NumTerms(type). The
  /// reference stays valid for the dictionary's lifetime.
  const std::string& Resolve(IndicantType type, TermId id) const {
    return vocabs_[static_cast<size_t>(type)].TermOf(id);
  }

  size_t NumTerms(IndicantType type) const {
    return vocabs_[static_cast<size_t>(type)].size();
  }

  size_t TotalTerms() const {
    size_t total = 0;
    for (const Vocabulary& vocab : vocabs_) total += vocab.size();
    return total;
  }

  /// Interns every indicant of `msg` (all keywords — per-structure caps
  /// are applied by consumers) and stamps msg->term_ids with this
  /// dictionary as the source. Idempotent when already stamped by this
  /// dictionary; re-stamps from scratch when stamped by another.
  void InternMessage(Message* msg);

  /// Sum of Vocabulary::term_bytes() over the id spaces. O(1).
  size_t TermBytes() const {
    size_t total = 0;
    for (const Vocabulary& vocab : vocabs_) total += vocab.term_bytes();
    return total;
  }

  /// O(1): running term totals plus the lookup tables.
  size_t ApproxMemoryUsage() const;

  /// Registers `microprov_dictionary_terms` (per-shard gauge) and the
  /// shared interning hit/miss counters. Registry must outlive the
  /// dictionary. Flushes lookup tallies accumulated so far.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& shard_label);

 private:
  void PublishMetrics();

  Vocabulary vocabs_[kNumIndicantTypes];
  // Lookup tallies buffered locally; published to the (shared, atomic)
  // counters in batches so interning costs no atomics per indicant.
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;

  // Observability handles (null until BindMetrics; never owned).
  obs::Gauge* terms_gauge_ = nullptr;
  obs::Counter* hits_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
};

}  // namespace microprov

#endif  // MICROPROV_CORE_INDICANT_DICTIONARY_H_
