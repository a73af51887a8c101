#ifndef MICROPROV_TEXT_VOCABULARY_H_
#define MICROPROV_TEXT_VOCABULARY_H_

#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/hash.h"
#include "text/term_id.h"

namespace microprov {

/// String interning table: term -> dense TermId and back. The text-search
/// substrate and the provenance summary index key posting lists by TermId
/// to avoid hashing strings on the hot path. Append-only; ids are assigned
/// in first-seen order.
///
/// Lookups are heterogeneous (string_view probes, no temporary
/// std::string) and the term storage is a deque so interned strings never
/// move: the map's string_view keys point into it, and references returned
/// by TermOf stay valid across later insertions.
class Vocabulary {
 public:
  Vocabulary() = default;
  Vocabulary(const Vocabulary&) = delete;
  Vocabulary& operator=(const Vocabulary&) = delete;

  /// Returns the id for `term`, interning it if new.
  TermId GetOrAdd(std::string_view term) {
    bool added;
    return GetOrAdd(term, &added);
  }

  /// As above; `*added` reports whether the term was newly interned.
  TermId GetOrAdd(std::string_view term, bool* added);

  /// Returns the id for `term` or kInvalidTermId if unseen.
  TermId Find(std::string_view term) const {
    auto it = ids_.find(term);
    return it == ids_.end() ? kInvalidTermId : it->second;
  }

  /// Requires id < size().
  const std::string& TermOf(TermId id) const { return terms_[id]; }

  size_t size() const { return terms_.size(); }

  /// Bytes held by the interned strings themselves (deque slot plus any
  /// heap buffer), kept as a running total by GetOrAdd. O(1).
  size_t term_bytes() const { return term_bytes_; }

  /// term_bytes() plus the lookup table. O(1).
  size_t ApproxMemoryUsage() const;

 private:
  // Keys view into terms_ (stable: deque never relocates elements).
  std::unordered_map<std::string_view, TermId, TransparentStringHash,
                     std::equal_to<>>
      ids_;
  std::deque<std::string> terms_;
  size_t term_bytes_ = 0;
};

}  // namespace microprov

#endif  // MICROPROV_TEXT_VOCABULARY_H_
