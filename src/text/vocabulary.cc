#include "text/vocabulary.h"

#include "common/memory_usage.h"

namespace microprov {

TermId Vocabulary::GetOrAdd(std::string_view term, bool* added) {
  auto it = ids_.find(term);
  if (it != ids_.end()) {
    *added = false;
    return it->second;
  }
  TermId id = static_cast<TermId>(terms_.size());
  terms_.emplace_back(term);
  ids_.emplace(terms_.back(), id);
  // Interned strings never change, so their footprint is final here.
  term_bytes_ +=
      sizeof(std::string) + ::microprov::ApproxMemoryUsage(terms_.back());
  *added = true;
  return id;
}

size_t Vocabulary::ApproxMemoryUsage() const {
  return ApproxMapOverhead(ids_) + term_bytes_;
}

}  // namespace microprov
