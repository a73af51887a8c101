#include "core/pool.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/scoring.h"

namespace microprov {

Bundle* BundlePool::Create() {
  BundleId id = next_id_++;
  auto [it, inserted] =
      bundles_.emplace(id, std::make_unique<Bundle>(id, dict_));
  ++stats_.bundles_created;
  approx_bytes_ += it->second->ApproxMemoryUsage();
  if (created_counter_ != nullptr) created_counter_->Increment();
  SetSizeGauge();
  return it->second.get();
}

Bundle* BundlePool::Adopt(std::unique_ptr<Bundle> bundle) {
  const BundleId id = bundle->id();
  total_messages_ += bundle->size();
  approx_bytes_ += bundle->ApproxMemoryUsage();
  ReserveIdsThrough(id);
  auto [it, inserted] = bundles_.emplace(id, std::move(bundle));
  SetSizeGauge();
  if (messages_gauge_ != nullptr) {
    messages_gauge_->Set(static_cast<int64_t>(total_messages_));
  }
  return inserted ? it->second.get() : nullptr;
}

void BundlePool::BindMetrics(obs::MetricsRegistry* registry,
                             const std::string& shard_label) {
  created_counter_ =
      registry->GetCounter("microprov_pool_created_total", "",
                           "Bundles created across all shards");
  closed_counter_ =
      registry->GetCounter("microprov_pool_closed_total", "",
                           "Bundles closed by the size cap");
  evicted_tiny_counter_ = registry->GetCounter(
      "microprov_pool_evictions_total", "reason=\"aging_tiny\"",
      "Bundles leaving memory, by Alg. 3 eviction reason");
  evicted_closed_counter_ = registry->GetCounter(
      "microprov_pool_evictions_total", "reason=\"aging_closed\"");
  evicted_rank_counter_ = registry->GetCounter(
      "microprov_pool_evictions_total", "reason=\"rank\"");
  refinements_counter_ =
      registry->GetCounter("microprov_pool_refinements_total", "",
                           "Alg. 3 refinement passes");
  size_gauge_ = registry->GetGauge("microprov_pool_bundles", shard_label,
                                   "Live bundles in this shard's pool");
  messages_gauge_ =
      registry->GetGauge("microprov_pool_messages", shard_label,
                         "Messages held in this shard's live bundles");
  SetSizeGauge();
  if (messages_gauge_ != nullptr) {
    messages_gauge_->Set(static_cast<int64_t>(total_messages_));
  }
}

void BundlePool::AddMessage(Bundle* bundle, Message msg, MessageId parent,
                            ConnectionType type, float score) {
  const size_t bytes_before = bundle->ApproxMemoryUsage();
  bundle->AddMessage(std::move(msg), parent, type, score);
  approx_bytes_ += bundle->ApproxMemoryUsage() - bytes_before;
  ++total_messages_;
  if (messages_gauge_ != nullptr) {
    messages_gauge_->Set(static_cast<int64_t>(total_messages_));
  }
}

Bundle* BundlePool::Get(BundleId id) {
  auto it = bundles_.find(id);
  return it == bundles_.end() ? nullptr : it->second.get();
}

const Bundle* BundlePool::Get(BundleId id) const {
  auto it = bundles_.find(id);
  return it == bundles_.end() ? nullptr : it->second.get();
}

Status BundlePool::Discard(Bundle* bundle, SummaryIndex* index,
                           BundleArchive* archive, bool archive_it) {
  if (index != nullptr) index->RemoveBundle(*bundle);
  if (archive_it && archive != nullptr) {
    MICROPROV_RETURN_IF_ERROR(archive->Put(*bundle));
  }
  total_messages_ -= bundle->size();
  approx_bytes_ -= bundle->ApproxMemoryUsage();
  if (removal_listener_) removal_listener_(bundle->id());
  bundles_.erase(bundle->id());
  SetSizeGauge();
  if (messages_gauge_ != nullptr) {
    messages_gauge_->Set(static_cast<int64_t>(total_messages_));
  }
  return Status::OK();
}

Status BundlePool::Refine(Timestamp now, SummaryIndex* index,
                          BundleArchive* archive,
                          size_t min_rank_evictions) {
  ++stats_.refinement_runs;
  if (refinements_counter_ != nullptr) refinements_counter_->Increment();

  // Stage 1 (Alg. 3 lines 1-13): aging tiny bundles die, aging closed
  // bundles are dumped to disk, everything else is scored by G.
  std::vector<std::pair<double, BundleId>> waiting;
  std::vector<Bundle*> delete_tiny;
  std::vector<Bundle*> dump_closed;
  waiting.reserve(bundles_.size());
  for (auto& [id, bundle] : bundles_) {
    const bool aging = now - bundle->last_update() > options_.aging_secs;
    if (aging && bundle->size() < options_.tiny_size) {
      delete_tiny.push_back(bundle.get());
    } else if (aging && bundle->closed()) {
      dump_closed.push_back(bundle.get());
    } else {
      waiting.emplace_back(GScore(*bundle, now), id);
    }
  }
  for (Bundle* bundle : delete_tiny) {
    MICROPROV_RETURN_IF_ERROR(
        Discard(bundle, index, archive, /*archive_it=*/false));
    ++stats_.bundles_deleted_tiny;
    if (evicted_tiny_counter_ != nullptr) {
      evicted_tiny_counter_->Increment();
    }
  }
  for (Bundle* bundle : dump_closed) {
    MICROPROV_RETURN_IF_ERROR(
        Discard(bundle, index, archive, /*archive_it=*/true));
    ++stats_.bundles_dumped_closed;
    if (evicted_closed_counter_ != nullptr) {
      evicted_closed_counter_->Increment();
    }
  }

  // Stage 2 (lines 14-20): evict by descending G until the pool reaches
  // its target size — in count, in bytes (when a byte ceiling is set),
  // and honoring a forced minimum from external memory pressure.
  const size_t count_target =
      options_.max_pool_size > 0
          ? static_cast<size_t>(
                static_cast<double>(options_.max_pool_size) *
                options_.target_fraction)
          : std::numeric_limits<size_t>::max();
  const size_t byte_target =
      options_.max_pool_bytes > 0
          ? static_cast<size_t>(
                static_cast<double>(options_.max_pool_bytes) *
                options_.target_fraction)
          : std::numeric_limits<size_t>::max();
  const auto above_target = [&] {
    return bundles_.size() > count_target || approx_bytes_ > byte_target;
  };
  if (!above_target() && min_rank_evictions == 0) return Status::OK();

  std::sort(waiting.begin(), waiting.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;  // deterministic ties
            });
  size_t evicted = 0;
  for (const auto& [g, id] : waiting) {
    if (!above_target() && evicted >= min_rank_evictions) break;
    Bundle* bundle = Get(id);
    if (bundle == nullptr) continue;
    const bool archive_it =
        options_.archive_evicted && bundle->size() >= options_.tiny_size;
    MICROPROV_RETURN_IF_ERROR(Discard(bundle, index, archive, archive_it));
    ++evicted;
    ++stats_.bundles_evicted_ranked;
    if (evicted_rank_counter_ != nullptr) {
      evicted_rank_counter_->Increment();
    }
  }
  return Status::OK();
}

Status BundlePool::Drain(SummaryIndex* index, BundleArchive* archive) {
  std::vector<Bundle*> all;
  all.reserve(bundles_.size());
  for (auto& [id, bundle] : bundles_) all.push_back(bundle.get());
  for (Bundle* bundle : all) {
    MICROPROV_RETURN_IF_ERROR(
        Discard(bundle, index, archive, /*archive_it=*/true));
  }
  return Status::OK();
}

}  // namespace microprov
