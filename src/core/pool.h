#ifndef MICROPROV_CORE_POOL_H_
#define MICROPROV_CORE_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "common/clock.h"
#include "common/memory_usage.h"
#include "common/status.h"
#include "core/bundle.h"
#include "core/summary_index.h"
#include "obs/metrics.h"

namespace microprov {

/// Destination for bundles leaving memory (the paper's on-disk storage
/// back-end). Implemented by storage::BundleStore; tests may use a mock.
class BundleArchive {
 public:
  virtual ~BundleArchive() = default;
  virtual Status Put(const Bundle& bundle) = 0;
  /// Largest bundle id the archive has seen (0 when empty). A restarted
  /// engine resumes id allocation above this so archived and live ids
  /// never collide.
  virtual BundleId MaxBundleId() const { return 0; }
};

/// Knobs for Alg. 3's refinement process and the bundle-size constraint.
struct PoolOptions {
  /// "Limitation of Bundle Pool Size M": refinement triggers when the
  /// in-memory bundle count exceeds this. 0 disables refinement entirely
  /// (the Full Index baseline).
  size_t max_pool_size = 10000;
  /// Byte ceiling on the pool's bundle footprint (0 = unbounded).
  /// Refinement also triggers when the incrementally tracked bundle
  /// bytes exceed this, so memory is bounded even when bundles grow
  /// large at a small count. Set from EngineOptions::memory.pool_bytes;
  /// Alg. 3's count-based M stays the primary knob.
  size_t max_pool_bytes = 0;
  /// After a refinement pass the pool is reduced to this fraction of
  /// max_pool_size, so scans don't re-trigger on every insertion.
  double target_fraction = 0.8;
  /// "Bundle Refine Time T": bundles idle longer than this are aging.
  Timestamp aging_secs = 24 * kSecondsPerHour;
  /// "Bundle Refining Size R": aging bundles smaller than this are deleted
  /// outright (aging tiny ones).
  size_t tiny_size = 3;
  /// Bundle-size constraint: bundles reaching this size are closed to new
  /// messages and flushed on the next scan. 0 disables the cap (Full and
  /// Partial Index configurations).
  size_t max_bundle_size = 0;
  /// Evicted (non-tiny) bundles are dumped to the archive when one is
  /// attached; tiny ones are always dropped.
  bool archive_evicted = true;
};

/// Counters reported by the figure harnesses.
struct PoolStats {
  uint64_t bundles_created = 0;
  uint64_t bundles_deleted_tiny = 0;
  uint64_t bundles_dumped_closed = 0;
  uint64_t bundles_evicted_ranked = 0;
  uint64_t refinement_runs = 0;
  uint64_t bundles_closed = 0;
};

/// In-memory bundle pool plus Alg. 3's refinement process. Owns the live
/// bundles; the summary index and archive are collaborators passed to
/// Refine so eviction keeps them consistent.
class BundlePool {
 public:
  /// `dict` is the id space handed to every bundle this pool creates
  /// (the per-shard dictionary, shared with the summary index); nullptr
  /// makes each bundle own a private dictionary (standalone tests).
  explicit BundlePool(const PoolOptions& options,
                      IndicantDictionary* dict = nullptr)
      : options_(options), dict_(dict) {}
  BundlePool(const BundlePool&) = delete;
  BundlePool& operator=(const BundlePool&) = delete;

  /// Creates a fresh empty bundle and returns it (owned by the pool).
  Bundle* Create();

  /// Raises the id allocator so future bundles get ids > `floor`
  /// (restart recovery). No effect if ids are already past it.
  void ReserveIdsThrough(BundleId floor) {
    if (floor >= next_id_) next_id_ = floor + 1;
  }

  /// Next id Create() would hand out (checkpointed so a recovered pool
  /// resumes the same id sequence).
  BundleId next_id() const { return next_id_; }

  /// Takes ownership of an externally built bundle (checkpoint restore).
  /// Keeps the id allocator above the adopted id and folds the bundle's
  /// messages into TotalMessages(), but does NOT count it as created —
  /// lifecycle counters are restored separately via RestoreStats().
  /// Requires the id to be unoccupied.
  Bundle* Adopt(std::unique_ptr<Bundle> bundle);

  /// Overwrites the lifecycle counters (checkpoint restore).
  void RestoreStats(const PoolStats& stats) { stats_ = stats; }

  /// Live bundle by id, or nullptr.
  Bundle* Get(BundleId id);
  const Bundle* Get(BundleId id) const;

  size_t size() const { return bundles_.size(); }
  const std::unordered_map<BundleId, std::unique_ptr<Bundle>>& bundles()
      const {
    return bundles_;
  }

  /// True when an insertion should be followed by a refinement pass:
  /// the bundle count exceeds M, or the tracked bundle bytes exceed the
  /// byte ceiling.
  bool NeedsRefinement() const {
    return (options_.max_pool_size > 0 &&
            bundles_.size() > options_.max_pool_size) ||
           (options_.max_pool_bytes > 0 &&
            approx_bytes_ > options_.max_pool_bytes);
  }

  /// Alg. 3. Deletes aging tiny bundles, dumps aging closed bundles to
  /// `archive`, then evicts by descending G-score until the pool is at
  /// target size (count and, when configured, bytes).
  /// `min_rank_evictions` forces at least that many ranked evictions
  /// even when the pool is under its own targets — the engine uses this
  /// when the *index arena* is over budget, so allocation pressure
  /// anywhere degrades to eviction instead of unbounded growth.
  Status Refine(Timestamp now, SummaryIndex* index, BundleArchive* archive,
                size_t min_rank_evictions = 0);

  /// Removes every bundle from memory (dumping to `archive` if present);
  /// used at shutdown so the store holds the complete provenance record.
  Status Drain(SummaryIndex* index, BundleArchive* archive);

  const PoolOptions& options() const { return options_; }
  const PoolStats& stats() const { return stats_; }
  void RecordClosed() {
    ++stats_.bundles_closed;
    if (closed_counter_ != nullptr) closed_counter_->Increment();
  }

  /// Total messages held in memory (Fig. 11(b)).
  uint64_t TotalMessages() const { return total_messages_; }

  /// Appends `msg` to the pool bundle `bundle` (Bundle::AddMessage) and
  /// folds the bundle's growth into TotalMessages() and approx_bytes(),
  /// so the byte ceiling and memory gauges stay exact without O(pool)
  /// rescans. Every message added to a pool bundle goes through here.
  void AddMessage(Bundle* bundle, Message msg, MessageId parent,
                  ConnectionType type, float score);

  /// Sum of ApproxMemoryUsage() over the pool's bundles (the quantity
  /// max_pool_bytes bounds), maintained incrementally. O(1).
  size_t approx_bytes() const { return approx_bytes_; }

  /// Invoked with the bundle id each time a bundle leaves the pool
  /// (tiny deletion, archive dump, ranked eviction, drain), before the
  /// bundle is destroyed. The ProvenanceEngine uses this to maintain
  /// its incremental-checkpoint dirty set. At most one listener.
  void SetRemovalListener(std::function<void(BundleId)> listener) {
    removal_listener_ = std::move(listener);
  }

  /// Registers this pool's metrics: shared eviction/lifecycle counters
  /// (labeled by eviction reason) plus per-instance size gauges labeled
  /// `shard_label` (e.g. `shard="2"`). The registry must outlive the
  /// pool. Idempotent metric names: shards share the counters.
  void BindMetrics(obs::MetricsRegistry* registry,
                   const std::string& shard_label);

  /// The pool's footprint: its own table plus approx_bytes(). O(1).
  size_t ApproxMemoryUsage() const {
    return sizeof(BundlePool) + ApproxMapOverhead(bundles_) + approx_bytes_;
  }

 private:
  Status Discard(Bundle* bundle, SummaryIndex* index,
                 BundleArchive* archive, bool archive_it);

  void SetSizeGauge() {
    if (size_gauge_ != nullptr) {
      size_gauge_->Set(static_cast<int64_t>(bundles_.size()));
    }
  }

  PoolOptions options_;
  IndicantDictionary* dict_;  // may be null; never owned
  std::function<void(BundleId)> removal_listener_;
  std::unordered_map<BundleId, std::unique_ptr<Bundle>> bundles_;
  BundleId next_id_ = 1;
  PoolStats stats_;
  uint64_t total_messages_ = 0;
  size_t approx_bytes_ = 0;

  // Observability handles (null until BindMetrics; never owned).
  obs::Counter* created_counter_ = nullptr;
  obs::Counter* closed_counter_ = nullptr;
  obs::Counter* evicted_tiny_counter_ = nullptr;
  obs::Counter* evicted_closed_counter_ = nullptr;
  obs::Counter* evicted_rank_counter_ = nullptr;
  obs::Counter* refinements_counter_ = nullptr;
  obs::Gauge* size_gauge_ = nullptr;
  obs::Gauge* messages_gauge_ = nullptr;
};

}  // namespace microprov

#endif  // MICROPROV_CORE_POOL_H_
