// Microbenchmarks for the provenance core: end-to-end ingest per
// configuration, summary-index candidate fetch, Alg. 2 allocation, and
// the Alg. 3 refinement scan.

#include <benchmark/benchmark.h>

#include "core/allocator.h"
#include "core/engine.h"
#include "gen/generator.h"

namespace microprov {
namespace {

const std::vector<Message>& SharedDataset() {
  static const auto* messages = [] {
    GeneratorOptions options;
    options.seed = 77;
    options.total_messages = 20000;
    options.num_users = 3000;
    return new std::vector<Message>(
        StreamGenerator(options).Generate());
  }();
  return *messages;
}

void BM_EngineIngest(benchmark::State& state) {
  const auto& messages = SharedDataset();
  const auto config = static_cast<IndexConfig>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SimulatedClock clock;
    EngineOptions options = EngineOptions::ForConfig(config, 2000, 300);
    ProvenanceEngine engine(options, &clock, nullptr);
    state.ResumeTiming();
    for (const Message& msg : messages) {
      clock.Advance(msg.date);
      benchmark::DoNotOptimize(engine.Ingest(msg));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(messages.size()));
}
BENCHMARK(BM_EngineIngest)
    ->Arg(static_cast<int>(IndexConfig::kFullIndex))
    ->Arg(static_cast<int>(IndexConfig::kPartialIndex))
    ->Arg(static_cast<int>(IndexConfig::kBundleLimit))
    ->Unit(benchmark::kMillisecond);

void BM_SummaryIndexCandidates(benchmark::State& state) {
  const auto& messages = SharedDataset();
  IndicantDictionary dict;
  SummaryIndex index(&dict);
  // Pre-populate: every message in its own pseudo-bundle mod N.
  const size_t num_bundles = static_cast<size_t>(state.range(0));
  for (const Message& msg : messages) {
    index.AddMessage(1 + (msg.id % num_bundles), msg, 6);
  }
  // Probe with messages interned against the index's dictionary, as the
  // engine's staged hot path does; the accumulator is the reusable
  // per-shard scratch.
  std::vector<Message> probes = messages;
  for (Message& msg : probes) dict.InternMessage(&msg);
  CandidateAccumulator acc;
  size_t i = 0;
  for (auto _ : state) {
    const Message& msg = probes[i++ % probes.size()];
    index.Candidates(msg, 6, 2048, &acc);
    benchmark::DoNotOptimize(acc.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SummaryIndexCandidates)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AllocateMessage(benchmark::State& state) {
  const auto& messages = SharedDataset();
  // Build one bundle of the requested size from stream prefix.
  Bundle bundle(1);
  const size_t bundle_size = static_cast<size_t>(state.range(0));
  for (size_t i = 0; i < bundle_size && i < messages.size(); ++i) {
    bundle.AddMessage(messages[i],
                      i == 0 ? kInvalidMessageId : messages[i - 1].id,
                      ConnectionType::kText, 0);
  }
  ScoringWeights weights;
  size_t probe = bundle_size;
  for (auto _ : state) {
    const Message& msg = messages[probe % messages.size()];
    benchmark::DoNotOptimize(AllocateMessage(bundle, msg, weights));
    ++probe;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocateMessage)->Arg(10)->Arg(100)->Arg(1000);

void BM_PoolRefine(benchmark::State& state) {
  const auto& messages = SharedDataset();
  const size_t pool_size = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    PoolOptions options;
    options.max_pool_size = pool_size / 2;
    options.target_fraction = 0.5;
    IndicantDictionary dict;
    BundlePool pool(options, &dict);
    SummaryIndex index(&dict);
    Timestamp latest = 0;
    for (size_t b = 0; b < pool_size; ++b) {
      Bundle* bundle = pool.Create();
      const Message& msg = messages[b % messages.size()];
      pool.AddMessage(bundle, msg, kInvalidMessageId, ConnectionType::kText,
                      0);
      index.AddMessage(bundle->id(), msg, 6);
      latest = std::max(latest, msg.date);
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(pool.Refine(latest, &index, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(pool_size));
}
BENCHMARK(BM_PoolRefine)->Arg(1000)->Arg(10000)->Unit(
    benchmark::kMicrosecond);

}  // namespace
}  // namespace microprov
