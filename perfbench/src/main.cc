// Service benchmark program: runs one workload through the public
// microprov::Service API and prints one JSON result line.
//
//   perfbench --workload ingest|query --seed N --seconds S
//                    --trace 0|1 [--size full|smoke] [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// once untraced and once with the program's tracing on, times calls into
// each module from outside, and prints the per-layer metrics. See
// README.md for the workloads, the checks and the metric map.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/random.h"
#include "core/engine.h"
#include "gen/generator.h"
#include "service/service.h"
#include "storage/bundle_store.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "reference.h"
#include "util.h"

namespace perfbench {
namespace {

using microprov::BundleQuery;
using microprov::BundleSearchResult;
using microprov::BundleStore;
using microprov::Message;
using microprov::Service;
using microprov::ServiceOptions;
using microprov::Status;
using microprov::Timestamp;

/// Shards of every deployment: three workers plus the one load thread
/// fit the four cores the reference figures were taken on.
constexpr size_t kShards = 3;
constexpr size_t kPageSize = 10;
/// Both workloads run one fixed stream. Drawn per seed, 300k-message
/// streams moved the ingest rate between 18k and 37k msg/s on the
/// reference host (how the largest events fall on the shards), which
/// would bury any program change; and the query workload's fixed query
/// set keeps the pages the archive fault breaks the same in every run.
/// --seed draws the ingest workload's verification queries and orders
/// the query workload's queries.
constexpr uint64_t kStreamSeed = 42;
constexpr uint64_t kQuerySetSeed = 4242;
/// Archived-candidate decode cap the service applies per shard; the
/// storage probe decodes as many, so it times the reads a query makes.
constexpr size_t kProbeGets = 64;

struct Sizes {
  /// Messages in the ingest stream and in the query workload's preload.
  uint64_t stream_messages;
  /// Distinct queries in one query round.
  size_t query_count;
  /// Queries whose pages must survive the sealed reopen unchanged. On
  /// ingest they are also the query latency samples, before and after
  /// each of its two or more rounds' reopens: 4 x 250 >= 1000.
  size_t ingest_verify_queries;
  size_t query_verify_queries;
  /// Sealed reopens per deployment; recover_s is their median.
  int ingest_reopens;
  int query_reopens;
  uint64_t checkpoint_every;
  /// Total live-bundle limit; 0 keeps the engine default.
  size_t pool_limit;
};

Sizes SizesFor(const std::string& size) {
  // Smoke shrinks the pool too, so refinement and the archive still run
  // on a stream small enough to finish in seconds.
  if (size == "smoke") return {20000, 200, 60, 20, 1, 2, 5000, 300};
  return {300000, 2000, 250, 100, 2, 3, 50000, 0};
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string size = "full";
  std::string work_dir = ".bench_build/run";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest|query --seed N --seconds S --trace 0|1 "
               "[--size full|smoke] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--size") {
      args.size = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("bad number for " + flag).c_str());
    }
  }
  if (args.workload != "ingest" && args.workload != "query") {
    Usage("--workload must be ingest or query");
  }
  if (args.size != "full" && args.size != "smoke") {
    Usage("--size must be full or smoke");
  }
  if (!(args.seconds > 0)) Usage("--seconds must be positive");
  return args;
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

/// Correctness verdict of the run; every failed check is logged.
struct Checks {
  bool ok = true;
  int logged = 0;
  void Expect(bool condition, const std::string& what) {
    if (condition) return;
    ok = false;
    if (logged++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

std::vector<Message> MakeStream(uint64_t seed, uint64_t messages) {
  microprov::GeneratorOptions options;
  options.seed = seed;
  options.total_messages = messages;
  return microprov::StreamGenerator(options).Generate();
}

/// Half hashtag queries ("#tag"), half keyword pairs ("w1 w2"), each
/// taken from a message drawn uniformly from the whole stream: big
/// events give broad queries, small ones selective queries, and old
/// messages queries whose best bundles are archived.
std::vector<std::string> DrawQueries(const std::vector<Message>& stream,
                                     size_t count, uint64_t seed) {
  microprov::Random rng(seed);
  std::vector<std::string> queries;
  for (size_t attempts = 0; queries.size() < count && attempts < 100 * count;
       ++attempts) {
    const Message& msg = stream[rng.Uniform(stream.size())];
    if (queries.size() % 2 == 0) {
      if (msg.hashtags.empty()) continue;
      queries.push_back("#" + msg.hashtags[rng.Uniform(msg.hashtags.size())]);
      continue;
    }
    std::vector<std::string> words;
    for (const std::string& word : microprov::TokenizeWords(msg.text)) {
      if (!microprov::IsStopword(word) &&
          std::find(words.begin(), words.end(), word) == words.end()) {
        words.push_back(word);
      }
    }
    if (words.size() < 2) continue;
    const size_t a = rng.Uniform(words.size());
    size_t b = rng.Uniform(words.size() - 1);
    if (b >= a) ++b;
    queries.push_back(words[a] + " " + words[b]);
  }
  return queries;
}

/// The deployment every workload runs: partial index (Alg. 3 refinement
/// on), per-shard archives, WAL and periodic checkpoints; queue, memory
/// and query settings left at their defaults.
ServiceOptions DeploymentOptions(const std::string& dir, const Sizes& sizes,
                                 bool traced) {
  ServiceOptions options;
  options.num_shards = kShards;
  if (sizes.pool_limit > 0) options.engine.pool.max_pool_size = sizes.pool_limit;
  options.archive_dir = dir + "/archive";
  options.durability.dir = dir + "/durable";
  options.durability.checkpoint_every_messages = sizes.checkpoint_every;
  if (traced) {
    options.trace_capacity = 1024;
    options.query_trace_capacity = size_t{1} << 15;
    options.query_trace_sample_every = 1;
  }
  return options;
}

BundleStore* StoreOf(const Service& service, size_t shard) {
  return dynamic_cast<BundleStore*>(service.sharded().shard(shard).archive());
}

// ---------------------------------------------------------------------
// Per-layer observations: memory on every pass, the rest on traced ones.

struct LayerData {
  // service
  std::vector<double> ingest_call_us;
  double backpressure_stalls = 0;
  std::vector<double> final_flush_ms;
  std::vector<double> shard_skew;
  std::vector<double> search_wall_us;  // per Search, in call order
  std::vector<microprov::obs::QueryTraceEvent> query_events;
  std::vector<double> quiesce_us;
  // storage
  std::vector<double> find_by_term_us;
  std::vector<double> archived_candidates;
  std::vector<double> get_us;
  double cache_hits = 0;
  double cache_misses = 0;
  std::vector<double> log_bytes;
  // recovery
  std::vector<double> wal_bytes_per_msg;
  std::vector<double> checkpoint_ms;
  std::vector<double> checkpoint_bytes;
  // memory
  std::vector<double> accounted_bytes;
  std::vector<double> rss_growth_bytes;
};

/// Everything one pass over a workload measured.
struct PassResult {
  /// When the first deployment was ready for its workload (opened; on
  /// query also preloaded), on the NowSec clock.
  double ready_at = 0;
  std::vector<double> ingest_rates;
  std::vector<double> query_us;
  std::vector<double> recover_s;
  std::vector<double> disk_bytes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  LayerData layers;
};

/// One deployment directory with its service, opened and reopened.
class Deployment {
 public:
  Deployment(std::string dir, const Sizes& sizes, bool traced)
      : dir_(std::move(dir)),
        options_(DeploymentOptions(dir_, sizes, traced)),
        traced_(traced) {
    RemoveTree(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~Deployment() {
    service_.reset();
    RemoveTree(dir_);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Opens (or reopens) the service; returns the seconds Open took.
  double Open() {
    const double start = NowSec();
    auto service_or = Service::Open(options_);
    const double took = NowSec() - start;
    if (!service_or.ok()) Die("Service::Open", service_or.status());
    service_ = std::move(service_or).value();
    return took;
  }

  /// Closes the service without draining it: the state on disk is what
  /// a restart recovers from.
  void Close(LayerData* layers) {
    if (traced_) CollectQueryEvents(layers);
    service_.reset();
  }

  Service& service() { return *service_; }
  const std::string& dir() const { return dir_; }
  bool traced() const { return traced_; }

  /// Search with the wall time recorded for the traced quiesce split.
  microprov::StatusOr<std::vector<BundleSearchResult>> Search(
      const BundleQuery& query, double* micros, LayerData* layers) {
    const double start = NowSec();
    auto page = service_->Search(query);
    *micros = (NowSec() - start) * 1e6;
    if (traced_) layers->search_wall_us.push_back(*micros);
    return page;
  }

 private:
  /// Pairs each traced query with its wall time (query ids count Search
  /// calls of this service instance from 1) and keeps the events.
  void CollectQueryEvents(LayerData* layers) {
    const size_t base = layers->search_wall_us.size() -
                        service_->query_trace()->total_recorded();
    for (auto& event : service_->query_trace()->Snapshot()) {
      const size_t call = base + event.query_id - 1;
      if (event.query_id >= 1 && call < layers->search_wall_us.size()) {
        layers->quiesce_us.push_back(layers->search_wall_us[call] -
                                     event.total_nanos * 1e-3);
      }
      layers->query_events.push_back(std::move(event));
    }
  }

  std::string dir_;
  ServiceOptions options_;
  bool traced_;
  std::unique_ptr<Service> service_;
};

/// Streams `stream` through Ingest from this thread, then Flush (the
/// messages are searchable and durable when it returns). Returns the
/// accepted rate in messages per second.
double IngestStream(Deployment* deployment,
                    const std::vector<Message>& stream, Checks* checks,
                    PassResult* result) {
  Service& service = deployment->service();
  LayerData& layers = result->layers;
  const bool traced = deployment->traced();
  const uint64_t rss_before = RssBytes();
  uint64_t rejected = 0;
  const double start = NowSec();
  for (const Message& msg : stream) {
    const double call_start = traced ? NowSec() : 0.0;
    if (!service.Ingest(msg).ok()) ++rejected;
    if (traced) layers.ingest_call_us.push_back((NowSec() - call_start) * 1e6);
  }
  const double flush_start = NowSec();
  const Status flushed = service.Flush();
  const double end = NowSec();
  checks->Expect(flushed.ok(), "Flush after ingest returns OK");
  checks->Expect(rejected == 0, std::to_string(rejected) +
                                    " Ingest calls did not return OK");
  const microprov::ServiceStats stats = service.Stats();
  checks->Expect(stats.messages_ingested == stream.size(),
                 "messages_ingested " +
                     std::to_string(stats.messages_ingested) + " != sent " +
                     std::to_string(stream.size()));
  if (traced) {
    layers.final_flush_ms.push_back((end - flush_start) * 1e3);
    layers.backpressure_stalls += static_cast<double>(stats.backpressure_stalls);
    double largest = 0, sum = 0;
    for (const auto& shard : stats.shards) {
      largest = std::max(largest, double(shard.ingested));
      sum += double(shard.ingested);
    }
    if (sum > 0) layers.shard_skew.push_back(largest * kShards / sum);
  }
  // Memory is read on every pass: the traced run takes it from its
  // untraced pass, which starts from a fresh heap.
  layers.accounted_bytes.push_back(double(stats.memory.total()));
  layers.rss_growth_bytes.push_back(double(RssBytes()) - double(rss_before));
  return static_cast<double>(stream.size()) / (end - start);
}

/// Each created bundle is live, archived or deleted exactly once, and
/// the service's counts agree with the pools and the archives.
void CheckLifecycle(const Service& service, Checks* checks,
                    const std::string& when) {
  uint64_t live = 0, archived = 0;
  for (size_t s = 0; s < service.num_shards(); ++s) {
    const microprov::BundlePool& pool = service.sharded().shard(s).pool();
    const microprov::PoolStats& ps = pool.stats();
    const std::string shard = when + " shard " + std::to_string(s) + ": ";
    checks->Expect(ps.bundles_created == pool.size() + ps.bundles_deleted_tiny +
                                             ps.bundles_dumped_closed +
                                             ps.bundles_evicted_ranked,
                   shard + "created != live + deleted + dumped + evicted");
    BundleStore* store = StoreOf(service, s);
    if (store == nullptr) {
      checks->Expect(false, shard + "no archive behind the engine");
      continue;
    }
    const uint64_t stored = store->bundle_count();
    checks->Expect(stored >= ps.bundles_dumped_closed &&
                       stored <= ps.bundles_dumped_closed +
                                     ps.bundles_evicted_ranked,
                   shard + "archive count outside dumped..dumped+evicted");
    for (microprov::BundleId id : store->ListBundleIds()) {
      if (pool.Get(id) != nullptr) {
        checks->Expect(false, shard + "bundle " + std::to_string(id) +
                                  " is both live and archived");
        break;
      }
    }
    live += pool.size();
    archived += stored;
  }
  const microprov::ServiceStats stats = service.Stats();
  checks->Expect(stats.live_bundles == live,
                 when + ": ServiceStats live_bundles disagrees with pools");
  checks->Expect(stats.archived_bundles == archived,
                 when + ": ServiceStats archived_bundles disagrees with stores");
}

bool SamePage(const std::vector<BundleSearchResult>& a,
              const std::vector<BundleSearchResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].bundle != b[i].bundle || a[i].shard != b[i].shard ||
        a[i].score != b[i].score || a[i].size != b[i].size ||
        a[i].last_post != b[i].last_post || a[i].archived != b[i].archived ||
        a[i].summary_words != b[i].summary_words) {
      return false;
    }
  }
  return true;
}

/// Times the storage layer from outside for one query: the term lookups
/// the service makes per shard, then point reads of the archived
/// candidates it would decode.
void ProbeStorage(Service& service, const std::string& text,
                  LayerData* layers) {
  const microprov::ParsedQuery parsed = microprov::ParseQuery(text);
  std::vector<std::string> terms = parsed.keywords;
  terms.insert(terms.end(), parsed.raw_words.begin(), parsed.raw_words.end());
  terms.insert(terms.end(), parsed.hashtags.begin(), parsed.hashtags.end());
  double candidates = 0;
  for (size_t s = 0; s < service.num_shards(); ++s) {
    BundleStore* store = StoreOf(service, s);
    if (store == nullptr) continue;
    std::vector<microprov::BundleId> ids;
    for (const std::string& term : terms) {
      const double start = NowSec();
      std::vector<microprov::BundleId> found = store->FindByTerm(term);
      layers->find_by_term_us.push_back((NowSec() - start) * 1e6);
      ids.insert(ids.end(), found.begin(), found.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    candidates += static_cast<double>(ids.size());
    for (size_t i = 0; i < ids.size() && i < kProbeGets; ++i) {
      const double start = NowSec();
      auto bundle = store->Get(ids[i]);
      layers->get_us.push_back((NowSec() - start) * 1e6);
      if (!bundle.ok()) Die("BundleStore::Get", bundle.status());
    }
  }
  layers->archived_candidates.push_back(candidates);
}

/// Seals the deployment (Checkpoint), checks it, runs the verification
/// queries, closes it, reopens it from disk `reopens` times and checks
/// that the counts and the pages came back unchanged. `time_queries`
/// adds the verification Search latencies to the pass's query samples.
void SealAndReopen(Deployment* deployment,
                   const std::vector<std::string>& verify,
                   uint64_t expected_messages, int reopens,
                   bool time_queries, Checks* checks, PassResult* result) {
  LayerData& layers = result->layers;
  Service& sealed = deployment->service();
  const double ckpt_start = NowSec();
  const Status sealed_ok = sealed.Checkpoint();
  const double ckpt_ms = (NowSec() - ckpt_start) * 1e3;
  checks->Expect(sealed_ok.ok(), "Checkpoint returns OK");
  CheckLifecycle(sealed, checks, "sealed");
  const std::string archive_dir = deployment->dir() + "/archive";
  const std::string durable_dir = deployment->dir() + "/durable";
  result->disk_bytes.push_back(double(TreeBytes(archive_dir)) +
                               double(TreeBytes(durable_dir)));
  const microprov::ServiceStats before = sealed.Stats();
  if (deployment->traced()) {
    layers.checkpoint_ms.push_back(ckpt_ms);
    layers.checkpoint_bytes.push_back(
        double(FilesBytes(durable_dir, "checkpoint-")));
    if (before.wal_appended_messages > 0) {
      layers.wal_bytes_per_msg.push_back(
          double(before.wal_appended_bytes) /
          double(before.wal_appended_messages));
    }
    double log_bytes = 0;
    for (size_t s = 0; s < sealed.num_shards(); ++s) {
      auto bytes = StoreOf(sealed, s)->TotalLogBytes();
      if (bytes.ok()) log_bytes += double(*bytes);
    }
    layers.log_bytes.push_back(log_bytes);
  }

  const Timestamp now = sealed.Now();
  auto run_queries = [&](std::vector<std::vector<BundleSearchResult>>* out) {
    for (const std::string& text : verify) {
      double micros = 0;
      auto page = deployment->Search({.text = text, .k = kPageSize, .now = now},
                                     &micros, &layers);
      if (!page.ok()) Die("Service::Search", page.status());
      if (time_queries) result->query_us.push_back(micros);
      out->push_back(std::move(page).value());
    }
  };
  std::vector<std::vector<BundleSearchResult>> pages_before, pages_after;
  run_queries(&pages_before);
  if (deployment->traced()) {
    for (size_t s = 0; s < sealed.num_shards(); ++s) {
      layers.cache_hits += double(StoreOf(sealed, s)->cache_hits());
      layers.cache_misses += double(StoreOf(sealed, s)->cache_misses());
    }
    for (const std::string& text : verify) ProbeStorage(sealed, text, &layers);
  }
  deployment->Close(&layers);
  for (int i = 0; i < reopens; ++i) {
    if (i > 0) deployment->Close(&layers);
    result->recover_s.push_back(deployment->Open());
  }
  Service& reopened = deployment->service();
  const microprov::ServiceStats after = reopened.Stats();
  checks->Expect(after.messages_ingested == expected_messages,
                 "reopened service lost messages");
  checks->Expect(after.live_bundles == before.live_bundles &&
                     after.archived_bundles == before.archived_bundles,
                 "reopen changed live/archived counts: " +
                     std::to_string(before.live_bundles) + "/" +
                     std::to_string(before.archived_bundles) + " -> " +
                     std::to_string(after.live_bundles) + "/" +
                     std::to_string(after.archived_bundles));
  CheckLifecycle(reopened, checks, "reopened");
  run_queries(&pages_after);
  size_t changed = 0;
  for (size_t i = 0; i < verify.size(); ++i) {
    changed += !SamePage(pages_before[i], pages_after[i]);
  }
  checks->Expect(changed == 0, std::to_string(changed) + " of " +
                                   std::to_string(verify.size()) +
                                   " pages changed across the sealed reopen");
  deployment->Close(&layers);
}

// ---------------------------------------------------------------------
// Workloads.

/// ingest: one caller streams the whole input through Ingest, Flush,
/// seals with Checkpoint, closes and reopens from disk; repeated in
/// whole rounds on a fresh directory, at least `min_rounds`, while time
/// remains.
PassResult IngestPass(const std::vector<Message>& stream,
                      const std::vector<std::string>& verify,
                      const Sizes& sizes, const std::string& dir,
                      double seconds, int min_rounds, bool traced,
                      Checks* checks) {
  PassResult result;
  const double start = NowSec();
  double round_s = 0;
  for (int round = 0;
       round < min_rounds || NowSec() - start + round_s / 2 < seconds;
       ++round) {
    const double round_start = NowSec();
    Deployment deployment(dir + "/round-" + std::to_string(round), sizes,
                          traced);
    deployment.Open();
    if (round == 0) result.ready_at = NowSec();
    result.ingest_rates.push_back(
        IngestStream(&deployment, stream, checks, &result));
    result.attempted += stream.size();
    SealAndReopen(&deployment, verify, stream.size(), sizes.ingest_reopens,
                  /*time_queries=*/true, checks, &result);
    round_s = NowSec() - round_start;
    std::fprintf(stderr, "ingest: round %d took %.2fs\n", round, round_s);
  }
  return result;
}

/// query: a service preloaded with the fixed stream answers the fixed
/// query set from one closed-loop client, in whole rounds, each page
/// checked against the independent Eq. 7 reference.
PassResult QueryPass(const std::vector<Message>& stream,
                     const std::vector<std::string>& queries,
                     const Sizes& sizes, const std::string& dir,
                     uint64_t seed, double seconds, bool traced,
                     Checks* checks) {
  PassResult result;
  Deployment deployment(dir, sizes, traced);
  deployment.Open();
  result.ingest_rates.push_back(
      IngestStream(&deployment, stream, checks, &result));
  result.ready_at = NowSec();

  Service& service = deployment.service();
  const Timestamp now = service.Now();
  const microprov::QueryWeights weights;  // the service's default weights
  const double reference_start = NowSec();
  std::vector<ReferenceRanking> reference;
  {
    auto ref = Eq7Reference::Capture(service);
    if (!ref.ok()) Die("reference capture", ref.status());
    for (const std::string& text : queries) {
      reference.push_back((*ref)->Rank(text, now, kPageSize, weights));
    }
  }

  std::fprintf(stderr, "query: reference %.2fs\n",
               NowSec() - reference_start);
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  microprov::Random rng(seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Uniform(i)]);
  }

  std::map<std::string, size_t> failure_reasons;
  const double start = NowSec();
  double round_s = 0;
  for (int round = 0; round == 0 || NowSec() - start + round_s / 2 < seconds;
       ++round) {
    const double round_start = NowSec();
    for (size_t q : order) {
      double micros = 0;
      auto page = deployment.Search(
          {.text = queries[q], .k = kPageSize, .now = now}, &micros,
          &result.layers);
      if (!page.ok()) Die("Service::Search", page.status());
      result.query_us.push_back(micros);
      ++result.attempted;
      const PageVerdict verdict = CheckPage(*page, kPageSize, reference[q]);
      checks->Expect(verdict.correct, "query '" + queries[q] + "': " +
                                          verdict.why + "\n" +
                                          Describe(*page, reference[q]));
      if (!verdict.exact) {
        ++result.failed;
        if (round == 0) ++failure_reasons[verdict.why];
      }
    }
    round_s = NowSec() - round_start;
    std::fprintf(stderr, "query: round %d took %.2fs\n", round, round_s);
  }
  for (const auto& [why, pages] : failure_reasons) {
    std::fprintf(stderr, "query: %zu of %zu pages inexact: %s\n", pages,
                 queries.size(), why.c_str());
  }

  const std::vector<std::string> verify(
      queries.begin(),
      queries.begin() + std::min(sizes.query_verify_queries, queries.size()));
  SealAndReopen(&deployment, verify, stream.size(), sizes.query_reopens,
                /*time_queries=*/false, checks, &result);
  return result;
}

// ---------------------------------------------------------------------
// Traced-only probes.

struct CoreData {
  std::vector<double> ingest_us;
  double match_ns = 0, place_ns = 0, refine_ns = 0, messages = 0;
  double archived = 0, deleted_tiny = 0;
};

/// Replays the stream into one ProvenanceEngine per shard, routed with
/// RouteShard as the service routes it, timing every Ingest call.
CoreData ReplayCore(const std::vector<Message>& stream, const Sizes& sizes,
                    const std::string& dir) {
  RemoveTree(dir);
  const microprov::EngineOptions options =
      DeploymentOptions(dir, sizes, false).engine.ShardSlice(kShards);
  std::vector<std::unique_ptr<microprov::SimulatedClock>> clocks;
  std::vector<std::unique_ptr<BundleStore>> stores;
  std::vector<std::unique_ptr<microprov::ProvenanceEngine>> engines;
  for (size_t s = 0; s < kShards; ++s) {
    BundleStore::Options store_options;
    store_options.dir = dir + "/shard-" + std::to_string(s);
    std::filesystem::create_directories(store_options.dir);
    auto store = BundleStore::Open(store_options);
    if (!store.ok()) Die("BundleStore::Open", store.status());
    stores.push_back(std::move(store).value());
    clocks.push_back(std::make_unique<microprov::SimulatedClock>());
    engines.push_back(std::make_unique<microprov::ProvenanceEngine>(
        options, clocks.back().get(), stores.back().get()));
  }
  CoreData core;
  core.ingest_us.reserve(stream.size());
  for (const Message& msg : stream) {
    const uint32_t s = microprov::RouteShard(msg, kShards);
    clocks[s]->Advance(msg.date);
    const double start = NowSec();
    auto placed = engines[s]->Ingest(msg);
    core.ingest_us.push_back((NowSec() - start) * 1e6);
    if (!placed.ok()) Die("ProvenanceEngine::Ingest", placed.status());
  }
  for (size_t s = 0; s < kShards; ++s) {
    const microprov::StageTimers& timers = engines[s]->timers();
    core.match_ns += double(timers.bundle_match_nanos);
    core.place_ns += double(timers.message_placement_nanos);
    core.refine_ns += double(timers.memory_refinement_nanos);
    core.deleted_tiny += double(engines[s]->pool().stats().bundles_deleted_tiny);
    core.archived += double(stores[s]->bundle_count());
  }
  core.messages = double(stream.size());
  engines.clear();
  stores.clear();
  RemoveTree(dir);
  return core;
}

/// Self time per span name (duration minus its children), summed over
/// the shards of one query.
std::map<std::string, double> SelfMicros(
    const microprov::obs::QueryTraceEvent& event) {
  std::map<uint32_t, double> child_ns;
  for (const auto& span : event.spans) {
    if (span.parent != 0) child_ns[span.parent] += double(span.duration_nanos);
  }
  std::map<std::string, double> self;
  for (const auto& span : event.spans) {
    self[span.name] +=
        (double(span.duration_nanos) - child_ns[span.id]) * 1e-3;
  }
  return self;
}

std::map<std::string, Metric> LayerMetrics(const PassResult& plain,
                                           const PassResult& traced,
                                           const CoreData& core) {
  const LayerData& l = traced.layers;
  std::map<std::string, Metric> m;
  m["service.ingest_call_us.p50"] = {Percentile(l.ingest_call_us, 50), "us"};
  m["service.ingest_call_us.p99"] = {Percentile(l.ingest_call_us, 99), "us"};
  m["service.backpressure_stalls"] = {l.backpressure_stalls, "count"};
  m["service.final_flush_ms"] = {Median(l.final_flush_ms), "ms"};
  m["service.shard_skew"] = {Median(l.shard_skew), "ratio"};
  m["service.search_quiesce_us.p50"] = {Percentile(l.quiesce_us, 50), "us"};

  m["core.engine_ingest_us.p50"] = {Percentile(core.ingest_us, 50), "us"};
  m["core.engine_ingest_us.p99"] = {Percentile(core.ingest_us, 99), "us"};
  m["core.match_ns_per_msg"] = {core.match_ns / core.messages, "ns"};
  m["core.place_ns_per_msg"] = {core.place_ns / core.messages, "ns"};
  m["core.refine_ns_per_msg"] = {core.refine_ns / core.messages, "ns"};
  m["core.bundles_archived"] = {core.archived, "count"};
  m["core.bundles_deleted_tiny"] = {core.deleted_tiny, "count"};

  const char* stages[] = {"parse", "plan",  "candidates",  "score",
                          "archive", "rank", "materialize", "merge"};
  std::map<std::string, double> stage_sum;
  double examined = 0, pruned = 0, skew = 0;
  for (const auto& event : l.query_events) {
    for (const auto& [name, micros] : SelfMicros(event)) {
      stage_sum[name] += micros;
    }
    for (const auto& shard : event.shards) {
      examined += double(shard.examined);
      pruned += double(shard.pruned);
    }
    double longest = 0, total = 0, shards = 0;
    for (const auto& span : event.spans) {
      if (span.name != "shard_search") continue;
      longest = std::max(longest, double(span.duration_nanos));
      total += double(span.duration_nanos);
      ++shards;
    }
    if (total > 0) skew += longest * shards / total;
  }
  const double queries = std::max<double>(1, l.query_events.size());
  for (const char* stage : stages) {
    m[std::string("query.") + stage + "_us"] = {stage_sum[stage] / queries,
                                                "us"};
  }
  m["query.examined_per_query"] = {examined / queries, "count"};
  m["query.scored_per_query"] = {(examined - pruned) / queries, "count"};
  m["query.pruned_per_query"] = {pruned / queries, "count"};
  m["query.scored_share"] = {examined > 0 ? (examined - pruned) / examined : 0,
                             "ratio"};
  m["query.shard_search_max_over_mean"] = {skew / queries, "ratio"};

  m["storage.find_by_term_us.p50"] = {Percentile(l.find_by_term_us, 50), "us"};
  m["storage.archived_candidates_per_query"] = {Mean(l.archived_candidates),
                                                "count"};
  m["storage.get_us.p50"] = {Percentile(l.get_us, 50), "us"};
  m["storage.get_us.p99"] = {Percentile(l.get_us, 99), "us"};
  const double reads = l.cache_hits + l.cache_misses;
  m["storage.cache_hit_share"] = {reads > 0 ? l.cache_hits / reads : 0,
                                  "ratio"};
  m["storage.log_mb"] = {Median(l.log_bytes) / kMiB, "MiB"};

  m["recovery.wal_bytes_per_msg"] = {Median(l.wal_bytes_per_msg), "B"};
  m["recovery.checkpoint_ms"] = {Median(l.checkpoint_ms), "ms"};
  m["recovery.checkpoint_mb"] = {Median(l.checkpoint_bytes) / kMiB, "MiB"};

  const LayerData& fresh = plain.layers;
  const double accounted = Median(fresh.accounted_bytes);
  m["memory.accounted_mb"] = {accounted / kMiB, "MiB"};
  m["memory.unaccounted_mb"] = {
      (Median(fresh.rss_growth_bytes) - accounted) / kMiB, "MiB"};

  const double rate_plain = Median(plain.ingest_rates);
  const double rate_traced = Median(traced.ingest_rates);
  const double p50_plain = Percentile(plain.query_us, 50);
  const double p50_traced = Percentile(traced.query_us, 50);
  m["obs.trace_overhead_pct.ingest_msgs_per_s"] = {
      rate_plain > 0 ? (rate_plain - rate_traced) / rate_plain * 100 : 0, "%"};
  m["obs.trace_overhead_pct.query_p50_us"] = {
      p50_plain > 0 ? (p50_traced - p50_plain) / p50_plain * 100 : 0, "%"};
  return m;
}

int Run(const Args& args, double process_start) {
  Sizes sizes = SizesFor(args.size);
  // recover_s is an end-to-end metric; a traced run reopens once.
  if (args.trace) sizes.ingest_reopens = sizes.query_reopens = 1;
  const bool query = args.workload == "query";
  const std::vector<Message> stream =
      MakeStream(kStreamSeed, sizes.stream_messages);
  const std::vector<std::string> queries =
      query ? DrawQueries(stream, sizes.query_count, kQuerySetSeed)
            : DrawQueries(stream, sizes.ingest_verify_queries,
                          args.seed ^ kQuerySetSeed);
  const uint64_t rss_after_inputs = RssBytes();
  std::fprintf(stderr, "%s: inputs ready after %.2fs\n", args.workload.c_str(),
               NowSec() - process_start);
  const std::string dir =
      args.work_dir + "/" + args.workload + "-" + std::to_string(::getpid());

  Checks checks;
  // Two ingest rounds give the untraced run its 1000 query samples; the
  // traced run reports no tail percentile and keeps to one per pass.
  const int min_rounds = args.trace ? 1 : 2;
  auto pass = [&](const std::string& name, double seconds, bool traced) {
    return query ? QueryPass(stream, queries, sizes, dir + "/" + name,
                             args.seed, seconds, traced, &checks)
                 : IngestPass(stream, queries, sizes, dir + "/" + name,
                              seconds, min_rounds, traced, &checks);
  };

  std::map<std::string, Metric> metrics;
  PassResult result;
  if (!args.trace) {
    result = pass("plain", args.seconds, false);
    const double rss_growth =
        double(PeakRssBytes()) - double(rss_after_inputs);
    // One cold set-up from the process's start: generating the inputs,
    // opening the service and, on query, the preload.
    metrics["setup_s"] = {result.ready_at - process_start, "s"};
    metrics["ingest_msgs_per_s"] = {Median(result.ingest_rates), "msg/s"};
    metrics["query_p50_us"] = {Percentile(result.query_us, 50), "us"};
    metrics["query_p99_us"] = {Percentile(result.query_us, 99), "us"};
    metrics["recover_s"] = {Median(result.recover_s), "s"};
    metrics["rss_mb"] = {rss_growth / kMiB, "MiB"};
    metrics["disk_mb"] = {Median(result.disk_bytes) / kMiB, "MiB"};
    checks.Expect(result.query_us.size() >= 1000 || args.size == "smoke",
                  "fewer than 1000 query samples: p99 would be no tail");
  } else {
    // Untraced then traced, half the time each; the difference is the
    // tracing overhead. The core replay runs outside both.
    const PassResult plain = pass("plain", args.seconds / 2, false);
    result = pass("traced", args.seconds / 2, true);
    const CoreData core = ReplayCore(stream, sizes, dir + "/core");
    metrics = LayerMetrics(plain, result, core);
    result.attempted += plain.attempted;
    result.failed += plain.failed;
  }
  RemoveTree(dir);
  PrintResult(checks.ok, result.attempted, result.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const double process_start = perfbench::NowSec();
  return perfbench::Run(perfbench::ParseArgs(argc, argv), process_start);
}
