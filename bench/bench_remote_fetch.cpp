// Remote serving tier cost: what the HTTP transport + digest-verified
// shard cache add on top of local-directory serving.
//
// For each K (shard count), against an in-process loopback
// ShardHttpServer over the artifact's directory:
//   cold open   — RemoteStoreView::open() with an empty cache (manifest
//                 fetch + validation, then every shard fetched,
//                 digest-verified and mapped through the cache);
//   warm open   — a second open over the now-populated cache (manifest
//                 re-fetch, shard hits, no shard bytes on the wire);
//   cold first  — session spin-up + first query with an empty cache
//                 (load_scheme(url), engine install, decode);
//   warm first  — the same over the populated cache;
//   local/remote q/s — steady-state parallel batch throughput of
//                 sessions over the local path vs the URL (post-warmup
//                 these must converge: queries run on mmaps, the wire is
//                 out of the loop).
// Every K serves the same fault set and query list (one seed,
// independent of K). Answers are spot-checked against the BFS ground
// truth.
//
// Usage: bench_remote_fetch [--smoke]
// Output: a human table, one `JSON [...]` line, and
// BENCH_remote_fetch.json (checked-in baseline at the repo root;
// regenerate with scripts/bench_all.sh).
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_engine.hpp"
#include "core/shard_cache.hpp"
#include "core/shard_server.hpp"
#include "core/sharded_store.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

constexpr std::size_t kBatchSize = 64;
constexpr unsigned kBatchThreads = 4;

struct Sizes {
  VertexId n = 256;
  unsigned f = 8;
  std::size_t num_queries = 400;
  std::size_t batch_reps = 60;
  std::size_t checked = 32;
};

core::SchemeConfig bench_config(unsigned f) {
  core::SchemeConfig cfg;
  cfg.backend = core::BackendKind::kCoreFtc;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  return cfg;
}

// Scratch directory in the working dir; removed with all contents.
struct ScratchDir {
  explicit ScratchDir(const std::string& stem)
      : path(stem + "_" + std::to_string(::getpid())) {
    ::mkdir(path.c_str(), 0755);
  }
  ~ScratchDir() {
    for (const std::string& f : files) std::remove((path + "/" + f).c_str());
    ::rmdir(path.c_str());
  }
  void track(const std::string& name) { files.push_back(name); }
  std::string path;
  std::vector<std::string> files;
};

// The cache directory's contents are content-addressed and unknown up
// front; sweep whatever the run left behind.
void remove_tree(const std::string& dir) {
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const struct dirent* ent = ::readdir(d)) {
      const std::string name = ent->d_name;
      if (name == "." || name == "..") continue;
      std::remove((dir + "/" + name).c_str());
    }
    ::closedir(d);
  }
  ::rmdir(dir.c_str());
}

// The fixed workload every K serves: one fault set and one query list.
struct Workload {
  std::vector<EdgeId> faults;
  std::vector<core::BatchQueryEngine::Query> queries;
};

Workload make_workload(const Graph& g, const Sizes& sz) {
  SplitMix64 rng(0x9e);
  Workload w;
  for (unsigned i = 0; i < sz.f / 2; ++i) {
    w.faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  w.queries.reserve(sz.num_queries);
  for (std::size_t i = 0; i < sz.num_queries; ++i) {
    w.queries.push_back(
        {static_cast<VertexId>(rng.next_below(g.num_vertices())),
         static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  return w;
}

void run_case(const core::ConnectivityScheme& scheme, const Graph& g,
              unsigned k_shards, const Sizes& sz, const Workload& w,
              Table& table, JsonRecords& json) {
  ScratchDir origin("bench_remote_origin_k" + std::to_string(k_shards));
  const std::string manifest = origin.path + "/store.ftcm";
  core::save_sharded(scheme, manifest, k_shards);
  origin.track("store.ftcm");
  for (unsigned k = 0; k < k_shards; ++k) {
    origin.track("store.ftcm.shard" + std::to_string(k) + ".ftcs");
  }

  core::ShardHttpServer server(origin.path);
  server.start();
  const std::string url = server.base_url() + "store.ftcm";

  const std::string cache_dir =
      "bench_remote_cache_k" + std::to_string(k_shards) + "_" +
      std::to_string(::getpid());
  auto cache = std::make_shared<core::ShardCache>(cache_dir, 0);
  const auto prior_default = core::set_default_remote_cache(cache);

  // Cold: empty cache — the open fetches the manifest, then moves every
  // shard over loopback, digest-verifies and maps it.
  Timer cold_open_timer;
  auto cold_view = core::RemoteStoreView::open(url, true, nullptr, cache);
  const double cold_open_ms = cold_open_timer.millis();
  const std::uint64_t bytes_fetched = cache->stats().bytes_fetched;

  // Warm: same cache — shard bytes are already on local disk.
  Timer warm_open_timer;
  auto warm_view = core::RemoteStoreView::open(url, true, nullptr, cache);
  const double warm_open_ms = warm_open_timer.millis();
  FTC_REQUIRE(cache->stats().bytes_fetched == bytes_fetched,
              "warm reopen re-fetched shard bytes");
  cold_view.reset();
  warm_view.reset();

  const std::vector<EdgeId>& faults = w.faults;
  const std::vector<core::BatchQueryEngine::Query>& queries = w.queries;
  const core::FaultSpec spec = core::FaultSpec::edges(faults);

  // Cold session spin-up: empty cache again, so the open pays the full
  // transfer before the first answer.
  const std::string cold_cache_dir = cache_dir + "_cold";
  auto cold_cache = std::make_shared<core::ShardCache>(cold_cache_dir, 0);
  (void)core::set_default_remote_cache(cold_cache);
  Timer cold_first_timer;
  core::BatchQueryEngine cold_engine(core::load_scheme(url), spec);
  const bool cold_first = cold_engine.connected(queries[0].s, queries[0].t);
  const double cold_first_us = cold_first_timer.micros();
  FTC_REQUIRE(cold_first == graph::connected_avoiding(g, queries[0].s,
                                                      queries[0].t, faults),
              "remote-served decoder disagrees with BFS ground truth");

  // Warm session spin-up over the populated cache.
  (void)core::set_default_remote_cache(cache);
  Timer warm_first_timer;
  core::BatchQueryEngine remote_engine(core::load_scheme(url), spec);
  const bool warm_first = remote_engine.connected(queries[0].s, queries[0].t);
  const double warm_first_us = warm_first_timer.micros();
  FTC_REQUIRE(warm_first == cold_first,
              "warm remote session disagrees with the cold one");

  core::BatchQueryEngine local_engine(core::load_scheme(manifest), spec);
  for (std::size_t i = 0; i < std::min(sz.checked, queries.size()); ++i) {
    const bool expected = graph::connected_avoiding(g, queries[i].s,
                                                    queries[i].t, faults);
    FTC_REQUIRE(local_engine.connected(queries[i].s, queries[i].t) ==
                    expected,
                "local decoder disagrees with BFS ground truth");
    FTC_REQUIRE(remote_engine.connected(queries[i].s, queries[i].t) ==
                    expected,
                "remote decoder disagrees with BFS ground truth");
  }

  const std::vector<core::BatchQueryEngine::Query> batch(
      queries.begin(), queries.begin() + std::min(kBatchSize, queries.size()));
  const auto throughput = [&](core::BatchQueryEngine& engine) {
    (void)engine.run_parallel(batch, kBatchThreads);  // warm the pool
    Timer timer;
    std::size_t batches = 0;
    for (std::size_t r = 0; r < sz.batch_reps; ++r) {
      (void)engine.run_parallel(batch, kBatchThreads);
      ++batches;
      if (timer.seconds() > 2.0 && batches >= 8) break;  // time box
    }
    return static_cast<double>(batches * batch.size()) / timer.seconds();
  };
  const double local_qps = throughput(local_engine);
  const double remote_qps = throughput(remote_engine);

  std::uint64_t store_bytes = 0;
  {
    auto view = core::open_store_view(manifest);
    store_bytes = view->info().file_bytes;
  }

  server.stop();
  (void)core::set_default_remote_cache(prior_default);
  remove_tree(cold_cache_dir);
  remove_tree(cache_dir);

  table.add_row({std::to_string(k_shards), fmt(cold_open_ms, "%.2f"),
                 fmt(warm_open_ms, "%.2f"), fmt(cold_first_us, "%.0f"),
                 fmt(warm_first_us, "%.0f"), fmt(local_qps, "%.0f"),
                 fmt(remote_qps, "%.0f")});
  json.add();
  json.field("k_shards", k_shards);
  json.field("n", g.num_vertices());
  json.field("m", g.num_edges());
  json.field("f", sz.f);
  json.field("store_bytes", store_bytes);
  json.field("bytes_fetched", bytes_fetched);
  json.field("cold_open_ms", cold_open_ms);
  json.field("warm_open_ms", warm_open_ms);
  json.field("cold_first_query_us", cold_first_us);
  json.field("warm_first_query_us", warm_first_us);
  json.field("batch_size", batch.size());
  json.field("batch_threads", kBatchThreads);
  json.field("local_batch_qps", local_qps);
  json.field("remote_batch_qps", remote_qps);
  json.field("checked_queries", std::min(sz.checked, queries.size()));
}

}  // namespace
}  // namespace ftc::bench

int main(int argc, char** argv) {
  using namespace ftc;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  bench::Sizes sz;
  std::vector<unsigned> shard_counts{2, 8};
  if (smoke) {
    sz = {96, 4, 64, 8, 16};
    shard_counts = {2};
  }
  const graph::EdgeId m = 3 * sz.n;
  const graph::Graph g = graph::random_connected(sz.n, m, 47);
  std::printf("bench_remote_fetch: n=%u m=%u f=%u, %zu queries, batch=%zu x "
              "%u threads%s\n",
              sz.n, m, sz.f, sz.num_queries, bench::kBatchSize,
              bench::kBatchThreads, smoke ? " [smoke]" : "");

  bench::Table table({"shards", "cold open ms", "warm open ms",
                      "cold first us", "warm first us", "local q/s",
                      "remote q/s"});
  bench::JsonRecords json;
  const auto scheme = core::make_scheme(g, bench::bench_config(sz.f));
  const bench::Workload workload = bench::make_workload(g, sz);
  for (const unsigned k : shard_counts) {
    bench::run_case(*scheme, g, k, sz, workload, table, json);
  }
  table.print();
  json.print("JSON");
  std::ofstream out("BENCH_remote_fetch.json", std::ios::trunc);
  out << json.dump() << "\n";
  std::printf("wrote BENCH_remote_fetch.json\n");
  return 0;
}
