// Sharded-store serving and epoch-swap cost, per backend.
//
// For each (backend, K in {1, 4, 16}) plus the unsharded container as
// the K=0 baseline:
//   save     — artifact write time (save_sharded builds and writes the K
//              shard containers in parallel, then the manifest);
//   open     — cold open_store_view() on the artifact (a manifest open
//              validates the shard table, then maps + digest-verifies
//              every shard in parallel and resolves the route table);
//   first    — first query latency on a fresh session over that view
//              (fault-label decode; no shard is left to map);
//   batch    — steady-state parallel batch throughput on that session;
//   swap     — swap_store() latency: load_scheme on the artifact (its
//              open included) plus fault re-preparation plus the epoch
//              install;
//   swap q/s — batch throughput while a second thread swap_store()s the
//              same artifact in a tight loop (serving through cut-overs).
// Answers are spot-checked against the BFS ground truth.
//
// Usage: bench_shard_swap [backend|all] [--smoke]
// Output: a human table, one `JSON [...]` line, and
// BENCH_shard_swap.json (checked-in baseline at the repo root;
// regenerate with scripts/bench_all.sh).
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_engine.hpp"
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
  std::size_t swap_reps = 10;
  std::size_t checked = 32;
};

core::SchemeConfig bench_config(core::BackendKind backend, unsigned f) {
  core::SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  return cfg;
}

std::string artifact_path(unsigned k_shards) {
  const std::string stem = "bench_shard_swap_" + std::to_string(::getpid()) +
                           "_k" + std::to_string(k_shards);
  return stem + (k_shards == 0 ? ".ftcs" : ".ftcm");
}

void remove_artifact(const std::string& path, unsigned k_shards) {
  for (unsigned k = 0; k < k_shards; ++k) {
    std::remove((path + ".shard" + std::to_string(k) + ".ftcs").c_str());
  }
  std::remove(path.c_str());
}

void run_case(const core::ConnectivityScheme& scheme, const Graph& g,
              unsigned k_shards, const Sizes& sz, Table& table,
              JsonRecords& json) {
  const std::string path = artifact_path(k_shards);

  Timer save_timer;
  if (k_shards == 0) {
    scheme.save(path);
  } else {
    core::save_sharded(scheme, path, k_shards);
  }
  const double save_ms = save_timer.millis();

  Timer open_timer;
  auto view = core::open_store_view(path);
  const double open_us = open_timer.micros();

  // Same seed for every K of a backend: the fault set and query mix must
  // be identical across rows, or the shard-count columns measure workload
  // variance instead of sharding overhead.
  SplitMix64 rng(0x5a + static_cast<unsigned>(scheme.backend()));
  std::vector<EdgeId> faults;
  for (unsigned i = 0; i < sz.f / 2; ++i) {
    faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  const core::FaultSpec spec = core::FaultSpec::edges(faults);
  std::vector<core::BatchQueryEngine::Query> queries;
  queries.reserve(sz.num_queries);
  for (std::size_t i = 0; i < sz.num_queries; ++i) {
    queries.push_back(
        {static_cast<VertexId>(rng.next_below(g.num_vertices())),
         static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }

  Timer first_timer;
  core::BatchQueryEngine engine(core::load_scheme(view), spec);
  const bool first = engine.connected(queries[0].s, queries[0].t);
  const double first_us = first_timer.micros();
  FTC_REQUIRE(first == graph::connected_avoiding(g, queries[0].s,
                                                 queries[0].t, faults),
              "store-served decoder disagrees with BFS ground truth");
  for (std::size_t i = 1; i < std::min(sz.checked, queries.size()); ++i) {
    FTC_REQUIRE(engine.connected(queries[i].s, queries[i].t) ==
                    graph::connected_avoiding(g, queries[i].s, queries[i].t,
                                              faults),
                "store-served decoder disagrees with BFS ground truth");
  }

  const std::vector<core::BatchQueryEngine::Query> batch(
      queries.begin(), queries.begin() + std::min(kBatchSize, queries.size()));
  (void)engine.run_parallel(batch, kBatchThreads);  // warm the pool
  Timer batch_timer;
  std::size_t batches = 0;
  for (std::size_t r = 0; r < sz.batch_reps; ++r) {
    (void)engine.run_parallel(batch, kBatchThreads);
    ++batches;
    if (batch_timer.seconds() > 2.0 && batches >= 8) break;  // time box
  }
  const double batch_qps =
      static_cast<double>(batches * batch.size()) / batch_timer.seconds();

  // Swap latency: reload the same artifact and install it as the next
  // epoch (what a production label push costs on the serving session).
  Timer swap_timer;
  std::size_t swaps = 0;
  for (std::size_t r = 0; r < sz.swap_reps; ++r) {
    engine.swap_store(core::load_scheme(path));
    ++swaps;
    if (swap_timer.seconds() > 2.0 && swaps >= 3) break;  // time box
  }
  const double swap_us = swap_timer.micros() / static_cast<double>(swaps);

  // Throughput while swaps land continuously from another thread.
  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      engine.swap_store(core::load_scheme(path));
    }
  });
  Timer swapping_timer;
  std::size_t swapping_batches = 0;
  for (std::size_t r = 0; r < sz.batch_reps; ++r) {
    (void)engine.run_parallel(batch, kBatchThreads);
    ++swapping_batches;
    if (swapping_timer.seconds() > 2.0 && swapping_batches >= 8) break;
  }
  const double swap_qps =
      static_cast<double>(swapping_batches * batch.size()) /
      swapping_timer.seconds();
  stop.store(true);
  swapper.join();

  const std::size_t file_bytes = view->info().file_bytes;
  view.reset();
  remove_artifact(path, k_shards);

  table.add_row({core::backend_name(scheme.backend()),
                 k_shards == 0 ? "flat" : std::to_string(k_shards),
                 fmt(save_ms, "%.1f"), fmt(open_us, "%.0f"),
                 fmt(first_us, "%.0f"), fmt(batch_qps, "%.0f"),
                 fmt(swap_us, "%.0f"), fmt(swap_qps, "%.0f")});
  json.add();
  json.field("backend", core::backend_name(scheme.backend()));
  json.field("k_shards", k_shards);
  json.field("n", g.num_vertices());
  json.field("m", g.num_edges());
  json.field("f", sz.f);
  json.field("file_bytes", file_bytes);
  json.field("save_ms", save_ms);
  json.field("open_us", open_us);
  json.field("first_query_us", first_us);
  json.field("batch_size", batch.size());
  json.field("batch_threads", kBatchThreads);
  json.field("batch_qps", batch_qps);
  json.field("swap_us", swap_us);
  json.field("swapping_batch_qps", swap_qps);
  json.field("checked_queries", std::min(sz.checked, queries.size()));
}

}  // namespace
}  // namespace ftc::bench

int main(int argc, char** argv) {
  using namespace ftc;

  bool smoke = false;
  std::string backend_arg = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      backend_arg = arg;
    }
  }

  bench::Sizes sz;
  std::vector<unsigned> shard_counts{0, 1, 4, 16};
  if (smoke) {
    sz = {96, 4, 64, 8, 3, 16};
    shard_counts = {0, 4};
  }
  const graph::EdgeId m = 3 * sz.n;
  const graph::Graph g = graph::random_connected(sz.n, m, 31);
  std::printf("bench_shard_swap: n=%u m=%u f=%u, %zu queries, batch=%zu x %u "
              "threads%s\n",
              sz.n, m, sz.f, sz.num_queries, bench::kBatchSize,
              bench::kBatchThreads, smoke ? " [smoke]" : "");

  bench::Table table({"backend", "shards", "save ms", "open us", "first us",
                      "batch q/s", "swap us", "swap q/s"});
  bench::JsonRecords json;
  const auto run_backend = [&](core::BackendKind b) {
    const auto scheme = core::make_scheme(g, bench::bench_config(b, sz.f));
    for (const unsigned k : shard_counts) {
      bench::run_case(*scheme, g, k, sz, table, json);
    }
  };
  if (backend_arg == "all") {
    for (const core::BackendKind b : core::kAllBackends) run_backend(b);
  } else {
    run_backend(core::parse_backend(backend_arg));
  }
  table.print();
  json.print("JSON");
  std::ofstream out("BENCH_shard_swap.json", std::ios::trunc);
  out << json.dump() << "\n";
  std::printf("wrote BENCH_shard_swap.json\n");
  return 0;
}
