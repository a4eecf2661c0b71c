// Decoder hot-path benchmark: the serving-path cost model of the repo.
//
// Two measurements per (backend, fault-set size):
//   single — session single-query latency: faults prepared once, one
//            reused workspace, mean micros per connected() call. This is
//            the number the copy-on-write workspace and allocation-free
//            decode attack: at large f the old decoder re-copied the full
//            per-fragment state (O(fragments * levels * k)) per query.
//   seq    — throughput of run_sequential over one batch of kBatchSize
//            queries, repeated;
//   batch  — run_parallel over the SAME batch at kBatchThreads, repeated.
//            The batch holds more than the engine's work-stealing grain
//            times the thread count, so every thread gets work; the JSON
//            records the fan-out actually used.
// Answers are spot-checked against BFS ground truth.
//
// Usage: bench_decoder_hotpath [backend|all] [--smoke]
//   --smoke: tiny sizes for CI (scripts/ci.sh bench-smoke).
// Output: a human table, one `JSON [...]` line, and
// BENCH_decoder_hotpath.json (the checked-in baseline lives at the repo
// root; regenerate with scripts/bench_all.sh).
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_engine.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

constexpr unsigned kBatchThreads = 4;
// BatchQueryEngine::run_parallel hands out kEngineChunk = 16 queries at a
// time (batch_engine.cpp) and uses at most ceil(batch / 16) threads.
constexpr std::size_t kEngineChunk = 16;
constexpr std::size_t kBatchSize = 2 * kEngineChunk * kBatchThreads;

struct Sizes {
  VertexId n = 256;
  std::size_t num_queries = 1000;
  std::size_t batch_reps = 200;
  std::size_t checked = 64;
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

// dp21-agm label size grows ~quadratically in f (reps x levels cells per
// edge); f = 256 would need gigabytes of labels on this graph, so the agm
// column stops at 64. Logged explicitly: no silent caps.
bool feasible(core::BackendKind backend, unsigned f) {
  return backend != core::BackendKind::kDp21Agm || f <= 64;
}

void run_case(core::BackendKind backend, const Graph& g, unsigned f,
              const Sizes& sz, Table& table, JsonRecords& json) {
  if (!feasible(backend, f)) {
    std::printf("skipping %s f=%u: label memory would exceed the bench "
                "budget\n",
                core::backend_name(backend), f);
    return;
  }
  Timer build_timer;
  const auto scheme = core::make_scheme(g, bench_config(backend, f));
  const double build_ms = build_timer.millis();

  SplitMix64 rng(0x9e1u * (f + 1) + static_cast<unsigned>(backend));
  std::vector<EdgeId> faults;
  faults.reserve(f);
  for (unsigned i = 0; i < f; ++i) {
    faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  std::vector<core::BatchQueryEngine::Query> queries;
  queries.reserve(sz.num_queries);
  for (std::size_t i = 0; i < sz.num_queries; ++i) {
    queries.push_back(
        {static_cast<VertexId>(rng.next_below(g.num_vertices())),
         static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }

  Timer prep_timer;
  core::BatchQueryEngine engine(*scheme, core::FaultSpec::edges(faults));
  const double prep_ms = prep_timer.millis();

  // Ground truth on a prefix, plus a warm-up for the session workspace.
  const std::size_t checked = std::min(sz.checked, queries.size());
  for (std::size_t i = 0; i < checked; ++i) {
    const bool got = engine.connected(queries[i].s, queries[i].t);
    const bool expected = graph::connected_avoiding(g, queries[i].s,
                                                    queries[i].t, faults);
    FTC_REQUIRE(got == expected, "decoder disagrees with BFS ground truth");
  }

  // Single-query latency over the prepared session.
  Timer single_timer;
  std::size_t answered = 0;
  for (const auto& q : queries) {
    (void)engine.connected(q.s, q.t);
    ++answered;
    if (single_timer.seconds() > 2.0 && answered >= 16) break;  // time box
  }
  const double single_us = single_timer.micros() / answered;

  // Sequential and parallel throughput over the same batch.
  const std::vector<core::BatchQueryEngine::Query> batch(
      queries.begin(),
      queries.begin() + std::min(kBatchSize, queries.size()));
  const auto batch_threads = static_cast<unsigned>(std::min<std::size_t>(
      kBatchThreads, (batch.size() + kEngineChunk - 1) / kEngineChunk));
  const auto throughput = [&](auto&& run) {
    (void)run();  // warm-up (and, for run_parallel, the pool)
    Timer timer;
    std::size_t batches = 0;
    for (std::size_t r = 0; r < sz.batch_reps; ++r) {
      (void)run();
      ++batches;
      if (timer.seconds() > 2.0 && batches >= 8) break;  // time box
    }
    return static_cast<double>(batches * batch.size()) / timer.seconds();
  };
  const double seq_qps =
      throughput([&] { return engine.run_sequential(batch); });
  const double batch_qps =
      throughput([&] { return engine.run_parallel(batch, kBatchThreads); });

  table.add_row({core::backend_name(backend), std::to_string(f),
                 std::to_string(engine.num_faults()), fmt(single_us, "%.2f"),
                 fmt(seq_qps, "%.0f"), fmt(batch_qps, "%.0f"),
                 fmt(build_ms, "%.0f"), fmt(prep_ms, "%.2f")});
  json.add();
  json.field("backend", core::backend_name(backend));
  json.field("f", f);
  json.field("num_faults", engine.num_faults());
  json.field("n", g.num_vertices());
  json.field("m", g.num_edges());
  json.field("single_query_us", single_us);
  json.field("single_queries_timed", answered);
  json.field("seq_qps", seq_qps);
  json.field("batch_size", batch.size());
  json.field("batch_threads", batch_threads);
  json.field("batch_qps", batch_qps);
  json.field("build_ms", build_ms);
  json.field("prepare_ms", prep_ms);
  json.field("checked_queries", checked);
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
  std::vector<unsigned> fault_sizes{4, 16, 64, 256};
  if (smoke) {
    sz = {96, 2 * bench::kBatchSize, 8, 32};
    fault_sizes = {2, 4};
  }
  const graph::EdgeId m = 3 * sz.n;
  const graph::Graph g = graph::random_connected(sz.n, m, 17);
  std::printf("bench_decoder_hotpath: n=%u m=%u, %zu queries, batch=%zu x "
              "%u threads%s\n",
              sz.n, m, sz.num_queries, bench::kBatchSize,
              bench::kBatchThreads, smoke ? " [smoke]" : "");

  bench::Table table({"backend", "f", "dedup", "single us", "seq q/s",
                      "batch q/s", "build ms", "prep ms"});
  bench::JsonRecords json;
  const auto run_backend = [&](core::BackendKind b) {
    for (const unsigned f : fault_sizes) {
      bench::run_case(b, g, f, sz, table, json);
    }
  };
  if (backend_arg == "all") {
    for (const core::BackendKind b : core::kAllBackends) run_backend(b);
  } else {
    run_backend(core::parse_backend(backend_arg));
  }
  table.print();
  json.print("JSON");
  std::ofstream out("BENCH_decoder_hotpath.json", std::ios::trunc);
  out << json.dump() << "\n";
  std::printf("wrote BENCH_decoder_hotpath.json\n");
  return 0;
}
