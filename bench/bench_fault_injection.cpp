// Cost of the fault-injection and degraded-serving machinery:
//
//   check ns      — one FTC_FAILPOINT() evaluation with the registry
//                   empty (the cost every syscall boundary pays in
//                   production: a relaxed load + untaken branch) and
//                   with an unrelated point armed (slow-path lookup
//                   that misses);
//   open ms       — cold strict open of a K-shard store (every shard
//                   mapped + digest-verified), clean vs with one
//                   transient EAGAIN injected into the first shard
//                   open (the retry-with-backoff path);
//   healthy µs/q  — per-query latency over a generation with one shard
//                   quarantined, queries confined to healthy ranges
//                   (degraded serving must not tax the live ranges);
//   degraded µs/q — per-query cost of the typed DegradedError throw on
//                   the quarantined range.
//
// Usage: bench_fault_injection [--smoke]
// Output: a human table, one `JSON [...]` line, and
// BENCH_fault_injection.json (checked-in baseline at the repo root;
// regenerate with scripts/bench_all.sh).
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/batch_engine.hpp"
#include "core/sharded_store.hpp"
#include "util/failpoint.hpp"

namespace ftc::bench {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

struct Sizes {
  VertexId n = 2048;
  EdgeId m = 6144;
  unsigned f = 8;
  unsigned k_shards = 16;
  std::size_t check_iters = 20'000'000;
  std::size_t num_queries = 4000;
};

core::SchemeConfig bench_config(unsigned f) {
  core::SchemeConfig cfg;
  cfg.backend = core::BackendKind::kCoreFtc;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  return cfg;
}

void remove_artifact(const std::string& path, unsigned k_shards) {
  for (unsigned k = 0; k < k_shards; ++k) {
    std::remove((path + ".shard" + std::to_string(k) + ".ftcs").c_str());
  }
  std::remove(path.c_str());
}

// ns per FTC_FAILPOINT() evaluation. The volatile sink keeps the loop
// from folding away; the returned errno is always 0 here.
double checked_ns(std::size_t iters) {
  volatile int sink = 0;
  Timer t;
  for (std::size_t i = 0; i < iters; ++i) {
    sink = sink + FTC_FAILPOINT("bench.disabled.site");
  }
  const double ns = t.seconds() * 1e9 / static_cast<double>(iters);
  FTC_REQUIRE(sink == 0, "disarmed failpoint fired");
  return ns;
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
  if (smoke) {
    sz = {256, 768, 4, 8, 2'000'000, 400};
  }
  std::printf("bench_fault_injection: n=%u m=%u f=%u, K=%u shards%s\n", sz.n,
              sz.m, sz.f, sz.k_shards, smoke ? " [smoke]" : "");

  // -- failpoint check overhead ------------------------------------
  const double off_ns = bench::checked_ns(sz.check_iters);
  double armed_miss_ns = 0.0;
  {
    // An unrelated armed point forces every check through the
    // registry lookup (the slow path a drill pays process-wide).
    failpoint::Scoped other("bench.unrelated.site", "count");
    armed_miss_ns = bench::checked_ns(sz.check_iters);
  }

  // -- store under test --------------------------------------------
  const graph::Graph g = graph::random_connected(sz.n, sz.m, 61);
  const auto scheme = core::make_scheme(g, bench::bench_config(sz.f));
  const std::string path = "bench_fault_injection_" +
                           std::to_string(::getpid()) + ".ftcm";
  core::save_sharded(*scheme, path, sz.k_shards);

  // Cold strict open, clean.
  double open_clean_ms = 0.0;
  {
    bench::Timer t;
    const auto view = core::ShardedStoreView::open(path);
    open_clean_ms = t.millis();
    FTC_REQUIRE(view->shards_open() == sz.k_shards, "open skipped shards");
  }

  // Cold open with one transient EAGAIN on the first shard open: the
  // retry path (1 backoff sleep) plus the second attempt.
  core::default_retry_policy() = {3, std::chrono::microseconds(50), 2.0};
  double open_retry_ms = 0.0;
  {
    failpoint::Scoped fp("store.map.open", "nth:2:EAGAIN");
    bench::Timer t;
    const auto view = core::ShardedStoreView::open(path);
    open_retry_ms = t.millis();
    FTC_REQUIRE(view->shards_open() == sz.k_shards,
                "retry path lost a shard");
    FTC_REQUIRE(view->shards_quarantined() == 0, "transient fault stuck");
  }

  // -- degraded serving --------------------------------------------
  const std::vector<graph::EdgeId> faults = {
      3, static_cast<graph::EdgeId>(sz.m / 2)};
  core::BatchQueryEngine session(core::load_scheme(path),
                                 core::FaultSpec::edges(faults));
  const auto view = std::dynamic_pointer_cast<const core::ShardedStoreView>(
      session.scheme().store_view());
  FTC_REQUIRE(view != nullptr, "store did not load sharded");

  // Truncate the last shard behind the live mapping; the first touch
  // quarantines it.
  const auto recs = view->shards();
  const std::size_t dead = sz.k_shards - 1;
  FTC_REQUIRE(::truncate((path + ".shard" + std::to_string(dead) + ".ftcs")
                             .c_str(),
                         0) == 0,
              "cannot damage shard");
  const auto dead_begin =
      static_cast<graph::VertexId>(recs[dead].vertex_begin);
  try {
    (void)session.connected(dead_begin, 0);
    FTC_REQUIRE(false, "truncated shard answered");
  } catch (const core::DegradedError&) {
  }
  FTC_REQUIRE(view->shards_quarantined() == 1, "quarantine did not stick");

  // Healthy-range queries on the degraded generation.
  SplitMix64 rng(77);
  std::vector<core::BatchQueryEngine::Query> healthy;
  while (healthy.size() < sz.num_queries) {
    const auto s = static_cast<graph::VertexId>(rng.next_below(sz.n));
    const auto t = static_cast<graph::VertexId>(rng.next_below(sz.n));
    if (s >= dead_begin || t >= dead_begin) continue;
    healthy.push_back({s, t});
  }
  double healthy_us_per_q = 0.0;
  {
    bench::Timer t;
    const auto res = session.run_sequential(healthy);
    healthy_us_per_q = t.micros() / static_cast<double>(healthy.size());
    FTC_REQUIRE(res.size() == healthy.size(), "degraded run dropped queries");
  }

  // Typed-throw cost on the dead range.
  double degraded_us_per_q = 0.0;
  {
    const std::size_t iters = sz.num_queries / 4;
    bench::Timer t;
    std::size_t caught = 0;
    for (std::size_t i = 0; i < iters; ++i) {
      try {
        (void)session.connected(dead_begin, 0);
      } catch (const core::DegradedError&) {
        ++caught;
      }
    }
    degraded_us_per_q = t.micros() / static_cast<double>(iters);
    FTC_REQUIRE(caught == iters, "dead range answered");
  }

  bench::remove_artifact(path, sz.k_shards);

  bench::Table table({"metric", "value"});
  table.add_row({"failpoint check (off)", bench::fmt(off_ns, "%.2f ns")});
  table.add_row(
      {"failpoint check (armed miss)", bench::fmt(armed_miss_ns, "%.2f ns")});
  table.add_row({"cold open", bench::fmt(open_clean_ms, "%.2f ms")});
  table.add_row({"open w/ retry", bench::fmt(open_retry_ms, "%.2f ms")});
  table.add_row({"healthy query (degraded gen)",
                 bench::fmt(healthy_us_per_q, "%.2f us")});
  table.add_row(
      {"degraded-range throw", bench::fmt(degraded_us_per_q, "%.2f us")});
  table.print();

  bench::JsonRecords json;
  json.add();
  json.field("n", sz.n);
  json.field("m", sz.m);
  json.field("f", sz.f);
  json.field("k_shards", sz.k_shards);
  json.field("check_iters", sz.check_iters);
  json.field("failpoint_off_ns", off_ns);
  json.field("failpoint_armed_miss_ns", armed_miss_ns);
  json.field("open_clean_ms", open_clean_ms);
  json.field("open_retry_ms", open_retry_ms);
  json.field("healthy_queries", healthy.size());
  json.field("healthy_us_per_query", healthy_us_per_q);
  json.field("degraded_us_per_query", degraded_us_per_q);
  json.field("shards_quarantined", 1);
  json.print("JSON");
  std::ofstream out("BENCH_fault_injection.json", std::ios::trunc);
  out << json.dump() << "\n";
  std::printf("wrote BENCH_fault_injection.json\n");
  return 0;
}
