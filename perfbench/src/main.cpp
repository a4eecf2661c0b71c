// perfbench: the repository benchmark program.
//
//   perfbench --workload serve-uniform|serve-site|churn --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--smoke]
//             [--flip-check K]
//
// Generates its inputs from the seed, drives the public API end to end
// (graph -> build -> save_sharded / save_sharded_delta -> open, local
// mmap or loopback HTTP -> BatchQueryEngine::reset_faults ->
// connected / run_parallel), checks answers against BFS ground truth,
// and prints one line "PERFBENCH_RESULT {json}" with every metric it
// measured. A wrong answer aborts with exit code 3 and no result line.
// perfbench/README.md maps each metric to its layer and workload.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/fault_spec.hpp"
#include "core/ftc_labels.hpp"
#include "core/ftc_query.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/shard_cache.hpp"
#include "core/shard_server.hpp"
#include "core/shard_source.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

#include "core_build.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using ftc::core::BatchQueryEngine;
using ftc::core::ConnectivityScheme;
using ftc::core::FaultSpec;
using ftc::graph::EdgeId;
using ftc::graph::Graph;
using ftc::graph::VertexId;
using Query = BatchQueryEngine::Query;

// ------------------------------------------------------------ workloads

enum class FaultGen { kUniform, kSite };

struct Workload {
  std::string name;
  VertexId n = 0;
  EdgeId m = 0;
  std::uint64_t graph_seed = 0;  // the dataset: fixed per workload
  unsigned f = 8;
  unsigned shards = 8;
  bool remote = false;           // serve over loopback HTTP via a ShardCache
  FaultGen gen = FaultGen::kUniform;
  std::size_t queries = 0;       // query list per serve epoch
  unsigned resets = 1;           // reset_faults samples per serve epoch
  unsigned batch_reps = 5;       // run_parallel passes per serve epoch
  std::size_t checks = 4;        // of which checked by BFS per serve epoch
  unsigned setup_reps = 3;       // setups per run (setup_s is their median)
  // Serving before each maintenance cycle. Long enough to keep a run's
  // disk writes near 3 GB: sustained writes slow a shared virtual disk
  // for minutes, and every later timing with it.
  double serve_slice_s = 0;
  unsigned joins = 4;            // replica joins per cycle
  std::size_t probes = 64;       // checked queries after each journal swap
};

Workload workload_by_name(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "serve-uniform" || name == "serve-site") {
    w.n = 4000;
    w.m = 16000;
    w.graph_seed = 4000;  // both serve workloads read the same store
    w.gen = name == "serve-site" ? FaultGen::kSite : FaultGen::kUniform;
    w.queries = name == "serve-site" ? 256 : 32768;
    w.resets = 8;
    w.serve_slice_s = 2.5;
  } else if (name == "churn") {
    w.n = 2000;
    w.m = 8000;
    w.graph_seed = 2000;
    w.remote = true;
    w.queries = 16384;
    w.resets = 8;
    w.serve_slice_s = 1.0;
  } else {
    throw std::invalid_argument("unknown workload: " + name +
                                " (expected serve-uniform | serve-site | churn)");
  }
  if (smoke) {
    w.n = 300;
    w.m = 1200;
    w.queries = 256;
    w.setup_reps = 2;
    w.serve_slice_s = 0.05;
    w.joins = 2;
    w.probes = 16;
  }
  return w;
}

// Independent input streams per purpose, derived from the workload seed
// only: never from thread count, shard count or any swept parameter. The
// graph itself is the workload's fixed dataset; the seed drives the
// traffic on it (fault sets, queries, deletions).
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  ftc::SplitMix64 mix(seed * 0x100000001b3ULL ^ (stream + 0x51ED27ULL));
  return mix.next();
}
enum Stream : std::uint64_t { kGraphStream = 1, kFaultStream, kChurnStream };

// ------------------------------------------------------------ statistics

template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}
template <typename T>
double median(const std::vector<T>& v) {
  return quantile(v, 0.5);
}
double quantile(const Histogram& h, double q) { return h.quantile(q); }
double median(const Histogram& h) { return h.quantile(0.5); }
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --------------------------------------------------------- correctness

struct WrongAnswer : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Compares every checked answer with ground truth; the first mismatch
// aborts the run. flip_at >= 0 flips that checked answer first, which the
// smoke run uses to prove the gate rejects a wrong bit.
class Checker {
 public:
  explicit Checker(long long flip_at) : flip_at_(flip_at) {}
  void check(bool got, bool want, const char* where, VertexId s, VertexId t) {
    if (static_cast<long long>(checked_) == flip_at_) got = !got;
    ++checked_;
    if (got != want) {
      throw WrongAnswer(std::string(where) + ": (" + std::to_string(s) + ", " +
                        std::to_string(t) + ") answered " +
                        (got ? "connected" : "disconnected") +
                        ", ground truth " + (want ? "connected" : "disconnected"));
    }
    (want ? connected_ : disconnected_) += 1;
  }
  std::uint64_t checked() const { return checked_; }
  std::uint64_t connected() const { return connected_; }
  std::uint64_t disconnected() const { return disconnected_; }

 private:
  long long flip_at_;
  std::uint64_t checked_ = 0;
  std::uint64_t connected_ = 0;
  std::uint64_t disconnected_ = 0;
};

// ------------------------------------------------------------- samples

// End-to-end samples, kept apart for untraced and traced epochs/cycles so
// the traced run can report tracing overhead from the same inputs.
struct EndToEnd {
  Histogram query_ns;                      // every closed-loop query
  std::vector<double> query_p99_ns;        // one per epoch: its p99
  std::vector<std::int64_t> epoch_ns;
  std::vector<double> batch_qps;           // one per epoch: best pass
  std::vector<std::int64_t> journal_swap_ns;
  std::vector<std::int64_t> rebuild_ns;
  std::vector<std::int64_t> join_ns;
  std::vector<double> setup_s;
};

// Per-layer samples (traced epochs and cycles only).
struct Layers {
  std::vector<double> fanout_eff;
  std::vector<double> reduced_edges;
  Histogram scheme_query_ns;
  std::vector<double> vertex_fetch_ns;
  std::vector<double> edge_fetch_ns;
  double decoder_queries = 0, decoder_disconnected = 0;
  double fragments = 0, outdetect_calls = 0, merges = 0, levels_scanned = 0;
  double prefetches = 0, shards_opened = 0, shards_adopted = 0;
  std::vector<double> build_hierarchy_ms, build_sketch_ms;
  unsigned build_threads = 0;
  double pushes = 0, push_shards_written = 0, push_bytes_written = 0;
  double push_bytes_total = 0, push_bytes_reused = 0;
  std::vector<double> journal_occupancy;
  double cycles = 0;  // traced maintenance cycles
  ftc::core::ShardCacheStats cache{};  // summed deltas over traced cycles
  double rebuild_swap_hits = 0, join_hits = 0;
  double origin_requests = 0, origin_bytes = 0;
};

// ---------------------------------------------------------------- bench

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  bool smoke = false;
  long long flip_check = -1;
};

class Bench {
 public:
  Bench(const Args& args, Workload w)
      : args_(args),
        w_(std::move(w)),
        nproc_(std::max(1u, std::thread::hardware_concurrency())),
        fault_rng_(stream_seed(args.seed, kFaultStream)),
        churn_rng_(stream_seed(args.seed, kChurnStream)),
        checker_(args.flip_check) {
    config_.set_f(w_.f);  // library-default SchemeConfig otherwise
    root_ = args.work_dir;
  }

  int run();

 private:
  // ---- store tier: local mmap, or loopback origin + private cache
  std::string origin_dir() const { return root_ + "/origin"; }
  std::string manifest() const { return origin_dir() + "/store.ftcm"; }
  std::string locator() const {
    return server_ ? server_->base_url() + "store.ftcm" : manifest();
  }
  unsigned prefetch_threads() const {
    // Remote: each client fetch thread holds one origin connection thread
    // busy, so split nproc between the two sides.
    return w_.remote ? std::max(1u, nproc_ / 2) : nproc_;
  }

  void setup_once();
  std::unique_ptr<ConnectivityScheme> open_generation(
      const std::shared_ptr<const ftc::core::StoreView>& reuse_from);
  void swap_to_current();
  void map_labels() const;
  void serve_epoch();
  void replay_epoch(const FaultSpec& spec, const std::vector<Query>& qs,
                    const std::vector<char>& answers,
                    const std::vector<char>& answered, std::int64_t batch_ns);
  void maintenance_cycle();
  void flush_writes() const;
  void check_make_scheme_equivalence();
  void journal_phase();
  void rebuild_phase();
  void join_phase();

  FaultSpec make_faults(std::vector<Query>* queries);
  std::vector<EdgeId> pick_deletions(std::size_t count);
  std::vector<EdgeId> reduced_edges(const FaultSpec& spec) const;
  bool truth(VertexId s, VertexId t, const FaultSpec& spec) const;
  VertexId random_vertex(ftc::SplitMix64& rng) const {
    return static_cast<VertexId>(rng.next_below(graph_.num_vertices()));
  }

  // Typed refusals and I/O errors count toward failed; anything else
  // (including WrongAnswer) propagates and aborts the run.
  template <typename Fn>
  bool attempt(std::uint64_t ops, Fn&& fn) {
    attempted_ += ops;
    try {
      fn();
      return true;
    } catch (const ftc::core::CapacityError&) {
    } catch (const ftc::core::FtcCapacityError&) {
    } catch (const ftc::core::StoreError&) {
    }
    failed_ += ops;
    return false;
  }

  EndToEnd& e2e() { return tracer_.on() ? traced_ : untraced_; }
  void emit(std::ostringstream& out) const;

  const Args& args_;
  Workload w_;
  unsigned nproc_;
  ftc::core::SchemeConfig config_;
  std::string root_;
  ftc::SplitMix64 fault_rng_;
  ftc::SplitMix64 churn_rng_;
  Checker checker_;
  Tracer tracer_;

  Graph graph_;                       // current topology (journal excluded)
  std::vector<EdgeId> journaled_;     // sorted deletions since last rebuild
  std::uint64_t store_digest_ = 0;    // manifest digest the journal binds to
  std::unique_ptr<ftc::core::ShardHttpServer> server_;
  std::shared_ptr<ftc::core::ShardCache> cache_;
  std::unique_ptr<BatchQueryEngine> engine_;
  std::uint64_t store_bytes_ = 0;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t trace_id_ = 0;
  EndToEnd untraced_, traced_;
  Layers layers_;
  double setup_save_threads_ = 0;
  double last_prefetch_threads_ = 0;
};

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::unique_ptr<ConnectivityScheme> Bench::open_generation(
    const std::shared_ptr<const ftc::core::StoreView>& reuse_from) {
  std::shared_ptr<const ftc::core::StoreView> view;
  {
    Tracer::Span sp(tracer_, Sp::kStoreOpen);
    view = ftc::core::open_store_view(locator(), true, reuse_from);
  }
  ftc::core::store::PrefetchStats ps;
  {
    Tracer::Span sp(tracer_, Sp::kStorePrefetch);
    ps = view->prefetch(prefetch_threads());
  }
  last_prefetch_threads_ = ps.threads;
  if (tracer_.on()) {
    layers_.prefetches += 1;
    layers_.shards_opened += static_cast<double>(ps.shards_opened);
    layers_.shards_adopted += static_cast<double>(ps.shards_adopted);
  }
  std::unique_ptr<ConnectivityScheme> scheme;
  {
    Tracer::Span sp(tracer_, Sp::kStoreLoad);
    scheme = ftc::core::load_scheme(std::move(view));
  }
  {
    Tracer::Span sp(tracer_, Sp::kJournalAttach);
    ftc::core::attach_journal_sidecar(*scheme, locator(), true);
  }
  return scheme;
}

void Bench::swap_to_current() {
  auto scheme = open_generation(engine_->scheme().store_view());
  Tracer::Span sp(tracer_, Sp::kSwapStore);
  engine_->swap_store(std::move(scheme));
}

void Bench::setup_once() {
  engine_.reset();
  if (server_) server_->stop();
  server_.reset();
  cache_.reset();
  ftc::core::set_default_remote_cache(nullptr);
  fs::remove_all(root_);
  fs::create_directories(origin_dir());
  flush_writes();  // the previous setup's writeback stays out of this one

  tracer_.set_trace_id(++trace_id_);
  const std::int64_t t0 = now_ns();
  {
    Tracer::Span sp(tracer_, Sp::kSetup);
    {
      Tracer::Span g(tracer_, Sp::kGraphGenerate);
      graph_ = ftc::graph::random_connected(
          w_.n, w_.m, stream_seed(w_.graph_seed, kGraphStream));
    }
    {
      std::unique_ptr<BuiltCoreScheme> scheme;
      {
        Tracer::Span b(tracer_, Sp::kBuild);
        scheme = std::make_unique<BuiltCoreScheme>(graph_, config_.ftc);
      }
      if (tracer_.on()) {
        const auto& bs = scheme->build_stats();
        layers_.build_hierarchy_ms.push_back(bs.hierarchy_seconds * 1e3);
        layers_.build_sketch_ms.push_back(bs.sketch_seconds * 1e3);
      }
      layers_.build_threads = scheme->build_stats().threads;
      Tracer::Span s(tracer_, Sp::kStoreSave);
      ftc::core::save_sharded(*scheme, manifest(), w_.shards);
    }
    store_bytes_ = dir_bytes(origin_dir());
    if (w_.remote) {
      server_ = std::make_unique<ftc::core::ShardHttpServer>(origin_dir());
      server_->start();
      // Private cache, fresh per setup: larger than one generation and
      // smaller than two, so a rebuild swap evicts and a join hits.
      cache_ = std::make_shared<ftc::core::ShardCache>(
          root_ + "/cache", store_bytes_ + store_bytes_ / 2);
      ftc::core::set_default_remote_cache(cache_);
    }
    auto scheme = open_generation(nullptr);
    Tracer::Span e(tracer_, Sp::kEngineCreate);
    engine_ = std::make_unique<BatchQueryEngine>(std::move(scheme), FaultSpec{});
  }
  e2e().setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  setup_save_threads_ = std::min(w_.shards, nproc_);
  store_digest_ = engine_->scheme().store_view()->info().payload_checksum;
  journaled_.clear();
}

// ----------------------------------------------------------- fault sets

std::vector<EdgeId> Bench::reduced_edges(const FaultSpec& spec) const {
  std::vector<EdgeId> out(spec.edge_faults().begin(), spec.edge_faults().end());
  for (const VertexId v : spec.vertex_faults()) {
    const auto inc = graph_.incident_edges(v);
    out.insert(out.end(), inc.begin(), inc.end());
  }
  out.insert(out.end(), journaled_.begin(), journaled_.end());
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Bench::truth(VertexId s, VertexId t, const FaultSpec& spec) const {
  std::vector<EdgeId> edges(spec.edge_faults().begin(), spec.edge_faults().end());
  edges.insert(edges.end(), journaled_.begin(), journaled_.end());
  return ftc::graph::connected_avoiding(graph_, s, t, edges,
                                        spec.vertex_faults());
}

FaultSpec Bench::make_faults(std::vector<Query>* queries) {
  ftc::SplitMix64& rng = fault_rng_;
  const unsigned f = w_.f;
  queries->clear();
  if (w_.gen == FaultGen::kUniform) {
    // One vertex of degree <= f/2 plus random edges, reduced |F| = f.
    VertexId v = 0;
    do {
      v = random_vertex(rng);
    } while (graph_.degree(v) > f / 2 || graph_.degree(v) == 0);
    std::vector<EdgeId> edges;
    while (edges.size() + graph_.degree(v) < f) {
      const EdgeId e = static_cast<EdgeId>(rng.next_below(graph_.num_edges()));
      const auto& ed = graph_.edge(e);
      if (ed.u == v || ed.v == v) continue;
      if (std::find(edges.begin(), edges.end(), e) != edges.end()) continue;
      edges.push_back(e);
    }
    const std::vector<VertexId> verts{v};
    // A fixed share (1 in 16, starting at index 0) names the failed vertex.
    for (std::size_t i = 0; i < w_.queries; ++i) {
      const VertexId t = random_vertex(rng);
      queries->push_back(i % 16 == 0 ? Query{v, t} : Query{random_vertex(rng), t});
    }
    return FaultSpec::of(edges, verts);
  }
  // Correlated failure: the first f links met by a BFS from a random site.
  const VertexId site = random_vertex(rng);
  std::vector<EdgeId> edges;
  std::vector<char> seen(graph_.num_vertices(), 0);
  std::vector<VertexId> frontier{site};
  seen[site] = 1;
  for (std::size_t head = 0; head < frontier.size() && edges.size() < f; ++head) {
    const VertexId x = frontier[head];
    for (const EdgeId e : graph_.incident_edges(x)) {
      if (edges.size() == f) break;
      if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
        edges.push_back(e);
      }
      const VertexId y = graph_.other_endpoint(e, x);
      if (!seen[y]) {
        seen[y] = 1;
        frontier.push_back(y);
      }
    }
  }
  for (std::size_t i = 0; i < w_.queries; ++i) {
    const auto& ed = graph_.edge(edges[rng.next_below(edges.size())]);
    const VertexId s = rng.next_bool() ? ed.u : ed.v;
    queries->push_back(Query{s, random_vertex(rng)});
  }
  return FaultSpec::edges(edges);
}

// ---------------------------------------------------------- serve epoch

// Touches every vertex and edge label page of the serving generation,
// untimed, at the start of each serve slice. A freshly swapped generation
// faults its label pages in on first touch, so without this pass the
// share of resets that fault would depend on how long the slices are and
// how fast the loop runs; at 2.5 s slices epoch_p50_us read about a
// quarter higher. With it, the epochs measure steady-state serving.
void Bench::map_labels() const {
  const auto view = engine_->scheme().store_view();
  unsigned sink = 0;
  auto touch = [&](std::span<const std::uint8_t> blob) {
    for (std::size_t off = 0; off < blob.size(); off += 4096) sink += blob[off];
    if (!blob.empty()) sink += blob.back();
  };
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) touch(view->vertex_blob(v));
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) touch(view->edge_blob(e));
  static volatile unsigned keep;
  keep = sink;
}

void Bench::serve_epoch() {
  tracer_.set_trace_id(++trace_id_);
  EndToEnd& m = e2e();
  FaultSpec spec;
  std::vector<Query> qs;
  bool installed = false;
  for (unsigned r = 0; r < w_.resets; ++r) {
    spec = make_faults(&qs);
    const std::int64_t t0 = now_ns();
    installed = attempt(1, [&] {
      Tracer::Span sp(tracer_, Sp::kResetFaults);
      engine_->reset_faults(spec);
    });
    const std::int64_t dt = now_ns() - t0;
    if (installed) m.epoch_ns.push_back(dt);
  }
  if (!installed) return;  // the session still serves an older fault set

  // Closed loop, one query in flight, on the caller thread, over the list
  // twice: a query's latency is the faster of its two calls, so a stall
  // of the host that lands on one call does not count as the query's.
  std::vector<char> answers(qs.size(), 0);
  std::vector<char> answered(qs.size(), 0);
  std::vector<std::int64_t> lat(qs.size(), 0);
  for (unsigned pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (pass > 0 && !answered[i]) continue;
      bool r = false;
      const std::int64_t t0 = now_ns();
      const bool ok = attempt(1, [&] {
        Tracer::Span sp(tracer_, Sp::kConnected);
        r = engine_->connected(qs[i].s, qs[i].t);
      });
      const std::int64_t dt = now_ns() - t0;
      if (!ok) {
        answered[i] = 0;
        continue;
      }
      if (pass == 0) {
        answers[i] = r;
        answered[i] = 1;
        lat[i] = dt;
      } else if (static_cast<bool>(answers[i]) != r) {
        throw WrongAnswer("connected() changed its answer on (" +
                          std::to_string(qs[i].s) + ", " +
                          std::to_string(qs[i].t) + ")");
      } else {
        lat[i] = std::min(lat[i], dt);
      }
    }
  }
  std::vector<std::int64_t> epoch_lat;
  epoch_lat.reserve(qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (!answered[i]) continue;
    m.query_ns.add(lat[i]);
    epoch_lat.push_back(lat[i]);
  }
  if (!epoch_lat.empty()) {
    m.query_p99_ns.push_back(quantile(std::move(epoch_lat), 0.99));
  }

  // The same list, fanned across nproc threads, batch_reps times; the
  // fastest pass is the epoch's throughput sample.
  std::int64_t batch_ns = 0;
  for (unsigned rep = 0; rep < w_.batch_reps; ++rep) {
    std::vector<bool> batch;
    const std::int64_t b0 = now_ns();
    const bool ok = attempt(qs.size(), [&] {
      Tracer::Span sp(tracer_, Sp::kRunParallel);
      batch = engine_->run_parallel(qs, nproc_);
    });
    const std::int64_t dt = now_ns() - b0;
    if (!ok) continue;
    if (batch_ns == 0 || dt < batch_ns) batch_ns = dt;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (answered[i] && static_cast<bool>(answers[i]) != batch[i]) {
        throw WrongAnswer("run_parallel disagrees with connected() on (" +
                          std::to_string(qs[i].s) + ", " +
                          std::to_string(qs[i].t) + ")");
      }
    }
  }
  if (batch_ns > 0) {
    m.batch_qps.push_back(static_cast<double>(qs.size()) * 1e9 /
                          static_cast<double>(batch_ns));
  }

  // Every answer against component labels of G - F; a seeded sample,
  // always including index 0, also against connected_avoiding directly.
  const auto comp = ftc::graph::components_avoiding(graph_, reduced_edges(spec));
  const auto deleted = spec.vertex_faults();
  auto is_deleted = [&](VertexId v) {
    return std::binary_search(deleted.begin(), deleted.end(), v);
  };
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (!answered[i]) continue;
    const Query q = qs[i];
    const bool want = q.s == q.t || (!is_deleted(q.s) && !is_deleted(q.t) &&
                                     comp[q.s] == comp[q.t]);
    checker_.check(answers[i], want, "serve", q.s, q.t);
  }
  for (std::size_t c = 0; c < w_.checks && c < qs.size(); ++c) {
    const std::size_t i = c == 0 ? 0 : fault_rng_.next_below(qs.size());
    if (!answered[i]) continue;
    checker_.check(answers[i], truth(qs[i].s, qs[i].t, spec), "serve (BFS)",
                   qs[i].s, qs[i].t);
  }

  if (tracer_.on()) {
    replay_epoch(spec, qs, answers, answered, batch_ns);
  }
}

// Traced epochs only: the query path again, one layer at a time, through
// each layer's public functions — ConnectivityScheme (prepare_faults,
// query), the store view (vertex_blob, edge_blob + decode_core_edge) and
// the decoder (PreparedFaults::prepare, FtcDecoder::connected).
void Bench::replay_epoch(const FaultSpec& spec, const std::vector<Query>& qs,
                         const std::vector<char>& answers,
                         const std::vector<char>& answered,
                         std::int64_t batch_ns) {
  const ConnectivityScheme& scheme = engine_->scheme();
  std::unique_ptr<ConnectivityScheme::FaultSet> fset;
  if (!attempt(1, [&] {
        Tracer::Span sp(tracer_, Sp::kSchemePrepare);
        fset = scheme.prepare_faults(spec);
      })) {
    return;
  }
  layers_.reduced_edges.push_back(static_cast<double>(fset->num_faults()));
  auto ws = scheme.make_workspace();
  const std::int64_t t0 = now_ns();
  const bool seq_ok = attempt(qs.size(), [&] {
    Tracer::Span sp(tracer_, Sp::kSchemeQuerySeq);
    for (const Query& q : qs) (void)scheme.query(q.s, q.t, *fset, *ws);
  });
  if (seq_ok && batch_ns > 0) {
    layers_.fanout_eff.push_back(static_cast<double>(now_ns() - t0) /
                                 (static_cast<double>(batch_ns) * nproc_));
  }
  const std::size_t sample = std::min<std::size_t>(qs.size(), 512);
  for (std::size_t i = 0; i < sample; ++i) {
    const std::int64_t q0 = now_ns();
    if (attempt(1, [&] {
          Tracer::Span sp(tracer_, Sp::kSchemeQuery);
          (void)scheme.query(qs[i].s, qs[i].t, *fset, *ws);
        })) {
      layers_.scheme_query_ns.add(now_ns() - q0);
    }
  }

  const auto view = scheme.store_view();
  ftc::core::store::ByteReader pr(view->params_blob());
  std::vector<std::uint32_t> bounds;
  const ftc::core::LabelParams params = ftc::core::store::decode_core_params(
      pr, view->info().format_version, &bounds);

  const std::vector<EdgeId> edges = reduced_edges(spec);
  std::vector<ftc::core::EdgeLabel> labels;
  labels.reserve(edges.size());
  {
    const std::int64_t t0 = now_ns();
    {
      Tracer::Span sp(tracer_, Sp::kEdgeFetch);
      for (const EdgeId e : edges) {
        ftc::core::store::ByteReader r(view->edge_blob(e));
        labels.push_back(ftc::core::store::decode_core_edge(r, params));
      }
    }
    if (!edges.empty()) {
      layers_.edge_fetch_ns.push_back(static_cast<double>(now_ns() - t0) /
                                      static_cast<double>(edges.size()));
    }
  }
  std::optional<ftc::core::PreparedFaults> prepared;
  {
    Tracer::Span sp(tracer_, Sp::kDecoderPrepare);
    prepared.emplace(ftc::core::PreparedFaults::prepare(labels, bounds));
  }

  std::vector<ftc::graph::AncestryLabel> anc(2 * sample);
  {
    const std::int64_t t0 = now_ns();
    {
      Tracer::Span sp(tracer_, Sp::kVertexFetch);
      for (std::size_t i = 0; i < sample; ++i) {
        anc[2 * i] = ftc::core::store::decode_vertex_record_at(
            view->vertex_blob(qs[i].s).data());
        anc[2 * i + 1] = ftc::core::store::decode_vertex_record_at(
            view->vertex_blob(qs[i].t).data());
      }
    }
    if (sample > 0) {
      layers_.vertex_fetch_ns.push_back(static_cast<double>(now_ns() - t0) /
                                        static_cast<double>(2 * sample));
    }
  }
  ftc::core::DecoderWorkspace dws;
  const auto deleted = spec.vertex_faults();
  for (std::size_t i = 0; i < sample; ++i) {
    const Query q = qs[i];
    // The decoder alone knows nothing of deleted endpoints (the scheme
    // layer resolves those), so they are not replayed.
    if (!answered[i] || q.s == q.t ||
        std::binary_search(deleted.begin(), deleted.end(), q.s) ||
        std::binary_search(deleted.begin(), deleted.end(), q.t)) {
      continue;
    }
    ftc::core::QueryStats st;
    bool r = false;
    attempted_ += 1;
    try {
      Tracer::Span sp(tracer_, Sp::kDecoderQuery);
      r = ftc::core::FtcDecoder::connected(
          ftc::core::VertexLabel{params, anc[2 * i]},
          ftc::core::VertexLabel{params, anc[2 * i + 1]}, *prepared, dws, {},
          &st);
    } catch (const ftc::core::FtcCapacityError&) {
      failed_ += 1;
      continue;
    }
    if (r != static_cast<bool>(answers[i])) {
      throw WrongAnswer("decoder replay disagrees with the engine on (" +
                        std::to_string(q.s) + ", " + std::to_string(q.t) + ")");
    }
    layers_.decoder_queries += 1;
    layers_.decoder_disconnected += r ? 0 : 1;
    layers_.fragments += st.fragments;
    layers_.outdetect_calls += st.outdetect_calls;
    layers_.merges += st.merges;
    layers_.levels_scanned += st.levels_scanned;
  }
}

// ------------------------------------------------------ maintenance cycle

std::vector<EdgeId> Bench::pick_deletions(std::size_t count) {
  // Random edges whose deletion keeps the graph connected (the rebuild
  // needs a connected input).
  std::vector<EdgeId> picked;
  while (picked.size() < count) {
    const EdgeId e = static_cast<EdgeId>(churn_rng_.next_below(graph_.num_edges()));
    if (std::binary_search(journaled_.begin(), journaled_.end(), e) ||
        std::find(picked.begin(), picked.end(), e) != picked.end()) {
      continue;
    }
    std::vector<EdgeId> gone(journaled_);
    gone.insert(gone.end(), picked.begin(), picked.end());
    gone.push_back(e);
    const auto comp = ftc::graph::components_avoiding(graph_, gone);
    if (std::all_of(comp.begin(), comp.end(), [&](int c) { return c == comp[0]; })) {
      picked.push_back(e);
    }
  }
  return picked;
}

void Bench::journal_phase() {
  attempt(1, [&] { engine_->reset_faults(FaultSpec{}); });
  const FaultSpec none;
  for (unsigned frame = 0; frame < w_.f / 2; ++frame) {
    const std::vector<EdgeId> del = pick_deletions(2);
    const VertexId s = graph_.edge(del[0]).u;
    const VertexId t = graph_.edge(del[0]).v;
    bool got = false;
    bool appended = false;
    std::uint64_t epoch = 0;
    const std::int64_t t0 = now_ns();
    const bool ok = attempt(1, [&] {
      Tracer::Span sp(tracer_, Sp::kJournalSwap);
      {
        Tracer::Span a(tracer_, Sp::kJournalAppend);
        ftc::core::DeletionJournal::append(
            ftc::core::journal_path_for(manifest()), store_digest_, w_.f, del);
      }
      appended = true;
      swap_to_current();
      Tracer::Span fa(tracer_, Sp::kFirstAnswer);
      got = engine_->connected(s, t);
      epoch = engine_->last_run_epoch();
    });
    const std::int64_t dt = now_ns() - t0;
    if (appended) {
      journaled_.insert(journaled_.end(), del.begin(), del.end());
      std::sort(journaled_.begin(), journaled_.end());
    }
    if (!ok) continue;
    if (epoch != engine_->epoch()) {
      throw WrongAnswer("first answer after a journal swap came from a stale epoch");
    }
    e2e().journal_swap_ns.push_back(dt);
    checker_.check(got, truth(s, t, none), "journal first answer", s, t);
    if (tracer_.on()) {
      const auto* j = engine_->scheme().journal();
      layers_.journal_occupancy.push_back(j ? static_cast<double>(j->occupancy()) : 0.0);
    }
    const auto comp = ftc::graph::components_avoiding(graph_, journaled_);
    for (std::size_t p = 0; p < w_.probes; ++p) {
      const VertexId a = random_vertex(churn_rng_);
      const VertexId b = random_vertex(churn_rng_);
      bool r = false;
      if (attempt(1, [&] { r = engine_->connected(a, b); })) {
        checker_.check(r, comp[a] == comp[b], "journal probe", a, b);
      }
    }
  }
}

void Bench::rebuild_phase() {
  Graph next(graph_.num_vertices());
  for (EdgeId e = 0; e < graph_.num_edges(); ++e) {
    if (!std::binary_search(journaled_.begin(), journaled_.end(), e)) {
      next.add_edge(graph_.edge(e).u, graph_.edge(e).v);
    }
  }
  const VertexId s = random_vertex(churn_rng_);
  const VertexId t = random_vertex(churn_rng_);
  const auto cache_before = cache_ ? cache_->stats() : ftc::core::ShardCacheStats{};
  std::unique_ptr<BuiltCoreScheme> scheme;
  ftc::core::DeltaPushStats push;
  bool got = false;
  const std::int64_t t0 = now_ns();
  const bool ok = attempt(1, [&] {
    Tracer::Span sp(tracer_, Sp::kRebuild);
    {
      Tracer::Span b(tracer_, Sp::kBuild);
      scheme = std::make_unique<BuiltCoreScheme>(next, config_.ftc);
    }
    {
      Tracer::Span p(tracer_, Sp::kPush);
      // The journal binds to the generation it was written against.
      fs::remove(ftc::core::journal_path_for(manifest()));
      push = ftc::core::save_sharded_delta(*scheme, manifest(), manifest());
    }
    swap_to_current();
    Tracer::Span fa(tracer_, Sp::kFirstAnswer);
    got = engine_->connected(s, t);
  });
  const std::int64_t dt = now_ns() - t0;
  graph_ = std::move(next);
  journaled_.clear();
  if (!ok) return;
  e2e().rebuild_ns.push_back(dt);
  checker_.check(got, truth(s, t, FaultSpec{}), "rebuild first answer", s, t);
  store_digest_ = engine_->scheme().store_view()->info().payload_checksum;
  if (tracer_.on()) {
    const auto& bs = scheme->build_stats();
    layers_.build_hierarchy_ms.push_back(bs.hierarchy_seconds * 1e3);
    layers_.build_sketch_ms.push_back(bs.sketch_seconds * 1e3);
    layers_.pushes += 1;
    layers_.push_shards_written += static_cast<double>(push.shards_written);
    layers_.push_bytes_written += static_cast<double>(push.bytes_written);
    layers_.push_bytes_reused += static_cast<double>(push.bytes_reused);
    layers_.push_bytes_total +=
        static_cast<double>(push.bytes_written + push.bytes_reused);
    if (cache_) {
      layers_.rebuild_swap_hits +=
          static_cast<double>(cache_->stats().hits - cache_before.hits);
    }
  }
}

void Bench::join_phase() {
  const VertexId s = random_vertex(churn_rng_);
  const VertexId t = random_vertex(churn_rng_);
  const auto cache_before = cache_ ? cache_->stats() : ftc::core::ShardCacheStats{};
  std::unique_ptr<BatchQueryEngine> replica;
  bool got = false;
  const std::int64_t t0 = now_ns();
  const bool ok = attempt(1, [&] {
    Tracer::Span sp(tracer_, Sp::kJoin);
    auto scheme = open_generation(nullptr);
    {
      Tracer::Span e(tracer_, Sp::kEngineCreate);
      replica = std::make_unique<BatchQueryEngine>(std::move(scheme), FaultSpec{});
    }
    Tracer::Span fa(tracer_, Sp::kFirstAnswer);
    got = replica->connected(s, t);
  });
  const std::int64_t dt = now_ns() - t0;
  replica.reset();
  if (!ok) return;
  e2e().join_ns.push_back(dt);
  checker_.check(got, truth(s, t, FaultSpec{}), "join first answer", s, t);
  if (tracer_.on() && cache_) {
    layers_.join_hits += static_cast<double>(cache_->stats().hits - cache_before.hits);
  }
}

void Bench::maintenance_cycle() {
  tracer_.set_trace_id(++trace_id_);
  const auto cache_before = cache_ ? cache_->stats() : ftc::core::ShardCacheStats{};
  const auto origin_before =
      server_ ? server_->stats() : ftc::core::ShardHttpServer::Stats{};
  journal_phase();
  rebuild_phase();
  flush_writes();  // the push's writeback stays out of the join timings
  for (unsigned j = 0; j < w_.joins; ++j) join_phase();
  if (tracer_.on()) {
    layers_.cycles += 1;
    if (cache_) {
      const auto c = cache_->stats();
      layers_.cache.hits += c.hits - cache_before.hits;
      layers_.cache.misses += c.misses - cache_before.misses;
      layers_.cache.evictions += c.evictions - cache_before.evictions;
      layers_.cache.bytes_fetched += c.bytes_fetched - cache_before.bytes_fetched;
    }
    if (server_) {
      const auto o = server_->stats();
      layers_.origin_requests += static_cast<double>(o.requests - origin_before.requests);
      layers_.origin_bytes += static_cast<double>(o.bytes_sent - origin_before.bytes_sent);
    }
    if (server_) {
      // The remote layer alone: one shard over HTTP, bytes discarded.
      const auto view = std::dynamic_pointer_cast<const ftc::core::ShardedStoreView>(
          engine_->scheme().store_view());
      const auto& rec = view->shards()[static_cast<std::size_t>(layers_.cycles) %
                                       view->shards().size()];
      const ftc::core::HttpShardSource src("127.0.0.1", server_->port(), "/");
      Tracer::Span sp(tracer_, Sp::kRemoteFetch);
      attempt(1, [&] { (void)src.fetch(rec.name); });
    }
  }
}

void Bench::flush_writes() const {
  const int fd = ::open(root_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

// Smoke only: the BuiltCoreScheme wrapper and make_scheme() must write
// byte-identical stores, or build attribution would time another build.
void Bench::check_make_scheme_equivalence() {
  const std::string ref = root_ + "/ref/store.ftcm";
  fs::create_directories(root_ + "/ref");
  ftc::core::save_sharded(*ftc::core::make_scheme(graph_, config_), ref,
                          w_.shards);
  const auto a = ftc::core::ShardedStoreView::open(ref, false);
  const auto b = ftc::core::ShardedStoreView::open(manifest(), false);
  bool same = a->info().payload_checksum == b->info().payload_checksum &&
              a->shards().size() == b->shards().size();
  for (std::size_t k = 0; same && k < a->shards().size(); ++k) {
    same = a->shards()[k].payload_digest == b->shards()[k].payload_digest;
  }
  if (!same) {
    throw WrongAnswer("the benchmark's core-ftc build writes a different "
                      "store than make_scheme()");
  }
  fs::remove_all(root_ + "/ref");
}

// ----------------------------------------------------------------- run

int Bench::run() {
  // Setups: the median of setup_reps is setup_s; the last one serves.
  // The traced run alternates untraced and traced setups (and later
  // epochs and cycles) so tracing overhead is measured on equal inputs.
  for (unsigned r = 0; r < w_.setup_reps; ++r) {
    tracer_.enable(args_.trace && r % 2 == 1);
    setup_once();
  }
  if (args_.smoke) check_make_scheme_equivalence();

  // Serve slices alternate with maintenance cycles for the whole budget,
  // so every metric samples the host across the run. Before each phase
  // the benchmark flushes its own earlier writes (untimed), so one phase's
  // writeback does not land in the next phase's timings.
  const std::int64_t budget = static_cast<std::int64_t>(args_.seconds * 1e9);
  const std::int64_t slice = static_cast<std::int64_t>(w_.serve_slice_s * 1e9);
  const std::int64_t start = now_ns();
  std::uint64_t epochs = 0;
  for (std::uint64_t n = 0; n < 3 || now_ns() - start < budget; ++n) {
    flush_writes();
    map_labels();
    const std::int64_t slice_start = now_ns();
    do {
      tracer_.enable(args_.trace && epochs++ % 2 == 1);
      serve_epoch();
    } while (now_ns() - slice_start < slice);
    flush_writes();
    tracer_.enable(args_.trace && n % 2 == 1);
    maintenance_cycle();
  }
  tracer_.enable(false);

  std::ostringstream out;
  emit(out);
  engine_.reset();
  if (server_) server_->stop();
  server_.reset();
  ftc::core::set_default_remote_cache(nullptr);
  cache_.reset();
  if (args_.trace) {
    tracer_.write_jsonl(args_.work_dir + ".trace.jsonl");
  }
  fs::remove_all(root_);
  std::printf("PERFBENCH_RESULT %s\n", out.str().c_str());
  return 0;
}

// -------------------------------------------------------------- output

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      if (p != std::string::npos) return line.substr(p + 2);
    }
  }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o + "\"";
}

class MetricWriter {
 public:
  void add(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    if (!first_) body_ << ",";
    first_ = false;
    body_ << json_str(name) << ":{\"value\":" << buf << ",\"unit\":\"" << unit
          << "\"}";
  }
  std::string str() const { return "{" + body_.str() + "}"; }

 private:
  std::ostringstream body_;
  bool first_ = true;
};

void Bench::emit(std::ostringstream& out) const {
  MetricWriter mw;
  // End to end, from the untraced epochs and cycles (in a traced run,
  // the untraced half). Other tenants of a shared host stall single
  // calls, batches and maintenance steps, never speed them up, so each
  // statistic is one that a stall moves little and a slower program moves
  // fully: the median over epochs of each epoch's p99 (of per-query best
  // of two calls), the median over epochs of each epoch's fastest batch,
  // and the lower quartile of rebuilds and joins (README.md).
  const EndToEnd& u = untraced_;
  mw.add("setup_s", median(u.setup_s), "s");
  mw.add("query_p50_us", quantile(u.query_ns, 0.50) / 1e3, "us");
  mw.add("query_p99_us", median(u.query_p99_ns) / 1e3, "us");
  mw.add("query_p99_pooled_us", quantile(u.query_ns, 0.99) / 1e3, "us");
  mw.add("batch_qps", median(u.batch_qps), "queries/s");
  mw.add("epoch_p50_us", quantile(u.epoch_ns, 0.50) / 1e3, "us");
  mw.add("epoch_p99_us", quantile(u.epoch_ns, 0.99) / 1e3, "us");
  mw.add("journal_swap_ms", median(u.journal_swap_ns) / 1e6, "ms");
  mw.add("journal_swap_p25_ms", quantile(u.journal_swap_ns, 0.25) / 1e6, "ms");
  mw.add("rebuild_s", median(u.rebuild_ns) / 1e9, "s");
  mw.add("rebuild_p25_s", quantile(u.rebuild_ns, 0.25) / 1e9, "s");
  mw.add("join_ms", median(u.join_ns) / 1e6, "ms");
  mw.add("join_p25_ms", quantile(u.join_ns, 0.25) / 1e6, "ms");
  mw.add("store_bytes_per_edge",
         static_cast<double>(store_bytes_) / static_cast<double>(w_.m), "B");
  if (args_.trace) {
    // Tracing overhead: traced minus untraced, same run, same inputs.
    const auto& t = traced_;
    mw.add("overhead.setup_s", median(t.setup_s) - median(u.setup_s), "s");
    mw.add("overhead.query_p50_us",
           (quantile(t.query_ns, 0.5) - quantile(u.query_ns, 0.5)) / 1e3, "us");
    mw.add("overhead.query_p99_us",
           (median(t.query_p99_ns) - median(u.query_p99_ns)) / 1e3, "us");
    mw.add("overhead.batch_qps", median(t.batch_qps) - median(u.batch_qps),
           "queries/s");
    mw.add("overhead.epoch_p50_us",
           (quantile(t.epoch_ns, 0.5) - quantile(u.epoch_ns, 0.5)) / 1e3, "us");
    mw.add("overhead.journal_swap_ms",
           (median(t.journal_swap_ns) - median(u.journal_swap_ns)) / 1e6, "ms");
    mw.add("overhead.rebuild_s",
           (median(t.rebuild_ns) - median(u.rebuild_ns)) / 1e9, "s");
    mw.add("overhead.join_ms", (median(t.join_ns) - median(u.join_ns)) / 1e6, "ms");

    const Layers& L = layers_;
    auto dur_med = [&](Sp s, double per) {
      return median(tracer_.durations(s)) / per;
    };
    mw.add("batch_engine.fanout_eff", median(L.fanout_eff), "ratio");
    mw.add("batch_engine.swap_ms", dur_med(Sp::kSwapStore, 1e6), "ms");
    mw.add("scheme.prepare_faults_us", dur_med(Sp::kSchemePrepare, 1e3), "us");
    mw.add("scheme.reduced_edges", median(L.reduced_edges), "count");
    mw.add("scheme.query_p50_us", quantile(L.scheme_query_ns, 0.5) / 1e3, "us");
    mw.add("scheme.query_p99_us", quantile(L.scheme_query_ns, 0.99) / 1e3, "us");
    mw.add("decoder.prepare_us", dur_med(Sp::kDecoderPrepare, 1e3), "us");
    mw.add("decoder.query_p50_us",
           quantile(tracer_.durations(Sp::kDecoderQuery), 0.5) / 1e3, "us");
    mw.add("decoder.query_p99_us",
           quantile(tracer_.durations(Sp::kDecoderQuery), 0.99) / 1e3, "us");
    const double dq = L.decoder_queries;
    mw.add("decoder.fragments", ratio(L.fragments, dq), "count");
    mw.add("decoder.outdetect_calls", ratio(L.outdetect_calls, dq), "count");
    mw.add("decoder.merges", ratio(L.merges, dq), "count");
    mw.add("decoder.levels_scanned", ratio(L.levels_scanned, dq), "count");
    mw.add("decoder.disconnected_frac", ratio(L.decoder_disconnected, dq), "ratio");
    mw.add("store.vertex_fetch_ns", median(L.vertex_fetch_ns), "ns");
    mw.add("store.edge_fetch_ns", median(L.edge_fetch_ns), "ns");
    mw.add("store.open_us", dur_med(Sp::kStoreOpen, 1e3), "us");
    mw.add("store.prefetch_ms", dur_med(Sp::kStorePrefetch, 1e6), "ms");
    mw.add("store.shards_opened", ratio(L.shards_opened, L.prefetches), "count");
    mw.add("store.shards_adopted", ratio(L.shards_adopted, L.prefetches), "count");
    mw.add("store.save_ms", dur_med(Sp::kStoreSave, 1e6), "ms");
    mw.add("push.ms", dur_med(Sp::kPush, 1e6), "ms");
    mw.add("push.shards_written", ratio(L.push_shards_written, L.pushes), "count");
    mw.add("push.bytes_written", ratio(L.push_bytes_written, L.pushes), "B");
    mw.add("push.bytes_reused_frac", ratio(L.push_bytes_reused, L.push_bytes_total),
           "ratio");
    mw.add("build.ms", dur_med(Sp::kBuild, 1e6), "ms");
    mw.add("build.hierarchy_ms", median(L.build_hierarchy_ms), "ms");
    mw.add("build.sketch_ms", median(L.build_sketch_ms), "ms");
    mw.add("build.threads", L.build_threads, "count");
    mw.add("journal.append_ms", dur_med(Sp::kJournalAppend, 1e6), "ms");
    mw.add("journal.occupancy", median(L.journal_occupancy), "count");
    const double cyc = L.cycles;
    mw.add("cache.hits", ratio(static_cast<double>(L.cache.hits), cyc), "count");
    mw.add("cache.misses", ratio(static_cast<double>(L.cache.misses), cyc), "count");
    mw.add("cache.hit_ratio",
           ratio(static_cast<double>(L.cache.hits),
                 static_cast<double>(L.cache.hits + L.cache.misses)),
           "ratio");
    mw.add("cache.evictions", ratio(static_cast<double>(L.cache.evictions), cyc),
           "count");
    mw.add("cache.bytes_fetched",
           ratio(static_cast<double>(L.cache.bytes_fetched), cyc), "B");
    mw.add("cache.rebuild_swap_hits", ratio(L.rebuild_swap_hits, cyc), "count");
    mw.add("cache.join_hits", ratio(L.join_hits, cyc), "count");
    mw.add("remote.fetch_ms", dur_med(Sp::kRemoteFetch, 1e6), "ms");
    mw.add("origin.requests", ratio(L.origin_requests, cyc), "count");
    mw.add("origin.bytes_sent", ratio(L.origin_bytes, cyc), "B");
    // Blocking paths: share of each root span's time that no layer span
    // covers (the benchmark's own glue).
    auto unattributed = [&](Sp root) {
      const double total = static_cast<double>(tracer_.dur_sum(root));
      return ratio(static_cast<double>(tracer_.self_sum(root)), total);
    };
    mw.add("path.setup_unattributed_frac", unattributed(Sp::kSetup), "ratio");
    mw.add("path.journal_swap_unattributed_frac", unattributed(Sp::kJournalSwap),
           "ratio");
    mw.add("path.rebuild_unattributed_frac", unattributed(Sp::kRebuild), "ratio");
    mw.add("path.join_unattributed_frac", unattributed(Sp::kJoin), "ratio");
  }

  const EndToEnd& src = args_.trace ? traced_ : untraced_;
  out << "{\"correct\":true,\"attempted\":" << std::max<std::uint64_t>(attempted_, 1)
      << ",\"failed\":" << failed_ << ",\"metrics\":" << mw.str()
      << ",\"provenance\":{"
      << "\"workload\":" << json_str(w_.name) << ",\"seed\":" << args_.seed
      << ",\"seconds\":" << args_.seconds << ",\"trace\":" << (args_.trace ? 1 : 0)
      << ",\"smoke\":" << (args_.smoke ? "true" : "false")
      << ",\"cpu_model\":" << json_str(cpu_model()) << ",\"nproc\":" << nproc_
      << ",\"build_type\":" << json_str(PERFBENCH_BUILD_TYPE)
      << ",\"compiler\":" << json_str(std::string("g++ ") + __VERSION__)
      << ",\"graph\":{\"generator\":\"random_connected\",\"n\":" << w_.n
      << ",\"m\":" << w_.m << ",\"f\":" << w_.f << ",\"shards\":" << w_.shards
      << "},\"tier\":" << json_str(w_.remote ? "loopback-http" : "local-mmap")
      << ",\"store_bytes\":" << store_bytes_
      << ",\"threads\":{\"build\":" << layers_.build_threads
      << ",\"save\":" << setup_save_threads_
      << ",\"prefetch\":" << last_prefetch_threads_
      << ",\"batch\":" << nproc_
      << ",\"origin_connections_max\":" << (w_.remote ? prefetch_threads() : 0)
      << "},\"samples\":{\"setups\":" << src.setup_s.size()
      << ",\"queries\":" << src.query_ns.count()
      << ",\"epochs\":" << src.epoch_ns.size()
      << ",\"batches\":" << src.batch_qps.size()
      << ",\"journal_swaps\":" << src.journal_swap_ns.size()
      << ",\"rebuilds\":" << src.rebuild_ns.size()
      << ",\"joins\":" << src.join_ns.size()
      << "},\"query_us_deciles\":[";
  for (int d = 1; d <= 9; ++d) {
    out << (d > 1 ? "," : "") << quantile(src.query_ns, d / 10.0) / 1e3;
  }
  // Queries slower than 5 us decoded instead of exiting early; how close
  // this share sits to 1 % says how near query_p99_us is to the jump
  // between the two modes.
  out << "],\"query_share_over_5us\":" << src.query_ns.share_at_least(5000)
      << ",\"checked\":{\"total\":" << checker_.checked()
      << ",\"connected\":" << checker_.connected()
      << ",\"disconnected\":" << checker_.disconnected() << "}}}";
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = val() != "0";
    else if (k == "--work-dir") a.work_dir = val();
    else if (k == "--smoke") a.smoke = true;
    else if (k == "--flip-check") a.flip_check = std::stoll(val());
    else throw std::invalid_argument("unknown argument: " + k);
  }
  if (a.workload.empty() || a.work_dir.empty()) {
    throw std::invalid_argument("--workload and --work-dir are required");
  }
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Args args = parse_args(argc, argv);
    Bench bench(args, workload_by_name(args.workload, args.smoke));
    try {
      return bench.run();
    } catch (...) {
      std::error_code ec;
      std::filesystem::remove_all(args.work_dir, ec);
      throw;
    }
  } catch (const WrongAnswer& e) {
    std::fprintf(stderr, "perfbench: WRONG ANSWER: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
