// Randomized differential stress net: every generator family in
// graph/generators.hpp x random fault sets x all three backends, checked
// query-by-query against the BFS ground truth (connected_avoiding).
//
// Everything is seeded and the failing instance is printed as a
// (family, n, seed) triple plus the exact fault set and endpoints, so
// any mismatch reported by CI is replayable by pasting the triple into
// make_instance below. The sweep sizes are chosen to keep the suite
// fast enough for the asan preset while still covering qualitatively
// different fragment structures (expanders, large diameter, bridges,
// clique chains, heavy-tailed degrees, product graphs).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

struct Instance {
  std::string family;
  unsigned n = 0;          // family-specific size knob
  std::uint64_t seed = 0;  // generator seed (0 for deterministic families)
  Graph g;
};

// The replayable instance constructor: (family, n, seed) -> graph.
// gnp is the one family that may come out disconnected; those instances
// are skipped (the schemes require connected inputs) and nulled here.
std::optional<Instance> make_instance(const std::string& family, unsigned n,
                                      std::uint64_t seed) {
  Instance inst;
  inst.family = family;
  inst.n = n;
  inst.seed = seed;
  if (family == "gnp") {
    // Above the connectivity threshold most seeds come out connected.
    const double p = 3.5 * std::log(static_cast<double>(n)) /
                     static_cast<double>(n);
    inst.g = graph::gnp(n, p, seed);
    if (!graph::is_connected(inst.g)) return std::nullopt;
  } else if (family == "grid") {
    inst.g = graph::grid(n, n + 1);
  } else if (family == "barbell") {
    inst.g = graph::barbell(n, 3);
  } else if (family == "path_of_cliques") {
    inst.g = graph::path_of_cliques(n, 4);
  } else if (family == "preferential_attachment") {
    inst.g = graph::preferential_attachment(n, 3, seed);
  } else if (family == "hypercube") {
    inst.g = graph::hypercube(n);
  } else {
    ADD_FAILURE() << "unknown family " << family;
    return std::nullopt;
  }
  return inst;
}

std::string fault_list(const std::vector<EdgeId>& faults) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (i != 0) os << ",";
    os << faults[i];
  }
  os << "}";
  return os.str();
}

SchemeConfig stress_config(BackendKind backend, unsigned f) {
  SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  return cfg;
}

class StressDifferential : public ::testing::TestWithParam<BackendKind> {};

TEST_P(StressDifferential, AllFamiliesAgreeWithBfsGroundTruth) {
  const unsigned f = 4;
  struct Sweep {
    const char* family;
    std::vector<unsigned> sizes;  // family-specific knob, see make_instance
    std::vector<std::uint64_t> seeds;
  };
  const Sweep sweeps[] = {
      {"gnp", {24, 40}, {1, 2, 3}},
      {"grid", {5, 7}, {0}},
      {"barbell", {8, 12}, {0}},
      {"path_of_cliques", {4, 7}, {0}},
      {"preferential_attachment", {30, 48}, {1, 2}},
      {"hypercube", {4, 5}, {0}},
  };

  unsigned instances_built = 0;
  for (const Sweep& sweep : sweeps) {
    for (const unsigned n : sweep.sizes) {
      for (const std::uint64_t seed : sweep.seeds) {
        const auto inst = make_instance(sweep.family, n, seed);
        if (!inst.has_value()) continue;  // disconnected gnp draw
        const Graph& g = inst->g;
        const auto scheme = make_scheme(g, stress_config(GetParam(), f));
        ++instances_built;

        SplitMix64 rng(mix_hash(n * 1000 + seed, 0xabcdef));
        for (int it = 0; it < 30; ++it) {
          std::vector<EdgeId> faults;
          for (unsigned i = 0; i < rng.next_below(f + 1); ++i) {
            faults.push_back(
                static_cast<EdgeId>(rng.next_below(g.num_edges())));
          }
          const auto s =
              static_cast<VertexId>(rng.next_below(g.num_vertices()));
          const auto t =
              static_cast<VertexId>(rng.next_below(g.num_vertices()));
          const bool expected = graph::connected_avoiding(g, s, t, faults);
          EXPECT_EQ(scheme->connected(s, t, FaultSpec::edges(faults)), expected)
              << "REPLAY (family=" << inst->family << ", n=" << inst->n
              << ", seed=" << inst->seed << ") backend="
              << backend_name(GetParam()) << " faults=" << fault_list(faults)
              << " s=" << s << " t=" << t;
        }
      }
    }
  }
  // The sweep must not silently degenerate: 12 deterministic instances
  // plus at least a couple of connected gnp draws.
  EXPECT_GE(instances_built, 14u);
}

// Same differential, but through prepared fault-set sessions with both
// ablation switches — the serving path the batch engine exercises.
TEST_P(StressDifferential, SessionsAgreeWithOneShotAcrossAblations) {
  const unsigned f = 3;
  for (const char* family : {"grid", "path_of_cliques", "hypercube"}) {
    const auto inst = make_instance(family, family[0] == 'g' ? 5 : 4, 0);
    ASSERT_TRUE(inst.has_value());
    const Graph& g = inst->g;
    const auto scheme = make_scheme(g, stress_config(GetParam(), f));

    SplitMix64 rng(1234);
    for (int round = 0; round < 6; ++round) {
      std::vector<EdgeId> faults;
      for (unsigned i = 0; i < 1 + rng.next_below(f); ++i) {
        faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
      const auto fault_set = scheme->prepare_faults(FaultSpec::edges(faults));
      const auto workspace = scheme->make_workspace();
      for (int it = 0; it < 15; ++it) {
        const auto s =
            static_cast<VertexId>(rng.next_below(g.num_vertices()));
        const auto t =
            static_cast<VertexId>(rng.next_below(g.num_vertices()));
        const bool expected = graph::connected_avoiding(g, s, t, faults);
        for (const bool adaptive : {false, true}) {
          QueryOptions options;
          options.adaptive = adaptive;
          options.smallest_cut_first = !adaptive;
          EXPECT_EQ(scheme->query(s, t, *fault_set, *workspace, options),
                    expected)
              << "REPLAY (family=" << family << ") backend="
              << backend_name(GetParam()) << " faults=" << fault_list(faults)
              << " s=" << s << " t=" << t << " adaptive=" << adaptive;
        }
      }
    }
  }
}

// The FaultSpec fault model, differentially: vertex-only and mixed
// edge+vertex fault sweeps vs the BFS ground truth, across all three
// backends, through every serving path — one-shot connected(spec),
// prepared sessions, BatchQueryEngine, and schemes served from a
// format-v2 label store, as one container and as 3 shards.
TEST_P(StressDifferential, VertexAndMixedFaultsAgreeWithBfsGroundTruth) {
  // Capacity headroom: <= 2 vertex faults * max degree + 2 edge faults.
  const unsigned f = 14;
  struct Sweep {
    const char* family;
    unsigned n;
    std::uint64_t seed;
  };
  const Sweep sweeps[] = {
      {"grid", 4, 0},
      {"path_of_cliques", 4, 0},
      {"hypercube", 4, 0},
      {"preferential_attachment", 24, 2},
  };
  for (const Sweep& sweep : sweeps) {
    const auto inst = make_instance(sweep.family, sweep.n, sweep.seed);
    ASSERT_TRUE(inst.has_value());
    const Graph& g = inst->g;
    const auto scheme = make_scheme(g, stress_config(GetParam(), f));

    // Store round-trip: the saved container (format v2, with adjacency)
    // and a 3-shard store of the same scheme must answer vertex faults
    // exactly like the in-memory scheme.
    const std::string store_path =
        ::testing::TempDir() + "ftc_vfstress_" + sweep.family + "_" +
        std::to_string(static_cast<int>(GetParam())) + "_" +
        std::to_string(::getpid()) + ".ftcs";
    const std::string manifest_path = store_path + ".ftcm";
    scheme->save(store_path);
    save_sharded(*scheme, manifest_path, 3);
    const auto mmap_scheme = load_scheme(store_path);
    const auto sharded_scheme = load_scheme(manifest_path);

    SplitMix64 rng(mix_hash(sweep.n * 77 + sweep.seed, 0x5eed));
    for (int it = 0; it < 25; ++it) {
      std::vector<graph::VertexId> vertex_faults;
      for (unsigned i = 0; i < 1 + rng.next_below(2); ++i) {
        vertex_faults.push_back(
            static_cast<VertexId>(rng.next_below(g.num_vertices())));
      }
      std::vector<EdgeId> edge_faults;
      if (it % 2 == 0) {  // alternate vertex-only and mixed sweeps
        for (unsigned i = 0; i < rng.next_below(3); ++i) {
          edge_faults.push_back(
              static_cast<EdgeId>(rng.next_below(g.num_edges())));
        }
      }
      const auto spec = FaultSpec::of(edge_faults, vertex_faults);
      const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const bool expected =
          graph::connected_avoiding(g, s, t, edge_faults, vertex_faults);
      const auto replay = [&](const char* path) {
        std::ostringstream os;
        os << "REPLAY (family=" << sweep.family << ", n=" << sweep.n
           << ", seed=" << sweep.seed << ") backend="
           << backend_name(GetParam()) << " path=" << path
           << " edge_faults=" << fault_list(edge_faults)
           << " vertex_faults="
           << fault_list(std::vector<EdgeId>(vertex_faults.begin(),
                                             vertex_faults.end()))
           << " s=" << s << " t=" << t;
        return os.str();
      };
      const bool reference = scheme->connected(s, t, spec);
      EXPECT_EQ(reference, expected) << replay("in-memory");
      EXPECT_EQ(mmap_scheme->connected(s, t, spec), reference)
          << replay("store-mmap");
      EXPECT_EQ(sharded_scheme->connected(s, t, spec), reference)
          << replay("store-sharded");
    }

    // The same specs through batch sessions (in-memory and store-owned).
    SplitMix64 rng2(4242);
    std::vector<graph::VertexId> vf{
        static_cast<VertexId>(rng2.next_below(g.num_vertices()))};
    std::vector<EdgeId> ef{
        static_cast<EdgeId>(rng2.next_below(g.num_edges()))};
    const auto spec = FaultSpec::of(ef, vf);
    BatchQueryEngine in_memory(*scheme, spec);
    BatchQueryEngine from_store(load_scheme(store_path), spec);
    std::vector<BatchQueryEngine::Query> queries;
    for (int i = 0; i < 200; ++i) {
      queries.push_back(
          {static_cast<VertexId>(rng2.next_below(g.num_vertices())),
           static_cast<VertexId>(rng2.next_below(g.num_vertices()))});
    }
    const auto expected_bits = in_memory.run_sequential(queries);
    EXPECT_EQ(from_store.run_parallel(queries, 4), expected_bits)
        << sweep.family;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(static_cast<bool>(expected_bits[i]),
                graph::connected_avoiding(g, queries[i].s, queries[i].t, ef,
                                          vf))
          << sweep.family << " i=" << i;
    }
    std::remove(store_path.c_str());
    std::remove(manifest_path.c_str());
    for (int k = 0; k < 3; ++k) {
      std::remove((manifest_path + ".shard" + std::to_string(k) + ".ftcs")
                      .c_str());
    }
  }
}

// Parallel-build sweep: seeded generator families built at a RANDOM
// thread count (drawn per instance from the replayable rng), checked
// two ways against the serial build of the same instance — the saved
// store bytes must be identical, and answers must match the serial
// scheme AND the BFS ground truth. This is the randomized counterpart
// of test_parallel_build's fixed {1,2,8,hw} sweep: over CI runs it
// walks odd thread counts (3, 5, 7, ...) that fixed grids never try.
TEST_P(StressDifferential, ParallelBuildsMatchSerialAcrossFamilies) {
  const unsigned f = 4;
  struct Sweep {
    const char* family;
    unsigned n;
    std::uint64_t seed;
  };
  const Sweep sweeps[] = {
      {"gnp", 40, 2},
      {"grid", 6, 0},
      {"path_of_cliques", 6, 0},
      {"preferential_attachment", 40, 1},
      {"hypercube", 5, 0},
  };
  for (const Sweep& sweep : sweeps) {
    const auto inst = make_instance(sweep.family, sweep.n, sweep.seed);
    if (!inst.has_value()) continue;  // disconnected gnp draw
    const Graph& g = inst->g;
    SplitMix64 rng(mix_hash(sweep.n * 31 + sweep.seed, 0x7a11e1));
    // 2..9 workers; the draw is part of the replay triple via the rng.
    const unsigned threads = 2 + static_cast<unsigned>(rng.next_below(8));

    SchemeConfig cfg = stress_config(GetParam(), f);
    cfg.set_build_threads(1);
    const auto serial = make_scheme(g, cfg);
    cfg.set_build_threads(threads);
    const auto parallel = make_scheme(g, cfg);

    // Store-byte equality: the strongest statement — every label, every
    // parameter, every checksum identical — over the bytes save() wrote.
    const auto saved_bytes = [&](const ConnectivityScheme& scheme,
                                 const char* tag) {
      const std::string path =
          ::testing::TempDir() + "ftc_pbstress_" + tag + "_" +
          std::to_string(static_cast<int>(GetParam())) + "_" +
          std::to_string(::getpid()) + ".ftcs";
      scheme.save(path);
      std::ifstream in(path, std::ios::binary);
      std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
      std::remove(path.c_str());
      return bytes;
    };
    const auto serial_bytes = saved_bytes(*serial, "serial");
    const auto parallel_bytes = saved_bytes(*parallel, "parallel");
    ASSERT_FALSE(serial_bytes.empty());
    EXPECT_EQ(parallel_bytes, serial_bytes)
        << "REPLAY (family=" << sweep.family << ", n=" << sweep.n
        << ", seed=" << sweep.seed << ") backend=" << backend_name(GetParam())
        << " threads=" << threads;

    for (int it = 0; it < 20; ++it) {
      std::vector<EdgeId> faults;
      for (unsigned i = 0; i < rng.next_below(f + 1); ++i) {
        faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
      }
      const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const bool expected = graph::connected_avoiding(g, s, t, faults);
      const bool serial_got = serial->connected(s, t, FaultSpec::edges(faults));
      const bool parallel_got =
          parallel->connected(s, t, FaultSpec::edges(faults));
      EXPECT_EQ(serial_got, expected)
          << "REPLAY (family=" << sweep.family << ", n=" << sweep.n
          << ", seed=" << sweep.seed << ") backend="
          << backend_name(GetParam()) << " faults=" << fault_list(faults)
          << " s=" << s << " t=" << t << " path=serial";
      EXPECT_EQ(parallel_got, expected)
          << "REPLAY (family=" << sweep.family << ", n=" << sweep.n
          << ", seed=" << sweep.seed << ") backend="
          << backend_name(GetParam()) << " threads=" << threads
          << " faults=" << fault_list(faults) << " s=" << s << " t=" << t
          << " path=parallel";
    }
  }
}

// Large-n leg, disabled by default (scripts/ci.sh stress-large runs it on
// the release preset with --gtest_also_run_disabled_tests): one instance
// per generator family with at least 50K vertices, built with core-ftc,
// saved as an 8-shard store and checked three ways — the store-served
// scheme against the built one against BFS — over 300 random queries.
// It exercises the stored label source and the flat route table at
// sizes the sweeps above never reach. The sketch threshold is pinned to
// its floor (k = 4) to bound label bytes at these edge counts: such a
// practical k may refuse a query with FtcCapacityError, which both
// schemes must then do alike, and which must stay rare.
void check_large(const std::string& family, const Graph& g) {
  ASSERT_GE(g.num_vertices(), 50000u) << family;
  ASSERT_TRUE(graph::is_connected(g)) << family;
  const unsigned f = 3;
  SchemeConfig cfg = stress_config(BackendKind::kCoreFtc, f);
  cfg.ftc.k_override = 4;
  cfg.set_build_threads(0);  // same labels for any thread count
  const auto built = make_scheme(g, cfg);

  const std::string manifest = ::testing::TempDir() + "ftc_large_" + family +
                               "_" + std::to_string(::getpid()) + ".ftcm";
  save_sharded(*built, manifest, 8);
  const auto stored = load_scheme(manifest);
  ASSERT_EQ(stored->store_view()->info().num_shards, 8u);

  // Outcome of one query: the answer, or a typed capacity refusal.
  enum class Outcome { kDisconnected, kConnected, kRefused };
  const auto ask = [](const ConnectivityScheme& scheme, VertexId s,
                      VertexId t, const ConnectivityScheme::FaultSet& faults,
                      ConnectivityScheme::Workspace& workspace) {
    try {
      return scheme.query(s, t, faults, workspace) ? Outcome::kConnected
                                                   : Outcome::kDisconnected;
    } catch (const FtcCapacityError&) {
      return Outcome::kRefused;
    }
  };

  SplitMix64 rng(mix_hash(g.num_vertices(), 0x1a26e));
  const auto built_ws = built->make_workspace();
  const auto stored_ws = stored->make_workspace();
  unsigned answered = 0, disconnected = 0, isolating_rounds = 0;
  for (int round = 0; round < 30; ++round) {
    // Even rounds cut around the lowest-degree of a few sampled vertices
    // (isolating it when its degree is at most f); every round fills up
    // to f faults with random edges.
    VertexId hub = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    for (int i = 0; i < 8; ++i) {
      const auto v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      if (g.degree(v) < g.degree(hub)) hub = v;
    }
    std::vector<EdgeId> faults;
    if (round % 2 == 0) {
      if (g.degree(hub) <= f) ++isolating_rounds;
      for (const EdgeId e : g.incident_edges(hub)) {
        if (faults.size() == f) break;
        faults.push_back(e);
      }
    }
    while (faults.size() < f) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    const auto spec = FaultSpec::edges(faults);
    const std::vector<int> component = graph::components_avoiding(g, faults);
    const auto built_fs = built->prepare_faults(spec);
    const auto stored_fs = stored->prepare_faults(spec);
    EXPECT_EQ(stored_fs->num_faults(), built_fs->num_faults());

    for (int q = 0; q < 10; ++q) {
      const VertexId s = q == 0 ? hub
                                : static_cast<VertexId>(
                                      rng.next_below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const bool truth = component[s] == component[t];
      const Outcome b = ask(*built, s, t, *built_fs, *built_ws);
      const Outcome st = ask(*stored, s, t, *stored_fs, *stored_ws);
      const std::string replay = "REPLAY (family=" + family +
                                 ", round=" + std::to_string(round) +
                                 ") faults=" + fault_list(faults) +
                                 " s=" + std::to_string(s) +
                                 " t=" + std::to_string(t);
      EXPECT_EQ(st, b) << replay;
      if (b == Outcome::kRefused) continue;
      EXPECT_EQ(b == Outcome::kConnected, truth) << replay;
      ++answered;
      disconnected += truth ? 0 : 1;
    }
  }
  // Refusals stay rare, and where a round isolated its hub (families
  // with vertices of degree <= f) some pairs really were separated.
  EXPECT_GE(answered, 270u) << family;
  if (isolating_rounds > 0) {
    EXPECT_GE(disconnected, 1u) << family;
  }

  std::remove(manifest.c_str());
  for (int k = 0; k < 8; ++k) {
    std::remove((manifest + ".shard" + std::to_string(k) + ".ftcs").c_str());
  }
}

TEST(StressDifferentialLarge, DISABLED_Gnp) {
  // Just above the connectivity threshold ln(n)/n, which keeps m near
  // 320K.
  const unsigned n = 50000;
  check_large("gnp", graph::gnp(n, 1.2 * std::log(n) / n, 1));
}

TEST(StressDifferentialLarge, DISABLED_Grid) {
  check_large("grid", graph::grid(224, 225));
}

TEST(StressDifferentialLarge, DISABLED_Barbell) {
  check_large("barbell", graph::barbell(8, 50000));
}

TEST(StressDifferentialLarge, DISABLED_PathOfCliques) {
  check_large("path_of_cliques", graph::path_of_cliques(12500, 4));
}

TEST(StressDifferentialLarge, DISABLED_PreferentialAttachment) {
  check_large("preferential_attachment",
              graph::preferential_attachment(50000, 3, 1));
}

TEST(StressDifferentialLarge, DISABLED_Hypercube) {
  check_large("hypercube", graph::hypercube(16));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StressDifferential,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           std::string name = backend_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ftc::core
