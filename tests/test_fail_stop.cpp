// The fail-stop promise of the core scheme, attacked directly. With the
// sketch threshold k forced far below what the fault sets' fragment
// boundaries need, the decoder may no longer be able to answer — but it
// must never answer wrong: every query either equals BFS ground truth or
// stops with FtcCapacityError. Both serving paths are attacked (the
// in-memory scheme and the same labels served from an mmapped store),
// over GF(2^64) and GF(2^128).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/ftc_labels.hpp"
#include "core/label_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

struct Outcome {
  std::size_t answered = 0;
  std::size_t refused = 0;  // FtcCapacityError
};

// One query through prepare + query; a wrong bit fails the test.
void attack(const ConnectivityScheme& scheme, const Graph& g, VertexId s,
            VertexId t, const std::vector<EdgeId>& faults, const char* path,
            Outcome* out) {
  bool answer = false;
  try {
    answer = scheme.connected(s, t, FaultSpec::edges(faults));
  } catch (const FtcCapacityError&) {
    ++out->refused;
    return;
  }
  ++out->answered;
  ASSERT_EQ(answer, graph::connected_avoiding(g, s, t, faults))
      << path << ": wrong bit for s=" << s << " t=" << t;
}

class FailStop : public ::testing::TestWithParam<FieldKind> {};

TEST_P(FailStop, UndersizedKAnswersExactlyOrRefuses) {
  // Dense graph, many faults, k = 2: the fault sets cut the spanning tree
  // into fragments whose boundaries hold far more than two edges.
  const unsigned f = 8;
  const Graph g = graph::random_connected(48, 240, 5);
  SchemeConfig cfg;
  cfg.set_f(f);
  cfg.ftc.k_override = 2;
  cfg.ftc.field = GetParam();
  const auto in_memory = make_scheme(g, cfg);

  const std::string path = ::testing::TempDir() + "ftc_failstop_" +
                           std::to_string(static_cast<int>(GetParam())) +
                           "_" + std::to_string(::getpid()) + ".ftcs";
  in_memory->save(path);
  const auto served = load_scheme(path);

  Outcome mem;
  Outcome store;
  SplitMix64 rng(0xfa11);
  for (int round = 0; round < 60; ++round) {
    std::vector<EdgeId> faults;
    for (unsigned i = 0; i < f; ++i) {
      faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    for (int q = 0; q < 16; ++q) {
      const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
      attack(*in_memory, g, s, t, faults, "in-memory", &mem);
      attack(*served, g, s, t, faults, "store-mmap", &store);
    }
  }
  std::remove(path.c_str());

  // The attack must actually reach the fail-stop path, and both serving
  // paths must refuse exactly the same queries (same labels, same
  // decoder).
  EXPECT_GT(mem.refused, 0u);
  EXPECT_GT(mem.answered, 0u);
  EXPECT_EQ(store.refused, mem.refused);
  EXPECT_EQ(store.answered, mem.answered);
}

INSTANTIATE_TEST_SUITE_P(Fields, FailStop,
                         ::testing::Values(FieldKind::kGF64,
                                           FieldKind::kGF128),
                         [](const auto& info) {
                           return info.param == FieldKind::kGF64
                                      ? std::string("GF64")
                                      : std::string("GF128");
                         });

}  // namespace
}  // namespace ftc::core
