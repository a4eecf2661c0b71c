// LabelStore round-trip and adversarial-input coverage.
//
// Round-trip: every backend's labels, written through save() (or
// save_sharded()) and served back from the mmap view, must answer exactly
// like the in-memory scheme that wrote them (cross-checked against the
// BFS ground truth), including through BatchQueryEngine sessions spun up
// straight from the file and the store-backed oracle facade.
//
// Adversarial: truncations, bad magic, unsupported versions, flipped
// checksum/payload bytes and corrupt offset indices must throw the typed
// StoreError — never UB (the suite also runs under the asan preset).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/label_store.hpp"
#include "core/oracle.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

SchemeConfig test_config(BackendKind backend, unsigned f) {
  SchemeConfig cfg;
  cfg.backend = backend;
  cfg.set_f(f);
  // Headroom so practical-k / whp parameters never run out of capacity
  // on the adversarial random workloads below.
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  return cfg;
}

// Unique file path per test under gtest's temp dir; removed on teardown.
class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_(::testing::TempDir() + "ftc_store_" + name + "_" +
              std::to_string(::getpid()) + ".ftcs") {
    cleanup();
  }
  ~StoreFile() { cleanup(); }
  const std::string& path() const { return path_; }

 private:
  // A sharded save under this path also writes "<path>.shard<k>.ftcs".
  void cleanup() {
    std::remove(path_.c_str());
    for (unsigned k = 0; k < 8; ++k) {
      std::remove((path_ + ".shard" + std::to_string(k) + ".ftcs").c_str());
    }
  }
  std::string path_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

// After editing header fields, restore the header checksum so the edit
// (not the checksum guard) is what open() trips over.
void fix_header_checksum(std::vector<std::uint8_t>& bytes) {
  ASSERT_GE(bytes.size(), store::kHeaderBytes);
  const std::uint64_t sum =
      store::fnv1a(std::span<const std::uint8_t>(bytes.data(), 56));
  for (int i = 0; i < 8; ++i) bytes[56 + i] = (sum >> (8 * i)) & 0xff;
}

std::vector<EdgeId> random_faults(SplitMix64& rng, const Graph& g,
                                  unsigned max_faults) {
  std::vector<EdgeId> faults;
  for (unsigned i = 0; i < rng.next_below(max_faults + 1); ++i) {
    faults.push_back(static_cast<EdgeId>(rng.next_below(g.num_edges())));
  }
  return faults;
}

class LabelStoreParity : public ::testing::TestWithParam<BackendKind> {};

// A mixed fault spec whose vertex reduction stays within the budget f:
// one deleted vertex of degree <= f - 2, one of its incident edges
// (named again by the reduction), and a random edge listed twice.
FaultSpec mixed_faults(SplitMix64& rng, const Graph& g, unsigned f) {
  VertexId v = 0;
  do {
    v = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  } while (g.degree(v) + 2 > f);
  const auto incident = g.incident_edges(v);
  const EdgeId repeated = static_cast<EdgeId>(rng.next_below(g.num_edges()));
  const std::vector<EdgeId> edges = {
      incident[rng.next_below(incident.size())], repeated, repeated};
  const std::vector<VertexId> vertices = {v};
  return FaultSpec::of(edges, vertices);
}

// The built scheme and its single-container and 3-shard stores must
// agree on label accounting, on the deduplicated fault count of every
// prepared spec, and on every answer — edge faults and mixed edge +
// vertex faults alike — and the answers must match BFS.
TEST_P(LabelStoreParity, SaveLoadRoundTripMatchesInMemoryAndBfs) {
  // Room for the vertex reduction of mixed_faults().
  const unsigned f = 8;
  struct Family {
    const char* name;
    Graph g;
  };
  const Family families[] = {
      {"random", graph::random_connected(40, 96, 7)},
      {"grid", graph::grid(6, 7)},
      {"cliques", graph::path_of_cliques(5, 5)},
  };
  for (const Family& fam : families) {
    const Graph& g = fam.g;
    const auto scheme = make_scheme(g, test_config(GetParam(), f));
    const std::string tag = std::string(fam.name) + "_" +
                            std::to_string(static_cast<int>(GetParam()));
    StoreFile file("parity_" + tag);
    StoreFile manifest("parity_sharded_" + tag);
    scheme->save(file.path());
    save_sharded(*scheme, manifest.path(), 3);

    struct Served {
      const char* layout;
      std::unique_ptr<ConnectivityScheme> scheme;
    };
    const Served served[] = {{"container", load_scheme(file.path())},
                             {"3 shards", load_scheme(manifest.path())}};
    for (const Served& entry : served) {
      const ConnectivityScheme& loaded = *entry.scheme;
      SCOPED_TRACE(std::string(fam.name) + ", " + entry.layout);
      EXPECT_EQ(loaded.backend(), GetParam());
      EXPECT_EQ(loaded.num_vertices(), scheme->num_vertices());
      EXPECT_EQ(loaded.num_edges(), scheme->num_edges());
      EXPECT_EQ(loaded.vertex_label_bits(), scheme->vertex_label_bits());
      EXPECT_EQ(loaded.edge_label_bits(), scheme->edge_label_bits());
      EXPECT_EQ(loaded.total_label_bits(), scheme->total_label_bits());

      SplitMix64 rng(900 + static_cast<int>(GetParam()));
      for (int it = 0; it < 50; ++it) {
        const bool mixed = it % 2 == 1;
        const FaultSpec spec = mixed
                                   ? mixed_faults(rng, g, f)
                                   : FaultSpec::edges(random_faults(rng, g, f));
        auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
        const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
        // Every few mixed specs query from the deleted vertex itself.
        if (mixed && it % 6 == 1) s = spec.vertex_faults()[0];
        const bool reference = scheme->connected(s, t, spec);
        EXPECT_EQ(reference,
                  graph::connected_avoiding(g, s, t, spec.edge_faults(),
                                            spec.vertex_faults()))
            << "it=" << it;
        EXPECT_EQ(loaded.connected(s, t, spec), reference) << "it=" << it;
        EXPECT_EQ(loaded.prepare_faults(spec)->num_faults(),
                  scheme->prepare_faults(spec)->num_faults())
            << "it=" << it;
      }
    }
  }
}

TEST_P(LabelStoreParity, SaveFromLoadedViewIsByteIdentical) {
  const Graph g = graph::random_connected(24, 50, 3);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));
  StoreFile first("first_" + std::to_string(static_cast<int>(GetParam())));
  StoreFile second("second_" + std::to_string(static_cast<int>(GetParam())));
  scheme->save(first.path());
  const auto loaded = load_scheme(first.path());
  loaded->save(second.path());
  EXPECT_EQ(read_file(first.path()), read_file(second.path()));
}

// The acceptance-criterion workload: a 10k-query batch served through the
// mmap view must be bit-identical to the in-memory scheme, per backend,
// across >= 3 generator families.
TEST_P(LabelStoreParity, TenThousandQueryBatchMatchesInMemory) {
  const unsigned f = 3;
  struct Family {
    const char* name;
    Graph g;
  };
  const Family families[] = {
      {"grid", graph::grid(8, 8)},
      {"barbell", graph::barbell(10, 4)},
      {"random", graph::random_connected(64, 150, 11)},
  };
  for (const Family& fam : families) {
    const Graph& g = fam.g;
    const auto scheme = make_scheme(g, test_config(GetParam(), f));
    StoreFile file(std::string("batch_") + fam.name + "_" +
                   std::to_string(static_cast<int>(GetParam())));
    scheme->save(file.path());

    SplitMix64 rng(42);
    const auto faults = random_faults(rng, g, f);
    std::vector<BatchQueryEngine::Query> queries;
    queries.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      queries.push_back(
          {static_cast<VertexId>(rng.next_below(g.num_vertices())),
           static_cast<VertexId>(rng.next_below(g.num_vertices()))});
    }

    BatchQueryEngine in_memory(*scheme, FaultSpec::edges(faults));
    // The store session owns its loaded scheme (mmap zero-copy path) and
    // fans out across threads; answers must be bit-identical.
    BatchQueryEngine from_store(load_scheme(file.path()),
                                FaultSpec::edges(faults));
    const auto expected = in_memory.run_sequential(queries);
    const auto actual = from_store.run_parallel(queries, 4);
    EXPECT_EQ(actual, expected) << fam.name;
  }
}

// A format-v2 store carries the adjacency side-table, so the oracle
// facade over a loaded scheme serves edge, vertex and mixed faults
// exactly like the in-memory oracle that wrote it.
TEST_P(LabelStoreParity, OracleFromStoreServesVertexAndMixedFaults) {
  const Graph g = graph::barbell(8, 3);
  // Headroom for the Delta * f incident-edge reduction (Delta = 8 here).
  const auto scheme = make_scheme(g, test_config(GetParam(), 10));
  StoreFile file("oracle_" + std::to_string(static_cast<int>(GetParam())));
  scheme->save(file.path());

  const ConnectivityOracle oracle = ConnectivityOracle::from_store(file.path());
  EXPECT_EQ(oracle.scheme().backend(), GetParam());
  EXPECT_TRUE(oracle.supports_vertex_faults());
  SplitMix64 rng(5);
  for (int it = 0; it < 20; ++it) {
    const auto edge_faults = random_faults(rng, g, 2);
    std::vector<VertexId> vertex_faults;
    for (unsigned i = 0; i < rng.next_below(2); ++i) {
      vertex_faults.push_back(
          static_cast<VertexId>(rng.next_below(g.num_vertices())));
    }
    const auto spec = FaultSpec::of(edge_faults, vertex_faults);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(oracle.connected(s, t, spec),
              graph::connected_avoiding(g, s, t, edge_faults, vertex_faults))
        << "it=" << it;
  }
}

TEST_P(LabelStoreParity, LoadedSchemeValidatesQueryArguments) {
  const Graph g = graph::cycle(10);
  const auto scheme = make_scheme(g, test_config(GetParam(), 2));
  StoreFile file("args_" + std::to_string(static_cast<int>(GetParam())));
  scheme->save(file.path());
  const auto loaded = load_scheme(file.path());
  const std::vector<EdgeId> bad{g.num_edges()};
  EXPECT_THROW((void)loaded->prepare_faults(FaultSpec::edges(bad)),
               std::invalid_argument);
  EXPECT_THROW((void)loaded->connected(g.num_vertices(), 0, FaultSpec{}),
               std::invalid_argument);
  EXPECT_THROW(
      (void)loaded->prepare_faults(
          FaultSpec::vertices(std::vector<VertexId>{g.num_vertices()})),
      std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LabelStoreParity,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           std::string name = backend_name(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------------------------
// Adversarial container inputs. All failure modes must surface as the
// typed StoreError, regardless of backend.

class LabelStoreAdversarial : public ::testing::Test {
 protected:
  // One small store per backend, written once per test.
  std::vector<std::uint8_t> make_store_bytes(BackendKind backend,
                                             StoreFile& file) {
    const Graph g = graph::random_connected(16, 30, 9);
    const auto scheme = make_scheme(g, test_config(backend, 2));
    scheme->save(file.path());
    return read_file(file.path());
  }
};

TEST_F(LabelStoreAdversarial, MissingAndNonRegularFilesThrow) {
  EXPECT_THROW((void)LabelStoreView::open("/nonexistent/no/such.ftcs"),
               StoreError);
  EXPECT_THROW((void)LabelStoreView::open(::testing::TempDir()), StoreError);
}

TEST_F(LabelStoreAdversarial, TruncatedFilesThrow) {
  for (const BackendKind backend : kAllBackends) {
    StoreFile file("trunc_" + std::to_string(static_cast<int>(backend)));
    const auto bytes = make_store_bytes(backend, file);
    ASSERT_GT(bytes.size(), store::kHeaderBytes);
    const std::size_t cuts[] = {0,
                                1,
                                16,
                                store::kHeaderBytes - 1,
                                store::kHeaderBytes,
                                store::kHeaderBytes + 3,
                                bytes.size() / 2,
                                bytes.size() - 1};
    for (const std::size_t cut : cuts) {
      write_file(file.path(),
                 std::span<const std::uint8_t>(bytes.data(), cut));
      EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError)
          << backend_name(backend) << " truncated to " << cut;
      // Skipping the payload-checksum pass must not weaken structural
      // validation: still a typed error, still no UB.
      EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError)
          << backend_name(backend) << " truncated to " << cut << " (no verify)";
    }
  }
}

TEST_F(LabelStoreAdversarial, BadMagicThrows) {
  StoreFile file("magic");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[0] ^= 0xff;
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, WrongFormatVersionThrows) {
  StoreFile file("version");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[8] = 99;  // format version field
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, UnknownBackendKindThrows) {
  StoreFile file("backend");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[12] = 7;  // backend byte
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, CorruptHeaderChecksumThrows) {
  StoreFile file("hdrsum");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[57] ^= 0x01;  // header checksum field itself
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, FlippedPayloadBytesFailChecksum) {
  for (const BackendKind backend : kAllBackends) {
    StoreFile file("payload_" + std::to_string(static_cast<int>(backend)));
    const auto bytes = make_store_bytes(backend, file);
    // Flip one byte in each region of the payload: params, vertex
    // section, edge index, edge blobs (approximately — any position past
    // the header must be caught by the checksum).
    const std::size_t positions[] = {
        store::kHeaderBytes, store::kHeaderBytes + 8,
        (store::kHeaderBytes + bytes.size()) / 2, bytes.size() - 1};
    for (const std::size_t pos : positions) {
      auto corrupt = bytes;
      corrupt[pos] ^= 0x10;
      write_file(file.path(), corrupt);
      EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError)
          << backend_name(backend) << " flipped byte " << pos;
    }
  }
}

TEST_F(LabelStoreAdversarial, FlippedStoredChecksumThrows) {
  StoreFile file("paysum");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[40] ^= 0xff;  // stored payload checksum field
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

TEST_F(LabelStoreAdversarial, CorruptIndexThrowsEvenWithoutChecksum) {
  for (const BackendKind backend : kAllBackends) {
    StoreFile file("index_" + std::to_string(static_cast<int>(backend)));
    const auto bytes = make_store_bytes(backend, file);
    const auto view = LabelStoreView::open(file.path());
    const StoreInfo info = view->info();
    // Recompute the index offset from the public layout contract.
    const std::size_t params_end = store::kHeaderBytes + info.params_bytes;
    const std::size_t vertex_off = (params_end + 7) & ~std::size_t{7};
    const std::size_t index_off = vertex_off + info.vertex_section_bytes;
    ASSERT_LT(index_off + 8, bytes.size());

    // Entry 1 of the index becomes garbage: monotonicity/blob-size
    // validation must reject it even with the checksum pass disabled.
    auto corrupt = bytes;
    corrupt[index_off + 8] ^= 0xff;
    write_file(file.path(), corrupt);
    EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError)
        << backend_name(backend);
  }
}

TEST_F(LabelStoreAdversarial, OversizedDimensionsThrow) {
  StoreFile file("dims");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  // num_vertices field (offset 16): pretend there are 2^40 vertices.
  bytes[16 + 4] = 0xff;
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path()), StoreError);
}

// ------------------------------------------------------------------
// Format v2 adjacency section: adversarial corpus. Every corruption must
// surface as StoreError — with and without the payload-checksum pass.

TEST_F(LabelStoreAdversarial, AdjacencyFlagWithoutSectionThrows) {
  StoreFile file("adjflag");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  // Clear the adjacency size (offset 48) but keep the flag (offset 13).
  for (int i = 0; i < 8; ++i) bytes[48 + i] = 0;
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, UnknownHeaderFlagThrows) {
  StoreFile file("badflag");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[13] |= 0x80;  // undefined flag bit
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, AdjacencySizeMismatchThrows) {
  StoreFile file("adjsize");
  auto bytes = make_store_bytes(BackendKind::kCoreFtc, file);
  bytes[48] ^= 0x08;  // adjacency size no longer matches 8(n+1) + 8m
  fix_header_checksum(bytes);
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, TruncatedAdjacencySectionThrows) {
  for (const BackendKind backend : kAllBackends) {
    StoreFile file("adjtrunc_" + std::to_string(static_cast<int>(backend)));
    const auto bytes = make_store_bytes(backend, file);
    const auto view = LabelStoreView::open(file.path());
    ASSERT_TRUE(view->info().has_adjacency);
    const std::size_t adj_bytes = view->info().adjacency_bytes;
    // Cut inside the adjacency section (offsets and lists regions).
    for (const std::size_t keep :
         {bytes.size() - adj_bytes + 8, bytes.size() - adj_bytes / 2,
          bytes.size() - 1}) {
      write_file(file.path(),
                 std::span<const std::uint8_t>(bytes.data(), keep));
      EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError)
          << backend_name(backend) << " truncated to " << keep;
    }
  }
}

TEST_F(LabelStoreAdversarial, NonMonotoneAdjacencyOffsetsThrow) {
  StoreFile file("adjmono");
  auto bytes = make_store_bytes(BackendKind::kDp21CycleSpace, file);
  const auto view = LabelStoreView::open(file.path());
  const std::size_t adj_off = bytes.size() - view->info().adjacency_bytes;
  // Offset entry 1 becomes garbage (way beyond 2m).
  bytes[adj_off + 8 + 6] = 0xff;
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

TEST_F(LabelStoreAdversarial, AdjacencyEdgeIdOutOfRangeThrows) {
  StoreFile file("adjid");
  auto bytes = make_store_bytes(BackendKind::kDp21CycleSpace, file);
  const auto view = LabelStoreView::open(file.path());
  const StoreInfo info = view->info();
  const std::size_t adj_off = bytes.size() - info.adjacency_bytes;
  const std::size_t lists_off =
      adj_off + 8 * (static_cast<std::size_t>(info.num_vertices) + 1);
  for (int i = 0; i < 4; ++i) bytes[lists_off + i] = 0xff;  // id = 2^32 - 1
  write_file(file.path(), bytes);
  EXPECT_THROW((void)LabelStoreView::open(file.path(), false), StoreError);
}

// ------------------------------------------------------------------
// Backward compatibility: checked-in format-v1 fixtures (written by the
// PR-2/PR-3 era writer) must still load, serve edge-fault queries
// identically to a freshly built scheme, and raise the typed capability
// error on vertex faults (v1 carries no adjacency).

struct V1Fixture {
  const char* file;
  BackendKind backend;
};

class LabelStoreV1Compat : public ::testing::TestWithParam<V1Fixture> {
 protected:
  // The exact graph + config the fixtures were generated with (see
  // tests/data/: barbell(4, 3), f = 2, seed 7, k_override 12 /
  // bits_override 64).
  static Graph fixture_graph() { return graph::barbell(4, 3); }
  static SchemeConfig fixture_config(BackendKind backend) {
    SchemeConfig cfg;
    cfg.backend = backend;
    cfg.set_f(2).set_seed(7);
    cfg.ftc.k_override = 12;
    cfg.cycle.bits_override = 64;
    return cfg;
  }
  static std::string fixture_path(const char* file) {
    return std::string(FTC_TEST_DATA_DIR) + "/" + file;
  }
};

TEST_P(LabelStoreV1Compat, LoadsAndServesEdgeFaultsUnchanged) {
  const std::string path = fixture_path(GetParam().file);
  const auto view = LabelStoreView::open(path);
  EXPECT_EQ(view->info().format_version, 1u);
  EXPECT_EQ(view->info().backend, GetParam().backend);
  EXPECT_FALSE(view->info().has_adjacency);
  EXPECT_EQ(view->info().adjacency_bytes, 0u);

  const Graph g = fixture_graph();
  const auto rebuilt = make_scheme(g, fixture_config(GetParam().backend));
  const auto loaded = load_scheme(path);
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
  EXPECT_EQ(loaded->num_edges(), g.num_edges());
  EXPECT_EQ(loaded->adjacency(), nullptr);
  SplitMix64 rng(77);
  for (int it = 0; it < 40; ++it) {
    const auto faults = random_faults(rng, g, 2);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const bool expected = graph::connected_avoiding(g, s, t, faults);
    EXPECT_EQ(loaded->connected(s, t, FaultSpec::edges(faults)), expected)
        << "it=" << it;
    EXPECT_EQ(rebuilt->connected(s, t, FaultSpec::edges(faults)), expected)
        << "it=" << it;
  }
}

TEST_P(LabelStoreV1Compat, VertexFaultsRaiseTypedCapabilityError) {
  const std::string path = fixture_path(GetParam().file);
  const auto loaded = load_scheme(path);
  const std::vector<VertexId> vf{1};
  EXPECT_THROW((void)loaded->prepare_faults(FaultSpec::vertices(vf)),
               CapabilityError);
  EXPECT_THROW((void)loaded->connected(0, 2, FaultSpec::vertices(vf)),
               CapabilityError);
  const ConnectivityOracle oracle = ConnectivityOracle::from_store(path);
  EXPECT_FALSE(oracle.supports_vertex_faults());
  EXPECT_THROW((void)oracle.connected(0, 2, FaultSpec::vertices(vf)),
               CapabilityError);
  // Edge-only specs keep working through the same session API.
  BatchQueryEngine session(load_scheme(path),
                           FaultSpec::edges(std::vector<EdgeId>{0, 3}));
  EXPECT_THROW(session.reset_faults(FaultSpec::vertices(vf)),
               CapabilityError);
}

// A v1 container re-saved through the new writer becomes a valid v2
// container (core params gain an empty bounds trailer, still no
// adjacency) and keeps serving identical answers.
TEST_P(LabelStoreV1Compat, ResaveUpgradesToV2WithoutAdjacency) {
  const std::string path = fixture_path(GetParam().file);
  const auto loaded = load_scheme(path);
  StoreFile upgraded("v1_upgrade_" +
                     std::to_string(static_cast<int>(GetParam().backend)));
  loaded->save(upgraded.path());
  const auto view = LabelStoreView::open(upgraded.path());
  EXPECT_EQ(view->info().format_version, store::kFormatVersion);
  EXPECT_FALSE(view->info().has_adjacency);
  const auto reloaded = load_scheme(upgraded.path());
  const Graph g = fixture_graph();
  SplitMix64 rng(78);
  for (int it = 0; it < 25; ++it) {
    const auto faults = random_faults(rng, g, 2);
    const auto s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const auto t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(reloaded->connected(s, t, FaultSpec::edges(faults)),
              graph::connected_avoiding(g, s, t, faults))
        << "it=" << it;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, LabelStoreV1Compat,
    ::testing::Values(V1Fixture{"v1_core_ftc.ftcs", BackendKind::kCoreFtc},
                      V1Fixture{"v1_dp21_cycle.ftcs",
                                BackendKind::kDp21CycleSpace}),
    [](const auto& info) {
      return std::string(info.param.backend == BackendKind::kCoreFtc
                             ? "core_ftc"
                             : "dp21_cycle");
    });

}  // namespace
}  // namespace ftc::core
