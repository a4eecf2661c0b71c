// DeletionJournal coverage: the append/open/compact lifecycle, the
// adversarial frame corpus (every structural damage must throw the
// typed StoreError — never UB; the suite also runs under the asan
// preset), the capacity accounting (CapacityError with budget /
// journaled / requested), and replay parity — a journaled deletion must
// be answer-identical to the same edge passed explicitly in the
// FaultSpec, across every backend, the mmap-served load, and the batch
// engine.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

// Unique store path per test; the sidecar journal is removed with it.
class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_(::testing::TempDir() + "ftc_journal_" + name + "_" +
              std::to_string(::getpid()) + ".ftcs") {
    cleanup();
  }
  ~StoreFile() { cleanup(); }
  const std::string& path() const { return path_; }
  std::string journal() const { return journal_path_for(path_); }

 private:
  void cleanup() {
    std::remove(path_.c_str());
    std::remove(journal_path_for(path_).c_str());
    std::remove((journal_path_for(path_) + ".lock").c_str());
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

// Hand-rolled frame encoder mirroring the normative layout in
// journal.hpp, so corpus tests can produce frames the public append API
// refuses to write (bad epochs, zero counts, broken chains, ...).
struct FrameSpec {
  std::uint64_t epoch;
  std::uint64_t store_digest;
  std::uint32_t fault_budget;
  std::vector<std::uint32_t> edge_ids;  // written verbatim, unsorted OK
  bool corrupt_chain = false;
  std::uint8_t padding_byte = 0;
};

std::vector<std::uint8_t> encode_journal(const std::vector<FrameSpec>& frames) {
  store::ByteWriter w;
  std::uint64_t chain = store::kFnvBasis;
  for (const FrameSpec& fr : frames) {
    const std::size_t start = w.size();
    w.u64(store::kJournalMagic);
    w.u64(fr.epoch);
    w.u64(fr.store_digest);
    w.u32(fr.fault_budget);
    w.u32(static_cast<std::uint32_t>(fr.edge_ids.size()));
    for (const std::uint32_t e : fr.edge_ids) w.u32(e);
    while (w.size() % 8 != 0) w.u8(fr.padding_byte);
    chain = store::fnv1a(w.view().subspan(start), chain);
    w.u64(fr.corrupt_chain ? chain ^ 1 : chain);
  }
  const auto view = w.view();
  return std::vector<std::uint8_t>(view.begin(), view.end());
}

// ------------------------------------------------------------ lifecycle

TEST(DeletionJournal, AppendOpenRoundTrip) {
  StoreFile file("roundtrip");
  const std::string jpath = file.journal();
  EXPECT_FALSE(DeletionJournal::exists(jpath));

  const std::vector<EdgeId> first = {7, 3, 7};  // dup canonicalized away
  EXPECT_EQ(DeletionJournal::append(jpath, 0xabcd, 4, first), 1u);
  EXPECT_TRUE(DeletionJournal::exists(jpath));
  const std::vector<EdgeId> second = {11};
  EXPECT_EQ(DeletionJournal::append(jpath, 0xabcd, 0, second), 2u);

  const auto j = DeletionJournal::open(jpath);
  EXPECT_EQ(j->epoch(), 2u);
  EXPECT_EQ(j->store_digest(), 0xabcdu);
  EXPECT_EQ(j->fault_budget(), 4u);
  EXPECT_EQ(j->occupancy(), 3u);
  EXPECT_EQ(j->remaining(), 1u);
  EXPECT_EQ(j->num_frames(), 2u);
  const std::vector<EdgeId> expect = {3, 7, 11};
  EXPECT_EQ(std::vector<EdgeId>(j->deleted_edges().begin(),
                                j->deleted_edges().end()),
            expect);
}

TEST(DeletionJournal, ReappendOfJournaledIdsIsIdempotent) {
  StoreFile file("idempotent");
  const std::string jpath = file.journal();
  const std::vector<EdgeId> ids = {5, 9};
  DeletionJournal::append(jpath, 1, 3, ids);
  const auto before = read_file(jpath);
  // Nothing new: the epoch stays put and the file is untouched.
  EXPECT_EQ(DeletionJournal::append(jpath, 1, 0, ids), 1u);
  EXPECT_EQ(read_file(jpath), before);
}

TEST(DeletionJournal, FirstAppendRequiresBudgetAndEdges) {
  StoreFile file("firstappend");
  EXPECT_THROW(DeletionJournal::append(file.journal(), 1, 0,
                                       std::vector<EdgeId>{2}),
               std::invalid_argument);
  EXPECT_THROW(DeletionJournal::append(file.journal(), 1, 3,
                                       std::vector<EdgeId>{}),
               std::invalid_argument);
  EXPECT_FALSE(DeletionJournal::exists(file.journal()));
}

TEST(DeletionJournal, BudgetIsFixedAtCreation) {
  StoreFile file("fixedbudget");
  DeletionJournal::append(file.journal(), 1, 3, std::vector<EdgeId>{2});
  EXPECT_THROW(DeletionJournal::append(file.journal(), 1, 4,
                                       std::vector<EdgeId>{4}),
               std::invalid_argument);
  // Budget 0 means "keep the journal's".
  EXPECT_EQ(DeletionJournal::append(file.journal(), 1, 0,
                                    std::vector<EdgeId>{4}),
            2u);
}

TEST(DeletionJournal, AppendToForeignStoreDigestRefused) {
  StoreFile file("foreigndigest");
  DeletionJournal::append(file.journal(), 0x1111, 3, std::vector<EdgeId>{2});
  EXPECT_THROW(DeletionJournal::append(file.journal(), 0x2222, 0,
                                       std::vector<EdgeId>{4}),
               StoreError);
}

TEST(DeletionJournal, OverCapacityAppendThrowsTypedAndLeavesFileIntact) {
  StoreFile file("overcap");
  const std::string jpath = file.journal();
  DeletionJournal::append(jpath, 9, 3, std::vector<EdgeId>{1, 2});
  const auto before = read_file(jpath);
  try {
    DeletionJournal::append(jpath, 9, 0, std::vector<EdgeId>{5, 6});
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_EQ(e.budget(), 3u);
    EXPECT_EQ(e.journaled(), 2u);
    EXPECT_EQ(e.requested(), 4u);
    EXPECT_EQ(e.remaining(), 1u);
  }
  EXPECT_EQ(read_file(jpath), before);
  // A fitting append still works afterwards.
  EXPECT_EQ(DeletionJournal::append(jpath, 9, 0, std::vector<EdgeId>{5}), 2u);
}

TEST(DeletionJournal, CompactCollapsesHistoryWithoutChangingAnswers) {
  StoreFile file("compact");
  const std::string jpath = file.journal();
  DeletionJournal::append(jpath, 7, 5, std::vector<EdgeId>{9});
  DeletionJournal::append(jpath, 7, 0, std::vector<EdgeId>{1});
  DeletionJournal::append(jpath, 7, 0, std::vector<EdgeId>{4});
  const auto before = DeletionJournal::open(jpath);

  const auto stats = DeletionJournal::compact(jpath);
  EXPECT_EQ(stats.frames_before, 3u);
  EXPECT_EQ(stats.frames_after, 1u);
  EXPECT_LT(stats.file_bytes_after, stats.file_bytes_before);

  const auto after = DeletionJournal::open(jpath);
  EXPECT_EQ(after->num_frames(), 1u);
  EXPECT_EQ(after->epoch(), before->epoch());
  EXPECT_EQ(after->fault_budget(), before->fault_budget());
  EXPECT_EQ(after->store_digest(), before->store_digest());
  EXPECT_EQ(std::vector<EdgeId>(after->deleted_edges().begin(),
                                after->deleted_edges().end()),
            std::vector<EdgeId>(before->deleted_edges().begin(),
                                before->deleted_edges().end()));
  // Compacted journals keep accepting appends (the chain restarts).
  EXPECT_EQ(DeletionJournal::append(jpath, 7, 0, std::vector<EdgeId>{2}),
            after->epoch() + 1);
}

// ---------------------------------------------------- adversarial corpus

struct CorruptCase {
  const char* name;
  std::vector<FrameSpec> frames;
};

class JournalCorpus : public ::testing::TestWithParam<CorruptCase> {};

TEST_P(JournalCorpus, StructuralDamageThrowsStoreError) {
  StoreFile file(std::string("corpus_") + GetParam().name);
  write_file(file.journal(), encode_journal(GetParam().frames));
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDamage, JournalCorpus,
    ::testing::Values(
        CorruptCase{"epoch_zero", {{0, 1, 3, {2}}}},
        CorruptCase{"epoch_not_increasing",
                    {{2, 1, 3, {2}}, {2, 1, 3, {4}}}},
        CorruptCase{"digest_differs_between_frames",
                    {{1, 1, 3, {2}}, {2, 9, 3, {4}}}},
        CorruptCase{"budget_differs_between_frames",
                    {{1, 1, 3, {2}}, {2, 1, 4, {4}}}},
        CorruptCase{"zero_budget", {{1, 1, 0, {2}}}},
        CorruptCase{"empty_frame", {{1, 1, 3, {}}}},
        CorruptCase{"unsorted_ids", {{1, 1, 3, {4, 2}}}},
        CorruptCase{"duplicate_ids", {{1, 1, 3, {2, 2}}}},
        CorruptCase{"nonzero_padding", {{1, 1, 3, {2}, false, 0x5a}}},
        CorruptCase{"broken_chain", {{1, 1, 3, {2}, true}}},
        CorruptCase{"broken_chain_second_frame",
                    {{1, 1, 3, {2}}, {2, 1, 3, {4}, true}}}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(JournalCorpus, EmptyFileThrows) {
  StoreFile file("corpus_empty");
  write_file(file.journal(), std::vector<std::uint8_t>{});
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError);
}

TEST(JournalCorpus, MissingFileThrows) {
  StoreFile file("corpus_missing");
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError);
}

TEST(JournalCorpus, BadMagicThrows) {
  StoreFile file("corpus_magic");
  auto bytes = encode_journal({{1, 1, 3, {2}}});
  bytes[0] ^= 0xff;
  write_file(file.journal(), bytes);
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError);
}

TEST(JournalCorpus, EveryTruncationPrefixThrows) {
  StoreFile file("corpus_truncate");
  const auto bytes = encode_journal({{1, 1, 5, {2, 5, 9}}, {2, 1, 5, {11}}});
  // A journal is valid only at frame boundaries; every strict prefix of
  // the byte stream (except the full file) must fail typed, including
  // cuts inside the prefix, the ID array, the padding and the digest.
  // 32-byte prefix + 3*4 ID bytes + 4 pad + 8-byte digest.
  const std::size_t frame_one_bytes = 56;
  for (std::size_t len = 1; len < bytes.size(); ++len) {
    if (len == frame_one_bytes) continue;  // a valid one-frame journal
    write_file(file.journal(),
               std::span<const std::uint8_t>(bytes.data(), len));
    EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError)
        << "prefix length " << len;
  }
  // Sanity: the boundary prefix and the full file both open.
  write_file(file.journal(),
             std::span<const std::uint8_t>(bytes.data(), frame_one_bytes));
  EXPECT_EQ(DeletionJournal::open(file.journal())->epoch(), 1u);
  write_file(file.journal(), bytes);
  EXPECT_EQ(DeletionJournal::open(file.journal())->epoch(), 2u);
}

TEST(JournalCorpus, FlippedPayloadBitBreaksChain) {
  StoreFile file("corpus_bitflip");
  auto bytes = encode_journal({{1, 1, 3, {2, 5}}});
  bytes[32] ^= 0x01;  // first edge ID, low byte
  write_file(file.journal(), bytes);
  EXPECT_THROW(DeletionJournal::open(file.journal()), StoreError);
}

TEST(JournalCorpus, OverCapacityJournalRefusesToOpen) {
  StoreFile file("corpus_overcap");
  // Structurally pristine, semantically unservable: 4 deletions against
  // a budget of 3. open() must refuse typed, not serve wrong answers.
  write_file(file.journal(), encode_journal({{1, 1, 3, {1, 2, 5, 9}}}));
  try {
    DeletionJournal::open(file.journal());
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_EQ(e.budget(), 3u);
    EXPECT_EQ(e.journaled(), 4u);
    EXPECT_EQ(e.remaining(), 0u);
  }
}

// ------------------------------------------------------- store binding

TEST(JournalBinding, UnknownEdgeIdsRefusedAgainstStore) {
  const Graph g = graph::random_connected(24, 60, 3);
  SchemeConfig cfg;
  cfg.set_f(3);
  StoreFile file("unknown_ids");
  make_scheme(g, cfg)->save(file.path());
  const auto view = open_store_view(file.path());
  DeletionJournal::append(file.journal(), view->info().payload_checksum, 3,
                          std::vector<EdgeId>{g.num_edges()});
  EXPECT_THROW(load_scheme(file.path()), StoreError);
}

TEST(JournalBinding, StaleJournalFromOldGenerationRefused) {
  const Graph g = graph::random_connected(24, 60, 3);
  SchemeConfig cfg;
  cfg.set_f(3);
  StoreFile file("stale");
  make_scheme(g, cfg)->save(file.path());
  // Journal bound to a digest no store will ever have.
  DeletionJournal::append(file.journal(), 0xdeadbeef, 3,
                          std::vector<EdgeId>{1});
  EXPECT_THROW(load_scheme(file.path()), StoreError);
  // Opting out of replay serves the labels as-is.
  LoadOptions options;
  options.replay_journal = false;
  EXPECT_NE(load_scheme(file.path(), options), nullptr);
}

// -------------------------------------------------------- replay parity

class JournalReplayParity : public ::testing::TestWithParam<BackendKind> {};

TEST_P(JournalReplayParity, JournaledDeletionsMatchExplicitFaults) {
  const unsigned f = 4;
  const Graph g = graph::random_connected(40, 96, 11);
  SchemeConfig cfg;
  cfg.backend = GetParam();
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  const auto scheme = make_scheme(g, cfg);
  StoreFile file("parity_" + std::string(backend_name(GetParam())));
  scheme->save(file.path());

  const std::vector<EdgeId> journaled = {4, 17};
  const auto view = open_store_view(file.path());
  DeletionJournal::append(file.journal(), view->info().payload_checksum, f,
                          journaled);

  SplitMix64 rng(23);
  const auto replayed = load_scheme(file.path());
  ASSERT_NE(replayed->journal(), nullptr);
  for (int round = 0; round < 24; ++round) {
    // Query faults within the leftover budget, overlapping journaled
    // IDs on purpose (the union, not the sum, is what must fit).
    std::vector<EdgeId> query_faults;
    for (unsigned i = 0; i < rng.next_below(3); ++i) {
      query_faults.push_back(
          static_cast<EdgeId>(rng.next_below(g.num_edges())));
    }
    if (round % 3 == 0) query_faults.push_back(journaled[0]);
    std::vector<EdgeId> merged = journaled;
    merged.insert(merged.end(), query_faults.begin(), query_faults.end());
    const VertexId s = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    const VertexId t = static_cast<VertexId>(rng.next_below(g.num_vertices()));
    EXPECT_EQ(replayed->connected(s, t, FaultSpec::edges(query_faults)),
              scheme->connected(s, t, FaultSpec::edges(merged)))
        << backend_name(GetParam()) << " s=" << s << " t=" << t;
  }
  // Past the leftover budget the scheme must refuse typed: 2 journaled
  // + 3 distinct query faults > f = 4.
  const std::vector<EdgeId> over = {1, 2, 3};
  try {
    replayed->connected(0, 1, FaultSpec::edges(over));
    FAIL() << "expected CapacityError";
  } catch (const CapacityError& e) {
    EXPECT_EQ(e.budget(), f);
    EXPECT_EQ(e.journaled(), journaled.size());
    EXPECT_EQ(e.requested(), 5u);
    EXPECT_EQ(e.remaining(), f - journaled.size());
  }
}

TEST_P(JournalReplayParity, BatchEngineRepliesThroughJournal) {
  const unsigned f = 4;
  const Graph g = graph::random_connected(36, 80, 5);
  SchemeConfig cfg;
  cfg.backend = GetParam();
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  cfg.cycle.scale = 3.0;
  cfg.agm.scale = 1.5;
  const auto scheme = make_scheme(g, cfg);
  StoreFile file("batch_" + std::string(backend_name(GetParam())));
  scheme->save(file.path());

  const std::vector<EdgeId> journaled = {3, 9};
  const auto view = open_store_view(file.path());
  DeletionJournal::append(file.journal(), view->info().payload_checksum, f,
                          journaled);

  const std::vector<EdgeId> query_faults = {21, 30};
  std::vector<EdgeId> merged = journaled;
  merged.insert(merged.end(), query_faults.begin(), query_faults.end());

  SplitMix64 rng(31);
  std::vector<BatchQueryEngine::Query> batch;
  for (int i = 0; i < 200; ++i) {
    batch.push_back(
        {static_cast<VertexId>(rng.next_below(g.num_vertices())),
         static_cast<VertexId>(rng.next_below(g.num_vertices()))});
  }
  BatchQueryEngine session(load_scheme(file.path()),
                           FaultSpec::edges(query_faults));
  BatchQueryEngine explicit_session(*scheme, FaultSpec::edges(merged));
  const auto via_journal = session.run_parallel(batch, 2);
  const auto via_explicit = explicit_session.run_sequential(batch);
  EXPECT_EQ(via_journal, via_explicit) << backend_name(GetParam());

  // reset_faults goes through the same journal fold: over budget refuses.
  EXPECT_THROW(
      session.reset_faults(FaultSpec::edges(std::vector<EdgeId>{1, 2, 5})),
      CapacityError);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, JournalReplayParity,
                         ::testing::ValuesIn(kAllBackends),
                         [](const auto& info) {
                           std::string name(backend_name(info.param));
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace ftc::core
