// Storage fault-injection coverage: the failpoint harness itself, the
// SIGBUS-safe degraded-serving path, retry + shard quarantine, the
// link() fallback on delta pushes, journal locking, and fd exhaustion.
//
// The invariant under test everywhere: environmental failure at any
// syscall boundary — or a shard mutated behind a live mapping — must
// surface as the TYPED error (StoreIoError / DegradedError, both
// StoreError), never a crash, and must never take healthy shards down
// with it.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/common.hpp"
#include "util/failpoint.hpp"
#include "util/scoped_fd.hpp"

namespace ftc::core {
namespace {

using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

class ManifestFile {
 public:
  explicit ManifestFile(const std::string& name)
      : path_(::testing::TempDir() + "ftc_fi_" + name + "_" +
              std::to_string(::getpid()) + ".ftcm") {
    cleanup();
  }
  ~ManifestFile() { cleanup(); }
  const std::string& path() const { return path_; }
  std::string shard_path(unsigned k) const {
    return path_ + ".shard" + std::to_string(k) + ".ftcs";
  }

 private:
  void cleanup() {
    std::remove(path_.c_str());
    std::remove((path_ + ".jrnl").c_str());
    std::remove((path_ + ".jrnl.lock").c_str());
    for (unsigned k = 0; k < 64; ++k) std::remove(shard_path(k).c_str());
  }
  std::string path_;
};

class StoreFile {
 public:
  explicit StoreFile(const std::string& name)
      : path_(::testing::TempDir() + "ftc_fi_" + name + "_" +
              std::to_string(::getpid()) + ".ftcs") {
    cleanup();
  }
  ~StoreFile() { cleanup(); }
  const std::string& path() const { return path_; }

 private:
  void cleanup() {
    std::remove(path_.c_str());
    std::remove((path_ + ".jrnl").c_str());
    std::remove((path_ + ".jrnl.lock").c_str());
  }
  std::string path_;
};

SchemeConfig test_config(unsigned f) {
  SchemeConfig cfg;
  cfg.backend = BackendKind::kCoreFtc;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  return cfg;
}

// Fast retries for tests; restores the process-wide policy on exit.
class ScopedRetryPolicy {
 public:
  explicit ScopedRetryPolicy(const RetryPolicy& p)
      : saved_(default_retry_policy()) {
    default_retry_policy() = p;
  }
  ~ScopedRetryPolicy() { default_retry_policy() = saved_; }

 private:
  RetryPolicy saved_;
};

// A local sharded view whose shard `bad` fails to map with a transient
// StoreIoError its first `failures` times — a fault aimed at exactly one
// shard, through the same map_shard() seam the remote tier overrides.
class FlakyShardView final : public ShardedStoreView {
 public:
  static std::shared_ptr<const FlakyShardView> open(const std::string& path,
                                                    std::size_t bad,
                                                    int failures,
                                                    bool degraded) {
    std::shared_ptr<FlakyShardView> view(new FlakyShardView(bad, failures));
    open_impl(view, path, /*verify_checksum=*/true, nullptr, degraded,
              /*stat_shards=*/true);
    return view;
  }

 protected:
  std::shared_ptr<const LabelStoreView> map_shard(
      std::size_t k) const override {
    if (k == bad_ && failures_left_.fetch_sub(1) > 0) {
      throw StoreIoError("injected transient map failure");
    }
    return ShardedStoreView::map_shard(k);
  }

 private:
  FlakyShardView(std::size_t bad, int failures)
      : bad_(bad), failures_left_(failures) {}

  std::size_t bad_;
  mutable std::atomic<int> failures_left_;
};

std::size_t count_open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// ------------------------------------------------------------------
// Failpoint harness unit tests.

TEST(Failpoint, OffByDefaultAndZeroActive) {
  failpoint::clear_all();
  EXPECT_FALSE(failpoint::armed());
  EXPECT_EQ(FTC_FAILPOINT("nothing.armed"), 0);
  EXPECT_TRUE(failpoint::active().empty());
}

TEST(Failpoint, OnceFiresExactlyOnce) {
  failpoint::Scoped fp("t.once", "once:ENOSPC");
  EXPECT_TRUE(failpoint::armed());
  EXPECT_EQ(FTC_FAILPOINT("t.once"), ENOSPC);
  EXPECT_EQ(FTC_FAILPOINT("t.once"), 0);
  EXPECT_EQ(FTC_FAILPOINT("t.once"), 0);
  EXPECT_EQ(fp.hits(), 3u);
}

TEST(Failpoint, NthFiresOnExactlyTheNthHit) {
  failpoint::Scoped fp("t.nth", "nth:3:EXDEV");
  EXPECT_EQ(FTC_FAILPOINT("t.nth"), 0);
  EXPECT_EQ(FTC_FAILPOINT("t.nth"), 0);
  EXPECT_EQ(FTC_FAILPOINT("t.nth"), EXDEV);
  EXPECT_EQ(FTC_FAILPOINT("t.nth"), 0);
}

TEST(Failpoint, AlwaysAndDefaultErrno) {
  failpoint::Scoped fp("t.always", "always");
  EXPECT_EQ(FTC_FAILPOINT("t.always"), EIO);
  EXPECT_EQ(FTC_FAILPOINT("t.always"), EIO);
}

TEST(Failpoint, CountObservesWithoutFiring) {
  failpoint::Scoped fp("t.count", "count");
  for (int i = 0; i < 5; ++i) EXPECT_EQ(FTC_FAILPOINT("t.count"), 0);
  EXPECT_EQ(fp.hits(), 5u);
}

TEST(Failpoint, ProbExtremes) {
  {
    failpoint::Scoped fp("t.prob0", "prob:0.0");
    for (int i = 0; i < 32; ++i) EXPECT_EQ(FTC_FAILPOINT("t.prob0"), 0);
  }
  {
    failpoint::Scoped fp("t.prob1", "prob:1.0:EMFILE");
    for (int i = 0; i < 32; ++i) EXPECT_EQ(FTC_FAILPOINT("t.prob1"), EMFILE);
  }
}

TEST(Failpoint, DecimalErrnoAndRearmResetsHits) {
  failpoint::set("t.decimal", "always:28");  // 28 == ENOSPC on Linux
  EXPECT_EQ(FTC_FAILPOINT("t.decimal"), 28);
  failpoint::set("t.decimal", "off");
  EXPECT_EQ(FTC_FAILPOINT("t.decimal"), 0);
  EXPECT_EQ(failpoint::hit_count("t.decimal"), 1u);  // reset by re-set
  failpoint::clear("t.decimal");
  EXPECT_FALSE(failpoint::armed());
}

TEST(Failpoint, MalformedSpecsThrow) {
  EXPECT_THROW(failpoint::set("t.bad", "sometimes"), std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "nth"), std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "nth:0"), std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "prob:1.5"), std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "always:EBOGUS"),
               std::invalid_argument);
  EXPECT_THROW(failpoint::set("t.bad", "always:EIO:extra"),
               std::invalid_argument);
  EXPECT_FALSE(failpoint::armed()) << "failed set must not arm anything";
}

TEST(Failpoint, EnvParsing) {
  ASSERT_EQ(::setenv("FTC_FAILPOINTS",
                     "env.one=once:ENOSPC;env.two=nth:2:EXDEV", 1),
            0);
  failpoint::load_env();
  ::unsetenv("FTC_FAILPOINTS");
  EXPECT_EQ(FTC_FAILPOINT("env.one"), ENOSPC);
  EXPECT_EQ(FTC_FAILPOINT("env.two"), 0);
  EXPECT_EQ(FTC_FAILPOINT("env.two"), EXDEV);
  failpoint::clear_all();

  ASSERT_EQ(::setenv("FTC_FAILPOINTS", "garbage-without-equals", 1), 0);
  EXPECT_THROW(failpoint::load_env(), std::invalid_argument);
  ::unsetenv("FTC_FAILPOINTS");
  failpoint::clear_all();
}

// ------------------------------------------------------------------
// ScopedFd satellite.

TEST(ScopedFd, ClosesOnScopeExitAndSupportsMove) {
  const std::size_t before = count_open_fds();
  {
    util::ScopedFd fd(::open("/dev/null", O_RDONLY | O_CLOEXEC));
    ASSERT_TRUE(fd.valid());
    util::ScopedFd moved(std::move(fd));
    EXPECT_FALSE(fd.valid());
    EXPECT_TRUE(moved.valid());
  }
  EXPECT_EQ(count_open_fds(), before);
}

TEST(ScopedFd, ReadFullDistinguishesEofFromError) {
  StoreFile f("readfull");
  {
    std::ofstream out(f.path(), std::ios::binary);
    out << "abc";  // 3 bytes: shorter than any 8-byte magic
  }
  util::ScopedFd fd(::open(f.path().c_str(), O_RDONLY | O_CLOEXEC));
  ASSERT_TRUE(fd.valid());
  std::uint8_t buf[8];
  errno = 77;  // stale errno must not masquerade as a read error
  EXPECT_FALSE(util::read_full(fd.get(), buf, sizeof(buf)));
  EXPECT_EQ(errno, 0) << "EOF must report errno 0";
  EXPECT_FALSE(util::read_full(-1, buf, sizeof(buf)));
  EXPECT_EQ(errno, EBADF);
}

// ------------------------------------------------------------------
// Failpoints threaded through the store syscall boundaries.

TEST(FaultInjection, MapOpenFailureIsTypedStoreIoError) {
  StoreFile store("map_open");
  const Graph g = graph::random_connected(24, 60, 7);
  make_scheme(g, test_config(2))->save(store.path());

  failpoint::Scoped fp("store.map.open", "always:EMFILE");
  try {
    (void)LabelStoreView::open(store.path());
    FAIL() << "expected StoreIoError";
  } catch (const StoreIoError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// Names in `dir` shaped like a durable-writer temp file
// ("<target>.tmp.<pid>.<serial>").
std::vector<std::string> temp_files_in(const std::filesystem::path& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".tmp.") != std::string::npos) out.push_back(name);
  }
  return out;
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// Both callers of the one durable writer — the streaming container
// writer (save) and the whole-buffer write_file_atomic (a journal
// append) — must fail every boundary typed, keep the prior file intact
// and leave no temp file behind.
TEST(FaultInjection, WriteBoundaryFailuresAreTypedAndLeaveNoFile) {
  const Graph g = graph::random_connected(24, 60, 7);
  const auto scheme = make_scheme(g, test_config(2));
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("ftc_fi_write_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = (dir / "store.ftcs.jrnl").string();
  const std::uint64_t digest = 0x5eed;
  DeletionJournal::append(journal, digest, 4, std::vector<EdgeId>{1});
  const std::string prior_journal = file_bytes(journal);
  ASSERT_FALSE(prior_journal.empty());

  for (const char* site : {"store.write.open", "store.write.write",
                           "store.write.fsync", "store.write.close",
                           "store.write.rename"}) {
    const std::string store =
        (dir / (std::string("write_") + site + ".ftcs")).string();
    {
      failpoint::Scoped fp(site, "once:ENOSPC");
      EXPECT_THROW(scheme->save(store), StoreIoError) << site;
    }
    struct stat st{};
    EXPECT_NE(::stat(store.c_str(), &st), 0)
        << site << ": aborted save must not leave a store file";

    {
      failpoint::Scoped fp(site, "once:ENOSPC");
      EXPECT_THROW(
          DeletionJournal::append(journal, digest, 4, std::vector<EdgeId>{2}),
          StoreIoError)
          << site;
    }
    EXPECT_EQ(file_bytes(journal), prior_journal)
        << site << ": aborted append must leave the prior journal unchanged";
    EXPECT_EQ(temp_files_in(dir), std::vector<std::string>{})
        << site << ": aborted writes must not leave temp files";
  }
  // The journal still takes the append once the boundary heals.
  EXPECT_EQ(
      DeletionJournal::append(journal, digest, 4, std::vector<EdgeId>{2}), 2u);
  EXPECT_EQ(temp_files_in(dir), std::vector<std::string>{});
  std::filesystem::remove_all(dir);
}

TEST(FaultInjection, SniffFailuresAreTyped) {
  StoreFile store("sniff");
  const Graph g = graph::random_connected(24, 60, 7);
  make_scheme(g, test_config(2))->save(store.path());
  {
    failpoint::Scoped fp("store.sniff.open", "once:EACCES");
    EXPECT_THROW((void)open_store_view(store.path()), StoreIoError);
  }
  {
    failpoint::Scoped fp("store.sniff.read", "once:EIO");
    EXPECT_THROW((void)open_store_view(store.path()), StoreIoError);
  }
  EXPECT_NE(open_store_view(store.path()), nullptr);
}

// ------------------------------------------------------------------
// Retry + quarantine on the sharded serving path.

TEST(FaultInjection, TransientOpenFailureRetriesAndServes) {
  ScopedRetryPolicy retry({3, std::chrono::microseconds(1), 2.0});
  ManifestFile manifest("retry_ok");
  const Graph g = graph::random_connected(48, 120, 11);
  const auto scheme = make_scheme(g, test_config(2));
  save_sharded(*scheme, manifest.path(), 4);

  // Hit 1 maps the manifest; hit 2 is the first shard map, which fails
  // transiently — the retry must succeed without quarantining anything.
  failpoint::Scoped fp("store.map.open", "nth:2:EAGAIN");
  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_EQ(fp.hits(), 6u);  // manifest + 4 shards + 1 retry
  EXPECT_EQ(view->shards_quarantined(), 0u);
  EXPECT_EQ(view->shards_open(), 4u);
  (void)view->vertex_blob(0);
}

TEST(FaultInjection, ExhaustedRetriesQuarantineExactlyThatShard) {
  ScopedRetryPolicy retry({2, std::chrono::microseconds(1), 2.0});
  ManifestFile manifest("quarantine");
  const Graph g = graph::random_connected(64, 160, 3);
  const auto scheme = make_scheme(g, test_config(2));
  save_sharded(*scheme, manifest.path(), 4);

  // Shard 2 fails transiently one time more than the retry budget: the
  // strict open refuses the store, naming exactly that shard.
  const auto expect_shard2 = [](const DegradedError& e,
                                const store::ShardRecord& rec) {
    EXPECT_EQ(e.shard, 2u);
    EXPECT_EQ(e.vertex_begin, rec.vertex_begin);
    EXPECT_EQ(e.vertex_end, rec.vertex_end);
    EXPECT_EQ(e.edge_begin, rec.edge_begin);
    EXPECT_EQ(e.edge_end, rec.edge_end);
  };
  try {
    (void)FlakyShardView::open(manifest.path(), 2, 2, /*degraded=*/false);
    FAIL() << "expected DegradedError";
  } catch (const DegradedError& e) {
    expect_shard2(e, ShardedStoreView::open(manifest.path())->shards()[2]);
  }

  // The degraded open quarantines it and maps the other three.
  const auto view =
      FlakyShardView::open(manifest.path(), 2, 2, /*degraded=*/true);
  const auto recs = view->shards();
  const VertexId damaged_v = static_cast<VertexId>(recs[2].vertex_begin);
  try {
    (void)view->vertex_blob(damaged_v);
    FAIL() << "expected DegradedError";
  } catch (const DegradedError& e) {
    expect_shard2(e, recs[2]);
  }
  // Quarantine is sticky (repair = next generation) and names exactly
  // one shard.
  EXPECT_THROW((void)view->edge_blob(static_cast<EdgeId>(recs[2].edge_begin)),
               DegradedError);
  EXPECT_EQ(view->shards_quarantined(), 1u);
  const auto report = view->quarantine_report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].shard, 2u);
  EXPECT_NE(report[0].reason.find("after 2 attempts"), std::string::npos);
  // Every other shard still serves.
  (void)view->vertex_blob(0);
  (void)view->vertex_blob(static_cast<VertexId>(recs[1].vertex_begin));
  (void)view->vertex_blob(static_cast<VertexId>(recs[3].vertex_begin));
  EXPECT_EQ(view->shards_open(), 3u);
  // One retry fewer and the same shard recovers.
  const auto healed =
      FlakyShardView::open(manifest.path(), 2, 1, /*degraded=*/false);
  EXPECT_EQ(healed->shards_open(), 4u);
}

TEST(FaultInjection, OpenKeepsMappingPastAFailedShard) {
  ScopedRetryPolicy retry({1, std::chrono::microseconds(1), 2.0});
  ManifestFile manifest("open_continue");
  const Graph g = graph::random_connected(64, 160, 5);
  const auto scheme = make_scheme(g, test_config(2));
  save_sharded(*scheme, manifest.path(), 4);

  // Hit 2 is the first shard map (hit 1 the manifest). The strict open
  // refuses the store ...
  {
    failpoint::Scoped fp("store.map.open", "nth:2:EIO");
    EXPECT_THROW((void)ShardedStoreView::open(manifest.path()),
                 DegradedError);
  }
  // ... while the degraded open quarantines that one shard and still
  // maps the other three.
  failpoint::Scoped fp("store.map.open", "nth:2:EIO");
  const auto view = ShardedStoreView::open_degraded(manifest.path());
  EXPECT_EQ(view->shards_open(), 3u);
  EXPECT_EQ(view->shards_quarantined(), 1u);
  EXPECT_THROW((void)load_scheme(view), DegradedError);
}

TEST(FaultInjection, FailedSwapLeavesOldGenerationServing) {
  ScopedRetryPolicy retry({1, std::chrono::microseconds(1), 2.0});
  ManifestFile gen_a("swap_a");
  ManifestFile gen_b("swap_b");
  const unsigned f = 2;
  const Graph g = graph::random_connected(48, 120, 17);
  // gen_b is built from a DIFFERENT graph so its shards are not
  // byte-identical to gen_a's — byte-identical shards would be adopted
  // across the swap and the open failpoint would never fire.
  const Graph g2 = graph::random_connected(48, 120, 18);
  save_sharded(*make_scheme(g, test_config(f)), gen_a.path(), 4);
  save_sharded(*make_scheme(g2, test_config(f)), gen_b.path(), 4);

  const std::vector<EdgeId> faults = {3, 40};
  BatchQueryEngine session(load_scheme(gen_a.path()),
                           FaultSpec::edges(faults));
  const bool before = session.connected(0, 47);
  EXPECT_EQ(before, graph::connected_avoiding(g, 0, 47, faults));
  {
    failpoint::Scoped fp("store.map.open", "always:EIO");
    EXPECT_THROW((void)session.swap_store(gen_b.path()), StoreError);
  }
  EXPECT_EQ(session.epoch(), 1u);
  EXPECT_EQ(session.connected(0, 47), before);
  EXPECT_EQ(session.generation_stats().shards_quarantined, 0u);
  // With the fault cleared the same swap succeeds and serves gen_b.
  EXPECT_EQ(session.swap_store(gen_b.path()), 2u);
  EXPECT_EQ(session.connected(0, 47),
            graph::connected_avoiding(g2, 0, 47, faults));
}

// ------------------------------------------------------------------
// SIGBUS-safe degraded serving: a shard truncated behind a live K=16
// generation must surface as DegradedError on its own ranges while
// every other range keeps answering correctly — never a crash.

TEST(FaultInjection, TruncatedShardBehindLiveGenerationDegradesTyped) {
  ManifestFile manifest("sigbus_live");
  const unsigned f = 3;
  const VertexId n = 320;
  const EdgeId m = 800;
  const Graph g = graph::random_connected(n, m, 29);
  const auto scheme = make_scheme(g, test_config(f));
  save_sharded(*scheme, manifest.path(), 16);

  const std::vector<EdgeId> faults = {10, 200, 600};
  BatchQueryEngine session(load_scheme(manifest.path()),
                           FaultSpec::edges(faults));
  const auto view = std::dynamic_pointer_cast<const ShardedStoreView>(
      session.scheme().store_view());
  ASSERT_NE(view, nullptr);
  // The open mapped every shard, so the truncation lands behind a LIVE
  // mapping.
  ASSERT_EQ(view->shards_open(), 16u);

  // Ground truth before the damage.
  SplitMix64 rng(99);
  std::vector<BatchQueryEngine::Query> batch;
  for (int i = 0; i < 400; ++i) {
    batch.push_back({static_cast<VertexId>(rng.next_below(n)),
                     static_cast<VertexId>(rng.next_below(n))});
  }
  std::vector<bool> truth;
  for (const auto& q : batch) {
    truth.push_back(graph::connected_avoiding(g, q.s, q.t, faults));
  }
  const auto results = session.run_sequential(batch);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(results[i], truth[i]) << "pre-damage answers must be exact";
  }

  // Truncate shard 9 on disk, behind the live mapping.
  const std::size_t damaged = 9;
  const auto recs = view->shards();
  ASSERT_EQ(::truncate(manifest.shard_path(damaged).c_str(), 0), 0);

  const auto in_damaged = [&](VertexId v) {
    return v >= recs[damaged].vertex_begin && v < recs[damaged].vertex_end;
  };
  std::size_t degraded_queries = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& q = batch[i];
    if ((in_damaged(q.s) || in_damaged(q.t)) && q.s != q.t) {
      // s == t short-circuits without a label read, so only distinct
      // endpoints are required to surface the damage.
      try {
        (void)session.connected(q.s, q.t);
        FAIL() << "query into the truncated shard must degrade, not answer";
      } catch (const DegradedError& e) {
        EXPECT_EQ(e.shard, damaged);
        ++degraded_queries;
      }
    } else {
      EXPECT_EQ(session.connected(q.s, q.t), truth[i])
          << "healthy ranges must keep answering correctly";
    }
  }
  EXPECT_GT(degraded_queries, 0u) << "test must actually hit the dead range";

  EXPECT_EQ(view->shards_quarantined(), 1u);
  EXPECT_EQ(view->quarantine_report()[0].shard, damaged);
  const auto stats = session.generation_stats();
  EXPECT_TRUE(stats.degraded);
  EXPECT_EQ(stats.num_shards, 16u);
  EXPECT_EQ(stats.shards_quarantined, 1u);
  ASSERT_EQ(stats.quarantine.size(), 1u);
  EXPECT_EQ(stats.quarantine[0].shard, damaged);
  EXPECT_EQ(stats.quarantine[0].vertex_begin, recs[damaged].vertex_begin);
}

TEST(FaultInjection, TruncationUnderConcurrentSessionsNeverCrashes) {
  ManifestFile manifest("sigbus_concurrent");
  const unsigned f = 2;
  const VertexId n = 256;
  const EdgeId m = 640;
  const Graph g = graph::random_connected(n, m, 31);
  const auto scheme = make_scheme(g, test_config(f));
  save_sharded(*scheme, manifest.path(), 16);

  const std::vector<EdgeId> faults = {7, 300};
  const auto view = ShardedStoreView::open(manifest.path());

  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<std::uint64_t> degraded{0};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      // One engine per thread (the engine's query contract is
      // single-driver), all sharing the one live view. Construction
      // (fault-label copies) must finish before the damage lands.
      BatchQueryEngine session(load_scheme(view), FaultSpec::edges(faults));
      ready.fetch_add(1);
      SplitMix64 rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto s = static_cast<VertexId>(rng.next_below(n));
        const auto u = static_cast<VertexId>(rng.next_below(n));
        try {
          (void)session.connected(s, u);
          answered.fetch_add(1, std::memory_order_relaxed);
        } catch (const DegradedError&) {
          degraded.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  while (ready.load() < 4) std::this_thread::sleep_for(
      std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_EQ(::truncate(manifest.shard_path(5).c_str(), 0), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  stop.store(true);
  for (auto& th : pool) th.join();

  EXPECT_GT(answered.load(), 0u);
  EXPECT_LE(view->shards_quarantined(), 1u);
  if (view->shards_quarantined() == 1) {
    EXPECT_EQ(view->quarantine_report()[0].shard, 5u);
  }
}

// ------------------------------------------------------------------
// fsck primitives: open_degraded + verify_shard.

TEST(FaultInjection, OpenDegradedQuarantinesDamagedShardAndServesRest) {
  ManifestFile manifest("fsck_prims");
  const Graph g = graph::random_connected(64, 160, 41);
  const auto scheme = make_scheme(g, test_config(2));
  save_sharded(*scheme, manifest.path(), 4);
  ASSERT_EQ(::truncate(manifest.shard_path(2).c_str(), 10), 0);

  // The strict open refuses outright (a damaged generation must never
  // win a swap) ...
  EXPECT_THROW((void)ShardedStoreView::open(manifest.path()), StoreError);
  // ... while the fsck/incident entry point opens degraded.
  const auto view = ShardedStoreView::open_degraded(manifest.path());
  EXPECT_EQ(view->shards_quarantined(), 1u);
  const auto report = view->quarantine_report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].shard, 2u);

  // Every healthy range serves through the view; every ID in the dead
  // shard's ranges throws DegradedError naming it.
  const auto recs = view->shards();
  const auto expect_dead = [](auto read) {
    try {
      read();
      ADD_FAILURE() << "read into the quarantined shard answered";
    } catch (const DegradedError& e) {
      EXPECT_EQ(e.shard, 2u);
    }
  };
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v >= recs[2].vertex_begin && v < recs[2].vertex_end) {
      expect_dead([&] { (void)view->vertex_blob(v); });
    } else {
      EXPECT_EQ(view->vertex_blob(v).size(), store::kVertexRecordBytes);
    }
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (e >= recs[2].edge_begin && e < recs[2].edge_end) {
      expect_dead([&] { (void)view->edge_blob(e); });
    } else {
      EXPECT_FALSE(view->edge_blob(e).empty());
    }
  }
  EXPECT_THROW((void)load_scheme(view), DegradedError);

  // verify_shard agrees with the quarantine, shard by shard.
  for (std::size_t k = 0; k < 4; ++k) {
    if (k == 2) {
      EXPECT_THROW(view->verify_shard(k), StoreError);
    } else {
      EXPECT_NO_THROW(view->verify_shard(k));
    }
  }
}

// ------------------------------------------------------------------
// Delta-push link() fallback satellite.

TEST(FaultInjection, LinkFailureFallsBackToByteCopyAndCounts) {
  ManifestFile parent("link_parent");
  ManifestFile child("link_child");
  const Graph g = graph::random_connected(48, 120, 23);
  const auto scheme = make_scheme(g, test_config(2));
  save_sharded(*scheme, parent.path(), 4);

  failpoint::Scoped fp("store.shard.link", "always:EXDEV");
  const DeltaPushStats stats =
      save_sharded_delta(*scheme, child.path(), parent.path());
  // Every shard is byte-identical to the parent, but the mount refuses
  // hard links: each one falls back to a full write, and the stats say
  // so — the push still succeeds.
  EXPECT_EQ(stats.shards_total, 4u);
  EXPECT_EQ(stats.shards_reused, 0u);
  EXPECT_EQ(stats.shards_written, 4u);
  EXPECT_EQ(stats.shards_link_fallback, 4u);
  EXPECT_GT(stats.bytes_written, 0u);

  // The fallback copies must be byte-faithful: the child opens with
  // full verification and chains to the parent.
  const auto child_view = ShardedStoreView::open(child.path());
  const auto parent_view = ShardedStoreView::open(parent.path());
  EXPECT_EQ(child_view->info().manifest_epoch, 2u);
  EXPECT_EQ(child_view->info().parent_digest,
            parent_view->info().payload_checksum);
  // And the copies are separate inodes (no hard link happened).
  struct stat a{}, b{};
  ASSERT_EQ(::stat(parent.shard_path(0).c_str(), &a), 0);
  ASSERT_EQ(::stat(child.shard_path(0).c_str(), &b), 0);
  EXPECT_NE(a.st_ino, b.st_ino);
}

TEST(FaultInjection, HealthyDeltaPushRecordsZeroFallbacks) {
  ManifestFile parent("nolink_parent");
  ManifestFile child("nolink_child");
  const Graph g = graph::random_connected(48, 120, 23);
  const auto scheme = make_scheme(g, test_config(2));
  save_sharded(*scheme, parent.path(), 4);
  const DeltaPushStats stats =
      save_sharded_delta(*scheme, child.path(), parent.path());
  EXPECT_EQ(stats.shards_reused, 4u);
  EXPECT_EQ(stats.shards_link_fallback, 0u);
}

// ------------------------------------------------------------------
// Journal locking satellite.

TEST(FaultInjection, ConcurrentJournalAppendsLoseNoFrames) {
  StoreFile store("jrnl_race");
  const Graph g = graph::random_connected(48, 200, 37);
  const auto scheme = make_scheme(g, test_config(8));
  scheme->save(store.path());
  const auto view = LabelStoreView::open(store.path());
  const std::uint64_t digest = view->info().payload_checksum;
  const std::string jpath = journal_path_for(store.path());

  // Two threads append disjoint edge sets; the flock around the
  // read-modify-write must serialize them so no append is lost.
  const auto appender = [&](EdgeId begin, EdgeId end) {
    for (EdgeId e = begin; e < end; ++e) {
      const std::vector<EdgeId> one{e};
      (void)DeletionJournal::append(jpath, digest, 8, one);
    }
  };
  std::thread a(appender, 0, 4);
  std::thread b(appender, 4, 8);
  a.join();
  b.join();

  const auto j = DeletionJournal::open(jpath);
  EXPECT_EQ(j->deleted_edges().size(), 8u);
  EXPECT_EQ(j->num_frames(), 8u);
}

TEST(FaultInjection, JournalFailpointsAreTyped) {
  StoreFile store("jrnl_fp");
  const Graph g = graph::random_connected(24, 60, 7);
  const auto scheme = make_scheme(g, test_config(4));
  scheme->save(store.path());
  const auto view = LabelStoreView::open(store.path());
  const std::uint64_t digest = view->info().payload_checksum;
  const std::string jpath = journal_path_for(store.path());
  const std::vector<EdgeId> first{1};
  const std::vector<EdgeId> second{2};
  ASSERT_EQ(DeletionJournal::append(jpath, digest, 4, first), 1u);
  {
    failpoint::Scoped fp("journal.flock", "once:EACCES");
    EXPECT_THROW((void)DeletionJournal::append(jpath, digest, 4, second),
                 StoreIoError);
  }
  {
    failpoint::Scoped fp("journal.read", "once:EIO");
    EXPECT_THROW((void)DeletionJournal::open(jpath), StoreIoError);
  }
  // The journal survived both injected failures intact.
  const auto j = DeletionJournal::open(jpath);
  EXPECT_EQ(j->deleted_edges().size(), 1u);
}

// ------------------------------------------------------------------
// fd exhaustion: a K=16 store under a shrinking RLIMIT_NOFILE must fail
// typed, never crash, and never leak a descriptor.

TEST(FaultInjection, FdExhaustionSweepIsTypedAndLeakFree) {
  ScopedRetryPolicy retry({2, std::chrono::microseconds(1), 2.0});
  ManifestFile manifest("fd_sweep");
  const Graph g = graph::random_connected(128, 320, 43);
  const auto scheme = make_scheme(g, test_config(2));
  save_sharded(*scheme, manifest.path(), 16);

  struct rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const std::size_t baseline = count_open_fds();

  for (const std::size_t headroom : {16u, 8u, 4u, 2u, 1u, 0u}) {
    for (int iteration = 0; iteration < 3; ++iteration) {
      struct rlimit tight = saved;
      tight.rlim_cur = static_cast<rlim_t>(baseline + headroom);
      ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
      try {
        const auto view = ShardedStoreView::open(manifest.path());
        (void)view->vertex_blob(0);
      } catch (const StoreError&) {
        // Typed failure (open/mmap EMFILE, possibly quarantined) is the
        // acceptable outcome; anything else escapes and fails the test.
      }
      ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
      EXPECT_EQ(count_open_fds(), baseline)
          << "headroom " << headroom << " iteration " << iteration
          << " leaked a descriptor";
    }
  }
  // With the limit restored the store serves normally again.
  const auto view = ShardedStoreView::open(manifest.path());
  EXPECT_EQ(view->shards_open(), 16u);
}

}  // namespace
}  // namespace ftc::core
