// RemoteStoreView + ShardHttpServer end-to-end coverage, all on
// loopback with in-process servers.
//
// The tier's contract: a sharded store served over HTTP answers
// byte-identically to the local-directory open (blobs, queries, journal
// replay), a swap to a delta-pushed child epoch transfers only the
// changed shard (cache hits + mmap adoption cover the rest), and
// transport faults follow the same retry → quarantine → DegradedError
// ladder as local I/O faults — healthy shards keep serving throughout.
#include <gtest/gtest.h>
#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_engine.hpp"
#include "core/connectivity_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "core/shard_cache.hpp"
#include "core/shard_server.hpp"
#include "core/shard_source.hpp"
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

SchemeConfig test_config(unsigned f) {
  SchemeConfig cfg;
  cfg.backend = BackendKind::kCoreFtc;
  cfg.set_f(f);
  cfg.ftc.k_scale = 2.0;
  return cfg;
}

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(::testing::TempDir() + "ftc_" + name + "_" +
              std::to_string(::getpid())) {
    remove_all();
    ::mkdir(path_.c_str(), 0755);
  }
  ~ScratchDir() { remove_all(); }
  const std::string& path() const { return path_; }
  std::string file(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  void remove_all() {
    if (DIR* d = ::opendir(path_.c_str())) {
      while (const struct dirent* ent = ::readdir(d)) {
        const std::string name = ent->d_name;
        if (name == "." || name == "..") continue;
        std::remove((path_ + "/" + name).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path_.c_str());
  }
  std::string path_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

bool spans_equal(std::span<const std::uint8_t> a,
                 std::span<const std::uint8_t> b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// Swaps a fresh, budget-free cache in as the process default for the
// test's duration — load_scheme(url) and swap_store(url) reach the
// remote tier through default_remote_cache().
class ScopedDefaultCache {
 public:
  explicit ScopedDefaultCache(const std::string& dir,
                              std::uint64_t max_bytes = 0)
      : cache_(std::make_shared<ShardCache>(dir, max_bytes)),
        prior_(set_default_remote_cache(cache_)) {}
  ~ScopedDefaultCache() { set_default_remote_cache(prior_); }
  const std::shared_ptr<ShardCache>& cache() const { return cache_; }

 private:
  std::shared_ptr<ShardCache> cache_;
  std::shared_ptr<ShardCache> prior_;
};

// One sharded store on disk plus a loopback origin serving its
// directory. url() is the manifest's http:// address.
struct ServedStore {
  explicit ServedStore(const std::string& name, unsigned k_shards,
                       unsigned seed = 13, unsigned n = 48, unsigned m = 120)
      : dir(name),
        graph(graph::random_connected(n, m, seed)),
        scheme(make_scheme(graph, test_config(3))),
        server(dir.path()) {
    save_sharded(*scheme, dir.file("store.ftcm"), k_shards);
    server.start();
  }
  std::string url() const { return server.base_url() + "store.ftcm"; }
  std::string manifest() const { return dir.file("store.ftcm"); }

  ScratchDir dir;
  Graph graph;
  std::unique_ptr<ConnectivityScheme> scheme;
  ShardHttpServer server;
};

// ------------------------------------------------------------------
// HttpShardSource against the in-process origin: the raw transport.

// Sends `request` verbatim to the loopback origin on `port` and returns
// everything it answers up to EOF.
std::string raw_exchange(std::uint16_t port, const std::string& request) {
  const util::ScopedFd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd.get(), request.data(), request.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  return response;
}

TEST(ShardHttpServer, ServesWholeObjectsAndStats) {
  ServedStore served("httpsrv", 2);
  const HttpShardSource src("127.0.0.1", served.server.port(), "/");

  const auto disk = read_file(served.manifest());
  const auto fetched = src.fetch("store.ftcm");
  EXPECT_EQ(fetched, disk);

  std::uint64_t size = 0;
  ASSERT_TRUE(src.stat("store.ftcm", &size));
  EXPECT_EQ(size, disk.size());
  EXPECT_FALSE(src.stat("absent.ftcm", &size));
  // Not-found is structural (plain StoreError): retrying cannot conjure
  // the bytes, so it must not match the retry filter.
  try {
    (void)src.fetch("absent.ftcm");
    ADD_FAILURE() << "fetch of an absent object succeeded";
  } catch (const StoreIoError&) {
    ADD_FAILURE() << "not-found must not be the retryable subclass";
  } catch (const StoreError&) {
  }
  // Traversal attempts must 404, never escape the served directory.
  EXPECT_THROW((void)src.fetch("../store.ftcm"), StoreError);

  // A Range header is ignored: the whole object comes back with 200,
  // including for a range whose bounds overflow 64 bits.
  const std::string response = raw_exchange(
      served.server.port(),
      "GET /store.ftcm HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Range: bytes=18446744073709551616-18446744073709551620\r\n"
      "Connection: close\r\n\r\n");
  EXPECT_EQ(response.rfind("HTTP/1.1 200 ", 0), 0u) << response.substr(0, 64);
  const std::size_t body = response.find("\r\n\r\n");
  ASSERT_NE(body, std::string::npos);
  EXPECT_EQ(std::vector<std::uint8_t>(response.begin() + body + 4,
                                      response.end()),
            disk);

  const auto stats = served.server.stats();
  EXPECT_GE(stats.requests, 6u);
  EXPECT_GE(stats.not_found, 3u);
  EXPECT_GT(stats.bytes_sent, 2 * disk.size());
}

TEST(ShardHttpSource, ConnectFailureIsTransient) {
  // Nothing listens on the server's port once it stops: connect must
  // fail with the retryable class, not hang or crash.
  std::uint16_t dead_port;
  {
    ServedStore served("deadport", 1);
    dead_port = served.server.port();
    served.server.stop();
  }
  const HttpShardSource src("127.0.0.1", dead_port, "/");
  EXPECT_THROW((void)src.fetch("store.ftcm"), StoreIoError);
}

// A raw one-shot origin on loopback: accepts one connection, drains the
// request head, answers with `response` verbatim and closes — for
// responses the real server never sends.
class OneShotOrigin {
 public:
  explicit OneShotOrigin(std::string response)
      : listen_fd_(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0)) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::bind(listen_fd_.get(), reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_.get(), 1), 0);
    EXPECT_EQ(::getsockname(listen_fd_.get(),
                            reinterpret_cast<sockaddr*>(&addr), &len),
              0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, response = std::move(response)] {
      const util::ScopedFd conn(::accept(listen_fd_.get(), nullptr, nullptr));
      if (!conn) return;  // shut down before any client came
      std::string head;
      char buf[1024];
      while (head.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(conn.get(), buf, sizeof(buf), 0);
        if (n <= 0) return;
        head.append(buf, static_cast<std::size_t>(n));
      }
      (void)::send(conn.get(), response.data(), response.size(), MSG_NOSIGNAL);
    });
  }
  ~OneShotOrigin() {
    ::shutdown(listen_fd_.get(), SHUT_RDWR);  // unblocks an idle accept
    thread_.join();
  }
  std::uint16_t port() const { return port_; }

 private:
  util::ScopedFd listen_fd_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(ShardHttpSource, BadContentLengthFailsTyped) {
  // An overflowing length, the u64 maximum and a huge length over a
  // 3-byte body: each must end in the typed ladder (StoreError or its
  // StoreIoError subclass), never length_error or bad_alloc.
  for (const char* length :
       {"18446744073709551615", "12345678901234567890123", "4000000000000"}) {
    OneShotOrigin origin(std::string("HTTP/1.1 200 OK\r\nContent-Length: ") +
                         length + "\r\nConnection: close\r\n\r\nabc");
    const HttpShardSource src("127.0.0.1", origin.port(), "/");
    try {
      (void)src.fetch("store.ftcm");
      ADD_FAILURE() << length << ": fetch of a lying origin succeeded";
    } catch (const StoreError&) {
      // Typed: the retry/quarantine ladder handles it.
    } catch (const std::exception& e) {
      ADD_FAILURE() << length << ": untyped " << e.what();
    }
  }

  // Seeded mutation sweep of the response parser over one valid 200
  // with its body: bit flips, truncations, splices and length lies.
  // Every fetch and stat must return or throw the typed ladder. One
  // origin runs at a time.
  std::string body;
  for (int i = 0; i < 48; ++i) body.push_back(static_cast<char>(i * 37));
  const std::string valid =
      "HTTP/1.1 200 OK\r\nContent-Length: 48\r\n"
      "Content-Type: application/octet-stream\r\nConnection: close\r\n\r\n" +
      body;
  const auto exchange = [](const std::string& response, bool use_stat) {
    OneShotOrigin origin(response);
    const HttpShardSource src("127.0.0.1", origin.port(), "/");
    std::uint64_t size = 0;
    if (use_stat) {
      const bool present = src.stat("store.ftcm", &size);
      return std::string(present ? "present " + std::to_string(size)
                                 : "absent");
    }
    const auto got = src.fetch("store.ftcm");
    return std::string(got.begin(), got.end());
  };
  ASSERT_EQ(exchange(valid, false), body);
  ASSERT_EQ(exchange(valid, true), "present 48");

  constexpr std::uint64_t kSweepSeed = 0x5eed0f7c;
  constexpr int kMutations = 400;
  SplitMix64 rng(kSweepSeed);
  const std::size_t length_at = valid.find("48\r\n");
  for (int i = 0; i < kMutations; ++i) {
    std::string m = valid;
    switch (i % 4) {
      case 0:  // 1-4 bit flips anywhere
        for (std::uint64_t f = 0, n = 1 + rng.next_below(4); f < n; ++f) {
          m[rng.next_below(m.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        }
        break;
      case 1:  // cut short anywhere, head or body
        m.resize(rng.next_below(m.size()));
        break;
      case 2: {  // a slice of the response spliced over another point
        const std::size_t from = rng.next_below(valid.size());
        const std::size_t len = 1 + rng.next_below(valid.size() - from);
        const std::size_t at = rng.next_below(valid.size());
        const std::size_t cut = rng.next_below(valid.size() - at + 1);
        m = valid.substr(0, at) + valid.substr(from, len) +
            valid.substr(at + cut);
        break;
      }
      default: {  // the Content-Length value replaced by a lie
        const std::string lies[] = {
            std::to_string(rng.next()),
            std::to_string(rng.next_below(96)),
            "",
            "-1",
            "+48",
            "4 8",
            "0x30",
            "99999999999999999999999999",
            std::to_string(~std::uint64_t{0} - rng.next_below(4)),
        };
        m.replace(length_at, 2, lies[rng.next_below(std::size(lies))]);
        break;
      }
    }
    for (const bool use_stat : {false, true}) {
      try {
        (void)exchange(m, use_stat);
      } catch (const StoreError&) {
        // Typed (StoreError or its StoreIoError subclass).
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutation " << i << (use_stat ? " stat" : " fetch")
                      << ": untyped " << e.what();
      }
    }
  }
}


TEST(RemoteStore, BlobsAndInfoMatchLocalOpen) {
  ServedStore served("parity", 4);
  ScratchDir cache_dir("parity_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);

  const auto local = ShardedStoreView::open(served.manifest());
  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  ASSERT_NE(remote, nullptr);
  EXPECT_EQ(remote->url(), served.url());
  EXPECT_EQ(remote->info().num_vertices, local->info().num_vertices);
  EXPECT_EQ(remote->info().num_edges, local->info().num_edges);
  EXPECT_EQ(remote->info().num_shards, local->info().num_shards);
  EXPECT_EQ(remote->info().manifest_epoch, local->info().manifest_epoch);
  EXPECT_EQ(remote->info().payload_checksum, local->info().payload_checksum);
  EXPECT_EQ(remote->info().file_bytes, local->info().file_bytes);

  EXPECT_TRUE(spans_equal(remote->params_blob(), local->params_blob()));
  for (VertexId v = 0; v < local->info().num_vertices; ++v) {
    ASSERT_TRUE(spans_equal(remote->vertex_blob(v), local->vertex_blob(v)))
        << "vertex " << v;
  }
  for (EdgeId e = 0; e < local->info().num_edges; ++e) {
    ASSERT_TRUE(spans_equal(remote->edge_blob(e), local->edge_blob(e)))
        << "edge " << e;
  }
  // Adjacency is carried by the manifest itself.
  std::vector<EdgeId> local_adj;
  std::vector<EdgeId> remote_adj;
  for (VertexId v = 0; v < local->info().num_vertices; ++v) {
    local_adj.clear();
    remote_adj.clear();
    local->adjacency_append(v, local_adj);
    remote->adjacency_append(v, remote_adj);
    ASSERT_EQ(remote_adj, local_adj) << "vertex " << v;
  }
}

TEST(RemoteStore, OpenFetchesEveryShardOnceThenServesWarm) {
  ServedStore served("eager", 4);
  ScratchDir cache_dir("eager_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);

  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  EXPECT_EQ(remote->shards_open(), 4u);  // the open fetched + mapped all
  EXPECT_EQ(remote->prefetch(4).shards_opened, 4u);
  EXPECT_EQ(remote->routes().num_vertices, served.graph.num_vertices());

  std::uint64_t shard_bytes = 0;
  for (const auto& rec : remote->shards()) shard_bytes += rec.file_bytes;
  auto cstats = cache->stats();
  EXPECT_EQ(cstats.misses, 4u);
  EXPECT_EQ(cstats.bytes_fetched, shard_bytes);

  // A second open over the same cache is all hits: no shard bytes move.
  const auto warm = RemoteStoreView::open(served.url(), true, nullptr, cache);
  EXPECT_EQ(warm->prefetch(4).shards_opened, 4u);
  cstats = cache->stats();
  EXPECT_EQ(cstats.misses, 4u);
  EXPECT_EQ(cstats.hits, 4u);
  EXPECT_EQ(cstats.bytes_fetched, shard_bytes);
}

TEST(RemoteStore, LoadSchemeAnswersMatchLocalThroughEngine) {
  ServedStore served("engine", 4, 29);
  ScratchDir cache_dir("engine_cache");
  const ScopedDefaultCache cache(cache_dir.path());

  const std::vector<EdgeId> faults{1, 5};
  std::vector<BatchQueryEngine::Query> queries;
  for (VertexId s = 0; s < served.graph.num_vertices(); ++s) {
    queries.push_back({s, (s * 7 + 3) % served.graph.num_vertices()});
  }
  BatchQueryEngine local_session(load_scheme(served.manifest()),
                                 FaultSpec::edges(faults));
  // load_scheme(url) rides the open_store_view dispatch — no
  // remote-specific call sites above the store layer.
  BatchQueryEngine remote_session(load_scheme(served.url()),
                                  FaultSpec::edges(faults));
  const auto expected = local_session.run_sequential(queries);
  EXPECT_EQ(remote_session.run_sequential(queries), expected);
  EXPECT_EQ(remote_session.run_parallel(queries, 4), expected);
}

// ------------------------------------------------------------------
// Delta swap: only the changed shard crosses the wire.

TEST(RemoteStore, SwapToDeltaPushedChildFetchesOnlyChangedShard) {
  ServedStore served("delta", 4, 31);
  ScratchDir cache_dir("delta_cache");
  const ScopedDefaultCache cache(cache_dir.path());

  auto scheme = load_scheme(served.url());  // all four shards cached + mapped
  const std::vector<EdgeId> faults{2};
  BatchQueryEngine session(std::move(scheme), FaultSpec::edges(faults));

  // Push a child epoch whose only change is edge 0's label — exactly
  // shard 0's bytes differ — and serve it from the same origin dir.
  class EdgeFlipScheme : public ConnectivityScheme {
   public:
    EdgeFlipScheme(const ConnectivityScheme& inner, EdgeId flip)
        : inner_(inner), flip_(flip) {}
    BackendKind backend() const override { return inner_.backend(); }
    VertexId num_vertices() const override { return inner_.num_vertices(); }
    EdgeId num_edges() const override { return inner_.num_edges(); }
    std::size_t vertex_label_bits() const override {
      return inner_.vertex_label_bits();
    }
    std::size_t edge_label_bits() const override {
      return inner_.edge_label_bits();
    }
    const AdjacencyProvider* adjacency() const override {
      return inner_.adjacency();
    }
    void serialize_params(store::ByteWriter& out) const override {
      inner_.serialize_params(out);
    }
    void serialize_vertex_label(VertexId v,
                                store::ByteWriter& out) const override {
      inner_.serialize_vertex_label(v, out);
    }
    void serialize_edge_label(EdgeId e,
                              store::ByteWriter& out) const override {
      if (e != flip_) {
        inner_.serialize_edge_label(e, out);
        return;
      }
      store::ByteWriter tmp;
      inner_.serialize_edge_label(e, tmp);
      std::vector<std::uint8_t> flipped(tmp.view().begin(), tmp.view().end());
      for (std::uint8_t& b : flipped) b ^= 0xff;
      out.bytes(flipped);
    }
    std::unique_ptr<Workspace> make_workspace() const override {
      throw std::logic_error("write-only scheme");
    }

   protected:
    std::unique_ptr<FaultSet> prepare_edge_faults(
        std::span<const EdgeId>) const override {
      throw std::logic_error("write-only scheme");
    }
    bool query_edges(VertexId, VertexId, const FaultSet&, Workspace&,
                     const QueryOptions&) const override {
      throw std::logic_error("write-only scheme");
    }

   private:
    const ConnectivityScheme& inner_;
    EdgeId flip_;
  };

  const EdgeFlipScheme patched(*served.scheme, 0);
  const DeltaPushStats push = save_sharded_delta(
      patched, served.dir.file("child.ftcm"), served.manifest());
  ASSERT_EQ(push.shards_written, 1u);
  ASSERT_EQ(push.shards_reused, 3u);

  const auto before = cache.cache()->stats();
  // swap_store opens the incoming generation with the parent view as
  // reuse source: the three unchanged shards are adopted onto their
  // existing mmaps, so the swap moves exactly ONE shard over the wire —
  // a cache miss for the child's new bytes.
  session.swap_store(served.server.base_url() + "child.ftcm");
  const auto child_view = std::dynamic_pointer_cast<const ShardedStoreView>(
      session.scheme().store_view());
  ASSERT_NE(child_view, nullptr);
  EXPECT_EQ(child_view->shards_adopted(), 3u);
  const auto after = cache.cache()->stats();
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits, before.hits);  // adoption never re-touches the cache
  // The open's record: one shard mapped, three adopted.
  const auto pstats = child_view->prefetch(4);
  EXPECT_EQ(pstats.shards_opened, 1u);
  EXPECT_EQ(pstats.shards_adopted, 3u);
}

// ------------------------------------------------------------------
// Fault ladder: transient retries, persistent failures degrade the one
// shard while the rest keep serving.

// Shrinks the retry schedule (and restores it) so always-failing drills
// do not sleep through real backoff.
class ScopedRetryPolicy {
 public:
  ScopedRetryPolicy(unsigned attempts, std::chrono::microseconds backoff)
      : prior_(default_retry_policy()) {
    default_retry_policy().max_attempts = attempts;
    default_retry_policy().initial_backoff = backoff;
  }
  ~ScopedRetryPolicy() { default_retry_policy() = prior_; }

 private:
  RetryPolicy prior_;
};

TEST(RemoteStoreFaults, TransientFetchFailureRetriesAndSucceeds) {
  ServedStore served("retry", 2);
  ScratchDir cache_dir("retry_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);
  const ScopedRetryPolicy policy(3, std::chrono::microseconds(50));

  // The first shard fetch fails its digest check (transient: the origin
  // may be mid-republish); the open_shard retry re-fetches and the open
  // succeeds with nothing quarantined.
  failpoint::Scoped fp("remote.digest", "once:EIO");
  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  EXPECT_EQ(fp.hits(), 3u);  // 2 shards + 1 retry
  EXPECT_EQ(remote->shards_quarantined(), 0u);
  EXPECT_EQ(remote->shards_open(), 2u);
  EXPECT_GT(remote->vertex_blob(0).size(), 0u);
}

TEST(RemoteStoreFaults, PersistentFailureFailsOpenWarmViewKeepsServing) {
  ServedStore served("degrade", 4);
  ScratchDir cache_dir("degrade_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);
  const ScopedRetryPolicy policy(2, std::chrono::microseconds(50));

  // Open while the origin is healthy: every shard is local and mapped.
  const auto remote = RemoteStoreView::open(served.url(), true, nullptr,
                                            cache);
  // Every read now fails: the warm view never touches the wire again,
  // so every range still answers while the origin is down.
  {
    failpoint::Scoped fp("remote.read", "always:EIO");
    for (VertexId v = 0; v < served.graph.num_vertices(); ++v) {
      EXPECT_GT(remote->vertex_blob(v).size(), 0u);
    }
  }
  EXPECT_EQ(remote->shards_quarantined(), 0u);

  // The last shard vanishes from the origin: a cold open exhausts its
  // retries on it and refuses the store, naming exactly that shard.
  const std::size_t last = remote->shards().size() - 1;
  const store::ShardRecord& rec = remote->shards()[last];
  ASSERT_EQ(std::remove(served.dir.file(rec.name).c_str()), 0);
  ScratchDir cold_dir("degrade_cold_cache");
  auto cold = std::make_shared<ShardCache>(cold_dir.path(), 0);
  try {
    (void)RemoteStoreView::open(served.url(), true, nullptr, cold);
    FAIL() << "expected DegradedError";
  } catch (const DegradedError& e) {
    EXPECT_EQ(e.shard, last);
    EXPECT_EQ(e.vertex_begin, rec.vertex_begin);
    EXPECT_EQ(e.vertex_end, rec.vertex_end);
    EXPECT_NE(std::string(e.what()).find("remote"), std::string::npos);
  }
}

TEST(RemoteStoreFaults, CorruptOriginShardFailsTypedNotCrash) {
  ServedStore served("corrupt", 2);
  ScratchDir cache_dir("corrupt_cache");
  auto cache = std::make_shared<ShardCache>(cache_dir.path(), 0);
  const ScopedRetryPolicy policy(2, std::chrono::microseconds(50));

  // Flip a payload byte of shard 0 on the origin: the transfer works
  // but the digest check refuses to publish, and the shard degrades.
  const std::string shard_path = served.dir.file("store.ftcm.shard0.ftcs");
  auto bytes = read_file(shard_path);
  ASSERT_GT(bytes.size(), store::kHeaderBytes);
  bytes[bytes.size() - 1] ^= 0x40;
  {
    std::ofstream out(shard_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  EXPECT_THROW(
      (void)RemoteStoreView::open(served.url(), true, nullptr, cache),
      DegradedError);
  EXPECT_EQ(cache->stats().entries, 1u);  // shard 1 only; corrupt 0 never
}

// ------------------------------------------------------------------
// Journal sidecar over the wire.

TEST(RemoteStore, JournalSidecarReplaysSameAsLocal) {
  ServedStore served("journal", 2, 37);
  ScratchDir cache_dir("journal_cache");
  const ScopedDefaultCache cache(cache_dir.path());

  // Journal one deleted edge next to the manifest; the origin serves it
  // as "<manifest>.jrnl" like any other object.
  const auto view = ShardedStoreView::open(served.manifest());
  const EdgeId dead_edge = 4;
  DeletionJournal::append(journal_path_for(served.manifest()),
                          view->info().payload_checksum, 3,
                          std::vector<EdgeId>{dead_edge});

  std::vector<BatchQueryEngine::Query> queries;
  for (VertexId s = 0; s + 1 < served.graph.num_vertices(); s += 3) {
    queries.push_back({s, s + 1});
  }
  BatchQueryEngine local_session(load_scheme(served.manifest()), FaultSpec{});
  BatchQueryEngine remote_session(load_scheme(served.url()), FaultSpec{});
  EXPECT_EQ(remote_session.num_faults(), local_session.num_faults());
  EXPECT_EQ(remote_session.run_sequential(queries),
            local_session.run_sequential(queries));
}

TEST(RemoteStoreFaults, JournalProbeRetriesTransientConnectFailure) {
  ServedStore served("journal_probe", 2, 37);
  ScratchDir cache_dir("journal_probe_cache");
  const ScopedDefaultCache cache(cache_dir.path());
  const ScopedRetryPolicy policy(3, std::chrono::microseconds(50));
  const auto view = ShardedStoreView::open(served.manifest());
  DeletionJournal::append(journal_path_for(served.manifest()),
                          view->info().payload_checksum, 3,
                          std::vector<EdgeId>{4});

  // The HEAD probe's first connect is refused: the probe retries like
  // the fetch does, and the journal still arrives.
  failpoint::Scoped fp("remote.connect", "once:ECONNREFUSED");
  const std::string local = fetch_remote_journal(served.url());
  EXPECT_GE(fp.hits(), 3u);  // refused probe + retried probe + fetch
  ASSERT_FALSE(local.empty());
  EXPECT_EQ(read_file(local),
            read_file(journal_path_for(served.manifest())));
}

// ------------------------------------------------------------------
// Eviction during serving: a tiny budget stays correct, just slower.

TEST(RemoteStore, TinyCacheBudgetStillAnswersCorrectly) {
  ServedStore served("tiny", 4, 41);
  ScratchDir cache_dir("tiny_cache");
  // Budget below ONE shard: every entry evicts as soon as the next
  // fetch lands; already-mapped shards keep serving regardless.
  const ScopedDefaultCache cache(cache_dir.path(), 1024);

  const std::vector<EdgeId> faults{0};
  std::vector<BatchQueryEngine::Query> queries;
  for (VertexId s = 0; s < served.graph.num_vertices(); s += 2) {
    queries.push_back({s, (s + 11) % served.graph.num_vertices()});
  }
  BatchQueryEngine local_session(load_scheme(served.manifest()),
                                 FaultSpec::edges(faults));
  BatchQueryEngine remote_session(load_scheme(served.url()),
                                  FaultSpec::edges(faults));
  EXPECT_EQ(remote_session.run_sequential(queries),
            local_session.run_sequential(queries));
  const auto stats = cache.cache()->stats();
  EXPECT_GT(stats.evictions, 0u);
  // Under a budget below one shard, each publish evicts every other
  // entry: only the most recent fetch survives on disk.
  EXPECT_EQ(stats.entries, 1u);
}

}  // namespace
}  // namespace ftc::core
