// ShardedLabelStore implementation: the manifest writer (save_sharded),
// the manifest-routed ShardedStoreView, and the magic-dispatching
// open_store_view() entry point.
//
// The split is by contiguous vertex/edge ranges, and the layout inside
// each shard is exactly the single-container one, so opening a shard is
// byte-for-byte the code LabelStoreView already runs. The view opens
// every shard eagerly and splices their route tables into one, so a
// label read never asks which shard holds it.
#include "core/sharded_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <limits>
#include <string_view>
#include <thread>
#include <utility>

#include "core/shard_source.hpp"
#include "core/store_retry.hpp"
#include "util/digest.hpp"
#include "util/failpoint.hpp"
#include "util/scoped_fd.hpp"
#include "util/worker_pool.hpp"

namespace ftc::core {

namespace {

// Env-tunable retry knobs (satellite of the remote tier: operators
// adjust remote-fetch retries without a rebuild). Invalid or absent
// values keep the compiled default for that field only.
RetryPolicy policy_from_env() {
  RetryPolicy policy;
  const auto read_u64 = [](const char* name, std::uint64_t* out) {
    const char* value = std::getenv(name);
    if (value == nullptr || *value == '\0') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(value, &end, 10);
    if (errno != 0 || end == value || *end != '\0') return false;
    *out = static_cast<std::uint64_t>(v);
    return true;
  };
  std::uint64_t v = 0;
  if (read_u64("FTC_RETRY_ATTEMPTS", &v) && v >= 1) {
    policy.max_attempts = static_cast<unsigned>(std::min<std::uint64_t>(
        v, std::numeric_limits<unsigned>::max()));
  }
  if (read_u64("FTC_RETRY_BASE_US", &v)) {
    policy.initial_backoff = std::chrono::microseconds(v);
  }
  if (read_u64("FTC_RETRY_CAP_US", &v)) {
    policy.max_backoff = std::chrono::microseconds(v);
  }
  return policy;
}

}  // namespace

RetryPolicy& default_retry_policy() {
  static RetryPolicy policy = policy_from_env();
  return policy;
}

void detail::retry_transient(const std::function<void()>& attempt,
                             unsigned* attempts) {
  const RetryPolicy policy = default_retry_policy();
  const unsigned budget = std::max(1u, policy.max_attempts);
  std::chrono::microseconds backoff = policy.initial_backoff;
  for (unsigned n = 1;; ++n) {
    if (attempts != nullptr) *attempts = n;
    try {
      attempt();
      return;
    } catch (const StoreIoError&) {
      if (n >= budget) throw;
    }
    std::this_thread::sleep_for(backoff);
    backoff = std::chrono::microseconds(static_cast<std::int64_t>(
        static_cast<double>(backoff.count()) * policy.multiplier));
    if (policy.max_backoff.count() > 0 && backoff > policy.max_backoff) {
      backoff = policy.max_backoff;
    }
  }
}

namespace {

using graph::EdgeId;
using graph::VertexId;

std::size_t align8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

// Splits path into (directory prefix including the trailing slash — or
// empty for the current directory — and the file name).
std::pair<std::string, std::string> split_path(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return {std::string(), path};
  return {path.substr(0, slash + 1), path.substr(slash + 1)};
}

// Shard names come from a checksummed but untrusted file; resolving one
// must never escape the manifest's directory.
void validate_shard_name(const std::string& name, const std::string& path) {
  const auto fail = [&](const char* why) -> StoreError {
    return StoreError(std::string("corrupt manifest (") + why +
                      " in shard name): " + path);
  };
  if (name.empty()) throw fail("empty");
  if (name.front() == '/') throw fail("absolute path");
  if (name.find('\0') != std::string::npos) throw fail("NUL byte");
  std::size_t pos = 0;
  while (pos <= name.size()) {
    std::size_t next = name.find('/', pos);
    if (next == std::string::npos) next = name.size();
    const std::string_view seg(name.data() + pos, next - pos);
    if (seg.empty() || seg == "." || seg == "..") {
      throw fail("path traversal segment");
    }
    pos = next + 1;
  }
}

// What save_sharded_impl did to the file behind shard k, so error
// cleanup only unlinks files THIS call produced and never a parent's
// in-place-reused shard or a prior generation's published one.
enum class ShardFile : std::uint8_t {
  kNone = 0,       // nothing on disk yet for this slot
  kStaged = 1,     // bytes (or a hard link) under the stage name
  kPublished = 2,  // renamed onto the final shard name
  kInPlace = 3,    // parent's file reused where it already stood
};

// The parent side of a delta push, snapshotted from its manifest before
// any byte of the child is produced.
struct ParentManifest {
  std::string dir;  // parent manifest directory (trailing slash or empty)
  std::vector<store::ShardRecord> records;
  std::uint64_t manifest_digest = 0;  // its payload checksum
  std::uint64_t epoch = 0;
};

// How staging the byte-identical file at src for publication as dst
// went. kInPlace: dst already IS src (same inode — a push over the
// parent's own path), nothing to stage. kLinked: a hard link sits under
// the stage name (renamed onto dst in the publish phase with every
// other shard). kLinkFailedFallback: the mount refuses hard links
// (EXDEV/EPERM) — the caller writes the shard in full and records the
// typed fallback in DeltaPushStats. kNoSource: src gone, not regular,
// or the link failed for any other reason — plain full write.
enum class ReuseResult : std::uint8_t {
  kNoSource = 0,
  kInPlace = 1,
  kLinked = 2,
  kLinkFailedFallback = 3,
};

ReuseResult stage_shard_reuse(const std::string& src, const std::string& dst,
                              const std::string& stage) {
  struct stat src_st{};
  if (::stat(src.c_str(), &src_st) != 0 || !S_ISREG(src_st.st_mode)) {
    return ReuseResult::kNoSource;
  }
  struct stat dst_st{};
  if (::stat(dst.c_str(), &dst_st) == 0 && dst_st.st_dev == src_st.st_dev &&
      dst_st.st_ino == src_st.st_ino) {
    return ReuseResult::kInPlace;
  }
  ::unlink(stage.c_str());
  int rc;
  if (const int fe = FTC_FAILPOINT("store.shard.link")) {
    errno = fe;
    rc = -1;
  } else {
    rc = ::link(src.c_str(), stage.c_str());
  }
  if (rc == 0) return ReuseResult::kLinked;
  return errno == EXDEV || errno == EPERM ? ReuseResult::kLinkFailedFallback
                                          : ReuseResult::kNoSource;
}

// The parent side of a delta push needs the manifest's records, epoch
// and digest, not the K shard mappings a full open would make.
// Structural validation runs in full; the payload FNV pass is skipped —
// the checksum VALUE is what chains.
class ManifestReader final : public ShardedStoreView {
 public:
  static std::shared_ptr<ShardedStoreView> read(const std::string& path) {
    std::shared_ptr<ShardedStoreView> view(new ManifestReader());
    read_manifest(view, path, /*verify_checksum=*/false, /*degraded=*/false,
                  /*stat_shards=*/true);
    return view;
  }
};

DeltaPushStats save_sharded_impl(const ConnectivityScheme& scheme,
                                 const std::string& manifest_path,
                                 unsigned num_shards,
                                 const ParentManifest* parent) {
  FTC_REQUIRE(num_shards >= 1, "need at least one shard");
  FTC_REQUIRE(num_shards <= store::kMaxShards, "too many shards");
  const VertexId n = scheme.num_vertices();
  const EdgeId m = scheme.num_edges();
  const auto [dir, base] = split_path(manifest_path);

  // Contiguous, near-even split of both ID spaces. A shard's vertex and
  // edge ranges are independent partitions — edge e's endpoints need not
  // live in the same shard, and nothing on the read path assumes so.
  std::vector<store::ShardRecord> records(num_shards);
  for (unsigned k = 0; k < num_shards; ++k) {
    store::ShardRecord& rec = records[k];
    rec.vertex_begin = static_cast<std::uint64_t>(n) * k / num_shards;
    rec.vertex_end = static_cast<std::uint64_t>(n) * (k + 1) / num_shards;
    rec.edge_begin = static_cast<std::uint64_t>(m) * k / num_shards;
    rec.edge_end = static_cast<std::uint64_t>(m) * (k + 1) / num_shards;
    rec.name = base + ".shard" + std::to_string(k) + ".ftcs";
  }

  DeltaPushStats stats;
  stats.epoch = parent != nullptr ? parent->epoch + 1 : 1;
  stats.shards_total = num_shards;
  std::atomic<std::size_t> shards_reused{0};
  std::atomic<std::size_t> link_fallbacks{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> bytes_reused{0};
  std::vector<ShardFile> produced(num_shards, ShardFile::kNone);
  // True for a published slot that replaced a pre-existing file (a prior
  // generation's shard): those must survive error cleanup.
  std::vector<std::uint8_t> replaced(num_shards, 0);
  const std::string stage_suffix =
      ".stage." + std::to_string(static_cast<long>(::getpid()));

  // Build the shard containers in parallel (striped over a
  // util::WorkerPool): serialization only reads the (immutable) scheme,
  // and every worker writes distinct files. Every shard is STAGED under
  // a temp name first and renamed onto its final name only once all of
  // them built, so a failed save never disturbs a prior generation
  // living under this path; the manifest goes last, so a crash mid-save
  // never publishes a manifest naming missing shards.
  // Shards stream straight from the scheme to disk
  // (write_container_streamed), so peak save memory per worker is one
  // flush chunk, not one shard image. In delta mode a no-I/O digest
  // pass runs first; a shard matching a parent record (payload digest +
  // exact size — digests are over the full payload, so a match means
  // byte-identical files) is hard-linked from the parent instead of
  // written, and only changed shards pay the serialize-again-to-disk
  // pass.
  std::vector<std::exception_ptr> errors(num_shards);
  const auto build_shard = [&](unsigned k) {
    try {
      store::ShardRecord& rec = records[k];
      const auto v_begin = static_cast<VertexId>(rec.vertex_begin);
      const auto v_end = static_cast<VertexId>(rec.vertex_end);
      const auto e_begin = static_cast<EdgeId>(rec.edge_begin);
      const auto e_end = static_cast<EdgeId>(rec.edge_end);
      if (parent != nullptr) {
        const store::ContainerDigest digest = store::digest_container(
            scheme, v_begin, v_end, e_begin, e_end,
            /*include_adjacency=*/false);
        rec.file_bytes = digest.file_bytes;
        rec.payload_digest = digest.payload_checksum;
        for (const store::ShardRecord& prec : parent->records) {
          if (prec.payload_digest != rec.payload_digest ||
              prec.file_bytes != rec.file_bytes) {
            continue;
          }
          const ReuseResult reuse =
              stage_shard_reuse(parent->dir + prec.name, dir + rec.name,
                                dir + rec.name + stage_suffix);
          if (reuse == ReuseResult::kInPlace ||
              reuse == ReuseResult::kLinked) {
            produced[k] = reuse == ReuseResult::kInPlace
                              ? ShardFile::kInPlace
                              : ShardFile::kStaged;
            shards_reused.fetch_add(1, std::memory_order_relaxed);
            bytes_reused.fetch_add(rec.file_bytes,
                                   std::memory_order_relaxed);
            return;
          }
          if (reuse == ReuseResult::kLinkFailedFallback) {
            // Hard-link-hostile mount: the push still succeeds, the
            // shard is just written in full below and the fallback is
            // surfaced in the stats.
            link_fallbacks.fetch_add(1, std::memory_order_relaxed);
          }
          break;  // reuse impossible (e.g. cross-device): write in full
        }
      }
      const store::ContainerDigest written = store::write_container_streamed(
          scheme, dir + rec.name + stage_suffix, v_begin, v_end, e_begin,
          e_end, /*include_adjacency=*/false);
      rec.file_bytes = written.file_bytes;
      rec.payload_digest = written.payload_checksum;
      produced[k] = ShardFile::kStaged;
      bytes_written.fetch_add(rec.file_bytes, std::memory_order_relaxed);
    } catch (...) {
      errors[k] = std::current_exception();
    }
  };

  try {
    const unsigned workers = std::min(
        num_shards, util::WorkerPool::resolve_threads(/*requested=*/0));
    util::WorkerPool pool;
    pool.run(workers, [&](unsigned w) {
      for (unsigned k = w; k < num_shards; k += workers) build_shard(k);
    });
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }

    store::ByteWriter params;
    scheme.serialize_params(params);
    const std::vector<std::uint8_t> adj_section =
        store::build_adjacency_section(scheme);

    store::ByteWriter w;
    w.u64(store::kManifestMagic);
    w.u32(static_cast<std::uint32_t>(store::kManifestFormatVersion));
    w.u8(static_cast<std::uint8_t>(scheme.backend()));
    w.u8(!adj_section.empty() ? store::kFlagHasAdjacency : 0);  // flags
    w.u8(0);
    w.u8(0);
    w.u64(n);
    w.u64(m);
    w.u64(num_shards);
    w.u64(params.size());
    w.u64(store::fnv1a(params.view()));
    w.u64(adj_section.size());
    w.u64(stats.epoch);
    w.u64(parent != nullptr ? parent->manifest_digest : 0);
    const std::size_t payload_checksum_off = w.size();
    w.u64(0);  // payload checksum, patched below
    const std::size_t header_checksum_off = w.size();
    w.u64(0);  // header checksum, patched below
    FTC_CHECK(w.size() == store::kManifestHeaderBytes,
              "manifest header layout drifted");

    w.bytes(params.view());
    w.pad_to(8);
    for (const store::ShardRecord& rec : records) {
      store::encode_shard_record(rec, w);
    }
    if (!adj_section.empty()) w.bytes(adj_section);

    const auto file = w.view();
    w.patch_u64(payload_checksum_off,
                store::fnv1a(file.subspan(store::kManifestHeaderBytes)));
    w.patch_u64(header_checksum_off,
                store::fnv1a(file.first(header_checksum_off)));

    // Publish: only now, with every shard built and the manifest bytes
    // assembled, do the staged files rename onto their final names. Up
    // to this point nothing under the live names has been touched, so
    // any build failure leaves a prior generation fully intact.
    for (unsigned k = 0; k < num_shards; ++k) {
      if (produced[k] != ShardFile::kStaged) continue;
      const std::string final_name = dir + records[k].name;
      struct stat st{};
      replaced[k] = ::stat(final_name.c_str(), &st) == 0;
      const std::string stage = final_name + stage_suffix;
      int rc;
      if (const int fe = FTC_FAILPOINT("store.shard.publish")) {
        errno = fe;
        rc = -1;
      } else {
        rc = ::rename(stage.c_str(), final_name.c_str());
      }
      if (rc != 0) {
        throw StoreIoError("cannot publish shard file: " + final_name + " (" +
                           std::strerror(errno) + ")");
      }
      produced[k] = ShardFile::kPublished;
    }
    store::write_file_atomic(manifest_path, w.view());
    stats.manifest_bytes = w.size();
  } catch (...) {
    // Failure hygiene: an aborted save must not litter the directory
    // with stage files or shard files no manifest names (or, worse,
    // that a LATER save under the same path would have to overwrite).
    // Only files this call created are unlinked — an in-place-reused
    // parent shard is the parent's, and a published slot that replaced
    // a prior generation's file stays (removing it would turn that
    // generation's detectable digest mismatch into a missing shard).
    for (unsigned k = 0; k < num_shards; ++k) {
      if (produced[k] == ShardFile::kStaged) {
        ::unlink((dir + records[k].name + stage_suffix).c_str());
      } else if (produced[k] == ShardFile::kPublished && !replaced[k]) {
        ::unlink((dir + records[k].name).c_str());
      }
    }
    throw;
  }

  // The manifest is live; now drop stale higher-numbered shard files
  // left by an earlier save with a larger K under this path — they
  // belong to no manifest and would otherwise shadow future saves.
  // Best-effort: stop at the first gap (ENOENT) or error.
  for (std::uint64_t k = num_shards; k < store::kMaxShards; ++k) {
    const std::string stale =
        dir + base + ".shard" + std::to_string(k) + ".ftcs";
    if (::unlink(stale.c_str()) != 0) break;
  }

  stats.shards_reused = shards_reused.load(std::memory_order_relaxed);
  stats.shards_written = stats.shards_total - stats.shards_reused;
  stats.bytes_written = bytes_written.load(std::memory_order_relaxed);
  stats.bytes_reused = bytes_reused.load(std::memory_order_relaxed);
  stats.shards_link_fallback = link_fallbacks.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace

// ------------------------------------------------------------------
// Writer.

void save_sharded(const ConnectivityScheme& scheme,
                  const std::string& manifest_path, unsigned num_shards) {
  save_sharded_impl(scheme, manifest_path, num_shards, nullptr);
}

DeltaPushStats save_sharded_delta(const ConnectivityScheme& scheme,
                                  const std::string& manifest_path,
                                  const std::string& parent_manifest_path,
                                  unsigned num_shards) {
  // Snapshot the parent BEFORE producing any child byte: records (the
  // content addresses), its payload checksum (the child's parent
  // digest), and its epoch.
  const auto parent_view = ManifestReader::read(parent_manifest_path);
  ParentManifest parent;
  parent.dir = split_path(parent_manifest_path).first;
  const auto precs = parent_view->shards();
  parent.records.assign(precs.begin(), precs.end());
  parent.manifest_digest = parent_view->info().payload_checksum;
  parent.epoch = parent_view->info().manifest_epoch;
  if (num_shards == 0) num_shards = parent_view->info().num_shards;
  return save_sharded_impl(scheme, manifest_path, num_shards, &parent);
}

// ------------------------------------------------------------------
// Reader.

ShardedStoreView::~ShardedStoreView() {
  store::unmap_file({map_, map_bytes_});
}

std::shared_ptr<const ShardedStoreView> ShardedStoreView::open(
    const std::string& path, bool verify_checksum,
    const std::shared_ptr<const ShardedStoreView>& reuse_from) {
  std::shared_ptr<ShardedStoreView> view(new ShardedStoreView());
  open_impl(view, path, verify_checksum, reuse_from, /*degraded=*/false,
            /*stat_shards=*/true);
  return view;
}

std::shared_ptr<const ShardedStoreView> ShardedStoreView::open_degraded(
    const std::string& path, bool verify_checksum) {
  std::shared_ptr<ShardedStoreView> view(new ShardedStoreView());
  open_impl(view, path, verify_checksum, nullptr, /*degraded=*/true,
            /*stat_shards=*/true);
  return view;
}

void ShardedStoreView::open_impl(
    const std::shared_ptr<ShardedStoreView>& view, const std::string& path,
    bool verify_checksum,
    const std::shared_ptr<const ShardedStoreView>& reuse_from, bool degraded,
    bool stat_shards) {
  read_manifest(view, path, verify_checksum, degraded, stat_shards);
  if (reuse_from != nullptr) view->adopt_shards(*reuse_from);
  view->open_shards(degraded);
  view->resolve_routes();
}

void ShardedStoreView::read_manifest(
    const std::shared_ptr<ShardedStoreView>& view, const std::string& path,
    bool verify_checksum, bool degraded, bool stat_shards) {
  const store::MappedFile mapped = store::map_readonly(
      path, store::kManifestHeaderBytesV1, "store manifest");
  const std::size_t size = mapped.size;

  view->map_ = mapped.data;
  view->map_bytes_ = size;
  view->path_ = path;
  view->dir_ = split_path(path).first;
  view->verify_checksum_ = verify_checksum;

  const std::span<const std::uint8_t> bytes(view->map_, size);
  // Parse the header from a stack copy made under a SIGBUS guard: a
  // manifest truncated or replaced behind the mapping surfaces as a
  // typed StoreIoError instead of a crash, and every later header field
  // read is fault-free by construction.
  std::uint8_t header_copy[store::kManifestHeaderBytes];
  const std::size_t header_copy_bytes =
      std::min<std::size_t>(size, store::kManifestHeaderBytes);
  store::with_sigbus_guard(path, "store manifest header", [&] {
    std::memcpy(header_copy, view->map_, header_copy_bytes);
  });
  const std::span<const std::uint8_t> header_span(header_copy,
                                                  header_copy_bytes);
  store::ByteReader h(header_span);
  if (h.u64() != store::kManifestMagic) {
    throw StoreError("bad magic (not a store manifest): " + path);
  }
  StoreInfo& info = view->info_;
  // The header size depends on the version, so the version gates the
  // rest of the parse (an unsupported-version error wins over a
  // checksum-mismatch one for corrupt version bytes — both typed).
  const std::uint32_t manifest_version = h.u32();
  if (manifest_version < store::kMinManifestFormatVersion ||
      manifest_version > store::kManifestFormatVersion) {
    throw StoreError("unsupported manifest format version " +
                     std::to_string(manifest_version) + ": " + path);
  }
  const std::size_t header_bytes = manifest_version == 1
                                       ? store::kManifestHeaderBytesV1
                                       : store::kManifestHeaderBytes;
  if (size < header_bytes) {
    throw StoreError("store manifest truncated (header): " + path);
  }
  const std::uint8_t backend_byte = h.u8();
  const std::uint8_t flags = h.u8();
  h.u8();
  h.u8();
  const std::uint64_t n64 = h.u64();
  const std::uint64_t m64 = h.u64();
  const std::uint64_t num_shards = h.u64();
  const std::uint64_t params_size = h.u64();
  const std::uint64_t params_hash = h.u64();
  const std::uint64_t adj_size = h.u64();
  if (manifest_version >= 2) {
    // v2 lineage fields; v1 manifests predate delta pushes and read as
    // the root of their own chain.
    info.manifest_epoch = h.u64();
    info.parent_digest = h.u64();
  } else {
    info.manifest_epoch = 1;
    info.parent_digest = 0;
  }
  info.payload_checksum = h.u64();
  const std::size_t header_checksum_off = h.pos();
  const std::uint64_t header_checksum = h.u64();
  FTC_CHECK(h.pos() == header_bytes, "manifest header layout drifted");
  if (store::fnv1a(header_span.first(header_checksum_off)) !=
      header_checksum) {
    throw StoreError("corrupt manifest header (checksum mismatch): " + path);
  }
  if (info.manifest_epoch == 0) {
    throw StoreError("corrupt manifest (epoch zero): " + path);
  }
  if ((flags & ~store::kFlagHasAdjacency) != 0) {
    throw StoreError("unknown header flags in store manifest: " + path);
  }
  info.has_adjacency = (flags & store::kFlagHasAdjacency) != 0;
  if (info.has_adjacency != (adj_size != 0)) {
    throw StoreError("corrupt manifest (adjacency flag/size disagree): " +
                     path);
  }
  if (backend_byte > static_cast<std::uint8_t>(BackendKind::kDp21Agm)) {
    throw StoreError("unknown backend kind in store manifest: " + path);
  }
  info.backend = static_cast<BackendKind>(backend_byte);
  if (n64 >= graph::kNoVertex || m64 >= graph::kNoEdge) {
    throw StoreError("store manifest dimensions out of range: " + path);
  }
  info.num_vertices = static_cast<VertexId>(n64);
  info.num_edges = static_cast<EdgeId>(m64);
  if (num_shards < 1 || num_shards > store::kMaxShards) {
    throw StoreError("store manifest shard count out of range: " + path);
  }
  info.num_shards = static_cast<std::uint32_t>(num_shards);

  // The manifest reader never trusts the recorded section sizes: every
  // section bound is checked against the mapped size before any read.
  if (verify_checksum) {
    std::uint64_t payload_fnv = 0;
    store::with_sigbus_guard(path, "store manifest payload", [&] {
      payload_fnv = store::fnv1a(bytes.subspan(header_bytes));
    });
    if (payload_fnv != info.payload_checksum) {
      throw StoreError("payload checksum mismatch (corrupt manifest): " +
                       path);
    }
  }
  if (params_size > size - header_bytes) {
    throw StoreError("store manifest truncated (params exceed file): " + path);
  }
  view->params_off_ = header_bytes;
  info.params_bytes = static_cast<std::size_t>(params_size);
  std::uint64_t params_fnv = 0;
  store::with_sigbus_guard(path, "store manifest params", [&] {
    params_fnv = store::fnv1a(view->params_blob());
  });
  if (params_fnv != params_hash) {
    throw StoreError("corrupt manifest (params blob hash mismatch): " + path);
  }

  const std::size_t table_off = align8(view->params_off_ + info.params_bytes);
  if (table_off > size) {
    throw StoreError("store manifest truncated (shard table): " + path);
  }
  info.adjacency_bytes = static_cast<std::size_t>(adj_size);
  if (info.adjacency_bytes > size - table_off) {
    throw StoreError("store manifest truncated (adjacency section): " + path);
  }
  const std::size_t adj_off = size - info.adjacency_bytes;
  if (info.has_adjacency && adj_off % 8 != 0) {
    throw StoreError("corrupt manifest (adjacency misaligned): " + path);
  }

  // Shard table: K records that must tile [0, n) and [0, m) exactly —
  // contiguous, in order, no overlap, no gap — and consume the whole
  // region between params and adjacency.
  store::ByteReader table(bytes.subspan(table_off, adj_off - table_off));
  view->records_.reserve(info.num_shards);
  std::uint64_t v_cursor = 0;
  std::uint64_t e_cursor = 0;
  store::with_sigbus_guard(path, "store manifest shard table", [&] {
    for (std::uint32_t k = 0; k < info.num_shards; ++k) {
      store::ShardRecord rec;
      try {
        rec = store::decode_shard_record(table);
      } catch (const StoreError& e) {
        throw StoreError(std::string(e.what()) + ": " + path);
      }
      if (rec.vertex_begin != v_cursor || rec.vertex_end < rec.vertex_begin ||
          rec.edge_begin != e_cursor || rec.edge_end < rec.edge_begin) {
        throw StoreError(
            "corrupt manifest (shard ranges overlap or leave a gap): " + path);
      }
      v_cursor = rec.vertex_end;
      e_cursor = rec.edge_end;
      validate_shard_name(rec.name, path);
      view->records_.push_back(std::move(rec));
    }
  });
  if (v_cursor != n64 || e_cursor != m64) {
    throw StoreError("corrupt manifest (shard ranges do not cover the "
                     "store): " + path);
  }
  if (table.remaining() != 0) {
    throw StoreError("corrupt manifest (trailing bytes after shard table): " +
                     path);
  }

  if (info.has_adjacency) {
    view->adj_ = store::CsrAdjacency{view->map_, adj_off, info.adjacency_bytes,
                                     info.num_vertices, info.num_edges};
    store::with_sigbus_guard(path, "store manifest adjacency", [&] {
      view->adj_.validate(path);
    });
  }

  // Params must decode for this backend (also yields the per-edge blob
  // width for the aggregate accounting below). Format v2 semantics: the
  // manifest writer and the shard containers share the v2 params codec.
  info.format_version = static_cast<std::uint32_t>(store::kFormatVersion);
  std::size_t blob_bytes = 0;
  store::StoreLabelBits bits;
  store::with_sigbus_guard(path, "store manifest params", [&] {
    blob_bytes = store::expected_edge_blob_bytes(
        info.backend, view->params_blob(), info.format_version);
    bits = store::derive_label_bits(info.backend, view->params_blob(),
                                    info.format_version);
  });
  info.vertex_label_bits = bits.vertex_label_bits;
  info.edge_label_bits = bits.edge_label_bits;
  view->routes_.edge_blob_bytes = blob_bytes;

  // Every shard file must already exist with exactly the recorded size
  // (open_shards() maps and fully validates them). open_degraded() turns
  // a failed stat into a quarantine (applied below, once the quarantine
  // arrays exist) so the healthy ranges still come up. A remote open
  // (stat_shards == false) skips the check — the shards have no local
  // file until fetched; the manifest's recorded sizes stand in for the
  // stat, and the digest verification at fetch time is strictly
  // stronger than an existence probe.
  info.file_bytes = size;
  std::vector<std::pair<std::size_t, std::string>> dead_shards;
  for (std::size_t k = 0; k < view->records_.size(); ++k) {
    const store::ShardRecord& rec = view->records_[k];
    if (!stat_shards) {
      info.file_bytes += static_cast<std::size_t>(rec.file_bytes);
      continue;
    }
    struct stat shard_st{};
    const std::string shard_path = view->dir_ + rec.name;
    std::string why;
    if (::stat(shard_path.c_str(), &shard_st) != 0) {
      why = "missing shard file: " + shard_path + " (" +
            std::strerror(errno) + ")";
    } else if (!S_ISREG(shard_st.st_mode) ||
               static_cast<std::uint64_t>(shard_st.st_size) !=
                   rec.file_bytes) {
      why = "shard file size disagrees with manifest: " + shard_path;
    }
    if (why.empty()) {
      info.file_bytes += static_cast<std::size_t>(rec.file_bytes);
      continue;
    }
    if (!degraded) throw StoreError(why);
    dead_shards.emplace_back(k, std::move(why));
  }

  // Aggregate section accounting (nominal; shards carry the real
  // sections): n fixed vertex records, K per-shard offset indices, and
  // m fixed-width edge blobs.
  info.vertex_section_bytes =
      static_cast<std::size_t>(info.num_vertices) * store::kVertexRecordBytes;
  info.edge_index_bytes =
      (static_cast<std::size_t>(info.num_edges) + info.num_shards) * 8;
  info.edge_blob_bytes = static_cast<std::size_t>(info.num_edges) * blob_bytes;

  view->shard_views_.resize(info.num_shards);
  view->quarantined_ = std::make_unique<std::atomic<bool>[]>(info.num_shards);
  view->quarantine_reasons_.resize(info.num_shards);
  for (std::uint32_t k = 0; k < info.num_shards; ++k) {
    view->quarantined_[k].store(false, std::memory_order_relaxed);
  }
  for (const auto& [k, why] : dead_shards) view->quarantine_shard(k, why);
}

void ShardedStoreView::adopt_shards(const ShardedStoreView& parent) {
  // A parent shard is adoptable when its manifest record matches ours in
  // content address (payload digest + exact size — byte-identical files)
  // and ID extents, the backends agree, the params blobs are
  // byte-identical (the new manifest's per-shard params cross-check is
  // subsumed), and the parent's shard is mapped and not quarantined.
  // Adopted slots share the parent's LabelStoreView — its mmap stays
  // alive through the shared_ptr even after the parent view is retired.
  if (parent.info_.backend != info_.backend) return;
  const auto pp = parent.params_blob();
  const auto np = params_blob();
  if (pp.size() != np.size() || !std::equal(pp.begin(), pp.end(), np.begin())) {
    return;
  }
  for (std::size_t k = 0; k < records_.size(); ++k) {
    const store::ShardRecord& rec = records_[k];
    for (std::size_t j = 0; j < parent.records_.size(); ++j) {
      const store::ShardRecord& prec = parent.records_[j];
      if (prec.payload_digest != rec.payload_digest ||
          prec.file_bytes != rec.file_bytes ||
          prec.vertex_end - prec.vertex_begin !=
              rec.vertex_end - rec.vertex_begin ||
          prec.edge_end - prec.edge_begin != rec.edge_end - rec.edge_begin) {
        continue;
      }
      if (parent.shard_views_[j] == nullptr ||
          parent.quarantined_[j].load(std::memory_order_acquire)) {
        continue;
      }
      shard_views_[k] = parent.shard_views_[j];
      ++adopted_count_;
      break;
    }
  }
}

std::shared_ptr<const LabelStoreView> ShardedStoreView::map_shard(
    std::size_t k) const {
  return LabelStoreView::open(dir_ + records_[k].name, verify_checksum_);
}

std::string ShardedStoreView::shard_display_name(std::size_t k) const {
  return dir_ + records_[k].name;
}

std::shared_ptr<const LabelStoreView> ShardedStoreView::open_shard_once(
    std::size_t k) const {
  const store::ShardRecord& rec = records_[k];
  // The transport seam: the base class maps the file next to the
  // manifest; a remote view fetches through the cache here (and may
  // throw the transport's StoreIoError, retried by open_shard).
  auto v = map_shard(k);
  const std::string& shard_path = v->path();
  const StoreInfo& si = v->info();
  if (si.backend != info_.backend ||
      si.num_vertices != rec.vertex_end - rec.vertex_begin ||
      si.num_edges != rec.edge_end - rec.edge_begin) {
    throw StoreError("shard disagrees with manifest (backend or "
                     "dimensions): " + shard_path);
  }
  if (si.file_bytes != rec.file_bytes ||
      si.payload_checksum != rec.payload_digest) {
    throw StoreError("shard digest mismatch (stale or swapped shard): " +
                     shard_path);
  }
  const auto sp = v->params_blob();
  const auto mp = params_blob();
  if (sp.size() != mp.size() ||
      !std::equal(sp.begin(), sp.end(), mp.begin())) {
    throw StoreError("shard params blob differs from manifest: " +
                     shard_path);
  }
  return v;
}

std::shared_ptr<const LabelStoreView> ShardedStoreView::open_shard(
    std::size_t k) const {
  // Transient (StoreIoError) failures retry under the process-wide
  // policy; structural failures never do (re-reading corrupt bytes
  // cannot help). Either way, an exhausted shard is quarantined so the
  // next query over its range degrades instantly instead of re-paying
  // the open + backoff.
  unsigned attempts = 0;
  try {
    std::shared_ptr<const LabelStoreView> view;
    detail::retry_transient([&] { view = open_shard_once(k); }, &attempts);
    return view;
  } catch (const StoreIoError& e) {
    quarantine_shard(k, std::string(e.what()) + " (after " +
                            std::to_string(attempts) + " attempts)");
  } catch (const StoreError& e) {
    quarantine_shard(k, e.what());
  }
  throw_degraded(k);
}

void ShardedStoreView::quarantine_shard(std::size_t k,
                                        const std::string& reason) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (quarantined_[k].load(std::memory_order_relaxed)) return;  // first wins
  quarantine_reasons_[k] = reason;
  quarantined_[k].store(true, std::memory_order_release);
}

void ShardedStoreView::throw_degraded(std::size_t k) const {
  const store::ShardRecord& rec = records_[k];
  std::string reason;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    reason = quarantine_reasons_[k];
  }
  throw DegradedError(
      "shard " + std::to_string(k) + " quarantined (vertices [" +
          std::to_string(rec.vertex_begin) + ", " +
          std::to_string(rec.vertex_end) + "), edges [" +
          std::to_string(rec.edge_begin) + ", " +
          std::to_string(rec.edge_end) + ") unservable): " + reason,
      k, rec.vertex_begin, rec.vertex_end, rec.edge_begin, rec.edge_end);
}

std::size_t ShardedStoreView::shards_quarantined() const {
  std::size_t count = 0;
  for (std::size_t k = 0; k < records_.size(); ++k) {
    if (quarantined_[k].load(std::memory_order_acquire)) ++count;
  }
  return count;
}

std::vector<QuarantineRecord> ShardedStoreView::quarantine_report() const {
  std::vector<QuarantineRecord> out;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < records_.size(); ++k) {
    if (!quarantined_[k].load(std::memory_order_relaxed)) continue;
    const store::ShardRecord& rec = records_[k];
    out.push_back(QuarantineRecord{k, rec.vertex_begin, rec.vertex_end,
                                   rec.edge_begin, rec.edge_end,
                                   quarantine_reasons_[k]});
  }
  return out;
}

void ShardedStoreView::verify_shard(std::size_t k) const {
  FTC_REQUIRE(k < records_.size(), "shard index out of range");
  (void)open_shard_once(k);  // probe mapping discarded; never published
}

void ShardedStoreView::on_mapped_fault(const void* addr) const {
  // Attribute the fault to the shard whose live mapping covers it
  // (shard_views_ is immutable after open, so no lock).
  for (std::size_t k = 0; k < shard_views_.size(); ++k) {
    if (shard_views_[k] != nullptr && shard_views_[k]->contains(addr)) {
      quarantine_shard(k, "mapped read faulted (file truncated or replaced "
                          "behind the mapping): " + shard_display_name(k));
      throw_degraded(k);
    }
  }
  throw StoreIoError(
      "mapped read faulted (file truncated or replaced behind the "
      "mapping): " + path_);
}

void ShardedStoreView::on_unrouted(std::uint64_t id, bool edge) const {
  // Error path only: find the shard whose range holds id.
  for (std::size_t k = 0; k < records_.size(); ++k) {
    if (id < (edge ? records_[k].edge_end : records_[k].vertex_end)) {
      throw_degraded(k);
    }
  }
  StoreView::on_unrouted(id, edge);
}

void ShardedStoreView::require_complete() const {
  for (std::size_t k = 0; k < shard_views_.size(); ++k) {
    if (shard_views_[k] == nullptr) throw_degraded(k);
  }
}

void ShardedStoreView::resolve_routes() {
  // Every shard container built its own flat table at open, so the
  // global one is a splice — per-ID pointers are absolute, only the
  // array positions shift by the manifest ranges. A quarantined shard
  // contributes null entries over its ranges.
  routes_.num_vertices = info_.num_vertices;
  routes_.num_edges = info_.num_edges;
  routes_.vertex_ptr.reserve(info_.num_vertices);
  routes_.edge_ptr.reserve(info_.num_edges);
  for (std::size_t k = 0; k < records_.size(); ++k) {
    const store::ShardRecord& rec = records_[k];
    if (shard_views_[k] == nullptr) {
      routes_.vertex_ptr.resize(rec.vertex_end, nullptr);
      routes_.edge_ptr.resize(rec.edge_end, nullptr);
      continue;
    }
    const store::FlatRoutes& sub = shard_views_[k]->routes();
    routes_.vertex_ptr.insert(routes_.vertex_ptr.end(),
                              sub.vertex_ptr.begin(), sub.vertex_ptr.end());
    routes_.edge_ptr.insert(routes_.edge_ptr.end(), sub.edge_ptr.begin(),
                            sub.edge_ptr.end());
  }
  FTC_CHECK(routes_.vertex_ptr.size() == info_.num_vertices &&
                routes_.edge_ptr.size() == info_.num_edges,
            "spliced route table does not tile the store");
}

void ShardedStoreView::open_shards(bool degraded) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t num_shards = records_.size();
  store::PrefetchStats& stats = open_stats_;
  stats.shard_us.assign(num_shards, 0.0);
  stats.shards_adopted = adopted_count_;

  // Work-stealing over shard indices on a util::WorkerPool (the pool the
  // builders and save_sharded run on): every worker pulls the next
  // unclaimed shard and maps + verifies it into its own slot. The view
  // is not shared yet, so slots need no lock.
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto worker = [&](unsigned /*id*/) {
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= num_shards) return;
      if (shard_views_[k] != nullptr ||
          quarantined_[k].load(std::memory_order_relaxed)) {
        continue;  // adopted, or quarantined by open_degraded's stat
      }
      try {
        const auto s0 = std::chrono::steady_clock::now();
        shard_views_[k] = open_shard(k);
        stats.shard_us[k] = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - s0)
                                .count();
      } catch (...) {
        // open_shard quarantined k (unless something untyped escaped).
        // Keep draining so a degraded open still maps every healthy
        // shard; a strict one rethrows below.
        if (degraded && quarantined_[k].load(std::memory_order_relaxed)) {
          continue;
        }
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };

  const auto threads = static_cast<unsigned>(std::min<std::size_t>(
      util::WorkerPool::resolve_threads(/*requested=*/0),
      std::max<std::size_t>(num_shards - adopted_count_, 1)));
  stats.threads = threads;
  util::WorkerPool pool;
  pool.run(threads, worker);
  if (error) std::rethrow_exception(error);

  stats.shards_opened = shards_open() - adopted_count_;
  stats.total_us = std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
}

std::span<const std::uint8_t> ShardedStoreView::params_blob() const {
  return {map_ + params_off_, info_.params_bytes};
}

std::size_t ShardedStoreView::adjacency_degree(VertexId v) const {
  return adj_.degree(v);
}

void ShardedStoreView::adjacency_append(VertexId v,
                                        std::vector<EdgeId>& out) const {
  adj_.append(v, out);
}

std::size_t ShardedStoreView::shards_open() const {
  return static_cast<std::size_t>(
      std::count_if(shard_views_.begin(), shard_views_.end(),
                    [](const auto& v) { return v != nullptr; }));
}

// ------------------------------------------------------------------
// Magic dispatch.

std::shared_ptr<const StoreView> open_store_view(
    const std::string& path, bool verify_checksum,
    const std::shared_ptr<const StoreView>& reuse_from) {
  // URL dispatch comes before the sniff: a URL is not a local file, and
  // every caller (load_scheme, swap_store, the CLI) reaches the remote
  // tier through this one branch.
  if (is_http_url(path)) {
    return RemoteStoreView::open(
        path, verify_checksum,
        std::dynamic_pointer_cast<const ShardedStoreView>(reuse_from));
  }
  util::ScopedFd fd;
  if (const int fe = FTC_FAILPOINT("store.sniff.open")) {
    errno = fe;
  } else {
    fd.reset(::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  }
  if (!fd) {
    throw StoreIoError("cannot open label store: " + path + " (" +
                       std::strerror(errno) + ")");
  }
  std::uint8_t buf[8];
  bool read_ok;
  if (const int fe = FTC_FAILPOINT("store.sniff.read")) {
    errno = fe;
    read_ok = false;
  } else {
    read_ok = util::read_full(fd.get(), buf, sizeof(buf));
  }
  if (!read_ok) {
    if (errno != 0) {
      throw StoreIoError("cannot read label store magic: " + path + " (" +
                         std::strerror(errno) + ")");
    }
    throw StoreError("label store truncated (no magic): " + path);
  }
  std::uint64_t magic = 0;
  for (int i = 0; i < 8; ++i) magic |= std::uint64_t{buf[i]} << (8 * i);
  if (magic == store::kMagic) {
    return LabelStoreView::open(path, verify_checksum);
  }
  if (magic == store::kManifestMagic) {
    // Adoption only has meaning sharded-to-sharded; any other pairing
    // quietly degrades to a plain open.
    return ShardedStoreView::open(
        path, verify_checksum,
        std::dynamic_pointer_cast<const ShardedStoreView>(reuse_from));
  }
  throw StoreError("bad magic (neither a label store nor a manifest): " +
                   path);
}

std::shared_ptr<const StoreView> open_store_view(const std::string& path,
                                                 bool verify_checksum) {
  return open_store_view(path, verify_checksum, nullptr);
}

}  // namespace ftc::core
