// LabelStore: a durable, versioned on-disk container for a whole
// labeling scheme, and the zero-copy read path that serves queries
// straight from the file.
//
// The labeling-scheme model (Section 1.1) makes labels *artifacts*: they
// are computed once from the graph, after which every query is answered
// from the labels alone. This subsystem takes that seriously as a
// deployment story — labels are built offline, written as one
// self-describing binary file, and served by mmap without ever
// materializing per-label std::vector copies on the query path (only the
// <= f fault-edge labels of a session are decoded, once per fault set).
//
// Container format, version 2 (all integers little-endian):
//
//   header (64 bytes)
//     0   u64  magic "FTCSTORE"
//     8   u32  format version (2)
//     12  u8   BackendKind
//     13  u8   flags (bit 0: adjacency section present), u8[2] reserved
//     16  u64  num_vertices
//     24  u64  num_edges
//     32  u64  params blob size in bytes
//     40  u64  payload checksum: FNV-1a over bytes [64, file end)
//     48  u64  adjacency section size in bytes (0 when absent)
//     56  u64  header checksum: FNV-1a over bytes [0, 56)
//   params blob          backend-specific scheme parameters; for the core
//                        backend v2 appends per-level sketch population
//                        bounds (u32 count + count u32 values) so served
//                        schemes shrink their decode windows like the
//                        in-memory builder does
//   (pad to 8)
//   vertex section       num_vertices fixed 8-byte records (tin, tout)
//   (pad to 8)
//   edge offset index    (num_edges + 1) u64, byte offsets into the blob
//                        section; blob e spans [index[e], index[e+1])
//   edge blob section    concatenated per-edge label blobs
//   (pad to 8)
//   adjacency section    optional incidence side-table in CSR layout:
//                        (num_vertices + 1) u64 entry offsets, then the
//                        concatenated incidence lists as u32 edge IDs
//                        (2 * num_edges entries total). Carrying it is
//                        what lets store-served schemes answer vertex-
//                        and mixed-fault queries (the vertex -> incident-
//                        edges reduction needs incidence).
//
// Version 1 files (no flags byte semantics, no adjacency, core params
// without bounds) still load read-compatibly: edge-fault queries behave
// exactly as they always did, and vertex-fault queries raise the typed
// CapabilityError because the container carries no adjacency.
//
// Versioning policy: the format version is bumped on any layout change;
// readers accept versions [1, 2] and reject anything else (no silent
// best-effort parsing). Every structural property — magic, both
// checksums, section bounds, index monotonicity, blob sizes implied by
// the params, adjacency offset monotonicity and edge-ID ranges — is
// validated at open, and every read is bounds-checked, so corrupt or
// adversarial files throw StoreError and never invoke UB.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "util/digest.hpp"
#include "util/sigbus_guard.hpp"

namespace ftc::core {

// Typed error for every container failure mode: I/O errors, truncated
// files, bad magic, unsupported versions, checksum mismatches, malformed
// indices. Distinct from std::invalid_argument (API misuse) so servers
// can map "bad artifact" separately from "bad request".
class StoreError : public std::runtime_error {
 public:
  explicit StoreError(const std::string& what) : std::runtime_error(what) {}
};

// Environmental I/O failure: a syscall failing on the open/map/write
// path (including injected failpoint errnos) or a SIGBUS translated
// from a mapping whose backing file was truncated or replaced. Distinct
// from structural StoreError (bad magic, checksum mismatch, malformed
// index — re-reading won't help) because the sharded view's retry
// layer treats only THIS subclass as transient and retryable.
class StoreIoError : public StoreError {
 public:
  explicit StoreIoError(const std::string& what) : StoreError(what) {}
};

namespace store {

// Written format version; readers accept [kMinFormatVersion, kFormatVersion].
inline constexpr std::uint64_t kFormatVersion = 2;
inline constexpr std::uint64_t kMinFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 64;
// "FTCSTORE" read as a little-endian u64.
inline constexpr std::uint64_t kMagic = 0x45524F5453435446ULL;
// Header flags byte (offset 13).
inline constexpr std::uint8_t kFlagHasAdjacency = 0x01;

// FNV-1a over a byte range (seedable so checksums can be streamed).
// The implementation lives in util/digest.hpp — one digest shared by
// containers, manifests, journals and the remote shard cache.
using util::fnv1a;
using util::kFnvBasis;

// Little-endian byte sink used by the container writer and the
// per-backend label blob encoders.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xff);
  }
  void bytes(std::span<const std::uint8_t> b) {
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }
  void pad_to(std::size_t alignment) {
    while (bytes_.size() % alignment != 0) bytes_.push_back(0);
  }
  // Overwrite a previously written u64 (header checksum back-patching).
  void patch_u64(std::size_t offset, std::uint64_t v) {
    FTC_CHECK(offset + 8 <= bytes_.size(), "patch out of range");
    for (int i = 0; i < 8; ++i) bytes_[offset + i] = (v >> (8 * i)) & 0xff;
  }

  std::size_t size() const { return bytes_.size(); }
  std::span<const std::uint8_t> view() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked little-endian reader over a mapped (or in-memory) byte
// range. Out-of-range reads throw StoreError — this is the only way the
// decoders touch file bytes, so truncation can never read past the map.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const auto b = take(4);
    std::uint32_t v = 0;
    // Explicit little-endian assembly, mirroring ByteWriter: the
    // container format is LE regardless of host byte order.
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{b[i]} << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    const auto b = take(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[i]} << (8 * i);
    return v;
  }
  std::span<const std::uint8_t> take(std::size_t n) {
    if (n > bytes_.size() - pos_) {
      throw StoreError("label store blob truncated");
    }
    const auto out = bytes_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Per-backend blob codecs (implemented next to the per-label bit codec
// in serialize.cpp). Each backend has a params blob stored once per
// container plus fixed-size vertex/edge blobs; decode validates against
// the params and throws StoreError on any inconsistency.

struct CycleParams {
  std::uint32_t coord_bits = 0;
  std::uint32_t vector_bits = 0;
  std::size_t vector_words() const { return (vector_bits + 63) / 64; }
};

struct AgmParams {
  std::uint32_t coord_bits = 0;
  std::uint32_t levels = 0;
  std::uint32_t reps = 0;
  std::uint64_t seed = 0;
  std::size_t sketch_words() const {
    return static_cast<std::size_t>(levels) * reps * 3;
  }
};

// Core params carry the optional per-level sketch population bounds in
// format v2 (u32 count — 0 or num_levels — then the values); v1 blobs
// have no bounds fields at all, so decode needs the container version.
// bounds_out may be null when the caller only needs the fixed params.
void encode_core_params(const LabelParams& p,
                        std::span<const std::uint32_t> level_bounds,
                        ByteWriter& w);
LabelParams decode_core_params(ByteReader& r, std::uint32_t format_version,
                               std::vector<std::uint32_t>* bounds_out = nullptr);
void encode_cycle_params(const CycleParams& p, ByteWriter& w);
CycleParams decode_cycle_params(ByteReader& r);
void encode_agm_params(const AgmParams& p, ByteWriter& w);
AgmParams decode_agm_params(ByteReader& r);

// Vertex records are the same for all backends: one ancestry label.
inline constexpr std::size_t kVertexRecordBytes = 8;
void encode_vertex_record(const graph::AncestryLabel& anc, ByteWriter& w);
graph::AncestryLabel decode_vertex_record(ByteReader& r);
// Zero-copy decode of one fixed 8-byte vertex record (LE tin, tout)
// straight from a resolved route pointer — the per-query hot path.
inline graph::AncestryLabel decode_vertex_record_at(const std::uint8_t* p) {
  graph::AncestryLabel anc;
  for (int i = 0; i < 4; ++i) anc.tin |= std::uint32_t{p[i]} << (8 * i);
  for (int i = 0; i < 4; ++i) anc.tout |= std::uint32_t{p[4 + i]} << (8 * i);
  return anc;
}

void encode_core_edge(const EdgeLabel& label, ByteWriter& w);
EdgeLabel decode_core_edge(ByteReader& r, const LabelParams& params);
void encode_cycle_edge(const dp21::CsEdgeLabel& label, ByteWriter& w);
dp21::CsEdgeLabel decode_cycle_edge(ByteReader& r, const CycleParams& params);
void encode_agm_edge(const dp21::AgmEdgeLabel& label, ByteWriter& w);
dp21::AgmEdgeLabel decode_agm_edge(ByteReader& r, const AgmParams& params);

// Fixed per-edge blob size implied by a backend's params (every edge
// label of one scheme serializes to the same number of bytes).
std::size_t core_edge_blob_bytes(const LabelParams& params);
std::size_t cycle_edge_blob_bytes(const CycleParams& params);
std::size_t agm_edge_blob_bytes(const AgmParams& params);

// Decodes the params blob just far enough to answer "how many bytes is
// one edge blob" / "how many bits is one label" for any backend; both
// throw StoreError when the blob is inconsistent with the backend. Used
// by the container reader to cross-check the offset index and by the
// sharded-manifest reader (sharded_store.hpp), which carries the params
// blob itself.
std::size_t expected_edge_blob_bytes(BackendKind backend,
                                     std::span<const std::uint8_t> params,
                                     std::uint32_t version);
struct StoreLabelBits {
  std::size_t vertex_label_bits = 0;
  std::size_t edge_label_bits = 0;
};
StoreLabelBits derive_label_bits(BackendKind backend,
                                 std::span<const std::uint8_t> params,
                                 std::uint32_t version);

// Flat route table: one pointer per vertex record and per edge blob,
// straight into the (already open and validated) mapping(s). Every view
// resolves it once, at open — for a sharded store after every shard is
// mapped — so a label read is a single array deref at flat-container
// speed whatever the shard count. Pointers stay valid for the lifetime
// of the StoreView that built the table. A null entry marks a shard
// open_degraded() quarantined (sharded_store.hpp). Cost is 16 bytes per
// ID; a page-granular variant (shard+offset per fixed-size ID page) is
// the follow-on if that ever dominates label bytes.
struct FlatRoutes {
  graph::VertexId num_vertices = 0;
  graph::EdgeId num_edges = 0;
  std::size_t edge_blob_bytes = 0;  // fixed width implied by the params
  std::vector<const std::uint8_t*> vertex_ptr;  // [n] 8-byte records
  std::vector<const std::uint8_t*> edge_ptr;    // [m] label blobs
};

// What the eager shard open of a sharded view did: thread fan-out, wall
// time, and the per-shard map+digest cost (all empty for a
// single-container view, which has no shards).
struct PrefetchStats {
  unsigned threads = 1;
  double total_us = 0.0;
  std::size_t shards_opened = 0;  // mapped and verified by the open
  // Shards the view ADOPTED from a previous-generation view instead of
  // mapping — byte-identical shards of a delta push (open_store_view's
  // reuse_from parameter). Such shards never count in shards_opened.
  std::size_t shards_adopted = 0;
  std::vector<double> shard_us;  // per shard, manifest order; 0 if adopted
};

// The CSR adjacency side-table layout shared by container v2 and the
// sharded-store manifest: (n + 1) u64 entry offsets followed by 2m u32
// edge IDs. validate() enforces the full structural contract (exact
// size, offsets monotone and covering exactly 2m entries, every edge ID
// in range) and throws StoreError; degree()/append() are only legal
// after a successful validate().
struct CsrAdjacency {
  const std::uint8_t* base = nullptr;  // file mapping
  std::size_t off = 0;                 // section start within the mapping
  std::size_t bytes = 0;               // recorded section size
  graph::VertexId n = 0;
  graph::EdgeId m = 0;

  void validate(const std::string& path) const;
  std::size_t degree(graph::VertexId v) const;
  void append(graph::VertexId v, std::vector<graph::EdgeId>& out) const;
};

// The CSR adjacency section bytes for a scheme, or empty when it
// carries no adjacency. Shared by the container writer below and the
// manifest writer (sharded_store.cpp).
std::vector<std::uint8_t> build_adjacency_section(
    const ConnectivityScheme& scheme);

// Identity of one serialized container: enough to decide delta-push
// shard reuse (sharded_store.cpp) without writing — or even fully
// materializing — the container.
struct ContainerDigest {
  std::uint64_t file_bytes = 0;
  // FNV-1a over bytes [kHeaderBytes, file end), as stored at header
  // offset 40.
  std::uint64_t payload_checksum = 0;
};

// Streams one container holding the scheme's labels restricted to the
// given vertex/edge ranges straight to `path` — the whole scheme for
// save(), one shard for save_sharded() (sharded_store.hpp). Label
// records are serialized in bounded chunks and written as they are
// produced, so peak writer memory is O(chunk), not O(container).
// include_adjacency emits the CSR side-table when the scheme carries one
// and requires the full ranges (the lists name global edge IDs); shard
// containers pass false — the manifest carries the adjacency instead.
// The file goes through the same durable writer as write_file_atomic
// (temp file + fsync + rename, the same store.write.* failpoint sites).
// Returns the written container's digest. Throws StoreIoError on I/O
// failure, with the temp file removed.
ContainerDigest write_container_streamed(const ConnectivityScheme& scheme,
                                         const std::string& path,
                                         graph::VertexId v_begin,
                                         graph::VertexId v_end,
                                         graph::EdgeId e_begin,
                                         graph::EdgeId e_end,
                                         bool include_adjacency);

// The digest write_container_streamed would produce, with no file I/O:
// one serialization pass folded directly into the checksum. Used by
// delta pushes to detect byte-identical shards before writing anything.
ContainerDigest digest_container(const ConnectivityScheme& scheme,
                                 graph::VertexId v_begin,
                                 graph::VertexId v_end,
                                 graph::EdgeId e_begin, graph::EdgeId e_end,
                                 bool include_adjacency);

// Durable atomic file write for the manifest, journal and cache-blob
// writers, through the same durable writer the container writer streams
// into: unique temp file (per process and per call) + fsync + rename
// into place + best-effort directory fsync, so a crashed, failed or
// racing write never leaves a half-written artifact under the target
// name. Throws StoreIoError on I/O failure, with the temp file removed.
void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

// Read-only mmap of a regular file, shared by the container and
// manifest readers. Throws StoreIoError when the file cannot be opened,
// stat'ed or mapped, StoreError when it is not regular or smaller than
// min_bytes (`kind` names the artifact in messages). The mapping's
// range is registered with the process-wide SIGBUS translator
// (util/sigbus_guard.hpp); the caller owns the mapping and releases it
// with unmap_file().
struct MappedFile {
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};
MappedFile map_readonly(const std::string& path, std::size_t min_bytes,
                        const char* kind);

// munmap + SIGBUS-range unregistration for a map_readonly() mapping.
void unmap_file(const MappedFile& file);

// Runs `fn` — a read-only scan over a registered mapping — under a
// SIGBUS guard: a fault inside the scan (backing file truncated or
// replaced behind the mmap) surfaces as StoreIoError instead of killing
// the process. `fn` should hold no resources while touching mapped
// bytes (siglongjmp skips destructors of frames between the guard and
// the fault); the validation scans this wraps are plain loops.
template <typename Fn>
void with_sigbus_guard(const std::string& path, const char* what, Fn&& fn) {
  util::SigbusGuard guard;
  if (sigsetjmp(guard.jump(), 0) == 0) {
    guard.arm();
    fn();
    return;
  }
  throw StoreIoError(std::string(what) +
                     " read faulted (file truncated or replaced behind the "
                     "mapping): " +
                     path);
}

}  // namespace store

// Parsed header + section accounting of an open store, for inspection
// tooling and sanity assertions.
struct StoreInfo {
  std::uint32_t format_version = 0;
  BackendKind backend = BackendKind::kCoreFtc;
  graph::VertexId num_vertices = 0;
  graph::EdgeId num_edges = 0;
  std::uint64_t payload_checksum = 0;
  std::size_t file_bytes = 0;
  std::size_t params_bytes = 0;
  std::size_t vertex_section_bytes = 0;
  std::size_t edge_index_bytes = 0;
  std::size_t edge_blob_bytes = 0;
  // Format v2: optional adjacency side-table (vertex-fault capability).
  bool has_adjacency = false;
  std::size_t adjacency_bytes = 0;
  // Sharded manifests (sharded_store.hpp): number of shard containers
  // behind this view; 0 for a plain single-container store. When
  // nonzero, file_bytes covers the manifest plus every shard.
  std::uint32_t num_shards = 0;
  // Manifest lineage (format v2 manifests; see sharded_store.hpp).
  // Epoch 1 with parent_digest 0 for full saves and v1 manifests; a
  // delta push writes parent epoch + 1 and the parent manifest's payload
  // checksum. Both 0 for single-container stores.
  std::uint64_t manifest_epoch = 0;
  std::uint64_t parent_digest = 0;
  // Derived from the params blob; match the builder scheme's accounting.
  std::size_t vertex_label_bits = 0;
  std::size_t edge_label_bits = 0;
};

// The read interface every store serving path programs against: a
// validated, immutable view of one scheme's labels. Two implementations:
// LabelStoreView (one mmapped container file, below) and ShardedStoreView
// (a manifest routing over K shard containers, sharded_store.hpp).
// load_scheme() and everything downstream — the label-served backends,
// BatchQueryEngine sessions, ConnectivityOracle::from_store — only ever
// see this interface, so single-file and sharded stores serve queries
// through identical code. Implementations are safe to share across
// threads after a successful open.
class StoreView {
 public:
  virtual ~StoreView() = default;
  StoreView(const StoreView&) = delete;
  StoreView& operator=(const StoreView&) = delete;

  const StoreInfo& info() const { return info_; }
  virtual std::span<const std::uint8_t> params_blob() const = 0;
  // Zero-copy label reads through routes(). A read into a shard that
  // open_degraded() quarantined throws DegradedError naming its ranges.
  std::span<const std::uint8_t> vertex_blob(graph::VertexId v) const;
  std::span<const std::uint8_t> edge_blob(graph::EdgeId e) const;

  // Adjacency side-table reads (valid only when info().has_adjacency).
  virtual std::size_t adjacency_degree(graph::VertexId v) const = 0;
  virtual void adjacency_append(graph::VertexId v,
                                std::vector<graph::EdgeId>& out) const = 0;

  // The flat route table, resolved by open(); lives as long as this view.
  const store::FlatRoutes& routes() const { return routes_; }

  // Does no work: open() already mapped and digest-verified every shard.
  // Returns what that eager open recorded; `threads` is ignored. Kept
  // because the repository benchmark (perfbench/) calls it and reports
  // its record.
  store::PrefetchStats prefetch(unsigned threads = 0) const {
    (void)threads;
    return open_stats_;
  }

  // Throws DegradedError when open_degraded() quarantined part of this
  // view. Such a view still answers vertex_blob/edge_blob over its
  // healthy ranges, but load_scheme() refuses it, so the scheme hot path
  // never meets a null route entry. No-op for a complete view.
  virtual void require_complete() const {}

  // Translates a SIGBUS caught inside this view's registered mappings:
  // guarded reads (query-path ancestry reads, prepare-time blob copies)
  // land here with the faulting address. A sharded view attributes the
  // fault to the owning shard, quarantines it, and throws DegradedError
  // naming the unservable ranges; the base and single-container views
  // throw StoreIoError.
  [[noreturn]] virtual void on_mapped_fault(const void* addr) const;

 protected:
  StoreView() = default;

  // A read hit a null route entry (`edge` selects the ID space). Only a
  // degraded sharded view has those; it throws DegradedError.
  [[noreturn]] virtual void on_unrouted(std::uint64_t id, bool edge) const;

  StoreInfo info_;
  store::FlatRoutes routes_;
  store::PrefetchStats open_stats_;
};

// Read-only mmap view of a single container file. open() validates the
// complete structure up front (see the format comment); accessors after
// a successful open are zero-copy spans into the mapping and cannot go
// out of bounds. Immutable and safe to share across threads.
class LabelStoreView final : public StoreView {
 public:
  // Maps the file and validates it. verify_checksum=false skips only the
  // full-payload FNV pass (an O(file) read) — every structural check and
  // all per-read bounds checks stay on unconditionally.
  static std::shared_ptr<const LabelStoreView> open(
      const std::string& path, bool verify_checksum = true);

  ~LabelStoreView() override;

  std::span<const std::uint8_t> params_blob() const override;

  // Adjacency side-table reads (valid only when info().has_adjacency;
  // offsets were validated monotone and in-range at open).
  std::size_t adjacency_degree(graph::VertexId v) const override;
  void adjacency_append(graph::VertexId v,
                        std::vector<graph::EdgeId>& out) const override;

  [[noreturn]] void on_mapped_fault(const void* addr) const override;

  const std::string& path() const { return path_; }

  // Whether addr falls inside this view's mapping — how a sharded view
  // attributes a translated SIGBUS to the owning shard.
  bool contains(const void* addr) const;

 private:
  LabelStoreView() = default;

  std::string path_;
  const std::uint8_t* map_ = nullptr;  // whole file
  std::size_t map_bytes_ = 0;
  std::size_t params_off_ = 0;
  std::size_t vertex_off_ = 0;
  std::size_t index_off_ = 0;
  std::size_t blob_off_ = 0;
  store::CsrAdjacency adj_;  // base == nullptr when no adjacency section
};

// Every store is served zero-copy from its mapping: vertex labels are
// decoded on the fly (8-byte reads, no allocation) and only the
// fault-edge labels of a session are ever materialized.
struct LoadOptions {
  bool verify_checksum = true;
  // When a "<path>.jrnl" deletion-journal sidecar exists next to the
  // store (journal.hpp), fold its journaled deletions into every query's
  // fault set. Off = serve the store as written, ignoring the sidecar.
  bool replay_journal = true;
};

// Opens a store behind the common StoreView interface, dispatching on
// the file magic: a single-container file yields a LabelStoreView, a
// sharded-store manifest (sharded_store.hpp) yields a ShardedStoreView.
// Implemented in sharded_store.cpp.
std::shared_ptr<const StoreView> open_store_view(const std::string& path,
                                                 bool verify_checksum = true);

// Same, threading a previous-generation view through as a reuse source:
// when both the opened artifact and reuse_from are sharded stores of the
// same backend, shards whose manifests record identical payload digests
// (and sizes and ID extents) are ADOPTED — the new view shares the old
// view's already-open shard mapping instead of re-mapping the file. This
// is the in-process half of a delta push (sharded_store.hpp): after
// save_sharded_delta rewrites 1 of K shards, opening the new manifest
// against the serving view maps exactly 1 shard. reuse_from == nullptr,
// a single-container artifact, or a non-sharded reuse_from all degrade
// to the plain open above.
std::shared_ptr<const StoreView> open_store_view(
    const std::string& path, bool verify_checksum,
    const std::shared_ptr<const StoreView>& reuse_from);

// Reconstructs a ConnectivityScheme from a container file or a sharded
// manifest (dispatching on the magic). The returned scheme answers
// queries through the backend's universal decoder — identical results to
// the scheme that wrote the store — and supports save() (re-emitting a
// single container, even from a sharded source) but, by design, never
// needs the graph. Throws StoreError on any malformed input.
std::unique_ptr<ConnectivityScheme> load_scheme(const std::string& path,
                                                const LoadOptions& options = {});

// Same, over an already-open view (shares the mapping; several schemes
// and threads may serve from one view). Throws DegradedError for a view
// open_degraded() left incomplete (StoreView::require_complete).
std::unique_ptr<ConnectivityScheme> load_scheme(
    std::shared_ptr<const StoreView> view);

}  // namespace ftc::core
