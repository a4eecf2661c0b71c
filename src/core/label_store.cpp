// LabelStore implementation: the container writer
// (ConnectivityScheme::save and the streamed shard writer), the
// validating mmap reader (LabelStoreView) and load_scheme(path).
//
// The schemes load_scheme() serves are built in connectivity_scheme.cpp
// by the same per-backend adapter as in-memory builds, over a stored
// label source: two 8-byte vertex-record reads from the mapping per
// query, and only the <= f fault-edge labels of a session decoded, once,
// inside prepare_faults().
#include "core/label_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "core/journal.hpp"
#include "util/failpoint.hpp"
#include "util/scoped_fd.hpp"

namespace ftc::core {

namespace {

using graph::EdgeId;
using graph::VertexId;

std::size_t align8(std::size_t x) { return (x + 7) & ~std::size_t{7}; }

// Little-endian on disk, independent of host byte order (util/digest.hpp).
std::uint64_t read_u64_at(const std::uint8_t* base, std::size_t offset) {
  return util::read_u64_le(base + offset);
}

std::uint32_t read_u32_at(const std::uint8_t* base, std::size_t offset) {
  return util::read_u32_le(base + offset);
}

}  // namespace

namespace store {

void CsrAdjacency::validate(const std::string& path) const {
  // Exact CSR accounting: (n + 1) u64 offsets + 2m u32 edge IDs.
  const std::size_t expected =
      8 * (static_cast<std::size_t>(n) + 1) +
      8 * static_cast<std::size_t>(m);
  if (bytes != expected) {
    throw StoreError("corrupt adjacency section (size mismatch): " + path);
  }
  const std::size_t entries = 2 * static_cast<std::size_t>(m);
  const std::size_t lists_off = off + 8 * (static_cast<std::size_t>(n) + 1);
  std::uint64_t prev_off = read_u64_at(base, off);
  if (prev_off != 0) {
    throw StoreError("corrupt adjacency offsets (must start at 0): " + path);
  }
  for (VertexId v = 0; v < n; ++v) {
    const std::uint64_t next_off =
        read_u64_at(base, off + 8 * (static_cast<std::size_t>(v) + 1));
    if (next_off < prev_off || next_off > entries) {
      throw StoreError("corrupt adjacency offsets (not monotone): " + path);
    }
    prev_off = next_off;
  }
  if (prev_off != entries) {
    throw StoreError("corrupt adjacency offsets (entry count): " + path);
  }
  for (std::size_t i = 0; i < entries; ++i) {
    if (read_u32_at(base, lists_off + 4 * i) >= m) {
      throw StoreError("corrupt adjacency list (edge ID out of range): " +
                       path);
    }
  }
}

std::size_t CsrAdjacency::degree(VertexId v) const {
  FTC_REQUIRE(base != nullptr, "store carries no adjacency section");
  FTC_REQUIRE(v < n, "vertex out of range");
  const std::uint64_t begin =
      read_u64_at(base, off + 8 * static_cast<std::size_t>(v));
  const std::uint64_t end =
      read_u64_at(base, off + 8 * (static_cast<std::size_t>(v) + 1));
  return static_cast<std::size_t>(end - begin);
}

void CsrAdjacency::append(VertexId v, std::vector<graph::EdgeId>& out) const {
  FTC_REQUIRE(base != nullptr, "store carries no adjacency section");
  FTC_REQUIRE(v < n, "vertex out of range");
  const std::uint64_t begin =
      read_u64_at(base, off + 8 * static_cast<std::size_t>(v));
  const std::uint64_t end =
      read_u64_at(base, off + 8 * (static_cast<std::size_t>(v) + 1));
  const std::size_t lists_off = off + 8 * (static_cast<std::size_t>(n) + 1);
  for (std::uint64_t i = begin; i < end; ++i) {
    out.push_back(
        read_u32_at(base, lists_off + 4 * static_cast<std::size_t>(i)));
  }
}

}  // namespace store

// ------------------------------------------------------------------
// Writer.

namespace store {

std::vector<std::uint8_t> build_adjacency_section(
    const ConnectivityScheme& scheme) {
  const AdjacencyProvider* adj = scheme.adjacency();
  if (adj == nullptr) return {};
  const VertexId n = scheme.num_vertices();
  FTC_CHECK(adj->num_vertices() == n,
            "adjacency provider inconsistent with the scheme");
  std::vector<graph::EdgeId> incident;
  store::ByteWriter section;
  section.u64(0);
  std::uint64_t running = 0;
  store::ByteWriter lists;
  for (VertexId v = 0; v < n; ++v) {
    incident.clear();
    adj->append_incident(v, incident);
    running += incident.size();
    section.u64(running);
    for (const graph::EdgeId e : incident) lists.u32(e);
  }
  // The invariant open() enforces: every edge appears in exactly two
  // incidence lists.
  FTC_CHECK(running == 2 * static_cast<std::uint64_t>(scheme.num_edges()),
            "adjacency provider does not cover every edge twice");
  section.bytes(lists.view());
  return section.take();
}

namespace {

// Little-endian u64 store, mirroring ByteWriter::patch_u64 for sinks
// that patch raw buffers instead of a ByteWriter.
void store_u64_le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = (v >> (8 * i)) & 0xff;
}

// Serial of the durable writer's temp names, so concurrent saves of the
// same path from one process can never collide on a temp name.
unsigned next_save_serial() {
  static std::atomic<unsigned> save_counter{0};
  return save_counter.fetch_add(1);
}

// Flush granularity of the streaming emitter: label records are
// serialized into a scratch ByteWriter and handed to the sink whenever
// it crosses this size, so writer memory is O(chunk) regardless of the
// container size.
constexpr std::size_t kStreamChunkBytes = std::size_t{1} << 20;

// One emitter, two sinks. emit_container produces the container byte
// stream for a sink exposing
//     void write(std::span<const std::uint8_t>);
//     std::uint64_t offset() const;   // bytes written so far
// The header is emitted FIRST with both checksum fields zero; FileSink
// rewrites the 64-byte header in place at finish, DigestSink never needs
// them — the payload checksum is definitionally over bytes past the
// header. Routing write_container_streamed and digest_container through
// this one function is what guarantees the written and digest-only
// outputs can never drift apart.
template <typename Sink>
void emit_container(const ConnectivityScheme& scheme, VertexId v_begin,
                    VertexId v_end, EdgeId e_begin, EdgeId e_end,
                    bool include_adjacency, Sink& sink) {
  FTC_REQUIRE(v_begin <= v_end && v_end <= scheme.num_vertices(),
              "vertex range out of order or out of range");
  FTC_REQUIRE(e_begin <= e_end && e_end <= scheme.num_edges(),
              "edge range out of order or out of range");
  const auto n = static_cast<VertexId>(v_end - v_begin);
  const auto m = static_cast<EdgeId>(e_end - e_begin);

  store::ByteWriter params;
  scheme.serialize_params(params);

  // The offset index precedes the blobs in the file, but blobs of one
  // scheme are uniform-width (the reader enforces this at open), so the
  // index is arithmetic: probe one blob for the width instead of
  // buffering the whole section to learn its offsets.
  std::uint64_t blob_bytes = 0;
  if (m > 0) {
    store::ByteWriter probe;
    scheme.serialize_edge_label(e_begin, probe);
    blob_bytes = probe.size();
  }

  // Adjacency side-table (format v2): present iff the scheme can name
  // its incidence lists, so saved schemes keep vertex-fault capability.
  // Only meaningful for a full-range container (the lists name global
  // edge IDs); shard containers carry none — the manifest does instead.
  std::vector<std::uint8_t> adj_section;
  if (include_adjacency && scheme.adjacency() != nullptr) {
    FTC_CHECK(v_begin == 0 && v_end == scheme.num_vertices() &&
                  e_begin == 0 && e_end == scheme.num_edges(),
              "adjacency requires the full vertex/edge ranges");
    adj_section = build_adjacency_section(scheme);
  }

  const auto pad8 = [&sink] {
    static constexpr std::uint8_t zeros[8] = {};
    const std::size_t rem = static_cast<std::size_t>(sink.offset()) % 8;
    if (rem != 0) {
      sink.write(std::span<const std::uint8_t>(zeros, 8 - rem));
    }
  };
  store::ByteWriter chunk;
  const auto flush = [&sink, &chunk](std::size_t watermark) {
    if (chunk.size() < watermark) return;
    sink.write(chunk.view());
    chunk = store::ByteWriter{};
  };

  store::ByteWriter header;
  header.u64(store::kMagic);
  header.u32(static_cast<std::uint32_t>(store::kFormatVersion));
  header.u8(static_cast<std::uint8_t>(scheme.backend()));
  header.u8(!adj_section.empty() ? store::kFlagHasAdjacency : 0);  // flags
  header.u8(0);
  header.u8(0);
  header.u64(n);
  header.u64(m);
  header.u64(params.size());
  header.u64(0);  // payload checksum, finalized by the sink
  header.u64(adj_section.size());  // adjacency section size (0 when absent)
  header.u64(0);  // header checksum, finalized by the sink
  FTC_CHECK(header.size() == store::kHeaderBytes,
            "store header layout drifted");
  sink.write(header.view());

  sink.write(params.view());
  pad8();
  for (VertexId v = v_begin; v < v_end; ++v) {
    const std::size_t before = chunk.size();
    scheme.serialize_vertex_label(v, chunk);
    FTC_CHECK(chunk.size() - before == store::kVertexRecordBytes,
              "vertex record must be fixed-size");
    flush(kStreamChunkBytes);
  }
  flush(1);
  pad8();
  for (EdgeId e = 0; e <= m; ++e) {
    chunk.u64(static_cast<std::uint64_t>(e) * blob_bytes);
    flush(kStreamChunkBytes);
  }
  for (EdgeId e = e_begin; e < e_end; ++e) {
    const std::size_t before = chunk.size();
    scheme.serialize_edge_label(e, chunk);
    // The arithmetic index above is only valid for uniform blobs; a
    // scheme violating that must fail the save, not corrupt the index.
    FTC_CHECK(chunk.size() - before == blob_bytes,
              "edge blobs must be uniform-width");
    flush(kStreamChunkBytes);
  }
  flush(1);
  if (!adj_section.empty()) {
    pad8();
    sink.write(adj_section);
  }
}

// Sink 1: fold the stream straight into the payload digest — the
// no-I/O pass delta pushes use to detect unchanged shards.
class DigestSink {
 public:
  void write(std::span<const std::uint8_t> b) {
    const std::uint64_t off = offset_;
    offset_ += b.size();
    if (off + b.size() <= store::kHeaderBytes) return;  // header bytes
    if (off < store::kHeaderBytes) {
      b = b.subspan(static_cast<std::size_t>(store::kHeaderBytes - off));
    }
    digest_ = store::fnv1a(b, digest_);
  }
  std::uint64_t offset() const { return offset_; }

  ContainerDigest finish() const { return {offset_, digest_}; }

 private:
  std::uint64_t offset_ = 0;
  std::uint64_t digest_ = store::kFnvBasis;
};

}  // namespace

MappedFile map_readonly(const std::string& path, std::size_t min_bytes,
                        const char* kind) {
  // O_NONBLOCK so opening a FIFO with no writer fails fast instead of
  // blocking; harmless for regular files (the only kind accepted below).
  util::ScopedFd fd;
  if (const int fe = FTC_FAILPOINT("store.map.open")) {
    errno = fe;
  } else {
    fd.reset(::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  }
  if (!fd) {
    throw StoreIoError(std::string("cannot open ") + kind + ": " + path +
                       " (" + std::strerror(errno) + ")");
  }
  struct stat st{};
  int rc;
  if (const int fe = FTC_FAILPOINT("store.map.fstat")) {
    errno = fe;
    rc = -1;
  } else {
    rc = ::fstat(fd.get(), &st);
  }
  if (rc != 0) {
    throw StoreIoError("cannot stat " + path + " (" + std::strerror(errno) +
                       ")");
  }
  if (!S_ISREG(st.st_mode)) {
    throw StoreError("not a regular file: " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < min_bytes) {
    throw StoreError(std::string(kind) + " truncated (no header): " + path);
  }
  void* map = MAP_FAILED;
  if (const int fe = FTC_FAILPOINT("store.map.mmap")) {
    errno = fe;
  } else {
    map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd.get(), 0);
  }
  if (map == MAP_FAILED) {
    throw StoreIoError("mmap failed: " + path + " (" + std::strerror(errno) +
                       ")");
  }
  // Register with the SIGBUS translator so a file mutated behind this
  // mapping surfaces as a typed error at the guarded read, not a crash.
  util::register_mapped_range(map, size);
  return {static_cast<const std::uint8_t*>(map), size};
}

void unmap_file(const MappedFile& file) {
  if (file.data == nullptr) return;
  util::unregister_mapped_range(file.data);
  ::munmap(const_cast<std::uint8_t*>(file.data), file.size);
}

namespace {

// The one durable writer behind every store artifact (containers,
// manifests, journals, cache blobs): write to a unique temp file (per
// process AND per call, for concurrent saves from one process), fsync
// it, rename into place and fsync the directory — so a crashed, failed
// or racing save never leaves a half-written file under the target
// name, even across power loss on writeback filesystems. Each
// store.write.* failpoint guards exactly one syscall boundary here. A
// writer destroyed before commit() (the producer or a boundary threw)
// removes its temp file.
class DurableFile {
 public:
  explicit DurableFile(std::string path)
      : path_(std::move(path)),
        tmp_(path_ + ".tmp." + std::to_string(static_cast<long>(::getpid())) +
             "." + std::to_string(next_save_serial())) {
    if (const int fe = FTC_FAILPOINT("store.write.open")) {
      errno = fe;
    } else {
      fd_.reset(
          ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
    }
    if (!fd_) throw StoreIoError("cannot open for writing: " + tmp_);
  }

  ~DurableFile() {
    if (!committed_) {
      fd_.reset();
      std::remove(tmp_.c_str());
    }
  }

  DurableFile(const DurableFile&) = delete;
  DurableFile& operator=(const DurableFile&) = delete;

  // Appends b, or (at >= 0) overwrites the bytes at file offset `at`.
  void write(std::span<const std::uint8_t> b, ::off_t at = -1) {
    std::size_t written = 0;
    while (written < b.size()) {
      ::ssize_t n;
      if (const int fe = FTC_FAILPOINT("store.write.write")) {
        errno = fe;
        n = -1;
      } else if (at < 0) {
        n = ::write(fd_.get(), b.data() + written, b.size() - written);
      } else {
        n = ::pwrite(fd_.get(), b.data() + written, b.size() - written,
                     at + static_cast<::off_t>(written));
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        throw StoreIoError("write failed: " + tmp_);
      }
      written += static_cast<std::size_t>(n);
    }
  }

  // fsync + close + rename into place + best-effort directory fsync.
  // After this returns the file is durably at path.
  void commit() {
    int rc;
    if (const int fe = FTC_FAILPOINT("store.write.fsync")) {
      errno = fe;
      rc = -1;
    } else {
      rc = ::fsync(fd_.get());
    }
    if (rc != 0) throw StoreIoError("fsync failed: " + tmp_);
    if (const int fe = FTC_FAILPOINT("store.write.close")) {
      errno = fe;
      fd_.reset();  // still close the real fd; the injected error wins
      rc = -1;
    } else {
      rc = fd_.close_now();
    }
    if (rc != 0) throw StoreIoError("close failed: " + tmp_);
    if (const int fe = FTC_FAILPOINT("store.write.rename")) {
      errno = fe;
      rc = -1;
    } else {
      rc = std::rename(tmp_.c_str(), path_.c_str());
    }
    if (rc != 0) throw StoreIoError("cannot rename " + tmp_ + " -> " + path_);
    committed_ = true;
    // Persist the rename itself (best-effort: the data is already
    // synced, and some filesystems reject directory fsync). The
    // failpoint only counts the boundary — a skipped directory sync
    // never fails a save.
    if (FTC_FAILPOINT("store.write.dirsync") == 0) {
      const std::size_t slash = path_.find_last_of('/');
      const std::string dir = slash == std::string::npos
                                  ? std::string(".")
                                  : path_.substr(0, slash + 1);
      const util::ScopedFd dir_fd(
          ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
      if (dir_fd) ::fsync(dir_fd.get());
    }
  }

 private:
  const std::string path_;
  const std::string tmp_;
  util::ScopedFd fd_;
  bool committed_ = false;
};

// Sink 2: stream straight to disk through the durable writer without
// ever materializing the container. On top of DigestSink's payload
// digest it keeps only the 64-byte header copy (it streams out with
// zeroed checksum fields), patched with one pwrite at finish.
class FileSink {
 public:
  explicit FileSink(const std::string& path) : file_(path) {}

  void write(std::span<const std::uint8_t> b) {
    const std::uint64_t off = digest_.offset();
    if (off < store::kHeaderBytes) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(b.size(), store::kHeaderBytes - off));
      std::copy_n(b.data(), take, header_ + static_cast<std::size_t>(off));
    }
    digest_.write(b);
    file_.write(b);
  }

  std::uint64_t offset() const { return digest_.offset(); }

  // Patches the header checksums in place, then commits the file.
  ContainerDigest finish() {
    const ContainerDigest digest = digest_.finish();
    FTC_CHECK(digest.file_bytes >= store::kHeaderBytes,
              "container without header");
    store_u64_le(header_ + 40, digest.payload_checksum);
    store_u64_le(header_ + 56,
                 store::fnv1a(std::span<const std::uint8_t>(header_, 56)));
    file_.write(header_, /*at=*/0);
    file_.commit();
    return digest;
  }

 private:
  DurableFile file_;
  DigestSink digest_;
  std::uint8_t header_[store::kHeaderBytes] = {};
};

}  // namespace

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> file) {
  DurableFile out(path);
  out.write(file);
  out.commit();
}

ContainerDigest write_container_streamed(const ConnectivityScheme& scheme,
                                         const std::string& path,
                                         VertexId v_begin, VertexId v_end,
                                         EdgeId e_begin, EdgeId e_end,
                                         bool include_adjacency) {
  FileSink sink(path);
  emit_container(scheme, v_begin, v_end, e_begin, e_end, include_adjacency,
                 sink);
  return sink.finish();
}

ContainerDigest digest_container(const ConnectivityScheme& scheme,
                                 VertexId v_begin, VertexId v_end,
                                 EdgeId e_begin, EdgeId e_end,
                                 bool include_adjacency) {
  DigestSink sink;
  emit_container(scheme, v_begin, v_end, e_begin, e_end, include_adjacency,
                 sink);
  return sink.finish();
}

}  // namespace store

void ConnectivityScheme::save(const std::string& path) const {
  // Streamed: labels serialize straight to disk in O(chunk) memory, so
  // saving never doubles the resident footprint of a large scheme.
  store::write_container_streamed(*this, path, 0, num_vertices(), 0,
                                  num_edges(), /*include_adjacency=*/true);
}

// ------------------------------------------------------------------
// Mmap view.

LabelStoreView::~LabelStoreView() {
  store::unmap_file({map_, map_bytes_});
}

bool LabelStoreView::contains(const void* addr) const {
  const auto* p = static_cast<const std::uint8_t*>(addr);
  return p >= map_ && p < map_ + map_bytes_;
}

void LabelStoreView::on_mapped_fault(const void* addr) const {
  (void)addr;
  throw StoreIoError(
      "mapped read faulted (store file truncated or replaced behind the "
      "live mapping): " +
      path_);
}

void StoreView::on_mapped_fault(const void* addr) const {
  (void)addr;
  throw StoreIoError(
      "mapped label store read faulted (backing file truncated or replaced)");
}

void StoreView::on_unrouted(std::uint64_t id, bool edge) const {
  throw StoreError(std::string("no route to ") + (edge ? "edge " : "vertex ") +
                   std::to_string(id));
}

std::span<const std::uint8_t> StoreView::vertex_blob(VertexId v) const {
  FTC_REQUIRE(v < routes_.num_vertices, "vertex out of range");
  const std::uint8_t* p = routes_.vertex_ptr[v];
  if (p == nullptr) on_unrouted(v, /*edge=*/false);
  return {p, store::kVertexRecordBytes};
}

std::span<const std::uint8_t> StoreView::edge_blob(EdgeId e) const {
  FTC_REQUIRE(e < routes_.num_edges, "edge out of range");
  const std::uint8_t* p = routes_.edge_ptr[e];
  if (p == nullptr) on_unrouted(e, /*edge=*/true);
  return {p, routes_.edge_blob_bytes};
}

std::shared_ptr<const LabelStoreView> LabelStoreView::open(
    const std::string& path, bool verify_checksum) {
  const store::MappedFile mapped =
      store::map_readonly(path, store::kHeaderBytes, "label store");
  const std::size_t size = mapped.size;

  std::shared_ptr<LabelStoreView> view(new LabelStoreView());
  view->path_ = path;
  view->map_ = mapped.data;
  view->map_bytes_ = size;

  const std::span<const std::uint8_t> bytes(view->map_, size);
  // Parse the header from a stack copy taken under a SIGBUS guard, so
  // even the first page disappearing under the mapping is a typed error.
  std::uint8_t header_copy[store::kHeaderBytes];
  store::with_sigbus_guard(path, "label store header", [&] {
    std::memcpy(header_copy, view->map_, store::kHeaderBytes);
  });
  const std::span<const std::uint8_t> header_bytes(header_copy,
                                                   store::kHeaderBytes);
  store::ByteReader h(header_bytes);
  if (h.u64() != store::kMagic) {
    throw StoreError("bad magic (not a label store file): " + path);
  }
  StoreInfo& info = view->info_;
  info.file_bytes = size;
  info.format_version = h.u32();
  const std::uint8_t backend_byte = h.u8();
  const std::uint8_t flags = h.u8();
  h.u8();
  h.u8();
  const std::uint64_t n64 = h.u64();
  const std::uint64_t m64 = h.u64();
  const std::uint64_t params_size = h.u64();
  info.payload_checksum = h.u64();
  const std::uint64_t adj_size = h.u64();  // reserved (zero) in v1
  const std::size_t header_checksum_off = h.pos();
  const std::uint64_t header_checksum = h.u64();
  if (store::fnv1a(header_bytes.first(header_checksum_off)) !=
      header_checksum) {
    throw StoreError("corrupt header (checksum mismatch): " + path);
  }
  if (info.format_version < store::kMinFormatVersion ||
      info.format_version > store::kFormatVersion) {
    throw StoreError("unsupported label store format version " +
                     std::to_string(info.format_version) + ": " + path);
  }
  if (info.format_version < 2 && (flags != 0 || adj_size != 0)) {
    throw StoreError("corrupt v1 header (reserved fields nonzero): " + path);
  }
  if ((flags & ~store::kFlagHasAdjacency) != 0) {
    throw StoreError("unknown header flags in label store: " + path);
  }
  info.has_adjacency = (flags & store::kFlagHasAdjacency) != 0;
  if (info.has_adjacency != (adj_size != 0)) {
    throw StoreError(
        "corrupt header (adjacency flag/size disagree): " + path);
  }
  if (backend_byte > static_cast<std::uint8_t>(BackendKind::kDp21Agm)) {
    throw StoreError("unknown backend kind in label store: " + path);
  }
  info.backend = static_cast<BackendKind>(backend_byte);
  if (n64 >= graph::kNoVertex || m64 >= graph::kNoEdge) {
    throw StoreError("label store dimensions out of range: " + path);
  }
  info.num_vertices = static_cast<VertexId>(n64);
  info.num_edges = static_cast<EdgeId>(m64);

  // Section layout, with every bound checked against the mapped size.
  const auto fail_bounds = [&]() -> StoreError {
    return StoreError("label store truncated (sections exceed file): " +
                      path);
  };
  if (params_size > size - store::kHeaderBytes) throw fail_bounds();
  view->params_off_ = store::kHeaderBytes;
  info.params_bytes = static_cast<std::size_t>(params_size);
  view->vertex_off_ = align8(view->params_off_ + info.params_bytes);
  if (view->vertex_off_ > size) throw fail_bounds();
  info.vertex_section_bytes =
      static_cast<std::size_t>(info.num_vertices) * store::kVertexRecordBytes;
  if (info.vertex_section_bytes > size - view->vertex_off_) {
    throw fail_bounds();
  }
  view->index_off_ = view->vertex_off_ + info.vertex_section_bytes;
  info.edge_index_bytes = (static_cast<std::size_t>(info.num_edges) + 1) * 8;
  if (info.edge_index_bytes > size - view->index_off_) throw fail_bounds();
  view->blob_off_ = view->index_off_ + info.edge_index_bytes;

  // The blob section runs to the (8-aligned) adjacency section when one
  // is present (format v2), otherwise to the end of the file.
  info.adjacency_bytes = static_cast<std::size_t>(adj_size);
  std::size_t blob_region = size - view->blob_off_;
  std::size_t adj_off = 0;
  if (info.has_adjacency) {
    // Placement only; CsrAdjacency::validate() (below) enforces the
    // exact CSR size and every structural property of the section.
    if (info.adjacency_bytes > blob_region) throw fail_bounds();
    adj_off = size - info.adjacency_bytes;
    if (adj_off % 8 != 0) {
      throw StoreError("corrupt adjacency section (misaligned): " + path);
    }
    blob_region = adj_off - view->blob_off_;
  }

  // Offset index: starts at 0, non-decreasing, ends exactly at the blob
  // section end (up to the pre-adjacency alignment pad), and (the blobs
  // being fixed-size per scheme) every spacing must match the width
  // implied by the params blob.
  std::size_t expected_blob = 0;
  store::with_sigbus_guard(path, "label store params", [&] {
    expected_blob = store::expected_edge_blob_bytes(
        info.backend, view->params_blob(), info.format_version);
  });
  store::with_sigbus_guard(path, "label store edge index", [&] {
    std::uint64_t prev = read_u64_at(view->map_, view->index_off_);
    if (prev != 0) {
      throw StoreError("corrupt edge index (must start at 0): " + path);
    }
    for (EdgeId e = 0; e < info.num_edges; ++e) {
      const std::uint64_t next = read_u64_at(
          view->map_,
          view->index_off_ + 8 * (static_cast<std::size_t>(e) + 1));
      if (next < prev || next > blob_region) {
        throw StoreError("corrupt edge index (offsets not monotone): " + path);
      }
      if (next - prev != expected_blob) {
        throw StoreError("corrupt edge index (blob size mismatch): " + path);
      }
      prev = next;
    }
    info.edge_blob_bytes = static_cast<std::size_t>(prev);
  });
  const bool blob_end_ok =
      info.has_adjacency
          ? align8(info.edge_blob_bytes) == blob_region
          : info.edge_blob_bytes == blob_region;
  if (!blob_end_ok) {
    throw StoreError("corrupt edge index (trailing bytes): " + path);
  }

  // Adjacency CSR validation: monotone offsets covering exactly 2m
  // entries, every entry a valid edge ID (shared with the sharded
  // manifest, which carries the same section layout).
  if (info.has_adjacency) {
    view->adj_ = store::CsrAdjacency{view->map_, adj_off, info.adjacency_bytes,
                                     info.num_vertices, info.num_edges};
    store::with_sigbus_guard(path, "label store adjacency",
                             [&] { view->adj_.validate(path); });
  }

  store::StoreLabelBits bits;
  store::with_sigbus_guard(path, "label store params", [&] {
    bits = store::derive_label_bits(info.backend, view->params_blob(),
                                    info.format_version);
  });
  info.vertex_label_bits = bits.vertex_label_bits;
  info.edge_label_bits = bits.edge_label_bits;

  if (verify_checksum) {
    // The O(file) scan — by far the widest SIGBUS window at open.
    std::uint64_t payload_fnv = 0;
    store::with_sigbus_guard(path, "label store payload", [&] {
      payload_fnv = store::fnv1a(bytes.subspan(store::kHeaderBytes));
    });
    if (payload_fnv != info.payload_checksum) {
      throw StoreError("payload checksum mismatch (corrupt label store): " +
                       path);
    }
  }

  // Flat route table: the container is one contiguous mapping with
  // fixed-width records (the index walk above proved it), so routing
  // resolves to base + stride arithmetic captured once as per-ID
  // pointers. Sharded views splice these per-shard tables into their
  // global one (sharded_store.cpp).
  store::FlatRoutes& routes = view->routes_;
  routes.num_vertices = info.num_vertices;
  routes.num_edges = info.num_edges;
  routes.edge_blob_bytes = expected_blob;
  routes.vertex_ptr.reserve(info.num_vertices);
  for (VertexId v = 0; v < info.num_vertices; ++v) {
    routes.vertex_ptr.push_back(
        view->map_ + view->vertex_off_ +
        static_cast<std::size_t>(v) * store::kVertexRecordBytes);
  }
  routes.edge_ptr.reserve(info.num_edges);
  for (EdgeId e = 0; e < info.num_edges; ++e) {
    routes.edge_ptr.push_back(view->map_ + view->blob_off_ +
                              static_cast<std::size_t>(e) * expected_blob);
  }
  return view;
}

std::span<const std::uint8_t> LabelStoreView::params_blob() const {
  return {map_ + params_off_, info_.params_bytes};
}

std::size_t LabelStoreView::adjacency_degree(VertexId v) const {
  return adj_.degree(v);
}

void LabelStoreView::adjacency_append(VertexId v,
                                      std::vector<graph::EdgeId>& out) const {
  adj_.append(v, out);
}

std::unique_ptr<ConnectivityScheme> load_scheme(const std::string& path,
                                                const LoadOptions& options) {
  // open_store_view dispatches on the magic: single containers and
  // sharded manifests load through the same StoreView interface.
  auto scheme = load_scheme(open_store_view(path, options.verify_checksum));
  // Fold a "<path>.jrnl" deletion-journal sidecar into the session
  // (journal.hpp): journaled deletions then behave as implicit faults in
  // every query until the store is rebuilt or compacted away.
  attach_journal_sidecar(*scheme, path, options.replay_journal);
  return scheme;
}

}  // namespace ftc::core
