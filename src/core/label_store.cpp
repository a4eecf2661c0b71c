// LabelStore implementation: container writer (ConnectivityScheme::save),
// validating mmap reader (LabelStoreView), and the loaded label-served
// backends behind load_scheme().
//
// A loaded scheme is the labeling-scheme model made literal: it holds no
// graph and no construction state, only the label blobs, and answers
// queries through the same universal decoders as the in-memory backends.
// The per-query cost is two 8-byte vertex-record reads from the mapping —
// no std::vector is materialized on the query path; only
// the <= f fault-edge labels of a session are decoded, once, inside
// prepare_faults(). The served hot path is therefore the shared one: the
// core backend queries through PreparedFaults + the copy-on-write
// DecoderWorkspace of core/ftc_query.cpp, and all fragment/sketch merges
// (core RS sums, AGM cells, cycle-space vectors) go through the word-XOR
// kernels in util/xor_kernel.hpp.
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

#include "core/ftc_query.hpp"
#include "core/journal.hpp"
#include "core/scheme_adapters.hpp"
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

// Fixed per-edge blob size implied by the params blob, used to
// cross-check the offset index at open.
std::size_t expected_edge_blob_bytes(BackendKind backend,
                                     std::span<const std::uint8_t> params,
                                     std::uint32_t version) {
  store::ByteReader r(params);
  std::size_t expect = 0;
  switch (backend) {
    case BackendKind::kCoreFtc:
      expect =
          store::core_edge_blob_bytes(store::decode_core_params(r, version));
      break;
    case BackendKind::kDp21CycleSpace:
      expect = store::cycle_edge_blob_bytes(store::decode_cycle_params(r));
      break;
    case BackendKind::kDp21Agm:
      expect = store::agm_edge_blob_bytes(store::decode_agm_params(r));
      break;
  }
  if (r.remaining() != 0) {
    throw StoreError("params blob size inconsistent with backend");
  }
  return expect;
}

StoreLabelBits derive_label_bits(BackendKind backend,
                                 std::span<const std::uint8_t> params,
                                 std::uint32_t version) {
  store::ByteReader r(params);
  StoreLabelBits bits;
  switch (backend) {
    case BackendKind::kCoreFtc: {
      const LabelParams p = store::decode_core_params(r, version);
      bits.vertex_label_bits = 2 * p.coord_bits();
      bits.edge_label_bits = 4 * p.coord_bits() +
                             static_cast<std::size_t>(p.num_levels) * p.k *
                                 p.field_bits;
      break;
    }
    case BackendKind::kDp21CycleSpace: {
      const store::CycleParams p = store::decode_cycle_params(r);
      bits.vertex_label_bits = 2 * p.coord_bits;
      bits.edge_label_bits = 4 * p.coord_bits + p.vector_bits + 1;
      break;
    }
    case BackendKind::kDp21Agm: {
      const store::AgmParams p = store::decode_agm_params(r);
      bits.vertex_label_bits = 2 * p.coord_bits;
      bits.edge_label_bits = 4 * p.coord_bits + p.sketch_words() * 64;
      break;
    }
  }
  return bits;
}

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

// Serial shared by every temp-file writer (write_file_atomic and the
// streaming FileSink), so concurrent saves of the same path from one
// process can never collide on a temp name.
unsigned next_save_serial() {
  static std::atomic<unsigned> save_counter{0};
  return save_counter.fetch_add(1);
}

// Flush granularity of the streaming emitter: label records are
// serialized into a scratch ByteWriter and handed to the sink whenever
// it crosses this size, so writer memory is O(chunk) regardless of the
// container size.
constexpr std::size_t kStreamChunkBytes = std::size_t{1} << 20;

// One emitter, three sinks. emit_container produces the container byte
// stream for a sink exposing
//     void write(std::span<const std::uint8_t>);
//     std::uint64_t offset() const;   // bytes written so far
// The header is emitted FIRST with both checksum fields zero; each sink
// finalizes the checksums its own way (MemorySink patches its buffer,
// FileSink rewrites the 64-byte header in place, DigestSink never needs
// them — the payload checksum is definitionally over bytes past the
// header). Routing build_container_bytes, write_container_streamed and
// digest_container through this one function is what guarantees the
// in-memory, streamed and digest-only outputs can never drift apart.
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

// Sink 1: buffer everything, then patch the checksums — the historical
// build_container_bytes behavior.
class MemorySink {
 public:
  void write(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  std::uint64_t offset() const { return buf_.size(); }

  std::vector<std::uint8_t> finish() {
    FTC_CHECK(buf_.size() >= store::kHeaderBytes, "container without header");
    const std::span<const std::uint8_t> file(buf_);
    store_u64_le(buf_.data() + 40,
                 store::fnv1a(file.subspan(store::kHeaderBytes)));
    store_u64_le(buf_.data() + 56, store::fnv1a(file.first(56)));
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

// Sink 2: fold the stream straight into the payload digest — the
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

std::vector<std::uint8_t> build_container_bytes(
    const ConnectivityScheme& scheme, VertexId v_begin, VertexId v_end,
    EdgeId e_begin, EdgeId e_end, bool include_adjacency) {
  MemorySink sink;
  emit_container(scheme, v_begin, v_end, e_begin, e_end, include_adjacency,
                 sink);
  return sink.finish();
}

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

void write_file_atomic(const std::string& path,
                       std::span<const std::uint8_t> file) {
  // Write to a unique temp file (per process AND per call, for
  // concurrent saves from one process), fsync it, rename into place and
  // fsync the directory — so a crashed, failed or racing save never
  // leaves a half-written store under the target name, even across
  // power loss on writeback filesystems.
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) +
                          "." + std::to_string(next_save_serial());
  util::ScopedFd fd;
  if (const int fe = FTC_FAILPOINT("store.write.open")) {
    errno = fe;
  } else {
    fd.reset(
        ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  }
  if (!fd) throw StoreIoError("cannot open for writing: " + tmp);
  const auto fail_write = [&](const std::string& what) -> StoreIoError {
    fd.reset();
    std::remove(tmp.c_str());
    return StoreIoError(what + ": " + tmp);
  };
  std::size_t written = 0;
  while (written < file.size()) {
    ::ssize_t n;
    if (const int fe = FTC_FAILPOINT("store.write.write")) {
      errno = fe;
      n = -1;
    } else {
      n = ::write(fd.get(), file.data() + written, file.size() - written);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      throw fail_write("write failed");
    }
    written += static_cast<std::size_t>(n);
  }
  int rc;
  if (const int fe = FTC_FAILPOINT("store.write.fsync")) {
    errno = fe;
    rc = -1;
  } else {
    rc = ::fsync(fd.get());
  }
  if (rc != 0) throw fail_write("fsync failed");
  if (const int fe = FTC_FAILPOINT("store.write.close")) {
    errno = fe;
    fd.reset();  // still close the real fd; the injected error wins
    rc = -1;
  } else {
    rc = fd.close_now();
  }
  if (rc != 0) {
    std::remove(tmp.c_str());
    throw StoreIoError("close failed: " + tmp);
  }
  if (const int fe = FTC_FAILPOINT("store.write.rename")) {
    errno = fe;
    rc = -1;
  } else {
    rc = std::rename(tmp.c_str(), path.c_str());
  }
  if (rc != 0) {
    std::remove(tmp.c_str());
    throw StoreIoError("cannot rename " + tmp + " -> " + path);
  }
  // Persist the rename itself (best-effort: the data is already synced,
  // and some filesystems reject directory fsync). The failpoint only
  // counts the boundary — a skipped directory sync never fails a save.
  if (FTC_FAILPOINT("store.write.dirsync") == 0) {
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash + 1);
    const util::ScopedFd dir_fd(
        ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
    if (dir_fd) ::fsync(dir_fd.get());
  }
}

namespace {

// Sink 3: stream straight to disk with write_file_atomic's exact crash
// story and failpoint surface (store.write.{open,write,fsync,close,
// rename,dirsync}), without ever materializing the container: the only
// buffered state is the 64-byte header copy (its checksum fields are
// patched with one pwrite at finish) and the emitter's flush chunk.
class FileSink {
 public:
  explicit FileSink(std::string path)
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

  ~FileSink() {
    // Abandoned before finish() (the emitter threw): never leave the
    // partial temp file behind.
    if (!finished_) {
      fd_.reset();
      std::remove(tmp_.c_str());
    }
  }

  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  void write(std::span<const std::uint8_t> b) {
    // Keep a copy of the header bytes (they stream out with zeroed
    // checksum fields) and fold everything after them into the payload
    // checksum as it passes through.
    if (offset_ < store::kHeaderBytes) {
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(b.size(), store::kHeaderBytes - offset_));
      std::copy_n(b.data(), take,
                  header_ + static_cast<std::size_t>(offset_));
      if (take < b.size()) digest_ = store::fnv1a(b.subspan(take), digest_);
    } else {
      digest_ = store::fnv1a(b, digest_);
    }
    offset_ += b.size();
    std::size_t written = 0;
    while (written < b.size()) {
      ::ssize_t n;
      if (const int fe = FTC_FAILPOINT("store.write.write")) {
        errno = fe;
        n = -1;
      } else {
        n = ::write(fd_.get(), b.data() + written, b.size() - written);
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        throw fail("write failed");
      }
      written += static_cast<std::size_t>(n);
    }
  }

  std::uint64_t offset() const { return offset_; }

  // Patches the header checksums in place, then fsync + rename exactly
  // like write_file_atomic. After this returns the container is durably
  // at path_.
  ContainerDigest finish() {
    FTC_CHECK(offset_ >= store::kHeaderBytes, "container without header");
    store_u64_le(header_ + 40, digest_);
    store_u64_le(header_ + 56,
                 store::fnv1a(std::span<const std::uint8_t>(header_, 56)));
    std::size_t written = 0;
    while (written < store::kHeaderBytes) {
      ::ssize_t n;
      if (const int fe = FTC_FAILPOINT("store.write.write")) {
        errno = fe;
        n = -1;
      } else {
        n = ::pwrite(fd_.get(), header_ + written,
                     store::kHeaderBytes - written,
                     static_cast<::off_t>(written));
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        throw fail("write failed");
      }
      written += static_cast<std::size_t>(n);
    }
    int rc;
    if (const int fe = FTC_FAILPOINT("store.write.fsync")) {
      errno = fe;
      rc = -1;
    } else {
      rc = ::fsync(fd_.get());
    }
    if (rc != 0) throw fail("fsync failed");
    if (const int fe = FTC_FAILPOINT("store.write.close")) {
      errno = fe;
      fd_.reset();  // still close the real fd; the injected error wins
      rc = -1;
    } else {
      rc = fd_.close_now();
    }
    if (rc != 0) {
      std::remove(tmp_.c_str());
      finished_ = true;
      throw StoreIoError("close failed: " + tmp_);
    }
    if (const int fe = FTC_FAILPOINT("store.write.rename")) {
      errno = fe;
      rc = -1;
    } else {
      rc = std::rename(tmp_.c_str(), path_.c_str());
    }
    if (rc != 0) {
      std::remove(tmp_.c_str());
      finished_ = true;
      throw StoreIoError("cannot rename " + tmp_ + " -> " + path_);
    }
    finished_ = true;
    if (FTC_FAILPOINT("store.write.dirsync") == 0) {
      const std::size_t slash = path_.find_last_of('/');
      const std::string dir = slash == std::string::npos
                                  ? std::string(".")
                                  : path_.substr(0, slash + 1);
      const util::ScopedFd dir_fd(
          ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC));
      if (dir_fd) ::fsync(dir_fd.get());
    }
    return {offset_, digest_};
  }

 private:
  StoreIoError fail(const std::string& what) {
    fd_.reset();
    std::remove(tmp_.c_str());
    finished_ = true;
    return StoreIoError(what + ": " + tmp_);
  }

  const std::string path_;
  const std::string tmp_;
  util::ScopedFd fd_;
  std::uint8_t header_[store::kHeaderBytes] = {};
  std::uint64_t offset_ = 0;
  std::uint64_t digest_ = store::kFnvBasis;
  bool finished_ = false;
};

}  // namespace

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

// ------------------------------------------------------------------
// Loaded (label-served) backends.

namespace {

// The store-served backends wrap the same per-backend session state as
// the in-memory adapters; the wrappers are shared (scheme_adapters.hpp)
// so the two serving paths cannot drift apart.
using detail::BackendWorkspace;
using detail::PreparedFaultSet;
using detail::checked_cast;

using CoreStoredFaults = PreparedFaultSet<PreparedFaults>;
using CoreStoredWorkspace = BackendWorkspace<DecoderWorkspace>;
using CycleStoredFaults = PreparedFaultSet<dp21::CycleSpaceFtc::Prepared>;
using AgmStoredFaults = PreparedFaultSet<dp21::AgmFtc::Prepared>;
using AgmStoredWorkspace = BackendWorkspace<dp21::AgmFtc::Workspace>;
using EmptyStoredWorkspace = detail::EmptyWorkspace;

// Zero-copy adjacency provider over the mapped v2 side-table: degrees
// and incidence lists decode on the fly from the (validated) CSR
// section, so serving vertex faults costs no load-time materialization.
class MappedAdjacency final : public AdjacencyProvider {
 public:
  explicit MappedAdjacency(std::shared_ptr<const StoreView> view)
      : view_(std::move(view)) {}

  VertexId num_vertices() const override {
    return view_->info().num_vertices;
  }
  std::size_t degree(VertexId v) const override {
    return view_->adjacency_degree(v);
  }
  void append_incident(VertexId v,
                       std::vector<EdgeId>& out) const override {
    view_->adjacency_append(v, out);
  }

 private:
  std::shared_ptr<const StoreView> view_;
};

// Shared plumbing: the mapping, header-derived sizes, the adjacency
// side-table (when the container carries one), and save() support by
// re-emitting the stored blobs (a loaded store round-trips bit-exactly).
class StoredSchemeBase : public ConnectivityScheme {
 public:
  explicit StoredSchemeBase(std::shared_ptr<const StoreView> view)
      : view_(std::move(view)), routes_(view_->routes()) {
    if (view_->info().has_adjacency) {
      adjacency_ = std::make_unique<MappedAdjacency>(view_);
    }
  }

  VertexId num_vertices() const override {
    return view_->info().num_vertices;
  }
  EdgeId num_edges() const override { return view_->info().num_edges; }
  std::size_t vertex_label_bits() const override {
    return view_->info().vertex_label_bits;
  }
  std::size_t edge_label_bits() const override {
    return view_->info().edge_label_bits;
  }

  // Vertex-fault capability is exactly "the container had the side-table".
  const AdjacencyProvider* adjacency() const override {
    return adjacency_.get();
  }

  void serialize_params(store::ByteWriter& out) const override {
    out.bytes(view_->params_blob());
  }
  void serialize_vertex_label(VertexId v,
                              store::ByteWriter& out) const override {
    out.bytes(view_->vertex_blob(v));
  }
  void serialize_edge_label(EdgeId e, store::ByteWriter& out) const override {
    out.bytes(view_->edge_blob(e));
  }

  // The backing view, so a swap can thread the serving generation's
  // mappings through open_store_view(path, verify, reuse_from) and adopt
  // unchanged shards across a delta push.
  std::shared_ptr<const StoreView> store_view() const override {
    return view_;
  }

 protected:
  // Both endpoint ancestry records under ONE SIGBUS guard — the only
  // mapped reads of an edge-fault query. A backing file mutated behind
  // the mapping lands in on_mapped_fault (the sharded view quarantines
  // the shard and throws DegradedError) instead of killing the process.
  // Cost when nothing faults: one sigsetjmp with no mask save — noise
  // against the decode the query then runs.
  std::pair<graph::AncestryLabel, graph::AncestryLabel> anc_pair(
      VertexId s, VertexId t) const {
    FTC_REQUIRE(s < routes_.num_vertices, "vertex out of range");
    FTC_REQUIRE(t < routes_.num_vertices, "vertex out of range");
    const std::uint8_t* ps = routes_.vertex_ptr[s];
    const std::uint8_t* pt = routes_.vertex_ptr[t];
    util::SigbusGuard guard;
    if (sigsetjmp(guard.jump(), 0) == 0) {
      guard.arm();
      const graph::AncestryLabel a = store::decode_vertex_record_at(ps);
      const graph::AncestryLabel b = store::decode_vertex_record_at(pt);
      return {a, b};
    }
    view_->on_mapped_fault(guard.fault_addr());
    __builtin_unreachable();  // noreturn through a virtual call
  }

  // Copies one edge blob out of the mapping under a SIGBUS guard; the
  // decoder then runs on the owned copy, unguarded (it allocates).
  // Prepare-time only (<= f blobs per fault set), so the copy is off
  // the per-query path.
  std::vector<std::uint8_t> copy_edge_blob(EdgeId e) const {
    FTC_REQUIRE(e < routes_.num_edges, "edge out of range");
    const std::uint8_t* src = routes_.edge_ptr[e];
    std::vector<std::uint8_t> out(routes_.edge_blob_bytes);
    util::SigbusGuard guard;
    if (sigsetjmp(guard.jump(), 0) == 0) {
      guard.arm();
      std::memcpy(out.data(), src, out.size());
      return out;
    }
    view_->on_mapped_fault(guard.fault_addr());
    __builtin_unreachable();  // noreturn through a virtual call
  }

  std::shared_ptr<const StoreView> view_;
  // Bound once: load_scheme() refuses views with null entries, so the
  // hot path reads it unchecked.
  const store::FlatRoutes& routes_;
  std::unique_ptr<AdjacencyProvider> adjacency_;  // null: v1 container
};

class StoredCoreScheme final : public StoredSchemeBase {
 public:
  explicit StoredCoreScheme(std::shared_ptr<const StoreView> view)
      : StoredSchemeBase(std::move(view)) {
    store::ByteReader pr(view_->params_blob());
    params_ = store::decode_core_params(pr, view_->info().format_version,
                                        &level_bounds_);
  }

  BackendKind backend() const override { return BackendKind::kCoreFtc; }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<CoreStoredWorkspace>();
  }

  // Re-encode instead of re-emitting the stored blob: a v1 container's
  // core params carry no bounds fields, and save() always writes format
  // v2 (the re-encode emits count 0 then; for v2 inputs it reproduces
  // the stored bytes exactly, keeping re-saves byte-identical).
  void serialize_params(store::ByteWriter& out) const override {
    store::encode_core_params(params_, level_bounds_, out);
  }

 protected:
  std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const EdgeId> edge_faults) const override {
    std::vector<EdgeLabel> labels;
    labels.reserve(edge_faults.size());
    for (const EdgeId e : edge_faults) {
      labels.push_back(decode_edge(e));
    }
    // v2 containers carry the builder's per-level population bounds, so
    // store-served decodes run the same shrunken windows.
    auto prepared = PreparedFaults::prepare(labels, level_bounds_);
    const std::size_t nf = prepared.num_faults();
    return std::make_unique<CoreStoredFaults>(std::move(prepared), nf);
  }

  bool query_edges(VertexId s, VertexId t, const FaultSet& faults,
                   Workspace& workspace,
                   const QueryOptions& options) const override {
    const auto& fs = checked_cast<const CoreStoredFaults&>(
        faults, "fault set from a different backend");
    auto& ws = checked_cast<CoreStoredWorkspace&>(
        workspace, "workspace from a different backend");
    const auto [anc_s, anc_t] = anc_pair(s, t);
    return FtcDecoder::connected(VertexLabel{params_, anc_s},
                                 VertexLabel{params_, anc_t}, fs.prepared(),
                                 ws.inner(), options);
  }

 private:
  EdgeLabel decode_edge(EdgeId e) const {
    const std::vector<std::uint8_t> blob = copy_edge_blob(e);
    store::ByteReader r(blob);
    return store::decode_core_edge(r, params_);
  }

  LabelParams params_;
  std::vector<std::uint32_t> level_bounds_;  // empty for v1 containers
};

class StoredCycleScheme final : public StoredSchemeBase {
 public:
  explicit StoredCycleScheme(std::shared_ptr<const StoreView> view)
      : StoredSchemeBase(std::move(view)) {
    store::ByteReader pr(view_->params_blob());
    params_ = store::decode_cycle_params(pr);
  }

  BackendKind backend() const override {
    return BackendKind::kDp21CycleSpace;
  }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<EmptyStoredWorkspace>();
  }

 protected:
  std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const EdgeId> edge_faults) const override {
    std::vector<dp21::CsEdgeLabel> labels;
    labels.reserve(edge_faults.size());
    for (const EdgeId e : edge_faults) {
      labels.push_back(decode_edge(e));
    }
    return std::make_unique<CycleStoredFaults>(
        dp21::CycleSpaceFtc::Prepared::prepare(labels), labels.size());
  }

  bool query_edges(VertexId s, VertexId t, const FaultSet& faults,
                   Workspace& /*workspace*/,
                   const QueryOptions& /*options*/) const override {
    const auto& fs = checked_cast<const CycleStoredFaults&>(
        faults, "fault set from a different backend");
    const auto [anc_s, anc_t] = anc_pair(s, t);
    return dp21::CycleSpaceFtc::connected(dp21::CsVertexLabel{anc_s},
                                          dp21::CsVertexLabel{anc_t},
                                          fs.prepared());
  }

 private:
  dp21::CsEdgeLabel decode_edge(EdgeId e) const {
    const std::vector<std::uint8_t> blob = copy_edge_blob(e);
    store::ByteReader r(blob);
    return store::decode_cycle_edge(r, params_);
  }

  store::CycleParams params_;
};

class StoredAgmScheme final : public StoredSchemeBase {
 public:
  explicit StoredAgmScheme(std::shared_ptr<const StoreView> view)
      : StoredSchemeBase(std::move(view)) {
    store::ByteReader pr(view_->params_blob());
    params_ = store::decode_agm_params(pr);
  }

  BackendKind backend() const override { return BackendKind::kDp21Agm; }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<AgmStoredWorkspace>();
  }

 protected:
  std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const EdgeId> edge_faults) const override {
    std::vector<dp21::AgmEdgeLabel> labels;
    labels.reserve(edge_faults.size());
    for (const EdgeId e : edge_faults) {
      labels.push_back(decode_edge(e));
    }
    return std::make_unique<AgmStoredFaults>(
        dp21::AgmFtc::Prepared::prepare(labels), labels.size());
  }

  bool query_edges(VertexId s, VertexId t, const FaultSet& faults,
                   Workspace& workspace,
                   const QueryOptions& /*options*/) const override {
    const auto& fs = checked_cast<const AgmStoredFaults&>(
        faults, "fault set from a different backend");
    auto& ws = checked_cast<AgmStoredWorkspace&>(
        workspace, "workspace from a different backend");
    const auto [anc_s, anc_t] = anc_pair(s, t);
    return dp21::AgmFtc::connected(dp21::AgmVertexLabel{anc_s},
                                   dp21::AgmVertexLabel{anc_t},
                                   fs.prepared(), ws.inner());
  }

 private:
  dp21::AgmEdgeLabel decode_edge(EdgeId e) const {
    const std::vector<std::uint8_t> blob = copy_edge_blob(e);
    store::ByteReader r(blob);
    return store::decode_agm_edge(r, params_);
  }

  store::AgmParams params_;
};

}  // namespace

std::unique_ptr<ConnectivityScheme> load_scheme(
    std::shared_ptr<const StoreView> view) {
  FTC_REQUIRE(view != nullptr, "null label store view");
  view->require_complete();
  switch (view->info().backend) {
    case BackendKind::kCoreFtc:
      return std::make_unique<StoredCoreScheme>(std::move(view));
    case BackendKind::kDp21CycleSpace:
      return std::make_unique<StoredCycleScheme>(std::move(view));
    case BackendKind::kDp21Agm:
      return std::make_unique<StoredAgmScheme>(std::move(view));
  }
  FTC_CHECK(false, "unknown BackendKind in validated store");
  return nullptr;  // unreachable
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
