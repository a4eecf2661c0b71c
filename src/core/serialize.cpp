// Label codecs, two layers:
//
// 1. Bit-exact single-label serialization (the honest-size codec used by
//    the benches). The byte format is:
//      header: field_bits(u8) kind(u8) n_aux(u32) k(u32) num_levels(u32)
//      vertex labels: tin, tout at coord_bits each (bit-packed)
//      edge labels:   upper.tin, upper.tout, lower.tin, lower.tout at
//                     coord_bits each, then num_levels*k field elements as
//                     full 64-bit words.
//    Round-trips exactly; benches serialize labels to measure real sizes.
//
// 2. The LabelStore container blob codecs (label_store.hpp): byte-aligned
//    fixed-layout records for all three backends, where the scheme
//    parameters are stored once per container and every decode is
//    validated against them (mismatch -> StoreError, never UB).
#include <bit>
#include <cstring>
#include <span>

#include "core/ftc_labels.hpp"
#include "core/label_store.hpp"
#include "core/sharded_store.hpp"

namespace ftc::core {

namespace {

class BitWriter {
 public:
  void write(std::uint64_t value, unsigned bits) {
    FTC_REQUIRE(bits <= 64, "too many bits");
    for (unsigned i = 0; i < bits; ++i) {
      const bool bit = (value >> i) & 1;
      if (pos_ % 8 == 0) bytes_.push_back(0);
      if (bit) bytes_.back() |= static_cast<std::uint8_t>(1u << (pos_ % 8));
      ++pos_;
    }
  }

  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t read(unsigned bits) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < bits; ++i) {
      FTC_REQUIRE(pos_ / 8 < bytes_.size(), "serialized label truncated");
      const bool bit = (bytes_[pos_ / 8] >> (pos_ % 8)) & 1;
      if (bit) v |= std::uint64_t{1} << i;
      ++pos_;
    }
    return v;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

void write_header(BitWriter& w, const LabelParams& p) {
  w.write(p.field_bits, 8);
  w.write(p.kind, 8);
  w.write(p.n_aux, 32);
  w.write(p.k, 32);
  w.write(p.num_levels, 32);
}

LabelParams read_header(BitReader& r) {
  LabelParams p;
  p.field_bits = static_cast<std::uint8_t>(r.read(8));
  p.kind = static_cast<std::uint8_t>(r.read(8));
  p.n_aux = static_cast<std::uint32_t>(r.read(32));
  p.k = static_cast<std::uint32_t>(r.read(32));
  p.num_levels = static_cast<std::uint32_t>(r.read(32));
  FTC_REQUIRE(p.field_bits == 64 || p.field_bits == 128,
              "corrupt label header");
  return p;
}

}  // namespace

std::vector<std::uint8_t> serialize(const VertexLabel& label) {
  BitWriter w;
  write_header(w, label.params);
  const unsigned cb = label.params.coord_bits();
  w.write(label.anc.tin, cb);
  w.write(label.anc.tout, cb);
  return w.take();
}

std::vector<std::uint8_t> serialize(const EdgeLabel& label) {
  BitWriter w;
  write_header(w, label.params);
  const unsigned cb = label.params.coord_bits();
  w.write(label.upper.tin, cb);
  w.write(label.upper.tout, cb);
  w.write(label.lower.tin, cb);
  w.write(label.lower.tout, cb);
  const std::size_t expect = static_cast<std::size_t>(label.params.num_levels) *
                             label.params.k * label.params.words_per_elem();
  FTC_REQUIRE(label.sketch_words.size() == expect,
              "edge label payload inconsistent with parameters");
  for (const std::uint64_t word : label.sketch_words) w.write(word, 64);
  return w.take();
}

VertexLabel deserialize_vertex_label(std::span<const std::uint8_t> bytes) {
  BitReader r(bytes);
  VertexLabel label;
  label.params = read_header(r);
  const unsigned cb = label.params.coord_bits();
  label.anc.tin = static_cast<std::uint32_t>(r.read(cb));
  label.anc.tout = static_cast<std::uint32_t>(r.read(cb));
  return label;
}

EdgeLabel deserialize_edge_label(std::span<const std::uint8_t> bytes) {
  BitReader r(bytes);
  EdgeLabel label;
  label.params = read_header(r);
  const unsigned cb = label.params.coord_bits();
  label.upper.tin = static_cast<std::uint32_t>(r.read(cb));
  label.upper.tout = static_cast<std::uint32_t>(r.read(cb));
  label.lower.tin = static_cast<std::uint32_t>(r.read(cb));
  label.lower.tout = static_cast<std::uint32_t>(r.read(cb));
  const std::size_t expect = static_cast<std::size_t>(label.params.num_levels) *
                             label.params.k * label.params.words_per_elem();
  label.sketch_words.resize(expect);
  for (std::uint64_t& word : label.sketch_words) word = r.read(64);
  return label;
}

// ------------------------------------------------------------------
// LabelStore container blob codecs.

namespace store {

namespace {

// Caps on decoded parameters, so a corrupt params blob (with checksum
// verification disabled) cannot demand absurd allocations. Generous:
// far above anything the builders produce.
constexpr std::uint32_t kMaxCoordBits = 32;
constexpr std::uint32_t kMaxSketchDim = 1u << 24;

void check(bool ok, const char* what) {
  if (!ok) throw StoreError(what);
}

// Label payloads are u64 words, the bulk of every edge blob: on a
// little-endian host the words already are the on-disk bytes, so they
// move as one block instead of a per-word loop — the hottest loops of
// save, digest and prepare_faults, whose speed swung with where the
// linker placed them.
void put_words(ByteWriter& w, std::span<const std::uint64_t> words) {
  if constexpr (std::endian::native == std::endian::little) {
    w.bytes({reinterpret_cast<const std::uint8_t*>(words.data()),
             words.size() * sizeof(std::uint64_t)});
  } else {
    for (const std::uint64_t word : words) w.u64(word);
  }
}

void get_words(ByteReader& r, std::span<std::uint64_t> words) {
  const auto bytes = r.take(words.size() * sizeof(std::uint64_t));
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(words.data(), bytes.data(), bytes.size());
  } else {
    ByteReader le(bytes);
    for (std::uint64_t& word : words) word = le.u64();
  }
}

}  // namespace

void encode_core_params(const LabelParams& p,
                        std::span<const std::uint32_t> level_bounds,
                        ByteWriter& w) {
  w.u8(p.field_bits);
  w.u8(p.kind);
  w.u8(0);
  w.u8(0);
  w.u32(p.n_aux);
  w.u32(p.k);
  w.u32(p.num_levels);
  // v2 trailer: per-level sketch population bounds. Count is 0 (no
  // bounds, e.g. a re-saved v1 store) or exactly num_levels.
  FTC_REQUIRE(level_bounds.empty() || level_bounds.size() == p.num_levels,
              "level bounds inconsistent with the label hierarchy");
  w.u32(static_cast<std::uint32_t>(level_bounds.size()));
  for (const std::uint32_t b : level_bounds) {
    FTC_REQUIRE(b <= p.k, "level bound exceeds sketch capacity");
    w.u32(b);
  }
}

LabelParams decode_core_params(ByteReader& r, std::uint32_t format_version,
                               std::vector<std::uint32_t>* bounds_out) {
  LabelParams p;
  p.field_bits = r.u8();
  p.kind = r.u8();
  r.u8();
  r.u8();
  p.n_aux = r.u32();
  p.k = r.u32();
  p.num_levels = r.u32();
  check(p.field_bits == 64 || p.field_bits == 128,
        "corrupt core-ftc params: bad field width");
  check(p.k <= kMaxSketchDim && p.num_levels <= kMaxSketchDim,
        "corrupt core-ftc params: implausible sketch dimensions");
  if (bounds_out != nullptr) bounds_out->clear();
  if (format_version >= 2) {
    const std::uint32_t count = r.u32();
    check(count == 0 || count == p.num_levels,
          "corrupt core-ftc params: bad level-bound count");
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint32_t b = r.u32();
      check(b <= p.k, "corrupt core-ftc params: level bound exceeds k");
      if (bounds_out != nullptr) bounds_out->push_back(b);
    }
  }
  return p;
}

void encode_cycle_params(const CycleParams& p, ByteWriter& w) {
  w.u32(p.coord_bits);
  w.u32(p.vector_bits);
}

CycleParams decode_cycle_params(ByteReader& r) {
  CycleParams p;
  p.coord_bits = r.u32();
  p.vector_bits = r.u32();
  check(p.coord_bits >= 1 && p.coord_bits <= kMaxCoordBits,
        "corrupt dp21-cycle params: bad coordinate width");
  check(p.vector_bits >= 1 && p.vector_bits <= kMaxSketchDim,
        "corrupt dp21-cycle params: bad vector width");
  return p;
}

void encode_agm_params(const AgmParams& p, ByteWriter& w) {
  w.u32(p.coord_bits);
  w.u32(p.levels);
  w.u32(p.reps);
  w.u32(0);
  w.u64(p.seed);
}

AgmParams decode_agm_params(ByteReader& r) {
  AgmParams p;
  p.coord_bits = r.u32();
  p.levels = r.u32();
  p.reps = r.u32();
  r.u32();
  p.seed = r.u64();
  check(p.coord_bits >= 1 && p.coord_bits <= kMaxCoordBits,
        "corrupt dp21-agm params: bad coordinate width");
  check(p.levels >= 1 && p.levels <= kMaxSketchDim && p.reps >= 1 &&
            p.reps <= kMaxSketchDim,
        "corrupt dp21-agm params: bad sketch dimensions");
  return p;
}

void encode_vertex_record(const graph::AncestryLabel& anc, ByteWriter& w) {
  w.u32(anc.tin);
  w.u32(anc.tout);
}

graph::AncestryLabel decode_vertex_record(ByteReader& r) {
  graph::AncestryLabel anc;
  anc.tin = r.u32();
  anc.tout = r.u32();
  return anc;
}

void encode_core_edge(const EdgeLabel& label, ByteWriter& w) {
  const std::size_t expect = static_cast<std::size_t>(label.params.num_levels) *
                             label.params.k * label.params.words_per_elem();
  FTC_REQUIRE(label.sketch_words.size() == expect,
              "edge label payload inconsistent with parameters");
  w.u32(label.upper.tin);
  w.u32(label.upper.tout);
  w.u32(label.lower.tin);
  w.u32(label.lower.tout);
  put_words(w, label.sketch_words);
}

EdgeLabel decode_core_edge(ByteReader& r, const LabelParams& params) {
  EdgeLabel label;
  label.params = params;
  label.upper.tin = r.u32();
  label.upper.tout = r.u32();
  label.lower.tin = r.u32();
  label.lower.tout = r.u32();
  const std::size_t expect = static_cast<std::size_t>(params.num_levels) *
                             params.k * params.words_per_elem();
  label.sketch_words.resize(expect);
  get_words(r, label.sketch_words);
  return label;
}

std::size_t core_edge_blob_bytes(const LabelParams& params) {
  return 16 + 8 * static_cast<std::size_t>(params.num_levels) * params.k *
                  params.words_per_elem();
}

void encode_cycle_edge(const dp21::CsEdgeLabel& label, ByteWriter& w) {
  w.u8(label.is_tree ? 1 : 0);
  w.u8(0);
  w.u8(0);
  w.u8(0);
  w.u32(label.a.tin);
  w.u32(label.a.tout);
  w.u32(label.b.tin);
  w.u32(label.b.tout);
  put_words(w, label.vec);
}

dp21::CsEdgeLabel decode_cycle_edge(ByteReader& r, const CycleParams& params) {
  dp21::CsEdgeLabel label;
  const std::uint8_t flags = r.u8();
  check(flags <= 1, "corrupt dp21-cycle edge blob: bad flags");
  label.is_tree = flags != 0;
  r.u8();
  r.u8();
  r.u8();
  label.a.tin = r.u32();
  label.a.tout = r.u32();
  label.b.tin = r.u32();
  label.b.tout = r.u32();
  label.vec.resize(params.vector_words());
  get_words(r, label.vec);
  return label;
}

std::size_t cycle_edge_blob_bytes(const CycleParams& params) {
  return 20 + 8 * params.vector_words();
}

void encode_agm_edge(const dp21::AgmEdgeLabel& label, ByteWriter& w) {
  w.u32(label.upper.tin);
  w.u32(label.upper.tout);
  w.u32(label.lower.tin);
  w.u32(label.lower.tout);
  std::vector<std::uint64_t> words;
  label.sketch.append_words(words);
  put_words(w, words);
}

dp21::AgmEdgeLabel decode_agm_edge(ByteReader& r, const AgmParams& params) {
  dp21::AgmEdgeLabel label;
  label.upper.tin = r.u32();
  label.upper.tout = r.u32();
  label.lower.tin = r.u32();
  label.lower.tout = r.u32();
  std::vector<std::uint64_t> words(params.sketch_words());
  get_words(r, words);
  label.sketch = sketch::AgmSketch::from_words(params.levels, params.reps,
                                               params.seed, words);
  return label;
}

std::size_t agm_edge_blob_bytes(const AgmParams& params) {
  return 16 + 8 * params.sketch_words();
}

// ------------------------------------------------------------------
// Sharded-manifest shard-table records (sharded_store.hpp). Fixed
// 48-byte range/digest prefix, u32 name length, name bytes, zero pad to
// an 8-byte record boundary — records always start 8-aligned in the
// manifest, so ByteWriter::pad_to(8) lands on the record boundary.

void encode_shard_record(const ShardRecord& rec, ByteWriter& w) {
  FTC_REQUIRE(w.size() % 8 == 0, "shard record must start 8-aligned");
  FTC_REQUIRE(!rec.name.empty() && rec.name.size() <= kMaxShardNameBytes,
              "shard name length out of range");
  w.u64(rec.vertex_begin);
  w.u64(rec.vertex_end);
  w.u64(rec.edge_begin);
  w.u64(rec.edge_end);
  w.u64(rec.file_bytes);
  w.u64(rec.payload_digest);
  w.u32(static_cast<std::uint32_t>(rec.name.size()));
  w.bytes(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(rec.name.data()),
      rec.name.size()));
  w.pad_to(8);
}

ShardRecord decode_shard_record(ByteReader& r) {
  ShardRecord rec;
  rec.vertex_begin = r.u64();
  rec.vertex_end = r.u64();
  rec.edge_begin = r.u64();
  rec.edge_end = r.u64();
  rec.file_bytes = r.u64();
  rec.payload_digest = r.u64();
  const std::uint32_t len = r.u32();
  if (len == 0 || len > kMaxShardNameBytes) {
    throw StoreError("corrupt manifest (shard name length out of range)");
  }
  const auto name = r.take(len);
  rec.name.assign(name.begin(), name.end());
  for (const std::uint8_t b : r.take((8 - ((4 + len) % 8)) % 8)) {
    if (b != 0) throw StoreError("corrupt manifest (shard record padding)");
  }
  return rec;
}

}  // namespace store

}  // namespace ftc::core
