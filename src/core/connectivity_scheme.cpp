#include "core/connectivity_scheme.hpp"

#include <algorithm>
#include <csetjmp>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/ftc_scheme.hpp"
#include "core/journal.hpp"
#include "core/label_store.hpp"
#include "util/sigbus_guard.hpp"

namespace ftc::core {

// ------------------------------------------------------------------
// Base-class fault model: every public entry point funnels through here,
// so validation, the vertex -> incident-edges reduction and the
// endpoint-deletion rule are identical across all backends and serving
// paths (in-memory, store-served, batch engine, oracle, CLI).

std::unique_ptr<ConnectivityScheme::FaultSet>
ConnectivityScheme::prepare_faults(const FaultSpec& spec) const {
  const graph::EdgeId m = num_edges();
  const graph::VertexId n = num_vertices();
  for (const graph::EdgeId e : spec.edge_faults()) {
    FTC_REQUIRE(e < m, "fault edge out of range");
  }
  for (const graph::VertexId v : spec.vertex_faults()) {
    FTC_REQUIRE(v < n, "fault vertex out of range");
  }

  std::vector<graph::EdgeId> edges(spec.edge_faults().begin(),
                                   spec.edge_faults().end());
  if (spec.has_vertex_faults()) {
    const AdjacencyProvider* adj = adjacency();
    if (adj == nullptr) {
      throw CapabilityError(
          "vertex faults need adjacency, which this scheme does not carry "
          "(e.g. it was loaded from a format-v1 label store; rebuild or "
          "re-save as format v2 with the adjacency side-table)");
    }
    // The Section 1.4 reduction: a faulty vertex becomes its incident
    // edges — Delta * f labels in the worst case.
    for (const graph::VertexId v : spec.vertex_faults()) {
      adj->append_incident(v, edges);
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }

  if (journal_ != nullptr) {
    // Fold the journaled deletions in: a deleted edge is a permanent
    // fault, so every query answers against journal union query faults
    // — sound from the unchanged labels as long as the merged set stays
    // within the fault budget f the journal was created with. Past it,
    // refuse typed (the labels promise nothing there) instead of
    // risking a wrong answer.
    const auto del = journal_->deleted_edges();
    FTC_REQUIRE(del.empty() || del.back() < m,
                "journaled deletion out of range for this scheme");
    edges.insert(edges.end(), del.begin(), del.end());
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    if (edges.size() > journal_->fault_budget()) {
      throw CapacityError(
          "query faults plus journaled deletions exceed the fault budget",
          journal_->fault_budget(), journal_->occupancy(), edges.size());
    }
  }

  auto fault_set = prepare_edge_faults(edges);
  FTC_CHECK(fault_set != nullptr, "backend returned a null fault set");
  fault_set->vertex_faults_.assign(spec.vertex_faults().begin(),
                                   spec.vertex_faults().end());
  return fault_set;
}

bool ConnectivityScheme::query(graph::VertexId s, graph::VertexId t,
                               const FaultSet& faults, Workspace& workspace,
                               const QueryOptions& options) const {
  FTC_REQUIRE(s < num_vertices() && t < num_vertices(),
              "query vertex out of range");
  // A vertex is connected to itself even when deleted; a deleted
  // endpoint is disconnected from everything else.
  if (s == t) return true;
  const auto deleted = [&](graph::VertexId v) {
    const auto vf = faults.vertex_faults();
    return std::binary_search(vf.begin(), vf.end(), v);
  };
  if (deleted(s) || deleted(t)) return false;
  return query_edges(s, t, faults, workspace, options);
}

bool ConnectivityScheme::connected(graph::VertexId s, graph::VertexId t,
                                   const FaultSpec& spec,
                                   const QueryOptions& options) const {
  const auto faults = prepare_faults(spec);
  const auto workspace = make_workspace();
  return query(s, t, *faults, *workspace, options);
}

namespace {

using graph::AncestryLabel;
using graph::EdgeId;
using graph::VertexId;

// ------------------------------------------------------------------
// Backend traits. Each labeling backend is described once: its label
// and session types, how a vertex label is formed from an ancestry
// record, its prepare and decode calls, and its params / edge-label
// codecs (implemented in serialize.cpp). The two label sources and the
// one adapter below serve every backend, built or store-served, and
// visit_backend() is the one switch over BackendKind.

// Scratch of a backend whose decoder needs none (dp21 cycle-space: the
// prepared kernel is read-only).
struct NoScratch {};

struct CoreTraits {
  static constexpr BackendKind kKind = BackendKind::kCoreFtc;
  using Built = FtcScheme;
  using Config = FtcConfig;
  using EdgeLabel = core::EdgeLabel;
  using Prepared = PreparedFaults;
  using Scratch = DecoderWorkspace;
  // The builder's per-level population bounds ride along (format v2;
  // empty for v1 containers), so store-served decodes run the same
  // shrunken windows as in-memory ones.
  struct Params {
    LabelParams label;
    std::vector<std::uint32_t> level_bounds;
  };

  static const Config& config(const SchemeConfig& c) { return c.ftc; }
  static Params params(const Built& b) {
    const auto bounds = b.level_populations();
    return {b.params(), {bounds.begin(), bounds.end()}};
  }
  static VertexLabel vertex(const AncestryLabel& anc, const Params& p) {
    return {p.label, anc};
  }
  static Prepared prepare(std::span<const EdgeLabel> labels,
                          const Params& p) {
    return PreparedFaults::prepare(labels, p.level_bounds);
  }
  // prepare() also merges faults that share a tree edge.
  static std::size_t num_faults(const Prepared& prepared, std::size_t) {
    return prepared.num_faults();
  }
  static bool connected(const VertexLabel& s, const VertexLabel& t,
                        const Prepared& faults, Scratch& scratch,
                        const QueryOptions& options) {
    return FtcDecoder::connected(s, t, faults, scratch, options);
  }

  static Params decode_params(store::ByteReader& r, std::uint32_t version) {
    Params p;
    p.label = store::decode_core_params(r, version, &p.level_bounds);
    return p;
  }
  // A v1 blob has no bounds fields; its re-encode writes count 0, so a
  // loaded v1 store re-saves as a valid format-v2 container.
  static void encode_params(const Params& p, store::ByteWriter& w) {
    store::encode_core_params(p.label, p.level_bounds, w);
  }
  static void encode_edge(const EdgeLabel& label, store::ByteWriter& w) {
    store::encode_core_edge(label, w);
  }
  static EdgeLabel decode_edge(store::ByteReader& r, const Params& p) {
    return store::decode_core_edge(r, p.label);
  }
  static std::size_t edge_blob_bytes(const Params& p) {
    return store::core_edge_blob_bytes(p.label);
  }
  static store::StoreLabelBits label_bits(const Params& p) {
    const std::size_t cb = p.label.coord_bits();
    return {2 * cb, 4 * cb + std::size_t{p.label.num_levels} * p.label.k *
                                 p.label.field_bits};
  }
};

struct CycleTraits {
  static constexpr BackendKind kKind = BackendKind::kDp21CycleSpace;
  using Built = dp21::CycleSpaceFtc;
  using Config = dp21::CycleSpaceConfig;
  using EdgeLabel = dp21::CsEdgeLabel;
  using Prepared = dp21::CycleSpaceFtc::Prepared;
  using Scratch = NoScratch;
  using Params = store::CycleParams;

  static const Config& config(const SchemeConfig& c) { return c.cycle; }
  static Params params(const Built& b) {
    return {b.coord_bits(), b.vector_bits()};
  }
  static dp21::CsVertexLabel vertex(const AncestryLabel& anc,
                                    const Params&) {
    return {anc};
  }
  static Prepared prepare(std::span<const EdgeLabel> labels, const Params&) {
    return Prepared::prepare(labels);
  }
  static std::size_t num_faults(const Prepared&, std::size_t labels) {
    return labels;
  }
  static bool connected(const dp21::CsVertexLabel& s,
                        const dp21::CsVertexLabel& t, const Prepared& faults,
                        Scratch&, const QueryOptions&) {
    return Built::connected(s, t, faults);
  }

  static Params decode_params(store::ByteReader& r, std::uint32_t) {
    return store::decode_cycle_params(r);
  }
  static void encode_params(const Params& p, store::ByteWriter& w) {
    store::encode_cycle_params(p, w);
  }
  static void encode_edge(const EdgeLabel& label, store::ByteWriter& w) {
    store::encode_cycle_edge(label, w);
  }
  static EdgeLabel decode_edge(store::ByteReader& r, const Params& p) {
    return store::decode_cycle_edge(r, p);
  }
  static std::size_t edge_blob_bytes(const Params& p) {
    return store::cycle_edge_blob_bytes(p);
  }
  static store::StoreLabelBits label_bits(const Params& p) {
    return {2 * p.coord_bits, 4 * p.coord_bits + p.vector_bits + 1};
  }
};

struct AgmTraits {
  static constexpr BackendKind kKind = BackendKind::kDp21Agm;
  using Built = dp21::AgmFtc;
  using Config = dp21::AgmFtcConfig;
  using EdgeLabel = dp21::AgmEdgeLabel;
  using Prepared = dp21::AgmFtc::Prepared;
  using Scratch = dp21::AgmFtc::Workspace;
  using Params = store::AgmParams;

  static const Config& config(const SchemeConfig& c) { return c.agm; }
  static Params params(const Built& b) {
    return {b.coord_bits(), b.sketch_levels(), b.sketch_reps(),
            b.sketch_seed()};
  }
  static dp21::AgmVertexLabel vertex(const AncestryLabel& anc,
                                     const Params&) {
    return {anc};
  }
  static Prepared prepare(std::span<const EdgeLabel> labels, const Params&) {
    return Prepared::prepare(labels);
  }
  static std::size_t num_faults(const Prepared&, std::size_t labels) {
    return labels;
  }
  static bool connected(const dp21::AgmVertexLabel& s,
                        const dp21::AgmVertexLabel& t,
                        const Prepared& faults, Scratch& scratch,
                        const QueryOptions&) {
    return Built::connected(s, t, faults, scratch);
  }

  static Params decode_params(store::ByteReader& r, std::uint32_t) {
    return store::decode_agm_params(r);
  }
  static void encode_params(const Params& p, store::ByteWriter& w) {
    store::encode_agm_params(p, w);
  }
  static void encode_edge(const EdgeLabel& label, store::ByteWriter& w) {
    store::encode_agm_edge(label, w);
  }
  static EdgeLabel decode_edge(store::ByteReader& r, const Params& p) {
    return store::decode_agm_edge(r, p);
  }
  static std::size_t edge_blob_bytes(const Params& p) {
    return store::agm_edge_blob_bytes(p);
  }
  static store::StoreLabelBits label_bits(const Params& p) {
    return {2 * p.coord_bits, 4 * p.coord_bits + p.sketch_words() * 64};
  }
};

// Calls fn with the traits of `kind`: the only BackendKind switch of
// the scheme factories and the store's params checks.
template <typename Fn>
auto visit_backend(BackendKind kind, Fn&& fn) {
  switch (kind) {
    case BackendKind::kCoreFtc:
      return fn(CoreTraits{});
    case BackendKind::kDp21CycleSpace:
      return fn(CycleTraits{});
    case BackendKind::kDp21Agm:
      return fn(AgmTraits{});
  }
  FTC_REQUIRE(false, "unknown BackendKind");
  __builtin_unreachable();
}

// ------------------------------------------------------------------
// Label sources: where a scheme's labels live. Both give the adapter
// the same surface — dimensions, adjacency, params, the two endpoint
// ancestry records of a query, one fault edge's label — plus the
// per-label serialization save() streams.

// Built labels: the backend's in-memory construction plus the graph's
// incidence lists (the store persists them as the format-v2 adjacency
// section).
template <typename B>
class BuiltSource {
 public:
  BuiltSource(const graph::Graph& g, const typename B::Config& config)
      : adjacency_(g),
        built_(B::Built::build(g, config)),
        params_(B::params(built_)),
        num_vertices_(g.num_vertices()),
        num_edges_(g.num_edges()) {}

  VertexId num_vertices() const { return num_vertices_; }
  EdgeId num_edges() const { return num_edges_; }
  const AdjacencyProvider* adjacency() const { return &adjacency_; }
  std::shared_ptr<const StoreView> store_view() const { return nullptr; }
  const typename B::Params& params() const { return params_; }

  std::pair<AncestryLabel, AncestryLabel> anc_pair(VertexId s,
                                                   VertexId t) const {
    return {built_.vertex_label(s).anc, built_.vertex_label(t).anc};
  }
  typename B::EdgeLabel edge_label(EdgeId e) const {
    return built_.edge_label(e);
  }

  void serialize_vertex_label(VertexId v, store::ByteWriter& out) const {
    store::encode_vertex_record(built_.vertex_label(v).anc, out);
  }
  void serialize_edge_label(EdgeId e, store::ByteWriter& out) const {
    B::encode_edge(built_.edge_label(e), out);
  }

 private:
  VectorAdjacency adjacency_;
  typename B::Built built_;
  typename B::Params params_;
  VertexId num_vertices_;
  EdgeId num_edges_;
};

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

// Store-served labels: the mapping, the decoded params, the adjacency
// side-table (when the container carries one) and save() support by
// re-emitting the stored label blobs. Holds no graph and no
// construction state. A query reads two 8-byte vertex records from the
// mapping; only the <= f fault-edge labels of a session are decoded,
// once, inside prepare_faults().
template <typename B>
class StoredSource {
 public:
  explicit StoredSource(std::shared_ptr<const StoreView> view)
      : view_(std::move(view)), routes_(view_->routes()) {
    if (view_->info().has_adjacency) {
      adjacency_ = std::make_unique<MappedAdjacency>(view_);
    }
    store::ByteReader r(view_->params_blob());
    params_ = B::decode_params(r, view_->info().format_version);
  }

  VertexId num_vertices() const { return view_->info().num_vertices; }
  EdgeId num_edges() const { return view_->info().num_edges; }
  // Vertex-fault capability is exactly "the container had the side-table".
  const AdjacencyProvider* adjacency() const { return adjacency_.get(); }
  // The backing view, so a swap can thread the serving generation's
  // mappings through open_store_view(path, verify, reuse_from) and adopt
  // unchanged shards across a delta push.
  std::shared_ptr<const StoreView> store_view() const { return view_; }
  const typename B::Params& params() const { return params_; }

  // Both endpoint ancestry records under ONE SIGBUS guard — the only
  // mapped reads of an edge-fault query. A backing file mutated behind
  // the mapping lands in on_mapped_fault (the sharded view quarantines
  // the shard and throws DegradedError) instead of killing the process.
  // Cost when nothing faults: one sigsetjmp with no mask save — noise
  // against the decode the query then runs.
  std::pair<AncestryLabel, AncestryLabel> anc_pair(VertexId s,
                                                   VertexId t) const {
    FTC_REQUIRE(s < routes_.num_vertices, "vertex out of range");
    FTC_REQUIRE(t < routes_.num_vertices, "vertex out of range");
    const std::uint8_t* ps = routes_.vertex_ptr[s];
    const std::uint8_t* pt = routes_.vertex_ptr[t];
    util::SigbusGuard guard;
    if (sigsetjmp(guard.jump(), 0) == 0) {
      guard.arm();
      const AncestryLabel a = store::decode_vertex_record_at(ps);
      const AncestryLabel b = store::decode_vertex_record_at(pt);
      return {a, b};
    }
    view_->on_mapped_fault(guard.fault_addr());
    __builtin_unreachable();  // noreturn through a virtual call
  }

  typename B::EdgeLabel edge_label(EdgeId e) const {
    const std::vector<std::uint8_t> blob = copy_edge_blob(e);
    store::ByteReader r(blob);
    return B::decode_edge(r, params_);
  }

  void serialize_vertex_label(VertexId v, store::ByteWriter& out) const {
    out.bytes(view_->vertex_blob(v));
  }
  void serialize_edge_label(EdgeId e, store::ByteWriter& out) const {
    out.bytes(view_->edge_blob(e));
  }

 private:
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
  typename B::Params params_;
};

// ------------------------------------------------------------------
// The adapter: one ConnectivityScheme per (backend, label source).
// Fault sets and workspaces are typed by the backend alone, exactly as
// the session state is: a built and a store-served scheme of one
// backend hold the same Prepared and scratch types.

template <typename B>
class BackendFaultSet final : public ConnectivityScheme::FaultSet {
 public:
  BackendFaultSet(typename B::Prepared prepared, std::size_t num_faults)
      : prepared_(std::move(prepared)), num_faults_(num_faults) {}

  std::size_t num_faults() const override { return num_faults_; }
  const typename B::Prepared& prepared() const { return prepared_; }

 private:
  typename B::Prepared prepared_;
  std::size_t num_faults_ = 0;
};

template <typename B>
class BackendWorkspace final : public ConnectivityScheme::Workspace {
 public:
  typename B::Scratch& scratch() { return scratch_; }

 private:
  typename B::Scratch scratch_;
};

// query_edges() is the hot path: the fault-set/workspace types are fixed
// when prepare_faults()/make_workspace() hand them out, so downcast
// statically and keep the RTTI check as a debug-only guard against
// mixing backends.
template <typename T, typename U>
T& checked_cast(U& obj, const char* what) {
#ifndef NDEBUG
  FTC_REQUIRE(dynamic_cast<std::remove_reference_t<T>*>(&obj) != nullptr,
              what);
#else
  (void)what;
#endif
  return static_cast<T&>(obj);
}

template <typename B, template <typename> class Source>
class LabelScheme final : public ConnectivityScheme {
 public:
  template <typename... Args>
  explicit LabelScheme(Args&&... args)
      : source_(std::forward<Args>(args)...) {}

  BackendKind backend() const override { return B::kKind; }
  VertexId num_vertices() const override { return source_.num_vertices(); }
  EdgeId num_edges() const override { return source_.num_edges(); }
  // From the params alone, as the store reader derives them.
  std::size_t vertex_label_bits() const override {
    return B::label_bits(source_.params()).vertex_label_bits;
  }
  std::size_t edge_label_bits() const override {
    return B::label_bits(source_.params()).edge_label_bits;
  }
  const AdjacencyProvider* adjacency() const override {
    return source_.adjacency();
  }
  std::shared_ptr<const StoreView> store_view() const override {
    return source_.store_view();
  }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<BackendWorkspace<B>>();
  }

  void serialize_params(store::ByteWriter& out) const override {
    B::encode_params(source_.params(), out);
  }
  void serialize_vertex_label(VertexId v,
                              store::ByteWriter& out) const override {
    source_.serialize_vertex_label(v, out);
  }
  void serialize_edge_label(EdgeId e, store::ByteWriter& out) const override {
    source_.serialize_edge_label(e, out);
  }

 protected:
  std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const EdgeId> edge_faults) const override {
    std::vector<typename B::EdgeLabel> labels;
    labels.reserve(edge_faults.size());
    for (const EdgeId e : edge_faults) {
      labels.push_back(source_.edge_label(e));
    }
    auto prepared = B::prepare(labels, source_.params());
    const std::size_t nf = B::num_faults(prepared, labels.size());
    return std::make_unique<BackendFaultSet<B>>(std::move(prepared), nf);
  }

  bool query_edges(VertexId s, VertexId t, const FaultSet& faults,
                   Workspace& workspace,
                   const QueryOptions& options) const override {
    const auto& fs = checked_cast<const BackendFaultSet<B>&>(
        faults, "fault set from a different backend");
    auto& ws = checked_cast<BackendWorkspace<B>&>(
        workspace, "workspace from a different backend");
    const auto [anc_s, anc_t] = source_.anc_pair(s, t);
    return B::connected(B::vertex(anc_s, source_.params()),
                        B::vertex(anc_t, source_.params()), fs.prepared(),
                        ws.scratch(), options);
  }

 private:
  Source<B> source_;
};

}  // namespace

std::unique_ptr<ConnectivityScheme> make_scheme(const graph::Graph& g,
                                                const SchemeConfig& config) {
  return visit_backend(
      config.backend, [&](auto b) -> std::unique_ptr<ConnectivityScheme> {
        using B = decltype(b);
        return std::make_unique<LabelScheme<B, BuiltSource>>(
            g, B::config(config));
      });
}

std::unique_ptr<ConnectivityScheme> load_scheme(
    std::shared_ptr<const StoreView> view) {
  FTC_REQUIRE(view != nullptr, "null label store view");
  view->require_complete();
  return visit_backend(
      view->info().backend,
      [&](auto b) -> std::unique_ptr<ConnectivityScheme> {
        return std::make_unique<LabelScheme<decltype(b), StoredSource>>(
            std::move(view));
      });
}

namespace store {

std::size_t expected_edge_blob_bytes(BackendKind backend,
                                     std::span<const std::uint8_t> params,
                                     std::uint32_t version) {
  ByteReader r(params);
  const std::size_t expect = visit_backend(backend, [&](auto b) {
    using B = decltype(b);
    return B::edge_blob_bytes(B::decode_params(r, version));
  });
  if (r.remaining() != 0) {
    throw StoreError("params blob size inconsistent with backend");
  }
  return expect;
}

StoreLabelBits derive_label_bits(BackendKind backend,
                                 std::span<const std::uint8_t> params,
                                 std::uint32_t version) {
  ByteReader r(params);
  return visit_backend(backend, [&](auto b) {
    using B = decltype(b);
    return B::label_bits(B::decode_params(r, version));
  });
}

}  // namespace store

BackendKind parse_backend(std::string_view name) {
  for (const BackendKind b : kAllBackends) {
    if (name == backend_name(b)) return b;
  }
  if (name == "ftc" || name == "core") return BackendKind::kCoreFtc;
  if (name == "cycle" || name == "cs") return BackendKind::kDp21CycleSpace;
  if (name == "agm") return BackendKind::kDp21Agm;
  FTC_REQUIRE(false, "unknown backend name: " + std::string(name) +
                         " (expected core-ftc | dp21-cycle | dp21-agm)");
  return BackendKind::kCoreFtc;  // unreachable
}

}  // namespace ftc::core
