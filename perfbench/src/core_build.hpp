// The core-ftc scheme as make_scheme() builds it, with its BuildStats in
// reach.
//
// make_scheme(g, config) for BackendKind::kCoreFtc wraps exactly one
// FtcScheme::build(g, config.ftc) behind a ConnectivityScheme whose
// BuildStats are private. The benchmark attributes build phase times
// (hierarchy, sketch) to the very build call it times, so it makes that
// one call itself and wraps the result the same way: same labels, same
// params blob, same adjacency, hence byte-identical stores. The smoke
// run proves the stores identical by payload digest.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/connectivity_scheme.hpp"
#include "core/ftc_scheme.hpp"
#include "core/label_store.hpp"

namespace perfbench {

class BuiltCoreScheme final : public ftc::core::ConnectivityScheme {
 public:
  BuiltCoreScheme(const ftc::graph::Graph& g,
                  const ftc::core::FtcConfig& config)
      : adjacency_(g), scheme_(ftc::core::FtcScheme::build(g, config)) {}

  const ftc::core::BuildStats& build_stats() const {
    return scheme_.build_stats();
  }

  ftc::core::BackendKind backend() const override {
    return ftc::core::BackendKind::kCoreFtc;
  }
  ftc::graph::VertexId num_vertices() const override {
    return scheme_.num_vertices();
  }
  ftc::graph::EdgeId num_edges() const override { return scheme_.num_edges(); }
  std::size_t vertex_label_bits() const override {
    return scheme_.vertex_label_bits();
  }
  std::size_t edge_label_bits() const override {
    return scheme_.edge_label_bits();
  }
  std::size_t total_label_bits() const override {
    return scheme_.total_label_bits();
  }
  const ftc::core::AdjacencyProvider* adjacency() const override {
    return &adjacency_;
  }

  std::unique_ptr<Workspace> make_workspace() const override {
    return std::make_unique<CoreWorkspace>();
  }

  void serialize_params(ftc::core::store::ByteWriter& out) const override {
    ftc::core::store::encode_core_params(scheme_.params(),
                                         scheme_.level_populations(), out);
  }
  void serialize_vertex_label(ftc::graph::VertexId v,
                              ftc::core::store::ByteWriter& out) const override {
    ftc::core::store::encode_vertex_record(scheme_.vertex_label(v).anc, out);
  }
  void serialize_edge_label(ftc::graph::EdgeId e,
                            ftc::core::store::ByteWriter& out) const override {
    ftc::core::store::encode_core_edge(scheme_.edge_label(e), out);
  }

 protected:
  std::unique_ptr<FaultSet> prepare_edge_faults(
      std::span<const ftc::graph::EdgeId> edge_faults) const override {
    std::vector<ftc::core::EdgeLabel> labels;
    labels.reserve(edge_faults.size());
    for (const ftc::graph::EdgeId e : edge_faults) {
      labels.push_back(scheme_.edge_label(e));
    }
    auto fs = std::make_unique<CoreFaults>(ftc::core::PreparedFaults::prepare(
        labels, scheme_.level_populations()));
    return fs;
  }

  bool query_edges(ftc::graph::VertexId s, ftc::graph::VertexId t,
                   const FaultSet& faults, Workspace& workspace,
                   const ftc::core::QueryOptions& options) const override {
    return ftc::core::FtcDecoder::connected(
        scheme_.vertex_label(s), scheme_.vertex_label(t),
        static_cast<const CoreFaults&>(faults).prepared,
        static_cast<CoreWorkspace&>(workspace).inner, options);
  }

 private:
  struct CoreFaults final : FaultSet {
    explicit CoreFaults(ftc::core::PreparedFaults p) : prepared(std::move(p)) {}
    std::size_t num_faults() const override { return prepared.num_faults(); }
    ftc::core::PreparedFaults prepared;
  };
  struct CoreWorkspace final : Workspace {
    ftc::core::DecoderWorkspace inner;
  };

  ftc::core::VectorAdjacency adjacency_;
  ftc::core::FtcScheme scheme_;
};

}  // namespace perfbench
