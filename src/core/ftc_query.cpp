#include "core/ftc_query.hpp"

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "core/edge_code.hpp"
#include "graph/fragments.hpp"
#include "graph/union_find.hpp"
#include "sketch/rs_sketch.hpp"
#include "util/xor_kernel.hpp"

namespace ftc::core {

namespace {

using graph::AncestryLabel;

}  // namespace

// Fault-set context shared by all queries: parameters, the fragment
// locator, and flattened per-fragment initial state, kept as raw
// std::uint64_t words so the XOR kernels (util/xor_kernel.hpp) apply and
// so the copy-on-write workspace can alias rows without knowing the field
// type. Fragment fr owns cut[fr * cut_words ..] and
// sum_words[fr * words_per_frag ..] (level-major, k syndromes per level,
// field_bits/64 words per syndrome).
struct PreparedFaults::Impl {
  LabelParams params;
  graph::FragmentLocator loc{std::vector<std::pair<std::uint32_t, std::uint32_t>>{}};
  std::size_t nf = 0;              // deduplicated fault count
  std::size_t cut_words = 0;       // bitset words per fragment
  std::size_t words_per_frag = 0;  // num_levels * k * (field_bits / 64)
  int num_frag = 0;
  std::vector<std::uint64_t> cut;
  std::vector<std::uint64_t> sum_words;
  // Initial |cut| per fragment, precomputed so the merge heap seeds
  // without re-popcounting prepared rows on every query.
  std::vector<unsigned> init_cut_size;
  // Optional sound per-level boundary-size bounds (empty = none); the
  // windowed decode clamps its capacity to min(k, bound) per level.
  std::vector<std::uint32_t> level_bounds;
};

// Scratch reused across queries on one thread. The fragment state is
// copy-on-write against PreparedFaults: a fragment's cut/sums row is
// copied into this workspace only when a merge first mutates it
// (frag_epoch[fr] == epoch marks a live materialization); reads of
// untouched fragments go straight to the immutable prepared arrays, and
// bumping `epoch` at query start invalidates every materialization in
// O(1). The word buffers carry no type, so one workspace serves either
// field width and any number of distinct PreparedFaults objects.
struct DecoderWorkspace::Impl {
  std::uint64_t epoch = 0;
  // Decode start hint: the previous round's support size within the
  // current query (boundaries change slowly across merges), seeding the
  // adaptive doubling threshold. Reset at query start.
  unsigned decode_hint = 0;
  std::vector<std::uint64_t> frag_epoch;  // per fragment: epoch when copied
  std::vector<std::uint64_t> cut;         // materialized cut rows
  std::vector<std::uint64_t> sum_words;   // materialized sum rows
  graph::UnionFind uf{0};
  std::vector<char> closed;
  std::vector<std::uint32_t> version;
  // (cut size, fragment, version) min-heap with lazy invalidation. Built
  // only in smallest-cut-first mode; source-first queries never pop it.
  std::vector<std::tuple<unsigned, int, std::uint32_t>> heap;
  // Allocation-free decode: per-field sketch scratch plus the reused
  // decoded-edge buffer decode_outgoing fills.
  sketch::SketchDecodeScratch<gf::GF2_64> scratch64;
  sketch::SketchDecodeScratch<gf::GF2_128> scratch128;
  std::vector<std::pair<AncestryLabel, AncestryLabel>> edges;
};

namespace {

template <typename F>
sketch::SketchDecodeScratch<F>& workspace_scratch(DecoderWorkspace::Impl& ws) {
  if constexpr (F::kWords == 1) {
    return ws.scratch64;
  } else {
    return ws.scratch128;
  }
}

std::unique_ptr<PreparedFaults::Impl> prepare_any(
    std::span<const EdgeLabel> faults,
    std::span<const std::uint32_t> level_bounds) {
  const LabelParams& params = faults[0].params;
  for (const EdgeLabel& f : faults) {
    FTC_REQUIRE(f.params == params, "fault labels from different schemes");
  }
  const unsigned k = params.k;
  const unsigned num_levels = params.num_levels;
  const std::size_t field_words = params.field_bits / 64;

  // Deduplicate faults: the lower endpoint identifies a tree edge.
  std::vector<const EdgeLabel*> uniq;
  uniq.reserve(faults.size());
  for (const EdgeLabel& f : faults) uniq.push_back(&f);
  std::sort(uniq.begin(), uniq.end(),
            [](const EdgeLabel* a, const EdgeLabel* b) {
              return a->lower.tin < b->lower.tin;
            });
  uniq.erase(std::unique(uniq.begin(), uniq.end(),
                         [](const EdgeLabel* a, const EdgeLabel* b) {
                           return a->lower.tin == b->lower.tin;
                         }),
             uniq.end());
  const std::size_t nf = uniq.size();

  // Fragment structure of T' - sigma(F) from the labels alone.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> intervals;
  intervals.reserve(nf);
  for (const EdgeLabel* f : uniq) {
    intervals.push_back({f->lower.tin, f->lower.tout});
  }
  graph::FragmentLocator loc(std::move(intervals));
  const int num_frag = loc.fragment_count();

  auto impl = std::make_unique<PreparedFaults::Impl>();
  impl->params = params;
  impl->nf = nf;
  impl->cut_words = (nf + 63) / 64;
  impl->words_per_frag =
      static_cast<std::size_t>(num_levels) * k * field_words;
  impl->num_frag = num_frag;

  // Per-fragment cut bitsets and sketch sums (Proposition 4): each fault
  // edge contributes its subtree sketch to the fragment below it and the
  // fragment above it. GF(2^w) addition is XOR, so the whole label
  // payload folds in as one word-level kernel call per fragment.
  impl->cut.assign(static_cast<std::size_t>(num_frag) * impl->cut_words, 0);
  impl->sum_words.assign(
      static_cast<std::size_t>(num_frag) * impl->words_per_frag, 0);
  for (std::size_t j = 0; j < nf; ++j) {
    const int below = loc.fragment_of_fault(j);
    const int above = loc.parent_fragment(below);
    FTC_CHECK(above >= 0, "fault fragment without parent");
    FTC_REQUIRE(uniq[j]->sketch_words.size() == impl->words_per_frag,
                "edge label sketch payload has wrong size");
    for (const int fr : {below, above}) {
      impl->cut[fr * impl->cut_words + j / 64] ^= std::uint64_t{1}
                                                  << (j % 64);
      xor_words(impl->sum_words.data() + fr * impl->words_per_frag,
                uniq[j]->sketch_words.data(), impl->words_per_frag);
    }
  }
  impl->init_cut_size.reserve(num_frag);
  for (int fr = 0; fr < num_frag; ++fr) {
    impl->init_cut_size.push_back(
        popcount_words(impl->cut.data() + fr * impl->cut_words,
                       impl->cut_words));
  }
  impl->loc = std::move(loc);
  if (!level_bounds.empty()) {
    FTC_REQUIRE(level_bounds.size() == num_levels,
                "level bounds inconsistent with the label hierarchy");
    impl->level_bounds.assign(level_bounds.begin(), level_bounds.end());
  }
  return impl;
}

// Decodes the outgoing edges of a fragment set from its per-level sketch
// sums: scan from the sparsest level down; the first level with a nonzero
// sketch is the top nonempty boundary, which the hierarchy guarantees to
// be decodable (Lemma 2). The level scan is a raw word scan — field
// elements only materialize (into the workspace scratch) for the one
// level that actually decodes. Fills ws.edges with endpoint
// ancestry-label pairs; empty means no outgoing edge (the component is
// complete).
template <typename F>
void decode_outgoing(const std::uint64_t* sum_row,
                     const PreparedFaults::Impl& prep,
                     const QueryOptions& options, DecoderWorkspace::Impl& ws,
                     QueryStats* stats) {
  const LabelParams& params = prep.params;
  const unsigned k = params.k;
  const std::size_t level_words =
      static_cast<std::size_t>(k) * F::kWords;
  sketch::SketchDecodeScratch<F>& scratch = workspace_scratch<F>(ws);
  ws.edges.clear();
  for (unsigned lev = params.num_levels; lev-- > 0;) {
    if (stats != nullptr) ++stats->levels_scanned;
    const std::uint64_t* lw = sum_row + lev * level_words;
    if (!any_word_nonzero(lw, level_words)) continue;
    if (stats != nullptr) ++stats->outdetect_calls;
    // A sound per-level population bound (format v2) shrinks the decode
    // capacity and its fail-stop window; 0 / missing means "use k".
    const unsigned bound =
        lev < prep.level_bounds.size() ? prep.level_bounds[lev] : 0;
    const bool decoded = sketch::decode_sketch_words<F>(
        lw, k, scratch, options.adaptive, bound, ws.decode_hint);
    if (decoded) {
      ws.decode_hint = static_cast<unsigned>(scratch.support.size());
    }
    if (!decoded) {
      throw FtcCapacityError(
          "outdetect sketch failed to decode: boundary exceeds k; rebuild "
          "with larger k (or KMode::kProvable)");
    }
    FTC_CHECK(!scratch.support.empty(),
              "nonzero sketch decoded to the empty set");
    ws.edges.reserve(scratch.support.size());
    for (const F& id : scratch.support) {
      const auto [a, b] = EdgeCode<F>::decode(id);
      if (!EdgeCode<F>::plausible(a, b)) {
        throw FtcCapacityError(
            "decoded edge ID is structurally invalid; sketch capacity "
            "exceeded");
      }
      ws.edges.emplace_back(a, b);
    }
    return;
  }
}

template <typename F>
bool query_impl(const VertexLabel& s, const VertexLabel& t,
                const PreparedFaults::Impl& prep, DecoderWorkspace::Impl& ws,
                const QueryOptions& options, QueryStats* stats) {
  const LabelParams& params = prep.params;
  const std::size_t wpf = prep.words_per_frag;
  const std::size_t cut_words = prep.cut_words;
  const int num_frag = prep.num_frag;
  if (stats != nullptr) stats->fragments = static_cast<unsigned>(num_frag);

  const int fs = prep.loc.locate(s.anc.tin);
  const int ft = prep.loc.locate(t.anc.tin);
  if (fs == ft) return true;  // connected within T' - sigma(F) already

  // New query: bump the epoch — every materialized row from any earlier
  // query (against this or any other PreparedFaults) dies in O(1). The
  // word buffers are only ever grown; stale contents are unreachable
  // because frag_epoch gates every read.
  ++ws.epoch;
  ws.decode_hint = 0;
  const std::size_t nfrag = static_cast<std::size_t>(num_frag);
  if (ws.frag_epoch.size() < nfrag) ws.frag_epoch.resize(nfrag, 0);
  if (ws.cut.size() < nfrag * cut_words) ws.cut.resize(nfrag * cut_words);
  if (ws.sum_words.size() < nfrag * wpf) ws.sum_words.resize(nfrag * wpf);
  ws.uf.reset(nfrag);
  ws.closed.assign(nfrag, 0);

  const auto materialized = [&](std::size_t fr) {
    return ws.frag_epoch[fr] == ws.epoch;
  };
  const auto cut_row = [&](std::size_t fr) -> const std::uint64_t* {
    return (materialized(fr) ? ws.cut.data() : prep.cut.data()) +
           fr * cut_words;
  };
  const auto sum_row = [&](std::size_t fr) -> const std::uint64_t* {
    return (materialized(fr) ? ws.sum_words.data() : prep.sum_words.data()) +
           fr * wpf;
  };
  const auto cut_size = [&](std::size_t fr) {
    // An unmaterialized fragment still holds its initial state.
    return materialized(fr) ? popcount_words(ws.cut.data() + fr * cut_words,
                                             cut_words)
                            : prep.init_cut_size[fr];
  };
  // Copy-on-write merge: the first mutation of `root` materializes it by
  // fusing the copy from the prepared row with the first XOR (one
  // streaming pass); later merges XOR in place.
  const auto merge_state = [&](std::size_t root, std::size_t other) {
    const std::uint64_t* oc = cut_row(other);
    const std::uint64_t* os = sum_row(other);
    if (materialized(root)) {
      xor_words(ws.cut.data() + root * cut_words, oc, cut_words);
      xor_words(ws.sum_words.data() + root * wpf, os, wpf);
    } else {
      xor_words_into(ws.cut.data() + root * cut_words,
                     prep.cut.data() + root * cut_words, oc, cut_words);
      xor_words_into(ws.sum_words.data() + root * wpf,
                     prep.sum_words.data() + root * wpf, os, wpf);
      ws.frag_epoch[root] = ws.epoch;
    }
  };

  using HeapEntry = std::tuple<unsigned, int, std::uint32_t>;
  const auto heap_push = [&](HeapEntry e) {
    ws.heap.push_back(e);
    std::push_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
  };
  const auto heap_pop = [&]() {
    std::pop_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
    const HeapEntry e = ws.heap.back();
    ws.heap.pop_back();
    return e;
  };
  // Only smallest-cut-first mode ever pops the heap, so only that mode
  // pays for building it (source-first queries skip it entirely).
  if (options.smallest_cut_first) {
    ws.version.assign(nfrag, 0);
    ws.heap.clear();
    ws.heap.reserve(nfrag);
    for (int fr = 0; fr < num_frag; ++fr) {
      ws.heap.push_back({prep.init_cut_size[fr], fr, 0u});
    }
    std::make_heap(ws.heap.begin(), ws.heap.end(), std::greater<>{});
  }

  graph::UnionFind& uf = ws.uf;
  const auto pick_source_first = [&]() -> int {
    const int root = static_cast<int>(uf.find(fs));
    return ws.closed[root] ? -1 : root;
  };

  while (true) {
    int fr = -1;
    if (options.smallest_cut_first) {
      while (!ws.heap.empty()) {
        const auto [sz, cand, ver] = heap_pop();
        if (ws.closed[cand] || ws.version[cand] != ver ||
            uf.find(cand) != static_cast<std::size_t>(cand)) {
          continue;
        }
        (void)sz;
        fr = cand;
        break;
      }
      if (fr < 0) return false;  // everything closed; s and t never met
    } else {
      fr = pick_source_first();
      if (fr < 0) return false;
    }

    decode_outgoing<F>(sum_row(fr), prep, options, ws, stats);
    if (ws.edges.empty()) {
      ws.closed[fr] = 1;
      // A closed set is a complete component of G - F. If it holds s or
      // t, the two can no longer meet.
      if (static_cast<std::size_t>(fr) == uf.find(fs) ||
          static_cast<std::size_t>(fr) == uf.find(ft)) {
        return false;
      }
      continue;
    }
    // A genuine decode is the boundary of fr's component: every edge has
    // exactly one endpoint inside it. A boundary larger than k can alias
    // to a small plausible-looking set instead; such a decode must
    // fail-stop, not merge wrongly (or, merging nothing, loop forever).
    const auto inside = [&](const graph::AncestryLabel& x) {
      return uf.find(prep.loc.locate(x.tin)) == static_cast<std::size_t>(fr);
    };
    for (const auto& [a, b] : ws.edges) {
      if (inside(a) == inside(b)) {
        throw FtcCapacityError(
            "decoded edge does not leave its component; sketch capacity "
            "exceeded");
      }
    }
    for (const auto& [a, b] : ws.edges) {
      const std::size_t fa = uf.find(prep.loc.locate(a.tin));
      const std::size_t fb = uf.find(prep.loc.locate(b.tin));
      if (fa == fb) continue;  // joined by an earlier edge this round
      uf.unite(fa, fb);
      const std::size_t root = uf.find(fa);
      const std::size_t other = root == fa ? fb : fa;
      merge_state(root, other);
      if (stats != nullptr) ++stats->merges;
      if (uf.find(fs) == uf.find(ft)) return true;
    }
    if (options.smallest_cut_first) {
      const std::size_t root = uf.find(fr);
      ++ws.version[root];
      heap_push({cut_size(root), static_cast<int>(root), ws.version[root]});
    }
  }
}

}  // namespace

PreparedFaults::PreparedFaults(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
PreparedFaults::PreparedFaults(PreparedFaults&&) noexcept = default;
PreparedFaults& PreparedFaults::operator=(PreparedFaults&&) noexcept = default;
PreparedFaults::~PreparedFaults() = default;

PreparedFaults PreparedFaults::prepare(
    std::span<const EdgeLabel> faults,
    std::span<const std::uint32_t> level_bounds) {
  if (faults.empty()) return PreparedFaults(nullptr);
  FTC_REQUIRE(faults[0].params.field_bits == 64 ||
                  faults[0].params.field_bits == 128,
              "unsupported field width in edge label");
  return PreparedFaults(prepare_any(faults, level_bounds));
}

bool PreparedFaults::empty() const { return impl_ == nullptr; }

std::size_t PreparedFaults::num_faults() const {
  return impl_ == nullptr ? 0 : impl_->nf;
}

const LabelParams& PreparedFaults::params() const {
  FTC_REQUIRE(impl_ != nullptr, "empty fault set has no parameters");
  return impl_->params;
}

DecoderWorkspace::DecoderWorkspace() : impl_(std::make_unique<Impl>()) {}
DecoderWorkspace::DecoderWorkspace(DecoderWorkspace&&) noexcept = default;
DecoderWorkspace& DecoderWorkspace::operator=(DecoderWorkspace&&) noexcept =
    default;
DecoderWorkspace::~DecoderWorkspace() = default;

bool FtcDecoder::connected(const VertexLabel& s, const VertexLabel& t,
                           std::span<const EdgeLabel> faults,
                           const QueryOptions& options, QueryStats* stats) {
  if (s.anc == t.anc) return true;  // labels are injective: same vertex
  if (faults.empty()) return true;  // the input graph is connected
  const PreparedFaults prepared = PreparedFaults::prepare(faults);
  DecoderWorkspace workspace;
  return connected(s, t, prepared, workspace, options, stats);
}

bool FtcDecoder::connected(const VertexLabel& s, const VertexLabel& t,
                           const PreparedFaults& faults,
                           DecoderWorkspace& workspace,
                           const QueryOptions& options, QueryStats* stats) {
  if (s.anc == t.anc) return true;  // labels are injective: same vertex
  if (faults.empty()) return true;  // the input graph is connected
  const PreparedFaults::Impl& impl = *faults.impl_;
  FTC_REQUIRE(s.params == impl.params && t.params == impl.params,
              "vertex and edge labels from different schemes");
  if (impl.params.field_bits == 64) {
    return query_impl<gf::GF2_64>(s, t, impl, *workspace.impl_, options,
                                  stats);
  }
  return query_impl<gf::GF2_128>(s, t, impl, *workspace.impl_, options,
                                 stats);
}

}  // namespace ftc::core
