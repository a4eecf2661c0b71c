// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer's public function, made by the
// benchmark itself: name, trace id (one per serve epoch, churn cycle or
// setup), start, duration, and the span that encloses it. All spans are
// opened and closed on the caller thread and nest strictly, so a span's
// self time is its duration minus the summed durations of its direct
// children. Durations and self times are aggregated per name for the
// whole run; the first `kMaxLogged` span records are also kept verbatim
// and written as JSON lines at exit.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Log-linear latency histogram: exact below 1024 ns, then 64 buckets
// per power of two (under 1.6 % relative error). Constant memory however
// many samples a run takes.
class Histogram {
 public:
  void add(std::int64_t ns) {
    const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
    const std::size_t i = index(v);
    if (i >= bins_.size()) bins_.resize(i + 1, 0);
    ++bins_[i];
    ++count_;
  }
  std::uint64_t count() const { return count_; }
  // Share of samples at or above `ns`.
  double share_at_least(std::int64_t ns) const {
    std::uint64_t above = 0;
    for (std::size_t i = index(static_cast<std::uint64_t>(ns)); i < bins_.size(); ++i) {
      above += bins_[i];
    }
    return count_ == 0 ? 0.0 : static_cast<double>(above) / static_cast<double>(count_);
  }
  // The sample of rank floor(q * count), reported as its bucket's midpoint.
  double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const std::uint64_t rank = std::min<std::uint64_t>(
        count_ - 1, static_cast<std::uint64_t>(q * static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bins_.size(); ++i) {
      seen += bins_[i];
      if (seen > rank) return midpoint(i);
    }
    return midpoint(bins_.size() - 1);
  }

 private:
  static constexpr std::uint64_t kLinear = 1024;
  static constexpr int kSubBits = 6;
  static std::size_t index(std::uint64_t v) {
    if (v < kLinear) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // >= 10
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    return static_cast<std::size_t>(kLinear + (static_cast<std::uint64_t>(e) - 10) *
                                                  (1u << kSubBits) + sub);
  }
  static double midpoint(std::size_t i) {
    if (i < kLinear) return static_cast<double>(i);
    const std::size_t j = i - kLinear;
    const int e = static_cast<int>(j >> kSubBits) + 10;
    const double width = std::ldexp(1.0, e - kSubBits);
    const double low = std::ldexp(1.0, e) +
                       static_cast<double>(j & ((1u << kSubBits) - 1)) * width;
    return low + width / 2;
  }

  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Sp : std::uint8_t {
  kSetup,
  kGraphGenerate,
  kBuild,
  kStoreSave,
  kStoreOpen,
  kStorePrefetch,
  kStoreLoad,
  kJournalAttach,
  kEngineCreate,
  kFirstAnswer,
  kResetFaults,
  kConnected,
  kRunParallel,
  kSchemePrepare,
  kSchemeQuery,
  kSchemeQuerySeq,
  kVertexFetch,
  kEdgeFetch,
  kDecoderPrepare,
  kDecoderQuery,
  kJournalSwap,
  kJournalAppend,
  kSwapStore,
  kRebuild,
  kPush,
  kJoin,
  kRemoteFetch,
  kCount
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Sp::kCount)>
    kSpanNames = {
        "setup",
        "graph.generate",
        "build",
        "store.save",
        "store.open",
        "store.prefetch",
        "store.load",
        "journal.attach",
        "batch_engine.create",
        "first_answer",
        "batch_engine.reset_faults",
        "batch_engine.connected",
        "batch_engine.run_parallel",
        "scheme.prepare_faults",
        "scheme.query",
        "scheme.query_seq",
        "store.vertex_fetch",
        "store.edge_fetch",
        "decoder.prepare",
        "decoder.query",
        "journal_swap",
        "journal.append",
        "batch_engine.swap_store",
        "rebuild",
        "push",
        "join",
        "remote.fetch",
};

class Tracer {
 public:
  static constexpr std::size_t kMaxLogged = 50000;

  // Off until enable(true): an off tracer records nothing and a span
  // costs one branch.
  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }
  void set_trace_id(std::uint64_t id) { trace_id_ = id; }

  class Span {
   public:
    Span(Tracer& t, Sp name) : t_(t.on_ ? &t : nullptr), name_(name) {
      if (t_ != nullptr) {
        parent_ = t_->open_;
        child_ns_ = 0;
        seq_ = t_->next_seq_++;
        t_->open_ = this;
        start_ = now_ns();
      }
    }
    ~Span() {
      if (t_ != nullptr) t_->close(*this, now_ns());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    friend class Tracer;
    Tracer* t_;
    Sp name_;
    Span* parent_ = nullptr;
    std::int64_t start_ = 0;
    std::int64_t child_ns_ = 0;
    std::uint32_t seq_ = 0;
  };

  // Per-name aggregates over the whole run.
  const Histogram& durations(Sp name) const { return agg_[idx(name)].dur; }
  std::int64_t self_sum(Sp name) const { return agg_[idx(name)].self_sum; }
  std::int64_t dur_sum(Sp name) const { return agg_[idx(name)].dur_sum; }

  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Rec& r : log_) {
      std::fprintf(f,
                   "{\"seq\":%u,\"parent\":%lld,\"trace\":%llu,\"name\":\"%s\","
                   "\"start_ns\":%lld,\"dur_ns\":%lld,\"self_ns\":%lld}\n",
                   r.seq, r.parent < 0 ? -1LL : static_cast<long long>(r.parent),
                   static_cast<unsigned long long>(r.trace_id),
                   kSpanNames[idx(r.name)], static_cast<long long>(r.start),
                   static_cast<long long>(r.dur),
                   static_cast<long long>(r.self));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Rec {
    std::uint32_t seq;
    std::int64_t parent;
    std::uint64_t trace_id;
    Sp name;
    std::int64_t start;
    std::int64_t dur;
    std::int64_t self;
  };
  struct Agg {
    Histogram dur;
    std::int64_t dur_sum = 0;
    std::int64_t self_sum = 0;
  };

  static constexpr std::size_t idx(Sp s) { return static_cast<std::size_t>(s); }

  void close(Span& s, std::int64_t end) {
    const std::int64_t dur = end - s.start_;
    const std::int64_t self = dur - s.child_ns_;
    open_ = s.parent_;
    if (s.parent_ != nullptr) s.parent_->child_ns_ += dur;
    Agg& a = agg_[idx(s.name_)];
    a.dur.add(dur);
    a.dur_sum += dur;
    a.self_sum += self;
    if (log_.size() < kMaxLogged) {
      log_.push_back(Rec{s.seq_,
                         s.parent_ ? static_cast<std::int64_t>(s.parent_->seq_)
                                   : -1,
                         trace_id_, s.name_, s.start_, dur, self});
    }
  }

  bool on_ = false;
  std::uint64_t trace_id_ = 0;
  std::uint32_t next_seq_ = 0;
  Span* open_ = nullptr;
  std::array<Agg, static_cast<std::size_t>(Sp::kCount)> agg_;
  std::vector<Rec> log_;
};

}  // namespace perfbench
