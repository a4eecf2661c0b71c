// ShardCache: the digest-verified, byte-capacity-capped LRU staging
// area between the HTTP shard source and the mmap-serving store views.
//
// A RemoteStoreView never maps network bytes directly: every shard is
// fetched into this cache, verified against its manifest record (exact
// file size AND FNV-1a payload digest — the same digest the shard
// writer computed), atomically published under a content-addressed
// name, and only then mmapped. The cache directory therefore holds
// verbatim shard containers keyed by payload digest: any file in it is
// a complete, checksummed .ftcs container that fsck, cp, or a later
// process can use directly.
//
// Content addressing ("shard-<digest>-<bytes>.ftcs") is what makes the
// cache safe to share across epochs and processes: a delta-pushed child
// epoch reuses the parent's unchanged shards as cache HITS because the
// key depends only on the bytes, not on the manifest that referenced
// them. It also makes verification idempotent — a cached file was
// verified when published, so a hit needs no re-hash.
//
// Eviction is strict LRU by last use under a byte budget. Evicting
// unlinks the file; per POSIX an unlinked-but-mapped file stays fully
// readable until the last mapping drops, so eviction NEVER invalidates
// a store view currently serving that shard — the bytes only die with
// the mmap. The budget therefore bounds directory size, not resident
// memory of live views.
//
// Thread safety: all public methods are safe to call concurrently.
// Concurrent fetches of the same shard collapse to one transfer
// (single-flight); fetch/evict/query interleavings are exercised by the
// TSan leg of scripts/ci.sh.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sharded_store.hpp"
#include "core/shard_source.hpp"

namespace ftc::core {

// Monotonic counters, snapshot via ShardCache::stats(). hits/misses
// count fetch_shard() outcomes; bytes_resident/entries describe the
// directory right now.
struct ShardCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_fetched = 0;
  std::uint64_t bytes_evicted = 0;
  std::uint64_t bytes_resident = 0;
  std::uint64_t entries = 0;
};

class ShardCache {
 public:
  // Creates `dir` (and parents) if missing and adopts any shard files
  // already present from a previous process, oldest-accessed first in
  // LRU order. max_bytes == 0 means "no budget" (nothing evicts).
  ShardCache(std::string dir, std::uint64_t max_bytes);

  ShardCache(const ShardCache&) = delete;
  ShardCache& operator=(const ShardCache&) = delete;

  // Returns the local path of a verified copy of `rec`'s shard,
  // fetching through `source` on a miss. The returned file is complete
  // and digest-verified; callers mmap it like any local shard. Throws
  // StoreIoError when the transfer fails or the fetched bytes do not
  // match the record (both transient: the origin may be mid-republish),
  // StoreError for structural source failures (object absent).
  std::string fetch_shard(const HttpShardSource& source,
                          const store::ShardRecord& rec);

  // fetch_shard + LabelStoreView::open, with the shard pinned against
  // eviction in between: a concurrent fetch that pushes the cache over
  // budget cannot unlink the file before it is mapped. Once mapped, the
  // bytes live as long as the returned view (see eviction above); the
  // unpin then evicts down to budget, keeping this shard as the MRU.
  std::shared_ptr<const LabelStoreView> map_shard(
      const HttpShardSource& source, const store::ShardRecord& rec,
      bool verify_checksum);

  // Stores an arbitrary verified blob (manifest, journal sidecar) under
  // a content-addressed name derived from `stem` and the blob digest.
  // Not LRU-tracked — these are tiny metadata files, and evicting a
  // manifest out from under an about-to-open view would be a
  // self-inflicted failure. Returns the local path.
  std::string put_blob(const std::string& stem,
                       std::span<const std::uint8_t> bytes);

  // True when the shard with this (payload digest, size) key is
  // resident right now. Test/introspection hook; racing evictions make
  // the answer advisory.
  bool contains(std::uint64_t payload_digest, std::uint64_t file_bytes) const;

  ShardCacheStats stats() const;
  const std::string& dir() const { return dir_; }
  std::uint64_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    std::string key;           // file name inside dir_
    std::uint64_t bytes = 0;
  };
  using LruList = std::list<Entry>;

  static std::string shard_key(const store::ShardRecord& rec);

  // Moves key to the MRU end (touching its atime on disk) — caller
  // holds mu_.
  void touch_locked(std::unordered_map<std::string, LruList::iterator>::iterator it);
  // Unlinks LRU entries until resident <= budget; `keep` and pinned
  // keys are never evicted (the path being returned right now, or being
  // mapped by map_shard). Caller holds mu_.
  void evict_locked(const std::string& keep);

  std::string dir_;            // includes trailing slash
  std::uint64_t max_bytes_;

  mutable std::mutex mu_;
  std::condition_variable inflight_cv_;
  std::set<std::string> inflight_;                 // keys being fetched
  std::multiset<std::string> pinned_;              // keys being mapped
  LruList lru_;                                    // front = LRU, back = MRU
  std::unordered_map<std::string, LruList::iterator> index_;
  std::uint64_t resident_bytes_ = 0;
  ShardCacheStats counters_;   // hits/misses/evictions/bytes_*
};

// Process-wide cache used by RemoteStoreView when the caller does not
// supply one. Created on first use from the environment:
//   FTC_CACHE_DIR    cache directory (default: $TMPDIR or /tmp, plus
//                    "/ftc-shard-cache-<uid>")
//   FTC_CACHE_BYTES  byte budget (default 256 MiB; 0 = unlimited)
std::shared_ptr<ShardCache> default_remote_cache();

// Replaces the process-wide cache (tests; pass nullptr to reset to
// env-derived on next use). Returns the previous cache.
std::shared_ptr<ShardCache> set_default_remote_cache(
    std::shared_ptr<ShardCache> cache);

}  // namespace ftc::core
