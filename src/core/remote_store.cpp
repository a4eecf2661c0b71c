// RemoteStoreView: a sharded store opened from an http:// manifest URL.
//
// The open fetches the manifest (small, always transferred in full),
// parks a verbatim copy in the shard cache, and runs the ordinary
// manifest reader over it — so a remote manifest gets every structural
// check a local one does, including the payload checksum over the
// transferred bytes. The open then maps every shard through the
// map_shard() override, which fetches it via ShardCache::map_shard();
// from there on the shard is a local mmap like any other. All the
// serving-tier machinery above (the eager open, retry, quarantine,
// DegradedError, FlatRoutes, swap_store adoption) is inherited
// unchanged.
#include "core/sharded_store.hpp"

#include "core/shard_cache.hpp"
#include "core/shard_source.hpp"
#include "core/store_retry.hpp"

namespace ftc::core {

namespace {

HttpEndpoint parse_store_url(const std::string& url) {
  HttpEndpoint ep;
  if (!parse_http_url(url, &ep)) {
    throw StoreError("malformed store URL (expected "
                     "http://host[:port]/path/manifest): " + url);
  }
  return ep;
}

}  // namespace

std::shared_ptr<const RemoteStoreView> RemoteStoreView::open(
    const std::string& url, bool verify_checksum,
    const std::shared_ptr<const ShardedStoreView>& reuse_from,
    std::shared_ptr<ShardCache> cache) {
  const HttpEndpoint ep = parse_store_url(url);
  if (cache == nullptr) cache = default_remote_cache();
  auto source = std::make_shared<HttpShardSource>(ep.host, ep.port, ep.dir);

  // The manifest is re-fetched on every open (it is the mutable part of
  // a store — epochs move by replacing it), but put_blob content-
  // addresses the copy, so reopening an unchanged epoch rewrites
  // nothing. Transient transport failures retry here; shard fetches get
  // their retries from open_shard().
  std::vector<std::uint8_t> manifest_bytes;
  detail::retry_transient(
      [&] { manifest_bytes = source->fetch(ep.object); });
  const std::string local_manifest = cache->put_blob("manifest",
                                                     manifest_bytes);

  std::shared_ptr<RemoteStoreView> view(new RemoteStoreView());
  view->url_ = url;
  view->cache_ = std::move(cache);
  view->source_ = std::move(source);
  open_impl(view, local_manifest, verify_checksum, reuse_from,
            /*degraded=*/false, /*stat_shards=*/false);
  // Error messages and journal validation should name the origin, not
  // the cache copy the manifest reader happened to map.
  view->path_ = url;
  return view;
}

std::shared_ptr<const LabelStoreView> RemoteStoreView::map_shard(
    std::size_t k) const {
  return cache_->map_shard(*source_, records_[k], verify_checksum_);
}

std::string RemoteStoreView::shard_display_name(std::size_t k) const {
  return source_->describe(records_[k].name);
}

std::string fetch_remote_journal(const std::string& store_url) {
  const HttpEndpoint ep = parse_store_url(store_url);
  const HttpShardSource source(ep.host, ep.port, ep.dir);
  const std::string journal_name = ep.object + ".jrnl";
  // The existence probe retries like the fetch: one refused HEAD must
  // not fail the load of a journaled store.
  bool present = false;
  detail::retry_transient(
      [&] { present = source.stat(journal_name, nullptr); });
  if (!present) return std::string();
  std::vector<std::uint8_t> bytes;
  detail::retry_transient([&] { bytes = source.fetch(journal_name); });
  return default_remote_cache()->put_blob("journal", bytes);
}

}  // namespace ftc::core
