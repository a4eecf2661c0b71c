// HttpShardSource: the client half of remote shard serving.
//
// A sharded label store is a manifest plus K verbatim container files
// (sharded_store.hpp); nothing about serving it requires those files to
// start out on the serving box. HttpShardSource fetches them by name
// from an HTTP/1.1 origin reached over a plain POSIX socket — no
// libcurl, no new dependencies. Every GET transfers the whole object.
// RemoteStoreView pulls shards through it into the digest-verified
// local cache (shard_cache.hpp) and serves them from mmap exactly like
// a local store.
//
// Error taxonomy mirrors the store layer's: transport failures that a
// retry can plausibly cure (connect/read/timeouts/5xx, short bodies)
// throw StoreIoError and flow into the PR 8 RetryPolicy machinery;
// structural failures (object not found, malformed responses that
// re-reading cannot fix) throw plain StoreError and never retry.
//
// Fault-injection sites (util/failpoint.hpp), for the torture suite and
// the CI remote leg:
//   remote.connect     connect() to the origin fails with the errno
//   remote.read        a socket read fails with the errno
//   remote.short_body  the response body is cut short (transfer
//                      truncated mid-flight)
//   remote.digest      (in shard_cache.cpp) the fetched payload digest
//                      disagrees with the manifest record
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/label_store.hpp"

namespace ftc::core {

// True for paths the store layer routes to the remote tier
// ("http://host[:port]/path/manifest.ftcm").
inline bool is_http_url(const std::string& path) {
  return path.rfind("http://", 0) == 0;
}

// A parsed "http://host[:port]/dir/object" URL. `dir` keeps the leading
// and trailing slash ("/" for a root-level object); `object` is the
// last path segment (the manifest file name, typically).
struct HttpEndpoint {
  std::string host;
  std::uint16_t port = 80;
  std::string dir;
  std::string object;
};

// Parses an http:// URL into its endpoint parts. Returns false (leaving
// *out untouched) for anything malformed: wrong scheme, empty host, a
// port that is not a decimal in [1, 65535], or an empty object segment.
bool parse_http_url(const std::string& url, HttpEndpoint* out);

// The HTTP/1.1 client: one short-lived loopback-friendly TCP
// connection per request (Connection: close — keep-alive buys nothing
// for shard-sized transfers and keeps the client stateless, hence
// thread-safe: the open fans fetches out), GET for fetch, HEAD for
// stat. Built on socket(2)/connect(2)/send(2)/recv(2) only. Names are
// the manifest's shard names: relative paths, already validated
// traversal-free by the manifest reader.
class HttpShardSource {
 public:
  // Objects resolve as "http://host:port<dir><name>".
  HttpShardSource(std::string host, std::uint16_t port, std::string dir);

  // The whole object. Throws StoreIoError (transient) / StoreError
  // (structural, including "not found").
  std::vector<std::uint8_t> fetch(const std::string& name) const;

  // Size probe. Returns false when the object does not exist; throws
  // StoreIoError on transport failure.
  bool stat(const std::string& name, std::uint64_t* size_out) const;

  // "http://host:port<dir><name>", for error messages and logs.
  std::string describe(const std::string& name) const;

 private:
  struct Response {
    int status = 0;
    std::uint64_t content_length = 0;
    bool has_content_length = false;
    std::vector<std::uint8_t> body;
  };
  // One request/response round trip. want_body=false (HEAD) stops after
  // the headers.
  Response round_trip(const std::string& name, const char* method,
                      bool want_body) const;

  std::string host_;
  std::uint16_t port_;
  std::string dir_;  // leading and trailing slash
};

}  // namespace ftc::core
