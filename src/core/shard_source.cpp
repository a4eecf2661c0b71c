#include "core/shard_source.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <limits>
#include <sstream>

#include "util/common.hpp"
#include "util/failpoint.hpp"
#include "util/scoped_fd.hpp"

namespace ftc::core {

namespace {

std::string errno_suffix(int err) {
  return std::string(": ") + std::strerror(err);
}

}  // namespace

// ---------------------------------------------------------------------------
// LocalDirShardSource

LocalDirShardSource::LocalDirShardSource(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty() && dir_.back() != '/') dir_ += '/';
}

std::vector<std::uint8_t> LocalDirShardSource::fetch(const std::string& name) const {
  const std::string path = dir_ + name;
  util::ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd) {
    const int err = errno;
    if (err == ENOENT || err == ENOTDIR) {
      throw StoreError("shard source object not found: " + path);
    }
    throw StoreIoError("shard source open failed: " + path + errno_suffix(err));
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) {
    throw StoreIoError("shard source stat failed: " + path + errno_suffix(errno));
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size));
  if (!bytes.empty() && !util::read_full(fd.get(), bytes.data(), bytes.size())) {
    // EOF-before-size means the file shrank mid-read — transient from
    // the fetcher's point of view (a concurrent republish), retryable.
    throw StoreIoError("shard source read failed: " + path +
                       (errno != 0 ? errno_suffix(errno) : ": short read"));
  }
  return bytes;
}

std::vector<std::uint8_t> LocalDirShardSource::fetch_range(
    const std::string& name, std::uint64_t offset, std::uint64_t length) const {
  FTC_CHECK(length >= 1, "fetch_range needs a non-empty range");
  const std::string path = dir_ + name;
  util::ScopedFd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!fd) {
    const int err = errno;
    if (err == ENOENT || err == ENOTDIR) {
      throw StoreError("shard source object not found: " + path);
    }
    throw StoreIoError("shard source open failed: " + path + errno_suffix(err));
  }
  struct stat st {};
  if (::fstat(fd.get(), &st) != 0) {
    throw StoreIoError("shard source stat failed: " + path + errno_suffix(errno));
  }
  if (offset + length > static_cast<std::uint64_t>(st.st_size)) {
    throw StoreError("shard source range past end of object: " + path);
  }
  if (::lseek(fd.get(), static_cast<off_t>(offset), SEEK_SET) < 0) {
    throw StoreIoError("shard source seek failed: " + path + errno_suffix(errno));
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(length));
  if (!util::read_full(fd.get(), bytes.data(), bytes.size())) {
    throw StoreIoError("shard source read failed: " + path +
                       (errno != 0 ? errno_suffix(errno) : ": short read"));
  }
  return bytes;
}

bool LocalDirShardSource::stat(const std::string& name,
                               std::uint64_t* size_out) const {
  const std::string path = dir_ + name;
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    const int err = errno;
    if (err == ENOENT || err == ENOTDIR) return false;
    throw StoreIoError("shard source stat failed: " + path + errno_suffix(err));
  }
  if (!S_ISREG(st.st_mode)) return false;
  if (size_out != nullptr) *size_out = static_cast<std::uint64_t>(st.st_size);
  return true;
}

std::string LocalDirShardSource::describe(const std::string& name) const {
  return dir_ + name;
}

// ---------------------------------------------------------------------------
// URL parsing

bool parse_http_url(const std::string& url, HttpEndpoint* out) {
  constexpr const char kScheme[] = "http://";
  constexpr std::size_t kSchemeLen = sizeof(kScheme) - 1;
  if (url.rfind(kScheme, 0) != 0) return false;
  const std::size_t authority_begin = kSchemeLen;
  const std::size_t path_begin = url.find('/', authority_begin);
  if (path_begin == std::string::npos) return false;
  std::string authority = url.substr(authority_begin, path_begin - authority_begin);
  if (authority.empty()) return false;

  HttpEndpoint ep;
  const std::size_t colon = authority.find(':');
  if (colon == std::string::npos) {
    ep.host = authority;
  } else {
    ep.host = authority.substr(0, colon);
    const std::string port_str = authority.substr(colon + 1);
    if (ep.host.empty() || port_str.empty() || port_str.size() > 5) return false;
    std::uint32_t port = 0;
    for (const char c : port_str) {
      if (c < '0' || c > '9') return false;
      port = port * 10 + static_cast<std::uint32_t>(c - '0');
    }
    if (port < 1 || port > 65535) return false;
    ep.port = static_cast<std::uint16_t>(port);
  }
  if (ep.host.empty()) return false;

  const std::string path = url.substr(path_begin);  // starts with '/'
  const std::size_t last_slash = path.rfind('/');
  ep.dir = path.substr(0, last_slash + 1);
  ep.object = path.substr(last_slash + 1);
  if (ep.object.empty()) return false;
  *out = std::move(ep);
  return true;
}

// ---------------------------------------------------------------------------
// HttpShardSource

namespace {

// recv() with EINTR retry and the remote.read failpoint spliced in so
// the torture suite can fail any read on the response path.
ssize_t recv_some(int fd, void* buf, std::size_t len) {
  if (const int err = FTC_FAILPOINT("remote.read")) {
    errno = err;
    return -1;
  }
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

void send_all(int fd, const char* data, std::size_t len, const std::string& where) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw StoreIoError("remote send failed: " + where + errno_suffix(errno));
    }
    sent += static_cast<std::size_t>(n);
  }
}

}  // namespace

HttpShardSource::HttpShardSource(std::string host, std::uint16_t port,
                                 std::string dir)
    : host_(std::move(host)), port_(port), dir_(std::move(dir)) {
  if (dir_.empty() || dir_.front() != '/') dir_.insert(dir_.begin(), '/');
  if (dir_.back() != '/') dir_ += '/';
}

std::string HttpShardSource::describe(const std::string& name) const {
  return "http://" + host_ + ":" + std::to_string(port_) + dir_ + name;
}

HttpShardSource::Response HttpShardSource::round_trip(
    const std::string& name, const char* method, bool want_body,
    std::uint64_t range_off, std::uint64_t range_len) const {
  const std::string where = describe(name);

  struct addrinfo hints {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port_);
  const int gai = ::getaddrinfo(host_.c_str(), port_str.c_str(), &hints, &res);
  if (gai != 0) {
    // Resolution failures are transient as far as retry is concerned
    // (DNS hiccups); EAI_NONAME on a loopback test would fail every
    // attempt anyway, so retrying is merely slow, never wrong.
    throw StoreIoError("remote resolve failed: " + where + ": " +
                       ::gai_strerror(gai));
  }

  util::ScopedFd fd;
  int connect_err = 0;
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd.reset(::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                      ai->ai_protocol));
    if (!fd) {
      connect_err = errno;
      continue;
    }
    if (const int err = FTC_FAILPOINT("remote.connect")) {
      connect_err = err;
      fd.reset();
      continue;
    }
    if (::connect(fd.get(), ai->ai_addr, ai->ai_addrlen) == 0) break;
    connect_err = errno;
    fd.reset();
  }
  ::freeaddrinfo(res);
  if (!fd) {
    throw StoreIoError("remote connect failed: " + where +
                       errno_suffix(connect_err != 0 ? connect_err : EHOSTUNREACH));
  }

  // A stuck origin must not wedge a query thread forever: 10s per
  // socket operation, after which the read fails transiently and the
  // retry/quarantine ladder takes over.
  struct timeval tv {};
  tv.tv_sec = 10;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  std::ostringstream req;
  req << method << ' ' << dir_ << name << " HTTP/1.1\r\n"
      << "Host: " << host_ << ':' << port_ << "\r\n";
  if (range_len > 0) {
    req << "Range: bytes=" << range_off << '-' << (range_off + range_len - 1)
        << "\r\n";
  }
  req << "Connection: close\r\n\r\n";
  const std::string request = req.str();
  send_all(fd.get(), request.data(), request.size(), where);

  // Read headers byte-buffered until the blank line.
  std::string head;
  std::vector<std::uint8_t> body;
  std::size_t body_start = 0;
  {
    char buf[4096];
    for (;;) {
      const ssize_t n = recv_some(fd.get(), buf, sizeof(buf));
      if (n < 0) {
        throw StoreIoError("remote read failed: " + where + errno_suffix(errno));
      }
      if (n == 0) {
        throw StoreIoError("remote connection closed before headers: " + where);
      }
      head.append(buf, static_cast<std::size_t>(n));
      const std::size_t end = head.find("\r\n\r\n");
      if (end != std::string::npos) {
        body_start = end + 4;
        break;
      }
      if (head.size() > 64 * 1024) {
        throw StoreError("remote response headers too large: " + where);
      }
    }
  }

  Response resp;
  {
    // Status line: "HTTP/1.1 200 OK".
    const std::size_t sp = head.find(' ');
    if (sp == std::string::npos || head.size() < sp + 4 ||
        head.rfind("HTTP/1.", 0) != 0) {
      throw StoreError("remote response malformed: " + where);
    }
    resp.status = 0;
    for (std::size_t i = sp + 1; i < sp + 4; ++i) {
      if (head[i] < '0' || head[i] > '9') {
        throw StoreError("remote response malformed: " + where);
      }
      resp.status = resp.status * 10 + (head[i] - '0');
    }
    // Content-Length, case-insensitive scan over header lines.
    std::size_t line = head.find("\r\n") + 2;
    while (line < body_start - 2) {
      const std::size_t eol = head.find("\r\n", line);
      const std::size_t colon = head.find(':', line);
      if (colon != std::string::npos && colon < eol) {
        std::string key = head.substr(line, colon - line);
        for (char& c : key) c = static_cast<char>(std::tolower(c));
        if (key == "content-length") {
          std::size_t v = colon + 1;
          while (v < eol && head[v] == ' ') ++v;
          std::uint64_t cl = 0;
          bool any = false;
          while (v < eol && head[v] >= '0' && head[v] <= '9') {
            const auto digit = static_cast<std::uint64_t>(head[v] - '0');
            if (cl > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
              throw StoreError("remote Content-Length out of range: " + where);
            }
            cl = cl * 10 + digit;
            ++v;
            any = true;
          }
          if (!any) throw StoreError("remote Content-Length malformed: " + where);
          resp.content_length = cl;
          resp.has_content_length = true;
        }
      }
      line = eol + 2;
    }
  }

  if (!want_body) return resp;

  // Body: what arrived with the headers plus the rest of the stream.
  body.assign(head.begin() + static_cast<std::ptrdiff_t>(body_start), head.end());
  // The length is the origin's claim, not a fact: reserve it only up to
  // a bounded chunk past what has arrived. A shard-sized body still lands
  // in one allocation; a lying header costs at most that much untouched
  // address space and then a short read (StoreIoError below), never an
  // allocation failure. Past the chunk the buffer grows with the bytes
  // that actually arrive.
  constexpr std::uint64_t kMaxReserveAhead = std::uint64_t{64} << 20;
  if (resp.has_content_length) {
    body.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(
        resp.content_length, body.size() + kMaxReserveAhead)));
  }
  {
    char buf[64 * 1024];
    for (;;) {
      if (resp.has_content_length && body.size() >= resp.content_length) break;
      const ssize_t n = recv_some(fd.get(), buf, sizeof(buf));
      if (n < 0) {
        throw StoreIoError("remote read failed: " + where + errno_suffix(errno));
      }
      if (n == 0) break;  // Connection: close — EOF delimits the body
      body.insert(body.end(), buf, buf + n);
    }
  }
  if (FTC_FAILPOINT("remote.short_body") != 0 && !body.empty()) {
    body.resize(body.size() / 2);
  }
  if (resp.has_content_length && body.size() != resp.content_length) {
    throw StoreIoError("remote body truncated: " + where + ": got " +
                       std::to_string(body.size()) + " of " +
                       std::to_string(resp.content_length) + " bytes");
  }
  resp.body = std::move(body);
  return resp;
}

namespace {

[[noreturn]] void throw_for_status(int status, const std::string& where) {
  if (status == 404) {
    throw StoreError("remote object not found: " + where);
  }
  if (status >= 500) {
    // Server-side failures are the transient class: retry may land on a
    // recovered origin.
    throw StoreIoError("remote server error " + std::to_string(status) + ": " +
                       where);
  }
  throw StoreError("remote request rejected with status " +
                   std::to_string(status) + ": " + where);
}

}  // namespace

std::vector<std::uint8_t> HttpShardSource::fetch(const std::string& name) const {
  Response resp = round_trip(name, "GET", /*want_body=*/true, 0, 0);
  if (resp.status != 200) throw_for_status(resp.status, describe(name));
  return std::move(resp.body);
}

std::vector<std::uint8_t> HttpShardSource::fetch_range(
    const std::string& name, std::uint64_t offset, std::uint64_t length) const {
  FTC_CHECK(length >= 1, "fetch_range needs a non-empty range");
  Response resp = round_trip(name, "GET", /*want_body=*/true, offset, length);
  if (resp.status == 206) {
    if (resp.body.size() != length) {
      throw StoreIoError("remote range response wrong size: " + describe(name));
    }
    return std::move(resp.body);
  }
  if (resp.status == 200) {
    // Origin ignored the Range header; slice the full body ourselves.
    if (offset + length > resp.body.size()) {
      throw StoreError("remote range past end of object: " + describe(name));
    }
    return std::vector<std::uint8_t>(
        resp.body.begin() + static_cast<std::ptrdiff_t>(offset),
        resp.body.begin() + static_cast<std::ptrdiff_t>(offset + length));
  }
  if (resp.status == 416) {
    throw StoreError("remote range past end of object: " + describe(name));
  }
  throw_for_status(resp.status, describe(name));
}

bool HttpShardSource::stat(const std::string& name,
                           std::uint64_t* size_out) const {
  Response resp = round_trip(name, "HEAD", /*want_body=*/false, 0, 0);
  if (resp.status == 404) return false;
  if (resp.status != 200) throw_for_status(resp.status, describe(name));
  if (!resp.has_content_length) {
    throw StoreError("remote HEAD without Content-Length: " + describe(name));
  }
  if (size_out != nullptr) *size_out = resp.content_length;
  return true;
}

}  // namespace ftc::core
