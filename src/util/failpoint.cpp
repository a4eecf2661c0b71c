#include "util/failpoint.hpp"

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

namespace ftc::failpoint {

namespace detail {
std::atomic<int> g_active_count{0};
}  // namespace detail

namespace {

enum class Mode { kOff, kOnce, kNth, kProb, kAlways, kCount };

struct Point {
  Mode mode = Mode::kOff;
  std::uint64_t nth = 0;       // kNth: 1-based hit index that fires
  double probability = 0.0;    // kProb
  int error = EIO;             // errno injected when the point fires
  std::uint64_t hits = 0;
  bool fired = false;          // kOnce latch
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Point> points;
  // Deterministic stream for prob mode: fixed seed so a given arm
  // sequence fires the same hits in every run.
  std::uint64_t rng_state = 0x9e3779b97f4a7c15ULL;
};

Registry& registry() {
  static Registry r;
  return r;
}

double next_uniform(Registry& r) {
  // splitmix64
  std::uint64_t z = (r.rng_state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * (1.0 / 9007199254740992.0);
}

int parse_errno(const std::string& text) {
  static const std::map<std::string, int> kNames = {
      {"EIO", EIO},       {"EINTR", EINTR},   {"ENOSPC", ENOSPC},
      {"EXDEV", EXDEV},   {"EPERM", EPERM},   {"EMFILE", EMFILE},
      {"ENFILE", ENFILE}, {"ENOENT", ENOENT}, {"EACCES", EACCES},
      {"EAGAIN", EAGAIN}, {"EBADF", EBADF},   {"EFAULT", EFAULT},
      {"ENOMEM", ENOMEM}, {"EROFS", EROFS},   {"EDQUOT", EDQUOT},
      {"ECONNREFUSED", ECONNREFUSED},
  };
  if (const auto it = kNames.find(text); it != kNames.end()) return it->second;
  std::size_t pos = 0;
  int value = 0;
  try {
    value = std::stoi(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || value <= 0) {
    throw std::invalid_argument("failpoint: unknown errno '" + text + "'");
  }
  return value;
}

Point parse_spec(const std::string& name, const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t colon = spec.find(':', begin);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(begin));
      break;
    }
    parts.push_back(spec.substr(begin, colon - begin));
    begin = colon + 1;
  }
  const auto fail = [&](const char* why) -> Point {
    throw std::invalid_argument("failpoint '" + name + "': " + why + " in '" +
                                spec + "'");
  };
  if (parts.empty() || parts[0].empty()) fail("empty spec");

  Point p;
  std::size_t next = 1;
  const std::string& mode = parts[0];
  if (mode == "off") {
    p.mode = Mode::kOff;
  } else if (mode == "once") {
    p.mode = Mode::kOnce;
  } else if (mode == "always") {
    p.mode = Mode::kAlways;
  } else if (mode == "count") {
    p.mode = Mode::kCount;
  } else if (mode == "nth") {
    p.mode = Mode::kNth;
    if (parts.size() < 2) fail("nth needs an index");
    try {
      p.nth = std::stoull(parts[1]);
    } catch (const std::exception&) {
      fail("bad nth index");
    }
    if (p.nth == 0) fail("nth index is 1-based");
    next = 2;
  } else if (mode == "prob") {
    p.mode = Mode::kProb;
    if (parts.size() < 2) fail("prob needs a probability");
    try {
      p.probability = std::stod(parts[1]);
    } catch (const std::exception&) {
      fail("bad probability");
    }
    if (p.probability < 0.0 || p.probability > 1.0) {
      fail("probability outside [0,1]");
    }
    next = 2;
  } else {
    fail("unknown mode");
  }
  if (parts.size() > next + 1) fail("trailing fields");
  if (parts.size() == next + 1) p.error = parse_errno(parts[next]);
  return p;
}

}  // namespace

namespace detail {

int check_slow(const char* name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.points.find(name);
  if (it == r.points.end()) return 0;
  Point& p = it->second;
  ++p.hits;
  switch (p.mode) {
    case Mode::kOff:
    case Mode::kCount:
      return 0;
    case Mode::kOnce:
      if (p.fired) return 0;
      p.fired = true;
      return p.error;
    case Mode::kNth:
      return p.hits == p.nth ? p.error : 0;
    case Mode::kProb:
      return next_uniform(r) < p.probability ? p.error : 0;
    case Mode::kAlways:
      return p.error;
  }
  return 0;
}

}  // namespace detail

void set(const std::string& name, const std::string& spec) {
  const Point p = parse_spec(name, spec);  // validate before locking
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto [it, inserted] = r.points.insert_or_assign(name, p);
  (void)it;
  if (inserted) {
    detail::g_active_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void clear(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (r.points.erase(name) > 0) {
    detail::g_active_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void clear_all() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  detail::g_active_count.fetch_sub(static_cast<int>(r.points.size()),
                                   std::memory_order_relaxed);
  r.points.clear();
}

std::uint64_t hit_count(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  const auto it = r.points.find(name);
  return it == r.points.end() ? 0 : it->second.hits;
}

std::vector<std::string> active() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.points.size());
  for (const auto& [name, point] : r.points) names.push_back(name);
  return names;
}

void load_env() {
  const char* env = std::getenv("FTC_FAILPOINTS");
  if (env == nullptr || *env == '\0') return;
  const std::string spec(env);
  std::size_t begin = 0;
  while (begin < spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(begin, end - begin);
    begin = end + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw std::invalid_argument("FTC_FAILPOINTS: expected name=spec, got '" +
                                  entry + "'");
    }
    set(entry.substr(0, eq), entry.substr(eq + 1));
  }
}

namespace {
// Arm env-specified failpoints before main() so CLI runs need no code
// changes. A malformed env spec aborts loudly rather than silently
// skipping the injection a test asked for.
const bool g_env_loaded = [] {
  load_env();
  return true;
}();
}  // namespace

}  // namespace ftc::failpoint
