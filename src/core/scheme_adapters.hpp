// Internal adapter plumbing shared by the in-memory backends
// (connectivity_scheme.cpp) and the label-store-served backends
// (label_store.cpp): both wrap the same per-backend session state
// (core PreparedFaults, dp21 Prepared/Workspace types) behind the
// ConnectivityScheme::FaultSet / Workspace interfaces, so the wrappers
// live once here instead of drifting apart in two anonymous namespaces.
// Not part of the public API surface.
#pragma once

#include <cstddef>
#include <utility>

#include "core/connectivity_scheme.hpp"

namespace ftc::core::detail {

// Immutable fault-set adapter: the backend's prepared session state plus
// the deduplicated fault-edge count reported through num_faults().
template <typename Prepared>
class PreparedFaultSet final : public ConnectivityScheme::FaultSet {
 public:
  PreparedFaultSet(Prepared prepared, std::size_t num_faults)
      : prepared_(std::move(prepared)), num_faults_(num_faults) {}

  std::size_t num_faults() const override { return num_faults_; }
  const Prepared& prepared() const { return prepared_; }

 private:
  Prepared prepared_;
  std::size_t num_faults_ = 0;
};

// Per-thread workspace adapter over a backend's scratch type.
template <typename Inner>
class BackendWorkspace final : public ConnectivityScheme::Workspace {
 public:
  Inner& inner() { return inner_; }

 private:
  Inner inner_;
};

// Backends whose query path needs no scratch (dp21 cycle-space: the
// prepared kernel is read-only).
class EmptyWorkspace final : public ConnectivityScheme::Workspace {};

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

}  // namespace ftc::core::detail
