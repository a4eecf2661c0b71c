// The store layer's one retry loop, shared by the sharded shard open
// (sharded_store.cpp) and the remote metadata fetches (remote_store.cpp).
// Not part of the public API surface.
#pragma once

#include <functional>

namespace ftc::core::detail {

// Runs attempt() under default_retry_policy() (sharded_store.hpp): a
// StoreIoError backs off and retries until the attempt budget is spent,
// then propagates; any other exception propagates at once. *attempts
// (when given) receives the number of attempts made.
void retry_transient(const std::function<void()>& attempt,
                     unsigned* attempts = nullptr);

}  // namespace ftc::core::detail
