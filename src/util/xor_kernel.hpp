// Word-level GF(2) kernels for the decoder hot path.
//
// Everything the serving path accumulates — RS-sketch power sums over
// GF(2^64)/GF(2^128), AGM l0-sampler cells, cycle-space bit vectors and
// the per-fragment cut bitsets — is addition in characteristic 2, i.e.
// XOR of flattened std::uint64_t arrays. Keeping the merge kernels here,
// as plain restrict-qualified word loops, lets the compiler auto-vectorize
// one implementation that is shared by the core decoder
// (core/ftc_query.cpp), the dp21 decoders (dp21/*, sketch/agm_sketch.cpp)
// that built and store-served schemes alike reach through the one
// per-backend adapter (core/connectivity_scheme.cpp), and prepare-time
// fragment-sum accumulation. bench_decoder_hotpath measures
// the result.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ftc {

// dst[i] ^= src[i]. The ranges must not overlap.
inline void xor_words(std::uint64_t* __restrict dst,
                      const std::uint64_t* __restrict src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
}

// dst[i] = a[i] ^ b[i]. No range may overlap another. Fuses the decoder's
// copy-on-write materialization with the first merge into that row: one
// streaming pass instead of copy-then-xor.
inline void xor_words_into(std::uint64_t* __restrict dst,
                           const std::uint64_t* __restrict a,
                           const std::uint64_t* __restrict b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = a[i] ^ b[i];
}

// Population count of an n-word bitset.
inline unsigned popcount_words(const std::uint64_t* w, std::size_t n) {
  unsigned c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<unsigned>(__builtin_popcountll(w[i]));
  }
  return c;
}

// True iff any of the n words is nonzero (word-level zero scan: the
// decoder's per-level emptiness test never materializes field elements).
inline bool any_word_nonzero(const std::uint64_t* w, std::size_t n) {
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc |= w[i];
  return acc != 0;
}

}  // namespace ftc
