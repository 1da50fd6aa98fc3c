// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the collision-resistant hash `h` the paper assumes: clients send
// h(val) in PREPARE requests, replicas bind prepare certificates to the
// digest, and the optimized protocol breaks timestamp ties by comparing
// digests numerically.
//
// The block compression has two implementations: a portable scalar one
// and, on x86 CPUs with the SHA extensions, a SHA-NI kernel. Which one a
// default-constructed context uses is decided once per process from
// CPUID; there is no switch. The scalar compressor is the fallback and
// the reference the SHA-NI kernel is tested against.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/bytes.h"

namespace bftbc::crypto {

inline constexpr std::size_t kDigestSize = 32;

using Digest = std::array<std::uint8_t, kDigestSize>;

// Folds `nblocks` consecutive 64-byte blocks into the eight-word chaining
// value `state`.
using Sha256Compressor = void (*)(std::uint32_t* state,
                                  const std::uint8_t* blocks,
                                  std::size_t nblocks);

// The portable compressor.
void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks);

// The SHA-NI compressor, or nullptr when this build is not for x86 or the
// CPU lacks SHA (CPUID leaf 7 EBX bit 29), SSSE3 or SSE4.1.
Sha256Compressor sha256_compress_sha_ni();

// The compressor Sha256() uses: SHA-NI when available, else scalar.
Sha256Compressor sha256_compressor();

// Incremental hashing context.
class Sha256 {
 public:
  Sha256() : Sha256(sha256_compressor()) {}
  // Hashes with the given compressor; lets tests pit the two against
  // each other.
  explicit Sha256(Sha256Compressor compress) : compress_(compress) {
    reset();
  }

  void reset();
  void update(BytesView data);
  // Finalizes and returns the digest. The context must be reset() before
  // reuse.
  Digest finish();

 private:
  Sha256Compressor compress_;
  std::uint32_t h_[8];
  std::uint8_t buf_[64];
  std::size_t buf_len_;
  std::uint64_t total_len_;
};

// One-shot convenience.
Digest sha256(BytesView data);

// Digest helpers ------------------------------------------------------

inline BytesView digest_view(const Digest& d) {
  return BytesView(d.data(), d.size());
}

inline Bytes digest_bytes(const Digest& d) {
  return Bytes(d.begin(), d.end());
}

// Lexicographic (== numeric big-endian) comparison; the optimized
// protocol's deterministic tiebreak between two values prepared for the
// same timestamp (§6.1: "order ... by the numeric order on their hashes").
int compare_digests(const Digest& a, const Digest& b);

// Parse a 32-byte buffer into a Digest; returns false on size mismatch.
bool digest_from_bytes(BytesView b, Digest& out);

}  // namespace bftbc::crypto
