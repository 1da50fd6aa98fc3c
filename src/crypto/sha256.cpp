#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

// The SHA-NI kernel is compiled with per-function target attributes, so
// the rest of the build needs no -msha and runs on any x86-64 CPU.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define BFTBC_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define BFTBC_SHA_NI 0
#endif

namespace bftbc::crypto {

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if BFTBC_SHA_NI

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & (1u << 9)) != 0;
  const bool sse41 = (c & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool sha = (b & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#define BFTBC_SHA_NI_TARGET __attribute__((target("sha,sse4.1")))

// Four rounds with message words w0 = W[t..t+3] (t = 4 * `group`). Until
// the last four groups it also advances the schedule, replacing w0 with
// W[t+16..t+19], where W[j] = σ1(W[j-2]) + W[j-7] + σ0(W[j-15]) + W[j-16].
BFTBC_SHA_NI_TARGET __attribute__((always_inline)) inline void quad_round(
    __m128i& abef, __m128i& cdgh, __m128i& w0, __m128i w1, __m128i w2,
    __m128i w3, std::size_t group) {
  const __m128i wk = _mm_add_epi32(
      w0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * group)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  if (group < 12) {
    const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                    _mm_alignr_epi8(w3, w2, 4));
    w0 = _mm_sha256msg2_epu32(t, w3);
  }
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// The SHA-NI instructions keep the working variables as two vectors,
// ABEF and CDGH (a and c in the top lane), instead of state[0..7].
BFTBC_SHA_NI_TARGET void compress_sha_ni(std::uint32_t* state,
                                         const std::uint8_t* blocks,
                                         std::size_t nblocks) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    const auto* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    for (std::size_t group = 0; group < 16; group += 4) {
      quad_round(abef, cdgh, w0, w1, w2, w3, group);
      quad_round(abef, cdgh, w1, w2, w3, w0, group + 1);
      quad_round(abef, cdgh, w2, w3, w0, w1, group + 2);
      quad_round(abef, cdgh, w3, w0, w1, w2, group + 3);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#undef BFTBC_SHA_NI_TARGET

#endif  // BFTBC_SHA_NI

}  // namespace

void Sha256::reset() {
  h_[0] = 0x6a09e667;
  h_[1] = 0xbb67ae85;
  h_[2] = 0x3c6ef372;
  h_[3] = 0xa54ff53a;
  h_[4] = 0x510e527f;
  h_[5] = 0x9b05688c;
  h_[6] = 0x1f83d9ab;
  h_[7] = 0x5be0cd19;
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (n == 0) return;
  total_len_ += n;
  if (buf_len_ > 0) {
    const std::size_t take = std::min<std::size_t>(64 - buf_len_, n);
    std::memcpy(buf_ + buf_len_, p, take);
    buf_len_ += take;
    p += take;
    n -= take;
    if (buf_len_ < 64) return;
    compress_(h_, buf_, 1);
    buf_len_ = 0;
  }
  // The whole-block run goes to the compressor in one call.
  if (const std::size_t blocks = n / 64; blocks > 0) {
    compress_(h_, p, blocks);
    p += blocks * 64;
    n -= blocks * 64;
  }
  if (n > 0) {
    std::memcpy(buf_, p, n);
    buf_len_ = n;
  }
}

Digest Sha256::finish() {
  // Append 0x80, pad with zeros to 56 mod 64, append bit length.
  const std::uint64_t bit_len = total_len_ * 8;
  std::uint8_t pad[72];
  std::size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  while ((buf_len_ + pad_len) % 64 != 56) pad[pad_len++] = 0;
  for (int i = 7; i >= 0; --i)
    pad[pad_len++] = static_cast<std::uint8_t>(bit_len >> (8 * i));
  update(BytesView(pad, pad_len));

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

void sha256_compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    std::uint32_t w[64];
    for (std::size_t t = 0; t < 16; ++t) {
      w[t] = static_cast<std::uint32_t>(blocks[4 * t]) << 24 |
             static_cast<std::uint32_t>(blocks[4 * t + 1]) << 16 |
             static_cast<std::uint32_t>(blocks[4 * t + 2]) << 8 |
             static_cast<std::uint32_t>(blocks[4 * t + 3]);
    }
    for (std::size_t t = 16; t < 64; ++t) {
      const std::uint32_t s0 =
          rotr(w[t - 15], 7) ^ rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[t - 2], 17) ^ rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = w[t - 16] + s0 + w[t - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (std::size_t t = 0; t < 64; ++t) {
      const std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + S1 + ch + kK[t] + w[t];
      const std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = S0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Compressor sha256_compress_sha_ni() {
#if BFTBC_SHA_NI
  return cpu_has_sha_ni() ? &compress_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

Sha256Compressor sha256_compressor() {
  static const Sha256Compressor chosen = [] {
    const Sha256Compressor ni = sha256_compress_sha_ni();
    return ni != nullptr ? ni : &sha256_compress_scalar;
  }();
  return chosen;
}

Digest sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

int compare_digests(const Digest& a, const Digest& b) {
  return std::memcmp(a.data(), b.data(), kDigestSize);
}

bool digest_from_bytes(BytesView b, Digest& out) {
  if (b.size() != kDigestSize) return false;
  std::memcpy(out.data(), b.data(), kDigestSize);
  return true;
}

}  // namespace bftbc::crypto
