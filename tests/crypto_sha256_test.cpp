#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "util/hex.h"
#include "util/rng.h"

namespace bftbc::crypto {
namespace {

// FIPS 180-4 / NIST CAVP test vectors.
TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(to_hex(digest_view(sha256(as_bytes_view("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(to_hex(digest_view(sha256(as_bytes_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(to_hex(digest_view(sha256(as_bytes_view(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(digest_view(ctx.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 ctx;
    ctx.update(BytesView(msg.data(), split));
    ctx.update(BytesView(msg.data() + split, msg.size() - split));
    EXPECT_EQ(ctx.finish(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256Test, BoundaryLengths) {
  // Exercise the padding logic at block-size boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 0x5a);
    Sha256 a;
    a.update(msg);
    // byte-at-a-time must agree
    Sha256 b;
    for (std::uint8_t byte : msg) b.update(BytesView(&byte, 1));
    EXPECT_EQ(a.finish(), b.finish()) << "len " << len;
  }
}

TEST(Sha256Test, ResetReusesContext) {
  Sha256 ctx;
  ctx.update(as_bytes_view("garbage"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(as_bytes_view("abc"));
  EXPECT_EQ(to_hex(digest_view(ctx.finish())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, CompareDigestsOrdersNumerically) {
  Digest a{};
  Digest b{};
  a[0] = 1;
  EXPECT_GT(compare_digests(a, b), 0);
  EXPECT_LT(compare_digests(b, a), 0);
  EXPECT_EQ(compare_digests(a, a), 0);
  // differs only in last byte
  Digest c = a;
  c[31] = 1;
  EXPECT_LT(compare_digests(a, c), 0);
}

TEST(Sha256Test, DigestFromBytesRejectsWrongSize) {
  Digest d;
  EXPECT_FALSE(digest_from_bytes(Bytes(31, 0), d));
  EXPECT_FALSE(digest_from_bytes(Bytes(33, 0), d));
  EXPECT_TRUE(digest_from_bytes(Bytes(32, 7), d));
  EXPECT_EQ(d[0], 7);
}

// ---- dispatched compressor: SHA-NI vs the scalar reference -------------

Digest hash_with(Sha256Compressor compress, BytesView data) {
  Sha256 ctx(compress);
  ctx.update(data);
  return ctx.finish();
}

// The four FIPS 180-4 vectors above, hashed through one compressor.
void expect_nist_vectors(Sha256Compressor compress) {
  EXPECT_EQ(to_hex(digest_view(hash_with(compress, as_bytes_view("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(digest_view(hash_with(compress, as_bytes_view("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      to_hex(digest_view(hash_with(
          compress, as_bytes_view("abcdbcdecdefdefgefghfghighijhijkijkljklmklm"
                                  "nlmnomnopnopq")))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  Sha256 ctx(compress);
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(digest_view(ctx.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256DispatchTest, PicksShaNiExactlyWhenAvailable) {
  const Sha256Compressor ni = sha256_compress_sha_ni();
  // Printed so a CI log shows which kernel the suite exercised.
  std::printf("[ sha256   ] live compressor: %s\n",
              ni != nullptr ? "sha-ni" : "scalar");
  EXPECT_EQ(sha256_compressor(),
            ni != nullptr ? ni : &sha256_compress_scalar);
}

TEST(Sha256DispatchTest, NistVectorsThroughScalar) {
  expect_nist_vectors(&sha256_compress_scalar);
}

class Sha256ShaNiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ni_ = sha256_compress_sha_ni();
    if (ni_ == nullptr) {
      GTEST_SKIP() << "no SHA-NI: this build is not x86-64 or the CPU lacks "
                      "SHA (CPUID leaf 7 EBX bit 29), SSSE3 or SSE4.1; only "
                      "the scalar compressor runs here";
    }
  }

  Sha256Compressor ni_ = nullptr;
};

TEST_F(Sha256ShaNiTest, NistVectors) { expect_nist_vectors(ni_); }

TEST_F(Sha256ShaNiTest, EveryLengthMatchesScalar) {
  Rng rng(4224);
  const Bytes msg = rng.bytes(4224);
  for (std::size_t len = 0; len <= msg.size(); ++len) {
    const BytesView prefix(msg.data(), len);
    ASSERT_EQ(hash_with(ni_, prefix),
              hash_with(&sha256_compress_scalar, prefix))
        << "len " << len;
  }
}

TEST_F(Sha256ShaNiTest, RandomSplitUpdatesMatchScalar) {
  Rng rng(1000);
  for (int seq = 0; seq < 1000; ++seq) {
    const Bytes msg = rng.bytes(rng.next_below(1200));
    Sha256 ni(ni_);
    Sha256 scalar(&sha256_compress_scalar);
    std::size_t off = 0;
    while (off < msg.size()) {
      // Chunks from empty to a few blocks, so updates start and end at
      // every offset within a block.
      const std::size_t take =
          std::min<std::size_t>(rng.next_below(200), msg.size() - off);
      const BytesView chunk(msg.data() + off, take);
      ni.update(chunk);
      scalar.update(chunk);
      off += take;
    }
    ASSERT_EQ(ni.finish(), scalar.finish()) << "sequence " << seq;
  }
}

TEST_F(Sha256ShaNiTest, MultiBlockCallsMatchScalar) {
  Rng rng(70);
  for (std::size_t nblocks = 1; nblocks <= 70; ++nblocks) {
    const Bytes blocks = rng.bytes(64 * nblocks);
    std::uint32_t start[8];
    for (auto& word : start) word = rng.next_u32();
    std::uint32_t ni[8], scalar[8], one_by_one[8];
    std::copy(start, start + 8, ni);
    std::copy(start, start + 8, scalar);
    std::copy(start, start + 8, one_by_one);
    ni_(ni, blocks.data(), nblocks);
    sha256_compress_scalar(scalar, blocks.data(), nblocks);
    for (std::size_t i = 0; i < nblocks; ++i) {
      ni_(one_by_one, &blocks[64 * i], 1);
    }
    EXPECT_TRUE(std::equal(ni, ni + 8, scalar)) << nblocks << " blocks";
    EXPECT_TRUE(std::equal(ni, ni + 8, one_by_one)) << nblocks << " blocks";
  }
}

}  // namespace
}  // namespace bftbc::crypto
