#include <gtest/gtest.h>

#include "crypto/aes.hpp"
#include "crypto/commit.hpp"
#include "crypto/merkle.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace ddemos::crypto {
namespace {

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(to_hex(hash_bytes(sha256(to_bytes("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(hash_bytes(sha256(Bytes{}))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      to_hex(hash_bytes(sha256(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(hash_bytes(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Rng rng(3);
  Bytes data = rng.bytes(10'000);
  Sha256 h;
  std::size_t off = 0;
  std::size_t cut[] = {1, 63, 64, 65, 100, 9707};
  for (std::size_t c : cut) {
    h.update(BytesView(data).subspan(off, c));
    off += c;
  }
  h.update(BytesView(data).subspan(off));
  EXPECT_EQ(h.finish(), sha256(data));

  // Partial block, then an empty (null) view, then the rest.
  Sha256 g;
  g.update(BytesView(data).subspan(0, 10));
  g.update(BytesView{});
  g.update(BytesView(data).subspan(10));
  EXPECT_EQ(g.finish(), sha256(data));
}

TEST(Sha256, PartsMatchesConcat) {
  Bytes a = to_bytes("hello ");
  Bytes b = to_bytes("world");
  EXPECT_EQ(sha256_parts({a, b}), sha256(to_bytes("hello world")));
}

TEST(Aes128, Fips197Vector) {
  Aes128 aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t ct[16];
  aes.encrypt_block(pt.data(), ct);
  EXPECT_EQ(to_hex(BytesView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  std::uint8_t back[16];
  aes.decrypt_block(ct, back);
  EXPECT_EQ(to_hex(BytesView(back, 16)), to_hex(pt));
}

TEST(Aes128, RejectsBadKeySize) {
  EXPECT_THROW(Aes128(Bytes(15)), CryptoError);
}

TEST(AesCbc, RoundTripVariousLengths) {
  Rng rng(4);
  Bytes key = rng.bytes(16);
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 20u, 100u}) {
    Bytes pt = rng.bytes(len);
    Bytes ct = aes128_cbc_encrypt(key, pt, rng);
    EXPECT_EQ(ct.size() % 16, 0u);
    EXPECT_GT(ct.size(), len);  // IV + at least one padded block
    EXPECT_EQ(aes128_cbc_decrypt(key, ct), pt);
  }
}

TEST(AesCbc, WrongKeyFailsOrGarbles) {
  Rng rng(5);
  Bytes key = rng.bytes(16);
  Bytes key2 = rng.bytes(16);
  Bytes pt = to_bytes("vote-code-1234567890");
  Bytes ct = aes128_cbc_encrypt(key, pt, rng);
  try {
    Bytes out = aes128_cbc_decrypt(key2, ct);
    EXPECT_NE(out, pt);  // overwhelmingly either throws or differs
  } catch (const CryptoError&) {
    SUCCEED();
  }
}

TEST(AesCbc, RandomizedIvDiffers) {
  Rng rng(6);
  Bytes key = rng.bytes(16);
  Bytes pt = to_bytes("same plaintext");
  EXPECT_NE(aes128_cbc_encrypt(key, pt, rng), aes128_cbc_encrypt(key, pt, rng));
}

TEST(AesCbc, MalformedCiphertextThrows) {
  Bytes key(16, 1);
  EXPECT_THROW(aes128_cbc_decrypt(key, Bytes(16)), CryptoError);  // IV only
  EXPECT_THROW(aes128_cbc_decrypt(key, Bytes(40)), CryptoError);  // not mult 16
}

TEST(SaltedCommit, BindsAndValidates) {
  Rng rng(7);
  Bytes code = rng.bytes(20);
  Bytes salt = rng.bytes(8);
  Hash32 c = salted_commit(code, salt);
  EXPECT_TRUE(salted_commit_check(c, code, salt));
  Bytes other = rng.bytes(20);
  EXPECT_FALSE(salted_commit_check(c, other, salt));
  Bytes salt2 = rng.bytes(8);
  EXPECT_FALSE(salted_commit_check(c, code, salt2));
}

TEST(VoteCodeEncryption, RoundTrip) {
  Rng rng(8);
  Bytes msk = rng.bytes(16);
  Bytes code = rng.bytes(20);
  Bytes blob = encrypt_vote_code(msk, code, rng);
  EXPECT_EQ(decrypt_vote_code(msk, blob), code);
}

TEST(Merkle, SingleLeaf) {
  std::vector<Hash32> leaves = {MerkleTree::leaf_hash(to_bytes("a"))};
  MerkleTree t(leaves);
  EXPECT_EQ(t.root(), leaves[0]);
  EXPECT_TRUE(MerkleTree::verify(t.root(), leaves[0], 0, t.path(0)));
}

TEST(Merkle, AllLeavesVerify) {
  for (std::size_t n : {2u, 3u, 4u, 5u, 7u, 8u, 13u}) {
    std::vector<Hash32> leaves;
    for (std::size_t i = 0; i < n; ++i) {
      leaves.push_back(MerkleTree::leaf_hash(Bytes{static_cast<uint8_t>(i)}));
    }
    MerkleTree t(leaves);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(MerkleTree::verify(t.root(), leaves[i], i, t.path(i)))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Merkle, WrongLeafRejected) {
  std::vector<Hash32> leaves;
  for (int i = 0; i < 6; ++i) {
    leaves.push_back(MerkleTree::leaf_hash(Bytes{static_cast<uint8_t>(i)}));
  }
  MerkleTree t(leaves);
  Hash32 bogus = MerkleTree::leaf_hash(to_bytes("bogus"));
  EXPECT_FALSE(MerkleTree::verify(t.root(), bogus, 2, t.path(2)));
  // Right leaf, wrong position.
  EXPECT_FALSE(MerkleTree::verify(t.root(), leaves[2], 3, t.path(2)));
}

TEST(Merkle, EmptyThrows) {
  EXPECT_THROW(MerkleTree(std::vector<Hash32>{}), CryptoError);
}

}  // namespace
}  // namespace ddemos::crypto
