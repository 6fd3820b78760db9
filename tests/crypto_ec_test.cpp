#include <gtest/gtest.h>

#include "crypto/ec.hpp"
#include "crypto/elgamal.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace ddemos::crypto {
namespace {

TEST(Ec, GeneratorOnCurve) {
  EXPECT_TRUE(on_curve(to_affine(ec_generator())));
  EXPECT_TRUE(on_curve(to_affine(ec_generator_h())));
  EXPECT_FALSE(ec_eq(ec_generator(), ec_generator_h()));
}

TEST(Ec, KnownMultiple) {
  // 2G for secp256k1 (well-known test vector).
  AffinePoint g2 = to_affine(ec_double(ec_generator()));
  EXPECT_EQ(to_hex(g2.x.to_bytes_be()),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(to_hex(g2.y.to_bytes_be()),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Ec, AddCommutesAndAssociates) {
  Rng rng(21);
  Point p = ec_mul_g(random_scalar(rng));
  Point q = ec_mul_g(random_scalar(rng));
  Point r = ec_mul_g(random_scalar(rng));
  EXPECT_TRUE(ec_eq(ec_add(p, q), ec_add(q, p)));
  EXPECT_TRUE(ec_eq(ec_add(ec_add(p, q), r), ec_add(p, ec_add(q, r))));
}

TEST(Ec, IdentityLaws) {
  Rng rng(22);
  Point p = ec_mul_g(random_scalar(rng));
  Point inf = Point::infinity();
  EXPECT_TRUE(ec_eq(ec_add(p, inf), p));
  EXPECT_TRUE(ec_eq(ec_add(inf, p), p));
  EXPECT_TRUE(ec_add(p, ec_neg(p)).is_infinity());
}

TEST(Ec, MulDistributes) {
  Rng rng(23);
  Fn a = random_scalar(rng);
  Fn b = random_scalar(rng);
  // (a+b)G == aG + bG
  EXPECT_TRUE(ec_eq(ec_mul_g(a + b), ec_add(ec_mul_g(a), ec_mul_g(b))));
  // a(bG) == (ab)G
  EXPECT_TRUE(ec_eq(ec_mul(a, ec_mul_g(b)), ec_mul_g(a * b)));
}

TEST(Ec, MulByOrderIsInfinity) {
  EXPECT_TRUE(ec_mul_g(Fn::zero()).is_infinity());
  // n*G = 0 means (n-1)G = -G.
  Fn nm1 = Fn::zero() - Fn::one();
  EXPECT_TRUE(ec_eq(ec_mul_g(nm1), ec_neg(ec_generator())));
}

TEST(Ec, EncodeDecodeRoundTrip) {
  Rng rng(24);
  for (int i = 0; i < 10; ++i) {
    Point p = ec_mul_g(random_scalar(rng));
    Bytes enc = ec_encode(p);
    EXPECT_EQ(enc.size(), 33u);
    EXPECT_TRUE(ec_eq(ec_decode(enc), p));
  }
  // Infinity round-trips.
  EXPECT_TRUE(ec_decode(ec_encode(Point::infinity())).is_infinity());
}

TEST(Ec, DecodeRejectsGarbage) {
  EXPECT_THROW(ec_decode(Bytes(32, 2)), CryptoError);  // wrong size
  Bytes bad(33, 0);
  bad[0] = 0x05;  // bad prefix
  EXPECT_THROW(ec_decode(bad), CryptoError);
  // x with no curve point: find one by trial.
  Bytes enc(33, 0);
  enc[0] = 0x02;
  enc[32] = 5;  // x = 5 is not on secp256k1
  EXPECT_THROW(ec_decode(enc), CryptoError);
}

TEST(Schnorr, SignVerify) {
  Rng rng(25);
  KeyPair kp = schnorr_keygen(rng);
  Bytes msg = to_bytes("ENDORSEMENT serial=17 vote-code=abc");
  Bytes sig = schnorr_sign(kp.sk, msg);
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
  Rng rng(26);
  KeyPair kp = schnorr_keygen(rng);
  Bytes msg = to_bytes("original");
  Bytes sig = schnorr_sign(kp.sk, msg);
  EXPECT_FALSE(schnorr_verify(kp.pk, to_bytes("0riginal"), sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  Rng rng(27);
  KeyPair kp = schnorr_keygen(rng);
  Bytes msg = to_bytes("msg");
  Bytes sig = schnorr_sign(kp.sk, msg);
  sig[40] ^= 1;
  EXPECT_FALSE(schnorr_verify(kp.pk, msg, sig));
  EXPECT_FALSE(schnorr_verify(kp.pk, msg, Bytes(64)));  // wrong size
}

TEST(Schnorr, RejectsWrongKey) {
  Rng rng(28);
  KeyPair kp1 = schnorr_keygen(rng);
  KeyPair kp2 = schnorr_keygen(rng);
  Bytes msg = to_bytes("msg");
  EXPECT_FALSE(schnorr_verify(kp2.pk, msg, schnorr_sign(kp1.sk, msg)));
}

TEST(ElGamal, HomomorphicAddition) {
  Rng rng(29);
  Point key = ec_mul_g(random_scalar(rng));
  Fn r1 = random_scalar(rng), r2 = random_scalar(rng);
  ElGamalCipher c1 = eg_commit(key, Fn::from_u64(3), r1);
  ElGamalCipher c2 = eg_commit(key, Fn::from_u64(4), r2);
  ElGamalCipher sum = eg_add(c1, c2);
  EXPECT_TRUE(eg_open_check(key, sum, Fn::from_u64(7), r1 + r2));
  EXPECT_FALSE(eg_open_check(key, sum, Fn::from_u64(8), r1 + r2));
}

TEST(ElGamal, EncodeDecode) {
  Rng rng(30);
  Point key = ec_mul_g(random_scalar(rng));
  ElGamalCipher c = eg_commit(key, Fn::one(), random_scalar(rng));
  EXPECT_TRUE(eg_eq(eg_decode(eg_encode(c)), c));
  EXPECT_THROW(eg_decode(Bytes(65)), CryptoError);
}

TEST(ElGamal, UnitVectorCommit) {
  Rng rng(31);
  Point key = ec_mul_g(random_scalar(rng));
  const FixedBaseComb comb(key);
  std::size_t m = 5, idx = 2;
  std::vector<Fn> rs;
  for (std::size_t i = 0; i < m; ++i) rs.push_back(random_scalar(rng));
  auto cs = eg_commit_unit_vector(comb, m, idx, rs);
  ASSERT_EQ(cs.size(), m);
  for (std::size_t i = 0; i < m; ++i) {
    Fn expect = (i == idx) ? Fn::one() : Fn::zero();
    EXPECT_TRUE(eg_open_check(key, cs[i], expect, rs[i]));
  }
  EXPECT_THROW(eg_commit_unit_vector(comb, m, 9, rs), CryptoError);
}

TEST(ElGamal, UnitVectorSumOpensToOne) {
  Rng rng(32);
  Point key = ec_mul_g(random_scalar(rng));
  std::size_t m = 4;
  std::vector<Fn> rs;
  for (std::size_t i = 0; i < m; ++i) rs.push_back(random_scalar(rng));
  auto cs = eg_commit_unit_vector(FixedBaseComb(key), m, 1, rs);
  ElGamalCipher sum = cs[0];
  Fn rsum = rs[0];
  for (std::size_t i = 1; i < m; ++i) {
    sum = eg_add(sum, cs[i]);
    rsum = rsum + rs[i];
  }
  EXPECT_TRUE(eg_open_check(key, sum, Fn::one(), rsum));
}

}  // namespace
}  // namespace ddemos::crypto
