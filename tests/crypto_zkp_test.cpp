#include <gtest/gtest.h>

#include "crypto/rng.hpp"
#include "crypto/shamir.hpp"
#include "crypto/zkp.hpp"

namespace ddemos::crypto {
namespace {

struct ZkpFixture : ::testing::Test {
  Rng rng{61};
  Point key = ec_mul_g(random_scalar(rng));
  FixedBaseComb comb{key};
};

TEST_F(ZkpFixture, BitProofAcceptsZero) {
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::zero(), r);
  BitProof p = prove_bit(comb, c, false, r, rng);
  Fn ch = challenge_from_coins(to_bytes("e1"), to_bytes("0110"));
  EXPECT_TRUE(verify_bit(key, c, p.first_move, ch, p.secrets.at(ch)));
}

TEST_F(ZkpFixture, BitProofAcceptsOne) {
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::one(), r);
  BitProof p = prove_bit(comb, c, true, r, rng);
  Fn ch = challenge_from_coins(to_bytes("e1"), to_bytes("1011"));
  EXPECT_TRUE(verify_bit(key, c, p.first_move, ch, p.secrets.at(ch)));
}

TEST_F(ZkpFixture, BitProofWorksForManyChallenges) {
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::one(), r);
  BitProof p = prove_bit(comb, c, true, r, rng);
  for (int i = 0; i < 10; ++i) {
    Fn ch = random_scalar(rng);
    EXPECT_TRUE(verify_bit(key, c, p.first_move, ch, p.secrets.at(ch)));
  }
}

// The prover builds its first moves on fixed-base combs from (bit, r); they
// must be the very points of the textbook construction over the cipher:
// t_sim = (z*G - c*A, z*K - c*B_sim) on the simulated branch and
// (w*G, w*K) on the real one, with (c_sim, z_sim, w) replayed from a copy
// of the prover's rng.
TEST_F(ZkpFixture, BitProverMatchesTextbookFirstMoves) {
  const Point& g = ec_generator();
  for (bool bit : {false, true}) {
    Fn r = random_scalar(rng);
    ElGamalCipher c = eg_commit(key, bit ? Fn::one() : Fn::zero(), r);
    Rng replay = rng;
    BitProof p = prove_bit(comb, c, bit, r, rng);
    Fn c_sim = random_scalar(replay);
    Fn z_sim = random_scalar(replay);
    Fn w = random_scalar(replay);

    Point b_sim = bit ? c.b : ec_sub(c.b, g);
    Point t1_sim = ec_sub(ec_mul_naive(z_sim, g), ec_mul_naive(c_sim, c.a));
    Point t2_sim =
        ec_sub(ec_mul_naive(z_sim, key), ec_mul_naive(c_sim, b_sim));
    Point t1_real = ec_mul_naive(w, g);
    Point t2_real = ec_mul_naive(w, key);
    const BitProofFirstMove& fm = p.first_move;
    EXPECT_TRUE(ec_eq(bit ? fm.t1_0 : fm.t1_1, t1_sim)) << bit;
    EXPECT_TRUE(ec_eq(bit ? fm.t2_0 : fm.t2_1, t2_sim)) << bit;
    EXPECT_TRUE(ec_eq(bit ? fm.t1_1 : fm.t1_0, t1_real)) << bit;
    EXPECT_TRUE(ec_eq(bit ? fm.t2_1 : fm.t2_0, t2_real)) << bit;

    Fn ch = random_scalar(rng);
    EXPECT_TRUE(verify_bit(key, c, fm, ch, p.secrets.at(ch))) << bit;
    // A one-ciphertext encoding sums to its own plaintext.
    SumProof sp = prove_sum(comb, r, rng);
    EXPECT_TRUE(verify_sum(key, c, bit ? Fn::one() : Fn::zero(),
                           sp.first_move, ch, sp.z.at(ch)))
        << bit;
  }
}

TEST_F(ZkpFixture, BitProofRejectsTwo) {
  // A cheating EA commits to 2 ("stuff the ballot") and reuses the proof
  // machinery for bit=1; verification must fail for essentially all
  // challenges.
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::from_u64(2), r);
  BitProof p = prove_bit(comb, c, true, r, rng);
  Fn ch = challenge_from_coins(to_bytes("e1"), to_bytes("001"));
  EXPECT_FALSE(verify_bit(key, c, p.first_move, ch, p.secrets.at(ch)));
}

TEST_F(ZkpFixture, BitProofRejectsWrongChallenge) {
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::zero(), r);
  BitProof p = prove_bit(comb, c, false, r, rng);
  Fn ch1 = challenge_from_coins(to_bytes("e1"), to_bytes("0"));
  Fn ch2 = challenge_from_coins(to_bytes("e1"), to_bytes("1"));
  // Response computed for ch1 must not verify against ch2.
  EXPECT_FALSE(verify_bit(key, c, p.first_move, ch2, p.secrets.at(ch1)));
}

TEST_F(ZkpFixture, BitProofRejectsMismatchedCipher) {
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::zero(), r);
  BitProof p = prove_bit(comb, c, false, r, rng);
  ElGamalCipher other = eg_commit(key, Fn::zero(), random_scalar(rng));
  Fn ch = random_scalar(rng);
  EXPECT_FALSE(verify_bit(key, other, p.first_move, ch, p.secrets.at(ch)));
}

TEST_F(ZkpFixture, ResponsesAreShareable) {
  // The trustee path: share the affine coefficients with Shamir, evaluate
  // shares at the challenge, reconstruct the response, verify.
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::one(), r);
  BitProof p = prove_bit(comb, c, true, r, rng);
  Fn ch = challenge_from_coins(to_bytes("e9"), to_bytes("101"));

  constexpr std::size_t kT = 3, kN = 5;
  const AffineScalar* comps[4] = {&p.secrets.c0, &p.secrets.c1, &p.secrets.z0,
                                  &p.secrets.z1};
  Fn rec[4];
  for (int i = 0; i < 4; ++i) {
    auto us = shamir_deal(comps[i]->u, kT, kN, rng);
    auto vs = shamir_deal(comps[i]->v, kT, kN, rng);
    // Each trustee computes share_u + ch * share_v; that is a valid Shamir
    // share of u + ch*v by linearity.
    std::vector<Share> eval;
    for (std::size_t j = 0; j < kN; ++j) {
      eval.push_back(Share{us[j].x, us[j].y + ch * vs[j].y});
    }
    eval.resize(kT);
    rec[i] = shamir_reconstruct(eval, kT);
  }
  BitProofResponse resp{rec[0], rec[1], rec[2], rec[3]};
  EXPECT_TRUE(verify_bit(key, c, p.first_move, ch, resp));
}

TEST_F(ZkpFixture, SumProofAccepts) {
  // Unit vector of length 4, index 2; sum of ciphertexts encrypts 1.
  std::size_t m = 4;
  std::vector<Fn> rs;
  for (std::size_t i = 0; i < m; ++i) rs.push_back(random_scalar(rng));
  auto cs = eg_commit_unit_vector(comb, m, 2, rs);
  ElGamalCipher sum = cs[0];
  Fn rsum = rs[0];
  for (std::size_t i = 1; i < m; ++i) {
    sum = eg_add(sum, cs[i]);
    rsum = rsum + rs[i];
  }
  SumProof p = prove_sum(comb, rsum, rng);
  Fn ch = random_scalar(rng);
  EXPECT_TRUE(verify_sum(key, sum, Fn::one(), p.first_move, ch, p.z.at(ch)));
}

TEST_F(ZkpFixture, SumProofRejectsDoubleVoteEncoding) {
  // Malicious encoding with two ones: sum encrypts 2, proof of "sum == 1"
  // must fail.
  std::size_t m = 3;
  std::vector<ElGamalCipher> cs;
  std::vector<Fn> rs;
  for (std::size_t i = 0; i < m; ++i) {
    rs.push_back(random_scalar(rng));
    Fn mi = (i <= 1) ? Fn::one() : Fn::zero();
    cs.push_back(eg_commit(key, mi, rs[i]));
  }
  ElGamalCipher sum = cs[0];
  Fn rsum = rs[0];
  for (std::size_t i = 1; i < m; ++i) {
    sum = eg_add(sum, cs[i]);
    rsum = rsum + rs[i];
  }
  SumProof p = prove_sum(comb, rsum, rng);
  Fn ch = random_scalar(rng);
  EXPECT_FALSE(verify_sum(key, sum, Fn::one(), p.first_move, ch, p.z.at(ch)));
  // It does prove sum == 2, which verifiers never accept for a ballot.
  EXPECT_TRUE(
      verify_sum(key, sum, Fn::from_u64(2), p.first_move, ch, p.z.at(ch)));
}

TEST_F(ZkpFixture, ChallengeDependsOnCoinsAndElection) {
  Fn c1 = challenge_from_coins(to_bytes("e1"), to_bytes("0101"));
  Fn c2 = challenge_from_coins(to_bytes("e1"), to_bytes("0111"));
  Fn c3 = challenge_from_coins(to_bytes("e2"), to_bytes("0101"));
  EXPECT_NE(c1, c2);
  EXPECT_NE(c1, c3);
}

}  // namespace
}  // namespace ddemos::crypto
