#include "crypto/zkp.hpp"

#include <array>

#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "util/error.hpp"

namespace ddemos::crypto {

BitProof prove_bit(const FixedBaseComb& key,
                   const ElGamalCipher& /*cipher*/, bool bit, const Fn& r,
                   Rng& rng) {
  // Statement pair per branch: branch d proves log_G(A) = log_K(B - d*G).
  // Simulate the false branch with a random (c_sim, z_sim); run the real
  // branch honestly with fresh randomness w.
  Fn c_sim = random_scalar(rng);
  Fn z_sim = random_scalar(rng);
  Fn w = random_scalar(rng);

  // The cipher is fixed by (bit, r): A = r*G, B = bit*G + r*K. So the
  // simulated branch's statement is (A, B - (1-bit)*G) = (r*G,
  // (2*bit-1)*G + r*K), and its first move t1 = z*G - c*A and
  // t2 = z*K - c*(B - (1-bit)*G) collapse, with e = z - c*r, to
  // t1 = e*G and t2 = e*K -+ c*G: every point comes off a fixed-base comb.
  const FixedBaseComb& g = ec_comb_g();
  Fn e = z_sim - c_sim * r;
  Point t1_sim = g.mul(e);
  Point t2_sim = key.mul(e);
  g.add_mul(t2_sim, bit ? c_sim.neg() : c_sim);
  // Real first move: t1 = w*G, t2 = w*K.
  Point t1_real = g.mul(w);
  Point t2_real = key.mul(w);

  BitProof out;
  if (!bit) {
    out.first_move = {t1_real, t2_real, t1_sim, t2_sim};
    // c0 = c - c_sim, z0 = (w - c_sim*r) + c*r ; c1, z1 constant.
    out.secrets.c0 = {c_sim.neg(), Fn::one()};
    out.secrets.z0 = {w - c_sim * r, r};
    out.secrets.c1 = {c_sim, Fn::zero()};
    out.secrets.z1 = {z_sim, Fn::zero()};
  } else {
    out.first_move = {t1_sim, t2_sim, t1_real, t2_real};
    out.secrets.c0 = {c_sim, Fn::zero()};
    out.secrets.z0 = {z_sim, Fn::zero()};
    out.secrets.c1 = {c_sim.neg(), Fn::one()};
    out.secrets.z1 = {w - c_sim * r, r};
  }
  return out;
}

BitProof prove_bit(const Point& key, const ElGamalCipher& cipher, bool bit,
                   const Fn& r, Rng& rng) {
  return prove_bit(FixedBaseComb(key), cipher, bit, r, rng);
}

namespace {

// z*BASE - c*STMT - T == 0 as one 3-term MSM (the generator term inside
// ec_msm rides the static tables, so each equation costs one shared
// doubling ladder).
bool dh_equation_holds(const Fn& z, const Point& base, const Fn& c,
                       const Point& stmt, const Point& t) {
  std::array<Fn, 3> ks{z, c, Fn::one()};
  std::array<Point, 3> ps{base, ec_neg(stmt), ec_neg(t)};
  return ec_msm(ks, ps).is_infinity();
}

}  // namespace

bool verify_bit(const Point& key, const ElGamalCipher& cipher,
                const BitProofFirstMove& fm, const Fn& challenge,
                const BitProofResponse& resp) {
  if (!(resp.c0 + resp.c1 == challenge)) return false;
  const Point& g = ec_generator();
  // Branch 0: statement (A, B).
  if (!dh_equation_holds(resp.z0, g, resp.c0, cipher.a, fm.t1_0)) {
    return false;
  }
  if (!dh_equation_holds(resp.z0, key, resp.c0, cipher.b, fm.t2_0)) {
    return false;
  }
  // Branch 1: statement (A, B - G); the B - G adjustment folds into the
  // MSM as a +c1 coefficient on G.
  if (!dh_equation_holds(resp.z1, g, resp.c1, cipher.a, fm.t1_1)) {
    return false;
  }
  std::array<Fn, 4> ks{resp.z1, resp.c1, resp.c1, Fn::one()};
  std::array<Point, 4> ps{key, ec_neg(cipher.b), g, ec_neg(fm.t2_1)};
  return ec_msm(ks, ps).is_infinity();
}

bool verify_bit_naive(const Point& key, const ElGamalCipher& cipher,
                      const BitProofFirstMove& fm, const Fn& challenge,
                      const BitProofResponse& resp) {
  if (!(resp.c0 + resp.c1 == challenge)) return false;
  const Point& g = ec_generator();
  // Branch 0: statement (A, B).
  if (!ec_eq(ec_mul_g(resp.z0),
             ec_add(fm.t1_0, ec_mul_naive(resp.c0, cipher.a)))) {
    return false;
  }
  if (!ec_eq(ec_mul_naive(resp.z0, key),
             ec_add(fm.t2_0, ec_mul_naive(resp.c0, cipher.b)))) {
    return false;
  }
  // Branch 1: statement (A, B - G).
  Point b1 = ec_sub(cipher.b, g);
  if (!ec_eq(ec_mul_g(resp.z1),
             ec_add(fm.t1_1, ec_mul_naive(resp.c1, cipher.a)))) {
    return false;
  }
  return ec_eq(ec_mul_naive(resp.z1, key),
               ec_add(fm.t2_1, ec_mul_naive(resp.c1, b1)));
}

SumProof prove_sum(const FixedBaseComb& key, const Fn& total_randomness,
                   Rng& rng) {
  Fn w = random_scalar(rng);
  SumProof out;
  out.first_move.t1 = ec_mul_g(w);
  out.first_move.t2 = key.mul(w);
  out.z = {w, total_randomness};
  return out;
}

bool verify_sum(const Point& key, const ElGamalCipher& sum, const Fn& total,
                const SumProofFirstMove& fm, const Fn& challenge,
                const Fn& z) {
  // Statement: (A*, B* - total*G) is a DH pair w.r.t. (G, K). Each side
  // collapses into one MSM; the total*G adjustment becomes a
  // +challenge*total coefficient on G.
  const Point& g = ec_generator();
  if (!dh_equation_holds(z, g, challenge, sum.a, fm.t1)) return false;
  std::array<Fn, 4> ks{z, challenge * total, challenge, Fn::one()};
  std::array<Point, 4> ps{key, g, ec_neg(sum.b), ec_neg(fm.t2)};
  return ec_msm(ks, ps).is_infinity();
}

bool verify_sum_naive(const Point& key, const ElGamalCipher& sum,
                      const Fn& total, const SumProofFirstMove& fm,
                      const Fn& challenge, const Fn& z) {
  Point b_adj = ec_sub(sum.b, ec_mul_g(total));
  if (!ec_eq(ec_mul_g(z), ec_add(fm.t1, ec_mul_naive(challenge, sum.a)))) {
    return false;
  }
  return ec_eq(ec_mul_naive(z, key),
               ec_add(fm.t2, ec_mul_naive(challenge, b_adj)));
}

Fn challenge_from_coins(BytesView election_id, BytesView coin_bits) {
  Sha256 h;
  h.update(to_bytes("ddemos/zk-challenge"));
  h.update(election_id);
  h.update(coin_bits);
  return Fn::from_bytes_mod(hash_view(h.finish()));
}

}  // namespace ddemos::crypto
