// Property checks for the GLV/wNAF scalar-multiplication engine: every
// fast path (ec_mul, ec_mul2, ec_msm, batch_to_affine, mixed addition) is
// validated against the naive reference ladder over random scalars and the
// degenerate corners (zero, one, n-1, P = Q, infinity, single-element
// batches), and every rewired verifier is cross-checked bit-for-bit
// against its pre-refactor implementation on accepting AND rejecting
// inputs.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "core/messages.hpp"
#include "crypto/batch.hpp"
#include "crypto/ec.hpp"
#include "crypto/elgamal.hpp"
#include "crypto/pedersen.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/zkp.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace ddemos::crypto {
namespace {

Fn fn_from_hex(const char* h) { return Fn::from_bytes_mod(from_hex(h)); }

std::vector<Fn> edge_scalars(Rng& rng) {
  std::vector<Fn> ks;
  ks.push_back(Fn::zero());
  ks.push_back(Fn::one());
  ks.push_back(Fn::zero() - Fn::one());  // n - 1
  ks.push_back(Fn::zero() - Fn::from_u64(7));
  ks.push_back(Fn::from_u64(2));
  ks.push_back(Fn::from_u64(16));
  // The GLV lambda itself and its neighborhood (short second half).
  Fn lambda = fn_from_hex(
      "5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
  ks.push_back(lambda);
  ks.push_back(lambda + Fn::one());
  ks.push_back(Fn::zero() - lambda);
  for (int i = 0; i < 24; ++i) ks.push_back(random_scalar(rng));
  return ks;
}

TEST(EcFast, MulMatchesNaiveOverEdgeAndRandomScalars) {
  Rng rng(701);
  Point p = ec_mul_g(random_scalar(rng));
  for (const Fn& k : edge_scalars(rng)) {
    EXPECT_TRUE(ec_eq(ec_mul(k, p), ec_mul_naive(k, p)));
  }
}

TEST(EcFast, MulHandlesInfinityAndZero) {
  Rng rng(702);
  Point p = ec_mul_g(random_scalar(rng));
  EXPECT_TRUE(ec_mul(random_scalar(rng), Point::infinity()).is_infinity());
  EXPECT_TRUE(ec_mul(Fn::zero(), p).is_infinity());
  // k = n acts as zero.
  EXPECT_TRUE(ec_mul(Fn::zero() - Fn::one(), ec_generator()).is_infinity() ==
              false);
  EXPECT_TRUE(ec_eq(ec_mul(Fn::zero() - Fn::one(), ec_generator()),
                    ec_neg(ec_generator())));
}

// Scalars that walk the comb's signed-digit recoding through its corners:
// digits 0 and 128 (bytes 0x00/0x80), negative digits with a carry in every
// window (0x81.., runs of 0xff), a top byte that carries into window 32
// (n-1, n-2), and random scalars.
std::vector<Fn> comb_scalars(Rng& rng) {
  std::vector<Fn> ks{Fn::zero(), Fn::one(), Fn::from_u64(2),
                     Fn::zero() - Fn::one(), Fn::zero() - Fn::from_u64(2)};
  for (const char* h :
       {"8080808080808080808080808080808080808080808080808080808080808080",
        "8181818181818181818181818181818181818181818181818181818181818181",
        "00ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
        "00000000000000000000000000000000ffffffffffffffffffffffffffffffff",
        "ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00ff00",
        "7f807f807f807f807f807f807f807f807f807f807f807f807f807f807f807f80"}) {
    ks.push_back(fn_from_hex(h));
  }
  for (int i = 0; i < 16; ++i) ks.push_back(random_scalar(rng));
  return ks;
}

TEST(EcFast, FixedBaseCombMatchesNaive) {
  Rng rng(720);
  const FixedBaseComb own(ec_mul_naive(random_scalar(rng), ec_generator()));
  const std::pair<const char*, const FixedBaseComb*> combs[] = {
      {"G", &ec_comb_g()}, {"H", &ec_comb_h()}, {"random", &own}};
  EXPECT_TRUE(ec_eq(ec_comb_g().base(), ec_generator()));
  EXPECT_TRUE(ec_eq(ec_comb_h().base(), ec_generator_h()));
  for (const Fn& k : comb_scalars(rng)) {
    for (const auto& [name, comb] : combs) {
      EXPECT_TRUE(ec_eq(comb->mul(k), ec_mul_naive(k, comb->base())))
          << name << " k=" << to_hex(k.to_bytes_be());
    }
    EXPECT_TRUE(ec_eq(ec_mul_g(k), ec_mul_naive(k, ec_generator())));
  }
}

TEST(EcFast, FixedBaseCombAddMulAccumulates) {
  Rng rng(721);
  const FixedBaseComb comb(ec_mul_naive(random_scalar(rng), ec_generator()));
  Point start = ec_mul_naive(random_scalar(rng), ec_generator_h());
  for (const Fn& k : comb_scalars(rng)) {
    Point acc = start;
    comb.add_mul(acc, k);
    EXPECT_TRUE(ec_eq(acc, ec_add(start, ec_mul_naive(k, comb.base()))))
        << to_hex(k.to_bytes_be());
  }
  // An accumulator that meets k*base exactly (doubling) or its negation
  // (cancellation to infinity) inside the comb's additions.
  Fn k = random_scalar(rng);
  Point acc = ec_mul_naive(k, comb.base());
  comb.add_mul(acc, k);
  EXPECT_TRUE(ec_eq(acc, ec_mul_naive(k + k, comb.base())));
  acc = ec_mul_naive(k, comb.base());
  comb.add_mul(acc, k.neg());
  EXPECT_TRUE(acc.is_infinity());
}

// A scalar whose w-bit windows (bits [w*i, w*i + w), bits past 255
// dropped) are set by `digit(i)`; reduced mod n if the pattern reaches it.
template <class F>
Fn windows_scalar(int w, F digit) {
  U256 v;
  for (int i = 0; w * i < 256; ++i) {
    std::uint64_t d = digit(i);
    for (int b = 0; b < w && w * i + b < 256; ++b) {
      if ((d >> b) & 1) {
        const int bit = w * i + b;
        v.w[bit / 64] |= std::uint64_t{1} << (bit % 64);
      }
    }
  }
  return Fn::from_u256_mod(v);
}

// The recoding corners at each width: 0, 1, n-1, n-2; runs of the digit
// 2^(w-1) (no carry) and 2^(w-1)+1 (a carry through every window); the
// windows that straddle a 64-bit word (none at width 8) set above
// 2^(w-1); and a carry into the top window (the window below it all ones).
TEST(EcFast, FixedBaseCombWidthsMatchNaive) {
  Rng rng(723);
  const Point base = ec_mul_naive(random_scalar(rng), ec_generator());
  for (int w : {kKeyCombWidth, 8}) {
    const FixedBaseComb comb(base, w);
    ASSERT_EQ(comb.width(), w);
    const std::uint64_t half = std::uint64_t{1} << (w - 1);
    const int windows = (257 + w - 1) / w;
    std::vector<Fn> ks{Fn::zero(), Fn::one(), Fn::zero() - Fn::one(),
                       Fn::zero() - Fn::from_u64(2)};
    ks.push_back(windows_scalar(w, [&](int) { return half; }));
    ks.push_back(windows_scalar(w, [&](int) { return half + 1; }));
    ks.push_back(windows_scalar(w, [&](int i) {
      const int lo = w * i, hi = lo + w - 1;
      return lo / 64 != hi / 64 ? half + 3 : 0;
    }));
    ks.push_back(windows_scalar(w, [&](int i) {
      return i == windows - 2 ? (half << 1) - 1 : 0;
    }));
    ks.push_back(windows_scalar(w, [&](int i) {
      return i >= windows - 3 ? (half << 1) - 1 : rng.below(half << 1);
    }));
    for (int i = 0; i < 4; ++i) ks.push_back(random_scalar(rng));
    for (const Fn& k : ks) {
      const Point want = ec_mul_naive(k, base);
      EXPECT_TRUE(ec_eq(comb.mul(k), want))
          << "w=" << w << " k=" << to_hex(k.to_bytes_be());
      Point acc = ec_generator_h();
      comb.add_mul(acc, k);
      EXPECT_TRUE(ec_eq(acc, ec_add(ec_generator_h(), want)))
          << "w=" << w << " k=" << to_hex(k.to_bytes_be());
    }
  }
  EXPECT_THROW(FixedBaseComb(base, 1), CryptoError);
  EXPECT_THROW(FixedBaseComb(base, 17), CryptoError);
}

TEST(EcFast, PedersenCommitMatchesNaive) {
  Rng rng(722);
  auto naive = [](const Fn& m, const Fn& r) {
    return ec_add(ec_mul_naive(m, ec_generator()),
                  ec_mul_naive(r, ec_generator_h()));
  };
  const Fn r = random_scalar(rng);
  for (const Fn& m : {Fn::zero(), Fn::one(), random_scalar(rng),
                      Fn::zero() - Fn::one()}) {
    EXPECT_TRUE(ec_eq(pedersen_commit(m, r), naive(m, r)));
    EXPECT_TRUE(ec_eq(pedersen_commit(m, Fn::zero()), naive(m, Fn::zero())));
  }
  EXPECT_TRUE(pedersen_commit(Fn::zero(), Fn::zero()).is_infinity());
}

TEST(EcFast, Mul2MatchesNaiveCombination) {
  Rng rng(703);
  for (int i = 0; i < 12; ++i) {
    Fn a = random_scalar(rng);
    Fn b = random_scalar(rng);
    Point p = ec_mul_g(random_scalar(rng));
    Point want = ec_add(ec_mul_naive(a, p), ec_mul_naive(b, ec_generator()));
    EXPECT_TRUE(ec_eq(ec_mul2(a, p, b), want));
  }
  // Degenerate halves.
  Point p = ec_mul_g(random_scalar(rng));
  Fn b = random_scalar(rng);
  EXPECT_TRUE(ec_eq(ec_mul2(Fn::zero(), p, b), ec_mul_naive(b, ec_generator())));
  EXPECT_TRUE(ec_eq(ec_mul2(b, p, Fn::zero()), ec_mul_naive(b, p)));
  EXPECT_TRUE(ec_mul2(Fn::zero(), p, Fn::zero()).is_infinity());
  // a*P + b*G where P = G collapses to (a+b)*G.
  EXPECT_TRUE(ec_eq(ec_mul2(b, ec_generator(), b),
                    ec_mul_naive(b + b, ec_generator())));
}

TEST(EcFast, MsmMatchesNaiveSum) {
  Rng rng(704);
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                        std::size_t{17}}) {
    std::vector<Fn> ks;
    std::vector<Point> ps;
    Point want = Point::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      Fn k = random_scalar(rng);
      Point p = ec_mul_g(random_scalar(rng));
      ks.push_back(k);
      ps.push_back(p);
      want = ec_add(want, ec_mul_naive(k, p));
    }
    EXPECT_TRUE(ec_eq(ec_msm(ks, ps), want)) << "n=" << n;
  }
}

TEST(EcFast, MsmSkipsZeroScalarsAndInfinityPoints) {
  Rng rng(705);
  Fn k = random_scalar(rng);
  Point p = ec_mul_g(random_scalar(rng));
  std::array<Fn, 4> ks{Fn::zero(), k, Fn::one(), Fn::zero() - Fn::one()};
  std::array<Point, 4> ps{p, Point::infinity(), p, p};
  // 0*P + k*inf + 1*P + (n-1)*P = P - P = infinity... plus nothing.
  EXPECT_TRUE(ec_msm(ks, ps).is_infinity());
  // Fully-empty and fully-skipped products.
  EXPECT_TRUE(ec_msm({}, {}).is_infinity());
  std::array<Fn, 1> zk{Fn::zero()};
  std::array<Point, 1> zp{p};
  EXPECT_TRUE(ec_msm(zk, zp).is_infinity());
  EXPECT_THROW(ec_msm(std::span<const Fn>(ks).subspan(0, 2), ps),
               CryptoError);
}

TEST(EcFast, MsmRepeatedAndGeneratorPoints) {
  Rng rng(706);
  Fn a = random_scalar(rng);
  Fn b = random_scalar(rng);
  Point p = ec_mul_g(random_scalar(rng));
  // P = Q duplicated terms, plus explicit generator terms (which take the
  // fixed-base static-table path inside ec_msm).
  std::array<Fn, 3> ks{a, b, a};
  std::array<Point, 3> ps{p, p, ec_generator()};
  Point want = ec_add(ec_mul_naive(a + b, p), ec_mul_naive(a, ec_generator()));
  EXPECT_TRUE(ec_eq(ec_msm(ks, ps), want));
}

TEST(EcFast, PippengerMatchesStraussAcrossSizes) {
  Rng rng(711);
  // Random sizes straddling both engines' sweet spots, with generator
  // terms and repeated points mixed in like real verifier equations.
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{9}, std::size_t{33}, std::size_t{100},
                        std::size_t{257}}) {
    std::vector<Fn> ks;
    std::vector<Point> ps;
    Point repeated = ec_mul_g(random_scalar(rng));
    for (std::size_t i = 0; i < n; ++i) {
      ks.push_back(random_scalar(rng));
      if (i % 7 == 3) {
        ps.push_back(ec_generator());
      } else if (i % 5 == 1) {
        ps.push_back(repeated);
      } else {
        ps.push_back(ec_mul_g(random_scalar(rng)));
      }
    }
    Point fast = ec_msm_pippenger(ks, ps);
    EXPECT_TRUE(ec_eq(fast, ec_msm_strauss(ks, ps))) << "n=" << n;
    if (n <= 9) {
      Point want = Point::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        want = ec_add(want, ec_mul_naive(ks[i], ps[i]));
      }
      EXPECT_TRUE(ec_eq(fast, want)) << "n=" << n;
    }
  }
}

TEST(EcFast, PippengerEdgeScalars) {
  Rng rng(712);
  // Zero, one, n-1, lambda and friends: every edge scalar against its own
  // random point in one product, cross-checked against the naive sum.
  std::vector<Fn> ks = edge_scalars(rng);
  std::vector<Point> ps;
  Point want = Point::infinity();
  for (const Fn& k : ks) {
    Point p = ec_mul_g(random_scalar(rng));
    ps.push_back(p);
    want = ec_add(want, ec_mul_naive(k, p));
  }
  EXPECT_TRUE(ec_eq(ec_msm_pippenger(ks, ps), want));
  EXPECT_TRUE(ec_eq(ec_msm_strauss(ks, ps), want));
}

TEST(EcFast, PippengerDegenerateInputs) {
  Rng rng(713);
  Point p = ec_mul_g(random_scalar(rng));
  // All-infinity points and all-zero scalars collapse to infinity.
  std::vector<Fn> ks(8, random_scalar(rng));
  std::vector<Point> inf_ps(8, Point::infinity());
  EXPECT_TRUE(ec_msm_pippenger(ks, inf_ps).is_infinity());
  std::vector<Fn> zeros(8, Fn::zero());
  std::vector<Point> ps(8, p);
  EXPECT_TRUE(ec_msm_pippenger(zeros, ps).is_infinity());
  EXPECT_TRUE(ec_msm_pippenger({}, {}).is_infinity());
  // Cancelling pair: k*P + (n-k)*P = infinity.
  std::array<Fn, 2> ck{ks[0], Fn::zero() - ks[0]};
  std::array<Point, 2> cp{p, p};
  EXPECT_TRUE(ec_msm_pippenger(ck, cp).is_infinity());
  EXPECT_THROW(ec_msm_pippenger(std::span<const Fn>(ck).subspan(0, 1), cp),
               CryptoError);
}

TEST(EcFast, MsmAutoSelectsAtCrossoverBoundary) {
  Rng rng(714);
  // The front door agrees with both engines at the crossover and one term
  // either side of it.
  ASSERT_EQ(kMsmCrossover, 64u);
  for (std::size_t n : {kMsmCrossover - 1, kMsmCrossover, kMsmCrossover + 1}) {
    std::vector<Fn> ks;
    std::vector<Point> ps;
    for (std::size_t i = 0; i < n; ++i) {
      ks.push_back(random_scalar(rng));
      ps.push_back(ec_mul_g(random_scalar(rng)));
    }
    Point got = ec_msm(ks, ps);
    EXPECT_TRUE(ec_eq(got, ec_msm_strauss(ks, ps))) << "n=" << n;
    EXPECT_TRUE(ec_eq(got, ec_msm_pippenger(ks, ps))) << "n=" << n;
  }
}

TEST(EcFast, AddMixedMatchesGeneralAdd) {
  Rng rng(707);
  Point p = ec_mul(random_scalar(rng), ec_mul_g(random_scalar(rng)));
  Point q = ec_mul(random_scalar(rng), ec_mul_g(random_scalar(rng)));
  AffinePoint qa = to_affine(q);
  EXPECT_TRUE(ec_eq(ec_add_mixed(p, qa), ec_add(p, q)));
  // P + P through the mixed path must fall back to doubling.
  AffinePoint pa = to_affine(p);
  EXPECT_TRUE(ec_eq(ec_add_mixed(p, pa), ec_double(p)));
  // P + (-P) = infinity.
  AffinePoint na = pa;
  na.y = na.y.neg();
  EXPECT_TRUE(ec_add_mixed(p, na).is_infinity());
  // Identity on either side.
  EXPECT_TRUE(ec_eq(ec_add_mixed(Point::infinity(), qa), q));
  EXPECT_TRUE(ec_eq(ec_add_mixed(p, AffinePoint{{}, {}, true}), p));
}

TEST(EcFast, BatchToAffineMatchesPerPointConversion) {
  Rng rng(708);
  std::vector<Point> pts;
  pts.push_back(Point::infinity());
  for (int i = 0; i < 9; ++i) {
    pts.push_back(ec_mul(random_scalar(rng), ec_mul_g(random_scalar(rng))));
  }
  pts.push_back(Point::infinity());
  std::vector<AffinePoint> got = batch_to_affine(pts);
  ASSERT_EQ(got.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    AffinePoint want = to_affine(pts[i]);
    EXPECT_EQ(got[i].infinity, want.infinity);
    if (!want.infinity) {
      EXPECT_TRUE(got[i].x == want.x);
      EXPECT_TRUE(got[i].y == want.y);
      EXPECT_TRUE(on_curve(got[i]));
    }
  }
  // Single-element and empty batches.
  std::vector<Point> one{pts[1]};
  EXPECT_TRUE(batch_to_affine(one)[0].x == to_affine(pts[1]).x);
  EXPECT_TRUE(batch_to_affine({}).empty());
}

TEST(EcFast, NormalizeBatchRescalesToUnitZ) {
  Rng rng(709);
  std::vector<Point> pts;
  for (int i = 0; i < 6; ++i) {
    pts.push_back(ec_mul(random_scalar(rng), ec_mul_g(random_scalar(rng))));
  }
  pts.push_back(Point::infinity());
  std::vector<Point> orig = pts;
  ec_normalize_batch(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(ec_eq(pts[i], orig[i]));
    if (!pts[i].is_infinity()) {
      EXPECT_TRUE(pts[i].Z == Fp::one());
    }
  }
}

// --- Verifier cross-checks: bit-identical accept/reject decisions --------

TEST(EcFast, SchnorrVerifierMatchesNaive) {
  Rng rng(710);
  KeyPair kp = schnorr_keygen(rng);
  Bytes msg = to_bytes("receipt endorsement");
  Bytes sig = schnorr_sign(kp.sk, msg);
  EXPECT_TRUE(schnorr_verify(kp.pk, msg, sig));
  EXPECT_EQ(schnorr_verify(kp.pk, msg, sig),
            schnorr_verify_naive(kp.pk, msg, sig));
  // Rejections must agree too: tampered message, signature and key.
  EXPECT_EQ(schnorr_verify(kp.pk, to_bytes("receipt endorsament"), sig),
            schnorr_verify_naive(kp.pk, to_bytes("receipt endorsament"), sig));
  for (std::size_t pos : {std::size_t{1}, std::size_t{40}, std::size_t{64}}) {
    Bytes bad = sig;
    bad[pos] ^= 1;
    EXPECT_EQ(schnorr_verify(kp.pk, msg, bad),
              schnorr_verify_naive(kp.pk, msg, bad))
        << "pos=" << pos;
  }
  KeyPair other = schnorr_keygen(rng);
  EXPECT_EQ(schnorr_verify(other.pk, msg, sig),
            schnorr_verify_naive(other.pk, msg, sig));
}

TEST(EcFast, KeyedSchnorrVerifyMatchesBytesVerify) {
  // The decoded-once key must give schnorr_verify's verdict on every
  // input, accepting and rejecting, as must the folded batch, alone and
  // beside a valid instance.
  Rng rng(717);
  KeyPair kp = schnorr_keygen(rng);
  KeyPair other = schnorr_keygen(rng);
  Bytes msg = to_bytes("receipt endorsement");
  Bytes sig = schnorr_sign(kp.sk, msg);
  EXPECT_EQ(schnorr_sign(kp, msg), sig);

  Bytes flipped_s = sig;
  flipped_s[50] ^= 1;
  // R = 0x02 || x with no curve point at x.
  Bytes off_curve = sig;
  for (std::uint8_t x = 1;; ++x) {
    off_curve[32] = x;
    try {
      ec_decode(BytesView(off_curve).subspan(0, 33));
    } catch (const CryptoError&) {
      break;
    }
  }
  // An infinity pk accepts any R = s*G, whatever e is: both forms agree.
  Fn s = random_scalar(rng);
  Bytes inf_sig = ec_encode(ec_mul_g(s));
  append(inf_sig, s.to_bytes_be());
  Bytes inf_pk(33, 0);
  Bytes bad_prefix_pk = kp.pk;
  bad_prefix_pk[0] = 0x05;

  struct Case {
    const char* name;
    Bytes pk, msg, sig;
  };
  std::vector<Case> cases{
      {"valid", kp.pk, msg, sig},
      {"wrong key", other.pk, msg, sig},
      {"wrong message", kp.pk, to_bytes("receipt endorsament"), sig},
      {"flipped s", kp.pk, msg, flipped_s},
      {"off-curve R", kp.pk, msg, off_curve},
      {"infinity pk", inf_pk, msg, inf_sig},
      {"infinity pk, real sig", inf_pk, msg, sig},
      {"undecodable pk", bad_prefix_pk, msg, sig},
      {"short sig", kp.pk, msg, Bytes(sig.begin(), sig.end() - 1)},
  };
  for (const Case& c : cases) {
    SchnorrKey key = SchnorrKey::decode(c.pk);
    bool want = schnorr_verify(BytesView(c.pk), c.msg, c.sig);
    EXPECT_EQ(schnorr_verify(key, c.msg, c.sig), want) << c.name;
    SchnorrInstance inst{c.pk, c.msg, c.sig};
    EXPECT_EQ(schnorr_verify_batch({&inst, 1}), want) << c.name;
    // Beside a valid instance the folded batch is exactly as valid as the
    // case.
    const std::vector<SchnorrInstance> two{{kp.pk, msg, sig}, inst};
    EXPECT_EQ(schnorr_verify_batch(two), want) << c.name;
  }
  EXPECT_TRUE(schnorr_verify(SchnorrKey::decode(kp.pk), msg, sig));
  EXPECT_FALSE(schnorr_verify(SchnorrKey::decode(other.pk), msg, sig));
}

// A node key (decode_schnorr_keys) carries a comb, and its verifier gives
// the reference verdict on accepting and rejecting signatures.
TEST(EcFast, NodeKeySchnorrVerifyMatchesNaive) {
  Rng rng(719);
  KeyPair kp = schnorr_keygen(rng);
  KeyPair other = schnorr_keygen(rng);
  Bytes bad_pk = kp.pk;
  bad_pk[0] = 0x05;
  const std::vector<Bytes> pks{kp.pk, other.pk, bad_pk};
  const std::vector<SchnorrKey> keys = decode_schnorr_keys(pks);
  ASSERT_TRUE(keys[0].ok && keys[0].comb);
  ASSERT_EQ(keys[0].comb->width(), kKeyCombWidth);
  ASSERT_TRUE(ec_eq(keys[0].comb->base(), keys[0].point));
  ASSERT_FALSE(keys[2].ok);
  EXPECT_FALSE(keys[2].comb);

  const Bytes msg = to_bytes("receipt endorsement");
  const Bytes sig = schnorr_sign(kp, msg);
  const Bytes sig2 = schnorr_sign(kp, to_bytes("another digest"));
  Bytes s_plus_one(sig.begin(), sig.begin() + 33);
  append(s_plus_one,
         (Fn::from_bytes_mod(BytesView(sig).subspan(33)) + Fn::one())
             .to_bytes_be());
  Bytes other_r(sig2.begin(), sig2.begin() + 33);
  append(other_r, BytesView(sig).subspan(33));
  Bytes flipped_parity = sig;
  flipped_parity[0] ^= 1;  // 0x02 <-> 0x03: -R
  Bytes off_curve = sig;
  for (std::uint8_t x = 1;; ++x) {
    off_curve[32] = x;
    try {
      ec_decode(BytesView(off_curve).subspan(0, 33));
    } catch (const CryptoError&) {
      break;
    }
  }
  Bytes long_sig = sig;
  long_sig.push_back(0);

  struct Case {
    const char* name;
    std::size_t key;
    Bytes sig;
  };
  const std::vector<Case> cases{
      {"valid", 0, sig},
      {"s+1", 0, s_plus_one},
      {"another signature's R", 0, other_r},
      {"flipped R parity", 0, flipped_parity},
      {"R not on the curve", 0, off_curve},
      {"64-byte signature", 0, Bytes(sig.begin(), sig.end() - 1)},
      {"66-byte signature", 0, long_sig},
      {"wrong key", 1, sig},
      {"key that did not decode", 2, sig},
  };
  for (const Case& c : cases) {
    const bool want = schnorr_verify_naive(pks[c.key], msg, c.sig);
    EXPECT_EQ(want, std::string(c.name) == "valid") << c.name;
    EXPECT_EQ(schnorr_verify(keys[c.key], msg, c.sig), want) << c.name;
    EXPECT_EQ(schnorr_verify(SchnorrKey::decode(pks[c.key]), msg, c.sig),
              want)
        << c.name;
  }
}

// Reference Ucert validation: one check per signature, in order, against
// keys decoded on every call, with no cheap rejection.
bool ucert_valid_per_signature(const core::Ucert& u, BytesView election_id,
                               core::Serial serial,
                               const std::vector<Bytes>& pks,
                               std::size_t threshold) {
  Bytes digest = core::endorsement_digest(election_id, serial, u.vote_code);
  std::set<std::uint32_t> seen;
  std::size_t good = 0;
  for (const auto& [idx, sig] : u.signatures) {
    if (idx >= pks.size() || seen.count(idx)) continue;
    if (!schnorr_verify(BytesView(pks[idx]), digest, sig)) continue;
    seen.insert(idx);
    if (++good >= threshold) return true;
  }
  return false;
}

TEST(EcFast, UcertBatchKeepsPerSignatureVerdicts) {
  Rng rng(718);
  std::vector<KeyPair> kps;
  std::vector<Bytes> pks;
  for (int i = 0; i < 4; ++i) {
    kps.push_back(schnorr_keygen(rng));
    pks.push_back(kps.back().pk);
  }
  const std::vector<SchnorrKey> keys = decode_schnorr_keys(pks);
  const Bytes eid = to_bytes("ucert-batch");
  const core::Serial serial = 41;
  core::Ucert u;
  u.vote_code = to_bytes("code-a");
  Bytes digest = core::endorsement_digest(eid, serial, u.vote_code);
  for (std::uint32_t i = 0; i < 3; ++i) {
    u.signatures.push_back({i, schnorr_sign(kps[i], digest)});
  }
  Bytes forged = schnorr_sign(kps[3].sk, to_bytes("another digest"));

  // The cases of the protocol's UCERT rules, plus forgeries that must not
  // get through or spoil a certificate. Each signature is checked at most
  // once, none past the threshold, and none when too few distinct signers
  // are in range.
  core::Ucert dup = u;
  dup.signatures.pop_back();
  dup.signatures.push_back(dup.signatures[0]);
  core::Ucert oob = u;
  oob.signatures[0].first = 99;
  core::Ucert four_first_forged = u;
  four_first_forged.signatures.insert(four_first_forged.signatures.begin(),
                                      {3, forged});
  core::Ucert four_last_forged = u;
  four_last_forged.signatures.push_back({3, forged});
  core::Ucert two_forged = four_first_forged;
  two_forged.signatures[1].second = forged;
  core::Ucert forged_then_good = u;  // a signer's bad copy, then its good one
  forged_then_good.signatures.insert(forged_then_good.signatures.begin(),
                                     {0, forged});
  struct Case {
    const char* name;
    const core::Ucert& cert;
    core::Serial serial;
    bool want;
    std::size_t checks;  // signature checks made
  };
  const Case cases[] = {
      {"quorum", u, serial, true, 3},
      {"duplicate signer", dup, serial, false, 0},
      {"other serial", u, serial + 1, false, 3},
      {"out-of-range index", oob, serial, false, 0},
      {"4 signatures, first forged", four_first_forged, serial, true, 4},
      {"4 signatures, last forged", four_last_forged, serial, true, 3},
      {"2 of 4 forged", two_forged, serial, false, 4},
      {"forged then good copy", forged_then_good, serial, true, 4},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ucert_valid_per_signature(c.cert, eid, c.serial, pks, 3),
              c.want)
        << c.name;
    std::size_t checks = 0;
    EXPECT_EQ(c.cert.valid(eid, c.serial, keys, 3, &checks), c.want)
        << c.name;
    EXPECT_EQ(checks, c.checks) << c.name;
  }
}

TEST(EcFast, BitProofVerifierMatchesNaive) {
  Rng rng(711);
  Point key = ec_mul_g(random_scalar(rng));
  const FixedBaseComb comb(key);
  for (bool bit : {false, true}) {
    Fn r = random_scalar(rng);
    ElGamalCipher c = eg_commit(key, bit ? Fn::one() : Fn::zero(), r);
    BitProof p = prove_bit(comb, c, bit, r, rng);
    Fn ch = random_scalar(rng);
    BitProofResponse resp = p.secrets.at(ch);
    EXPECT_TRUE(verify_bit(key, c, p.first_move, ch, resp));
    EXPECT_EQ(verify_bit(key, c, p.first_move, ch, resp),
              verify_bit_naive(key, c, p.first_move, ch, resp));
    // Corrupt each response component and the challenge; accept/reject
    // must stay identical to the pre-refactor verifier.
    BitProofResponse bad = resp;
    bad.z0 = bad.z0 + Fn::one();
    EXPECT_EQ(verify_bit(key, c, p.first_move, ch, bad),
              verify_bit_naive(key, c, p.first_move, ch, bad));
    bad = resp;
    bad.z1 = bad.z1 + Fn::one();
    EXPECT_EQ(verify_bit(key, c, p.first_move, ch, bad),
              verify_bit_naive(key, c, p.first_move, ch, bad));
    bad = resp;
    bad.c0 = bad.c0 + Fn::one();
    EXPECT_EQ(verify_bit(key, c, p.first_move, ch, bad),
              verify_bit_naive(key, c, p.first_move, ch, bad));
    EXPECT_EQ(verify_bit(key, c, p.first_move, ch + Fn::one(), resp),
              verify_bit_naive(key, c, p.first_move, ch + Fn::one(), resp));
    // Proof for a non-bit plaintext must be rejected by both.
    Fn r2 = random_scalar(rng);
    ElGamalCipher c2 = eg_commit(key, Fn::from_u64(2), r2);
    EXPECT_FALSE(verify_bit(key, c2, p.first_move, ch, resp));
    EXPECT_EQ(verify_bit(key, c2, p.first_move, ch, resp),
              verify_bit_naive(key, c2, p.first_move, ch, resp));
  }
}

TEST(EcFast, SumProofVerifierMatchesNaive) {
  Rng rng(712);
  Point key = ec_mul_g(random_scalar(rng));
  Fn r1 = random_scalar(rng), r2 = random_scalar(rng);
  ElGamalCipher sum =
      eg_add(eg_commit(key, Fn::one(), r1), eg_commit(key, Fn::zero(), r2));
  SumProof p = prove_sum(FixedBaseComb(key), r1 + r2, rng);
  Fn ch = random_scalar(rng);
  Fn z = p.z.at(ch);
  EXPECT_TRUE(verify_sum(key, sum, Fn::one(), p.first_move, ch, z));
  EXPECT_EQ(verify_sum(key, sum, Fn::one(), p.first_move, ch, z),
            verify_sum_naive(key, sum, Fn::one(), p.first_move, ch, z));
  // Wrong total, wrong response, wrong challenge: decisions must agree.
  EXPECT_EQ(verify_sum(key, sum, Fn::from_u64(2), p.first_move, ch, z),
            verify_sum_naive(key, sum, Fn::from_u64(2), p.first_move, ch, z));
  EXPECT_EQ(
      verify_sum(key, sum, Fn::one(), p.first_move, ch, z + Fn::one()),
      verify_sum_naive(key, sum, Fn::one(), p.first_move, ch, z + Fn::one()));
  EXPECT_EQ(verify_sum(key, sum, Fn::one(), p.first_move, ch + Fn::one(), z),
            verify_sum_naive(key, sum, Fn::one(), p.first_move,
                             ch + Fn::one(), z));
}

TEST(EcFast, PedersenVssVerifierMatchesNaive) {
  Rng rng(713);
  PedersenDeal deal = pedersen_vss_deal(random_scalar(rng), 3, 5, rng);
  for (const PedersenShare& s : deal.shares) {
    EXPECT_TRUE(pedersen_vss_verify(s, deal.coefficient_comms));
    EXPECT_EQ(pedersen_vss_verify(s, deal.coefficient_comms),
              pedersen_vss_verify_naive(s, deal.coefficient_comms));
    PedersenShare bad = s;
    bad.f = bad.f + Fn::one();
    EXPECT_EQ(pedersen_vss_verify(bad, deal.coefficient_comms),
              pedersen_vss_verify_naive(bad, deal.coefficient_comms));
    bad = s;
    bad.g = bad.g + Fn::one();
    EXPECT_EQ(pedersen_vss_verify(bad, deal.coefficient_comms),
              pedersen_vss_verify_naive(bad, deal.coefficient_comms));
  }
  EXPECT_FALSE(pedersen_vss_verify(deal.shares[0], {}));
}

TEST(EcFast, CommitmentsStayNormalizedAndCorrect) {
  Rng rng(714);
  Point key = ec_mul_g(random_scalar(rng));
  Fn m = Fn::from_u64(3), r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, m, r);
  // Outputs are batch-normalized (Z == 1) so encoding skips inversions.
  EXPECT_TRUE(c.a.Z == Fp::one());
  EXPECT_TRUE(c.b.Z == Fp::one());
  // And they agree with the textbook construction.
  EXPECT_TRUE(ec_eq(c.a, ec_mul_naive(r, ec_generator())));
  EXPECT_TRUE(ec_eq(c.b, ec_add(ec_mul_naive(m, ec_generator()),
                                ec_mul_naive(r, key))));
  EXPECT_TRUE(eg_open_check(key, c, m, r));
  EXPECT_FALSE(eg_open_check(key, c, m + Fn::one(), r));

  std::vector<Fn> rs;
  for (int i = 0; i < 4; ++i) rs.push_back(random_scalar(rng));
  auto cs = eg_commit_unit_vector(FixedBaseComb(key), 4, 2, rs);
  for (std::size_t i = 0; i < cs.size(); ++i) {
    EXPECT_TRUE(cs[i].a.Z == Fp::one());
    EXPECT_TRUE(cs[i].b.Z == Fp::one());
    EXPECT_TRUE(eg_open_check(key, cs[i],
                              i == 2 ? Fn::one() : Fn::zero(), rs[i]));
  }
  // Pedersen commitment agrees with its textbook form.
  EXPECT_TRUE(ec_eq(pedersen_commit(m, r),
                    ec_add(ec_mul_naive(m, ec_generator()),
                           ec_mul_naive(r, ec_generator_h()))));
}

// --- Batch verification --------------------------------------------------

TEST(EcFast, SchnorrBatchAcceptsValidAndFlagsForgery) {
  Rng rng(715);
  std::vector<SchnorrInstance> xs;
  for (int i = 0; i < 8; ++i) {
    KeyPair kp = schnorr_keygen(rng);
    Bytes msg = rng.bytes(24);
    xs.push_back(SchnorrInstance{kp.pk, msg, schnorr_sign(kp.sk, msg)});
  }
  EXPECT_TRUE(schnorr_verify_batch(xs));
  EXPECT_TRUE(schnorr_verify_batch({}));
  EXPECT_TRUE(schnorr_verify_batch(std::span<const SchnorrInstance>(
      xs.data(), 1)));
  xs[5].sig[40] ^= 1;
  EXPECT_FALSE(schnorr_verify_batch(xs));
  xs[5].sig[40] ^= 1;
  xs[3].msg[0] ^= 1;
  EXPECT_FALSE(schnorr_verify_batch(xs));
  xs[3].msg[0] ^= 1;
  xs[2].sig.pop_back();
  EXPECT_FALSE(schnorr_verify_batch(xs));  // malformed instance
}

TEST(EcFast, BitAndSumBatchesMatchPerInstanceDecisions) {
  Rng rng(716);
  Point key = ec_mul_g(random_scalar(rng));
  const FixedBaseComb comb(key);
  Fn ch = random_scalar(rng);
  std::vector<BitProofInstance> bits;
  std::vector<SumProofInstance> sums;
  for (int i = 0; i < 6; ++i) {
    Fn r = random_scalar(rng);
    bool bit = i % 2 != 0;
    ElGamalCipher c = eg_commit(key, bit ? Fn::one() : Fn::zero(), r);
    BitProof p = prove_bit(comb, c, bit, r, rng);
    bits.push_back(BitProofInstance{c, p.first_move, ch, p.secrets.at(ch)});
    SumProof sp = prove_sum(comb, r, rng);
    sums.push_back(SumProofInstance{c, bit ? Fn::one() : Fn::zero(),
                                    sp.first_move, ch, sp.z.at(ch)});
  }
  EXPECT_TRUE(verify_bit_batch(key, bits));
  EXPECT_TRUE(verify_sum_batch(key, sums));
  EXPECT_TRUE(verify_bit_batch(key, {}));
  EXPECT_TRUE(verify_sum_batch(key, {}));
  // One corrupted instance sinks the combined check.
  bits[4].resp.z1 = bits[4].resp.z1 + Fn::one();
  EXPECT_FALSE(verify_bit_batch(key, bits));
  // ...and the per-instance fallback attributes exactly one failure.
  std::size_t bad = 0;
  for (const auto& x : bits) {
    if (!verify_bit(key, x.cipher, x.fm, x.challenge, x.resp)) ++bad;
  }
  EXPECT_EQ(bad, 1u);
  sums[1].z = sums[1].z + Fn::one();
  EXPECT_FALSE(verify_sum_batch(key, sums));
  // Inconsistent challenge split fails before any curve work.
  bits[4].resp.z1 = bits[4].resp.z1 - Fn::one();
  bits[0].resp.c0 = bits[0].resp.c0 + Fn::one();
  EXPECT_FALSE(verify_bit_batch(key, bits));
}

TEST(EcFast, EgOpenBatchMatchesPerInstanceDecisions) {
  Rng rng(717);
  Point key = ec_mul_g(random_scalar(rng));
  std::vector<EgOpenInstance> xs;
  for (int i = 0; i < 5; ++i) {
    Fn r = random_scalar(rng);
    Fn m = Fn::from_u64(static_cast<std::uint64_t>(i % 2));
    xs.push_back(EgOpenInstance{eg_commit(key, m, r), m, r});
  }
  EXPECT_TRUE(eg_open_check_batch(key, xs));
  EXPECT_TRUE(eg_open_check_batch(key, {}));
  xs[3].m = xs[3].m + Fn::one();
  EXPECT_FALSE(eg_open_check_batch(key, xs));
  std::size_t bad = 0;
  for (const auto& x : xs) {
    if (!eg_open_check(key, x.cipher, x.m, x.r)) ++bad;
  }
  EXPECT_EQ(bad, 1u);
}

}  // namespace
}  // namespace ddemos::crypto
