// secp256k1 group operations (Jacobian coordinates) — the elliptic-curve
// substrate for the lifted-ElGamal option-encoding commitments, Pedersen
// commitments/VSS, Chaum-Pedersen proofs and Schnorr signatures. Stands in
// for the paper's use of the MIRACL library.
//
// Scalar multiplication is built around a shared Strauss/wNAF engine:
// every variable-base scalar is split with the GLV endomorphism
// (phi(x, y) = (beta*x, y) = lambda*P) into two ~128-bit halves, recoded
// into width-5 wNAF, and evaluated against batch-normalized affine
// odd-multiples tables with mixed Jacobian+affine additions, so k-term
// products share one doubling ladder and one field inversion.
//
// Products on a base that is known ahead of time and used many times (G,
// the Pedersen generator H, an election's commitment key, the node keys
// every signature is checked against) skip the ladder altogether: a
// FixedBaseComb holds every signed w-bit digit multiple of every window,
// so a product is at most ceil(257/w) mixed additions.
#pragma once

#include <span>
#include <vector>

#include "crypto/fe.hpp"
#include "util/bytes.hpp"

namespace ddemos::crypto {

class Rng;

// Jacobian projective point; the identity is encoded as Z == 0.
struct Point {
  Fp X, Y, Z;

  static Point infinity() { return Point{}; }
  bool is_infinity() const { return Z.is_zero(); }
};

struct AffinePoint {
  Fp x, y;
  bool infinity = false;
};

Point ec_add(const Point& p, const Point& q);
// Mixed addition P + Q with Q affine (madd-2007-bl): 7M+4S instead of the
// 11M+5S general add — the workhorse of the wNAF table lookups.
Point ec_add_mixed(const Point& p, const AffinePoint& q);
Point ec_double(const Point& p);
Point ec_neg(const Point& p);
Point ec_sub(const Point& p, const Point& q);

// Scalar multiplication by a scalar-field element (GLV + wNAF engine).
Point ec_mul(const Fn& k, const Point& p);
// The textbook 256-iteration double-and-add ladder, kept as the reference
// implementation for cross-checking and the speed-regression gate.
Point ec_mul_naive(const Fn& k, const Point& p);
// Interleaved Strauss double-mul a*P + b*G; the b half runs against static
// precomputed affine odd-multiple tables for G and phi(G).
Point ec_mul2(const Fn& a, const Point& p, const Fn& b);
// General multi-scalar product sum_i ks[i]*ps[i]. Auto-selecting front
// door: small products run the Strauss engine, large ones cross over to
// the Pippenger bucket method at kMsmCrossover terms. Zero scalars
// and infinity points are skipped by both engines.
Point ec_msm(std::span<const Fn> ks, std::span<const Point> ps);
// The Strauss/wNAF engine directly (the pre-crossover path).
Point ec_msm_strauss(std::span<const Fn> ks, std::span<const Point> ps);
// Bucket-method MSM: GLV halves binned into 2^c-1 buckets per c-bit
// window (c grows ~log2 n), buckets batch-normalized with one Montgomery
// simultaneous inversion and collapsed by running sums. Wins past a few
// dozen terms where Strauss' per-point tables stop amortizing.
Point ec_msm_pippenger(std::span<const Fn> ks, std::span<const Point> ps);
// Point count at or above which ec_msm picks Pippenger, measured by the
// micro_crypto Strauss-vs-Pippenger sweep (EXPERIMENTS.md "MSM engine
// crossover").
inline constexpr std::size_t kMsmCrossover = 64;

bool ec_eq(const Point& p, const Point& q);

AffinePoint to_affine(const Point& p);
Point from_affine(const AffinePoint& a);
bool on_curve(const AffinePoint& a);

// Montgomery simultaneous inversion: converts N points to affine with one
// field inversion + 3(N-1) multiplies instead of N inversions. Infinity
// inputs map to affine infinity.
std::vector<AffinePoint> batch_to_affine(std::span<const Point> pts);
// In-place variant: rescales each point to Z == 1 (Z == 0 for infinity),
// so later ec_encode/to_affine calls skip their per-point inversion.
void ec_normalize_batch(std::span<Point> pts);

// The standard base point G.
const Point& ec_generator();
// An independent generator H with unknown discrete log w.r.t. G
// (derived by hashing to the curve), used for Pedersen commitments.
const Point& ec_generator_h();

// Compressed SEC1 encoding: 33 bytes (0x02/0x03 | x), infinity = 33 zeros.
Bytes ec_encode(const Point& p);
Point ec_decode(BytesView b);  // throws CryptoError on invalid encodings

// Fixed-base signed-digit comb of width w: table[i][d-1] = d * 2^(w*i) *
// base for d = 1..2^(w-1) and ceil(257/w) windows, every entry
// batch-normalized to affine by one simultaneous inversion. A scalar is
// recoded into w-bit digits in [-2^(w-1)+1, 2^(w-1)] (the 257th bit holds
// the last carry), so a product is one mixed addition per window, with no
// doubling and no inversion. Width 8 (G, H, a commitment key): 33 windows
// x 128 entries, about 300 KB and 4,224 additions to build. Width 5 (a
// node's signing key): 52 windows x 16 entries, about 60 KB and 832
// additions. A comb pays off only for a base that multiplies many scalars.
class FixedBaseComb {
 public:
  explicit FixedBaseComb(const Point& base, int width = 8);

  const Point& base() const { return base_; }
  int width() const { return width_; }
  // k * base.
  Point mul(const Fn& k) const;
  // acc += k * base, on the caller's accumulator (so two combs can share
  // one sum without an extra general addition).
  void add_mul(Point& acc, const Fn& k) const;

 private:
  Point base_;
  int width_;
  std::size_t windows_;
  std::size_t digits_;              // 2^(width-1) entries per window
  std::vector<AffinePoint> table_;  // windows_ * digits_, window-major
};

// The process-wide combs for G and H, built on first use.
const FixedBaseComb& ec_comb_g();
const FixedBaseComb& ec_comb_h();

// Convenience: k*G on the G comb, and random point helpers.
Point ec_mul_g(const Fn& k);
Fn random_scalar(Rng& rng);

}  // namespace ddemos::crypto
