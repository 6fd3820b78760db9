#include "crypto/ec.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>

#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "util/error.hpp"
#include "util/hex.hpp"

namespace ddemos::crypto {

namespace {

const Fp kCurveB = Fp::from_u64(7);

// sqrt exponent (p+1)/4; valid because p = 3 mod 4.
const U256& sqrt_exp() {
  static const U256 e = [] {
    U256 p = params<FieldTag>().mod;
    U256 one = U256::from_u64(1);
    U256 p1;
    add_cc(p, one, p1);  // cannot overflow: p < 2^256 - 1
    return shr1(shr1(p1));
  }();
  return e;
}

// y^2 = x^3 + 7; returns false if x is not on the curve.
bool lift_x(const Fp& x, Fp& y_out) {
  Fp rhs = x.sqr() * x + kCurveB;
  Fp y = rhs.pow(sqrt_exp());
  if (!(y.sqr() == rhs)) return false;
  y_out = y;
  return true;
}

}  // namespace

bool on_curve(const AffinePoint& a) {
  if (a.infinity) return true;
  return a.y.sqr() == a.x.sqr() * a.x + kCurveB;
}

Point from_affine(const AffinePoint& a) {
  if (a.infinity) return Point::infinity();
  return Point{a.x, a.y, Fp::one()};
}

AffinePoint to_affine(const Point& p) {
  if (p.is_infinity()) return AffinePoint{{}, {}, true};
  // Batch-normalized points arrive with Z == 1; skip the inversion.
  if (p.Z == Fp::one()) return AffinePoint{p.X, p.Y, false};
  Fp zi = p.Z.inv();
  Fp zi2 = zi.sqr();
  return AffinePoint{p.X * zi2, p.Y * zi2 * zi, false};
}

std::vector<AffinePoint> batch_to_affine(std::span<const Point> pts) {
  // Montgomery's simultaneous-inversion trick: one field inversion plus
  // 3(N-1) multiplies to clear every Z.
  std::vector<AffinePoint> out(pts.size());
  std::vector<Fp> prefix(pts.size());
  Fp run = Fp::one();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].is_infinity()) {
      out[i].infinity = true;
      continue;
    }
    prefix[i] = run;
    run = run * pts[i].Z;
  }
  Fp inv = run.inv();
  for (std::size_t i = pts.size(); i-- > 0;) {
    if (pts[i].is_infinity()) continue;
    Fp zi = prefix[i] * inv;
    inv = inv * pts[i].Z;
    Fp zi2 = zi.sqr();
    out[i] = AffinePoint{pts[i].X * zi2, pts[i].Y * zi2 * zi, false};
  }
  return out;
}

void ec_normalize_batch(std::span<Point> pts) {
  std::vector<AffinePoint> aff = batch_to_affine(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) pts[i] = from_affine(aff[i]);
}

Point ec_double(const Point& p) {
  if (p.is_infinity() || p.Y.is_zero()) return Point::infinity();
  // dbl-2009-l formulas for a = 0.
  Fp a = p.X.sqr();
  Fp b = p.Y.sqr();
  Fp c = b.sqr();
  Fp d = ((p.X + b).sqr() - a - c);
  d = d + d;
  Fp e = a + a + a;
  Fp f = e.sqr();
  Point r;
  r.X = f - (d + d);
  Fp c8 = c + c;
  c8 = c8 + c8;
  c8 = c8 + c8;
  r.Y = e * (d - r.X) - c8;
  r.Z = (p.Y * p.Z);
  r.Z = r.Z + r.Z;
  return r;
}

Point ec_add(const Point& p, const Point& q) {
  if (p.is_infinity()) return q;
  if (q.is_infinity()) return p;
  // add-2007-bl
  Fp z1z1 = p.Z.sqr();
  Fp z2z2 = q.Z.sqr();
  Fp u1 = p.X * z2z2;
  Fp u2 = q.X * z1z1;
  Fp s1 = p.Y * q.Z * z2z2;
  Fp s2 = q.Y * p.Z * z1z1;
  if (u1 == u2) {
    if (s1 == s2) return ec_double(p);
    return Point::infinity();
  }
  Fp h = u2 - u1;
  Fp i = (h + h).sqr();
  Fp j = h * i;
  Fp r2 = s2 - s1;
  Fp r = r2 + r2;
  Fp v = u1 * i;
  Point out;
  out.X = r.sqr() - j - v - v;
  Fp s1j = s1 * j;
  out.Y = r * (v - out.X) - (s1j + s1j);
  out.Z = ((p.Z + q.Z).sqr() - z1z1 - z2z2) * h;
  return out;
}

Point ec_add_mixed(const Point& p, const AffinePoint& q) {
  if (q.infinity) return p;
  if (p.is_infinity()) return from_affine(q);
  // madd-2007-bl: Z2 = 1, so U1 = X1 and S1 = Y1.
  Fp z1z1 = p.Z.sqr();
  Fp u2 = q.x * z1z1;
  Fp s2 = q.y * p.Z * z1z1;
  if (u2 == p.X) {
    if (s2 == p.Y) return ec_double(p);
    return Point::infinity();
  }
  Fp h = u2 - p.X;
  Fp hh = h.sqr();
  Fp i = hh + hh;
  i = i + i;
  Fp j = h * i;
  Fp r = s2 - p.Y;
  r = r + r;
  Fp v = p.X * i;
  Point out;
  out.X = r.sqr() - j - v - v;
  Fp yj = p.Y * j;
  out.Y = r * (v - out.X) - (yj + yj);
  out.Z = (p.Z + h).sqr() - z1z1 - hh;
  return out;
}

namespace {

// add-2007-bl with the h factor exported: Z3 = 2*Z1*Z2*h, so table-chain
// builders can track Z ratios without divisions (effective-affine tables).
// Callers guarantee p != +-q and neither operand is infinity.
Point ec_add_h(const Point& p, const Point& q, Fp* h_out) {
  Fp z1z1 = p.Z.sqr();
  Fp z2z2 = q.Z.sqr();
  Fp u1 = p.X * z2z2;
  Fp u2 = q.X * z1z1;
  Fp s1 = p.Y * q.Z * z2z2;
  Fp s2 = q.Y * p.Z * z1z1;
  Fp h = u2 - u1;
  Fp i = (h + h).sqr();
  Fp j = h * i;
  Fp r2 = s2 - s1;
  Fp r = r2 + r2;
  Fp v = u1 * i;
  Point out;
  out.X = r.sqr() - j - v - v;
  Fp s1j = s1 * j;
  out.Y = r * (v - out.X) - (s1j + s1j);
  out.Z = ((p.Z + q.Z).sqr() - z1z1 - z2z2) * h;
  *h_out = h;
  return out;
}

}  // namespace

Point ec_neg(const Point& p) {
  if (p.is_infinity()) return p;
  return Point{p.X, p.Y.neg(), p.Z};
}

Point ec_sub(const Point& p, const Point& q) { return ec_add(p, ec_neg(q)); }

Point ec_mul_naive(const Fn& k, const Point& p) {
  U256 e = k.to_u256();
  Point acc = Point::infinity();
  for (int i = 255; i >= 0; --i) {
    acc = ec_double(acc);
    if (e.bit(i)) acc = ec_add(acc, p);
  }
  return acc;
}

bool ec_eq(const Point& p, const Point& q) {
  if (p.is_infinity() || q.is_infinity()) {
    return p.is_infinity() == q.is_infinity();
  }
  // Cross-multiplied Jacobian comparison.
  Fp z1z1 = p.Z.sqr();
  Fp z2z2 = q.Z.sqr();
  if (!(p.X * z2z2 == q.X * z1z1)) return false;
  return p.Y * z2z2 * q.Z == q.Y * z1z1 * p.Z;
}

const Point& ec_generator() {
  static const Point g = [] {
    AffinePoint a;
    a.x = Fp::from_bytes_mod(from_hex(
        "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"));
    a.y = Fp::from_bytes_mod(from_hex(
        "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8"));
    if (!on_curve(a)) throw CryptoError("generator not on curve");
    return from_affine(a);
  }();
  return g;
}

const Point& ec_generator_h() {
  static const Point h = [] {
    // Nothing-up-my-sleeve: hash a domain tag with a counter to an x
    // coordinate until it lifts to the curve; take the even-y point.
    for (std::uint32_t ctr = 0;; ++ctr) {
      Bytes seed = to_bytes("D-DEMOS second generator H");
      seed.push_back(static_cast<std::uint8_t>(ctr));
      Hash32 hx = sha256(seed);
      Fp x = Fp::from_bytes_mod(hash_view(hx));
      Fp y;
      if (!lift_x(x, y)) continue;
      // Normalize to even y for determinism.
      if (y.to_bytes_be()[31] & 1) y = y.neg();
      AffinePoint a{x, y, false};
      return from_affine(a);
    }
  }();
  return h;
}

Bytes ec_encode(const Point& p) {
  if (p.is_infinity()) return Bytes(33, 0);
  AffinePoint a = to_affine(p);
  Bytes out;
  out.reserve(33);
  out.push_back((a.y.to_bytes_be()[31] & 1) ? 0x03 : 0x02);
  Bytes x = a.x.to_bytes_be();
  append(out, x);
  return out;
}

Point ec_decode(BytesView b) {
  if (b.size() != 33) throw CryptoError("ec_decode: need 33 bytes");
  if (b[0] == 0) {
    for (std::size_t i = 1; i < 33; ++i) {
      if (b[i] != 0) throw CryptoError("ec_decode: bad infinity encoding");
    }
    return Point::infinity();
  }
  if (b[0] != 0x02 && b[0] != 0x03) {
    throw CryptoError("ec_decode: bad prefix");
  }
  U256 xv = U256::from_bytes_be(b.subspan(1));
  if (cmp(xv, params<FieldTag>().mod) >= 0) {
    throw CryptoError("ec_decode: x out of range");
  }
  Fp x = Fp::from_u256_mod(xv);
  Fp y;
  if (!lift_x(x, y)) throw CryptoError("ec_decode: not on curve");
  bool want_odd = b[0] == 0x03;
  bool is_odd = (y.to_bytes_be()[31] & 1) != 0;
  if (want_odd != is_odd) y = y.neg();
  return from_affine(AffinePoint{x, y, false});
}

// --- GLV + wNAF Strauss engine ---------------------------------------------

namespace {

// secp256k1 endomorphism phi(x, y) = (beta*x, y) satisfies phi(P) =
// lambda*P; splitting k = k1 + k2*lambda with |k1|, |k2| ~ 2^128 halves the
// doubling ladder of every variable-base product. Constants and the
// rounded-division split follow the standard secp256k1 lattice basis.
constexpr U256 kBeta{{0xC1396C28719501EEull, 0x9CF0497512F58995ull,
                      0x6E64479EAC3434E9ull, 0x7AE96A2B657C0710ull}};
constexpr U256 kLambda{{0xDF02967C1B23BD72ull, 0x122E22EA20816678ull,
                        0xA5261C028812645Aull, 0x5363AD4CC05C30E0ull}};
// g1 = round(2^384 * b2 / n), g2 = round(2^384 * (-b1) / n).
constexpr U256 kG1{{0xE893209A45DBB031ull, 0x3DAA8A1471E8CA7Full,
                    0xE86C90E49284EB15ull, 0x3086D221A7D46BCDull}};
constexpr U256 kG2{{0x1571B4AE8AC47F71ull, 0x221208AC9DF506C6ull,
                    0x6F547FA90ABFE4C4ull, 0xE4437ED6010E8828ull}};
constexpr U256 kMinusB1{{0x6F547FA90ABFE4C3ull, 0xE4437ED6010E8828ull, 0, 0}};
// -b2 = n - b2 (b2 = a1 is positive), so this one is full-size.
constexpr U256 kMinusB2{{0xD765CDA83DB1562Cull, 0x8A280AC50774346Dull,
                         0xFFFFFFFFFFFFFFFEull, 0xFFFFFFFFFFFFFFFFull}};

const Fp& glv_beta() {
  static const Fp b = Fp::from_u256_mod(kBeta);
  return b;
}

const Fn& glv_lambda() {
  static const Fn l = Fn::from_u256_mod(kLambda);
  return l;
}

// round(a * b / 2^384) for the lattice split.
U256 mul_shift_384(const U256& a, const U256& b) {
  U512 t = mul_wide(a, b);
  U256 r{{t[6], t[7], 0, 0}};
  U256 out;
  add_cc(r, U256::from_u64((t[5] >> 63) & 1), out);
  return out;
}

struct GlvSplit {
  U256 k1, k2;  // magnitudes, < ~2^128
  bool neg1 = false, neg2 = false;
};

GlvSplit glv_split(const Fn& k) {
  static const Fn minus_b1 = Fn::from_u256_mod(kMinusB1);
  static const Fn minus_b2 = Fn::from_u256_mod(kMinusB2);
  static const U256 n_half = shr1(params<ScalarTag>().mod);
  U256 kv = k.to_u256();
  Fn c1 = Fn::from_u256_mod(mul_shift_384(kv, kG1));
  Fn c2 = Fn::from_u256_mod(mul_shift_384(kv, kG2));
  Fn r2 = c1 * minus_b1 + c2 * minus_b2;
  Fn r1 = k - r2 * glv_lambda();  // k = r1 + r2*lambda by construction
  GlvSplit out;
  const U256& n = params<ScalarTag>().mod;
  U256 v1 = r1.to_u256();
  if (cmp(v1, n_half) > 0) {
    sub_bb(n, v1, out.k1);
    out.neg1 = true;
  } else {
    out.k1 = v1;
  }
  U256 v2 = r2.to_u256();
  if (cmp(v2, n_half) > 0) {
    sub_bb(n, v2, out.k2);
    out.neg2 = true;
  } else {
    out.k2 = v2;
  }
  return out;
}

constexpr int kVarWindow = 5;   // variable-base tables: 8 odd multiples
constexpr int kFixedWindow = 8;  // static G tables: 64 odd multiples
constexpr int kFixedTableSize = 1 << (kFixedWindow - 2);
// wNAF of a 256-bit value is at most 257 digits; the GLV halves use ~129.
constexpr int kNafMax = 260;

// Width-w non-adjacent form: odd digits, |d| <= 2^(w-1) - 1. Returns the
// digit count and the largest |d| seen (for table sizing).
int wnaf_recode(U256 x, int w, std::int8_t* out, int* max_digit) {
  const std::uint64_t sign_bound = 1ull << (w - 1);
  const std::uint64_t mask = (1ull << w) - 1;
  int len = 0;
  int maxd = 0;
  while (!x.is_zero()) {
    std::int8_t digit = 0;
    if (x.w[0] & 1) {
      std::uint64_t v = x.w[0] & mask;
      U256 t;
      if (v >= sign_bound) {
        digit = static_cast<std::int8_t>(static_cast<std::int64_t>(v) -
                                         (1ll << w));
        add_cc(x, U256::from_u64((1ull << w) - v), t);
      } else {
        digit = static_cast<std::int8_t>(v);
        sub_bb(x, U256::from_u64(v), t);
      }
      x = t;
      maxd = std::max(maxd, std::abs(static_cast<int>(digit)));
    }
    out[len++] = digit;
    x = shr1(x);
  }
  *max_digit = maxd;
  return len;
}

struct NafHalf {
  std::array<std::int8_t, kNafMax> d;
  int len = 0;
  bool neg = false;
  int max_digit = 0;
  const AffinePoint* tbl = nullptr;  // odd multiples: tbl[i] = (2i+1)*base
};

// Static affine odd-multiples tables for G and phi(G), built once.
struct FixedTables {
  std::array<AffinePoint, kFixedTableSize> g;
  std::array<AffinePoint, kFixedTableSize> g_lam;
};

const FixedTables& fixed_tables() {
  static const FixedTables tables = [] {
    std::vector<Point> jac;
    jac.reserve(kFixedTableSize);
    jac.push_back(ec_generator());
    Point d2 = ec_double(ec_generator());
    for (int i = 1; i < kFixedTableSize; ++i) {
      jac.push_back(ec_add(jac.back(), d2));
    }
    std::vector<AffinePoint> aff = batch_to_affine(jac);
    FixedTables t;
    for (int i = 0; i < kFixedTableSize; ++i) {
      t.g[i] = aff[i];
      t.g_lam[i] = AffinePoint{aff[i].x * glv_beta(), aff[i].y, false};
    }
    return t;
  }();
  return tables;
}

// One term of a multi-scalar product; p == nullptr means the fixed base G.
struct MsmEntry {
  const Point* p = nullptr;
  Fn k;
};

Point msm_impl(std::span<const MsmEntry> entries) {
  std::vector<NafHalf> halves;
  halves.reserve(entries.size() * 2);
  struct VarJob {
    const Point* p;
    std::size_t h1, h2;      // indices into halves (h2 = lambda half)
    int count = 0;           // base odd multiples to build
    int lam_count = 0;       // entries of the phi table actually used
    std::size_t base_off = 0, lam_off = 0;
  };
  std::vector<VarJob> jobs;
  int maxlen = 0;

  bool any_fixed = false;
  for (const MsmEntry& e : entries) {
    if (e.k.is_zero()) continue;
    if (e.p != nullptr && e.p->is_infinity()) continue;
    if (e.p == nullptr) any_fixed = true;
    GlvSplit s = glv_split(e.k);
    int w = e.p ? kVarWindow : kFixedWindow;
    NafHalf h1, h2;
    h1.len = wnaf_recode(s.k1, w, h1.d.data(), &h1.max_digit);
    h1.neg = s.neg1;
    h2.len = wnaf_recode(s.k2, w, h2.d.data(), &h2.max_digit);
    h2.neg = s.neg2;
    if (e.p != nullptr) {
      VarJob j;
      j.p = e.p;
      j.h1 = halves.size();
      j.h2 = halves.size() + 1;
      j.lam_count = (h2.max_digit + 1) / 2;
      // The phi table is derived entrywise from the base table, so the
      // base table must cover whichever half needs more entries.
      j.count = std::max((h1.max_digit + 1) / 2, j.lam_count);
      jobs.push_back(j);
    } else {
      h1.tbl = fixed_tables().g.data();
      h2.tbl = fixed_tables().g_lam.data();
    }
    maxlen = std::max({maxlen, h1.len, h2.len});
    halves.push_back(h1);
    halves.push_back(h2);
  }

  // Build every variable-base odd-multiples table. With no fixed-base
  // (true-affine) tables in the mix, the tables live in a shared
  // "effective affine" iso frame — chain Z-ratios substitute for the
  // field inversion, and the frame factor multiplies the result's Z once
  // at the end. When the static G tables participate, everything must be
  // genuinely affine, so the tables are batch-normalized with ONE shared
  // inversion instead. Phi tables derive from either by an x *= beta.
  std::size_t total = 0, total_lam = 0;
  for (VarJob& j : jobs) {
    j.base_off = total;
    total += static_cast<std::size_t>(j.count);
    total_lam += static_cast<std::size_t>(j.lam_count);
  }
  const bool use_iso = !any_fixed && !jobs.empty();
  std::vector<AffinePoint> store;
  Fp frame = Fp::one();
  if (use_iso) {
    struct Chain {
      std::vector<Point> pts;
      std::vector<Fp> zr;  // zr[t]: Z_t = Z_{t-1} * zr[t] (t >= 1)
    };
    std::vector<Chain> chains(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      Chain& ch = chains[k];
      const VarJob& j = jobs[k];
      ch.pts.reserve(static_cast<std::size_t>(j.count));
      ch.zr.resize(static_cast<std::size_t>(j.count));
      ch.pts.push_back(*j.p);
      if (j.count > 1) {
        // (2t+1)P = (2t-1)P + 2P never degenerates for P of prime order.
        Point d2 = ec_double(*j.p);
        Fp dz2 = d2.Z + d2.Z;
        for (int t = 1; t < j.count; ++t) {
          Fp h;
          ch.pts.push_back(ec_add_h(ch.pts.back(), d2, &h));
          ch.zr[static_cast<std::size_t>(t)] = dz2 * h;
        }
      }
    }
    // Frame C = prod of every chain's final Z; entry t of chain k needs
    // the scale C/Z_{k,t}, assembled from prefix/suffix products across
    // chains and the backward ratio walk within a chain.
    std::vector<Fp> others(jobs.size(), Fp::one());
    Fp pre = Fp::one();
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      others[k] = pre;
      pre = pre * chains[k].pts.back().Z;
    }
    frame = pre;
    Fp suf = Fp::one();
    for (std::size_t k = jobs.size(); k-- > 0;) {
      others[k] = others[k] * suf;
      suf = suf * chains[k].pts.back().Z;
    }
    store.resize(total);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const VarJob& j = jobs[k];
      Fp s = others[k];
      for (int t = j.count; t-- > 0;) {
        const Point& e = chains[k].pts[static_cast<std::size_t>(t)];
        Fp sq = s.sqr();
        store[j.base_off + static_cast<std::size_t>(t)] =
            AffinePoint{e.X * sq, e.Y * sq * s, false};
        if (t > 0) s = s * chains[k].zr[static_cast<std::size_t>(t)];
      }
    }
  } else {
    std::vector<Point> jac;
    jac.reserve(total);
    for (const VarJob& j : jobs) {
      jac.push_back(*j.p);
      if (j.count > 1) {
        Point d2 = ec_double(*j.p);
        for (int t = 1; t < j.count; ++t) {
          jac.push_back(ec_add(jac.back(), d2));
        }
      }
    }
    store = batch_to_affine(jac);
  }
  store.reserve(total + total_lam);
  for (VarJob& j : jobs) {
    j.lam_off = store.size();
    for (int t = 0; t < j.lam_count; ++t) {
      const AffinePoint& base = store[j.base_off + static_cast<std::size_t>(t)];
      store.push_back(AffinePoint{base.x * glv_beta(), base.y, false});
    }
  }
  for (const VarJob& j : jobs) {
    halves[j.h1].tbl = store.data() + j.base_off;
    halves[j.h2].tbl = store.data() + j.lam_off;
  }

  Point acc = Point::infinity();
  for (int i = maxlen - 1; i >= 0; --i) {
    acc = ec_double(acc);
    for (const NafHalf& h : halves) {
      if (i >= h.len) continue;
      int d = h.d[static_cast<std::size_t>(i)];
      if (d == 0) continue;
      AffinePoint t = h.tbl[(std::abs(d) - 1) / 2];
      if ((d < 0) != h.neg) t.y = t.y.neg();
      acc = ec_add_mixed(acc, t);
    }
  }
  // Leave the iso frame: Z scales by C (a no-op for infinity, Z == 0).
  if (use_iso) acc.Z = acc.Z * frame;
  return acc;
}

}  // namespace

Point ec_mul(const Fn& k, const Point& p) {
  MsmEntry e{&p, k};
  return msm_impl(std::span<const MsmEntry>(&e, 1));
}

Point ec_mul2(const Fn& a, const Point& p, const Fn& b) {
  std::array<MsmEntry, 2> es{MsmEntry{&p, a}, MsmEntry{nullptr, b}};
  return msm_impl(es);
}

Point ec_msm_strauss(std::span<const Fn> ks, std::span<const Point> ps) {
  if (ks.size() != ps.size()) {
    throw CryptoError("ec_msm: scalar/point count mismatch");
  }
  std::vector<MsmEntry> es;
  es.reserve(ks.size());
  const Point& g = ec_generator();
  for (std::size_t i = 0; i < ks.size(); ++i) {
    // Terms on the generator (every verifier equation has one) ride the
    // static width-8 tables instead of building a per-call table.
    bool is_g = ps[i].Z == g.Z && ps[i].X == g.X && ps[i].Y == g.Y;
    es.push_back(MsmEntry{is_g ? nullptr : &ps[i], ks[i]});
  }
  return msm_impl(es);
}

// --- Pippenger bucket method ------------------------------------------------

namespace {

// Index of the highest set bit, or -1 for zero.
int u256_bit_length(const U256& x) {
  for (int w = 3; w >= 0; --w) {
    if (x.w[w] == 0) continue;
    int b = 63;
    while (!((x.w[w] >> b) & 1)) --b;
    return 64 * w + b + 1;
  }
  return 0;
}

// Bits [pos, pos + c) of x as an unsigned digit; c <= 32 keeps the
// two-word splice below 64 bits of shift.
std::uint64_t u256_window(const U256& x, int pos, int c) {
  int word = pos >> 6;
  int off = pos & 63;
  if (word >= 4) return 0;
  std::uint64_t v = x.w[word] >> off;
  if (off + c > 64 && word + 1 < 4) v |= x.w[word + 1] << (64 - off);
  return v & ((1ull << c) - 1);
}

// One GLV half of an input term: a <= ~129-bit magnitude against a
// sign-folded affine base.
struct PipHalf {
  U256 mag;
  AffinePoint base;
};

}  // namespace

Point ec_msm_pippenger(std::span<const Fn> ks, std::span<const Point> ps) {
  if (ks.size() != ps.size()) {
    throw CryptoError("ec_msm: scalar/point count mismatch");
  }
  // One simultaneous inversion puts every live input point in the affine
  // frame, so bucket accumulation runs entirely on mixed additions.
  std::vector<const Point*> live;
  std::vector<const Fn*> live_ks;
  live.reserve(ks.size());
  live_ks.reserve(ks.size());
  std::vector<Point> jac;
  jac.reserve(ks.size());
  for (std::size_t i = 0; i < ks.size(); ++i) {
    if (ks[i].is_zero() || ps[i].is_infinity()) continue;
    live.push_back(&ps[i]);
    live_ks.push_back(&ks[i]);
    jac.push_back(ps[i]);
  }
  if (live.empty()) return Point::infinity();
  std::vector<AffinePoint> aff = batch_to_affine(jac);

  // GLV split halves the digit ladder: every term contributes up to two
  // ~129-bit halves, the lambda half riding phi(P) = (beta*x, y).
  std::vector<PipHalf> halves;
  halves.reserve(2 * live.size());
  int max_bits = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    GlvSplit s = glv_split(*live_ks[i]);
    if (!s.k1.is_zero()) {
      AffinePoint b = aff[i];
      if (s.neg1) b.y = b.y.neg();
      halves.push_back(PipHalf{s.k1, b});
      max_bits = std::max(max_bits, u256_bit_length(s.k1));
    }
    if (!s.k2.is_zero()) {
      AffinePoint b{aff[i].x * glv_beta(), aff[i].y, false};
      if (s.neg2) b.y = b.y.neg();
      halves.push_back(PipHalf{s.k2, b});
      max_bits = std::max(max_bits, u256_bit_length(s.k2));
    }
  }
  if (halves.empty()) return Point::infinity();

  // Window width from the input size (ln-based heuristic): each extra bit
  // of c halves the window count but doubles the bucket-collapse work.
  int c = 2;
  for (std::size_t n = ks.size(); (n >> (c + 2)) != 0 && c < 13; ++c) {
  }
  // Signed digits in (-2^(c-1), 2^(c-1)]: half the buckets of the
  // unsigned method, negative digits add the negated base. The recode
  // carry can spill one window past max_bits.
  const int n_windows = (max_bits + c - 1) / c + 1;
  const std::size_t n_buckets = 1ull << (c - 1);
  const std::uint64_t full = 1ull << c;
  std::vector<Point> buckets(static_cast<std::size_t>(n_windows) * n_buckets,
                             Point::infinity());
  int top_window = 0;
  for (const PipHalf& h : halves) {
    std::uint64_t carry = 0;
    for (int w = 0; w < n_windows; ++w) {
      std::int64_t d =
          static_cast<std::int64_t>(u256_window(h.mag, w * c, c) + carry);
      carry = 0;
      if (d > static_cast<std::int64_t>(n_buckets)) {
        d -= static_cast<std::int64_t>(full);
        carry = 1;
      }
      if (d == 0) continue;  // 0, or exactly 2^c folded into the carry
      AffinePoint b = h.base;
      std::size_t mag;
      if (d < 0) {
        b.y = b.y.neg();
        mag = static_cast<std::size_t>(-d);
      } else {
        mag = static_cast<std::size_t>(d);
      }
      std::size_t slot =
          static_cast<std::size_t>(w) * n_buckets + (mag - 1);
      buckets[slot] = ec_add_mixed(buckets[slot], b);
      top_window = std::max(top_window, w);
    }
  }

  // Batch-normalize every bucket with one more simultaneous inversion so
  // the running-sum collapse uses mixed additions for the S chain.
  std::vector<AffinePoint> bucket_aff = batch_to_affine(buckets);

  // Per-window running-sum collapse: S walks buckets high-to-low, T
  // accumulates S, so bucket j contributes j*S-steps = its digit weight.
  Point acc = Point::infinity();
  for (int w = top_window; w >= 0; --w) {
    if (w != top_window) {
      for (int d = 0; d < c; ++d) acc = ec_double(acc);
    }
    Point s = Point::infinity();
    Point t = Point::infinity();
    const std::size_t base = static_cast<std::size_t>(w) * n_buckets;
    for (std::size_t j = n_buckets; j-- > 0;) {
      const AffinePoint& b = bucket_aff[base + j];
      if (!b.infinity) s = ec_add_mixed(s, b);
      if (!s.is_infinity()) t = ec_add(t, s);
    }
    acc = ec_add(acc, t);
  }
  return acc;
}

Point ec_msm(std::span<const Fn> ks, std::span<const Point> ps) {
  if (ks.size() >= kMsmCrossover) return ec_msm_pippenger(ks, ps);
  return ec_msm_strauss(ks, ps);
}

FixedBaseComb::FixedBaseComb(const Point& base, int width)
    : base_(base), width_(width) {
  if (width < 2 || width > 16) {
    throw CryptoError("FixedBaseComb: width must be in [2, 16]");
  }
  // 257 bits: a scalar below n < 2^256 plus the recoding's last carry.
  windows_ = static_cast<std::size_t>((257 + width - 1) / width);
  digits_ = std::size_t{1} << (width - 1);
  // Window i is the chain d * B_i for d = 1..digits_, B_i = 2^(w*i) * base;
  // the next window's B_{i+1} = 2 * (digits_ * B_i) doubles the chain's
  // last entry.
  std::vector<Point> jac;
  jac.reserve(windows_ * digits_);
  Point bw = base;
  for (std::size_t w = 0; w < windows_; ++w) {
    jac.push_back(bw);
    for (std::size_t d = 2; d <= digits_; ++d) {
      jac.push_back(ec_add(jac.back(), bw));
    }
    bw = ec_double(jac.back());
  }
  table_ = batch_to_affine(jac);
}

void FixedBaseComb::add_mul(Point& acc, const Fn& k) const {
  // Signed digits: a window (plus the incoming carry) above 2^(w-1)
  // becomes v - 2^w and carries one into the next window. Windows are
  // read with word shifts; past bit 255 they read zero, so the top window
  // holds only the last carry and the scalar's top bits, never above
  // 2^(w-1).
  const U256 e = k.to_u256();
  const int half = static_cast<int>(digits_);
  const int full = half << 1;
  int carry = 0;
  for (std::size_t w = 0; w < windows_; ++w) {
    int v = carry + static_cast<int>(u256_window(
                        e, static_cast<int>(w) * width_, width_));
    carry = v > half ? 1 : 0;
    v -= carry * full;
    if (v == 0) continue;
    AffinePoint t =
        table_[w * digits_ + static_cast<std::size_t>(std::abs(v)) - 1];
    if (v < 0) t.y = t.y.neg();
    acc = ec_add_mixed(acc, t);
  }
}

Point FixedBaseComb::mul(const Fn& k) const {
  Point acc = Point::infinity();
  add_mul(acc, k);
  return acc;
}

const FixedBaseComb& ec_comb_g() {
  static const FixedBaseComb comb(ec_generator());
  return comb;
}

const FixedBaseComb& ec_comb_h() {
  static const FixedBaseComb comb(ec_generator_h());
  return comb;
}

Point ec_mul_g(const Fn& k) { return ec_comb_g().mul(k); }

Fn random_scalar(Rng& rng) {
  // Rejection sample below the order for a uniform scalar.
  const U256& n = params<ScalarTag>().mod;
  for (;;) {
    Bytes b = rng.bytes(32);
    U256 v = U256::from_bytes_be(b);
    if (cmp(v, n) < 0) return Fn::from_u256_mod(v);
  }
}

}  // namespace ddemos::crypto
