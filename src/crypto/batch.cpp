#include "crypto/batch.hpp"

#include "util/thread_pool.hpp"

#include <algorithm>

#include "crypto/sha256.hpp"
#include "util/error.hpp"

namespace ddemos::crypto {

namespace {

// Deterministic 128-bit weights drawn from a Fiat-Shamir seed over the
// instance set. Short weights keep their wNAFs (and therefore the extra
// MSM work per instance) at half length.
class WeightStream {
 public:
  explicit WeightStream(const Hash32& seed) : seed_(seed) {}

  Fn next() {
    for (;;) {
      Sha256 h;
      h.update(to_bytes("ddemos/batch/weight"));
      h.update(hash_view(seed_));
      std::uint8_t ctr[8];
      for (int i = 0; i < 8; ++i) {
        ctr[i] = static_cast<std::uint8_t>(counter_ >> (8 * i));
      }
      ++counter_;
      h.update(BytesView(ctr, 8));
      Hash32 out = h.finish();
      Bytes b(32, 0);
      std::copy(out.begin(), out.begin() + 16, b.begin() + 16);
      Fn w = Fn::from_bytes_mod(b);
      if (!w.is_zero()) return w;  // zero weight would unweight an instance
    }
  }

 private:
  Hash32 seed_;
  std::uint64_t counter_ = 0;
};

void absorb_scalar(Sha256& h, const Fn& s) { h.update(s.to_bytes_be()); }

void absorb_point(Sha256& h, const Point& p) { h.update(ec_encode(p)); }

bool bit_batch_one(const Point& key, std::span<const BitProofInstance> xs) {
  if (xs.empty()) return true;
  // The challenge-splitting constraint is exact per instance.
  for (const BitProofInstance& x : xs) {
    if (!(x.resp.c0 + x.resp.c1 == x.challenge)) return false;
  }
  Sha256 seed;
  seed.update(to_bytes("ddemos/batch/bit"));
  absorb_point(seed, key);
  for (const BitProofInstance& x : xs) {
    absorb_point(seed, x.cipher.a);
    absorb_point(seed, x.cipher.b);
    absorb_point(seed, x.fm.t1_0);
    absorb_point(seed, x.fm.t2_0);
    absorb_point(seed, x.fm.t1_1);
    absorb_point(seed, x.fm.t2_1);
    absorb_scalar(seed, x.challenge);
    absorb_scalar(seed, x.resp.c0);
    absorb_scalar(seed, x.resp.c1);
    absorb_scalar(seed, x.resp.z0);
    absorb_scalar(seed, x.resp.z1);
  }
  WeightStream ws(seed.finish());

  // Sum over instances of
  //   w1*(z0*G - c0*A - t1_0) + w2*(z0*K - c0*B - t2_0)
  // + w3*(z1*G - c1*A - t1_1) + w4*(z1*K - c1*B + c1*G - t2_1) == 0.
  std::vector<Fn> ks;
  std::vector<Point> ps;
  ks.reserve(6 * xs.size() + 2);
  ps.reserve(6 * xs.size() + 2);
  Fn g_coeff = Fn::zero();
  Fn k_coeff = Fn::zero();
  for (const BitProofInstance& x : xs) {
    Fn w1 = ws.next(), w2 = ws.next(), w3 = ws.next(), w4 = ws.next();
    g_coeff = g_coeff + w1 * x.resp.z0 + w3 * x.resp.z1 + w4 * x.resp.c1;
    k_coeff = k_coeff + w2 * x.resp.z0 + w4 * x.resp.z1;
    ks.push_back(w1 * x.resp.c0 + w3 * x.resp.c1);
    ps.push_back(ec_neg(x.cipher.a));
    ks.push_back(w2 * x.resp.c0 + w4 * x.resp.c1);
    ps.push_back(ec_neg(x.cipher.b));
    ks.push_back(w1);
    ps.push_back(ec_neg(x.fm.t1_0));
    ks.push_back(w2);
    ps.push_back(ec_neg(x.fm.t2_0));
    ks.push_back(w3);
    ps.push_back(ec_neg(x.fm.t1_1));
    ks.push_back(w4);
    ps.push_back(ec_neg(x.fm.t2_1));
  }
  ks.push_back(k_coeff);
  ps.push_back(key);
  ks.push_back(g_coeff);
  ps.push_back(ec_generator());
  return ec_msm(ks, ps).is_infinity();
}

bool sum_batch_one(const Point& key, std::span<const SumProofInstance> xs) {
  if (xs.empty()) return true;
  Sha256 seed;
  seed.update(to_bytes("ddemos/batch/sum"));
  absorb_point(seed, key);
  for (const SumProofInstance& x : xs) {
    absorb_point(seed, x.sum.a);
    absorb_point(seed, x.sum.b);
    absorb_point(seed, x.fm.t1);
    absorb_point(seed, x.fm.t2);
    absorb_scalar(seed, x.total);
    absorb_scalar(seed, x.challenge);
    absorb_scalar(seed, x.z);
  }
  WeightStream ws(seed.finish());

  // Sum over instances of
  //   w1*(z*G - c*A - t1) + w2*(z*K - c*B + c*total*G - t2) == 0.
  std::vector<Fn> ks;
  std::vector<Point> ps;
  ks.reserve(4 * xs.size() + 2);
  ps.reserve(4 * xs.size() + 2);
  Fn g_coeff = Fn::zero();
  Fn k_coeff = Fn::zero();
  for (const SumProofInstance& x : xs) {
    Fn w1 = ws.next(), w2 = ws.next();
    g_coeff = g_coeff + w1 * x.z + w2 * x.challenge * x.total;
    k_coeff = k_coeff + w2 * x.z;
    ks.push_back(w1 * x.challenge);
    ps.push_back(ec_neg(x.sum.a));
    ks.push_back(w2 * x.challenge);
    ps.push_back(ec_neg(x.sum.b));
    ks.push_back(w1);
    ps.push_back(ec_neg(x.fm.t1));
    ks.push_back(w2);
    ps.push_back(ec_neg(x.fm.t2));
  }
  ks.push_back(k_coeff);
  ps.push_back(key);
  ks.push_back(g_coeff);
  ps.push_back(ec_generator());
  return ec_msm(ks, ps).is_infinity();
}

bool open_batch_one(const Point& key, std::span<const EgOpenInstance> xs) {
  if (xs.empty()) return true;
  Sha256 seed;
  seed.update(to_bytes("ddemos/batch/open"));
  absorb_point(seed, key);
  for (const EgOpenInstance& x : xs) {
    absorb_point(seed, x.cipher.a);
    absorb_point(seed, x.cipher.b);
    absorb_scalar(seed, x.m);
    absorb_scalar(seed, x.r);
  }
  WeightStream ws(seed.finish());

  // Sum over instances of w1*(r*G - A) + w2*(m*G + r*K - B) == 0; only the
  // short weights multiply the batch points.
  std::vector<Fn> ks;
  std::vector<Point> ps;
  ks.reserve(2 * xs.size() + 2);
  ps.reserve(2 * xs.size() + 2);
  Fn g_coeff = Fn::zero();
  Fn k_coeff = Fn::zero();
  for (const EgOpenInstance& x : xs) {
    Fn w1 = ws.next(), w2 = ws.next();
    g_coeff = g_coeff + w1 * x.r + w2 * x.m;
    k_coeff = k_coeff + w2 * x.r;
    ks.push_back(w1);
    ps.push_back(ec_neg(x.cipher.a));
    ks.push_back(w2);
    ps.push_back(ec_neg(x.cipher.b));
  }
  ks.push_back(k_coeff);
  ps.push_back(key);
  ks.push_back(g_coeff);
  ps.push_back(ec_generator());
  return ec_msm(ks, ps).is_infinity();
}

// Fixed-size chunks keep the decomposition (and every chunk's Fiat-Shamir
// weights) independent of the worker count; a short batch skips the pool.
constexpr std::size_t kBatchChunk = 256;

template <typename Inst, typename VerifyOne>
bool chunked_batch(std::span<const Inst> xs, util::ThreadPool* pool,
                   const VerifyOne& one) {
  if (!pool || pool->n_threads() <= 1 || xs.size() <= kBatchChunk) {
    return one(xs);
  }
  const std::size_t n_chunks = (xs.size() + kBatchChunk - 1) / kBatchChunk;
  std::vector<char> ok(n_chunks, 0);
  pool->parallel_for(xs.size(), kBatchChunk,
                     [&](std::size_t b, std::size_t e) {
                       ok[b / kBatchChunk] = one(xs.subspan(b, e - b)) ? 1 : 0;
                     });
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

}  // namespace

bool schnorr_verify_batch(std::span<const SchnorrInstance> xs) {
  if (xs.empty()) return true;
  // One instance: the plain check is the same equation without a weight.
  if (xs.size() == 1) return schnorr_verify(xs[0].pk, xs[0].msg, xs[0].sig);
  Sha256 seed;
  seed.update(to_bytes("ddemos/batch/schnorr"));
  for (const SchnorrInstance& x : xs) {
    seed.update(x.pk);
    seed.update(x.msg);
    seed.update(x.sig);
  }
  WeightStream ws(seed.finish());

  std::vector<Fn> ks;
  std::vector<Point> ps;
  ks.reserve(2 * xs.size() + 1);
  ps.reserve(2 * xs.size() + 1);
  Fn g_coeff = Fn::zero();
  try {
    for (const SchnorrInstance& x : xs) {
      BytesView sig = x.sig;
      if (sig.size() != 65) return false;
      Point p = ec_decode(x.pk);
      Point r = ec_decode(sig.subspan(0, 33));
      Fn s = Fn::from_bytes_mod(sig.subspan(33));
      Fn e = schnorr_challenge(sig.subspan(0, 33), x.pk, x.msg);
      // w*(s*G - R - e*P) summed over the batch.
      Fn w = ws.next();
      g_coeff = g_coeff + w * s;
      ks.push_back(w);
      ps.push_back(ec_neg(r));
      ks.push_back(w * e);
      ps.push_back(ec_neg(p));
    }
  } catch (const CryptoError&) {
    return false;
  }
  ks.push_back(g_coeff);
  ps.push_back(ec_generator());
  return ec_msm(ks, ps).is_infinity();
}

bool verify_bit_batch(const Point& key, std::span<const BitProofInstance> xs,
                      util::ThreadPool* pool) {
  return chunked_batch(xs, pool, [&key](std::span<const BitProofInstance> c) {
    return bit_batch_one(key, c);
  });
}

bool verify_sum_batch(const Point& key, std::span<const SumProofInstance> xs,
                      util::ThreadPool* pool) {
  return chunked_batch(xs, pool, [&key](std::span<const SumProofInstance> c) {
    return sum_batch_one(key, c);
  });
}

bool pedersen_vss_verify_batch(std::span<const PedersenVssInstance> xs) {
  if (xs.empty()) return true;
  std::size_t comm_terms = 0;
  for (const PedersenVssInstance& x : xs) {
    // The per-instance verifier rejects an empty commitment vector; so
    // must the combined check (a zero contribution would accept it).
    if (x.comms.empty()) return false;
    comm_terms += x.comms.size();
  }
  Sha256 seed;
  seed.update(to_bytes("ddemos/batch/pvss"));
  for (const PedersenVssInstance& x : xs) {
    std::uint8_t idx[4];
    for (int i = 0; i < 4; ++i) {
      idx[i] = static_cast<std::uint8_t>(x.share.x >> (8 * i));
    }
    seed.update(BytesView(idx, 4));
    absorb_scalar(seed, x.share.f);
    absorb_scalar(seed, x.share.g);
    for (const Point& c : x.comms) absorb_point(seed, c);
  }
  WeightStream ws(seed.finish());

  // Sum over instances of w*(f*G + g*H - sum_j x^j C_j) == 0: G and H each
  // collect one combined scalar, every coefficient commitment contributes
  // one w*x^j term (x is a small trustee index, but w*x^j is full-size —
  // the weights dominate the extra MSM work per instance).
  std::vector<Fn> ks;
  std::vector<Point> ps;
  ks.reserve(comm_terms + 2);
  ps.reserve(comm_terms + 2);
  Fn g_coeff = Fn::zero();
  Fn h_coeff = Fn::zero();
  for (const PedersenVssInstance& x : xs) {
    Fn w = ws.next();
    g_coeff = g_coeff + w * x.share.f;
    h_coeff = h_coeff + w * x.share.g;
    Fn xi = Fn::from_u64(x.share.x);
    Fn xp = w;
    for (const Point& c : x.comms) {
      ks.push_back(xp);
      ps.push_back(ec_neg(c));
      xp = xp * xi;
    }
  }
  ks.push_back(g_coeff);
  ps.push_back(ec_generator());
  ks.push_back(h_coeff);
  ps.push_back(ec_generator_h());
  return ec_msm(ks, ps).is_infinity();
}

bool pedersen_vss_verify_folded(BytesView context, const Fn& c,
                                std::span<const VssSlot> slots,
                                std::span<const VssDataset> datasets) {
  if (datasets.empty()) return true;
  std::size_t n_points = 0;
  std::size_t max_degree = 0;
  for (const VssSlot& s : slots) {
    if (s.u.empty() || (!s.v.empty() && s.v.size() != s.u.size())) {
      return false;
    }
    n_points += s.u.size() + s.v.size();
    max_degree = std::max(max_degree, s.u.size());
  }
  for (const VssDataset& d : datasets) {
    if (d.shares.size() != slots.size()) return false;
    for (const PedersenShare& sh : d.shares) {
      if (sh.x != d.x) return false;
    }
  }

  Sha256 seed;
  seed.update(to_bytes("ddemos/batch/pvss-folded"));
  seed.update(context);
  absorb_scalar(seed, c);
  for (const VssSlot& s : slots) {
    for (const Point& p : s.u) absorb_point(seed, p);
    for (const Point& p : s.v) absorb_point(seed, p);
  }
  for (const VssDataset& d : datasets) {
    std::uint8_t idx[4];
    for (int i = 0; i < 4; ++i) {
      idx[i] = static_cast<std::uint8_t>(d.x >> (8 * i));
    }
    seed.update(BytesView(idx, 4));
    for (const PedersenShare& sh : d.shares) {
      absorb_scalar(seed, sh.f);
      absorb_scalar(seed, sh.g);
    }
  }
  WeightStream ws(seed.finish());

  // sums[at[q] + t] collects sum_d w_dq*x_d^t for coefficient t of slot q;
  // G and H collect sum w*f and sum w*g.
  std::vector<std::size_t> at(slots.size());
  std::size_t n_coeffs = 0;
  for (std::size_t q = 0; q < slots.size(); ++q) {
    at[q] = n_coeffs;
    n_coeffs += slots[q].u.size();
  }
  std::vector<Fn> sums(n_coeffs, Fn::zero());
  std::vector<Fn> xpow(max_degree);
  Fn g_coeff = Fn::zero();
  Fn h_coeff = Fn::zero();
  for (const VssDataset& d : datasets) {
    Fn x = Fn::from_u64(d.x);
    Fn xp = Fn::one();
    for (Fn& p : xpow) {
      p = xp;
      xp = xp * x;
    }
    for (std::size_t q = 0; q < slots.size(); ++q) {
      Fn w = ws.next();
      g_coeff = g_coeff + w * d.shares[q].f;
      h_coeff = h_coeff + w * d.shares[q].g;
      for (std::size_t t = 0; t < slots[q].u.size(); ++t) {
        sums[at[q] + t] = sums[at[q] + t] + w * xpow[t];
      }
    }
  }

  // sum_q sum_t s_qt*u_qt + (c*s_qt)*v_qt - g*G - h*H == 0.
  std::vector<Fn> ks;
  std::vector<Point> ps;
  ks.reserve(n_points + 2);
  ps.reserve(n_points + 2);
  for (std::size_t q = 0; q < slots.size(); ++q) {
    const VssSlot& s = slots[q];
    for (std::size_t t = 0; t < s.u.size(); ++t) {
      ks.push_back(sums[at[q] + t]);
      ps.push_back(s.u[t]);
      if (!s.v.empty()) {
        ks.push_back(c * sums[at[q] + t]);
        ps.push_back(s.v[t]);
      }
    }
  }
  ks.push_back(g_coeff.neg());
  ps.push_back(ec_generator());
  ks.push_back(h_coeff.neg());
  ps.push_back(ec_generator_h());
  return ec_msm(ks, ps).is_infinity();
}

bool eg_open_check_batch(const Point& key, std::span<const EgOpenInstance> xs,
                         util::ThreadPool* pool) {
  return chunked_batch(xs, pool, [&key](std::span<const EgOpenInstance> c) {
    return open_batch_one(key, c);
  });
}

}  // namespace ddemos::crypto
