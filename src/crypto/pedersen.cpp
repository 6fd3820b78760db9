#include "crypto/pedersen.hpp"

#include "crypto/rng.hpp"
#include "crypto/shamir.hpp"
#include "util/error.hpp"

namespace ddemos::crypto {

Point pedersen_commit(const Fn& m, const Fn& r) {
  // m*G + r*H: both combs add into one accumulator.
  Point acc = ec_comb_g().mul(m);
  ec_comb_h().add_mul(acc, r);
  return acc;
}

PedersenDeal pedersen_vss_deal(const Fn& secret, std::size_t k, std::size_t n,
                               Rng& rng) {
  if (k == 0 || k > n) throw CryptoError("pedersen_vss_deal: need 0 < k <= n");
  std::vector<Fn> a, b;
  a.reserve(k);
  b.reserve(k);
  a.push_back(secret);
  b.push_back(random_scalar(rng));
  for (std::size_t j = 1; j < k; ++j) {
    a.push_back(random_scalar(rng));
    b.push_back(random_scalar(rng));
  }
  PedersenDeal deal;
  deal.coefficient_comms.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    deal.coefficient_comms.push_back(pedersen_commit(a[j], b[j]));
  }
  deal.shares.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    Fn x = Fn::from_u64(i);
    Fn f = a.back();
    Fn g = b.back();
    for (std::size_t j = k - 1; j-- > 0;) {
      f = f * x + a[j];
      g = g * x + b[j];
    }
    deal.shares.push_back(PedersenShare{static_cast<std::uint32_t>(i), f, g});
  }
  return deal;
}

bool pedersen_vss_verify(const PedersenShare& share,
                         std::span<const Point> coefficient_comms) {
  if (coefficient_comms.empty()) return false;
  // The Horner evaluation flattens into powers of x, so the whole check
  // f*G + g*H - sum_j x^j C_j == 0 is one MSM sharing a single doubling
  // ladder and one batched inversion. x is the small trustee index, so the
  // x^j coefficients have short wNAFs for low-degree polynomials.
  Fn x = Fn::from_u64(share.x);
  std::vector<Fn> ks;
  std::vector<Point> ps;
  ks.reserve(coefficient_comms.size() + 2);
  ps.reserve(coefficient_comms.size() + 2);
  ks.push_back(share.f);
  ps.push_back(ec_generator());
  ks.push_back(share.g);
  ps.push_back(ec_generator_h());
  Fn xp = Fn::one();
  for (const Point& c : coefficient_comms) {
    ks.push_back(xp);
    ps.push_back(ec_neg(c));
    xp = xp * x;
  }
  return ec_msm(ks, ps).is_infinity();
}

bool pedersen_vss_verify_naive(const PedersenShare& share,
                               std::span<const Point> coefficient_comms) {
  if (coefficient_comms.empty()) return false;
  // Horner over the commitment polynomial.
  Fn x = Fn::from_u64(share.x);
  Point acc = coefficient_comms.back();
  for (std::size_t j = coefficient_comms.size() - 1; j-- > 0;) {
    acc = ec_add(ec_mul_naive(x, acc), coefficient_comms[j]);
  }
  return ec_eq(acc, ec_add(ec_mul_g(share.f),
                           ec_mul_naive(share.g, ec_generator_h())));
}

std::pair<Fn, Fn> pedersen_vss_reconstruct(
    std::span<const PedersenShare> shares, std::size_t k) {
  std::vector<Share> fs, gs;
  fs.reserve(shares.size());
  gs.reserve(shares.size());
  for (const PedersenShare& s : shares) {
    fs.push_back(Share{s.x, s.f});
    gs.push_back(Share{s.x, s.g});
  }
  return {shamir_reconstruct(fs, k), shamir_reconstruct(gs, k)};
}

PedersenShare pedersen_share_add(const PedersenShare& a,
                                 const PedersenShare& b) {
  if (a.x != b.x) throw CryptoError("pedersen_share_add: mismatched points");
  return PedersenShare{a.x, a.f + b.f, a.g + b.g};
}

}  // namespace ddemos::crypto
