#include "crypto/shamir.hpp"

#include "crypto/ec.hpp"
#include "crypto/rng.hpp"
#include "util/error.hpp"

namespace ddemos::crypto {

std::vector<Share> shamir_deal(const Fn& secret, std::size_t k, std::size_t n,
                               Rng& rng) {
  if (k == 0 || k > n) throw CryptoError("shamir_deal: need 0 < k <= n");
  std::vector<Fn> coeff;
  coeff.reserve(k);
  coeff.push_back(secret);
  for (std::size_t i = 1; i < k; ++i) coeff.push_back(random_scalar(rng));

  std::vector<Share> shares;
  shares.reserve(n);
  for (std::size_t i = 1; i <= n; ++i) {
    Fn x = Fn::from_u64(i);
    // Horner evaluation.
    Fn y = coeff.back();
    for (std::size_t j = coeff.size() - 1; j-- > 0;) {
      y = y * x + coeff[j];
    }
    shares.push_back(Share{static_cast<std::uint32_t>(i), y});
  }
  return shares;
}

Fn shamir_reconstruct(std::span<const Share> shares, std::size_t k) {
  if (shares.size() < k) throw CryptoError("shamir_reconstruct: too few shares");
  std::vector<Share> pts;
  pts.reserve(k);
  for (const Share& s : shares) {
    bool dup = false;
    for (const Share& p : pts) {
      if (p.x == s.x) {
        dup = true;
        break;
      }
    }
    if (!dup) pts.push_back(s);
    if (pts.size() == k) break;
  }
  if (pts.size() < k) {
    throw CryptoError("shamir_reconstruct: duplicate share points");
  }
  // Lagrange weight i is num_i / den_i. Montgomery's trick inverts the
  // product of all k denominators once and peels each inverse off it with
  // the prefix products, instead of one field inversion per share.
  std::vector<Fn> num(k, Fn::one()), den(k, Fn::one()), prefix(k);
  Fn all = Fn::one();
  for (std::size_t i = 0; i < k; ++i) {
    Fn xi = Fn::from_u64(pts[i].x);
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      Fn xj = Fn::from_u64(pts[j].x);
      num[i] = num[i] * xj;
      den[i] = den[i] * (xj - xi);
    }
    prefix[i] = all;
    all = all * den[i];
  }
  Fn inv = all.inv();  // (den_0 * ... * den_{k-1})^-1
  Fn acc = Fn::zero();
  for (std::size_t i = k; i-- > 0;) {
    // inv is (den_0 * ... * den_i)^-1 here.
    acc = acc + pts[i].y * num[i] * (inv * prefix[i]);
    inv = inv * den[i];
  }
  return acc;
}

}  // namespace ddemos::crypto
