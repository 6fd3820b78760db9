#include "crypto/shamir.hpp"

#include <algorithm>

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

std::vector<Fn> lagrange_at_zero(std::span<const std::uint32_t> xs) {
  // Weight i is num_i / den_i. Montgomery's trick inverts the product of
  // all denominators once and peels each inverse off it with the prefix
  // products, instead of one field inversion per point.
  const std::size_t k = xs.size();
  std::vector<Fn> num(k, Fn::one()), den(k, Fn::one()), prefix(k);
  Fn all = Fn::one();
  for (std::size_t i = 0; i < k; ++i) {
    Fn xi = Fn::from_u64(xs[i]);
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      if (xs[i] == xs[j]) {
        throw CryptoError("lagrange_at_zero: repeated point");
      }
      Fn xj = Fn::from_u64(xs[j]);
      num[i] = num[i] * xj;
      den[i] = den[i] * (xj - xi);
    }
    prefix[i] = all;
    all = all * den[i];
  }
  Fn inv = all.inv();  // (den_0 * ... * den_{k-1})^-1
  std::vector<Fn> weights(k);
  for (std::size_t i = k; i-- > 0;) {
    // inv is (den_0 * ... * den_i)^-1 here.
    weights[i] = num[i] * (inv * prefix[i]);
    inv = inv * den[i];
  }
  return weights;
}

namespace {

// The first k distinct-x shares, in order of appearance.
std::vector<Share> first_distinct(std::span<const Share> shares,
                                  std::size_t k) {
  if (shares.size() < k) {
    throw CryptoError("shamir_reconstruct: too few shares");
  }
  std::vector<Share> picked;
  picked.reserve(k);
  for (const Share& s : shares) {
    if (std::none_of(picked.begin(), picked.end(),
                     [&](const Share& p) { return p.x == s.x; })) {
      picked.push_back(s);
    }
    if (picked.size() == k) break;
  }
  if (picked.size() < k) {
    throw CryptoError("shamir_reconstruct: duplicate share points");
  }
  return picked;
}

Fn dot(std::span<const Fn> weights, std::span<const Share> shares) {
  Fn acc = Fn::zero();
  for (std::size_t i = 0; i < shares.size(); ++i) {
    acc = acc + weights[i] * shares[i].y;
  }
  return acc;
}

std::vector<std::uint32_t> points_of(std::span<const Share> shares) {
  std::vector<std::uint32_t> xs;
  xs.reserve(shares.size());
  for (const Share& s : shares) xs.push_back(s.x);
  return xs;
}

}  // namespace

Fn shamir_reconstruct(std::span<const Share> shares, std::size_t k) {
  std::vector<Share> picked = first_distinct(shares, k);
  return dot(lagrange_at_zero(points_of(picked)), picked);
}

Fn ShamirReconstructor::reconstruct(std::span<const Share> shares,
                                    std::size_t k) {
  std::vector<Share> picked = first_distinct(shares, k);
  std::sort(picked.begin(), picked.end(),
            [](const Share& a, const Share& b) { return a.x < b.x; });
  std::vector<std::uint32_t> xs = points_of(picked);
  auto it = weights_.find(xs);
  if (it == weights_.end()) {
    std::vector<Fn> w = lagrange_at_zero(xs);
    it = weights_.emplace(std::move(xs), std::move(w)).first;
  }
  return dot(it->second, picked);
}

}  // namespace ddemos::crypto
