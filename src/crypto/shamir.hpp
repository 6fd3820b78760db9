// Shamir secret sharing over the secp256k1 scalar field. Used with a
// trusted dealer (the EA) for receipt shares and the msk key shares:
// the paper's "(Nv-fv, Nv)-VSS with trusted dealer". Verifiability is
// provided by Merkle commitments over the share list (see merkle.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "crypto/fe.hpp"

namespace ddemos::crypto {

class Rng;

struct Share {
  std::uint32_t x = 0;  // evaluation point, 1-based node index
  Fn y;
};

// Splits `secret` into n shares with reconstruction threshold k.
std::vector<Share> shamir_deal(const Fn& secret, std::size_t k, std::size_t n,
                               Rng& rng);

// Lagrange weights at 0 for the evaluation points xs: a secret shared at
// those points is sum_i weights[i] * y_i. Compute them once per point set
// and reconstruct any number of secrets as dot products. Throws
// CryptoError if a point repeats.
std::vector<Fn> lagrange_at_zero(std::span<const std::uint32_t> xs);

// Lagrange interpolation at 0 using the first k distinct-x shares.
// Throws CryptoError if fewer than k shares or duplicate x values.
Fn shamir_reconstruct(std::span<const Share> shares, std::size_t k);

// shamir_reconstruct with the Lagrange weights of each set of share points
// computed once and kept: a later reconstruction from the same points is
// a dot product with no field inversion. Gives shamir_reconstruct's value
// for the same shares in any order. Not thread-safe: keep one per thread
// (or per shard) of a caller.
class ShamirReconstructor {
 public:
  Fn reconstruct(std::span<const Share> shares, std::size_t k);

 private:
  // By the sorted points; weights in the same order.
  std::map<std::vector<std::uint32_t>, std::vector<Fn>> weights_;
};

}  // namespace ddemos::crypto
