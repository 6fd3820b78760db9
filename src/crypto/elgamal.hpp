// Lifted ElGamal over secp256k1, used as the additively homomorphic
// option-encoding commitment scheme (paper Section III-B): the commitment
// to a unit vector e_i is the element-wise encryption
//   Com(m; r) = (r*G, m*G + r*H)
// under the election commitment key H. It is perfectly binding (A fixes r,
// hence m) and computationally hiding under DDH. Component-wise products
// commit to coordinate sums, which is what the tally uses.
#pragma once

#include <vector>

#include "crypto/ec.hpp"

namespace ddemos::crypto {

struct ElGamalCipher {
  Point a, b;
};

ElGamalCipher eg_commit(const Point& key, const Fn& m, const Fn& r);
ElGamalCipher eg_add(const ElGamalCipher& x, const ElGamalCipher& y);
bool eg_eq(const ElGamalCipher& x, const ElGamalCipher& y);
// True iff (a,b) opens to (m, r) under `key`.
bool eg_open_check(const Point& key, const ElGamalCipher& c, const Fn& m,
                   const Fn& r);

Bytes eg_encode(const ElGamalCipher& c);      // 66 bytes
ElGamalCipher eg_decode(BytesView b);

// Unit-vector commitment: m ciphertexts where position `index` encrypts 1
// and all others 0, with fresh randomness rs[i], under the key's comb.
std::vector<ElGamalCipher> eg_commit_unit_vector(const FixedBaseComb& key,
                                                 std::size_t m,
                                                 std::size_t index,
                                                 std::span<const Fn> rs);

}  // namespace ddemos::crypto
