// Chaum-Pedersen zero-knowledge proofs for ballot correctness (paper
// Sections III-B and III-D). For each option-encoding ciphertext
// (A, B) = (r*G, m*G + r*K) under commitment key K the EA proves with a
// Sigma-OR proof that m is 0 or 1, and for each encoding that the
// component sum encrypts exactly 1.
//
// The protocol is split across time exactly as in the paper:
//   1. The EA computes the FIRST MOVES and posts them on the BB at setup.
//   2. The election-wide CHALLENGE is extracted from the voters' A/B part
//      choices ("the voters' coins") after the election.
//   3. The trustees jointly produce the RESPONSES: every response scalar is
//      an affine function rho(c) = u + c*v of the challenge, and the EA
//      secret-shares the (u, v) coefficients among the trustees. A trustee
//      evaluates its share of rho at c; combining ht shares yields the
//      response without any single party knowing the prover randomness.
#pragma once

#include <vector>

#include "crypto/elgamal.hpp"

namespace ddemos::crypto {

class Rng;

// rho(c) = u + c*v over the scalar field.
struct AffineScalar {
  Fn u, v;
  Fn at(const Fn& c) const { return u + c * v; }
};

// --- Sigma-OR proof that a ciphertext encrypts 0 or 1 -----------------

struct BitProofFirstMove {
  // Branch 0 proves (A, B) is a DH pair; branch 1 proves (A, B - G) is.
  Point t1_0, t2_0, t1_1, t2_1;
};

struct BitProofResponse {
  Fn c0, c1, z0, z1;
};

// The prover state the EA shares with the trustees: all four response
// components as affine functions of the global challenge.
struct BitProofSecrets {
  AffineScalar c0, c1, z0, z1;
  BitProofResponse at(const Fn& c) const {
    return BitProofResponse{c0.at(c), c1.at(c), z0.at(c), z1.at(c)};
  }
};

struct BitProof {
  BitProofFirstMove first_move;
  BitProofSecrets secrets;
};

// `bit` must be the plaintext of `cipher` and `r` its randomness: the
// prover builds its first moves from (bit, r) on fixed-base combs and never
// reads the cipher's points, so a cipher that does not open to (bit, r)
// yields a proof that fails verification.
BitProof prove_bit(const FixedBaseComb& key, const ElGamalCipher& cipher,
                   bool bit, const Fn& r, Rng& rng);
// Builds a comb for `key` for a single proof. Kept for callers that prove
// once per key (the benchmark's unit-cost probe); loops build the comb once
// and call the overload above.
BitProof prove_bit(const Point& key, const ElGamalCipher& cipher, bool bit,
                   const Fn& r, Rng& rng);

bool verify_bit(const Point& key, const ElGamalCipher& cipher,
                const BitProofFirstMove& fm, const Fn& challenge,
                const BitProofResponse& resp);
// Pre-refactor verifier (independent full multiplications + ec_eq per
// equation), kept for cross-check tests and benchmarks.
bool verify_bit_naive(const Point& key, const ElGamalCipher& cipher,
                      const BitProofFirstMove& fm, const Fn& challenge,
                      const BitProofResponse& resp);

// --- Chaum-Pedersen proof that the ciphertext sum encrypts `total` ----

struct SumProofFirstMove {
  Point t1, t2;
};

struct SumProof {
  SumProofFirstMove first_move;
  AffineScalar z;  // z(c) = w + c*R, R = sum of randomness
};

SumProof prove_sum(const FixedBaseComb& key, const Fn& total_randomness,
                   Rng& rng);

// `sum` must be the component-wise sum of the encoding's ciphertexts.
bool verify_sum(const Point& key, const ElGamalCipher& sum, const Fn& total,
                const SumProofFirstMove& fm, const Fn& challenge,
                const Fn& z);
bool verify_sum_naive(const Point& key, const ElGamalCipher& sum,
                      const Fn& total, const SumProofFirstMove& fm,
                      const Fn& challenge, const Fn& z);

// --- Challenge extraction ----------------------------------------------

// The election-wide challenge is derived from the voters' A/B coin string
// (min-entropy theta if theta honest voters participated) plus the election
// id, exactly filling the role of the voters' coins in the paper.
Fn challenge_from_coins(BytesView election_id, BytesView coin_bits);

}  // namespace ddemos::crypto
