// Schnorr signatures over secp256k1 with deterministic nonces. The EA
// generates all key pairs at setup (the paper avoids external PKI); VC nodes
// sign ENDORSEMENT messages with these keys, trustees sign BB writes.
#pragma once

#include <span>
#include <vector>

#include "crypto/ec.hpp"

namespace ddemos::crypto {

struct KeyPair {
  Fn sk;
  Bytes pk;  // compressed point encoding, 33 bytes
};

// A verifier key decoded once: the node keys of an election are fixed, so
// the collectors and BBs decode them at construction instead of on every
// verify. `enc` is the encoding the challenge hashes; `point` is its
// decoded, normalized (Z == 1) point. An encoding that does not decode
// gives a key with ok == false, against which every signature fails (as
// schnorr_verify fails on an undecodable pk).
struct SchnorrKey {
  Bytes enc;
  Point point;
  bool ok = false;

  static SchnorrKey decode(BytesView pk);
};
std::vector<SchnorrKey> decode_schnorr_keys(std::span<const Bytes> pks);

KeyPair schnorr_keygen(Rng& rng);
// The key pair of a secret: pk = ec_encode(sk*G).
KeyPair schnorr_keypair(const Fn& sk);
// Signature = R (33 bytes) || s (32 bytes). The key-pair form hashes
// kp.pk into the challenge as given; the scalar form derives pk = sk*G
// first and delegates.
Bytes schnorr_sign(const KeyPair& kp, BytesView msg);
Bytes schnorr_sign(const Fn& sk, BytesView msg);
bool schnorr_verify(const SchnorrKey& pk, BytesView msg, BytesView sig);
// Decodes pk and delegates to the keyed verifier.
bool schnorr_verify(BytesView pk, BytesView msg, BytesView sig);
// Pre-refactor verifier (two independent full multiplications + ec_eq),
// kept for cross-check tests and the speed-regression gate.
bool schnorr_verify_naive(BytesView pk, BytesView msg, BytesView sig);
// Fiat-Shamir challenge e = H(R || pk || msg); exposed for the batch
// verifier in batch.hpp.
Fn schnorr_challenge(BytesView r_enc, BytesView pk, BytesView msg);

}  // namespace ddemos::crypto
