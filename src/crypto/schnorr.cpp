#include "crypto/schnorr.hpp"

#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "util/error.hpp"

namespace ddemos::crypto {

Fn schnorr_challenge(BytesView r_enc, BytesView pk, BytesView msg) {
  Sha256 h;
  h.update(to_bytes("ddemos/schnorr"));
  h.update(r_enc);
  h.update(pk);
  h.update(msg);
  return Fn::from_bytes_mod(hash_view(h.finish()));
}

KeyPair schnorr_keygen(Rng& rng) {
  Fn sk = random_scalar(rng);
  if (sk.is_zero()) sk = Fn::one();
  return schnorr_keypair(sk);
}

KeyPair schnorr_keypair(const Fn& sk) {
  return KeyPair{sk, ec_encode(ec_mul_g(sk))};
}

Bytes schnorr_sign(const KeyPair& kp, BytesView msg) {
  // Deterministic nonce: H(sk || msg), reduced into the scalar field.
  Sha256 nh;
  nh.update(to_bytes("ddemos/schnorr/nonce"));
  nh.update(kp.sk.to_bytes_be());
  nh.update(msg);
  Fn k = Fn::from_bytes_mod(hash_view(nh.finish()));
  if (k.is_zero()) k = Fn::one();
  Bytes r_enc = ec_encode(ec_mul_g(k));
  Fn e = schnorr_challenge(r_enc, kp.pk, msg);
  Fn s = k + e * kp.sk;
  Bytes sig = r_enc;
  append(sig, s.to_bytes_be());
  return sig;
}

Bytes schnorr_sign(const Fn& sk, BytesView msg) {
  return schnorr_sign(schnorr_keypair(sk), msg);
}

SchnorrKey SchnorrKey::decode(BytesView pk) {
  SchnorrKey key;
  key.enc.assign(pk.begin(), pk.end());
  try {
    key.point = ec_decode(pk);
    key.ok = true;
  } catch (const CryptoError&) {
  }
  return key;
}

std::vector<SchnorrKey> decode_schnorr_keys(std::span<const Bytes> pks) {
  std::vector<SchnorrKey> keys;
  keys.reserve(pks.size());
  for (const Bytes& pk : pks) keys.push_back(SchnorrKey::decode(pk));
  return keys;
}

bool schnorr_verify(const SchnorrKey& pk, BytesView msg, BytesView sig) {
  if (!pk.ok || sig.size() != 65) return false;
  try {
    Point r = ec_decode(sig.subspan(0, 33));
    Fn s = Fn::from_bytes_mod(sig.subspan(33));
    Fn e = schnorr_challenge(sig.subspan(0, 33), pk.enc, msg);
    // s*G - e*P - R == 0: one interleaved Strauss double-mul plus one
    // mixed addition (R arrives normalized from ec_decode), no ec_eq
    // cross-multiplication.
    Point acc = ec_mul2(e, ec_neg(pk.point), s);
    AffinePoint ra = to_affine(r);
    if (!ra.infinity) ra.y = ra.y.neg();
    return ec_add_mixed(acc, ra).is_infinity();
  } catch (const CryptoError&) {
    return false;
  }
}

bool schnorr_verify(BytesView pk, BytesView msg, BytesView sig) {
  return schnorr_verify(SchnorrKey::decode(pk), msg, sig);
}

bool schnorr_verify_naive(BytesView pk, BytesView msg, BytesView sig) {
  if (sig.size() != 65 || pk.size() != 33) return false;
  try {
    Point r = ec_decode(sig.subspan(0, 33));
    Fn s = Fn::from_bytes_mod(sig.subspan(33));
    Point pub = ec_decode(pk);
    Fn e = schnorr_challenge(sig.subspan(0, 33), pk, msg);
    // s*G == R + e*P
    return ec_eq(ec_mul_g(s), ec_add(r, ec_mul_naive(e, pub)));
  } catch (const CryptoError&) {
    return false;
  }
}

}  // namespace ddemos::crypto
