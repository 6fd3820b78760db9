// Unit costs of single library calls, timed from outside: the crypto
// primitives on the cast and tally paths, and store::Wal appends and
// fsyncs on a scratch file in the run's own directory.
#include <filesystem>

#include "crypto/batch.hpp"
#include "crypto/ec.hpp"
#include "crypto/elgamal.hpp"
#include "crypto/pedersen.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/zkp.hpp"
#include "store/wal.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace ddemos;

namespace {

// Median over `batches` of the mean per-call time of `calls` calls, in µs.
template <typename Fn>
double unit_us(int batches, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(seconds_since(t0) * 1e6 / calls);
  }
  return median(per_call);
}

}  // namespace

void add_crypto_unit_costs(Result& r, bool tiny) {
  const int batches = tiny ? 2 : 5, calls = tiny ? 5 : 40;
  crypto::Rng rng(0x5eed);
  crypto::KeyPair kp = crypto::schnorr_keygen(rng);
  Bytes msg = rng.bytes(64);
  Bytes sig = crypto::schnorr_sign(kp.sk, msg);
  bool ok = true;
  r.layer("crypto.schnorr_sign_us", unit_us(batches, calls, [&] {
            sig = crypto::schnorr_sign(kp.sk, msg);
          }), "us");
  r.layer("crypto.schnorr_verify_us", unit_us(batches, calls, [&] {
            ok = crypto::schnorr_verify(kp.pk, msg, sig) && ok;
          }), "us");

  std::vector<crypto::SchnorrInstance> batch;
  for (int i = 0; i < 64; ++i) {
    Bytes m = rng.bytes(64);
    batch.push_back({kp.pk, m, crypto::schnorr_sign(kp.sk, m)});
  }
  r.layer("crypto.schnorr_verify_batch_us",
          unit_us(batches, 1, [&] {
            ok = crypto::schnorr_verify_batch(batch) && ok;
          }) / static_cast<double>(batch.size()),
          "us");

  crypto::PedersenDeal deal =
      crypto::pedersen_vss_deal(crypto::random_scalar(rng), 2, 3, rng);
  r.layer("crypto.vss_verify_us", unit_us(batches, calls, [&] {
            ok = crypto::pedersen_vss_verify(deal.shares[0],
                                             deal.coefficient_comms) && ok;
          }), "us");

  crypto::Point key = crypto::ec_mul_g(crypto::random_scalar(rng));
  crypto::Fn rnd = crypto::random_scalar(rng);
  crypto::ElGamalCipher cipher = crypto::eg_commit(key, crypto::Fn::one(), rnd);
  crypto::BitProof proof = crypto::prove_bit(key, cipher, true, rnd, rng);
  crypto::Fn challenge = crypto::random_scalar(rng);
  crypto::BitProofResponse resp = proof.secrets.at(challenge);
  r.layer("crypto.bit_proof_verify_us", unit_us(batches, calls, [&] {
            ok = crypto::verify_bit(key, cipher, proof.first_move, challenge,
                                    resp) && ok;
          }), "us");
  if (!ok) r.fail("crypto unit-cost inputs did not verify");
}

void add_wal_unit_costs(Result& r, const std::string& dir, bool tiny) {
  std::string path = dir + "/unit-cost.wal";
  {
    store::Wal wal(path, {store::FsyncPolicy::kNever, 64});
    wal.replay([](std::uint8_t, BytesView) {});
    Bytes payload(96, 0xab);
    r.layer("wal.append_us", unit_us(tiny ? 2 : 5, tiny ? 20 : 400, [&] {
              wal.append(1, payload);
            }), "us");
    std::vector<double> fsync_us;
    for (int i = 0; i < (tiny ? 3 : 20); ++i) {
      wal.append(1, payload);
      Clock::time_point t0 = Clock::now();
      wal.sync();
      fsync_us.push_back(seconds_since(t0) * 1e6);
    }
    r.layer("wal.fsync_us", median(fsync_us), "us");
  }
  std::filesystem::remove(path);
}

}  // namespace perfbench
