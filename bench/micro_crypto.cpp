// Microbenchmarks of every cryptographic primitive (google-benchmark).
// They serve as the ablation data for the receipt-path cost breakdown in
// EXPERIMENTS.md ("Microbenchmarks"). Each result is also emitted as a
// machine-readable BENCH_JSON line for the CI bench-smoke artifact, so the
// crypto speedups are tracked across PRs alongside the figure benches.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/messages.hpp"
#include "crypto/aes.hpp"
#include "crypto/batch.hpp"
#include "crypto/commit.hpp"
#include "crypto/ec.hpp"
#include "crypto/elgamal.hpp"
#include "crypto/merkle.hpp"
#include "crypto/pedersen.hpp"
#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/shamir.hpp"
#include "crypto/sha256.hpp"
#include "crypto/zkp.hpp"

namespace ddemos::crypto {
namespace {

void BM_Sha256(benchmark::State& state) {
  Rng rng(1);
  Bytes data = rng.bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(1024)->Arg(65536);

void BM_VoteCodeValidation(benchmark::State& state) {
  // The per-vote hot path at a VC node: m*2 salted-hash checks.
  Rng rng(2);
  std::size_t m = static_cast<std::size_t>(state.range(0));
  Bytes code = rng.bytes(20);
  Bytes salt = rng.bytes(8);
  Hash32 h = salted_commit(code, salt);
  for (auto _ : state) {
    for (std::size_t i = 0; i < 2 * m; ++i) {
      benchmark::DoNotOptimize(salted_commit_check(h, code, salt));
    }
  }
}
BENCHMARK(BM_VoteCodeValidation)->Arg(2)->Arg(4)->Arg(10);

void BM_Aes128CbcEncrypt(benchmark::State& state) {
  Rng rng(3);
  Bytes key = rng.bytes(16);
  Bytes pt = rng.bytes(20);
  for (auto _ : state) {
    benchmark::DoNotOptimize(aes128_cbc_encrypt(key, pt, rng));
  }
}
BENCHMARK(BM_Aes128CbcEncrypt);

void BM_EcScalarMul(benchmark::State& state) {
  Rng rng(4);
  Fn k = random_scalar(rng);
  Point p = ec_mul_g(random_scalar(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec_mul(k, p));
  }
}
BENCHMARK(BM_EcScalarMul);

void BM_EcScalarMulNaive(benchmark::State& state) {
  // The pre-refactor 256-iteration double-and-add ladder; the ratio vs
  // BM_EcScalarMul is the gate checked by crypto_speed_test.
  Rng rng(4);
  Fn k = random_scalar(rng);
  Point p = ec_mul_g(random_scalar(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec_mul_naive(k, p));
  }
}
BENCHMARK(BM_EcScalarMulNaive);

void BM_EcMulG(benchmark::State& state) {
  // k*G on the static G comb: at most 33 mixed additions.
  Rng rng(41);
  Fn k = random_scalar(rng);
  ec_mul_g(k);  // builds the comb outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec_mul_g(k));
  }
}
BENCHMARK(BM_EcMulG);

void BM_FixedBaseCombBuild(benchmark::State& state) {
  // The one-off cost of a comb: what every process pays for G and H, and
  // a full EA setup pays once for the election's commitment key.
  Rng rng(42);
  Point base = ec_mul_g(random_scalar(rng));
  for (auto _ : state) {
    FixedBaseComb comb(base);
    benchmark::DoNotOptimize(comb);
  }
}
BENCHMARK(BM_FixedBaseCombBuild)->Unit(benchmark::kMillisecond);

void BM_EcMul2(benchmark::State& state) {
  Rng rng(40);
  Fn a = random_scalar(rng);
  Fn b = random_scalar(rng);
  Point p = ec_mul_g(random_scalar(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec_mul2(a, p, b));
  }
}
BENCHMARK(BM_EcMul2);

void BM_EcMsm(benchmark::State& state) {
  Rng rng(41);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Fn> ks;
  std::vector<Point> ps;
  for (std::size_t i = 0; i < n; ++i) {
    ks.push_back(random_scalar(rng));
    ps.push_back(ec_mul_g(random_scalar(rng)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec_msm(ks, ps));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EcMsm)->Arg(2)->Arg(8)->Arg(32);

// The two MSM engines head to head across the crossover region. ec_msm
// auto-selects between them at kMsmCrossover terms; the sweep is the data
// behind that constant (EXPERIMENTS.md "Parallel audit").
void BM_EcMsmStrauss(benchmark::State& state) {
  Rng rng(44);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Fn> ks;
  std::vector<Point> ps;
  for (std::size_t i = 0; i < n; ++i) {
    ks.push_back(random_scalar(rng));
    ps.push_back(ec_mul_g(random_scalar(rng)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec_msm_strauss(ks, ps));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EcMsmStrauss)
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_EcMsmPippenger(benchmark::State& state) {
  Rng rng(44);  // same seed: identical inputs to BM_EcMsmStrauss
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Fn> ks;
  std::vector<Point> ps;
  for (std::size_t i = 0; i < n; ++i) {
    ks.push_back(random_scalar(rng));
    ps.push_back(ec_mul_g(random_scalar(rng)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec_msm_pippenger(ks, ps));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_EcMsmPippenger)
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->Arg(4096);

void BM_BatchToAffine(benchmark::State& state) {
  Rng rng(42);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Point> ps;
  Fn k = random_scalar(rng);
  for (std::size_t i = 0; i < n; ++i) {
    // ec_mul output has a general Z, so the normalization is not trivial.
    ps.push_back(ec_mul(k + Fn::from_u64(i), ec_generator_h()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(batch_to_affine(ps));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BatchToAffine)->Arg(8)->Arg(64);

void BM_FpInverse(benchmark::State& state) {
  Rng rng(43);
  Fp x = Fp::from_bytes_mod(rng.bytes(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(x.inv());
    x = x + Fp::one();
  }
}
BENCHMARK(BM_FpInverse);

void BM_SchnorrSign(benchmark::State& state) {
  Rng rng(5);
  KeyPair kp = schnorr_keygen(rng);
  Bytes msg = to_bytes("endorsement digest");
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr_sign(kp.sk, msg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  Rng rng(6);
  KeyPair kp = schnorr_keygen(rng);
  Bytes msg = to_bytes("endorsement digest");
  Bytes sig = schnorr_sign(kp.sk, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr_verify(kp.pk, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

// The verify against a key decoded once, as the collectors and BBs hold
// them: BM_SchnorrVerify minus one ec_decode.
void BM_SchnorrVerifyKeyed(benchmark::State& state) {
  Rng rng(6);
  KeyPair kp = schnorr_keygen(rng);
  SchnorrKey key = SchnorrKey::decode(kp.pk);
  Bytes msg = to_bytes("endorsement digest");
  Bytes sig = schnorr_sign(kp, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr_verify(key, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerifyKeyed);

void BM_SchnorrVerifyNaive(benchmark::State& state) {
  Rng rng(6);
  KeyPair kp = schnorr_keygen(rng);
  Bytes msg = to_bytes("endorsement digest");
  Bytes sig = schnorr_sign(kp.sk, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr_verify_naive(kp.pk, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerifyNaive);

void BM_SchnorrVerifyBatch(benchmark::State& state) {
  Rng rng(60);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<SchnorrInstance> xs;
  for (std::size_t i = 0; i < n; ++i) {
    KeyPair kp = schnorr_keygen(rng);
    Bytes msg = rng.bytes(32);
    xs.push_back(SchnorrInstance{kp.pk, msg, schnorr_sign(kp.sk, msg)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr_verify_batch(xs));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SchnorrVerifyBatch)->Arg(16)->Arg(64);

// One UCERT check as a collector makes it: a threshold of endorsement
// signatures from distinct collectors, batch-verified against decoded keys.
void BM_UcertValid(benchmark::State& state) {
  Rng rng(61);
  std::size_t threshold = static_cast<std::size_t>(state.range(0));
  Bytes eid = to_bytes("micro");
  std::vector<Bytes> pks;
  core::Ucert u;
  u.vote_code = rng.bytes(20);
  Bytes digest = core::endorsement_digest(eid, 1, u.vote_code);
  for (std::size_t i = 0; i < threshold; ++i) {
    KeyPair kp = schnorr_keygen(rng);
    pks.push_back(kp.pk);
    u.signatures.push_back(
        {static_cast<std::uint32_t>(i), schnorr_sign(kp, digest)});
  }
  std::vector<SchnorrKey> keys = decode_schnorr_keys(pks);
  for (auto _ : state) {
    benchmark::DoNotOptimize(u.valid(eid, 1, keys, threshold));
  }
}
BENCHMARK(BM_UcertValid)->Arg(3);

void BM_ElGamalCommit(benchmark::State& state) {
  Rng rng(7);
  Point key = ec_mul_g(random_scalar(rng));
  Fn r = random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eg_commit(key, Fn::one(), r));
  }
}
BENCHMARK(BM_ElGamalCommit);

void BM_ShamirDeal(benchmark::State& state) {
  Rng rng(8);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::size_t k = n - (n - 1) / 3;
  Fn secret = random_scalar(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_deal(secret, k, n, rng));
  }
}
BENCHMARK(BM_ShamirDeal)->Arg(4)->Arg(7)->Arg(10)->Arg(16);

void BM_ShamirReconstruct(benchmark::State& state) {
  Rng rng(9);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::size_t k = n - (n - 1) / 3;
  auto shares = shamir_deal(random_scalar(rng), k, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(shamir_reconstruct(shares, k));
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(4)->Arg(7)->Arg(10)->Arg(16);

void BM_PedersenCommit(benchmark::State& state) {
  // m*G + r*H: the G and H combs add into one accumulator.
  Rng rng(43);
  Fn m = random_scalar(rng);
  Fn r = random_scalar(rng);
  pedersen_commit(m, r);  // builds both combs outside the timed loop
  for (auto _ : state) {
    benchmark::DoNotOptimize(pedersen_commit(m, r));
  }
}
BENCHMARK(BM_PedersenCommit);

void BM_PedersenVssDeal(benchmark::State& state) {
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pedersen_vss_deal(Fn::one(), 3, 5, rng));
  }
}
BENCHMARK(BM_PedersenVssDeal);

void BM_PedersenVssVerify(benchmark::State& state) {
  Rng rng(11);
  PedersenDeal deal = pedersen_vss_deal(Fn::one(), 3, 5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pedersen_vss_verify(deal.shares[0], deal.coefficient_comms));
  }
}
BENCHMARK(BM_PedersenVssVerify);

void BM_PedersenVssVerifyNaive(benchmark::State& state) {
  Rng rng(11);
  PedersenDeal deal = pedersen_vss_deal(Fn::one(), 3, 5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pedersen_vss_verify_naive(deal.shares[0], deal.coefficient_comms));
  }
}
BENCHMARK(BM_PedersenVssVerifyNaive);

void BM_BitProofProve(benchmark::State& state) {
  Rng rng(12);
  Point key = ec_mul_g(random_scalar(rng));
  const FixedBaseComb comb(key);
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::one(), r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(prove_bit(comb, c, true, r, rng));
  }
}
BENCHMARK(BM_BitProofProve);

void BM_BitProofVerify(benchmark::State& state) {
  Rng rng(13);
  Point key = ec_mul_g(random_scalar(rng));
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::one(), r);
  BitProof p = prove_bit(FixedBaseComb(key), c, true, r, rng);
  Fn ch = random_scalar(rng);
  BitProofResponse resp = p.secrets.at(ch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_bit(key, c, p.first_move, ch, resp));
  }
}
BENCHMARK(BM_BitProofVerify);

void BM_BitProofVerifyNaive(benchmark::State& state) {
  Rng rng(13);
  Point key = ec_mul_g(random_scalar(rng));
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::one(), r);
  BitProof p = prove_bit(FixedBaseComb(key), c, true, r, rng);
  Fn ch = random_scalar(rng);
  BitProofResponse resp = p.secrets.at(ch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        verify_bit_naive(key, c, p.first_move, ch, resp));
  }
}
BENCHMARK(BM_BitProofVerifyNaive);

void BM_BitProofVerifyBatch(benchmark::State& state) {
  Rng rng(130);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Point key = ec_mul_g(random_scalar(rng));
  const FixedBaseComb comb(key);
  Fn ch = random_scalar(rng);
  std::vector<BitProofInstance> xs;
  for (std::size_t i = 0; i < n; ++i) {
    Fn r = random_scalar(rng);
    ElGamalCipher c = eg_commit(key, i % 2 ? Fn::one() : Fn::zero(), r);
    BitProof p = prove_bit(comb, c, i % 2 != 0, r, rng);
    xs.push_back(BitProofInstance{c, p.first_move, ch, p.secrets.at(ch)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_bit_batch(key, xs));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BitProofVerifyBatch)->Arg(16)->Arg(64);

void BM_MerkleBuild(benchmark::State& state) {
  Rng rng(14);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<Hash32> leaves;
  for (std::size_t i = 0; i < n; ++i) {
    leaves.push_back(MerkleTree::leaf_hash(rng.bytes(36)));
  }
  for (auto _ : state) {
    MerkleTree t(leaves);
    benchmark::DoNotOptimize(t.root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(4)->Arg(16)->Arg(64);

// Console output plus one BENCH_JSON line per measured point, in the same
// shape the figure benches emit, so the CI bench-smoke artifact tracks the
// crypto kernels across PRs.
class BenchJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.iterations == 0) continue;
      double ns_per_op = run.real_accumulated_time /
                         static_cast<double>(run.iterations) * 1e9;
      std::printf(
          "BENCH_JSON {\"bench\":\"micro_crypto\",\"name\":\"%s\","
          "\"ns_per_op\":%.1f}\n",
          run.benchmark_name().c_str(), ns_per_op);
    }
  }
};

}  // namespace
}  // namespace ddemos::crypto

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ddemos::crypto::BenchJsonReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // The auto-select boundary (crossover_n is part of the row key, so a
  // retuned constant shows up as a new row, not a gate failure).
  std::printf(
      "BENCH_JSON {\"bench\":\"micro_crypto\",\"name\":\"msm_crossover\","
      "\"crossover_n\":%zu}\n",
      ddemos::crypto::kMsmCrossover);
  benchmark::Shutdown();
  return 0;
}
