// Speed sanity gate: a regression that silently drops ec_mul back onto the
// naive ladder (or wrecks the wNAF engine's constant factor) fails fast in
// CI. Only asserts in optimized, unsanitized builds; skipped under Debug,
// TSan, or a time-scaled environment (DDEMOS_TEST_TIME_SCALE is set by the
// sanitizer CI jobs), where timing ratios are meaningless.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "crypto/ec.hpp"
#include "crypto/rng.hpp"
#include "crypto/zkp.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DDEMOS_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DDEMOS_SANITIZED_BUILD 1
#endif
#endif
#ifndef DDEMOS_SANITIZED_BUILD
#define DDEMOS_SANITIZED_BUILD 0
#endif

namespace ddemos::crypto {
namespace {

bool skip_reason(const char** why) {
#ifndef NDEBUG
  *why = "unoptimized (Debug) build";
  return true;
#else
  if (DDEMOS_SANITIZED_BUILD) {
    *why = "sanitizer build";
    return true;
  }
  if (std::getenv("DDEMOS_TEST_TIME_SCALE") != nullptr) {
    *why = "time-scaled environment (sanitizer CI)";
    return true;
  }
  return false;
#endif
}

// Best-of-3 wall time for `iters` evaluations of fn.
template <typename F>
double best_ns_per_op(int iters, F&& fn) {
  double best = 1e18;
  for (int pass = 0; pass < 3; ++pass) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn(i);
    auto t1 = std::chrono::steady_clock::now();
    double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        iters;
    if (ns < best) best = ns;
  }
  return best;
}

TEST(CryptoSpeed, WnafGlvMulBeatsNaiveLadderTwofold) {
  const char* why = nullptr;
  if (skip_reason(&why)) GTEST_SKIP() << "speed gate skipped: " << why;

  Rng rng(991);
  Point p = ec_mul_g(random_scalar(rng));
  constexpr int kIters = 40;
  std::vector<Fn> ks;
  for (int i = 0; i < kIters; ++i) ks.push_back(random_scalar(rng));

  // Warm up both paths (and the engine's static tables) while checking
  // agreement, so the timed loops measure steady-state arithmetic only.
  Point sink = Point::infinity();
  ASSERT_TRUE(ec_eq(ec_mul(ks[0], p), ec_mul_naive(ks[0], p)));

  double fast_ns = best_ns_per_op(kIters, [&](int i) {
    sink = ec_mul(ks[static_cast<std::size_t>(i)], p);
  });
  Point fast_last = sink;
  double naive_ns = best_ns_per_op(kIters, [&](int i) {
    sink = ec_mul_naive(ks[static_cast<std::size_t>(i)], p);
  });
  ASSERT_TRUE(ec_eq(fast_last, sink));  // same final scalar, same point

  double ratio = naive_ns / fast_ns;
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_mul\","
      "\"ns_per_op\":%.1f}\n",
      fast_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_mul_naive\","
      "\"ns_per_op\":%.1f}\n",
      naive_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_mul_speedup\","
      "\"ratio\":%.2f}\n",
      ratio);
  EXPECT_GE(ratio, 2.0) << "wNAF/GLV ec_mul regressed to within 2x of the "
                           "naive double-and-add ladder";
}

TEST(CryptoSpeed, MsmAutoBeatsStraussAtAuditScale) {
  const char* why = nullptr;
  if (skip_reason(&why)) GTEST_SKIP() << "speed gate skipped: " << why;

  // At n = 1024 (the working set of one chunked-batch audit MSM) the auto
  // front door must route to Pippenger and clearly beat Strauss. The 1.5x
  // floor sits well under the ~1.8x measured on the calibration box, so
  // the gate trips on a broken dispatch (crossover regressed above 1024)
  // or a wrecked bucket engine, not on machine-to-machine noise.
  Rng rng(993);
  constexpr std::size_t kN = 1024;
  std::vector<Fn> ks;
  std::vector<Point> ps;
  for (std::size_t i = 0; i < kN; ++i) {
    ks.push_back(random_scalar(rng));
    ps.push_back(ec_mul_g(random_scalar(rng)));
  }
  ASSERT_TRUE(ec_eq(ec_msm(ks, ps), ec_msm_strauss(ks, ps)));

  Point sink = Point::infinity();
  double auto_ns = best_ns_per_op(3, [&](int) { sink = ec_msm(ks, ps); });
  Point auto_last = sink;
  double strauss_ns =
      best_ns_per_op(3, [&](int) { sink = ec_msm_strauss(ks, ps); });
  ASSERT_TRUE(ec_eq(auto_last, sink));

  double ratio = strauss_ns / auto_ns;
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_msm_1024\","
      "\"ns_per_op\":%.1f}\n",
      auto_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\","
      "\"name\":\"ec_msm_strauss_1024\",\"ns_per_op\":%.1f}\n",
      strauss_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"ec_msm_speedup\","
      "\"ratio\":%.2f}\n",
      ratio);
  EXPECT_GE(ratio, 1.5) << "ec_msm auto-select no longer beats Strauss at "
                           "n=1024; Pippenger dispatch or bucket engine "
                           "regressed";
}

TEST(CryptoSpeed, BitProofVerifySpeedupReported) {
  const char* why = nullptr;
  if (skip_reason(&why)) GTEST_SKIP() << "speed gate skipped: " << why;

  Rng rng(992);
  Point key = ec_mul_g(random_scalar(rng));
  Fn r = random_scalar(rng);
  ElGamalCipher c = eg_commit(key, Fn::one(), r);
  BitProof p = prove_bit(FixedBaseComb(key), c, true, r, rng);
  Fn ch = random_scalar(rng);
  BitProofResponse resp = p.secrets.at(ch);
  ASSERT_TRUE(verify_bit(key, c, p.first_move, ch, resp));

  bool sink = false;
  double fast_ns = best_ns_per_op(20, [&](int) {
    sink ^= verify_bit(key, c, p.first_move, ch, resp);
  });
  double naive_ns = best_ns_per_op(20, [&](int) {
    sink ^= verify_bit_naive(key, c, p.first_move, ch, resp);
  });
  ASSERT_FALSE(!sink && sink);  // keep `sink` alive
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\",\"name\":\"bit_proof_verify\","
      "\"ns_per_op\":%.1f}\n",
      fast_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\","
      "\"name\":\"bit_proof_verify_naive\",\"ns_per_op\":%.1f}\n",
      naive_ns);
  std::printf(
      "BENCH_JSON {\"bench\":\"crypto_speed\","
      "\"name\":\"bit_proof_verify_speedup\",\"ratio\":%.2f}\n",
      naive_ns / fast_ns);
  // The hard gate lives on ec_mul above; the verifier ratio is tracked in
  // the bench artifact (target >= 1.8x, see EXPERIMENTS.md).
  EXPECT_GE(naive_ns / fast_ns, 1.2);
}

}  // namespace
}  // namespace ddemos::crypto
