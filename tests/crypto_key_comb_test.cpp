// The process-wide registry of node-key combs behind decode_schnorr_keys:
// one comb per distinct key however many holders decode it, freed with its
// last holder, and safe to fill and use from several threads at once (this
// binary runs under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "crypto/rng.hpp"
#include "crypto/schnorr.hpp"

namespace ddemos::crypto {
namespace {

struct Signers {
  std::vector<KeyPair> kps;
  std::vector<Bytes> pks;
};

Signers make_signers(std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  Signers s;
  for (std::size_t i = 0; i < n; ++i) {
    s.kps.push_back(schnorr_keygen(rng));
    s.pks.push_back(s.kps.back().pk);
  }
  return s;
}

TEST(KeyCombRegistry, DecodesOfOneKeyShareTheirComb) {
  Signers s = make_signers(901, 4);
  s.pks.push_back(s.pks[2]);  // one key held twice in a set
  {
    const std::vector<SchnorrKey> a = decode_schnorr_keys(s.pks);
    const std::vector<SchnorrKey> b = decode_schnorr_keys(s.pks);
    for (std::size_t i = 0; i < s.pks.size(); ++i) {
      ASSERT_TRUE(a[i].comb) << i;
      EXPECT_EQ(a[i].comb.get(), b[i].comb.get()) << i;
    }
    EXPECT_EQ(a[4].comb.get(), a[2].comb.get());
    EXPECT_NE(a[0].comb.get(), a[1].comb.get());
    EXPECT_EQ(schnorr_key_combs_live(), 4u);
  }
  EXPECT_EQ(schnorr_key_combs_live(), 0u);
}

TEST(KeyCombRegistry, CombIsFreedWithItsLastHolder) {
  Signers s = make_signers(902, 4);
  std::vector<SchnorrKey> a = decode_schnorr_keys(s.pks);
  std::weak_ptr<const FixedBaseComb> watch = a[0].comb;
  std::vector<SchnorrKey> b = decode_schnorr_keys(s.pks);
  a.clear();
  EXPECT_FALSE(watch.expired());  // b still holds it
  EXPECT_EQ(schnorr_key_combs_live(), 4u);
  b.erase(b.begin());
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(schnorr_key_combs_live(), 3u);
  b.clear();
  EXPECT_EQ(schnorr_key_combs_live(), 0u);
  // A later decode builds the key's comb afresh and still verifies.
  const std::vector<SchnorrKey> c = decode_schnorr_keys(s.pks);
  const Bytes msg = to_bytes("after release");
  EXPECT_TRUE(schnorr_verify(c[0], msg, schnorr_sign(s.kps[0], msg)));
}

TEST(KeyCombRegistry, KeysThatDoNotDecodeGetNoComb) {
  Signers s = make_signers(903, 1);
  s.pks.push_back(Bytes(33, 0xff));
  const std::vector<SchnorrKey> keys = decode_schnorr_keys(s.pks);
  EXPECT_TRUE(keys[0].comb);
  EXPECT_FALSE(keys[1].ok);
  EXPECT_FALSE(keys[1].comb);
  EXPECT_EQ(schnorr_key_combs_live(), 1u);
}

// Four threads decode one key set at once, as the collectors of one
// process do at construction, then verify on their own decodes.
TEST(KeyCombRegistry, ConcurrentDecodesShareCombsAndVerify) {
  constexpr std::size_t kThreads = 4;
  Signers s = make_signers(904, 4);
  const Bytes msg = to_bytes("concurrent endorsement");
  std::vector<Bytes> sigs;
  for (const KeyPair& kp : s.kps) sigs.push_back(schnorr_sign(kp, msg));
  const Bytes forged = schnorr_sign(s.kps[0], to_bytes("other digest"));

  std::vector<std::vector<SchnorrKey>> decoded(kThreads);
  std::vector<int> good(kThreads, 0), bad(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      decoded[t] = decode_schnorr_keys(s.pks);
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < s.pks.size(); ++i) {
          good[t] += schnorr_verify(decoded[t][i], msg, sigs[i]);
          bad[t] += !schnorr_verify(decoded[t][i], msg, forged);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(good[t], 12) << t;
    EXPECT_EQ(bad[t], 12) << t;
    for (std::size_t i = 0; i < s.pks.size(); ++i) {
      EXPECT_EQ(decoded[t][i].comb.get(), decoded[0][i].comb.get());
    }
  }
  EXPECT_EQ(schnorr_key_combs_live(), 4u);
  decoded.clear();
  EXPECT_EQ(schnorr_key_combs_live(), 0u);
}

}  // namespace
}  // namespace ddemos::crypto
