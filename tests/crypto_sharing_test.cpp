#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/batch.hpp"
#include "crypto/pedersen.hpp"
#include "crypto/rng.hpp"
#include "crypto/shamir.hpp"
#include "util/error.hpp"

namespace ddemos::crypto {
namespace {

TEST(Shamir, ReconstructFromThreshold) {
  Rng rng(41);
  Fn secret = random_scalar(rng);
  auto shares = shamir_deal(secret, 3, 5, rng);
  ASSERT_EQ(shares.size(), 5u);
  EXPECT_EQ(shamir_reconstruct(shares, 3), secret);
}

// Lagrange weights computed once per point set reconstruct every secret
// shared at those points as a dot product, equal to shamir_reconstruct.
TEST(Shamir, LagrangeWeightsMatchReconstruct) {
  Rng rng(47);
  constexpr std::size_t kK = 3, kN = 7;
  std::vector<Fn> secrets;
  std::vector<std::vector<Share>> dealt;
  for (int s = 0; s < 4; ++s) {
    secrets.push_back(random_scalar(rng));
    dealt.push_back(shamir_deal(secrets.back(), kK, kN, rng));
  }
  for (int trial = 0; trial < 20; ++trial) {
    // A random subset of kK..kN trustees, in random order.
    std::vector<std::size_t> idx(kN);
    for (std::size_t i = 0; i < kN; ++i) idx[i] = i;
    for (std::size_t i = kN; i > 1; --i) std::swap(idx[i - 1], idx[rng.below(i)]);
    idx.resize(kK + rng.below(kN - kK + 1));
    std::vector<std::uint32_t> xs;
    for (std::size_t i : idx) xs.push_back(dealt[0][i].x);
    std::vector<Fn> weights = lagrange_at_zero(xs);
    ASSERT_EQ(weights.size(), xs.size());
    for (std::size_t s = 0; s < secrets.size(); ++s) {
      std::vector<Share> subset;
      Fn dot = Fn::zero();
      for (std::size_t i = 0; i < idx.size(); ++i) {
        subset.push_back(dealt[s][idx[i]]);
        dot = dot + weights[i] * dealt[s][idx[i]].y;
      }
      EXPECT_EQ(dot, secrets[s]);
      EXPECT_EQ(dot, shamir_reconstruct(subset, subset.size()));
    }
  }
  const std::uint32_t repeated[] = {1, 2, 1};
  EXPECT_THROW(lagrange_at_zero(repeated), CryptoError);
}

// Property sweep: every k-subset of shares reconstructs; below-threshold
// subsets give a different (wrong) value.
class ShamirSubsets : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(ShamirSubsets, AnyQuorumReconstructs) {
  auto [k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(k * 100 + n));
  Fn secret = random_scalar(rng);
  auto shares = shamir_deal(secret, static_cast<std::size_t>(k),
                            static_cast<std::size_t>(n), rng);
  // Walk all contiguous windows and a few random subsets.
  for (int start = 0; start + k <= n; ++start) {
    std::vector<Share> subset(shares.begin() + start,
                              shares.begin() + start + k);
    EXPECT_EQ(shamir_reconstruct(subset, static_cast<std::size_t>(k)), secret);
  }
  // Shuffled subset.
  std::vector<Share> all = shares;
  for (std::size_t i = all.size(); i > 1; --i) {
    std::swap(all[i - 1], all[rng.below(i)]);
  }
  all.resize(static_cast<std::size_t>(k));
  EXPECT_EQ(shamir_reconstruct(all, static_cast<std::size_t>(k)), secret);
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, ShamirSubsets,
    ::testing::Values(std::pair{1, 1}, std::pair{2, 3}, std::pair{3, 4},
                      std::pair{3, 5}, std::pair{5, 7}, std::pair{7, 10},
                      std::pair{11, 16}));

TEST(Shamir, TooFewSharesThrow) {
  Rng rng(42);
  auto shares = shamir_deal(random_scalar(rng), 4, 6, rng);
  shares.resize(3);
  EXPECT_THROW(shamir_reconstruct(shares, 4), CryptoError);
}

TEST(Shamir, DuplicateSharePointsRejected) {
  Rng rng(43);
  auto shares = shamir_deal(random_scalar(rng), 3, 5, rng);
  std::vector<Share> dup = {shares[0], shares[0], shares[0]};
  EXPECT_THROW(shamir_reconstruct(dup, 3), CryptoError);
}

// A collector's receipt reconstruction: n = 4 collectors, quorum 3, the
// weights of each share-point set cached across casts. For every 3-of-4
// subset in every arrival order (and with the fourth share arriving last),
// one reconstructor gives shamir_reconstruct's value for the same shares,
// also when a share is corrupt (interpolation is then still exact).
TEST(Shamir, CachedReconstructorMatchesReconstructInEveryOrder) {
  Rng rng(48);
  constexpr std::size_t kK = 3, kN = 4;
  ShamirReconstructor cached;
  for (int receipt = 0; receipt < 3; ++receipt) {
    const Fn secret = random_scalar(rng);
    std::vector<Share> dealt = shamir_deal(secret, kK, kN, rng);
    if (receipt == 2) dealt[1].y = dealt[1].y + Fn::one();
    for (std::size_t left_out = 0; left_out < kN; ++left_out) {
      std::vector<Share> subset;
      for (std::size_t i = 0; i < kN; ++i) {
        if (i != left_out) subset.push_back(dealt[i]);
      }
      std::sort(subset.begin(), subset.end(),
                [](const Share& a, const Share& b) { return a.x < b.x; });
      do {
        const Fn want = shamir_reconstruct(subset, kK);
        if (receipt < 2) {
          EXPECT_EQ(want, secret);
        }
        EXPECT_EQ(cached.reconstruct(subset, kK), want);
        std::vector<Share> all = subset;
        all.push_back(dealt[left_out]);
        EXPECT_EQ(cached.reconstruct(all, kK), want);
      } while (std::next_permutation(
          subset.begin(), subset.end(),
          [](const Share& a, const Share& b) { return a.x < b.x; }));
    }
  }
  std::vector<Share> dup = {Share{1, Fn::one()}, Share{1, Fn::one()},
                            Share{2, Fn::one()}};
  EXPECT_THROW(cached.reconstruct(dup, kK), CryptoError);
  dup.resize(2);
  EXPECT_THROW(cached.reconstruct(dup, kK), CryptoError);
}

TEST(Shamir, BadParamsThrow) {
  Rng rng(44);
  EXPECT_THROW(shamir_deal(Fn::one(), 0, 5, rng), CryptoError);
  EXPECT_THROW(shamir_deal(Fn::one(), 6, 5, rng), CryptoError);
}

TEST(Shamir, CorruptShareChangesSecret) {
  Rng rng(45);
  Fn secret = random_scalar(rng);
  auto shares = shamir_deal(secret, 3, 5, rng);
  shares[1].y = shares[1].y + Fn::one();
  EXPECT_NE(shamir_reconstruct(shares, 3), secret);
}

TEST(Shamir, LinearityOfShares) {
  // share(a) + share(b) reconstructs a+b — the homomorphism the trustee
  // tally relies on.
  Rng rng(46);
  Fn a = random_scalar(rng), b = random_scalar(rng);
  auto sa = shamir_deal(a, 3, 5, rng);
  auto sb = shamir_deal(b, 3, 5, rng);
  std::vector<Share> sum;
  for (std::size_t i = 0; i < 5; ++i) {
    sum.push_back(Share{sa[i].x, sa[i].y + sb[i].y});
  }
  EXPECT_EQ(shamir_reconstruct(sum, 3), a + b);
}

// The Lagrange interpolation at 0 with one field inversion per share: the
// reference shamir_reconstruct must keep matching.
Fn reconstruct_k_inversions(const std::vector<Share>& pts) {
  Fn acc = Fn::zero();
  for (std::size_t i = 0; i < pts.size(); ++i) {
    Fn num = Fn::one();
    Fn den = Fn::one();
    Fn xi = Fn::from_u64(pts[i].x);
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (i == j) continue;
      Fn xj = Fn::from_u64(pts[j].x);
      num = num * xj;
      den = den * (xj - xi);
    }
    acc = acc + pts[i].y * num * den.inv();
  }
  return acc;
}

TEST(Shamir, OneInversionMatchesPerShareInversions) {
  // Random points (not a dealt polynomial, so every share matters) over
  // random subsets of distinct x in [1, 40], k from 1 to 12; extra shares
  // past the first k distinct ones are ignored.
  Rng rng(47);
  for (int round = 0; round < 200; ++round) {
    std::size_t k = 1 + rng.below(12);
    std::vector<std::uint32_t> xs;
    while (xs.size() < k + 2) {
      auto x = static_cast<std::uint32_t>(1 + rng.below(40));
      if (std::find(xs.begin(), xs.end(), x) == xs.end()) xs.push_back(x);
    }
    std::vector<Share> shares;
    for (std::uint32_t x : xs) shares.push_back(Share{x, random_scalar(rng)});
    std::vector<Share> first(shares.begin(),
                             shares.begin() + static_cast<std::ptrdiff_t>(k));
    EXPECT_EQ(shamir_reconstruct(shares, k), reconstruct_k_inversions(first))
        << "round " << round << " k=" << k;
  }
}

TEST(PedersenVss, SharesVerifyAndReconstruct) {
  Rng rng(47);
  Fn secret = random_scalar(rng);
  PedersenDeal deal = pedersen_vss_deal(secret, 3, 5, rng);
  ASSERT_EQ(deal.shares.size(), 5u);
  ASSERT_EQ(deal.coefficient_comms.size(), 3u);
  for (const auto& s : deal.shares) {
    EXPECT_TRUE(pedersen_vss_verify(s, deal.coefficient_comms));
  }
  auto [rec, blind] = pedersen_vss_reconstruct(deal.shares, 3);
  EXPECT_EQ(rec, secret);
  // The zeroth coefficient commitment opens to (secret, blind).
  EXPECT_TRUE(ec_eq(deal.coefficient_comms[0], pedersen_commit(rec, blind)));
}

TEST(PedersenVss, TamperedShareFailsVerification) {
  Rng rng(48);
  PedersenDeal deal = pedersen_vss_deal(Fn::from_u64(99), 2, 4, rng);
  PedersenShare bad = deal.shares[0];
  bad.f = bad.f + Fn::one();
  EXPECT_FALSE(pedersen_vss_verify(bad, deal.coefficient_comms));
  bad = deal.shares[0];
  bad.g = bad.g + Fn::one();
  EXPECT_FALSE(pedersen_vss_verify(bad, deal.coefficient_comms));
}

TEST(PedersenVss, BatchVerifyMatchesPerInstance) {
  // The random-linear-combination batch the BB nodes use for trustee
  // messages: all-valid batches pass, any tampered share (or an empty
  // commitment vector) fails the combined check, the empty batch is
  // trivially true.
  Rng rng(52);
  std::vector<PedersenVssInstance> insts;
  for (std::uint64_t d = 0; d < 3; ++d) {
    PedersenDeal deal = pedersen_vss_deal(random_scalar(rng), 2 + d, 5, rng);
    for (const auto& s : deal.shares) {
      insts.push_back({s, deal.coefficient_comms});
    }
  }
  EXPECT_TRUE(pedersen_vss_verify_batch(insts));
  EXPECT_TRUE(pedersen_vss_verify_batch({}));

  auto tampered = insts;
  tampered[7].share.f = tampered[7].share.f + Fn::one();
  EXPECT_FALSE(pedersen_vss_verify_batch(tampered));
  // The per-instance fallback attributes the failure to exactly one share.
  std::size_t bad = 0;
  for (const auto& i : tampered) {
    bad += pedersen_vss_verify(i.share, i.comms) ? 0 : 1;
  }
  EXPECT_EQ(bad, 1u);

  auto empty_comms = insts;
  empty_comms[0].comms.clear();
  EXPECT_FALSE(pedersen_vss_verify_batch(empty_comms));
}

// The BB's check of trustee datasets: slots whose commitment is u + c*v
// (ZK responses) or u alone (openings), datasets of one trustee each.
TEST(PedersenVss, FoldedCheckMatchesPerShareVerifier) {
  Rng rng(53);
  const Fn c = random_scalar(rng);
  constexpr std::size_t kTrustees = 3;
  std::vector<std::vector<Point>> us, vs;
  std::vector<std::vector<PedersenShare>> shares(kTrustees);
  std::vector<std::vector<Point>> comms;  // u + c*v, for the reference
  for (std::size_t q = 0; q < 6; ++q) {
    PedersenDeal du = pedersen_vss_deal(random_scalar(rng), 2, kTrustees, rng);
    PedersenDeal dv = pedersen_vss_deal(random_scalar(rng), 2, kTrustees, rng);
    const bool with_v = q % 2 == 0;
    us.push_back(du.coefficient_comms);
    vs.push_back(with_v ? dv.coefficient_comms : std::vector<Point>{});
    std::vector<Point> cq = du.coefficient_comms;
    if (with_v) {
      for (std::size_t t = 0; t < cq.size(); ++t) {
        cq[t] = ec_add(cq[t], ec_mul(c, dv.coefficient_comms[t]));
      }
    }
    comms.push_back(cq);
    for (std::size_t i = 0; i < kTrustees; ++i) {
      PedersenShare s = du.shares[i];
      if (with_v) {
        s.f = s.f + c * dv.shares[i].f;
        s.g = s.g + c * dv.shares[i].g;
      }
      shares[i].push_back(s);
    }
  }
  std::vector<VssSlot> slots;
  for (std::size_t q = 0; q < us.size(); ++q) slots.push_back({us[q], vs[q]});
  const Bytes context = to_bytes("ctx");
  auto datasets = [&](const std::vector<std::vector<PedersenShare>>& sh) {
    std::vector<VssDataset> ds;
    for (std::size_t i = 0; i < sh.size(); ++i) {
      ds.push_back({static_cast<std::uint32_t>(i + 1), sh[i]});
    }
    return ds;
  };
  auto folded = [&](std::span<const VssDataset> ds) {
    return pedersen_vss_verify_folded(context, c, slots, ds);
  };
  // Per-share reference: every share of the dataset verifies alone.
  auto reference = [&](const std::vector<PedersenShare>& sh) {
    for (std::size_t q = 0; q < sh.size(); ++q) {
      if (!pedersen_vss_verify(sh[q], comms[q])) return false;
    }
    return true;
  };

  auto ds = datasets(shares);
  EXPECT_TRUE(folded(ds));
  EXPECT_TRUE(folded({}));
  for (const auto& d : ds) EXPECT_TRUE(folded({&d, 1}));
  // The challenge is part of every u + c*v slot.
  EXPECT_FALSE(pedersen_vss_verify_folded(context, c + Fn::one(), slots, ds));

  // One bad share of one dataset, on a u + c*v slot (f) and on a u-only
  // slot (g): the fold fails, and checking each dataset alone blames
  // exactly the one the per-share verifier blames.
  for (auto [q, on_g] : {std::pair<std::size_t, bool>{2, false}, {3, true}}) {
    auto bad = shares;
    Fn& x = on_g ? bad[1][q].g : bad[1][q].f;
    x = x + Fn::one();
    auto bds = datasets(bad);
    EXPECT_FALSE(folded(bds));
    for (std::size_t i = 0; i < kTrustees; ++i) {
      EXPECT_EQ(folded({&bds[i], 1}), reference(bad[i])) << i;
      EXPECT_EQ(folded({&bds[i], 1}), i != 1) << i;
    }
  }

  // Shape errors fail, as the per-share verifier would.
  auto wrong_x = shares;
  wrong_x[0][4].x = 2;
  EXPECT_FALSE(folded(datasets(wrong_x)));
  auto short_set = shares;
  short_set[2].pop_back();
  EXPECT_FALSE(folded(datasets(short_set)));
  auto bad_slots = slots;
  bad_slots[0].v = bad_slots[0].v.first(1);
  EXPECT_FALSE(pedersen_vss_verify_folded(context, c, bad_slots, ds));
  bad_slots = slots;
  bad_slots[1].u = {};
  EXPECT_FALSE(pedersen_vss_verify_folded(context, c, bad_slots, ds));
}

TEST(PedersenVss, HomomorphicAddition) {
  Rng rng(49);
  Fn a = random_scalar(rng), b = random_scalar(rng);
  PedersenDeal da = pedersen_vss_deal(a, 3, 5, rng);
  PedersenDeal db = pedersen_vss_deal(b, 3, 5, rng);
  std::vector<PedersenShare> sum;
  for (std::size_t i = 0; i < 5; ++i) {
    sum.push_back(pedersen_share_add(da.shares[i], db.shares[i]));
  }
  // Summed commitments verify summed shares.
  std::vector<Point> comms;
  for (std::size_t j = 0; j < 3; ++j) {
    comms.push_back(
        ec_add(da.coefficient_comms[j], db.coefficient_comms[j]));
  }
  for (const auto& s : sum) {
    EXPECT_TRUE(pedersen_vss_verify(s, comms));
  }
  auto [rec, blind] = pedersen_vss_reconstruct(sum, 3);
  EXPECT_EQ(rec, a + b);
  (void)blind;
}

TEST(PedersenVss, MismatchedShareAddThrows) {
  Rng rng(50);
  PedersenDeal d = pedersen_vss_deal(Fn::one(), 2, 3, rng);
  EXPECT_THROW(pedersen_share_add(d.shares[0], d.shares[1]), CryptoError);
}

TEST(PedersenCommit, HidingAndBindingShape) {
  Rng rng(51);
  Fn m = Fn::from_u64(7);
  Fn r1 = random_scalar(rng), r2 = random_scalar(rng);
  // Different randomness, same message: different commitments (hiding needs
  // fresh randomness).
  EXPECT_FALSE(ec_eq(pedersen_commit(m, r1), pedersen_commit(m, r2)));
  // Same inputs: deterministic.
  EXPECT_TRUE(ec_eq(pedersen_commit(m, r1), pedersen_commit(m, r1)));
}

}  // namespace
}  // namespace ddemos::crypto
