// Audit-at-scale thread sweep — the wall-clock side of the parallel audit
// engine. Builds the per-ballot crypto workload verify_election feeds its
// chunked batch verifiers (m bit-proof instances, one sum-proof instance
// and m opening instances per ballot), tiled from a pool of distinct
// proofs up to DDEMOS_AUDIT_BALLOTS ballots, then verifies the whole
// election's proof set at each thread count in DDEMOS_AUDIT_SWEEP. The
// batch verifiers re-derive Fiat–Shamir weights per 256-instance chunk, so
// tiled duplicates cost the same as distinct instances — generation is
// O(pool), verification is O(ballots), and a 10^6-ballot audit is a flag
// away (see EXPERIMENTS.md "Parallel audit").
//
//   DDEMOS_AUDIT_BALLOTS  audited ballots (default 100'000; CI smoke scale)
//   DDEMOS_AUDIT_SWEEP    comma list of thread counts (default "1,2,4,8")
//   DDEMOS_AUDIT_OPTIONS  election options m (default 2, the referendum)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "crypto/batch.hpp"
#include "crypto/elgamal.hpp"
#include "crypto/rng.hpp"
#include "crypto/zkp.hpp"
#include "util/thread_pool.hpp"

using namespace ddemos;
using namespace ddemos::bench;

namespace {

std::vector<std::size_t> parse_list(const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    std::size_t v =
        std::strtoull(spec.substr(pos, next - pos).c_str(), nullptr, 10);
    if (v > 0) out.push_back(v);
    pos = next + 1;
  }
  return out;
}

// One audited ballot's worth of proof instances (the used part's ZK
// checks and the unused part's openings, for one line each — the shape
// verify_election collects per voteset entry).
struct BallotProofs {
  std::vector<crypto::BitProofInstance> bits;
  crypto::SumProofInstance sum;
  std::vector<crypto::EgOpenInstance> opens;
};

BallotProofs make_ballot(const crypto::FixedBaseComb& comb, std::size_t m,
                         const crypto::Fn& challenge, crypto::Rng& rng) {
  const crypto::Point& key = comb.base();
  BallotProofs bp;
  crypto::ElGamalCipher sum{};
  crypto::Fn rsum = crypto::Fn::zero();
  for (std::size_t j = 0; j < m; ++j) {
    bool one = j == 0;  // unit vector (1, 0, ..., 0)
    crypto::Fn r = crypto::random_scalar(rng);
    crypto::ElGamalCipher c =
        crypto::eg_commit(key, one ? crypto::Fn::one() : crypto::Fn::zero(), r);
    crypto::BitProof p = crypto::prove_bit(comb, c, one, r, rng);
    bp.bits.push_back(crypto::BitProofInstance{c, p.first_move, challenge,
                                               p.secrets.at(challenge)});
    sum = j == 0 ? c : crypto::eg_add(sum, c);
    rsum = rsum + r;
    // Unused-part opening for the same line shape.
    crypto::Fn ro = crypto::random_scalar(rng);
    crypto::Fn mo = crypto::Fn::from_u64(one ? 1 : 0);
    bp.opens.push_back(
        crypto::EgOpenInstance{crypto::eg_commit(key, mo, ro), mo, ro});
  }
  crypto::SumProof sp = crypto::prove_sum(comb, rsum, rng);
  bp.sum = crypto::SumProofInstance{sum, crypto::Fn::one(), sp.first_move,
                                    challenge, sp.z.at(challenge)};
  return bp;
}

}  // namespace

int main() {
  const std::size_t ballots = env_size("DDEMOS_AUDIT_BALLOTS", 100'000);
  const std::size_t m = env_size("DDEMOS_AUDIT_OPTIONS", 2);
  std::vector<std::size_t> sweep =
      parse_list(env_str("DDEMOS_AUDIT_SWEEP", "1,2,4,8"));
  if (sweep.empty()) sweep = {1};

  crypto::Rng rng(707);
  crypto::Point key = crypto::ec_mul_g(crypto::random_scalar(rng));
  crypto::Fn challenge = crypto::random_scalar(rng);
  const crypto::FixedBaseComb comb(key);

  // Distinct-proof pool, tiled to the full audit size.
  constexpr std::size_t kPool = 64;
  std::vector<BallotProofs> pool;
  for (std::size_t i = 0; i < kPool; ++i) {
    pool.push_back(make_ballot(comb, m, challenge, rng));
  }
  std::vector<crypto::BitProofInstance> bits;
  std::vector<crypto::SumProofInstance> sums;
  std::vector<crypto::EgOpenInstance> opens;
  bits.reserve(ballots * m);
  sums.reserve(ballots);
  opens.reserve(ballots * m);
  for (std::size_t b = 0; b < ballots; ++b) {
    const BallotProofs& bp = pool[b % kPool];
    bits.insert(bits.end(), bp.bits.begin(), bp.bits.end());
    sums.push_back(bp.sum);
    opens.insert(opens.end(), bp.opens.begin(), bp.opens.end());
  }

  std::printf("# audit_scale: %zu ballots, m=%zu -> %zu bit + %zu sum + "
              "%zu open instances, thread sweep {",
              ballots, m, bits.size(), sums.size(), opens.size());
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    std::printf("%s%zu", i ? "," : "", sweep[i]);
  }
  std::printf("}\n");
  std::printf("\n%-10s %12s %12s\n", "n_threads", "ballots/sec", "wall_s");

  double base_wall = 0;
  std::size_t hi_threads = 1;
  double hi_wall = 0;
  for (std::size_t n_threads : sweep) {
    util::ThreadPool pool_t(n_threads);
    util::ThreadPool* p = pool_t.n_threads() > 1 ? &pool_t : nullptr;
    auto t0 = std::chrono::steady_clock::now();
    bool ok = crypto::verify_bit_batch(key, bits, p) &&
              crypto::verify_sum_batch(key, sums, p) &&
              crypto::eg_open_check_batch(key, opens, p);
    auto t1 = std::chrono::steady_clock::now();
    if (!ok) {
      std::fprintf(stderr, "audit_scale: batch verification FAILED\n");
      return 1;
    }
    double wall =
        std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
            .count();
    double ops = wall > 0 ? static_cast<double>(ballots) / wall : 0;
    if (n_threads == 1) base_wall = wall;
    if (n_threads >= hi_threads) {
      hi_threads = n_threads;
      hi_wall = wall;
    }
    std::printf("%-10zu %12.0f %12.2f\n", n_threads, ops, wall);
    std::printf("BENCH_JSON {\"bench\":\"audit_scale\","
                "\"phase\":\"batch_verify\",\"ballots\":%zu,\"m\":%zu,"
                "\"n_threads\":%zu,\"throughput_ops\":%.0f,"
                "\"wall_s\":%.3f}\n",
                ballots, m, n_threads, ops, wall);
    std::fflush(stdout);
  }
  if (base_wall > 0 && hi_wall > 0) {
    // Informational (ratio is part of the row key, never gated): the
    // thread-scaling headline for EXPERIMENTS.md.
    std::printf("BENCH_JSON {\"bench\":\"audit_scale\","
                "\"name\":\"thread_speedup\",\"ballots\":%zu,"
                "\"n_threads\":%zu,\"ratio\":%.2f}\n",
                ballots, hi_threads, base_wall / hi_wall);
  }
  return 0;
}
