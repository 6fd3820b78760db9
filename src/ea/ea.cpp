#include "ea/ea.hpp"

#include <algorithm>
#include <optional>
#include <set>

#include "crypto/commit.hpp"
#include "crypto/rng.hpp"
#include "util/error.hpp"

namespace ddemos::ea {

using namespace core;

crypto::Hash32 share_leaf(const crypto::Share& share) {
  Writer w;
  w.u32(share.x);
  w.raw(share.y.to_bytes_be());
  return crypto::MerkleTree::leaf_hash(w.data());
}

namespace {

void validate(const EaConfig& cfg) {
  const ElectionParams& p = cfg.params;
  if (p.options.size() < 2) throw ProtocolError("EA: need >= 2 options");
  if (p.n_vc < 3 * p.f_vc + 1) throw ProtocolError("EA: Nv >= 3*fv+1");
  if (p.n_bb < 2 * p.f_bb + 1) throw ProtocolError("EA: Nb >= 2*fb+1");
  if (p.h_trustees == 0 || p.h_trustees > p.n_trustees) {
    throw ProtocolError("EA: need 0 < ht <= Nt");
  }
  if (p.t_end <= p.t_start) throw ProtocolError("EA: empty election window");
  if (p.election_id.empty()) throw ProtocolError("EA: missing election id");
}

// Fisher-Yates with the EA's rng.
std::vector<std::size_t> permutation(std::size_t m, crypto::Rng& rng) {
  std::vector<std::size_t> pi(m);
  for (std::size_t i = 0; i < m; ++i) pi[i] = i;
  for (std::size_t i = m; i > 1; --i) {
    std::swap(pi[i - 1], pi[rng.below(i)]);
  }
  return pi;
}

// The EA's one generator, behind both ea_setup and ea_setup_streaming. The
// constructor validates the config and deals the per-node data (keys, the
// commitment key, msk and its shares, the coin deal); each_ballot then
// draws every ballot in serial order and hands it to `emit`. Everything
// comes from one rng in one fixed order, so a vc_only stream is exactly
// ea_setup's vc_only output, and every process of a multi-process cluster
// rebuilds the same election from (params, seed).
class Generator {
 public:
  explicit Generator(const EaConfig& cfg);

  // emit(Ballot&, span<VcBallotInit>, const BbBallotInit&,
  //      span<TrusteeBallotInit>) once per ballot; the BB and trustee parts
  // are empty in vc_only mode. The buffers are reused for the next ballot,
  // so emit may move out of them.
  template <typename Emit>
  void each_ballot(Emit&& emit);

  SetupArtifacts out;  // per-node data; ballot vectors left empty

 private:
  const EaConfig& cfg_;
  crypto::Rng rng_;
  Bytes msk_;
  crypto::Point commit_key_;
  // Every encoding, bit proof and sum proof of the election multiplies the
  // commitment key, so full setups build its comb once; vc_only setups
  // never touch the key and skip the build.
  std::optional<crypto::FixedBaseComb> commit_comb_;
};

Generator::Generator(const EaConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {
  validate(cfg);
  const ElectionParams& p = cfg.params;

  // --- Keys -------------------------------------------------------------
  std::vector<crypto::KeyPair> vc_keys, trustee_keys;
  std::vector<Bytes> vc_pubs, trustee_pubs;
  for (std::size_t i = 0; i < p.n_vc; ++i) {
    vc_keys.push_back(crypto::schnorr_keygen(rng_));
    vc_pubs.push_back(vc_keys.back().pk);
  }
  for (std::size_t i = 0; i < p.n_trustees; ++i) {
    trustee_keys.push_back(crypto::schnorr_keygen(rng_));
    trustee_pubs.push_back(trustee_keys.back().pk);
  }
  // Commitment key with unknown discrete log after setup: the EA samples
  // the exponent and discards it with itself.
  commit_key_ = crypto::ec_mul_g(crypto::random_scalar(rng_));

  // --- msk and its shares -------------------------------------------------
  msk_ = rng_.bytes(16);
  Bytes msk_padded(32, 0);
  std::copy(msk_.begin(), msk_.end(), msk_padded.begin() + 16);
  auto msk_shares = crypto::shamir_deal(
      crypto::Fn::from_bytes_mod(msk_padded), p.vc_quorum(), p.n_vc, rng_);
  std::vector<crypto::Hash32> msk_leaves;
  for (const auto& s : msk_shares) msk_leaves.push_back(share_leaf(s));
  crypto::MerkleTree msk_tree(msk_leaves);
  Bytes salt_msk = rng_.bytes(kSaltBytes);

  // --- Common-coin deal for the vote-set consensus ------------------------
  consensus::CoinDeal coin_deal =
      consensus::deal_coins(p.n_vc, p.f_vc + 1, cfg.consensus_rounds, rng_);

  // --- Per-node containers -------------------------------------------------
  out.vc_inits.resize(p.n_vc);
  for (std::size_t i = 0; i < p.n_vc; ++i) {
    VcInit& vi = out.vc_inits[i];
    vi.params = p;
    vi.node_index = i;
    vi.signing_key = vc_keys[i].sk;
    vi.vc_public_keys = vc_pubs;
    vi.msk_share = msk_shares[i];
    vi.msk_share_path = msk_tree.path(i);
    vi.msk_share_root = msk_tree.root();
    vi.coin_shares = coin_deal.node_shares[i];
    vi.coin_roots = coin_deal.round_roots;
  }
  if (cfg.vc_only) return;
  commit_comb_.emplace(commit_key_);
  crypto::Hash32 h_msk = crypto::msk_fingerprint(msk_, salt_msk);
  out.bb_inits.resize(p.n_bb);
  for (std::size_t i = 0; i < p.n_bb; ++i) {
    BbInit& bi = out.bb_inits[i];
    bi.params = p;
    bi.node_index = i;
    bi.commit_key = commit_key_;
    bi.h_msk = h_msk;
    bi.salt_msk = salt_msk;
    bi.msk_share_root = msk_tree.root();
    bi.vc_public_keys = vc_pubs;
    bi.trustee_public_keys = trustee_pubs;
  }
  out.trustee_inits.resize(p.n_trustees);
  for (std::size_t i = 0; i < p.n_trustees; ++i) {
    TrusteeInit& ti = out.trustee_inits[i];
    ti.params = p;
    ti.node_index = i;
    ti.signing_key = trustee_keys[i].sk;
    ti.trustee_public_keys = trustee_pubs;
    ti.commit_key = commit_key_;
  }
}

template <typename Emit>
void Generator::each_ballot(Emit&& emit) {
  const ElectionParams& p = cfg_.params;
  const std::size_t m = p.m();
  const std::size_t quorum = p.vc_quorum();
  const bool full = !cfg_.vc_only;

  std::vector<VcBallotInit> vc_ballots(p.n_vc);
  BbBallotInit bb_ballot;
  std::vector<TrusteeBallotInit> trustee_ballots(full ? p.n_trustees : 0);

  // Contiguous serials starting at 1: ballot `i` has serial `i + 1`, so
  // the dense instance numbering used by the batched vote-set consensus
  // and the VC nodes' serial-indexed state vectors is just `serial - 1`.
  for (Serial serial = 1; serial <= p.n_voters; ++serial) {
    Ballot ballot;
    ballot.serial = serial;
    std::set<Bytes> codes_in_ballot;
    for (auto& b : vc_ballots) {
      b = VcBallotInit{};
      b.serial = serial;
    }
    if (full) {
      // Shared shuffled BB ballot skeleton and the trustees' shares.
      bb_ballot = BbBallotInit{};
      bb_ballot.serial = serial;
      for (auto& tb : trustee_ballots) {
        tb = TrusteeBallotInit{};
        tb.serial = serial;
      }
    }

    for (std::size_t part = 0; part < kNumParts; ++part) {
      BallotPart& bp = ballot.parts[part];
      bp.lines.resize(m);
      // Voter-visible lines in original option order.
      for (std::size_t opt = 0; opt < m; ++opt) {
        Bytes code;
        do {
          code = rng_.bytes(kVoteCodeBytes);
        } while (!codes_in_ballot.insert(code).second);
        bp.lines[opt] = BallotLine{code, p.options[opt], rng_.u64()};
      }
      std::vector<std::size_t> pi = permutation(m, rng_);

      // VC line data at shuffled positions.
      for (auto& b : vc_ballots) b.parts[part].resize(m);
      if (full) {
        bb_ballot.parts[part].resize(m);
        for (auto& tb : trustee_ballots) tb.parts[part].resize(m);
      }
      for (std::size_t opt = 0; opt < m; ++opt) {
        std::size_t pos = pi[opt];
        const BallotLine& line = bp.lines[opt];
        Bytes salt = rng_.bytes(kSaltBytes);
        crypto::Hash32 code_hash = crypto::salted_commit(line.vote_code, salt);
        auto receipt_shares = crypto::shamir_deal(
            crypto::Fn::from_u64(line.receipt), quorum, p.n_vc, rng_);
        std::vector<crypto::Hash32> leaves;
        for (const auto& s : receipt_shares) leaves.push_back(share_leaf(s));
        crypto::MerkleTree tree(leaves);
        for (std::size_t i = 0; i < p.n_vc; ++i) {
          VcLineInit& li = vc_ballots[i].parts[part][pos];
          li.code_hash = code_hash;
          li.salt = salt;
          li.receipt_share = receipt_shares[i];
          li.share_path = tree.path(i);
          li.share_root = tree.root();
        }

        if (!full) continue;

        // --- BB cryptographic payload at the shuffled position ---------
        BbLineInit& bl = bb_ballot.parts[part][pos];
        bl.encrypted_vote_code =
            crypto::encrypt_vote_code(msk_, line.vote_code, rng_);
        std::vector<crypto::Fn> rs;
        for (std::size_t j = 0; j < m; ++j) {
          rs.push_back(crypto::random_scalar(rng_));
        }
        bl.encoding = crypto::eg_commit_unit_vector(*commit_comb_, m, opt, rs);
        crypto::Fn r_sum = crypto::Fn::zero();
        for (const auto& r : rs) r_sum = r_sum + r;

        // ZK proofs: first moves public, response coefficients shared.
        std::vector<crypto::BitProofSecrets> bit_secrets;
        for (std::size_t j = 0; j < m; ++j) {
          crypto::BitProof proof = crypto::prove_bit(
              *commit_comb_, bl.encoding[j], j == opt, rs[j], rng_);
          bl.bit_proofs.push_back(proof.first_move);
          bit_secrets.push_back(proof.secrets);
        }
        crypto::SumProof sum_proof =
            crypto::prove_sum(*commit_comb_, r_sum, rng_);
        bl.sum_proof = sum_proof.first_move;

        // Pedersen-VSS sharing of openings and ZK response coefficients.
        auto deal_to_trustees = [&](const crypto::Fn& secret) {
          return crypto::pedersen_vss_deal(secret, p.h_trustees, p.n_trustees,
                                           rng_);
        };
        for (std::size_t j = 0; j < m; ++j) {
          crypto::Fn mj = (j == opt) ? crypto::Fn::one() : crypto::Fn::zero();
          auto dm = deal_to_trustees(mj);
          auto dr = deal_to_trustees(rs[j]);
          bl.opening_comms.push_back(dm.coefficient_comms);
          bl.opening_comms.push_back(dr.coefficient_comms);
          for (std::size_t t = 0; t < p.n_trustees; ++t) {
            trustee_ballots[t].parts[part][pos].open_m.push_back(dm.shares[t]);
            trustee_ballots[t].parts[part][pos].open_r.push_back(dr.shares[t]);
          }
          const crypto::AffineScalar* comps[4] = {
              &bit_secrets[j].c0, &bit_secrets[j].c1, &bit_secrets[j].z0,
              &bit_secrets[j].z1};
          std::array<crypto::PedersenDeal, 8> deals;
          for (int k = 0; k < 4; ++k) {
            deals[static_cast<std::size_t>(2 * k)] =
                deal_to_trustees(comps[k]->u);
            deals[static_cast<std::size_t>(2 * k + 1)] =
                deal_to_trustees(comps[k]->v);
          }
          for (const auto& d : deals) {
            bl.zk_comms.push_back(d.coefficient_comms);
          }
          for (std::size_t t = 0; t < p.n_trustees; ++t) {
            std::array<crypto::PedersenShare, 8> shares;
            for (std::size_t k = 0; k < 8; ++k) shares[k] = deals[k].shares[t];
            trustee_ballots[t].parts[part][pos].zk_bits.push_back(shares);
          }
        }
        auto dsu = deal_to_trustees(sum_proof.z.u);
        auto dsv = deal_to_trustees(sum_proof.z.v);
        bl.zk_comms.push_back(dsu.coefficient_comms);
        bl.zk_comms.push_back(dsv.coefficient_comms);
        for (std::size_t t = 0; t < p.n_trustees; ++t) {
          trustee_ballots[t].parts[part][pos].sum_u = dsu.shares[t];
          trustee_ballots[t].parts[part][pos].sum_v = dsv.shares[t];
        }

        // Normalize every point of this line with ONE shared field
        // inversion (the unit-vector encoding already arrives normalized),
        // so the BB encode path skips its per-point inversions.
        auto for_each_line_point = [&bl](auto&& f) {
          for (auto& fm : bl.bit_proofs) {
            f(fm.t1_0);
            f(fm.t2_0);
            f(fm.t1_1);
            f(fm.t2_1);
          }
          f(bl.sum_proof.t1);
          f(bl.sum_proof.t2);
          for (auto& comms : bl.opening_comms) {
            for (auto& c : comms) f(c);
          }
          for (auto& comms : bl.zk_comms) {
            for (auto& c : comms) f(c);
          }
        };
        std::vector<crypto::Point> line_pts;
        for_each_line_point(
            [&line_pts](crypto::Point& q) { line_pts.push_back(q); });
        crypto::ec_normalize_batch(line_pts);
        std::size_t at = 0;
        for_each_line_point(
            [&line_pts, &at](crypto::Point& q) { q = line_pts[at++]; });
      }
    }
    emit(ballot, std::span<VcBallotInit>(vc_ballots), bb_ballot,
         std::span<TrusteeBallotInit>(trustee_ballots));
  }
}

}  // namespace

SetupArtifacts ea_setup(const EaConfig& cfg) {
  Generator gen(cfg);
  SetupArtifacts& out = gen.out;
  const std::size_t n = cfg.params.n_voters;
  for (auto& vi : out.vc_inits) vi.ballots.reserve(n);
  for (auto& bi : out.bb_inits) bi.ballots.reserve(n);
  for (auto& ti : out.trustee_inits) ti.ballots.reserve(n);
  gen.each_ballot([&out](Ballot& ballot, std::span<VcBallotInit> vc,
                         const BbBallotInit& bb,
                         std::span<TrusteeBallotInit> trustees) {
    out.voter_ballots.push_back(std::move(ballot));
    for (std::size_t i = 0; i < vc.size(); ++i) {
      out.vc_inits[i].ballots.push_back(std::move(vc[i]));
    }
    for (auto& bi : out.bb_inits) bi.ballots.push_back(bb);
    for (std::size_t t = 0; t < trustees.size(); ++t) {
      out.trustee_inits[t].ballots.push_back(std::move(trustees[t]));
    }
  });
  return std::move(out);
}

SetupArtifacts ea_setup_streaming(const EaConfig& cfg,
                                  const BallotSink& sink) {
  if (!cfg.vc_only) {
    throw ProtocolError("ea_setup_streaming supports vc_only mode only");
  }
  Generator gen(cfg);
  gen.each_ballot([&sink](const Ballot& ballot, std::span<VcBallotInit> vc,
                          const BbBallotInit&, std::span<TrusteeBallotInit>) {
    sink(ballot, vc);
  });
  return std::move(gen.out);
}

}  // namespace ddemos::ea
