// EA setup validation and auditor edge cases: invalid configurations,
// init-data well-formedness (the cross-component invariants every node
// relies on), and auditor behaviour on degenerate inputs.
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "crypto/commit.hpp"
#include "crypto/sha256.hpp"
#include "util/hex.hpp"

namespace ddemos::core {
namespace {

ea::EaConfig base_config() {
  ea::EaConfig cfg;
  cfg.params.election_id = to_bytes("ea-test");
  cfg.params.options = {"a", "b"};
  cfg.params.n_voters = 3;
  cfg.params.n_vc = 4;
  cfg.params.f_vc = 1;
  cfg.params.n_bb = 3;
  cfg.params.f_bb = 1;
  cfg.params.n_trustees = 3;
  cfg.params.h_trustees = 2;
  cfg.params.t_start = 0;
  cfg.params.t_end = 1000;
  cfg.seed = 5;
  return cfg;
}

TEST(EaSetup, RejectsInvalidConfigs) {
  {
    auto cfg = base_config();
    cfg.params.n_vc = 3;  // violates Nv >= 3fv+1
    EXPECT_THROW(ea::ea_setup(cfg), ProtocolError);
  }
  {
    auto cfg = base_config();
    cfg.params.n_bb = 2;  // violates Nb >= 2fb+1
    EXPECT_THROW(ea::ea_setup(cfg), ProtocolError);
  }
  {
    auto cfg = base_config();
    cfg.params.options = {"only-one"};
    EXPECT_THROW(ea::ea_setup(cfg), ProtocolError);
  }
  {
    auto cfg = base_config();
    cfg.params.h_trustees = 4;  // ht > Nt
    EXPECT_THROW(ea::ea_setup(cfg), ProtocolError);
  }
  {
    auto cfg = base_config();
    cfg.params.t_end = 0;  // empty window
    EXPECT_THROW(ea::ea_setup(cfg), ProtocolError);
  }
  {
    auto cfg = base_config();
    cfg.params.election_id.clear();
    EXPECT_THROW(ea::ea_setup(cfg), ProtocolError);
  }
}

TEST(EaSetup, BallotInvariants) {
  auto arts = ea::ea_setup(base_config());
  ASSERT_EQ(arts.voter_ballots.size(), 3u);
  for (const Ballot& b : arts.voter_ballots) {
    std::set<Bytes> codes;
    for (const auto& part : b.parts) {
      ASSERT_EQ(part.lines.size(), 2u);
      for (const auto& line : part.lines) {
        EXPECT_EQ(line.vote_code.size(), kVoteCodeBytes);
        // Vote codes unique within the ballot (both parts).
        EXPECT_TRUE(codes.insert(line.vote_code).second);
      }
    }
    // Option text preserved in printed order.
    EXPECT_EQ(b.parts[0].lines[0].option, "a");
    EXPECT_EQ(b.parts[1].lines[1].option, "b");
  }
  // Serials strictly increasing.
  for (std::size_t i = 1; i < arts.voter_ballots.size(); ++i) {
    EXPECT_LT(arts.voter_ballots[i - 1].serial, arts.voter_ballots[i].serial);
  }
}

TEST(EaSetup, VcDataValidatesPrintedCodes) {
  auto arts = ea::ea_setup(base_config());
  // For every printed vote code there is exactly one (part, line) in each
  // VC node's data whose salted hash matches.
  for (std::size_t v = 0; v < arts.voter_ballots.size(); ++v) {
    const Ballot& ballot = arts.voter_ballots[v];
    for (const auto& vc : arts.vc_inits) {
      const VcBallotInit& vb = vc.ballots[v];
      EXPECT_EQ(vb.serial, ballot.serial);
      for (const auto& part : ballot.parts) {
        for (const auto& line : part.lines) {
          int matches = 0;
          for (const auto& vpart : vb.parts) {
            for (const auto& vline : vpart) {
              if (crypto::salted_commit_check(vline.code_hash,
                                              line.vote_code, vline.salt)) {
                ++matches;
              }
            }
          }
          EXPECT_EQ(matches, 1);
        }
      }
    }
  }
}

TEST(EaSetup, ReceiptSharesReconstructPrintedReceipts) {
  auto arts = ea::ea_setup(base_config());
  const ElectionParams& p = arts.vc_inits[0].params;
  const Ballot& ballot = arts.voter_ballots[0];
  // Find the shuffled position of (part 0, option 1) in VC data, collect
  // the quorum of shares across nodes, reconstruct the printed receipt.
  const Bytes& code = ballot.parts[0].lines[1].vote_code;
  for (std::size_t pos = 0; pos < 2; ++pos) {
    const auto& probe = arts.vc_inits[0].ballots[0].parts[0][pos];
    if (!crypto::salted_commit_check(probe.code_hash, code, probe.salt)) {
      continue;
    }
    std::vector<crypto::Share> shares;
    for (std::size_t n = 0; n < p.n_vc; ++n) {
      shares.push_back(
          arts.vc_inits[n].ballots[0].parts[0][pos].receipt_share);
    }
    shares.resize(p.vc_quorum());
    crypto::Fn rec = crypto::shamir_reconstruct(shares, p.vc_quorum());
    Bytes be = rec.to_bytes_be();
    std::uint64_t receipt = 0;
    for (int i = 24; i < 32; ++i) {
      receipt = receipt << 8 | be[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(receipt, ballot.parts[0].lines[1].receipt);
    return;
  }
  FAIL() << "printed code not found in VC data";
}

TEST(EaSetup, BbEncryptedCodesDecryptUnderSharedMsk) {
  auto arts = ea::ea_setup(base_config());
  const ElectionParams& p = arts.vc_inits[0].params;
  // Reconstruct msk from the VC nodes' shares and decrypt a BB code.
  std::vector<crypto::Share> shares;
  for (std::size_t n = 0; n < p.vc_quorum(); ++n) {
    shares.push_back(arts.vc_inits[n].msk_share);
  }
  crypto::Fn secret = crypto::shamir_reconstruct(shares, p.vc_quorum());
  Bytes be = secret.to_bytes_be();
  Bytes msk(be.begin() + 16, be.end());
  EXPECT_TRUE(crypto::salted_commit_check(arts.bb_inits[0].h_msk, msk,
                                          arts.bb_inits[0].salt_msk));
  // Every encrypted code decrypts to one of the ballot's printed codes.
  const auto& bb_line = arts.bb_inits[0].ballots[0].parts[0][0];
  Bytes dec = crypto::decrypt_vote_code(msk, bb_line.encrypted_vote_code);
  std::set<Bytes> printed;
  for (const auto& part : arts.voter_ballots[0].parts) {
    for (const auto& line : part.lines) printed.insert(line.vote_code);
  }
  EXPECT_TRUE(printed.count(dec));
}

TEST(EaSetup, StreamingMatchesConfigScale) {
  auto cfg = base_config();
  cfg.vc_only = true;
  cfg.params.n_voters = 10;
  std::size_t seen = 0;
  auto arts = ea::ea_setup_streaming(
      cfg, [&](const Ballot& b, std::span<VcBallotInit> per_vc) {
        ++seen;
        EXPECT_EQ(per_vc.size(), 4u);
        EXPECT_EQ(per_vc[0].serial, b.serial);
      });
  EXPECT_EQ(seen, 10u);
  EXPECT_TRUE(arts.vc_inits[0].ballots.empty());
  EXPECT_EQ(arts.vc_inits.size(), 4u);
  // Streaming requires vc_only.
  cfg.vc_only = false;
  EXPECT_THROW(
      ea::ea_setup_streaming(cfg, [](const Ballot&,
                                     std::span<VcBallotInit>) {}),
      ProtocolError);
}

// Every TCP node process rebuilds its slice of a vc_only election with the
// streaming EA while the launcher may hold ea_setup's copy: the two must be
// one election, ballot for ballot and byte for byte.
TEST(EaSetup, StreamingYieldsExactlyTheVcOnlySetup) {
  auto cfg = base_config();
  cfg.vc_only = true;
  cfg.params.n_voters = 6;
  const ea::SetupArtifacts whole = ea::ea_setup(cfg);
  std::vector<Ballot> ballots;
  std::vector<std::vector<VcBallotInit>> per_vc(cfg.params.n_vc);
  const ea::SetupArtifacts streamed = ea::ea_setup_streaming(
      cfg, [&](const Ballot& b, std::span<VcBallotInit> vc) {
        ballots.push_back(b);
        for (std::size_t i = 0; i < vc.size(); ++i) per_vc[i].push_back(vc[i]);
      });

  ASSERT_EQ(ballots.size(), whole.voter_ballots.size());
  for (std::size_t b = 0; b < ballots.size(); ++b) {
    EXPECT_EQ(ballots[b].serial, whole.voter_ballots[b].serial);
    for (std::size_t part = 0; part < kNumParts; ++part) {
      const auto& got = ballots[b].parts[part].lines;
      const auto& want = whole.voter_ballots[b].parts[part].lines;
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t l = 0; l < got.size(); ++l) {
        EXPECT_EQ(got[l].vote_code, want[l].vote_code) << "ballot " << b;
        EXPECT_EQ(got[l].option, want[l].option);
        EXPECT_EQ(got[l].receipt, want[l].receipt) << "ballot " << b;
      }
    }
  }
  ASSERT_EQ(streamed.vc_inits.size(), whole.vc_inits.size());
  EXPECT_TRUE(streamed.bb_inits.empty());
  EXPECT_TRUE(streamed.trustee_inits.empty());
  auto encode_all = [](const std::vector<VcBallotInit>& v) {
    Writer w;
    for (const auto& b : v) b.encode(w);
    return w.take();
  };
  for (std::size_t i = 0; i < whole.vc_inits.size(); ++i) {
    const VcInit& got = streamed.vc_inits[i];
    const VcInit& want = whole.vc_inits[i];
    EXPECT_TRUE(got.ballots.empty());
    EXPECT_EQ(encode_all(per_vc[i]), encode_all(want.ballots)) << "vc" << i;
    EXPECT_EQ(got.signing_key, want.signing_key);
    EXPECT_EQ(got.vc_public_keys, want.vc_public_keys);
    EXPECT_EQ(got.msk_share_root, want.msk_share_root);
    EXPECT_EQ(got.coin_roots, want.coin_roots);
  }
}

// SHA-256 over every field of every artifact, in the order the artifacts
// hold them, with the node codecs where one exists.
std::string artifacts_digest(const ea::SetupArtifacts& a) {
  Writer w;
  auto hash_vec = [&w](const std::vector<crypto::Hash32>& hs) {
    w.u64(hs.size());
    for (const auto& h : hs) encode_hash(w, h);
  };
  auto bytes_vec = [&w](const std::vector<Bytes>& bs) {
    w.u64(bs.size());
    for (const auto& b : bs) w.bytes(b);
  };
  for (const Ballot& b : a.voter_ballots) {
    w.u64(b.serial);
    for (const auto& part : b.parts) {
      for (const BallotLine& l : part.lines) {
        w.bytes(l.vote_code);
        w.str(l.option);
        w.u64(l.receipt);
      }
    }
  }
  for (const VcInit& v : a.vc_inits) {
    v.params.encode(w);
    w.u64(v.node_index);
    encode_scalar(w, v.signing_key);
    bytes_vec(v.vc_public_keys);
    encode_share(w, v.msk_share);
    hash_vec(v.msk_share_path);
    encode_hash(w, v.msk_share_root);
    for (const auto& c : v.coin_shares) c.encode(w);
    hash_vec(v.coin_roots);
    for (const VcBallotInit& b : v.ballots) b.encode(w);
  }
  for (const BbInit& bi : a.bb_inits) {
    bi.params.encode(w);
    w.u64(bi.node_index);
    encode_point(w, bi.commit_key);
    encode_hash(w, bi.h_msk);
    w.bytes(bi.salt_msk);
    encode_hash(w, bi.msk_share_root);
    bytes_vec(bi.vc_public_keys);
    bytes_vec(bi.trustee_public_keys);
    for (const BbBallotInit& b : bi.ballots) {
      w.u64(b.serial);
      for (const auto& part : b.parts) {
        for (const BbLineInit& l : part) l.encode(w);
      }
    }
  }
  for (const TrusteeInit& t : a.trustee_inits) {
    t.params.encode(w);
    w.u64(t.node_index);
    encode_scalar(w, t.signing_key);
    bytes_vec(t.trustee_public_keys);
    encode_point(w, t.commit_key);
    for (const TrusteeBallotInit& b : t.ballots) {
      w.u64(b.serial);
      for (const auto& part : b.parts) {
        for (const TrusteeLineInit& l : part) {
          for (const auto& s : l.open_m) encode_ped_share(w, s);
          for (const auto& s : l.open_r) encode_ped_share(w, s);
          for (const auto& bits : l.zk_bits) {
            for (const auto& s : bits) encode_ped_share(w, s);
          }
          encode_ped_share(w, l.sum_u);
          encode_ped_share(w, l.sum_v);
        }
      }
    }
  }
  return to_hex(crypto::hash_view(crypto::sha256(w.data())));
}

// The EA's output is a pure function of (params, seed): any change to how
// the points are computed must leave every published byte where it was.
TEST(EaSetup, ArtifactsArePinned) {
  auto cfg = base_config();
  cfg.params.options = {"a", "b", "c"};
  cfg.params.n_voters = 12;
  cfg.seed = 77;
  EXPECT_EQ(artifacts_digest(ea::ea_setup(cfg)),
            "2d55b2ee8faf99060fd687428336322f8e2ae1d97b00762c2f379d40a00f77e0");
  cfg.vc_only = true;
  EXPECT_EQ(artifacts_digest(ea::ea_setup(cfg)),
            "5bf04da6e6e680971f5a4054b6143217002225be546c477f3725a747d2323529");
}

TEST(Auditor, FailsClosedWithoutMajority) {
  // An auditor over an empty BB view must fail, not pass vacuously.
  client::MajorityReader reader({}, 1);
  client::Auditor auditor(reader);
  auto report = auditor.verify_election();
  EXPECT_FALSE(report.passed);
}

TEST(Auditor, DetectsForeignAuditInfo) {
  // Audit info whose serial is not in the election: fail closed.
  DriverConfig cfg;
  cfg.params = base_config().params;
  cfg.params.t_end = 30'000'000;
  cfg.seed = 71;
  cfg.workload = VoteListWorkload::make({0, 1, 0});
  ElectionDriver runner(cfg);
  runner.run();
  client::Auditor auditor(runner.reader());
  auto info = runner.voter(0).audit_info();
  info.serial = 0x12345;  // unknown ballot
  EXPECT_FALSE(auditor.verify_delegated(info).passed);
}

TEST(Auditor, DetectsSwappedCastCode) {
  // Delegated info with a different cast code than the tallied one: (f).
  DriverConfig cfg;
  cfg.params = base_config().params;
  cfg.params.t_end = 30'000'000;
  cfg.seed = 72;
  cfg.workload = VoteListWorkload::make({0, 1, 0});
  ElectionDriver runner(cfg);
  runner.run();
  client::Auditor auditor(runner.reader());
  auto info = runner.voter(0).audit_info();
  info.cast_code = runner.voter(1).used_code();  // not voter 0's code
  EXPECT_FALSE(auditor.verify_delegated(info).passed);
}

}  // namespace
}  // namespace ddemos::core
