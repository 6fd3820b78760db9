// Bulletin Board and trustee unit behaviours: write verification
// thresholds, Byzantine VC/trustee writes, majority reads over diverging
// replicas, and read-section availability ordering.
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "crypto/sha256.hpp"
#include "util/hex.hpp"

namespace ddemos::core {
namespace {

ElectionParams small(std::size_t voters) {
  ElectionParams p;
  p.election_id = to_bytes("bb-test");
  p.options = {"x", "y"};
  p.n_voters = voters;
  p.n_vc = 4;
  p.f_vc = 1;
  p.n_bb = 3;
  p.f_bb = 1;
  p.n_trustees = 3;
  p.h_trustees = 2;
  p.t_start = 0;
  p.t_end = 30'000'000;
  return p;
}

TEST(BbNode, SectionsBecomeAvailableInOrder) {
  DriverConfig cfg;
  cfg.params = small(2);
  cfg.seed = 61;
  cfg.workload = VoteListWorkload::make({0, 1});
  ElectionDriver runner(cfg);
  // Before anything runs: meta is served, dynamic sections are not.
  EXPECT_TRUE(runner.bb_node(0).read_section("meta").has_value());
  EXPECT_FALSE(runner.bb_node(0).read_section("voteset").has_value());
  EXPECT_FALSE(runner.bb_node(0).read_section("cast-info").has_value());
  EXPECT_FALSE(runner.bb_node(0).read_section("result").has_value());
  EXPECT_FALSE(runner.bb_node(0).read_section("nonsense").has_value());
  runner.run();
  EXPECT_TRUE(runner.bb_node(0).read_section("voteset").has_value());
  EXPECT_TRUE(runner.bb_node(0).read_section("cast-info").has_value());
  EXPECT_TRUE(runner.bb_node(0).read_section("challenge").has_value());
  EXPECT_TRUE(runner.bb_node(0).read_section("result").has_value());
  // Ballot sections are per-serial; serial 0 is never issued (the EA
  // numbers ballots contiguously from 1).
  Serial s = runner.artifacts().voter_ballots[0].serial;
  EXPECT_TRUE(runner.bb_node(0).read_section("ballot", s).has_value());
  EXPECT_FALSE(runner.bb_node(0).read_section("ballot", 0).has_value());
}

TEST(BbNode, RepliesAreByteIdenticalAcrossReplicas) {
  DriverConfig cfg;
  cfg.params = small(4);
  cfg.seed = 62;
  cfg.workload = VoteListWorkload::make({0, 1, 1, 0});
  ElectionDriver runner(cfg);
  runner.run();
  for (const char* section : {"meta", "voteset", "cast-info", "result"}) {
    auto a = runner.bb_node(0).read_section(section);
    auto b = runner.bb_node(1).read_section(section);
    auto c = runner.bb_node(2).read_section(section);
    ASSERT_TRUE(a && b && c) << section;
    EXPECT_EQ(*a, *b) << section;
    EXPECT_EQ(*b, *c) << section;
  }
}

TEST(MajorityReader, OutvotesDivergentReplica) {
  DriverConfig cfg;
  cfg.params = small(3);
  cfg.seed = 63;
  cfg.workload = VoteListWorkload::make({0, 0, 1});
  ElectionDriver runner(cfg);
  runner.run();
  // Reader over {bb0, bb1, bb2} where bb2's answer is withheld: the two
  // identical replies still clear the fb+1 = 2 threshold.
  std::vector<const bb::BbNode*> views = {&runner.bb_node(0),
                                          &runner.bb_node(1)};
  client::MajorityReader reader2(views, cfg.params.f_bb);
  EXPECT_TRUE(reader2.read("result").has_value());
  // A single reply is not enough for majority.
  client::MajorityReader reader1({&runner.bb_node(0)}, cfg.params.f_bb);
  EXPECT_FALSE(reader1.read("result").has_value());
}

// A seeded simulator election whose published BB bytes are pinned: one
// SHA-256 per BB over every section in a fixed order (meta, voteset,
// cast-info, challenge, result, then the ballot section of serials
// 1..10), so a change to how the BB checks or combines trustee data cannot
// alter them; plus the public audit's verdict.
struct PinnedRun {
  std::vector<std::string> digests;
  bool audit_passed = false;
};

PinnedRun run_pinned_election(
    std::uint64_t seed,
    std::function<void(ea::SetupArtifacts&)> tamper_setup = {},
    std::optional<std::size_t> late_trustee = std::nullopt) {
  DriverConfig cfg;
  cfg.params = small(10);
  cfg.params.election_id = to_bytes("bb-hash");
  cfg.params.options = {"a", "b", "c", "d"};
  cfg.seed = seed;
  cfg.workload = VoteListWorkload::make({0, 1, 2, 3, 0, 1, kAbstain, 2, 0, 3});
  cfg.tamper_setup = std::move(tamper_setup);
  ElectionDriver runner(cfg);
  if (late_trustee) {
    // Every message of this trustee arrives 100 ms late, so the BBs see
    // the other two trustees' datasets first. The delay stays below the
    // trustee's poll interval, or its BB reads would never be answered in
    // time.
    sim::NodeId late = runner.topology().trustee_ids[*late_trustee];
    runner.simulation().set_link_filter(
        [late](sim::NodeId from, sim::NodeId, sim::TimePoint) {
          return std::optional<sim::Duration>(from == late ? 100'000 : 0);
        });
  }
  runner.run();
  PinnedRun out;
  for (std::size_t bb = 0; bb < cfg.params.n_bb; ++bb) {
    const bb::BbNode& node = runner.bb_node(bb);
    crypto::Sha256 h;
    auto absorb = [&](const char* section, std::uint64_t arg) {
      auto bytes = node.read_section(section, arg);
      EXPECT_TRUE(bytes.has_value()) << section << " " << arg;
      if (bytes) h.update(*bytes);
    };
    for (const char* section : {"meta", "voteset", "cast-info", "challenge",
                                "result"}) {
      absorb(section, 0);
    }
    for (Serial s = 1; s <= 10; ++s) absorb("ballot", s);
    out.digests.push_back(to_hex(crypto::hash_view(h.finish())));
  }
  client::Auditor auditor(runner.reader());
  out.audit_passed = auditor.verify_election().passed;
  return out;
}

constexpr const char* kSeed61Digest =
    "bcda3ba48ce532b5521b8e6a81b15bd78c0c37d11eec817cd48bbc4305a177d6";

TEST(BbNode, PublishedBytesArePinned) {
  const std::pair<std::uint64_t, const char*> golden[] = {
      {61, kSeed61Digest},
      {99,
       "7d14e236401c887737db723e2641e92dd2f59fb9e0c330f2984e0b69d08d4d4d"},
  };
  for (const auto& [seed, digest] : golden) {
    PinnedRun run = run_pinned_election(seed);
    for (const std::string& got : run.digests) {
      EXPECT_EQ(got, digest) << "seed " << seed;
    }
    EXPECT_TRUE(run.audit_passed) << "seed " << seed;
  }
}

// Damages one trustee's dealt shares, line by line. The trustee signs
// whatever it holds, so its datasets arrive authentic but fail the BB's
// share check.
template <typename Damage>
void corrupt(ea::SetupArtifacts& arts, std::size_t trustee, Damage damage) {
  for (auto& ballot : arts.trustee_inits[trustee].ballots) {
    for (auto& part : ballot.parts) {
      for (TrusteeLineInit& line : part) damage(line);
    }
  }
}
// Only the v half of c1: it reaches the BB inside u + c*v.
void corrupt_bits_v(TrusteeLineInit& l) {
  l.zk_bits[0][3].f = l.zk_bits[0][3].f + crypto::Fn::one();
}
void corrupt_sum(TrusteeLineInit& l) {
  l.sum_u.f = l.sum_u.f + crypto::Fn::one();
}
void corrupt_opening(TrusteeLineInit& l) {
  l.open_m[1].f = l.open_m[1].f + crypto::Fn::one();
}

// ht = 2 of 3: every voted ballot and the tally are combined from the two
// honest trustees, so every BB publishes exactly the bytes of the honest
// election and the audit passes.
TEST(Trustee, CorruptZkBitsVShareIsOutvoted) {
  PinnedRun run = run_pinned_election(
      61, [](ea::SetupArtifacts& a) { corrupt(a, 0, corrupt_bits_v); });
  for (const std::string& got : run.digests) EXPECT_EQ(got, kSeed61Digest);
  EXPECT_TRUE(run.audit_passed);
}

TEST(Trustee, CorruptZkSumShareIsOutvoted) {
  // Trustee 1 is late, so every BB first folds the datasets of trustees 0
  // and 2, must blame 2, and then combines 0 with 1.
  PinnedRun run = run_pinned_election(
      61, [](ea::SetupArtifacts& a) { corrupt(a, 2, corrupt_sum); }, 1);
  for (const std::string& got : run.digests) EXPECT_EQ(got, kSeed61Digest);
  EXPECT_TRUE(run.audit_passed);
}

TEST(Trustee, TwoCorruptTrusteesBlockTheResult) {
  // Only trustee 1 is honest: no voted ballot reaches ht valid datasets,
  // nor does the tally, and no BB publishes either.
  DriverConfig cfg;
  cfg.params = small(4);
  cfg.seed = 71;
  cfg.workload = VoteListWorkload::make({0, 1, kAbstain, 1});
  cfg.tamper_setup = [](ea::SetupArtifacts& a) {
    corrupt(a, 0, [](TrusteeLineInit& l) {
      corrupt_bits_v(l);
      corrupt_opening(l);
    });
    corrupt(a, 2, [](TrusteeLineInit& l) {
      corrupt_sum(l);
      corrupt_opening(l);
    });
  };
  ElectionDriver runner(cfg);
  runner.run();
  for (std::size_t b = 0; b < cfg.params.n_bb; ++b) {
    const bb::BbNode& node = runner.bb_node(b);
    EXPECT_TRUE(node.codes_published());
    EXPECT_FALSE(node.result_published());
    EXPECT_FALSE(node.read_section("result").has_value());
    for (const auto& [serial, pb] : node.published()) {
      if (!pb.voted) continue;
      for (const bb::PublishedLine& l : pb.lines[pb.used_part]) {
        EXPECT_FALSE(l.zk_complete) << serial;
      }
    }
  }
}

TEST(BbNode, VoteSetNeedsFvPlusOneIdenticalPushes) {
  // Drive a BB node directly: one VC pushing alone must not be accepted;
  // a second identical push crosses fv+1 = 2.
  DriverConfig cfg;
  cfg.params = small(1);
  cfg.seed = 64;
  cfg.workload = VoteListWorkload::make({kAbstain});
  ElectionDriver runner(cfg);
  auto& sim = runner.simulation();

  std::vector<VoteSetEntry> set = {
      {runner.artifacts().voter_ballots[0].serial, Bytes(20, 1)}};
  crypto::Hash32 h = vote_set_hash(set);

  // Inject pushes as VC nodes 0 and 1 (simulation ids match VC indices).
  class Injector : public sim::Process {
   public:
    void on_message(sim::NodeId, const net::Buffer&) override {}
  };
  sim.start();
  auto& bb = runner.bb_node(0);
  // Hand-deliver messages through the BB process interface.
  VoteSetChunkMsg chunk{set};
  VoteSetDoneMsg done{1, h};
  bb.on_message(0, chunk.encode());
  bb.on_message(0, done.encode());
  EXPECT_FALSE(bb.vote_set_published());
  // Second VC pushes a DIFFERENT set: still no acceptance.
  std::vector<VoteSetEntry> other = {{set[0].serial, Bytes(20, 2)}};
  bb.on_message(1, VoteSetChunkMsg{other}.encode());
  bb.on_message(1, VoteSetDoneMsg{1, vote_set_hash(other)}.encode());
  EXPECT_FALSE(bb.vote_set_published());
  // Third VC agrees with the first: accepted.
  bb.on_message(2, chunk.encode());
  bb.on_message(2, done.encode());
  EXPECT_TRUE(bb.vote_set_published());
  EXPECT_EQ(bb.vote_set(), set);
}

TEST(BbNode, RejectsWrongMskShare) {
  DriverConfig cfg;
  cfg.params = small(1);
  cfg.seed = 65;
  cfg.workload = VoteListWorkload::make({kAbstain});
  ElectionDriver runner(cfg);
  runner.simulation().start();
  auto& bb = runner.bb_node(0);
  // A Byzantine VC submits another node's share as its own: x mismatch.
  MskShareMsg m{runner.artifacts().vc_inits[1].msk_share,
                runner.artifacts().vc_inits[1].msk_share_path};
  bb.on_message(0, m.encode());  // claimed sender 0, share x=2
  // And a tampered share under its own index: Merkle mismatch.
  MskShareMsg m2{runner.artifacts().vc_inits[0].msk_share,
                 runner.artifacts().vc_inits[0].msk_share_path};
  m2.share.y = m2.share.y + crypto::Fn::one();
  bb.on_message(0, m2.encode());
  EXPECT_FALSE(bb.codes_published());
}

TEST(BbNode, RejectsUnsignedTrusteeWrites) {
  DriverConfig cfg;
  cfg.params = small(1);
  cfg.seed = 66;
  cfg.workload = VoteListWorkload::make({0});
  ElectionDriver runner(cfg);
  runner.run();
  ASSERT_TRUE(runner.bb_node(0).result_published());
  auto before = runner.bb_node(0).result()->tally;

  // Forged tally message with a bogus signature must be ignored.
  TrusteeTallyMsg forged;
  forged.trustee_index = 0;
  forged.totals.assign(
      2, {crypto::PedersenShare{1, crypto::Fn::one(), crypto::Fn::one()},
          crypto::PedersenShare{1, crypto::Fn::one(), crypto::Fn::one()}});
  forged.signature = Bytes(65, 0x11);
  runner.bb_node(0).on_message(99, forged.encode());
  EXPECT_EQ(runner.bb_node(0).result()->tally, before);
}

TEST(Trustee, LoneByzantineTrusteeCannotCorruptTally) {
  // ht = 2 of 3: one trustee submitting garbage shares is outvoted because
  // the BB verifies every Pedersen share against the published commitments.
  DriverConfig cfg;
  cfg.params = small(4);
  cfg.seed = 67;
  cfg.workload = VoteListWorkload::make({0, 1, 0, 0});
  cfg.tamper_setup = [](ea::SetupArtifacts& arts) {
    // Trustee 0 holds corrupted shares (a "lazy/compromised" trustee whose
    // data was damaged): all its opening shares are shifted by one.
    for (auto& ballot : arts.trustee_inits[0].ballots) {
      for (auto& part : ballot.parts) {
        for (auto& line : part) {
          for (auto& s : line.open_m) s.f = s.f + crypto::Fn::one();
        }
      }
    }
  };
  ElectionDriver runner(cfg);
  runner.run();
  ASSERT_TRUE(runner.bb_node(0).result_published());
  EXPECT_EQ(runner.bb_node(0).result()->tally,
            (std::vector<std::uint64_t>{3, 1}));
  client::Auditor auditor(runner.reader());
  EXPECT_TRUE(auditor.verify_election().passed);
}

TEST(Trustee, SlowBbRoundTripStillSubmits) {
  // Every message to or from trustee 0 is held for 1 s, so each of its BB
  // reads takes 2 s against a 200 ms poll interval. Replies to earlier
  // polls still count, so the trustee submits and the run quiesces.
  DriverConfig cfg;
  cfg.params = small(6);
  cfg.seed = 72;
  cfg.workload = VoteListWorkload::make({0, 1, 1, kAbstain, 0, 1});
  cfg.max_events = 2'000'000;
  ElectionDriver runner(cfg);
  sim::NodeId slow = runner.topology().trustee_ids[0];
  runner.simulation().set_link_filter(
      [slow](sim::NodeId from, sim::NodeId to, sim::TimePoint) {
        return std::optional<sim::Duration>(
            from == slow || to == slow ? 1'000'000 : 0);
      });
  ElectionReport report = runner.run();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.tally, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_TRUE(runner.trustee_node(0).submitted());
}

// A BB that answers every cast-info read with the same forged payload,
// `repeats` times.
class ForgingBb final : public sim::Process {
 public:
  ForgingBb(Bytes forged, std::size_t repeats)
      : forged_(std::move(forged)), repeats_(repeats) {}
  void on_message(sim::NodeId from, const net::Buffer& payload) override {
    Reader r(payload.view());
    if (static_cast<MsgType>(r.u8()) != MsgType::kBbRead) return;
    BbReadMsg read = BbReadMsg::decode(r);
    BbReadReplyMsg reply;
    reply.section = read.section;
    reply.request_id = read.request_id;
    reply.available = true;
    reply.payload = forged_;
    net::Buffer msg = reply.encode();
    for (std::size_t i = 0; i < repeats_; ++i) ctx().send(from, msg);
  }

 private:
  Bytes forged_;
  std::size_t repeats_;
};

class SilentNode final : public sim::Process {
 public:
  void on_message(sim::NodeId, const net::Buffer&) override {}
};

// Runs one trustee against three BB ids, the first `forgers` of which
// answer with one forged cast-info (no cast votes) `repeats` times each;
// the rest never answer. Returns whether the trustee submitted.
bool trustee_submits_to_forgers(std::size_t forgers, std::size_t repeats) {
  ElectionParams params = small(2);
  ea::SetupArtifacts arts = ea::ea_setup({params, 73});
  Writer w;
  w.vec(std::vector<int>{}, [](Writer&, int) {});
  w.bytes(Bytes{});
  encode_scalar(w, crypto::Fn::one());
  const Bytes forged = w.take();

  sim::Simulation sim(74);
  std::vector<sim::NodeId> bb_ids;
  for (std::size_t i = 0; i < params.n_bb; ++i) {
    std::unique_ptr<sim::Process> bb;
    if (i < forgers) {
      bb = std::make_unique<ForgingBb>(forged, repeats);
    } else {
      bb = std::make_unique<SilentNode>();
    }
    bb_ids.push_back(sim.add_node(std::move(bb), "bb" + std::to_string(i)));
  }
  sim::NodeId tid = sim.add_node(
      std::make_unique<trustee::TrusteeNode>(arts.trustee_inits[0], bb_ids),
      "trustee0");
  sim.start();
  sim.run_until(2'000'000);
  return dynamic_cast<trustee::TrusteeNode&>(sim.process(tid)).submitted();
}

TEST(Trustee, OneBbRepeatingAForgedReadIsNotAMajority) {
  // fb + 1 = 2 copies of one forged cast-info from a single BB, with the
  // current request id, are one BB's answer, not a majority.
  EXPECT_FALSE(trustee_submits_to_forgers(1, small(2).f_bb + 1));
  // The same payload from two distinct BBs is a majority.
  EXPECT_TRUE(trustee_submits_to_forgers(2, 1));
}

TEST(BbNode, PhaseTimestampsAreMonotone) {
  DriverConfig cfg;
  cfg.params = small(3);
  cfg.seed = 68;
  cfg.workload = VoteListWorkload::make({0, 1, 0});
  ElectionDriver runner(cfg);
  runner.run();
  const auto& bb = runner.bb_node(0);
  EXPECT_GE(bb.vote_set_accepted_at(), cfg.params.t_end);
  EXPECT_GE(bb.codes_published_at(), bb.vote_set_accepted_at());
  EXPECT_GE(bb.result_published_at(), bb.codes_published_at());
}

TEST(BbNode, ChallengeMatchesVoterCoins) {
  DriverConfig cfg;
  cfg.params = small(5);
  cfg.seed = 69;
  cfg.workload = VoteListWorkload::make({0, 1, 0, 1, 0});
  ElectionDriver runner(cfg);
  runner.run();
  // Recompute the challenge from the voters' actual part choices (coins),
  // ordered by serial as the BB does.
  std::vector<std::pair<Serial, std::uint8_t>> coins;
  for (std::size_t v = 0; v < runner.voter_count(); ++v) {
    coins.push_back({runner.artifacts().voter_ballots[v].serial,
                     runner.voter(v).used_part()});
  }
  std::sort(coins.begin(), coins.end());
  Bytes coin_bytes;
  for (auto& [serial, part] : coins) {
    coin_bytes.push_back(static_cast<std::uint8_t>('0' + part));
  }
  crypto::Fn expect = crypto::challenge_from_coins(cfg.params.election_id,
                                                   coin_bytes);
  EXPECT_EQ(runner.bb_node(0).challenge(), expect);
  EXPECT_EQ(runner.bb_node(1).challenge(), expect);
}

}  // namespace
}  // namespace ddemos::core
