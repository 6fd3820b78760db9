// Vote Collector protocol unit tests: Algorithm 1 behaviours, UCERT rules,
// and Byzantine VC nodes (wrong receipts, withheld shares, double-vote
// attempts, bogus VOTE_P messages).
#include <gtest/gtest.h>

#include "core/messages.hpp"
#include "core/driver.hpp"
#include "crypto/schnorr.hpp"

namespace ddemos::core {
namespace {

ElectionParams tiny_params(std::size_t voters, std::size_t options = 2) {
  ElectionParams p;
  p.election_id = to_bytes("vc-proto-test");
  for (std::size_t i = 0; i < options; ++i) {
    p.options.push_back("opt" + std::to_string(i));
  }
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

// A scripted client process that sends raw messages to VC nodes.
class RawClient : public sim::Process {
 public:
  void on_message(sim::NodeId from, const net::Buffer& payload) override {
    Reader r(payload);
    if (static_cast<MsgType>(r.u8()) != MsgType::kVoteReply) return;
    replies.push_back({from, VoteReplyMsg::decode(r)});
  }
  void send_to(sim::NodeId to, Bytes msg) { pending.push_back({to, msg}); }
  // Flushes (and drains) queued messages; called by the sim at start and
  // manually by tests to inject follow-up traffic.
  void on_start() override {
    auto batch = std::move(pending);
    pending.clear();
    for (auto& [to, msg] : batch) ctx().send(to, msg);
  }
  std::vector<std::pair<sim::NodeId, Bytes>> pending;
  std::vector<std::pair<sim::NodeId, VoteReplyMsg>> replies;
};

struct Fixture {
  explicit Fixture(std::size_t voters = 2) {
    DriverConfig cfg;
    cfg.params = tiny_params(voters);
    cfg.seed = 7777;
    cfg.workload = VoteListWorkload::make(
        std::vector<std::size_t>(voters, kAbstain));  // no automatic voters
    runner = std::make_unique<ElectionDriver>(cfg);
    client = dynamic_cast<RawClient*>(&runner->simulation().process(
        runner->simulation().add_node(std::make_unique<RawClient>(),
                                      "raw")));
  }
  std::unique_ptr<ElectionDriver> runner;
  RawClient* client;
};

TEST(VcProtocol, ValidVoteYieldsPrintedReceipt) {
  Fixture f;
  const Ballot& ballot = f.runner->artifacts().voter_ballots[0];
  f.client->send_to(0, VoteMsg{ballot.serial,
                               ballot.parts[0].lines[1].vote_code}
                           .encode());
  f.runner->simulation().start();
  f.runner->simulation().run_until(5'000'000);
  ASSERT_EQ(f.client->replies.size(), 1u);
  EXPECT_EQ(f.client->replies[0].second.status, VoteReplyStatus::kOk);
  EXPECT_EQ(f.client->replies[0].second.receipt,
            ballot.parts[0].lines[1].receipt);
}

TEST(VcProtocol, UnknownSerialRejected) {
  Fixture f;
  f.client->send_to(0, VoteMsg{0x1234, Bytes(20, 9)}.encode());
  f.runner->simulation().start();
  f.runner->simulation().run_until(2'000'000);
  ASSERT_EQ(f.client->replies.size(), 1u);
  EXPECT_EQ(f.client->replies[0].second.status, VoteReplyStatus::kUnknown);
}

TEST(VcProtocol, WrongVoteCodeRejected) {
  Fixture f;
  const Ballot& ballot = f.runner->artifacts().voter_ballots[0];
  f.client->send_to(0, VoteMsg{ballot.serial, Bytes(20, 0xaa)}.encode());
  f.runner->simulation().start();
  f.runner->simulation().run_until(2'000'000);
  ASSERT_EQ(f.client->replies.size(), 1u);
  EXPECT_EQ(f.client->replies[0].second.status, VoteReplyStatus::kUnknown);
}

TEST(VcProtocol, SecondCodeForSameBallotRejected) {
  // Voting twice with different codes: the second attempt must never earn
  // a receipt (at most one vote code endorsed per ballot).
  Fixture f;
  const Ballot& ballot = f.runner->artifacts().voter_ballots[0];
  f.client->send_to(0, VoteMsg{ballot.serial,
                               ballot.parts[0].lines[0].vote_code}
                           .encode());
  f.runner->simulation().start();
  f.runner->simulation().run_until(5'000'000);
  ASSERT_EQ(f.client->replies.size(), 1u);
  // Now try the other part's code at a different node.
  f.client->pending.clear();
  auto* sim = &f.runner->simulation();
  // Send directly from the client context via a fresh message.
  f.client->send_to(2, VoteMsg{ballot.serial,
                               ballot.parts[1].lines[0].vote_code}
                           .encode());
  for (auto& [to, msg] : f.client->pending) {
    // Inject through the simulation by having the client re-start.
  }
  f.client->on_start();
  sim->run_until(10'000'000);
  ASSERT_EQ(f.client->replies.size(), 2u);
  EXPECT_EQ(f.client->replies[1].second.status,
            VoteReplyStatus::kAlreadyVoted);
}

TEST(VcProtocol, ResubmittingSameCodeReturnsSameReceipt) {
  Fixture f;
  const Ballot& ballot = f.runner->artifacts().voter_ballots[0];
  Bytes code = ballot.parts[1].lines[0].vote_code;
  f.client->send_to(1, VoteMsg{ballot.serial, code}.encode());
  f.runner->simulation().start();
  f.runner->simulation().run_until(5'000'000);
  f.client->send_to(1, VoteMsg{ballot.serial, code}.encode());
  f.client->on_start();
  f.runner->simulation().run_until(10'000'000);
  ASSERT_EQ(f.client->replies.size(), 2u);
  EXPECT_EQ(f.client->replies[0].second.receipt,
            f.client->replies[1].second.receipt);
  EXPECT_EQ(f.client->replies[1].second.status, VoteReplyStatus::kOk);
}

TEST(VcProtocol, ForgedVotePIgnored) {
  // A malicious party floods VOTE_P messages with an invalid UCERT; no node
  // may mark the ballot voted.
  Fixture f;
  const Ballot& ballot = f.runner->artifacts().voter_ballots[0];
  VotePMsg vp;
  vp.serial = ballot.serial;
  vp.vote_code = ballot.parts[0].lines[0].vote_code;
  vp.part = 0;
  vp.line = 0;
  vp.receipt_share = crypto::Share{1, crypto::Fn::from_u64(1)};
  vp.ucert.vote_code = vp.vote_code;
  crypto::Rng rng(1);
  crypto::KeyPair bogus = crypto::schnorr_keygen(rng);
  for (std::uint32_t i = 0; i < 3; ++i) {
    vp.ucert.signatures.push_back(
        {i, crypto::schnorr_sign(bogus.sk, to_bytes("junk"))});
  }
  f.client->send_to(0, vp.encode());
  f.client->send_to(1, vp.encode());
  f.runner->simulation().start();
  f.runner->simulation().run_until(2'000'000);
  // Voting with the real code still works normally afterwards.
  f.client->send_to(0, VoteMsg{ballot.serial, vp.vote_code}.encode());
  f.client->on_start();
  f.runner->simulation().run_until(8'000'000);
  ASSERT_FALSE(f.client->replies.empty());
  EXPECT_EQ(f.client->replies.back().second.status, VoteReplyStatus::kOk);
}

TEST(VcProtocol, MalformedMessagesAreDropped) {
  Fixture f;
  f.client->send_to(0, Bytes{0x01});           // truncated VOTE
  f.client->send_to(0, Bytes{0xff, 1, 2, 3});  // unknown type
  f.client->send_to(0, Bytes{});               // empty
  f.runner->simulation().start();
  f.runner->simulation().run_until(1'000'000);
  EXPECT_TRUE(f.client->replies.empty());
  // Node still healthy.
  const Ballot& ballot = f.runner->artifacts().voter_ballots[0];
  f.client->send_to(0, VoteMsg{ballot.serial,
                               ballot.parts[0].lines[0].vote_code}
                           .encode());
  f.client->on_start();
  f.runner->simulation().run_until(6'000'000);
  ASSERT_EQ(f.client->replies.size(), 1u);
  EXPECT_EQ(f.client->replies[0].second.status, VoteReplyStatus::kOk);
}

TEST(VcProtocol, VoteOutsideHoursRejected) {
  Fixture f;
  const Ballot& ballot = f.runner->artifacts().voter_ballots[0];
  f.runner->simulation().start();
  f.runner->simulation().run_until(31'000'000);  // past t_end
  f.client->send_to(0, VoteMsg{ballot.serial,
                               ballot.parts[0].lines[0].vote_code}
                           .encode());
  f.client->on_start();
  f.runner->simulation().run_until_idle();
  ASSERT_EQ(f.client->replies.size(), 1u);
  EXPECT_EQ(f.client->replies[0].second.status,
            VoteReplyStatus::kOutsideHours);
}

TEST(VcProtocol, UcertValidationRules) {
  Fixture f;
  const auto& init = f.runner->artifacts().vc_inits[0];
  Serial serial = f.runner->artifacts().voter_ballots[0].serial;
  Bytes code = f.runner->artifacts().voter_ballots[0].parts[0].lines[0]
                   .vote_code;
  Bytes digest = endorsement_digest(init.params.election_id, serial, code);

  Ucert u;
  u.vote_code = code;
  // Build with real keys: quorum of 3 distinct signatures validates.
  for (std::uint32_t i = 0; i < 3; ++i) {
    u.signatures.push_back(
        {i, crypto::schnorr_sign(
                f.runner->artifacts().vc_inits[i].signing_key, digest)});
  }
  EXPECT_TRUE(u.valid(init.params.election_id, serial, init.vc_public_keys,
                      3));
  // Duplicate signer does not count twice.
  Ucert dup = u;
  dup.signatures.pop_back();
  dup.signatures.push_back(dup.signatures[0]);
  EXPECT_FALSE(dup.valid(init.params.election_id, serial,
                         init.vc_public_keys, 3));
  // Signature over a different serial fails.
  EXPECT_FALSE(u.valid(init.params.election_id, serial + 1,
                       init.vc_public_keys, 3));
  // Out-of-range node index ignored.
  Ucert oob = u;
  oob.signatures[0].first = 99;
  EXPECT_FALSE(oob.valid(init.params.election_id, serial,
                         init.vc_public_keys, 3));
}

// A scripted process at a VC id: at start it multicasts one ANNOUNCE with
// pre-built certified entries to the real collectors, and after `vote_at`
// it casts `vote` at node 0. It records what node 0 sends it.
class ScriptedVc : public sim::Process {
 public:
  ScriptedVc(std::vector<sim::NodeId> peers, AnnounceMsg announce,
             VoteMsg vote, sim::Duration vote_at)
      : peers_(std::move(peers)),
        announce_(std::move(announce)),
        vote_(std::move(vote)),
        vote_at_(vote_at) {}
  void on_start() override {
    net::Buffer msg = announce_.encode();
    for (sim::NodeId id : peers_) ctx().send(id, msg);
    ctx().set_timer(vote_at_);
  }
  void on_timer(std::uint64_t) override { ctx().send(0, vote_.encode()); }
  void on_message(sim::NodeId from, const net::Buffer& payload) override {
    if (from != 0) return;
    Reader r(payload.view());
    switch (static_cast<MsgType>(r.u8())) {
      case MsgType::kEndorse:
        endorsed.push_back(EndorseMsg::decode(r).serial);
        break;
      case MsgType::kAnnounce:
        for (const AnnounceEntry& e : AnnounceMsg::decode(r).entries) {
          announced.push_back(e.instance);
        }
        break;
      default:
        break;
    }
  }
  std::vector<Serial> endorsed;            // ENDORSE requests from node 0
  std::vector<std::uint64_t> announced;    // node 0's ANNOUNCE instances

 private:
  std::vector<sim::NodeId> peers_;
  AnnounceMsg announce_;
  VoteMsg vote_;
  sim::Duration vote_at_;
};

TEST(VcProtocol, EarlyAnnounceEntriesWaitForElectionEnd) {
  // A peer's certified ANNOUNCE entries that arrive while a collector is
  // still voting are adopted only at its own election end: until then the
  // ballot is not voted there (a VOTE with that code starts the endorse
  // round), and afterwards the entry is in the collector's ANNOUNCE and in
  // its final vote set.
  ElectionParams p = tiny_params(2);
  ea::SetupArtifacts arts = ea::ea_setup({p, 99, false, 64});
  const Serial first = arts.vc_inits[0].ballots.front().serial;
  auto certified = [&](const Ballot& ballot, std::size_t part) {
    AnnounceEntry e;
    e.instance = ballot.serial - first;
    e.vote_code = ballot.parts[part].lines[0].vote_code;
    e.ucert.vote_code = e.vote_code;
    Bytes digest = endorsement_digest(p.election_id, ballot.serial,
                                      e.vote_code);
    for (std::uint32_t i = 0; i < 3; ++i) {
      e.ucert.signatures.push_back(
          {i, crypto::schnorr_sign(arts.vc_inits[i].signing_key, digest)});
    }
    return e;
  };
  // Ballot 0's entry is also cast at node 0; ballot 1's is only announced.
  const Ballot& cast = arts.voter_ballots[0];
  const Ballot& announced_only = arts.voter_ballots[1];
  AnnounceMsg early{{certified(cast, 0), certified(announced_only, 1)}, true};

  sim::Simulation sim(5);
  std::vector<sim::NodeId> vc_ids{0, 1, 2, 3};
  std::vector<vc::VcNode*> nodes;
  for (std::size_t i = 0; i < 3; ++i) {
    auto node = std::make_unique<vc::VcNode>(
        arts.vc_inits[i],
        std::make_shared<store::MemoryBallotSource>(arts.vc_inits[i].ballots),
        vc_ids, std::vector<sim::NodeId>{});
    nodes.push_back(node.get());
    ASSERT_EQ(sim.add_node(std::move(node), "vc" + std::to_string(i)), i);
  }
  auto scripted_owner = std::make_unique<ScriptedVc>(
      std::vector<sim::NodeId>{0, 1, 2}, early,
      VoteMsg{cast.serial, cast.parts[0].lines[0].vote_code}, 1'000'000);
  ScriptedVc* scripted = scripted_owner.get();
  ASSERT_EQ(sim.add_node(std::move(scripted_owner), "scripted"), 3u);

  sim.start();
  sim.run_until(p.t_end - 1);
  EXPECT_EQ(nodes[0]->phase(), vc::Phase::kVoting);
  EXPECT_EQ(scripted->endorsed, std::vector<Serial>{cast.serial});
  EXPECT_TRUE(scripted->announced.empty());

  sim.run_until_idle();
  ASSERT_TRUE(nodes[0]->push_complete());
  EXPECT_EQ(scripted->announced,
            (std::vector<std::uint64_t>{cast.serial - first,
                                        announced_only.serial - first}));
  std::vector<VoteSetEntry> expected{
      {cast.serial, cast.parts[0].lines[0].vote_code},
      {announced_only.serial, announced_only.parts[1].lines[0].vote_code}};
  for (const vc::VcNode* node : nodes) {
    EXPECT_EQ(node->final_vote_set(), expected);
  }
}

TEST(VcProtocol, ConcurrentVotersOnDifferentNodes) {
  // Many voters hammering different responders concurrently all succeed and
  // the final sets agree (exercises cross-responder VOTE_P interleaving).
  DriverConfig cfg;
  cfg.params = tiny_params(12, 3);
  cfg.seed = 4321;
  cfg.workload = RoundRobinWorkload::make(
      [](std::size_t) -> sim::TimePoint { return 1000; });  // all at once
  ElectionDriver runner(cfg);
  runner.run();
  for (std::size_t v = 0; v < runner.voter_count(); ++v) {
    EXPECT_TRUE(runner.voter(v).has_receipt());
  }
  const auto& set0 = runner.vc_node(0).final_vote_set();
  EXPECT_EQ(set0.size(), 12u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(runner.vc_node(i).final_vote_set(), set0);
  }
}

}  // namespace
}  // namespace ddemos::core
