// Vote Collector protocol unit tests: Algorithm 1 behaviours, UCERT rules,
// and Byzantine VC nodes (wrong receipts, withheld shares, double-vote
// attempts, bogus VOTE_P messages).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <functional>

#include "core/messages.hpp"
#include "core/driver.hpp"
#include "crypto/commit.hpp"
#include "crypto/schnorr.hpp"
#include "store/wal.hpp"

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
  const std::vector<crypto::SchnorrKey> keys =
      crypto::decode_schnorr_keys(init.vc_public_keys);

  Ucert u;
  u.vote_code = code;
  // Build with real keys: quorum of 3 distinct signatures validates.
  for (std::uint32_t i = 0; i < 3; ++i) {
    u.signatures.push_back(
        {i, crypto::schnorr_sign(
                f.runner->artifacts().vc_inits[i].signing_key, digest)});
  }
  EXPECT_TRUE(u.valid(init.params.election_id, serial, keys, 3));
  // Duplicate signer does not count twice.
  Ucert dup = u;
  dup.signatures.pop_back();
  dup.signatures.push_back(dup.signatures[0]);
  EXPECT_FALSE(dup.valid(init.params.election_id, serial, keys, 3));
  // Signature over a different serial fails.
  EXPECT_FALSE(u.valid(init.params.election_id, serial + 1, keys, 3));
  // Out-of-range node index ignored.
  Ucert oob = u;
  oob.signatures[0].first = 99;
  EXPECT_FALSE(oob.valid(init.params.election_id, serial, keys, 3));
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

// --- Certified-code VOTE_P path --------------------------------------------
// A collector checks a UCERT only for a ballot it holds no certified code
// for. These tests run real collectors beside scripted ones (ScriptedPeer)
// on one simulator and read the collectors' signature counters.

// (part, line) of `code` in a collector's ballot data.
std::pair<std::uint8_t, std::uint32_t> locate(const VcBallotInit& ballot,
                                              BytesView code) {
  for (std::uint8_t p = 0; p < kNumParts; ++p) {
    for (std::uint32_t l = 0; l < ballot.parts[p].size(); ++l) {
      const VcLineInit& li = ballot.parts[p][l];
      if (crypto::salted_commit_check(li.code_hash, code, li.salt)) {
        return {p, l};
      }
    }
  }
  ADD_FAILURE() << "vote code not in ballot";
  return {0, 0};
}

// The VOTE_P collector `init` would send for (serial, code): its genuine
// share and Merkle path, with `ucert` attached as given.
VotePMsg vote_p_from(const VcInit& init, Serial serial, const Bytes& code,
                     Ucert ucert) {
  const VcBallotInit& ballot =
      init.ballots[serial - init.ballots.front().serial];
  auto [part, line] = locate(ballot, code);
  VotePMsg vp;
  vp.serial = serial;
  vp.vote_code = code;
  vp.part = part;
  vp.line = line;
  vp.receipt_share = ballot.parts[part][line].receipt_share;
  vp.share_path = ballot.parts[part][line].share_path;
  vp.ucert = std::move(ucert);
  return vp;
}

// A certificate for `code` whose signatures do not verify.
Ucert garbage_ucert(const Bytes& code) {
  Ucert u;
  u.vote_code = code;
  for (std::uint32_t i = 0; i < 3; ++i) u.signatures.push_back({i, Bytes(65, 7)});
  return u;
}

// A scripted collector at a VC id. It answers ENDORSE with its real
// signature after `endorse_delay` (when `endorse` is set) and, when
// `forged_endorsements` > 0, right away with that many forged ones
// instead; it answers the first VOTE_P of a ballot with its own share and
// the UCERT it received (when `disclose` is set); and it sends each of
// `sends` at its time.
class ScriptedPeer : public sim::Process {
 public:
  explicit ScriptedPeer(VcInit init) : init_(std::move(init)) {}
  bool endorse = true;
  sim::Duration endorse_delay = 0;
  std::size_t forged_endorsements = 0;
  bool disclose = true;
  struct Send {
    sim::Duration at;
    sim::NodeId to;
    Bytes msg;
  };
  std::vector<Send> sends;

  void on_start() override {
    for (std::size_t i = 0; i < sends.size(); ++i) {
      timers_[ctx().set_timer(sends[i].at)] = [this, i] {
        ctx().send(sends[i].to, sends[i].msg);
      };
    }
  }
  void on_timer(std::uint64_t token) override {
    auto it = timers_.find(token);
    if (it == timers_.end()) return;
    auto fn = std::move(it->second);
    timers_.erase(it);
    fn();
  }
  void on_message(sim::NodeId from, const net::Buffer& payload) override {
    Reader r(payload.view());
    auto type = static_cast<MsgType>(r.u8());
    auto index = static_cast<std::uint32_t>(init_.node_index);
    if (type == MsgType::kEndorse) {
      EndorseMsg m = EndorseMsg::decode(r);
      for (std::size_t i = 0; i < forged_endorsements; ++i) {
        ctx().send(from, EndorsementMsg{m.serial, m.vote_code, index,
                                        Bytes(65, 0x5a)}
                             .encode());
      }
      if (!endorse || forged_endorsements > 0) return;
      Bytes sig = crypto::schnorr_sign(
          init_.signing_key,
          endorsement_digest(init_.params.election_id, m.serial, m.vote_code));
      Bytes reply = EndorsementMsg{m.serial, m.vote_code, index, sig}.encode();
      timers_[ctx().set_timer(endorse_delay)] = [this, from, reply] {
        ctx().send(from, reply);
      };
    } else if (type == MsgType::kVoteP && disclose) {
      VotePMsg m = VotePMsg::decode(r);
      if (!disclosed_.insert(m.serial).second) return;
      net::Buffer vp =
          vote_p_from(init_, m.serial, m.vote_code, m.ucert).encode();
      for (sim::NodeId id : {0, 1, 2, 3}) ctx().send(id, vp);
    }
  }

 private:
  VcInit init_;
  std::map<std::uint64_t, std::function<void()>> timers_;
  std::set<Serial> disclosed_;
};

// Collectors 0..n_real-1 are real VcNodes, the rest of the four VC ids are
// ScriptedPeers, and the voter (a RawClient) comes last.
struct Cluster {
  explicit Cluster(std::size_t n_real)
      : arts(ea::ea_setup({tiny_params(2), 31, false, 64})), sim(5) {
    std::vector<sim::NodeId> vc_ids{0, 1, 2, 3};
    for (std::size_t i = 0; i < 4; ++i) {
      if (i < n_real) {
        auto node = std::make_unique<vc::VcNode>(
            arts.vc_inits[i],
            std::make_shared<store::MemoryBallotSource>(
                arts.vc_inits[i].ballots),
            vc_ids, std::vector<sim::NodeId>{});
        real.push_back(node.get());
        sim.add_node(std::move(node), "vc" + std::to_string(i));
      } else {
        auto peer = std::make_unique<ScriptedPeer>(arts.vc_inits[i]);
        scripted.push_back(peer.get());
        sim.add_node(std::move(peer), "scripted" + std::to_string(i));
      }
    }
    auto voter_owner = std::make_unique<RawClient>();
    voter = voter_owner.get();
    sim.add_node(std::move(voter_owner), "voter");
  }
  // Signature checks, summed over the collector's shards.
  std::uint64_t signature_checks(std::size_t i) const {
    std::uint64_t checks = 0;
    for (const vc::VcShardStats& s : real[i]->shard_stats()) {
      checks += s.signature_checks;
    }
    return checks;
  }
  ea::SetupArtifacts arts;
  sim::Simulation sim;
  std::vector<vc::VcNode*> real;
  std::vector<ScriptedPeer*> scripted;  // VC ids n_real..3
  RawClient* voter = nullptr;
};

TEST(VcProtocol, VotePWithUcertForgedForOtherCodeRefused) {
  Cluster c(3);
  c.scripted[0]->endorse = false;
  c.scripted[0]->disclose = false;
  const Ballot& voted = c.arts.voter_ballots[0];
  const Ballot& fresh = c.arts.voter_ballots[1];
  const Bytes& code_a = voted.parts[0].lines[0].vote_code;
  const Bytes& code_b = voted.parts[1].lines[0].vote_code;
  // Signatures of collectors 0..2 over code A, attached as a UCERT for B.
  auto forged_for_b = [&](Serial serial, const Bytes& a, const Bytes& b) {
    Ucert u;
    u.vote_code = b;
    Bytes digest = endorsement_digest(c.arts.vc_inits[0].params.election_id,
                                      serial, a);
    for (std::uint32_t i = 0; i < 3; ++i) {
      u.signatures.push_back(
          {i, crypto::schnorr_sign(c.arts.vc_inits[i].signing_key, digest)});
    }
    return vote_p_from(c.arts.vc_inits[3], serial, b, u).encode();
  };
  c.voter->send_to(0, VoteMsg{voted.serial, code_a}.encode());
  c.sim.start();
  c.sim.run_until(2'000'000);
  ASSERT_EQ(c.voter->replies.size(), 1u);
  ASSERT_EQ(c.voter->replies[0].second.status, VoteReplyStatus::kOk);
  const std::uint64_t before1 = c.signature_checks(1);
  const std::uint64_t before2 = c.signature_checks(2);

  // Ballot 0 is certified for A everywhere: the VOTE_P for B is dropped
  // without a signature check. Ballot 1 is fresh at node 2: the forged
  // certificate is checked there, each of its 3 signatures once, and
  // refused.
  c.scripted[0]->sends = {
      {0, 1, forged_for_b(voted.serial, code_a, code_b)},
      {0, 2,
       forged_for_b(fresh.serial, fresh.parts[0].lines[0].vote_code,
                    fresh.parts[1].lines[0].vote_code)}};
  c.scripted[0]->on_start();
  c.sim.run_until(3'000'000);
  EXPECT_EQ(c.signature_checks(1), before1);
  EXPECT_EQ(c.signature_checks(2), before2 + 3);

  c.voter->send_to(1, VoteMsg{voted.serial, code_b}.encode());
  c.voter->send_to(2, VoteMsg{fresh.serial,
                              fresh.parts[0].lines[0].vote_code}
                          .encode());
  c.voter->on_start();
  c.sim.run_until_idle();
  ASSERT_EQ(c.voter->replies.size(), 3u);
  for (const auto& [from, reply] : c.voter->replies) {
    if (reply.serial == voted.serial && from == 1) {
      EXPECT_EQ(reply.status, VoteReplyStatus::kAlreadyVoted);
    } else if (reply.serial == fresh.serial) {
      EXPECT_EQ(reply.status, VoteReplyStatus::kOk);
      EXPECT_EQ(reply.receipt, fresh.parts[0].lines[0].receipt);
    }
  }
  std::vector<VoteSetEntry> expected{
      {voted.serial, code_a}, {fresh.serial, fresh.parts[0].lines[0].vote_code}};
  for (const vc::VcNode* node : c.real) {
    ASSERT_TRUE(node->push_complete());
    EXPECT_EQ(node->final_vote_set(), expected);
  }
}

TEST(VcProtocol, GarbageUcertForCertifiedCodeOnlyAddsItsShare) {
  // Collectors 0 and 1 are real; scripted 2 endorses but keeps its share,
  // scripted 3 stays silent. Node 0 certifies code A and holds shares 0
  // and 1. A VOTE_P for A with a garbage UCERT and a tampered share adds
  // nothing, nor does a genuine share for the ballot's other code B; one
  // with a garbage UCERT and a genuine share for A completes the receipt.
  // No certificate is checked.
  Cluster c(2);
  const Ballot& ballot = c.arts.voter_ballots[0];
  const Bytes& code = ballot.parts[0].lines[1].vote_code;
  const Bytes& other = ballot.parts[1].lines[1].vote_code;
  c.scripted[0]->disclose = false;
  c.scripted[1]->endorse = false;
  c.scripted[1]->disclose = false;
  VotePMsg tampered =
      vote_p_from(c.arts.vc_inits[2], ballot.serial, code, garbage_ucert(code));
  tampered.receipt_share.y = tampered.receipt_share.y + crypto::Fn::one();
  c.scripted[0]->sends = {
      {1'000'000, 0, tampered.encode()},
      {1'200'000, 0,
       vote_p_from(c.arts.vc_inits[2], ballot.serial, other,
                   garbage_ucert(other))
           .encode()}};
  c.scripted[1]->sends = {
      {2'000'000, 0,
       vote_p_from(c.arts.vc_inits[3], ballot.serial, code,
                   garbage_ucert(code))
           .encode()}};
  c.voter->send_to(0, VoteMsg{ballot.serial, code}.encode());
  c.sim.start();
  c.sim.run_until(1'500'000);
  EXPECT_TRUE(c.voter->replies.empty());
  c.sim.run_until(2'500'000);
  ASSERT_EQ(c.voter->replies.size(), 1u);
  EXPECT_EQ(c.voter->replies[0].second.status, VoteReplyStatus::kOk);
  EXPECT_EQ(c.voter->replies[0].second.receipt, ballot.parts[0].lines[1].receipt);
  // The three endorsements of the quorum. No UCERT was checked.
  EXPECT_EQ(c.signature_checks(0), 3u);
}

TEST(VcProtocol, BallotRestoredFromPendingRecordCountsAsCertified) {
  // Node 0 restarts over a log holding one kWalPending record for code A
  // (with a certificate it does not check again: a node trusts its log).
  // Garbage-UCERT VOTE_Ps carrying genuine shares complete the receipt.
  Cluster c(1);
  const Ballot& ballot = c.arts.voter_ballots[0];
  const Bytes& code = ballot.parts[1].lines[0].vote_code;
  const VcBallotInit& mine = c.arts.vc_inits[0].ballots[0];
  auto [part, line] = locate(mine, code);
  std::string path = std::string(::testing::TempDir()) +
                     "vc_protocol_pending_" + std::to_string(::getpid()) +
                     ".wal";
  std::remove(path.c_str());
  {
    store::Wal wal(path);
    wal.replay([](std::uint8_t, BytesView) {});
    Writer w;
    w.u64(0);  // instance
    w.bytes(code);
    w.u8(part);
    w.u32(line);
    garbage_ucert(code).encode(w);
    wal.append(vc::kWalPending, w.take());
    wal.sync();
  }
  c.real[0]->attach_wal(std::make_unique<store::Wal>(path));
  for (std::size_t i = 0; i < 3; ++i) {
    c.scripted[i]->endorse = false;
    c.scripted[i]->disclose = false;
  }
  for (std::size_t i : {1, 2}) {
    c.scripted[i - 1]->sends = {
        {500'000, 0,
         vote_p_from(c.arts.vc_inits[i], ballot.serial, code,
                     garbage_ucert(code))
             .encode()}};
  }
  c.voter->send_to(0, VoteMsg{ballot.serial, code}.encode());
  c.sim.start();
  c.sim.run_until(1'000'000);
  ASSERT_EQ(c.voter->replies.size(), 1u);
  EXPECT_EQ(c.voter->replies[0].second.status, VoteReplyStatus::kOk);
  EXPECT_EQ(c.voter->replies[0].second.receipt, ballot.parts[1].lines[0].receipt);
  EXPECT_EQ(c.signature_checks(0), 0u);
  std::remove(path.c_str());
}

TEST(VcProtocol, RepeatedBadEndorsementsAreCheckedOnce) {
  // Scripted 3 answers the ENDORSE with 20 forged endorsements at once;
  // scripted 2 endorses honestly 0.5 s later. The responder checks each
  // endorsement as it arrives: its own, node 1's and collector 3's first
  // forgery, which fails; collector 3's 19 repeats cost nothing, and
  // collector 2's endorsement completes the certificate.
  Cluster c(2);
  const Ballot& ballot = c.arts.voter_ballots[1];
  const Bytes& code = ballot.parts[0].lines[0].vote_code;
  c.scripted[0]->endorse_delay = 500'000;
  c.scripted[1]->forged_endorsements = 20;
  c.scripted[1]->disclose = false;
  c.voter->send_to(0, VoteMsg{ballot.serial, code}.encode());
  c.sim.start();
  c.sim.run_until(2'000'000);
  ASSERT_EQ(c.voter->replies.size(), 1u);
  EXPECT_EQ(c.voter->replies[0].second.status, VoteReplyStatus::kOk);
  EXPECT_EQ(c.voter->replies[0].second.receipt, ballot.parts[0].lines[0].receipt);
  EXPECT_EQ(c.signature_checks(0), 4u);
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
