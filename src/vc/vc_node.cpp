#include "vc/vc_node.hpp"

#include <algorithm>

#include "crypto/batch.hpp"
#include "crypto/commit.hpp"
#include "crypto/schnorr.hpp"
#include "ea/ea.hpp"
#include "sim/cost_table.hpp"
#include "util/error.hpp"

namespace ddemos::vc {

using namespace core;
using sim::NodeId;

namespace {
// ANNOUNCE and BB-push entries per message, and the RECOVER retry period.
constexpr std::size_t kAnnounceChunk = 2048;
constexpr std::size_t kPushChunk = 2048;
constexpr sim::Duration kRecoverRetryUs = 500'000;

net::Buffer encode_shard_drain(std::size_t shard) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kShardDrain));
  w.u64(shard);
  return w.take();
}
net::Buffer encode_shard_barrier() {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kShardBarrier));
  return w.take();
}
}  // namespace

VcNode::VcNode(VcInit init, std::shared_ptr<store::BallotDataSource> source,
               std::vector<NodeId> vc_ids, std::vector<NodeId> bb_ids,
               Options options)
    : init_(std::move(init)),
      source_(std::move(source)),
      vc_ids_(std::move(vc_ids)),
      bb_ids_(std::move(bb_ids)),
      opt_(options),
      vc_keys_(crypto::decode_schnorr_keys(init_.vc_public_keys)),
      signing_key_(crypto::schnorr_keypair(init_.signing_key)) {
  if (vc_ids_.size() != init_.params.n_vc) {
    throw ProtocolError("VcNode: vc id list size mismatch");
  }
  if (opt_.n_shards == 0) {
    throw ProtocolError("VcNode: n_shards must be >= 1");
  }
  announce_done_ = Bitmap(init_.params.n_vc);
  n_ballots_ = source_->size();
  if (n_ballots_ > 0) {
    first_serial_ = source_->serial_at(0);
    // Shard routing runs on sender threads and must map serial -> shard in
    // O(1) without touching the (stateful) ballot source, and the dense
    // state vectors are indexed by serial - first serial. Refuse a gapped
    // serial set loudly instead of mis-addressing ballots.
    if (source_->serial_at(n_ballots_ - 1) != first_serial_ + n_ballots_ - 1) {
      throw ProtocolError(
          "VcNode: vote collection requires contiguous serials; this ballot "
          "source has gaps");
    }
  }
  states_.resize(n_ballots_);
  endorse_states_.resize(n_ballots_);
  shard_slots_.resize(opt_.n_shards);
}

// --- Durability (write-ahead log) -------------------------------------------
// Per-ballot payloads are keyed by dense instance index, not serial: replay
// addresses states_ directly and the index is stable because the EA issues
// the same ballot set to every incarnation of a node.

namespace {
void encode_ballot_core(Writer& w, std::size_t instance, BytesView code,
                        std::uint8_t part, std::uint32_t line,
                        const Ucert& ucert) {
  w.u64(instance);
  w.bytes(code);
  w.u8(part);
  w.u32(line);
  ucert.encode(w);
}
}  // namespace

void VcNode::attach_wal(std::unique_ptr<store::Wal> wal) {
  wal_ = std::move(wal);
  wal_->replay([this](std::uint8_t type, BytesView payload) {
    wal_replay_record(type, payload);
  });
}

void VcNode::wal_log_ucert(std::size_t instance, const BallotState& st) {
  if (!wal_) return;
  Writer w;
  encode_ballot_core(w, instance, st.code, st.part, st.line, st.ucert);
  wal_->append(kWalPending, w.take());
}

void VcNode::wal_log_cast(std::size_t instance, const BallotState& st) {
  if (!wal_) return;
  Writer w;
  encode_ballot_core(w, instance, st.code, st.part, st.line, st.ucert);
  w.u64(st.receipt);
  wal_->append(kWalCast, w.take());
}

void VcNode::wal_snapshot_state() {
  if (!wal_) return;
  // Dense blob, one entry per registered ballot: by announce time most
  // ballots carry state, so sparseness would not pay for its indirection.
  Writer w;
  w.u64(n_ballots_);
  for (const BallotState& st : states_) {
    w.u8(static_cast<std::uint8_t>(st.status));
    if (st.status == BallotStatus::kNotVoted) continue;
    w.bytes(st.code);
    w.u8(st.part);
    w.u32(st.line);
    w.u64(st.receipt);
    st.ucert.encode(w);
  }
  wal_->snapshot(kWalSnapshot, w.take());
}

void VcNode::wal_replay_record(std::uint8_t type, BytesView payload) {
  try {
    Reader r(payload);
    switch (type) {
      case kWalPending:
      case kWalCast: {
        std::size_t instance = r.u64();
        if (instance >= n_ballots_) break;
        BallotState& st = states_[instance];
        st.code = r.bytes();
        st.part = r.u8();
        st.line = r.u32();
        st.ucert = Ucert::decode(r);
        if (type == kWalCast) {
          st.receipt = r.u64();
          st.status = BallotStatus::kVoted;
          // The VOTE_P multicast happened before the cast record; if it
          // was lost with the crash, peers recover through announce.
          st.vote_p_sent = true;
        } else if (st.status == BallotStatus::kNotVoted) {
          st.status = BallotStatus::kPending;
        }
        break;
      }
      case kWalSnapshot: {
        std::size_t n = r.u64();
        replayed_announce_ = true;
        if (n != n_ballots_) {
          throw store::WalError(wal_->path() +
                                ": snapshot ballot count mismatch");
        }
        for (std::size_t i = 0; i < n; ++i) {
          BallotState& st = states_[i];
          st = BallotState{};
          st.status = static_cast<BallotStatus>(r.u8());
          if (st.status == BallotStatus::kNotVoted) continue;
          st.code = r.bytes();
          st.part = r.u8();
          st.line = r.u32();
          st.receipt = r.u64();
          st.ucert = Ucert::decode(r);
          st.vote_p_sent = true;
        }
        break;
      }
      case kWalDecided:
        decisions_ = Bitmap::decode(r);
        replayed_decided_ = decisions_.size() == n_ballots_;
        break;
      case kWalPushed:
        replayed_pushed_ = true;
        break;
      default:
        break;  // newer record type from a future version: ignore
    }
  } catch (const CodecError&) {
    // A record that frames correctly (CRC passed) but no longer decodes
    // is a format skew, not disk damage; fail closed like corruption.
    throw store::WalError(wal_->path() + ": undecodable WAL record");
  }
}

void VcNode::on_start() {
  // Crash-recovery continuation: a restarted node resumes from the latest
  // phase boundary its log reached instead of re-voting from scratch.
  if (replayed_decided_) {
    phase_ = Phase::kRecovery;
    stats_.voting_ended_at = ctx().now();
    stats_.consensus_done_at = ctx().now();
    recover_needed_ = Bitmap(n_ballots_);
    if (!replayed_pushed_) {
      for (std::size_t i = 0; i < n_ballots_; ++i) {
        if (decisions_.get(i) && states_[i].status == BallotStatus::kNotVoted)
          recover_needed_.set(i);
      }
    }
    if (recover_needed_.any()) {
      send_recover_request();
    } else {
      push_to_bb();  // re-push is safe: BBs ignore writes once accepted
    }
    return;
  }
  if (replayed_announce_) {
    // Died inside the announce/consensus window: re-announce and restart
    // our consensus instance over the snapshotted ballot state. Peers that
    // already finished ignore the late announce; the vote-set push of the
    // f+1 surviving collectors carries the election either way.
    begin_vote_set_consensus();
    return;
  }
  sim::Duration until_end = init_.params.t_end - ctx().now();
  end_timer_ = ctx().set_timer(std::max<sim::Duration>(until_end, 0));
}

std::size_t VcNode::shard_of_serial(Serial serial) const {
  auto inst = instance_of(serial);
  // Unknown serial: rejected on the control shard.
  return inst ? *inst % opt_.n_shards : 0;
}

std::size_t VcNode::shard_after_type(MsgType type, Reader r) const {
  try {
    switch (type) {
      case MsgType::kVote:
      case MsgType::kEndorse:
      case MsgType::kEndorsement:
      case MsgType::kVoteP:
        // The serial is the first field of every per-ballot message.
        return shard_of_serial(r.u64());
      case MsgType::kShardDrain:
        return std::min<std::size_t>(r.u64(), opt_.n_shards - 1);
      default:
        return 0;  // announce/consensus/recovery/control: control shard
    }
  } catch (const CodecError&) {
    return 0;  // malformed: let the control shard drop it
  }
}

std::size_t VcNode::shard_of(NodeId /*from*/,
                             const net::Buffer& payload) const {
  try {
    Reader r(payload.view());
    auto type = static_cast<MsgType>(r.u8());
    return shard_after_type(type, r);
  } catch (const CodecError&) {
    return 0;  // empty payload: let the control shard drop it
  }
}

void VcNode::multicast_vc(const net::Buffer& msg) {
  for (NodeId id : vc_ids_) ctx().send(id, msg);
}

std::optional<std::size_t> VcNode::vc_index_of(NodeId id) const {
  for (std::size_t i = 0; i < vc_ids_.size(); ++i) {
    if (vc_ids_[i] == id) return i;
  }
  return std::nullopt;
}

bool VcNode::within_hours() const {
  return ctx().now() >= init_.params.t_start &&
         ctx().now() < init_.params.t_end;
}

std::optional<std::size_t> VcNode::instance_of(Serial serial) const {
  if (serial < first_serial_ || serial >= first_serial_ + n_ballots_) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(serial - first_serial_);
}

VcStats VcNode::stats() const {
  VcStats s = stats_;
  for (const ShardSlot& slot : shard_slots_) {
    s.votes_received += slot.stats.votes_received;
    s.receipts_issued += slot.stats.receipts_issued;
    s.rejected_votes += slot.stats.rejected_votes;
  }
  return s;
}

std::vector<VcShardStats> VcNode::shard_stats() const {
  std::vector<VcShardStats> out;
  out.reserve(shard_slots_.size());
  for (const ShardSlot& slot : shard_slots_) out.push_back(slot.stats);
  return out;
}

std::optional<std::pair<std::uint8_t, std::uint32_t>> VcNode::verify_vote_code(
    const VcBallotInit& ballot, BytesView code) {
  for (std::uint8_t part = 0; part < kNumParts; ++part) {
    const auto& lines = ballot.parts[part];
    for (std::uint32_t l = 0; l < lines.size(); ++l) {
      if (crypto::salted_commit_check(lines[l].code_hash, code,
                                      lines[l].salt)) {
        return std::pair{part, l};
      }
    }
  }
  return std::nullopt;
}

bool VcNode::verify_receipt_share(const VcBallotInit& ballot,
                                  std::uint8_t part, std::uint32_t line,
                                  const crypto::Share& share,
                                  std::span<const crypto::Hash32> path) {
  if (part >= kNumParts || line >= ballot.parts[part].size()) return false;
  if (share.x == 0 || share.x > init_.params.n_vc) return false;
  const VcLineInit& li = ballot.parts[part][line];
  return crypto::MerkleTree::verify(li.share_root, ea::share_leaf(share),
                                    share.x - 1, path);
}

bool VcNode::verify_ucert(Serial serial, const Ucert& ucert) {
  VcShardStats& ss = stats_for(serial);
  ++ss.signature_batches;
  std::size_t singles = 0;
  bool ok = ucert.valid(init_.params.election_id, serial, vc_keys_,
                        init_.params.vc_quorum(), &singles);
  ss.signature_checks += singles;
  charge_signature_checks(init_.params.vc_quorum(), singles);
  return ok;
}

void VcNode::charge_signature_checks(std::size_t batched,
                                     std::size_t singles) {
  ctx().charge(sim::cost::kSchnorrBatchPerSig *
                   static_cast<sim::Duration>(batched) +
               sim::cost::kSchnorrVerify * static_cast<sim::Duration>(singles));
}

Bytes VcNode::sign_endorsement(Serial serial, BytesView code) {
  ctx().charge(sim::cost::kSchnorrSign);
  return crypto::schnorr_sign(
      signing_key_, endorsement_digest(init_.params.election_id, serial, code));
}

const VcBallotInit* VcNode::find_ballot(Serial serial, VcBallotInit& buf) {
  std::uint64_t before = source_->page_faults();
  const VcBallotInit* ballot = source_->find(serial, buf);
  ctx().charge(static_cast<sim::Duration>(source_->page_faults() - before) *
               sim::cost::kPageFault);
  return ballot;
}

void VcNode::on_message(NodeId from, const net::Buffer& payload) {
  ctx().charge(sim::cost::kVcMessage);
  try {
    Reader r(payload.view());
    auto type = static_cast<MsgType>(r.u8());
    // on_message is already running on the shard this payload routes to;
    // recompute the slot for the bookkeeping (one u64 peek, the type byte
    // is already parsed; Reader is passed by value so r stays positioned).
    ++shard_slots_[shard_after_type(type, r)].stats.handled_messages;
    switch (type) {
      case MsgType::kVote:
        handle_vote(from, r);
        break;
      case MsgType::kEndorse:
        handle_endorse(from, r);
        break;
      case MsgType::kEndorsement:
        handle_endorsement(from, r);
        break;
      case MsgType::kVoteP:
        handle_vote_p(from, r);
        break;
      case MsgType::kAnnounce:
        handle_announce(from, r);
        break;
      case MsgType::kRecoverRequest:
        handle_recover_request(from, r);
        break;
      case MsgType::kRecoverResponse:
        handle_recover_response(from, r);
        break;
      case MsgType::kShardDrain:
        handle_shard_drain(from, r);
        break;
      case MsgType::kShardBarrier:
        handle_shard_barrier(from, r);
        break;
      case MsgType::kConsensus: {
        auto idx = vc_index_of(from);
        if (!idx) break;
        if (!consensus_started_) {
          // A faster peer reached vote-set consensus before our election-end
          // timer fired (clock drift): keep the payload handle (no byte
          // copy) until we join.
          queued_consensus_.emplace_back(*idx, payload);
        } else {
          // Zero-copy: the view aliases `payload`, which stays alive for
          // the whole handler invocation.
          consensus_->on_message(*idx, unwrap_consensus(r));
        }
        break;
      }
      default:
        break;  // not addressed to a VC node
    }
  } catch (const CodecError&) {
    // Malformed input from the network: drop.
  }
}

// --- Voting protocol (Algorithm 1) ----------------------------------------

void VcNode::handle_vote(NodeId from, Reader& r) {
  VoteMsg m = VoteMsg::decode(r);
  VcShardStats& ss = stats_for(m.serial);
  ++ss.votes_received;
  auto reply = [&](VoteReplyStatus status, std::uint64_t receipt = 0) {
    if (status != VoteReplyStatus::kOk) ++ss.rejected_votes;
    ctx().send(from,
               VoteReplyMsg{m.serial, status, receipt}.encode());
  };
  if (phase_ != Phase::kVoting || !within_hours()) {
    reply(VoteReplyStatus::kOutsideHours);
    return;
  }
  auto inst = instance_of(m.serial);
  if (!inst) {
    reply(VoteReplyStatus::kUnknown);
    return;
  }
  VcBallotInit buf;
  const VcBallotInit* ballot = find_ballot(m.serial, buf);
  if (!ballot) {
    reply(VoteReplyStatus::kUnknown);
    return;
  }
  BallotState& st = state_at(*inst);
  if (st.status == BallotStatus::kVoted) {
    if (st.code == m.vote_code) {
      ++ss.receipts_issued;
      reply(VoteReplyStatus::kOk, st.receipt);
    } else {
      reply(VoteReplyStatus::kAlreadyVoted);
    }
    return;
  }
  if (st.status == BallotStatus::kPending) {
    if (st.code == m.vote_code) {
      st.waiters.push_back(from);  // receipt follows on reconstruction
    } else {
      reply(VoteReplyStatus::kAlreadyVoted);
    }
    return;
  }
  auto loc = verify_vote_code(*ballot, m.vote_code);
  if (!loc) {
    reply(VoteReplyStatus::kUnknown);
    return;
  }
  // Become the responder: gather endorsements for a uniqueness certificate.
  EndorseState& es = endorse_states_[*inst];
  if (!es.active) {
    es.active = true;
    es.code = m.vote_code;
    es.part = loc->first;
    es.line = loc->second;
  } else if (es.code != m.vote_code) {
    // We already started endorsing a different code for this ballot.
    reply(VoteReplyStatus::kAlreadyVoted);
    return;
  }
  st.waiters.push_back(from);
  multicast_vc(EndorseMsg{m.serial, m.vote_code}.encode());
}

void VcNode::handle_endorse(NodeId from, Reader& r) {
  EndorseMsg m = EndorseMsg::decode(r);
  if (phase_ != Phase::kVoting) return;
  auto sender = vc_index_of(from);
  if (!sender) return;
  auto inst = instance_of(m.serial);
  if (!inst) return;
  VcBallotInit buf;
  const VcBallotInit* ballot = find_ballot(m.serial, buf);
  if (!ballot || !verify_vote_code(*ballot, m.vote_code)) return;
  // Endorse at most one vote code per ballot, ever.
  BallotState& st = state_at(*inst);
  if (st.status != BallotStatus::kNotVoted && st.code != m.vote_code) return;
  EndorseState& es = endorse_states_[*inst];
  if (!es.active) {
    es.active = true;
    es.code = m.vote_code;
  } else if (es.code != m.vote_code) {
    return;  // already endorsed a different code
  }
  Bytes sig = sign_endorsement(m.serial, m.vote_code);
  ++stats_for(m.serial).endorsements_signed;
  ctx().send(from, EndorsementMsg{m.serial, m.vote_code,
                                  static_cast<std::uint32_t>(init_.node_index),
                                  std::move(sig)}
                       .encode());
}

void VcNode::handle_endorsement(NodeId from, Reader& r) {
  EndorsementMsg m = EndorsementMsg::decode(r);
  if (phase_ != Phase::kVoting) return;
  auto sender = vc_index_of(from);
  if (!sender || m.node_index != *sender) return;
  auto inst = instance_of(m.serial);
  if (!inst) return;
  EndorseState& es = endorse_states_[*inst];
  if (!es.active || es.ucert_formed) return;
  if (es.code != m.vote_code) return;
  Endorsement& e = es.sigs[m.node_index];
  // A failed signer is not checked again; a good one has nothing to add.
  if (e.check != SigCheck::kUnchecked) return;
  e.sig = std::move(m.signature);
  if (!endorsement_quorum(m.serial, es)) return;

  // UCERT formed: mark pending and disclose our receipt share.
  es.ucert_formed = true;
  BallotState& st = state_at(*inst);
  if (st.status == BallotStatus::kNotVoted) {
    st.status = BallotStatus::kPending;
    st.code = es.code;
    st.part = es.part;
    st.line = es.line;
  }
  st.ucert.vote_code = es.code;
  st.ucert.signatures.clear();
  for (auto& [idx, e] : es.sigs) {
    if (e.check == SigCheck::kGood) {
      st.ucert.signatures.emplace_back(idx, std::move(e.sig));
    }
  }
  es.sigs.clear();  // ucert_formed stops every later endorsement
  wal_log_ucert(*inst, st);
  send_own_vote_p(m.serial, st);
}

bool VcNode::endorsement_quorum(Serial serial, EndorseState& es) {
  const std::size_t quorum = init_.params.vc_quorum();
  std::size_t live = 0;
  for (const auto& [idx, e] : es.sigs) live += e.check != SigCheck::kBad;
  if (live < quorum) return false;
  VcShardStats& ss = stats_for(serial);
  ++ss.signature_batches;
  Bytes digest = endorsement_digest(init_.params.election_id, serial, es.code);
  std::vector<Endorsement*> pending;
  std::vector<crypto::SchnorrKeyedInstance> batch;
  for (auto& [idx, e] : es.sigs) {
    if (e.check != SigCheck::kUnchecked) continue;
    pending.push_back(&e);
    batch.push_back({&vc_keys_[idx], digest, e.sig});
  }
  bool all_good = crypto::schnorr_verify_batch_keyed(batch);
  std::size_t good = live - pending.size();
  std::size_t singles = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    bool ok = all_good;
    if (!ok) {
      ++singles;
      ok = crypto::schnorr_verify(*batch[i].key, digest, batch[i].sig);
    }
    pending[i]->check = ok ? SigCheck::kGood : SigCheck::kBad;
    good += ok;
  }
  ss.signature_checks += singles;
  charge_signature_checks(pending.size(), singles);
  return good >= quorum;
}

void VcNode::send_own_vote_p(Serial serial, BallotState& st) {
  if (st.vote_p_sent) return;
  VcBallotInit buf;
  const VcBallotInit* ballot = find_ballot(serial, buf);
  if (!ballot) return;
  const VcLineInit& li = ballot->parts[st.part][st.line];
  st.vote_p_sent = true;
  st.shares[li.receipt_share.x] = li.receipt_share;
  VotePMsg vp;
  vp.serial = serial;
  vp.vote_code = st.code;
  vp.part = st.part;
  vp.line = st.line;
  vp.receipt_share = li.receipt_share;
  vp.share_path = li.share_path;
  vp.ucert = st.ucert;
  multicast_vc(vp.encode());
  complete_vote(serial, st);
}

void VcNode::handle_vote_p(NodeId from, Reader& r) {
  VotePMsg m = VotePMsg::decode(r);
  if (phase_ != Phase::kVoting) return;
  if (!vc_index_of(from)) return;
  if (m.ucert.vote_code != m.vote_code) return;
  auto inst = instance_of(m.serial);
  if (!inst) return;
  BallotState& st = state_at(*inst);
  // The receipt is already reconstructed: another share adds nothing.
  if (st.status == BallotStatus::kVoted) return;
  // A collector that holds a UCERT for this code (formed here, checked on
  // an earlier VOTE_P, or restored from its log) learns nothing from
  // another one: only the receipt share below is checked. A certificate
  // for a different code than the held one cannot exist while at most fv
  // collectors are faulty, so that VOTE_P is dropped unchecked.
  if (st.status == BallotStatus::kPending) {
    if (st.code != m.vote_code) return;
  } else if (!verify_ucert(m.serial, m.ucert)) {
    return;
  }
  VcBallotInit buf;
  const VcBallotInit* ballot = find_ballot(m.serial, buf);
  if (!ballot) return;
  // The sender claims (part, line); verify the code actually hashes there.
  if (m.part >= kNumParts ||
      m.line >= ballot->parts[m.part].size()) {
    return;
  }
  const VcLineInit& li = ballot->parts[m.part][m.line];
  if (!crypto::salted_commit_check(li.code_hash, m.vote_code, li.salt)) {
    return;
  }
  if (!verify_receipt_share(*ballot, m.part, m.line, m.receipt_share,
                            m.share_path)) {
    return;
  }
  if (st.status == BallotStatus::kNotVoted) {
    st.status = BallotStatus::kPending;
    st.code = m.vote_code;
    st.part = m.part;
    st.line = m.line;
    st.ucert = m.ucert;
    wal_log_ucert(*inst, st);
  }
  st.shares[m.receipt_share.x] = m.receipt_share;
  if (!st.vote_p_sent) send_own_vote_p(m.serial, st);
  complete_vote(m.serial, st);
}

void VcNode::complete_vote(Serial serial, BallotState& st) {
  if (st.status == BallotStatus::kVoted) return;
  if (st.shares.size() < init_.params.vc_quorum()) return;
  std::vector<crypto::Share> shares;
  shares.reserve(st.shares.size());
  for (const auto& [x, s] : st.shares) shares.push_back(s);
  crypto::Fn secret =
      crypto::shamir_reconstruct(shares, init_.params.vc_quorum());
  Bytes be = secret.to_bytes_be();
  std::uint64_t receipt = 0;
  for (int i = 24; i < 32; ++i) receipt = receipt << 8 | be[static_cast<std::size_t>(i)];
  st.receipt = receipt;
  st.status = BallotStatus::kVoted;
  st.shares.clear();  // only reconstruction needs them
  // Log before the receipt leaves the node: under FsyncPolicy::kAlways an
  // issued receipt is durable, so a restarted collector re-serves the
  // exact same receipt to a resubmitting voter.
  if (wal_) {
    if (auto inst = instance_of(serial)) wal_log_cast(*inst, st);
  }
  if (!st.waiters.empty()) {
    net::Buffer reply =
        VoteReplyMsg{serial, VoteReplyStatus::kOk, receipt}.encode();
    VcShardStats& ss = stats_for(serial);
    for (NodeId voter : st.waiters) {
      ++ss.receipts_issued;
      ctx().send(voter, reply);
    }
    st.waiters.clear();
    st.waiters.shrink_to_fit();
  }
}

// --- Vote-set consensus ------------------------------------------------------

void VcNode::on_timer(std::uint64_t token) {
  if (token == end_timer_ && phase_ == Phase::kVoting) {
    start_shard_drain();
  } else if (token == recover_timer_ && phase_ == Phase::kRecovery) {
    send_recover_request();  // retry lost requests
  }
}

// --- Shard fan-in barrier ---------------------------------------------------
// Election end: flip the phase so per-ballot handlers reject from
// here on, then post one drain loopback per shard. Shard mailboxes are
// FIFO, so by the time shard k handles its drain, every voting-phase
// handler enqueued to k before election end has retired; the shard that
// completes the fan-in posts the barrier message back to the control
// shard, which then owns every slice exclusively (handlers on other shards
// observe the phase flip and no longer mutate).

void VcNode::start_shard_drain() {
  phase_ = Phase::kDraining;
  stats_.voting_ended_at = ctx().now();
  for (std::size_t s = 0; s < opt_.n_shards; ++s) {
    ctx().send_self(encode_shard_drain(s));
  }
}

void VcNode::handle_shard_drain(NodeId from, Reader& r) {
  r.u64();  // target shard: consumed by shard_of routing
  // Internal coordination: accept only our own loopback (a peer forging
  // kShardDrain must not be able to trip the barrier early).
  if (from != ctx().self()) return;
  if (phase_ != Phase::kDraining) return;
  // acq_rel: publishes this shard's ballot-state writes to whichever
  // shard observes the final count (and, through it, the control shard).
  if (drained_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      opt_.n_shards) {
    ctx().send_self(encode_shard_barrier());
  }
}

void VcNode::handle_shard_barrier(NodeId from, Reader&) {
  if (from != ctx().self()) return;
  if (phase_ != Phase::kDraining) return;
  // All shards quiesced: the control shard may now read and mutate every
  // slice. Adopt the certified entries buffered during voting/draining
  // first so they make it into our announce and consensus input.
  for (const AnnounceEntry& e : pending_adopts_) adopt_entry(e);
  pending_adopts_.clear();
  begin_vote_set_consensus();
}

void VcNode::begin_vote_set_consensus() {
  phase_ = Phase::kAnnounce;
  if (stats_.voting_ended_at == 0) stats_.voting_ended_at = ctx().now();
  consensus_input_ = Bitmap(n_ballots_);
  recover_needed_ = Bitmap(n_ballots_);
  // Phase boundary: every per-ballot record collapses into one durable
  // snapshot (the announce scan below reads exactly this state).
  wal_snapshot_state();

  // ANNOUNCE: disperse every certified vote code we know.
  std::vector<AnnounceEntry> entries = certified_entries(nullptr);
  for (std::size_t off = 0; off < entries.size(); off += kAnnounceChunk) {
    AnnounceMsg msg;
    std::size_t end = std::min(entries.size(), off + kAnnounceChunk);
    msg.entries.assign(entries.begin() + static_cast<std::ptrdiff_t>(off),
                       entries.begin() + static_cast<std::ptrdiff_t>(end));
    msg.last_chunk = end == entries.size();
    multicast_vc(msg.encode());
  }
  if (entries.empty()) {
    multicast_vc(AnnounceMsg{{}, true}.encode());
  }

  // Prepare the batched consensus engine.
  consensus::ConsensusConfig ccfg;
  ccfg.nodes = init_.params.n_vc;
  ccfg.faults = init_.params.f_vc;
  ccfg.instances = n_ballots_;
  ccfg.self_index = init_.node_index;
  ccfg.max_rounds = init_.coin_roots.size();
  consensus_ = std::make_unique<consensus::BatchBinaryConsensus>(
      ccfg, init_.coin_shares, init_.coin_roots,
      consensus::BatchBinaryConsensus::Hooks{
          [this](Bytes msg) { multicast_vc(wrap_consensus(msg)); },
          nullptr,
          [this] { on_consensus_complete(); }});
}

void VcNode::handle_announce(NodeId from, Reader& r) {
  AnnounceMsg m = AnnounceMsg::decode(r);
  auto sender = vc_index_of(from);
  if (!sender) return;
  // Announces from faster peers may arrive while we are still in the
  // voting phase (bounded clock drift). Adoption then would mutate slices
  // shards are still voting on, so entries are buffered until the fan-in
  // barrier hands the control shard exclusive ownership.
  if (phase_ == Phase::kVoting || phase_ == Phase::kDraining) {
    for (AnnounceEntry& e : m.entries) pending_adopts_.push_back(std::move(e));
  } else {
    for (const AnnounceEntry& e : m.entries) adopt_entry(e);
  }
  if (m.last_chunk && !announce_done_.get(*sender)) {
    announce_done_.set(*sender);
    maybe_start_consensus();
  }
}

void VcNode::adopt_entry(const AnnounceEntry& e) {
  if (e.instance >= n_ballots_) return;
  Serial serial = first_serial_ + e.instance;
  BallotState& st = state_at(e.instance);
  if (st.status != BallotStatus::kNotVoted) return;  // already known
  if (e.ucert.vote_code != e.vote_code) return;
  if (!verify_ucert(serial, e.ucert)) return;
  st.status = BallotStatus::kPending;
  st.code = e.vote_code;
  st.ucert = e.ucert;
  // Locate part/line for completeness (not on the critical path here).
  VcBallotInit buf;
  const VcBallotInit* ballot = find_ballot(serial, buf);
  if (ballot) {
    if (auto loc = verify_vote_code(*ballot, e.vote_code)) {
      st.part = loc->first;
      st.line = loc->second;
    }
  }
  wal_log_ucert(e.instance, st);
}

void VcNode::maybe_start_consensus() {
  if (consensus_started_ || phase_ != Phase::kAnnounce) return;
  if (announce_done_.count() < init_.params.vc_quorum()) return;
  phase_ = Phase::kConsensus;
  consensus_started_ = true;
  for (std::size_t i = 0; i < n_ballots_; ++i) {
    if (states_[i].status != BallotStatus::kNotVoted) {
      consensus_input_.set(i);
    }
  }
  consensus_->start(consensus_input_);
  for (auto& [idx, buffered] : queued_consensus_) {
    Reader r(buffered.view());
    r.u8();  // MsgType::kConsensus, validated on arrival
    consensus_->on_message(idx, unwrap_consensus(r));
  }
  queued_consensus_.clear();
}

void VcNode::on_consensus_complete() {
  phase_ = Phase::kRecovery;
  stats_.consensus_done_at = ctx().now();
  // Copied out of the engine: recovery and the push read the member so a
  // restarted node (which has no engine) takes the identical code path.
  decisions_ = consensus_->decisions();
  if (wal_) {
    Writer w;
    decisions_.encode(w);
    wal_->append(kWalDecided, w.take());
    wal_->sync();  // a decision is irrevocable; never lose it to a crash
  }
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    if (!decisions_.get(i)) continue;
    if (states_[i].status == BallotStatus::kNotVoted) {
      recover_needed_.set(i);
    }
  }
  if (recover_needed_.any()) {
    send_recover_request();
  } else {
    push_to_bb();
  }
}

std::vector<AnnounceEntry> VcNode::certified_entries(const Bitmap* only) const {
  // The state table is dense by instance index: one linear scan.
  std::vector<AnnounceEntry> entries;
  for (std::size_t i = 0; i < n_ballots_; ++i) {
    if (only && !only->get(i)) continue;
    const BallotState& st = states_[i];
    if (st.status == BallotStatus::kNotVoted || st.ucert.signatures.empty()) {
      continue;
    }
    entries.push_back(AnnounceEntry{i, st.code, st.ucert});
  }
  return entries;
}

void VcNode::send_recover_request() {
  if (!recover_needed_.any()) return;
  multicast_vc(RecoverRequestMsg{recover_needed_}.encode());
  recover_timer_ = ctx().set_timer(kRecoverRetryUs);
}

void VcNode::handle_recover_request(NodeId from, Reader& r) {
  RecoverRequestMsg m = RecoverRequestMsg::decode(r);
  if (!vc_index_of(from)) return;
  if (m.instances.size() != n_ballots_) return;
  // Still voting: answering would scan slices shards are mutating. Drop —
  // the requesting peer retries on its recover timer and will be answered
  // once this node passes its own barrier.
  if (phase_ == Phase::kVoting || phase_ == Phase::kDraining) return;
  RecoverResponseMsg resp{certified_entries(&m.instances)};
  if (!resp.entries.empty()) ctx().send(from, resp.encode());
}

void VcNode::handle_recover_response(NodeId from, Reader& r) {
  RecoverResponseMsg m = RecoverResponseMsg::decode(r);
  if (!vc_index_of(from) || phase_ != Phase::kRecovery) return;
  for (const AnnounceEntry& e : m.entries) {
    if (e.instance >= recover_needed_.size() ||
        !recover_needed_.get(e.instance)) {
      continue;
    }
    adopt_entry(e);
    if (states_[e.instance].status != BallotStatus::kNotVoted) {
      recover_needed_.set(e.instance, false);
    }
  }
  maybe_finish_recovery();
}

void VcNode::maybe_finish_recovery() {
  if (phase_ == Phase::kRecovery && !recover_needed_.any()) push_to_bb();
}

void VcNode::push_to_bb() {
  phase_ = Phase::kPush;
  // Logged before the first send: a crash anywhere inside the push makes
  // the restarted node re-push the whole set. Duplicate chunks can spoil
  // this node's own BB submission buffer, but BB acceptance needs only
  // f+1 matching collectors and ignores all writes once accepted.
  if (wal_) {
    wal_->append(kWalPushed, {});
    wal_->sync();
  }
  final_set_.clear();
  for (std::size_t i = 0; i < decisions_.size(); ++i) {
    if (!decisions_.get(i)) continue;
    final_set_.push_back(VoteSetEntry{first_serial_ + i, states_[i].code});
  }
  // Entries are in ascending serial order by construction.
  crypto::Hash32 h = vote_set_hash(final_set_);
  // Pre-encode every BB message once; the per-BB loop only copies handles.
  std::vector<net::Buffer> chunks;
  for (std::size_t off = 0; off < final_set_.size(); off += kPushChunk) {
    VoteSetChunkMsg chunk;
    std::size_t end = std::min(final_set_.size(), off + kPushChunk);
    chunk.entries.assign(
        final_set_.begin() + static_cast<std::ptrdiff_t>(off),
        final_set_.begin() + static_cast<std::ptrdiff_t>(end));
    chunks.emplace_back(chunk.encode());
  }
  net::Buffer done = VoteSetDoneMsg{final_set_.size(), h}.encode();
  net::Buffer msk = MskShareMsg{init_.msk_share, init_.msk_share_path}
                        .encode();
  for (NodeId bb : bb_ids_) {
    for (const net::Buffer& chunk : chunks) ctx().send(bb, chunk);
    ctx().send(bb, done);
    ctx().send(bb, msk);
  }
  phase_ = Phase::kDone;
  stats_.push_done_at = ctx().now();
}

}  // namespace ddemos::vc
