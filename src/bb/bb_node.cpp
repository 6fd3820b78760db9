#include "bb/bb_node.hpp"

#include <algorithm>

#include "crypto/batch.hpp"
#include "crypto/commit.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/shamir.hpp"
#include "ea/ea.hpp"
#include "sim/cost_table.hpp"
#include "util/error.hpp"

namespace ddemos::bb {

using namespace core;
using sim::NodeId;

namespace {

std::uint64_t scalar_to_u64(const crypto::Fn& s) {
  Bytes be = s.to_bytes_be();
  std::uint64_t v = 0;
  for (int i = 24; i < 32; ++i) {
    v = v << 8 | be[static_cast<std::size_t>(i)];
  }
  return v;
}

// The part whose ZK proofs the trustees complete; the others are opened.
bool is_used(const PublishedBallot& pb, std::size_t part) {
  return pb.voted && pb.used_part == part;
}

// A ballot's trustee shares come in a fixed slot order: for the used part,
// per line, the four bit-proof responses (c0, c1, z0, z1) of each option
// and then the sum-proof response; for an opened part, per line, the
// (message, randomness) opening pair of each option. A response's
// commitment is u + challenge * v over the (u, v) polynomial pair the EA
// committed; an opening's is the committed polynomial alone.
// Returns the ballot's commitment slots, or nullopt if its EA data has the
// wrong shape (then no trustee dataset can match it).
std::optional<std::vector<crypto::VssSlot>> ballot_slots(
    const BbBallotInit& ballot, const PublishedBallot& pb, std::size_t m) {
  std::vector<crypto::VssSlot> slots;
  for (std::size_t part = 0; part < kNumParts; ++part) {
    for (const BbLineInit& line : ballot.parts[part]) {
      if (is_used(pb, part)) {
        const auto& zc = line.zk_comms;
        if (zc.size() != 8 * m + 2) return std::nullopt;
        for (std::size_t i = 0; i < 4 * m + 1; ++i) {
          slots.push_back({zc[2 * i], zc[2 * i + 1]});
        }
      } else {
        if (line.opening_comms.size() != 2 * m) return std::nullopt;
        for (const auto& comms : line.opening_comms) {
          slots.push_back({comms, {}});
        }
      }
    }
  }
  return slots;
}

// A trustee dataset's shares in slot order, or nullopt if its shape does
// not match the ballot's.
std::optional<std::vector<crypto::PedersenShare>> dataset_shares(
    const TrusteeBallotMsg& msg, const BbBallotInit& ballot,
    const PublishedBallot& pb, std::size_t m) {
  if ((msg.voted != 0) != pb.voted) return std::nullopt;
  if (pb.voted && msg.used_part != pb.used_part) return std::nullopt;
  std::vector<crypto::PedersenShare> shares;
  for (std::size_t part = 0; part < kNumParts; ++part) {
    const TrusteePartData& pd = msg.parts[part];
    const std::size_t n_lines = ballot.parts[part].size();
    if (is_used(pb, part)) {
      if (pd.zk_bits.size() != n_lines || pd.zk_sum.size() != n_lines) {
        return std::nullopt;
      }
      for (std::size_t l = 0; l < n_lines; ++l) {
        if (pd.zk_bits[l].size() != m) return std::nullopt;
        for (const auto& resp : pd.zk_bits[l]) {
          shares.insert(shares.end(), resp.begin(), resp.end());
        }
        shares.push_back(pd.zk_sum[l]);
      }
    } else {
      if (pd.openings.size() != n_lines) return std::nullopt;
      for (std::size_t l = 0; l < n_lines; ++l) {
        if (pd.openings[l].size() != m) return std::nullopt;
        for (const auto& [ms, rs] : pd.openings[l]) {
          shares.push_back(ms);
          shares.push_back(rs);
        }
      }
    }
  }
  return shares;
}

void encode_published_line(Writer& w, const PublishedLine& l) {
  w.bytes(l.decrypted_code);
  w.boolean(l.opened);
  w.vec(l.messages, [](Writer& ww, std::uint64_t v) { ww.u64(v); });
  w.vec(l.randomness,
        [](Writer& ww, const crypto::Fn& s) { encode_scalar(ww, s); });
  w.boolean(l.zk_complete);
  w.vec(l.bit_responses, [](Writer& ww, const crypto::BitProofResponse& r) {
    encode_scalar(ww, r.c0);
    encode_scalar(ww, r.c1);
    encode_scalar(ww, r.z0);
    encode_scalar(ww, r.z1);
  });
  encode_scalar(w, l.sum_response);
}

}  // namespace

BbNode::BbNode(BbInit init)
    : init_(std::move(init)),
      trustee_keys_(crypto::decode_schnorr_keys(init_.trustee_public_keys)) {
  for (std::size_t i = 0; i < init_.ballots.size(); ++i) {
    serial_index_[init_.ballots[i].serial] = i;
  }
  submissions_.resize(init_.params.n_vc);
}

std::optional<std::size_t> BbNode::vc_index_of(NodeId id) const {
  // VC->BB writes arrive over authenticated channels; the runner assigns
  // VC node ids 0..Nv-1 within the simulation by convention, so the sender
  // id doubles as the VC index. Spoofed ids outside the range are dropped.
  if (id < init_.params.n_vc) return id;
  return std::nullopt;
}

std::size_t BbNode::ballot_index(Serial serial) const {
  auto it = serial_index_.find(serial);
  if (it == serial_index_.end()) {
    throw ProtocolError("BB: unknown serial");
  }
  return it->second;
}

void BbNode::attach_wal(std::unique_ptr<store::Wal> wal) {
  wal_ = std::move(wal);
  replaying_ = true;
  try {
    wal_->replay([this](std::uint8_t type, BytesView rec) {
      if (type != kBbWalMessage) return;  // future record type: skip
      Reader r(rec);
      NodeId from = r.u32();
      on_message(from, net::Buffer::copy_of(r.raw_view(r.remaining())));
    });
  } catch (...) {
    replaying_ = false;
    throw;
  }
  replaying_ = false;
}

void BbNode::on_message(NodeId from, const net::Buffer& payload) {
  try {
    Reader r(payload.view());
    auto type = static_cast<MsgType>(r.u8());
    // Write-ahead: every write-channel message is logged before its
    // handler runs, so a crash mid-handler re-runs the handler on replay.
    // Reads are not state, and replayed records must not re-log.
    if (wal_ && !replaying_ && type != MsgType::kBbRead) {
      Writer w;
      w.u32(from);
      w.raw(payload.view());
      wal_->append(kBbWalMessage, w.take());
    }
    switch (type) {
      case MsgType::kVoteSetChunk: {
        auto vc = vc_index_of(from);
        if (vc) handle_vote_set_chunk(*vc, r);
        break;
      }
      case MsgType::kVoteSetDone: {
        auto vc = vc_index_of(from);
        if (vc) handle_vote_set_done(*vc, r);
        break;
      }
      case MsgType::kMskShare: {
        auto vc = vc_index_of(from);
        if (vc) handle_msk_share(*vc, r);
        break;
      }
      case MsgType::kTrusteeBallot:
        handle_trustee_ballot(r);
        break;
      case MsgType::kTrusteeTally:
        handle_trustee_tally(r);
        break;
      case MsgType::kBbRead:
        handle_read(from, r);
        break;
      default:
        break;
    }
  } catch (const CodecError&) {
    // Malformed write: drop.
  }
}

void BbNode::handle_vote_set_chunk(std::size_t vc, Reader& r) {
  if (vote_set_accepted_) return;
  VoteSetChunkMsg m = VoteSetChunkMsg::decode(r);
  auto& sub = submissions_[vc];
  for (auto& e : m.entries) sub.entries.push_back(std::move(e));
  // The network may reorder a chunk after its DONE marker.
  if (sub.done_hash) maybe_accept_vote_set();
}

void BbNode::handle_vote_set_done(std::size_t vc, Reader& r) {
  if (vote_set_accepted_) return;
  VoteSetDoneMsg m = VoteSetDoneMsg::decode(r);
  auto& sub = submissions_[vc];
  sub.done_hash = m.set_hash;
  sub.expected = m.total_entries;
  maybe_accept_vote_set();
}

void BbNode::maybe_accept_vote_set() {
  // Count VC nodes whose full submission matches their announced hash.
  std::map<crypto::Hash32, std::vector<std::size_t>> by_hash;
  for (std::size_t vc = 0; vc < submissions_.size(); ++vc) {
    auto& sub = submissions_[vc];
    if (!sub.done_hash || sub.entries.size() != sub.expected) continue;
    // Chunks may have been reordered in flight; the canonical set is
    // sorted by serial.
    std::sort(sub.entries.begin(), sub.entries.end(),
              [](const VoteSetEntry& a, const VoteSetEntry& b) {
                return a.serial < b.serial;
              });
    if (vote_set_hash(sub.entries) != *sub.done_hash) continue;
    by_hash[*sub.done_hash].push_back(vc);
  }
  for (auto& [hash, vcs] : by_hash) {
    if (vcs.size() >= init_.params.f_vc + 1) {
      vote_set_accepted_ = true;
      vote_set_at_ = now_safe();
      accepted_set_ = submissions_[vcs.front()].entries;
      maybe_decrypt_codes();
      return;
    }
  }
}

void BbNode::handle_msk_share(std::size_t vc, Reader& r) {
  if (msk_.has_value()) return;
  MskShareMsg m = MskShareMsg::decode(r);
  if (m.share.x != vc + 1) return;  // a node may only submit its own share
  if (!crypto::MerkleTree::verify(init_.msk_share_root,
                                  ea::share_leaf(m.share), vc, m.path)) {
    return;
  }
  msk_shares_[m.share.x] = m.share;
  if (msk_shares_.size() < init_.params.vc_quorum()) return;
  std::vector<crypto::Share> shares;
  for (const auto& [x, s] : msk_shares_) shares.push_back(s);
  crypto::Fn secret =
      crypto::shamir_reconstruct(shares, init_.params.vc_quorum());
  Bytes be = secret.to_bytes_be();
  Bytes msk(be.begin() + 16, be.end());
  if (!crypto::salted_commit_check(init_.h_msk, msk, init_.salt_msk)) {
    // Should be impossible with Merkle-verified shares; wait for more.
    return;
  }
  msk_ = msk;
  maybe_decrypt_codes();
}

void BbNode::maybe_decrypt_codes() {
  if (codes_published_ || !msk_.has_value() || !vote_set_accepted_) return;
  // Decrypt and publish every vote code (paper Section III-G: once msk is
  // reconstructed, "decrypts all the encrypted vote codes in its
  // initialization data, and publishes them").
  published_.clear();
  for (const BbBallotInit& b : init_.ballots) {
    PublishedBallot pb;
    for (std::size_t part = 0; part < kNumParts; ++part) {
      pb.lines[part].resize(b.parts[part].size());
      for (std::size_t l = 0; l < b.parts[part].size(); ++l) {
        try {
          pb.lines[part][l].decrypted_code = crypto::decrypt_vote_code(
              *msk_, b.parts[part][l].encrypted_vote_code);
        } catch (const CryptoError&) {
          // Leaves the code empty; auditors will flag the mismatch.
        }
      }
    }
    published_[b.serial] = std::move(pb);
  }
  cast_info_.clear();
  coins_.clear();
  for (const VoteSetEntry& e : accepted_set_) {
    auto it = serial_index_.find(e.serial);
    if (it == serial_index_.end()) continue;
    PublishedBallot& pb = published_[e.serial];
    for (std::uint8_t part = 0; part < kNumParts && !pb.voted; ++part) {
      const auto& lines = pb.lines[part];
      for (std::uint32_t l = 0; l < lines.size(); ++l) {
        if (lines[l].decrypted_code == e.vote_code) {
          cast_info_.push_back(CastInfo{e.serial, part, l});
          coins_.push_back(static_cast<std::uint8_t>('0' + part));
          pb.voted = true;
          pb.used_part = part;
          pb.used_line = l;
          break;
        }
      }
    }
  }
  challenge_ = crypto::challenge_from_coins(init_.params.election_id, coins_);
  codes_published_ = true;
  codes_at_ = now_safe();
  // Combine any trustee data that arrived early.
  for (const auto& [serial, tb] : trustee_ballots_) {
    (void)tb;
    maybe_combine_ballot(serial);
  }
  maybe_publish_result();
}

void BbNode::handle_trustee_ballot(Reader& r) {
  TrusteeBallotMsg m = TrusteeBallotMsg::decode(r);
  if (m.trustee_index >= init_.params.n_trustees) return;
  if (!serial_index_.count(m.serial)) return;
  TrusteeBallots& tb = trustee_ballots_[m.serial];
  if (tb.combined) return;  // everything it could open is published
  charge(sim::cost::kSchnorrVerify);
  if (!crypto::schnorr_verify(trustee_keys_[m.trustee_index],
                              m.signing_bytes(init_.params.election_id),
                              m.signature)) {
    return;
  }
  Serial serial = m.serial;
  tb.by_trustee[m.trustee_index] = TrusteeDataset{std::move(m), std::nullopt};
  maybe_combine_ballot(serial);
}

void BbNode::maybe_combine_ballot(Serial serial) {
  if (!codes_published_) return;
  auto tit = trustee_ballots_.find(serial);
  if (tit == trustee_ballots_.end() || tit->second.combined) return;
  TrusteeBallots& tb = tit->second;
  auto pit = published_.find(serial);
  if (pit == published_.end()) return;
  PublishedBallot& pb = pit->second;
  const BbBallotInit& ballot = init_.ballots[ballot_index(serial)];
  const std::size_t m = init_.params.m();
  const std::size_t ht = init_.params.h_trustees;

  auto slots = ballot_slots(ballot, pb, m);
  if (!slots) return;
  // Structural pass: every dataset not yet rejected, as shares in slot
  // order; a misshapen one is rejected for good.
  std::map<std::uint32_t, std::vector<crypto::PedersenShare>> shares;
  for (auto& [tidx, ds] : tb.by_trustee) {
    if (ds.valid == false) continue;
    auto s = dataset_shares(ds.msg, ballot, pb, m);
    if (s) {
      shares.emplace(tidx, std::move(*s));
    } else {
      ds.valid = false;
    }
  }
  if (shares.size() < ht) return;

  // One folded check covers every unchecked dataset; if it fails, each
  // one is checked alone to find the bad ones.
  std::vector<crypto::VssDataset> unchecked;
  for (const auto& [tidx, s] : shares) {
    if (!tb.by_trustee[tidx].valid) unchecked.push_back({tidx + 1, s});
  }
  if (!unchecked.empty()) {
    Writer w;
    w.bytes(init_.params.election_id);
    w.u64(serial);
    const Bytes context = w.take();
    // The fold's MSM has one term per slot point plus G and H.
    sim::Duration terms = 2;
    for (const crypto::VssSlot& slot : *slots) {
      terms += static_cast<sim::Duration>(slot.u.size() + slot.v.size());
    }
    auto check = [&](std::span<const crypto::VssDataset> ds) {
      charge(terms * sim::cost::kBbFoldTerm);
      return crypto::pedersen_vss_verify_folded(context, challenge_, *slots,
                                                ds);
    };
    const bool all_ok = check(unchecked);
    for (const crypto::VssDataset& d : unchecked) {
      tb.by_trustee[d.x - 1].valid =
          all_ok || (unchecked.size() > 1 && check({&d, 1}));
    }
  }

  // The first ht valid datasets in trustee-index order.
  std::vector<std::uint32_t> xs;
  std::vector<const std::vector<crypto::PedersenShare>*> chosen;
  for (const auto& [tidx, s] : shares) {
    if (xs.size() == ht) break;
    if (!*tb.by_trustee[tidx].valid) continue;
    xs.push_back(tidx + 1);
    chosen.push_back(&s);
  }
  if (xs.size() < ht) return;

  // Combine: reconstruct every slot's secret (f) with one set of Lagrange
  // weights, walking the slots in their fixed order.
  const std::vector<crypto::Fn> lambda = crypto::lagrange_at_zero(xs);
  std::size_t q = 0;
  auto next_secret = [&] {
    crypto::Fn acc = crypto::Fn::zero();
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      acc = acc + lambda[i] * (*chosen[i])[q].f;
    }
    ++q;
    return acc;
  };
  for (std::size_t part = 0; part < kNumParts; ++part) {
    for (PublishedLine& pl : pb.lines[part]) {
      if (is_used(pb, part)) {
        pl.bit_responses.clear();
        for (std::size_t j = 0; j < m; ++j) {
          crypto::BitProofResponse resp;
          resp.c0 = next_secret();
          resp.c1 = next_secret();
          resp.z0 = next_secret();
          resp.z1 = next_secret();
          pl.bit_responses.push_back(resp);
        }
        pl.sum_response = next_secret();
        pl.zk_complete = true;
      } else {
        pl.messages.clear();
        pl.randomness.clear();
        for (std::size_t j = 0; j < m; ++j) {
          pl.messages.push_back(scalar_to_u64(next_secret()));
          pl.randomness.push_back(next_secret());
        }
        pl.opened = true;
      }
    }
  }
  tb.combined = true;
  tb.by_trustee.clear();
  maybe_publish_result();
}

void BbNode::handle_trustee_tally(Reader& r) {
  TrusteeTallyMsg m = TrusteeTallyMsg::decode(r);
  if (m.trustee_index >= init_.params.n_trustees) return;
  charge(sim::cost::kSchnorrVerify);
  if (!crypto::schnorr_verify(trustee_keys_[m.trustee_index],
                              m.signing_bytes(init_.params.election_id),
                              m.signature)) {
    return;
  }
  if (m.totals.size() != init_.params.m()) return;
  // Every share must sit at the trustee's own point: the BB reconstructs
  // with Lagrange weights for the trustee indices it chose.
  for (const auto& [ms, rs] : m.totals) {
    if (ms.x != m.trustee_index + 1 || rs.x != m.trustee_index + 1) return;
  }
  trustee_tally_data_[m.trustee_index] = std::move(m);
  maybe_publish_result();
}

void BbNode::maybe_publish_result() {
  if (result_.has_value() || !codes_published_) return;
  const std::size_t m = init_.params.m();
  const std::size_t ht = init_.params.h_trustees;
  if (cast_info_.empty()) {
    // Degenerate election with zero cast votes: trustees have no total
    // shares to contribute and the tally is identically zero.
    result_ = ElectionResult{std::vector<std::uint64_t>(m, 0),
                             std::vector<crypto::Fn>(m, crypto::Fn::zero())};
    result_at_ = now_safe();
    result_published_ = true;  // after result_ settles (cross-thread flag)
    return;
  }
  if (trustee_tally_data_.size() < ht) return;

  // Expected commitment coefficients and ciphertext sums per option over
  // every cast line.
  std::vector<std::vector<crypto::Point>> m_comms(m), r_comms(m);
  std::vector<crypto::ElGamalCipher> sums(
      m, crypto::ElGamalCipher{crypto::Point::infinity(),
                               crypto::Point::infinity()});
  bool first = true;
  for (const CastInfo& ci : cast_info_) {
    const BbBallotInit& ballot = init_.ballots[ballot_index(ci.serial)];
    const BbLineInit& line = ballot.parts[ci.part][ci.line];
    for (std::size_t j = 0; j < m; ++j) {
      sums[j] = crypto::eg_add(sums[j], line.encoding[j]);
      const auto& cm = line.opening_comms[2 * j];
      const auto& cr = line.opening_comms[2 * j + 1];
      if (first) {
        m_comms[j] = cm;
        r_comms[j] = cr;
      } else {
        for (std::size_t t = 0; t < cm.size(); ++t) {
          m_comms[j][t] = crypto::ec_add(m_comms[j][t], cm[t]);
          r_comms[j][t] = crypto::ec_add(r_comms[j][t], cr[t]);
        }
      }
    }
    first = false;
  }

  // Verify each trustee's total shares (one batched MSM per trustee, which
  // fails if any share is bad), keep ht valid ones.
  std::vector<const TrusteeTallyMsg*> valid;
  for (const auto& [tidx, msg] : trustee_tally_data_) {
    std::vector<crypto::PedersenVssInstance> insts;
    insts.reserve(2 * m);
    for (std::size_t j = 0; j < m; ++j) {
      insts.push_back({msg.totals[j].first, m_comms[j]});
      insts.push_back({msg.totals[j].second, r_comms[j]});
    }
    if (crypto::pedersen_vss_verify_batch(insts)) valid.push_back(&msg);
    if (valid.size() == ht) break;
  }
  if (valid.size() < ht) return;

  std::vector<std::uint32_t> xs;
  for (const TrusteeTallyMsg* t : valid) xs.push_back(t->trustee_index + 1);
  const std::vector<crypto::Fn> lambda = crypto::lagrange_at_zero(xs);
  auto reconstruct = [&](auto get_share) {
    crypto::Fn acc = crypto::Fn::zero();
    for (std::size_t i = 0; i < valid.size(); ++i) {
      acc = acc + lambda[i] * get_share(*valid[i]).f;
    }
    return acc;
  };
  ElectionResult res;
  for (std::size_t j = 0; j < m; ++j) {
    crypto::Fn tj = reconstruct(
        [j](const TrusteeTallyMsg& t) { return t.totals[j].first; });
    crypto::Fn rj = reconstruct(
        [j](const TrusteeTallyMsg& t) { return t.totals[j].second; });
    // The opened total must match the homomorphic ciphertext sum.
    if (!crypto::eg_open_check(init_.commit_key, sums[j], tj, rj)) {
      return;  // inconsistent; wait for more trustees
    }
    res.tally.push_back(scalar_to_u64(tj));
    res.total_randomness.push_back(rj);
  }
  result_ = std::move(res);
  result_at_ = now_safe();
  result_published_ = true;  // after result_ settles (cross-thread flag)
}

void BbNode::handle_read(NodeId from, Reader& r) {
  BbReadMsg m = BbReadMsg::decode(r);
  BbReadReplyMsg reply;
  reply.section = m.section;
  reply.arg = m.arg;
  reply.request_id = m.request_id;
  auto payload = read_section(m.section, m.arg);
  reply.available = payload.has_value();
  if (payload) reply.payload = std::move(*payload);
  ctx().send(from, reply.encode());
}

std::optional<Bytes> BbNode::read_section(const std::string& section,
                                          std::uint64_t arg) const {
  Writer w;
  if (section == "meta") {
    init_.params.encode(w);
    encode_point(w, init_.commit_key);
    w.boolean(vote_set_accepted_);
    w.boolean(codes_published_);
    w.boolean(result_.has_value());
    return w.take();
  }
  if (section == "voteset") {
    if (!vote_set_accepted_) return std::nullopt;
    w.vec(accepted_set_,
          [](Writer& ww, const VoteSetEntry& e) { e.encode(ww); });
    return w.take();
  }
  if (section == "cast-info") {
    if (!codes_published_) return std::nullopt;
    w.vec(cast_info_, [](Writer& ww, const CastInfo& ci) {
      ww.u64(ci.serial);
      ww.u8(ci.part);
      ww.u32(ci.line);
    });
    w.bytes(coins_);
    encode_scalar(w, challenge_);
    return w.take();
  }
  if (section == "challenge") {
    if (!codes_published_) return std::nullopt;
    encode_scalar(w, challenge_);
    return w.take();
  }
  if (section == "ballot") {
    auto it = published_.find(arg);
    if (it == published_.end()) return std::nullopt;
    auto sit = serial_index_.find(arg);
    if (sit == serial_index_.end()) return std::nullopt;
    // Static initialization data followed by the published dynamic state.
    const BbBallotInit& bi = init_.ballots[sit->second];
    for (std::size_t part = 0; part < kNumParts; ++part) {
      w.vec(bi.parts[part],
            [](Writer& ww, const BbLineInit& l) { l.encode(ww); });
    }
    const PublishedBallot& pb = it->second;
    w.boolean(pb.voted);
    w.u8(pb.used_part);
    w.u32(pb.used_line);
    for (std::size_t part = 0; part < kNumParts; ++part) {
      w.vec(pb.lines[part], [](Writer& ww, const PublishedLine& l) {
        encode_published_line(ww, l);
      });
    }
    return w.take();
  }
  if (section == "result") {
    if (!result_.has_value()) return std::nullopt;
    w.vec(result_->tally, [](Writer& ww, std::uint64_t v) { ww.u64(v); });
    w.vec(result_->total_randomness,
          [](Writer& ww, const crypto::Fn& s) { encode_scalar(ww, s); });
    return w.take();
  }
  return std::nullopt;
}

}  // namespace ddemos::bb
