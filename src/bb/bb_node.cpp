#include "bb/bb_node.hpp"

#include <algorithm>

#include "crypto/batch.hpp"
#include "crypto/commit.hpp"
#include "crypto/schnorr.hpp"
#include "ea/ea.hpp"
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

// Combined check over a trustee dataset's Pedersen-VSS shares: one
// random-linear-combination MSM covers every share; on failure the
// per-instance verifier re-runs so a structurally valid message with any
// bad share is rejected exactly as the serial loops rejected it.
bool verify_vss_instances(
    const std::vector<crypto::PedersenVssInstance>& insts) {
  if (crypto::pedersen_vss_verify_batch(insts)) return true;
  return std::all_of(insts.begin(), insts.end(),
                     [](const crypto::PedersenVssInstance& i) {
                       return crypto::pedersen_vss_verify(i.share, i.comms);
                     });
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
  for (const auto& [serial, per_trustee] : trustee_ballot_data_) {
    (void)per_trustee;
    maybe_combine_ballot(serial);
  }
  maybe_publish_result();
}

void BbNode::handle_trustee_ballot(Reader& r) {
  TrusteeBallotMsg m = TrusteeBallotMsg::decode(r);
  if (m.trustee_index >= init_.params.n_trustees) return;
  if (!crypto::schnorr_verify(trustee_keys_[m.trustee_index],
                              m.signing_bytes(init_.params.election_id),
                              m.signature)) {
    return;
  }
  if (!serial_index_.count(m.serial)) return;
  Serial serial = m.serial;
  trustee_ballot_data_[serial][m.trustee_index] = std::move(m);
  maybe_combine_ballot(serial);
}

void BbNode::maybe_combine_ballot(Serial serial) {
  if (!codes_published_) return;
  auto pit = published_.find(serial);
  if (pit == published_.end()) return;
  PublishedBallot& pb = pit->second;
  const BbBallotInit& ballot = init_.ballots[ballot_index(serial)];
  const std::size_t m = init_.params.m();
  const std::size_t ht = init_.params.h_trustees;

  // Already fully combined?
  bool need = false;
  for (std::size_t part = 0; part < kNumParts; ++part) {
    bool used = pb.voted && pb.used_part == part;
    for (const PublishedLine& l : pb.lines[part]) {
      if (used ? !l.zk_complete : !l.opened) need = true;
    }
  }
  if (!need) return;

  auto dit = trustee_ballot_data_.find(serial);
  if (dit == trustee_ballot_data_.end()) return;

  // Validate whole trustee datasets; keep the first ht valid ones. The
  // structural pass collects every Pedersen-VSS share with its commitment
  // polynomial, then one batched check replaces the per-share loop.
  std::vector<const TrusteeBallotMsg*> valid;
  for (const auto& [tidx, msg] : dit->second) {
    if ((msg.voted != 0) != pb.voted) continue;
    if (pb.voted && msg.used_part != pb.used_part) continue;
    bool ok = true;
    std::vector<crypto::PedersenVssInstance> insts;
    // The ZK responses are checked against u + challenge * v per
    // coefficient of the committed (u, v) polynomial pair.
    auto zk_instance = [&](const crypto::PedersenShare& share,
                           const std::vector<crypto::Point>& u,
                           const std::vector<crypto::Point>& v) {
      std::vector<crypto::Point> comms(u.size());
      for (std::size_t t = 0; t < u.size(); ++t) {
        comms[t] = crypto::ec_add(u[t], crypto::ec_mul(challenge_, v[t]));
      }
      insts.push_back({share, std::move(comms)});
    };
    for (std::size_t part = 0; part < kNumParts && ok; ++part) {
      bool used = pb.voted && pb.used_part == part;
      const TrusteePartData& pd = msg.parts[part];
      const auto& lines = ballot.parts[part];
      if (used) {
        if (pd.zk_bits.size() != lines.size() ||
            pd.zk_sum.size() != lines.size()) {
          ok = false;
          break;
        }
        for (std::size_t l = 0; l < lines.size() && ok; ++l) {
          if (pd.zk_bits[l].size() != m) {
            ok = false;
            break;
          }
          const auto& zc = lines[l].zk_comms;
          if (zc.size() != 8 * m + 2) {
            ok = false;
            break;
          }
          for (std::size_t j = 0; j < m; ++j) {
            for (std::size_t k = 0; k < 4; ++k) {
              zk_instance(pd.zk_bits[l][j][k], zc[8 * j + 2 * k],
                          zc[8 * j + 2 * k + 1]);
            }
          }
          zk_instance(pd.zk_sum[l], zc[8 * m], zc[8 * m + 1]);
        }
      } else {
        if (pd.openings.size() != lines.size()) {
          ok = false;
          break;
        }
        for (std::size_t l = 0; l < lines.size() && ok; ++l) {
          if (pd.openings[l].size() != m ||
              lines[l].opening_comms.size() != 2 * m) {
            ok = false;
            break;
          }
          for (std::size_t j = 0; j < m; ++j) {
            insts.push_back(
                {pd.openings[l][j].first, lines[l].opening_comms[2 * j]});
            insts.push_back(
                {pd.openings[l][j].second, lines[l].opening_comms[2 * j + 1]});
          }
        }
      }
    }
    ok = ok && verify_vss_instances(insts);
    if (ok) valid.push_back(&msg);
    if (valid.size() == ht) break;
  }
  if (valid.size() < ht) return;

  // Combine: reconstruct openings and ZK responses.
  auto reconstruct = [&](auto get_share) {
    std::vector<crypto::PedersenShare> shares;
    for (const TrusteeBallotMsg* msg : valid) shares.push_back(get_share(*msg));
    return crypto::pedersen_vss_reconstruct(shares, ht).first;
  };

  for (std::size_t part = 0; part < kNumParts; ++part) {
    bool used = pb.voted && pb.used_part == part;
    const auto& lines = ballot.parts[part];
    for (std::size_t l = 0; l < lines.size(); ++l) {
      PublishedLine& pl = pb.lines[part][l];
      if (used) {
        if (pl.zk_complete) continue;
        pl.bit_responses.clear();
        for (std::size_t j = 0; j < m; ++j) {
          crypto::BitProofResponse resp;
          resp.c0 = reconstruct([&](const TrusteeBallotMsg& t) {
            return t.parts[part].zk_bits[l][j][0];
          });
          resp.c1 = reconstruct([&](const TrusteeBallotMsg& t) {
            return t.parts[part].zk_bits[l][j][1];
          });
          resp.z0 = reconstruct([&](const TrusteeBallotMsg& t) {
            return t.parts[part].zk_bits[l][j][2];
          });
          resp.z1 = reconstruct([&](const TrusteeBallotMsg& t) {
            return t.parts[part].zk_bits[l][j][3];
          });
          pl.bit_responses.push_back(resp);
        }
        pl.sum_response = reconstruct([&](const TrusteeBallotMsg& t) {
          return t.parts[part].zk_sum[l];
        });
        pl.zk_complete = true;
      } else {
        if (pl.opened) continue;
        pl.messages.clear();
        pl.randomness.clear();
        for (std::size_t j = 0; j < m; ++j) {
          crypto::Fn mj = reconstruct([&](const TrusteeBallotMsg& t) {
            return t.parts[part].openings[l][j].first;
          });
          crypto::Fn rj = reconstruct([&](const TrusteeBallotMsg& t) {
            return t.parts[part].openings[l][j].second;
          });
          pl.messages.push_back(scalar_to_u64(mj));
          pl.randomness.push_back(rj);
        }
        pl.opened = true;
      }
    }
  }
  maybe_publish_result();
}

void BbNode::handle_trustee_tally(Reader& r) {
  TrusteeTallyMsg m = TrusteeTallyMsg::decode(r);
  if (m.trustee_index >= init_.params.n_trustees) return;
  if (!crypto::schnorr_verify(trustee_keys_[m.trustee_index],
                              m.signing_bytes(init_.params.election_id),
                              m.signature)) {
    return;
  }
  if (m.totals.size() != init_.params.m()) return;
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

  // Verify each trustee's total shares (one batched MSM per trustee, the
  // per-share fallback attributing any failure), keep ht valid ones.
  std::vector<const TrusteeTallyMsg*> valid;
  for (const auto& [tidx, msg] : trustee_tally_data_) {
    std::vector<crypto::PedersenVssInstance> insts;
    insts.reserve(2 * m);
    for (std::size_t j = 0; j < m; ++j) {
      insts.push_back({msg.totals[j].first, m_comms[j]});
      insts.push_back({msg.totals[j].second, r_comms[j]});
    }
    if (verify_vss_instances(insts)) valid.push_back(&msg);
    if (valid.size() == ht) break;
  }
  if (valid.size() < ht) return;

  ElectionResult res;
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<crypto::PedersenShare> ms, rs;
    for (const TrusteeTallyMsg* t : valid) {
      ms.push_back(t->totals[j].first);
      rs.push_back(t->totals[j].second);
    }
    crypto::Fn tj = crypto::pedersen_vss_reconstruct(ms, ht).first;
    crypto::Fn rj = crypto::pedersen_vss_reconstruct(rs, ht).first;
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
