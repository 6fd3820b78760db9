#include "trustee/trustee_node.hpp"

#include <algorithm>
#include <map>

#include "crypto/schnorr.hpp"
#include "util/error.hpp"

namespace ddemos::trustee {

using namespace core;
using sim::NodeId;

TrusteeNode::TrusteeNode(TrusteeInit init, std::vector<NodeId> bb_ids,
                         Options options)
    : init_(std::move(init)),
      signing_key_(crypto::schnorr_keypair(init_.signing_key)),
      bb_ids_(std::move(bb_ids)),
      opt_(options),
      answers_(bb_ids_.size()) {}

void TrusteeNode::on_start() {
  poll_timer_ = ctx().set_timer(opt_.poll_interval_us);
}

void TrusteeNode::on_timer(std::uint64_t token) {
  if (token != poll_timer_ || submitted_) return;
  poll_bbs();
  poll_timer_ = ctx().set_timer(opt_.poll_interval_us);
}

void TrusteeNode::poll_bbs() {
  BbReadMsg m;
  m.section = "cast-info";
  m.request_id = ++request_seq_;
  net::Buffer msg = m.encode();  // one allocation for all BB recipients
  for (NodeId bb : bb_ids_) ctx().send(bb, msg);
}

void TrusteeNode::on_message(NodeId from, const net::Buffer& payload) {
  if (submitted_) return;
  auto bb = std::find(bb_ids_.begin(), bb_ids_.end(), from);
  if (bb == bb_ids_.end()) return;
  try {
    Reader r(payload.view());
    if (static_cast<MsgType>(r.u8()) != MsgType::kBbReadReply) return;
    BbReadReplyMsg m = BbReadReplyMsg::decode(r);
    // A reply to any poll of ours counts: a BB never changes its published
    // cast-info, so an answer that took longer than the poll interval is
    // as good as a fresh one.
    if (m.request_id == 0 || m.request_id > request_seq_ || !m.available) {
      return;
    }
    // Majority read: trust a payload that fb+1 distinct BB nodes returned
    // as their latest answer.
    std::optional<Bytes>& answer =
        answers_[static_cast<std::size_t>(bb - bb_ids_.begin())];
    answer = std::move(m.payload);
    std::size_t backers = static_cast<std::size_t>(
        std::count(answers_.begin(), answers_.end(), answer));
    if (backers >= init_.params.f_bb + 1) {
      submit_all(*answer);
      submitted_ = true;
    }
  } catch (const CodecError&) {
  }
}

void TrusteeNode::submit_all(BytesView cast_info_payload) {
  Reader r(cast_info_payload);
  struct CastInfo {
    Serial serial;
    std::uint8_t part;
    std::uint32_t line;
  };
  auto cast = r.vec<CastInfo>([](Reader& rr) {
    CastInfo ci;
    ci.serial = rr.u64();
    ci.part = rr.u8();
    ci.line = rr.u32();
    return ci;
  });
  Bytes coins = r.bytes();
  crypto::Fn challenge = decode_scalar(r);

  // Index cast info by serial; discard invalid duplicates (a serial may be
  // cast at most once; the VC subsystem guarantees it, a malicious BB reply
  // would be caught here).
  std::map<Serial, CastInfo> by_serial;
  for (const CastInfo& ci : cast) {
    if (by_serial.count(ci.serial)) return;  // invalid cast-info: abort
    if (ci.part >= kNumParts) return;
    by_serial[ci.serial] = ci;
  }

  const std::size_t m = init_.params.m();
  // Tally accumulation: share of (count, randomness) per option.
  std::vector<crypto::PedersenShare> tally_m(m), tally_r(m);
  bool tally_init = false;

  for (const TrusteeBallotInit& ballot : init_.ballots) {
    TrusteeBallotMsg msg;
    msg.serial = ballot.serial;
    msg.trustee_index = static_cast<std::uint32_t>(init_.node_index);
    auto it = by_serial.find(ballot.serial);
    msg.voted = it != by_serial.end() ? 1 : 0;
    msg.used_part = msg.voted ? it->second.part : 0;

    for (std::size_t part = 0; part < kNumParts; ++part) {
      const auto& lines = ballot.parts[part];
      TrusteePartData& pd = msg.parts[part];
      bool used = msg.voted && msg.used_part == part;
      if (used) {
        if (it->second.line >= lines.size()) return;  // malformed cast info
        // ZK responses for every line of the used part, evaluated at the
        // voter-coin challenge.
        for (const TrusteeLineInit& line : lines) {
          std::vector<std::array<crypto::PedersenShare, 4>> lresp;
          for (std::size_t j = 0; j < line.zk_bits.size(); ++j) {
            const auto& s = line.zk_bits[j];
            std::array<crypto::PedersenShare, 4> resp;
            for (std::size_t k = 0; k < 4; ++k) {
              // share(u) + c * share(v) is a share of u + c*v.
              resp[k] = crypto::PedersenShare{
                  s[2 * k].x, s[2 * k].f + challenge * s[2 * k + 1].f,
                  s[2 * k].g + challenge * s[2 * k + 1].g};
            }
            lresp.push_back(resp);
          }
          pd.zk_bits.push_back(std::move(lresp));
          pd.zk_sum.push_back(crypto::PedersenShare{
              line.sum_u.x, line.sum_u.f + challenge * line.sum_v.f,
              line.sum_u.g + challenge * line.sum_v.g});
        }
        // The cast line's openings accumulate into the tally total.
        const TrusteeLineInit& cast_line = lines[it->second.line];
        for (std::size_t j = 0; j < m; ++j) {
          if (!tally_init) {
            tally_m[j] = cast_line.open_m[j];
            tally_r[j] = cast_line.open_r[j];
          } else {
            tally_m[j] =
                crypto::pedersen_share_add(tally_m[j], cast_line.open_m[j]);
            tally_r[j] =
                crypto::pedersen_share_add(tally_r[j], cast_line.open_r[j]);
          }
        }
        if (!pd.zk_bits.empty()) {
          // tally_init flips only after the per-option loop above ran once.
        }
      } else {
        // Unused part (or both parts of an unvoted ballot): full openings.
        for (const TrusteeLineInit& line : lines) {
          std::vector<std::pair<crypto::PedersenShare, crypto::PedersenShare>>
              lopen;
          for (std::size_t j = 0; j < line.open_m.size(); ++j) {
            lopen.emplace_back(line.open_m[j], line.open_r[j]);
          }
          pd.openings.push_back(std::move(lopen));
        }
      }
      if (used) tally_init = true;
    }
    msg.signature = crypto::schnorr_sign(
        signing_key_, msg.signing_bytes(init_.params.election_id));
    net::Buffer encoded = msg.encode();
    for (NodeId bb : bb_ids_) ctx().send(bb, encoded);
  }

  if (tally_init) {
    TrusteeTallyMsg tally;
    tally.trustee_index = static_cast<std::uint32_t>(init_.node_index);
    for (std::size_t j = 0; j < m; ++j) {
      tally.totals.emplace_back(tally_m[j], tally_r[j]);
    }
    tally.signature = crypto::schnorr_sign(
        signing_key_, tally.signing_bytes(init_.params.election_id));
    net::Buffer encoded = tally.encode();
    for (NodeId bb : bb_ids_) ctx().send(bb, encoded);
  }
  (void)coins;
}

}  // namespace ddemos::trustee
