#include "core/messages.hpp"

#include <set>

#include "crypto/schnorr.hpp"

namespace ddemos::core {

namespace {
Writer with_type(MsgType t) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(t));
  return w;
}
}  // namespace

MsgType peek_type(BytesView msg) {
  if (msg.empty()) throw CodecError("empty message");
  return static_cast<MsgType>(msg[0]);
}

Bytes VoteMsg::encode() const {
  Writer w = with_type(MsgType::kVote);
  w.u64(serial);
  w.bytes(vote_code);
  return w.take();
}

VoteMsg VoteMsg::decode(Reader& r) {
  VoteMsg m;
  m.serial = r.u64();
  m.vote_code = r.bytes();
  return m;
}

Bytes VoteReplyMsg::encode() const {
  Writer w = with_type(MsgType::kVoteReply);
  w.u64(serial);
  w.u8(static_cast<std::uint8_t>(status));
  w.u64(receipt);
  return w.take();
}

VoteReplyMsg VoteReplyMsg::decode(Reader& r) {
  VoteReplyMsg m;
  m.serial = r.u64();
  m.status = static_cast<VoteReplyStatus>(r.u8());
  m.receipt = r.u64();
  return m;
}

Bytes endorsement_digest(BytesView election_id, Serial serial,
                         BytesView vote_code) {
  Writer w;
  w.str("ddemos/endorse");
  w.bytes(election_id);
  w.u64(serial);
  w.bytes(vote_code);
  return w.take();
}

Bytes EndorseMsg::encode() const {
  Writer w = with_type(MsgType::kEndorse);
  w.u64(serial);
  w.bytes(vote_code);
  return w.take();
}

EndorseMsg EndorseMsg::decode(Reader& r) {
  EndorseMsg m;
  m.serial = r.u64();
  m.vote_code = r.bytes();
  return m;
}

Bytes EndorsementMsg::encode() const {
  Writer w = with_type(MsgType::kEndorsement);
  w.u64(serial);
  w.bytes(vote_code);
  w.u32(node_index);
  w.bytes(signature);
  return w.take();
}

EndorsementMsg EndorsementMsg::decode(Reader& r) {
  EndorsementMsg m;
  m.serial = r.u64();
  m.vote_code = r.bytes();
  m.node_index = r.u32();
  m.signature = r.bytes();
  return m;
}

void Ucert::encode(Writer& w) const {
  w.bytes(vote_code);
  w.vec(signatures, [](Writer& ww, const auto& sig) {
    ww.u32(sig.first);
    ww.bytes(sig.second);
  });
}

Ucert Ucert::decode(Reader& r) {
  Ucert u;
  u.vote_code = r.bytes();
  u.signatures = r.vec<std::pair<std::uint32_t, Bytes>>(
      [](Reader& rr) {
        std::uint32_t idx = rr.u32();
        Bytes sig = rr.bytes();
        return std::pair{idx, std::move(sig)};
      },
      1024);
  return u;
}

bool Ucert::valid(BytesView election_id, Serial serial,
                  std::span<const crypto::SchnorrKey> vc_keys,
                  std::size_t threshold, std::size_t* checks) const {
  std::set<std::uint32_t> signers;
  for (const auto& [idx, sig] : signatures) {
    if (idx < vc_keys.size()) signers.insert(idx);
  }
  // Fewer distinct in-range signers than the threshold: no order of checks
  // can reach it.
  if (signers.size() < threshold) return false;
  Bytes digest = endorsement_digest(election_id, serial, vote_code);
  std::set<std::uint32_t> verified;
  for (const auto& [idx, sig] : signatures) {
    if (idx >= vc_keys.size() || verified.count(idx)) continue;
    if (checks) ++*checks;
    if (!crypto::schnorr_verify(vc_keys[idx], digest, sig)) continue;
    verified.insert(idx);
    if (verified.size() >= threshold) return true;
  }
  return false;
}

Bytes VotePMsg::encode() const {
  Writer w = with_type(MsgType::kVoteP);
  w.u64(serial);
  w.bytes(vote_code);
  w.u8(part);
  w.u32(line);
  encode_share(w, receipt_share);
  encode_hash_path(w, share_path);
  ucert.encode(w);
  return w.take();
}

VotePMsg VotePMsg::decode(Reader& r) {
  VotePMsg m;
  m.serial = r.u64();
  m.vote_code = r.bytes();
  m.part = r.u8();
  m.line = r.u32();
  m.receipt_share = decode_share(r);
  m.share_path = decode_hash_path(r);
  m.ucert = Ucert::decode(r);
  return m;
}

void AnnounceEntry::encode(Writer& w) const {
  w.varint(instance);
  w.bytes(vote_code);
  ucert.encode(w);
}

AnnounceEntry AnnounceEntry::decode(Reader& r) {
  AnnounceEntry e;
  e.instance = r.varint();
  e.vote_code = r.bytes();
  e.ucert = Ucert::decode(r);
  return e;
}

Bytes AnnounceMsg::encode() const {
  Writer w = with_type(MsgType::kAnnounce);
  w.boolean(last_chunk);
  w.vec(entries, [](Writer& ww, const AnnounceEntry& e) { e.encode(ww); });
  return w.take();
}

AnnounceMsg AnnounceMsg::decode(Reader& r) {
  AnnounceMsg m;
  m.last_chunk = r.boolean();
  m.entries = r.vec<AnnounceEntry>(
      [](Reader& rr) { return AnnounceEntry::decode(rr); });
  return m;
}

Bytes RecoverRequestMsg::encode() const {
  Writer w = with_type(MsgType::kRecoverRequest);
  instances.encode(w);
  return w.take();
}

RecoverRequestMsg RecoverRequestMsg::decode(Reader& r) {
  RecoverRequestMsg m;
  m.instances = Bitmap::decode(r);
  return m;
}

Bytes RecoverResponseMsg::encode() const {
  Writer w = with_type(MsgType::kRecoverResponse);
  w.vec(entries, [](Writer& ww, const AnnounceEntry& e) { e.encode(ww); });
  return w.take();
}

RecoverResponseMsg RecoverResponseMsg::decode(Reader& r) {
  RecoverResponseMsg m;
  m.entries = r.vec<AnnounceEntry>(
      [](Reader& rr) { return AnnounceEntry::decode(rr); });
  return m;
}

Bytes wrap_consensus(BytesView inner) {
  Writer w = with_type(MsgType::kConsensus);
  w.reserve(inner.size() + 10);
  w.bytes(inner);
  return w.take();
}

BytesView unwrap_consensus(Reader& r) { return r.bytes_view(); }

Bytes VoteSetChunkMsg::encode() const {
  Writer w = with_type(MsgType::kVoteSetChunk);
  w.vec(entries, [](Writer& ww, const VoteSetEntry& e) { e.encode(ww); });
  return w.take();
}

VoteSetChunkMsg VoteSetChunkMsg::decode(Reader& r) {
  VoteSetChunkMsg m;
  m.entries =
      r.vec<VoteSetEntry>([](Reader& rr) { return VoteSetEntry::decode(rr); });
  return m;
}

Bytes VoteSetDoneMsg::encode() const {
  Writer w = with_type(MsgType::kVoteSetDone);
  w.u64(total_entries);
  encode_hash(w, set_hash);
  return w.take();
}

VoteSetDoneMsg VoteSetDoneMsg::decode(Reader& r) {
  VoteSetDoneMsg m;
  m.total_entries = r.u64();
  m.set_hash = decode_hash(r);
  return m;
}

Bytes MskShareMsg::encode() const {
  Writer w = with_type(MsgType::kMskShare);
  encode_share(w, share);
  encode_hash_path(w, path);
  return w.take();
}

MskShareMsg MskShareMsg::decode(Reader& r) {
  MskShareMsg m;
  m.share = decode_share(r);
  m.path = decode_hash_path(r);
  return m;
}

namespace {

void encode_part_data(Writer& w, const TrusteePartData& p) {
  w.vec(p.openings, [](Writer& ww, const auto& line) {
    ww.vec(line, [](Writer& w3, const auto& pair) {
      encode_ped_share(w3, pair.first);
      encode_ped_share(w3, pair.second);
    });
  });
  w.vec(p.zk_bits, [](Writer& ww, const auto& line) {
    ww.vec(line, [](Writer& w3, const std::array<crypto::PedersenShare, 4>& a) {
      for (const auto& s : a) encode_ped_share(w3, s);
    });
  });
  w.vec(p.zk_sum,
        [](Writer& ww, const crypto::PedersenShare& s) {
          encode_ped_share(ww, s);
        });
}

TrusteePartData decode_part_data(Reader& r) {
  TrusteePartData p;
  p.openings = r.vec<
      std::vector<std::pair<crypto::PedersenShare, crypto::PedersenShare>>>(
      [](Reader& rr) {
        return rr.vec<std::pair<crypto::PedersenShare, crypto::PedersenShare>>(
            [](Reader& r3) {
              auto a = decode_ped_share(r3);
              auto b = decode_ped_share(r3);
              return std::pair{a, b};
            },
            4096);
      },
      4096);
  p.zk_bits = r.vec<std::vector<std::array<crypto::PedersenShare, 4>>>(
      [](Reader& rr) {
        return rr.vec<std::array<crypto::PedersenShare, 4>>(
            [](Reader& r3) {
              std::array<crypto::PedersenShare, 4> a;
              for (auto& s : a) s = decode_ped_share(r3);
              return a;
            },
            4096);
      },
      4096);
  p.zk_sum = r.vec<crypto::PedersenShare>(
      [](Reader& rr) { return decode_ped_share(rr); }, 4096);
  return p;
}

}  // namespace

Bytes TrusteeBallotMsg::signing_bytes(BytesView election_id) const {
  Writer w;
  w.str("ddemos/trustee-ballot");
  w.bytes(election_id);
  w.u64(serial);
  w.u32(trustee_index);
  w.u8(voted);
  w.u8(used_part);
  for (const auto& p : parts) encode_part_data(w, p);
  return w.take();
}

Bytes TrusteeBallotMsg::encode() const {
  Writer w = with_type(MsgType::kTrusteeBallot);
  w.u64(serial);
  w.u32(trustee_index);
  w.u8(voted);
  w.u8(used_part);
  for (const auto& p : parts) encode_part_data(w, p);
  w.bytes(signature);
  return w.take();
}

TrusteeBallotMsg TrusteeBallotMsg::decode(Reader& r) {
  TrusteeBallotMsg m;
  m.serial = r.u64();
  m.trustee_index = r.u32();
  m.voted = r.u8();
  m.used_part = r.u8();
  for (auto& p : m.parts) p = decode_part_data(r);
  m.signature = r.bytes();
  return m;
}

Bytes TrusteeTallyMsg::signing_bytes(BytesView election_id) const {
  Writer w;
  w.str("ddemos/trustee-tally");
  w.bytes(election_id);
  w.u32(trustee_index);
  w.vec(totals, [](Writer& ww, const auto& pair) {
    encode_ped_share(ww, pair.first);
    encode_ped_share(ww, pair.second);
  });
  return w.take();
}

Bytes TrusteeTallyMsg::encode() const {
  Writer w = with_type(MsgType::kTrusteeTally);
  w.u32(trustee_index);
  w.vec(totals, [](Writer& ww, const auto& pair) {
    encode_ped_share(ww, pair.first);
    encode_ped_share(ww, pair.second);
  });
  w.bytes(signature);
  return w.take();
}

TrusteeTallyMsg TrusteeTallyMsg::decode(Reader& r) {
  TrusteeTallyMsg m;
  m.trustee_index = r.u32();
  m.totals = r.vec<std::pair<crypto::PedersenShare, crypto::PedersenShare>>(
      [](Reader& rr) {
        auto a = decode_ped_share(rr);
        auto b = decode_ped_share(rr);
        return std::pair{a, b};
      },
      4096);
  m.signature = r.bytes();
  return m;
}

Bytes BbReadMsg::encode() const {
  Writer w = with_type(MsgType::kBbRead);
  w.str(section);
  w.u64(arg);
  w.u64(request_id);
  return w.take();
}

BbReadMsg BbReadMsg::decode(Reader& r) {
  BbReadMsg m;
  m.section = r.str();
  m.arg = r.u64();
  m.request_id = r.u64();
  return m;
}

Bytes BbReadReplyMsg::encode() const {
  Writer w = with_type(MsgType::kBbReadReply);
  w.str(section);
  w.u64(arg);
  w.u64(request_id);
  w.boolean(available);
  w.bytes(payload);
  return w.take();
}

BbReadReplyMsg BbReadReplyMsg::decode(Reader& r) {
  BbReadReplyMsg m;
  m.section = r.str();
  m.arg = r.u64();
  m.request_id = r.u64();
  m.available = r.boolean();
  m.payload = r.bytes();
  return m;
}

}  // namespace ddemos::core
