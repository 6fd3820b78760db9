// Wire messages exchanged between voters, VC nodes, BB nodes and trustees.
// Every node-visible message starts with a MsgType byte; bodies are
// length-checked on decode (malformed input throws CodecError and is
// dropped by the receiving node).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/types.hpp"
#include "util/bitmap.hpp"

namespace ddemos::core {

enum class MsgType : std::uint8_t {
  // Voter <-> VC (public channel).
  kVote = 1,
  kVoteReply = 2,
  // VC <-> VC voting protocol (authenticated channels).
  kEndorse = 10,
  kEndorsement = 11,
  kVoteP = 12,
  // VC <-> VC vote-set consensus.
  kAnnounce = 20,
  kRecoverRequest = 21,
  kRecoverResponse = 22,
  kConsensus = 23,
  // VC -> BB.
  kVoteSetChunk = 30,
  kVoteSetDone = 31,
  kMskShare = 32,
  // Trustee -> BB.
  kTrusteeBallot = 40,
  kTrusteeTally = 41,
  // Anyone <-> BB (public read channel).
  kBbRead = 50,
  kBbReadReply = 51,
  // VC-internal shard coordination. Never crosses the network: sent to
  // self through Context::send_self (reliable, link-model-free) and
  // ignored from any other sender. kShardDrain flushes one shard's mailbox
  // at election end; kShardBarrier is the fan-in completion that releases
  // the control shard into vote-set consensus.
  kShardDrain = 60,
  kShardBarrier = 61,
};

MsgType peek_type(BytesView msg);

// --- Voting protocol ----------------------------------------------------

struct VoteMsg {
  Serial serial = 0;
  Bytes vote_code;
  Bytes encode() const;
  static VoteMsg decode(Reader& r);
};

enum class VoteReplyStatus : std::uint8_t {
  kOk = 0,
  kOutsideHours = 1,
  kUnknown = 2,       // unknown serial or vote code
  kAlreadyVoted = 3,  // ballot used with a different vote code
};

struct VoteReplyMsg {
  Serial serial = 0;
  VoteReplyStatus status = VoteReplyStatus::kOk;
  std::uint64_t receipt = 0;
  Bytes encode() const;
  static VoteReplyMsg decode(Reader& r);
};

// Canonical bytes a VC node signs when endorsing (serial, vote-code).
Bytes endorsement_digest(BytesView election_id, Serial serial,
                         BytesView vote_code);

struct EndorseMsg {
  Serial serial = 0;
  Bytes vote_code;
  Bytes encode() const;
  static EndorseMsg decode(Reader& r);
};

struct EndorsementMsg {
  Serial serial = 0;
  Bytes vote_code;
  std::uint32_t node_index = 0;
  Bytes signature;
  Bytes encode() const;
  static EndorsementMsg decode(Reader& r);
};

// Uniqueness certificate: Nv - fv endorsement signatures over the same
// (serial, vote-code).
struct Ucert {
  Bytes vote_code;
  std::vector<std::pair<std::uint32_t, Bytes>> signatures;

  void encode(Writer& w) const;
  static Ucert decode(Reader& r);
  // Validates threshold-many correct signatures from distinct nodes (a
  // node index in range of vc_keys). One batch checks the first
  // `threshold` distinct in-range signatures; if it fails, the signatures
  // are checked one by one in order, so a forged signature among more than
  // `threshold` cannot spoil a certificate that holds enough good ones.
  // `single_checks`, when given, grows by the per-signature checks made.
  bool valid(BytesView election_id, Serial serial,
             std::span<const crypto::SchnorrKey> vc_keys, std::size_t threshold,
             std::size_t* single_checks = nullptr) const;
};

struct VotePMsg {
  Serial serial = 0;
  Bytes vote_code;
  std::uint8_t part = 0;       // which ballot part the code belongs to
  std::uint32_t line = 0;      // shuffled line index within the part
  crypto::Share receipt_share;
  std::vector<crypto::Hash32> share_path;
  Ucert ucert;
  Bytes encode() const;
  static VotePMsg decode(Reader& r);
};

// --- Vote-set consensus ---------------------------------------------------

struct AnnounceEntry {
  std::uint64_t instance = 0;  // dense ballot index
  Bytes vote_code;
  Ucert ucert;
  void encode(Writer& w) const;
  static AnnounceEntry decode(Reader& r);
};

struct AnnounceMsg {
  // Entries only for ballots with a known (certified) vote code; all other
  // registered ballots are implicitly announced as null.
  std::vector<AnnounceEntry> entries;
  bool last_chunk = true;
  Bytes encode() const;
  static AnnounceMsg decode(Reader& r);
};

struct RecoverRequestMsg {
  Bitmap instances;  // instances the sender needs a vote code for
  Bytes encode() const;
  static RecoverRequestMsg decode(Reader& r);
};

struct RecoverResponseMsg {
  std::vector<AnnounceEntry> entries;
  Bytes encode() const;
  static RecoverResponseMsg decode(Reader& r);
};

Bytes wrap_consensus(BytesView inner);
// Zero-copy: the returned view aliases the message payload being decoded.
BytesView unwrap_consensus(Reader& r);

// --- VC -> BB -------------------------------------------------------------

struct VoteSetChunkMsg {
  std::vector<VoteSetEntry> entries;
  Bytes encode() const;
  static VoteSetChunkMsg decode(Reader& r);
};

struct VoteSetDoneMsg {
  std::uint64_t total_entries = 0;
  crypto::Hash32 set_hash{};
  Bytes encode() const;
  static VoteSetDoneMsg decode(Reader& r);
};

struct MskShareMsg {
  crypto::Share share;
  std::vector<crypto::Hash32> path;
  Bytes encode() const;
  static MskShareMsg decode(Reader& r);
};

// --- Trustee -> BB ----------------------------------------------------------

// Evaluated Pedersen share (f, g) pair for one scalar.
struct EvalShare {
  crypto::PedersenShare share;
  void encode(Writer& w) const { encode_ped_share(w, share); }
  static EvalShare decode(Reader& r) { return {decode_ped_share(r)}; }
};

struct TrusteePartData {
  // For an opened part: per line, per ciphertext: opening shares (m, r).
  std::vector<std::vector<std::pair<crypto::PedersenShare,
                                    crypto::PedersenShare>>>
      openings;
  // For a used part: per line: responses c0, c1, z0, z1 evaluated at the
  // challenge, plus the sum-proof response.
  std::vector<std::vector<std::array<crypto::PedersenShare, 4>>> zk_bits;
  std::vector<crypto::PedersenShare> zk_sum;
};

struct TrusteeBallotMsg {
  Serial serial = 0;
  std::uint32_t trustee_index = 0;
  std::uint8_t voted = 0;      // 1 if one part was used
  std::uint8_t used_part = 0;  // valid when voted
  std::array<TrusteePartData, kNumParts> parts;
  Bytes signature;  // over everything above

  Bytes signing_bytes(BytesView election_id) const;
  Bytes encode() const;
  static TrusteeBallotMsg decode(Reader& r);
};

struct TrusteeTallyMsg {
  std::uint32_t trustee_index = 0;
  // Per option: share of (tally count, total randomness).
  std::vector<std::pair<crypto::PedersenShare, crypto::PedersenShare>> totals;
  Bytes signature;

  Bytes signing_bytes(BytesView election_id) const;
  Bytes encode() const;
  static TrusteeTallyMsg decode(Reader& r);
};

// --- BB public read channel -------------------------------------------------

struct BbReadMsg {
  std::string section;     // "meta", "voteset", "cast-info", "ballot",
                           // "result", "challenge"
  std::uint64_t arg = 0;   // serial for "ballot"
  std::uint64_t request_id = 0;
  Bytes encode() const;
  static BbReadMsg decode(Reader& r);
};

struct BbReadReplyMsg {
  std::string section;
  std::uint64_t arg = 0;
  std::uint64_t request_id = 0;
  bool available = false;
  Bytes payload;
  Bytes encode() const;
  static BbReadReplyMsg decode(Reader& r);
};

}  // namespace ddemos::core
