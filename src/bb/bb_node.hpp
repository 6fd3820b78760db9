// Bulletin Board node (paper Section III-G). Isolated replicas: a BB node
// never contacts another BB node. Reads are public; writes are verified:
//  * the final vote set is accepted once fv+1 VC nodes push byte-identical
//    sets;
//  * msk is reconstructed from Nv-fv Merkle-verified VC key shares and
//    checked against the H_msk fingerprint, then the committed vote codes
//    are decrypted and the cast (part, line) positions published;
//  * trustee writes are signature-checked and every Pedersen share is
//    verified against the published coefficient commitments before use;
//    with ht verified trustee contributions the node opens unused parts,
//    completes the ZK proofs and publishes the final tally. The trustee
//    signature checks and the folded share check charge their simulated
//    CPU time from sim/cost_table.hpp.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <set>

#include "core/messages.hpp"
#include "sim/runtime.hpp"
#include "store/wal.hpp"

namespace ddemos::bb {

// The BB WAL holds raw accepted write messages (sender id + payload): the
// node's state is a pure fold over its verified write stream, so replay
// simply re-runs on_message — including every signature and Merkle check,
// since a disk record is no more trusted than the network was.
inline constexpr std::uint8_t kBbWalMessage = 1;

// What a BB node has published for one ballot line after msk
// reconstruction (decrypted vote code) and trustee writes (openings / ZK).
struct PublishedLine {
  Bytes decrypted_code;                   // published after msk reveal
  bool opened = false;
  std::vector<std::uint64_t> messages;    // size m when opened
  std::vector<crypto::Fn> randomness;     // size m when opened
  bool zk_complete = false;
  std::vector<crypto::BitProofResponse> bit_responses;  // size m when done
  crypto::Fn sum_response;
};

struct PublishedBallot {
  bool voted = false;
  std::uint8_t used_part = 0;
  std::uint32_t used_line = 0;
  // [part][line]
  std::array<std::vector<PublishedLine>, core::kNumParts> lines;
};

struct ElectionResult {
  std::vector<std::uint64_t> tally;   // per option
  std::vector<crypto::Fn> total_randomness;
};

class BbNode final : public sim::Process {
 public:
  explicit BbNode(core::BbInit init);

  void on_message(sim::NodeId from, const net::Buffer& payload) override;

  // --- public read API (also served over the network read channel) ------
  // These three completion flags are atomic because the ThreadNet
  // completion predicate and the driver's phase probe read them from the
  // waiter thread while this node's worker is still running; everything
  // else on this class is single-writer node state, safe to read only
  // after the runtime has stopped.
  bool vote_set_published() const { return vote_set_accepted_; }
  bool codes_published() const { return codes_published_; }
  bool result_published() const { return result_published_; }
  // Phase timestamps (virtual time) for the Figure 5c breakdown.
  sim::TimePoint vote_set_accepted_at() const { return vote_set_at_; }
  sim::TimePoint codes_published_at() const { return codes_at_; }
  sim::TimePoint result_published_at() const { return result_at_; }
  const std::vector<core::VoteSetEntry>& vote_set() const {
    return accepted_set_;
  }
  const std::optional<ElectionResult>& result() const { return result_; }
  const core::BbInit& init() const { return init_; }

  // Serialized section payloads (deterministic; majority-comparable).
  // Returns nullopt while the section is not yet available.
  std::optional<Bytes> read_section(const std::string& section,
                                    std::uint64_t arg = 0) const;

  // Cast info derived after decryption: (serial, part, line) per cast vote.
  struct CastInfo {
    core::Serial serial;
    std::uint8_t part;
    std::uint32_t line;
  };
  const std::vector<CastInfo>& cast_info() const { return cast_info_; }
  const crypto::Fn& challenge() const { return challenge_; }
  const std::map<core::Serial, PublishedBallot>& published() const {
    return published_;
  }

  // Durability: hands the node its write-ahead log (ownership transfers)
  // and replays it immediately by re-dispatching every logged write
  // through on_message with sends/timestamps suppressed. Call before the
  // hosting runtime starts. Throws store::WalError on corruption.
  void attach_wal(std::unique_ptr<store::Wal> wal);
  std::uint64_t wal_records() const { return wal_ ? wal_->records() : 0; }

 private:
  void handle_vote_set_chunk(std::size_t vc, Reader& r);
  void handle_vote_set_done(std::size_t vc, Reader& r);
  void handle_msk_share(std::size_t vc, Reader& r);
  void handle_trustee_ballot(Reader& r);
  void handle_trustee_tally(Reader& r);
  void handle_read(sim::NodeId from, Reader& r);
  void maybe_accept_vote_set();
  void maybe_decrypt_codes();
  void maybe_combine_ballot(core::Serial serial);
  void maybe_publish_result();
  std::optional<std::size_t> vc_index_of(sim::NodeId id) const;
  std::size_t ballot_index(core::Serial serial) const;
  // ctx() is unbound while the WAL replays (the node is not hosted yet);
  // phase timestamps from replayed history are stamped 0, and on_start
  // they read as "published before this incarnation began".
  sim::TimePoint now_safe() const { return replaying_ ? 0 : ctx().now(); }
  // Charges the simulator cost table's price of a check; replayed history
  // was paid for by the incarnation that first ran it.
  void charge(sim::Duration cpu) {
    if (!replaying_) ctx().charge(cpu);
  }

  core::BbInit init_;
  std::vector<crypto::SchnorrKey> trustee_keys_;  // decoded once
  std::unique_ptr<store::Wal> wal_;
  bool replaying_ = false;  // true only inside attach_wal's replay pass
  std::map<core::Serial, std::size_t> serial_index_;

  // Vote-set acceptance.
  struct VcSubmission {
    std::vector<core::VoteSetEntry> entries;
    std::optional<crypto::Hash32> done_hash;
    std::uint64_t expected = 0;
  };
  std::vector<VcSubmission> submissions_;
  std::atomic<bool> vote_set_accepted_{false};
  std::vector<core::VoteSetEntry> accepted_set_;

  // msk reconstruction.
  std::map<std::uint32_t, crypto::Share> msk_shares_;
  std::optional<Bytes> msk_;
  std::atomic<bool> codes_published_{false};
  std::vector<CastInfo> cast_info_;
  Bytes coins_;
  crypto::Fn challenge_;

  // Trustee data per serial. A dataset keeps its verdict until its trustee
  // replaces it; once the ballot is combined its datasets are freed, and
  // later ones are dropped before their signature check.
  struct TrusteeDataset {
    core::TrusteeBallotMsg msg;
    std::optional<bool> valid;  // unset until checked
  };
  struct TrusteeBallots {
    std::map<std::uint32_t, TrusteeDataset> by_trustee;
    bool combined = false;
  };
  std::map<core::Serial, TrusteeBallots> trustee_ballots_;
  std::map<std::uint32_t, core::TrusteeTallyMsg> trustee_tally_data_;
  std::map<core::Serial, PublishedBallot> published_;
  std::optional<ElectionResult> result_;
  std::atomic<bool> result_published_{false};  // set after result_ settles
  sim::TimePoint vote_set_at_ = -1;
  sim::TimePoint codes_at_ = -1;
  sim::TimePoint result_at_ = -1;
};

}  // namespace ddemos::bb
