// Vote Collector node (paper Sections III-E, Algorithm 1). Runs:
//  * the voting protocol: VOTE from the voter, ENDORSE/ENDORSEMENT to form
//    the uniqueness certificate UCERT, VOTE_P share disclosure, receipt
//    reconstruction from Nv-fv Shamir shares, receipt back to the voter;
//  * vote-set consensus at election end: ANNOUNCE dispersal, one batched
//    binary consensus instance per registered ballot, RECOVER for ballots
//    decided "voted" whose certified code this node lacks;
//  * the final push of the agreed vote set and the msk key share to the BBs.
//
// Intra-node sharding (Options::n_shards): the contiguous serial range is
// partitioned across shards by interleaving — shard(serial) =
// instance % n_shards, where instance = serial - first_serial — so a
// serial-ordered casting burst spreads evenly instead of landing on one
// shard (contiguous blocks would). Each shard exclusively owns its slice
// of ballot/endorse state plus its stats slot, and the runtimes guarantee
// shard-affine dispatch (sim::ShardedProcess): the per-ballot hot path
// (VOTE/ENDORSE/ENDORSEMENT/VOTE_P) runs lock-free on the owning shard.
// Everything else — ANNOUNCE bookkeeping, consensus, recovery, the BB push
// — runs on shard 0, the control shard, and only after a shard fan-in
// barrier: at election end the control shard posts a kShardDrain loopback
// to every shard; because shard mailboxes are FIFO, a shard's drain
// confirms every voting-phase handler enqueued before election end has
// retired, and the last drain releases the control shard (kShardBarrier)
// into the announce scan over all slices. Certified ANNOUNCE entries that
// arrive from faster peers before the barrier are buffered and adopted at
// the barrier; RECOVER requests that arrive before it are dropped (the
// requester retries). One shard is the same sequence with a single slice.
//
// Every handler charges its simulated CPU time from sim/cost_table.hpp:
// one decode per message, each Schnorr sign and check, each ballot-store
// page fault. Signatures are always made and checked for real.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/binary_consensus.hpp"
#include "core/messages.hpp"
#include "sim/runtime.hpp"
#include "store/ballot_store.hpp"
#include "store/wal.hpp"

namespace ddemos::vc {

// WAL record types written by a VC node (store::Wal payload tag byte).
// Pending/cast records accumulate during voting; the announce-time
// snapshot compacts them into one state blob; decided/pushed mark the
// phase boundaries a restarted node resumes from.
inline constexpr std::uint8_t kWalPending = 1;   // UCERT attached to a ballot
inline constexpr std::uint8_t kWalCast = 2;      // receipt reconstructed
inline constexpr std::uint8_t kWalSnapshot = 3;  // full ballot-state blob
inline constexpr std::uint8_t kWalDecided = 4;   // consensus decisions bitmap
inline constexpr std::uint8_t kWalPushed = 5;    // BB push started

enum class BallotStatus : std::uint8_t { kNotVoted, kPending, kVoted };

enum class Phase : std::uint8_t {
  kVoting,
  kDraining,  // election ended, shard fan-in in flight
  kAnnounce,
  kConsensus,
  kRecovery,
  kPush,
  kDone,
};

struct VcStats {
  std::uint64_t votes_received = 0;
  std::uint64_t receipts_issued = 0;
  std::uint64_t rejected_votes = 0;
  sim::TimePoint voting_ended_at = 0;
  sim::TimePoint consensus_done_at = 0;
  sim::TimePoint push_done_at = 0;
};

// Per-shard counters; each slot is written only by its owning shard, so
// no synchronization on the hot path. queue_high_water is filled in by the
// hosting runtime at harvest time (per-shard mailbox depth on ThreadNet;
// zero on the simulator, which has one global event queue).
struct VcShardStats {
  std::uint64_t handled_messages = 0;
  std::uint64_t votes_received = 0;
  std::uint64_t receipts_issued = 0;
  std::uint64_t rejected_votes = 0;
  std::uint64_t endorsements_signed = 0;
  // Signature work: one batch per endorsement quorum and per UCERT
  // checked, and one single check per signature of a failed batch.
  std::uint64_t signature_batches = 0;
  std::uint64_t signature_checks = 0;
  std::uint64_t queue_high_water = 0;
};

struct VcOptions {
  // Intra-node worker shards over the serial range (see file comment).
  // Every count runs the same drain/barrier state machine and requires
  // contiguous serials (the EA default); a gapped ballot source is
  // rejected with ProtocolError at construction.
  std::size_t n_shards = 1;
};

class VcNode final : public sim::ShardedProcess {
 public:
  using Options = VcOptions;

  VcNode(core::VcInit init, std::shared_ptr<store::BallotDataSource> source,
         std::vector<sim::NodeId> vc_ids, std::vector<sim::NodeId> bb_ids,
         Options options = {});

  void on_start() override;
  void on_message(sim::NodeId from, const net::Buffer& payload) override;
  void on_timer(std::uint64_t token) override;

  // --- sharding surface (sim::ShardedProcess) ------------------------------
  std::size_t shard_count() const override { return opt_.n_shards; }
  // Shard-affine routing keyed off the serial in the message header; pure
  // and thread-safe (called from sender threads on ThreadNet). Anything
  // without a per-ballot serial — announce/consensus/recovery/control —
  // maps to shard 0.
  std::size_t shard_of(sim::NodeId from,
                       const net::Buffer& payload) const override;
  // The serial → shard mapping itself (total: unknown serials map to the
  // control shard); exposed for the shard test suite.
  std::size_t shard_of_serial(core::Serial serial) const;

  // Durability: hands the node its write-ahead log and takes ownership.
  // The log is replayed immediately — a restarted process reconstructs
  // the per-ballot state its previous incarnation persisted — and every
  // state transition from then on is appended. Must be called before the
  // hosting runtime starts (replay mutates ballot state with no locks and
  // the on_start continuation depends on what was replayed). Throws
  // store::WalError on mid-file corruption: recovery fails closed rather
  // than rejoining the election with silently damaged state.
  void attach_wal(std::unique_ptr<store::Wal> wal);
  // Records currently in the log (0 when durability is off); exposed for
  // tests asserting compaction behavior.
  std::uint64_t wal_records() const { return wal_ ? wal_->records() : 0; }

  // phase_ is atomic: the ThreadNet completion predicate and the driver's
  // phase probe read it from the waiter thread mid-run.
  Phase phase() const { return phase_; }
  bool push_complete() const { return phase_ == Phase::kDone; }
  const std::vector<core::VoteSetEntry>& final_vote_set() const {
    return final_set_;
  }
  // Aggregate over all shards plus the control-shard phase timings.
  VcStats stats() const;
  // One entry per shard; stable to read once the run has settled.
  std::vector<VcShardStats> shard_stats() const;

 private:
  struct BallotState {
    BallotStatus status = BallotStatus::kNotVoted;
    Bytes code;
    std::uint8_t part = 0;
    std::uint32_t line = 0;
    core::Ucert ucert;
    std::map<std::uint32_t, crypto::Share> shares;  // by 1-based node x
    std::uint64_t receipt = 0;
    bool vote_p_sent = false;
    std::vector<sim::NodeId> waiters;  // voters awaiting the receipt
  };
  enum class SigCheck : std::uint8_t { kUnchecked, kGood, kBad };
  struct Endorsement {
    SigCheck check = SigCheck::kUnchecked;
    Bytes sig;
  };
  struct EndorseState {
    bool active = false;  // dense storage: slot in use
    Bytes code;
    std::uint8_t part = 0;
    std::uint32_t line = 0;
    // By signer index. Endorsements wait unchecked until a quorum of them
    // is in hand and are then checked in one batch; a signer whose
    // endorsement failed stays kBad and is not checked again.
    std::map<std::uint32_t, Endorsement> sigs;
    bool ucert_formed = false;
  };
  // Cache-line padded so shards writing adjacent slots never false-share.
  struct alignas(64) ShardSlot {
    VcShardStats stats;
  };

  // --- voting protocol ---------------------------------------------------
  void handle_vote(sim::NodeId from, Reader& r);
  void handle_endorse(sim::NodeId from, Reader& r);
  void handle_endorsement(sim::NodeId from, Reader& r);
  void handle_vote_p(sim::NodeId from, Reader& r);
  // Checks the unchecked endorsements once a quorum of not-bad ones is
  // held; true when a quorum of them is good.
  bool endorsement_quorum(core::Serial serial, EndorseState& es);
  void send_own_vote_p(core::Serial serial, BallotState& st);
  void complete_vote(core::Serial serial, BallotState& st);

  // --- vote-set consensus --------------------------------------------------
  void begin_vote_set_consensus();
  void handle_announce(sim::NodeId from, Reader& r);
  void adopt_entry(const core::AnnounceEntry& e);
  void maybe_start_consensus();
  void on_consensus_complete();
  // Certified (code + UCERT) entries of every known ballot, restricted to
  // the instances set in `only` when given: the ANNOUNCE and
  // RECOVER_RESPONSE payloads.
  std::vector<core::AnnounceEntry> certified_entries(const Bitmap* only) const;
  void handle_recover_request(sim::NodeId from, Reader& r);
  void handle_recover_response(sim::NodeId from, Reader& r);
  void send_recover_request();
  void maybe_finish_recovery();
  void push_to_bb();

  // --- shard coordination ----------------------------------------------------
  // --- durability ----------------------------------------------------------
  // Appends one record per transition (no-ops when no WAL is attached);
  // called from shard workers, so the Wal itself serializes.
  void wal_log_ucert(std::size_t instance, const BallotState& st);
  void wal_log_cast(std::size_t instance, const BallotState& st);
  // Compacts every per-ballot record into one snapshot blob at the
  // announce phase boundary.
  void wal_snapshot_state();
  // Applies one replayed record to the in-memory state. Runs before the
  // node has a Context: it must not send, charge, set timers, or verify
  // signatures — a node trusts its own log (records were only written
  // after verification the first time around).
  void wal_replay_record(std::uint8_t type, BytesView payload);

  void start_shard_drain();
  void handle_shard_drain(sim::NodeId from, Reader& r);
  void handle_shard_barrier(sim::NodeId from, Reader& r);
  VcShardStats& stats_for(core::Serial serial) {
    return shard_slots_[shard_of_serial(serial)].stats;
  }
  // Routing for a message whose type byte is already consumed; takes the
  // Reader by value so the caller's position is untouched (shared by
  // shard_of and on_message's per-shard bookkeeping).
  std::size_t shard_after_type(core::MsgType type, Reader r) const;

  // --- helpers -------------------------------------------------------------
  // One payload allocation total: every recipient shares the Buffer handle.
  void multicast_vc(const net::Buffer& msg);
  std::optional<std::size_t> vc_index_of(sim::NodeId id) const;
  bool within_hours() const;  // uses the node's (virtual) local clock
  // Locates (part, line) of a vote code in a ballot; nullopt if absent.
  std::optional<std::pair<std::uint8_t, std::uint32_t>> verify_vote_code(
      const core::VcBallotInit& ballot, BytesView code);
  bool verify_receipt_share(const core::VcBallotInit& ballot,
                            std::uint8_t part, std::uint32_t line,
                            const crypto::Share& share,
                            std::span<const crypto::Hash32> path);
  bool verify_ucert(core::Serial serial, const core::Ucert& ucert);
  // Charges the cost table's price of `batched` signatures checked in one
  // batch plus `singles` checked alone.
  void charge_signature_checks(std::size_t batched, std::size_t singles);
  Bytes sign_endorsement(core::Serial serial, BytesView code);
  // Dense ballot index for a registered serial (nullopt if unknown); O(1)
  // because serials are contiguous (checked at construction).
  std::optional<std::size_t> instance_of(core::Serial serial) const;
  BallotState& state_at(std::size_t instance) { return states_[instance]; }
  // Store lookup charging the cost table's page-fault latency; see
  // store::BallotDataSource::find for who owns the result.
  const core::VcBallotInit* find_ballot(core::Serial serial,
                                        core::VcBallotInit& buf);

  core::VcInit init_;
  std::shared_ptr<store::BallotDataSource> source_;
  std::vector<sim::NodeId> vc_ids_;
  std::vector<sim::NodeId> bb_ids_;
  Options opt_;
  // Keys of the election decoded once: every VC's verifier key, and this
  // node's signing key with its public half.
  std::vector<crypto::SchnorrKey> vc_keys_;
  crypto::KeyPair signing_key_;

  std::atomic<Phase> phase_{Phase::kVoting};
  // Per-ballot state, dense by instance index (serials are contiguous from
  // EA setup, so instance = serial - first serial). Replaces the former
  // std::map<Serial, ...>: O(1) lookups, no rebalancing, cache-linear
  // scans during the announce/push phases. Slot i is owned by shard
  // i % n_shards; the vectors themselves are never resized after
  // construction, so cross-shard slot access never invalidates.
  std::vector<BallotState> states_;
  std::vector<EndorseState> endorse_states_;
  std::size_t n_ballots_ = 0;
  core::Serial first_serial_ = 0;
  std::uint64_t end_timer_ = 0;
  std::uint64_t recover_timer_ = 0;

  // Shard fan-in barrier state.
  std::atomic<std::size_t> drained_{0};
  // Certified announce entries from faster peers, buffered while shards
  // may still be voting; adopted by the control shard at the barrier.
  std::vector<core::AnnounceEntry> pending_adopts_;
  std::vector<ShardSlot> shard_slots_;

  // Vote-set consensus state (control shard only).
  std::unique_ptr<consensus::BatchBinaryConsensus> consensus_;
  Bitmap announce_done_;        // which VC peers completed their announce
  Bitmap consensus_input_;      // defers until announce quorum
  bool consensus_started_ = false;
  // Whole payload Buffers (handle copies, not byte copies) of consensus
  // messages that arrived before our own election-end timer fired; they
  // are re-unwrapped when consensus starts.
  std::vector<std::pair<std::size_t, net::Buffer>> queued_consensus_;
  Bitmap recover_needed_;
  std::vector<core::VoteSetEntry> final_set_;

  // Durability state. decisions_ is the consensus outcome copied out of
  // the engine at decide time (or restored from the WAL): push/recovery
  // read it instead of consensus_->decisions() because a restarted node
  // resuming past the decision has no live consensus engine at all.
  std::unique_ptr<store::Wal> wal_;
  Bitmap decisions_;
  bool replayed_announce_ = false;  // log held the announce-time snapshot
  bool replayed_decided_ = false;   // log held the decisions bitmap
  bool replayed_pushed_ = false;    // previous incarnation started its push

  VcStats stats_;  // control-shard timings; counters live in shard slots
};

}  // namespace ddemos::vc
