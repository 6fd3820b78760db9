// Runtime-neutral election orchestration — the top of the public API.
// ElectionDriver instantiates an election described by a DriverConfig on
// any sim::RuntimeHost (the deterministic simulator or the multi-threaded
// transport), streams the voter workload from a core::Workload source (so
// configs stay O(1) in the number of voters), drives the run through the
// host's run_to_quiescence completion wait, and harvests a structured
// ElectionReport: tally, receipts, per-phase durations, VC stats, and
// event/allocation counts. ElectionObserver hooks fire as the election
// crosses phase boundaries on either backend.
#pragma once

#include <functional>
#include <memory>

#include "bb/bb_node.hpp"
#include "client/auditor.hpp"
#include "client/voter.hpp"
#include "core/workload.hpp"
#include "ea/ea.hpp"
#include "sim/sim.hpp"
#include "store/ballot_store.hpp"
#include "store/wal.hpp"
#include "trustee/trustee_node.hpp"
#include "vc/vc_node.hpp"

namespace ddemos::core {

class ElectionObserver;

// Durable-node knob. When wal_dir is set, every *locally hosted* VC and BB
// node (RuntimeHost::is_local) gets a write-ahead log at
// <wal_dir>/<node name>.wal: state transitions are appended as they
// happen (cast accepted, announce snapshot, consensus decided, push
// published; raw accepted writes on the BBs) and a node constructed over
// an existing log replays it before start, resuming a live election where
// the previous process died. See DESIGN.md "Write-ahead log".
struct DurabilityConfig {
  std::string wal_dir;  // empty = durability off (the default)
  store::FsyncPolicy fsync = store::FsyncPolicy::kInterval;
  std::size_t fsync_interval = 64;  // records per fsync under kInterval
  bool enabled() const { return !wal_dir.empty(); }
  std::string wal_path(const std::string& node_name) const {
    return wal_dir + "/" + node_name + ".wal";
  }
  store::WalOptions wal_options() const { return {fsync, fsync_interval}; }
};

struct DriverConfig {
  ElectionParams params;
  std::uint64_t seed = 1;
  // Voter workload source; null defaults to RoundRobinWorkload (every slot
  // votes, option = slot % m, casts spread over the window).
  std::shared_ptr<Workload> workload;
  // Every VC node's options. vc_options.n_shards is the intra-node worker
  // shard count: each node's serial range is partitioned across that many
  // shards — one worker thread per shard on ThreadNet, one virtual
  // processor per shard on the simulator. Every count requires contiguous
  // serials (the EA default).
  vc::VcNode::Options vc_options;
  client::Voter::Config voter_template;  // patience etc. (ballot filled in)
  // Indices of nodes to crash before start (simulator backend only).
  std::vector<std::size_t> crashed_vcs;
  std::vector<std::size_t> crashed_bbs;
  std::vector<std::size_t> crashed_trustees;
  // Custom ballot source per VC node (e.g. DiskBallotSource, or a process's
  // own slice of a streamed setup); defaults to MemoryBallotSource over the
  // EA's data. Called for every VC, hosted here or not.
  std::function<std::shared_ptr<store::BallotDataSource>(const VcInit&)>
      store_factory;
  // Invoked on the EA's output before any node is constructed. Used by
  // verifiability tests and examples to play a malicious EA (modification /
  // clash attacks) against the auditors. Ignored when `artifacts` is set.
  std::function<void(ea::SetupArtifacts&)> tamper_setup;
  // Trustee behaviour (poll interval etc.) shared by both runtimes.
  trustee::TrusteeNode::Options trustee_options;
  // Write-ahead logging + crash recovery for VC/BB nodes (off by default).
  DurabilityConfig durability;
  // Precomputed setup to reuse across backends (runtime parity) or runs;
  // null = the driver runs ea_setup itself.
  std::shared_ptr<const ea::SetupArtifacts> artifacts;
  // Borrowed observers, registered before setup so they see every hook
  // (add_observer after construction only catches phase/completion hooks).
  std::vector<ElectionObserver*> observers;

  // Backend knobs. link configures the driver-owned simulator; an
  // externally hosted backend keeps whatever the caller set on it.
  sim::LinkModel link = sim::LinkModel::lan();
  std::size_t max_events = 50'000'000;  // simulator event budget per run()
  sim::Duration wall_timeout_us = 60'000'000;  // ThreadNet completion cap
  // Events between phase probes on the simulator: smaller = sharper phase
  // boundaries for observers, at some dispatch-loop overhead.
  std::size_t probe_interval = 1024;
};

// Node ids of an election instantiated on some RuntimeHost.
struct VoterSlot {
  std::size_t slot = 0;    // ballot slot index
  std::size_t option = 0;  // option this voter casts
};
struct ElectionTopology {
  std::vector<sim::NodeId> vc_ids, bb_ids, trustee_ids;
  // One entry per instantiated voter (non-abstaining workload intent), in
  // stream order; O(votes cast), never O(n_voters).
  std::vector<sim::NodeId> voter_ids;
  std::vector<VoterSlot> voter_slots;  // parallel to voter_ids
  // Closed-loop workloads get one multiplexing client instead of per-slot
  // voters.
  sim::NodeId load_client_id = sim::kNoNode;
};

// Phase boundaries of a completed election, in the host's time base
// (virtual microseconds on the simulator, wall microseconds on ThreadNet),
// with the paper's Figure-5c durations derived from them.
struct PhaseBreakdown {
  sim::TimePoint t_start = 0, t_end = 0;       // configured election hours
  sim::TimePoint last_receipt_at = 0;          // vote collection ends
  // The VC stamps are the time n_vc - f_vc VC nodes got there, the
  // quorum the BBs wait for.
  sim::TimePoint voting_ended_at = 0;
  sim::TimePoint consensus_done_at = 0;
  sim::TimePoint push_done_at = 0;
  sim::TimePoint tally_published_at = 0;       // max BB codes_published_at
  sim::TimePoint result_published_at = 0;      // max BB result_published_at

  double collection_s() const {
    return static_cast<double>(last_receipt_at - t_start) / 1e6;
  }
  double consensus_s() const {
    return static_cast<double>(consensus_done_at - t_end) / 1e6;
  }
  double push_tally_s() const {
    return static_cast<double>(tally_published_at - consensus_done_at) / 1e6;
  }
  double publish_s() const {
    return static_cast<double>(result_published_at - tally_published_at) / 1e6;
  }
};

// Per-OS-process accounting row for a multi-process (TcpNet) run, merged
// from the node processes' reports by core::TcpLauncher. Field names mirror
// bench::Instrumentation's accounting fields so bench rows can emit either
// source uniformly. Single-process backends leave the vector empty.
struct NodeAccounting {
  std::string name;  // "launcher", "vc0", "bb1", ...
  std::uint64_t events = 0;       // handler invocations in that process
  std::uint64_t allocations = 0;  // Buffer payload allocations
  std::uint64_t rss_kb = 0;
  std::uint64_t peak_rss_kb = 0;
  // Transport counters (zero for the simulator/ThreadNet).
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t frames_dropped = 0;
};

// One protocol node's harvest row, the same on every host: the in-process
// driver merges these rows into its ElectionReport, and a TcpNet node
// process ships them to the launcher in its C_REPORT, which merges them
// the same way. A crashed or killed node gives no row.
struct TcpNodeReport {
  std::uint32_t node_id = 0;
  enum Kind : std::uint8_t { kVc = 0, kBb = 1, kTrustee = 2 };
  std::uint8_t kind = kVc;
  // VC fields
  vc::VcStats vc_stats;
  std::vector<vc::VcShardStats> vc_shard_stats;
  std::vector<VoteSetEntry> vote_set;
  // BB fields
  bool result_published = false;
  std::vector<std::uint64_t> tally;
  sim::TimePoint codes_published_at = 0;
  sim::TimePoint result_published_at = 0;

  void encode(Writer& w) const;
  static TcpNodeReport decode(Reader& r);
};

// Structured outcome of a driver run; everything the benches and tests
// previously scraped from node internals.
struct ElectionReport {
  bool completed = false;  // every live BB published a result
  std::vector<std::uint64_t> tally;  // published tally (empty if none)
  // Ground truth from the workload: receipts obtained per option.
  std::vector<std::uint64_t> expected_tally;
  std::vector<VoteSetEntry> vote_set;  // agreed set (first live VC)
  std::size_t voters_launched = 0;  // non-abstaining intents instantiated
  std::size_t receipts_issued = 0;  // receipts actually obtained
  // Printed receipt per voter holding one, in workload stream order (empty
  // in closed-loop mode, where receipts_issued still counts completions).
  std::vector<std::uint64_t> receipts;
  PhaseBreakdown phases;
  vc::VcStats vc_totals;               // counters summed, timings maxed
  std::vector<vc::VcStats> vc_stats;   // per VC node
  // Per-shard breakdown [vc node][shard]: handled messages, endorsements,
  // receipts, and (on ThreadNet) the shard mailbox high-water mark. One
  // entry per shard even when vc_options.n_shards = 1.
  std::vector<std::vector<vc::VcShardStats>> vc_shard_stats;
  // Runtime accounting for the run() span (zeros on ThreadNet where noted).
  std::uint64_t events_processed = 0;    // handler invocations, both backends
  std::uint64_t messages_delivered = 0;  // simulator only
  std::uint64_t messages_dropped = 0;    // simulator only
  std::uint64_t payload_allocations = 0;
  std::uint64_t peak_rss_kb = 0;  // process peak RSS sampled after the run
  // One row per OS process on a TcpNet cluster (launcher first); empty on
  // the single-process backends.
  std::vector<NodeAccounting> process_accounting;
  double wall_seconds = 0;  // real time spent inside run()
  double events_per_sec() const {
    return wall_seconds > 0 ? events_processed / wall_seconds : 0;
  }
};

enum class ElectionPhase : std::uint8_t {
  kVoting,     // election hours: clients casting, receipts flowing
  kConsensus,  // every live VC entered vote-set consensus
  kTally,      // every live BB published the code/tally material
  kResult,     // every live BB published the final result
};

// Phase hooks, fired from within the run on both backends (timestamps are
// probe-time observations in the host's time base; exact boundaries land
// in the report's PhaseBreakdown).
class ElectionObserver {
 public:
  virtual ~ElectionObserver() = default;
  virtual void on_setup_complete(const ea::SetupArtifacts&) {}
  virtual void on_election_built(const ElectionTopology&) {}
  virtual void on_phase_entered(ElectionPhase, sim::TimePoint /*at*/) {}
  virtual void on_complete(const ElectionReport&) {}
};

// Instantiates every protocol node of the election described by `cfg` on
// `host`, streaming voters from the workload. This is the single code path
// every backend uses; runtime-specific setup (link models, crash
// injection) happens on the concrete runtime around this call.
ElectionTopology build_election(sim::RuntimeHost& host,
                                const ea::SetupArtifacts& artifacts,
                                const DriverConfig& cfg);

// The two halves of build_election, for hosts where they run in different
// OS processes (TcpNet): every process builds the protocol-node prefix —
// VCs 0..Nv-1, then BBs, then trustees, the id convention BB nodes rely on
// to authenticate VC writers — and only the launcher process streams the
// client half on top. On TcpNet, add_node keeps just the nodes the calling
// process hosts, so running the identical build in every process yields
// an aligned id/name space with each node constructed exactly once.
//
// build_protocol_nodes is the one place protocol nodes are constructed and
// their WALs attached. It builds the BBs and trustees the artifacts carry:
// vc_only artifacts carry none, so they give a VC-only cluster.
ElectionTopology build_protocol_nodes(sim::RuntimeHost& host,
                                      const ea::SetupArtifacts& artifacts,
                                      const DriverConfig& cfg);
void build_clients(sim::RuntimeHost& host,
                   const ea::SetupArtifacts& artifacts,
                   const DriverConfig& cfg, ElectionTopology& topo);

// The election harvest, shared by every host. harvest_nodes reads the row
// of each VC and BB in `topo` that `hosted` accepts: a VC's stats, its
// per-shard rows with the host's shard-mailbox high-water merged in, and
// its agreed vote set; a BB's result flag, tally and publish stamps.
std::vector<TcpNodeReport> harvest_nodes(
    sim::RuntimeHost& host, const ElectionTopology& topo,
    const std::function<bool(sim::NodeId)>& hosted);
// Folds rows into a report: per-VC stats and [n_vc][n_shards] shard rows
// (zeros for a VC without a row), VC totals (counters summed, timings
// maxed), the first non-empty vote set, the first published tally, the
// phase stamps (see PhaseBreakdown), and `completed` = some BB reported
// and every BB published.
ElectionReport merge_node_reports(const ElectionParams& params,
                                  std::size_t n_shards,
                                  const std::vector<TcpNodeReport>& rows);
// The client half: receipts, receipts_issued, voters_launched,
// expected_tally and last_receipt_at from the closed-loop client or the
// voters in `topo`.
void harvest_clients(sim::RuntimeHost& host, const ElectionTopology& topo,
                     std::size_t n_options, ElectionReport& r);

class ElectionDriver {
 public:
  // Owns a deterministic simulator backend (the common case).
  explicit ElectionDriver(DriverConfig config);
  // Hosts the election on an externally owned backend (Simulation or
  // ThreadNet); crash lists require the simulator.
  ElectionDriver(sim::RuntimeHost& host, DriverConfig config);

  // Observers are borrowed, not owned; add before run().
  void add_observer(ElectionObserver* observer);

  // Runs the election to completion on the configured backend and returns
  // the harvested report (also retained, see report()).
  ElectionReport run();
  const ElectionReport& report() const { return report_; }

  sim::RuntimeHost& host() { return *host_; }
  // The simulator backend; throws ProtocolError on a different backend.
  sim::Simulation& simulation();
  const ea::SetupArtifacts& artifacts() const { return *artifacts_; }
  const ElectionTopology& topology() const { return topo_; }

  vc::VcNode& vc_node(std::size_t i);
  bb::BbNode& bb_node(std::size_t i);
  trustee::TrusteeNode& trustee_node(std::size_t i);
  client::Voter& voter(std::size_t i);
  std::size_t voter_count() const { return topo_.voter_ids.size(); }
  // The closed-loop client, or null when the workload is open-loop.
  ClosedLoopClient* load_client();

  std::vector<const bb::BbNode*> bb_views() const;
  client::MajorityReader reader() const {
    return client::MajorityReader(bb_views(), cfg_.params.f_bb);
  }

  // The expected tally given the configured workload (ground truth):
  // receipts obtained per option.
  std::vector<std::uint64_t> expected_tally() const;

 private:
  void init();
  bool completion_reached() const;
  void probe_phases();
  bool crashed(sim::NodeId id) const;

  DriverConfig cfg_;
  std::shared_ptr<const ea::SetupArtifacts> artifacts_;
  std::unique_ptr<sim::Simulation> owned_sim_;
  sim::RuntimeHost* host_ = nullptr;
  sim::Simulation* sim_ = nullptr;  // host_ when it is a Simulation
  ElectionTopology topo_;
  // Node pointers cached at build time so the ThreadNet completion
  // predicate and the phase probe avoid per-call dynamic_casts.
  std::vector<vc::VcNode*> vcs_;
  std::vector<bb::BbNode*> bbs_;
  ClosedLoopClient* client_ = nullptr;
  std::vector<ElectionObserver*> observers_;
  ElectionReport report_;
  bool consensus_seen_ = false, tally_seen_ = false, result_seen_ = false;
};

}  // namespace ddemos::core
