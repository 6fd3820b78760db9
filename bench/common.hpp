// Shared benchmark harness: the vote-collection campaign (EA setup into
// memory or disk stores, a closed-loop voting load, the VC cluster on a
// chosen backend) used by the Figure 4, 5 and 6 reproductions (see
// EXPERIMENTS.md for the mapping).
#pragma once

#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "core/driver.hpp"
#include "core/types.hpp"
#include "core/workload.hpp"
#include "crypto/rng.hpp"
#include "ea/ea.hpp"
#include "instrumentation.hpp"
#include "sim/sim.hpp"
#include "store/ballot_store.hpp"
#include "vc/vc_node.hpp"

namespace ddemos::bench {

// Which runtime hosts a vote-collection cell:
//  * kSim — simulator: real protocol code and cryptography, modeled
//    network, CPU time from sim/cost_table.hpp, deterministic virtual time;
//  * kThreads — net::ThreadNet: real threads and real Schnorr crypto in
//    one process, wall-clock throughput;
//  * kTcp — core::TcpLauncher over net::TcpNet: one OS process per VC
//    node, all traffic over loopback TCP sockets, real crypto. The node
//    processes rebuild their ballot slice from (params, seed); disk-backed
//    stores are not supported on this backend.
enum class Backend { kSim, kThreads, kTcp };

struct VoteCollectionConfig {
  std::size_t n_vc = 4;
  std::size_t f_vc = 1;
  std::size_t concurrency = 400;
  std::size_t casts = 1000;
  std::size_t n_ballots = 0;  // 0: max(casts, 2000)
  std::size_t options = 4;
  sim::LinkModel link = sim::LinkModel::lan();
  std::uint64_t seed = 42;
  bool disk_store = false;
  std::string disk_dir;          // required when disk_store
  std::size_t cache_pages = 64;  // per VC node
  // Intra-node VC shards (the fig5a scaling sweep): one virtual processor
  // per shard on the simulator, one worker thread per shard on ThreadNet.
  std::size_t n_shards = 1;
  Backend backend = Backend::kSim;
  // Write-ahead logging on every VC node (the fig4 durability sweep).
  // Single-process backends attach <wal_dir>/vc<i>.wal directly — any
  // pre-existing log file is deleted first, a bench cell is always a
  // fresh election — while the TCP backend ships the config through the
  // cluster spec (there the caller owns wal_dir hygiene: a leftover log
  // would replay into the new cluster).
  core::DurabilityConfig durability;
};

struct VoteCollectionResult {
  double throughput_ops = 0;   // receipts per second of (virtual|wall) time
  double mean_latency_ms = 0;  // client-perceived
  std::size_t completed = 0;
  // Uniform accounting (bench::Instrumentation) for the two campaign
  // phases: EA streaming generation into the stores, and the collection
  // run itself (events, allocations, RSS, wall + virtual time).
  PhaseSample setup, collection;
};

// Ballot-universe size a config resolves to: the explicit n_ballots (or
// the max(casts, 2000) default) clamped up to the cast count — a closed
// loop casting `casts` distinct ballots needs at least that many serials,
// and an under-sized universe used to silently shrink the measured run.
std::size_t resolve_n_ballots(const VoteCollectionConfig& cfg);

// A reusable vote-collection campaign, split so large sweeps amortize the
// expensive EA generation phase: generate() streams the EA's per-ballot
// data into the configured stores (DiskBallotSource builders or in-memory
// vectors) exactly once; run_cell() then hosts a fresh cluster over that
// data per sweep cell (vc shards vary per cell, the ballot files and the
// captured vote targets are shared). run_vote_collection() is the
// single-cell convenience wrapper the Figure 4/5 benches use.
class VoteCollectionCampaign {
 public:
  explicit VoteCollectionCampaign(VoteCollectionConfig cfg);

  // Phase 1: EA streaming setup. Returns the phase's accounting sample
  // (also retained in every later result's `setup` field).
  const PhaseSample& generate();

  // Periodic progress snapshot during a cell run (fig6's checkpoint log).
  struct Checkpoint {
    std::size_t completed = 0, total = 0;  // casts resolved so far
    double wall_s = 0;                     // since the cell run began
    sim::TimePoint virtual_us = 0;         // host clock at the snapshot
    std::uint64_t events = 0;              // dispatched in the cell so far
    std::uint64_t rss_kb = 0;
  };
  using CheckpointFn = std::function<void(const Checkpoint&)>;

  // Phase 2: build a cluster with `n_shards` worker shards per VC node
  // over the generated data and drive the closed loop to completion.
  // `checkpoint` (if set) fires every `checkpoint_every` completed casts.
  // `final_cell` moves the master targets/ballots into the cluster instead
  // of copying them (halves peak RSS for memory-backed runs); no further
  // cell may run after it.
  VoteCollectionResult run_cell(std::size_t n_shards,
                                const CheckpointFn& checkpoint = nullptr,
                                std::size_t checkpoint_every = 0,
                                bool final_cell = false);

  std::size_t n_ballots() const { return n_ballots_; }

 private:
  VoteCollectionConfig cfg_;
  std::size_t n_ballots_ = 0;
  core::ElectionParams ea_params_;  // the params generate() configured
  ea::SetupArtifacts arts_;
  std::vector<core::VoteTarget> targets_;
  // Kept as the master copy so every run_cell gets a fresh source
  // (!disk_store only; disk cells re-open the files per cell).
  std::vector<std::vector<core::VcBallotInit>> mem_ballots_;
  PhaseSample setup_sample_;
  bool generated_ = false;
};

// Runs the vote-collection phase only (as the paper's Figure 4/5a/5b
// experiments do) on the configured backend: the simulator, the
// in-process multi-threaded transport, or the multi-process TCP cluster.
VoteCollectionResult run_vote_collection(const VoteCollectionConfig& cfg);

// Environment-variable scaling knobs shared by all figure benches.
std::size_t env_size(const char* name, std::size_t def);
std::string env_str(const char* name, const char* def);

}  // namespace ddemos::bench
