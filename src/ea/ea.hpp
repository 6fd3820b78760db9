// Election Authority: the setup-only trusted component (paper Section
// III-D). Produces the voters' paper ballots and the initialization data of
// every VC node, BB node and trustee, then is destroyed — nothing here runs
// during the election.
//
// Full mode generates the complete cryptographic payload (option-encoding
// commitments, ZK proof first moves, Pedersen-VSS trustee shares).
// vc_only mode generates just the vote-collection data (hashes, salts,
// receipt shares, msk shares) and is used by the large-scale benchmarks,
// matching the paper's evaluation which exercises vote collection with
// database-resident VC initialization data only.
#pragma once

#include <functional>
#include <span>

#include "core/types.hpp"

namespace ddemos::ea {

struct EaConfig {
  core::ElectionParams params;
  std::uint64_t seed = 0;
  bool vc_only = false;
  std::size_t consensus_rounds = 64;
};

struct SetupArtifacts {
  std::vector<core::Ballot> voter_ballots;        // sorted by serial
  std::vector<core::VcInit> vc_inits;             // one per VC node
  std::vector<core::BbInit> bb_inits;             // one per BB node
  std::vector<core::TrusteeInit> trustee_inits;   // one per trustee
};

// Validates the parameters (fault thresholds, option count) and produces
// all initialization data. Throws ProtocolError on invalid configs.
SetupArtifacts ea_setup(const EaConfig& config);

// Streaming variant for very large elections (vc_only mode required):
// common per-node data (keys, msk shares, coin deal) is returned, and
// per-ballot data is handed to `sink` one ballot at a time so millions of
// ballots never reside in memory (the benchmark writes them straight into
// DiskBallotSource builders). vc_inits in the returned artifacts have empty
// ballot vectors. Both entry points share one generator: for the same
// config, the streamed ballots and per-VC data are exactly ea_setup's
// vc_only output, so a process can rebuild its slice of an election that
// another process set up with ea_setup.
using BallotSink = std::function<void(const core::Ballot& ballot,
                                      std::span<core::VcBallotInit> per_vc)>;
SetupArtifacts ea_setup_streaming(const EaConfig& config,
                                  const BallotSink& sink);

// Merkle leaf for a receipt/msk share (shared with verification sites).
crypto::Hash32 share_leaf(const crypto::Share& share);

}  // namespace ddemos::ea
