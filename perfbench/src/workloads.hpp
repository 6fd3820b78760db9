// The three benchmark workloads. Each builds its inputs from the seed,
// drives the system through its public API, checks every output and
// fills in the end-to-end metrics (untraced) or the per-layer metrics
// (traced run). See perfbench/NOTES.md for why each workload exists.
#pragma once

#include "common.hpp"

namespace perfbench {

Result run_cast_rush(const RunOptions& opt);
Result run_cast_quiet_tcp(const RunOptions& opt);
Result run_election_tally(const RunOptions& opt);

// Unit costs of single library calls (per-layer metrics).
void add_crypto_unit_costs(Result& r, bool tiny);
void add_wal_unit_costs(Result& r, const std::string& dir, bool tiny);

}  // namespace perfbench
