// The simulator's CPU cost model: what a protocol node charges its virtual
// processor (Context::charge) for each operation. This one committed table
// is the only source of simulated CPU time, so every simulator figure is a
// pure function of (seed, this table) and a cost change is a reviewed
// diff. ThreadNet and TcpNet ignore charges: CPU time is real there.
//
// Every value is in microseconds and comes from a committed perfbench row
// of the 4-vCPU Intel Xeon VM (GCC 12.2, Release), rounded to the nearest
// microsecond.
#pragma once

#include "sim/runtime.hpp"

namespace ddemos::sim::cost {

// Schnorr, from BENCH_21.json `traced_change_cast_rush`:
// crypto.schnorr_sign_us 74.9, crypto.schnorr_verify_batch_us 119.3 (per
// signature of a keyed batch), crypto.schnorr_verify_us 163.6.
inline constexpr Duration kSchnorrSign = 75;
inline constexpr Duration kSchnorrBatchPerSig = 119;
inline constexpr Duration kSchnorrVerify = 164;

// Decode and dispatch of one VC message, from the same row: the VC busy
// time per receipt less its Schnorr work (4 signs, 12 batched checks),
// over the handler calls per receipt:
// (2437.6 - 4 * 74.9 - 12 * 119.3) / 24.99 = 28.3.
inline constexpr Duration kVcMessage = 28;

// One ballot-store page fault: an SSD-class random read through a
// database stack, the figure benches' storage model since fig5a was added.
inline constexpr Duration kPageFault = 150;

// BB close, from BENCH_22.json `traced_election_tally` (change side):
// bb.busy_ms 473.65 over 3 BBs x 16 voted ballots is 9,868 us per ballot
// per BB. Less two trustee signature checks (2 x 106.1, the row's
// crypto.schnorr_verify_us), the folded check's MSM of 338 terms (m = 4,
// h_t = 2) gets (9,868 - 212) / 338 = 28.6 per term; the reconstruction
// that follows it (about 0.6 us per share slot) is inside that figure.
inline constexpr Duration kBbFoldTerm = 29;

}  // namespace ddemos::sim::cost
