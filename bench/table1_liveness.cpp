// Reproduces Table I / Theorem 1: the liveness time bound
//   Twait = (2*Nv + 4)*Tcomp + 12*Delta + 6*delta
// on the time between a voter submitting a vote and obtaining a receipt.
// The simulator plays the bounded-delay adversary: every message is held
// for the full delay bound delta; node clocks are synchronized (Delta = 0).
// The measured end-to-end receipt time must stay below the theorem's bound;
// the program exits non-zero when it does not.
#include <cstdio>

#include "common.hpp"
#include "core/driver.hpp"
#include "instrumentation.hpp"
#include "sim/cost_table.hpp"

using namespace ddemos;
using namespace ddemos::core;

int main() {
  const sim::Duration delta_us = 50'000;  // adversarial delay bound (50 ms)
  bool violated = false;

  std::printf("# table1: liveness bound vs measured receipt time\n");
  std::printf("# Twait = (2Nv+4)*Tcomp + 12*Delta + 6*delta,  Delta=0, "
              "delta=%.0fms\n",
              delta_us / 1000.0);
  std::printf("%-6s %14s %14s %14s %8s\n", "Nv", "Tcomp_ms", "Twait_ms",
              "measured_ms", "bound");
  for (std::size_t nv : {4u, 7u, 10u}) {
    DriverConfig cfg;
    cfg.params.election_id = to_bytes("table1");
    cfg.params.options = {"yes", "no"};
    cfg.params.n_voters = 1;
    cfg.params.n_vc = nv;
    cfg.params.f_vc = (nv - 1) / 3;
    cfg.params.n_bb = 3;
    cfg.params.f_bb = 1;
    cfg.params.n_trustees = 3;
    cfg.params.h_trustees = 2;
    cfg.params.t_start = 0;
    cfg.params.t_end = 60'000'000;
    cfg.seed = 1234 + nv;
    cfg.workload = VoteListWorkload::make({0});
    cfg.voter_template.patience_us = 30'000'000;
    cfg.link = sim::LinkModel{delta_us, 0, 0, 0};  // exactly delta always
    ElectionDriver runner(cfg);
    ElectionReport report = runner.run();

    // Tcomp: worst-case per-step computation, priced by the simulator's
    // cost table. The heaviest procedure is verifying Nv-1 endorsement
    // signatures (kSchnorrVerify, the one price of every signature check)
    // plus one signing operation, on top of decoding a message.
    const sim::Duration tcomp_us =
        static_cast<sim::Duration>(nv - 1) * sim::cost::kSchnorrVerify +
        sim::cost::kSchnorrSign + sim::cost::kVcMessage;
    double tcomp_ms = tcomp_us / 1000.0;
    double twait_ms =
        (2.0 * nv + 4) * tcomp_ms + 6.0 * (delta_us / 1000.0);
    const auto& voter = runner.voter(0);
    double measured_ms =
        (voter.receipt_at() - voter.started_at()) / 1000.0;
    bool ok = report.receipts_issued == 1 && measured_ms <= twait_ms;
    violated |= !ok;
    std::printf("%-6zu %14.1f %14.1f %14.1f %8s\n", nv, tcomp_ms, twait_ms,
                measured_ms, ok ? "HOLDS" : "VIOLATED");
    std::printf("BENCH_JSON {\"bench\":\"table1\",\"nv\":%zu,"
                "\"twait_ms\":%.1f,\"measured_ms\":%.1f,\"holds\":%s,%s}\n",
                nv, twait_ms, measured_ms, ok ? "true" : "false",
                bench::accounting_fields(report).c_str());
    std::fflush(stdout);
  }
  return violated ? 1 : 0;
}
