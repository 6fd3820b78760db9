// Reproduces Figure 5c: duration of each system phase versus the number of
// ballots cast — Vote Collection, Vote Set Consensus, Push to BB and
// encrypted tally, Publish result. Runs the full system (real cryptography
// everywhere) over the simulator, whose CPU time comes from
// sim/cost_table.hpp (VC signatures and decode, the BB's trustee-share
// check and reconstruction); the cast counts are scaled down
// from the paper's 50k..200k (see EXPERIMENTS.md). Scale with
// DDEMOS_FIG5C_STEP. Phase durations come straight out of the driver's
// ElectionReport — no node-internal scraping.
#include <cstdio>

#include "common.hpp"
#include "core/driver.hpp"
#include "instrumentation.hpp"

using namespace ddemos;
using namespace ddemos::core;

int main() {
  std::size_t step = bench::env_size("DDEMOS_FIG5C_STEP", 25);
  std::size_t points = bench::env_size("DDEMOS_FIG5C_POINTS", 4);

  std::printf(
      "# fig5c: phase durations (virtual seconds) vs #ballots cast\n");
  std::printf("# paper phases: Vote Collection | Vote Set Consensus | "
              "Push to BB and encrypted tally | Publish result\n");
  std::printf("%-10s %14s %14s %14s %14s\n", "#cast", "collection_s",
              "consensus_s", "push_tally_s", "publish_s");
  for (std::size_t i = 1; i <= points; ++i) {
    std::size_t casts = i * step;
    DriverConfig cfg;
    cfg.params.election_id = to_bytes("fig5c");
    cfg.params.options = {"yes", "no", "abstain", "blank"};  // m = 4
    cfg.params.n_voters = casts;
    cfg.params.n_vc = 4;
    cfg.params.f_vc = 1;
    cfg.params.n_bb = 3;
    cfg.params.f_bb = 1;
    cfg.params.n_trustees = 3;
    cfg.params.h_trustees = 2;
    cfg.params.t_start = 0;
    // Voters vote as fast as possible; the window only needs to fit them.
    cfg.params.t_end =
        static_cast<sim::TimePoint>(casts) * 100'000 + 10'000'000;
    cfg.seed = 5000 + i;
    cfg.voter_template.patience_us = 60'000'000;
    // Voters arrive nearly at once: the collection phase is then limited by
    // VC throughput, as in the paper's 400-concurrent-client setup.
    cfg.workload = RoundRobinWorkload::make([](std::size_t v) {
      return static_cast<sim::TimePoint>(v) * 100;
    });
    // Sharper phase boundaries for the per-phase accounting rows.
    cfg.probe_interval = 64;
    ElectionDriver driver(cfg);
    // Per-phase accounting rides the driver's phase hooks: one
    // Instrumentation sample per election phase (voting / consensus /
    // tally / result), emitted as its own BENCH_JSON row below.
    bench::InstrumentationObserver accounting(&driver.host());
    driver.add_observer(&accounting);
    ElectionReport r = driver.run();

    std::printf("%-10zu %14.2f %14.2f %14.2f %14.2f\n", casts,
                r.phases.collection_s(), r.phases.consensus_s(),
                r.phases.push_tally_s(), r.phases.publish_s());
    std::printf("BENCH_JSON {\"bench\":\"fig5c\",\"casts\":%zu,"
                "\"collection_s\":%.3f,\"consensus_s\":%.3f,"
                "\"push_tally_s\":%.3f,\"publish_s\":%.3f,%s}\n",
                casts, r.phases.collection_s(), r.phases.consensus_s(),
                r.phases.push_tally_s(), r.phases.publish_s(),
                bench::accounting_fields(r).c_str());
    for (const bench::PhaseSample& s : accounting.samples()) {
      std::printf("BENCH_JSON {\"bench\":\"fig5c\",\"casts\":%zu,"
                  "\"phase\":\"%s\",%s}\n",
                  casts, s.phase.c_str(), bench::accounting_fields(s).c_str());
    }
    std::fflush(stdout);
  }
  return 0;
}
