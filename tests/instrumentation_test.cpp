// The shared bench accounting layer and the campaign runner: event and
// allocation counts must be deterministic on the simulator (same seed →
// identical counters), invariant under intra-node sharding, monotone
// across election phases, and the campaign's ballot-universe clamp must
// cover the cast count (the fig4 `casts + 100` interplay).
#include <gtest/gtest.h>

#include "common.hpp"
#include "core/driver.hpp"
#include "instrumentation.hpp"
#include "util/proc_stats.hpp"

namespace ddemos {
namespace {

using namespace core;

DriverConfig small_election(std::uint64_t seed) {
  DriverConfig cfg;
  cfg.params.election_id = to_bytes("instr-test");
  cfg.params.options = {"yes", "no"};
  cfg.params.n_voters = 12;
  cfg.params.n_vc = 4;
  cfg.params.f_vc = 1;
  cfg.params.n_bb = 3;
  cfg.params.f_bb = 1;
  cfg.params.n_trustees = 3;
  cfg.params.h_trustees = 2;
  cfg.params.t_start = 0;
  cfg.params.t_end = 30'000'000;
  cfg.seed = seed;
  return cfg;
}

TEST(Instrumentation, ReportCountersDeterministicPerSeed) {
  for (std::uint64_t seed : {7u, 8u}) {
    auto run = [&] {
      ElectionDriver driver(small_election(seed));
      return driver.run();
    };
    ElectionReport a = run(), b = run();
    ASSERT_TRUE(a.completed);
    EXPECT_GT(a.events_processed, 0u);
    EXPECT_GT(a.payload_allocations, 0u);
    EXPECT_GT(a.messages_delivered, 0u);
    // Same seed, same virtual execution: counter-identical runs.
    EXPECT_EQ(a.events_processed, b.events_processed);
    EXPECT_EQ(a.messages_delivered, b.messages_delivered);
    EXPECT_EQ(a.messages_dropped, b.messages_dropped);
    EXPECT_EQ(a.payload_allocations, b.payload_allocations);
    // Wall time and RSS are machine facts, not simulation outputs; they
    // must be populated but are not compared.
    EXPECT_GT(a.wall_seconds, 0.0);
    if (util::peak_rss_kb() > 0) EXPECT_GT(a.peak_rss_kb, 0u);
  }
}

TEST(Instrumentation, CountsInvariantUnderShardingKnob) {
  // vc_options.n_shards = 1 must be the same election as the untouched
  // default: the dispatch refactors keep shards=1 bit-identical to the
  // unsharded node, so every accounting counter matches exactly.
  DriverConfig base = small_election(21);
  DriverConfig sharded1 = small_election(21);
  sharded1.vc_options.n_shards = 1;
  ElectionDriver a(base), b(sharded1);
  ElectionReport ra = a.run(), rb = b.run();
  ASSERT_TRUE(ra.completed);
  ASSERT_TRUE(rb.completed);
  EXPECT_EQ(ra.events_processed, rb.events_processed);
  EXPECT_EQ(ra.messages_delivered, rb.messages_delivered);
  EXPECT_EQ(ra.payload_allocations, rb.payload_allocations);
  EXPECT_EQ(ra.tally, rb.tally);
}

TEST(Instrumentation, PhaseSamplesMonotoneAndOrdered) {
  DriverConfig cfg = small_election(33);
  cfg.probe_interval = 16;  // sharp phase boundaries for the observer
  ElectionDriver driver(cfg);
  bench::InstrumentationObserver obs(&driver.host());
  driver.add_observer(&obs);
  ElectionReport r = driver.run();
  ASSERT_TRUE(r.completed);

  const auto& samples = obs.samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].phase, "voting");
  EXPECT_EQ(samples[1].phase, "consensus");
  EXPECT_EQ(samples[2].phase, "tally");
  EXPECT_EQ(samples[3].phase, "result");
  // Per-phase deltas are non-negative and peak RSS is monotone across
  // phases (it is a process-lifetime high-water mark).
  std::uint64_t total_events = 0, total_allocs = 0, last_peak = 0;
  for (const auto& s : samples) {
    EXPECT_GE(s.wall_s, 0.0);
    EXPECT_GE(s.virtual_s, 0.0);
    EXPECT_GE(s.peak_rss_kb, last_peak);
    last_peak = s.peak_rss_kb;
    total_events += s.events;
    total_allocs += s.allocations;
  }
  EXPECT_GT(samples[0].events, 0u);  // voting does the bulk of the work
  // The phases partition the run: their event/allocation deltas can never
  // exceed the report's whole-run counters.
  EXPECT_LE(total_events, r.events_processed);
  EXPECT_LE(total_allocs, r.payload_allocations);
  EXPECT_GE(total_events, r.events_processed * 9 / 10);
}

TEST(Instrumentation, CampaignAccountingDeterministicAcrossRuns) {
  bench::VoteCollectionConfig cfg;
  cfg.n_vc = 4;
  cfg.f_vc = 1;
  cfg.concurrency = 16;
  cfg.casts = 64;
  cfg.n_ballots = 200;
  cfg.options = 2;
  cfg.seed = 99;
  auto a = bench::run_vote_collection(cfg);
  auto b = bench::run_vote_collection(cfg);
  EXPECT_EQ(a.completed, 64u);
  EXPECT_GT(a.collection.events, 0u);
  EXPECT_GT(a.collection.allocations, 0u);
  EXPECT_EQ(a.collection.events, b.collection.events);
  EXPECT_EQ(a.collection.allocations, b.collection.allocations);
  EXPECT_EQ(a.collection.virtual_s, b.collection.virtual_s);
  EXPECT_EQ(a.throughput_ops, b.throughput_ops);
  EXPECT_EQ(a.mean_latency_ms, b.mean_latency_ms);
}

TEST(Instrumentation, CampaignCountsInvariantAcrossShardCells) {
  // The simulator dispatches the same message set whatever the shard
  // count (sharding reassigns work across virtual processors, it does not
  // create or destroy messages), so event/allocation counters must match
  // across cells of one generated campaign.
  bench::VoteCollectionConfig cfg;
  cfg.n_vc = 4;
  cfg.f_vc = 1;
  cfg.concurrency = 16;
  cfg.casts = 48;
  cfg.n_ballots = 200;
  cfg.options = 2;
  cfg.seed = 123;
  bench::VoteCollectionCampaign campaign(cfg);
  campaign.generate();
  auto s1 = campaign.run_cell(1);
  auto s4 = campaign.run_cell(4);
  EXPECT_EQ(s1.completed, 48u);
  EXPECT_EQ(s4.completed, 48u);
  EXPECT_EQ(s1.collection.events, s4.collection.events);
  EXPECT_EQ(s1.collection.allocations, s4.collection.allocations);
}

TEST(Instrumentation, CampaignCheckpointsCoverTheRun) {
  bench::VoteCollectionConfig cfg;
  cfg.n_vc = 4;
  cfg.f_vc = 1;
  cfg.concurrency = 8;
  cfg.casts = 60;
  cfg.n_ballots = 200;
  cfg.options = 2;
  cfg.seed = 7;
  bench::VoteCollectionCampaign campaign(cfg);
  std::vector<bench::VoteCollectionCampaign::Checkpoint> cps;
  campaign.run_cell(1, [&](const auto& cp) { cps.push_back(cp); }, 20);
  ASSERT_GE(cps.size(), 2u);
  std::size_t last = 0;
  for (const auto& cp : cps) {
    EXPECT_EQ(cp.total, 60u);
    EXPECT_GT(cp.completed, last);  // strictly advancing marks
    last = cp.completed;
    EXPECT_GE(cp.events, 0u);
  }
  EXPECT_EQ(cps.back().completed, 60u);
}

TEST(Campaign, BallotUniverseClampCoversCastCount) {
  // Regression for the n_ballots/casts interplay: an explicit universe
  // smaller than the cast count used to silently shrink the run (fig4
  // sizes the universe as casts + 100 to dodge exactly this).
  bench::VoteCollectionConfig cfg;
  cfg.casts = 50;
  cfg.n_ballots = 10;
  EXPECT_EQ(bench::resolve_n_ballots(cfg), 50u);
  cfg.n_ballots = 0;  // default: max(casts, 2000)
  EXPECT_EQ(bench::resolve_n_ballots(cfg), 2000u);
  cfg.casts = 5000;
  EXPECT_EQ(bench::resolve_n_ballots(cfg), 5000u);
  cfg.n_ballots = 7000;
  EXPECT_EQ(bench::resolve_n_ballots(cfg), 7000u);

  // End-to-end: the clamped campaign completes every cast instead of
  // quietly completing only n_ballots of them.
  cfg.casts = 40;
  cfg.n_ballots = 10;
  cfg.n_vc = 4;
  cfg.f_vc = 1;
  cfg.concurrency = 8;
  cfg.options = 2;
  cfg.seed = 3;
  auto r = bench::run_vote_collection(cfg);
  EXPECT_EQ(r.completed, 40u);
}

}  // namespace
}  // namespace ddemos
