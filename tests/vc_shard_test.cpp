// Intra-node VC sharding (VcOptions::n_shards): the serial -> shard
// mapping is total and stable, shard-boundary serials behave exactly like
// interior ones, an explicit n_shards = 1 is bit-for-bit the default,
// sharded runs are deterministic, and tallies are invariant across
// shards ∈ {1,2,4,8} on the same seeded-random workload. A gapped serial
// set is rejected with a clear ProtocolError at every shard count.
#include <gtest/gtest.h>

#include "core/driver.hpp"
#include "util/error.hpp"

namespace ddemos::core {
namespace {

ElectionParams shard_params(std::size_t voters) {
  ElectionParams p;
  p.election_id = to_bytes("vc-shard-test");
  p.options = {"yes", "no"};
  p.n_voters = voters;
  p.n_vc = 4;
  p.f_vc = 1;
  p.n_bb = 3;
  p.f_bb = 1;
  p.n_trustees = 3;
  p.h_trustees = 2;
  p.t_start = 0;
  p.t_end = 10'000'000;
  return p;
}

struct Trace {
  std::vector<std::uint64_t> tally;
  std::vector<std::uint64_t> receipts;
  std::vector<VoteSetEntry> vote_set;
  std::vector<sim::TimePoint> timings;
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
};

Trace run_traced(DriverConfig cfg) {
  ElectionDriver driver(cfg);
  ElectionReport report = driver.run();
  EXPECT_TRUE(report.completed);
  Trace t;
  t.tally = report.tally;
  t.receipts = report.receipts;
  t.vote_set = report.vote_set;
  for (const vc::VcStats& s : report.vc_stats) {
    t.timings.push_back(s.voting_ended_at);
    t.timings.push_back(s.consensus_done_at);
    t.timings.push_back(s.push_done_at);
  }
  t.events = report.events_processed;
  t.delivered = report.messages_delivered;
  return t;
}

TEST(ShardMapping, TotalStableAndInterleaved) {
  DriverConfig cfg;
  cfg.params = shard_params(9);
  cfg.seed = 41;
  cfg.vc_options.n_shards = 4;
  cfg.workload = VoteListWorkload::make({0, 1, 0, 1, 0, 1, 0, 1, 0});
  ElectionDriver driver(cfg);
  const vc::VcNode& node = driver.vc_node(0);
  ASSERT_EQ(node.shard_count(), 4u);

  Serial first = driver.artifacts().vc_inits[0].ballots.front().serial;
  for (std::size_t i = 0; i < 9; ++i) {
    // Interleaved ownership: shard = instance % n_shards.
    EXPECT_EQ(node.shard_of_serial(first + i), i % 4) << "instance " << i;
    // Stable: repeated lookups agree.
    EXPECT_EQ(node.shard_of_serial(first + i),
              node.shard_of_serial(first + i));
    // Message routing agrees with the mapping (header-keyed dispatch).
    net::Buffer vote = VoteMsg{first + i, to_bytes("code")}.encode();
    EXPECT_EQ(node.shard_of(1234, vote), i % 4);
  }
  // Total: out-of-range and unknown serials route to the control shard
  // instead of falling outside the shard set.
  EXPECT_EQ(node.shard_of_serial(first - 1), 0u);
  EXPECT_EQ(node.shard_of_serial(first + 9), 0u);
  EXPECT_EQ(node.shard_of_serial(0), 0u);
  // Malformed payloads route to the control shard (which drops them).
  EXPECT_EQ(node.shard_of(1234, net::Buffer(Bytes{})), 0u);
  EXPECT_EQ(node.shard_of(
                1234, net::Buffer(Bytes{static_cast<std::uint8_t>(
                          MsgType::kVote)})),
            0u);
}

TEST(ShardParity, OneShardIsBitIdenticalToDefault) {
  auto make_cfg = [] {
    DriverConfig cfg;
    cfg.params = shard_params(6);
    cfg.seed = 2027;
    cfg.workload = VoteListWorkload::make({0, 1, 1, 0, 0, 1});
    return cfg;
  };
  DriverConfig legacy = make_cfg();  // n_shards defaulted (1)
  DriverConfig explicit_one = make_cfg();
  explicit_one.vc_options.n_shards = 1;
  Trace a = run_traced(legacy);
  Trace b = run_traced(explicit_one);
  EXPECT_EQ(a.tally, (std::vector<std::uint64_t>{3, 3}));
  EXPECT_EQ(a.tally, b.tally);
  EXPECT_EQ(a.receipts, b.receipts);
  EXPECT_EQ(a.vote_set, b.vote_set);
  EXPECT_EQ(a.timings, b.timings);    // phase timings bit-identical
  EXPECT_EQ(a.events, b.events);      // same event stream
  EXPECT_EQ(a.delivered, b.delivered);
}

TEST(ShardParity, ShardedRunIsDeterministic) {
  auto make_cfg = [] {
    DriverConfig cfg;
    cfg.params = shard_params(8);
    cfg.seed = 515;
    cfg.vc_options.n_shards = 4;
    cfg.workload = RandomWorkload::make(99, 0.1);
    return cfg;
  };
  Trace a = run_traced(make_cfg());
  Trace b = run_traced(make_cfg());
  EXPECT_EQ(a.tally, b.tally);
  EXPECT_EQ(a.receipts, b.receipts);
  EXPECT_EQ(a.timings, b.timings);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.delivered, b.delivered);
}

// Boundary serials — the first and last of the range plus every
// instance % n_shards == 0 edge — endorse and tally exactly like the
// unsharded run: every voter gets the printed receipt and the reports
// agree entry-for-entry.
TEST(ShardParity, BoundarySerialsMatchUnsharded) {
  ElectionParams p = shard_params(9);  // instances 0..8; edges 0, 4, 8
  auto arts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup({p, 77, false, 64}));
  auto run_with = [&](std::size_t shards) {
    DriverConfig cfg;
    cfg.params = p;
    cfg.seed = 77;
    cfg.vc_options.n_shards = shards;
    cfg.artifacts = arts;
    cfg.workload = VoteListWorkload::make({0, 1, 0, 1, 0, 1, 0, 1, 0});
    ElectionDriver driver(cfg);
    ElectionReport report = driver.run();
    EXPECT_TRUE(report.completed);
    for (std::size_t v = 0; v < driver.voter_count(); ++v) {
      EXPECT_TRUE(driver.voter(v).has_receipt())
          << "shards=" << shards << " voter " << v;
    }
    return report;
  };
  ElectionReport base = run_with(1);
  ElectionReport sharded = run_with(4);
  EXPECT_EQ(base.tally, (std::vector<std::uint64_t>{5, 4}));
  EXPECT_EQ(sharded.tally, base.tally);
  EXPECT_EQ(sharded.receipts, base.receipts);
  EXPECT_EQ(sharded.vote_set, base.vote_set);
  ASSERT_EQ(sharded.vote_set.size(), 9u);  // every boundary serial present
}

TEST(ShardParity, TallyInvariantAcrossShardCounts) {
  ElectionParams p = shard_params(12);
  auto arts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup({p, 1001, false, 64}));
  std::optional<Trace> base;
  for (std::size_t shards : {1u, 2u, 4u, 8u}) {
    DriverConfig cfg;
    cfg.params = p;
    cfg.seed = 1001;
    cfg.vc_options.n_shards = shards;
    cfg.artifacts = arts;
    // Seeded-random workload with abstentions: same intent stream for
    // every shard count.
    cfg.workload = RandomWorkload::make(4242, 0.25);
    ElectionDriver driver(cfg);
    ElectionReport report = driver.run();
    ASSERT_TRUE(report.completed) << "shards=" << shards;
    EXPECT_EQ(report.tally, report.expected_tally) << "shards=" << shards;

    // Per-shard bookkeeping invariants: one row per shard, counters sum to
    // the node totals.
    ASSERT_EQ(report.vc_shard_stats.size(), p.n_vc);
    for (std::size_t n = 0; n < p.n_vc; ++n) {
      ASSERT_EQ(report.vc_shard_stats[n].size(), shards);
      std::uint64_t votes = 0, receipts = 0, rejected = 0, handled = 0;
      for (const vc::VcShardStats& s : report.vc_shard_stats[n]) {
        votes += s.votes_received;
        receipts += s.receipts_issued;
        rejected += s.rejected_votes;
        handled += s.handled_messages;
      }
      EXPECT_EQ(votes, report.vc_stats[n].votes_received);
      EXPECT_EQ(receipts, report.vc_stats[n].receipts_issued);
      EXPECT_EQ(rejected, report.vc_stats[n].rejected_votes);
      EXPECT_GT(handled, 0u);
    }

    Trace t;
    t.tally = report.tally;
    t.receipts = report.receipts;
    t.vote_set = report.vote_set;
    if (!base) {
      base = t;
    } else {
      EXPECT_EQ(t.tally, base->tally) << "shards=" << shards;
      EXPECT_EQ(t.receipts, base->receipts) << "shards=" << shards;
      EXPECT_EQ(t.vote_set, base->vote_set) << "shards=" << shards;
    }
  }
}

// --- gapped serial sets ------------------------------------------------------

TEST(GappedSerials, ShardedConstructionRejectsWithClearError) {
  ElectionParams p = shard_params(4);
  ea::SetupArtifacts arts = ea::ea_setup({p, 33, false, 64});
  std::vector<VcBallotInit> gapped = arts.vc_inits[0].ballots;
  gapped.erase(gapped.begin() + 1);  // hole in the middle of the range
  std::vector<sim::NodeId> vc_ids{0, 1, 2, 3};

  auto make = [&](std::size_t shards) {
    vc::VcNode::Options o;
    o.n_shards = shards;
    return std::make_unique<vc::VcNode>(
        arts.vc_inits[0],
        std::make_shared<store::MemoryBallotSource>(gapped), vc_ids,
        std::vector<sim::NodeId>{}, o);
  };
  // Gaps would mis-address the dense per-ballot state and corrupt shard
  // ownership — refuse loudly at every shard count, one included.
  for (std::size_t shards : {1u, 2u}) {
    try {
      make(shards);
      FAIL() << "expected ProtocolError for gapped serials, n_shards = "
             << shards;
    } catch (const ProtocolError& e) {
      EXPECT_NE(std::string(e.what()).find("contiguous"), std::string::npos);
    }
  }
  EXPECT_THROW(make(0), ProtocolError);  // zero shards is meaningless
}

}  // namespace
}  // namespace ddemos::core
