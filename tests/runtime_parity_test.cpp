// Runtime parity: the exact same election, configured once as a
// DriverConfig with shared EA artifacts, driven through ElectionDriver on
// both backends — the deterministic simulator and the real multi-threaded
// transport — and the two ElectionReports agree on tally, vote set, and
// receipt count (and, stronger, on the receipt values themselves).
// Also pins down simulator determinism: a fixed seed reproduces
// bit-identical tallies and phase timings across runs.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <limits>

#include "core/driver.hpp"
#include "core/tcp_launcher.hpp"
#include "net/thread_net.hpp"
#include "test_clock.hpp"

namespace ddemos::core {
namespace {

using ddemos::test::scaled;

ElectionParams parity_params() {
  ElectionParams p;
  p.election_id = to_bytes("runtime-parity");
  p.options = {"yes", "no"};
  p.n_voters = 3;
  p.n_vc = 4;
  p.f_vc = 1;
  p.n_bb = 3;
  p.f_bb = 1;
  p.n_trustees = 3;
  p.h_trustees = 2;
  p.t_start = 0;
  p.t_end = scaled(1'500'000);  // short enough for a wall-clock run
  return p;
}

DriverConfig parity_config(const ElectionParams& p) {
  DriverConfig cfg;
  cfg.params = p;
  cfg.seed = 2026;
  cfg.workload = VoteListWorkload::make(
      {0, 1, 0},
      [](std::size_t) -> sim::TimePoint { return scaled(50'000); });
  cfg.voter_template.patience_us = scaled(400'000);
  cfg.trustee_options.poll_interval_us = scaled(100'000);
  cfg.wall_timeout_us = scaled(60'000'000);
  return cfg;
}

TEST(RuntimeParity, SameElectionOnSimAndThreads) {
  ElectionParams p = parity_params();
  DriverConfig cfg = parity_config(p);
  // One EA setup shared by both backends.
  cfg.artifacts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup({p, cfg.seed, false, 64}));

  // Backend 1: deterministic simulator (driver-owned).
  ElectionDriver sim_driver(cfg);
  ElectionReport sim_report = sim_driver.run();

  // Backend 2: real threads, same build path, same artifacts.
  net::ThreadNet net;
  ElectionDriver net_driver(net, cfg);
  ASSERT_EQ(net.node_count(), sim_driver.host().node_count());
  for (sim::NodeId id = 0; id < net.node_count(); ++id) {
    EXPECT_EQ(net.node_name(id), sim_driver.host().node_name(id));
  }
  ElectionReport net_report = net_driver.run();
  ASSERT_TRUE(net_report.completed);
  ASSERT_TRUE(sim_report.completed);

  // Identical outcomes across runtimes.
  ASSERT_EQ(sim_report.tally, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(net_report.tally, sim_report.tally);
  EXPECT_EQ(net_report.vote_set, sim_report.vote_set);
  EXPECT_EQ(net_report.receipts_issued, sim_report.receipts_issued);
  EXPECT_EQ(net_report.receipts, sim_report.receipts);
  EXPECT_EQ(net_report.expected_tally, sim_report.expected_tally);
  EXPECT_EQ(sim_report.expected_tally, sim_report.tally);
}

// Third backend column: the identical election again, this time with every
// VC/BB/trustee in its own OS process and all protocol traffic over real
// TCP sockets. Same config, same (params, seed) — each node process
// recomputes the EA setup deterministically, so the multi-process cluster
// must land on the exact same tally, agreed vote set, and receipt values
// as the single-process backends. The VCs run two shards each: the
// simulator, ThreadNet and TcpNet all fold the same per-node rows into
// their reports, so the reports have the same shape and counters on every
// host, with the Figure-5c phase stamps in order.
TEST(RuntimeParity, SameElectionAcrossProcessesOnTcp) {
  ElectionParams p = parity_params();
  DriverConfig cfg = parity_config(p);
  cfg.vc_options.n_shards = 2;
  // A voter that gives up on a slow VC resubmits elsewhere and adds a
  // receipt to the VC totals; patience just under the voting window keeps
  // a loaded host from doing that.
  cfg.voter_template.patience_us = scaled(1'300'000);
  cfg.artifacts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup({p, cfg.seed, false, 64}));

  ElectionDriver sim_driver(cfg);
  ElectionReport sim_report = sim_driver.run();
  ASSERT_TRUE(sim_report.completed);

  net::ThreadNet net;
  ElectionDriver net_driver(net, cfg);
  ElectionReport net_report = net_driver.run();
  ASSERT_TRUE(net_report.completed);

  TcpLauncher launcher(TcpLauncher::spec_from(cfg));
  ElectionReport tcp_report = launcher.run_election(cfg);
  ASSERT_TRUE(tcp_report.completed);

  ASSERT_EQ(sim_report.tally, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(tcp_report.tally, sim_report.tally);
  EXPECT_EQ(tcp_report.vote_set, sim_report.vote_set);
  EXPECT_EQ(tcp_report.receipts_issued, sim_report.receipts_issued);
  EXPECT_EQ(tcp_report.receipts, sim_report.receipts);
  EXPECT_EQ(tcp_report.expected_tally, sim_report.expected_tally);

  // Every VC node reported stats from its own process, and the merged VC
  // totals agree with the single-process run on receipt counters (message
  // timings are wall-clock there, so only counters are comparable).
  ASSERT_EQ(tcp_report.vc_stats.size(), p.n_vc);
  EXPECT_EQ(tcp_report.vc_totals.receipts_issued,
            sim_report.vc_totals.receipts_issued);
  // One accounting row per OS process (launcher + every protocol node),
  // with real frames on the wire.
  ASSERT_EQ(tcp_report.process_accounting.size(),
            p.n_vc + p.n_bb + p.n_trustees + 1);
  EXPECT_GT(tcp_report.process_accounting[0].frames_sent, 0u);

  for (const ElectionReport* rep : {&sim_report, &net_report, &tcp_report}) {
    ASSERT_EQ(rep->vc_shard_stats.size(), p.n_vc);
    for (std::size_t n = 0; n < p.n_vc; ++n) {
      ASSERT_EQ(rep->vc_shard_stats[n].size(), 2u) << "vc" << n;
      std::uint64_t receipts = 0;
      for (const vc::VcShardStats& s : rep->vc_shard_stats[n]) {
        receipts += s.receipts_issued;
      }
      EXPECT_EQ(receipts, rep->vc_stats[n].receipts_issued) << "vc" << n;
    }
    EXPECT_EQ(rep->vc_totals.receipts_issued,
              sim_report.vc_totals.receipts_issued);
    EXPECT_EQ(rep->voters_launched, sim_report.voters_launched);
    EXPECT_EQ(rep->expected_tally, sim_report.expected_tally);
    const PhaseBreakdown& ph = rep->phases;
    EXPECT_LE(ph.voting_ended_at, ph.consensus_done_at);
    EXPECT_LE(ph.consensus_done_at, ph.tally_published_at);
    EXPECT_LE(ph.tally_published_at, ph.result_published_at);
  }
}

// The VC-only cluster shape the cast benchmarks run, with a WAL on every
// VC: 20 targets picked from a streamed vc_only setup, cast by a
// ClosedLoopClient on TCP (one OS process per VC, each rebuilding its own
// ballot slice with the streaming EA through build_protocol_nodes) and on
// ThreadNet (the same builder over ea_setup's vc_only artifacts). Every
// cast must come back with its printed receipt on both hosts.
TEST(RuntimeParity, CollectionOnlyClusterOnTcpAndThreads) {
  ElectionParams p = parity_params();
  p.n_voters = 20;
  p.t_end = std::numeric_limits<std::int64_t>::max() / 4;  // polls stay open
  const std::uint64_t seed = 4711;
  crypto::Rng pick(seed);
  std::vector<VoteTarget> targets;
  ea::SetupArtifacts streamed = ea::ea_setup_streaming(
      {p, seed, /*vc_only=*/true},
      [&](const Ballot& b, std::span<VcBallotInit>) {
        std::size_t part = pick.below(kNumParts), opt = pick.below(p.m());
        const BallotLine& line = b.parts[part].lines[opt];
        targets.push_back(
            VoteTarget{b.serial, line.vote_code, line.receipt, opt});
      });
  auto fresh_dir = [](const std::string& tag) {
    auto dir = std::filesystem::temp_directory_path() /
               ("runtime_parity_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
  };
  sim::RunOptions opts;
  opts.wall_timeout_us = scaled(60'000'000);
  DriverConfig cfg;
  cfg.params = p;
  cfg.seed = seed;

  // ThreadNet: vc_only artifacts give VCs 0..Nv-1 and nothing else.
  cfg.durability.wal_dir = fresh_dir("threads");
  {
    net::ThreadNet net;
    ElectionTopology topo = build_protocol_nodes(
        net, ea::ea_setup({p, seed, /*vc_only=*/true}), cfg);
    EXPECT_EQ(topo.vc_ids, (std::vector<sim::NodeId>{0, 1, 2, 3}));
    EXPECT_TRUE(topo.bb_ids.empty());
    EXPECT_TRUE(topo.trustee_ids.empty());
    ASSERT_EQ(net.node_count(), p.n_vc);
    sim::NodeId id = net.add_node(
        std::make_unique<ClosedLoopClient>(targets, topo.vc_ids, 4, seed),
        "loadgen");
    auto& client = dynamic_cast<ClosedLoopClient&>(net.process(id));
    ASSERT_TRUE(net.run_to_quiescence([&] { return client.done(); }, opts));
    net.stop();
    EXPECT_EQ(client.completed(), targets.size());
    EXPECT_EQ(client.rejected(), 0u);
  }
  std::filesystem::remove_all(cfg.durability.wal_dir);

  // TCP: the launcher registers the remote VCs through the same builder.
  TcpClusterSpec spec;
  spec.params = p;
  spec.seed = seed;
  spec.vc_only = true;
  spec.collection_only = true;
  spec.durability.wal_dir = fresh_dir("tcp");
  TcpLauncher launcher(spec);
  launcher.launch();
  ElectionTopology topo = build_protocol_nodes(launcher.net(), streamed, cfg);
  EXPECT_EQ(topo.vc_ids, (std::vector<sim::NodeId>{0, 1, 2, 3}));
  sim::NodeId id = launcher.net().add_node(
      std::make_unique<ClosedLoopClient>(targets, topo.vc_ids, 4, seed),
      "loadgen");
  auto& client = dynamic_cast<ClosedLoopClient&>(launcher.net().process(id));
  launcher.go();
  ASSERT_TRUE(launcher.net().run_to_quiescence(
      [&] { return client.done(); }, opts));
  std::vector<TcpProcessReport> reports = launcher.stop_cluster();
  EXPECT_EQ(client.completed(), targets.size());
  EXPECT_EQ(client.rejected(), 0u);
  ASSERT_EQ(reports.size(), p.n_vc);
  std::uint64_t receipts = 0;
  for (const TcpProcessReport& rep : reports) {
    ASSERT_EQ(rep.nodes.size(), 1u);
    EXPECT_EQ(rep.nodes[0].vc_stats.rejected_votes, 0u);
    receipts += rep.nodes[0].vc_stats.receipts_issued;
  }
  EXPECT_EQ(receipts, targets.size());
  // Every VC process logged its casts.
  for (std::size_t i = 0; i < p.n_vc; ++i) {
    EXPECT_GT(std::filesystem::file_size(spec.durability.wal_path(
                  "vc" + std::to_string(i))),
              0u)
        << "vc" << i;
  }
  std::filesystem::remove_all(spec.durability.wal_dir);
}

// The same election with intra-node VC sharding (n_shards = 4): the
// deterministic simulator (one virtual processor per shard) and ThreadNet
// (one worker thread per shard, shard-affine dispatch) agree on tallies,
// receipts, the agreed vote set, and the per-shard stats. Structural
// per-shard assertions (row counts, sums matching node totals, votes
// landing only on the shards that own a cast serial) are timing-proof and
// always checked on both backends. Exact cell-by-cell equality of the
// voting-phase counters additionally needs both runs retry-free — a voter
// whose patience expires under host load resubmits to a different seeded
// VC, legitimately shifting counters between nodes — so it is gated on
// "one delivered VOTE per voter" holding on both backends.
TEST(RuntimeParity, ShardedElectionAgreesAcrossBackends) {
  ElectionParams p = parity_params();
  DriverConfig cfg = parity_config(p);
  cfg.vc_options.n_shards = 4;
  // Keep patience just under the voting window: a slow (loaded) host then
  // delays receipts instead of triggering mid-window resubmissions.
  cfg.voter_template.patience_us = scaled(1'300'000);
  cfg.artifacts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup({p, cfg.seed, false, 64}));

  ElectionDriver sim_driver(cfg);
  ElectionReport sim_report = sim_driver.run();

  net::ThreadNet net;
  ElectionDriver net_driver(net, cfg);
  ElectionReport net_report = net_driver.run();

  ASSERT_TRUE(sim_report.completed);
  ASSERT_TRUE(net_report.completed);
  ASSERT_EQ(sim_report.tally, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(net_report.tally, sim_report.tally);
  EXPECT_EQ(net_report.vote_set, sim_report.vote_set);
  EXPECT_EQ(net_report.receipts, sim_report.receipts);
  EXPECT_EQ(net_report.receipts_issued, sim_report.receipts_issued);
  EXPECT_EQ(net_report.expected_tally, sim_report.expected_tally);

  // The 3 cast serials are the first 3 instances, so shard 3 of every node
  // must never see a per-ballot message on either backend — shard-affine
  // dispatch is keyed by serial, independent of timing.
  ASSERT_EQ(sim_report.vc_shard_stats.size(), p.n_vc);
  ASSERT_EQ(net_report.vc_shard_stats.size(), p.n_vc);
  for (const ElectionReport* rep : {&sim_report, &net_report}) {
    for (std::size_t n = 0; n < p.n_vc; ++n) {
      const auto& shards = rep->vc_shard_stats[n];
      ASSERT_EQ(shards.size(), 4u);
      std::uint64_t votes = 0, receipts = 0, rejected = 0, handled = 0;
      for (const vc::VcShardStats& s : shards) {
        votes += s.votes_received;
        receipts += s.receipts_issued;
        rejected += s.rejected_votes;
        handled += s.handled_messages;
      }
      EXPECT_EQ(votes, rep->vc_stats[n].votes_received) << "vc" << n;
      EXPECT_EQ(receipts, rep->vc_stats[n].receipts_issued) << "vc" << n;
      EXPECT_EQ(rejected, rep->vc_stats[n].rejected_votes) << "vc" << n;
      EXPECT_GT(handled, 0u) << "vc" << n;
      EXPECT_EQ(shards[3].votes_received, 0u) << "vc" << n;
      EXPECT_EQ(shards[3].receipts_issued, 0u) << "vc" << n;
      EXPECT_EQ(shards[3].endorsements_signed, 0u) << "vc" << n;
    }
  }

  auto retry_free = [&](const ElectionReport& rep) {
    std::uint64_t votes = 0;
    for (const auto& s : rep.vc_stats) votes += s.votes_received;
    return votes == 3;
  };
  if (retry_free(sim_report) && retry_free(net_report)) {
    for (std::size_t n = 0; n < p.n_vc; ++n) {
      for (std::size_t s = 0; s < 4; ++s) {
        const auto& sim_s = sim_report.vc_shard_stats[n][s];
        const auto& net_s = net_report.vc_shard_stats[n][s];
        EXPECT_EQ(net_s.votes_received, sim_s.votes_received)
            << "vc" << n << " shard " << s;
        EXPECT_EQ(net_s.receipts_issued, sim_s.receipts_issued)
            << "vc" << n << " shard " << s;
        EXPECT_EQ(net_s.rejected_votes, sim_s.rejected_votes)
            << "vc" << n << " shard " << s;
        EXPECT_EQ(net_s.endorsements_signed, sim_s.endorsements_signed)
            << "vc" << n << " shard " << s;
      }
    }
  }
}

TEST(RuntimeParity, FixedSeedIsBitIdenticalAcrossRuns) {
  struct Trace {
    std::vector<std::uint64_t> tally;
    std::vector<sim::TimePoint> timings;
    std::uint64_t delivered;
  };
  auto run = [] {
    DriverConfig cfg;
    cfg.params = parity_params();
    cfg.params.t_end = 10'000'000;
    cfg.seed = 777;
    cfg.workload = VoteListWorkload::make({1, 0, 1});
    ElectionDriver driver(cfg);
    ElectionReport report = driver.run();
    Trace t;
    t.tally = report.tally;
    for (const vc::VcStats& s : report.vc_stats) {
      t.timings.push_back(s.voting_ended_at);
      t.timings.push_back(s.consensus_done_at);
      t.timings.push_back(s.push_done_at);
    }
    t.delivered = report.messages_delivered;
    return t;
  };
  Trace a = run();
  Trace b = run();
  EXPECT_EQ(a.tally, b.tally);
  EXPECT_EQ(a.timings, b.timings);  // phase timings bit-identical
  EXPECT_EQ(a.delivered, b.delivered);
}

// Phase observers fire in order on both backends.
class PhaseRecorder final : public ElectionObserver {
 public:
  void on_phase_entered(ElectionPhase phase, sim::TimePoint) override {
    phases.push_back(phase);
  }
  void on_complete(const ElectionReport& r) override {
    completed = r.completed;
  }
  std::vector<ElectionPhase> phases;
  bool completed = false;
};

TEST(RuntimeParity, ObserverSeesOrderedPhasesOnBothBackends) {
  ElectionParams p = parity_params();
  auto arts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup({p, 2026, false, 64}));

  auto run_on = [&](sim::RuntimeHost* host) {
    DriverConfig cfg = parity_config(p);
    cfg.artifacts = arts;
    PhaseRecorder rec;
    cfg.observers = {&rec};
    if (host) {
      ElectionDriver driver(*host, cfg);
      driver.run();
    } else {
      ElectionDriver driver(cfg);
      driver.run();
    }
    return rec;
  };

  PhaseRecorder sim_rec = run_on(nullptr);
  net::ThreadNet net;
  PhaseRecorder net_rec = run_on(&net);

  for (const PhaseRecorder* rec : {&sim_rec, &net_rec}) {
    ASSERT_TRUE(rec->completed);
    ASSERT_EQ(rec->phases.size(), 4u);
    EXPECT_EQ(rec->phases[0], ElectionPhase::kVoting);
    EXPECT_EQ(rec->phases[1], ElectionPhase::kConsensus);
    EXPECT_EQ(rec->phases[2], ElectionPhase::kTally);
    EXPECT_EQ(rec->phases[3], ElectionPhase::kResult);
  }
}

}  // namespace
}  // namespace ddemos::core
