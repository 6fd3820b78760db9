// Adversarial fault matrix over sharded vote collection: the Section III-C
// safety argument (one certified vote code per ballot, agreement on the
// final vote set) and the Theorem-1 liveness argument (every honest voter
// eventually holds the printed receipt) must survive intra-node sharding.
// Each cell drives a full election on the deterministic simulator under a
// combination of
//   * LinkModel::lossy drop/dup on the voter <-> VC links (voters carry
//     the retry logic: [d]-patience resubmission);
//   * message duplication on the VC <-> VC core (the collector protocol
//     and consensus are idempotent; VC -> BB stays clean because the BB
//     vote-set submission protocol is not duplicate-safe by design — the
//     hash check rejects inflated submissions);
//   * the bounded-delay adversary hook (sim::LinkFilter) holding every
//     message up to an extra 20ms, deterministically;
//   * one crashed VC node (f_vc = 1 of Nv = 4);
// crossed with shards ∈ {1, 2, 4}. Every cell must complete with all
// voters holding receipts, tally == ground truth, identical vote sets on
// all live VC nodes, and identical outcomes across shard counts.
#include <gtest/gtest.h>

#include "core/driver.hpp"

namespace ddemos::core {
namespace {

constexpr std::size_t kVoters = 5;

ElectionParams fault_params() {
  ElectionParams p;
  p.election_id = to_bytes("vc-shard-faults");
  p.options = {"yes", "no"};
  p.n_voters = kVoters;
  p.n_vc = 4;
  p.f_vc = 1;
  p.n_bb = 3;
  p.f_bb = 1;
  p.n_trustees = 3;
  p.h_trustees = 2;
  p.t_start = 0;
  p.t_end = 20'000'000;
  return p;
}

struct Scenario {
  const char* name;
  bool lossy_voters = false;
  bool dup_vc_core = false;
  bool delay_adversary = false;
  bool crash_vc = false;
};

struct Outcome {
  std::vector<std::uint64_t> tally;
  std::vector<std::uint64_t> receipts;
  std::vector<VoteSetEntry> vote_set;
};

Outcome run_cell(const Scenario& sc, std::size_t shards,
                 const std::shared_ptr<const ea::SetupArtifacts>& arts) {
  DriverConfig cfg;
  cfg.params = fault_params();
  cfg.seed = 60'001;
  cfg.vc_options.n_shards = shards;
  cfg.artifacts = arts;
  cfg.workload = VoteListWorkload::make(
      {0, 1, 0, 1, 1},
      [](std::size_t slot) -> sim::TimePoint {
        return static_cast<sim::TimePoint>(100'000 * (slot + 1));
      });
  cfg.voter_template.patience_us = 900'000;
  if (sc.crash_vc) cfg.crashed_vcs = {2};
  // Default link (covers voter <-> VC): drop and duplicate aggressively;
  // the voter's patience resubmission is the liveness mechanism.
  cfg.link = sc.lossy_voters ? sim::LinkModel::lossy(0.08, 0.08)
                             : sim::LinkModel::lan();

  ElectionDriver driver(cfg);
  sim::Simulation& sim = driver.simulation();

  // Protocol-core links get explicit models: VC <-> VC may duplicate (the
  // collector protocol and consensus are idempotent) but never drops —
  // ANNOUNCE and the batched consensus have no retransmission layer; the
  // VC -> BB push and trustee traffic stay clean.
  const auto& topo = driver.topology();
  std::vector<sim::NodeId> core_ids;
  for (sim::NodeId id : topo.vc_ids) core_ids.push_back(id);
  for (sim::NodeId id : topo.bb_ids) core_ids.push_back(id);
  for (sim::NodeId id : topo.trustee_ids) core_ids.push_back(id);
  sim::LinkModel vc_core{200, 1'000, 0.0, sc.dup_vc_core ? 0.05 : 0.0};
  sim::LinkModel clean{200, 1'000, 0.0, 0.0};
  auto is_vc = [&](sim::NodeId id) {
    return std::find(topo.vc_ids.begin(), topo.vc_ids.end(), id) !=
           topo.vc_ids.end();
  };
  for (sim::NodeId a : core_ids) {
    for (sim::NodeId b : core_ids) {
      sim.set_link(a, b, is_vc(a) && is_vc(b) ? vc_core : clean);
    }
  }
  if (sc.delay_adversary) {
    // Bounded-delay adversary (Section III-C): deterministic extra hold of
    // up to 20ms per hop, never a drop. Intra-node shard coordination
    // (Context::send_self) is exempt by construction — it is not network
    // traffic the adversary controls.
    sim.set_link_filter([](sim::NodeId from, sim::NodeId to,
                           sim::TimePoint at) -> std::optional<sim::Duration> {
      std::uint64_t h = from * 2654435761u + to * 40503u +
                        static_cast<std::uint64_t>(at / 1000) * 9176u;
      return static_cast<sim::Duration>(h % 20'000);
    });
  }

  ElectionReport report = driver.run();
  std::string cell = std::string(sc.name) + " shards=" +
                     std::to_string(shards);

  // Liveness: the election completes and every honest voter holds the
  // receipt printed on their ballot (Voter only sets has_receipt on an
  // exact match).
  EXPECT_TRUE(report.completed) << cell;
  for (std::size_t v = 0; v < driver.voter_count(); ++v) {
    EXPECT_TRUE(driver.voter(v).has_receipt()) << cell << " voter " << v;
  }
  EXPECT_EQ(report.tally, report.expected_tally) << cell;
  EXPECT_EQ(report.tally, (std::vector<std::uint64_t>{2, 3})) << cell;

  // Agreement: every live VC pushed the identical agreed vote set.
  std::vector<VoteSetEntry> first_set;
  bool have_first = false;
  for (std::size_t i = 0; i < cfg.params.n_vc; ++i) {
    if (sc.crash_vc && i == 2) continue;
    const auto& set = driver.vc_node(i).final_vote_set();
    EXPECT_TRUE(driver.vc_node(i).push_complete()) << cell << " vc" << i;
    if (!have_first) {
      first_set = set;
      have_first = true;
      EXPECT_EQ(set.size(), kVoters) << cell;
    } else {
      EXPECT_EQ(set, first_set) << cell << " vc" << i;
    }
  }

  Outcome out;
  out.tally = report.tally;
  out.receipts = report.receipts;
  out.vote_set = first_set;
  return out;
}

TEST(ShardFaultMatrix, SafetyAndLivenessAcrossFaultsAndShardCounts) {
  const Scenario scenarios[] = {
      {"lossy-voters", true, false, false, false},
      {"lossy+dup-core+delay", true, true, true, false},
      {"lossy+dup-core+delay+crashed-vc", true, true, true, true},
  };
  auto arts = std::make_shared<const ea::SetupArtifacts>(
      ea::ea_setup({fault_params(), 60'001, false, 64}));
  for (const Scenario& sc : scenarios) {
    std::optional<Outcome> base;
    for (std::size_t shards : {1u, 2u, 4u}) {
      Outcome out = run_cell(sc, shards, arts);
      if (!base) {
        base = out;
      } else {
        // Sharding must be outcome-invariant within a fault scenario:
        // identical tally, identical printed receipts, identical agreed
        // vote set.
        std::string cell = std::string(sc.name) + " shards=" +
                           std::to_string(shards);
        EXPECT_EQ(out.tally, base->tally) << cell;
        EXPECT_EQ(out.receipts, base->receipts) << cell;
        EXPECT_EQ(out.vote_set, base->vote_set) << cell;
      }
    }
  }
}

}  // namespace
}  // namespace ddemos::core
