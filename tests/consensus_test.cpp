#include <gtest/gtest.h>

#include "consensus/binary_consensus.hpp"
#include "sim/sim.hpp"

namespace ddemos::consensus {
namespace {

using sim::NodeId;
using sim::Simulation;

// --- Batched binary consensus harness ----------------------------------

class BcNode : public sim::Process {
 public:
  BcNode(const ConsensusConfig& cfg, std::vector<CoinShare> shares,
         std::vector<crypto::Hash32> roots, Bitmap input)
      : cfg_(cfg), input_(std::move(input)) {
    engine_ = std::make_unique<BatchBinaryConsensus>(
        cfg, std::move(shares), std::move(roots),
        BatchBinaryConsensus::Hooks{
            [this](Bytes msg) {
              net::Buffer buf(std::move(msg));  // one allocation, n handles
              for (std::size_t p = 0; p < cfg_.nodes; ++p) {
                ctx().send(static_cast<NodeId>(p), buf);
              }
            },
            nullptr,
            [this] { completed = true; }});
  }

  void on_start() override { engine_->start(input_); }
  void on_message(NodeId from, const net::Buffer& payload) override {
    engine_->on_message(from, payload);
  }

  BatchBinaryConsensus& engine() { return *engine_; }
  bool completed = false;

 private:
  ConsensusConfig cfg_;
  Bitmap input_;
  std::unique_ptr<BatchBinaryConsensus> engine_;
};

// A Byzantine consensus node: claims decided values without justification
// and sends conflicting BVALs for every instance.
class ByzBcNode : public sim::Process {
 public:
  ByzBcNode(std::size_t n, std::size_t instances)
      : n_(n), instances_(instances) {}
  void on_start() override {
    // BVAL both values for round 0.
    Writer w;
    w.u8(1);
    w.varint(0);
    Bitmap all(instances_);
    for (std::size_t i = 0; i < instances_; ++i) all.set(i);
    all.encode(w);
    all.encode(w);
    Bytes msg = w.take();
    for (std::size_t p = 0; p < n_; ++p) {
      ctx().send(static_cast<NodeId>(p), msg);
    }
    // False DECIDED claims for value 1 everywhere.
    Writer d;
    d.u8(4);
    all.encode(d);
    all.encode(d);
    Bytes claim = d.take();
    for (std::size_t p = 0; p < n_; ++p) {
      ctx().send(static_cast<NodeId>(p), claim);
    }
  }
  void on_message(NodeId, const net::Buffer&) override {}

 private:
  std::size_t n_, instances_;
};

struct BcCluster {
  BcCluster(std::size_t n, std::size_t f, std::size_t instances,
            std::uint64_t seed, const std::vector<Bitmap>& inputs,
            sim::LinkModel link = sim::LinkModel::lan(),
            std::size_t byzantine = 0)
      : sim(seed) {
    sim.set_default_link(link);
    crypto::Rng dealer(seed ^ 0xc01ec01e);
    ConsensusConfig cfg{n, f, instances, 0, 64};
    CoinDeal deal = deal_coins(n, f + 1, cfg.max_rounds, dealer);
    for (std::size_t i = 0; i < n - byzantine; ++i) {
      cfg.self_index = i;
      nodes.push_back(dynamic_cast<BcNode*>(&sim.process(sim.add_node(
          std::make_unique<BcNode>(cfg, deal.node_shares[i],
                                   deal.round_roots, inputs[i]),
          "bc" + std::to_string(i)))));
    }
    for (std::size_t i = n - byzantine; i < n; ++i) {
      sim.add_node(std::make_unique<ByzBcNode>(n, instances), "byz");
    }
  }
  Simulation sim;
  std::vector<BcNode*> nodes;
};

Bitmap make_input(std::size_t instances, std::uint64_t pattern) {
  Bitmap b(instances);
  for (std::size_t i = 0; i < instances; ++i) {
    if ((pattern >> (i % 64)) & 1) b.set(i);
  }
  return b;
}

TEST(BinaryConsensus, UnanimousDecidesInput) {
  std::size_t n = 4, inst = 8;
  std::vector<Bitmap> inputs(n, make_input(inst, 0b10110101));
  BcCluster c(n, 1, inst, 11, inputs);
  c.sim.start();
  c.sim.run_until_idle();
  for (auto* node : c.nodes) {
    ASSERT_TRUE(node->completed);
    EXPECT_EQ(node->engine().decisions(), inputs[0]);
  }
}

TEST(BinaryConsensus, AgreementWithMixedInputs) {
  std::size_t n = 4, inst = 16;
  std::vector<Bitmap> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(make_input(inst, 0x9e3779b97f4a7c15ull * (i + 1)));
  }
  BcCluster c(n, 1, inst, 12, inputs);
  c.sim.start();
  c.sim.run_until_idle();
  for (auto* node : c.nodes) ASSERT_TRUE(node->completed);
  for (std::size_t i = 1; i < c.nodes.size(); ++i) {
    EXPECT_EQ(c.nodes[i]->engine().decisions(),
              c.nodes[0]->engine().decisions());
  }
}

// Property sweep: agreement + validity over seeds, cluster sizes, faults.
struct SweepParam {
  std::size_t n, f, crashed, byzantine;
  std::uint64_t seed;
};

class ConsensusSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(ConsensusSweep, AgreementValidityTermination) {
  auto [n, f, crashed, byzantine, seed] = GetParam();
  std::size_t inst = 12;
  std::vector<Bitmap> inputs;
  crypto::Rng r(seed);
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(make_input(inst, r.u64()));
  }
  BcCluster c(n, f, inst, seed,
              inputs, sim::LinkModel::lossy(0.0, 0.05), byzantine);
  // Crash `crashed` honest nodes (they never participate).
  for (std::size_t i = 0; i < crashed; ++i) {
    c.sim.crash(static_cast<NodeId>(c.nodes.size() - 1 - i));
  }
  c.sim.start();
  c.sim.run_until_idle();

  std::vector<BcNode*> alive;
  for (auto* node : c.nodes) {
    if (!c.sim.crashed(
            static_cast<NodeId>(node - c.nodes[0] >= 0 ? 0 : 0))) {
    }
  }
  // Collect live honest nodes (first n - byzantine - crashed).
  std::size_t live = c.nodes.size() - crashed;
  for (std::size_t i = 0; i < live; ++i) alive.push_back(c.nodes[i]);

  for (auto* node : alive) {
    ASSERT_TRUE(node->completed) << "node did not terminate";
  }
  // Agreement.
  for (std::size_t i = 1; i < alive.size(); ++i) {
    EXPECT_EQ(alive[i]->engine().decisions(), alive[0]->engine().decisions());
  }
  // Validity: if every honest input agreed on an instance, the decision is
  // that value (Byzantine nodes cannot inject values nobody proposed).
  for (std::size_t i = 0; i < inst; ++i) {
    bool all_one = true, all_zero = true;
    for (std::size_t v = 0; v < live; ++v) {
      if (inputs[v].get(i)) {
        all_zero = false;
      } else {
        all_one = false;
      }
    }
    if (all_one) EXPECT_TRUE(alive[0]->engine().decision(i));
    if (all_zero) EXPECT_FALSE(alive[0]->engine().decision(i));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConsensusSweep,
    ::testing::Values(SweepParam{4, 1, 0, 0, 100}, SweepParam{4, 1, 0, 0, 101},
                      SweepParam{4, 1, 1, 0, 102}, SweepParam{4, 1, 0, 1, 103},
                      SweepParam{7, 2, 0, 0, 104}, SweepParam{7, 2, 2, 0, 105},
                      SweepParam{7, 2, 0, 2, 106}, SweepParam{7, 2, 1, 1, 107},
                      SweepParam{10, 3, 0, 0, 108},
                      SweepParam{10, 3, 3, 0, 109},
                      SweepParam{10, 3, 0, 3, 110},
                      SweepParam{13, 4, 2, 2, 111}));

TEST(BinaryConsensus, WanLatencyStillTerminates) {
  std::size_t n = 4, inst = 4;
  std::vector<Bitmap> inputs(n, make_input(inst, 0b0110));
  BcCluster c(n, 1, inst, 42, inputs, sim::LinkModel::wan());
  c.sim.start();
  c.sim.run_until_idle();
  for (auto* node : c.nodes) ASSERT_TRUE(node->completed);
}

TEST(BinaryConsensus, RejectsBadConfig) {
  crypto::Rng rng(1);
  CoinDeal deal = deal_coins(4, 2, 64, rng);
  ConsensusConfig bad{4, 2, 1, 0, 64};  // n < 3f+1
  EXPECT_THROW(BatchBinaryConsensus(bad, deal.node_shares[0],
                                    deal.round_roots, {}),
               ProtocolError);
}

TEST(BinaryConsensus, InputSizeMismatchThrows) {
  crypto::Rng rng(2);
  CoinDeal deal = deal_coins(4, 2, 64, rng);
  ConsensusConfig cfg{4, 1, 8, 0, 64};
  BatchBinaryConsensus bc(cfg, deal.node_shares[0], deal.round_roots,
                          {[](Bytes) {}, nullptr, nullptr});
  EXPECT_THROW(bc.start(Bitmap(5)), ProtocolError);
}

TEST(Coin, DealVerifiesAndReconstructs) {
  crypto::Rng rng(3);
  std::size_t n = 5, t = 2, rounds = 8;
  CoinDeal deal = deal_coins(n, t, rounds, rng);
  ASSERT_EQ(deal.node_shares.size(), n);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<crypto::Share> shares;
    for (std::size_t i = 0; i < n; ++i) {
      const CoinShare& cs = deal.node_shares[i][r];
      EXPECT_TRUE(verify_coin_share(cs, i, n, deal.round_roots[r]));
      shares.push_back(cs.share);
    }
    // Any t shares give the same coin.
    bool v1 = coin_value({shares.begin(), shares.begin() + 2}, t);
    bool v2 = coin_value({shares.begin() + 2, shares.begin() + 4}, t);
    EXPECT_EQ(v1, v2);
  }
}

TEST(Coin, TamperedShareRejected) {
  crypto::Rng rng(4);
  CoinDeal deal = deal_coins(4, 2, 2, rng);
  CoinShare cs = deal.node_shares[1][0];
  cs.share.y = cs.share.y + crypto::Fn::one();
  EXPECT_FALSE(verify_coin_share(cs, 1, 4, deal.round_roots[0]));
  // Wrong claimed sender also rejected.
  EXPECT_FALSE(
      verify_coin_share(deal.node_shares[1][0], 2, 4, deal.round_roots[0]));
}

}  // namespace
}  // namespace ddemos::consensus
