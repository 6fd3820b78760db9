// Workload sources for the election driver: round-robin parity with the
// old dense-vector defaults, seeded-random determinism, abstention
// handling in the expected tally, closed-loop completion, disk-trace
// replay, and the O(1)-memory configuration of a million-slot election.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/driver.hpp"
#include "core/messages.hpp"
#include "util/error.hpp"

namespace ddemos::core {
namespace {

ElectionParams tiny_params(std::size_t voters, std::size_t options = 2) {
  ElectionParams p;
  p.election_id = to_bytes("workload-test");
  for (std::size_t i = 0; i < options; ++i) {
    p.options.push_back("opt" + std::to_string(i));
  }
  p.n_voters = voters;
  p.n_vc = 4;
  p.f_vc = 1;
  p.n_bb = 3;
  p.f_bb = 1;
  p.n_trustees = 3;
  p.h_trustees = 2;
  p.t_start = 0;
  p.t_end = 30'000'000;
  return p;
}

TEST(Workload, RoundRobinMatchesOldRunnerDefaults) {
  // The old ElectionRunner defaulted missing vote entries to option
  // v % m and spread cast times evenly over the first three quarters of
  // the election window: vote_at = t_start + 3/4*window * (v+1)/(n+1).
  ElectionParams p = tiny_params(5, 3);
  p.t_start = 1'000'000;
  p.t_end = 9'000'000;
  RoundRobinWorkload wl;
  wl.bind(p);
  sim::Duration window = (p.t_end - p.t_start) * 3 / 4;  // 6s
  for (std::size_t v = 0; v < 5; ++v) {
    auto in = wl.next();
    ASSERT_TRUE(in.has_value());
    EXPECT_EQ(in->slot, v);
    EXPECT_EQ(in->option, v % 3);
    EXPECT_EQ(in->cast_at,
              p.t_start + static_cast<sim::Duration>(
                              static_cast<std::uint64_t>(window) * (v + 1) /
                              (p.n_voters + 1)));
  }
  EXPECT_FALSE(wl.next().has_value());
  // bind() rewinds: a second pass yields the same stream.
  wl.bind(p);
  auto again = wl.next();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->slot, 0u);
}

TEST(Workload, VoteListFallsBackToRoundRobinBeyondList) {
  ElectionParams p = tiny_params(4, 2);
  VoteListWorkload wl({1, kAbstain});
  wl.bind(p);
  EXPECT_EQ(wl.next()->option, 1u);
  EXPECT_EQ(wl.next()->option, kAbstain);
  EXPECT_EQ(wl.next()->option, 2u % 2);  // slot 2: round-robin
  EXPECT_EQ(wl.next()->option, 3u % 2);
  EXPECT_FALSE(wl.next().has_value());
}

TEST(Workload, SeededRandomIsDeterministicAcrossRuns) {
  ElectionParams p = tiny_params(200, 4);
  auto stream = [&](std::uint64_t seed) {
    RandomWorkload wl(seed, 0.25);
    wl.bind(p);
    std::vector<std::size_t> options;
    while (auto in = wl.next()) options.push_back(in->option);
    return options;
  };
  auto a = stream(99), b = stream(99), c = stream(100);
  EXPECT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b);  // same seed, same stream
  EXPECT_NE(a, c);  // different seed diverges
  std::size_t abstained = 0;
  for (std::size_t o : a) abstained += o == kAbstain ? 1 : 0;
  EXPECT_GT(abstained, 0u);  // 25% abstention actually happens
  EXPECT_LT(abstained, 200u);
}

TEST(Workload, AbstainSlotsExcludedFromExpectedTally) {
  DriverConfig cfg;
  cfg.params = tiny_params(5, 2);
  cfg.seed = 31;
  cfg.workload = VoteListWorkload::make({0, kAbstain, 1, kAbstain, 0});
  ElectionDriver driver(cfg);
  ElectionReport r = driver.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.voters_launched, 3u);  // abstainers are never instantiated
  EXPECT_EQ(r.receipts_issued, 3u);
  EXPECT_EQ(r.expected_tally, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(r.tally, r.expected_tally);
}

TEST(Workload, ClosedLoopCompletesEveryCast) {
  // The closed-loop source drives the same full election through one
  // multiplexing client (core::ClosedLoopClient): every cast must
  // complete, and the published tally must match the client's per-option
  // completion counts exactly.
  DriverConfig cfg;
  cfg.params = tiny_params(8, 2);
  cfg.seed = 32;
  cfg.workload = ClosedLoopWorkload::make(/*casts=*/6, /*concurrency=*/2, 7);
  ElectionDriver driver(cfg);
  ElectionReport r = driver.run();
  ASSERT_TRUE(r.completed);
  ASSERT_NE(driver.load_client(), nullptr);
  EXPECT_TRUE(driver.load_client()->done());
  EXPECT_EQ(driver.load_client()->completed(), 6u);
  EXPECT_EQ(r.receipts_issued, 6u);
  EXPECT_EQ(r.voters_launched, 6u);
  std::uint64_t sum = 0;
  for (std::uint64_t t : r.expected_tally) sum += t;
  EXPECT_EQ(sum, 6u);
  EXPECT_EQ(r.tally, r.expected_tally);
  EXPECT_GT(driver.load_client()->mean_latency_us(), 0.0);
}

// A stand-in vote collector that answers every cast with kOk and the
// receipt `receipt_of(serial)`, right or wrong.
class ReceiptEcho final : public sim::Process {
 public:
  explicit ReceiptEcho(std::function<std::uint64_t(Serial)> receipt_of)
      : receipt_of_(std::move(receipt_of)) {}
  void on_message(sim::NodeId from, const net::Buffer& payload) override {
    Reader r(payload.view());
    if (static_cast<MsgType>(r.u8()) != MsgType::kVote) return;
    VoteMsg vote = VoteMsg::decode(r);
    ctx().send(from, VoteReplyMsg{vote.serial, VoteReplyStatus::kOk,
                                  receipt_of_(vote.serial)}
                         .encode());
  }

 private:
  std::function<std::uint64_t(Serial)> receipt_of_;
};

TEST(Workload, ClosedLoopCountsWrongReceiptAsRejected) {
  // Printed receipt of serial s is 100 + s; the collector gets serial 2's
  // wrong. That cast must not count as completed (nor toward the tally).
  std::vector<VoteTarget> targets;
  for (Serial s = 1; s <= 4; ++s) {
    targets.push_back(VoteTarget{s, to_bytes("code"), 100 + s, s % 2});
  }
  sim::Simulation sim(5);
  sim::NodeId vc = sim.add_node(
      std::make_unique<ReceiptEcho>(
          [](Serial s) -> std::uint64_t { return s == 2 ? 7 : 100 + s; }),
      "vc0");
  sim::NodeId id = sim.add_node(
      std::make_unique<ClosedLoopClient>(targets, std::vector{vc}, 2, 9),
      "loadgen");
  const auto& client = dynamic_cast<const ClosedLoopClient&>(sim.process(id));
  ASSERT_TRUE(sim.run_to_quiescence([&] { return client.done(); }, {}));
  EXPECT_EQ(client.completed(), 3u);
  EXPECT_EQ(client.rejected(), 1u);
  // Serial 2 (option 0) is the rejected one: serials 1, 3, 4 cast options
  // 1, 1, 0.
  EXPECT_EQ(client.completed_by_option(2), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Workload, DiskTraceRoundTripDrivesElection) {
  std::string path = "/tmp/ddemos_workload_trace_small.bin";
  {
    DiskTraceWorkload::Builder b(path);
    b.add(0, 1, 100'000);
    b.add(1, kAbstain, 0);
    b.add(2, 0, 200'000);
    b.add(3, 1, 300'000);
    b.finish();
  }
  DriverConfig cfg;
  cfg.params = tiny_params(4, 2);
  cfg.seed = 33;
  cfg.workload = DiskTraceWorkload::make(path);
  ElectionDriver driver(cfg);
  ElectionReport r = driver.run();
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.voters_launched, 3u);
  EXPECT_EQ(r.expected_tally, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(r.tally, r.expected_tally);
  std::filesystem::remove(path);
}

TEST(Workload, UnfinishedTraceIsRejected) {
  // A Builder dropped without finish() must not replay as a silently empty
  // electorate: the reader rejects the unfinished-count sentinel.
  std::string path = "/tmp/ddemos_workload_trace_unfinished.bin";
  {
    DiskTraceWorkload::Builder b(path);
    b.add(0, 0, 0);
  }  // destroyed without finish()
  EXPECT_THROW(DiskTraceWorkload reader(path), ProtocolError);
  std::filesystem::remove(path);
}

TEST(Workload, MillionSlotConfigIsConstantSize) {
  // The acceptance bar for the streaming redesign: a 10^6-slot election is
  // configured without any O(V) vector in the driver config. The trace
  // lives on disk; the config holds a handle and streams lazily.
  std::string path = "/tmp/ddemos_workload_trace_1m.bin";
  {
    DiskTraceWorkload::Builder b(path);
    for (std::size_t v = 0; v < 1'000'000; ++v) {
      b.add(v, v % 4, static_cast<sim::TimePoint>(v) * 10);
    }
    b.finish();
  }
  ElectionParams p = tiny_params(1'000'000, 4);
  DriverConfig cfg;
  cfg.params = p;
  cfg.workload = DiskTraceWorkload::make(path);
  // Ballot data would equally stay on disk: the store factory hands each
  // VC a paged DiskBallotSource instead of the in-memory default.
  cfg.store_factory = [](const VcInit& init) {
    return std::make_shared<store::DiskBallotSource>(
        "/tmp/ddemos_vc" + std::to_string(init.node_index) + ".ballots", 64);
  };
  // The config itself is a fixed-size struct: no per-voter storage exists
  // anywhere in it (the old RunnerConfig carried std::vector votes).
  static_assert(sizeof(DriverConfig) < 2048);
  auto* trace = static_cast<DiskTraceWorkload*>(cfg.workload.get());
  EXPECT_EQ(trace->size(), 1'000'000u);
  // Stream a prefix lazily — O(1) memory regardless of trace length.
  trace->bind(p);
  for (std::size_t v = 0; v < 1000; ++v) {
    auto in = trace->next();
    ASSERT_TRUE(in.has_value());
    EXPECT_EQ(in->slot, v);
    EXPECT_EQ(in->option, v % 4);
  }
  std::filesystem::remove(path);
}

TEST(Workload, DriverEventBudgetIsConfigurableAndDiagnostic) {
  // Satellite: the simulator's event budget flows through the driver
  // config, and exhaustion reports the processed count and virtual time.
  DriverConfig cfg;
  cfg.params = tiny_params(3, 2);
  cfg.seed = 34;
  cfg.max_events = 200;  // far too small for a full election
  ElectionDriver driver(cfg);
  try {
    driver.run();
    FAIL() << "expected ProtocolError from event-budget exhaustion";
  } catch (const ProtocolError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("200 events processed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("virtual time"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace ddemos::core
