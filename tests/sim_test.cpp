#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "net/tcp_net.hpp"
#include "net/thread_net.hpp"
#include "sim/sim.hpp"
#include "test_clock.hpp"
#include "util/error.hpp"

namespace ddemos::sim {
namespace {

// Test process: echoes received payloads back, counts deliveries.
class Echo : public Process {
 public:
  void on_message(NodeId from, const net::Buffer& payload) override {
    ++received;
    last = Bytes(payload.begin(), payload.end());
    if (!payload.empty() && payload[0] == 'p') {
      ctx().send(from, to_bytes("r"));
    }
  }
  int received = 0;
  Bytes last;
};

// Sends one ping to node 1 at start; records the reply time. reply_at is
// atomic because the ThreadNet test's completion predicate reads it while
// the worker writes it.
class Pinger : public Process {
 public:
  void on_start() override {
    sent_at = ctx().now();
    ctx().send(1, to_bytes("p"));
  }
  void on_message(NodeId, const net::Buffer&) override { reply_at = ctx().now(); }
  TimePoint sent_at = -1;
  std::atomic<TimePoint> reply_at{-1};
};

TEST(Sim, DeliversAndTracksLatency) {
  Simulation sim(1);
  sim.set_default_link(LinkModel{1000, 0, 0, 0});
  sim.add_node(std::make_unique<Pinger>(), "pinger");
  sim.add_node(std::make_unique<Echo>(), "echo");
  sim.start();
  sim.run_until_idle();
  auto& p = dynamic_cast<Pinger&>(sim.process(0));
  EXPECT_EQ(p.reply_at - p.sent_at, 2000);  // one RTT
  EXPECT_EQ(sim.delivered_messages(), 2u);
}

TEST(Sim, DeterministicAcrossRuns) {
  auto run = [] {
    Simulation sim(99);
    sim.set_default_link(LinkModel{500, 400, 0.0, 0.0});
    sim.add_node(std::make_unique<Pinger>(), "pinger");
    sim.add_node(std::make_unique<Echo>(), "echo");
    sim.start();
    sim.run_until_idle();
    return dynamic_cast<Pinger&>(sim.process(0)).reply_at.load();
  };
  EXPECT_EQ(run(), run());
}

TEST(Sim, DropsAllWithFullLoss) {
  Simulation sim(2);
  sim.set_default_link(LinkModel{100, 0, 1.0, 0.0});
  sim.add_node(std::make_unique<Pinger>(), "pinger");
  sim.add_node(std::make_unique<Echo>(), "echo");
  sim.start();
  sim.run_until_idle();
  EXPECT_EQ(sim.delivered_messages(), 0u);
  EXPECT_EQ(sim.dropped_messages(), 1u);
}

TEST(Sim, DuplicatesDeliverTwice) {
  Simulation sim(3);
  sim.set_default_link(LinkModel{100, 0, 0.0, 1.0});
  sim.add_node(std::make_unique<Pinger>(), "pinger");
  sim.add_node(std::make_unique<Echo>(), "echo");
  sim.start();
  sim.run_until_idle();
  auto& e = dynamic_cast<Echo&>(sim.process(1));
  EXPECT_EQ(e.received, 2);
}

TEST(Sim, CrashedNodeReceivesNothing) {
  Simulation sim(4);
  sim.add_node(std::make_unique<Pinger>(), "pinger");
  sim.add_node(std::make_unique<Echo>(), "echo");
  sim.crash(1);
  sim.start();
  sim.run_until_idle();
  EXPECT_EQ(dynamic_cast<Echo&>(sim.process(1)).received, 0);
  EXPECT_EQ(dynamic_cast<Pinger&>(sim.process(0)).reply_at, -1);
}

TEST(Sim, LinkFilterCanDelayAndDrop) {
  Simulation sim(5);
  sim.set_default_link(LinkModel{100, 0, 0, 0});
  sim.add_node(std::make_unique<Pinger>(), "pinger");
  sim.add_node(std::make_unique<Echo>(), "echo");
  // Adversary: delay 0->1 by 5000us, drop replies 1->0.
  sim.set_link_filter([](NodeId from, NodeId to,
                         TimePoint) -> std::optional<Duration> {
    if (from == 0 && to == 1) return 5000;
    return std::nullopt;  // drop
  });
  sim.start();
  sim.run_until_idle();
  auto& e = dynamic_cast<Echo&>(sim.process(1));
  EXPECT_EQ(e.received, 1);
  EXPECT_EQ(dynamic_cast<Pinger&>(sim.process(0)).reply_at, -1);
  EXPECT_EQ(sim.dropped_messages(), 1u);
}

class TimerProc : public Process {
 public:
  void on_start() override { token = ctx().set_timer(2500); }
  void on_message(NodeId, const net::Buffer&) override {}
  void on_timer(std::uint64_t t) override {
    if (t == token) fired_at = ctx().now();
  }
  std::uint64_t token = 0;
  TimePoint fired_at = -1;
};

TEST(Sim, TimersFireAtRequestedTime) {
  Simulation sim(6);
  sim.add_node(std::make_unique<TimerProc>(), "t");
  sim.start();
  sim.run_until_idle();
  EXPECT_EQ(dynamic_cast<TimerProc&>(sim.process(0)).fired_at, 2500);
}

// CPU charging serializes a node's handlers in virtual time.
class Charger : public Process {
 public:
  void on_message(NodeId, const net::Buffer&) override {
    starts.push_back(ctx().now());
    ctx().charge(1000);
  }
  std::vector<TimePoint> starts;
};

class Burst : public Process {
 public:
  void on_start() override {
    for (int i = 0; i < 3; ++i) ctx().send(1, to_bytes("x"));
  }
  void on_message(NodeId, const net::Buffer&) override {}
};

TEST(Sim, ChargedCpuSerializesHandlers) {
  Simulation sim(7);
  sim.set_default_link(LinkModel{100, 0, 0, 0});
  sim.add_node(std::make_unique<Burst>(), "burst");
  sim.add_node(std::make_unique<Charger>(), "charger");
  sim.start();
  sim.run_until_idle();
  auto& c = dynamic_cast<Charger&>(sim.process(1));
  ASSERT_EQ(c.starts.size(), 3u);
  // All arrive at t=100 but handlers run back-to-back 1000us apart.
  EXPECT_EQ(c.starts[0], 100);
  EXPECT_EQ(c.starts[1], 1100);
  EXPECT_EQ(c.starts[2], 2100);
}

// Forwards every message forever: drives the event budget to exhaustion.
class Bouncer : public Process {
 public:
  void on_start() override { ctx().send(1 - ctx().self(), to_bytes("x")); }
  void on_message(NodeId from, const net::Buffer& payload) override {
    ctx().send(from, payload);
  }
};

TEST(Sim, EventBudgetErrorCarriesCountAndVirtualTime) {
  Simulation sim(5);
  sim.add_node(std::make_unique<Bouncer>(), "a");
  sim.add_node(std::make_unique<Bouncer>(), "b");
  sim.start();
  try {
    sim.run_until_idle(1000);
    FAIL() << "expected ProtocolError";
  } catch (const ProtocolError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("1000 events processed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("virtual time"), std::string::npos) << msg;
  }
  // An exactly-consumed budget with an empty queue is not an error.
  Simulation sim2(5);
  sim2.add_node(std::make_unique<Echo>(), "only");
  sim2.start();
  EXPECT_NO_THROW(sim2.run_until_idle(0));
}

TEST(Sim, RunToQuiescenceStopsEarlyOnPredicate) {
  Simulation sim(6);
  sim.add_node(std::make_unique<Bouncer>(), "a");
  sim.add_node(std::make_unique<Bouncer>(), "b");
  RunOptions opts;
  opts.max_events = 100'000;
  opts.probe_interval = 16;
  std::size_t probes = 0;
  opts.probe = [&probes] { ++probes; };
  // The bounce never ends; the predicate ends the run at a probe boundary.
  EXPECT_TRUE(sim.run_to_quiescence(
      [&sim] { return sim.events_processed() >= 64; }, opts));
  EXPECT_GE(sim.events_processed(), 64u);
  EXPECT_LT(sim.events_processed(), 1000u);
  EXPECT_GT(probes, 0u);
}

TEST(Sim, RunUntilStopsAtDeadline) {
  Simulation sim(8);
  sim.add_node(std::make_unique<TimerProc>(), "t");
  sim.start();
  sim.run_until(1000);
  EXPECT_EQ(dynamic_cast<TimerProc&>(sim.process(0)).fired_at, -1);
  EXPECT_EQ(sim.now(), 1000);
  sim.run_until(3000);
  EXPECT_EQ(dynamic_cast<TimerProc&>(sim.process(0)).fired_at, 2500);
}

TEST(ThreadNet, PingPongOverThreads) {
  net::ThreadNet net;
  net.add_node(std::make_unique<Pinger>(), "pinger");
  net.add_node(std::make_unique<Echo>(), "echo");
  auto& pinger = dynamic_cast<Pinger&>(net.process(0));
  RunOptions opts;
  opts.wall_timeout_us = 5'000'000;
  EXPECT_TRUE(
      net.run_to_quiescence([&] { return pinger.reply_at >= 0; }, opts));
  net.stop();
  EXPECT_GE(pinger.reply_at, 0);
}

class ThreadTimer : public Process {
 public:
  void on_start() override { ctx().set_timer(20'000); }  // 20ms
  void on_message(NodeId, const net::Buffer&) override {}
  void on_timer(std::uint64_t) override { fired = true; }
  std::atomic<bool> fired{false};
};

TEST(ThreadNet, TimersFire) {
  net::ThreadNet net;
  net.add_node(std::make_unique<ThreadTimer>(), "t");
  auto& timer = dynamic_cast<ThreadTimer&>(net.process(0));
  RunOptions opts;
  opts.wall_timeout_us = 5'000'000;
  EXPECT_TRUE(net.run_to_quiescence([&] { return timer.fired.load(); }, opts));
  net.stop();
  EXPECT_TRUE(timer.fired);
}

// --- Host contract: ThreadNet and TcpNet share one local-dispatch core, so
// both must honour the same shard, timer, counter and lifecycle rules. The
// TcpNet instance is a single-process cluster: every node maps to process
// 0 and there are no peers.

template <typename Host>
std::unique_ptr<Host> make_host();

template <>
std::unique_ptr<net::ThreadNet> make_host<net::ThreadNet>() {
  return std::make_unique<net::ThreadNet>();
}

template <>
std::unique_ptr<net::TcpNet> make_host<net::TcpNet>() {
  net::TcpConfig cfg;
  cfg.election_id = to_bytes("host-contract");
  return std::make_unique<net::TcpNet>(std::move(cfg));
}

// Byte 0 of a payload names its shard. on_start queues kPerShard messages
// on every shard; the first handler on kTimerShard arms a timer. Message
// handlers record their shard's thread, and every handler (the timer
// counts against shard 0) holds a per-shard occupancy counter while it
// runs, so an overlap of two same-shard handlers is caught.
class ShardProbe final : public ShardedProcess {
 public:
  static constexpr std::size_t kShards = 3;
  static constexpr std::size_t kTimerShard = 2;
  static constexpr int kPerShard = 20;

  std::size_t shard_count() const override { return kShards; }
  std::size_t shard_of(NodeId, const net::Buffer& payload) const override {
    return payload.empty() ? 0 : payload[0];
  }

  void on_start() override {
    for (int i = 0; i < kPerShard; ++i) {
      for (std::uint8_t s = 0; s < kShards; ++s) {
        ctx().send(ctx().self(), Bytes{s});
      }
    }
  }
  void on_message(NodeId, const net::Buffer& payload) override {
    std::size_t shard = payload[0];
    enter(shard);
    shard_thread[shard] = std::this_thread::get_id();
    if (shard == kTimerShard && !timer_armed_.exchange(true)) {
      ctx().set_timer(1'000);
    }
    leave(shard);
    messages.fetch_add(1, std::memory_order_release);
  }
  void on_timer(std::uint64_t) override {
    enter(0);
    timer_thread = std::this_thread::get_id();
    leave(0);
    timer_fired.store(true, std::memory_order_release);
  }

  bool done() const {
    return messages.load(std::memory_order_acquire) ==
               static_cast<int>(kShards) * kPerShard &&
           timer_fired.load(std::memory_order_acquire);
  }

  // Written by each shard's own worker; read after stop().
  std::array<std::thread::id, kShards> shard_thread{};
  std::thread::id timer_thread{};
  std::atomic<int> messages{0};
  std::atomic<bool> timer_fired{false};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<bool> overlap{false};

 private:
  void enter(std::size_t shard) {
    if (occupancy_[shard].fetch_add(1) != 0) overlap.store(true);
    calls.fetch_add(1, std::memory_order_relaxed);
    // Widen the window in which a second same-shard handler would show.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  void leave(std::size_t shard) { occupancy_[shard].fetch_sub(1); }

  std::array<std::atomic<int>, kShards> occupancy_{};
  std::atomic<bool> timer_armed_{false};
};

template <typename Host>
class RealClockHost : public ::testing::Test {
 protected:
  RealClockHost() : host(make_host<Host>()) {
    host->add_node(std::make_unique<ShardProbe>(), "probe");
    probe = &dynamic_cast<ShardProbe&>(host->process(0));
  }

  // Runs the probe to completion and stops the host.
  void run() {
    RunOptions opts;
    opts.wall_timeout_us = test::scaled(10'000'000);
    ASSERT_TRUE(host->run_to_quiescence([&] { return probe->done(); }, opts));
    host->stop();
  }

  std::unique_ptr<Host> host;
  ShardProbe* probe = nullptr;
};

using RealClockHosts = ::testing::Types<net::ThreadNet, net::TcpNet>;
TYPED_TEST_SUITE(RealClockHost, RealClockHosts);

TYPED_TEST(RealClockHost, TimerArmedOnAnyShardFiresOnShardZero) {
  this->run();
  const ShardProbe& p = *this->probe;
  EXPECT_NE(p.shard_thread[0], p.shard_thread[ShardProbe::kTimerShard]);
  EXPECT_EQ(p.timer_thread, p.shard_thread[0]);
}

TYPED_TEST(RealClockHost, SameShardHandlersNeverOverlap) {
  this->run();
  EXPECT_FALSE(this->probe->overlap.load());
}

TYPED_TEST(RealClockHost, ShardHighWaterCoversEveryShard) {
  this->run();
  std::vector<std::size_t> hw = this->host->shard_queue_high_water(0);
  ASSERT_EQ(hw.size(), this->probe->shard_count());
  // Every message was queued by on_start, before any worker existed.
  for (std::size_t depth : hw) {
    EXPECT_EQ(depth, static_cast<std::size_t>(ShardProbe::kPerShard));
  }
}

TYPED_TEST(RealClockHost, EventsDispatchedCountsHandlerCalls) {
  this->run();
  EXPECT_EQ(this->host->events_dispatched(), this->probe->calls.load());
}

TYPED_TEST(RealClockHost, StopIsIdempotentAndFinal) {
  this->run();
  this->host->stop();  // second stop: no-op
  EXPECT_THROW(this->host->start(), ProtocolError);
  RunOptions opts;
  opts.wall_timeout_us = 1'000;
  EXPECT_THROW(this->host->run_to_quiescence([] { return true; }, opts),
               ProtocolError);
}

}  // namespace
}  // namespace ddemos::sim
