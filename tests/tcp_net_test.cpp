// TcpNet transport unit tests: wire framing, the launcher's control-socket
// codecs, the shared real-clock timer clamp, loopback delivery between two
// in-process TcpNet instances (two "OS processes" of a cluster hosted in
// one test binary), reconnect after a sever, and send-side backpressure
// against an unreachable peer.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/tcp_launcher.hpp"
#include "net/tcp_frame.hpp"
#include "net/tcp_net.hpp"
#include "test_clock.hpp"
#include "util/codec.hpp"
#include "util/error.hpp"

namespace ddemos::net {
namespace {

using ddemos::test::scaled;

TEST(TcpFrame, HeaderRoundTrip) {
  FrameHeader h;
  h.kind = FrameKind::kData;
  h.from = 3;
  h.to = 7;
  h.seq = 0x1122334455667788ull;
  h.len = 4096;
  std::uint8_t wire[FrameHeader::kWireSize];
  h.encode(wire);
  FrameHeader d = FrameHeader::decode(wire);
  EXPECT_EQ(d.kind, FrameKind::kData);
  EXPECT_EQ(d.from, 3u);
  EXPECT_EQ(d.to, 7u);
  EXPECT_EQ(d.seq, h.seq);
  EXPECT_EQ(d.len, 4096u);
}

TEST(TcpFrame, DecodeRejectsGarbage) {
  FrameHeader h;
  h.kind = FrameKind::kControl;
  std::uint8_t wire[FrameHeader::kWireSize];
  h.encode(wire);

  std::uint8_t bad_magic[FrameHeader::kWireSize];
  std::memcpy(bad_magic, wire, sizeof(wire));
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(FrameHeader::decode(bad_magic), CodecError);

  std::uint8_t bad_kind[FrameHeader::kWireSize];
  std::memcpy(bad_kind, wire, sizeof(wire));
  bad_kind[4] = 0x77;  // not a FrameKind
  EXPECT_THROW(FrameHeader::decode(bad_kind), CodecError);

  h.len = kMaxFramePayload + 1;
  h.encode(wire);
  EXPECT_THROW(FrameHeader::decode(wire), CodecError);
}

TEST(TcpFrame, HelloBodyRoundTrip) {
  HelloBody hello;
  hello.process = 5;
  hello.election_id = to_bytes("election-42");
  Bytes wire = hello.encode();
  HelloBody d = HelloBody::decode(wire);
  EXPECT_EQ(d.version, hello.version);
  EXPECT_EQ(d.process, 5u);
  EXPECT_EQ(d.election_id, to_bytes("election-42"));
}

// Every strict prefix of a control-socket encoding is rejected cleanly.
template <typename T>
void expect_prefixes_rejected(const Bytes& wire) {
  for (std::size_t n = 0; n < wire.size(); ++n) {
    Reader r(BytesView(wire.data(), n));
    EXPECT_THROW(T::decode(r), CodecError) << "prefix of " << n << " bytes";
  }
}

// Decodes `wire` completely and re-encodes the result.
template <typename T>
Bytes reencode(const Bytes& wire, T* out) {
  Reader r(wire);
  *out = T::decode(r);
  EXPECT_TRUE(r.done());
  Writer w;
  out->encode(w);
  return w.take();
}

core::TcpClusterSpec sample_spec() {
  core::TcpClusterSpec spec;
  spec.params.election_id = to_bytes("control-codec");
  spec.params.options = {"yes", "no", "blank"};
  spec.params.n_voters = 17;
  spec.params.n_vc = 4;
  spec.params.f_vc = 1;
  spec.params.n_bb = 3;
  spec.params.f_bb = 1;
  spec.params.n_trustees = 3;
  spec.params.h_trustees = 2;
  spec.params.t_end = 1'500'000;
  spec.seed = 77;
  spec.vc_only = true;
  spec.collection_only = true;
  spec.vc_options.n_shards = 2;
  spec.trustee_options.poll_interval_us = 1234;
  spec.durability.wal_dir = "wal-dir";
  spec.durability.fsync = store::FsyncPolicy::kAlways;
  spec.durability.fsync_interval = 64;  // one varint byte: fsync is at -2
  return spec;
}

TEST(TcpControlCodec, ClusterSpecRoundTripAndTruncation) {
  core::TcpClusterSpec spec = sample_spec();
  Writer w;
  spec.encode(w);
  Bytes wire = w.take();
  core::TcpClusterSpec back;
  EXPECT_EQ(reencode(wire, &back), wire);
  EXPECT_EQ(back.params.election_id, spec.params.election_id);
  EXPECT_EQ(back.params.options, spec.params.options);
  EXPECT_EQ(back.seed, 77u);
  EXPECT_TRUE(back.vc_only);
  EXPECT_TRUE(back.collection_only);
  EXPECT_EQ(back.vc_options.n_shards, 2u);
  EXPECT_EQ(back.durability.wal_dir, "wal-dir");
  EXPECT_EQ(back.durability.fsync, store::FsyncPolicy::kAlways);
  EXPECT_EQ(back.durability.fsync_interval, 64u);
  expect_prefixes_rejected<core::TcpClusterSpec>(wire);
}

TEST(TcpControlCodec, ClusterSpecRejectsUnknownFsyncPolicy) {
  Writer w;
  sample_spec().encode(w);
  Bytes wire = w.take();
  std::uint8_t& fsync = wire[wire.size() - 2];
  ASSERT_EQ(fsync, static_cast<std::uint8_t>(store::FsyncPolicy::kAlways));
  fsync = 3;
  Reader r(wire);
  EXPECT_THROW(core::TcpClusterSpec::decode(r), CodecError);
}

// vc_only artifacts carry no BB or trustee data, so a full cluster over
// them has nothing to build, and a VC-only cluster rebuilds from the
// streaming (vc_only) EA. The constructor refuses a mix before binding any
// socket or forking any child.
TEST(TcpLauncherSpec, VcOnlyAndCollectionOnlyMustAgree) {
  core::TcpClusterSpec spec = sample_spec();  // both set
  spec.collection_only = false;
  EXPECT_THROW(core::TcpLauncher{spec}, ProtocolError);
  spec.vc_only = false;
  spec.collection_only = true;
  EXPECT_THROW(core::TcpLauncher{spec}, ProtocolError);
}

TEST(TcpControlCodec, ProcessReportRoundTripAndTruncation) {
  core::TcpProcessReport rep;
  rep.process = 3;
  rep.events = 1;
  rep.allocations = 2;
  rep.rss_kb = 3;
  rep.peak_rss_kb = 4;
  rep.frames_sent = 5;
  rep.frames_received = 6;
  rep.reconnects = 7;
  rep.frames_dropped = 8;
  core::TcpNodeReport vc;
  vc.node_id = 2;
  vc.vc_stats.votes_received = 10;
  vc.vc_stats.push_done_at = 999;
  vc.vc_shard_stats.resize(2);
  vc.vc_shard_stats[1].queue_high_water = 12;
  vc.vote_set = {{1, to_bytes("code-1")}, {4, to_bytes("code-4")}};
  core::TcpNodeReport bb;
  bb.node_id = 5;
  bb.kind = core::TcpNodeReport::kBb;
  bb.result_published = true;
  bb.tally = {3, 4, 0};
  bb.result_published_at = 4242;
  rep.nodes = {vc, bb};

  Writer w;
  rep.encode(w);
  Bytes wire = w.take();
  core::TcpProcessReport back;
  EXPECT_EQ(reencode(wire, &back), wire);
  EXPECT_EQ(back.process, 3u);
  EXPECT_EQ(back.events, 1u);
  EXPECT_EQ(back.peak_rss_kb, 4u);
  EXPECT_EQ(back.frames_dropped, 8u);
  ASSERT_EQ(back.nodes.size(), 2u);
  EXPECT_EQ(back.nodes[0].vc_shard_stats[1].queue_high_water, 12u);
  EXPECT_EQ(back.nodes[0].vote_set, vc.vote_set);
  EXPECT_EQ(back.nodes[1].kind, core::TcpNodeReport::kBb);
  EXPECT_EQ(back.nodes[1].tally, bb.tally);
  expect_prefixes_rejected<core::TcpProcessReport>(wire);
}

TEST(TimerClamp, SharedHelperBounds) {
  EXPECT_EQ(sim::clamp_real_timer_delay(-5), 0);
  EXPECT_EQ(sim::clamp_real_timer_delay(0), 0);
  EXPECT_EQ(sim::clamp_real_timer_delay(1234), 1234);
  EXPECT_EQ(sim::clamp_real_timer_delay(sim::kMaxRealTimerDelay + 1),
            sim::kMaxRealTimerDelay);
  EXPECT_EQ(sim::clamp_real_timer_delay(std::numeric_limits<
                                            sim::Duration>::max()),
            sim::kMaxRealTimerDelay);
}

// Stop-and-wait client: sends sequence numbers to the echo peer, advances
// on each ack, retries the outstanding one on patience expiry (the same
// resubmit discipline D-DEMOS voters use, so a severed connection only
// delays completion).
class Ping final : public sim::Process {
 public:
  Ping(sim::NodeId peer, std::uint64_t total, sim::Duration patience)
      : peer_(peer), total_(total), patience_(patience) {}

  void on_start() override {
    send_current();
    ctx().set_timer(patience_);
  }
  void on_message(sim::NodeId, const Buffer& payload) override {
    Reader r(payload);
    std::uint64_t acked = r.u64();
    if (acked != current_.load()) return;  // stale retry echo
    if (acked + 1 == total_) {
      done_.store(true, std::memory_order_release);
      return;
    }
    current_.store(acked + 1);
    send_current();
  }
  void on_timer(std::uint64_t) override {
    if (done_.load(std::memory_order_acquire)) return;
    send_current();  // retry the outstanding sequence number
    ctx().set_timer(patience_);
  }

  bool done() const { return done_.load(std::memory_order_acquire); }

 private:
  void send_current() {
    Writer w;
    w.u64(current_.load());
    ctx().send(peer_, w.take());
  }
  sim::NodeId peer_;
  std::uint64_t total_;
  sim::Duration patience_;
  std::atomic<std::uint64_t> current_{0};
  std::atomic<bool> done_{false};
};

class Echo final : public sim::Process {
 public:
  // Holds back the reply to the n-th received message until release().
  // Set before the host starts.
  void hold_reply_at(std::uint64_t n) { hold_at_ = n; }
  void release() { released_.store(true, std::memory_order_release); }

  void on_message(sim::NodeId from, const Buffer& payload) override {
    if (received_.fetch_add(1, std::memory_order_relaxed) + 1 == hold_at_) {
      while (!released_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ctx().send(from, Buffer::copy_of(payload));
  }
  std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t hold_at_ = 0;  // 0 = never hold
  std::atomic<bool> released_{false};
  std::atomic<std::uint64_t> received_{0};
};

// Builds the canonical two-instance cluster: node 0 (ping) on process 0,
// node 1 (echo) on process 1, both instances running the identical
// registration sequence so ids and names line up.
struct Cluster {
  TcpNet a, b;
  Ping* ping = nullptr;
  Echo* echo = nullptr;

  static TcpConfig config_for(std::uint32_t self) {
    TcpConfig cfg;
    cfg.self_process = self;
    cfg.election_id = to_bytes("tcp-net-test");
    cfg.node_process = {0, 1};
    return cfg;
  }

  Cluster(std::uint64_t total, sim::Duration patience)
      : a(config_for(0)), b(config_for(1)) {
    a.add_node(std::make_unique<Ping>(1, total, patience), "ping");
    a.add_node(std::make_unique<Echo>(), "echo");
    b.add_node(std::make_unique<Ping>(1, total, patience), "ping");
    b.add_node(std::make_unique<Echo>(), "echo");
    std::vector<TcpPeer> peers = {{"127.0.0.1", a.listen_port()},
                                  {"127.0.0.1", b.listen_port()}};
    a.set_peers(peers);
    b.set_peers(peers);
    ping = &dynamic_cast<Ping&>(a.process(0));
    echo = &dynamic_cast<Echo&>(b.process(1));
  }
};

TEST(TcpNet, LoopbackDeliveryAcrossProcesses) {
  constexpr std::uint64_t kTotal = 50;
  Cluster c(kTotal, scaled(5'000'000));  // patience >> run: no retries

  // Placeholder semantics: each instance hosts exactly its own node.
  EXPECT_TRUE(c.a.is_local(0));
  EXPECT_FALSE(c.a.is_local(1));
  EXPECT_FALSE(c.b.is_local(0));
  EXPECT_TRUE(c.b.is_local(1));
  EXPECT_EQ(c.a.node_name(1), "echo");
  EXPECT_THROW(c.a.process(1), ProtocolError);

  c.b.start();
  c.a.start();
  sim::RunOptions opts;
  opts.wall_timeout_us = scaled(30'000'000);
  ASSERT_TRUE(c.a.run_to_quiescence([&] { return c.ping->done(); }, opts));

  EXPECT_EQ(c.echo->received(), kTotal);
  // The writer threads count a frame only after write_frame returns, so
  // the echo can complete the last ping before that count lands; stop()
  // joins the writers, after which every counter is final.
  c.a.stop();
  c.b.stop();
  EXPECT_EQ(c.a.frames_dropped(), 0u);
  EXPECT_EQ(c.b.frames_dropped(), 0u);
  EXPECT_GE(c.a.frames_sent(), kTotal);
  EXPECT_GE(c.b.frames_received(), kTotal);
}

TEST(TcpNet, SeverredConnectionsRedialAndComplete) {
  constexpr std::uint64_t kTotal = 200;
  Cluster c(kTotal, scaled(50'000));
  // The echo withholds one reply mid-stream until both sides are severed,
  // so the stream cannot finish first: completion can only happen through
  // redial + retry.
  c.echo->hold_reply_at(kTotal / 4);
  c.b.start();
  c.a.start();

  std::thread saboteur([&] {
    while (c.echo->received() < kTotal / 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    c.a.sever_connections();
    c.b.sever_connections();
    c.echo->release();
  });
  sim::RunOptions opts;
  opts.wall_timeout_us = scaled(60'000'000);
  bool done = c.a.run_to_quiescence([&] { return c.ping->done(); }, opts);
  saboteur.join();
  ASSERT_TRUE(done);
  EXPECT_GE(c.a.reconnects() + c.b.reconnects(), 1u);
  // The echo peer saw every sequence number (retries may add extras, and
  // transport-level dedup keeps reconnect replays out of that count).
  EXPECT_GE(c.echo->received(), kTotal);
  c.a.stop();
  c.b.stop();
}

// Flood a peer that never answers its port: the writer can't drain, the
// bounded queue fills, and senders must drop (counted) instead of wedging.
class Flood final : public sim::Process {
 public:
  explicit Flood(std::uint64_t n) : n_(n) {}
  void on_start() override {
    for (std::uint64_t i = 0; i < n_; ++i) {
      Writer w;
      w.u64(i);
      ctx().send(1, w.take());
    }
    finished_.store(true, std::memory_order_release);
  }
  void on_message(sim::NodeId, const Buffer&) override {}
  bool finished() const { return finished_.load(std::memory_order_acquire); }

 private:
  std::uint64_t n_;
  std::atomic<bool> finished_{false};
};

TEST(TcpNet, BackpressureDropsInsteadOfWedging) {
  TcpConfig cfg = Cluster::config_for(0);
  cfg.send_queue_frames = 4;
  cfg.send_block_us = 1'000;
  TcpNet net(std::move(cfg));
  net.add_node(std::make_unique<Flood>(100), "flood");
  net.add_remote("sink");
  // Port 1 on loopback: nothing listens, every dial is refused.
  net.set_peers({{"127.0.0.1", net.listen_port()}, {"127.0.0.1", 1}});
  Flood* flood = &dynamic_cast<Flood&>(net.process(0));

  net.start();  // on_start floods from this thread; must return
  ASSERT_TRUE(flood->finished());
  EXPECT_GT(net.frames_dropped(), 0u);
  EXPECT_LE(net.frames_sent(), 4u);  // nothing ever connected
  net.stop();  // and tear down cleanly with a non-empty queue
}

}  // namespace
}  // namespace ddemos::net
