// Multi-process socket transport: the third sim::RuntimeHost. A TcpNet
// instance lives in one OS process of a cluster and hosts the subset of the
// election's nodes assigned to that process; every other node is a remote
// placeholder, and traffic to it rides TCP. The local half is the shared
// net::LocalDispatch core that ThreadNet also runs on — one worker thread
// per shard per node, lock-protected mailboxes of shared Buffer handles,
// real-clock timers, the progress-notify completion wait — so shard-affine
// dispatch semantics are identical across all three backends. TcpNet hands
// that core the send path for ids it does not host.
//
// The remote half:
//  * one Connection per destination process, created lazily at first send,
//    with a bounded send queue and a dedicated writer thread. Enqueueing a
//    frame is a cheap Buffer handle copy (an N-process multicast still pays
//    one payload allocation); the writer scatter-writes header + shared
//    payload with writev.
//  * backpressure: when the queue is full the sender blocks up to
//    send_block_us for space, then drops the frame and counts it —
//    Context::send is documented unreliable, and D-DEMOS voters resubmit
//    on patience timeout, so dropping beats wedging a shard worker whose
//    peer died.
//  * handshake/reconnect: a writer dials with exponential backoff, sends a
//    HELLO (version, process index, election id) before any data, and on a
//    broken pipe redials and resends the in-flight frame. Receivers track
//    the last sequence number seen per source process (state on the
//    TcpNet, surviving reconnects) and drop seq <= last, making the resend
//    idempotent even for protocol steps that are not (VC->BB push).
//  * an accept thread + one reader thread per inbound connection validate
//    the HELLO (wrong election id or unknown process => connection closed)
//    and deliver data frames into the local shard mailboxes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/local_dispatch.hpp"

namespace ddemos::net {

struct TcpPeer {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct TcpConfig {
  // This process's index in the cluster (launcher convention: 0 = the
  // launcher/client process, 1..P = protocol node processes).
  std::uint32_t self_process = 0;
  // Rejects cross-election connections in the HELLO.
  Bytes election_id;
  // node_process[id] = hosting process for the protocol-node id prefix;
  // every id at or beyond the vector (voters, load generators) lives on
  // default_process.
  std::vector<std::uint32_t> node_process;
  std::uint32_t default_process = 0;
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;  // 0 = ephemeral, see listen_port()
  // This process's incarnation, carried in the HELLO. A respawned process
  // (crash recovery) starts a fresh outbound sequence space; bumping the
  // incarnation tells receivers to reset their per-process dedup floor
  // instead of silently discarding every frame the newcomer sends.
  std::uint64_t incarnation = 1;
  // Send-side backpressure: per-connection queue bound and how long a
  // sender blocks for space before dropping the frame.
  std::size_t send_queue_frames = 4096;
  Duration send_block_us = 200'000;
};

class TcpNet final : public sim::RuntimeHost {
 public:
  // Binds the data listener immediately (so the ephemeral port can be
  // exchanged before any node exists) but accepts nothing until start().
  explicit TcpNet(TcpConfig cfg);
  ~TcpNet() override;

  TcpNet(const TcpNet&) = delete;
  TcpNet& operator=(const TcpNet&) = delete;

  // The bound data port (the configured one, or the ephemeral pick).
  std::uint16_t listen_port() const { return listen_port_; }
  // Address table, indexed by process; must cover every process that any
  // registered node maps to. Call before start().
  void set_peers(std::vector<TcpPeer> peers);

  // Hosts a node locally if its id maps to self_process; otherwise the
  // process is discarded and the id becomes a remote placeholder, so the
  // exact same build_election code path runs in every process of the
  // cluster and produces the same id/name assignment.
  NodeId add_node(std::unique_ptr<Process> proc, std::string name) override;
  // Registers a remote placeholder without constructing the node at all
  // (bench clusters skip building 10^6-ballot VC state client-side).
  NodeId add_remote(std::string name);
  bool is_local(NodeId id) const override { return local_.is_local(id); }

  // Throws ProtocolError for a remote id (the node lives in another
  // process; callers must check is_local()).
  Process& process(NodeId id) override { return local_.process(id); }
  const std::string& node_name(NodeId id) const override {
    return local_.node_name(id);
  }
  std::size_t node_count() const override { return local_.node_count(); }

  // Starts accepting, then on_start for local nodes on the caller's
  // thread, then shard workers. Throws ProtocolError after stop().
  void start() override { local_.start(); }
  // Joins every worker/writer/reader thread and closes every socket.
  // Idempotent.
  void stop() override;

  // Wall-clock microseconds since start() (0 before the first start),
  // plus the clock offset (crash-recovery respawn).
  TimePoint now() const override { return local_.now(); }
  // A node process learns the launcher's election clock from the GO body,
  // after the node rebuild (0 at launch, the election's age on a respawn),
  // and resumes the cluster's time base from it.
  // Call before start().
  void set_clock_offset(Duration offset_us) {
    local_.set_clock_offset(offset_us);
  }

  using sim::RuntimeHost::run_to_quiescence;
  bool run_to_quiescence(const std::function<bool()>& done,
                         const sim::RunOptions& options) override {
    return local_.run_to_quiescence(done, options);
  }

  std::vector<std::size_t> shard_queue_high_water(NodeId id) const override {
    return local_.shard_queue_high_water(id);
  }

  std::uint64_t events_dispatched() const override {
    return local_.events_dispatched();
  }

  // Wakes a run_to_quiescence waiter whose predicate depends on state
  // outside the transport (launcher control-plane status updates).
  void notify_external() { local_.notify_progress(); }

  // Fault injection: shuts down every established data socket (outbound
  // and inbound). Writers redial with backoff and resend the in-flight
  // frame; receiver-side dedup keeps the replay invisible to protocol
  // code.
  void sever_connections();

  // --- transport counters (monotonic; exact after stop()) ---
  std::uint64_t frames_sent() const {
    return frames_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t frames_received() const {
    return frames_received_.load(std::memory_order_relaxed);
  }
  // Frames dropped by send-side backpressure (full queue past the block
  // budget).
  std::uint64_t frames_dropped() const {
    return frames_dropped_.load(std::memory_order_relaxed);
  }
  // Successful re-dials after an established connection broke.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  // Frames suppressed by receive-side sequence dedup (reconnect replays).
  std::uint64_t duplicates_suppressed() const {
    return duplicates_suppressed_.load(std::memory_order_relaxed);
  }

 private:
  struct OutFrame {
    NodeId from, to;
    std::uint64_t seq;
    Buffer payload;
  };
  // One per destination process; owns the outbound socket and its writer.
  struct Connection {
    std::uint32_t process = 0;
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv_space;  // senders wait for queue room
    std::condition_variable cv_data;   // writer waits for frames
    std::deque<OutFrame> queue;        // guarded by mu
    std::uint64_t next_seq = 1;        // guarded by mu
    int fd = -1;                       // guarded by mu (writer/sever/stop)
    bool stop = false;                 // guarded by mu
  };
  struct Inbound {
    int fd = -1;
    std::thread reader;
  };

  std::uint32_t process_of(NodeId id) const;
  void send_remote(NodeId from, NodeId to, Buffer payload);
  Connection& connection_to(std::uint32_t process);
  void writer_loop(Connection& conn);
  void accept_loop();
  void reader_loop(Inbound& in);

  TcpConfig cfg_;
  std::vector<TcpPeer> peers_;

  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::thread accept_thread_;

  // Outbound connections, keyed by destination process. The map is
  // populated lazily under conns_mu_; Connection objects are stable once
  // created (unique_ptr) so senders hold only the per-connection lock.
  std::mutex conns_mu_;
  std::map<std::uint32_t, std::unique_ptr<Connection>> conns_;

  // Inbound connections (accepted sockets + their reader threads).
  std::mutex inbound_mu_;
  std::vector<std::unique_ptr<Inbound>> inbound_;

  // Receive-side dedup: highest (incarnation, seq) seen per source
  // process. Lives here (not on the connection) so it survives
  // reconnects; a HELLO carrying a higher incarnation (the peer process
  // was respawned after a crash and restarts its sequence space at 1)
  // resets that process's floor, while a stale lower incarnation is
  // rejected at handshake.
  std::mutex last_seq_mu_;
  std::map<std::uint32_t, std::pair<std::uint64_t, std::uint64_t>> last_seq_;

  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};

  // Declared last: its workers and hooks use everything above.
  LocalDispatch local_;
};

}  // namespace ddemos::net
