#include "net/tcp_net.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "net/tcp_frame.hpp"
#include "util/error.hpp"

namespace ddemos::net {

namespace {

// Redial backoff window (doubles from min to max per failed dial).
constexpr Duration kDialBackoffMinUs = 2'000;
constexpr Duration kDialBackoffMaxUs = 500'000;

}  // namespace

TcpNet::TcpNet(TcpConfig cfg)
    : cfg_(std::move(cfg)),
      local_("TcpNet", {[this](NodeId from, NodeId to, Buffer payload) {
                          send_remote(from, to, std::move(payload));
                        },
                        // Accept before on_start: a peer that started
                        // first may already be dialing, and its pre-start
                        // traffic must queue in mailboxes.
                        [this] {
                          accept_thread_ =
                              std::thread([this] { accept_loop(); });
                        }}) {
  listen_fd_ = tcp_listen(cfg_.listen_host, cfg_.listen_port, &listen_port_);
}

TcpNet::~TcpNet() {
  stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpNet::set_peers(std::vector<TcpPeer> peers) {
  if (local_.started()) {
    throw ProtocolError("TcpNet: set_peers after start");
  }
  peers_ = std::move(peers);
}

std::uint32_t TcpNet::process_of(NodeId id) const {
  if (id < cfg_.node_process.size()) return cfg_.node_process[id];
  return cfg_.default_process;
}

NodeId TcpNet::add_node(std::unique_ptr<Process> proc, std::string name) {
  // Remote placeholder unless the id maps here: the same build code path
  // runs in every process, so ids/names stay aligned; only the locally
  // hosted nodes are kept.
  if (process_of(static_cast<NodeId>(local_.node_count())) !=
      cfg_.self_process) {
    proc.reset();
  }
  return local_.add(std::move(proc), std::move(name));
}

NodeId TcpNet::add_remote(std::string name) {
  if (process_of(static_cast<NodeId>(local_.node_count())) ==
      cfg_.self_process) {
    throw ProtocolError("TcpNet: add_remote for a locally hosted id");
  }
  return local_.add(nullptr, std::move(name));
}

TcpNet::Connection& TcpNet::connection_to(std::uint32_t process) {
  std::scoped_lock lk(conns_mu_);
  auto it = conns_.find(process);
  if (it != conns_.end()) return *it->second;
  if (process >= peers_.size()) {
    throw ProtocolError("TcpNet: no peer address for process " +
                        std::to_string(process));
  }
  auto conn = std::make_unique<Connection>();
  conn->process = process;
  Connection& ref = *conn;
  conns_.emplace(process, std::move(conn));
  ref.writer = std::thread([this, &ref] { writer_loop(ref); });
  return ref;
}

void TcpNet::send_remote(NodeId from, NodeId to, Buffer payload) {
  const std::uint32_t process = process_of(to);
  if (process == cfg_.self_process) return;  // unregistered local id: drop
  Connection& conn = connection_to(process);
  std::unique_lock lk(conn.mu);
  if (conn.queue.size() >= cfg_.send_queue_frames) {
    // Backpressure: block briefly for space, then drop. Context::send is
    // documented unreliable; wedging a shard worker on a dead peer would
    // trade a resubmittable message for cluster liveness.
    conn.cv_space.wait_for(
        lk, std::chrono::microseconds(cfg_.send_block_us), [&] {
          return conn.stop || conn.queue.size() < cfg_.send_queue_frames;
        });
    if (conn.stop || conn.queue.size() >= cfg_.send_queue_frames) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  if (conn.stop) {
    frames_dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The sequence number is fixed at enqueue time and travels with the
  // frame through any number of resends, which is what makes reconnect
  // replays detectable at the receiver.
  conn.queue.push_back(OutFrame{from, to, conn.next_seq++, std::move(payload)});
  lk.unlock();
  conn.cv_data.notify_all();
}

void TcpNet::writer_loop(Connection& conn) {
  const TcpPeer peer = peers_.at(conn.process);
  Duration backoff = kDialBackoffMinUs;
  bool ever_connected = false;
  std::unique_lock lk(conn.mu);
  for (;;) {
    conn.cv_data.wait(lk, [&] { return conn.stop || !conn.queue.empty(); });
    if (conn.stop) break;
    if (conn.fd < 0) {
      lk.unlock();
      int fd = tcp_dial(peer.host, peer.port);
      if (fd >= 0) {
        // HELLO before any data: the receiver needs the source process for
        // sequence dedup and rejects cross-election connections outright.
        FrameHeader h;
        h.kind = FrameKind::kHello;
        h.from = cfg_.self_process;
        Bytes hello = HelloBody{kFrameVersion, cfg_.self_process,
                                cfg_.incarnation, cfg_.election_id}
                          .encode();
        if (!write_frame(fd, h, hello)) {
          ::close(fd);
          fd = -1;
        }
      }
      if (fd < 0) {
        // Exponential-backoff redial, sliced so stop() stays responsive.
        Duration slept = 0;
        while (slept < backoff && !local_.stopping()) {
          Duration slice = std::min<Duration>(backoff - slept, 10'000);
          std::this_thread::sleep_for(std::chrono::microseconds(slice));
          slept += slice;
        }
        backoff = std::min(backoff * 2, kDialBackoffMaxUs);
        lk.lock();
        continue;
      }
      if (ever_connected) reconnects_.fetch_add(1, std::memory_order_relaxed);
      ever_connected = true;
      backoff = kDialBackoffMinUs;
      lk.lock();
      if (conn.stop) {
        ::close(fd);
        break;
      }
      conn.fd = fd;
    }
    // Keep the in-flight frame at the head of the queue until the write
    // succeeds: a broken pipe redials and resends it (the receiver's seq
    // dedup absorbs the case where the peer already processed it).
    OutFrame frame = conn.queue.front();
    int fd = conn.fd;
    lk.unlock();
    FrameHeader h;
    h.kind = FrameKind::kData;
    h.from = frame.from;
    h.to = frame.to;
    h.seq = frame.seq;
    bool ok = write_frame(fd, h, frame.payload.view());
    lk.lock();
    if (ok) {
      if (!conn.queue.empty() && conn.queue.front().seq == frame.seq) {
        conn.queue.pop_front();
      }
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      conn.cv_space.notify_all();
      lk.lock();
    } else if (conn.fd == fd) {
      ::close(conn.fd);
      conn.fd = -1;
    }
  }
  if (conn.fd >= 0) {
    ::close(conn.fd);
    conn.fd = -1;
  }
}

void TcpNet::accept_loop() {
  while (!local_.stopping()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::scoped_lock lk(inbound_mu_);
    auto in = std::make_unique<Inbound>();
    in->fd = fd;
    Inbound& ref = *in;
    inbound_.push_back(std::move(in));
    ref.reader = std::thread([this, &ref] { reader_loop(ref); });
  }
}

void TcpNet::reader_loop(Inbound& in) {
  const int fd = in.fd;
  // The reader is the only closer of an inbound fd; sever/stop just
  // shutdown() it. Closing under inbound_mu_ keeps their fd>=0 checks
  // from racing a concurrent close + fd-number reuse.
  auto close_in = [&] {
    std::scoped_lock lk(inbound_mu_);
    ::close(fd);
    in.fd = -1;
  };
  // First frame must be a valid HELLO for this election.
  std::uint32_t peer_process = 0;
  std::uint64_t peer_incarnation = 0;
  {
    auto first = read_frame(fd);
    if (!first || first->first.kind != FrameKind::kHello) {
      close_in();
      return;
    }
    try {
      HelloBody hello = HelloBody::decode(first->second);
      if (hello.version != kFrameVersion ||
          hello.election_id != cfg_.election_id) {
        throw CodecError("tcp hello: wrong election/version");
      }
      peer_process = hello.process;
      peer_incarnation = hello.incarnation;
    } catch (const CodecError&) {
      close_in();
      return;
    }
    // A respawned peer restarts its sequence space at 1 under a higher
    // incarnation: reset its dedup floor so its fresh traffic is not
    // silently swallowed. A *lower* incarnation is a stale pre-crash
    // socket racing the respawn — refuse it outright.
    bool stale = false;
    {
      std::scoped_lock lk(last_seq_mu_);
      auto& [inc, last] = last_seq_[peer_process];
      if (peer_incarnation > inc) {
        inc = peer_incarnation;
        last = 0;
      } else if (peer_incarnation < inc) {
        stale = true;
      }
    }
    if (stale) {
      close_in();
      return;
    }
  }
  while (auto frame = read_frame(fd)) {
    if (frame->first.kind != FrameKind::kData) continue;
    {
      // Reconnect replay suppression: the per-source high-water mark lives
      // on the TcpNet (not the connection) so it survives redials.
      std::scoped_lock lk(last_seq_mu_);
      auto& [inc, last] = last_seq_[peer_process];
      if (inc != peer_incarnation) break;  // superseded by a respawn
      if (frame->first.seq <= last) {
        duplicates_suppressed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      last = frame->first.seq;
    }
    frames_received_.fetch_add(1, std::memory_order_relaxed);
    local_.deliver(frame->first.to, frame->first.from,
                   Buffer(std::move(frame->second)));
  }
  close_in();
}

void TcpNet::sever_connections() {
  {
    std::scoped_lock lk(conns_mu_);
    for (auto& [proc, conn] : conns_) {
      std::scoped_lock cl(conn->mu);
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }
  {
    std::scoped_lock lk(inbound_mu_);
    for (auto& in : inbound_) {
      if (in->fd >= 0) ::shutdown(in->fd, SHUT_RDWR);
    }
  }
}

void TcpNet::stop() {
  // 1. Shard workers: wake and join, so node state settles first.
  if (!local_.stop()) return;
  // 2. Outbound writers: flag, shut the socket under the write, wake, join.
  {
    std::scoped_lock lk(conns_mu_);
    for (auto& [proc, conn] : conns_) {
      {
        std::scoped_lock cl(conn->mu);
        conn->stop = true;
        if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
      }
      conn->cv_data.notify_all();
      conn->cv_space.notify_all();
    }
    for (auto& [proc, conn] : conns_) {
      if (conn->writer.joinable()) conn->writer.join();
    }
  }
  // 3. Accept loop (polls stopping() every 100ms), then inbound readers.
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::scoped_lock lk(inbound_mu_);
    for (auto& in : inbound_) {
      if (in->fd >= 0) ::shutdown(in->fd, SHUT_RDWR);
    }
  }
  // Readers remove themselves via read_frame() returning nullopt; the
  // vector itself is only mutated by the (joined) accept thread.
  for (auto& in : inbound_) {
    if (in->reader.joinable()) in->reader.join();
  }
}

}  // namespace ddemos::net
