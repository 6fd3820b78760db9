#include "core/tcp_launcher.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "net/tcp_frame.hpp"
#include "util/error.hpp"
#include "util/proc_stats.hpp"

namespace ddemos::core {

using net::FrameHeader;
using net::FrameKind;

namespace {

// Budget for the spawn/handshake phase and for reaping children.
constexpr sim::Duration kLaunchTimeoutUs = 30'000'000;
// How often a node process reports status over the control socket.
constexpr sim::Duration kStatusIntervalUs = 20'000;

// Control-plane opcodes (first payload byte of a kControl frame).
enum CtrlOp : std::uint8_t {
  kCtrlHello = 1,   // child -> launcher: u32 process
  kCtrlConfig = 2,  // launcher -> child: TcpClusterSpec
  kCtrlReady = 3,   // child -> launcher: u16 data port
  kCtrlPeers = 4,   // launcher -> child: per-process (host, port) table
  kCtrlGo = 5,      // launcher -> child: u64 launcher election clock
  kCtrlStatus = 6,  // child -> launcher: u8 all-hosted-nodes-done
  kCtrlStop = 7,    // launcher -> child: stop, report, exit
  kCtrlReport = 8,  // child -> launcher: TcpProcessReport
};

bool send_ctrl(int fd, CtrlOp op, BytesView body = {}) {
  Bytes payload;
  payload.reserve(1 + body.size());
  payload.push_back(op);
  append(payload, body);
  FrameHeader h;
  h.kind = FrameKind::kControl;
  return net::write_frame(fd, h, payload);
}

// Blocks until one control frame arrives; empty on EOF/garbage.
std::optional<std::pair<std::uint8_t, Bytes>> read_ctrl(int fd) {
  auto frame = net::read_frame(fd);
  if (!frame || frame->first.kind != FrameKind::kControl ||
      frame->second.empty()) {
    return std::nullopt;
  }
  std::uint8_t op = frame->second.front();
  Bytes body(frame->second.begin() + 1, frame->second.end());
  return std::make_pair(op, std::move(body));
}

// Blocks for one control frame and decodes its body; empty on EOF, on any
// other opcode or on a malformed body.
template <typename Decode>
auto expect_ctrl(int fd, CtrlOp op, Decode decode)
    -> std::optional<decltype(decode(std::declval<Reader&>()))> {
  auto msg = read_ctrl(fd);
  if (!msg || msg->first != op) return std::nullopt;
  try {
    Reader r(msg->second);
    return decode(r);
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

// GO carries the launcher's election clock: 0 before its net starts, the
// live clock on a respawn. Every child resumes that time base, so absolute
// deadlines (t_end) mean the same thing in every process.
bool send_go(int fd, sim::TimePoint now) {
  Writer w;
  w.u64(static_cast<std::uint64_t>(now));
  return send_ctrl(fd, kCtrlGo, w.data());
}

bool wait_readable(int fd, sim::Duration timeout_us) {
  pollfd pfd{fd, POLLIN, 0};
  int ms = static_cast<int>(timeout_us / 1000);
  return ::poll(&pfd, 1, ms) > 0 && (pfd.revents & (POLLIN | POLLHUP));
}

// The NodeAccounting counters in wire order.
constexpr std::uint64_t NodeAccounting::*kAccountingCounters[] = {
    &NodeAccounting::events,      &NodeAccounting::allocations,
    &NodeAccounting::rss_kb,      &NodeAccounting::peak_rss_kb,
    &NodeAccounting::frames_sent, &NodeAccounting::frames_received,
    &NodeAccounting::reconnects,  &NodeAccounting::frames_dropped};

// Accounting for the OS process hosting `net`, allocations since
// alloc_base.
NodeAccounting sample_accounting(const net::TcpNet& net,
                                 std::uint64_t alloc_base) {
  return NodeAccounting{
      .name = {},
      .events = net.events_dispatched(),
      .allocations = net::Buffer::payload_allocations() - alloc_base,
      .rss_kb = util::current_rss_kb(),
      .peak_rss_kb = util::peak_rss_kb(),
      .frames_sent = net.frames_sent(),
      .frames_received = net.frames_received(),
      .reconnects = net.reconnects(),
      .frames_dropped = net.frames_dropped()};
}

// Rebuilds, from (params, seed), the nodes that node process `process`
// hosts, through the builder every backend uses; it opens (and replays)
// <wal_dir>/<name>.wal for each of them. The EA data lives only as long as
// the build: every node keeps its own copy.
ElectionTopology build_hosted_nodes(net::TcpNet& net,
                                    const TcpClusterSpec& spec,
                                    std::uint32_t process) {
  DriverConfig cfg;
  cfg.params = spec.params;
  cfg.seed = spec.seed;
  cfg.vc_options = spec.vc_options;
  cfg.trustee_options = spec.trustee_options;
  cfg.durability = spec.durability;
  if (!spec.collection_only) {
    return build_protocol_nodes(net, ea::ea_setup({spec.params, spec.seed}),
                                cfg);
  }
  // Streaming EA, keeping only this VC's per-ballot slice: a bench cluster
  // of P processes holds 1/P of the ballot universe each. The other VCs
  // are remote placeholders and get an empty source.
  const std::size_t my_vc = process - 1;
  std::vector<VcBallotInit> mine;
  ea::SetupArtifacts arts = ea::ea_setup_streaming(
      {spec.params, spec.seed, /*vc_only=*/true},
      [&](const Ballot&, std::span<VcBallotInit> per_vc) {
        mine.push_back(std::move(per_vc[my_vc]));
      });
  auto slice = std::make_shared<store::MemoryBallotSource>(std::move(mine));
  cfg.store_factory = [slice, my_vc](const VcInit& init)
      -> std::shared_ptr<store::BallotDataSource> {
    if (init.node_index == my_vc) return slice;
    return std::make_shared<store::MemoryBallotSource>(
        std::vector<VcBallotInit>{});
  };
  return build_protocol_nodes(net, arts, cfg);
}

}  // namespace

net::TcpConfig TcpClusterSpec::net_config(std::uint32_t self,
                                          const std::string& host) const {
  net::TcpConfig cfg;
  cfg.self_process = self;
  cfg.election_id = params.election_id;
  cfg.listen_host = host;
  // Fixed placement convention: process p hosts protocol node p-1; voters
  // and load clients live with the launcher (process 0).
  for (std::size_t id = 0; id < protocol_processes(); ++id) {
    cfg.node_process.push_back(static_cast<std::uint32_t>(id + 1));
  }
  cfg.default_process = 0;
  return cfg;
}

void TcpClusterSpec::encode(Writer& w) const {
  params.encode(w);
  w.u64(seed);
  w.boolean(vc_only);
  w.boolean(collection_only);
  w.varint(vc_options.n_shards);
  w.u64(static_cast<std::uint64_t>(trustee_options.poll_interval_us));
  w.str(durability.wal_dir);
  w.u8(static_cast<std::uint8_t>(durability.fsync));
  w.varint(durability.fsync_interval);
}

TcpClusterSpec TcpClusterSpec::decode(Reader& r) {
  TcpClusterSpec s;
  s.params = ElectionParams::decode(r);
  s.seed = r.u64();
  s.vc_only = r.boolean();
  s.collection_only = r.boolean();
  s.vc_options.n_shards = static_cast<std::size_t>(r.varint());
  s.trustee_options.poll_interval_us = static_cast<sim::Duration>(r.u64());
  s.durability.wal_dir = r.str();
  std::uint8_t fsync = r.u8();
  if (fsync > static_cast<std::uint8_t>(store::FsyncPolicy::kAlways)) {
    throw CodecError("TcpClusterSpec: unknown fsync policy");
  }
  s.durability.fsync = static_cast<store::FsyncPolicy>(fsync);
  s.durability.fsync_interval = static_cast<std::size_t>(r.varint());
  return s;
}

void TcpProcessReport::encode(Writer& w) const {
  w.u32(process);
  for (auto counter : kAccountingCounters) w.u64(this->*counter);
  w.vec(nodes, [](Writer& w2, const TcpNodeReport& n) { n.encode(w2); });
}

TcpProcessReport TcpProcessReport::decode(Reader& r) {
  TcpProcessReport p;
  p.process = r.u32();
  for (auto counter : kAccountingCounters) p.*counter = r.u64();
  p.nodes =
      r.vec<TcpNodeReport>([](Reader& r2) { return TcpNodeReport::decode(r2); });
  return p;
}

std::string TcpLauncher::default_node_binary() {
  if (const char* env = std::getenv("DDEMOS_NODE_BIN")) return env;
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "ddemos_node";
  buf[n] = '\0';
  std::string self(buf);
  std::size_t slash = self.rfind('/');
  if (slash == std::string::npos) return "ddemos_node";
  return self.substr(0, slash) + "/ddemos_node";
}

TcpClusterSpec TcpLauncher::spec_from(const DriverConfig& cfg) {
  TcpClusterSpec spec;
  spec.params = cfg.params;
  spec.seed = cfg.seed;
  spec.vc_options = cfg.vc_options;
  spec.trustee_options = cfg.trustee_options;
  spec.durability = cfg.durability;
  return spec;
}

TcpLauncher::TcpLauncher(TcpClusterSpec spec, Options opt)
    : spec_(std::move(spec)), opt_(std::move(opt)) {
  if (spec_.protocol_processes() == 0) {
    throw ProtocolError("TcpLauncher: empty cluster");
  }
  // A full cluster needs the EA's BB/trustee data, and a VC-only cluster
  // rebuilds from the streaming EA, which is vc_only by definition.
  if (spec_.vc_only != spec_.collection_only) {
    throw ProtocolError(
        "TcpLauncher: vc_only and collection_only must be set together");
  }
  net_ = std::make_unique<net::TcpNet>(spec_.net_config(0, opt_.host));
  for (std::size_t p = 0; p < spec_.protocol_processes(); ++p) {
    children_.push_back(std::make_unique<Child>());
  }
}

TcpLauncher::~TcpLauncher() {
  try {
    stop_cluster();
  } catch (...) {
    for (auto& child : children_) {
      if (child->pid > 0) ::kill(child->pid, SIGKILL);
    }
  }
}

void TcpLauncher::launch() {
  if (launched_) return;
  if (control_listen_fd_ < 0) {
    control_listen_fd_ = net::tcp_listen(opt_.host, 0, &control_port_);
  }
  std::vector<std::size_t> all(children_.size());
  std::iota(all.begin(), all.end(), std::size_t{1});
  spawn(all, 1);
  net_->set_peers(peer_table());
  launched_ = true;
}

std::vector<net::TcpPeer> TcpLauncher::peer_table() const {
  std::vector<net::TcpPeer> peers{{opt_.host, net_->listen_port()}};
  for (auto& child : children_) peers.push_back({opt_.host, child->data_port});
  return peers;
}

void TcpLauncher::spawn(const std::vector<std::size_t>& procs,
                        std::uint64_t incarnation) {
  const std::string binary =
      opt_.node_binary.empty() ? default_node_binary() : opt_.node_binary;
  const std::string port_s = std::to_string(control_port_);
  const std::string inc_s = std::to_string(incarnation);
  auto fail = [&](const std::string& what) {
    for (std::size_t p : procs) {
      Child& c = *children_[p - 1];
      if (c.pid > 0) {
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, nullptr, 0);
        c.pid = -1;
      }
      if (c.control_fd >= 0) {
        ::close(c.control_fd);
        c.control_fd = -1;
      }
    }
    throw ProtocolError("TcpLauncher: " + what);
  };

  // Fork the whole set before the first HELLO, so the children rebuild
  // their EA slices in parallel.
  for (std::size_t p : procs) {
    Child& c = *children_[p - 1];
    std::string proc_s = std::to_string(p);
    std::string data_s = std::to_string(c.data_port);
    pid_t pid = ::fork();
    if (pid < 0) fail("fork failed");
    if (pid == 0) {
      ::execl(binary.c_str(), binary.c_str(), "--serve", opt_.host.c_str(),
              port_s.c_str(), proc_s.c_str(), data_s.c_str(), inc_s.c_str(),
              static_cast<char*>(nullptr));
      // exec failed (missing binary): nothing sane to do in the child.
      std::fprintf(stderr, "ddemos_node exec failed: %s\n", binary.c_str());
      ::_exit(127);
    }
    c.pid = pid;
    c.incarnation = incarnation;
    c.done.store(false, std::memory_order_release);
    c.reported.store(false, std::memory_order_release);
  }

  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(kLaunchTimeoutUs);
  auto remaining_us = [&]() -> sim::Duration {
    auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    return left > 0 ? left : 0;
  };
  // HELLO names the process that dialed in (children race, order is
  // arbitrary). Only children of this set dial the control port now.
  for (std::size_t i = 0; i < procs.size(); ++i) {
    if (!wait_readable(control_listen_fd_, remaining_us())) {
      fail("timed out waiting for HELLO (binary: " + binary + ")");
    }
    int fd = ::accept(control_listen_fd_, nullptr, nullptr);
    if (fd < 0) fail("accept failed on the control socket");
    std::size_t proc =
        expect_ctrl(fd, kCtrlHello, [](Reader& r) { return r.u32(); })
            .value_or(0);
    if (std::find(procs.begin(), procs.end(), proc) == procs.end() ||
        children_[proc - 1]->control_fd >= 0) {
      ::close(fd);
      fail("bad HELLO (process " + std::to_string(proc) + ")");
    }
    children_[proc - 1]->control_fd = fd;
  }

  // CONFIG: every child deterministically recomputes its own node's EA
  // data from (params, seed) — no artifacts on the wire.
  Writer config;
  spec_.encode(config);
  for (std::size_t p : procs) {
    if (!send_ctrl(children_[p - 1]->control_fd, kCtrlConfig, config.data())) {
      fail("failed to send CONFIG to process " + std::to_string(p));
    }
  }

  // READY follows the node rebuild (and any WAL replay), so it gets the
  // rest of the launch budget. A child on a remembered port must have
  // rebound it: peers never receive a second peer table.
  for (std::size_t p : procs) {
    Child& c = *children_[p - 1];
    std::optional<std::uint16_t> port;
    if (wait_readable(c.control_fd, remaining_us())) {
      port = expect_ctrl(c.control_fd, kCtrlReady,
                         [](Reader& r) { return r.u16(); });
    }
    if (!port) fail("no READY from process " + std::to_string(p));
    if (c.data_port != 0 && *port != c.data_port) {
      fail("process " + std::to_string(p) + " bound port " +
           std::to_string(*port) + ", expected " +
           std::to_string(c.data_port));
    }
    c.data_port = *port;
  }

  Writer peers;
  peers.vec(peer_table(), [](Writer& w, const net::TcpPeer& peer) {
    w.str(peer.host);
    w.u16(peer.port);
  });
  for (std::size_t p : procs) {
    if (!send_ctrl(children_[p - 1]->control_fd, kCtrlPeers, peers.data())) {
      fail("failed to send PEERS to process " + std::to_string(p));
    }
  }

  // From here on a dedicated thread per child consumes STATUS/REPORT
  // frames; a read error or EOF marks the process dead (fault cells
  // SIGKILL children mid-election, which must not wedge completion).
  for (std::size_t p : procs) {
    Child* c = children_[p - 1].get();
    c->alive.store(true, std::memory_order_release);
    c->reader = std::thread([this, c] { control_reader(*c); });
  }
}

void TcpLauncher::control_reader(Child& child) {
  while (auto msg = read_ctrl(child.control_fd)) {
    if (msg->first == kCtrlStatus && !msg->second.empty()) {
      child.done.store(msg->second.front() != 0, std::memory_order_release);
      net_->notify_external();
    } else if (msg->first == kCtrlReport) {
      try {
        Reader r(msg->second);
        child.report = TcpProcessReport::decode(r);
        child.reported.store(true, std::memory_order_release);
      } catch (const CodecError&) {
        break;
      }
    }
  }
  child.alive.store(false, std::memory_order_release);
  net_->notify_external();
}

void TcpLauncher::go() {
  if (!launched_) throw ProtocolError("TcpLauncher: go() before launch()");
  for (auto& child : children_) {
    if (child->alive.load(std::memory_order_acquire)) {
      send_go(child->control_fd, net_->now());
    }
  }
  net_->start();
  if (opt_.fault && opt_.fault_after_us > 0) {
    fault_thread_ = std::thread([this] {
      sim::Duration slept = 0;
      while (slept < opt_.fault_after_us &&
             !stopping_.load(std::memory_order_acquire)) {
        sim::Duration slice =
            std::min<sim::Duration>(opt_.fault_after_us - slept, 10'000);
        std::this_thread::sleep_for(std::chrono::microseconds(slice));
        slept += slice;
      }
      if (!stopping_.load(std::memory_order_acquire)) opt_.fault(*this);
    });
  }
}

bool TcpLauncher::process_alive(std::size_t process) const {
  if (process == 0) return true;
  if (process > children_.size()) return false;
  return children_[process - 1]->alive.load(std::memory_order_acquire);
}

bool TcpLauncher::remote_complete() const {
  for (auto& child : children_) {
    if (!child->alive.load(std::memory_order_acquire)) continue;
    if (!child->done.load(std::memory_order_acquire)) return false;
  }
  return true;
}

void TcpLauncher::kill_process(std::size_t process) {
  if (process == 0 || process > children_.size()) {
    throw ProtocolError("TcpLauncher: cannot kill process " +
                        std::to_string(process));
  }
  Child& child = *children_[process - 1];
  if (child.pid > 0) ::kill(child.pid, SIGKILL);
}

void TcpLauncher::respawn_process(std::size_t process) {
  if (!launched_) {
    throw ProtocolError("TcpLauncher: respawn_process() before launch()");
  }
  if (process == 0 || process > children_.size()) {
    throw ProtocolError("TcpLauncher: cannot respawn process " +
                        std::to_string(process));
  }
  Child& child = *children_[process - 1];
  if (child.alive.load(std::memory_order_acquire)) {
    throw ProtocolError("TcpLauncher: process " + std::to_string(process) +
                        " is still alive");
  }
  // Retire the dead incarnation: its control reader exits on EOF (alive is
  // already false), so joining here cannot block on a live connection.
  if (child.reader.joinable()) child.reader.join();
  if (child.control_fd >= 0) {
    ::close(child.control_fd);
    child.control_fd = -1;
  }
  if (child.pid > 0) {
    ::waitpid(child.pid, nullptr, 0);
    child.pid = -1;
  }
  spawn({process}, child.incarnation + 1);
  if (!send_go(child.control_fd, net_->now())) {
    throw ProtocolError("TcpLauncher: failed to send GO to process " +
                        std::to_string(process));
  }
}

void TcpLauncher::reap_children() {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(kLaunchTimeoutUs);
  for (auto& child : children_) {
    if (child->pid <= 0) continue;
    for (;;) {
      int status = 0;
      pid_t got = ::waitpid(child->pid, &status, WNOHANG);
      if (got == child->pid || (got < 0 && errno == ECHILD)) break;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::kill(child->pid, SIGKILL);
        ::waitpid(child->pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    child->pid = -1;
  }
}

std::vector<TcpProcessReport> TcpLauncher::stop_cluster() {
  if (!stopped_) {
    stopped_ = true;
    stopping_.store(true, std::memory_order_release);
    if (fault_thread_.joinable()) fault_thread_.join();
    for (auto& child : children_) {
      if (child->alive.load(std::memory_order_acquire)) {
        send_ctrl(child->control_fd, kCtrlStop);
      }
    }
    // Children stop their nets, ship a REPORT and exit; the control readers
    // capture the report and observe EOF. Bounded wait, then force-reap.
    auto unreported = [](const Child& c) {
      return c.alive.load(std::memory_order_acquire) &&
             !c.reported.load(std::memory_order_acquire);
    };
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::microseconds(kLaunchTimeoutUs);
    while (std::any_of(children_.begin(), children_.end(),
                       [&](auto& c) { return unreported(*c); }) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (auto& child : children_) {
      // A wedged child: SIGKILL, whose EOF unblocks its reader.
      if (child->pid > 0 && unreported(*child)) ::kill(child->pid, SIGKILL);
    }
    reap_children();
    for (auto& child : children_) {
      if (child->reader.joinable()) child->reader.join();
      if (child->control_fd >= 0) {
        ::close(child->control_fd);
        child->control_fd = -1;
      }
    }
    if (control_listen_fd_ >= 0) {
      ::close(control_listen_fd_);
      control_listen_fd_ = -1;
    }
    net_->stop();
  }
  std::vector<TcpProcessReport> reports;
  for (auto& child : children_) {
    if (child->reported.load(std::memory_order_acquire)) {
      reports.push_back(child->report);
    }
  }
  return reports;
}

ElectionReport TcpLauncher::run_election(const DriverConfig& cfg) {
  auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t alloc_base = net::Buffer::payload_allocations();

  launch();
  std::shared_ptr<const ea::SetupArtifacts> artifacts = cfg.artifacts;
  if (!artifacts) {
    artifacts = std::make_shared<const ea::SetupArtifacts>(
        ea::ea_setup({spec_.params, spec_.seed, spec_.vc_only}));
  }
  // The identical build code path as the other backends: the protocol-node
  // prefix turns into remote placeholders here (each node process keeps
  // its own), the client half is hosted locally.
  ElectionTopology topo = build_election(*net_, *artifacts, cfg);
  ClosedLoopClient* client = nullptr;
  if (topo.load_client_id != sim::kNoNode) {
    client =
        &dynamic_cast<ClosedLoopClient&>(net_->process(topo.load_client_id));
  }
  go();

  sim::RunOptions opts;
  opts.wall_timeout_us = cfg.wall_timeout_us;
  bool done_in_budget = net_->run_to_quiescence(
      [&] { return remote_complete() && (!client || client->done()); }, opts);
  std::vector<TcpProcessReport> reports = stop_cluster();

  // --- merge the per-process harvests into one ElectionReport ------------
  // Children time-stamp against their own epoch (microseconds since their
  // net start); GO lands within control-RTT of the launcher's epoch on
  // loopback, so the merged phase timeline is aligned to ~ms.
  std::vector<TcpNodeReport> rows;
  for (const TcpProcessReport& rep : reports) {
    rows.insert(rows.end(), rep.nodes.begin(), rep.nodes.end());
  }
  ElectionReport r =
      merge_node_reports(spec_.params, spec_.vc_options.n_shards, rows);
  r.completed = r.completed && done_in_budget;
  harvest_clients(*net_, topo, spec_.params.m(), r);

  // One row per OS process, launcher first, then every node process in
  // index order. A process that never reported (killed by a fault cell)
  // keeps a zeroed row — structural completeness beats silent omission.
  r.process_accounting.assign(spec_.protocol_processes() + 1,
                              NodeAccounting{});
  r.process_accounting[0] = sample_accounting(*net_, alloc_base);
  for (const TcpProcessReport& rep : reports) {
    if (rep.process >= 1 && rep.process < r.process_accounting.size()) {
      r.process_accounting[rep.process] = rep;  // the NodeAccounting part
    }
    r.events_processed += rep.events;
  }
  r.process_accounting[0].name = "launcher";
  for (std::size_t proc = 1; proc < r.process_accounting.size(); ++proc) {
    r.process_accounting[proc].name =
        net_->node_name(static_cast<sim::NodeId>(proc - 1));
  }
  r.events_processed += net_->events_dispatched();
  r.payload_allocations = net::Buffer::payload_allocations() - alloc_base;
  r.peak_rss_kb = util::peak_rss_kb();
  r.wall_seconds = std::chrono::duration_cast<std::chrono::duration<double>>(
                       std::chrono::steady_clock::now() - wall_start)
                       .count();
  return r;
}

// ---------------------------------------------------------------------
// Node-process side.

int serve_tcp_node(const std::string& host, std::uint16_t port,
                   std::uint32_t process, std::uint16_t data_port,
                   std::uint64_t incarnation) {
#ifdef __linux__
  // Die with the launcher: an orphaned node process must never outlive the
  // test/bench that spawned it. Linux arms the death signal against the
  // *thread* that forked us, so only the initial spawn (forked from the
  // launcher's long-lived calling thread) can use it; a respawn is forked
  // from the transient fault-hook thread, whose exit would instantly kill
  // the child. Respawns fall back to the control-socket orphan guard: the
  // status loop polls the connection every ~20ms and exits on EOF.
  if (incarnation == 1) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() == 1) return 3;  // launcher already gone
  }
#endif
  int ctrl = -1;
  for (int attempt = 0; attempt < 50 && ctrl < 0; ++attempt) {
    ctrl = net::tcp_dial(host, port);
    if (ctrl < 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (ctrl < 0) return 2;
  {
    Writer w;
    w.u32(process);
    if (!send_ctrl(ctrl, kCtrlHello, w.data())) return 2;
  }
  std::optional<TcpClusterSpec> config = expect_ctrl(
      ctrl, kCtrlConfig, [](Reader& r) { return TcpClusterSpec::decode(r); });
  if (!config || process < 1 || process > config->protocol_processes()) {
    return 2;
  }
  const TcpClusterSpec& spec = *config;
  net::TcpConfig ncfg = spec.net_config(process, host);
  ncfg.listen_port = data_port;
  ncfg.incarnation = incarnation;
  net::TcpNet node_net(std::move(ncfg));

  // Typed handles to the hosted nodes feed the status loop.
  ElectionTopology topo = build_hosted_nodes(node_net, spec, process);
  auto hosted = [&](sim::NodeId id) { return node_net.is_local(id); };
  std::vector<const vc::VcNode*> vcs;
  std::vector<const bb::BbNode*> bbs;
  for (sim::NodeId id : topo.vc_ids) {
    if (hosted(id)) {
      vcs.push_back(&dynamic_cast<vc::VcNode&>(node_net.process(id)));
    }
  }
  for (sim::NodeId id : topo.bb_ids) {
    if (hosted(id)) {
      bbs.push_back(&dynamic_cast<bb::BbNode&>(node_net.process(id)));
    }
  }

  {
    Writer w;
    w.u16(node_net.listen_port());
    if (!send_ctrl(ctrl, kCtrlReady, w.data())) return 2;
  }
  auto peers = expect_ctrl(ctrl, kCtrlPeers, [](Reader& r) {
    return r.vec<net::TcpPeer>([](Reader& r2) {
      net::TcpPeer peer;
      peer.host = r2.str();
      peer.port = r2.u16();
      return peer;
    });
  });
  if (!peers) return 2;
  node_net.set_peers(std::move(*peers));
  auto clock = expect_ctrl(ctrl, kCtrlGo, [](Reader& r) { return r.u64(); });
  if (!clock) return 2;
  node_net.set_clock_offset(static_cast<sim::Duration>(*clock));

  std::uint64_t alloc_base = net::Buffer::payload_allocations();
  node_net.start();

  // Status loop: report done-ness every kStatusIntervalUs, stop on C_STOP
  // (or on control EOF: the launcher died, so quit rather than linger).
  bool launcher_alive = true;
  for (;;) {
    if (wait_readable(ctrl, kStatusIntervalUs)) {
      auto msg = read_ctrl(ctrl);
      if (!msg) {
        launcher_alive = false;
        break;
      }
      if (msg->first == kCtrlStop) break;
      continue;
    }
    bool done = true;
    for (const vc::VcNode* vc : vcs) done = done && vc->push_complete();
    for (const bb::BbNode* bb : bbs) done = done && bb->result_published();
    Writer w;
    w.u8(done ? 1 : 0);
    if (!send_ctrl(ctrl, kCtrlStatus, w.data())) {
      launcher_alive = false;
      break;
    }
  }
  node_net.stop();
  if (!launcher_alive) {
    ::close(ctrl);
    return 1;
  }

  // The same rows the in-process driver merges.
  TcpProcessReport report{sample_accounting(node_net, alloc_base), process,
                          harvest_nodes(node_net, topo, hosted)};
  {
    Writer w;
    report.encode(w);
    send_ctrl(ctrl, kCtrlReport, w.data());
  }
  ::close(ctrl);
  return 0;
}

}  // namespace ddemos::core
