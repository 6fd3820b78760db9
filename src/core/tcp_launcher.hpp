// Multi-process cluster orchestration for the TcpNet backend. The launcher
// (process 0) forks one `ddemos_node --serve` process per protocol node,
// drives it over a control TCP connection, and hosts the election's client
// half (voters / load generator) itself, so a whole multi-process election
// runs out of one DriverConfig exactly like the other two backends:
//
//   spawn children -> C_HELLO -> C_CONFIG(spec) -> children build their
//   node from the seed -> C_READY(data port) -> C_PEERS(port table) ->
//   C_GO(launcher clock) -> election runs over TcpNet data sockets,
//   children stream C_STATUS -> C_STOP -> C_REPORT(per-node stats +
//   accounting) -> exit. A crash-recovery respawn runs the same spawn path
//   for one process.
//
// Nothing heavy ships over the control socket: every process recomputes
// the EA's deterministic setup from (params, seed), so a node process
// holds exactly its own node's initialization data (the launcher holds the
// voter ballots). The collected TcpProcessReports merge into the same
// core::ElectionReport the other backends produce, with one NodeAccounting
// row per OS process.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/driver.hpp"
#include "net/tcp_net.hpp"

namespace ddemos::core {

// Everything a node process needs to deterministically rebuild its slice
// of the election. Process placement is by fixed convention: process p in
// [1 .. protocol_processes()] hosts protocol node id p-1 over the
// [VCs | BBs | trustees] prefix; the launcher (process 0) hosts the rest.
struct TcpClusterSpec {
  ElectionParams params;
  std::uint64_t seed = 1;
  // EA mode (no BB/trustee crypto payload) and cluster shape (VC processes
  // only, each rebuilding just its own ballot slice): bench clusters set
  // both, full elections neither; TcpLauncher rejects a mix.
  bool vc_only = false;
  bool collection_only = false;
  vc::VcNode::Options vc_options;  // n_shards: worker shards per VC node
  trustee::TrusteeNode::Options trustee_options;
  // Durability knob, shipped to every node process: each one opens (and on
  // a respawn, replays) <wal_dir>/<node name>.wal for the nodes it hosts.
  DurabilityConfig durability;

  std::size_t protocol_processes() const {
    return collection_only ? params.n_vc
                           : params.n_vc + params.n_bb + params.n_trustees;
  }
  // The TcpNet config of process `self` under the placement convention.
  net::TcpConfig net_config(std::uint32_t self, const std::string& host) const;

  void encode(Writer& w) const;
  // Throws CodecError on truncated input or an unknown fsync policy.
  static TcpClusterSpec decode(Reader& r);
};

// One node process's harvest: its NodeAccounting counters (the name stays
// off the wire; the launcher names rows itself) plus its hosted nodes.
struct TcpProcessReport : NodeAccounting {
  std::uint32_t process = 0;
  std::vector<TcpNodeReport> nodes;

  void encode(Writer& w) const;
  static TcpProcessReport decode(Reader& r);
};

class TcpLauncher {
 public:
  struct Options {
    Options() {}
    // Path of the node binary; "" = ddemos_node next to /proc/self/exe
    // (overridable via the DDEMOS_NODE_BIN environment variable).
    std::string node_binary;
    std::string host = "127.0.0.1";
    // Fault hook for the fault matrix: invoked once, fault_after_us after
    // go(), from a helper thread (kill_process, sever_connections, ...).
    std::function<void(TcpLauncher&)> fault;
    sim::Duration fault_after_us = 0;
  };

  // Throws ProtocolError on an empty cluster or when spec.vc_only and
  // spec.collection_only differ.
  TcpLauncher(TcpClusterSpec spec, Options opt = {});
  ~TcpLauncher();  // best-effort: C_STOP + SIGKILL anything still alive

  TcpLauncher(const TcpLauncher&) = delete;
  TcpLauncher& operator=(const TcpLauncher&) = delete;

  const TcpClusterSpec& spec() const { return spec_; }
  // The launcher-side TcpNet (process 0). Valid from construction; node
  // placeholders/clients are registered by run_election, or by the caller
  // between launch() and go() for custom clusters.
  net::TcpNet& net() { return *net_; }

  // Spawns the node processes and completes the handshake through C_PEERS.
  // Throws ProtocolError if any child fails to come up in time.
  void launch();
  // C_GO to every child + net().start(); arms the fault hook if set.
  void go();

  std::size_t process_count() const { return spec_.protocol_processes() + 1; }
  bool process_alive(std::size_t process) const;
  // Every *live* protocol process reports done (VC: push complete, BB:
  // result published, trustees: unconditional). False while any live one
  // is still working; a killed process never blocks completion.
  bool remote_complete() const;
  // SIGKILL a node process (fault injection). The control connection's
  // EOF marks it dead; remote_complete() then skips it.
  void kill_process(std::size_t process);
  // Crash recovery: start a fresh `ddemos_node --serve` for a killed
  // process through the same spawn path as launch(), at the next
  // incarnation (receivers reset their dedup floor) and on the process's
  // original data port (peers keep dialing the address from the one peer
  // table they ever received), then GO with the live election clock. With
  // spec().durability set, the child replays its nodes' WALs while
  // rebuilding and rejoins mid-election; the new incarnation reports real
  // counters at stop_cluster (no zeroed row). Throws ProtocolError if the
  // process is still alive or the handshake fails.
  void respawn_process(std::size_t process);

  // C_STOP to every live child, collect C_REPORTs, reap children (SIGKILL
  // past the timeout), stop the local net. Idempotent; returns the reports
  // of every process that delivered one, ordered by process index.
  std::vector<TcpProcessReport> stop_cluster();

  // Full election from a DriverConfig: launch + build the client half
  // locally + go + completion wait + report merge. The cfg must describe
  // the same election as the spec (spec_from is the intended source).
  ElectionReport run_election(const DriverConfig& cfg);

  // Spec for a full multi-process election (every VC/BB/trustee its own
  // process) matching `cfg`.
  static TcpClusterSpec spec_from(const DriverConfig& cfg);
  // "<dir of /proc/self/exe>/ddemos_node", or $DDEMOS_NODE_BIN.
  static std::string default_node_binary();

 private:
  struct Child {
    pid_t pid = -1;
    int control_fd = -1;
    std::thread reader;
    std::atomic<bool> alive{false};
    std::atomic<bool> done{false};
    std::atomic<bool> reported{false};
    TcpProcessReport report;
    // The data port this process keeps across incarnations (0 until its
    // first READY) and the incarnation of the currently running one.
    std::uint16_t data_port = 0;
    std::uint64_t incarnation = 1;
  };

  // Forks one child per process in `procs` at `incarnation` (each on its
  // remembered data port, 0 = OS-assigned), then runs HELLO, CONFIG, READY
  // and PEERS over the whole set. On failure it kills and reaps every
  // child it started and throws ProtocolError.
  void spawn(const std::vector<std::size_t>& procs, std::uint64_t incarnation);
  std::vector<net::TcpPeer> peer_table() const;
  void control_reader(Child& child);
  void reap_children();

  TcpClusterSpec spec_;
  Options opt_;
  std::unique_ptr<net::TcpNet> net_;
  int control_listen_fd_ = -1;
  std::uint16_t control_port_ = 0;
  std::vector<std::unique_ptr<Child>> children_;  // index = process - 1
  std::thread fault_thread_;
  std::atomic<bool> stopping_{false};
  bool launched_ = false;
  bool stopped_ = false;
};

// Node-process entry point (ddemos_node --serve): connect to the control
// socket, rebuild the assigned node from the received spec, run until
// C_STOP, ship the report. Returns a process exit code.
//
// The child binds data_port (0 = OS-assigned; a respawn passes the port
// its predecessor held) and announces `incarnation` in every HELLO. The
// clock offset rides the GO body instead of argv, so it is captured after
// the potentially slow node rebuild.
int serve_tcp_node(const std::string& host, std::uint16_t port,
                   std::uint32_t process, std::uint16_t data_port,
                   std::uint64_t incarnation);

}  // namespace ddemos::core
