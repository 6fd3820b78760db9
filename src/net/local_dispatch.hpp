// The local half of both real-clock hosts (net::ThreadNet, net::TcpNet):
// the Process state machines a host runs in this OS process, each on one
// worker thread per shard (plain Processes have a single shard), fed by
// lock-protected per-shard mailboxes of shared Buffer handles, with
// real-clock timers and a progress-notify completion wait. Delivery is
// shard-affine: the sender thread asks a ShardedProcess which shard owns
// the message (keyed off the serial in the message header for VC nodes),
// so handlers for distinct shards run genuinely in parallel while
// same-shard handlers stay serialized — no locks on the per-ballot hot
// path.
//
// Node ids are dense and shared by every process of a cluster; an id
// whose slot is empty is hosted elsewhere. Sends to such ids go to the
// host's remote send path (TcpNet's sockets); ThreadNet hosts every node
// here and has none.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/runtime.hpp"

namespace ddemos::net {

using sim::Duration;
using sim::NodeId;
using sim::Process;
using sim::TimePoint;

class LocalDispatch {
 public:
  // What a multi-process host adds around the local core. Both hooks are
  // optional and never run on the local delivery path.
  struct Remote {
    // Send path for every destination id not hosted here.
    std::function<void(NodeId from, NodeId to, Buffer payload)> send;
    // Runs once inside start(), after the clock epoch is set and before
    // any on_start (TcpNet starts accepting here, so a peer that started
    // first has its traffic queue in mailboxes).
    std::function<void()> on_start;
  };

  // `host` prefixes error messages ("ThreadNet", "TcpNet").
  explicit LocalDispatch(std::string host, Remote remote = {});
  ~LocalDispatch();  // stop()

  LocalDispatch(const LocalDispatch&) = delete;
  LocalDispatch& operator=(const LocalDispatch&) = delete;

  // Registers the next id. A null proc leaves the slot empty: a remote
  // placeholder that only carries the name.
  NodeId add(std::unique_ptr<Process> proc, std::string name);
  bool is_local(NodeId id) const { return id < nodes_.size() && nodes_[id]; }
  // Throws ProtocolError for an id hosted elsewhere.
  Process& process(NodeId id);
  const std::string& node_name(NodeId id) const { return names_.at(id); }
  std::size_t node_count() const { return names_.size(); }

  bool started() const { return started_.load(std::memory_order_acquire); }
  // True from the first stop() of a started core on: the remote half's
  // threads poll it to wind down.
  bool stopping() const { return stopped_.load(std::memory_order_acquire); }

  // Sets the clock epoch, runs Remote::on_start, delivers on_start to
  // every local node on the caller's thread (so no shard worker observes
  // a message before its node started), then spawns one worker per shard.
  // A no-op while running; throws ProtocolError after stop(), because a
  // second on_start would replay the protocol over finished state.
  void start();
  // Signals the shard workers and joins them. Returns whether this call
  // stopped a running core; later calls (and a stop before start) are
  // no-ops returning false.
  bool stop();

  // Wall-clock microseconds since start() plus the clock offset (just the
  // offset before start).
  TimePoint now() const;
  // A respawned process resumes the cluster's time base (election-end
  // timers are absolute offsets from start()). Call before start().
  void set_clock_offset(Duration offset_us) { clock_offset_us_ = offset_us; }

  // Starts the core if needed, then blocks on a condition variable that
  // every worker signals after each handler, re-evaluating `done` on each
  // wakeup — no sleep-and-poll. Requires a predicate (real-clock hosts
  // have no natural quiescence: trustees poll forever). Returns false if
  // the wall-clock budget elapses first. `done` reads node state while
  // workers still run; it must restrict itself to monotonic completion
  // flags (result_published, push_complete, has_receipt).
  bool run_to_quiescence(const std::function<bool()>& done,
                         const sim::RunOptions& options);
  // Wakes any run_to_quiescence waiter so it re-checks its predicate.
  void notify_progress();

  // Drops the payload into the owning shard's mailbox of local node `to`;
  // drops it if `to` is not hosted here.
  void deliver(NodeId to, NodeId from, Buffer payload);

  // Largest inbox depth each shard of `id` ever reached (index = shard;
  // empty for an id hosted elsewhere). Exact after stop(); a mid-run read
  // is only approximate.
  std::vector<std::size_t> shard_queue_high_water(NodeId id) const;
  // Handler invocations (messages + timers) across all workers. Exact
  // after stop(); a mid-run read is a consistent lower bound.
  std::uint64_t events_dispatched() const {
    return dispatched_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard;
  struct Node;  // also the node's sim::Context

  void send(NodeId from, NodeId to, Buffer payload);
  void worker_loop(Node& node, Shard& shard);

  const std::string host_;
  const Remote remote_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<Node>> nodes_;  // null = hosted elsewhere

  std::chrono::steady_clock::time_point epoch_;
  Duration clock_offset_us_ = 0;
  // Both flip once: started_ in start(), stopped_ in the first stop() of
  // a started core. Workers read stopped_ without holding a node lock.
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  // Number of run_to_quiescence waiters; workers skip the notify entirely
  // (no lock, no syscall) while it is zero, keeping the per-handler cost
  // of the completion-wait machinery off the hot path.
  std::atomic<int> progress_waiters_{0};
  std::atomic<std::uint64_t> dispatched_{0};
  std::mutex progress_mu_;
  std::condition_variable progress_cv_;
};

}  // namespace ddemos::net
