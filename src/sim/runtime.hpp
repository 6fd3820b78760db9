// Runtime-neutral process model. Protocol code (VC nodes, BB nodes,
// trustees, voters) is written as event-driven state machines against these
// interfaces and can be hosted by the deterministic discrete-event
// simulator (sim/sim.hpp) or by one of the two real-clock hosts, which
// share one local-dispatch core (net/local_dispatch.hpp): the in-process
// multi-threaded transport (net/thread_net.hpp) and the multi-process
// socket transport (net/tcp_net.hpp). This mirrors the paper's
// asynchronous communications stack: connection semantics are hidden, the
// upper layers are message oriented.
//
// Messages travel as net::Buffer handles: the payload is allocated once at
// the sender (usually by Writer::take() via the implicit Bytes -> Buffer
// conversion) and shared by reference count through queues, multicasts and
// duplicate deliveries. Handlers read it through a BytesView and must copy
// any bytes they want to keep beyond the handler invocation only if they
// drop the Buffer handle itself.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/buffer.hpp"
#include "util/bytes.hpp"

namespace ddemos::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = 0xffffffff;

// Virtual (or real) time in microseconds.
using TimePoint = std::int64_t;
using Duration = std::int64_t;

class Context {
 public:
  virtual ~Context() = default;
  // Asynchronous, unordered, unreliable message send (delivery semantics
  // depend on the hosting runtime's link model). The Buffer handle is
  // cheap to copy: multicast loops send the same Buffer to every
  // recipient and pay for the payload allocation exactly once.
  virtual void send(NodeId to, net::Buffer payload) = 0;
  // Reliable loopback to this node itself. Unlike send(self(), ...) this
  // never traverses a link model — no loss, duplication, jitter or modeled
  // latency — because it represents intra-node coordination (e.g. the VC
  // shard fan-in barrier), not network traffic. Shard routing still
  // applies: a ShardedProcess receives it on whatever shard its shard_of
  // maps the payload to.
  virtual void send_self(net::Buffer payload) { send(self(), std::move(payload)); }
  // One-shot timer; returns a token passed back to Process::on_timer.
  // For a ShardedProcess, timers always fire on shard 0 (the control
  // shard) regardless of which shard armed them.
  virtual std::uint64_t set_timer(Duration after) = 0;
  virtual TimePoint now() const = 0;
  virtual NodeId self() const = 0;
  // Account `cpu` microseconds of modeled processing cost to this node.
  // The simulator serializes a node's handlers behind this busy time (per
  // shard for a ShardedProcess); the real-clock hosts ignore it (real
  // CPU time is real there).
  virtual void charge(Duration cpu) = 0;
};

class Process {
 public:
  virtual ~Process() = default;
  void bind(Context* ctx) { ctx_ = ctx; }

  virtual void on_start() {}
  virtual void on_message(NodeId from, const net::Buffer& payload) = 0;
  virtual void on_timer(std::uint64_t /*token*/) {}

 protected:
  Context& ctx() { return *ctx_; }
  const Context& ctx() const { return *ctx_; }

 private:
  Context* ctx_ = nullptr;
};

// A Process whose message handling is partitioned into independent shards.
// Every runtime gives each shard its own serial execution context: the
// simulator models one virtual processor per shard (per-shard busy time),
// and the real-clock hosts run one worker thread per shard with its own
// mailbox.
// Shard-affine dispatch is the concurrency contract: two messages that map
// to the same shard never run concurrently, messages on different shards
// may — so a handler may freely mutate state owned by its shard and must
// synchronize (or message) for anything else.
//
// Rules the runtimes rely on:
//  * shard_of is called from *sender* threads on the real-clock hosts
//    (and from TcpNet's socket reader threads), before the
//    receiving handler runs: it must be thread-safe, must not block, must
//    not touch mutable process state, and must not throw (return 0 for
//    anything unroutable — shard 0 is the control shard).
//  * on_start and all timers run on shard 0.
class ShardedProcess : public Process {
 public:
  // Number of shards; fixed for the life of the process, >= 1.
  virtual std::size_t shard_count() const = 0;
  // Maps an inbound message to the shard that must handle it.
  virtual std::size_t shard_of(NodeId from,
                               const net::Buffer& payload) const = 0;
};

// Real-clock backends (ThreadNet, TcpNet) arm timers against
// steady_clock. Far-future timers (vote-collection benches set election
// end to "never") would overflow the clock's nanosecond epoch, and a
// negative delay has no meaning on a clock that cannot rewind — so every
// real-clock timer delay passes through this shared clamp: floor at zero,
// cap at 30 days (which is "never" for any wall-clock run).
inline constexpr Duration kMaxRealTimerDelay = 30ll * 24 * 3600 * 1'000'000;
constexpr Duration clamp_real_timer_delay(Duration after) {
  if (after < 0) return 0;
  return after < kMaxRealTimerDelay ? after : kMaxRealTimerDelay;
}

// Options for RuntimeHost::run_to_quiescence. One struct serves every
// backend; each consumes the knobs that apply to it.
struct RunOptions {
  // Simulator: maximum events processed before the run is declared stuck
  // (throws ProtocolError carrying the processed count and virtual time).
  std::size_t max_events = 50'000'000;
  // Real-clock hosts (ThreadNet, TcpNet): wall-clock cap on the
  // completion wait.
  Duration wall_timeout_us = 60'000'000;
  // Progress hook for phase observation: the simulator invokes it every
  // `probe_interval` events and at quiescence; the real-clock hosts invoke
  // it each time a worker signals progress. Never part of the completion
  // decision.
  std::function<void()> probe;
  std::size_t probe_interval = 1024;
};

// Common node-hosting surface implemented by every runtime
// (sim::Simulation, net::ThreadNet, net::TcpNet). Election builders and
// tests are written against this interface so the exact same protocol
// topology can be hosted on any backend without parallel code paths;
// runtime-specific concerns (link models, crash injection, virtual-time
// stepping, sockets) stay on the concrete classes.
class RuntimeHost {
 public:
  virtual ~RuntimeHost() = default;
  virtual NodeId add_node(std::unique_ptr<Process> proc, std::string name) = 0;
  virtual Process& process(NodeId id) = 0;
  virtual const std::string& node_name(NodeId id) const = 0;
  virtual std::size_t node_count() const = 0;
  // Delivers on_start to all nodes (and, on the real-clock hosts, spawns
  // workers; they refuse a start after stop()).
  virtual void start() = 0;
  // Quiesces the backend: the real-clock hosts signal and join their
  // threads (safe to call repeatedly); the simulator needs no teardown.
  virtual void stop() {}
  // Current time: virtual microseconds on the simulator, wall-clock
  // microseconds since start() on the real-clock hosts.
  virtual TimePoint now() const = 0;
  // Completion wait, replacing both bare run_until_idle calls and
  // sleep-and-poll loops. Starts the backend if needed, then runs until
  // `done()` holds — the simulator additionally runs to natural quiescence
  // (empty event queue) and accepts a null predicate; the real-clock hosts
  // require one and block on a condition variable that workers signal
  // after every handler, re-evaluating `done` on each wakeup. Returns
  // whether the completion condition was met within the budget (the
  // simulator throws on event-budget exhaustion; the real-clock hosts
  // return false on timeout).
  virtual bool run_to_quiescence(const std::function<bool()>& done,
                                 const RunOptions& options) = 0;
  bool run_to_quiescence() { return run_to_quiescence(nullptr, RunOptions{}); }
  // Whether the node with this id is hosted by the calling process. The
  // single-process backends host everything they were handed; the
  // multi-process backend (net::TcpNet) keeps only the nodes whose
  // process assignment matches its own and overrides this accordingly.
  // Election builders use it to attach process-local resources — WAL
  // files, most importantly — only where the node actually lives.
  virtual bool is_local(NodeId) const { return true; }
  // Per-shard inbox high-water marks observed for a node, where the
  // backend has per-shard queues (the real-clock hosts). Backends without that
  // concept (the simulator's single global event queue) return empty.
  virtual std::vector<std::size_t> shard_queue_high_water(NodeId) const {
    return {};
  }
  // Cumulative handler invocations (messages + timers) dispatched over the
  // host's life: the simulator's virtual event count, or the total across
  // all worker threads on the real-clock hosts. Drives the uniform events/sec
  // accounting in ElectionReport and bench::Instrumentation.
  virtual std::uint64_t events_dispatched() const { return 0; }
};

}  // namespace ddemos::sim
