// Deterministic discrete-event simulator. Replaces the paper's 12-machine
// cluster: virtual clocks per node, configurable link latency/drop/dup/
// reorder, per-node CPU service-time accounting from the costs handlers
// charge (sim/cost_table.hpp; a node is one virtual processor per shard —
// plain Processes have one, a ShardedProcess gets shard_count() of them,
// so sharded VC nodes overlap handler costs across shards), and adversary
// hooks for bounded message delay and node crashes.
// Fully deterministic given a seed.
//
// Events carry net::Buffer payload handles, so enqueueing, duplication and
// multicast fan-out never deep-copy message bytes; the event set itself is
// a bucketed calendar queue (sim/calendar_queue.hpp) with amortized O(1)
// push/pop in the dispatch hot path.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rng.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/runtime.hpp"

namespace ddemos::sim {

struct LinkModel {
  Duration base_latency = 100;  // microseconds, one way
  Duration jitter = 0;          // uniform extra in [0, jitter]
  double drop_prob = 0.0;
  double dup_prob = 0.0;

  static LinkModel lan() { return LinkModel{100, 50, 0.0, 0.0}; }
  static LinkModel wan() { return LinkModel{25'000, 2'000, 0.0, 0.0}; }
  static LinkModel lossy(double drop, double dup) {
    return LinkModel{100, 500, drop, dup};
  }
};

// Return std::nullopt to drop; otherwise extra delay added on top of the
// link model. Lets tests play the bounded-delay adversary of Section III-C.
using LinkFilter =
    std::function<std::optional<Duration>(NodeId from, NodeId to, TimePoint)>;

class Simulation final : public RuntimeHost {
 public:
  explicit Simulation(std::uint64_t seed);
  ~Simulation() override;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  NodeId add_node(std::unique_ptr<Process> proc, std::string name) override;
  Process& process(NodeId id) override;
  const std::string& node_name(NodeId id) const override;
  std::size_t node_count() const override { return nodes_.size(); }

  void set_default_link(const LinkModel& model) { default_link_ = model; }
  void set_link(NodeId a, NodeId b, const LinkModel& model);
  void set_link_filter(LinkFilter filter) { filter_ = std::move(filter); }

  // Crashed nodes stop receiving messages and timers.
  void crash(NodeId id);
  bool crashed(NodeId id) const;

  // Calls on_start on all nodes not yet started.
  void start() override;

  TimePoint now() const override { return now_; }
  // Process a single event. Returns false when the queue is empty.
  bool step();
  // Run until the queue drains or `max_events` is hit; returns events run.
  // Throws ProtocolError (with the processed-event count and current
  // virtual time) when the budget is exhausted with events still pending.
  std::size_t run_until_idle(std::size_t max_events = 50'000'000);
  // RuntimeHost completion wait: run_until_idle under options.max_events,
  // stopping early (at a probe boundary) once `done()` holds.
  using RuntimeHost::run_to_quiescence;
  bool run_to_quiescence(const std::function<bool()>& done,
                         const RunOptions& options) override;
  // Run while events exist and now() < deadline.
  void run_until(TimePoint deadline);

  crypto::Rng& rng() { return rng_; }
  std::uint64_t delivered_messages() const { return delivered_; }
  std::uint64_t dropped_messages() const { return dropped_; }
  // Cumulative events dispatched (messages + timers) over the sim's life.
  std::uint64_t events_processed() const { return events_processed_; }
  std::uint64_t events_dispatched() const override {
    return events_processed_;
  }

  // Used by NodeContext (internal).
  void submit_send(NodeId from, NodeId to, net::Buffer payload,
                   TimePoint depart);
  // Reliable intra-node loopback (Context::send_self): enqueued at the
  // sender's handler end, bypassing link models, loss and the rng stream
  // so sharded runs stay deterministic under lossy links.
  void submit_self(NodeId node, net::Buffer payload, TimePoint at);
  std::uint64_t submit_timer(NodeId node, Duration after, TimePoint from_time);

 private:
  struct Event {
    TimePoint at;
    std::uint64_t seq;  // tiebreaker for determinism
    NodeId target;
    NodeId from;          // kNoNode for timers
    std::uint64_t token;  // timer token
    net::Buffer payload;  // shared handle; empty for timers
  };
  class NodeContext;
  struct Node {
    std::unique_ptr<Process> proc;
    // Non-null when proc is a ShardedProcess (cached dynamic_cast).
    ShardedProcess* sharded = nullptr;
    std::unique_ptr<NodeContext> ctx;
    std::string name;
    bool crashed = false;
    // One virtual processor per shard: handlers mapped to a shard queue
    // behind that shard's busy time only, so sharded nodes process
    // messages for distinct shards in (virtual) parallel. Non-sharded
    // nodes have exactly one entry — the former busy_until.
    std::vector<TimePoint> shard_busy;
  };

  const LinkModel& link_for(NodeId a, NodeId b) const;
  void dispatch(const Event& ev);

  crypto::Rng rng_;
  std::vector<Node> nodes_;
  LinkModel default_link_ = LinkModel::lan();
  std::map<std::pair<NodeId, NodeId>, LinkModel> links_;
  LinkFilter filter_;
  CalendarQueue<Event> queue_;
  TimePoint now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t timer_tokens_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t events_processed_ = 0;
  bool started_ = false;
};

}  // namespace ddemos::sim
