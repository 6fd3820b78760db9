#include "sim/sim.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ddemos::sim {

// Per-node Context implementation. Sends and timers issued while a handler
// runs depart when the handler's accounted CPU time ends, which models a
// node that processes one message at a time.
class Simulation::NodeContext final : public Context {
 public:
  NodeContext(Simulation* sim, NodeId id) : sim_(sim), id_(id) {}

  void send(NodeId to, net::Buffer payload) override {
    sim_->submit_send(id_, to, std::move(payload), handler_end_);
  }
  void send_self(net::Buffer payload) override {
    sim_->submit_self(id_, std::move(payload), handler_end_);
  }
  std::uint64_t set_timer(Duration after) override {
    return sim_->submit_timer(id_, after, handler_end_);
  }
  TimePoint now() const override { return handler_start_; }
  NodeId self() const override { return id_; }
  void charge(Duration cpu) override { handler_end_ += cpu; }

  // Called by the simulator around each handler invocation.
  void begin_handler(TimePoint at) {
    handler_start_ = at;
    handler_end_ = at;
  }
  TimePoint handler_end() const { return handler_end_; }

 private:
  Simulation* sim_;
  NodeId id_;
  TimePoint handler_start_ = 0;
  TimePoint handler_end_ = 0;
};

Simulation::Simulation(std::uint64_t seed) : rng_(seed) {}
Simulation::~Simulation() = default;

NodeId Simulation::add_node(std::unique_ptr<Process> proc, std::string name) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  Node n;
  n.proc = std::move(proc);
  n.sharded = dynamic_cast<ShardedProcess*>(n.proc.get());
  n.ctx = std::make_unique<NodeContext>(this, id);
  n.name = std::move(name);
  n.proc->bind(n.ctx.get());
  n.shard_busy.assign(
      n.sharded ? std::max<std::size_t>(n.sharded->shard_count(), 1) : 1, 0);
  nodes_.push_back(std::move(n));
  if (started_) {
    // Late-added node (e.g. a voter joining mid-election): start immediately.
    nodes_.back().ctx->begin_handler(now_);
    nodes_.back().proc->on_start();
    nodes_.back().shard_busy[0] = nodes_.back().ctx->handler_end();
  }
  return id;
}

Process& Simulation::process(NodeId id) { return *nodes_.at(id).proc; }

const std::string& Simulation::node_name(NodeId id) const {
  return nodes_.at(id).name;
}

void Simulation::set_link(NodeId a, NodeId b, const LinkModel& model) {
  links_[{a, b}] = model;
}

const LinkModel& Simulation::link_for(NodeId a, NodeId b) const {
  auto it = links_.find({a, b});
  if (it != links_.end()) return it->second;
  return default_link_;
}

void Simulation::crash(NodeId id) { nodes_.at(id).crashed = true; }
bool Simulation::crashed(NodeId id) const { return nodes_.at(id).crashed; }

void Simulation::start() {
  started_ = true;
  for (Node& n : nodes_) {
    if (n.crashed) continue;
    n.ctx->begin_handler(now_);
    n.proc->on_start();
    n.shard_busy[0] = std::max(n.shard_busy[0], n.ctx->handler_end());
  }
}

void Simulation::submit_send(NodeId from, NodeId to, net::Buffer payload,
                             TimePoint depart) {
  if (to >= nodes_.size()) throw ProtocolError("send to unknown node");
  const LinkModel& lm = link_for(from, to);
  if (lm.drop_prob > 0 && rng_.uniform01() < lm.drop_prob) {
    ++dropped_;
    return;
  }
  Duration extra = 0;
  if (filter_) {
    auto d = filter_(from, to, depart);
    if (!d.has_value()) {
      ++dropped_;
      return;
    }
    extra = *d;
  }
  // Each enqueue copies only the Buffer handle; the payload allocation is
  // shared with the sender (and with every other recipient of a multicast).
  auto enqueue = [&](TimePoint when) {
    queue_.push(Event{when, seq_++, to, from, 0, payload});
  };
  Duration jitter =
      lm.jitter > 0 ? static_cast<Duration>(rng_.below(
                          static_cast<std::uint64_t>(lm.jitter) + 1))
                    : 0;
  // A message cannot arrive before it departs (an adversarial LinkFilter
  // may return a negative extra delay; the calendar queue also relies on
  // event times being non-negative).
  TimePoint arrive =
      std::max(depart + lm.base_latency + jitter + extra, depart);
  enqueue(arrive);
  if (lm.dup_prob > 0 && rng_.uniform01() < lm.dup_prob) {
    enqueue(arrive + lm.base_latency);
  }
}

void Simulation::submit_self(NodeId node, net::Buffer payload, TimePoint at) {
  if (node >= nodes_.size()) throw ProtocolError("send_self on unknown node");
  // Intra-node hop: no link model, no loss/dup, and — critically for
  // determinism — no rng draw, so a sharded run consumes the exact same
  // random stream as an unsharded one under lossy links.
  queue_.push(Event{at, seq_++, node, node, 0, std::move(payload)});
}

std::uint64_t Simulation::submit_timer(NodeId node, Duration after,
                                       TimePoint from_time) {
  std::uint64_t token = ++timer_tokens_;
  queue_.push(Event{std::max(from_time + after, from_time), seq_++, node,
                    kNoNode, token, {}});
  return token;
}

void Simulation::dispatch(const Event& ev) {
  Node& n = nodes_.at(ev.target);
  if (n.crashed) return;
  // Each shard is its own virtual processor: handlers queue behind their
  // shard's busy time only. Timers always run on shard 0 (the control
  // shard); plain Processes have exactly one shard.
  std::size_t shard = 0;
  if (n.sharded && ev.from != kNoNode) {
    shard = n.sharded->shard_of(ev.from, ev.payload);
    if (shard >= n.shard_busy.size()) shard = 0;
  }
  TimePoint begin = std::max(ev.at, n.shard_busy[shard]);
  n.ctx->begin_handler(begin);
  if (ev.from == kNoNode) {
    n.proc->on_timer(ev.token);
  } else {
    ++delivered_;
    n.proc->on_message(ev.from, ev.payload);
  }
  n.shard_busy[shard] = std::max(n.shard_busy[shard], n.ctx->handler_end());
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  Event ev = queue_.pop();
  now_ = std::max(now_, ev.at);
  dispatch(ev);
  ++events_processed_;
  return true;
}

namespace {
[[noreturn]] void throw_budget_exhausted(std::size_t processed,
                                         TimePoint now) {
  throw ProtocolError(
      "simulation did not quiesce within event budget: " +
      std::to_string(processed) + " events processed, virtual time " +
      std::to_string(now) + " us, events still pending");
}
}  // namespace

std::size_t Simulation::run_until_idle(std::size_t max_events) {
  std::size_t count = 0;
  while (count < max_events && step()) ++count;
  if (count == max_events && !queue_.empty()) {
    throw_budget_exhausted(count, now_);
  }
  return count;
}

bool Simulation::run_to_quiescence(const std::function<bool()>& done,
                                   const RunOptions& options) {
  if (!started_) start();
  // Clamp so a small event budget still gets completion checks before the
  // budget trips.
  std::size_t probe_interval = std::clamp<std::size_t>(
      options.probe_interval, 1,
      std::max<std::size_t>(options.max_events, 1));
  std::size_t count = 0;
  while (!queue_.empty()) {
    if (count >= options.max_events) {
      // Completion beats budget exhaustion: a satisfied predicate at the
      // boundary is success, not a stuck simulation.
      if (done && done()) return true;
      throw_budget_exhausted(count, now_);
    }
    step();
    ++count;
    if (count % probe_interval == 0) {
      if (options.probe) options.probe();
      // The predicate only short-circuits at probe boundaries so its cost
      // never dominates the dispatch loop; a null predicate means "run to
      // natural quiescence" (the driver's default on this backend).
      if (done && done()) return true;
    }
  }
  if (options.probe) options.probe();
  return done ? done() : true;
}

void Simulation::run_until(TimePoint deadline) {
  while (!queue_.empty() && queue_.top().at <= deadline) step();
  now_ = std::max(now_, deadline);
}

}  // namespace ddemos::sim
