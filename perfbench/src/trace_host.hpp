// Tracing from outside the program: a sim::RuntimeHost decorator that
// wraps every Process it hosts and that Process's Context. The wrapper
// times each on_start/on_message/on_timer call (thread CPU time), counts
// the messages and bytes each node sends, and stamps every send so the
// receiving wrapper can measure how long the message waited between the
// send call and the start of its handler (mailbox wait). Stamps are
// matched by the zero-copy net::Buffer identity (payload address) plus
// the recipient. process(id) hands back the inner node, so callers that
// downcast hosted nodes (core::ElectionDriver) work unchanged.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

class TracedProcess;

// Per-node counters. Atomic because a sharded node runs handlers on
// several worker threads at once.
struct NodeTrace {
  std::string name;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> msgs_sent{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::mutex waits_mu;
  std::vector<std::int64_t> waits_ns;  // guarded by waits_mu
};

class TracingHost final : public ddemos::sim::RuntimeHost {
 public:
  explicit TracingHost(ddemos::sim::RuntimeHost& inner) : inner_(inner) {}
  ~TracingHost() override;
  TracingHost(const TracingHost&) = delete;
  TracingHost& operator=(const TracingHost&) = delete;

  ddemos::sim::NodeId add_node(std::unique_ptr<ddemos::sim::Process> proc,
                               std::string name) override;
  ddemos::sim::Process& process(ddemos::sim::NodeId id) override;
  const std::string& node_name(ddemos::sim::NodeId id) const override {
    return inner_.node_name(id);
  }
  std::size_t node_count() const override { return inner_.node_count(); }
  void start() override { inner_.start(); }
  void stop() override { inner_.stop(); }
  ddemos::sim::TimePoint now() const override { return inner_.now(); }
  using ddemos::sim::RuntimeHost::run_to_quiescence;
  bool run_to_quiescence(const std::function<bool()>& done,
                         const ddemos::sim::RunOptions& options) override {
    return inner_.run_to_quiescence(done, options);
  }
  bool is_local(ddemos::sim::NodeId id) const override {
    return inner_.is_local(id);
  }
  std::vector<std::size_t> shard_queue_high_water(
      ddemos::sim::NodeId id) const override {
    return inner_.shard_queue_high_water(id);
  }
  std::uint64_t events_dispatched() const override {
    return inner_.events_dispatched();
  }

  // Every traced node, in id order (nodes added straight to the inner
  // host, such as TcpNet remotes, have no entry).
  std::vector<const NodeTrace*> traces() const;

  // Send-side stamp and its receive-side match (called by the wrappers).
  void stamp(const void* payload, ddemos::sim::NodeId to);
  bool take_stamp(const void* payload, ddemos::sim::NodeId to,
                  Clock::time_point* sent);

 private:
  struct StampKey {
    const void* payload;
    ddemos::sim::NodeId to;
    bool operator==(const StampKey&) const = default;
  };
  struct StampHash {
    std::size_t operator()(const StampKey& k) const {
      return std::hash<const void*>()(k.payload) * 31 + k.to;
    }
  };

  ddemos::sim::RuntimeHost& inner_;
  std::unordered_map<ddemos::sim::NodeId, TracedProcess*> wrappers_;
  std::vector<std::unique_ptr<NodeTrace>> traces_;
  std::mutex stamps_mu_;
  std::unordered_map<StampKey, Clock::time_point, StampHash>
      stamps_;  // guarded by stamps_mu_
};

// Wraps one hosted Process (and, through TracedContext, its Context).
// Always a ShardedProcess so a sharded inner node keeps its shard routing.
class TracedProcess final : public ddemos::sim::ShardedProcess {
 public:
  TracedProcess(std::unique_ptr<ddemos::sim::Process> inner,
                TracingHost& host, NodeTrace& trace);

  ddemos::sim::Process& inner() { return *inner_; }
  ddemos::sim::Context& outer_ctx() { return ctx(); }
  void set_id(ddemos::sim::NodeId id) { id_ = id; }

  void on_start() override;
  void on_message(ddemos::sim::NodeId from,
                  const ddemos::net::Buffer& payload) override;
  void on_timer(std::uint64_t token) override;
  std::size_t shard_count() const override {
    return sharded_ ? sharded_->shard_count() : 1;
  }
  std::size_t shard_of(ddemos::sim::NodeId from,
                       const ddemos::net::Buffer& payload) const override {
    return sharded_ ? sharded_->shard_of(from, payload) : 0;
  }

 private:
  class TracedContext final : public ddemos::sim::Context {
   public:
    explicit TracedContext(TracedProcess& owner) : owner_(owner) {}
    void send(ddemos::sim::NodeId to, ddemos::net::Buffer payload) override;
    void send_self(ddemos::net::Buffer payload) override;
    std::uint64_t set_timer(ddemos::sim::Duration after) override {
      return owner_.outer_ctx().set_timer(after);
    }
    ddemos::sim::TimePoint now() const override {
      return owner_.outer_ctx().now();
    }
    ddemos::sim::NodeId self() const override {
      return owner_.outer_ctx().self();
    }
    void charge(ddemos::sim::Duration cpu) override {
      owner_.outer_ctx().charge(cpu);
    }

   private:
    TracedProcess& owner_;
  };

  template <typename Fn>
  void timed(Fn&& fn);

  std::unique_ptr<ddemos::sim::Process> inner_;
  ddemos::sim::ShardedProcess* sharded_;
  TracingHost& host_;
  NodeTrace& trace_;
  TracedContext tctx_;
  ddemos::sim::NodeId id_ = ddemos::sim::kNoNode;
};

}  // namespace perfbench
