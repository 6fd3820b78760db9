// Real multi-threaded in-process transport hosting the same Process state
// machines as the simulator: every node is local, so ThreadNet is the
// shared net::LocalDispatch core (one worker thread per shard per node,
// lock-protected per-shard mailboxes of shared Buffer handles, real
// wall-clock timers, shard-affine delivery) with no remote half. Used by
// integration tests, the fig5a shard sweep and examples to demonstrate the
// protocol under genuine concurrency; the simulator is used where
// determinism or scale is needed. Implements sim::RuntimeHost so election
// builders can target any backend through one interface.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/local_dispatch.hpp"

namespace ddemos::net {

class ThreadNet final : public sim::RuntimeHost {
 public:
  ThreadNet() = default;
  ~ThreadNet() override = default;  // stops the workers

  ThreadNet(const ThreadNet&) = delete;
  ThreadNet& operator=(const ThreadNet&) = delete;

  NodeId add_node(std::unique_ptr<Process> proc, std::string name) override {
    return local_.add(std::move(proc), std::move(name));
  }
  Process& process(NodeId id) override { return local_.process(id); }
  const std::string& node_name(NodeId id) const override {
    return local_.node_name(id);
  }
  std::size_t node_count() const override { return local_.node_count(); }

  // Delivers on_start to every node on the caller's thread, then spawns
  // one worker thread per shard per node. Throws ProtocolError after
  // stop().
  void start() override { local_.start(); }
  // Signals all workers and joins them. Idempotent.
  void stop() override { local_.stop(); }

  // Wall-clock microseconds since start() (0 before the first start).
  sim::TimePoint now() const override { return local_.now(); }

  // Condition-variable completion wait; see LocalDispatch.
  using sim::RuntimeHost::run_to_quiescence;
  bool run_to_quiescence(const std::function<bool()>& done,
                         const sim::RunOptions& options) override {
    return local_.run_to_quiescence(done, options);
  }

  // Largest inbox depth each shard of `id` ever reached (index = shard).
  std::vector<std::size_t> shard_queue_high_water(NodeId id) const override {
    return local_.shard_queue_high_water(id);
  }
  // Handler invocations (messages + timers) dispatched across all workers.
  std::uint64_t events_dispatched() const override {
    return local_.events_dispatched();
  }

 private:
  LocalDispatch local_{"ThreadNet"};
};

}  // namespace ddemos::net
