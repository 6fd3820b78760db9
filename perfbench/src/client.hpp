// The benchmark's load generator: one closed-loop client Process (one
// thread) that keeps a fixed number of casts in flight against the VC
// nodes, records the latency of every cast, and checks every receipt
// against the printed receipt of the ballot line it cast.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/workload.hpp"
#include "sim/runtime.hpp"

namespace perfbench {

class BenchClient final : public ddemos::sim::Process {
 public:
  // `deadline_s` > 0 stops issuing new casts that many seconds after the
  // first send, once at least `min_casts` were issued (in-flight casts
  // still complete); 0 casts every target.
  BenchClient(std::vector<ddemos::core::VoteTarget> targets,
              std::vector<ddemos::sim::NodeId> vc_ids,
              std::size_t concurrency, std::uint64_t seed,
              double deadline_s, std::size_t min_casts = 0);

  void on_start() override;
  void on_message(ddemos::sim::NodeId from,
                  const ddemos::net::Buffer& payload) override;

  // Every issued cast resolved and no further cast will be issued.
  bool done() const { return done_.load(std::memory_order_acquire); }
  // Blocks until done() or the timeout; returns done(). Lets a caller wait
  // on a started host without the host's per-handler progress wakeups.
  bool wait_done(double timeout_s);

  // The remaining accessors are stable once the host has stopped.
  std::size_t attempted() const { return next_; }
  std::size_t receipts() const { return receipts_; }
  std::size_t rejected() const { return rejected_; }
  std::size_t wrong_receipts() const { return wrong_; }
  std::size_t unresolved() const { return in_flight_.size(); }
  // Latencies of every correct receipt except those of the opening burst
  // (the first `concurrency` casts, sent at once into an empty system).
  const std::vector<std::int64_t>& latencies_ns() const {
    return latencies_ns_;
  }
  // Wall span from the first send to the last correct receipt.
  double span_s() const;
  std::vector<std::uint64_t> receipts_by_option(std::size_t m) const;

 private:
  void send_next();
  void finish_if_drained();

  struct InFlight {
    std::size_t target = 0;
    Clock::time_point sent;
  };

  std::vector<ddemos::core::VoteTarget> targets_;
  std::vector<ddemos::sim::NodeId> vc_ids_;
  std::size_t concurrency_;
  ddemos::crypto::Rng rng_;
  Clock::duration deadline_;
  std::size_t min_casts_;
  std::size_t next_ = 0;
  bool stopped_issuing_ = false;
  std::unordered_map<ddemos::core::Serial, InFlight> in_flight_;
  std::vector<std::int64_t> latencies_ns_;
  std::vector<std::uint64_t> by_option_;
  std::size_t receipts_ = 0, rejected_ = 0, wrong_ = 0;
  Clock::time_point first_send_{}, last_receipt_{};
  std::atomic<bool> done_{false};
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

}  // namespace perfbench
