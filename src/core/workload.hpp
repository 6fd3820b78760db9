// Streaming voter workloads for the election driver. A Workload is a pull
// stream of vote intents — {ballot slot, option, cast time} — so an
// election over 10^6 ballots is configured in O(1) memory instead of the
// dense per-voter vectors the old RunnerConfig carried. Built-in sources:
//   RoundRobinWorkload  every slot votes, option = slot % m (the old
//                       default), cast times evenly spread over the window
//   VoteListWorkload    explicit per-slot options for tests/examples;
//                       slots beyond the list fall back to round-robin
//   RandomWorkload      seeded random option choice with an abstention
//                       probability; deterministic across runs
//   ClosedLoopWorkload  closed-loop load: `concurrency` casts in flight,
//                       each receipt triggers the next cast (the paper's
//                       multi-threaded voting client)
//   DiskTraceWorkload   replays a binary (slot, option, cast_at) trace
//                       from disk, never materializing it in memory
//
// ClosedLoopClient is the runtime half of the closed-loop source: a single
// Process keeping `concurrency` raw votes in flight, shared by the driver
// and the figure benchmarks (it absorbs the old bench::LoadGen).
#pragma once

#include <atomic>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "crypto/rng.hpp"
#include "sim/runtime.hpp"

namespace ddemos::core {

inline constexpr std::size_t kAbstain = static_cast<std::size_t>(-1);

// Sentinel cast time for closed-loop sources: the client casts as soon as a
// concurrency slot frees up rather than at a scheduled instant.
inline constexpr sim::TimePoint kCastWhenReady = -1;

struct VoteIntent {
  std::size_t slot = 0;          // ballot slot index in [0, n_voters)
  std::size_t option = kAbstain;  // kAbstain = this slot does not vote
  sim::TimePoint cast_at = 0;
};

// Per-slot cast-time override used by several sources.
using CastTimeFn = std::function<sim::TimePoint(std::size_t slot)>;

// The old runner default: even spread over the first three quarters of the
// election window (kept bit-identical for workload parity).
sim::TimePoint default_cast_time(const ElectionParams& params,
                                 std::size_t slot);

class Workload {
 public:
  virtual ~Workload() = default;
  // Called once by the driver before streaming begins; sources derive
  // defaults (slot count, option count, cast-time spread) from the
  // election parameters and rewind so a Workload can drive a second
  // backend (runtime-parity runs bind twice).
  virtual void bind(const ElectionParams& params) = 0;
  // Next vote intent, or nullopt at end of stream.
  virtual std::optional<VoteIntent> next() = 0;
  // Closed-loop sources: number of casts kept in flight. 0 = open loop
  // (every intent carries its own cast time).
  virtual std::size_t concurrency() const { return 0; }
};

class VoteListWorkload : public Workload {
 public:
  // `votes[slot]` is the option slot votes for (kAbstain = no vote); slots
  // beyond the list default to round-robin, as the old RunnerConfig did.
  explicit VoteListWorkload(std::vector<std::size_t> votes,
                            CastTimeFn cast_at = nullptr)
      : votes_(std::move(votes)), cast_at_(std::move(cast_at)) {}
  static std::shared_ptr<VoteListWorkload> make(std::vector<std::size_t> votes,
                                                CastTimeFn cast_at = nullptr) {
    return std::make_shared<VoteListWorkload>(std::move(votes),
                                              std::move(cast_at));
  }

  void bind(const ElectionParams& params) override;
  std::optional<VoteIntent> next() override;

 private:
  std::vector<std::size_t> votes_;
  CastTimeFn cast_at_;
  ElectionParams params_;
  std::size_t next_ = 0;
};

// The old runner default — every slot votes, option = slot % m — is the
// vote-list fallback with an empty list; one implementation keeps the two
// documented behaviours from drifting apart.
class RoundRobinWorkload final : public VoteListWorkload {
 public:
  explicit RoundRobinWorkload(CastTimeFn cast_at = nullptr)
      : VoteListWorkload({}, std::move(cast_at)) {}
  static std::shared_ptr<RoundRobinWorkload> make(
      CastTimeFn cast_at = nullptr) {
    return std::make_shared<RoundRobinWorkload>(std::move(cast_at));
  }
};

class RandomWorkload final : public Workload {
 public:
  RandomWorkload(std::uint64_t seed, double abstain_prob = 0.0,
                 CastTimeFn cast_at = nullptr)
      : seed_(seed), abstain_prob_(abstain_prob),
        cast_at_(std::move(cast_at)), rng_(seed) {}
  static std::shared_ptr<RandomWorkload> make(std::uint64_t seed,
                                              double abstain_prob = 0.0,
                                              CastTimeFn cast_at = nullptr) {
    return std::make_shared<RandomWorkload>(seed, abstain_prob,
                                            std::move(cast_at));
  }

  void bind(const ElectionParams& params) override;
  std::optional<VoteIntent> next() override;

 private:
  std::uint64_t seed_;
  double abstain_prob_;
  CastTimeFn cast_at_;
  crypto::Rng rng_;
  ElectionParams params_;
  std::size_t next_ = 0;
};

class ClosedLoopWorkload final : public Workload {
 public:
  // `casts` votes over slots 0..casts-1 with seeded-random options, driven
  // by a single client that keeps `concurrency` casts in flight.
  ClosedLoopWorkload(std::size_t casts, std::size_t concurrency,
                     std::uint64_t seed)
      : casts_(casts), concurrency_(concurrency), seed_(seed), rng_(seed) {}
  static std::shared_ptr<ClosedLoopWorkload> make(std::size_t casts,
                                                  std::size_t concurrency,
                                                  std::uint64_t seed) {
    return std::make_shared<ClosedLoopWorkload>(casts, concurrency, seed);
  }

  void bind(const ElectionParams& params) override;
  std::optional<VoteIntent> next() override;
  std::size_t concurrency() const override { return concurrency_; }

 private:
  std::size_t casts_;
  std::size_t concurrency_;
  std::uint64_t seed_;
  crypto::Rng rng_;
  std::size_t options_ = 0;
  std::size_t next_ = 0;
};

// Replays a trace of fixed-size records from disk. File layout:
//   [u64 magic][u64 count] then count * {u64 slot, u64 option, i64 cast_at}
// (host byte order; traces are produced and consumed on the same machine).
class DiskTraceWorkload final : public Workload {
 public:
  class Builder {
   public:
    explicit Builder(const std::string& path);
    ~Builder();
    Builder(const Builder&) = delete;
    Builder& operator=(const Builder&) = delete;
    void add(std::size_t slot, std::size_t option, sim::TimePoint cast_at);
    void finish();  // backpatches the record count into the header

   private:
    std::FILE* f_ = nullptr;
    std::uint64_t count_ = 0;
    bool finished_ = false;
  };

  explicit DiskTraceWorkload(const std::string& path);
  ~DiskTraceWorkload();
  DiskTraceWorkload(const DiskTraceWorkload&) = delete;
  DiskTraceWorkload& operator=(const DiskTraceWorkload&) = delete;
  static std::shared_ptr<DiskTraceWorkload> make(const std::string& path) {
    return std::make_shared<DiskTraceWorkload>(path);
  }

  void bind(const ElectionParams& params) override;
  std::optional<VoteIntent> next() override;
  std::size_t size() const { return count_; }

 private:
  std::FILE* f_ = nullptr;
  std::uint64_t count_ = 0;
  std::uint64_t read_ = 0;
};

// One castable vote for the closed-loop client: the ballot serial, the
// vote code of the chosen line, the printed receipt the cast must return,
// and (when known) the option the code stands for.
struct VoteTarget {
  Serial serial = 0;
  Bytes code;
  std::uint64_t receipt = 0;
  std::size_t option = kAbstain;
};

// Closed-loop load generator: `concurrency` in-flight casts; each receipt
// immediately triggers the next cast, as in the paper's multi-threaded
// voting client. Used by the driver for ClosedLoopWorkload and by the
// Figure 4/5 benchmarks directly.
class ClosedLoopClient final : public sim::Process {
 public:
  ClosedLoopClient(std::vector<VoteTarget> targets,
                   std::vector<sim::NodeId> vc_ids, std::size_t concurrency,
                   std::uint64_t seed);

  void on_start() override;
  void on_message(sim::NodeId from, const net::Buffer& payload) override;

  // Every cast resolved, successfully or not (rejections free their
  // concurrency slot so the loop always drains). A kOk reply whose receipt
  // differs from the target's printed one counts as rejected.
  bool done() const { return completed_ + rejected_ == targets_.size(); }
  std::size_t completed() const { return completed_; }
  std::size_t rejected() const { return rejected_; }
  std::size_t target_count() const { return targets_.size(); }
  sim::TimePoint first_send() const { return first_send_; }
  sim::TimePoint last_receipt() const { return last_receipt_; }
  double mean_latency_us() const {
    return latency_count_ ? latency_sum_us_ / latency_count_ : 0.0;
  }
  // Completed casts per option (options beyond any target are zero).
  std::vector<std::uint64_t> completed_by_option(std::size_t m) const;

 private:
  void send_next();

  std::vector<VoteTarget> targets_;
  std::vector<sim::NodeId> vc_ids_;
  std::size_t concurrency_;
  crypto::Rng rng_;
  std::size_t next_ = 0;
  // Atomic: read by the ThreadNet completion predicate mid-run.
  std::atomic<std::size_t> completed_{0};
  std::atomic<std::size_t> rejected_{0};
  // serial -> (send time, target index)
  std::map<Serial, std::pair<sim::TimePoint, std::size_t>> in_flight_;
  std::vector<std::uint64_t> option_tally_;
  sim::TimePoint first_send_ = -1;
  sim::TimePoint last_receipt_ = -1;
  double latency_sum_us_ = 0;
  std::size_t latency_count_ = 0;
};

}  // namespace ddemos::core
