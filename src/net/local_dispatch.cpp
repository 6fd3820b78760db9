#include "net/local_dispatch.hpp"

#include <algorithm>
#include <deque>
#include <thread>

#include "util/error.hpp"

namespace ddemos::net {

namespace {

struct Mail {
  NodeId from;
  Buffer payload;  // refcounted: multicast senders share one allocation
};

struct Timer {
  std::chrono::steady_clock::time_point due;
  std::uint64_t token;
};

}  // namespace

// One mailbox + worker per shard. The shard mutex only guards the
// inbox/timer containers (enqueue vs. drain); handler execution itself is
// exclusive per shard by construction — exactly one worker drains a shard
// — so process state partitioned by shard needs no locking.
struct LocalDispatch::Shard {
  std::thread worker;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Mail> inbox;
  std::vector<Timer> timers;
  std::size_t inbox_high_water = 0;  // guarded by mu
};

struct LocalDispatch::Node final : sim::Context {
  Node(LocalDispatch& dispatch, NodeId id, std::unique_ptr<Process> p)
      : dispatch(dispatch),
        id(id),
        proc(std::move(p)),
        sharded(dynamic_cast<sim::ShardedProcess*>(proc.get())) {
    proc->bind(this);
    std::size_t n =
        sharded ? std::max<std::size_t>(sharded->shard_count(), 1) : 1;
    shards.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      shards.push_back(std::make_unique<Shard>());
    }
  }

  void send(NodeId to, Buffer payload) override {
    dispatch.send(id, to, std::move(payload));
  }
  // Intra-node coordination never touches the network: a plain local
  // delivery (shard routing applies as usual).
  void send_self(Buffer payload) override {
    dispatch.deliver(id, id, std::move(payload));
  }
  std::uint64_t set_timer(Duration after) override {
    after = sim::clamp_real_timer_delay(after);
    // Timers fire on shard 0 (the control shard; see sim::Context). Any
    // shard worker may arm one, so take the shard lock.
    Shard& s = *shards.front();
    std::uint64_t token = next_token.fetch_add(1, std::memory_order_relaxed);
    {
      std::scoped_lock lk(s.mu);
      s.timers.push_back(Timer{std::chrono::steady_clock::now() +
                                   std::chrono::microseconds(after),
                               token});
    }
    s.cv.notify_all();
    return token;
  }
  TimePoint now() const override { return dispatch.now(); }
  NodeId self() const override { return id; }
  void charge(Duration) override {}  // real CPU time is real here

  LocalDispatch& dispatch;
  const NodeId id;
  std::unique_ptr<Process> proc;
  // Non-null when proc is a ShardedProcess (cached dynamic_cast).
  sim::ShardedProcess* const sharded;
  std::vector<std::unique_ptr<Shard>> shards;
  // Timer tokens are node-wide (handlers compare them across shards);
  // atomic because any shard worker may arm a timer.
  std::atomic<std::uint64_t> next_token{1};
};

LocalDispatch::LocalDispatch(std::string host, Remote remote)
    : host_(std::move(host)), remote_(std::move(remote)) {}

LocalDispatch::~LocalDispatch() { stop(); }

NodeId LocalDispatch::add(std::unique_ptr<Process> proc, std::string name) {
  if (started()) throw ProtocolError(host_ + ": node added after start");
  NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(std::move(name));
  nodes_.push_back(proc ? std::make_unique<Node>(*this, id, std::move(proc))
                        : nullptr);
  return id;
}

Process& LocalDispatch::process(NodeId id) {
  const std::string& name = names_.at(id);
  if (!nodes_[id]) {
    throw ProtocolError(host_ + ": node '" + name +
                        "' is hosted by another process");
  }
  return *nodes_[id]->proc;
}

void LocalDispatch::send(NodeId from, NodeId to, Buffer payload) {
  if (is_local(to)) {
    deliver(to, from, std::move(payload));
  } else if (remote_.send) {
    remote_.send(from, to, std::move(payload));
  }
}

void LocalDispatch::deliver(NodeId to, NodeId from, Buffer payload) {
  if (!is_local(to)) return;  // unknown or remote destination: drop
  Node& n = *nodes_[to];
  // Shard-affine dispatch: the sender thread resolves the owning shard
  // from the message header, so same-shard handlers serialize through one
  // mailbox and cross-shard traffic never contends.
  std::size_t shard = 0;
  if (n.sharded) {
    shard = n.sharded->shard_of(from, payload);
    if (shard >= n.shards.size()) shard = 0;
  }
  Shard& s = *n.shards[shard];
  {
    std::scoped_lock lk(s.mu);
    s.inbox.push_back(Mail{from, std::move(payload)});
    s.inbox_high_water = std::max(s.inbox_high_water, s.inbox.size());
  }
  s.cv.notify_all();
}

void LocalDispatch::start() {
  if (stopping()) throw ProtocolError(host_ + ": cannot start after stop");
  if (started()) return;
  epoch_ = std::chrono::steady_clock::now();
  started_.store(true, std::memory_order_release);
  if (remote_.on_start) remote_.on_start();
  // on_start runs on this thread, for every node, before any worker
  // exists: a shard worker can therefore never dispatch a message into a
  // process that has not started (on_start sends/timers just queue).
  for (auto& node : nodes_) {
    if (node) node->proc->on_start();
  }
  for (auto& node : nodes_) {
    if (!node) continue;
    for (auto& shard : node->shards) {
      shard->worker = std::thread(
          [this, n = node.get(), s = shard.get()] { worker_loop(*n, *s); });
    }
  }
}

bool LocalDispatch::stop() {
  if (!started() || stopped_.exchange(true, std::memory_order_acq_rel)) {
    return false;
  }
  for (auto& node : nodes_) {
    if (!node) continue;
    for (auto& shard : node->shards) {
      // Take the shard lock before notifying: a worker that already
      // checked stopped_ but has not started waiting yet holds the lock,
      // so this cannot slip into the gap and lose the wakeup.
      std::scoped_lock lk(shard->mu);
      shard->cv.notify_all();
    }
  }
  for (auto& node : nodes_) {
    if (!node) continue;
    for (auto& shard : node->shards) {
      if (shard->worker.joinable()) shard->worker.join();
    }
  }
  return true;
}

TimePoint LocalDispatch::now() const {
  if (!started()) return clock_offset_us_;
  return clock_offset_us_ +
         std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
             .count();
}

std::vector<std::size_t> LocalDispatch::shard_queue_high_water(
    NodeId id) const {
  if (!is_local(id)) return {};
  std::vector<std::size_t> out;
  out.reserve(nodes_[id]->shards.size());
  for (auto& shard : nodes_[id]->shards) {
    std::scoped_lock lk(shard->mu);
    out.push_back(shard->inbox_high_water);
  }
  return out;
}

void LocalDispatch::notify_progress() {
  if (progress_waiters_.load(std::memory_order_acquire) == 0) return;
  // Locking and releasing the mutex orders this worker's preceding state
  // writes before the waiter's next predicate evaluation. try_lock keeps
  // workers from serializing here under load: if the waiter (or another
  // notifier) holds the mutex, the waiter is already awake or will re-check
  // within its 100ms bounded wait, so skipping this notify is safe.
  std::unique_lock lk(progress_mu_, std::try_to_lock);
  if (!lk.owns_lock()) return;
  lk.unlock();
  progress_cv_.notify_all();
}

bool LocalDispatch::run_to_quiescence(const std::function<bool()>& done,
                                      const sim::RunOptions& options) {
  if (!done) {
    throw ProtocolError(host_ +
                        "::run_to_quiescence requires a completion predicate");
  }
  start();
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::microseconds(options.wall_timeout_us);
  // RAII so a throwing predicate or probe cannot leak the waiter count
  // (which would leave every worker paying the notify cost forever).
  struct WaiterGuard {
    std::atomic<int>& count;
    explicit WaiterGuard(std::atomic<int>& c) : count(c) {
      count.fetch_add(1, std::memory_order_acq_rel);
    }
    ~WaiterGuard() { count.fetch_sub(1, std::memory_order_acq_rel); }
  } guard(progress_waiters_);
  std::unique_lock lk(progress_mu_);
  for (;;) {
    if (options.probe) options.probe();
    if (done()) return true;
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return done();
    // Bounded wait: a worker that read progress_waiters_ just before this
    // waiter registered may skip one notify, and remote completion signals
    // (TcpNet::notify_external) may land before it, so cap the sleep
    // instead of trusting every wakeup to arrive.
    progress_cv_.wait_until(
        lk, std::min(deadline, now + std::chrono::milliseconds(100)));
  }
}

void LocalDispatch::worker_loop(Node& node, Shard& shard) {
  std::unique_lock lk(shard.mu);
  while (!stopping()) {
    auto now = std::chrono::steady_clock::now();
    // Fire due timers.
    std::vector<std::uint64_t> due;
    for (auto it = shard.timers.begin(); it != shard.timers.end();) {
      if (it->due <= now) {
        due.push_back(it->token);
        it = shard.timers.erase(it);
      } else {
        ++it;
      }
    }
    for (std::uint64_t token : due) {
      lk.unlock();
      node.proc->on_timer(token);
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      notify_progress();
      lk.lock();
    }
    if (!shard.inbox.empty()) {
      Mail m = std::move(shard.inbox.front());
      shard.inbox.pop_front();
      lk.unlock();
      node.proc->on_message(m.from, m.payload);
      dispatched_.fetch_add(1, std::memory_order_relaxed);
      notify_progress();
      lk.lock();
      continue;
    }
    if (stopping()) break;
    // Sleep until next timer or new mail.
    if (shard.timers.empty()) {
      shard.cv.wait_for(lk, std::chrono::milliseconds(50));
    } else {
      auto next = std::min_element(shard.timers.begin(), shard.timers.end(),
                                   [](const Timer& a, const Timer& b) {
                                     return a.due < b.due;
                                   })
                      ->due;
      shard.cv.wait_until(lk, next);
    }
  }
}

}  // namespace ddemos::net
