#include "trace_host.hpp"

#include <ctime>

namespace perfbench {

using namespace ddemos;

namespace {

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

TracingHost::~TracingHost() { inner_.stop(); }

sim::NodeId TracingHost::add_node(std::unique_ptr<sim::Process> proc,
                                  std::string name) {
  traces_.push_back(std::make_unique<NodeTrace>());
  NodeTrace& trace = *traces_.back();
  trace.name = name;
  auto wrapper = std::make_unique<TracedProcess>(std::move(proc), *this, trace);
  TracedProcess* raw = wrapper.get();
  sim::NodeId id = inner_.add_node(std::move(wrapper), std::move(name));
  raw->set_id(id);
  wrappers_[id] = raw;
  return id;
}

sim::Process& TracingHost::process(sim::NodeId id) {
  auto it = wrappers_.find(id);
  return it == wrappers_.end() ? inner_.process(id) : it->second->inner();
}

std::vector<const NodeTrace*> TracingHost::traces() const {
  std::vector<const NodeTrace*> out;
  for (const auto& t : traces_) out.push_back(t.get());
  return out;
}

void TracingHost::stamp(const void* payload, sim::NodeId to) {
  if (!wrappers_.count(to)) return;  // untraced recipient: nothing to match
  Clock::time_point now = Clock::now();
  std::scoped_lock lk(stamps_mu_);
  stamps_.emplace(StampKey{payload, to}, now);
}

bool TracingHost::take_stamp(const void* payload, sim::NodeId to,
                             Clock::time_point* sent) {
  std::scoped_lock lk(stamps_mu_);
  auto it = stamps_.find(StampKey{payload, to});
  if (it == stamps_.end()) return false;
  *sent = it->second;
  stamps_.erase(it);
  return true;
}

TracedProcess::TracedProcess(std::unique_ptr<sim::Process> inner,
                             TracingHost& host, NodeTrace& trace)
    : inner_(std::move(inner)),
      sharded_(dynamic_cast<sim::ShardedProcess*>(inner_.get())),
      host_(host),
      trace_(trace),
      tctx_(*this) {
  inner_->bind(&tctx_);
}

template <typename Fn>
void TracedProcess::timed(Fn&& fn) {
  std::uint64_t t0 = thread_cpu_ns();
  fn();
  trace_.busy_ns.fetch_add(thread_cpu_ns() - t0, std::memory_order_relaxed);
  trace_.calls.fetch_add(1, std::memory_order_relaxed);
}

void TracedProcess::on_start() {
  timed([&] { inner_->on_start(); });
}

void TracedProcess::on_message(sim::NodeId from, const net::Buffer& payload) {
  Clock::time_point sent;
  if (host_.take_stamp(payload.data(), id_, &sent)) {
    std::int64_t wait = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - sent)
                            .count();
    std::scoped_lock lk(trace_.waits_mu);
    trace_.waits_ns.push_back(wait);
  }
  timed([&] { inner_->on_message(from, payload); });
}

void TracedProcess::on_timer(std::uint64_t token) {
  timed([&] { inner_->on_timer(token); });
}

void TracedProcess::TracedContext::send(sim::NodeId to, net::Buffer payload) {
  owner_.trace_.msgs_sent.fetch_add(1, std::memory_order_relaxed);
  owner_.trace_.bytes_sent.fetch_add(payload.size(),
                                     std::memory_order_relaxed);
  // Stamp before handing the message over: the receiver may run first.
  owner_.host_.stamp(payload.data(), to);
  owner_.outer_ctx().send(to, std::move(payload));
}

void TracedProcess::TracedContext::send_self(net::Buffer payload) {
  owner_.host_.stamp(payload.data(), owner_.id_);
  owner_.outer_ctx().send_self(std::move(payload));
}

}  // namespace perfbench
