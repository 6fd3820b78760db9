#include "client.hpp"

#include "core/messages.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace ddemos;

BenchClient::BenchClient(std::vector<core::VoteTarget> targets,
                         std::vector<sim::NodeId> vc_ids,
                         std::size_t concurrency, std::uint64_t seed,
                         double deadline_s, std::size_t min_casts)
    : targets_(std::move(targets)),
      vc_ids_(std::move(vc_ids)),
      concurrency_(concurrency),
      rng_(seed),
      deadline_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(deadline_s))),
      min_casts_(min_casts) {
  latencies_ns_.reserve(targets_.size());
}

void BenchClient::on_start() {
  first_send_ = last_receipt_ = Clock::now();
  for (std::size_t i = 0; i < concurrency_; ++i) send_next();
  finish_if_drained();
}

void BenchClient::send_next() {
  if (stopped_issuing_) return;
  Clock::time_point now = Clock::now();
  if (next_ >= targets_.size() ||
      (deadline_.count() > 0 && now - first_send_ >= deadline_ &&
       next_ >= min_casts_)) {
    stopped_issuing_ = true;
    return;
  }
  const core::VoteTarget& t = targets_[next_];
  in_flight_[t.serial] = InFlight{next_, now};
  ++next_;
  sim::NodeId vc = vc_ids_[rng_.below(vc_ids_.size())];
  ctx().send(vc, core::VoteMsg{t.serial, t.code}.encode());
}

void BenchClient::finish_if_drained() {
  if (!stopped_issuing_ || !in_flight_.empty() || done()) return;
  {
    std::scoped_lock lk(done_mu_);
    done_.store(true, std::memory_order_release);
  }
  done_cv_.notify_all();
}

bool BenchClient::wait_done(double timeout_s) {
  std::unique_lock lk(done_mu_);
  return done_cv_.wait_for(lk, std::chrono::duration<double>(timeout_s),
                           [&] { return done(); });
}

void BenchClient::on_message(sim::NodeId, const net::Buffer& payload) {
  core::VoteReplyMsg m;
  try {
    Reader r(payload.view());
    if (static_cast<core::MsgType>(r.u8()) != core::MsgType::kVoteReply) {
      return;
    }
    m = core::VoteReplyMsg::decode(r);
  } catch (const CodecError&) {
    return;
  }
  auto it = in_flight_.find(m.serial);
  if (it == in_flight_.end()) return;  // duplicate reply
  Clock::time_point now = Clock::now();
  const core::VoteTarget& t = targets_[it->second.target];
  if (m.status != core::VoteReplyStatus::kOk) {
    ++rejected_;
  } else if (m.receipt != t.receipt) {
    ++wrong_;
  } else {
    ++receipts_;
    if (it->second.target >= concurrency_) {
      latencies_ns_.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              now - it->second.sent)
              .count());
    }
    if (t.option >= by_option_.size()) by_option_.resize(t.option + 1, 0);
    ++by_option_[t.option];
    last_receipt_ = now;
  }
  in_flight_.erase(it);
  send_next();
  finish_if_drained();
}

double BenchClient::span_s() const {
  return std::chrono::duration<double>(last_receipt_ - first_send_).count();
}

std::vector<std::uint64_t> BenchClient::receipts_by_option(
    std::size_t m) const {
  std::vector<std::uint64_t> out(m, 0);
  for (std::size_t j = 0; j < m && j < by_option_.size(); ++j) {
    out[j] = by_option_[j];
  }
  return out;
}

}  // namespace perfbench
