#include "core/workload.hpp"

#include "core/messages.hpp"
#include "util/error.hpp"

namespace ddemos::core {

sim::TimePoint default_cast_time(const ElectionParams& params,
                                 std::size_t slot) {
  sim::Duration window = (params.t_end - params.t_start) * 3 / 4;
  return params.t_start +
         static_cast<sim::Duration>(static_cast<std::uint64_t>(window) *
                                    (slot + 1) / (params.n_voters + 1));
}

// --- VoteListWorkload (also serves RoundRobinWorkload) ----------------------

void VoteListWorkload::bind(const ElectionParams& params) {
  params_ = params;
  next_ = 0;
}

std::optional<VoteIntent> VoteListWorkload::next() {
  if (next_ >= params_.n_voters) return std::nullopt;
  std::size_t slot = next_++;
  VoteIntent in;
  in.slot = slot;
  in.option = slot < votes_.size() ? votes_[slot] : slot % params_.m();
  in.cast_at = cast_at_ ? cast_at_(slot) : default_cast_time(params_, slot);
  return in;
}

// --- RandomWorkload --------------------------------------------------------

void RandomWorkload::bind(const ElectionParams& params) {
  params_ = params;
  next_ = 0;
  rng_ = crypto::Rng(seed_);
}

std::optional<VoteIntent> RandomWorkload::next() {
  if (next_ >= params_.n_voters) return std::nullopt;
  std::size_t slot = next_++;
  VoteIntent in;
  in.slot = slot;
  // Draw both in a fixed order so the stream is a pure function of the
  // seed regardless of the abstention outcome.
  std::size_t option = rng_.below(params_.m());
  bool abstain = abstain_prob_ > 0 && rng_.uniform01() < abstain_prob_;
  in.option = abstain ? kAbstain : option;
  in.cast_at = cast_at_ ? cast_at_(slot) : default_cast_time(params_, slot);
  return in;
}

// --- ClosedLoopWorkload ----------------------------------------------------

void ClosedLoopWorkload::bind(const ElectionParams& params) {
  if (casts_ > params.n_voters) {
    throw ProtocolError("ClosedLoopWorkload: more casts than ballot slots");
  }
  options_ = params.m();
  next_ = 0;
  rng_ = crypto::Rng(seed_);
}

std::optional<VoteIntent> ClosedLoopWorkload::next() {
  if (next_ >= casts_) return std::nullopt;
  VoteIntent in;
  in.slot = next_++;
  in.option = rng_.below(options_);
  in.cast_at = kCastWhenReady;
  return in;
}

// --- DiskTraceWorkload -----------------------------------------------------

namespace {
constexpr std::uint64_t kTraceMagic = 0x44445452'43453031ull;  // "DDTRCE01"
// Header count until finish() backpatches the real one: readers reject it,
// so a Builder dropped without finish() cannot replay as an empty trace.
constexpr std::uint64_t kTraceUnfinished = ~0ull;

struct TraceRecord {
  std::uint64_t slot;
  std::uint64_t option;
  std::int64_t cast_at;
};
}  // namespace

DiskTraceWorkload::Builder::Builder(const std::string& path) {
  f_ = std::fopen(path.c_str(), "wb");
  if (!f_) throw ProtocolError("DiskTraceWorkload: cannot create " + path);
  std::uint64_t header[2] = {kTraceMagic, kTraceUnfinished};
  if (std::fwrite(header, sizeof(header), 1, f_) != 1) {
    std::fclose(f_);
    f_ = nullptr;
    throw ProtocolError("DiskTraceWorkload: cannot write header");
  }
}

DiskTraceWorkload::Builder::~Builder() {
  if (f_) std::fclose(f_);
}

void DiskTraceWorkload::Builder::add(std::size_t slot, std::size_t option,
                                     sim::TimePoint cast_at) {
  if (finished_) throw ProtocolError("DiskTraceWorkload: add after finish");
  TraceRecord rec{slot, option, cast_at};
  if (std::fwrite(&rec, sizeof(rec), 1, f_) != 1) {
    throw ProtocolError("DiskTraceWorkload: short write");
  }
  ++count_;
}

void DiskTraceWorkload::Builder::finish() {
  if (finished_) return;
  finished_ = true;
  // The count backpatch is what makes the trace readable; a silent failure
  // here would replay as an empty electorate, so every step is checked.
  bool ok =
      std::fseek(f_, static_cast<long>(sizeof(std::uint64_t)), SEEK_SET) == 0;
  ok = ok && std::fwrite(&count_, sizeof(count_), 1, f_) == 1;
  ok = std::fclose(f_) == 0 && ok;
  f_ = nullptr;
  if (!ok) throw ProtocolError("DiskTraceWorkload: failed to finalize trace");
}

DiskTraceWorkload::DiskTraceWorkload(const std::string& path) {
  f_ = std::fopen(path.c_str(), "rb");
  if (!f_) throw ProtocolError("DiskTraceWorkload: cannot open " + path);
  std::uint64_t header[2];
  if (std::fread(header, sizeof(header), 1, f_) != 1 ||
      header[0] != kTraceMagic) {
    std::fclose(f_);
    f_ = nullptr;
    throw ProtocolError("DiskTraceWorkload: bad trace header in " + path);
  }
  if (header[1] == kTraceUnfinished) {
    std::fclose(f_);
    f_ = nullptr;
    throw ProtocolError("DiskTraceWorkload: trace was never finalized "
                        "(Builder::finish not called): " + path);
  }
  count_ = header[1];
}

DiskTraceWorkload::~DiskTraceWorkload() {
  if (f_) std::fclose(f_);
}

void DiskTraceWorkload::bind(const ElectionParams&) {
  std::fseek(f_, static_cast<long>(2 * sizeof(std::uint64_t)), SEEK_SET);
  read_ = 0;
}

std::optional<VoteIntent> DiskTraceWorkload::next() {
  if (read_ >= count_) return std::nullopt;
  TraceRecord rec;
  if (std::fread(&rec, sizeof(rec), 1, f_) != 1) {
    throw ProtocolError("DiskTraceWorkload: truncated trace");
  }
  ++read_;
  VoteIntent in;
  in.slot = rec.slot;
  in.option = rec.option;
  in.cast_at = rec.cast_at;
  return in;
}

// --- ClosedLoopClient ------------------------------------------------------

ClosedLoopClient::ClosedLoopClient(std::vector<VoteTarget> targets,
                                   std::vector<sim::NodeId> vc_ids,
                                   std::size_t concurrency,
                                   std::uint64_t seed)
    : targets_(std::move(targets)),
      vc_ids_(std::move(vc_ids)),
      concurrency_(concurrency),
      rng_(seed) {}

void ClosedLoopClient::on_start() {
  first_send_ = ctx().now();
  for (std::size_t i = 0; i < concurrency_ && next_ < targets_.size(); ++i) {
    send_next();
  }
}

void ClosedLoopClient::send_next() {
  if (next_ >= targets_.size()) return;
  const VoteTarget& t = targets_[next_];
  in_flight_[t.serial] = {ctx().now(), next_++};
  sim::NodeId vc = vc_ids_[rng_.below(vc_ids_.size())];
  ctx().send(vc, VoteMsg{t.serial, t.code}.encode());
}

void ClosedLoopClient::on_message(sim::NodeId, const net::Buffer& payload) {
  try {
    Reader r(payload.view());
    if (static_cast<MsgType>(r.u8()) != MsgType::kVoteReply) return;
    VoteReplyMsg m = VoteReplyMsg::decode(r);
    auto it = in_flight_.find(m.serial);
    if (it == in_flight_.end()) return;
    const VoteTarget& t = targets_[it->second.second];
    if (m.status != VoteReplyStatus::kOk || m.receipt != t.receipt) {
      // Never throw out of a handler: on ThreadNet that would escape the
      // worker thread and terminate the process. Rejections, and receipts
      // that differ from the printed one, are counted and surfaced through
      // rejected(); the cast still frees its concurrency slot so the loop
      // drains.
      ++rejected_;
      in_flight_.erase(it);
      send_next();
      return;
    }
    latency_sum_us_ += static_cast<double>(ctx().now() - it->second.first);
    ++latency_count_;
    if (t.option != kAbstain) {
      if (t.option >= option_tally_.size()) {
        option_tally_.resize(t.option + 1, 0);
      }
      ++option_tally_[t.option];
    }
    in_flight_.erase(it);
    ++completed_;
    last_receipt_ = ctx().now();
    send_next();
  } catch (const CodecError&) {
  }
}

std::vector<std::uint64_t> ClosedLoopClient::completed_by_option(
    std::size_t m) const {
  std::vector<std::uint64_t> out(m, 0);
  for (std::size_t j = 0; j < m && j < option_tally_.size(); ++j) {
    out[j] = option_tally_[j];
  }
  return out;
}

}  // namespace ddemos::core
