#include "core/driver.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "util/error.hpp"
#include "util/proc_stats.hpp"

namespace ddemos::core {

using sim::NodeId;

ElectionTopology build_protocol_nodes(sim::RuntimeHost& host,
                                      const ea::SetupArtifacts& artifacts,
                                      const DriverConfig& cfg) {
  const std::size_t n_vc = cfg.params.n_vc;
  ElectionTopology topo;

  // VC nodes take host ids 0..Nv-1 (the convention BB nodes use to
  // identify authenticated VC writers); the BBs follow.
  std::vector<NodeId> vc_ids(n_vc), bb_ids(artifacts.bb_inits.size());
  for (std::size_t i = 0; i < n_vc; ++i) vc_ids[i] = static_cast<NodeId>(i);
  for (std::size_t i = 0; i < bb_ids.size(); ++i) {
    bb_ids[i] = static_cast<NodeId>(n_vc + i);
  }
  // Durability: each locally hosted VC/BB node gets a WAL at
  // <wal_dir>/<node name>.wal, replayed (crash recovery) before the host
  // starts. Remote placeholders (multi-process clusters) get theirs from
  // the process that actually hosts them — this same code, running there.
  auto wal_for = [&](NodeId id) -> std::unique_ptr<store::Wal> {
    if (!cfg.durability.enabled() || !host.is_local(id)) return nullptr;
    return std::make_unique<store::Wal>(
        cfg.durability.wal_path(host.node_name(id)),
        cfg.durability.wal_options());
  };
  for (std::size_t i = 0; i < n_vc; ++i) {
    const VcInit& init = artifacts.vc_inits[i];
    std::shared_ptr<store::BallotDataSource> source =
        cfg.store_factory
            ? cfg.store_factory(init)
            : std::make_shared<store::MemoryBallotSource>(init.ballots);
    NodeId id = host.add_node(
        std::make_unique<vc::VcNode>(init, std::move(source), vc_ids, bb_ids,
                                     cfg.vc_options),
        "vc" + std::to_string(i));
    if (auto wal = wal_for(id)) {
      dynamic_cast<vc::VcNode&>(host.process(id)).attach_wal(std::move(wal));
    }
    topo.vc_ids.push_back(id);
  }
  for (std::size_t i = 0; i < bb_ids.size(); ++i) {
    NodeId id = host.add_node(
        std::make_unique<bb::BbNode>(artifacts.bb_inits[i]),
        "bb" + std::to_string(i));
    if (auto wal = wal_for(id)) {
      dynamic_cast<bb::BbNode&>(host.process(id)).attach_wal(std::move(wal));
    }
    topo.bb_ids.push_back(id);
  }
  for (std::size_t i = 0; i < artifacts.trustee_inits.size(); ++i) {
    NodeId id = host.add_node(
        std::make_unique<trustee::TrusteeNode>(artifacts.trustee_inits[i],
                                               topo.bb_ids,
                                               cfg.trustee_options),
        "trustee" + std::to_string(i));
    topo.trustee_ids.push_back(id);
  }
  return topo;
}

void build_clients(sim::RuntimeHost& host,
                   const ea::SetupArtifacts& artifacts,
                   const DriverConfig& cfg, ElectionTopology& topo) {
  const ElectionParams& p = cfg.params;
  // Stream the voter workload: one Voter node per open-loop intent, or one
  // multiplexing ClosedLoopClient for closed-loop sources. The workload is
  // the only description of the electorate — no O(n_voters) vectors.
  std::shared_ptr<Workload> workload =
      cfg.workload ? cfg.workload : RoundRobinWorkload::make();
  workload->bind(p);
  // Shared intent validation for both client shapes. Slots are bounded by
  // the configured electorate AND by the ballots the (possibly reused)
  // artifacts actually carry.
  auto next_intent = [&]() -> std::optional<VoteIntent> {
    while (auto in = workload->next()) {
      if (in->option == kAbstain) continue;
      if (in->slot >= p.n_voters ||
          in->slot >= artifacts.voter_ballots.size() || in->option >= p.m()) {
        throw ProtocolError("workload intent out of range");
      }
      return in;
    }
    return std::nullopt;
  };
  if (workload->concurrency() > 0) {
    if (artifacts.voter_ballots.empty()) {
      throw ProtocolError(
          "closed-loop workload needs the EA's printed ballots");
    }
    crypto::Rng part_rng(cfg.seed ^ 0x9e3779b97f4a7c15ull);
    std::vector<VoteTarget> targets;
    std::unordered_set<std::size_t> seen_slots;
    while (auto in = next_intent()) {
      // The client keys in-flight casts by serial; a duplicate slot would
      // silently wedge the loop (the overwritten entry never resolves).
      if (!seen_slots.insert(in->slot).second) {
        throw ProtocolError("closed-loop workload yields duplicate slot");
      }
      const Ballot& ballot = artifacts.voter_ballots[in->slot];
      std::size_t part = part_rng.below(kNumParts);
      const BallotLine& line = ballot.parts[part].lines[in->option];
      targets.push_back(
          VoteTarget{ballot.serial, line.vote_code, line.receipt, in->option});
    }
    topo.load_client_id = host.add_node(
        std::make_unique<ClosedLoopClient>(std::move(targets), topo.vc_ids,
                                           workload->concurrency(),
                                           cfg.seed ^ 0x1),
        "loadgen");
    return;
  }
  while (auto in = next_intent()) {
    if (in->cast_at == kCastWhenReady) {
      throw ProtocolError(
          "kCastWhenReady intent from an open-loop workload");
    }
    client::Voter::Config vcfg = cfg.voter_template;
    vcfg.ballot = artifacts.voter_ballots[in->slot];
    vcfg.option_index = in->option;
    vcfg.vc_ids = topo.vc_ids;
    vcfg.seed = cfg.seed * 1000003 + in->slot;
    vcfg.vote_at = in->cast_at;
    NodeId id = host.add_node(std::make_unique<client::Voter>(vcfg),
                              "voter" + std::to_string(in->slot));
    topo.voter_ids.push_back(id);
    topo.voter_slots.push_back(VoterSlot{in->slot, in->option});
  }
}

ElectionTopology build_election(sim::RuntimeHost& host,
                                const ea::SetupArtifacts& artifacts,
                                const DriverConfig& cfg) {
  ElectionTopology topo = build_protocol_nodes(host, artifacts, cfg);
  build_clients(host, artifacts, cfg, topo);
  return topo;
}

namespace {

void encode_vc_stats(Writer& w, const vc::VcStats& s) {
  w.u64(s.votes_received);
  w.u64(s.receipts_issued);
  w.u64(s.rejected_votes);
  w.u64(static_cast<std::uint64_t>(s.voting_ended_at));
  w.u64(static_cast<std::uint64_t>(s.consensus_done_at));
  w.u64(static_cast<std::uint64_t>(s.push_done_at));
}

vc::VcStats decode_vc_stats(Reader& r) {
  vc::VcStats s;
  s.votes_received = r.u64();
  s.receipts_issued = r.u64();
  s.rejected_votes = r.u64();
  s.voting_ended_at = static_cast<sim::TimePoint>(r.u64());
  s.consensus_done_at = static_cast<sim::TimePoint>(r.u64());
  s.push_done_at = static_cast<sim::TimePoint>(r.u64());
  return s;
}

void encode_shard_stats(Writer& w, const vc::VcShardStats& s) {
  w.u64(s.handled_messages);
  w.u64(s.votes_received);
  w.u64(s.receipts_issued);
  w.u64(s.rejected_votes);
  w.u64(s.endorsements_signed);
  w.u64(s.signature_batches);
  w.u64(s.signature_checks);
  w.u64(s.queue_high_water);
}

vc::VcShardStats decode_shard_stats(Reader& r) {
  vc::VcShardStats s;
  s.handled_messages = r.u64();
  s.votes_received = r.u64();
  s.receipts_issued = r.u64();
  s.rejected_votes = r.u64();
  s.endorsements_signed = r.u64();
  s.signature_batches = r.u64();
  s.signature_checks = r.u64();
  s.queue_high_water = r.u64();
  return s;
}

}  // namespace

void TcpNodeReport::encode(Writer& w) const {
  w.u32(node_id);
  w.u8(kind);
  encode_vc_stats(w, vc_stats);
  w.vec(vc_shard_stats,
        [](Writer& w2, const vc::VcShardStats& s) { encode_shard_stats(w2, s); });
  w.vec(vote_set,
        [](Writer& w2, const VoteSetEntry& e) { e.encode(w2); });
  w.boolean(result_published);
  w.vec(tally, [](Writer& w2, std::uint64_t t) { w2.u64(t); });
  w.u64(static_cast<std::uint64_t>(codes_published_at));
  w.u64(static_cast<std::uint64_t>(result_published_at));
}

TcpNodeReport TcpNodeReport::decode(Reader& r) {
  TcpNodeReport n;
  n.node_id = r.u32();
  n.kind = r.u8();
  n.vc_stats = decode_vc_stats(r);
  n.vc_shard_stats = r.vec<vc::VcShardStats>(
      [](Reader& r2) { return decode_shard_stats(r2); });
  n.vote_set =
      r.vec<VoteSetEntry>([](Reader& r2) { return VoteSetEntry::decode(r2); });
  n.result_published = r.boolean();
  n.tally = r.vec<std::uint64_t>([](Reader& r2) { return r2.u64(); });
  n.codes_published_at = static_cast<sim::TimePoint>(r.u64());
  n.result_published_at = static_cast<sim::TimePoint>(r.u64());
  return n;
}

std::vector<TcpNodeReport> harvest_nodes(
    sim::RuntimeHost& host, const ElectionTopology& topo,
    const std::function<bool(NodeId)>& hosted) {
  std::vector<TcpNodeReport> rows;
  for (NodeId id : topo.vc_ids) {
    if (!hosted(id)) continue;
    const auto& vc = dynamic_cast<const vc::VcNode&>(host.process(id));
    TcpNodeReport n;
    n.node_id = id;
    n.kind = TcpNodeReport::kVc;
    n.vc_stats = vc.stats();
    n.vc_shard_stats = vc.shard_stats();
    // The mailbox high-water is runtime bookkeeping (per-shard queues only
    // exist on the threaded hosts); merge it into the per-shard rows here.
    std::vector<std::size_t> depth = host.shard_queue_high_water(id);
    for (std::size_t s = 0; s < n.vc_shard_stats.size() && s < depth.size();
         ++s) {
      n.vc_shard_stats[s].queue_high_water = depth[s];
    }
    n.vote_set = vc.final_vote_set();
    rows.push_back(std::move(n));
  }
  for (NodeId id : topo.bb_ids) {
    if (!hosted(id)) continue;
    const auto& bb = dynamic_cast<const bb::BbNode&>(host.process(id));
    TcpNodeReport n;
    n.node_id = id;
    n.kind = TcpNodeReport::kBb;
    n.result_published = bb.result_published();
    if (bb.result()) n.tally = bb.result()->tally;
    n.codes_published_at = bb.codes_published_at();
    n.result_published_at = bb.result_published_at();
    rows.push_back(std::move(n));
  }
  return rows;
}

ElectionReport merge_node_reports(const ElectionParams& params,
                                  std::size_t n_shards,
                                  const std::vector<TcpNodeReport>& rows) {
  ElectionReport r;
  r.phases.t_start = params.t_start;
  r.phases.t_end = params.t_end;
  r.vc_stats.assign(params.n_vc, vc::VcStats{});
  r.vc_shard_stats.assign(params.n_vc,
                          std::vector<vc::VcShardStats>(n_shards));
  // Fail closed: an election with no live BB never "completes".
  bool any_bb = false;
  bool all_published = true;
  std::vector<sim::TimePoint> voting_ended, consensus_done, push_done;
  for (const TcpNodeReport& node : rows) {
    if (node.kind == TcpNodeReport::kVc) {
      if (node.node_id >= params.n_vc) continue;
      const vc::VcStats& s = node.vc_stats;
      voting_ended.push_back(s.voting_ended_at);
      consensus_done.push_back(s.consensus_done_at);
      push_done.push_back(s.push_done_at);
      r.vc_stats[node.node_id] = s;
      r.vc_shard_stats[node.node_id] = node.vc_shard_stats;
      if (r.vote_set.empty()) r.vote_set = node.vote_set;
      r.vc_totals.votes_received += s.votes_received;
      r.vc_totals.receipts_issued += s.receipts_issued;
      r.vc_totals.rejected_votes += s.rejected_votes;
      r.vc_totals.voting_ended_at =
          std::max(r.vc_totals.voting_ended_at, s.voting_ended_at);
      r.vc_totals.consensus_done_at =
          std::max(r.vc_totals.consensus_done_at, s.consensus_done_at);
      r.vc_totals.push_done_at =
          std::max(r.vc_totals.push_done_at, s.push_done_at);
    } else if (node.kind == TcpNodeReport::kBb) {
      any_bb = true;
      all_published = all_published && node.result_published;
      if (r.tally.empty() && node.result_published) r.tally = node.tally;
      r.phases.tally_published_at =
          std::max(r.phases.tally_published_at, node.codes_published_at);
      r.phases.result_published_at =
          std::max(r.phases.result_published_at, node.result_published_at);
    }
  }
  // A VC phase ends when n_vc - f_vc VCs are past it: the BBs publish once
  // that many VCs have pushed, so the slowest VC may finish after the tally
  // and its stamp (kept in vc_totals) would order the phases wrongly.
  auto quorum_stamp = [&](std::vector<sim::TimePoint>& at) -> sim::TimePoint {
    std::size_t k = std::min(at.size(), params.vc_quorum());
    if (k == 0) return 0;
    auto kth = at.begin() + static_cast<std::ptrdiff_t>(k - 1);
    std::nth_element(at.begin(), kth, at.end());
    return *kth;
  };
  r.phases.voting_ended_at = quorum_stamp(voting_ended);
  r.phases.consensus_done_at = quorum_stamp(consensus_done);
  r.phases.push_done_at = quorum_stamp(push_done);
  r.completed = any_bb && all_published;
  return r;
}

void harvest_clients(sim::RuntimeHost& host, const ElectionTopology& topo,
                     std::size_t n_options, ElectionReport& r) {
  r.expected_tally.assign(n_options, 0);
  if (topo.load_client_id != sim::kNoNode) {
    const auto& client =
        dynamic_cast<const ClosedLoopClient&>(host.process(topo.load_client_id));
    r.voters_launched = client.target_count();
    r.receipts_issued = client.completed();
    r.expected_tally = client.completed_by_option(n_options);
    r.phases.last_receipt_at = std::max<sim::TimePoint>(
        r.phases.last_receipt_at, client.last_receipt());
    return;
  }
  r.voters_launched = topo.voter_ids.size();
  for (std::size_t i = 0; i < topo.voter_ids.size(); ++i) {
    const auto& voter =
        dynamic_cast<const client::Voter&>(host.process(topo.voter_ids[i]));
    if (!voter.has_receipt()) continue;
    ++r.receipts_issued;
    ++r.expected_tally[topo.voter_slots[i].option];
    r.receipts.push_back(voter.expected_receipt());
    r.phases.last_receipt_at =
        std::max(r.phases.last_receipt_at, voter.receipt_at());
  }
}

ElectionDriver::ElectionDriver(DriverConfig config)
    : cfg_(std::move(config)),
      owned_sim_(std::make_unique<sim::Simulation>(
          cfg_.seed ^ 0x5151515151515151ull)) {
  host_ = owned_sim_.get();
  sim_ = owned_sim_.get();
  init();
}

ElectionDriver::ElectionDriver(sim::RuntimeHost& host, DriverConfig config)
    : cfg_(std::move(config)) {
  host_ = &host;
  sim_ = dynamic_cast<sim::Simulation*>(&host);
  init();
}

void ElectionDriver::init() {
  observers_ = cfg_.observers;
  if (cfg_.artifacts) {
    artifacts_ = cfg_.artifacts;
  } else {
    auto arts = std::make_shared<ea::SetupArtifacts>(
        ea::ea_setup({cfg_.params, cfg_.seed}));
    if (cfg_.tamper_setup) cfg_.tamper_setup(*arts);
    artifacts_ = std::move(arts);
  }
  for (ElectionObserver* o : observers_) o->on_setup_complete(*artifacts_);

  if (owned_sim_) {
    // Backend knobs configure the driver-owned simulator only; an external
    // backend belongs to the caller (its link model etc. stay untouched).
    sim_->set_default_link(cfg_.link);
  }
  if (!sim_ && (!cfg_.crashed_vcs.empty() || !cfg_.crashed_bbs.empty() ||
                !cfg_.crashed_trustees.empty())) {
    throw ProtocolError("crash injection requires the simulator backend");
  }
  topo_ = build_election(*host_, *artifacts_, cfg_);
  if (sim_) {
    for (std::size_t i : cfg_.crashed_vcs) sim_->crash(topo_.vc_ids.at(i));
    for (std::size_t i : cfg_.crashed_bbs) sim_->crash(topo_.bb_ids.at(i));
    for (std::size_t i : cfg_.crashed_trustees) {
      sim_->crash(topo_.trustee_ids.at(i));
    }
  }
  for (NodeId id : topo_.vc_ids) {
    vcs_.push_back(&dynamic_cast<vc::VcNode&>(host_->process(id)));
  }
  for (NodeId id : topo_.bb_ids) {
    bbs_.push_back(&dynamic_cast<bb::BbNode&>(host_->process(id)));
  }
  if (topo_.load_client_id != sim::kNoNode) {
    client_ = &dynamic_cast<ClosedLoopClient&>(
        host_->process(topo_.load_client_id));
  }
  for (ElectionObserver* o : observers_) o->on_election_built(topo_);
}

void ElectionDriver::add_observer(ElectionObserver* observer) {
  observers_.push_back(observer);
}

bool ElectionDriver::crashed(NodeId id) const {
  return sim_ && sim_->crashed(id);
}

bool ElectionDriver::completion_reached() const {
  for (std::size_t i = 0; i < bbs_.size(); ++i) {
    if (!crashed(topo_.bb_ids[i]) && !bbs_[i]->result_published()) {
      return false;
    }
  }
  for (std::size_t i = 0; i < vcs_.size(); ++i) {
    if (!crashed(topo_.vc_ids[i]) && !vcs_[i]->push_complete()) return false;
  }
  if (client_ && !client_->done()) return false;
  return true;
}

void ElectionDriver::probe_phases() {
  if (observers_.empty()) return;
  sim::TimePoint at = host_->now();
  auto fire = [&](ElectionPhase phase) {
    for (ElectionObserver* o : observers_) o->on_phase_entered(phase, at);
  };
  if (!consensus_seen_) {
    bool all = true;
    for (std::size_t i = 0; i < vcs_.size(); ++i) {
      if (crashed(topo_.vc_ids[i])) continue;
      all = all && vcs_[i]->phase() != vc::Phase::kVoting;
    }
    if (all) {
      consensus_seen_ = true;
      fire(ElectionPhase::kConsensus);
    }
  }
  if (consensus_seen_ && !tally_seen_) {
    bool all = true;
    for (std::size_t i = 0; i < bbs_.size(); ++i) {
      if (crashed(topo_.bb_ids[i])) continue;
      all = all && bbs_[i]->codes_published();
    }
    if (all) {
      tally_seen_ = true;
      fire(ElectionPhase::kTally);
    }
  }
  if (tally_seen_ && !result_seen_) {
    bool all = true;
    for (std::size_t i = 0; i < bbs_.size(); ++i) {
      if (crashed(topo_.bb_ids[i])) continue;
      all = all && bbs_[i]->result_published();
    }
    if (all) {
      result_seen_ = true;
      fire(ElectionPhase::kResult);
    }
  }
}

ElectionReport ElectionDriver::run() {
  auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t alloc_base = net::Buffer::payload_allocations();
  std::uint64_t events_base = host_->events_dispatched();
  std::uint64_t delivered_base = sim_ ? sim_->delivered_messages() : 0;
  std::uint64_t dropped_base = sim_ ? sim_->dropped_messages() : 0;

  sim::RunOptions opts;
  opts.max_events = cfg_.max_events;
  opts.wall_timeout_us = cfg_.wall_timeout_us;
  opts.probe_interval = cfg_.probe_interval;
  opts.probe = [this] { probe_phases(); };

  for (ElectionObserver* o : observers_) {
    o->on_phase_entered(ElectionPhase::kVoting, host_->now());
  }
  bool done_in_budget;
  if (sim_) {
    // Natural quiescence keeps the simulator's established semantics (and
    // bit-identical timings): drain the queue, then check completion.
    done_in_budget = sim_->run_to_quiescence(nullptr, opts);
  } else {
    done_in_budget = host_->run_to_quiescence(
        [this] { return completion_reached(); }, opts);
  }
  // ThreadNet joins its workers here so the harvest below reads settled
  // node state; a no-op on the simulator.
  host_->stop();
  // Final probe over settled state: phase hooks the in-run probes raced
  // past (e.g. the completion wait returning the moment `done` held).
  probe_phases();

  // A crashed node gives no row, like a killed node process on TcpNet.
  report_ = merge_node_reports(
      cfg_.params, cfg_.vc_options.n_shards,
      harvest_nodes(*host_, topo_, [this](NodeId id) { return !crashed(id); }));
  report_.completed = report_.completed && done_in_budget;
  harvest_clients(*host_, topo_, cfg_.params.m(), report_);
  report_.events_processed = host_->events_dispatched() - events_base;
  if (sim_) {
    report_.messages_delivered = sim_->delivered_messages() - delivered_base;
    report_.messages_dropped = sim_->dropped_messages() - dropped_base;
  }
  report_.payload_allocations =
      net::Buffer::payload_allocations() - alloc_base;
  report_.peak_rss_kb = util::peak_rss_kb();
  report_.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - wall_start)
          .count();
  for (ElectionObserver* o : observers_) o->on_complete(report_);
  return report_;
}

sim::Simulation& ElectionDriver::simulation() {
  if (!sim_) {
    throw ProtocolError("ElectionDriver: backend is not the simulator");
  }
  return *sim_;
}

vc::VcNode& ElectionDriver::vc_node(std::size_t i) { return *vcs_.at(i); }

bb::BbNode& ElectionDriver::bb_node(std::size_t i) { return *bbs_.at(i); }

trustee::TrusteeNode& ElectionDriver::trustee_node(std::size_t i) {
  return dynamic_cast<trustee::TrusteeNode&>(
      host_->process(topo_.trustee_ids.at(i)));
}

client::Voter& ElectionDriver::voter(std::size_t i) {
  return dynamic_cast<client::Voter&>(host_->process(topo_.voter_ids.at(i)));
}

ClosedLoopClient* ElectionDriver::load_client() { return client_; }

std::vector<const bb::BbNode*> ElectionDriver::bb_views() const {
  std::vector<const bb::BbNode*> views;
  for (std::size_t i = 0; i < bbs_.size(); ++i) {
    if (!crashed(topo_.bb_ids[i])) views.push_back(bbs_[i]);
  }
  return views;
}

std::vector<std::uint64_t> ElectionDriver::expected_tally() const {
  // After run() the answer is already in the retained report; only a
  // pre-run query pays for a fresh client harvest.
  if (!report_.expected_tally.empty()) return report_.expected_tally;
  ElectionReport r;
  harvest_clients(*host_, topo_, cfg_.params.m(), r);
  return r.expected_tally;
}

}  // namespace ddemos::core
