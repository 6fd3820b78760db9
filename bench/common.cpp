#include "common.hpp"

#include <chrono>
#include <cstdio>

#include "core/messages.hpp"
#include "core/tcp_launcher.hpp"
#include "net/thread_net.hpp"
#include "util/error.hpp"
#include "util/proc_stats.hpp"

namespace ddemos::bench {

using namespace core;
using sim::NodeId;

std::size_t env_size(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  if (!v) return def;
  return static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

std::string env_str(const char* name, const char* def) {
  const char* v = std::getenv(name);
  return v ? v : def;
}

std::size_t resolve_n_ballots(const VoteCollectionConfig& cfg) {
  std::size_t n =
      cfg.n_ballots ? cfg.n_ballots : std::max<std::size_t>(cfg.casts, 2000);
  // Each cast targets a distinct serial; a universe smaller than the cast
  // count used to silently shrink the measured run to n_ballots casts.
  return std::max(n, cfg.casts);
}

VoteCollectionCampaign::VoteCollectionCampaign(VoteCollectionConfig cfg)
    : cfg_(std::move(cfg)), n_ballots_(resolve_n_ballots(cfg_)) {}

const PhaseSample& VoteCollectionCampaign::generate() {
  if (generated_) return setup_sample_;
  Instrumentation instr;  // no host yet: wall/allocation/RSS accounting
  instr.begin_phase("setup");

  ea::EaConfig ea_cfg;
  ea_cfg.params.election_id = to_bytes("bench-election");
  for (std::size_t i = 0; i < cfg_.options; ++i) {
    ea_cfg.params.options.push_back("opt" + std::to_string(i));
  }
  ea_cfg.params.n_voters = n_ballots_;
  ea_cfg.params.n_vc = cfg_.n_vc;
  ea_cfg.params.f_vc = cfg_.f_vc;
  ea_cfg.params.n_bb = 1;
  ea_cfg.params.f_bb = 0;
  ea_cfg.params.n_trustees = 1;
  ea_cfg.params.h_trustees = 1;
  ea_cfg.params.t_start = 0;
  // Far-away end: the benchmark measures the vote-collection phase only.
  ea_cfg.params.t_end = std::numeric_limits<std::int64_t>::max() / 4;
  ea_cfg.seed = cfg_.seed;
  ea_cfg.vc_only = true;

  ea_params_ = ea_cfg.params;

  // Generate ballots (streaming), capture the first `casts` as targets.
  // On the TCP backend no VC store is kept here at all: every node process
  // recomputes its own slice from (params, seed), so the launcher only
  // needs the vote targets.
  const bool tcp = cfg_.backend == Backend::kTcp;
  targets_.reserve(cfg_.casts);
  crypto::Rng pick(cfg_.seed ^ 0xabcdef);
  mem_ballots_.assign(cfg_.disk_store || tcp ? 0 : cfg_.n_vc, {});
  std::vector<std::unique_ptr<store::DiskBallotSource::Builder>> builders;
  if (cfg_.disk_store && !tcp) {
    for (std::size_t i = 0; i < cfg_.n_vc; ++i) {
      builders.push_back(std::make_unique<store::DiskBallotSource::Builder>(
          cfg_.disk_dir + "/vc" + std::to_string(i) + ".ballots"));
    }
  }
  arts_ = ea::ea_setup_streaming(
      ea_cfg, [&](const Ballot& ballot, std::span<VcBallotInit> per_vc) {
        if (targets_.size() < cfg_.casts) {
          std::size_t part = pick.below(kNumParts);
          std::size_t opt = pick.below(cfg_.options);
          const BallotLine& line = ballot.parts[part].lines[opt];
          targets_.push_back(
              core::VoteTarget{ballot.serial, line.vote_code, line.receipt});
        }
        for (std::size_t i = 0; i < per_vc.size(); ++i) {
          if (!builders.empty()) {
            builders[i]->add(per_vc[i]);
          } else if (!mem_ballots_.empty()) {
            mem_ballots_[i].push_back(per_vc[i]);
          }
        }
      });
  for (auto& b : builders) b->finish();

  generated_ = true;
  setup_sample_ = instr.end_phase();
  return setup_sample_;
}

VoteCollectionResult VoteCollectionCampaign::run_cell(
    std::size_t n_shards, const CheckpointFn& checkpoint,
    std::size_t checkpoint_every, bool final_cell) {
  if (!generated_) generate();
  const VoteCollectionConfig& cfg = cfg_;
  const bool tcp = cfg.backend == Backend::kTcp;
  if (tcp && cfg.disk_store) {
    throw ProtocolError(
        "tcp backend: disk-backed stores are per-node-process state; "
        "configure the node processes, not the launcher");
  }

  std::vector<std::shared_ptr<store::BallotDataSource>> sources(
      tcp ? 0 : cfg.n_vc);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (cfg.disk_store) {
      // One read handle per VC shard, so sharded disk-backed runs do not
      // serialize lookups behind a single FILE* lock.
      sources[i] = std::make_shared<store::DiskBallotSource>(
          cfg.disk_dir + "/vc" + std::to_string(i) + ".ballots",
          cfg.cache_pages, std::max<std::size_t>(n_shards, 1));
    } else if (final_cell) {
      // No later cell needs the master set: hand it over instead of
      // doubling resident memory (the accounting would report the copy).
      sources[i] = std::make_shared<store::MemoryBallotSource>(
          std::move(mem_ballots_[i]));
    } else {
      // Copy from the master set: a later cell needs the data again.
      sources[i] =
          std::make_shared<store::MemoryBallotSource>(mem_ballots_[i]);
    }
  }
  std::vector<core::VoteTarget> targets =
      final_cell ? std::move(targets_) : targets_;

  vc::VcNode::Options opts;
  opts.n_shards = std::max<std::size_t>(n_shards, 1);

  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<net::ThreadNet> net;
  std::unique_ptr<core::TcpLauncher> launcher;
  sim::RuntimeHost* host;
  if (tcp) {
    // One OS process per VC node; this process hosts only the load
    // generator. The spec ships the election parameters and this cell's
    // shard count — each node process rebuilds its ballots from the seed.
    core::TcpClusterSpec spec;
    spec.params = ea_params_;
    spec.seed = cfg.seed;
    spec.vc_only = true;
    spec.collection_only = true;
    spec.vc_options = opts;
    spec.durability = cfg.durability;
    launcher = std::make_unique<core::TcpLauncher>(std::move(spec));
    launcher->launch();
    host = &launcher->net();
  } else if (cfg.backend == Backend::kThreads) {
    net = std::make_unique<net::ThreadNet>();
    host = net.get();
  } else {
    sim = std::make_unique<sim::Simulation>(cfg.seed);
    sim->set_default_link(cfg.link);
    host = sim.get();
  }
  // The VC cluster, through the builder every backend uses. On TCP it
  // registers the remote VCs only: each node process builds its own.
  core::DriverConfig dcfg;
  dcfg.params = ea_params_;
  dcfg.seed = cfg.seed;
  dcfg.vc_options = opts;
  dcfg.durability = cfg.durability;
  if (!tcp) {
    dcfg.store_factory = [sources](const core::VcInit& init) {
      return sources[init.node_index];
    };
    // Bench cells are always fresh elections: drop any leftover log so
    // attach_wal never replays a previous cell's state.
    if (cfg.durability.enabled()) {
      for (std::size_t i = 0; i < cfg.n_vc; ++i) {
        std::remove(
            cfg.durability.wal_path("vc" + std::to_string(i)).c_str());
      }
    }
  }
  std::vector<NodeId> vc_ids =
      core::build_protocol_nodes(*host, arts_, dcfg).vc_ids;
  // The voter <-> VC link stays LAN-like even in the WAN experiment: the
  // paper emulates WAN latency between the VC nodes themselves.
  NodeId gen_id = host->add_node(
      std::make_unique<core::ClosedLoopClient>(std::move(targets), vc_ids,
                                               cfg.concurrency, cfg.seed ^ 0x1),
      "loadgen");
  if (sim && cfg.link.base_latency > 1000) {
    for (NodeId vc : vc_ids) {
      sim->set_link(gen_id, vc, sim::LinkModel::lan());
      sim->set_link(vc, gen_id, sim::LinkModel::lan());
    }
  }

  // Completion wait through the RuntimeHost surface: run until the closed
  // loop has drained every cast. The bench measures vote collection only,
  // so the tight probe interval keeps the sim from chasing far-future
  // election-end timers once the loop finishes.
  auto& gen = dynamic_cast<core::ClosedLoopClient&>(host->process(gen_id));
  sim::RunOptions run_opts;
  run_opts.probe_interval = 16;
  // Scale the stuck-run budget with the cast count so paper-size sweeps
  // (millions of casts) never trip it; it only exists to catch true hangs.
  run_opts.max_events =
      std::max<std::size_t>(50'000'000, cfg.casts * 10'000);
  // ThreadNet: generous wall cap scaled with the cast count (real crypto
  // per cast); it exists to catch hangs, not to bound the measurement.
  run_opts.wall_timeout_us = std::max<sim::Duration>(
      120'000'000, static_cast<sim::Duration>(cfg.casts) * 200'000);

  Instrumentation instr(host);
  sim::TimePoint virt_base = host->now();
  instr.begin_phase("collection");
  auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t events_base = host->events_dispatched();
  std::size_t next_mark = checkpoint_every;
  if (checkpoint && checkpoint_every) {
    run_opts.probe = [&] {
      // Probe hooks fire every probe_interval events, so a checkpoint
      // lands within a handful of events of its cast-count mark.
      std::size_t done_casts = gen.completed() + gen.rejected();
      if (done_casts < next_mark) return;
      Checkpoint cp;
      cp.completed = done_casts;
      cp.total = gen.target_count();
      cp.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - wall_start)
                      .count();
      cp.virtual_us = host->now();
      cp.events = host->events_dispatched() - events_base;
      cp.rss_kb = util::current_rss_kb();
      checkpoint(cp);
      while (next_mark <= done_casts) next_mark += checkpoint_every;
    };
  }
  // TCP cluster: C_GO to the node processes + start the local net. The
  // closed loop's completion predicate needs no remote state — every cast
  // resolves with a receipt arriving back at the load generator.
  if (launcher) launcher->go();
  if (!host->run_to_quiescence([&gen] { return gen.done(); }, run_opts)) {
    // The queue drained (or the wall budget lapsed) with casts unresolved
    // (e.g. a lossy link ate a vote): fail loudly rather than emit metrics
    // over partial counts.
    throw ProtocolError("benchmark stalled before completing every cast");
  }
  std::uint64_t remote_events = 0;
  if (launcher) {
    // Collect the node-process reports (stops the local net too) so the
    // cell's event accounting covers the whole cluster.
    for (const core::TcpProcessReport& rep : launcher->stop_cluster()) {
      remote_events += rep.events;
    }
  }
  host->stop();  // join ThreadNet workers before reading settled state
  if (gen.rejected() > 0) throw ProtocolError("benchmark vote rejected");

  VoteCollectionResult out;
  out.setup = setup_sample_;
  out.collection = instr.end_phase();
  out.collection.events += remote_events;
  // Between done() probes the sim can pop a few of the far-future
  // election-end timers, teleporting now() to t_end (~int64max/4); the
  // phase's meaningful virtual span ends at the last receipt — the same
  // span the throughput figure uses.
  if (gen.last_receipt() >= 0) {
    out.collection.virtual_s = std::min(
        out.collection.virtual_s,
        static_cast<double>(gen.last_receipt() - virt_base) / 1e6);
  }
  out.completed = gen.completed();
  out.mean_latency_ms = gen.mean_latency_us() / 1000.0;
  double span_s =
      static_cast<double>(gen.last_receipt() - gen.first_send()) / 1e6;
  out.throughput_ops = span_s > 0 ? gen.completed() / span_s : 0;
  return out;
}

VoteCollectionResult run_vote_collection(const VoteCollectionConfig& cfg) {
  VoteCollectionCampaign campaign(cfg);
  campaign.generate();
  // Single-use campaign: the only cell is the final one (moves the master
  // data instead of copying, matching the pre-campaign memory profile).
  return campaign.run_cell(cfg.n_shards, nullptr, 0, /*final_cell=*/true);
}

}  // namespace ddemos::bench
