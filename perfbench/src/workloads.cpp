#include "workloads.hpp"

#include <dirent.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <thread>

#include "client.hpp"
#include "client/auditor.hpp"
#include "core/driver.hpp"
#include "core/tcp_launcher.hpp"
#include "ea/ea.hpp"
#include "net/thread_net.hpp"
#include "trace_host.hpp"
#include "util/proc_stats.hpp"

namespace perfbench {

using namespace ddemos;
namespace fs = std::filesystem;

namespace {

constexpr std::size_t kOptions = 4;  // m, as in the paper's experiments
constexpr std::size_t kVcs = 4;      // Nv = 4, f = 1

std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  return seed * 0x9e3779b97f4a7c15ull + round * 0x632be59bd9b4e019ull + 1;
}

core::ElectionParams base_params(std::size_t n_voters) {
  core::ElectionParams p;
  p.election_id = to_bytes("perfbench");
  for (std::size_t i = 0; i < kOptions; ++i) {
    p.options.push_back("option" + std::to_string(i));
  }
  p.n_voters = n_voters;
  p.n_vc = kVcs;
  p.f_vc = 1;
  return p;
}

// The vote each voter casts: a seeded choice of ballot part and option.
core::VoteTarget pick_target(const core::Ballot& ballot, crypto::Rng& rng) {
  std::size_t part = rng.below(core::kNumParts);
  std::size_t option = rng.below(kOptions);
  const core::BallotLine& line = ballot.parts[part].lines[option];
  return core::VoteTarget{ballot.serial, line.vote_code, line.receipt, option};
}

// A fresh, empty directory for one round's write-ahead logs. A log left by
// an earlier run would be replayed by the new cluster, so a non-empty
// directory is refused rather than reused.
std::string fresh_dir(const RunOptions& opt, const std::string& tag) {
  fs::path dir = fs::path(opt.work_dir) /
                 (opt.workload + "-" + std::to_string(::getpid()) + "-" + tag);
  fs::create_directories(dir);
  if (!fs::is_empty(dir)) {
    throw std::runtime_error("work directory not empty: " + dir.string());
  }
  return dir.string();
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

// CPU seconds used so far by this process (all threads).
double self_cpu_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Peak RSS of this process in MiB.
double self_peak_rss_mb() {
  return static_cast<double>(util::peak_rss_kb()) / 1024.0;
}

// CPU seconds used so far by this process's live child processes (the
// TcpNet node processes), read from /proc/<pid>/stat.
double children_cpu_s() {
  static const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  const pid_t self = ::getpid();
  double total = 0;
  DIR* d = ::opendir("/proc");
  if (!d) return 0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] < '0' || e->d_name[0] > '9') continue;
    std::string path = std::string("/proc/") + e->d_name + "/stat";
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (!f) continue;
    char buf[1024];
    std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    // Fields after the parenthesised command name: state ppid ... utime
    // (14th field overall) stime (15th).
    const char* rest = std::strrchr(buf, ')');
    if (!rest || rest[1] != ' ') continue;
    char state = 0;
    long ppid = 0;
    unsigned long long utime = 0, stime = 0;
    if (std::sscanf(rest + 2,
                    "%c %ld %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                    &state, &ppid, &utime, &stime) == 4 &&
        ppid == self) {
      total += static_cast<double>(utime + stime) / tick;
    }
  }
  ::closedir(d);
  return total;
}

// Generated inputs of one vote-collection round: the EA's per-VC ballot
// data (vc_only mode, streamed) and the vote every ballot's voter casts.
struct CastUniverse {
  core::ElectionParams params;
  ea::SetupArtifacts arts;
  std::vector<std::vector<core::VcBallotInit>> ballots;  // per VC
  std::vector<core::VoteTarget> targets;
  double ea_s = 0;
};

CastUniverse make_cast_universe(std::uint64_t seed, std::size_t n_ballots,
                                bool keep_ballots) {
  CastUniverse u;
  u.params = base_params(n_ballots);
  u.params.n_bb = 1;
  u.params.n_trustees = 1;
  u.params.h_trustees = 1;
  // Polls never close: these workloads measure vote collection only.
  u.params.t_end = std::numeric_limits<std::int64_t>::max() / 4;
  crypto::Rng pick(seed ^ 0x7a26e7);
  u.ballots.assign(keep_ballots ? kVcs : 0, {});
  u.targets.reserve(n_ballots);
  Clock::time_point t0 = Clock::now();
  u.arts = ea::ea_setup_streaming(
      {u.params, seed, /*vc_only=*/true, 64},
      [&](const core::Ballot& ballot, std::span<core::VcBallotInit> per_vc) {
        u.targets.push_back(pick_target(ballot, pick));
        for (std::size_t i = 0; i < u.ballots.size(); ++i) {
          u.ballots[i].push_back(std::move(per_vc[i]));
        }
      });
  u.ea_s = seconds_since(t0);
  return u;
}

// Outcome of one vote-collection round.
struct CastRound {
  double setup_s = 0, ea_s = 0;
  std::size_t ballots = 0, receipts = 0;
  std::vector<std::int64_t> lat_ns;
  double span_s = 0, cpu_s = 0, wall_s = 0;
  double peak_rss_mb = 0;
  std::uint64_t wal_bytes = 0, events = 0;
  std::uint64_t frames_sent = 0, frames_dropped = 0, reconnects = 0;

  double receipts_per_s() const { return span_s > 0 ? receipts / span_s : 0; }
  double p50_ms() const { return quantile(lat_ns, 0.5) / 1e6; }
  double p99_ms() const { return quantile(lat_ns, 0.99) / 1e6; }
};

void harvest_client(const BenchClient& c, CastRound& out, Result& r) {
  out.receipts = c.receipts();
  out.lat_ns = c.latencies_ns();
  out.span_s = c.span_s();
  if (c.rejected()) r.fail(std::to_string(c.rejected()) + " casts rejected");
  if (c.wrong_receipts()) {
    r.fail(std::to_string(c.wrong_receipts()) +
           " receipts differ from the printed ballot");
  }
  if (c.unresolved()) {
    r.fail(std::to_string(c.unresolved()) + " casts never answered");
  }
  if (out.receipts == 0) r.fail("no receipt issued");
  r.attempted += c.attempted();
  r.failed += c.rejected() + c.wrong_receipts() + c.unresolved();
}

void tamper_receipt(const RunOptions& opt, std::vector<core::VoteTarget>& t) {
  if (opt.tamper == "receipt" && !t.empty()) t.front().receipt ^= 1;
}

// Per-layer metrics of a traced run read from the tracing decorator, per
// correct receipt of the run.
void add_trace_layers(Result& r, const TracingHost& host,
                      std::size_t n_receipts) {
  double receipts = std::max<double>(1, n_receipts);
  std::uint64_t vc_busy = 0, vc_calls = 0, msgs = 0, bytes = 0;
  std::uint64_t client_busy = 0;
  std::size_t high_water = 0;
  std::vector<std::int64_t> waits;
  std::vector<const NodeTrace*> traces = host.traces();
  for (std::size_t id = 0; id < traces.size(); ++id) {
    const NodeTrace& t = *traces[id];
    msgs += t.msgs_sent.load();
    bytes += t.bytes_sent.load();
    if (t.name.rfind("vc", 0) == 0) {
      vc_busy += t.busy_ns.load();
      vc_calls += t.calls.load();
      waits.insert(waits.end(), t.waits_ns.begin(), t.waits_ns.end());
      for (std::size_t hw :
           host.shard_queue_high_water(static_cast<sim::NodeId>(id))) {
        high_water = std::max(high_water, hw);
      }
    } else if (t.name == "client") {
      client_busy += t.busy_ns.load();
    }
  }
  r.layer("vc.busy_us_per_receipt", vc_busy / 1e3 / receipts, "us");
  r.layer("vc.handler_calls_per_receipt", vc_calls / receipts, "count");
  r.layer("vc.wait_p50_us", quantile(waits, 0.5) / 1e3, "us");
  r.layer("vc.wait_p99_us", quantile(waits, 0.99) / 1e3, "us");
  r.layer("vc.shard_queue_high_water", static_cast<double>(high_water),
          "count");
  r.layer("client.busy_us_per_receipt", client_busy / 1e3 / receipts, "us");
  r.layer("net.msgs_per_receipt", msgs / receipts, "count");
  r.layer("net.bytes_per_receipt", bytes / receipts, "B");
}

// The closed loop of one round.
struct CastLoad {
  std::size_t ballots = 0;      // ballot universe generated for the round
  std::size_t concurrency = 1;  // casts in flight
  double seconds = 0;           // issue casts for this long,
  std::size_t min_casts = 0;    // but at least this many
};

// One vote-collection round on ThreadNet: four VC nodes (one shard each)
// and the benchmark client in this process, optionally with a WAL on
// every VC and optionally traced.
CastRound thread_cast_round(const RunOptions& opt, std::uint64_t seed,
                            const CastLoad& load, bool wal, bool trace,
                            Result& r) {
  CastRound out;
  Clock::time_point t0 = Clock::now();
  CastUniverse u = make_cast_universe(seed, load.ballots, /*keep_ballots=*/true);
  tamper_receipt(opt, u.targets);
  out.ea_s = u.ea_s;
  out.ballots = load.ballots;

  net::ThreadNet tnet;
  std::unique_ptr<TracingHost> tracer;
  if (trace) tracer = std::make_unique<TracingHost>(tnet);
  sim::RuntimeHost& host = tracer ? static_cast<sim::RuntimeHost&>(*tracer)
                                  : static_cast<sim::RuntimeHost&>(tnet);
  std::string wal_dir = wal ? fresh_dir(opt, "wal-" + std::to_string(seed))
                            : std::string();
  std::vector<sim::NodeId> vc_ids(kVcs);
  for (std::size_t i = 0; i < kVcs; ++i) vc_ids[i] = static_cast<sim::NodeId>(i);
  for (std::size_t i = 0; i < kVcs; ++i) {
    auto source = std::make_shared<store::MemoryBallotSource>(
        std::move(u.ballots[i]));
    sim::NodeId id = host.add_node(
        std::make_unique<vc::VcNode>(u.arts.vc_inits[i], source, vc_ids,
                                     std::vector<sim::NodeId>{}),
        "vc" + std::to_string(i));
    if (wal) {
      dynamic_cast<vc::VcNode&>(host.process(id))
          .attach_wal(std::make_unique<store::Wal>(
              wal_dir + "/vc" + std::to_string(i) + ".wal",
              store::WalOptions{store::FsyncPolicy::kInterval, 64}));
    }
  }
  sim::NodeId client_id = host.add_node(
      std::make_unique<BenchClient>(std::move(u.targets), vc_ids,
                                    load.concurrency, seed ^ 0x1,
                                    load.seconds, load.min_casts),
      "client");
  auto& client = dynamic_cast<BenchClient&>(host.process(client_id));
  out.setup_s = seconds_since(t0);

  double cpu0 = self_cpu_s();
  std::uint64_t events0 = host.events_dispatched();
  Clock::time_point w0 = Clock::now();
  host.start();
  if (!client.wait_done(load.seconds + 120)) {
    r.fail("cast round timed out");
  }
  out.wall_s = seconds_since(w0);
  out.cpu_s = self_cpu_s() - cpu0;
  host.stop();
  out.events = host.events_dispatched() - events0;
  harvest_client(client, out, r);
  for (std::size_t i = 0; i < kVcs; ++i) {
    const auto& vc = dynamic_cast<const vc::VcNode&>(host.process(vc_ids[i]));
    if (vc.stats().rejected_votes) r.fail("a VC node rejected a vote");
  }
  out.peak_rss_mb = self_peak_rss_mb();
  if (wal) {
    out.wal_bytes = dir_bytes(wal_dir);
    fs::remove_all(wal_dir);
  }
  if (tracer) add_trace_layers(r, *tracer, out.receipts);
  return out;
}

// One vote-collection round on TcpNet: one OS process per VC node, each
// with a WAL (fsync every 64 records); the client runs in this process.
CastRound tcp_cast_round(const RunOptions& opt, std::uint64_t seed,
                         const CastLoad& load, Result& r) {
  CastRound out;
  Clock::time_point t0 = Clock::now();
  CastUniverse u =
      make_cast_universe(seed, load.ballots, /*keep_ballots=*/false);
  tamper_receipt(opt, u.targets);
  out.ea_s = u.ea_s;
  out.ballots = load.ballots;
  std::string wal_dir = fresh_dir(opt, "wal-" + std::to_string(seed));

  core::TcpClusterSpec spec;
  spec.params = u.params;
  spec.seed = seed;
  spec.vc_only = true;
  spec.collection_only = true;
  spec.durability.wal_dir = wal_dir;
  spec.durability.fsync = store::FsyncPolicy::kInterval;
  spec.durability.fsync_interval = 64;
  core::TcpLauncher::Options lopt;
  lopt.node_binary = opt.node_binary;
  core::TcpLauncher launcher(spec, lopt);
  launcher.launch();
  net::TcpNet& tnet = launcher.net();
  std::vector<sim::NodeId> vc_ids;
  for (std::size_t i = 0; i < kVcs; ++i) {
    vc_ids.push_back(tnet.add_remote("vc" + std::to_string(i)));
  }
  sim::NodeId client_id = tnet.add_node(
      std::make_unique<BenchClient>(std::move(u.targets), vc_ids,
                                    load.concurrency, seed ^ 0x1,
                                    load.seconds, load.min_casts),
      "client");
  auto& client = dynamic_cast<BenchClient&>(tnet.process(client_id));
  out.setup_s = seconds_since(t0);

  double cpu0 = self_cpu_s() + children_cpu_s();
  Clock::time_point w0 = Clock::now();
  launcher.go();
  if (!client.wait_done(load.seconds + 120)) {
    r.fail("cast round timed out");
  }
  out.wall_s = seconds_since(w0);
  out.cpu_s = self_cpu_s() + children_cpu_s() - cpu0;
  std::vector<core::TcpProcessReport> reports = launcher.stop_cluster();
  harvest_client(client, out, r);
  if (reports.size() != kVcs) r.fail("a node process did not report");
  double peak_kb = static_cast<double>(util::peak_rss_kb());
  for (const core::TcpProcessReport& rep : reports) {
    peak_kb += static_cast<double>(rep.peak_rss_kb);
    out.events += rep.events;
    out.frames_sent += rep.frames_sent;
    out.frames_dropped += rep.frames_dropped;
    out.reconnects += rep.reconnects;
    for (const core::TcpNodeReport& node : rep.nodes) {
      if (node.vc_stats.rejected_votes) r.fail("a VC node rejected a vote");
    }
  }
  out.peak_rss_mb = peak_kb / 1024.0;
  out.wal_bytes = dir_bytes(wal_dir);
  fs::remove_all(wal_dir);
  return out;
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// End-to-end metrics shared by both cast workloads: medians over rounds,
// so a round that met a busy host does not move the result. The cast
// latency p50 of all rounds pooled is a detail.
void add_cast_e2e(Result& r,
                                       const std::vector<CastRound>& rounds) {
  std::vector<double> rps, setup, cpu_per, rss;
  std::vector<std::int64_t> lat;
  for (const CastRound& c : rounds) {
    double cpu = c.cpu_s * 1e3 / std::max<std::size_t>(1, c.receipts);
    std::printf("round: %zu receipts, %.1f /s, p50 %.3f ms, p99 %.3f ms, "
                "%.3f ms cpu per receipt, setup %.3f s\n",
                c.receipts, c.receipts_per_s(), c.p50_ms(), c.p99_ms(), cpu,
                c.setup_s);
    rps.push_back(c.receipts_per_s());
    lat.insert(lat.end(), c.lat_ns.begin(), c.lat_ns.end());
    setup.push_back(c.setup_s);
    cpu_per.push_back(cpu);
    rss.push_back(c.peak_rss_mb);
  }
  std::printf("samples: %zu rounds, %zu cast latencies\n", rounds.size(),
              lat.size());
  r.e2e("ballots_per_s", median(rps), "1/s");
  r.e2e("cpu_ms_per_ballot", median(cpu_per), "ms");
  r.e2e("setup_s", median(setup), "s");
  r.e2e("peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MB");
  r.detail("cast_p50_ms", quantile(lat, 0.5) / 1e6, "ms");
}

// Per-layer figures of one untraced round (an election or a cast round).
void add_run_layers(Result& r, double cpu_s, double wall_s, double ea_s,
                    std::size_t ballots, std::uint64_t events,
                    const std::vector<std::int64_t>& lat_ns) {
  r.layer("host.cpu_util", cpu_s / (wall_s * nproc()), "share");
  r.layer("ea.ms_per_ballot", ea_s * 1e3 / ballots, "ms");
  r.layer("net.events", static_cast<double>(events), "count");
  r.layer("cast_p50_ms", quantile(lat_ns, 0.5) / 1e6, "ms");
}

void add_run_layers(Result& r, const CastRound& c) {
  add_run_layers(r, c.cpu_s, c.wall_s, c.ea_s, c.ballots, c.events, c.lat_ns);
}

// Unit costs of the crypto and WAL calls, measured on every traced run.
void add_unit_costs(Result& r, const RunOptions& opt) {
  add_crypto_unit_costs(r, opt.tiny);
  std::string dir = fresh_dir(opt, "unit");
  add_wal_unit_costs(r, dir, opt.tiny);
  fs::remove_all(dir);
}

double pct_change(double traced, double untraced) {
  return untraced != 0 ? (traced - untraced) / untraced * 100.0 : 0;
}

}  // namespace

// --- cast_rush -------------------------------------------------------------

Result run_cast_rush(const RunOptions& opt) {
  Result r;
  CastLoad load;
  load.concurrency = opt.tiny ? 50 : 400;
  // Ballots for a round of `seconds` at up to 600 casts/s (about twice
  // today's rate); a faster build ends the round early, which the
  // receipts/span measure absorbs.
  auto ballots_for = [&](double seconds) {
    return opt.tiny ? std::size_t{300}
                    : std::max<std::size_t>(
                          3000, static_cast<std::size_t>(600 * seconds) +
                                    load.concurrency);
  };
  if (!opt.trace) {
    const std::size_t rounds = opt.tiny ? 1 : 5;
    load.seconds = opt.seconds / rounds;
    load.ballots = ballots_for(load.seconds);
    std::vector<CastRound> out;
    for (std::size_t k = 0; k < rounds; ++k) {
      out.push_back(
          thread_cast_round(opt, round_seed(opt.seed, k), load, false, false, r));
    }
    add_cast_e2e(r, out);
    return r;
  }
  load.seconds = opt.seconds / 2;
  load.ballots = ballots_for(load.seconds);
  CastRound plain =
      thread_cast_round(opt, round_seed(opt.seed, 0), load, false, false, r);
  CastRound traced =
      thread_cast_round(opt, round_seed(opt.seed, 1), load, false, true, r);
  add_run_layers(r, plain);
  add_unit_costs(r, opt);
  r.layer("trace.overhead_pct",
          pct_change(traced.receipts_per_s(), plain.receipts_per_s()), "%");
  return r;
}

// --- cast_quiet_tcp --------------------------------------------------------

Result run_cast_quiet_tcp(const RunOptions& opt) {
  Result r;
  CastLoad load;
  load.concurrency = 1;
  load.ballots = opt.tiny ? 1200 : 3000;
  if (!opt.trace) {
    const std::size_t rounds = opt.tiny ? 1 : 4;
    load.seconds = opt.seconds / rounds;
    std::vector<CastRound> out;
    for (std::size_t k = 0; k < rounds; ++k) {
      out.push_back(tcp_cast_round(opt, round_seed(opt.seed, k), load, r));
    }
    add_cast_e2e(r, out);
    return r;
  }
  load.seconds = opt.seconds / 3;
  // Enough casts for a p99 with ten samples beyond it, even on a slow host
  // (the first cast is the opening burst and not sampled).
  load.min_casts = 1001;
  CastRound tcp = tcp_cast_round(opt, round_seed(opt.seed, 0), load, r);
  load.min_casts = 0;
  // The same workload replayed on ThreadNet (same WAL settings): the p50
  // difference is what the sockets and writer threads add to one cast.
  CastRound local =
      thread_cast_round(opt, round_seed(opt.seed, 1), load, true, false, r);
  CastRound traced =
      thread_cast_round(opt, round_seed(opt.seed, 2), load, true, true, r);
  double receipts = std::max<double>(1, tcp.receipts);
  if (!supports_p99(tcp.lat_ns.size())) r.fail("too few casts for a p99");
  r.detail("cast_p99_ms", tcp.p99_ms(), "ms");
  r.detail("tcp.frames_sent_per_receipt", tcp.frames_sent / receipts, "count");
  r.detail("tcp.frames_dropped", static_cast<double>(tcp.frames_dropped),
           "count");
  r.detail("tcp.reconnects", static_cast<double>(tcp.reconnects), "count");
  r.detail("tcp.socket_us_p50", (tcp.p50_ms() - local.p50_ms()) * 1e3, "us");
  r.detail("wal.bytes_per_receipt", tcp.wal_bytes / receipts, "B");
  add_run_layers(r, tcp);
  add_unit_costs(r, opt);
  r.layer("trace.overhead_pct", pct_change(traced.p50_ms(), local.p50_ms()),
          "%");
  return r;
}

// --- election_tally --------------------------------------------------------

namespace {

struct ElectionRound {
  double setup_s = 0, ea_s = 0, close_to_result_s = 0;
  std::vector<double> audit_s;  // one per audit of the published election
  std::size_t ballots = 0;
  core::PhaseBreakdown phases;
  double peak_rss_mb = 0;
  CastRound casts;              // the client's casts
  double cpu_s = 0, wall_s = 0;  // from host start to the published result
  std::uint64_t events = 0;

  // Ballots per second of busy wall time: the casts (first send to last
  // receipt) plus polls close to the published result. The idle wait for
  // the poll-closing timer between the two is left out.
  double ballots_per_s() const {
    return casts.receipts / (casts.span_s + close_to_result_s);
  }
  double cpu_ms_per_ballot() const {
    return cpu_s * 1e3 / std::max<std::size_t>(1, casts.receipts);
  }
};

// One full election on ThreadNet: 4 VCs, 3 BBs (f_bb = 1), 3 trustees
// (h = 2); every ballot is cast by the benchmark client, then the result
// is published and audited with an nproc-thread pool.
ElectionRound election_round(const RunOptions& opt, std::uint64_t seed,
                             std::size_t n_ballots, bool trace, int audits,
                             Result& r) {
  ElectionRound out;
  out.ballots = n_ballots;
  Clock::time_point t0 = Clock::now();
  core::ElectionParams params = base_params(n_ballots);
  params.n_bb = 3;
  params.f_bb = 1;
  params.n_trustees = 3;
  params.h_trustees = 2;
  // Polls close (wall clock since start) well after the last cast.
  params.t_end = 400'000 + static_cast<std::int64_t>(n_ballots) * 10'000;
  auto arts = std::make_shared<ea::SetupArtifacts>(
      ea::ea_setup({params, seed, /*vc_only=*/false, 64}));
  out.ea_s = seconds_since(t0);
  crypto::Rng pick(seed ^ 0x7a26e7);
  std::vector<core::VoteTarget> targets;
  std::vector<std::uint64_t> expected(kOptions, 0);
  for (const core::Ballot& b : arts->voter_ballots) {
    targets.push_back(pick_target(b, pick));
    ++expected[targets.back().option];
  }
  tamper_receipt(opt, targets);
  if (opt.tamper == "tally") ++expected[0];

  net::ThreadNet tnet;
  std::unique_ptr<TracingHost> tracer;
  if (trace) tracer = std::make_unique<TracingHost>(tnet);
  sim::RuntimeHost& host = tracer ? static_cast<sim::RuntimeHost&>(*tracer)
                                  : static_cast<sim::RuntimeHost&>(tnet);
  core::DriverConfig cfg;
  cfg.params = params;
  cfg.seed = seed;
  cfg.artifacts = arts;
  // ElectionDriver builds the protocol nodes only; the benchmark client
  // casts every vote.
  cfg.workload = core::VoteListWorkload::make(
      std::vector<std::size_t>(n_ballots, core::kAbstain));
  // A 2 ms trustee poll keeps the poll period far below 1% of the
  // close-to-result time (the 200 ms default would quantise it).
  cfg.trustee_options.poll_interval_us = 2'000;
  cfg.wall_timeout_us = 120'000'000;
  core::ElectionDriver driver(host, cfg);
  sim::NodeId client_id = host.add_node(
      std::make_unique<BenchClient>(std::move(targets),
                                    driver.topology().vc_ids, 4, seed ^ 0x1,
                                    0),
      "client");
  auto& client = dynamic_cast<BenchClient&>(host.process(client_id));
  out.setup_s = seconds_since(t0);

  double cpu0 = self_cpu_s();
  std::uint64_t events0 = host.events_dispatched();
  Clock::time_point w0 = Clock::now();
  core::ElectionReport report = driver.run();
  out.wall_s = seconds_since(w0);
  out.cpu_s = self_cpu_s() - cpu0;
  out.events = host.events_dispatched() - events0;
  harvest_client(client, out.casts, r);
  if (!report.completed) r.fail("election did not publish a result");
  if (client.receipts_by_option(kOptions) != expected) {
    r.fail("receipts per option differ from the votes cast");
  }
  for (std::size_t i = 0; i < params.n_bb; ++i) {
    const auto& res = driver.bb_node(i).result();
    ++r.attempted;
    if (!res || res->tally != expected) {
      ++r.failed;
      r.fail("BB " + std::to_string(i) + " published a wrong tally");
    }
  }
  out.phases = report.phases;
  out.close_to_result_s =
      static_cast<double>(report.phases.result_published_at -
                          report.phases.t_end) / 1e6;

  // The audit only reads the BBs, so it can run several times; its time is
  // the median.
  client::Auditor auditor(driver.reader());
  client::AuditOptions aopt;
  aopt.n_threads = nproc();
  for (int i = 0; i < audits; ++i) {
    Clock::time_point a0 = Clock::now();
    client::AuditReport audit = auditor.verify_election(aopt);
    out.audit_s.push_back(seconds_since(a0));
    ++r.attempted;
    if (!audit.passed || audit.tally != expected) {
      ++r.failed;
      r.fail("audit failed: " + (audit.failures.empty()
                                     ? "wrong tally"
                                     : audit.failures.front()));
    }
  }
  out.peak_rss_mb = self_peak_rss_mb();
  std::printf("election: %zu ballots, setup %.3f s, casts %.3f s, close to "
              "result %.3f s, %.1f ballots/s, %.3f ms cpu per ballot, audit "
              "%.3f s\n",
              n_ballots, out.setup_s, out.casts.span_s, out.close_to_result_s,
              out.ballots_per_s(), out.cpu_ms_per_ballot(),
              median(out.audit_s));

  if (tracer) {
    add_trace_layers(r, *tracer, out.casts.receipts);
    double busy_bb = 0, busy_trustee = 0;
    std::vector<std::int64_t> bb_waits;
    for (const NodeTrace* t : tracer->traces()) {
      if (t->name.rfind("bb", 0) == 0) {
        busy_bb += t->busy_ns.load();
        bb_waits.insert(bb_waits.end(), t->waits_ns.begin(),
                        t->waits_ns.end());
      } else if (t->name.rfind("trustee", 0) == 0) {
        busy_trustee += t->busy_ns.load();
      }
    }
    r.detail("bb.busy_ms", busy_bb / 1e6, "ms");
    r.detail("trustee.busy_ms", busy_trustee / 1e6, "ms");
    r.detail("bb.wait_p99_us", quantile(bb_waits, 0.99) / 1e3, "us");
  }
  return out;
}

}  // namespace

Result run_election_tally(const RunOptions& opt) {
  Result r;
  const std::size_t ballots = opt.tiny ? 4 : 16;
  if (!opt.trace) {
    std::vector<double> rate, cpu, setup, close, rss;
    std::vector<std::int64_t> lat;
    Clock::time_point t0 = Clock::now();
    const std::size_t min_rounds = opt.tiny ? 1 : 3;
    for (std::size_t k = 0;
         k < min_rounds || (seconds_since(t0) < opt.seconds && k < 12); ++k) {
      ElectionRound e =
          election_round(opt, round_seed(opt.seed, k), ballots, false, 1, r);
      rate.push_back(e.ballots_per_s());
      cpu.push_back(e.cpu_ms_per_ballot());
      setup.push_back(e.setup_s);
      close.push_back(e.close_to_result_s);
      rss.push_back(e.peak_rss_mb);
      lat.insert(lat.end(), e.casts.lat_ns.begin(), e.casts.lat_ns.end());
    }
    r.e2e("ballots_per_s", median(rate), "1/s");
    r.e2e("cpu_ms_per_ballot", median(cpu), "ms");
    r.e2e("setup_s", median(setup), "s");
    r.e2e("peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MB");
    r.detail("close_to_result_s", median(close), "s");
    r.detail("cast_p50_ms", quantile(lat, 0.5) / 1e6, "ms");
    return r;
  }
  ElectionRound plain = election_round(opt, round_seed(opt.seed, 0), ballots,
                                       false, opt.tiny ? 1 : 5, r);
  ElectionRound traced =
      election_round(opt, round_seed(opt.seed, 1), ballots, true, 1, r);
  const core::PhaseBreakdown& ph = plain.phases;
  r.detail("close_to_result_s", plain.close_to_result_s, "s");
  r.detail("vc.consensus_ms", (ph.consensus_done_at - ph.t_end) / 1e3, "ms");
  r.detail("vc.push_ms", (ph.push_done_at - ph.consensus_done_at) / 1e3, "ms");
  r.detail("bb.tally_publish_ms",
           (ph.tally_published_at - ph.consensus_done_at) / 1e3, "ms");
  r.detail("result.publish_ms",
           (ph.result_published_at - ph.tally_published_at) / 1e3, "ms");
  r.detail("audit_s", median(plain.audit_s), "s");
  r.detail("audit.ballots_per_s", plain.ballots / median(plain.audit_s),
           "1/s");
  add_run_layers(r, plain.cpu_s, plain.wall_s, plain.ea_s, plain.ballots,
                 plain.events, plain.casts.lat_ns);
  add_unit_costs(r, opt);
  r.layer("trace.overhead_pct",
          pct_change(traced.close_to_result_s, plain.close_to_result_s), "%");
  return r;
}

}  // namespace perfbench
