// Million-voter campaign runner — the ROADMAP's "million-voter simulation
// run". Streams DDEMOS_FIG6_BALLOTS (default 10^6) ballots from the EA
// straight into per-VC DiskBallotSource files (never materializing the
// plaintext ballot set in memory), then drives a closed-loop campaign that
// casts every ballot through the 4-VC cluster on the simulator,
// sweeping intra-node VC shards over DDEMOS_FIG6_SHARDS (default 1,4,8).
// The ballot files and captured vote targets are generated once and shared
// across the shard cells.
//
// Progress is checkpoint-logged (wall + virtual time, dispatched events,
// resident set) every total/DDEMOS_FIG6_CHECKPOINTS casts, and every phase
// emits a BENCH_JSON row carrying the uniform bench::Instrumentation
// accounting fields (events, events/sec, allocations, RSS, peak RSS) for
// the perf-trajectory artifact and the bench_check.py regression gate.
//
//   DDEMOS_FIG6_BALLOTS      registered-ballot universe (default 1'000'000)
//   DDEMOS_FIG6_CASTS        ballots cast (default: all of them)
//   DDEMOS_FIG6_SHARDS       comma list of vc-shard cells (default "1,4,8")
//   DDEMOS_FIG6_CONCURRENCY  closed-loop in-flight casts (default 1000)
//   DDEMOS_FIG6_CHECKPOINTS  checkpoint lines per cell (default 10)
//   DDEMOS_FIG6_CACHE_PAGES  LRU page-cache budget per VC node (default 256)
//   DDEMOS_FIG6_DIR          ballot-file directory (default /tmp/ddemos_fig6)
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common.hpp"
#include "instrumentation.hpp"

using namespace ddemos;
using namespace ddemos::bench;

namespace {

std::vector<std::size_t> parse_shard_list(const std::string& spec) {
  std::vector<std::size_t> shards;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    std::size_t v = std::strtoull(spec.substr(pos, next - pos).c_str(),
                                  nullptr, 10);
    if (v > 0) shards.push_back(v);
    pos = next + 1;
  }
  return shards;
}

}  // namespace

int main() {
  const std::size_t ballots = env_size("DDEMOS_FIG6_BALLOTS", 1'000'000);
  const std::size_t casts = env_size("DDEMOS_FIG6_CASTS", ballots);
  const std::size_t concurrency = env_size("DDEMOS_FIG6_CONCURRENCY", 1000);
  const std::size_t checkpoints =
      std::max<std::size_t>(env_size("DDEMOS_FIG6_CHECKPOINTS", 10), 1);
  const std::size_t cache_pages = env_size("DDEMOS_FIG6_CACHE_PAGES", 256);
  const std::string dir = env_str("DDEMOS_FIG6_DIR", "/tmp/ddemos_fig6");
  std::vector<std::size_t> shard_cells =
      parse_shard_list(env_str("DDEMOS_FIG6_SHARDS", "1,4,8"));
  if (shard_cells.empty()) shard_cells = {1};
  std::filesystem::create_directories(dir);

  // Ballot files are multi-GB at full scale: delete them even when a cell
  // throws, but only the files this run creates — DDEMOS_FIG6_DIR may
  // point at a directory the user keeps other things in.
  struct Cleanup {
    std::string dir;
    std::size_t n_vc;
    ~Cleanup() {
      std::error_code ec;
      for (std::size_t i = 0; i < n_vc; ++i) {
        std::filesystem::remove(dir + "/vc" + std::to_string(i) + ".ballots",
                                ec);
      }
      std::filesystem::remove(dir, ec);  // only if now empty
    }
  };

  VoteCollectionConfig cfg;
  cfg.n_vc = 4;
  cfg.f_vc = 1;
  cfg.concurrency = concurrency;
  cfg.casts = casts;
  cfg.n_ballots = ballots;
  cfg.options = 2;  // referendum, as in the paper's large-scale runs
  cfg.seed = 606;
  cfg.disk_store = true;
  cfg.disk_dir = dir;
  cfg.cache_pages = cache_pages;
  Cleanup cleanup{dir, cfg.n_vc};

  std::printf("# fig6: million-voter campaign — %zu ballots, %zu casts, "
              "4 VC, %zu cc, shards sweep {",
              ballots, casts, concurrency);
  for (std::size_t i = 0; i < shard_cells.size(); ++i) {
    std::printf("%s%zu", i ? "," : "", shard_cells[i]);
  }
  std::printf("}\n");

  VoteCollectionCampaign campaign(cfg);
  const PhaseSample& gen = campaign.generate();
  std::printf("# fig6 generate: %zu ballots -> %zu disk stores in %.1fs "
              "(peak rss %.1f MB)\n",
              campaign.n_ballots(), cfg.n_vc, gen.wall_s,
              gen.peak_rss_kb / 1024.0);
  std::printf("BENCH_JSON {\"bench\":\"fig6\",\"phase\":\"generate\","
              "\"n\":%zu,%s}\n",
              campaign.n_ballots(), accounting_fields(gen).c_str());
  std::fflush(stdout);

  std::printf("\n%-8s %12s %12s %14s %12s\n", "shards", "ops/sec",
              "latency_ms", "events/sec", "peak_rss_mb");
  for (std::size_t cell = 0; cell < shard_cells.size(); ++cell) {
    std::size_t shards = shard_cells[cell];
    auto checkpoint = [&](const VoteCollectionCampaign::Checkpoint& cp) {
      std::printf("# fig6 checkpoint [shards=%zu] %zu/%zu casts | "
                  "wall %.1fs | virtual %.1fs | %.2fM events | rss %.1f MB\n",
                  shards, cp.completed, cp.total, cp.wall_s,
                  cp.virtual_us / 1e6, cp.events / 1e6, cp.rss_kb / 1024.0);
      std::fflush(stdout);
    };
    VoteCollectionResult r = campaign.run_cell(
        shards, checkpoint, std::max<std::size_t>(casts / checkpoints, 1),
        /*final_cell=*/cell + 1 == shard_cells.size());
    std::printf("%-8zu %12.0f %12.1f %14.0f %12.1f\n", shards,
                r.throughput_ops, r.mean_latency_ms,
                r.collection.events_per_sec(),
                r.collection.peak_rss_kb / 1024.0);
    std::printf("BENCH_JSON {\"bench\":\"fig6\",\"phase\":\"collection\","
                "\"n\":%zu,\"casts\":%zu,\"shards\":%zu,"
                "\"throughput_ops\":%.0f,\"latency_ms\":%.2f,%s}\n",
                campaign.n_ballots(), casts, shards, r.throughput_ops,
                r.mean_latency_ms, accounting_fields(r.collection).c_str());
    std::fflush(stdout);
  }
  return 0;
}
