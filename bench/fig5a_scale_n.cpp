// Reproduces Figure 5a: vote-collection throughput versus the total number
// of election ballots n, with VC initialization data on disk. The paper
// sweeps 50M..250M ballots backed by PostgreSQL; this reproduction sweeps a
// 250x-scaled range backed by the paged DiskBallotSource (sorted index +
// LRU page cache), which exhibits the same log(n) index-depth growth.
// Raise the range with DDEMOS_FIG5A_STEP (ballots per step).
//
// The follow-up journal version scales each VC node across cores; the
// second and third sweeps here reproduce that axis with intra-node
// sharding (vc shards ∈ {1,2,4,8}) on both backends:
//   * simulator — one virtual processor per shard, CPU time from the
//     cost table (sim/cost_table.hpp), deterministic scaling curve;
//   * ThreadNet — one worker thread per shard, real Schnorr crypto, real
//     wall-clock throughput (bounded by the host's core count).
// Every BENCH_JSON line carries a "shards" field for the perf-trajectory
// artifact.
#include <cstdio>
#include <filesystem>

#include "common.hpp"

using namespace ddemos;
using namespace ddemos::bench;

int main() {
  std::size_t step = env_size("DDEMOS_FIG5A_STEP", 40'000);
  std::size_t casts = env_size("DDEMOS_BENCH_CASTS", 400);
  std::size_t max_shards = env_size("DDEMOS_FIG5A_MAX_SHARDS", 8);
  std::string dir = "/tmp/ddemos_fig5a";
  std::filesystem::create_directories(dir);

  std::printf("# fig5a: throughput (ops/sec) vs n, disk-backed ballots\n");
  std::printf("# paper: 50M..250M ballots on PostgreSQL; here %zu..%zu on a "
              "paged B-tree-style store\n",
              step, 5 * step);
  std::printf("%-12s %12s %12s\n", "n", "ops/sec", "latency_ms");
  for (std::size_t i = 1; i <= 5; ++i) {
    std::size_t n = i * step;
    VoteCollectionConfig cfg;
    cfg.n_vc = 4;
    cfg.f_vc = 1;
    cfg.concurrency = 400;
    cfg.casts = casts;
    cfg.n_ballots = n;
    cfg.options = 2;  // referendum, as in the paper
    cfg.seed = 77 + i;
    cfg.disk_store = true;
    cfg.disk_dir = dir;
    cfg.cache_pages = 64;
    VoteCollectionResult r = run_vote_collection(cfg);
    std::printf("%-12zu %12.0f %12.1f\n", n, r.throughput_ops,
                r.mean_latency_ms);
    std::printf("BENCH_JSON {\"bench\":\"fig5a\",\"mode\":\"sim-n\","
                "\"n\":%zu,\"shards\":1,"
                "\"throughput_ops\":%.0f,\"latency_ms\":%.2f,%s}\n",
                n, r.throughput_ops, r.mean_latency_ms,
                accounting_fields(r.collection).c_str());
    std::fflush(stdout);
  }
  std::filesystem::remove_all(dir);

  // --- intra-node shard scaling (journal version: cores per VC node) -----
  std::size_t shard_casts = env_size("DDEMOS_FIG5A_SHARD_CASTS", casts);
  std::size_t shard_ballots =
      env_size("DDEMOS_FIG5A_SHARD_BALLOTS", std::max<std::size_t>(step, 2000));

  // One sweep body for both backends so the sim and ThreadNet curves in
  // the perf-trajectory artifact stay comparable field-for-field. The EA
  // generation runs once per backend (VoteCollectionCampaign); only the
  // cluster + closed loop are rebuilt per shard cell.
  auto shard_sweep = [&](const char* mode, Backend backend,
                         std::size_t concurrency, std::uint64_t seed) {
    // The multi-process rows carry an explicit backend key so the
    // perf-trajectory join never mixes them with the in-process curves.
    const char* backend_field =
        backend == Backend::kTcp ? "\"backend\":\"tcp\"," : "";
    VoteCollectionConfig cfg;
    cfg.n_vc = 4;
    cfg.f_vc = 1;
    cfg.concurrency = concurrency;
    cfg.casts = shard_casts;
    cfg.n_ballots = shard_ballots;
    cfg.options = 2;
    cfg.seed = seed;
    cfg.backend = backend;
    VoteCollectionCampaign campaign(cfg);
    campaign.generate();
    std::printf("%-8s %12s %12s\n", "shards", "ops/sec", "latency_ms");
    for (std::size_t shards = 1; shards <= max_shards; shards *= 2) {
      VoteCollectionResult r = campaign.run_cell(
          shards, nullptr, 0, /*final_cell=*/shards * 2 > max_shards);
      std::printf("%-8zu %12.0f %12.1f\n", shards, r.throughput_ops,
                  r.mean_latency_ms);
      std::printf("BENCH_JSON {\"bench\":\"fig5a\",\"mode\":\"%s\",%s"
                  "\"n\":%zu,\"shards\":%zu,"
                  "\"throughput_ops\":%.0f,\"latency_ms\":%.2f,%s}\n",
                  mode, backend_field, shard_ballots, shards, r.throughput_ops,
                  r.mean_latency_ms, accounting_fields(r.collection).c_str());
      std::fflush(stdout);
    }
  };

  std::printf("\n# fig5a-shards: throughput vs vc shards, simulator "
              "(one virtual processor per shard, cost-table CPU time)\n");
  shard_sweep("sim-shards", Backend::kSim, 400, 177);

  std::printf("\n# fig5a-shards: throughput vs vc shards, ThreadNet "
              "(one worker thread per shard, real crypto; scaling is "
              "bounded by host cores)\n");
  // Lower concurrency keeps every shard saturated with bounded queues.
  shard_sweep("threadnet-shards", Backend::kThreads, 64, 277);

  std::printf("\n# fig5a-shards: throughput vs vc shards, TcpNet "
              "(one OS process per VC node, loopback TCP, real crypto)\n");
  shard_sweep("tcp-shards", Backend::kTcp, 64, 377);
  return 0;
}
