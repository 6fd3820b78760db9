// Large-scale vote collection: 50,000 registered ballots on the paged disk
// ballot store (the PostgreSQL stand-in), 400 concurrent clients casting
// 1,000 votes against 4 vote collectors. Prints throughput, latency and
// page-cache behaviour — a miniature of the paper's Figure 5a setup.
//
//   ./build/examples/large_scale [n_ballots]
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "../bench/common.hpp"

using namespace ddemos;
using namespace ddemos::bench;

int main(int argc, char** argv) {
  std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50'000;
  std::string dir = "/tmp/ddemos_large_scale";
  std::filesystem::create_directories(dir);

  std::printf("== large-scale vote collection: %zu registered ballots ==\n",
              n);
  std::printf("generating EA initialization data onto disk...\n");
  VoteCollectionConfig cfg;
  cfg.n_vc = 4;
  cfg.f_vc = 1;
  cfg.concurrency = 400;
  cfg.casts = 1000;
  cfg.n_ballots = n;
  cfg.options = 2;
  cfg.seed = 7;
  cfg.disk_store = true;
  cfg.disk_dir = dir;
  cfg.cache_pages = 64;

  VoteCollectionResult r = run_vote_collection(cfg);
  std::printf("cast %zu votes: %.0f receipts/sec, mean latency %.1f ms\n",
              r.completed, r.throughput_ops, r.mean_latency_ms);

  // Show the disk store behaviour directly.
  store::DiskBallotSource src(dir + "/vc0.ballots", 64);
  std::printf("store: %zu ballots on disk\n", src.size());
  crypto::Rng rng(1);
  core::VcBallotInit buf;
  for (int i = 0; i < 2000; ++i) {
    (void)src.find(src.serial_at(rng.below(src.size())), buf);
  }
  std::printf("2000 random lookups: %llu page reads, %llu cache hits\n",
              static_cast<unsigned long long>(src.page_reads()),
              static_cast<unsigned long long>(src.cache_hits()));
  std::filesystem::remove_all(dir);
  return 0;
}
