// Multi-process election node binary, two modes:
//
//   ddemos_node --serve <host> <port> <process> <data_port> <incarnation>
//     Control-plane client spawned by core::TcpLauncher: dials the control
//     socket, rebuilds its assigned protocol node from the shipped spec,
//     serves the election over TcpNet on data_port (0 = OS-assigned),
//     announcing `incarnation` (1 at launch, k+1 on the k-th crash-recovery
//     respawn, which also passes its predecessor's data port), reports,
//     exits. Not intended for manual use.
//
//   ddemos_node --launch [--vc N] [--fvc N] [--bb N] [--fbb N]
//                        [--trustees N] [--ht N] [--voters N] [--seed S]
//                        [--shards N] [--timeout-s S]
//     Spawns a full multi-process election on loopback (one OS process per
//     VC/BB/trustee; this process hosts the voters), prints the merged
//     report, exits 0 iff the election completed with every receipt issued
//     and the published tally matching the ground truth. This is the CI
//     tcp-smoke entry point.
//
// DDEMOS_TEST_TIME_SCALE stretches every protocol duration (election
// window, patience, timeouts) for slow or sanitized runners.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/tcp_launcher.hpp"

namespace {

long long time_scale() {
  static const long long scale = [] {
    const char* env = std::getenv("DDEMOS_TEST_TIME_SCALE");
    long long v = env ? std::atoll(env) : 1;
    return v >= 1 ? v : 1;
  }();
  return scale;
}

ddemos::sim::Duration scaled(ddemos::sim::Duration us) {
  return us * time_scale();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --serve <host> <port> <process> <data_port> "
               "<incarnation>\n"
               "       %s --launch [--vc N] [--fvc N] [--bb N] [--fbb N]\n"
               "                   [--trustees N] [--ht N] [--voters N]\n"
               "                   [--seed S] [--shards N] [--timeout-s S]\n",
               argv0, argv0);
  return 64;
}

int run_launch(int argc, char** argv) {
  using namespace ddemos;
  std::size_t n_vc = 4, f_vc = 1, n_bb = 3, f_bb = 1;
  std::size_t n_trustees = 3, h_trustees = 2;
  std::size_t voters = 5, shards = 1;
  std::uint64_t seed = 2026;
  long long timeout_s = 120;
  for (int i = 2; i < argc; ++i) {
    auto arg = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = arg("--vc")) n_vc = std::atoll(v);
    else if (const char* v = arg("--fvc")) f_vc = std::atoll(v);
    else if (const char* v = arg("--bb")) n_bb = std::atoll(v);
    else if (const char* v = arg("--fbb")) f_bb = std::atoll(v);
    else if (const char* v = arg("--trustees")) n_trustees = std::atoll(v);
    else if (const char* v = arg("--ht")) h_trustees = std::atoll(v);
    else if (const char* v = arg("--voters")) voters = std::atoll(v);
    else if (const char* v = arg("--seed")) seed = std::atoll(v);
    else if (const char* v = arg("--shards")) shards = std::atoll(v);
    else if (const char* v = arg("--timeout-s")) timeout_s = std::atoll(v);
    else return usage(argv[0]);
  }

  core::ElectionParams p;
  p.election_id = to_bytes("tcp-launch");
  p.options = {"yes", "no"};
  p.n_voters = voters;
  p.n_vc = n_vc;
  p.f_vc = f_vc;
  p.n_bb = n_bb;
  p.f_bb = f_bb;
  p.n_trustees = n_trustees;
  p.h_trustees = h_trustees;
  p.t_start = 0;
  p.t_end = scaled(1'500'000);

  core::DriverConfig cfg;
  cfg.params = p;
  cfg.seed = seed;
  cfg.vc_options.n_shards = shards;
  cfg.voter_template.patience_us = scaled(400'000);
  cfg.trustee_options.poll_interval_us = scaled(100'000);
  cfg.wall_timeout_us = timeout_s * 1'000'000;

  core::TcpLauncher launcher(core::TcpLauncher::spec_from(cfg));
  core::ElectionReport r = launcher.run_election(cfg);

  std::printf("tcp-launch: completed=%d voters=%zu receipts=%zu wall=%.2fs\n",
              r.completed ? 1 : 0, r.voters_launched, r.receipts_issued,
              r.wall_seconds);
  std::printf("  tally    =");
  for (std::uint64_t t : r.tally) std::printf(" %llu",
                                              (unsigned long long)t);
  std::printf("\n  expected =");
  for (std::uint64_t t : r.expected_tally)
    std::printf(" %llu", (unsigned long long)t);
  std::printf("\n");
  for (const core::NodeAccounting& row : r.process_accounting) {
    std::printf(
        "  proc %-9s events=%-8llu allocs=%-7llu rss=%lluMB "
        "tx=%llu rx=%llu redial=%llu drop=%llu\n",
        row.name.c_str(), (unsigned long long)row.events,
        (unsigned long long)row.allocations,
        (unsigned long long)(row.peak_rss_kb / 1024),
        (unsigned long long)row.frames_sent,
        (unsigned long long)row.frames_received,
        (unsigned long long)row.reconnects,
        (unsigned long long)row.frames_dropped);
  }
  bool ok = r.completed && r.receipts_issued == r.voters_launched &&
            !r.tally.empty() && r.tally == r.expected_tally;
  if (!ok) std::fprintf(stderr, "tcp-launch: FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--serve") == 0) {
    if (argc != 7) return usage(argv[0]);
    try {
      return ddemos::core::serve_tcp_node(
          argv[2], static_cast<std::uint16_t>(std::atoi(argv[3])),
          static_cast<std::uint32_t>(std::atoi(argv[4])),
          static_cast<std::uint16_t>(std::atoi(argv[5])),
          std::strtoull(argv[6], nullptr, 10));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ddemos_node --serve: %s\n", e.what());
      return 2;
    }
  }
  if (argc >= 2 && std::strcmp(argv[1], "--launch") == 0) {
    try {
      return run_launch(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ddemos_node --launch: %s\n", e.what());
      return 1;
    }
  }
  return usage(argv[0]);
}
