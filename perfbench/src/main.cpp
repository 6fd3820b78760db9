// Benchmark entry point:
//
//   perfbench --workload <cast_rush|cast_quiet_tcp|election_tally>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--git-sha SHA] [--source-sha SHA] [--tiny] [--tamper WHAT]
//
// Prints a host record, every metric by name with its unit, and as the
// last line one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
// Workload-specific details are printed as metric lines only.
// A failed output check exits 3 without printing metrics; a build that
// is not Release refuses to report (exit 4).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Result;
using perfbench::RunOptions;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string self_dir() {
  char buf[4096];
  ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<std::size_t>(n));
  return path.substr(0, path.rfind('/'));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--git-sha SHA] "
               "[--source-sha SHA] [--tiny] [--tamper receipt|tally]\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string git_sha = "unknown", source_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--workload")) opt.workload = v;
    else if (const char* v = value("--seed")) opt.seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds")) opt.seconds = std::atof(v);
    else if (const char* v = value("--trace")) opt.trace = std::strcmp(v, "1") == 0;
    else if (const char* v = value("--work-dir")) opt.work_dir = v;
    else if (const char* v = value("--git-sha")) git_sha = v;
    else if (const char* v = value("--source-sha")) source_sha = v;
    else if (const char* v = value("--tamper")) opt.tamper = v;
    else if (std::strcmp(argv[i], "--tiny") == 0) opt.tiny = true;
    else return usage();
  }
  if (opt.workload.empty() || opt.work_dir.empty() || opt.seconds <= 0) {
    return usage();
  }

  const bool release = std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#ifndef NDEBUG
  const bool asserts = true;
#else
  const bool asserts = false;
#endif
  std::printf(
      "host {\"nproc\": %u, \"cpu\": \"%s\", \"build\": \"%s\", "
      "\"compiler\": \"%s\", \"git_sha\": \"%s\", \"source_sha\": \"%s\"}\n",
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, json_escape(git_sha).c_str(),
      json_escape(source_sha).c_str());
  if (!release || asserts) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 4;
  }
  opt.node_binary = self_dir() + "/ddemos_node";

  Result r;
  try {
    if (opt.workload == "cast_rush") {
      r = perfbench::run_cast_rush(opt);
    } else if (opt.workload == "cast_quiet_tcp") {
      r = perfbench::run_cast_quiet_tcp(opt);
    } else if (opt.workload == "election_tally") {
      r = perfbench::run_election_tally(opt);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   opt.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  std::printf("metric fail_share = %.10g share (%llu of %llu)\n",
              r.attempted ? static_cast<double>(r.failed) / r.attempted : 1.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const Metric& m : r.end_to_end) {
    if (!std::isfinite(m.value)) r.fail(m.name + " is not a finite number");
  }
  for (const Metric& m : r.per_layer) {
    if (!std::isfinite(m.value)) r.fail(m.name + " is not a finite number");
  }
  for (const Metric& m : r.details) {
    if (!std::isfinite(m.value)) r.fail(m.name + " is not a finite number");
  }
  if (!r.correct || r.attempted == 0) {
    for (const std::string& p : r.problems) {
      std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
    }
    return 3;
  }
  const std::vector<Metric>& out = opt.trace ? r.per_layer : r.end_to_end;
  const std::vector<Metric>* printed[] = {&out, &r.details};
  for (const std::vector<Metric>* list : printed) {
    for (const Metric& m : *list) {
      std::printf("metric %s = %.10g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
