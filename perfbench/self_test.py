#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/self_test.py

Runs every workload tiny, untraced and traced, through run.py and checks
that the result line holds exactly the metrics BENCHMARK.json names for the
mode, each with its unit, that the workload-specific details are printed
(with zero dropped frames and reconnects), and that a tampered receipt or
tally makes the run fail (non-zero exit, no result line). Exits 0 when
every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["cast_rush", "cast_quiet_tcp", "election_tally"]
# Workload-specific figures each run prints as `metric` lines beside the
# result (see NOTES.md); counts among them that must read exactly zero on a
# healthy run.
DETAILS = {
    ("cast_rush", "0"): ["cast_p50_ms"],
    ("cast_quiet_tcp", "0"): ["cast_p50_ms"],
    ("cast_quiet_tcp", "1"): ["cast_p99_ms", "tcp.frames_sent_per_receipt",
                              "tcp.frames_dropped", "tcp.reconnects",
                              "tcp.socket_us_p50", "wal.bytes_per_receipt"],
    ("election_tally", "0"): ["close_to_result_s", "cast_p50_ms"],
    ("election_tally", "1"): ["close_to_result_s", "vc.consensus_ms",
                              "vc.push_ms", "bb.tally_publish_ms",
                              "result.publish_ms", "bb.busy_ms",
                              "trustee.busy_ms", "bb.wait_p99_us", "audit_s",
                              "audit.ballots_per_s"],
}
MUST_BE_ZERO = ["tcp.frames_dropped", "tcp.reconnects"]


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", trace, "--tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def detail_lines(proc):
    """{name: (value, unit)} of the `metric <name> = <value> <unit>` lines."""
    out = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if len(parts) >= 5 and parts[0] == "metric" and parts[2] == "=":
            out[parts[1]] = (float(parts[3]), parts[4])
    return out


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace, units in expected.items():
            proc = run(workload, trace)
            res = result_of(proc)
            tag = f"{workload} --trace {trace}"
            if proc.returncode or not res:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{tag}: not a clean run: {res}")
            metrics = res["metrics"]
            for name, unit in units.items():
                m = metrics.get(name)
                if m is None:
                    problems.append(f"{tag}: missing {name}")
                elif m["unit"] != unit:
                    problems.append(f"{tag}: {name} unit {m['unit']}, "
                                    f"BENCHMARK.json says {unit}")
            for name in set(metrics) - set(units):
                problems.append(f"{tag}: unexpected metric {name}")
            details = detail_lines(proc)
            for name in DETAILS.get((workload, trace), []):
                if name not in details:
                    problems.append(f"{tag}: missing detail {name}")
                elif name in MUST_BE_ZERO and details[name][0] != 0:
                    problems.append(f"{tag}: {name} = {details[name][0]}")
            print(f"ok   {tag}: {len(metrics)} metrics", flush=True)

    tampered = [(w, "receipt") for w in WORKLOADS] + [("election_tally", "tally")]
    for workload, what in tampered:
        proc = run(workload, "0", "--tamper", what)
        if proc.returncode == 0 or result_of(proc) is not None:
            problems.append(f"{workload}: tampered {what} was not caught")
        else:
            print(f"ok   {workload}: tampered {what} caught", flush=True)

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
