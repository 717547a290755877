#!/usr/bin/env python3
"""Builds and runs the MAQS repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check [--workload <name>] [--seed <n>] [--seconds <s>]

The first form builds the benchmark program (Release, into
.bench_build/perfbench) when needed, runs one workload in a fresh process and
forwards its output; the last line is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the traced run also writes the spans it kept to
.bench_build/perfbench/spans/<workload>-<seed>.jsonl.

The second form checks determinism: per workload it runs one seed twice and
a second seed once, in both modes, and requires every exact-count metric
to repeat bit for bit across the two runs of one seed and both seeds to run
clean.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD / "maqs_perfbench"
WORKLOADS = ["rpc_small", "woven_rw", "gateway_http"]
RUN_TIMEOUT_S = 170

# Metrics that must repeat exactly for a fixed seed (self-check).
EXACT_END_TO_END = {"allocs_per_req", "alloc_bytes_per_req", "wire_bytes_per_req",
                    "gold_ok_ratio", "silver_ok_ratio", "best_effort_ok_ratio"}
EXACT_LAYER_PREFIXES = ("compress.lz77.ratio", "compress.rle.ratio",
                        "characteristics.", "net.frames_per_req",
                        "sim.events_per_req", "util.buffer_pool.",
                        "naming.", "sched.shed_ratio.", "sched.parked_per_req")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("perfbench: no MAQS sources next to perfbench/ (expected src/)")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", jobs,
              "--target", "maqs_perfbench"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return PROGRAM.is_file()


def run_program(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [str(PROGRAM), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = BUILD / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = [l for l in stdout.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def is_exact(name, trace):
    if trace:
        return name.startswith(EXACT_LAYER_PREFIXES)
    return name in EXACT_END_TO_END


def self_check(args):
    workloads = [args.workload] if args.workload else WORKLOADS
    ok = True
    for workload in workloads:
        for trace in (0, 1):
            runs = {}
            for label, seed in (("a", args.seed), ("b", args.seed),
                                ("other", args.seed + 1)):
                code, out = run_program(workload, seed, args.seconds, trace)
                res = result_of(out) if code == 0 else None
                if res is None or not res["correct"] or res["failed"]:
                    log(f"FAIL {workload} trace={trace} seed={seed}: "
                        f"exit {code}, result {res}")
                    ok = False
                runs[label] = res
            a, b = runs["a"], runs["b"]
            if a is None or b is None:
                continue
            for name, metric in a["metrics"].items():
                if not is_exact(name, trace):
                    continue
                same = metric["value"] == b["metrics"][name]["value"]
                ok = ok and same
                log(f"{'ok  ' if same else 'DIFF'} {workload} trace={trace} "
                    f"{name}: {metric['value']} vs {b['metrics'][name]['value']}")
    print(json.dumps({"self_check": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_check:
        return self_check(args)
    code, out = run_program(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    if code == 0 and result_of(out) is None:
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
