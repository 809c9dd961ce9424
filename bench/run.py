"""Benchmark for sact: three workloads, end to end and layer by layer.

    python3 bench/run.py --workload classify-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test     # the golden check fires on tampered goldens
    python3 bench/run.py --record        # rewrite bench/goldens.json from src/
    python3 bench/run.py --write-spec    # rewrite BENCHMARK.json from bench/metrics.py

Run from the root of a checkout.  Every pass runs in a fresh interpreter
(bench/worker.py), one process at a time.  An untraced run times
SETUP_SAMPLES fresh interpreters that only set up, half before and half
after the passes, runs passes of the workload while another pass fits in
--seconds (at least one), and reports medians.  A traced run alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones plus the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each run also writes its full
record, with the seed, Python version, CPU count and commit, under
.bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(BENCH_DIR, "worker.py")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")

sys.path.insert(0, BENCH_DIR)
from metrics import END_TO_END, benchmark_spec, per_layer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = 30     # BENCHMARK.json's run_seconds
SETUP_SAMPLES = 20
DEADLINE_S = 170     # every run ends well inside 180 s


class BenchError(Exception):
    pass


def child_env(seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SACT_")}
    env["PYTHONHASHSEED"] = str(seed % (2 ** 32))
    return env


def worker(args: list, env: dict, deadline: float) -> tuple:
    """Run the worker once; returns (its JSON result, wall seconds)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the deadline")
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1]), elapsed


def commit() -> str | None:
    """The checkout's commit, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as fh:
        head = fh.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def source_digest() -> str:
    """sha256 over the library sources, so a result names the code it ran."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "sact")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_info(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
            "src_sha256": source_digest()}


def measure(args) -> dict:
    """Run the workload for about args.seconds; returns the full record."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    env = child_env(args.seed)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    # Half the set-up samples come before the passes and half after, so that
    # their median spans the whole run rather than its first seconds.
    setups = []
    after = 0
    if not args.trace:
        for _ in range(SETUP_SAMPLES // 2):
            setups.append(worker(["--mode", "setup"] + base, env, deadline)[1])
        after = SETUP_SAMPLES - len(setups)

    plain, traced = [], []
    while True:
        began = time.monotonic()
        plain.append(worker(["--mode", "pass"] + base, env, deadline)[0])
        if args.trace:
            traced.append(worker(["--mode", "pass", "--trace", "1"] + base,
                                 env, deadline)[0])
        took = time.monotonic() - began
        pending = after * statistics.median(setups) if setups else 0.0
        if time.monotonic() - start + took + pending > args.seconds:
            break
    for _ in range(after):
        setups.append(worker(["--mode", "setup"] + base, env, deadline)[1])

    passes = plain + traced
    record = {"info": run_info(args), "setup_s": setups, "passes": passes,
              "attempted": sum(p["attempted"] for p in passes),
              "failed": sum(p["failed"] for p in passes)}
    wall = statistics.median(p["wall_s"] for p in plain)
    if args.trace:
        layers = {}
        for metric in per_layer():
            if metric.name == "trace.overhead_s":
                traced_wall = statistics.median(p["wall_s"] for p in traced)
                layers[metric.name] = traced_wall - wall
            else:
                # median_low keeps a measured value (and counts whole)
                layers[metric.name] = statistics.median_low(
                    p["layers"][metric.name] for p in traced)
        record["metrics"] = {m.name: (layers[m.name], m.unit) for m in per_layer()}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": wall,
                  "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in plain) / 1024}
        record["metrics"] = {m.name: (values[m.name], m.unit) for m in END_TO_END}
    return record


def report(record: dict) -> None:
    info = record["info"]
    print(f"workload {info['workload']}  seed {info['seed']}  "
          f"passes {len(record['passes'])}  setup samples {len(record['setup_s'])}")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_frac':48s} {failed / attempted:>16.6g} ratio "
          f"({failed} of {attempted} tasks)")
    for p in record["passes"]:
        if p["failed"]:
            print(f"  mismatches: {', '.join(p['failed_ids'])}")
    print("run: " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))


def record_goldens() -> None:
    env = child_env(0)
    goldens = {"recorded_from": {"commit": commit(), "src_sha256": source_digest(),
                                 "python": platform.python_version()},
               "cli": {}, "factor": {}}
    for name in WORKLOADS:
        part, _ = worker(["--mode", "record", "--workload", name], env,
                         time.monotonic() + 900)
        for key, value in part.items():
            goldens[key].update(value)
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS}: {len(goldens['cli'])} CLI tasks, "
          f"{len(goldens['factor'])} factor data sets")


def self_test() -> int:
    result, _ = worker(["--mode", "selftest"], child_env(0), time.monotonic() + 300)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(spec_path) as fh:
        spec_ok = json.load(fh) == benchmark_spec(RUN_SECONDS)
    print(("PASS " if spec_ok else "FAIL ") + "BENCHMARK.json matches bench/metrics.py")
    ok = result["ok"] and spec_ok
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--record", action="store_true")
    mode.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as fh:
            json.dump(benchmark_spec(RUN_SECONDS), fh, indent=2)
            fh.write("\n")
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "sact", "__init__.py")):
        print(f"error: no library source at {os.path.join(ROOT, 'src', 'sact')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    try:
        if args.record:
            record_goldens()
            return 0
        if not os.path.isfile(GOLDENS):
            print(f"error: no goldens at {GOLDENS}", file=sys.stderr)
            return 2
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        record = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    report(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
