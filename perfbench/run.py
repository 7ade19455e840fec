#!/usr/bin/env python3
"""Benchmark driver for statebench.

Builds the perfbench program from the checkout's sources, runs one
workload in fresh processes and prints every metric by name with its
unit. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload paper-hub|ml-sweep|open-loop \
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 measures the end-to-end metrics with the simulator's
telemetry off: it samples set-up time in several set-up-only processes,
then runs the workload in RUNS fresh processes (more while --seconds
have not passed), and reports medians (peak RSS: the highest). --trace 1
runs the workload untraced, traced, and untraced again when the budget
allows, and reports the per-layer metrics. Metric names and units come
from BENCHMARK.json at the root of the checkout. Everything the
benchmark writes goes under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ("paper-hub", "ml-sweep", "open-loop")
# Set-up-only processes per run; setup_s is the median of these and of
# the measured processes' own set-up times.
SETUP_SAMPLES = 25
# Measured processes per --trace 0 run. One paper-hub run takes 33-40 s
# on a 2-vCPU host, an ml-sweep or open-loop run 10-20 s; more would not
# fit the hour that a full pass of 70 runs over the three workloads may
# take.
RUNS = {"paper-hub": 1, "ml-sweep": 2, "open-loop": 2}
# Host seconds one invocation may spend after the build.
BUDGET_S = 165

# Which end-to-end metric, on which workload, each per-layer metric is
# meant to move (first matching prefix wins).
MOVES = [
    ("exp.", "wall_s", "paper-hub"),
    ("cpu.sched", "wall_s, cpu_s", "paper-hub; flat on open-loop"),
    ("cpu.sim", "wall_s, cpu_s", "paper-hub; flat on open-loop"),
    ("cpu.durable", "wall_s", "paper-hub"),
    ("cpu.queue", "wall_s", "paper-hub"),
    ("cpu.table", "wall_s", "paper-hub"),
    ("cpu.json", "wall_s (via exp.fig14.wall_s)", "paper-hub"),
    ("cpu.mlkit", "wall_s", "ml-sweep"),
    ("cpu.payload", "wall_s", "ml-sweep"),
    ("cpu.traffic", "wall_s", "open-loop"),
    ("cpu.", "wall_s, cpu_s", "the rest of any workload"),
    ("census.", "wall_s", "paper-hub"),
    ("mlkit.", "wall_s", "ml-sweep"),
    ("payload.", "wall_s", "ml-sweep"),
    ("optimizer.", "wall_s", "ml-sweep"),
    ("traffic.", "wall_s (events/s)", "open-loop"),
    ("spans.", "wall_s", "paper-hub, ml-sweep"),
    ("go.", "cpu_s, peak_rss_mb", "every workload"),
    ("obs.trace_overhead", "none (traced/untraced wall_s)", "every workload"),
]


class BenchError(Exception):
    pass


def go_env():
    """Keeps the Go toolchain's caches and config inside the checkout."""
    cache = os.path.join(ROOT, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(cache, "gocache"),
        GOMODCACHE=os.path.join(cache, "gomodcache"),
        GOPATH=os.path.join(cache, "gopath"),
        HOME=os.path.join(cache, "home"),
        XDG_CONFIG_HOME=os.path.join(cache, "home", ".config"),
        XDG_CACHE_HOME=os.path.join(cache, "home", ".cache"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    for need in ("go.mod", "internal"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"statebench sources not found ({need} missing at {ROOT})")
    os.makedirs(BUILD, exist_ok=True)
    p = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=go_env(),
                       capture_output=True, text=True, timeout=850)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr)


def commit():
    """The checkout's git commit, or a hash of its Go sources when it is
    not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        ref = open(head).read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(ROOT, ".git", ref[5:])
        if os.path.isfile(path):
            return open(path).read().strip()
        packed = os.path.join(ROOT, ".git", "packed-refs")
        if os.path.isfile(packed):
            for line in open(packed):
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for f in sorted(filenames):
            if f.endswith(".go") or f == "go.mod":
                path = os.path.join(dirpath, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return "tree-" + h.hexdigest()[:12]


def spawn(args, deadline):
    """Runs the perfbench program once and returns its probe."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    t0 = time.time_ns()
    p = subprocess.Popen([BIN, *args, "-t0", str(t0)], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = p.communicate(timeout=left)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise BenchError(f"perfbench {' '.join(args)} timed out")
    lines = out.strip().splitlines()
    if p.returncode not in (0, 3) or not lines:
        raise BenchError(f"perfbench {' '.join(args)} exited {p.returncode}:\n{err}")
    return json.loads(lines[-1])


def load_json(path, default):
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    return default


def check_digests(workload, seed, probes):
    """Every run of a seed must render the same output: the same digest
    in all of this invocation's runs, the digest pinned in pinned.json,
    and the digest an earlier invocation recorded in this checkout."""
    digests = {p["digest"] for p in probes}
    if len(digests) != 1:
        return [f"runs disagree on the output digest: {sorted(digests)}"], "none"
    digest = digests.pop()
    pinned = load_json(os.path.join(HERE, "pinned.json"), {}).get(workload, {})
    record_path = os.path.join(BUILD, "digests.json")
    record = load_json(record_path, {})
    seen = record.setdefault(workload, {})
    key = str(seed)
    for source, table in (("pinned.json", pinned), ("an earlier run", seen)):
        if key in table and table[key] != digest:
            return [f"output digest {digest} differs from {source} ({table[key]})"], source
    seen[key] = digest
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return [], "pinned.json" if key in pinned else "recorded"


def moves(name):
    for prefix, metric, workload in MOVES:
        if name.startswith(prefix):
            return metric, workload
    return "", ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        raise BenchError(f"{spec_path} not found")
    spec = load_json(spec_path, {})
    build()
    deadline = time.monotonic() + BUDGET_S
    base = ["-workload", args.workload, "-seed", str(args.seed)]

    if args.trace:
        untraced = [spawn(base, deadline)]
        traced = spawn(base + ["-trace", "-out", os.path.join(BUILD, "trace")], deadline)
        # Untraced runs on both sides of the traced one cancel a steady
        # drift in host speed out of the overhead ratio.
        if deadline - time.monotonic() > 1.5 * untraced[0]["wall_s"]:
            untraced.append(spawn(base, deadline))
        probes = untraced + [traced]
        layers = dict(traced["layers"])
        for k, v in untraced[0]["layers"].items():
            if k.startswith("go."):
                layers[k] = v
        layers["obs.trace_overhead"] = traced["wall_s"] / statistics.mean(p["wall_s"] for p in untraced)
        declared = spec["per_layer"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in declared}
    else:
        setups = [spawn(base + ["-setup-only"], deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
        probes = []
        start = time.monotonic()
        while len(probes) < RUNS[args.workload] or time.monotonic() - start < args.seconds:
            if probes and time.monotonic() + 1.2 * max(p["wall_s"] for p in probes) > deadline:
                break
            probes.append(spawn(base, deadline))
        setups += [p["setup_s"] for p in probes]
        med = lambda key: statistics.median(p[key] for p in probes)
        # Peak RSS is the highest of the runs: a GC cycle that happens to
        # land before the largest allocation sometimes leaves one run of
        # ml-sweep 40% lower, and a mean of two would carry that.
        values = {"wall_s": med("wall_s"), "cpu_s": med("cpu_s"),
                  "peak_rss_mb": max(p["peak_rss_mb"] for p in probes),
                  "setup_s": statistics.median(setups)}
        declared = spec["end_to_end"]

    problems, source = check_digests(args.workload, args.seed, probes)
    attempted = failed = 0
    for p in probes:
        bad = bool(p["problems"]) or bool(problems)
        attempted += p["attempted"]
        failed += p["attempted"] if bad else p["failed"]
        problems += p["problems"] or []
    golden = any(p["golden"] for p in probes)

    st = dict(probes[0]["stamp"], workers=probes[0]["workers"], seed=args.seed)
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} runs={len(probes)} workers={st['workers']} nproc={st['nproc']} "
          f"gomaxprocs={st['gomaxprocs']} go={st['go_version']} commit={commit()}")
    print(f"check: golden={'yes' if golden else 'no (seed has no golden)'} digest={probes[0]['digest']} "
          f"({source}) problems={len(problems)}")
    for msg in problems:
        print("  problem:", msg)
    for m in declared:
        metric, workload = moves(m["name"])
        where = f"  -> {metric} on {workload}" if args.trace else ""
        print(f"  {m['name']:<34} {values[m['name']]:>16.6f} {m['unit']:<6}{where}")
    if not args.trace and args.workload == "open-loop":
        events = statistics.median(p["events"] for p in probes)
        print(f"  {'events_per_s':<34} {events / values['wall_s']:>16.1f} 1/s   (kernel events / wall_s)")
    print(f"  {'fail_frac':<34} {failed / max(attempted, 1):>16.6f} ratio  ({failed}/{attempted})")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    with open(os.path.join(BUILD, "results.jsonl"), "a") as f:
        runs = [{k: p[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb")} for p in probes]
        f.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                            "stamp": st, "commit": commit(), "runs": runs, **result}) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
