#!/usr/bin/env python3
"""End-to-end benchmark of bitio on both clocks.

    python3 perfbench/run.py --workload paper_epoch|original_io|live_pic \\
        --seed N --seconds S --trace 0|1 [--tiny]
    python3 perfbench/run.py --write-golden

Run from the repository root.  Builds perfbench/ (the bitio libraries plus
the bitio_perf program) into .bench_build/perfbench, runs one closed-loop
workload for --seconds, checks its outputs and prints, as the last line of
standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list; each value is the median of the run's samples.
The line before it is the full record: commit, machine, per-metric median,
quartiles and sample count, every correctness check and every per-layer
value.  The record is also written to .bench_build/perfbench/results/ and a
traced run's spans to .bench_build/perfbench/traces/ (Chrome trace-event
JSON, opens in Perfetto).  See perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bitio_perf")
GOLDEN = os.path.join(HERE, "golden.json")
WORKLOADS = ("paper_epoch", "original_io", "live_pic")
VARIANTS = 8  # input_variant() in cpp/workloads.hpp: seed % 8
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; serialized by a lock."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no bitio sources at %s/src" % ROOT)
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            configure = [cmake, "-S", HERE, "-B", BUILD, *generator,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                raise BenchError("cmake configure failed")
        make = [cmake, "--build", BUILD, "--target", "bitio_perf", "-j", "4"]
        if subprocess.run(make, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed")


def run_binary(workload, seed, seconds, trace, tiny, trace_json=None):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    if trace_json:
        cmd += ["--trace-json", trace_json]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("bitio_perf exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(samples):
    """Median, quartiles and count, as statistics.quantiles(n=4) gives them."""
    if len(samples) == 1:
        q1 = median = q3 = samples[0]
    else:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    return {"n": len(samples), "median": median, "q1": q1, "q3": q3}


def golden_key(raw):
    return "%s/%s/%d" % ("tiny" if raw["tiny"] else "paper", raw["workload"],
                         raw["variant"])


def check_golden(raw):
    """Pinned outputs must equal golden.json bit for bit."""
    with open(GOLDEN) as f:
        expected = json.load(f).get(golden_key(raw))
    if expected is None:
        return False
    return all(raw["pinned"].get(k) == v for k, v in expected.items()
               if k in raw["pinned"])


def source_fingerprint():
    """Commit when the tree is a git checkout, and a hash of the sources."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()


def machine(raw):
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "platform": platform.platform(), **raw["build"]}


def make_record(raw, args, trace_json):
    commit, source_sha256 = source_fingerprint()
    checks = dict(raw["checks"])
    checks["golden_model_outputs"] = check_golden(raw)
    correct = bool(checks) and all(checks.values())
    attempted = raw["attempted"]
    # A run whose correctness check fails counts all its operations failed.
    failed = raw["failed"] if correct else attempted
    metrics = {name: {"unit": m["unit"], **summarize(m["samples"])}
               for name, m in raw["metrics"].items()}
    return {
        "workload": raw["workload"], "seed": raw["seed"],
        "variant": raw["variant"], "trace": raw["trace"], "tiny": raw["tiny"],
        "seconds": args.seconds, "commit": commit,
        "source_sha256": source_sha256, "machine": machine(raw),
        "correct": correct, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "checks": checks, "metrics": metrics, "layers": raw["layers"],
        "pinned": raw["pinned"], "trace_json": trace_json,
    }


def result_line(record, trace):
    """The contract line: BENCHMARK.json's metrics for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    values = {}
    for name in names:
        if trace:
            layer = record["layers"].get(name)
            if layer is None:
                raise BenchError("no per-layer metric %s" % name)
            values[name] = {"value": layer["value"], "unit": layer["unit"]}
        else:
            metric = record["metrics"].get(name)
            if metric is None:
                raise BenchError("no end-to-end metric %s" % name)
            values[name] = {"value": metric["median"], "unit": metric["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": values}


def print_table(record):
    log("%s seed %d (variant %d)%s: correct=%s attempted=%d failed=%d" % (
        record["workload"], record["seed"], record["variant"],
        " traced" if record["trace"] else "", record["correct"],
        record["attempted"], record["failed"]))
    for name, m in sorted(record["metrics"].items()):
        log("  %-20s %14.6g %-10s [q1 %.6g, q3 %.6g, n=%d]" % (
            name, m["median"], m["unit"], m["q1"], m["q3"], m["n"]))
    for name, v in sorted(record["layers"].items()):
        log("  %-28s %14.6g %s" % (name, v["value"], v["unit"]))
    failed_checks = [k for k, ok in record["checks"].items() if not ok]
    if failed_checks:
        log("  FAILED CHECKS: " + ", ".join(failed_checks))


def write_golden():
    """Record the pinned outputs of every variant at both sizes."""
    golden = {}
    for tiny in (True, False):
        for workload in WORKLOADS:
            for seed in range(VARIANTS):
                raw = run_binary(workload, seed, 0.01, 1, tiny)
                if not all(raw["checks"].values()):
                    raise BenchError("%s variant %d fails its checks" %
                                     (workload, seed))
                golden[golden_key(raw)] = raw["pinned"]
                log("pinned " + golden_key(raw))
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes instead of paper scale")
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden.json (model changes only)")
    args = parser.parse_args()
    try:
        build()
        if args.write_golden:
            write_golden()
            return 0
        if args.workload is None or args.seed is None or args.seed < 0:
            parser.error("--workload and a non-negative --seed are required")
        trace_json = None
        if args.trace:
            os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
            trace_json = os.path.join(BUILD, "traces", "%s-seed%d.json" % (
                args.workload, args.seed))
        raw = run_binary(args.workload, args.seed, args.seconds, args.trace,
                         args.tiny, trace_json)
        record = make_record(raw, args, trace_json)
        line = result_line(record, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        return 1
    os.makedirs(os.path.join(BUILD, "results"), exist_ok=True)
    with open(os.path.join(BUILD, "results", "%s-seed%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print_table(record)
    print(json.dumps({"record": record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
