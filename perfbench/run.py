#!/usr/bin/env python3
r"""Wall-clock benchmark of PRS jobs.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/, times process set-up in several fresh processes, then runs
the workload's jobs for --seconds in one process and turns the per-job
records into metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (see README.md).

Every job's result digest is checked: at seed 42 against the pinned digest
of the workload, at any seed against every other job of the run (1 and
min(4, nproc) host threads, traced and untraced must agree).
"""

import argparse
import collections
import fcntl
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "prs_perfbench")

WORKLOADS = ("cmeans_200k", "dgemm_8k", "wordcount_1m", "modeled_cmeans_16n")

# Result digests of the full-size workloads at seed 42 (prs_run defaults).
PINNED_SEED = 42
PINNED_DIGESTS = {
    "cmeans_200k": "569a04577905a5e4",
    "dgemm_8k": "28f21be703f48caa",
    "wordcount_1m": "6f6b230dc0bc9701",
    "modeled_cmeans_16n": "1698b22a3892ddc2",
}

SETUP_PROCESSES = 9
# Seconds a run may take beyond its budget: the last job, or the one job
# of each kind that always runs, can overshoot it.
OVERSHOOT_S = 140


def build():
    """Configures once, then brings the binary up to date (a no-op when it
    is). A lock keeps concurrent runs in one checkout from racing."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("PRS sources not found next to perfbench/ "
                           "(expected src/CMakeLists.txt)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                        "--target", "prs_perfbench"],
                       check=True, stdout=sys.stderr)


def run_binary(args, timeout):
    """Runs the driver binary and returns its last stdout line as JSON."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          timeout=timeout, check=True, text=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den > 0 else 0.0


def judge(jobs, pinned):
    """Marks each job failed or not. A job fails if it threw, or if its
    digest or virtual time differs from the reference: the pinned digest
    when there is one, else the most common digest of the run (ties go to
    the single-thread job, the serial baseline). Returns the failed count."""
    digests = [j["digest"] for j in jobs if not j["error"]]
    reference = pinned
    if reference is None and digests:
        counts = collections.Counter(digests)
        top = max(counts.values())
        serial = [j["digest"] for j in jobs
                  if j["threads"] == 1 and not j["error"]]
        candidates = [d for d in counts if counts[d] == top]
        reference = next((d for d in serial if d in candidates), candidates[0])
    virtual = collections.Counter(j["virtual_s"] for j in jobs
                                  if not j["error"])
    ref_virtual = virtual.most_common(1)[0][0] if virtual else None
    failed = 0
    for j in jobs:
        j["failed"] = bool(j["error"]) or j["digest"] != reference or \
            j["virtual_s"] != ref_virtual
        failed += j["failed"]
    return failed


def end_to_end(doc, setup_samples, pooled_threads):
    timed = [j for j in doc["jobs"] if j["kind"] == "timed"]
    pooled = [j["wall_s"] for j in timed if j["threads"] == pooled_threads]
    serial = [j["wall_s"] for j in timed if j["threads"] == 1]
    return {
        "wall_s": (median(pooled), "s"),
        "wall_s_1t": (median(serial), "s"),
        "setup_s": (median(setup_samples), "s"),
        # After the process's first job, as in a one-job prs_run process;
        # later jobs' peaks depend on how many fit in the run.
        "peak_rss_mb": (timed[0]["maxrss_mb"], "MB"),
        "virtual_s": (median([j["virtual_s"] for j in timed]), "sim_s"),
    }


def per_layer(doc, pooled_threads, failed, attempted):
    jobs = doc["jobs"]
    timed = [j for j in jobs if j["kind"] == "timed"]
    pooled = [j for j in timed if j["threads"] == pooled_threads]
    traced = [j for j in jobs if j["kind"] == "traced"]

    def med(rows, key):
        return median([r[key] for r in rows])

    wall = med(pooled, "wall_s")
    wall_1t = median([j["wall_s"] for j in timed if j["threads"] == 1])
    gen_s = med(traced, "gen_s")
    run_s = med(traced, "run_s")
    dispatch_s = med(traced, "dispatch_s")
    digest_s = med(traced, "digest_s")
    # Estimate: the payloads' share of apps.run is what the modeled replay
    # of the same spec (no payloads) does not account for.
    payloads = [max(j["run_s"] - j["dispatch_s"], 0.0) for j in traced]
    gflops = [ratio(j["flops"], p) / 1e9 for j, p in zip(traced, payloads)]
    drift = [ratio(g * 1e9, j["fc_flops"]) for j, g in zip(traced, gflops)]
    events = med(traced, "events")
    digest_mb = med(traced, "digest_bytes") / 1e6
    gen_mb = med(traced, "gen_bytes") / 1e6
    pool = [j["pool"] for j in pooled]
    return {
        "data.gen_s": (gen_s, "s"),
        "data.gen_mb_per_s": (ratio(gen_mb, gen_s), "MB/s"),
        "apps.run_s": (run_s, "s"),
        "apps.payload_s": (median(payloads), "s"),
        "apps.host_gflops": (median(gflops), "GFLOP/s"),
        "roofline.host_vs_fc": (median(drift), "ratio"),
        "exec.pool.regions": (med(pool, "pool_regions"), "count"),
        "exec.pool.chunks": (med(pool, "pool_chunks"), "count"),
        "exec.pool.occupancy": (med(pool, "pool_occupancy"), "ratio"),
        "exec.pool.steal_ratio": (med(pool, "pool_steal_ratio"), "ratio"),
        "exec.host_speedup": (ratio(wall_1t, wall), "x"),
        "core.dispatch_s": (dispatch_s, "s"),
        "core.map_tasks": (med(traced, "map_tasks"), "count"),
        "core.shuffle_pairs": (med(traced, "shuffle_pairs"), "count"),
        "simtime.events": (events, "count"),
        "simtime.events_per_s": (ratio(events, dispatch_s), "1/s"),
        "ckpt.digest_s": (digest_s, "s"),
        "ckpt.digest_mb": (digest_mb, "MB"),
        "ckpt.digest_mb_per_s": (ratio(digest_mb, digest_s), "MB/s"),
        "proc.minflt": (med(pooled, "minflt"), "count"),
        "proc.sys_s": (med(pooled, "sys_s"), "s"),
        "proc.user_s": (med(pooled, "user_s"), "s"),
        "trace.overhead_s": (med(traced, "functional_s") - wall, "s"),
        "error_rate": (ratio(failed, attempted), "ratio"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs; digests checked for agreement only")
    args = ap.parse_args(argv)

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        common.append("--smoke")

    setup_samples = [run_binary(["setup"] + common, 60)["setup_s"]
                     for _ in range(SETUP_PROCESSES)]
    doc = run_binary(["run"] + common + [
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out-dir", OUT_DIR], args.seconds + OVERSHOOT_S)
    setup_samples.append(doc["setup_s"])

    pinned = None
    if not args.smoke and args.seed == PINNED_SEED:
        pinned = PINNED_DIGESTS[args.workload]
    jobs = doc["jobs"]
    failed = judge(jobs, pinned)
    pooled_threads = doc["env"]["host_threads"]
    if args.trace:
        metrics = per_layer(doc, pooled_threads, failed, len(jobs))
    else:
        metrics = end_to_end(doc, setup_samples, pooled_threads)

    record = {
        "env": doc["env"],
        "trace": args.trace,
        "trace_file": doc["trace_file"],
        "digests": sorted({j["digest"] for j in jobs}),
        "pinned_digest": pinned,
        "jobs": len(jobs),
        "metrics": {k: v[0] for k, v in metrics.items()},
    }
    print(json.dumps({"env": doc["env"]}))
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(1)
