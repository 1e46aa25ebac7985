#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 stapbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

On first use in a checkout it builds the harness from the checkout's own
sources into .bench_build/. It then runs the harness, checks every CPI's
output, prints each metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics.

Exit codes: 0 when every CPI is correct (and, traced, the trace is valid);
1 when a CPI failed or the trace is invalid; 2 when the sources, the build
or the harness run fail, in which case no result line is printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from stats import block_tail, median, ratio, relative_gap  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "stapbench"
HARNESS = BUILD / "stapbench_harness"
WORKLOADS = ("seq_paper", "stream_paper", "stream_small_guarded")
TASKS = ("doppler", "easy_wt", "hard_wt", "easy_bf", "hard_bf", "pc", "cfar")
STAGES = ("doppler", "reorg", "weights", "beamform", "pulse_compression",
          "cfar")
# A traced run is invalid when its decomposition misses the measured total
# by more than this share.
RECONCILE_LIMIT = 0.05
# The whole run must end within 180 s; the harness gets what is left after
# the build check and the window.
HARNESS_TIMEOUT_S = 170


def fail(message):
    print(f"stapbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no ppstap sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail(f"build step failed: {' '.join(cmd)}")


def source_provenance():
    """Git commit when the checkout is a repository, and a digest of src/."""
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def run_harness(args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PPSTAP_")}
    cmd = [str(HARNESS), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail(f"harness exited with {r.returncode}")
    return json.loads(r.stdout.strip().splitlines()[-1])


def ms(seconds):
    return seconds * 1e3


def seq_throughput(process_s):
    return ratio(len(process_s), sum(process_s))


def stream_throughput(p):
    """Pools the runs' PipelineResult::throughput: runs over the sum of
    their mean completion gaps, which is completions over gap time when
    every run has the same number of measured gaps, as clean runs do."""
    return ratio(len(p["throughput"]), sum(1.0 / x for x in p["throughput"]))


def window_note(doc, workload):
    """What the untraced window timed."""
    u = doc["untraced"]
    if workload == "seq_paper":
        return f"{len(u['process_s'])} timed process calls"
    return (f"{u['runs']} runs of {doc['provenance']['cpis_per_run']} CPIs, "
            f"each set up from scratch; setup_s is construction to the first "
            f"CPI's report")


def end_to_end(doc, workload):
    """The seven user-visible metrics, from the untraced pass."""
    u = doc["untraced"]
    if workload == "seq_paper":
        latencies = u["process_s"]
        throughput = seq_throughput(latencies)
        cpu = ratio(sum(u["cpu_s"]), len(latencies))
    else:
        latencies = u["latency_s"]
        throughput = stream_throughput(u)
        cpu = ratio(u["cpu_s"], u["cpis"])
    tail_s, tail_p, blocks, n = block_tail(latencies)
    exact = ratio(doc["attempted"] - doc["failed"], doc["attempted"])
    metrics = {
        "throughput_cpi_s": (throughput, "cpi/s"),
        "latency_p50_ms": (ms(median(latencies)), "ms"),
        "latency_tail_ms": (ms(tail_s), "ms"),
        "exact_cpi_ratio": (exact, "ratio"),
        "cpu_s_per_cpi": (cpu, "s"),
        "peak_rss_mb": (doc["peak_rss_mb"], "MB"),
        "setup_s": (median(doc["setup_s"]), "s"),
    }
    notes = [window_note(doc, workload),
             f"latency_tail_ms: median over {blocks} blocks of "
             f"{n // blocks}+ consecutive samples ({n} in all) of each "
             f"block's p{'/p'.join(map(str, tail_p))}",
             f"failed_cpi_ratio = {doc['failed']}/{doc['attempted']}"]
    return metrics, notes, True


def per_layer(doc, workload):
    """Per-layer metrics: ledger and timing figures from the untraced pass,
    span-derived figures from the traced pass, and synth/stap/kernels
    figures from the sequential chain (the measured chain on seq_paper, the
    off-clock reference on the stream workloads)."""
    u, t = doc["untraced"], doc["traced"]
    m = {}
    if workload == "seq_paper":
        chain, stages = u, doc["stages"]
        generate_s = u["generate_s"] + t["generate_s"]
        flops = t["flops"]
        m["synth.useful_ratio"] = (1.0, "ratio")
        dropped = doc["trace_dropped"]
        decomposed, measured = sum(stages["all_stages"]), sum(t["process_s"])
        joined = len(t["process_s"])
        base = seq_throughput(u["process_s"])
        traced = seq_throughput(t["process_s"])
    else:
        ref = doc["reference"]
        chain, stages = ref, ref["stages"]
        generate_s = ref["generate_s"]
        flops = ref["flops"]
        m["synth.useful_ratio"] = (
            ratio(u["cpis"], u["cpis"] + u["regenerations"]), "ratio")
        dropped = t["dropped"] + ref["trace_dropped"]
        # Sums over the chains joined to a sink-measured CPI (0 when none
        # joined, which makes the traced run invalid below).
        decomposed = t["chain_accounted_sum_s"]
        measured = t["measured_latency_sum_s"]
        joined = t["chains_joined"]
        base, traced = stream_throughput(u), stream_throughput(t)

    m["synth.generate_ms"] = (ms(median(generate_s)), "ms")
    for stage in STAGES:
        m[f"stap.{stage}_ms"] = (ms(median(stages[stage])), "ms")
    flops_per_cpi = median(flops)
    m["kernels.flops_per_cpi"] = (flops_per_cpi, "flop")
    m["kernels.gflops"] = (
        flops_per_cpi / median(chain["process_s"]) / 1e9, "GFLOP/s")

    pipeline = workload != "seq_paper"
    for task in TASKS:
        for phase in ("recv", "comp", "send", "wait"):
            value = ms(median(u["tasks"][task][f"{phase}_s"])) if pipeline \
                else 0.0
            m[f"core.{task}.{phase}_ms"] = (value, "ms")
    span_ms = (lambda key: ms(median(t[key]))) if pipeline else \
        (lambda key: 0.0)
    m["core.period_ms"] = (span_ms("period_s"), "ms")
    m["core.accounted_fraction"] = (
        median(t["accounted_fraction"]) if pipeline else 0.0, "ratio")
    m["core.chain_compute_ms"] = (span_ms("chain_compute_s"), "ms")
    m["comm.bytes_per_cpi"] = (
        median(u["bytes_per_cpi"]) if pipeline else 0.0, "B")
    m["comm.frames_per_cpi"] = (
        ratio(t["xfer_spans"], t["cpis"]) if pipeline else 0.0, "count")
    for seg in ("pack", "unpack", "transport", "queue"):
        m[f"comm.{seg}_ms"] = (span_ms(f"chain_{seg}_s"), "ms")
    m["comm.retransmissions"] = (u.get("retransmissions", 0), "count")
    m["integrity.checks_per_cpi"] = (
        ratio(u["integrity_checks"], u["cpis"]) if pipeline else 0.0, "count")
    m["integrity.checks_failed"] = (u.get("integrity_checks_failed", 0),
                                    "count")
    m["health.suspects"] = (u.get("health_suspects", 0), "count")
    m["obs.trace_overhead"] = (1.0 - ratio(traced, base), "ratio")
    m["obs.spans_dropped"] = (dropped, "count")

    gap = relative_gap(decomposed, measured) if measured > 0 else float("inf")
    valid = dropped == 0 and gap <= RECONCILE_LIMIT
    notes = [
        f"obs.trace_overhead base: untraced throughput {base:.4f} cpi/s, "
        f"traced {traced:.4f} cpi/s",
        f"trace reconciliation over {joined} CPIs: decomposition "
        f"{decomposed:.6f} s against measured {measured:.6f} s (gap "
        f"{gap:.2%}, limit {RECONCILE_LIMIT:.0%})",
        f"traced run {'valid' if valid else 'INVALID'}",
    ]
    return m, notes, valid


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    commit, digest = source_provenance()
    doc = run_harness(args)
    try:
        metrics, notes, valid = (per_layer if args.trace else end_to_end)(
            doc, args.workload)
    except ValueError as e:  # e.g. a window too short for a tail percentile
        fail(str(e))

    prov = dict(doc["provenance"], git_commit=commit, source_digest=digest)
    print(f"stapbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  note: {note}")

    correct = doc["failed"] == 0 and valid
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
