"""kerntest benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop: one client in one process sends
the next call when the previous one has returned.  BLAS runs on one
thread (the single-threaded baseline; the reference machine has 2 cores).

Workloads (sizes are part of the definition):

* calibrate_small: ``harness.experiments.run_experiment`` calibrate cells
  under H0, 4 trials each, B=99, median bandwidth, rotating over MMD
  m=n=20 d=2 permutation, HSIC n=20 d=1+1 permutation and KSD n=200 d=1
  IMQ wild.  Thousands of tiny tests, where building one generator per
  replicate (``resampling.stream``) dominates.
* oneshot_large: in-process ``harness.cli.main`` on CSVs written at
  set-up, B=199, median bandwidth: two-sample m=n=512 d=50 permutation
  and wild, independence n=512 d=25+25 permutation, gof n=512 d=50 IMQ,
  each on a null and on a strong-alternative dataset.  Gram, bandwidth
  and Stein matrices dominate.  The only workload that reads CSVs.
* adaptive_constrained: in-process ``harness.run.execute`` on in-memory
  data m=n=50 d=2, B=499: agg over grid:10 (permutation and wild),
  pool:fuse over grid:10, dp eps=1 with pool:fuse over grid:10, robust
  r=2, each round on a fresh null dataset.  Many small grams sharing one
  replicate set, the aggregation search, and privatisation noise.

The tier-1 suite's wall time is deliberately not a workload: it mixes
all of the above with test-only oracles.

With ``--trace 0`` the run reports the end-to-end metrics:

* tests_per_s: calibrated tests per second of call time;
* call_ms_p50: median time of one call, taken per round (the median of
  the round's calls) and reported as the median over the run's rounds;
* call_ms_p90: 90th percentile of one call's time over all calls (the
  sample count is printed; under 100 calls on oneshot_large);
* peak_mb: largest tracemalloc peak of one call over one round, taken in
  its own pass (MiB);
* setup_s: median of three fresh-interpreter set-ups (import, inputs,
  CSVs, one warm-up round), timed from process start to ready.

The first three come from the raw time of every timed call, measured as
the process CPU time the call used.  The program runs single-threaded
here (one client, BLAS on one thread) and waits on nothing but the page
cache, so that is its wall time on an idle machine.  On a virtual
machine whose host takes the CPU away for tens of milliseconds at a time
(steal), wall time is not: on a 2-vCPU Firecracker VM, calls of about
50 ms of CPU time read 80-110 ms of wall time with no wait for the run
queue, a few calls in a hundred and in busy phases more than one in
ten.  CPU time leaves that out, so that the tail metrics measure the
program.  Its blind spots: time a call spends blocked or asleep is not
counted, and work moved to other threads counts with their CPU time, not
with the wall time it takes.  The report also gives the wall-time
figures and the share of wall time the calls ran on a CPU.

The same host also switches between a normal and a faster CPU speed, in
phases of seconds; a fast phase takes about a third off a call, and in
25 s runs the fast share of the calls ranged from 2% to 55%.  Pooled
over a run, the median call of adaptive_constrained sits in the gap
between its two faster call kinds (robust, pool:fuse) and its three
slower ones, so it drops by up to a third as soon as a sixth of the run
is fast: in three series of 25 s runs or windows (6, 8 and 22 of
them) its spread (IQR/median) was 0.15-0.23 where that of the mean call
time was 0.06-0.13.  A round's
calls run within a fraction of a second, at one speed, so the median
over rounds of each round's median moves only when half of the run is
fast: its spread was 0.04-0.05 in the two series where no run had more
than 35% fast calls, and 0.29 in the one where three of six runs had
43-55%.  The pooled median is in the report.

With ``--trace 1`` it runs an untraced and then a traced pass of the same
length and reports per-layer metrics, normalised per test, from spans
recorded around the calls into each module (see spans.py; spans are
timed with the wall clock), plus the tracing overhead (from the CPU-time
tests_per_s of the two passes) and ``trace.unattributed``.  The latter
is the share of call wall time outside the entry-point span, i.e. the
benchmark's own glue; it cannot show a gap in wrapper coverage inside
the program, because time spent in a function that no wrapper covers
counts as self time of the enclosing span's layer.

Every output is checked: p in (0, 1], reject == (p <= alpha), a finite
statistic, strict JSON (no NaN/Infinity), CLI exit code 0, rejection of
strong alternatives, the same output whenever a call repeats, and on
calibrate_small a null rejection rate at most alpha + 3 sqrt(alpha (1 -
alpha) / T) per framework.  A call that raises or fails a check counts in
``failed``; ``fail_rate`` is failed / attempted.  ``output_digest`` hashes
the deterministic outputs of the first round (result JSON without
timings); it is printed, not gated.

The lines before the last are a readable report with the environment
stamp; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("calibrate_small", "oneshot_large", "adaptive_constrained")
BLAS_THREADS = 1
SETUP_SAMPLES = 3
# set-ups, the peak pass and the overshoot to whole rounds, on top of the
# measured passes of --seconds each
DEADLINE_SLACK_S = 100.0
PROTOCOL = "@@perfbench "

# per-layer metric -> (span names or layers, quantity, unit)
NAMED = {
    "resampling.stream.calls": (("resampling.stream",), "calls", "calls/test"),
    "resampling.stream.self_ms": (("resampling.stream",), "self_s", "ms/test"),
    "resampling.test_decision.self_ms": (("resampling.test_decision",), "self_s", "ms/test"),
    "kernels.gram_matrix.calls": (("kernels.gram_matrix",), "calls", "calls/test"),
    "kernels.gram_matrix.self_ms": (("kernels.gram_matrix",), "self_s", "ms/test"),
    "kernels.gram_matrix.diff_bytes": (("kernels.gram_matrix",), "amount", "B/test"),
    "kernels.bandwidth.self_ms": (("kernels.median_heuristic", "kernels.bandwidth_grid"), "self_s", "ms/test"),
    "kernels.stein_matrix.self_ms": (("kernels.stein_matrix",), "self_s", "ms/test"),
    "statistics.core.self_ms": (("statistics.core_matrix_mmd", "statistics.core_matrix_hsic",
                                 "statistics.core_matrix_hsic_wild", "statistics.core_matrix_ksd"),
                                "self_s", "ms/test"),
    "statistics.design.calls": (("statistics.design",), "calls", "calls/test"),
    "statistics.design.index_bytes": (("statistics.design",), "amount", "B/test"),
    "engines.mmd_permutation.self_ms": (("engines.mmd_permutation_replicates",), "self_s", "ms/test"),
    "engines.hsic_permutation.self_ms": (("engines.hsic_permutation_replicates",), "self_s", "ms/test"),
    "engines.wild.self_ms": (("engines.wild_replicates",), "self_s", "ms/test"),
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unavailable (not a git checkout)"
    return lines[1]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)  # the worker imports kerntest from this checkout's src/
    return env


def run_worker(args, role: str, deadline: float) -> tuple[float, dict | None]:
    """Start one worker; return its set-up time (start to ready) and result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    lines: list[tuple[float, str]] = []
    # a reader thread stamps each line as it arrives, so set-up is timed to
    # the ready line while the main thread enforces the deadline
    reader = threading.Thread(
        target=lambda: lines.extend((time.perf_counter(), line) for line in proc.stdout), daemon=True
    )
    reader.start()
    try:
        proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        reader.join(timeout=10.0)
        proc.stdout.close()
    ready = result = None
    for stamp, line in lines:
        if not line.startswith(PROTOCOL):
            continue
        body = line[len(PROTOCOL):].strip()
        if body == "ready":
            ready = stamp - start
        else:
            result = json.loads(body)
    if proc.returncode != 0 or ready is None or (role != "setup" and result is None):
        raise RuntimeError(f"worker {role} failed (exit code {proc.returncode})")
    return ready, result


def median_of_rounds(call_ms: list[float], round_len: int) -> float:
    """Median over rounds of the median call of each round."""
    return statistics.median(statistics.median(call_ms[k:k + round_len])
                             for k in range(0, len(call_ms), round_len))


def tests_per_second(loop: dict, clock: str = "cpu_s") -> float:
    return sum(loop["tests"]) / sum(loop[clock])


def layer_metrics(trace: dict, untraced: dict) -> dict:
    """Per-layer metrics, normalised per test, from the traced pass."""
    tests = sum(trace["tests"])
    summary = trace["summary"]
    metrics = {}
    for name, (keys, quantity, unit) in NAMED.items():
        total = sum(summary["by_name"].get(k, {}).get(quantity, 0) for k in keys)
        scale = 1e3 if quantity == "self_s" else 1.0
        metrics[name] = (scale * total / tests, unit)
    for layer, entry in summary["by_layer"].items():
        metrics[f"{layer}.self_ms"] = (1e3 * entry["self_s"] / tests, "ms/test")
        metrics[f"{layer}.errors"] = (entry["errors"] / tests, "errors/test")
    traced_tps = tests_per_second(trace)
    untraced_tps = tests_per_second(untraced)
    metrics["trace.spans"] = (summary["spans"] / tests, "spans/test")
    metrics["trace.overhead"] = (1.0 - traced_tps / untraced_tps, "fraction")
    metrics["trace.unattributed"] = (summary["unattributed_s"] / sum(trace["call_s"]), "fraction")
    return metrics


def layer_ranking(trace: dict) -> list[tuple[str, float]]:
    """Self-time share per layer, with resampling.stream split out of resampling."""
    summary = trace["summary"]
    total = sum(trace["call_s"])
    stream = summary["by_name"].get("resampling.stream", {}).get("self_s", 0.0)
    shares = {layer: entry["self_s"] / total for layer, entry in summary["by_layer"].items()}
    shares["resampling"] -= stream / total
    shares["resampling.stream"] = stream / total
    shares["(unattributed)"] = summary["unattributed_s"] / total
    return sorted(shares.items(), key=lambda kv: -kv[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kerntest benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return fail("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "kerntest" / "__init__.py").is_file():
        return fail(f"no kerntest sources under {ROOT / 'src'}; run from a kerntest checkout")

    passes = 2 if args.trace else 1
    deadline = time.perf_counter() + DEADLINE_SLACK_S + passes * args.seconds
    try:
        if args.trace:
            _, result = run_worker(args, "trace", deadline)
            setups = []
        else:
            setups = [run_worker(args, "setup", deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
            ready, result = run_worker(args, "measure", deadline)
            setups.append(ready)
    except (RuntimeError, OSError, ValueError) as exc:
        return fail(str(exc))

    timed = result["timed"]
    call_ms = [1e3 * s for s in timed["cpu_s"]]
    wall_ms = [1e3 * s for s in timed["call_s"]]
    tests_per_s = tests_per_second(timed)
    if args.trace:
        metrics = layer_metrics(result["traced"], timed)
    else:
        metrics = {
            "tests_per_s": (tests_per_s, "1/s"),
            "call_ms_p50": (median_of_rounds(call_ms, result["round_len"]), "ms"),
            "call_ms_p90": (statistics.quantiles(call_ms, n=10, method="inclusive")[8], "ms"),
            "peak_mb": (result["peak_bytes"] / 2**20, "MiB"),
            "setup_s": (statistics.median(setups), "s"),
        }
    correct = all(entry["ok"] for entry in result["null_rates"].values())

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {**result["env"], "git_sha": git_sha(), "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
                "machine": platform.machine()},
        "calls": len(call_ms),
        "tests": sum(timed["tests"]),
        "tests_per_s_untraced": tests_per_s,
        "call_ms_p50_pooled": statistics.median(call_ms),
        "wall_clock": {
            "tests_per_s": tests_per_second(timed, "call_s"),
            "call_ms_p50": median_of_rounds(wall_ms, result["round_len"]),
            "call_ms_p90": statistics.quantiles(wall_ms, n=10, method="inclusive")[8],
            "cpu_share": sum(call_ms) / sum(wall_ms),
        },
        "setup_s_samples": setups,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_rate": result["failed"] / result["attempted"],
        "problems": result["problems"],
        "null_rates": result["null_rates"],
        "output_digest": result["output_digest"],
    }
    if args.trace:
        trace = result["traced"]
        report["tests_per_s_traced"] = tests_per_second(trace)
        report["layer_share"] = dict(layer_ranking(trace))
    print(json.dumps(report, indent=2))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
