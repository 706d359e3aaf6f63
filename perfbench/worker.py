"""One benchmark process: set-up, then the measured passes.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --role ROLE

Set-up is ``import kerntest``, making the inputs (and writing the CSVs of
oneshot_large) and one warm-up round.  The worker prints a ready line when
set-up is done, so the parent can time set-up from process start.  With
``--role setup`` it stops there.  ``--role measure`` then runs a peak pass
(one round under tracemalloc) and the timed pass; ``--role trace``
runs the untraced pass and the traced pass.  The last line is one JSON
object with the raw measurements.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

PROTOCOL = "@@perfbench "

HERE = Path(__file__).resolve().parent


class Ledger:
    """Checks every call and remembers what each call index returned."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, int] = {}
        self.first_output: dict[int, str] = {}
        self.round_texts: dict[int, str] = {}
        self.null_trials: dict[int, tuple] = {}

    def record(self, index: int, call, raw, error, round_len: int) -> None:
        self.attempted += 1
        if error is not None:
            text = f"raised {type(error).__name__}: {error}"
            problems, null_trials = [text], None
        else:
            text, problems, null_trials = call.inspect(raw)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.first_output.setdefault(index, digest) != digest:
            problems = problems + ["output differs from an earlier run of the same call"]
        if index < round_len:
            self.round_texts.setdefault(index, text)
        if null_trials is not None:
            self.null_trials.setdefault(index, null_trials)
        if problems:
            self.failed += 1
            for problem in problems:
                key = f"{call.label}: {problem}"
                self.problems[key] = self.problems.get(key, 0) + 1

    def output_digest(self, round_len: int) -> str:
        texts = [self.round_texts[i] for i in range(round_len)]
        return hashlib.sha256("\n".join(texts).encode()).hexdigest()

    def null_rates(self, alpha: float) -> dict:
        """Per framework: rejection rate over distinct null trials, and its cap."""
        totals: dict[str, list[int]] = {}
        for framework, trials, rejects in self.null_trials.values():
            entry = totals.setdefault(framework, [0, 0])
            entry[0] += trials
            entry[1] += rejects
        out = {}
        for framework, (trials, rejects) in sorted(totals.items()):
            cap = alpha + 3.0 * math.sqrt(alpha * (1.0 - alpha) / trials)
            out[framework] = {"trials": trials, "rejects": rejects, "rate": rejects / trials,
                              "cap": cap, "ok": rejects / trials <= cap}
        return out


def run_calls(mix, ledger: Ledger, indices, before_call=None) -> tuple[list[float], list[float]]:
    """Run the given calls in order; return each call's wall time and
    process CPU time in seconds."""
    wall, cpu = [], []
    for index in indices:
        call = mix.call(index)
        if before_call is not None:
            before_call()
        raw = error = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            raw = call.run()
        except Exception as exc:  # a failing call is counted, the loop goes on
            error = exc
        cpu.append(time.process_time() - cpu_start)
        wall.append(time.perf_counter() - start)
        ledger.record(index, call, raw, error, mix.round_len)
    return wall, cpu


def closed_loop(mix, ledger: Ledger, duration: float, before_call=None) -> dict:
    """Whole rounds, one call after another, until ``duration`` has passed."""
    wall: list[float] = []
    cpu: list[float] = []
    tests: list[int] = []
    start = time.perf_counter()
    index = 0
    while not wall or time.perf_counter() - start < duration:
        indices = range(index, index + mix.round_len)
        round_wall, round_cpu = run_calls(mix, ledger, indices, before_call)
        wall += round_wall
        cpu += round_cpu
        tests += [mix.call(i).tests for i in indices]
        index += mix.round_len
    return {"call_s": wall, "cpu_s": cpu, "tests": tests}


def peak_pass(mix, ledger: Ledger) -> float:
    """Largest tracemalloc peak of one call over one round, in bytes."""
    peak = 0
    tracemalloc.start()
    try:
        for index in range(mix.round_len):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run_calls(mix, ledger, [index])
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak


def traced_pass(mix, ledger: Ledger, duration: float) -> dict:
    import spans

    recorder = spans.Recorder()

    def before_call() -> None:
        recorder.call_id += 1

    recorder.install()
    try:
        loop = closed_loop(mix, ledger, duration, before_call)
    finally:
        recorder.uninstall()
    return {**loop, "summary": spans.summarise(recorder, loop["call_s"])}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(HERE.parent / "src"))
    import kerntest  # noqa: F401  (set-up cost includes the import)
    import workloads

    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        mix = workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
        ledger = Ledger()
        run_calls(mix, ledger, range(mix.round_len))  # warm-up round
        print(PROTOCOL + "ready", flush=True)
        if args.role == "setup":
            return 0
        ledger.attempted = ledger.failed = 0  # the warm-up belongs to set-up
        ledger.problems.clear()
        out = {"env": environment(), "round_len": mix.round_len}
        if args.role == "measure":
            out["peak_bytes"] = peak_pass(mix, ledger)
            out["timed"] = closed_loop(mix, ledger, args.seconds)
        else:
            out["timed"] = closed_loop(mix, ledger, args.seconds)
            out["traced"] = traced_pass(mix, ledger, args.seconds)
        out.update(
            attempted=ledger.attempted,
            failed=ledger.failed,
            problems=ledger.problems,
            output_digest=ledger.output_digest(mix.round_len),
            null_rates=ledger.null_rates(workloads.ALPHA),
        )
    print(PROTOCOL + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
