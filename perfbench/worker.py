"""One benchmark process: set-up, then (unless --setup-only) the timed phase.

Started by ``run.py``, which pins the environment and times the process
from its start.  Writes its result as JSON to ``--out``.

The timed phase is a closed loop with one caller: rounds of the workload's
case mix run back to back, and the loop stops after the round that brings
the elapsed time closest to ``--seconds``.  Every operation time is scaled
to the reference CPU speed (see speed.py).  With ``--trace 1`` an untraced
pass of half the time is followed by one traced round (the same round 0),
whose outputs must equal the untraced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import spans
import speed
import workloads

# Set-up is scaled by probes taken right after it, for this long and at least three.
SETUP_PROBE_S = 0.2


def percentile(xs: list[float], p: float) -> tuple[float, int]:
    """The p-th percentile of sorted xs by the nearest-rank method, and the
    number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(xs)))
    return xs[rank - 1], len(xs) - rank


class Loop:
    """Runs rounds of a workload, checks every output and keeps the timings.

    Only the latency of each operation is kept (in a compact array), so the
    memory of the process does not grow with the number of operations.
    The CPU speed is probed between operations.
    """

    def __init__(self, workload: workloads.Workload, cpu: speed.Speed):
        self.workload = workload
        self.cpu = cpu
        self.latencies = array("d")  # measured latency of each operation, s
        self.failed = 0
        self.samples = 0  # Monte Carlo draws
        self.points: set[str] = set()
        self.repeated = self.pointed = 0  # operations with an evaluation point seen before / at all
        self.first: dict[str, object] = {}  # case key -> first output in this run
        self.failures: list[str] = []

    def run(self, seconds: float, rounds: int | None = None) -> list[float]:
        """Run rounds until the elapsed time is closest to ``seconds`` (or for
        ``rounds`` rounds); return the measured duration of each round."""
        durations = []
        start = time.perf_counter()
        r = 0
        while True:
            t0 = time.perf_counter()
            busy = 0.0
            for case in self.workload.round(r):
                t_op = time.perf_counter()
                out = self.workload.run(case)
                t_end = time.perf_counter()
                if self.cpu.due(t_end):
                    self.cpu.sample()
                busy += t_end - t_op
                self.latencies.append(t_end - t_op)
                self.count(case, out)
            r += 1
            durations.append(busy)
            elapsed = time.perf_counter() - start
            if rounds is not None:
                if r >= rounds:
                    break
            elif elapsed + (time.perf_counter() - t0) / 2 >= seconds:
                break
        return durations

    def count(self, case: workloads.Case, out) -> None:
        ok = self.workload.check(case, out)
        # the same inputs must give the same output: across rounds and with
        # tracing on and off
        ok = ok and self.first.setdefault(case.key, out) == out
        if not ok:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{case.key}: got {json.dumps(out)[:300]}")
        self.samples += self.workload.draws(case)
        if case.point is not None:
            self.pointed += 1
            self.repeated += case.point in self.points
            self.points.add(case.point)

    def repeated_point_frac(self) -> float:
        return self.repeated / self.pointed if self.pointed else 0.0

    def end_to_end(self, rounds: int, cli: bool) -> dict:
        factor = self.cpu.factor()
        measured = sorted(self.latencies)
        lat = [x * factor for x in measured]
        pct = self.workload.TAIL_PERCENTILE
        tail_s, beyond = percentile(lat, pct)
        usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        out = {
            "ops": len(lat),
            "rounds": rounds,
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_tail_ms": tail_s * 1e3,
            "tail_percentile": pct,
            "tail_beyond": beyond,
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
            "repeated_point_frac": self.repeated_point_frac(),
            "measured": {
                "elapsed_s": sum(measured),
                "ops_per_s": len(measured) / sum(measured),
                "latency_p50_ms": statistics.median(measured) * 1e3,
                "latency_tail_ms": percentile(measured, pct)[0] * 1e3,
            },
        }
        if self.samples:
            out["samples_per_s"] = self.samples / sum(lat)
        return out


def make_speed(workload: str) -> speed.Speed:
    """The CPU-speed probe for a workload."""
    if workload == "montecarlo":
        return speed.Speed(speed.NumpyProbe(), speed.NUMPY_NOMINAL_S)
    if workload == "cli":
        return speed.Speed(speed.interpreter_probe, speed.INTERPRETER_NOMINAL_S)
    if workload == "exact-entrywise":
        return speed.Speed(speed.MatchingProbe(), speed.MATCHING_NOMINAL_S)
    return speed.Speed(speed.fraction_probe, speed.FRACTION_NOMINAL_S)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", default=str(workloads.REFERENCE))
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    in_process = args.workload != "cli"
    if args.workload != "montecarlo":
        # the probe then measures the CPU the work runs on
        speed.pin_to_one_cpu()
    tmpdir = Path(os.environ["PERFBENCH_TMP"])
    workload = workloads.create(args.workload, args.seed, args.small, tmpdir, Path(args.reference))
    recorder = spans.Recorder() if args.trace and in_process and not args.setup_only else None
    if recorder:
        recorder.install("setup")
    workload.setup()
    if recorder:
        recorder.uninstall()
    setup_end = time.monotonic()
    cpu = make_speed(args.workload)
    while len(cpu.samples) < 3 or time.monotonic() - setup_end < SETUP_PROBE_S:
        cpu.sample()
    result = {"setup_end": setup_end, "setup_factor": cpu.factor()}
    if not args.setup_only:
        import numpy

        result["numpy"] = numpy.__version__
        cpu.samples.clear()
        loop = Loop(workload, cpu)
        if not args.trace:
            durations = loop.run(args.seconds)
            result.update(loop.end_to_end(len(durations), cli=not in_process))
        else:
            durations = loop.run(args.seconds / 2)
            if recorder:
                recorder.install("round")
            workload.traced = True
            traced_durations = loop.run(0, rounds=1)
            workload.traced = False
            if recorder:
                recorder.uninstall()
            extra = {
                "trace.overhead_frac": traced_durations[0] / durations[0] - 1,
                "exact.repeated_point_frac": loop.repeated_point_frac(),
            }
            if in_process:
                dumps = [recorder.dump()]
            else:
                dumps = workload.state["spans"]
                # the CLI's speed probe is a bare interpreter start
                extra["cli.interpreter_ms"] = statistics.median(cpu.samples) * 1e3
                extra["cli.import_ms"] = statistics.median(d["import_ms"] for d in dumps)
                extra["cli.main_ms"] = statistics.median(d["main_ms"] for d in dumps)
            result["per_layer"] = spans.layer_metrics(dumps, extra)
        result["factor"] = cpu.factor()
        result["probe_ms"] = statistics.fmean(cpu.samples) * 1e3
        result["attempted"] = len(loop.latencies)
        result["failed"] = loop.failed
        result["failures"] = loop.failures
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
