"""Layered benchmark for wishmom.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is used from ``src``,
not installed).  Workloads: exact-entrywise, exact-coefficients, montecarlo,
cli; see perfbench/README.md.  With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Every output is checked
against ``reference.json``; the exit code is 0 only when a result was
printed.

Set-up time is measured from process start to the start of the timed phase
in several fresh processes, and the median is reported.  Every time is
scaled to a reference CPU speed measured by a probe: the timed phase by one
factor from probes run between its operations, each set-up by probes run
right after it (see speed.py).  The report also prints the unscaled figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("exact-entrywise", "exact-coefficients", "montecarlo", "cli")
# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may get worse before a change counts as a regression.
# On a shared 2-CPU virtual machine the timings' spread between runs (the
# distance between quartiles over ten seeds, as a share of the median)
# reaches about 0.1 after speed scaling, so they get the largest bound, 0.25.
# The peak memory of montecarlo varies with the timing of its two threads
# (spread about 0.06), so peak_rss_mb gets 0.2.
END_TO_END = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
]
SETUPS = 5  # set-up processes per run; the last one goes on to the timed phase
# A run ends by this many seconds of set-up plus twice --seconds, or fails.
SETUP_ALLOWANCE_S = 120
PINNED = {
    "WW_BACKEND": "numpy",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def spawn(args, env: dict, out: Path, deadline: float, setup_only: bool) -> tuple[float, float, dict]:
    """Run one worker process.

    Returns the time from its start to the end of its set-up, scaled and as
    measured, and its result.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--reference", args.reference,
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if args.small:
        cmd.append("--small")
    start = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=max(deadline - start, 1))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    took = result["setup_end"] - start
    return took * result["setup_factor"], took, result


def report(args, env_line: str, setups: list[float], measured_setups: list[float], result: dict) -> dict:
    """Print the human-readable report; return the metrics of the JSON line."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"wishmom benchmark  workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(env_line)
    print("load: closed loop, 1 caller, 1 process; Monte Carlo at streams=2, threads 1 and 2")
    print(f"times are scaled to the reference CPU speed (speed.py): operations by {result['factor']:.4f} "
          f"(mean probe {result['probe_ms']:.4g} ms), each set-up by probes after it; [measured] gives them unscaled")
    for line in result["failures"]:
        print(f"FAILED {line}")
    print(f"failed_frac             {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    if args.trace:
        metrics = {}
        units = {name: unit for name, unit, _better in spans.PER_LAYER}
        for name, value in result["per_layer"].items():
            print(f"{name:<44}{value:.6g} {units[name]}")
            metrics[name] = {"value": value, "unit": units[name]}
        return metrics
    values = {name: result[name] for name in ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb")}
    values["setup_s"] = statistics.median(setups)
    measured = dict(result["measured"], setup_s=statistics.median(measured_setups))
    notes = {
        "ops_per_s": f"{result['ops']} operations in {result['rounds']} rounds, {measured['elapsed_s']:.3f} s measured",
        "latency_tail_ms": f"p{result['tail_percentile']}, {result['ops']} samples, {result['tail_beyond']} beyond",
        "setup_s": f"median of {len(setups)} set-ups: " + " ".join(f"{s:.3f}" for s in setups),
    }
    metrics = {}
    for name, unit, _better, _bound in END_TO_END:
        note = f"  ({notes[name]})" if name in notes else ""
        raw = f"  [measured {measured[name]:.6g}]" if name in measured else ""
        print(f"{name:<24}{values[name]:.6g} {unit}{raw}{note}")
        metrics[name] = {"value": values[name], "unit": unit}
    if "samples_per_s" in result:
        print(f"samples_per_s           {result['samples_per_s']:.6g} 1/s  (drawn samples over estimate calls)")
    if args.workload == "exact-coefficients":
        print(f"repeated points         {result['repeated_point_frac']:.4f} ratio  (evaluation points seen before in this run)")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="skip the heaviest cases and use one set-up (self-tests)")
    ap.add_argument("--reference", default=str(HERE / "reference.json"), help="reference outputs to check against")
    args = ap.parse_args()
    deadline = time.monotonic() + SETUP_ALLOWANCE_S + 2 * args.seconds

    root = Path.cwd()
    if not (root / "src" / "wishmom" / "__init__.py").is_file():
        print("perfbench: run from the root of a wishmom checkout (src/wishmom not found)", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    env = dict(os.environ, **PINNED)
    env.update(PYTHONPATH=str(root / "src"), WW_CACHE_DIR=str(tmp / "cache"), PERFBENCH_TMP=str(tmp))
    try:
        setups, measured_setups = [], []
        count = 1 if (args.trace or args.small) else SETUPS
        for i in range(count):
            took, measured, result = spawn(args, env, tmp / f"result-{i}.json", deadline, setup_only=i < count - 1)
            setups.append(took)
            measured_setups.append(measured)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is using it
    env_line = (
        f"env: commit={git_commit(root)} python={platform.python_version()} numpy={result['numpy']} "
        f"nproc={os.cpu_count()} PYTHONPATH=src WW_CACHE_DIR=<fresh per run> "
        + " ".join(f"{k}={v}" for k, v in PINNED.items())
    )
    metrics = report(args, env_line, setups, measured_setups, result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
