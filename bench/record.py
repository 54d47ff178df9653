"""Record before/after benchmark rows: alternating perfbench runs of a base
and a head revision, written to one ``BENCH_<name>.json``.

    python3 bench/record.py --name mixed_loops --base HEAD~1 --head HEAD \\
        --pairs exact-coefficients=10 --pairs cli=2

Run from the root of a git checkout of wishmom.  Both revisions are
commits, each exported with ``git archive`` into ``.bench_tmp/<commit>``
(git-ignored) and removed afterwards.  The base's ``BENCHMARK.json`` gives
the run length, the workloads and the gates (each end-to-end metric's
better direction and bound), which the file keeps.  For each workload,
pair k runs ``perfbench/run.py --trace 0 --seed <seed + k>`` once per
side, each from its own export, the base first in even pairs and the head
first in odd ones.  The last line a run prints is its JSON report.  Every
run is kept; per metric the file holds each side's median and quartiles,
the head's change against the base median and the pairs the head won, ties
counting for neither.  ``PYTHONDONTWRITEBYTECODE`` is fixed for both sides
(perfbench does not pin it) and recorded with the machine, the run's argv
template and the commits.

Standard library only; it imports nothing from wishmom.
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
import time
from pathlib import Path

SCHEMA = 1
SCRATCH = ".bench_tmp"
SIDES = ("base", "head")
# each fresh process compiles wishmom from source, as where the benchmark's
# rows were first taken; perfbench leaves this variable to the environment
DONT_WRITE_BYTECODE = "1"


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True, text=True).stdout.strip()


def revision(root: Path, rev: str) -> dict:
    """What a side measures: a commit, and its ``src`` tree, which names the
    measured code whatever the commit message."""
    commit = git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
    return {"rev": rev, "commit": commit, "src_tree": git(root, "rev-parse", f"{commit}:src")}


def export(root: Path, commit: str, dest: Path) -> None:
    """The files of ``commit`` into ``dest``, emptied first."""
    if dest.is_dir():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=root, check=True, capture_output=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)


def command(seconds: float) -> list[str]:
    """The argv of every run, with ``{workload}`` and ``{seed}`` left for
    ``run_side`` to fill in."""
    return [sys.executable, "perfbench/run.py", "--workload", "{workload}", "--seed", "{seed}",
            "--seconds", str(seconds), "--trace", "0"]


def parse_run(stdout: str) -> dict:
    """The report of one ``perfbench/run.py --trace 0`` run: its last line,
    a JSON object with ``metrics`` {name: {"value", "unit"}}, and the numpy
    version from its ``env:`` line.  ValueError if that line is missing or
    lacks a field read here."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise ValueError(f"the last line is not a JSON report: {lines[-1][:200]!r}") from exc
    if not isinstance(report, dict) or not isinstance(report.get("metrics"), dict):
        raise ValueError("the JSON report has no metrics")
    env = next((line for line in lines if line.startswith("env: ")), "")
    fields = dict(item.split("=", 1) for item in env[5:].split() if "=" in item)
    try:
        return {
            "correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": {name: float(m["value"]) for name, m in report["metrics"].items()},
            "numpy": fields.get("numpy"),
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"the JSON report lacks a field: {exc!r}") from exc


def quartiles(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is all three)."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(runs: list[dict], gates: dict) -> dict:
    """Per metric: each side's runs, median and quartiles, the head median's
    change as a share of the base median, and the pairs the head won."""
    measured = [r for r in runs if r.get("metrics")]
    by_pair: dict[int, dict] = {}
    for run in measured:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    complete = [p for p in by_pair.values() if len(p) == 2]
    out = {}
    for name in [n for n in gates if any(n in r["metrics"] for r in measured)]:
        higher = gates[name]["better"] == "higher"
        row = {"better": gates[name]["better"], "bound": gates[name]["bound"]}
        for side in SIDES:
            values = [r["metrics"][name] for r in measured if r["side"] == side]
            row[side] = dict(quartiles(values), runs=values) if values else None
        if row["base"] and row["head"] and row["base"]["median"]:
            row["change"] = row["head"]["median"] / row["base"]["median"] - 1
        wins = [(p["head"][name] > p["base"][name]) if higher else (p["head"][name] < p["base"][name]) for p in complete]
        row["head_better_pairs"], row["pairs"] = sum(wins), len(complete)
        out[name] = row
    return out


def run_side(root: Path, template: list[str], workload: str, seed: int, env: dict) -> dict:
    cmd = [{"{workload}": workload, "{seed}": str(seed)}.get(arg, arg) for arg in template]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    row = {"exit": proc.returncode, "wall_s": round(time.monotonic() - start, 3)}
    try:
        row.update(parse_run(proc.stdout))
    except ValueError as exc:
        row.update(metrics=None, error=str(exc), stderr_tail=proc.stderr[-2000:])
    return row


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def parse_pairs(specs: list[str], workloads: list[str]) -> dict[str, int]:
    """{workload: K} from the WORKLOAD=K specs; SystemExit for a spec that is
    malformed or names a workload a second time."""
    pairs = {}
    for spec in specs:
        name, _, k = spec.partition("=")
        if name not in workloads or name in pairs or not (k.isascii() and k.isdigit()) or int(k) < 1:
            raise SystemExit(
                f"bench/record.py: --pairs wants WORKLOAD=K with K >= 1, each WORKLOAD once and in {workloads}"
            )
        pairs[name] = int(k)
    return pairs


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--name", required=True, help="the file written is BENCH_<name>.json at the root")
    ap.add_argument("--base", default="HEAD~1", help="base revision (default: the parent of HEAD)")
    ap.add_argument("--head", default="HEAD", help="head revision (default: HEAD)")
    ap.add_argument("--pairs", action="append", default=[], help="WORKLOAD=K; repeat per workload")
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0; pair k runs seed + k")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / ".git").exists() or not (root / "perfbench" / "run.py").is_file():
        print("bench/record.py: run from the root of a wishmom git checkout", file=sys.stderr)
        return 2
    sides = {"base": revision(root, args.base), "head": revision(root, args.head)}
    spec = json.loads(git(root, "show", f"{sides['base']['commit']}:BENCHMARK.json"))
    gates = {m["name"]: {"better": m["better"], "bound": m["bound"]} for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    pairs = parse_pairs(args.pairs, workloads)
    if not pairs:
        print("bench/record.py: give at least one --pairs WORKLOAD=K", file=sys.stderr)
        return 2
    template = command(spec["run_seconds"])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE=DONT_WRITE_BYTECODE)

    roots: dict[str, Path] = {}
    rows = {}
    numpy = None
    try:
        for side, info in sides.items():
            roots[side] = root / SCRATCH / info["commit"]
            export(root, info["commit"], roots[side])
        for workload, k in pairs.items():
            runs = []
            for pair in range(k):
                seed = args.seed + pair
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = dict(pair=pair, side=side, seed=seed, **run_side(roots[side], template, workload, seed, env))
                    numpy = numpy or run.get("numpy")
                    runs.append(run)
                    value = (run.get("metrics") or {}).get("ops_per_s")
                    print(f"{workload} pair {pair} {side}: exit {run['exit']}, ops_per_s {value}", file=sys.stderr)
            operations = {side: [r.get("attempted") for r in runs if r["side"] == side] for side in SIDES}
            rows[workload] = {"pairs": k, "runs": runs, "operations": operations, "summary": summarise(runs, gates)}
    finally:
        for path in roots.values():
            shutil.rmtree(path, ignore_errors=True)
        try:
            (root / SCRATCH).rmdir()
        except OSError:
            pass  # not empty: left by another recorder
    doc = {
        "schema": SCHEMA,
        "name": args.name,
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": dict(machine(), numpy=numpy),
        "method": {
            "command": template,
            "seconds": spec["run_seconds"],
            "seeds": {w: [args.seed + p for p in range(k)] for w, k in pairs.items()},
            "order": "alternating: base first in even pairs, head first in odd pairs",
            "PYTHONDONTWRITEBYTECODE": DONT_WRITE_BYTECODE,
        },
        "gates": gates,
        "base": sides["base"],
        "head": sides["head"],
        "workloads": rows,
    }
    out = root / f"BENCH_{args.name}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
