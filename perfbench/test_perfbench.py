"""Self-tests of the benchmark, at a small size.

    python3 -m pytest -q perfbench

They run ``run.py --small`` (the heaviest cases left out, one set-up) from
the repository root and exercise the workloads in-process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
os.environ.setdefault("WW_BACKEND", "numpy")

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, *extra: str, trace: int = 0) -> tuple[str, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    doc = benchmark_json()
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == spans.PER_LAYER
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    stdout, result = bench(workload, trace=trace)
    want = {m["name"]: m["unit"] for m in benchmark_json()["per_layer" if trace else "end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    lines = stdout.splitlines()
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name


def _bindings() -> dict:
    import wishmom.cli  # noqa: F401  (the recorder wraps names in every wishmom module)

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "wishmom" or name.startswith("wishmom."):
            out.update({(name, attr): value for attr, value in vars(mod).items() if callable(value)})
    from wishmom import montecarlo

    for cls in spans.DESCRIPTORS:
        out.update({(cls, attr): value for attr, value in vars(getattr(montecarlo, cls)).items()})
    return out


@pytest.mark.parametrize("workload", ["exact-entrywise", "exact-coefficients", "montecarlo"])
def test_tracing_leaves_outputs_and_functions_unchanged(workload, tmp_path):
    wl = workloads.create(workload, 3, True, tmp_path)
    wl.setup()
    cases = wl.round(0)
    plain = [wl.run(case) for case in cases]
    before = _bindings()
    recorder = spans.Recorder()
    recorder.install("round")
    try:
        traced = [wl.run(case) for case in cases]
    finally:
        recorder.uninstall()
    assert traced == plain
    assert all(wl.check(case, out) for case, out in zip(cases, plain))
    assert recorder.spans
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seed_picks_the_inputs(workload, tmp_path):
    def keys(seed):
        wl = workloads.create(workload, seed, False, tmp_path)
        return [case.key for r in range(3) for case in wl.round(r)]

    assert keys(1) == keys(1)
    assert keys(1) != keys(2)


@pytest.mark.parametrize("workload, corrupt", [
    ("exact-coefficients", lambda expect: ["1/7"] * len(expect)),
    ("montecarlo", lambda expect: [dict(e, rejected=e["rejected"] + 1) for e in expect]),
])
def test_corrupted_reference_shows_in_failed_frac(workload, corrupt, tmp_path):
    ref = json.loads(workloads.REFERENCE.read_text())
    for variant in ref["pools"][workload]["slots"][0]["variants"]:
        variant["expect"] = corrupt(variant["expect"])
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    stdout, result = bench(workload, "--reference", str(path))
    assert not result["correct"] and result["failed"] >= 1
    frac = next(line for line in stdout.splitlines() if line.startswith("failed_frac"))
    assert float(frac.split()[1]) > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
