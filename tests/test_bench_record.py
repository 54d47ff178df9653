"""bench/record.py: parsing of perfbench's report on canned output, the
summary it keeps, and the schema of every committed BENCH_*.json.  No
timing is asserted."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)

# a file is checked against the gates it recorded, not today's BENCHMARK.json
GATES = {"ops_per_s": {"better": "higher", "bound": 0.25}, "peak_rss_mb": {"better": "lower", "bound": 0.2}}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))

CANNED = """\
wishmom benchmark  workload=exact-coefficients seed=3 seconds=20.0 trace=0
env: commit=unknown python=3.11.7 numpy=2.4.6 nproc=2 PYTHONPATH=src WW_CACHE_DIR=<fresh per run> WW_BACKEND=numpy
load: closed loop, 1 caller, 1 process; Monte Carlo at streams=2, threads 1 and 2
failed_frac             0 ratio  (0 of 301234 operations)
ops_per_s               10860.5 1/s  [measured 11002.1]  (301234 operations in 120 rounds, 20.001 s measured)
latency_p50_ms          0.0341 ms  [measured 0.0339]
latency_tail_ms         1.65 ms  [measured 1.62]  (p99, 301234 samples, 3012 beyond)
peak_rss_mb             61.8 MB
setup_s                 0.245 s  [measured 0.251]  (median of 5 set-ups: 0.24 0.245 0.25 0.26 0.23)
repeated points         0.4400 ratio  (evaluation points seen before in this run)
{"correct": true, "attempted": 301234, "failed": 0, "metrics": {"ops_per_s": {"value": 10860.5, "unit": "1/s"}, \
"latency_p50_ms": {"value": 0.0341, "unit": "ms"}, "latency_tail_ms": {"value": 1.65, "unit": "ms"}, \
"peak_rss_mb": {"value": 61.8, "unit": "MB"}, "setup_s": {"value": 0.245, "unit": "s"}}}
"""


def test_parse_run_reads_the_last_json_line_and_the_numpy_version():
    got = record.parse_run(CANNED)
    assert got == {
        "correct": True,
        "attempted": 301234,
        "failed": 0,
        "metrics": {"ops_per_s": 10860.5, "latency_p50_ms": 0.0341, "latency_tail_ms": 1.65, "peak_rss_mb": 61.8,
                    "setup_s": 0.245},
        "numpy": "2.4.6",
    }


@pytest.mark.parametrize("stdout", ["", "perfbench: worker exited with code 1\n", CANNED + "trailing text\n",
                                    '{"correct": true}\n', '{"attempted": 3, "failed": 0, "metrics": {}}\n',
                                    '{"correct": true, "attempted": 3, "failed": 0, "metrics": {"x": {}}}\n'])
def test_parse_run_refuses_output_without_a_report(stdout):
    with pytest.raises(ValueError):
        record.parse_run(stdout)


WORKLOADS = ["exact-entrywise", "exact-coefficients", "montecarlo", "cli"]


def test_parse_pairs_reads_one_count_per_workload():
    assert record.parse_pairs(["cli=2", "montecarlo=10"], WORKLOADS) == {"cli": 2, "montecarlo": 10}
    assert record.parse_pairs([], WORKLOADS) == {}


@pytest.mark.parametrize(
    "specs",
    [["gpu=2"], ["cli=0"], ["cli=two"], ["cli="], ["cli"], ["cli=\u00b2"], ["cli=2", "cli=3"], ["cli=2", "cli=2"]],
    ids=["unknown-workload", "zero", "not-digits", "empty-count", "no-count", "superscript", "repeated", "repeated-equal"],
)
def test_parse_pairs_refuses_a_malformed_or_repeated_spec(specs):
    with pytest.raises(SystemExit, match="--pairs wants WORKLOAD=K with K >= 1, each WORKLOAD once"):
        record.parse_pairs(specs, WORKLOADS)


def _run(pair, side, ops, rss):
    return {"pair": pair, "side": side, "metrics": {"ops_per_s": ops, "peak_rss_mb": rss}}


def test_summary_keeps_every_run_and_counts_pairs_won_without_ties():
    runs = [_run(0, "base", 100.0, 50.0), _run(0, "head", 150.0, 60.0),
            _run(1, "head", 140.0, 55.0), _run(1, "base", 110.0, 55.0),
            _run(2, "base", 90.0, 52.0), _run(2, "head", 90.0, 51.0),
            {"pair": 3, "side": "head", "metrics": None}]
    summary = record.summarise(runs, GATES)
    assert list(summary) == ["ops_per_s", "peak_rss_mb"]
    ops = summary["ops_per_s"]
    assert ops["base"] == {"median": 100.0, "q1": 95.0, "q3": 105.0, "iqr": 10.0, "runs": [100.0, 110.0, 90.0]}
    assert ops["head"]["median"] == 140.0 and ops["change"] == pytest.approx(0.4)
    # the tie of pair 2 counts for neither side, and pair 3 has no base run
    assert (ops["head_better_pairs"], ops["pairs"]) == (2, 3)
    rss = summary["peak_rss_mb"]
    assert (rss["better"], rss["bound"]) == ("lower", 0.2)
    assert (rss["head_better_pairs"], rss["pairs"]) == (1, 3)


def test_quartiles_of_one_run_are_that_run():
    assert record.quartiles([3.0]) == {"median": 3.0, "q1": 3.0, "q3": 3.0, "iqr": 0.0}


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_schema(path):
    doc = json.loads(path.read_text())
    assert doc["schema"] == record.SCHEMA
    assert path.name == f"BENCH_{doc['name']}.json"
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", doc["recorded"])
    assert {"platform", "machine", "cpus", "python", "numpy"} <= doc["machine"].keys()
    method = doc["method"]
    assert method["seconds"] > 0 and method["PYTHONDONTWRITEBYTECODE"] == record.DONT_WRITE_BYTECODE
    assert "perfbench/run.py" in method["command"] and {"{workload}", "{seed}"} <= set(method["command"])
    gates = doc["gates"]
    assert gates and all(g["better"] in ("higher", "lower") and g["bound"] > 0 for g in gates.values())
    for side in record.SIDES:
        assert re.fullmatch(r"[0-9a-f]{40}", doc[side]["commit"])
        assert re.fullmatch(r"[0-9a-f]{40}", doc[side]["src_tree"])
    assert doc["workloads"] and set(method["seeds"]) == set(doc["workloads"])
    for workload, row in doc["workloads"].items():
        k = row["pairs"]
        assert method["seeds"][workload] == [method["seeds"][workload][0] + p for p in range(k)]
        runs = row["runs"]
        # each pair runs each side once, the base first in even pairs
        assert [(r["pair"], r["side"]) for r in runs] == [
            (p, side) for p in range(k) for side in (record.SIDES if p % 2 == 0 else record.SIDES[::-1])
        ]
        for r in runs:
            assert r["seed"] == method["seeds"][workload][r["pair"]]
            assert r["exit"] == 0 and r["correct"] and r["failed"] == 0
            assert set(r["metrics"]) == set(gates) and r["attempted"] > 0
        assert row["operations"] == {s: [r["attempted"] for r in runs if r["side"] == s] for s in record.SIDES}
        assert row["summary"] == record.summarise(runs, gates)
