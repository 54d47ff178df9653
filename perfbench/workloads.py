"""Workloads of the wishmom benchmark: case pools, execution and checks.

Every workload draws its operations from a pool of cases stored, with the
expected output of each case, in ``reference.json`` (written by
``record.py``).  A pool is a list of slots; a round of a workload runs one
variant of every slot, and ``--seed`` picks the variant of each slot in the
first round and the order of every round; the following rounds step through
the variants in turn.  So the same seed gives the same inputs, a different
seed gives different inputs, and every output has a recorded reference.

Outputs are normalised to JSON values: exact rationals become ``"p/q"``
strings, floats stay floats, an expected exception becomes
``{"raises": "<class name>"}``.  Strings and integers must match exactly,
floats within ``REL_TOL``.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
PROBE = HERE / "cli_probe.py"

# Relative tolerance for float outputs; no looser than wishmom.validate.REL_TOL.
REL_TOL = 1e-10
# Monte Carlo z-score gate, the one the library's own validate suite uses.
Z_GATE = 5.0
MC_STREAMS = 2


def fstr(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def matches(out, expect) -> bool:
    """True when ``out`` equals ``expect``, floats within REL_TOL."""
    if isinstance(expect, float) and isinstance(out, (int, float)) and not isinstance(out, bool):
        return abs(out - expect) <= REL_TOL * max(abs(out), abs(expect), 1e-300)
    if isinstance(expect, list) and isinstance(out, list):
        return len(out) == len(expect) and all(matches(o, e) for o, e in zip(out, expect))
    if isinstance(expect, dict) and isinstance(out, dict):
        return out.keys() == expect.keys() and all(matches(out[k], expect[k]) for k in expect)
    return type(out) is type(expect) and out == expect


@dataclass
class Case:
    """One operation: its pool slot, the chosen variant and its inputs."""

    key: str
    slot: str
    input: dict
    expect: object
    point: str | None = None  # rational evaluation point, for the repeat share


@dataclass
class Workload:
    """Base class: selects rounds from the pool; subclasses execute cases."""

    # The percentile reported as latency_tail_ms: the highest of 99, 90 and 60
    # with at least ten operations beyond it in a 20-second run at the slowest
    # CPU speed seen on the tuning machine.  It is fixed per workload, so that
    # the percentile reported does not change with the speed.
    TAIL_PERCENTILE = 90

    pool: dict
    seed: int
    small: bool
    tmpdir: Path
    traced: bool = False  # cli: run each operation through the traced probe
    state: dict = field(default_factory=dict)

    def slots(self) -> list[dict]:
        return [s for s in self.pool["slots"] if not (self.small and s.get("full_only"))]

    @functools.cached_property
    def offsets(self) -> list[int]:
        """The variant of each slot in round 0."""
        rnd = random.Random(self.seed)
        return [rnd.randrange(len(slot["variants"])) for slot in self.slots()]

    def round(self, r: int) -> list[Case]:
        """Round r runs variant (offset + r) mod count of every slot, so any
        ``count`` consecutive rounds run every variant once, in a seeded order."""
        rnd = random.Random(self.seed * 1_000_003 + r)
        groups = []
        for slot, offset in zip(self.slots(), self.offsets):
            v = (offset + r) % len(slot["variants"])
            groups.append(self.cases(slot, v, slot["variants"][v]))
        rnd.shuffle(groups)
        return [c for g in groups for c in g]

    def cases(self, slot: dict, v: int, variant: dict) -> list[Case]:
        key = f"{slot['name']}#{v}"
        return [Case(key, slot["name"], variant["input"], variant["expect"])]

    def run(self, case: Case):
        """Execute one case and return its normalised output."""
        try:
            return self.execute(case)
        except Exception as exc:  # an operation that raises is an output to check
            return {"raises": type(exc).__name__}

    def check(self, case: Case, out) -> bool:
        return matches(out, case.expect)

    def draws(self, case: Case) -> int:
        """Monte Carlo samples drawn by one execution of ``case``."""
        return 0

    def setup(self) -> None:
        raise NotImplementedError

    def execute(self, case: Case):
        raise NotImplementedError


# ------------------------------------------------------------ exact workloads


def _params(spec: dict):
    import numpy as np
    from wishmom.wishart import WishartParams

    return WishartParams(d=spec["d"], beta=Fraction(spec["beta"]), sigma=np.array(spec["sigma"]))


class ExactEntrywise(Workload):
    """Forward and inverse entrywise moments: the matching-sum loop."""

    def setup(self) -> None:
        from wishmom import wishart
        from wishmom.wishart import MomentSpec

        self.state["params"] = [_params(p) for p in self.pool["params"]]
        # Warm-up: fill matchings_with_type for n <= 6 and _inv_wg_table at each
        # fixed gamma, so the timed phase sees warm caches.
        seen = set()
        for slot in self.slots():
            inp = slot["variants"][0]["input"]
            n = len(inp["indices"]) // 2
            p = self.state["params"][inp["params"]]
            warm = (inp["kind"], n, p.gamma if inp["kind"] == "inverse" else None)
            if warm in seen or n > 6:
                continue
            seen.add(warm)
            if inp["kind"] == "inverse":
                wishart.inverse_moment(p, MomentSpec(inp["indices"], inverse=True))
            else:
                wishart.moment(p, MomentSpec(inp["indices"]))

    def execute(self, case: Case):
        from wishmom import wishart
        from wishmom.wishart import MomentSpec

        inp = case.input
        p = self.state["params"][inp["params"]]
        if inp["kind"] == "inverse":
            return wishart.inverse_moment(p, MomentSpec(inp["indices"], inverse=True))
        return wishart.moment(p, MomentSpec(inp["indices"]))


def _rhos(n: int) -> list[tuple[int, ...]]:
    from wishmom.symcomb import partitions_of

    return list(partitions_of(n))


class ExactCoefficients(Workload):
    """Weingarten tables and coefficient-side moment kinds in exact arithmetic."""

    TAIL_PERCENTILE = 99

    POINT_KEYS = ("z", "gamma", "N")

    def cases(self, slot, v, variant):
        (case,) = super().cases(slot, v, variant)
        inp = case.input
        for k in self.POINT_KEYS:
            if k in inp:
                case.point = f"{inp['op']}:{k}={inp[k]}"
        if "params" in inp:
            case.point = f"{inp['op']}:params={inp['params']}"
        return [case]

    def setup(self) -> None:
        import numpy as np
        from wishmom.symcomb import Perm

        self.state["params"] = [_params(p) for p in self.pool["params"]]
        self.state["rhos"] = {n: _rhos(n) for n in range(1, 6)}
        self.state["perm"] = Perm
        self.state["array"] = np.array
        # Warm-up: one variant of every slot fills zonal_spherical, the
        # character table and the H_n enumeration up to n = 5.
        for slot in self.slots():
            self.run(Case("warm-up", slot["name"], slot["variants"][0]["input"], None))

    def execute(self, case: Case):
        from wishmom import weingarten, wishart

        inp = case.input
        op = inp["op"]
        if op in ("weingarten", "inv_wishart_weingarten", "weingarten_truncated"):
            fn = getattr(weingarten, op)
            arg = Fraction(inp["z"]) if "z" in inp else Fraction(inp["gamma"]) if "gamma" in inp else inp["N"]
            return [fstr(fn(rho, arg)) for rho in self.state["rhos"][inp["n"]]]
        if op == "haar_moment":
            return fstr(wishart.haar_moment(inp["i"], inp["j"], inp["N"]))
        p = self.state["params"][inp["params"]]
        inverse = inp["inverse"]
        if op == "power_trace_moment":
            return wishart.power_trace_moment(p, tuple(inp["mu"]), inverse=inverse)
        if op == "trace_power_moment":
            return wishart.trace_power_moment(p, inp["n"], inverse=inverse)
        if op == "invariant_moment":
            return wishart.invariant_moment(p, tuple(inp["lam"]), inverse=inverse)
        if op == "mixed_trace_moment":
            g = self.state["perm"](inp["g"])
            ms = [self.state["array"](m) for m in inp["ms"]]
            return wishart.mixed_trace_moment(p, g, ms, inverse=inverse)
        raise ValueError(f"unknown operation {op!r}")


# --------------------------------------------------------------- Monte Carlo


class MonteCarlo(Workload):
    """Seeded estimate / estimate_haar calls, each at threads=1 and threads=2.

    One operation runs a case at both thread counts, and the threads=2 result
    must reproduce the threads=1 result bit for bit.  Timing the pair as one
    operation keeps the latencies from splitting into a 1-thread and a
    2-thread cluster, with the median on the edge between them.
    """

    THREADS = (1, 2)

    def setup(self) -> None:
        self.state["params"] = [_params(p) for p in self.pool["params"]]
        # Warm-up: exact targets at each slot's fixed shape, plus the sampling
        # and thread-pool paths, on the first variant of every slot.
        for slot in self.slots():
            inp = dict(slot["variants"][0]["input"], samples=1000)
            self.execute(Case("warm-up", slot["name"], inp, None))

    def execute(self, case: Case):
        return [self.estimate(case.input, threads) for threads in self.THREADS]

    def estimate(self, inp: dict, threads: int):
        from wishmom import montecarlo as mc

        rng = mc.RngSpec(inp["rng"])
        if inp["kind"] == "haar":
            pairs = [(tuple(i), tuple(j)) for i, j in inp["pairs"]]
            stats = mc.estimate_haar(pairs, inp["N"], inp["samples"], rng, streams=MC_STREAMS, threads=threads)
        else:
            descs = [_descriptor(mc, d) for d in inp["descriptors"]]
            p = self.state["params"][inp["params"]]
            stats = mc.estimate(descs, p, inp["samples"], rng, method=inp["method"], streams=MC_STREAMS,
                                threads=threads)
        return [[s.count, s.mean, s.stderr, s.target, s.zscore, s.rejected] for s in stats]

    def draws(self, case: Case) -> int:
        return case.input["samples"] * len(self.THREADS)

    def check(self, case: Case, out) -> bool:
        if not isinstance(out, list) or len(out) != len(self.THREADS) or any(o != out[0] for o in out):
            return False
        stats = out[0]
        if not isinstance(stats, list) or len(stats) != len(case.expect):
            return False
        for (count, _mean, _stderr, target, z, rejected), want in zip(stats, case.expect):
            if count != want["count"] or rejected != want["rejected"]:
                return False
            if not matches(target, want["target"]) or not abs(z) < Z_GATE:
                return False
        return True


def _descriptor(mc, spec: list):
    kind, arg, inverse = spec
    if kind == "entry":
        return mc.EntryProduct(tuple(arg), inverse=inverse)
    if kind == "trace_power":
        return mc.TracePower(arg, inverse=inverse)
    return mc.PowerTrace(tuple(arg), inverse=inverse)


# ----------------------------------------------------------------------- CLI


class Cli(Workload):
    """One fresh ``python -m wishmom.cli`` process per operation."""

    TAIL_PERCENTILE = 60

    def cases(self, slot, v, variant):
        key = f"{slot['name']}#{v}"
        # a fresh table cache for every execution, so "table build" always builds
        self.state["caches"] = self.state.get("caches", 0) + 1
        cache = str(self.tmpdir / f"tables-{self.state['caches']}")
        steps = variant["input"]["steps"]
        expects = variant["expect"] or [None] * len(steps)
        return [
            Case(f"{key}/{i}", slot["name"], dict(step, cache=cache), want)
            for i, (step, want) in enumerate(zip(steps, expects))
        ]

    def setup(self) -> None:
        for i, sigma in enumerate(self.pool["sigmas"]):
            lines = [",".join(repr(float(x)) for x in row) for row in sigma]
            (self.tmpdir / f"sigma{i}.csv").write_text("\n".join(lines) + "\n")
        self.state["spans"] = []
        # Warm-up: one CLI process, which also compiles the package byte code.
        slot = self.slots()[0]
        for case in self.cases(slot, 0, slot["variants"][0]):
            self.run(case)

    def argv(self, case: Case) -> list[str]:
        sigma_dir = str(self.tmpdir)
        return [a.replace("{sigma_dir}", sigma_dir).replace("{cache}", case.input["cache"]) for a in case.input["argv"]]

    def execute(self, case: Case):
        env = dict(os.environ)
        if self.traced:
            spans = self.tmpdir / f"spans-{len(self.state['spans'])}.json"
            env["PERFBENCH_SPANS"] = str(spans)
            cmd = [sys.executable, str(PROBE)]
        else:
            cmd = [sys.executable, "-m", "wishmom.cli"]
        proc = subprocess.run(cmd + self.argv(case), env=env, capture_output=True, text=True)
        if self.traced:
            self.state["spans"].append(json.loads(spans.read_text()))
            spans.unlink()
        return {"code": proc.returncode, "value": extract(case.input["extract"], proc.stdout)}


def extract(kind: str, stdout: str):
    """The part of a CLI report that is checked, by report kind."""
    if kind == "none":
        return None
    if kind == "built":
        return stdout.startswith("built: ")
    report = json.loads(stdout)
    results = report["results"]
    rows = [[r["rho"], f"{r['value']['num']}/{r['value']['den']}"] for r in results if "rho" in r]
    if kind == "value":
        v = results[0]["value"]
        return f"{v['num']}/{v['den']}" if isinstance(v, dict) else v
    if kind == "table":
        return rows
    if kind == "show":
        return [report["config"]["options"]["cached"], rows]
    if kind == "checks":
        return [len(results), all(r["passed"] for r in results)]
    raise ValueError(f"unknown report kind {kind!r}")


WORKLOADS = {
    "exact-entrywise": ExactEntrywise,
    "exact-coefficients": ExactCoefficients,
    "montecarlo": MonteCarlo,
    "cli": Cli,
}


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(Path(path).read_text())


def create(name: str, seed: int, small: bool, tmpdir: Path, reference: Path = REFERENCE) -> Workload:
    pool = load_reference(reference)["pools"][name]
    return WORKLOADS[name](pool=pool, seed=seed, small=small, tmpdir=Path(tmpdir))
