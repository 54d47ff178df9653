"""Write ``reference.json``: the case pools and the expected output of each case.

The pools are drawn once from seed 0 (the benchmark's default seed); the
expected outputs are what the library computes for them at the commit where
this script is run.  Re-running it overwrites the references, so run it only
to define a new baseline, never to make a failing benchmark pass.

    PYTHONPATH=src WW_BACKEND=numpy OPENBLAS_NUM_THREADS=1 python3 perfbench/record.py
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from wishmom.symcomb import content_product, partitions_of  # noqa: E402

POOL_SEED = 0
VARIANTS = 6


def pd_matrix(rng: np.random.Generator, d: int) -> list[list[float]]:
    a = rng.normal(size=(d, d))
    return (a @ a.T + d * np.eye(d)).tolist()


def shape(gamma: Fraction, d: int) -> str:
    return wl.fstr(gamma + Fraction(d + 1, 2))


def pole_free(x: Fraction, n: int) -> bool:
    return all(content_product(lam, x) != 0 for lam in partitions_of(n))


def random_point(rnd: random.Random, n: int, sign: int = 0) -> Fraction:
    while True:
        x = Fraction(rnd.randint(1, 40), rnd.randint(1, 6)) * (sign or rnd.choice((1, -1)))
        if pole_free(x, n):
            return x


def random_partition(rnd: random.Random, lo: int, hi: int) -> list[int]:
    return list(rnd.choice(partitions_of(rnd.randint(lo, hi))))


def paired_labels(rnd: random.Random, n: int, top: int) -> list[int]:
    """2n indices in 1..top, each label used an even number of times (a nonzero Haar moment)."""
    labels = [rnd.randint(1, top) for _ in range(n)] * 2
    rnd.shuffle(labels)
    return labels


def slot(name: str, inputs: list, full_only: bool = False, raises: bool = False) -> dict:
    """A pool slot; ``raises`` marks slots whose every case must fail (exception or CLI exit 3)."""
    out = {"name": name, "variants": [{"input": i, "expect": None} for i in inputs]}
    if full_only:
        out["full_only"] = True
    if raises:
        out["raises"] = True
    return out


def entrywise_pool(rnd: random.Random, rng: np.random.Generator) -> dict:
    gammas = {2: Fraction(17, 3), 4: Fraction(23, 4), 8: Fraction(31, 5)}
    params, by_d = [], {}
    for d, gamma in gammas.items():
        by_d[d] = []
        for _ in range(3):
            by_d[d].append(len(params))
            params.append({"d": d, "beta": shape(gamma, d), "sigma": pd_matrix(rng, d)})

    def inputs(kind: str, n: int, dims) -> list:
        out = []
        for v in range(VARIANTS):
            d = dims[v % len(dims)]
            idx = [rnd.randint(1, d) for _ in range(2 * n)]
            out.append({"kind": kind, "params": rnd.choice(by_d[d]), "indices": idx})
        return out

    slots = []
    for d in gammas:
        slots += [slot(f"moment d={d} n={n}", inputs("forward", n, [d])) for n in range(2, 7)]
        slots += [slot(f"inverse_moment d={d} n={n}", inputs("inverse", n, [d])) for n in range(2, 6)]
    slots.append(slot("moment n=7", inputs("forward", 7, list(gammas)), full_only=True))
    return {"params": params, "slots": slots}


def coefficients_pool(rnd: random.Random, rng: np.random.Generator) -> dict:
    params = []
    for _ in range(VARIANTS):
        d = rnd.choice((3, 4))
        gamma = Fraction(rnd.randint(13, 30), 3)
        while gamma.denominator == 1:
            gamma = Fraction(rnd.randint(13, 30), 3)
        params.append({"d": d, "beta": shape(gamma, d), "sigma": pd_matrix(rng, d)})
    domain = len(params)  # gamma = -1/2: no inverse moment exists
    params.append({"d": 3, "beta": "3/2", "sigma": pd_matrix(rng, 3)})
    ok = list(range(domain))

    slots = []
    for n in range(1, 6):
        slots.append(slot(f"weingarten n={n}", [{"op": "weingarten", "n": n, "z": wl.fstr(random_point(rnd, n))} for _ in range(VARIANTS)]))
        slots.append(slot(
            f"inv_wishart_weingarten n={n}",
            [{"op": "inv_wishart_weingarten", "n": n, "gamma": wl.fstr(-random_point(rnd, n, -1) / 2)} for _ in range(VARIANTS)],
        ))
        slots.append(slot(
            f"weingarten_truncated n={n}",
            [{"op": "weingarten_truncated", "n": n, "N": N} for N in rnd.sample(range(1, 9), VARIANTS)],
        ))
    for inverse in (False, True):
        tag = "inverse" if inverse else "forward"
        slots.append(slot(f"power_trace_moment {tag}", [
            {"op": "power_trace_moment", "params": rnd.choice(ok), "mu": random_partition(rnd, 1, 4), "inverse": inverse}
            for _ in range(VARIANTS)
        ]))
        slots.append(slot(f"trace_power_moment {tag}", [
            {"op": "trace_power_moment", "params": rnd.choice(ok), "n": rnd.randint(1, 4), "inverse": inverse}
            for _ in range(VARIANTS)
        ]))
        slots.append(slot(f"invariant_moment {tag}", [
            {"op": "invariant_moment", "params": rnd.choice(ok), "lam": random_partition(rnd, 1, 5), "inverse": inverse}
            for _ in range(VARIANTS)
        ]))
        mixed = []
        for _ in range(VARIANTS):
            n = rnd.randint(1, 4)
            p = rnd.choice(ok)
            d = params[p]["d"]
            g = list(range(1, 2 * n + 1))
            rnd.shuffle(g)
            ms = [rng.normal(size=(d, d)).tolist() for _ in range(n)]
            mixed.append({"op": "mixed_trace_moment", "params": p, "g": g, "ms": ms, "inverse": inverse})
        slots.append(slot(f"mixed_trace_moment {tag}", mixed))
    haar = []
    for _ in range(VARIANTS):
        n, N = rnd.randint(1, 4), rnd.randint(2, 4)
        haar.append({"op": "haar_moment", "N": N, "i": paired_labels(rnd, n, N), "j": paired_labels(rnd, n, N)})
    slots.append(slot("haar_moment", haar))
    poles = []
    for _ in range(VARIANTS):
        n = rnd.randint(2, 5)
        bad = [z for z in range(-2 * n + 2, n) if not pole_free(Fraction(z), n)]
        poles.append({"op": "weingarten", "n": n, "z": wl.fstr(rnd.choice(bad))})
    slots.append(slot("weingarten pole", poles, raises=True))
    slots.append(slot("inverse moment domain", [
        {"op": "invariant_moment", "params": domain, "lam": random_partition(rnd, 1, 3), "inverse": True}
        for _ in range(VARIANTS)
    ], raises=True))
    return {"params": params, "slots": slots}


def montecarlo_pool(rnd: random.Random, rng: np.random.Generator) -> dict:
    params = []
    cases = [
        # name, d, beta, method, descriptors, samples per call
        ("estimate bartlett d=3", 3, "5/2", "bartlett",
         [["entry", [1, 2], False], ["trace_power", 2, False], ["power_trace", [2, 1], False]], 25_000),
        ("estimate bartlett d=8", 8, "11/2", "bartlett",
         [["entry", [1, 2, 3, 4], False], ["trace_power", 2, False]], 5_000),
        ("estimate vectors d=3", 3, "3", "vectors",
         [["entry", [1, 1, 2, 2], False], ["trace_power", 1, False]], 25_000),
        ("estimate inverse d=4", 4, "53/6", "auto",
         [["entry", [1, 1], True], ["entry", [1, 2, 1, 2], True], ["trace_power", 1, True]], 6_250),
    ]
    slots = []
    for name, d, beta, method, descs, samples in cases:
        inputs = []
        for _ in range(VARIANTS):
            inputs.append({"kind": "wishart", "params": len(params), "method": method, "descriptors": descs,
                           "samples": samples, "rng": rnd.randrange(2**31)})
            params.append({"d": d, "beta": beta, "sigma": pd_matrix(rng, d)})
        slots.append(slot(name, inputs))
    haar = [
        ("estimate_haar N=3", 3, [[[1, 1], [1, 1]], [[1, 1, 2, 2], [1, 2, 1, 2]], [[1, 1, 2, 2], [1, 1, 2, 2]]], 20_000),
        ("estimate_haar N=8", 8, [[[1, 1], [1, 1]], [[1, 1, 2, 2], [1, 1, 2, 2]]], 4_000),
    ]
    for name, N, pairs, samples in haar:
        slots.append(slot(name, [{"kind": "haar", "N": N, "pairs": pairs, "samples": samples, "rng": rnd.randrange(2**31)}
                                 for _ in range(VARIANTS)]))
    return {"params": params, "slots": slots}


def cli_pool(rnd: random.Random, rng: np.random.Generator) -> dict:
    sigmas = [pd_matrix(rng, 3) for _ in range(3)]
    J = ["--format", "json"]

    def sigma() -> list[str]:
        return ["--sigma", f"{{sigma_dir}}/sigma{rnd.randrange(len(sigmas))}.csv"]

    def one(argv, extract="value"):
        return {"steps": [{"argv": argv, "extract": extract}]}

    def entries(n):
        return ",".join(str(rnd.randint(1, 3)) for _ in range(2 * n))

    def beta():
        return wl.fstr(Fraction(rnd.randint(20, 40), 3))

    def part(lo, hi):
        return ",".join(map(str, random_partition(rnd, lo, hi)))

    V = range(4)
    slots = [
        slot("moment entries", [one(["moment", "--entries", entries(rnd.randint(2, 3)), *sigma(), "--beta", beta(), *J]) for _ in V]),
        slot("moment inverse entries", [one(["moment", "--inverse", "--entries", entries(2), *sigma(), "--beta", beta(), *J]) for _ in V], full_only=True),
        slot("moment invariant", [one(["moment", "--invariant", part(1, 4), *sigma(), "--beta", beta(), *J]) for _ in V], full_only=True),
        slot("moment power-trace", [one(["moment", "--inverse", "--power-trace", part(1, 3), *sigma(), "--beta", beta(), *J]) for _ in V], full_only=True),
        slot("haar", [one(["haar", "--i", "1,1,2,2", "--j", rnd.choice(["1,1,2,2", "1,2,1,2", "2,2,1,1"]), "--N", str(rnd.randint(2, 5)), *J]) for _ in V], full_only=True),
        slot("validate golden", [one(["validate", "golden", "--seed", str(rnd.randrange(1000)), *J], "checks") for _ in V], full_only=True),
        slot("validate identities", [one(["validate", "identities", "--n", "4", "--seed", str(rnd.randrange(1000)), *J], "checks") for _ in V], full_only=True),
    ]
    for n in (3, 4, 5):
        slots.append(slot(f"wg n={n}", [one(["wg", "--n", str(n), f"--z={wl.fstr(random_point(rnd, n))}", *J], "table") for _ in V],
                          full_only=n > 3))
    tables = []
    for _ in V:
        z = wl.fstr(random_point(rnd, 4))
        common = ["--n", "4", f"--z={z}", "--cache-dir", "{cache}"]
        tables.append({"steps": [{"argv": ["table", "build", *common], "extract": "built"},
                                 {"argv": ["table", "show", *common, *J], "extract": "show"}]})
    slots.append(slot("table build+show", tables))
    poles = []
    for _ in V:
        n = rnd.randint(2, 4)
        z = rnd.choice([z for z in range(-2 * n + 2, n) if not pole_free(Fraction(z), n)])
        poles.append(one(["wg", "--n", str(n), f"--z={z}", *J], "none"))
    slots.append(slot("wg pole exit 3", poles, raises=True))
    return {"sigmas": sigmas, "slots": slots}


POOLS = {
    "exact-entrywise": entrywise_pool,
    "exact-coefficients": coefficients_pool,
    "montecarlo": montecarlo_pool,
    "cli": cli_pool,
}


def expected(workload: wl.Workload, slot: dict, v: int, variant: dict):
    outs = [workload.run(case) for case in workload.cases(slot, v, variant)]
    if isinstance(workload, wl.MonteCarlo):
        (runs,) = outs  # one result per thread count
        stats = runs[0]
        if any(r != stats for r in runs) or any(not abs(s[4]) < wl.Z_GATE for s in stats):
            raise SystemExit(f"{slot['name']}#{v}: thread disagreement or z-gate failure: {outs}")
        return [{"count": s[0], "rejected": s[5], "target": s[3]} for s in stats]
    if isinstance(workload, wl.Cli):
        want = 3 if slot.get("raises") else 0
        if any(o.get("code") != want or o.get("value") is False for o in outs):
            raise SystemExit(f"{slot['name']}#{v}: unexpected CLI result {outs}")
        return outs
    raised = isinstance(outs[0], dict) and "raises" in outs[0]
    if raised != bool(slot.get("raises")):
        raise SystemExit(f"{slot['name']}#{v}: unexpected result {outs[0]}")
    return outs[0]


def main() -> None:
    rnd = random.Random(POOL_SEED)
    rng = np.random.default_rng(POOL_SEED)
    scratch = Path(".perfbench_tmp")
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    doc = {"format": 1, "pool_seed": POOL_SEED, "pools": {}}
    try:
        for name, make in POOLS.items():
            pool = make(rnd, rng)
            workload = wl.WORKLOADS[name](pool=pool, seed=POOL_SEED, small=False, tmpdir=tmp)
            workload.setup()
            for s in pool["slots"]:
                for v, variant in enumerate(s["variants"]):
                    variant["expect"] = expected(workload, s, v, variant)
            doc["pools"][name] = pool
            print(f"{name}: {sum(len(s['variants']) for s in pool['slots'])} cases", file=sys.stderr)
    finally:
        shutil.rmtree(tmp)
        scratch.rmdir()
    wl.REFERENCE.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


if __name__ == "__main__":
    main()
