"""Validation suites: golden values, exact identities, Monte Carlo checks.

Each suite returns a list of report rows {"name", "passed", "detail"}; the
CLI reports them as they are and turns any failure into a nonzero exit.
Golden rows replay the explicit low-degree values; identity rows replay the
convolution / orthogonality / hafnian-equivalence laws exactly; Monte Carlo
rows compare sampled moments against their closed forms by z-score.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import factorial
from operator import mul
from typing import TYPE_CHECKING

from . import hafnian, montecarlo, wishart
from .matchgroup import check_listed_degree, double_coset_size
from .symcomb import _as_int, content_product, hook_dim_doubled, partitions_of
from .weingarten import (
    biinvariant_convolve,
    hecke_unit,
    inv_wishart_weingarten,
    pole_shapes,
    weingarten,
    weingarten_values,
    zonal_eval,
    zonal_spherical,
)
from .wishart import MomentSpec, WishartParams

if TYPE_CHECKING:
    import numpy as np

REL_TOL = 1e-10
# substreams of every Monte Carlo check: with the seed, they fix its draws
MC_STREAMS = 4


def _row(name: str, passed, detail: str = "") -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-30)


def _rand_fraction(rnd: random.Random, lo: int = 1, hi: int = 40, den: int = 6) -> Fraction:
    return Fraction(rnd.randint(lo, hi), rnd.randint(1, den))


def _pole_free_z(rnd: random.Random, n: int) -> Fraction:
    while True:
        z = _rand_fraction(rnd) * rnd.choice((1, -1))
        if not pole_shapes(n, z):
            return z


def _pole_free_gamma(rnd: random.Random, n: int) -> Fraction:
    while True:
        g = _rand_fraction(rnd)
        if not pole_shapes(n, -2 * g):
            return g


def _rand_pd(rng: np.random.Generator, d: int) -> np.ndarray:
    import numpy as np

    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


def _gram(a: list[list[float]]) -> list[list[float]]:
    """a a^T of the rows a; a^2 when a is symmetric."""
    return [[sum(map(mul, ai, aj)) for aj in a] for ai in a]


def _rand_pd_rows(rnd: random.Random, d: int) -> list[list[float]]:
    """``_rand_pd`` drawn by ``rnd``, as rows of Python floats."""
    a = [[rnd.gauss(0.0, 1.0) for _ in range(d)] for _ in range(d)]
    return [[v + d * (i == j) for j, v in enumerate(row)] for i, row in enumerate(_gram(a))]


def _all_close(a: list[list[float]], b: list[list[float]]) -> bool:
    return all(_close(x, y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def entrywise_power_trace(params: WishartParams, mu, inverse: bool = False) -> float:
    """Assemble E[prod tr((W^{+-1})^mu_i)] purely from entrywise moments by
    expanding every trace into index cycles."""
    d = params.d
    ranges = []
    for part in mu:
        ranges.append(list(product(range(1, d + 1), repeat=part)))
    total = 0.0
    for combo in product(*ranges):
        idx: list[int] = []
        for cyc in combo:
            r = len(cyc)
            for t in range(r):
                idx.extend((cyc[t], cyc[(t + 1) % r]))
        total += wishart.moment(params, MomentSpec(tuple(idx), inverse=inverse))
    return total


# ------------------------------------------------------------------ golden


def golden_suite(seed: int = 0) -> list[dict]:
    """The explicit low-degree values: rational points drawn from
    random.Random(seed), the sigma matrices of the numeric displays from
    random.Random(seed + 1).  No numpy runs."""
    rnd = random.Random(seed)
    sigma_rnd = random.Random(seed + 1)
    out: list[dict] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        out.append(_row(name, ok, detail))

    # Weingarten closed forms, degrees 1 and 2
    ok = True
    for _ in range(10):
        z = _pole_free_z(rnd, 2)
        den = z * (z + 2) * (z - 1)
        ok &= weingarten((1,), z) == 1 / z
        ok &= weingarten((2,), z) == -1 / den
        ok &= weingarten((1, 1), z) == (z + 1) / den
    check("weingarten degree<=2 closed forms at 10 rational points", ok)

    # inverse-Wishart Weingarten tables, degrees 2..4
    for _ in range(5):
        g = _pole_free_gamma(rnd, 4)
        d2 = g * (g - 1) * (2 * g + 1)
        u3 = g * (g - 1) * (g - 2) * (g + 1) * (2 * g + 1)
        u4 = g * (g - 1) * (g - 2) * (g - 3) * (2 * g - 1) * (g + 1) * (2 * g + 1) * (2 * g + 3)
        ok = inv_wishart_weingarten((1, 1), g) == (2 * g - 1) / d2
        ok &= inv_wishart_weingarten((2,), g) == 1 / d2
        ok &= inv_wishart_weingarten((3,), g) == 1 / u3
        ok &= inv_wishart_weingarten((2, 1), g) == (g - 1) / u3
        ok &= inv_wishart_weingarten((1, 1, 1), g) == (2 * g**2 - 3 * g - 1) / u3
        ok &= inv_wishart_weingarten((4,), g) == (5 * g - 3) / u4
        ok &= inv_wishart_weingarten((3, 1), g) == 4 * g * (g - 2) / u4
        ok &= inv_wishart_weingarten((2, 2), g) == (2 * g**2 - 5 * g + 9) / u4
        ok &= inv_wishart_weingarten((2, 1, 1), g) == (4 * g**3 - 12 * g**2 + 3 * g + 3) / u4
        ok &= inv_wishart_weingarten((1, 1, 1, 1), g) == (g + 1) * (2 * g - 3) * (4 * g**2 - 12 * g + 1) / u4
        check(f"inverse-Wishart Weingarten degrees 2-4 at gamma={g}", ok)

    # degree-3 combinatorial constants
    zmat = [[zonal_spherical(l, m) for m in partitions_of(3)] for l in partitions_of(3)]
    expect = [
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(-1, 4), Fraction(1, 6), Fraction(1)],
        [Fraction(1, 4), Fraction(-1, 2), Fraction(1)],
    ]
    check("zonal spherical matrix at degree 3", zmat == expect)
    check(
        "doubled-shape dimensions at degree 3",
        (hook_dim_doubled((3,)), hook_dim_doubled((2, 1)), hook_dim_doubled((1, 1, 1))) == (1, 9, 5),
    )
    z = _rand_fraction(rnd)
    check(
        "content products factor at degree 3",
        content_product((3,), z) == z * (z + 2) * (z + 4)
        and content_product((2, 1), z) == z * (z + 2) * (z - 1)
        and content_product((1, 1, 1), z) == z * (z - 1) * (z - 2),
    )

    # degree-3 power-trace coefficient matrices (forward and inverse)
    b = _rand_fraction(rnd)
    fwd = {
        (3,): {(3,): Fraction(1, 2) * b * (2 * b**2 + 3 * b + 2), (2, 1): Fraction(3, 4) * b * (2 * b + 1), (1, 1, 1): Fraction(1, 4) * b},
        (2, 1): {(3,): b * (2 * b + 1), (2, 1): Fraction(1, 2) * b * (2 * b**2 + b + 2), (1, 1, 1): Fraction(1, 2) * b**2},
        (1, 1, 1): {(3,): 2 * b, (2, 1): 3 * b**2, (1, 1, 1): b**3},
    }
    ok = all(wishart.power_trace_coeffs(mu, b) == fwd[mu] for mu in fwd)
    check(f"degree-3 forward power-trace coefficients at beta={b}", ok)

    g = _pole_free_gamma(rnd, 3)
    u3 = g * (g - 1) * (g - 2) * (g + 1) * (2 * g + 1)
    inv = {
        (3,): {(3,): 2 * g**2 / u3, (2, 1): 3 * g / u3, (1, 1, 1): 1 / u3},
        (2, 1): {(3,): 4 * g / u3, (2, 1): 2 * (g**2 - g + 1) / u3, (1, 1, 1): (g - 1) / u3},
        (1, 1, 1): {(3,): 8 / u3, (2, 1): 6 * (g - 1) / u3, (1, 1, 1): (2 * g**2 - 3 * g - 1) / u3},
    }
    ok = all(wishart.power_trace_coeffs(mu, g, inverse=True) == inv[mu] for mu in inv)
    check(f"degree-3 inverse power-trace coefficients at gamma={g}", ok)

    # degree-4 trace-power coefficients
    b = _rand_fraction(rnd)
    c4 = wishart.trace_power_coeffs(4, b)
    ok = (
        c4[(4,)] == 6 * b
        and c4[(3, 1)] == 8 * b**2
        and c4[(2, 2)] == 3 * b**2
        and c4[(2, 1, 1)] == 6 * b**3
        and c4[(1, 1, 1, 1)] == b**4
    )
    check(f"(tr W)^4 coefficients at beta={b}", ok)
    g = _pole_free_gamma(rnd, 4)
    u4 = g * (g - 1) * (g - 2) * (g - 3) * (2 * g - 1) * (g + 1) * (2 * g + 1) * (2 * g + 3)
    ci = wishart.trace_power_coeffs(4, g, inverse=True)
    ok = (
        ci[(4,)] * u4 == 48 * (5 * g - 3)
        and ci[(3, 1)] * u4 == 128 * g * (g - 2)
        and ci[(2, 2)] * u4 == 12 * (2 * g**2 - 5 * g + 9)
        and ci[(2, 1, 1)] * u4 == 12 * (4 * g**3 - 12 * g**2 + 3 * g + 3)
        and ci[(1, 1, 1, 1)] * u4 == (g + 1) * (2 * g - 3) * (4 * g**2 - 12 * g + 1)
    )
    check(f"(tr Winv)^4 coefficients at gamma={g}", ok)

    # Haar degree-4 display
    N = 3
    dn = N * (N + 2) * (N - 1)
    ok = True
    for j in product(range(1, N + 1), repeat=4):
        want = Fraction(
            (N + 1) * (j[0] == j[1]) * (j[2] == j[3]) - (j[0] == j[2]) * (j[1] == j[3]) - (j[0] == j[3]) * (j[1] == j[2]),
            dn,
        )
        ok &= wishart.haar_moment((1, 1, 2, 2), j, N) == want
    check("Haar degree-4 moment display at N=3", ok)

    # numeric low-degree moment displays at d in {2, 3}; gamma > 3 clears every pole
    # of the inverse formulas through degree 4
    for d in (2, 3):
        gamma = Fraction(rnd.randint(13, 24), 4)
        beta = gamma + Fraction(d + 1, 2)
        params = WishartParams(d=d, beta=beta, sigma=_rand_pd_rows(sigma_rnd, d))
        bf = float(beta)
        gf = float(params.gamma)
        sig, si = params.sigma_rows, params.sigma_inv_rows

        ok = all(
            _close(wishart.moment(params, MomentSpec((i, j))), bf * sig[i - 1][j - 1])
            for i in range(1, d + 1)
            for j in range(1, d + 1)
        )
        check(f"E[W_ij] = beta sigma_ij (d={d})", ok)

        ok = all(
            _close(wishart.inverse_moment(params, MomentSpec((i, j), inverse=True)), si[i - 1][j - 1] / gf)
            for i in range(1, d + 1)
            for j in range(1, d + 1)
        )
        check(f"E[Winv_ij] = sigmainv_ij / gamma (d={d})", ok)

        ok = True
        for k in product(range(1, d + 1), repeat=4):
            got = wishart.moment(params, MomentSpec(k))
            want = (
                bf * bf * sig[k[0] - 1][k[1] - 1] * sig[k[2] - 1][k[3] - 1]
                + bf / 2 * sig[k[0] - 1][k[2] - 1] * sig[k[1] - 1][k[3] - 1]
                + bf / 2 * sig[k[0] - 1][k[3] - 1] * sig[k[1] - 1][k[2] - 1]
            )
            ok &= _close(got, want)
        check(f"degree-2 entrywise moment display (d={d})", ok)

        den = gf * (gf - 1) * (2 * gf + 1)
        ok = True
        for k in product(range(1, d + 1), repeat=4):
            got = wishart.inverse_moment(params, MomentSpec(k, inverse=True))
            want = (
                (2 * gf - 1) * si[k[0] - 1][k[1] - 1] * si[k[2] - 1][k[3] - 1]
                + si[k[0] - 1][k[2] - 1] * si[k[1] - 1][k[3] - 1]
                + si[k[0] - 1][k[3] - 1] * si[k[1] - 1][k[2] - 1]
            ) / den
            ok &= _close(got, want)
        check(f"degree-2 inverse entrywise display (d={d})", ok)

        m2 = [
            [sum(wishart.moment(params, MomentSpec((i, k, k, j))) for k in range(1, d + 1)) for j in range(1, d + 1)]
            for i in range(1, d + 1)
        ]
        tr, ss = sum(sig[i][i] for i in range(d)), _gram(sig)
        want = [[(bf**2 + bf / 2) * ss[i][j] + bf / 2 * tr * sig[i][j] for j in range(d)] for i in range(d)]
        check(f"E[W^2] display (d={d})", _all_close(m2, want))

        im2 = [
            [
                sum(wishart.inverse_moment(params, MomentSpec((i, k, k, j), inverse=True)) for k in range(1, d + 1))
                for j in range(1, d + 1)
            ]
            for i in range(1, d + 1)
        ]
        tr, ss = sum(si[i][i] for i in range(d)), _gram(si)
        want = [[(2 * gf * ss[i][j] + tr * si[i][j]) / den for j in range(d)] for i in range(d)]
        check(f"E[Winv^2] display (d={d})", _all_close(im2, want))

        for mu in partitions_of(3):
            got = wishart.power_trace_moment(params, mu)
            ref = entrywise_power_trace(params, mu)
            check(f"E[p_{mu}(W)] vs entrywise assembly (d={d})", _close(got, ref), f"{got} vs {ref}")
            got = wishart.power_trace_moment(params, mu, inverse=True)
            ref = entrywise_power_trace(params, mu, inverse=True)
            check(f"E[p_{mu}(Winv)] vs entrywise assembly (d={d})", _close(got, ref), f"{got} vs {ref}")

        got = wishart.trace_power_moment(params, 4)
        ref = entrywise_power_trace(params, (1, 1, 1, 1))
        check(f"E[(tr W)^4] vs entrywise assembly (d={d})", _close(got, ref))
        got = wishart.trace_power_moment(params, 4, inverse=True)
        ref = entrywise_power_trace(params, (1, 1, 1, 1), inverse=True)
        check(f"E[(tr Winv)^4] vs entrywise assembly (d={d})", _close(got, ref))

    return out


# --------------------------------------------------------------- identities


def identities_suite(n_max: int = 4, seed: int = 0) -> list[dict]:
    """Exact identities of the convolution algebra at degrees 1..n_max (the
    full-group kernel at n <= 3, the reduced one above), then hafnian checks.
    The reduced kernel lists matching words, so n_max is held to
    ``check_listed_degree`` before any degree runs."""
    n_max = _as_int(n_max, "degree")
    check_listed_degree(n_max)
    rnd = random.Random(seed)
    out: list[dict] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        out.append(_row(name, ok, detail))

    for n in range(1, n_max + 1):
        method = "full" if n <= 3 else "reduced"
        rhos = partitions_of(n)
        z = _pole_free_z(rnd, n)
        kappa_power, wg = {r: z ** len(r) for r in rhos}, weingarten_values(n, z=z)
        lhs = biinvariant_convolve(kappa_power, wg, method)
        scale = (2**n * factorial(n)) ** 2
        unit = hecke_unit(n)
        ok = all(lhs[r] == scale * unit[r] for r in rhos)
        check(f"convolution inverse identity n={n} ({method}) at z={z}", ok)

        zonal = {lam: {r: zonal_spherical(lam, r) for r in rhos} for lam in rhos}
        ok = True
        for lam in rhos:
            for mu in rhos:
                if lam == mu:
                    want = {r: Fraction(factorial(2 * n), hook_dim_doubled(lam)) * zonal[lam][r] for r in rhos}
                else:
                    want = {r: Fraction(0) for r in rhos}
                ok &= biinvariant_convolve(zonal[lam], zonal[mu], method) == want
        check(f"zonal orthogonality n={n} ({method})", ok)

        if n <= 3:
            check(f"full vs reduced convolution agree n={n}", biinvariant_convolve(kappa_power, wg, "reduced") == lhs)

        for z2 in (_pole_free_z(rnd, n), _pole_free_z(rnd, n)):
            ok = True
            for lam in partitions_of(n):
                ok &= zonal_eval(lam, dict.fromkeys(range(1, n + 1), z2)) == content_product(lam, z2)
            for rho in partitions_of(n):
                s = Fraction(2**n * factorial(n), factorial(2 * n)) * sum(
                    hook_dim_doubled(l) * zonal_spherical(l, rho) * content_product(l, z2)
                    for l in partitions_of(n)
                )
                ok &= s == z2 ** len(rho)
            check(f"power-sum specialization identities n={n} at z={z2}", ok)

        total = sum(double_coset_size(rho) for rho in partitions_of(n))
        check(f"double coset sizes sum to (2n)! at n={n}", total == factorial(2 * n))

    # hafnian equivalence, small randomized sweep
    ok = True
    for n in range(1, 5):
        for _ in range(5):
            A = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
            for p in range(2 * n):
                for q in range(p, 2 * n):
                    A[p][q] = A[q][p] = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
            al = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
            vals = {
                hafnian.hafnian_matching(A, al),
                hafnian.hafnian_expand(A, al),
                hafnian.hafnian_permsum(A, al, "P"),
                hafnian.hafnian_permsum(A, al, "Q"),
            }
            ok &= len(vals) == 1
    check("hafnian four-way agreement on random exact matrices", ok)

    ok = True
    for _ in range(5):
        M = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        al = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
        ok &= hafnian.hafnian_matching(hafnian.permanent_embedding(M), al) == hafnian.alpha_permanent(M, al)
    check("alpha-permanent embedding identity", ok)

    return out


# -------------------------------------------------------------- monte carlo


def montecarlo_suite(samples: int = 100_000, seed: int = 42, threads: int = 1) -> list[dict]:
    import numpy as np

    rng = np.random.default_rng(seed)
    out: list[dict] = []
    stats: list[montecarlo.SampleStats] = []

    def add(batch: list[montecarlo.SampleStats], tag: str) -> None:
        for s in batch:
            stats.append(s)
            out.append(
                _row(
                    f"{tag}: {s.label}",
                    abs(s.zscore) < 5,
                    f"mean={s.mean:.6g} target={s.target:.6g} z={s.zscore:.2f} rejected={s.rejected}",
                )
            )

    sig3 = _rand_pd(rng, 3)
    entries3 = [montecarlo.EntryProduct((i, j)) for i in range(1, 4) for j in range(i, 4)]

    params_b = WishartParams(d=3, beta=Fraction(5, 2), sigma=sig3)
    add(
        montecarlo.estimate(entries3, params_b, samples, montecarlo.RngSpec(seed), method="bartlett", streams=MC_STREAMS, threads=threads),
        "E[W] d=3 beta=5/2 bartlett",
    )

    params_i = WishartParams(d=3, beta=3, sigma=sig3)
    add(
        montecarlo.estimate(entries3, params_i, samples, montecarlo.RngSpec(seed + 1), method="vectors", streams=MC_STREAMS, threads=threads),
        "E[W] d=3 beta=3 integer",
    )

    sig2 = _rand_pd(rng, 2)
    params2 = WishartParams(d=2, beta=6, sigma=sig2)
    deg2 = [montecarlo.EntryProduct(k) for k in ((1, 1, 2, 2), (1, 2, 1, 2), (1, 1, 1, 2), (1, 2, 2, 2))]
    inv2 = [montecarlo.EntryProduct((1, 1), inverse=True), montecarlo.EntryProduct((1, 1, 2, 2), inverse=True)]
    tr3 = [montecarlo.TracePower(3)]
    add(
        montecarlo.estimate(deg2 + inv2 + tr3, params2, samples, montecarlo.RngSpec(seed + 2), streams=MC_STREAMS, threads=threads),
        "d=2 beta=6",
    )

    haar_pairs = [
        ((1, 1), (1, 1)),
        ((1, 1), (2, 2)),
        ((1, 2), (1, 2)),
        ((1, 1, 2, 2), (1, 1, 2, 2)),
        ((1, 1, 2, 2), (1, 2, 1, 2)),
        ((1, 1, 1, 1), (1, 1, 1, 1)),
    ]
    add(
        montecarlo.estimate_haar(haar_pairs, 3, samples, montecarlo.RngSpec(seed + 3), streams=MC_STREAMS, threads=threads),
        "Haar N=3",
    )

    over3 = sum(1 for s in stats if abs(s.zscore) > 3)
    out.append(
        _row(
            "multiplicity: fraction of |z|>3 below 5%",
            over3 <= max(1, int(0.05 * len(stats))),
            f"{over3} of {len(stats)} checks above |z|=3",
        )
    )
    return out
