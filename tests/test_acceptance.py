"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances and runtime limits are pinned here.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import factorial

import numpy as np

from wishmom import validate as validate_mod
from wishmom.hafnian import (
    alpha_permanent,
    hafnian_expand,
    hafnian_matching,
    hafnian_permsum,
    permanent_embedding,
)
from wishmom.matchgroup import coset_type, double_coset_size, label_matchings
from wishmom.symcomb import (
    Perm,
    centralizer_order,
    content_product,
    hook_dim_doubled,
    partitions_of,
)
from wishmom.validate import entrywise_power_trace
from wishmom.weingarten import (
    biinvariant_convolve,
    hecke_unit,
    inv_wishart_weingarten,
    weingarten,
    weingarten_values,
    zonal_spherical,
)
from wishmom.wishart import (
    MomentSpec,
    WishartParams,
    inverse_moment,
    moment,
    power_trace_moment,
    trace_power_moment,
)

from oracles import det_exact


@contextmanager
def criterion(num: int, title: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {num}: FAIL ({elapsed:.2f}s) - {title}")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= limit_s
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s, limit {limit_s:g}s) - {title}")
    assert ok, f"runtime {elapsed:.2f}s exceeded the {limit_s:g}s budget"


def rel_close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-30)


def pole_free_z(rnd, n):
    while True:
        z = Fraction(rnd.randint(1, 40), rnd.randint(1, 6)) * rnd.choice((1, -1))
        if all(content_product(l, z) != 0 for l in partitions_of(n)):
            return z


def pole_free_gamma(rnd, n):
    while True:
        g = Fraction(rnd.randint(1, 40), rnd.randint(1, 6))
        if all(content_product(l, -2 * g) != 0 for l in partitions_of(n)):
            return g


def rand_pd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


def test_criterion_1_weingarten_golden_values():
    with criterion(1, "Weingarten closed forms at 10 random rational points", 1.0):
        rnd = random.Random(101)
        for _ in range(10):
            z = pole_free_z(rnd, 2)
            den = z * (z + 2) * (z - 1)
            assert weingarten((1,), z) == 1 / z
            assert weingarten((2,), z) == -1 / den
            assert weingarten((1, 1), z) == (z + 1) / den


def test_criterion_2_inverse_wishart_weingarten_tables():
    with criterion(2, "inverse-Wishart Weingarten tables, degrees 2-4, 5 rational points", 30.0):
        rnd = random.Random(202)
        for _ in range(5):
            g = pole_free_gamma(rnd, 4)
            d2 = g * (g - 1) * (2 * g + 1)
            assert inv_wishart_weingarten((1, 1), g) == (2 * g - 1) / d2
            assert inv_wishart_weingarten((2,), g) == 1 / d2
            u3 = g * (g - 1) * (g - 2) * (g + 1) * (2 * g + 1)
            assert inv_wishart_weingarten((3,), g) == 1 / u3
            assert inv_wishart_weingarten((2, 1), g) == (g - 1) / u3
            assert inv_wishart_weingarten((1, 1, 1), g) == (2 * g**2 - 3 * g - 1) / u3
            u4 = g * (g - 1) * (g - 2) * (g - 3) * (2 * g - 1) * (g + 1) * (2 * g + 1) * (2 * g + 3)
            assert inv_wishart_weingarten((4,), g) == (5 * g - 3) / u4
            assert inv_wishart_weingarten((3, 1), g) == 4 * g * (g - 2) / u4
            assert inv_wishart_weingarten((2, 2), g) == (2 * g**2 - 5 * g + 9) / u4
            assert inv_wishart_weingarten((2, 1, 1), g) == (4 * g**3 - 12 * g**2 + 3 * g + 3) / u4
            assert inv_wishart_weingarten((1, 1, 1, 1), g) == (g + 1) * (2 * g - 3) * (4 * g**2 - 12 * g + 1) / u4


def test_criterion_3_low_degree_moment_displays():
    with criterion(3, "low-degree moment displays vs entrywise assembly at d in {2,3}", 60.0):
        rel = 1e-10
        rnd = random.Random(303)
        rng = np.random.default_rng(303)
        for d in (2, 3):
            sigma = rand_pd(rng, d)
            gamma = Fraction(rnd.randint(14, 22), 4)  # > 3: clear of all degree<=4 poles
            beta = gamma + Fraction(d + 1, 2)
            params = WishartParams(d=d, beta=beta, sigma=sigma)
            b, g = float(beta), float(gamma)
            si = params.sigma_inv

            for i, j in product(range(1, d + 1), repeat=2):
                assert rel_close(moment(params, MomentSpec((i, j))), b * sigma[i - 1, j - 1], rel)

            for k in product(range(1, d + 1), repeat=4):
                want = (
                    b * b * sigma[k[0] - 1, k[1] - 1] * sigma[k[2] - 1, k[3] - 1]
                    + b / 2 * sigma[k[0] - 1, k[2] - 1] * sigma[k[1] - 1, k[3] - 1]
                    + b / 2 * sigma[k[0] - 1, k[3] - 1] * sigma[k[1] - 1, k[2] - 1]
                )
                assert rel_close(moment(params, MomentSpec(k)), want, rel)

            m2 = np.array(
                [
                    [sum(moment(params, MomentSpec((i, k, k, j))) for k in range(1, d + 1)) for j in range(1, d + 1)]
                    for i in range(1, d + 1)
                ]
            )
            want2 = (b * b + b / 2) * sigma @ sigma + (b / 2) * np.trace(sigma) * sigma
            assert np.allclose(m2, want2, rtol=rel)

            im2 = np.array(
                [
                    [
                        sum(
                            inverse_moment(params, MomentSpec((i, k, k, j), inverse=True))
                            for k in range(1, d + 1)
                        )
                        for j in range(1, d + 1)
                    ]
                    for i in range(1, d + 1)
                ]
            )
            wanti = (2 * g * si @ si + np.trace(si) * si) / (g * (g - 1) * (2 * g + 1))
            assert np.allclose(im2, wanti, rtol=rel)

            # six degree-3 power-trace displays, against closed form and assembly
            ps = {r: float(np.trace(np.linalg.matrix_power(sigma, r))) for r in (1, 2, 3)}
            pi = {r: float(np.trace(np.linalg.matrix_power(si, r))) for r in (1, 2, 3)}
            u3 = g * (g - 1) * (g - 2) * (g + 1) * (2 * g + 1)
            closed = {
                ((3,), False): b * (2 * b * b + 3 * b + 2) / 2 * ps[3]
                + 3 * b * (2 * b + 1) / 4 * ps[2] * ps[1]
                + b / 4 * ps[1] ** 3,
                ((2, 1), False): b * (2 * b + 1) * ps[3]
                + b * (2 * b * b + b + 2) / 2 * ps[2] * ps[1]
                + b * b / 2 * ps[1] ** 3,
                ((1, 1, 1), False): 2 * b * ps[3] + 3 * b * b * ps[2] * ps[1] + b**3 * ps[1] ** 3,
                ((3,), True): (2 * g * g * pi[3] + 3 * g * pi[2] * pi[1] + pi[1] ** 3) / u3,
                ((2, 1), True): (4 * g * pi[3] + 2 * (g * g - g + 1) * pi[2] * pi[1] + (g - 1) * pi[1] ** 3) / u3,
                ((1, 1, 1), True): (8 * pi[3] + 6 * (g - 1) * pi[2] * pi[1] + (2 * g * g - 3 * g - 1) * pi[1] ** 3)
                / u3,
            }
            for (mu, inv), want in closed.items():
                got = power_trace_moment(params, mu, inverse=inv)
                assert rel_close(got, want, rel), (mu, inv)
                assert rel_close(got, entrywise_power_trace(params, mu, inverse=inv), rel), (mu, inv)

            # degree-4 trace powers
            got = trace_power_moment(params, 4)
            assert rel_close(got, entrywise_power_trace(params, (1, 1, 1, 1)), rel)
            p4 = {r: float(np.trace(np.linalg.matrix_power(sigma, r))) for r in (1, 2, 3, 4)}
            want = (
                6 * b * p4[4]
                + 8 * b * b * p4[3] * p4[1]
                + 3 * b * b * p4[2] ** 2
                + 6 * b**3 * p4[2] * p4[1] ** 2
                + b**4 * p4[1] ** 4
            )
            assert rel_close(got, want, rel)

            got = trace_power_moment(params, 4, inverse=True)
            assert rel_close(got, entrywise_power_trace(params, (1, 1, 1, 1), inverse=True), rel)
            q4 = {r: float(np.trace(np.linalg.matrix_power(si, r))) for r in (1, 2, 3, 4)}
            u4 = g * (g - 1) * (g - 2) * (g - 3) * (2 * g - 1) * (g + 1) * (2 * g + 1) * (2 * g + 3)
            want = (
                48 * (5 * g - 3) * q4[4]
                + 128 * g * (g - 2) * q4[3] * q4[1]
                + 12 * (2 * g * g - 5 * g + 9) * q4[2] ** 2
                + 12 * (4 * g**3 - 12 * g * g + 3 * g + 3) * q4[2] * q4[1] ** 2
                + (g + 1) * (2 * g - 3) * (4 * g * g - 12 * g + 1) * q4[1] ** 4
            ) / u4
            assert rel_close(got, want, rel)


def test_criterion_4_exact_identity_suite():
    with criterion(4, "convolution/orthogonality/specialization identities, n<=4", 120.0):
        rnd = random.Random(404)
        for n in (1, 2, 3, 4):
            method = "full" if n <= 3 else "reduced"
            z = pole_free_z(rnd, n)
            conv = biinvariant_convolve({r: z ** len(r) for r in partitions_of(n)}, weingarten_values(n, z=z), method)
            scale = (2**n * factorial(n)) ** 2
            assert conv == {r: scale * v for r, v in hecke_unit(n).items()}

            zonal = {lam: {r: zonal_spherical(lam, r) for r in partitions_of(n)} for lam in partitions_of(n)}
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    got = biinvariant_convolve(zonal[lam], zonal[mu], method)
                    if lam == mu:
                        want = {
                            r: Fraction(factorial(2 * n), hook_dim_doubled(lam)) * zonal_spherical(lam, r)
                            for r in partitions_of(n)
                        }
                    else:
                        want = {r: Fraction(0) for r in partitions_of(n)}
                    assert got == want

            for _ in range(2):
                z2 = pole_free_z(rnd, n)
                for lam in partitions_of(n):
                    s = 2**n * factorial(n) * sum(
                        Fraction(1, 2 ** len(r) * centralizer_order(r)) * zonal_spherical(lam, r) * z2 ** len(r)
                        for r in partitions_of(n)
                    )
                    assert s == content_product(lam, z2)
                for rho in partitions_of(n):
                    s = Fraction(2**n * factorial(n), factorial(2 * n)) * sum(
                        hook_dim_doubled(l) * zonal_spherical(l, rho) * content_product(l, z2)
                        for l in partitions_of(n)
                    )
                    assert s == z2 ** len(rho)

            assert sum(double_coset_size(rho) for rho in partitions_of(n)) == factorial(2 * n)


def test_criterion_5_hafnian_equivalence():
    with criterion(5, "four hafnian algorithms on 100 random matrices per size", 60.0):
        rnd = random.Random(505)
        for n in (1, 2, 3, 4, 5):
            for _ in range(100):
                m = 2 * n
                A = [[Fraction(0)] * m for _ in range(m)]
                for p in range(m):
                    for q in range(p, m):
                        A[p][q] = A[q][p] = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
                al = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
                h = hafnian_matching(A, al)
                assert hafnian_expand(A, al) == h
                assert hafnian_permsum(A, al, "P") == h
                assert hafnian_permsum(A, al, "Q") == h
        for _ in range(100):
            M = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(3)] for _ in range(3)]
            al = Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))
            assert hafnian_matching(permanent_embedding(M), al) == alpha_permanent(M, al)
            assert alpha_permanent(M, -1) == (-1) ** 3 * det_exact(M)


def test_criterion_6_inverse_moment_roundtrip():
    with criterion(6, "inverse-moment reconstruction of inverse-scale products", 30.0):
        rnd = random.Random(606)
        rng = np.random.default_rng(606)
        d = 3
        sigma = rand_pd(rng, d)
        for gamma in (Fraction(7, 2), Fraction(5)):
            params = WishartParams(d=d, beta=gamma + 2, sigma=sigma)
            si = params.sigma_inv
            for n in (1, 2, 3):
                for _ in range(5):
                    k = tuple(rnd.randint(1, d) for _ in range(2 * n))
                    total = 0.0
                    for w in label_matchings((0,) * (2 * n)):
                        reordered = tuple(k[s - 1] for s in w)
                        coef = float((-2 * gamma) ** len(coset_type(Perm(w))))
                        total += coef * inverse_moment(params, MomentSpec(reordered, inverse=True))
                    total *= (-1) ** n / 2**n
                    want = 1.0
                    for t in range(n):
                        want *= si[k[2 * t] - 1, k[2 * t + 1] - 1]
                    assert rel_close(total, want, 1e-9), (gamma, k)


def test_criterion_7_montecarlo_suite():
    with criterion(7, "Monte Carlo validation at 1e6 samples, all |z| < 5", 600.0):
        results = validate_mod.montecarlo_suite(samples=1_000_000, seed=42, threads=1)
        assert len(results) >= 20
        failures = [r for r in results if not r["passed"]]
        assert not failures, failures
        # the multiplicity row is the suite's own <=5% |z|>3 discipline check
        assert results[-1]["name"].startswith("multiplicity")


def test_criterion_8_degree3_combinatorial_constants():
    with criterion(8, "degree-3 zonal matrix, dimensions and content products", 1.0):
        zmat = [[zonal_spherical(l, m) for m in partitions_of(3)] for l in partitions_of(3)]
        assert zmat == [
            [Fraction(1), Fraction(1), Fraction(1)],
            [Fraction(-1, 4), Fraction(1, 6), Fraction(1)],
            [Fraction(1, 4), Fraction(-1, 2), Fraction(1)],
        ]
        assert hook_dim_doubled((3,)) == 1
        assert hook_dim_doubled((2, 1)) == 9
        assert hook_dim_doubled((1, 1, 1)) == 5
        z = Fraction(23, 5)
        assert content_product((3,), z) == z * (z + 2) * (z + 4)
        assert content_product((2, 1), z) == z * (z + 2) * (z - 1)
        assert content_product((1, 1, 1), z) == z * (z - 1) * (z - 2)
