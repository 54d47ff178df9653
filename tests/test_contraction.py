"""The float contraction of every exact moment kind against an exact Fraction
evaluation of the same formula on the same float sigma.

``WishartParams`` reads sigma into rows of Python floats, takes sigma^-1 from
a Python Cholesky factor, and the entrywise, power-trace and trace-power
moments contract their exact coefficients against those rows in floats (the
invariant moments take numpy's power sums of the same matrices).  Here the same float sigma is read as Fractions, inverted exactly by
Gaussian elimination (``oracles.solve_exact``), and each moment is evaluated
in Fractions: the matching sums of ``matching_type_sums`` (which run in any
ring) with the exact weights, the power sums tr(x^r) by exact matrix
products, and the exact coefficients and eigenvalues.  Each float result must
lie within REL of that exact value.
"""

import random
from fractions import Fraction
from math import prod

import numpy as np
import pytest

from oracles import solve_exact
from wishmom.matchgroup import matching_type_sums
from wishmom.symcomb import content_product, partitions_of
from wishmom.weingarten import inv_wishart_weingarten, zonal_eval
from wishmom.wishart import (
    MomentSpec,
    WishartParams,
    invariant_moment,
    moment,
    power_trace_coeffs,
    power_trace_moment,
    trace_power_coeffs,
    trace_power_moment,
)

REL = 1e-13


def _params(d: int, seed: int) -> WishartParams:
    # gamma = 13/2 > n - 1 at every degree n <= 5, so the inverse side is in
    # its standard regime, away from every pole
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return WishartParams(d=d, beta=Fraction(13, 2) + Fraction(d + 1, 2), sigma=a @ a.T + d * np.eye(d))


def _exact_side(p: WishartParams, inverse: bool):
    """(x, shape): the float sigma of p as Fractions, or its exact inverse, and beta or gamma."""
    sigma = [[Fraction(v) for v in row] for row in p.sigma_rows]
    if not inverse:
        return sigma, p.beta
    d = len(sigma)
    cols = [solve_exact(sigma, [int(i == j) for i in range(d)]) for j in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)], p.gamma


def _exact_power_sums(x, n: int) -> dict[int, Fraction]:
    out, power = {}, x
    for r in range(1, n + 1):
        out[r] = sum(power[i][i] for i in range(len(x)))
        power = [[sum(a * b for a, b in zip(row, col)) for col in zip(*x)] for row in power]
    return out


def _exact_entries(p: WishartParams, idx: tuple[int, ...], inverse: bool) -> Fraction:
    x, shape = _exact_side(p, inverse)
    labels = [k - 1 for k in idx]
    if not inverse:
        return matching_type_sums(labels, x, 2 * shape) / 2 ** (len(idx) // 2)
    return sum(inv_wishart_weingarten(rho, shape) * s for rho, s in matching_type_sums(labels, x).items())


def _exact_power_trace(p: WishartParams, mu, inverse: bool) -> Fraction:
    x, shape = _exact_side(p, inverse)
    psums = _exact_power_sums(x, sum(mu))
    return sum(c * prod(psums[r] for r in rho) for rho, c in power_trace_coeffs(mu, shape, inverse).items())


def _exact_trace_power(p: WishartParams, n: int, inverse: bool) -> Fraction:
    x, shape = _exact_side(p, inverse)
    psums = _exact_power_sums(x, n)
    return sum(c * prod(psums[r] for r in rho) for rho, c in trace_power_coeffs(n, shape, inverse).items())


def _exact_invariant(p: WishartParams, lam, inverse: bool) -> Fraction:
    x, shape = _exact_side(p, inverse)
    n = sum(lam)
    if inverse:
        eigen = Fraction((-1) ** n * 2**n) / content_product(lam, -2 * shape)
    else:
        eigen = content_product(lam, 2 * shape) / Fraction(2**n)
    return eigen * zonal_eval(lam, _exact_power_sums(x, n))


def _close(got: float, want: Fraction) -> bool:
    return abs(Fraction(got) - want) <= REL * abs(want)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_coefficient_kinds_match_an_exact_evaluation(d, inverse):
    p = _params(d, 100 + d)
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert _close(power_trace_moment(p, mu, inverse), _exact_power_trace(p, mu, inverse)), mu
            if len(mu) <= d:  # Z_lam vanishes on d x d matrices when lam has more than d parts
                assert _close(invariant_moment(p, mu, inverse), _exact_invariant(p, mu, inverse)), mu
        assert _close(trace_power_moment(p, n, inverse), _exact_trace_power(p, n, inverse)), n


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_entrywise_moments_match_an_exact_evaluation(d, inverse):
    p = _params(d, 200 + d)
    rnd = random.Random(d)
    for n in range(1, 8 if not inverse else 6):
        for _ in range(4 if n <= 5 else 2):
            idx = tuple(rnd.randint(1, d) for _ in range(2 * n))
            got = moment(p, MomentSpec(idx, inverse=inverse))
            assert _close(got, _exact_entries(p, idx, inverse)), idx


def test_sigma_inverse_rows_match_the_exact_inverse():
    for d in (1, 2, 3, 4, 8):
        p = _params(d, 300 + d)
        exact, _ = _exact_side(p, True)
        for got_row, want_row in zip(p.sigma_inv_rows, exact):
            assert all(abs(Fraction(g) - w) <= 1e-14 * max(abs(v) for v in want_row) for g, w in zip(got_row, want_row))
