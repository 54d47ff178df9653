import copy
import pickle
import random
import sys
import time
from fractions import Fraction
from itertools import permutations, product
from math import factorial, prod
from operator import mul

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import multigammaln

from wishmom import matchgroup, montecarlo, weingarten, wishart
from wishmom.hafnian import alpha_permanent, hafnian_expand, hafnian_matching, hafnian_permsum, permanent_embedding
from wishmom.matchgroup import (
    MAX_LISTED_DEGREE,
    MAX_SUM_DEGREE,
    SizeLimitError,
    coset_type,
    hyperoctahedral,
    label_matchings,
    matching_type_count,
    matching_type_sums,
    paired_perm,
)
from wishmom.symcomb import Perm, content_product, partitions_of
from wishmom.validate import REL_TOL, entrywise_power_trace, identities_suite
from wishmom.weingarten import PoleError, inv_wishart_weingarten, zonal_eval, zonal_spherical
from wishmom.wishart import (
    _log_multigamma,
    DomainError,
    MomentSpec,
    WishartParams,
    admissible_beta,
    density,
    gamma_regime,
    haar_moment,
    invariant_moment,
    inverse_moment,
    log_density,
    mixed_trace_moment,
    moment,
    paired_contraction,
    power_trace_coeffs,
    power_trace_moment,
    trace_power_coeffs,
    trace_power_moment,
    trace_product_moment,
)

from oracles import mixed_trace_moment_termwise, permutation_cycles, t_contraction_bruteforce, trace_product_enumerative


def trace_pattern_perm(pi, transposed):
    """The S_{2n} pattern whose paired contraction reproduces the trace word
    R_pi with the flagged factors transposed: pair swaps at the flagged slots
    composed with the paired lift of pi."""
    swap = {}
    for i, t in enumerate(transposed, start=1):
        if t:
            swap[2 * i - 1], swap[2 * i] = 2 * i, 2 * i - 1
    return Perm(swap.get(v, v) for v in paired_perm(pi).images)


def rand_pd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


@pytest.fixture(scope="module")
def params3():
    rng = np.random.default_rng(17)
    return WishartParams(d=3, beta=Fraction(11, 2), sigma=rand_pd(rng, 3))


@pytest.fixture(scope="module")
def params2():
    rng = np.random.default_rng(23)
    return WishartParams(d=2, beta=6, sigma=rand_pd(rng, 2))


def test_admissible_beta_set():
    assert admissible_beta(Fraction(1, 2), 3)
    assert admissible_beta(Fraction(1), 3)
    assert not admissible_beta(Fraction(3, 4), 3)
    assert admissible_beta(Fraction(7, 5), 3)  # beyond (d-1)/2 anything goes
    assert not admissible_beta(Fraction(1, 4), 2)
    with pytest.raises(DomainError):
        WishartParams(d=4, beta=Fraction(5, 4), sigma=np.eye(4))


def test_params_validation():
    with pytest.raises(DomainError):
        WishartParams(d=2, beta=2, sigma=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(DomainError):
        WishartParams(d=2, beta=2, sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))
    p = WishartParams(d=2, beta=Fraction(9, 2), sigma=np.diag([2.0, 3.0]))
    assert p.gamma == 3
    assert np.allclose(p.sigma_inv, np.diag([0.5, 1 / 3]))


def test_params_factor_sigma_once(monkeypatch):
    # the positive-definiteness check and sigma_inv are a Python Cholesky
    # factor; LAPACK factors sigma once, on the first read of chol
    calls = []
    factor = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or factor(a))
    p = WishartParams(d=2, beta=3, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    assert np.array_equal(p.chol, factor(p.sigma)) and p.sigma_inv.shape == (2, 2)
    assert len(calls) == 1
    with pytest.raises(DomainError, match="sigma is not positive definite"):
        WishartParams(d=2, beta=2, sigma=np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_params_dimension_must_be_a_positive_integer():
    for bad in (True, 2.5, 0, "2"):
        with pytest.raises(ValueError, match="d must be a positive integer") as info:
            WishartParams(d=bad, beta=3, sigma=np.eye(2))
        assert type(info.value) is ValueError
    p = WishartParams(d=2.0, beta=3, sigma=np.eye(2))
    assert p.d == 2 and type(p.d) is int and p.gamma == Fraction(3, 2)
    assert WishartParams(d=np.int64(2), beta=3, sigma=np.eye(2)).d == 2


def test_params_beta_must_be_a_finite_rational():
    for bad in (True, np.bool_(True), None, float("nan"), float("inf"), 1j, "beta"):
        with pytest.raises(ValueError, match="beta must be a finite rational number") as info:
            WishartParams(d=2, beta=bad, sigma=np.eye(2))
        assert type(info.value) is ValueError
    for same in (2.5, np.float64(2.5), "5/2", Fraction(5, 2)):
        p = WishartParams(d=2, beta=same, sigma=np.eye(2))
        assert p.beta == Fraction(5, 2) and type(p.beta) is Fraction


def test_complex_matrices_are_refused():
    p = WishartParams(d=2, beta=3, sigma=np.eye(2))
    for name, call in (
        ("sigma", lambda a: WishartParams(d=2, beta=3, sigma=a)),
        ("w", lambda a: log_density(p, a)),
    ):
        for bad in (np.eye(2) + 0j, np.eye(2) + 0.5j * np.eye(2), [[1, 0], [0, 1j]]):
            with pytest.raises(ValueError, match=f"{name} must be real") as info:
                call(bad)
            assert type(info.value) is ValueError


def test_gamma_regime():
    assert gamma_regime(Fraction(5), 2) == "standard"
    assert gamma_regime(Fraction(1, 2), 2) == "analytic-continuation"
    with pytest.raises(DomainError):
        gamma_regime(Fraction(-1), 1)


@pytest.mark.parametrize("beta", [Fraction(3, 2), 2])
def test_every_inverse_route_refuses_gamma_at_most_0_with_the_gamma_regime_message(beta):
    # d = 3: gamma = beta - 2 is -1/2 or 0
    p = WishartParams(d=3, beta=beta, sigma=np.eye(3))
    with pytest.raises(DomainError) as want:
        gamma_regime(p.gamma, 1)
    calls = [
        lambda: moment(p, MomentSpec((1, 2), inverse=True)),
        lambda: invariant_moment(p, (1,), True),
        lambda: power_trace_moment(p, (2, 1), True),
        lambda: trace_power_moment(p, 2, True),
        lambda: mixed_trace_moment(p, Perm((2, 1)), [np.eye(3)], True),
    ]
    for call in calls:
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == str(want.value) == f"gamma={p.gamma} must be positive for inverse moments"


def test_moment_degree1(params3):
    b = float(params3.beta)
    for i, j in product(range(1, 4), repeat=2):
        assert moment(params3, MomentSpec((i, j))) == pytest.approx(b * params3.sigma[i - 1, j - 1], rel=1e-13)


def test_moment_degree2_display(params3):
    b = float(params3.beta)
    s = params3.sigma
    for k in ((1, 2, 3, 1), (2, 2, 3, 3), (1, 3, 2, 1), (1, 1, 1, 1)):
        want = (
            b * b * s[k[0] - 1, k[1] - 1] * s[k[2] - 1, k[3] - 1]
            + b / 2 * s[k[0] - 1, k[2] - 1] * s[k[1] - 1, k[3] - 1]
            + b / 2 * s[k[0] - 1, k[3] - 1] * s[k[1] - 1, k[2] - 1]
        )
        assert moment(params3, MomentSpec(k)) == pytest.approx(want, rel=1e-12)


def test_moment_w_squared_identity_scale():
    p = WishartParams(d=2, beta=2, sigma=np.eye(2))
    m2 = np.array(
        [[sum(moment(p, MomentSpec((i, k, k, j))) for k in (1, 2)) for j in (1, 2)] for i in (1, 2)]
    )
    assert np.allclose(m2, 7 * np.eye(2), atol=1e-12)


def test_moment_matches_group_averaged_form(params3):
    # summing (2 beta)^kappa over all of S_{2n} with the 1/(2^n n!) factor
    # reproduces the matching sum
    two_beta = 2 * float(params3.beta)
    s = params3.sigma
    for k in ((1, 2), (1, 2, 3, 1)):
        n = len(k) // 2
        total = 0.0
        for images in permutations(range(1, 2 * n + 1)):
            g = Perm(images)
            term = two_beta ** len(coset_type(g))
            for t in range(n):
                term *= s[k[g(2 * t + 1) - 1] - 1, k[g(2 * t + 2) - 1] - 1]
            total += term
        want = total / (2**n * factorial(n)) / 2**n
        assert moment(params3, MomentSpec(k)) == pytest.approx(want, rel=1e-12)


def test_moment_index_out_of_range(params3):
    with pytest.raises(ValueError):
        moment(params3, MomentSpec((1, 4)))


@pytest.mark.parametrize("n", [8, 10])
def test_moment_diagonal_power_closed_form(params3, n):
    # W_11 ~ Gamma(beta, sigma_11): E[W_11^n] = sigma_11^n beta (beta+1) ... (beta+n-1)
    rising = Fraction(1)
    for j in range(n):
        rising *= params3.beta + j
    want = params3.sigma[0, 0] ** n * float(rising)
    assert moment(params3, MomentSpec((1,) * (2 * n))) == pytest.approx(want, rel=REL_TOL)


# d = 1: W ~ Gamma(beta, s), with E[W^n] = s^n (beta)_n and, for n < beta,
# E[W^-n] = s^-n / prod_{k=1}^n (beta - k).  Every moment kind is one of these.
D1_SCALE = Fraction(7, 4)


def _gamma_moment(beta, n, inverse):
    if inverse:
        return D1_SCALE**-n / prod(beta - k for k in range(1, n + 1))
    return D1_SCALE**n * prod(beta + j for j in range(n))


def _d1_params(beta):
    return WishartParams(d=1, beta=beta, sigma=[[float(D1_SCALE)]])


@pytest.mark.parametrize("beta", [Fraction(15, 2), Fraction(9)])
@pytest.mark.parametrize("n", range(1, MAX_SUM_DEGREE + 1))
def test_d1_forward_entries_and_trace_products_are_gamma_moments(n, beta):
    params = _d1_params(beta)
    want = _gamma_moment(beta, n, False)
    assert moment(params, MomentSpec((1,) * (2 * n))) == pytest.approx(float(want), rel=REL_TOL)
    # tr(W s_i) = a_i W for 1x1 factors s_i = [[a_i]]
    factors = [Fraction(k + 3, 4) for k in range(n)]
    got = trace_product_moment(params, [np.array([[float(a)]]) for a in factors])
    assert got == pytest.approx(float(prod(factors) * want), rel=REL_TOL)


# gamma = beta - 1 > n - 1 at every n <= MAX_SUM_DEGREE, and neither point is a
# pole there: the contents c of a shape of weight 10 satisfy -9 <= c <= 18
@pytest.mark.parametrize("beta", [Fraction(25, 2), Fraction(12)])
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("n", range(1, MAX_SUM_DEGREE + 1))
def test_d1_moment_kinds_are_gamma_moments(n, inverse, beta):
    params = _d1_params(beta)
    assert gamma_regime(params.gamma, n) == "standard"
    want = _gamma_moment(beta, n, inverse)
    assert moment(params, MomentSpec((1,) * (2 * n), inverse)) == pytest.approx(float(want), rel=REL_TOL)
    assert trace_power_moment(params, n, inverse) == pytest.approx(float(want), rel=REL_TOL)
    for part in partitions_of(n):
        assert power_trace_moment(params, part, inverse) == pytest.approx(float(want), rel=REL_TOL)
        # Z_lam(w) = Z_lam(1) w^n, zero for two or more rows; the float sum
        # behind the value cancels terms as large as |M_rho omega^lam(rho)| E
        z_one = zonal_eval(part, dict.fromkeys(range(1, n + 1), 1))
        size = sum(matching_type_count(rho) * abs(zonal_spherical(part, rho)) for rho in partitions_of(n))
        got = invariant_moment(params, part, inverse)
        assert got == pytest.approx(float(z_one * want), rel=REL_TOL, abs=REL_TOL * float(size * abs(want)))


def _exact_entrywise(params, indices, inverse):
    # the same per-type sums taken in Fractions, with exact coefficients
    n = len(indices) // 2
    x = params.sigma_inv if inverse else params.sigma
    exact_x = [[Fraction(v) for v in row] for row in x.tolist()]
    sums = matching_type_sums([k - 1 for k in indices], exact_x)
    if inverse:
        return sum(inv_wishart_weingarten(rho, params.gamma) * w for rho, w in sums.items())
    return sum((2 * params.beta) ** len(rho) * w for rho, w in sums.items()) / 2**n


# d=4, beta=33/4: E[W^{11} W^{24} W^{22} W^{31} W^{41}] = -1.76e-11, summed
# from terms whose absolute values add up to 7.9e-11
CANCELLING_SIGMA = [
    [11.54214746247345, 0.05836922325405211, 0.5712502071008622, -0.5198818262860737],
    [0.05836922325405211, 5.652537453282406, -0.26961695716658113, -1.7884158890993684],
    [0.5712502071008622, -0.26961695716658113, 6.449786858936591, 0.18291312419041136],
    [-0.5198818262860737, -1.7884158890993684, 0.18291312419041136, 6.227465484292633],
]


def test_float_entrywise_moments_match_exact_path():
    cancelling = WishartParams(d=4, beta=Fraction(33, 4), sigma=np.array(CANCELLING_SIGMA))
    idx = (1, 1, 2, 4, 2, 2, 3, 1, 4, 1)
    assert moment(cancelling, MomentSpec(idx, inverse=True)) == pytest.approx(-1.7621593e-11, rel=1e-7)
    cases = [(cancelling, idx, True)]
    rng = np.random.default_rng(31)
    for d in (1, 2, 3, 4):
        # beta >= d + 9/2 keeps gamma > n - 1 for every inverse degree n <= 5
        p = WishartParams(d=d, beta=Fraction(int(rng.integers(2 * d + 9, 4 * d + 14)), 2), sigma=rand_pd(rng, d))
        for n in range(1, 7):
            cases.append((p, tuple(int(k) for k in rng.integers(1, d + 1, size=2 * n)), False))
            if n <= 5:
                cases.append((p, tuple(int(k) for k in rng.integers(1, d + 1, size=2 * n)), True))
    for p, idx, inverse in cases:
        got = moment(p, MomentSpec(idx, inverse=inverse))
        want = float(_exact_entrywise(p, idx, inverse))
        assert got == pytest.approx(want, rel=REL_TOL), (p.d, idx, inverse)


@pytest.mark.parametrize("n", [7, 8, MAX_SUM_DEGREE])
def test_forward_moment_matches_exact_evaluation_up_to_the_cap(n):
    # the float scalar stage against the per-type sums in Fractions on the
    # same float sigma; beta = k/3 makes the factor 2 beta inexact in floats
    rng = np.random.default_rng(70 + n)
    for d, den in ((2, 2), (3, 3), (4, 2)):
        beta = Fraction(int(rng.integers(3 * d, 6 * d)), den)
        p = WishartParams(d=d, beta=beta, sigma=rand_pd(rng, d))
        idx = tuple(int(k) for k in rng.integers(1, d + 1, size=2 * n))
        want = _exact_entrywise(p, idx, False)
        assert abs(moment(p, MomentSpec(idx)) - want) <= 1e-13 * abs(want), (d, idx)


@pytest.mark.parametrize("n", [7, 8, MAX_SUM_DEGREE])
def test_inverse_moment_matches_exact_evaluation_up_to_the_cap(n):
    # the float Weingarten weights of the per-type sums against the same sums
    # in Fractions on the same float sigma^-1; beta = n + d + k/3 keeps
    # gamma > n - 1, so no shape is a pole
    rng = np.random.default_rng(90 + n)
    for d in (2, 3, 4):
        beta = n + d + Fraction(int(rng.integers(1, 9)), 3)
        p = WishartParams(d=d, beta=beta, sigma=rand_pd(rng, d))
        assert gamma_regime(p.gamma, n) == "standard"
        idx = tuple(int(k) for k in rng.integers(1, d + 1, size=2 * n))
        want = _exact_entrywise(p, idx, True)
        assert abs(moment(p, MomentSpec(idx, inverse=True)) - want) <= 1e-13 * abs(want), (d, idx)


def _exact_power_sums(rows, n):
    """tr(x^r), r = 1..n, in Fractions of the float entries of x."""
    x = [[Fraction(v) for v in row] for row in rows]
    out, power = {}, x
    for r in range(1, n + 1):
        out[r] = sum(power[i][i] for i in range(len(x)))
        power = [[sum(map(mul, row, col)) for col in zip(*x)] for row in power]
    return out


@pytest.mark.parametrize("n", [7, 8, MAX_SUM_DEGREE])
def test_power_traces_and_invariants_match_exact_evaluation_up_to_the_cap(n):
    # the float contractions against the same exact coefficients on the exact
    # power sums of the same float sigma^{+-1}, in the standard regime
    rng = np.random.default_rng(110 + n)
    rnd = random.Random(n)
    for d in (2, 3, 4):
        p = WishartParams(d=d, beta=n + d + Fraction(int(rng.integers(1, 9)), 3), sigma=rand_pd(rng, d))
        for inverse in (False, True):
            shape = p.gamma if inverse else p.beta
            ps = _exact_power_sums(p.sigma_inv_rows if inverse else p.sigma_rows, n)
            for mu in rnd.sample(partitions_of(n), 3):
                coeffs = power_trace_coeffs(mu, shape, inverse)
                want = sum(c * prod(ps[r] for r in rho) for rho, c in coeffs.items())
                assert abs(power_trace_moment(p, mu, inverse) - want) <= 1e-13 * abs(want), (d, mu, inverse)
            # Z_lam(x) is a signed sum whose terms can exceed it by far (6800-fold
            # at lam = (3, 3, 3), d = 3, n = 9), so bound the error by their size
            for lam in rnd.sample([lam for lam in partitions_of(n) if len(lam) <= d], 2):
                if inverse:
                    e = (-1) ** n * 2**n / content_product(lam, -2 * shape)
                else:
                    e = content_product(lam, 2 * shape) / 2**n
                terms = [c * prod(ps[r] for r in rho) for rho, c in weingarten._zonal_coeffs(lam).items()]
                got = invariant_moment(p, lam, inverse)
                assert abs(got - e * sum(terms)) <= 1e-15 * abs(e) * sum(map(abs, terms)), (d, lam, inverse)


def test_inverse_moment_is_the_per_type_weingarten_sum_bit_for_bit():
    # the inverse side keeps the per-type sums, contracted in partition order
    rng = np.random.default_rng(41)
    for d in (1, 2, 3, 4):
        p = WishartParams(d=d, beta=Fraction(int(rng.integers(2 * d + 9, 4 * d + 14)), 2), sigma=rand_pd(rng, d))
        for n in range(1, 6):
            idx = tuple(int(k) for k in rng.integers(1, d + 1, size=2 * n))
            sums = matching_type_sums([k - 1 for k in idx], p.sigma_inv.tolist())
            wg = weingarten.weingarten_values(n, gamma=p.gamma)
            assert moment(p, MomentSpec(idx, inverse=True)) == sum(float(wg[rho]) * w for rho, w in sums.items())


def test_moment_of_inverse_spec_is_inverse_moment():
    rng = np.random.default_rng(5)
    rnd = random.Random(5)
    for d, beta in ((1, 7), (2, Fraction(13, 2)), (3, 9), (5, Fraction(31, 3))):
        p = WishartParams(d=d, beta=beta, sigma=rand_pd(rng, d))
        for n in range(0, 6):
            idx = tuple(rnd.randint(1, d) for _ in range(2 * n))
            got = moment(p, MomentSpec(idx, inverse=True))
            assert got == inverse_moment(p, MomentSpec(idx, inverse=True))
            # inverse_moment reads the inverse side whatever the spec says
            assert got == inverse_moment(p, MomentSpec(idx))
            if n:
                assert got != moment(p, MomentSpec(idx))


@pytest.mark.parametrize("n", [6, 11])
def test_entrywise_error_classes(n):
    idx = (1, 2) * n
    # gamma = beta - 2: -1/2 and 0 are not positive, 7/3 is, and runs in the
    # analytic continuation up to MAX_SUM_DEGREE
    for beta, inverse, cls in (
        (Fraction(3, 2), True, DomainError),
        (2, True, DomainError),
        (Fraction(13, 3), True, SizeLimitError if n > MAX_SUM_DEGREE else None),
    ):
        p = WishartParams(d=3, beta=beta, sigma=np.eye(3))
        if cls is None:
            assert gamma_regime(p.gamma, n) == "analytic-continuation"
            assert np.isfinite(moment(p, MomentSpec(idx, inverse=inverse)))
            continue
        with pytest.raises(cls) as info:
            moment(p, MomentSpec(idx, inverse=inverse))
        assert type(info.value) is cls
    if n > MAX_SUM_DEGREE:
        with pytest.raises(SizeLimitError) as info:
            moment(WishartParams(d=3, beta=5, sigma=np.eye(3)), MomentSpec(idx))
        assert type(info.value) is SizeLimitError


def test_entrywise_far_past_the_cap_raises_without_enumerating(monkeypatch):
    # degree 200 has ~4e12 partitions; neither side may list them to reject it
    def no_large_partitions(n):
        assert n <= MAX_SUM_DEGREE, f"partitions_of({n}) listed"
        return partitions_of(n)

    _patch_partitions_of(monkeypatch, no_large_partitions)
    p = WishartParams(d=2, beta=9, sigma=np.eye(2))
    with pytest.raises(ValueError, match="degree <= 10"):
        moment(p, MomentSpec((1, 2) * 200))
    with pytest.raises(SizeLimitError):
        moment(p, MomentSpec((1, 2) * 200, inverse=True))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_params_reject_non_finite_sigma(bad):
    sig = np.eye(2)
    sig[0, 1] = sig[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite") as info:
        WishartParams(d=2, beta=3, sigma=sig)
    assert type(info.value) is ValueError


def test_inverse_moment_degree1(params2):
    g = float(params2.gamma)
    si = params2.sigma_inv
    for i, j in product((1, 2), repeat=2):
        got = inverse_moment(params2, MomentSpec((i, j), inverse=True))
        assert got == pytest.approx(si[i - 1, j - 1] / g, rel=1e-13)


def test_inverse_moment_degree2_display():
    p = WishartParams(d=2, beta=4, sigma=np.diag([1.0, 2.0]))
    g = float(p.gamma)
    si = p.sigma_inv
    den = g * (g - 1) * (2 * g + 1)
    for k in product((1, 2), repeat=4):
        got = inverse_moment(p, MomentSpec(k, inverse=True))
        want = (
            (2 * g - 1) * si[k[0] - 1, k[1] - 1] * si[k[2] - 1, k[3] - 1]
            + si[k[0] - 1, k[2] - 1] * si[k[1] - 1, k[3] - 1]
            + si[k[0] - 1, k[3] - 1] * si[k[1] - 1, k[2] - 1]
        ) / den
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_inverse_w_squared_display():
    p = WishartParams(d=2, beta=4, sigma=np.diag([1.0, 2.0]))
    g = float(p.gamma)
    si = p.sigma_inv
    got = np.array(
        [
            [sum(inverse_moment(p, MomentSpec((i, k, k, j), inverse=True)) for k in (1, 2)) for j in (1, 2)]
            for i in (1, 2)
        ]
    )
    want = (2 * g * si @ si + np.trace(si) * si) / (g * (g - 1) * (2 * g + 1))
    assert np.allclose(got, want, rtol=1e-12)


def test_inverse_moment_requires_positive_gamma():
    p = WishartParams(d=3, beta=Fraction(3, 2), sigma=np.eye(3))  # gamma = -1/2
    with pytest.raises(DomainError):
        inverse_moment(p, MomentSpec((1, 1), inverse=True))


def test_inverse_moment_pole():
    p = WishartParams(d=3, beta=3, sigma=np.eye(3))  # gamma = 1: degree-2 pole
    with pytest.raises(PoleError):
        inverse_moment(p, MomentSpec((1, 1, 2, 2), inverse=True))


def test_moment_reconstruction_roundtrip(params3):
    # plugging inverse moments back into the signed matching sum returns the
    # product of inverse-scale entries
    si = params3.sigma_inv
    g = params3.gamma
    rnd = random.Random(2)
    for n in (1, 2, 3):
        for _ in range(4):
            k = tuple(rnd.randint(1, 3) for _ in range(2 * n))
            total = 0.0
            for w in label_matchings((0,) * (2 * n)):
                reordered = tuple(k[s - 1] for s in w)
                coef = float((-2 * g) ** len(coset_type(Perm(w))))
                total += coef * inverse_moment(params3, MomentSpec(reordered, inverse=True))
            total *= (-1) ** n / 2**n
            want = 1.0
            for t in range(n):
                want *= si[k[2 * t] - 1, k[2 * t + 1] - 1]
            assert total == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_trace_product_degree1(params3):
    m = rand_pd(np.random.default_rng(1), 3)
    want = float(params3.beta) * np.trace(params3.sigma @ m)
    assert trace_product_moment(params3, [m]) == pytest.approx(want, rel=1e-12)


def test_trace_product_matches_entrywise_moments(params3):
    # with s_j the symmetrized matrix units the trace product is an entrywise moment
    rnd = random.Random(5)
    d = 3
    for n in (1, 2, 3):
        for _ in range(3):
            k = tuple(rnd.randint(1, d) for _ in range(2 * n))
            mats = []
            for j in range(n):
                a, b = k[2 * j] - 1, k[2 * j + 1] - 1
                e = np.zeros((d, d))
                e[a, b] += 0.5
                e[b, a] += 0.5
                mats.append(e)
            got = trace_product_moment(params3, mats)
            want = moment(params3, MomentSpec(k))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


def test_trace_product_identity_matrices_give_trace_power(params3):
    for n in (1, 2, 3):
        got = trace_product_moment(params3, [np.eye(3)] * n)
        want = trace_power_moment(params3, n)
        assert got == pytest.approx(want, rel=1e-11)


def test_trace_product_of_identities_at_the_cap_is_the_rising_factorial():
    # sigma = I: tr W ~ Gamma(beta d), so E[(tr W)^n] = prod_{k<n} (beta d + k),
    # an integer below 2^53 that the float sums reach exactly
    n = MAX_SUM_DEGREE
    for d, beta in ((4, 5), (3, 7)):
        p = WishartParams(d=d, beta=beta, sigma=np.eye(d))
        assert trace_product_moment(p, [np.eye(d)] * n) == prod(beta * d + k for k in range(n))


def test_rank_one_trace_product_at_the_cap_is_an_alpha_permanent():
    # E[prod_k v_k' W v_k] = per_beta(G), G_ij = v_i' sigma v_j, taken here
    # through the matching sum of its embedding rather than the cycle engine
    rng = np.random.default_rng(61)
    n, d = MAX_SUM_DEGREE, 4
    p = WishartParams(d=d, beta=Fraction(37, 4), sigma=rand_pd(rng, d))
    vs = rng.normal(size=(n, d))
    got = trace_product_moment(p, [np.outer(v, v) for v in vs])
    want = hafnian_matching(permanent_embedding((vs @ p.sigma @ vs.T).tolist()), float(p.beta))
    assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n", range(1, 8))
def test_trace_product_matches_permutation_enumeration(n):
    # indefinite factors, so the terms of the sum differ in sign
    rng = np.random.default_rng(60 + n)
    p = WishartParams(d=3, beta=Fraction(37, 4), sigma=rand_pd(rng, 3))
    mats = [s + s.T for s in rng.normal(size=(n, 3, 3))]
    want = trace_product_enumerative(p.sigma, p.beta, mats)
    assert trace_product_moment(p, mats) == pytest.approx(want, rel=REL_TOL)


def test_trace_product_rejects_asymmetric(params3):
    bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        trace_product_moment(params3, [bad])


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3,), (3, 3, 1)])
def test_trace_product_rejects_factors_that_are_not_d_by_d(params3, shape):
    with pytest.raises(ValueError, match=r"trace-product factor must be a square matrix of size 3, got shape"):
        trace_product_moment(params3, [np.eye(3), np.ones(shape)])


def test_a_pattern_not_twice_the_number_of_matrices_is_a_value_error():
    params, f = WishartParams(d=2, beta=3, sigma=np.eye(2)), [[1.0, 0.2], [0.4, 0.5]]
    for g, ms in ((Perm((2, 1)), [f, f]), (Perm((3, 1, 2, 4)), [f]), (Perm((1, 2)), []), (Perm(()), [f])):
        for call in (
            lambda: paired_contraction(g, np.eye(2), ms),
            lambda: mixed_trace_moment(params, g, ms),
            lambda: mixed_trace_moment(params, g, ms, inverse=True),
        ):
            with pytest.raises(ValueError, match="^pattern size must be twice the number of matrices$"):
                call()
    assert mixed_trace_moment(params, Perm(()), []) == paired_contraction(Perm(()), np.eye(2), []) == 1.0


def test_paired_contraction_against_bruteforce():
    rng = np.random.default_rng(3)
    d = 2
    x = rand_pd(rng, d)
    for n in (1, 2, 3):
        ms = [rng.normal(size=(d, d)) for _ in range(n)]
        for images in (list(range(1, 2 * n + 1)), list(range(2 * n, 0, -1))):
            g = Perm(images)
            got = paired_contraction(g, x, ms)
            want = t_contraction_bruteforce(g, x, ms)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10)
    rnd = random.Random(7)
    for n in (2, 3):
        ms = [rng.normal(size=(d, d)) for _ in range(n)]
        for _ in range(4):
            images = list(range(1, 2 * n + 1))
            rnd.shuffle(images)
            g = Perm(images)
            assert paired_contraction(g, x, ms) == pytest.approx(
                t_contraction_bruteforce(g, x, ms), rel=1e-10, abs=1e-10
            )


@pytest.mark.parametrize("images", [(2, 1), (1, 3, 2, 4)])
def test_paired_contraction_takes_nested_lists(images):
    # (1, 3, 2, 4) enters a base pair at its column slot, which transposes m
    rng = np.random.default_rng(5)
    x = rand_pd(rng, 2)
    ms = [rng.normal(size=(2, 2)) for _ in range(len(images) // 2)]
    g = Perm(images)
    want = paired_contraction(g, x, ms)
    assert want == pytest.approx(t_contraction_bruteforce(g, x, ms), rel=1e-12)
    assert paired_contraction(g, x.tolist(), [m.tolist() for m in ms]) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_paired_contraction_of_identities_counts_loops(n):
    # every loop of the pairing graph is one trace word tr(I_d) = d
    rnd = random.Random(n)
    perms = [Perm(p) for p in permutations(range(1, 2 * n + 1))] if n <= 3 else []
    for _ in range(200):
        images = list(range(1, 2 * n + 1))
        rnd.shuffle(images)
        perms.append(Perm(images))
    for d in (1, 2, 3):
        eye = np.eye(d)
        for g in perms:
            assert paired_contraction(g, eye, [eye] * n) == d ** len(coset_type(g))


def test_trace_pattern_matches_trace_words():
    # T at the pattern of (pi, signs) equals the product of trace words with
    # the flagged factors transposed
    rng = np.random.default_rng(4)
    d = 3
    x = rand_pd(rng, d)
    rnd = random.Random(9)
    for n in (1, 2, 3):
        ms = [rng.normal(size=(d, d)) for _ in range(n)]
        for _ in range(5):
            images = list(range(1, n + 1))
            rnd.shuffle(images)
            pi = Perm(images)
            signs = [rnd.random() < 0.5 for _ in range(n)]
            g = trace_pattern_perm(pi, signs)
            direct = 1.0
            for cyc in permutation_cycles([v - 1 for v in pi.images]):
                word = np.eye(d)
                for c in cyc:
                    word = word @ x @ (ms[c].T if signs[c] else ms[c])
                direct *= np.trace(word)
            assert paired_contraction(g, x, ms) == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_mixed_trace_forward_display(params3):
    rng = np.random.default_rng(6)
    m1, m2 = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    s = params3.sigma
    b = float(params3.beta)
    g = trace_pattern_perm(Perm((2, 1)), [False, False])
    got = mixed_trace_moment(params3, g, [m1, m2])
    want = (
        b * b * np.trace(s @ m1 @ s @ m2)
        + b / 2 * np.trace(s @ m1.T @ s @ m2)
        + b / 2 * np.trace(s @ m1) * np.trace(s @ m2)
    )
    assert got == pytest.approx(want, rel=1e-11)


def test_mixed_trace_inverse_display(params2):
    rng = np.random.default_rng(7)
    m1, m2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    si = params2.sigma_inv
    g = float(params2.gamma)
    den = g * (g - 1) * (2 * g + 1)
    pattern = trace_pattern_perm(Perm((1, 2)), [False, False])
    got = mixed_trace_moment(params2, pattern, [m1, m2], inverse=True)
    want = (
        (2 * g - 1) * np.trace(si @ m1) * np.trace(si @ m2)
        + np.trace(si @ m1 @ si @ m2)
        + np.trace(si @ m1.T @ si @ m2)
    ) / den
    assert got == pytest.approx(want, rel=1e-11)
    pair_inv = trace_pattern_perm(Perm((2, 1)), [False, False])
    got = mixed_trace_moment(params2, pair_inv, [m1, m2], inverse=True)
    want = (
        (2 * g - 1) * np.trace(si @ m1 @ si @ m2)
        + np.trace(si @ m1.T @ si @ m2)
        + np.trace(si @ m1) * np.trace(si @ m2)
    ) / den
    assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_mixed_trace_equals_termwise_oracle(n, inverse):
    # d = 3, gamma = 11/2 > n - 1 up to the cap
    rng = np.random.default_rng(100 + n)
    params = WishartParams(d=3, beta=Fraction(15, 2), sigma=rand_pd(rng, 3))
    for _ in range(2):
        g = Perm(rng.permutation(2 * n) + 1)
        ms = [rng.normal(size=(3, 3)) for _ in range(n)]
        want = mixed_trace_moment_termwise(params, g, ms, inverse)
        assert mixed_trace_moment(params, g, ms, inverse) == want


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [4, 5])
def test_mixed_trace_equals_termwise_oracle_in_the_continuation(n, d):
    # pole-free gamma <= n - 1, where the inverse weights are the analytic continuation
    rng = np.random.default_rng(10 * n + d)
    for gamma in (Fraction(1, 3), Fraction(3, 2), Fraction(5, 2)):
        assert gamma_regime(gamma, n) == "analytic-continuation"
        params = WishartParams(d=d, beta=gamma + Fraction(d + 1, 2), sigma=rand_pd(rng, d))
        g = Perm(rng.permutation(2 * n) + 1)
        ms = [rng.normal(size=(d, d)) for _ in range(n)]
        for inverse in (False, True):
            want = mixed_trace_moment_termwise(params, g, ms, inverse)
            assert mixed_trace_moment(params, g, ms, inverse) == want


def test_mixed_trace_degree_cap(params3):
    with pytest.raises(SizeLimitError, match="^routes that list words support 1 <= n <= 5, got 6$"):
        mixed_trace_moment(params3, Perm.identity(12), [np.eye(3)] * 6)


def test_mixed_trace_right_invariance(params3):
    rng = np.random.default_rng(8)
    ms = [rng.normal(size=(3, 3)) for _ in range(2)]
    base = trace_pattern_perm(Perm((2, 1)), [True, False])
    want = mixed_trace_moment(params3, base, ms)
    for zeta in hyperoctahedral(2):
        assert mixed_trace_moment(params3, base * zeta, ms) == pytest.approx(want, rel=1e-11)


def test_invariant_moment_degree1(params3, params2):
    got = invariant_moment(params3, (1,))
    assert got == pytest.approx(float(params3.beta) * np.trace(params3.sigma), rel=1e-12)
    got = invariant_moment(params2, (1,), inverse=True)
    want = np.trace(params2.sigma_inv) / float(params2.gamma)
    assert got == pytest.approx(want, rel=1e-12)


def test_invariant_moment_degree2_vs_entrywise(params3):
    # assemble E[Z_lam(W)] from entrywise moments through the power-sum expansion
    from wishmom.symcomb import centralizer_order
    from wishmom.weingarten import zonal_spherical

    n = 2
    for lam in partitions_of(n):
        assembled = 0.0
        for rho in partitions_of(n):
            coef = Fraction(2**n * factorial(n), 2 ** len(rho) * centralizer_order(rho)) * zonal_spherical(lam, rho)
            assembled += float(coef) * entrywise_power_trace(params3, rho)
        assert invariant_moment(params3, lam) == pytest.approx(assembled, rel=1e-11)


def test_power_trace_degree3_closed_forms(params3):
    b = params3.beta
    s = params3.sigma
    ps = {r: float(np.trace(np.linalg.matrix_power(s, r))) for r in (1, 2, 3)}
    want = {
        (3,): float(b * (2 * b**2 + 3 * b + 2) / 2) * ps[3]
        + float(3 * b * (2 * b + 1) / 4) * ps[2] * ps[1]
        + float(b / 4) * ps[1] ** 3,
        (2, 1): float(b * (2 * b + 1)) * ps[3]
        + float(b * (2 * b**2 + b + 2) / 2) * ps[2] * ps[1]
        + float(b**2 / 2) * ps[1] ** 3,
        (1, 1, 1): float(2 * b) * ps[3] + float(3 * b**2) * ps[2] * ps[1] + float(b**3) * ps[1] ** 3,
    }
    for mu, target in want.items():
        assert power_trace_moment(params3, mu) == pytest.approx(target, rel=1e-12)


def test_power_trace_degree3_inverse_closed_forms(params2):
    g = params2.gamma
    si = params2.sigma_inv
    ps = {r: float(np.trace(np.linalg.matrix_power(si, r))) for r in (1, 2, 3)}
    u3 = float(g * (g - 1) * (g - 2) * (g + 1) * (2 * g + 1))
    gf = float(g)
    want = {
        (3,): (2 * gf**2 * ps[3] + 3 * gf * ps[2] * ps[1] + ps[1] ** 3) / u3,
        (2, 1): (4 * gf * ps[3] + 2 * (gf**2 - gf + 1) * ps[2] * ps[1] + (gf - 1) * ps[1] ** 3) / u3,
        (1, 1, 1): (8 * ps[3] + 6 * (gf - 1) * ps[2] * ps[1] + (2 * gf**2 - 3 * gf - 1) * ps[1] ** 3) / u3,
    }
    for mu, target in want.items():
        assert power_trace_moment(params2, mu, inverse=True) == pytest.approx(target, rel=1e-11)


def test_power_trace_matches_entrywise_assembly(params3):
    for mu in [(1,), (2,), (1, 1), (3,), (2, 1)]:
        got = power_trace_moment(params3, mu)
        want = entrywise_power_trace(params3, mu)
        assert got == pytest.approx(want, rel=1e-10)


def test_power_trace_inverse_matches_entrywise_assembly(params2):
    for mu in [(1,), (2,), (1, 1), (2, 1)]:
        got = power_trace_moment(params2, mu, inverse=True)
        want = entrywise_power_trace(params2, mu, inverse=True)
        assert got == pytest.approx(want, rel=1e-10)


def test_trace_power_coefficients_degree4():
    b = Fraction(7, 3)
    c = trace_power_coeffs(4, b)
    assert c == {
        (4,): 6 * b,
        (3, 1): 8 * b**2,
        (2, 2): 3 * b**2,
        (2, 1, 1): 6 * b**3,
        (1, 1, 1, 1): b**4,
    }


@pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(7, 3), Fraction(-5, 4), 3])
def test_forward_coset_weights_are_the_plain_table(beta):
    for n in range(1, 6):
        got = weingarten._point_table(n, "beta", beta)
        assert list(got) == list(partitions_of(n))
        for rho, w in got.items():
            assert w == Fraction(2 * beta) ** len(rho) / 2**n and type(w) is Fraction
    if beta == Fraction(1, 2):
        # z = 2 beta = 1, where P_(1,1) = 0: a zero forward eigenvalue, which is no pole
        _, terms, _ = weingarten._point_terms(2, "beta", 1, 2)
        assert [(lam, a) for lam, a, _ in terms] == [((2,), 3), ((1, 1), 0)]


def test_forward_mixed_trace_and_trace_power_share_one_store_entry():
    beta = Fraction(13, 3)
    p = WishartParams(d=2, beta=beta, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    weingarten._point_cache.cache_clear()
    mixed_trace_moment(p, Perm((2, 3, 1, 4, 6, 5)), [np.eye(2)] * 3)
    trace_power_coeffs(3, beta)
    info = weingarten._point_cache.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_an_invariant_is_a_pole_only_at_its_own_shape():
    # d = 2, beta = 5/2: gamma = 1 and z = -2 gamma = -2, where C_(2)(z) = z (z + 2)
    # vanishes and C_(1,1)(z) = z (z - 1) = 6 does not
    p = WishartParams(d=2, beta=Fraction(5, 2), sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    si = p.sigma_inv
    z11 = zonal_eval((1, 1), {1: np.trace(si), 2: np.trace(si @ si)})
    assert invariant_moment(p, (1, 1), True) == pytest.approx(4 / 6 * z11, rel=1e-13)
    with pytest.raises(PoleError) as info:
        invariant_moment(p, (2,), True)
    assert info.value.shapes == ((2,),) and info.value.z == -2
    for call in (lambda: power_trace_coeffs((1, 1), 1, True), lambda: inv_wishart_weingarten((1, 1), 1)):
        with pytest.raises(PoleError) as info:
            call()
        assert info.value.shapes == ((2,),)


def test_trace_power_inverse_display_degree4():
    g = Fraction(19, 4)
    u4 = g * (g - 1) * (g - 2) * (g - 3) * (2 * g - 1) * (g + 1) * (2 * g + 1) * (2 * g + 3)
    c = trace_power_coeffs(4, g, inverse=True)
    assert c[(4,)] * u4 == 48 * (5 * g - 3)
    assert c[(3, 1)] * u4 == 128 * g * (g - 2)
    assert c[(2, 2)] * u4 == 12 * (2 * g**2 - 5 * g + 9)
    assert c[(2, 1, 1)] * u4 == 12 * (4 * g**3 - 12 * g**2 + 3 * g + 3)
    assert c[(1, 1, 1, 1)] * u4 == (g + 1) * (2 * g - 3) * (4 * g**2 - 12 * g + 1)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("shape", [Fraction(5, 2), Fraction(17, 3), Fraction(7, 3), Fraction(1, 3), 9])
def test_trace_power_coeffs_are_power_trace_coeffs_of_ones(shape, inverse):
    # gamma = 7/3 and 1/3 lie below n-1 for the larger n: analytic continuation
    for n in range(0, 6):
        got, want = trace_power_coeffs(n, shape, inverse), power_trace_coeffs((1,) * n, shape, inverse)
        assert list(got.items()) == list(want.items())
        assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("beta", [8, Fraction(23, 3), Fraction(10, 3)])
def test_trace_power_moment_is_power_trace_moment_of_ones(beta, inverse):
    # d = 2: gamma = 13/2, 37/6 and 11/6, the last below n-1 for n >= 3
    p = WishartParams(d=2, beta=beta, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    for n in range(0, 6):
        got, want = trace_power_moment(p, n, inverse), power_trace_moment(p, (1,) * n, inverse)
        assert got.hex() == want.hex()


def test_trace_power_and_power_trace_raise_the_same_pole():
    p = WishartParams(d=3, beta=3, sigma=np.eye(3))  # gamma = 1: a pole at every degree from 2
    for n in range(2, 6):
        errors = []
        for call in (lambda: trace_power_moment(p, n, True), lambda: power_trace_moment(p, (1,) * n, True),
                     lambda: trace_power_coeffs(n, p.gamma, True), lambda: power_trace_coeffs((1,) * n, p.gamma, True)):
            with pytest.raises(PoleError) as info:
                call()
            errors.append((str(info.value), info.value.z, info.value.shapes))
        assert errors[0][2] and errors.count(errors[0]) == 4, errors


def test_trace_power_degree1(params3):
    assert trace_power_moment(params3, 1) == pytest.approx(
        float(params3.beta) * np.trace(params3.sigma), rel=1e-13
    )


def test_power_trace_coeffs_degree3_matrix():
    b = Fraction(5, 2)
    got = power_trace_coeffs((1, 1, 1), b)
    assert got == {(3,): 2 * b, (2, 1): 3 * b**2, (1, 1, 1): b**3}


def test_density_is_exponential_at_d1():
    p = WishartParams(d=1, beta=1, sigma=np.array([[2.0]]))
    for w in (0.3, 1.0, 4.2):
        assert density(p, np.array([[w]])) == pytest.approx(0.5 * np.exp(-w / 2), rel=1e-13)
    total, _ = quad(lambda w: density(p, np.array([[w]])), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_log_multigamma_matches_scipy():
    for d in range(1, 11):
        for a in ((d - 1) / 2 + off for off in (0.25, 0.6, 1.0, 3.7, 19.25, 55.0)):
            assert _log_multigamma(a, d) == pytest.approx(multigammaln(a, d), rel=1e-12), (a, d)


def test_density_domain_checks():
    p = WishartParams(d=2, beta=3, sigma=np.eye(2))
    rng = np.random.default_rng(0)
    w = rand_pd(rng, 2)
    assert np.isfinite(log_density(p, w))
    with pytest.raises(DomainError):
        log_density(p, -w)
    with pytest.raises(DomainError):
        # admissible beta, but below the density threshold
        density(WishartParams(d=2, beta=Fraction(1, 2), sigma=np.eye(2)), w)


def test_log_density_checks_w_as_sigma_is_checked():
    p = WishartParams(d=2, beta=3, sigma=np.eye(2))
    w = rand_pd(np.random.default_rng(1), 2)
    assert log_density(p, w) == log_density(p, (w + w.T) / 2)
    for bad, err, match in (
        ([[1, 0.5], [0, 1]], DomainError, "w is not symmetric"),
        ([[np.nan, 0], [0, 1]], ValueError, "w has non-finite entries"),
        ([[1, np.inf], [np.inf, 1]], ValueError, "w has non-finite entries"),
        ([1, 2], ValueError, r"w must be a square matrix of size 2, got shape \(2,\)"),
        (np.eye(3), ValueError, r"w must be a square matrix of size 2, got shape \(3, 3\)"),
    ):
        with pytest.raises(err, match=match) as info:
            log_density(p, bad)
        assert type(info.value) is err


def _numpy_log_density(params, w):
    """The log density by numpy's determinants, and its four terms."""
    d, beta = params.d, float(params.beta)
    w = np.array(w)
    terms = (
        -_log_multigamma(beta, d),
        -beta * np.linalg.slogdet(params.sigma)[1],
        (beta - (d + 1) / 2) * np.linalg.slogdet(w)[1],
        -float(np.sum(params.sigma_inv * w)),
    )
    return sum(terms), terms


def test_log_density_matches_numpy_determinants():
    # the Python Cholesky factors give the log determinants: not bit-identical
    # to numpy's, but within 1e-15 relative to the sum of the terms' sizes
    rng = np.random.default_rng(23)
    for case in range(1200):
        d = 1 + case % 8
        a, b = rng.normal(size=(2, d, d))
        sigma, w = a @ a.T + 0.5 * np.eye(d), b @ b.T + 0.5 * np.eye(d)
        p = WishartParams(d=d, beta=Fraction(int(rng.integers(d, 4 * d + 9)), 2), sigma=sigma)
        want, terms = _numpy_log_density(p, (w + w.T) / 2)
        got = log_density(p, w)
        assert abs(got - want) <= 1e-15 * sum(map(abs, terms)), (d, got, want)
        assert density(p, w) == pytest.approx(np.exp(want), rel=1e-13)


def test_moment_spec_is_an_immutable_value():
    spec = MomentSpec((1, 2.0, 2, 1), inverse=True)
    assert spec == MomentSpec([1, 2, 2, 1], True) and hash(spec) == hash(MomentSpec((1, 2, 2, 1), True))
    assert spec != MomentSpec((1, 2, 2, 1)) and spec != MomentSpec((1, 2, 1, 2), True)
    assert spec != ((1, 2, 2, 1), True) and len({spec, MomentSpec((1, 2, 2, 1), True)}) == 1
    assert repr(spec) == "MomentSpec(indices=(1, 2, 2, 1), inverse=True)"
    assert spec.degree == 2 and MomentSpec(()).degree == 0
    for name in ("indices", "inverse", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, name, (1, 1))
    with pytest.raises(AttributeError):
        del spec.indices
    assert spec.indices == (1, 2, 2, 1) and spec.inverse is True
    assert pickle.loads(pickle.dumps(spec)) == copy.deepcopy(spec) == spec
    for bad in ((0, 1), (1, -2), (1, 2, 3)):
        with pytest.raises(ValueError, match="index must be a positive integer|index list must have even length"):
            MomentSpec(bad)
    with pytest.raises(ValueError, match="^index list must have even length$"):
        MomentSpec((1, 2, 3))


def test_wishart_params_is_an_immutable_value():
    p = WishartParams(d=2, beta=3, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    forward, inverse = (moment(p, MomentSpec((1, 1), inv)) for inv in (False, True))
    for name, value in (
        ("sigma_rows", [[1.0, 0.0], [0.0, 1.0]]),
        ("beta", Fraction(1, 10)),
        ("d", 3),
        ("gamma", Fraction(9)),
        ("sigma_inv_rows", [[1.0, 0.0], [0.0, 1.0]]),
        ("other", 1),
    ):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(p, name, value)
        with pytest.raises(AttributeError):
            delattr(p, name)
    # a sigma that reached the forward side but not the cached sigma^-1 was a
    # silently wrong inverse moment: now neither side can change
    assert moment(p, MomentSpec((1, 1))) == forward == 6.0
    assert moment(p, MomentSpec((1, 1), True)) == inverse
    assert p.beta == 3 and p.sigma_rows == ((2.0, 0.3), (0.3, 1.5))
    fresh = WishartParams(d=2, beta=3, sigma=p.sigma_rows)
    assert p == fresh and repr(p) == repr(fresh) == "WishartParams(d=2, beta=Fraction(3, 1), sigma=[[2.0, 0.3], [0.3, 1.5]])"
    assert p != WishartParams(d=2, beta=4, sigma=p.sigma_rows) and p.__eq__((2, 3)) is NotImplemented


def test_wishart_params_contents_refuse_writes():
    # a write into sigma_rows after an inverse moment once moved the forward
    # side (E[W11] at beta = 3 from 6.0 to 3.0) and left a stale sigma^-1
    p = WishartParams(d=2, beta=3, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
    forward, inverse = (moment(p, MomentSpec((1, 1), inv)) for inv in (False, True))
    for rows in (p.sigma_rows, p.sigma_inv_rows):
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        with pytest.raises(TypeError):
            rows[0][0] = 1.0
        with pytest.raises(TypeError):
            rows[0] = (1.0, 0.0)
    for name in ("sigma", "sigma_inv", "chol"):
        a = getattr(p, name)
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
        assert getattr(p, name) is a
    assert np.array_equal(p.sigma, [[2.0, 0.3], [0.3, 1.5]])
    assert moment(p, MomentSpec((1, 1))) == forward == 6.0
    assert moment(p, MomentSpec((1, 1), True)) == inverse
    # the arrays are still ordinary inputs to numpy
    assert np.array_equal(p.sigma @ p.sigma_inv, np.array(p.sigma) @ np.array(p.sigma_inv))


def test_wishart_params_pickles_and_computes_gamma_once():
    p = WishartParams(d=3, beta=Fraction(17, 3), sigma=np.array(CANCELLING_SIGMA)[:3, :3])
    assert p.gamma == Fraction(11, 3) and type(p.gamma) is Fraction
    # gamma is stored once, not rebuilt on each read
    assert p.gamma is p.gamma and "gamma" in vars(p)
    # cached reads are not part of the value
    assert p.sigma_inv_rows and p.chol.shape == (3, 3)
    for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert q == p and repr(q) == repr(p) and q.gamma == p.gamma
        assert q.sigma_inv_rows == p.sigma_inv_rows and np.array_equal(q.chol, p.chol)
        spec = MomentSpec((1, 2, 3, 1), True)
        assert moment(q, spec) == moment(p, spec)
        with pytest.raises(AttributeError):
            q.beta = 4


def test_non_integral_indices_raise():
    with pytest.raises(ValueError, match="row index must be an integer in 1..2"):
        haar_moment((1.5, 1), (1, 1), 2)
    with pytest.raises(ValueError, match="column index must be an integer in 1..2"):
        haar_moment((1, 1), (1, True), 2)
    for bad in ((1.5, 1.5), (1, "2"), (np.True_, 1), (None, 1)):
        with pytest.raises(ValueError, match="index must be a positive integer"):
            MomentSpec(bad)
    spec = MomentSpec((np.int64(1), 2.0, Fraction(2), 1))
    assert spec.indices == (1, 2, 2, 1) and all(type(k) is int for k in spec.indices)
    assert haar_moment((1.0, np.int32(1)), (Fraction(2), 2), 2) == haar_moment((1, 1), (2, 2), 2)


def test_haar_moment_degree1():
    for N in (1, 2, 5):
        assert haar_moment((1, 1), (1, 1), N) == Fraction(1, N)


def test_haar_moment_degree2_display_exhaustive():
    N = 3
    den = N * (N + 2) * (N - 1)
    for j in product(range(1, N + 1), repeat=4):
        want = Fraction(
            (N + 1) * (j[0] == j[1]) * (j[2] == j[3])
            - (j[0] == j[2]) * (j[1] == j[3])
            - (j[0] == j[3]) * (j[1] == j[2]),
            den,
        )
        assert haar_moment((1, 1, 2, 2), j, N) == want


def test_haar_moment_row_orthonormality():
    for N in (2, 3, 4):
        assert sum(haar_moment((1, 1), (j, j), N) for j in range(1, N + 1)) == 1


def test_haar_moment_odd_and_unmatchable():
    assert haar_moment((1,), (1,), 3) == 0
    assert haar_moment((1, 1, 1), (1, 1, 1), 3) == 0
    # any index of odd multiplicity on either side kills the moment
    for idx in product((1, 2), repeat=4):
        counts = {v: idx.count(v) for v in set(idx)}
        if any(c % 2 for c in counts.values()):
            assert haar_moment(idx, (1, 1, 1, 1), 2) == 0
            assert haar_moment((1, 1, 1, 1), idx, 2) == 0


def test_haar_moment_below_dimension_uses_truncation():
    # at N=1 the matrix is +-1, so all even power moments are exactly 1
    assert haar_moment((1, 1), (1, 1), 1) == 1
    assert haar_moment((1, 1, 1, 1), (1, 1, 1, 1), 1) == 1


def test_haar_moment_errors():
    with pytest.raises(ValueError):
        haar_moment((1, 1), (1,), 3)
    with pytest.raises(ValueError):
        haar_moment((1, 4), (1, 1), 3)


def _refuse_large_partitions(monkeypatch):
    # degree 200 has ~4e12 partitions; nothing may list them to reject it
    listed = partitions_of

    def no_large_partitions(n):
        assert n <= 10, f"partitions_of({n}) listed"
        return listed(n)

    _patch_partitions_of(monkeypatch, no_large_partitions)


def _patch_partitions_of(monkeypatch, replacement):
    """Bind replacement in place of ``partitions_of`` in every loaded wishmom
    module that binds it, whichever modules those are."""
    for name, module in list(sys.modules.items()):
        if name.startswith("wishmom") and getattr(module, "partitions_of", None) is partitions_of:
            monkeypatch.setattr(module, "partitions_of", replacement)
    assert weingarten.partitions_of is replacement


def _zeros(m):
    return [[0] * m for _ in range(m)]


SUM_ROUTES = {
    "moment": lambda n: moment(WishartParams(d=2, beta=9, sigma=np.eye(2)), MomentSpec((1, 2) * n)),
    "trace_product": lambda n: trace_product_moment(WishartParams(d=2, beta=9, sigma=np.eye(2)), [np.eye(2)] * n),
    "hafnian_matching": lambda n: hafnian_matching(_zeros(2 * n), 1),
    "hafnian_expand": lambda n: hafnian_expand(_zeros(2 * n), 1),
    "hafnian_permsum_P": lambda n: hafnian_permsum(_zeros(2 * n), 1, "P"),
    "hafnian_permsum_Q": lambda n: hafnian_permsum(_zeros(2 * n), 1, "Q"),
    "alpha_permanent": lambda n: alpha_permanent(_zeros(n), 1),
}


@pytest.mark.parametrize("n", [MAX_SUM_DEGREE + 1, 200])
@pytest.mark.parametrize("route", SUM_ROUTES.values(), ids=SUM_ROUTES.keys())
def test_every_exact_sum_refuses_past_the_one_limit(route, n, monkeypatch):
    # one message from matchgroup, raised before any table of size 2^n is built
    _refuse_large_partitions(monkeypatch)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as info:
        route(n)
    assert time.perf_counter() - start < 0.5
    assert type(info.value) is SizeLimitError
    assert str(info.value) == f"exact sums support degree <= {MAX_SUM_DEGREE} (pairs or points), got {n}"


LISTED_ROUTES = {
    "haar_moment": lambda n: haar_moment((1,) * (2 * n), (1,) * (2 * n), 3),
    "biinvariant_convolve": lambda n: weingarten.biinvariant_convolve(*[dict.fromkeys(partitions_of(n), Fraction(1))] * 2),
    "identities_suite": lambda n: identities_suite(n),
    "mixed_trace_moment": lambda n: mixed_trace_moment(
        WishartParams(d=2, beta=9, sigma=np.eye(2)), Perm.identity(2 * n), [np.eye(2)] * n
    ),
    "hyperoctahedral": hyperoctahedral,
}


@pytest.mark.parametrize("n", [MAX_LISTED_DEGREE + 1, MAX_SUM_DEGREE - 1])
@pytest.mark.parametrize("route", LISTED_ROUTES.values(), ids=LISTED_ROUTES.keys())
def test_every_listing_route_refuses_past_the_one_listing_limit(route, n, monkeypatch):
    # one message from matchgroup, raised before any word is listed: at n = 6
    # every index of haar_moment equal gives 10,395 column matchings, at n = 9
    # the reduced kernel would list 34,459,425 words
    def refuse(labels):
        raise AssertionError(f"label_matchings listed {len(labels)} labels")

    for module in (wishart, matchgroup):
        monkeypatch.setattr(module, "label_matchings", refuse)
    start = time.perf_counter()
    with pytest.raises(SizeLimitError) as info:
        route(n)
    assert time.perf_counter() - start < 0.5
    assert type(info.value) is SizeLimitError
    assert str(info.value) == f"routes that list words support 1 <= n <= {MAX_LISTED_DEGREE}, got {n}"


@pytest.mark.parametrize("inverse", [False, True])
def test_coefficients_far_past_the_cap_raise_without_enumerating(inverse, monkeypatch):
    _refuse_large_partitions(monkeypatch)
    with pytest.raises(SizeLimitError):
        power_trace_coeffs((200,), 3, inverse)
    with pytest.raises(SizeLimitError):
        trace_power_coeffs(200, 3, inverse)
    p = WishartParams(d=2, beta=3, sigma=np.eye(2))
    for call in (invariant_moment, power_trace_moment):
        with pytest.raises(SizeLimitError):
            call(p, (200,), inverse)
    with pytest.raises(SizeLimitError):
        trace_power_moment(p, 200, inverse)


def test_tables_far_past_the_cap_raise_without_listing_partitions(monkeypatch):
    _refuse_large_partitions(monkeypatch)
    mats = np.stack([np.eye(2)] * 3)
    calls = (
        weingarten.hecke_unit,
        lambda n: weingarten.pole_shapes(n, 3),
        lambda n: montecarlo.Invariant((n,)).values(mats),
    )
    for call in calls:
        start = time.perf_counter()
        with pytest.raises(SizeLimitError):
            call(200)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(SizeLimitError):
            call(MAX_SUM_DEGREE + 1)
    assert weingarten.hecke_unit(0) == {(): 1}
    assert weingarten.pole_shapes(0, 3) == ()
    assert montecarlo.Invariant(()).values(mats).tolist() == [1.0] * 3


def test_invariant_moment_of_the_empty_shape_is_one(params3):
    assert invariant_moment(params3, ()) == 1.0


def _shape(p, inverse):
    return p.gamma if inverse else p.beta


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize(
    "call, want",
    [
        (lambda p, inv: moment(p, MomentSpec((), inverse=inv)), 1.0),
        (lambda p, inv: invariant_moment(p, (), inv), 1.0),
        (lambda p, inv: power_trace_moment(p, (), inv), 1.0),
        (lambda p, inv: trace_power_moment(p, 0, inv), 1.0),
        (lambda p, inv: power_trace_coeffs((), _shape(p, inv), inv), {(): 1}),
        (lambda p, inv: trace_power_coeffs(0, _shape(p, inv), inv), {(): 1}),
        (lambda p, inv: trace_product_moment(p, []), 1.0),
        (lambda p, inv: mixed_trace_moment(p, Perm(()), [], inv), 1.0),
    ],
    ids=["moment", "invariant", "power_trace", "trace_power", "power_trace_coeffs", "trace_power_coeffs",
         "trace_product", "mixed_trace"],
)
def test_degree0_is_the_empty_product(params3, call, want, inverse):
    # every kind returns the empty product before it reads the side, so the
    # inverse side gives it too where gamma <= 0 rules out every other degree
    below = WishartParams(d=3, beta=Fraction(1, 2), sigma=params3.sigma)
    assert params3.gamma > 0 and below.gamma == Fraction(-3, 2)
    for p in (params3, below):
        got = call(p, inverse)
        assert type(got) is type(want) and got == want


@pytest.fixture(scope="module")
def params2_gamma_above_4():
    # d = 2, gamma = beta - 3/2 = 13/2 > n - 1 at degree 5
    rng = np.random.default_rng(29)
    return WishartParams(d=2, beta=8, sigma=rand_pd(rng, 2))


@pytest.mark.parametrize("inverse", [False, True])
def test_power_and_trace_power_degree5_match_entrywise_assembly(params2_gamma_above_4, inverse):
    p = params2_gamma_above_4
    for mu in partitions_of(5):
        want = entrywise_power_trace(p, mu, inverse)
        assert power_trace_moment(p, mu, inverse) == pytest.approx(want, rel=REL_TOL)
    want = entrywise_power_trace(p, (1,) * 5, inverse)
    assert trace_power_moment(p, 5, inverse) == pytest.approx(want, rel=REL_TOL)


def test_haar_moment_degree5_single_entry_power():
    # E[O_11^10] = 9!! / (N (N+2) (N+4) (N+6) (N+8)), also below N = 5
    for N in range(1, 7):
        want = Fraction(9 * 7 * 5 * 3, N * (N + 2) * (N + 4) * (N + 6) * (N + 8))
        assert haar_moment((1,) * 10, (1,) * 10, N) == want


def test_each_route_raises_one_past_its_limit(params2_gamma_above_4):
    # power traces list nothing and stop past MAX_SUM_DEGREE; haar_moment lists
    # the column matchings and stops past MAX_LISTED_DEGREE
    p = params2_gamma_above_4
    over = MAX_SUM_DEGREE + 1
    for inverse in (False, True):
        with pytest.raises(SizeLimitError, match=f"degree <= {MAX_SUM_DEGREE} "):
            power_trace_moment(p, (6, over - 6), inverse)
        with pytest.raises(SizeLimitError, match=f"degree <= {MAX_SUM_DEGREE} "):
            trace_power_moment(p, over, inverse)
    with pytest.raises(SizeLimitError, match=f"1 <= n <= {MAX_LISTED_DEGREE}, got 6"):
        haar_moment((1,) * 12, (1,) * 12, 3)
