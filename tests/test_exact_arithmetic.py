"""The integer content products, the integer lambda-sum (Weingarten values and
power-trace coefficients) and the Haar matching DP against the term-by-term
oracles, the per-degree tables against the per-rho values, plus the rule that
N is a positive integer."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wishmom import weingarten as wg_module
from wishmom.matchgroup import SizeLimitError
from wishmom.symcomb import content_product, partitions_of
from wishmom.weingarten import (
    PoleError,
    check_degree,
    inv_wishart_weingarten,
    pole_shapes,
    weingarten,
    weingarten_truncated,
    weingarten_values,
)
from wishmom import wishart
from wishmom.wishart import haar_moment, power_trace_coeffs

from oracles import (
    content_product_boxwise,
    haar_moment_pair_table,
    power_trace_coeffs_fractions,
    weingarten_sum_fractions,
)

# every content 2j - i - 1 of a shape of weight <= 7 lies in -6..12, so the
# poles are the integers -12..6; points on them, beside them, and anywhere
near_pole = st.builds(
    lambda k, sign, q: Fraction(k) + Fraction(sign, q),
    st.integers(-13, 7),
    st.sampled_from((-1, 1)),
    st.integers(1, 10**6),
)
points = st.one_of(
    st.integers(-13, 7).map(Fraction),
    near_pole,
    st.fractions(min_value=-10**4, max_value=10**4, max_denominator=10**6),
)
degrees = st.integers(1, 5)


def oracle_poles(n, z):
    return tuple(lam for lam in partitions_of(n) if content_product_boxwise(lam, z) == 0)


def box_contents(lam):
    return {2 * j - i - 1 for i, row in enumerate(lam, start=1) for j in range(1, row + 1)}


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 7), z=points)
def test_content_product_matches_boxwise_oracle(n, z):
    for lam in partitions_of(n):
        got = content_product(lam, z)
        assert got == content_product_boxwise(lam, z)
        assert (got == 0) == (-z in box_contents(lam))
        if z.denominator == 1:
            assert type(got) is int
            assert content_product(lam, int(z)) == got


@settings(max_examples=150, deadline=None)
@given(n=degrees, z=points)
def test_weingarten_matches_fraction_oracle(n, z):
    bad = oracle_poles(n, z)
    assert pole_shapes(n, z) == bad
    for rho in partitions_of(n):
        if bad:
            with pytest.raises(PoleError) as err:
                weingarten(rho, z)
            assert err.value.shapes == bad
            assert err.value.z == z
        else:
            got = weingarten(rho, z)
            assert type(got) is Fraction
            assert got == weingarten_sum_fractions(rho, z, partitions_of(n))


@settings(max_examples=150, deadline=None)
@given(n=degrees, gamma=points)
def test_inv_wishart_weingarten_matches_fraction_oracle(n, gamma):
    z = -2 * gamma
    bad = oracle_poles(n, z)
    for rho in partitions_of(n):
        if bad:
            with pytest.raises(PoleError) as err:
                inv_wishart_weingarten(rho, gamma)
            assert err.value.shapes == bad
        else:
            want = (-2) ** n * weingarten_sum_fractions(rho, z, partitions_of(n))
            assert inv_wishart_weingarten(rho, gamma) == want


@pytest.mark.parametrize("n", range(1, 6))
def test_weingarten_truncated_matches_fraction_oracle(n):
    for N in range(1, 9):
        shapes = [lam for lam in partitions_of(n) if len(lam) <= N]
        for rho in partitions_of(n):
            got = weingarten_truncated(rho, N)
            assert type(got) is Fraction
            assert got == weingarten_sum_fractions(rho, Fraction(N), shapes)


def per_rho_or_pole(fn, n, point):
    try:
        return {rho: fn(rho, point) for rho in partitions_of(n)}
    except PoleError as exc:
        return (type(exc), exc.z, exc.shapes)


def table_or_pole(n, **point):
    try:
        return weingarten_values(n, **point)
    except PoleError as exc:
        return (type(exc), exc.z, exc.shapes)


@settings(max_examples=150, deadline=None)
@given(n=degrees, z=points)
def test_weingarten_values_equal_per_rho_values(n, z):
    # same values (and rho order), or the same PoleError, as one call per rho
    for got, want in (
        (table_or_pole(n, z=z), per_rho_or_pole(weingarten, n, z)),
        (table_or_pole(n, gamma=z), per_rho_or_pole(inv_wishart_weingarten, n, z)),
    ):
        assert got == want
        if isinstance(want, dict):
            assert list(got) == list(want)
            assert all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize("n", range(1, 6))
def test_truncated_weingarten_values_equal_per_rho_values(n):
    for N in range(1, 9):
        assert weingarten_values(n, N=N) == {rho: weingarten_truncated(rho, N) for rho in partitions_of(n)}


def test_weingarten_values_checks_its_arguments():
    for point in ({}, {"z": 3, "gamma": 3}, {"z": 3, "N": 3}, {"gamma": 3, "N": 3}):
        with pytest.raises(ValueError, match="exactly one"):
            weingarten_values(2, **point)
    for n in (0, 11, 200, -1):
        with pytest.raises(SizeLimitError):
            weingarten_values(n, z=3)
    with pytest.raises(ValueError, match="N must be a positive integer"):
        weingarten_values(2, N=0)


def test_pole_shapes_and_check_degree_are_public():
    assert pole_shapes(2, Fraction(1)) == ((1, 1),)
    assert pole_shapes(3, Fraction(1, 2)) == ()
    assert check_degree(10) == 10
    with pytest.raises(SizeLimitError, match="^exact sums support degree <= 10 \\(pairs or points\\), got 11$"):
        check_degree(11)
    with pytest.raises(SizeLimitError, match="^degree must be at least 1, got 0$"):
        check_degree(0)
    assert not hasattr(wg_module, "_pole_shapes") and not hasattr(wg_module, "_check_degree")


@pytest.mark.parametrize("N", [2.5, Fraction(5, 2), 0, -1, "3", float("nan"), True, False, np.True_, np.array(True)])
def test_non_integral_or_nonpositive_N_raises(N):
    with pytest.raises(ValueError, match="N must be a positive integer"):
        weingarten_truncated((1, 1), N)
    with pytest.raises(ValueError, match="N must be a positive integer"):
        haar_moment((1, 1), (1, 1), N)
    with pytest.raises(ValueError, match="N must be a positive integer"):
        weingarten_values(1, N=N)


def test_every_entry_point_checks_the_degree_before_the_point():
    for point in ("abc", None, float("nan")):
        for call in (
            lambda: weingarten((11,), point),
            lambda: inv_wishart_weingarten((11,), point),
            lambda: weingarten_truncated((11,), point),
            lambda: weingarten_values(11, gamma=point if point is not None else "abc"),
        ):
            with pytest.raises(SizeLimitError):
                call()
    # inside the degree range a bad point keeps its own error
    for n in range(1, 11):
        rho = partitions_of(n)[0]
        for call in (weingarten, inv_wishart_weingarten):
            for bad in ("abc", None):
                with pytest.raises(ValueError, match="must be a finite rational number"):
                    call(rho, bad)


def test_numpy_and_integral_N_match_int():
    for N in (np.int64(3), np.int32(3), 3.0, Fraction(3)):
        assert weingarten_truncated((1, 1), N) == weingarten_truncated((1, 1), 3)
        assert weingarten_truncated((2, 1), N) == weingarten_truncated((2, 1), 3)
        assert haar_moment((1, 1), (1, 1), N) == haar_moment((1, 1), (1, 1), 3) == Fraction(1, 3)
        assert haar_moment((1, 1, 2, 2), (1, 1, 3, 3), N) == haar_moment((1, 1, 2, 2), (1, 1, 3, 3), 3)


@settings(max_examples=150, deadline=None)
@given(mu=degrees.flatmap(lambda n: st.sampled_from(partitions_of(n))), shape=points, inverse=st.booleans())
def test_power_trace_coeffs_match_fraction_oracle(mu, shape, inverse):
    try:
        want = power_trace_coeffs_fractions(mu, shape, inverse)
    except PoleError as exc:
        with pytest.raises(PoleError) as err:
            power_trace_coeffs(mu, shape, inverse)
        assert (err.value.z, err.value.shapes) == (exc.z, exc.shapes)
        return
    got = power_trace_coeffs(mu, shape, inverse)
    assert list(got) == list(want) and got == want
    assert all(type(v) is Fraction for v in got.values())


@st.composite
def haar_cases(draw):
    """Row and column index lists for n <= 4 (and odd lengths), N <= 5: all
    equal, paired up and shuffled (always matchable), or arbitrary."""
    N = draw(st.integers(1, 5))
    k = draw(st.integers(0, 8))
    index = st.integers(1, N)

    def side():
        style = draw(st.sampled_from(("equal", "paired", "any")))
        if style == "equal":
            return [draw(index)] * k
        if style == "paired":
            labels = [draw(index) for _ in range(k // 2)] * 2 + [draw(index) for _ in range(k % 2)]
            return draw(st.permutations(labels))
        return [draw(index) for _ in range(k)]

    return side(), side(), N


@settings(max_examples=120, deadline=None)
@given(case=haar_cases())
def test_haar_moment_matches_pair_table_oracle(case):
    i_idx, j_idx, N = case
    got = haar_moment(i_idx, j_idx, N)
    assert type(got) is Fraction
    assert got == haar_moment_pair_table(i_idx, j_idx, N)


def test_haar_moment_large_N_contracts_over_the_distinct_indices_only(monkeypatch):
    # the 0/1 delta matrix spans the distinct row indices, never N x N
    sizes = []
    dp = wishart.matching_type_sums

    def recording(labels, x):
        sizes.append(len(x))
        return dp(labels, x)

    monkeypatch.setattr(wishart, "matching_type_sums", recording)
    N = 1000
    i_idx, j_idx = (1, 1, 1000, 1000), (1, 1, 999, 999)
    assert haar_moment(i_idx, j_idx, N) == Fraction(N + 1, N * (N - 1) * (N + 2))
    assert haar_moment(i_idx, j_idx, N) == haar_moment_pair_table(i_idx, j_idx, N)
    assert haar_moment((7, 500, 7, 500), (3, 3, 3, 3), N) == Fraction(1, N * (N + 2))
    assert sizes and max(sizes) == 2
