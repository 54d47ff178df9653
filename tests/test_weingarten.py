import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import wishmom
from wishmom.matchgroup import (
    MAX_LISTED_DEGREE,
    MAX_SUM_DEGREE,
    SizeLimitError,
    coset_representative,
    coset_type,
    double_coset_size,
    label_matchings,
    matching_type_count,
)
from wishmom.symcomb import (
    Perm,
    centralizer_order,
    content_product,
    hook_dim_doubled,
    partitions_of,
)
from wishmom.weingarten import (
    _convolution_kernel,
    _point_cache,
    _zonal_table,
    POINT_TABLES,
    PoleError,
    biinvariant_convolve,
    hecke_unit,
    inv_wishart_weingarten,
    load_table,
    _point_table,
    save_table,
    table_path,
    table_to_json,
    weingarten,
    weingarten_truncated,
    weingarten_values,
    zonal_eval,
    zonal_spherical,
)
from wishmom.wishart import power_trace_coeffs

from oracles import content_product_boxwise, solve_exact, weingarten_sum_fractions, zonal_spherical_at


def rand_frac(rnd, lo=1, hi=30, den=5):
    return Fraction(rnd.randint(lo, hi), rnd.randint(1, den))


def pole_free_z(rnd, n):
    while True:
        z = rand_frac(rnd) * rnd.choice((1, -1))
        if all(content_product(l, z) != 0 for l in partitions_of(n)):
            return z


def zonal_table(lam):
    return {r: zonal_spherical(lam, r) for r in partitions_of(sum(lam))}


def kappa_power(n, z):
    return {r: z ** len(r) for r in partitions_of(n)}


def weingarten_by_linear_system(n, z):
    """Independent route: solve the convolution-inverse linear system over the
    matching representatives by exact elimination."""
    rhos = list(partitions_of(n))
    reps = [coset_representative(r) for r in rhos]
    mats = [Perm(w) for w in label_matchings((0,) * (2 * n))]
    cols = {r: i for i, r in enumerate(rhos)}
    M = [[Fraction(0)] * len(rhos) for _ in rhos]
    for i, g in enumerate(reps):
        for mp in mats:
            tau = coset_type(mp.inverse())
            M[i][cols[tau]] += z ** len(coset_type(g * mp))
    unit = 2**n * factorial(n)
    rhs = [Fraction(unit) if rhos[i] == (1,) * n else Fraction(0) for i in range(len(rhos))]
    # (G * Wg)(g_rho) = |H_n| sum_m z^kappa(g_rho m) Wg(type(m^-1)) = (2^n n!)^2 1(g_rho)
    rhs = [v / unit for v in rhs]  # divide both sides by |H_n|
    sol = solve_exact(M, rhs)
    return {rhos[i]: sol[i] for i in range(len(rhos))}


def test_zonal_normalization_at_identity_type():
    for n in range(1, 5):
        for lam in partitions_of(n):
            assert zonal_spherical(lam, (1,) * n) == 1


def test_zonal_degree1():
    assert zonal_spherical((1,), (1,)) == 1


def test_zonal_degree3_matrix():
    got = [[zonal_spherical(l, m) for m in partitions_of(3)] for l in partitions_of(3)]
    assert got == [
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(-1, 4), Fraction(1, 6), Fraction(1)],
        [Fraction(1, 4), Fraction(-1, 2), Fraction(1)],
    ]


def test_zonal_weight_mismatch():
    with pytest.raises(ValueError):
        zonal_spherical((2,), (1,))


def test_zonal_spherical_checks_its_partitions_after_the_equal_key_was_read():
    assert zonal_spherical((1, 1), (1, 1)) == 1
    for lam, rho in (((True, 1), (1, 1)), ((1, 1), (1, True)), ((2 + 0j,), (2,))):
        with pytest.raises(ValueError, match="partition part"):
            zonal_spherical(lam, rho)
    assert zonal_spherical([2, 1], [1, 1, 1]) == zonal_spherical((2, 1), (1, 1, 1)) == 1


def test_zonal_well_defined_on_double_cosets():
    # evaluating the defining sum anywhere in H_rho gives the same value
    for n in (1, 2, 3):
        by_type = {}
        for images in permutations(range(1, 2 * n + 1)):
            g = Perm(images)
            by_type.setdefault(coset_type(g), []).append(g)
        for rho, members in by_type.items():
            rnd = random.Random(sum(rho))
            sample = rnd.sample(members, min(4, len(members)))
            for lam in partitions_of(n):
                want = zonal_spherical(lam, rho)
                assert all(zonal_spherical_at(lam, g) == want for g in sample)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_zonal_spherical_is_the_hyperoctahedral_average(n):
    for rho in partitions_of(n):
        g = coset_representative(rho)
        for lam in partitions_of(n):
            assert zonal_spherical(lam, rho) == zonal_spherical_at(lam, g)


@pytest.mark.parametrize("n", range(6, MAX_SUM_DEGREE + 1))
def test_zonal_table_up_to_the_cap_is_orthogonal_and_specialises(n):
    # sum_rho |H rho H| omega^lam omega^mu = delta (2n)! / f^{2 lam}, and the
    # zonal polynomial at p_r = z for every r is the content product C_lam(z)
    table = _zonal_table(n)
    rhos = partitions_of(n)
    for lam in rhos:
        for mu in rhos:
            got = sum(double_coset_size(rho) * table[lam][rho] * table[mu][rho] for rho in rhos)
            assert got == (Fraction(factorial(2 * n), hook_dim_doubled(lam)) if lam == mu else 0)
    z = Fraction(-7, 3)
    for lam in rhos:
        got = sum(matching_type_count(rho) * table[lam][rho] * z ** len(rho) for rho in rhos)
        assert got == content_product_boxwise(lam, z)


def test_cold_degree5_values_never_enumerate_the_hyperoctahedral_group():
    code = """
from fractions import Fraction
import numpy as np
import wishmom.matchgroup as mg

def refuse(n):
    raise AssertionError(f"hyperoctahedral({n}) enumerated")

mg.hyperoctahedral = refuse
from wishmom import weingarten as wg, wishart as ws

wg.weingarten_values(5, z=Fraction(-7, 3))
wg.weingarten_values(5, gamma=Fraction(13, 2))
wg.weingarten_values(5, N=3)
p = ws.WishartParams(d=2, beta=8, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
for inverse in (False, True):
    ws.power_trace_moment(p, (3, 2), inverse)
    ws.invariant_moment(p, (2, 2, 1), inverse)
print(ws.haar_moment((1,) * 10, (1,) * 10, 3))
"""
    src = str(Path(wishmom.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert Fraction(out.strip()) == Fraction(9 * 7 * 5 * 3, 3 * 5 * 7 * 9 * 11)


def test_weingarten_closed_forms():
    rnd = random.Random(0)
    for _ in range(10):
        z = pole_free_z(rnd, 2)
        den = z * (z + 2) * (z - 1)
        assert weingarten((1,), z) == 1 / z
        assert weingarten((2,), z) == -1 / den
        assert weingarten((1, 1), z) == (z + 1) / den


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weingarten_matches_linear_system_oracle(n):
    rnd = random.Random(20 + n)
    z = pole_free_z(rnd, n)
    oracle = weingarten_by_linear_system(n, z)
    for rho in partitions_of(n):
        assert weingarten(rho, z) == oracle[rho]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_inverse_and_truncated_values_match_the_zonal_oracle(n):
    # the oracle sums one Fraction per shape, with box-by-box content products
    rnd = random.Random(40 + n)
    shapes = partitions_of(n)
    for _ in range(3):
        gamma = -pole_free_z(rnd, n) / 2
        for rho in shapes:
            want = (-1) ** n * 2**n * weingarten_sum_fractions(rho, -2 * gamma, shapes)
            got = inv_wishart_weingarten(rho, gamma)
            assert got == want and type(got) is Fraction
    for N in range(1, 9):
        rows = [lam for lam in shapes if len(lam) <= N]
        for rho in shapes:
            got = weingarten_truncated(rho, N)
            assert got == weingarten_sum_fractions(rho, N, rows) and type(got) is Fraction


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_pole_errors_name_the_point_and_every_vanishing_shape(n):
    poles = 0
    for z in map(Fraction, range(-2 * n + 2, n)):
        want = tuple(lam for lam in partitions_of(n) if content_product_boxwise(lam, z) == 0)
        if not want:
            continue
        poles += 1
        for rho in partitions_of(n):
            # the inverse-Wishart kernel at gamma = -z/2 is taken at the point z
            for call in (lambda: weingarten(rho, z), lambda: inv_wishart_weingarten(rho, -z / 2)):
                with pytest.raises(PoleError) as err:
                    call()
                assert err.value.z == z and type(err.value.z) is Fraction
                assert err.value.shapes == want
    assert poles


def test_weingarten_pole_error_names_shapes():
    with pytest.raises(PoleError) as err:
        weingarten((2,), 1)  # content product of (1,1) vanishes at z=1
    assert (1, 1) in err.value.shapes
    with pytest.raises(PoleError):
        weingarten((1, 1, 1), 2)


def test_truncated_equals_full_beyond_length_bound():
    for n in (1, 2, 3):
        for N in (n, n + 1, n + 3):
            for rho in partitions_of(n):
                assert weingarten_truncated(rho, N) == weingarten(rho, N)


def test_truncated_single_shape_degree2():
    # at N=1 only the one-row shape survives: value f/(C * (2n-1)!!) = 1/9
    assert weingarten_truncated((2,), 1) == Fraction(1, 9)
    assert weingarten_truncated((1, 1), 1) == Fraction(1, 9)


def test_degree_must_be_an_integer():
    for bad in (True, False, 2.5, "2"):
        with pytest.raises(ValueError, match="degree must be an integer") as info:
            weingarten_values(bad, z=3)
        assert type(info.value) is ValueError
    assert weingarten_values(2.0, z=3) == weingarten_values(2, z=3)
    assert list(weingarten_values(2.0, z=3)) == [(2,), (1, 1)]
    assert list(weingarten_values(10.0, z=25)) == list(partitions_of(10))
    with pytest.raises(SizeLimitError):
        weingarten_values(11.0, z=3)


def test_point_must_be_a_finite_rational(tmp_path):
    for bad in (True, np.bool_(False), float("nan"), float("-inf"), 1j, "z"):
        for call in (
            lambda: weingarten_values(2, z=bad),
            lambda: weingarten_values(2, gamma=bad),
            lambda: weingarten((1, 1), bad),
            lambda: table_path(tmp_path, 2, bad),
        ):
            with pytest.raises(ValueError, match="(z|gamma) must be a finite rational number") as info:
                call()
            assert type(info.value) is ValueError
    assert weingarten_values(2, z=np.float64(2.5)) == weingarten_values(2, z="5/2") == weingarten_values(2, z=Fraction(5, 2))
    assert weingarten_values(2, gamma=4.0) == weingarten_values(2, gamma=4)


READERS = {"z": weingarten, "gamma": inv_wishart_weingarten, "N": weingarten_truncated}


def test_point_cache_checks_the_point_after_the_equal_valid_point_was_read():
    for kind, read in READERS.items():
        assert read((1,), 1) == _point_table(1, kind, 1)[(1,)]
        for call in (lambda: read((1,), True), lambda: _point_table(1, kind, True)):
            with pytest.raises(ValueError, match="(z|gamma) must be a finite rational|N must be a positive integer"):
                call()
    with pytest.raises(ValueError, match="degree must be an integer"):
        _point_table(True, "z", 1)


def test_equal_points_share_one_entry():
    _point_cache.cache_clear()
    for z in (2.5, np.float64(2.5), "5/2", Fraction(5, 2)):
        weingarten((2, 1), z)
    info = _point_cache.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
    # the table at a general mu is one more entry, and the second read of it a hit
    assert power_trace_coeffs((2, 1), Fraction(5, 2)) == power_trace_coeffs((2, 1), 2.5)
    info = _point_cache.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 4, 2)


def test_a_pole_is_raised_on_every_read_and_never_stored():
    _point_cache.cache_clear()
    shapes = []
    reads = (
        lambda: weingarten((1, 1, 1, 1), 3),
        lambda: _point_table(4, "z", 3),
        # z = -2 gamma = 3 again, at a general mu and at (1^4)
        lambda: power_trace_coeffs((2, 1, 1), Fraction(-3, 2), inverse=True),
        lambda: power_trace_coeffs((1, 1, 1, 1), Fraction(-3, 2), inverse=True),
    )
    for call in reads * 2:
        with pytest.raises(PoleError) as info:
            call()
        shapes.append(info.value.shapes)
    assert shapes == [((1, 1, 1, 1),)] * 8
    assert _point_cache.cache_info().currsize == 0


def test_weingarten_values_is_the_callers_own_copy():
    got = weingarten_values(3, z=7)
    want = dict(got)
    got[(3,)] = Fraction(0)
    got.clear()
    assert weingarten_values(3, z=7) == want and weingarten((3,), 7) == want[(3,)]


def test_point_cache_holds_at_most_point_tables_points():
    _point_cache.cache_clear()
    for k in range(POINT_TABLES + 100):
        _point_table(3, "gamma", Fraction(3 * k + 1, 3))  # z = -2 gamma has no integer content, so no pole
    assert _point_cache.cache_info().currsize == POINT_TABLES


def zonal_expansion(n, kind, point):
    """Every value of a degree at the point, one Fraction step at a time: Wg at
    z, (-2)^n Wg at -2 gamma, or Wg at N over the shapes with at most N rows."""
    z, scale, shapes = Fraction(point), 1, partitions_of(n)
    if kind == "gamma":
        z, scale = -2 * z, (-2) ** n
    elif kind == "N":
        shapes = [lam for lam in shapes if len(lam) <= point]
    return {rho: scale * weingarten_sum_fractions(rho, z, shapes) for rho in partitions_of(n)}


@pytest.mark.parametrize("n", range(1, MAX_SUM_DEGREE + 1))
def test_point_values_equal_the_zonal_expansion_in_any_read_order(n):
    rnd = random.Random(n)
    rhos = list(partitions_of(n))
    # four pole-free points of each kind: z, gamma = -z/2, and N in 1..7
    points = {
        "z": [pole_free_z(rnd, n) for _ in range(4)],
        "gamma": [-pole_free_z(rnd, n) / 2 for _ in range(4)],
        "N": rnd.sample(range(1, 8), 4),
    }
    for kind in points:
        for point in points[kind]:
            want = zonal_expansion(n, kind, point)
            # cold: some rows one at a time in shuffled order, then the whole table, then every row again
            _point_cache.cache_clear()
            rnd.shuffle(rhos)
            head = rhos[: rnd.randint(0, len(rhos))]
            assert {rho: READERS[kind](rho, point) for rho in head} == {rho: want[rho] for rho in head}
            assert _point_table(n, kind, point) == want
            assert {rho: READERS[kind](rho, point) for rho in rhos} == want
            # cold: the whole table first, in reverse-lex order
            _point_cache.cache_clear()
            got = weingarten_values(n, **{kind: point})
            assert got == want and list(got) == list(partitions_of(n))


def matching_sums(wg, z):
    """(sum_rho M_rho z^len(rho) wg[rho], sum_rho M_rho wg[rho]) over a degree's table."""
    return (
        sum(matching_type_count(rho) * z ** len(rho) * v for rho, v in wg.items()),
        sum(matching_type_count(rho) * v for rho, v in wg.items()),
    )


def both_routes(n, kind, point):
    """A degree's table at a cold point read one value at a time, and again as a whole."""
    _point_cache.cache_clear()
    one_by_one = {rho: READERS[kind](rho, point) for rho in partitions_of(n)}
    _point_cache.cache_clear()
    return one_by_one, weingarten_values(n, **{kind: point})


@pytest.mark.parametrize("n", range(1, MAX_SUM_DEGREE + 1))
def test_weingarten_row_sums_hold_at_every_degree(n):
    # (a) one row of Wg * z^kappa = unit: sum_rho M_rho z^len(rho) Wg(rho; z) = 1;
    # (b) sum_rho M_rho Wg(rho; z) = 1 / prod_{k<n} (z + 2k)
    rnd = random.Random(50 + n)
    for z in [pole_free_z(rnd, n) for _ in range(3)]:
        for wg in both_routes(n, "z", z):
            assert matching_sums(wg, z) == (1, 1 / prod(z + 2 * k for k in range(n)))


@pytest.mark.parametrize("n", range(1, MAX_SUM_DEGREE + 1))
def test_weingarten_leading_term_is_a_signed_catalan_product(n):
    # z^(2n - len rho) Wg(rho; z) -> prod_i (-1)^(rho_i - 1) Cat(rho_i - 1) as z -> infinity
    z = Fraction(10**60)
    for rho in partitions_of(n):
        want = prod((-1) ** (r - 1) * comb(2 * r - 2, r - 1) // r for r in rho)
        got = z ** (2 * n - len(rho)) * weingarten(rho, z)
        assert abs(got - want) < Fraction(1, 10**35)


@pytest.mark.parametrize("n", range(1, MAX_SUM_DEGREE + 1))
def test_haar_row_sum_holds_at_every_degree_and_dimension(n):
    # (b) through the truncated table, for every N >= 1: it is E[O_11^2n] / (2n-1)!! for a Haar O
    for N in range(1, 8):
        for wg in both_routes(n, "N", N):
            assert matching_sums(wg, N)[1] == Fraction(1, prod(N + 2 * k for k in range(n)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, MAX_SUM_DEGREE),
    st.fractions(min_value=-40, max_value=40, max_denominator=12),
)
def test_weingarten_row_sums_at_random_rational_points(n, z):
    assume(all(content_product(lam, z) != 0 for lam in partitions_of(n)))
    assert matching_sums(weingarten_values(n, z=z), z) == (1, 1 / prod(z + 2 * k for k in range(n)))


def test_inv_wishart_weingarten_golden_tables():
    rnd = random.Random(1)
    for _ in range(5):
        g = rand_frac(rnd) + 4  # clear of every pole through degree 4
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


def test_inv_wishart_weingarten_pole_at_small_integer_gamma():
    with pytest.raises(PoleError):
        inv_wishart_weingarten((2,), 1)
    with pytest.raises(PoleError):
        inv_wishart_weingarten((2, 1), 2)


def test_hecke_unit_is_convolution_unit():
    for n in (1, 2, 3):
        f = zonal_table(partitions_of(n)[-1])
        assert biinvariant_convolve(f, hecke_unit(n)) == f
        assert biinvariant_convolve(hecke_unit(n), f) == f


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zonal_orthogonality_full_sum(n):
    for lam in partitions_of(n):
        for mu in partitions_of(n):
            conv = biinvariant_convolve(zonal_table(lam), zonal_table(mu), "full")
            if lam == mu:
                want = {
                    r: Fraction(factorial(2 * n), hook_dim_doubled(lam)) * zonal_spherical(lam, r)
                    for r in partitions_of(n)
                }
            else:
                want = {r: Fraction(0) for r in partitions_of(n)}
            assert conv == want


def test_zonal_orthogonality_reduced_degree4():
    n = 4
    lam, mu = (3, 1), (2, 2)
    assert biinvariant_convolve(zonal_table(lam), zonal_table(mu)) == {
        r: Fraction(0) for r in partitions_of(n)
    }
    conv = biinvariant_convolve(zonal_table(lam), zonal_table(lam))
    want = {r: Fraction(factorial(8), hook_dim_doubled(lam)) * zonal_spherical(lam, r) for r in partitions_of(n)}
    assert conv == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_convolution_inverse_identity_full(n):
    rnd = random.Random(30 + n)
    for _ in range(2):
        z = pole_free_z(rnd, n)
        conv = biinvariant_convolve(kappa_power(n, z), weingarten_values(n, z=z), "full")
        scale = (2**n * factorial(n)) ** 2
        assert conv == {r: scale * v for r, v in hecke_unit(n).items()}


def test_reduced_and_full_convolutions_agree():
    rnd = random.Random(9)
    for n in (1, 2, 3):
        z = pole_free_z(rnd, n)
        f1, f2 = kappa_power(n, z), zonal_table(partitions_of(n)[0])
        assert biinvariant_convolve(f1, f2, "reduced") == biinvariant_convolve(f1, f2, "full")


@pytest.mark.parametrize("n", [4, 5])
def test_reduced_kernel_marginals(n):
    # (f1 * f2)(g) sums over all g' in S_{2n}: g' and g g'^-1 each run over
    # every element once, so summing the weights over one type leaves the
    # size of the other type's double coset; the full kernel stops at n = 3
    for rows in _convolution_kernel(n, False).values():
        by_t1, by_t2 = {}, {}
        for t1, t2, w in rows:
            by_t1[t1] = by_t1.get(t1, 0) + w
            by_t2[t2] = by_t2.get(t2, 0) + w
        assert by_t1 == {rho: double_coset_size(rho) for rho in partitions_of(n)}
        assert by_t2 == by_t1


def test_convolution_degree_mismatch():
    with pytest.raises(ValueError):
        biinvariant_convolve(hecke_unit(2), hecke_unit(3))


def test_convolution_takes_tables_over_exactly_the_partitions_of_one_n():
    f = kappa_power(2, Fraction(3))
    bad = [
        {(2,): Fraction(1)},  # a missing coset type
        {**f, (3,): Fraction(1)},  # a type of another weight
        {},
        {(1,) * 200: Fraction(1)},  # found without listing the partitions of 200
    ]
    for table in bad:
        for f1, f2 in ((table, f), (f, table)):
            with pytest.raises(ValueError, match="cover exactly the partitions"):
                biinvariant_convolve(f1, f2)
            # the tables are checked before the degree and the method
            with pytest.raises(ValueError, match="cover exactly the partitions"):
                biinvariant_convolve(f1, f2, "none")
    with pytest.raises(SizeLimitError):
        biinvariant_convolve({(): Fraction(1)}, {(): Fraction(1)}, "none")
    # the reduced kernel lists matching words: past MAX_LISTED_DEGREE it is refused
    six = {r: Fraction(1) for r in partitions_of(MAX_LISTED_DEGREE + 1)}
    with pytest.raises(SizeLimitError, match="^routes that list words support 1 <= n <= 5, got 6$"):
        biinvariant_convolve(six, six, "none")
    with pytest.raises(ValueError, match="method"):
        biinvariant_convolve(f, f, "none")


def test_full_and_reduced_kernels_are_equal_tables():
    # one loop over two element sets: every word of S_{2n} with weight 1, or
    # the matching words with weight |H_n|
    for n in (1, 2, 3):
        assert _convolution_kernel(n, True) == _convolution_kernel(n, False)
    with pytest.raises(SizeLimitError):
        _convolution_kernel(4, True)


def test_unit_expansion_identity():
    # the unit is (2n)!^-1 sum_lam f^{2 lam} omega^lam
    for n in (1, 2, 3, 4):
        for rho in partitions_of(n):
            s = sum(Fraction(hook_dim_doubled(l)) * zonal_spherical(l, rho) for l in partitions_of(n))
            want = Fraction(factorial(2 * n), 2**n * factorial(n)) if rho == (1,) * n else Fraction(0)
            assert s == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_power_sum_specializations(n):
    rnd = random.Random(40 + n)
    for _ in range(5):
        z = pole_free_z(rnd, n)
        for lam in partitions_of(n):
            s = 2**n * factorial(n) * sum(
                Fraction(1, 2 ** len(r) * centralizer_order(r)) * zonal_spherical(lam, r) * z ** len(r)
                for r in partitions_of(n)
            )
            assert s == content_product(lam, z)
        for rho in partitions_of(n):
            s = Fraction(2**n * factorial(n), factorial(2 * n)) * sum(
                hook_dim_doubled(l) * zonal_spherical(l, rho) * content_product(l, z) for l in partitions_of(n)
            )
            assert s == z ** len(rho)


def test_zonal_eval_constant_specialization():
    rnd = random.Random(8)
    for n in (1, 2, 3, 4):
        z = rand_frac(rnd)
        pv = {r: z for r in range(1, n + 1)}
        for lam in partitions_of(n):
            assert zonal_eval(lam, pv) == content_product(lam, z)


def test_zonal_eval_inverse_relation_roundtrip():
    rnd = random.Random(11)
    for n in (1, 2, 3, 4):
        pv = {r: Fraction(rnd.randint(-9, 9), rnd.randint(1, 5)) for r in range(1, n + 1)}
        zvals = {lam: zonal_eval(lam, pv) for lam in partitions_of(n)}
        for rho in partitions_of(n):
            rec = Fraction(2**n * factorial(n), factorial(2 * n)) * sum(
                hook_dim_doubled(l) * zonal_spherical(l, rho) * zvals[l] for l in partitions_of(n)
            )
            direct = Fraction(1)
            for part in rho:
                direct *= pv[part]
            assert rec == direct


def test_zonal_eval_single_box_and_missing_value():
    assert zonal_eval((1,), {1: Fraction(5, 7)}) == Fraction(5, 7)
    with pytest.raises(ValueError):
        zonal_eval((2, 1), {1: Fraction(1)})


def test_zonal_eval_power_sums_are_numbers():
    # None raised TypeError from inside the sum, and a bool was read as 0 or 1
    for bad, r in ((None, 1), ("2", 2), (True, 1), (np.True_, 2), ([1], 1)):
        pv = {1: Fraction(3), 2: 1}
        pv[r] = bad
        with pytest.raises(ValueError, match=f"power-sum value for r={r} must be a number"):
            zonal_eval((2,), pv)
    # Z_(2) = p_1^2 + 2 p_2 at any numbers
    assert zonal_eval((2,), {1: np.float64(3.0), 2: np.int64(1)}) == 11
    assert zonal_eval((2,), {1: 1j, 2: Fraction(1, 2)}) == 0


def test_zonal_eval_power_sums_are_a_mapping():
    # a list passed the membership test r in pvals and was read by position:
    # zonal_eval((1,), [1, 5]) gave 5
    for bad in ([1, 5], (1, 5), np.array([1.0, 5.0]), "15"):
        with pytest.raises(ValueError, match="power sums must be a mapping"):
            zonal_eval((1,), bad)
    assert zonal_eval((), [1, 5]) == 1  # the empty shape reads no power sum


# the file of the table at n = 2, z = 5, as every earlier release wrote it
TABLE_N2_Z5 = (
    '{\n  "n": 2,\n  "z": {\n    "num": "5",\n    "den": "1"\n  },\n  "entries": [\n    {\n      "rho": [\n'
    '        2\n      ],\n      "value": {\n        "num": "-1",\n        "den": "140"\n      }\n    },\n'
    '    {\n      "rho": [\n        1,\n        1\n      ],\n      "value": {\n        "num": "3",\n'
    '        "den": "70"\n      }\n    }\n  ],\n  "provenance": {\n    "generator": "wishmom",\n'
    '    "version": "0.1.0",\n    "schema": 1\n  }\n}\n'
)


def test_table_degree1(tmp_path):
    q = Fraction(9, 2)
    assert weingarten_values(1, z=q) == {(1,): 1 / q}
    save_table(tmp_path, 1, q, weingarten_values(1, z=q))
    assert load_table(tmp_path, 1, q) == {(1,): 1 / q}


def test_table_file_text(tmp_path):
    assert table_to_json(2, 5, weingarten_values(2, z=5)) == TABLE_N2_Z5
    assert save_table(tmp_path, 2, 5, weingarten_values(2, z=5)).read_text() == TABLE_N2_Z5


def test_table_rebuild_byte_identical(tmp_path):
    z = Fraction(7, 2)
    t1 = table_to_json(3, z, weingarten_values(3, z=z))
    t2 = table_to_json(3, z, weingarten_values(3, z=z))
    assert t1 == t2
    p1 = save_table(tmp_path, 3, z, weingarten_values(3, z=z))
    assert p1.read_bytes() == t1.encode()


def test_table_json_roundtrip_and_layout(tmp_path):
    z = Fraction(-7, 3)
    values = weingarten_values(2, z=z)
    path = save_table(tmp_path, 2, z, values)
    assert path == tmp_path / "tables" / "wg_o" / "n2" / "z_-7_3.json"
    back = load_table(tmp_path, 2, z)
    assert back == values and list(back) == list(values)
    assert all(type(v) is Fraction for v in back.values())
    assert load_table(tmp_path, 2, Fraction(5)) is None
    doc = json.loads(table_to_json(2, z, values))
    assert set(doc) == {"n", "z", "entries", "provenance"}
    assert (doc["n"], doc["z"]) == (2, {"num": "-7", "den": "3"})
    assert doc["entries"][0]["value"].keys() == {"num", "den"}


def test_load_table_ignores_the_generator_and_version(tmp_path):
    values = weingarten_values(3, z=5)
    path = save_table(tmp_path, 3, 5, values)
    doc = json.loads(path.read_text())
    doc["provenance"] = {"generator": "other", "version": "0.0.0", "schema": 1}
    path.write_text(json.dumps(doc))
    assert load_table(tmp_path, 3, 5) == values
    doc["provenance"] = {"generator": "wishmom", "version": "0.1.0", "schema": 2}
    path.write_text(json.dumps(doc))
    assert load_table(tmp_path, 3, 5) is None


def test_table_pole_rejected():
    with pytest.raises(PoleError):
        weingarten_values(4, z=3)  # z=3 zeroes the four-row shape's content product


def test_table_residual_zero_at_pole_free_point():
    # multiply the table against the kappa-power function: exact algebra unit
    n, z = 4, Fraction(7)
    conv = biinvariant_convolve(kappa_power(n, z), weingarten_values(n, z=z))
    scale = (2**n * factorial(n)) ** 2
    assert conv == {r: scale * v for r, v in hecke_unit(n).items()}


def test_table_path_shape():
    assert str(table_path("/c", 4, Fraction(7))).endswith("tables/wg_o/n4/z_7_1.json")
