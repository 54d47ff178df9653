import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wishmom
from wishmom.hafnian import (
    _pair_edges,
    alpha_permanent,
    cycle_functionals,
    hafnian_expand,
    hafnian_matching,
    hafnian_permsum,
    permanent_embedding,
)
from wishmom.matchgroup import (
    MAX_SUM_DEGREE,
    cycle_type_sums,
    hyperoctahedral,
    matching_type_sums,
)

from oracles import (
    alpha_permanent_enumerative,
    det_exact,
    hafnian_permsum_enumerative,
    keyed_sum,
    p_cycle_trace,
    permanent_bruteforce,
    q_cycle_picks,
)


def rand_sym(rnd, m, span=6):
    A = [[Fraction(0)] * m for _ in range(m)]
    for p in range(m):
        for q in range(p, m):
            A[p][q] = A[q][p] = Fraction(rnd.randint(-span, span), rnd.randint(1, 4))
    return A


def rand_alpha(rnd):
    return Fraction(rnd.randint(-4, 4), rnd.randint(1, 3))


def test_degree2_three_term_formula():
    rnd = random.Random(0)
    A = rand_sym(rnd, 4)
    al = Fraction(5, 3)
    expect = al**2 * A[0][1] * A[2][3] + al * A[0][2] * A[1][3] + al * A[0][3] * A[1][2]
    assert hafnian_matching(A, al) == expect
    assert hafnian_expand(A, al) == expect
    assert hafnian_permsum(A, al, "P") == expect
    assert hafnian_permsum(A, al, "Q") == expect


def test_degree1():
    A = [[Fraction(0), Fraction(7, 2)], [Fraction(7, 2), Fraction(0)]]
    al = Fraction(3, 5)
    for fn in (hafnian_matching, hafnian_expand):
        assert fn(A, al) == al * Fraction(7, 2)
    assert hafnian_permsum(A, al, "P") == al * Fraction(7, 2)


def test_all_ones_counts_matchings():
    ones = [[1] * 6 for _ in range(6)]
    assert hafnian_matching(ones, 1) == 15
    assert hafnian_expand(ones, 1) == 15


def test_zero_matrix():
    Z = [[Fraction(0)] * 4 for _ in range(4)]
    assert hafnian_expand(Z, Fraction(2)) == 0


def test_expand_hand_reduction_with_zeros():
    # with A14 = A24 = 0 the n=2 value collapses to two terms
    rnd = random.Random(1)
    A = rand_sym(rnd, 4)
    A[0][3] = A[3][0] = Fraction(0)
    A[1][3] = A[3][1] = Fraction(0)
    al = Fraction(7, 4)
    assert hafnian_expand(A, al) == al**2 * A[0][1] * A[2][3] + al * A[0][2] * A[1][3]


def test_permsum_refuses_a_variant_other_than_p_or_q():
    A = rand_sym(random.Random(5), 4)
    for bad in ("p", "R", "", None):
        with pytest.raises(ValueError, match="^variant must be 'P' or 'Q'$"):
            hafnian_permsum(A, 2, bad)


def test_permsum_degree2_split():
    # identity contributes (a/2)^2 P(1)P(2), the transposition (a/2) P(12)
    rnd = random.Random(2)
    A = rand_sym(rnd, 4)
    al = Fraction(3, 2)
    p1, _, _ = cycle_functionals(A, (1,))
    p2, _, _ = cycle_functionals(A, (2,))
    p12, _, _ = cycle_functionals(A, (1, 2))
    manual = (al / 2) ** 2 * p1 * p2 + (al / 2) * p12
    assert manual == hafnian_matching(A, al)
    assert manual == hafnian_permsum(A, al, "P")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_four_way_agreement(n):
    rnd = random.Random(100 + n)
    for _ in range(8):
        A = rand_sym(rnd, 2 * n)
        al = rand_alpha(rnd)
        vals = {
            hafnian_matching(A, al),
            hafnian_expand(A, al),
            hafnian_permsum(A, al, "P"),
            hafnian_permsum(A, al, "Q"),
        }
        assert len(vals) == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.booleans(), st.integers(0, 10**9))
def test_matching_sum_exact_for_int_and_sparse_inputs(n, integral, seed):
    rnd = random.Random(seed)
    A = rand_sym(rnd, 2 * n)
    for p in range(2 * n):
        for q in range(p, 2 * n):
            if integral:
                A[p][q] = A[q][p] = rnd.randint(-6, 6)
            elif rnd.random() < 0.5:
                A[p][q] = A[q][p] = Fraction(0)
    al = rnd.randint(-3, 3) if integral else rand_alpha(rnd)
    h = hafnian_matching(A, al)
    assert h == hafnian_expand(A, al) == hafnian_permsum(A, al, "P") == hafnian_permsum(A, al, "Q")
    assert isinstance(h, int if integral else (int, Fraction))


def test_diagonal_independence():
    rnd = random.Random(3)
    A = rand_sym(rnd, 6)
    B = [row[:] for row in A]
    for i in range(6):
        B[i][i] = Fraction(rnd.randint(10, 99))
    al = Fraction(2, 3)
    assert hafnian_matching(A, al) == hafnian_matching(B, al)
    assert hafnian_expand(A, al) == hafnian_expand(B, al)
    assert hafnian_permsum(A, al, "P") == hafnian_permsum(B, al, "P")
    assert hafnian_permsum(A, al, "Q") == hafnian_permsum(B, al, "Q")


def test_q_worked_example():
    # cycle 3 -> 2 -> 1 -> 3 gives the four-term sum from the definition
    rnd = random.Random(4)
    A = rand_sym(rnd, 6)
    _, Q, _ = cycle_functionals(A, (2, 1, 3))
    expect = (
        A[4][2] * A[3][0] * A[1][5]
        + A[4][3] * A[2][0] * A[1][5]
        + A[4][2] * A[3][1] * A[0][5]
        + A[4][3] * A[2][1] * A[0][5]
    )
    assert Q == expect


def test_single_cycle_values():
    rnd = random.Random(5)
    A = rand_sym(rnd, 6)
    P, Q, Qinv = cycle_functionals(A, (2,))
    assert P == 2 * A[2][3]
    assert Q == Qinv == A[2][3]


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_p_equals_q_plus_q_inverse(r):
    rnd = random.Random(10 + r)
    A = rand_sym(rnd, 2 * r)
    cycle = tuple(rnd.sample(range(1, r + 1), r))
    P, Q, Qinv = cycle_functionals(A, cycle)
    assert P == Q + Qinv


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 10**9))
def test_cycle_functionals_equal_picks_and_trace(r, seed):
    # both orientations of a random cycle, in any rotation
    rnd = random.Random(seed)
    A = rand_sym(rnd, 2 * rnd.randint(r, 6))
    cycle = tuple(rnd.sample(range(1, len(A) // 2 + 1), r))
    for c in (cycle, cycle[::-1]):
        i = c.index(max(c))
        canon = c[i + 1 :] + c[: i + 1]  # largest element last
        inv = canon[-2::-1] + canon[-1:]
        want = (p_cycle_trace(A, canon), q_cycle_picks(A, canon), q_cycle_picks(A, inv))
        assert cycle_functionals(A, c[1:] + c[:1]) == want


def test_cycle_validation():
    A = [[Fraction(0)] * 4 for _ in range(4)]
    with pytest.raises(ValueError):
        cycle_functionals(A, (1, 1))
    with pytest.raises(ValueError):
        cycle_functionals(A, (1, 5))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_relabeling_invariance_under_pair_symmetry(seed):
    # conjugating the index set by a pair-preserving permutation fixes hf
    rnd = random.Random(seed)
    n = rnd.choice((2, 3))
    A = rand_sym(rnd, 2 * n)
    al = rand_alpha(rnd)
    h = rnd.choice(hyperoctahedral(n))
    B = [[A[h(p + 1) - 1][h(q + 1) - 1] for q in range(2 * n)] for p in range(2 * n)]
    assert hafnian_matching(A, al) == hafnian_matching(B, al)
    assert hafnian_expand(A, al) == hafnian_expand(B, al)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.booleans(), st.integers(0, 10**9))
def test_permutation_sums_equal_enumeration(n, integral, seed):
    rnd = random.Random(seed)
    A = rand_sym(rnd, 2 * n)
    M = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    al = rand_alpha(rnd)
    if integral:
        A = [[int(v) for v in row] for row in A]
        M = [[int(v) for v in row] for row in M]
        al = rnd.randint(-3, 3)
    for variant in ("P", "Q"):
        got, want = hafnian_permsum(A, al, variant), hafnian_permsum_enumerative(A, al, variant)
        assert got == want and (n == 0 or type(got) is type(want))
    got, want = alpha_permanent(M, al), alpha_permanent_enumerative(M, al)
    assert got == want and (n == 0 or type(got) is type(want))


def test_four_way_agreement_at_the_cap():
    # the three subset-DP routes at size 2 MAX_SUM_DEGREE; the expansion, about
    # 10 s there, is checked at size 16 here and at the cap in CI
    rnd = random.Random(777)
    n = MAX_SUM_DEGREE
    A = rand_sym(rnd, 2 * n)
    al = rand_alpha(rnd)
    h = hafnian_matching(A, al)
    assert h != 0 and h == hafnian_permsum(A, al, "P") == hafnian_permsum(A, al, "Q")
    A16 = [row[:16] for row in A[:16]]
    assert hafnian_expand(A16, al) == hafnian_matching(A16, al)
    M = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    assert alpha_permanent(M, al) == hafnian_matching(permanent_embedding(M), al)


def test_permutation_sums_do_not_enumerate_permutations():
    # numpy's own imports enumerate permutations once, so it loads first
    code = """
import itertools
from fractions import Fraction
import numpy as np

def refuse(*args, **kwargs):
    raise AssertionError("itertools.permutations called")

itertools.permutations = refuse
from wishmom import hafnian, wishart

n = 7
A = [[Fraction((p * q) % 5 - 2, 1 + (p + q) % 3) for q in range(2 * n)] for p in range(2 * n)]
M = [[i - 2 * j for j in range(n)] for i in range(n)]
p = wishart.WishartParams(d=2, beta=5, sigma=np.array([[2.0, 0.3], [0.3, 1.5]]))
wishart.trace_product_moment(p, [np.array([[1.0, k], [k, -1.0]]) for k in range(n)])
print(hafnian.hafnian_permsum(A, Fraction(3, 2), "P") == hafnian.hafnian_permsum(A, Fraction(3, 2), "Q"))
print(hafnian.alpha_permanent(M, 2) == hafnian.hafnian_matching(hafnian.permanent_embedding(M), 2))
"""
    src = str(Path(wishmom.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout
    assert out.split() == ["True", "True"]


def test_alpha_permanent_identity_matrix():
    I3 = [[Fraction(int(i == j)) for j in range(3)] for i in range(3)]
    al = Fraction(2, 7)
    assert alpha_permanent(I3, al) == al**3


def test_alpha_permanent_specializations():
    rnd = random.Random(6)
    for _ in range(5):
        M = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        assert alpha_permanent(M, 1) == permanent_bruteforce(M)
        assert alpha_permanent(M, -1) == (-1) ** 3 * det_exact(M)


def test_permanent_embedding_identity():
    rnd = random.Random(7)
    for _ in range(5):
        M = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        al = rand_alpha(rnd)
        B = permanent_embedding(M)
        assert all(B[p][q] == B[q][p] for p in range(6) for q in range(6))
        assert hafnian_matching(B, al) == alpha_permanent(M, al)
        assert hafnian_expand(B, al) == alpha_permanent(M, al)


def test_alpha_permanent_rejects_non_square():
    # checked before the size guard, and never read as a smaller square
    for M in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3]], [[0] * 9 for _ in range(8)]):
        with pytest.raises(ValueError, match="matrix must be square"):
            alpha_permanent(M, 2)


def test_asymmetric_rejected():
    A = [[Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]]
    with pytest.raises(ValueError):
        hafnian_matching(A, Fraction(1))


@pytest.mark.parametrize("al", [2, Fraction(2), Fraction(-5, 3)])
@pytest.mark.parametrize(
    "route",
    [
        hafnian_matching,
        hafnian_expand,
        lambda A, al: hafnian_permsum(A, al, "P"),
        lambda A, al: hafnian_permsum(A, al, "Q"),
        alpha_permanent,
    ],
    ids=["matching", "expand", "permsum_P", "permsum_Q", "alpha_permanent"],
)
def test_size0_is_the_int_empty_product(route, al):
    got = route([], al)
    assert type(got) is int and got == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.integers(0, 10**9))
def test_hafnian_matching_scalar_stage_equals_keyed_sum(n, integral, seed):
    rnd = random.Random(seed)
    A = rand_sym(rnd, 2 * n)
    al = rand_alpha(rnd)
    if integral:
        A = [[int(v) for v in row] for row in A]
        al = rnd.randint(-3, 3)
    got, want = hafnian_matching(A, al), keyed_sum(matching_type_sums(range(2 * n), A), al)
    assert got == want and type(got) is type(want)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 7), st.booleans(), st.integers(0, 10**9))
def test_permutation_sums_scalar_stage_equal_keyed_sums(n, integral, seed):
    # n <= 7, since one example takes about 4 s at n = 10
    rnd = random.Random(seed)
    A = rand_sym(rnd, 2 * n)
    M = [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(n)] for _ in range(n)]
    al = rand_alpha(rnd)
    if integral:
        A = [[int(v) for v in row] for row in A]
        M = [[int(v) for v in row] for row in M]
        al = rnd.randint(-3, 3)
    edges = _pair_edges(A)
    half = Fraction(al, 2) if integral else al / 2
    for variant, c, read in (("P", half, lambda X: X[0, 0] + X[1, 1]), ("Q", al, lambda X: X[0, 0])):
        got, want = hafnian_permsum(A, al, variant), keyed_sum(cycle_type_sums(n, edges, read), c)
        assert got == want and type(got) is type(want)
    B = np.array(M, dtype=object)
    want = keyed_sum(cycle_type_sums(n, lambda i, j: B[i : i + 1, j : j + 1], lambda X: X[0, 0]), al)
    got = alpha_permanent(M, al)
    assert got == want and type(got) is type(want)
