"""Alpha-hafnians of symmetric matrices by three independent routes.

hf_a(A) weights each perfect matching of the 2n row indices by a**kappa and
the product of matched entries.  Next to the defining matching sum, taken by
``matchgroup.matching_type_sums`` with a factor a per loop, there is a
row/column expansion recurrence and two permutation sums built from the cycle
functionals P and Q, the trace and [0, 0] entry of a chain of 2x2 blocks,
taken by ``matchgroup.cycle_type_sums`` with a factor per cycle; all four
must agree, which the test suite enforces.  Diagonal entries of A are never
read.

The alpha-permanent embeds: per_a(M) = hf_a(B) for the interleaved doubling B
of M built by ``permanent_embedding``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from numbers import Integral, Number
from operator import add, mul

from .matchgroup import check_sum_degree, cycle_type_sums, matching_type_sums
from .symcomb import _as_fraction, _as_ints


def _alpha(alpha):
    """alpha once ``symcomb._as_fraction`` reads it as a finite rational: a
    float as given, an integer as an int, anything else (a string, say) as its
    Fraction; so int, Fraction and float inputs keep their arithmetic."""
    a = _as_fraction(alpha, "alpha")
    if isinstance(alpha, float):
        return alpha
    return int(a) if isinstance(alpha, Integral) else a


def _square(M) -> list[list]:
    """The square M, an ndarray or a list or tuple of rows, as a list of
    rows, [] being 0 x 0; ValueError for any other shape, or for an entry that
    is not a number or is a bool."""
    m = M.tolist() if hasattr(M, "tolist") else M  # an ndarray's entries as Python numbers
    try:
        rows = [list(row) for row in m] if isinstance(m, (list, tuple)) else None
    except TypeError:  # a row that is a scalar
        rows = None
    if rows is None or any(len(row) != len(rows) for row in rows):
        raise ValueError("matrix must be square")
    for p, row in enumerate(rows):
        for q, v in enumerate(row):
            if not isinstance(v, Number) or isinstance(v, bool):
                raise ValueError(f"matrix entry at ({p},{q}) must be a number, got {v!r}")
    return rows


class _Block:
    """A small square matrix of ring entries as a tuple of rows, with the sum
    and product that ``cycle_type_sums`` takes: the 2x2 blocks of the
    permutation sums and the 1x1 edges of the alpha-permanent.  X[i, j] reads
    an entry."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __matmul__(self, other):
        cols = tuple(zip(*other.rows))
        return _Block(tuple(tuple(reduce(add, map(mul, row, col)) for col in cols) for row in self.rows))

    def __add__(self, other):
        return _Block(tuple(tuple(map(add, a, b)) for a, b in zip(self.rows, other.rows)))

    def __radd__(self, zero):
        # the 0 a sum starts from
        return self


def _check_symmetric(A) -> list[list]:
    """``_square`` of A, unless its size is odd or it is not symmetric."""
    A = _square(A)
    m = len(A)
    if m % 2:
        raise ValueError("matrix size must be even")
    for p in range(m):
        for q in range(p + 1, m):
            if A[p][q] != A[q][p]:
                raise ValueError(f"matrix not symmetric at ({p},{q})")
    return A


def hafnian_matching(A, alpha):
    """Defining sum over all (2n-1)!! matchings of alpha**kappa * prod A[p][q],
    taken by ``matching_type_sums`` with a factor alpha per loop; exact for
    Fraction and int inputs."""
    A, alpha = _check_symmetric(A), _alpha(alpha)
    return matching_type_sums(range(len(A)), A, alpha)


def hafnian_expand(A, alpha):
    """Row/column expansion recurrence, memoized.

    States are sets of index pairs still to be matched; the value only depends
    on that set because hf_a is invariant under relabelings that permute the
    pairs or swap within a pair.
    """
    A, alpha = _check_symmetric(A), _alpha(alpha)
    m = len(A)
    check_sum_degree(m // 2)
    if m == 0:
        return 1
    memo: dict[tuple, object] = {}

    def rec(blocks: tuple[tuple[int, int], ...]):
        x, y = blocks[-1]
        if len(blocks) == 1:
            return alpha * A[x - 1][y - 1]
        val = memo.get(blocks)
        if val is not None:
            return val
        head = blocks[:-1]
        total = alpha * A[x - 1][y - 1] * rec(head)
        for bi, (a, b) in enumerate(head):
            for s, keep in ((a, b), (b, a)):
                # pair slot s with y, then s's old seat is taken by x
                new_pair = (keep, x) if keep < x else (x, keep)
                new_blocks = tuple(sorted(head[:bi] + (new_pair,) + head[bi + 1 :]))
                total = total + A[s - 1][y - 1] * rec(new_blocks)
        memo[blocks] = total
        return total

    start = tuple((2 * k + 1, 2 * k + 2) for k in range(m // 2))
    return rec(start)


def _canon_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    # rotate so the largest element sits last
    i = cycle.index(max(cycle))
    return cycle[i + 1 :] + cycle[: i + 1]


def _pair_edges(A):
    """edge(k, l) = A[k, l] J, the 2x2 block of A at pairs k, l (from 0) times
    the antidiagonal unit J, which swaps the block's two columns."""
    return lambda k, l: _Block(tuple((A[p][2 * l + 1], A[p][2 * l]) for p in (2 * k, 2 * k + 1)))


def cycle_functionals(A, cycle):
    """Return (P_c, Q_c, Q_{c inverse}) for a cycle on {1,...,n}.

    The cycle may be given in any rotation; it is normalized so its largest
    element comes last, the convention the Q sum is defined with.  The chain
    X = A[c_r, c_1] J A[c_1, c_2] J ... A[c_{r-1}, c_r] J from the largest
    element c_r gives P_c = tr X, Q_c = X[0, 0] and Q_{c inverse} = X[1, 1].
    """
    A = _check_symmetric(A)
    m = len(A)
    c = _canon_cycle(_as_ints(cycle, "cycle element", 1, m // 2))
    if len(set(c)) != len(c):
        raise ValueError(f"not a cycle on 1..{m // 2}: {cycle}")
    edge = _pair_edges(A)
    X = edge(c[-1] - 1, c[0] - 1)
    for k, l in zip(c, c[1:]):
        X = X @ edge(k - 1, l - 1)
    return X[0, 0] + X[1, 1], X[0, 0], X[1, 1]


def hafnian_permsum(A, alpha, variant: str = "Q"):
    """Permutation-sum form: sum over S_n of (alpha/2)**nu * P_pi, or of
    alpha**nu * Q_pi, depending on ``variant``; ``cycle_type_sums`` takes it
    from the chains of ``cycle_functionals``, with a factor alpha/2 or alpha
    per cycle."""
    A, alpha = _check_symmetric(A), _alpha(alpha)
    n = len(A) // 2
    if variant not in ("P", "Q"):
        raise ValueError("variant must be 'P' or 'Q'")
    if n == 0:
        return 1
    if variant == "P":
        half = Fraction(alpha, 2) if isinstance(alpha, int) else alpha / 2
        base, read = half, lambda X: X[0, 0] + X[1, 1]
    else:
        base, read = alpha, lambda X: X[0, 0]
    return cycle_type_sums(n, _pair_edges(A), read, base)


def alpha_permanent(M, alpha):
    """per_a(M) = sum over S_n of alpha**nu(pi) * prod M[i][pi(i)], taken by
    ``cycle_type_sums`` on 1x1 edges with a factor alpha per cycle."""
    M, alpha = _square(M), _alpha(alpha)
    return cycle_type_sums(len(M), lambda i, j: _Block(((M[i][j],),)), lambda X: X[0, 0], alpha)


def permanent_embedding(M) -> list[list]:
    """Interleave M into the 2n x 2n symmetric B with B[2i-1][2j] = M[i][j]
    (1-based) and zero odd-odd / even-even blocks, so hf_a(B) = per_a(M)."""
    M = _square(M)
    n = len(M)
    B = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            B[2 * i - 2][2 * j - 1] = M[i - 1][j - 1]
            B[2 * j - 1][2 * i - 2] = M[i - 1][j - 1]
    return B
