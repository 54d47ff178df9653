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
from numbers import Integral, Number

from . import _numpy
from .matchgroup import check_sum_degree, cycle_type_sums, matching_type_sums
from .symcomb import _as_fraction, _as_ints

np = _numpy()


def _alpha(alpha):
    """alpha once ``symcomb._as_fraction`` reads it as a finite rational: a
    float as given, an integer as an int, anything else (a string, say) as its
    Fraction; so int, Fraction and float inputs keep their arithmetic."""
    a = _as_fraction(alpha, "alpha")
    if isinstance(alpha, float):
        return alpha
    return int(a) if isinstance(alpha, Integral) else a


def _square(M) -> int:
    """The size of the square M, [] being 0 x 0; ValueError for any other
    shape, or for an entry that is not a number or is a bool."""
    entries = np.array(M, dtype=object)
    shape = entries.shape
    if shape != (0,) and (len(shape) != 2 or shape[0] != shape[1]):
        raise ValueError("matrix must be square")
    for (p, q), v in np.ndenumerate(entries):
        if not isinstance(v, Number) or isinstance(v, bool):
            raise ValueError(f"matrix entry at ({p},{q}) must be a number, got {v!r}")
    return shape[0]


def _check_symmetric(A) -> int:
    m = _square(A)
    if m % 2:
        raise ValueError("matrix size must be even")
    for p in range(m):
        for q in range(p + 1, m):
            if A[p][q] != A[q][p]:
                raise ValueError(f"matrix not symmetric at ({p},{q})")
    return m


def hafnian_matching(A, alpha):
    """Defining sum over all (2n-1)!! matchings of alpha**kappa * prod A[p][q],
    taken by ``matching_type_sums`` with a factor alpha per loop; exact for
    Fraction and int inputs."""
    m, alpha = _check_symmetric(A), _alpha(alpha)
    return matching_type_sums(range(m), A, alpha)


def hafnian_expand(A, alpha):
    """Row/column expansion recurrence, memoized.

    States are sets of index pairs still to be matched; the value only depends
    on that set because hf_a is invariant under relabelings that permute the
    pairs or swap within a pair.
    """
    m, alpha = _check_symmetric(A), _alpha(alpha)
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
    AJ = np.array(A, dtype=object)[:, [q ^ 1 for q in range(len(A))]]
    return lambda k, l: AJ[2 * k : 2 * k + 2, 2 * l : 2 * l + 2]


def cycle_functionals(A, cycle):
    """Return (P_c, Q_c, Q_{c inverse}) for a cycle on {1,...,n}.

    The cycle may be given in any rotation; it is normalized so its largest
    element comes last, the convention the Q sum is defined with.  The chain
    X = A[c_r, c_1] J A[c_1, c_2] J ... A[c_{r-1}, c_r] J from the largest
    element c_r gives P_c = tr X, Q_c = X[0, 0] and Q_{c inverse} = X[1, 1].
    """
    m = _check_symmetric(A)
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
    n, alpha = _check_symmetric(A) // 2, _alpha(alpha)
    if variant not in ("P", "Q"):
        raise ValueError("variant must be 'P' or 'Q'")
    if n == 0:
        return 1
    if variant == "P":
        base = Fraction(alpha, 2) if isinstance(alpha, int) else alpha / 2
        read = np.trace
    else:
        base, read = alpha, lambda X: X[0, 0]
    return cycle_type_sums(n, _pair_edges(A), read, base)


def alpha_permanent(M, alpha):
    """per_a(M) = sum over S_n of alpha**nu(pi) * prod M[i][pi(i)], taken by
    ``cycle_type_sums`` on 1x1 edges with a factor alpha per cycle."""
    n, alpha = _square(M), _alpha(alpha)
    B = np.array(M, dtype=object)
    return cycle_type_sums(n, lambda i, j: B[i : i + 1, j : j + 1], lambda X: X[0, 0], alpha)


def permanent_embedding(M) -> list[list]:
    """Interleave M into the 2n x 2n symmetric B with B[2i-1][2j] = M[i][j]
    (1-based) and zero odd-odd / even-even blocks, so hf_a(B) = per_a(M)."""
    n = _square(M)
    B = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            B[2 * i - 2][2 * j - 1] = M[i - 1][j - 1]
            B[2 * j - 1][2 * i - 2] = M[i - 1][j - 1]
    return B
