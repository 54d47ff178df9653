"""Alpha-hafnians of symmetric matrices by three independent routes.

hf_a(A) weights each perfect matching of the 2n row indices by a**kappa and
the product of matched entries.  Next to the defining matching sum, taken per
coset type by ``matchgroup.matching_type_sums``, there is a row/column
expansion recurrence and two permutation sums built from the cycle functionals
P and Q; all four must agree, which the test suite enforces.
Diagonal entries of A are never read.

The alpha-permanent embeds: per_a(M) = hf_a(B) for the interleaved doubling B
of M built by ``permanent_embedding``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

from .matchgroup import SizeLimitError, matching_type_sums
from .symcomb import Perm

MAX_HAFNIAN_SIZE = 16
MAX_PERMSUM_DEGREE = 7


def _check_symmetric(A) -> int:
    m = len(A)
    if m % 2:
        raise ValueError("matrix size must be even")
    for p in range(m):
        if len(A[p]) != m:
            raise ValueError("matrix must be square")
        for q in range(p + 1, m):
            if A[p][q] != A[q][p]:
                raise ValueError(f"matrix not symmetric at ({p},{q})")
    return m


def hafnian_matching(A, alpha):
    """Defining sum over all (2n-1)!! matchings of alpha**kappa * prod A[p][q],
    taken per coset type by ``matching_type_sums``; exact for Fraction and
    int inputs."""
    m = _check_symmetric(A)
    if m > MAX_HAFNIAN_SIZE:
        raise SizeLimitError(f"matching sum supports size <= {MAX_HAFNIAN_SIZE}")
    return sum(alpha ** len(ctype) * w for ctype, w in matching_type_sums(range(m), A).items())


def hafnian_expand(A, alpha):
    """Row/column expansion recurrence, memoized.

    States are sets of index pairs still to be matched; the value only depends
    on that set because hf_a is invariant under relabelings that permute the
    pairs or swap within a pair.
    """
    m = _check_symmetric(A)
    if m > MAX_HAFNIAN_SIZE:
        raise SizeLimitError(f"expansion supports size <= {MAX_HAFNIAN_SIZE}")
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


def _mat2(A, k: int, l: int):
    r, c = 2 * k - 2, 2 * l - 2
    return (A[r][c], A[r][c + 1], A[r + 1][c], A[r + 1][c + 1])


def _mul2(X, Y):
    a, b, c, d = X
    e, f, g, h = Y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _p_cycle(A, c: tuple[int, ...]):
    # tr(A[c1,c2] J A[c2,c3] J ... A[cr,c1] J) with J the antidiagonal unit;
    # right-multiplying by J swaps the two columns.
    r = len(c)
    chain = None
    for k in range(r):
        a, b, cc, d = _mat2(A, c[k], c[(k + 1) % r])
        block = (b, a, d, cc)  # A[c_k, c_{k+1}] J
        chain = block if chain is None else _mul2(chain, block)
    return chain[0] + chain[3]


def _q_cycle(A, c: tuple[int, ...]):
    r = len(c)
    if r == 1:
        return A[2 * c[0] - 2][2 * c[0] - 1]
    last = c[-1]
    total = 0
    choices = [((2 * ck - 1, 2 * ck), (2 * ck, 2 * ck - 1)) for ck in c[:-1]]
    for picks in product(*choices):
        js = [j for pair in picks for j in pair]
        term = A[2 * last - 2][js[0] - 1]
        for i in range(1, r - 1):
            term = term * A[js[2 * i - 1] - 1][js[2 * i] - 1]
        term = term * A[js[-1] - 1][2 * last - 1]
        total = total + term
    return total


def cycle_functionals(A, cycle):
    """Return (P_c, Q_c, Q_{c inverse}) for a cycle on {1,...,n}.

    The cycle may be given in any rotation; it is normalized so its largest
    element comes last, the convention the Q sum is defined with.
    """
    m = _check_symmetric(A)
    c = _canon_cycle(tuple(cycle))
    if len(set(c)) != len(c) or any(not 1 <= v <= m // 2 for v in c):
        raise ValueError(f"not a cycle on 1..{m // 2}: {cycle}")
    c_inv = tuple(reversed(c[:-1])) + (c[-1],)
    return _p_cycle(A, c), _q_cycle(A, c), _q_cycle(A, c_inv)


def hafnian_permsum(A, alpha, variant: str = "Q"):
    """Permutation-sum form: sum over S_n of (alpha/2)**nu * P_pi, or of
    alpha**nu * Q_pi, depending on ``variant``."""
    m = _check_symmetric(A)
    n = m // 2
    if n > MAX_PERMSUM_DEGREE:
        raise SizeLimitError(f"permutation sum supports n <= {MAX_PERMSUM_DEGREE}")
    if variant not in ("P", "Q"):
        raise ValueError("variant must be 'P' or 'Q'")
    if n == 0:
        return 1
    if variant == "P":
        base = Fraction(alpha, 2) if isinstance(alpha, int) else alpha / 2
    else:
        base = alpha
    total = 0
    for images in permutations(range(1, n + 1)):
        cycles = [_canon_cycle(c) for c in Perm(images).cycles()]
        term = base ** len(cycles)
        for c in cycles:
            term = term * (_p_cycle(A, c) if variant == "P" else _q_cycle(A, c))
        total = total + term
    return total


def alpha_permanent(M, alpha):
    """per_a(M) = sum over S_n of alpha**nu(pi) * prod M[i][pi(i)]."""
    n = len(M)
    if n > MAX_PERMSUM_DEGREE:
        raise SizeLimitError(f"alpha-permanent supports n <= {MAX_PERMSUM_DEGREE}")
    total = 0
    for images in permutations(range(1, n + 1)):
        term = alpha ** len(Perm(images).cycles())
        for i, j in enumerate(images):
            term = term * M[i][j - 1]
        total = total + term
    return total


def permanent_embedding(M) -> list[list]:
    """Interleave M into the 2n x 2n symmetric B with B[2i-1][2j] = M[i][j]
    (1-based) and zero odd-odd / even-even blocks, so hf_a(B) = per_a(M)."""
    n = len(M)
    B = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            B[2 * i - 2][2 * j - 1] = M[i - 1][j - 1]
            B[2 * j - 1][2 * i - 2] = M[i - 1][j - 1]
    return B
