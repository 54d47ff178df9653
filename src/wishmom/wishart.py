"""Closed-form moments of real Wishart matrices and their inverses.

Convention: W has moment generating function det(I - theta*sigma)**(-beta),
so E[W] = beta*sigma and, for integer 2*beta = p, W is a sum of p outer
products of N(0, sigma/2) vectors.  Textbook W_d(p, Sigma) corresponds to
p = 2*beta and Sigma = sigma/2.

Every inverse moment is the forward formula with one substitution: contract
against sigma^-1 instead of sigma, use the shifted shape gamma = beta - (d+1)/2
instead of beta, and weigh a matching of coset type rho by the inverse-Wishart
Weingarten value instead of (2 beta)^len(rho) / 2^n (on zonal and trace
moments: the eigenvalue (-1)^n 2^n / C_lam(-2 gamma) instead of
C_lam(2 beta) / 2^n).  Every table, the coset weights of both sides, the
power-trace coefficients at any mu over M_rho and the Haar weights, is read
from ``weingarten._point_table``, the bounded store per point and mu, and
one shape's eigenvalue from ``weingarten._point_eigenvalue``; ``_side``
picks the matrix and the shape, and refuses gamma <= 0, so every moment
below has one body for both sides.  Entrywise moments and trace products
take the forward weight as a factor per loop or cycle, which needs no coset
types.  The moments that weigh in floats (inverse entrywise and mixed
trace moments) read the float view the store keeps beside each table.
``mixed_trace_moment`` forms each distinct loop's trace word once per call,
in lockstep at every degree: one stacked numpy product per depth of the
loop forest and one vectorised walk for the types of all words, over arrays
built once per degree from ``matchgroup._word_table`` (``_lockstep_table``).

Two engines give every exact coefficient: sums over matchings per coset type
(``matching_type_sums``: entrywise and Haar moments) and the lambda-sum
behind that store (Weingarten values, power-trace coefficients).  Only
the contractions against the user-supplied sigma happen in floating point
(``weingarten._contract`` of the power-trace, trace-power and invariant
coefficients against the power sums tr(x^r)), and for the entrywise,
power-trace and trace-power moments they run on Python floats:
``WishartParams`` reads sigma into rows, checks it with a Python Cholesky
factorisation and takes sigma^-1 from that factor, and the
power sums tr(x^r) are Python matrix products (d is at most 8 or so, where
loading numpy costs more than the arithmetic), as is the density.
Sampling and the invariant, mixed and product trace moments stay on numpy,
through the ndarrays ``WishartParams`` builds on first read.  Each function
that makes an array imports numpy itself, so importing this module, or
computing a moment on the rows, loads no numpy.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain
from math import exp, isfinite, lgamma, log, pi, sqrt
from numbers import Real
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .matchgroup import (
    MAX_LISTED_DEGREE,
    _partners,
    _word_table,
    check_listed_degree,
    check_sum_degree,
    cycle_type_sums,
    label_matchings,
    matching_type_count,
    matching_type_sums,
    pair_loops,
)
from .symcomb import Partition, Perm, _Value, _as_fraction, _as_int, _as_ints, check_partition, partitions_of
from .weingarten import (
    DomainError,
    _contract,
    _point_cache,
    _point_eigenvalue,
    _point_table,
    _zonal_coeffs,
    check_degree,
    check_dimension,
)

if TYPE_CHECKING:
    import numpy as np

SYMMETRY_TOL = 1e-12


def admissible_beta(beta: Fraction, d: int) -> bool:
    """True when beta lies in {1/2, 1, ..., (d-1)/2} or beyond (d-1)/2."""
    beta, d = _as_fraction(beta, "beta"), _as_int(d, "d", 1)
    if beta > Fraction(d - 1, 2):
        return True
    twice = 2 * beta
    return twice.denominator == 1 and 1 <= twice.numerator <= d - 1


def gamma_regime(gamma: Fraction, n: int) -> str:
    """'standard' when gamma > n-1; 'analytic-continuation' for smaller positive
    gamma, where the formulas extend but only pole-freeness is checked."""
    gamma, n = _as_fraction(gamma, "gamma"), _as_int(n, "degree")
    if gamma > n - 1:
        return "standard"
    _require_positive_gamma(gamma)
    return "analytic-continuation"


def _require_positive_gamma(gamma: Fraction) -> None:
    """The one refusal of moments of W^-1 at degree n >= 1: DomainError
    unless gamma > 0."""
    if not gamma > 0:
        raise DomainError(f"gamma={gamma} must be positive for inverse moments")


def _shape(m) -> tuple[int, ...]:
    """The shape of the nested sequences m, read along their first entries."""
    shape = []
    while isinstance(m, (list, tuple)):
        shape.append(len(m))
        m = m[0] if m else None
    return tuple(shape)


def _real_rows(a, d: int | None, name: str, symmetric: bool = False) -> list[list[float]]:
    """a, an ndarray or a list or tuple of rows, as rows of Python floats:
    ValueError unless it is a square matrix of at least one row (d x d when d
    is given) of real numbers (no bool, complex or text) that are finite.
    With ``symmetric`` it comes back as (a + a^T) / 2, which leaves a
    symmetric a unchanged: DomainError unless a is symmetric to
    SYMMETRY_TOL times max(|a|, 1)."""
    m = a.tolist() if hasattr(a, "tolist") else a  # an ndarray's entries as Python numbers
    try:
        rows = [list(row) for row in m] if isinstance(m, (list, tuple)) else []
    except TypeError:  # a row that is a scalar
        rows = []
    shape = _shape(rows or m)
    square = len(shape) == 2 and shape[0] == shape[1] and all(len(r) == shape[0] for r in rows)
    if not square or d not in (None, shape[0]):
        size = "" if d is None else f" of size {d}"
        raise ValueError(f"{name} must be a square matrix{size}, got shape {getattr(a, 'shape', shape)}")
    for row in rows:
        for v in row:
            if type(v) is not float and (not isinstance(v, Real) or isinstance(v, bool)):
                raise ValueError(f"{name} must be real, got {v!r}")
    rows = [[float(v) for v in row] for row in rows]
    if not all(isfinite(v) for row in rows for v in row):
        raise ValueError(f"{name} has non-finite entries")
    if not symmetric:
        return rows
    cols = list(zip(*rows))
    scale = max(1.0, *(abs(v) for row in rows for v in row))
    if max(abs(v - w) for row, col in zip(rows, cols) for v, w in zip(row, col)) > SYMMETRY_TOL * scale:
        raise DomainError(f"{name} is not symmetric")
    return [[(v + w) / 2 for v, w in zip(row, col)] for row, col in zip(rows, cols)]


def _cholesky(a: list[list[float]]) -> list[list[float]] | None:
    """The lower Cholesky factor of the symmetric a as rows (row i holds
    columns 0..i), or None when a pivot is not positive, the test LAPACK's
    potrf makes: a is then not positive definite."""
    factor: list[list[float]] = []
    for i, row in enumerate(a):
        li: list[float] = []
        for j in range(i):
            li.append((row[j] - sum(map(mul, li, factor[j]))) / factor[j][j])
        pivot = row[i] - sum(map(mul, li, li))
        if not pivot > 0:
            return None
        li.append(sqrt(pivot))
        factor.append(li)
    return factor


def _inverse_from_factor(factor: list[list[float]]) -> list[list[float]]:
    """a^-1 = L^-T L^-1 as rows, from the Cholesky factor L of a."""
    d = len(factor)
    inv_l = [[0.0] * d for _ in range(d)]  # L^-1, by forward substitution
    for i, li in enumerate(factor):
        for j in range(i):
            inv_l[i][j] = -sum(li[k] * inv_l[k][j] for k in range(j, i)) / li[i]
        inv_l[i][i] = 1.0 / li[i]
    cols = list(zip(*inv_l))
    return [[sum(map(mul, ca, cb)) for cb in cols] for ca in cols]


class WishartParams(_Value):
    """Dimension, shape and scale of one Wishart law; sigma must be symmetric PD.
    An immutable value of (d, beta, sigma_rows), so that nothing read from
    it, ``gamma`` or the inverse side included, goes stale.

    sigma is read once, into ``sigma_rows``, symmetrised Python floats, and a
    Python Cholesky factorisation of those rows is the positive-definiteness
    check; its factor gives ``sigma_inv_rows``.  Both are tuples of tuples.
    The entrywise, power-trace and trace-power moments and ``log_density``
    read these rows.  ``sigma``, ``sigma_inv`` and ``chol`` are read-only
    ndarrays built on their first read, for the readers that stay on numpy
    (sampling, ``invariant_moment``, ``mixed_trace_moment``,
    ``trace_product_moment``).
    """

    _fields = ("d", "beta", "sigma_rows")

    def __init__(self, d: int, beta: Fraction, sigma):
        d, beta = _as_int(d, "d", 1), _as_fraction(beta, "beta")
        rows = _real_rows(sigma, d, "sigma", symmetric=True)
        factor = _cholesky(rows)
        if factor is None:
            raise DomainError("sigma is not positive definite")
        if not admissible_beta(beta, d):
            raise DomainError(f"beta={beta} not admissible for d={d}")
        gamma = beta - Fraction(d + 1, 2)
        fields = {"d": d, "beta": beta, "gamma": gamma, "sigma_rows": _frozen(rows), "_factor": factor}
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:
        return f"WishartParams(d={self.d}, beta={self.beta!r}, sigma={[list(row) for row in self.sigma_rows]!r})"

    @cached_property
    def sigma_inv_rows(self) -> tuple[tuple[float, ...], ...]:
        return _frozen(_inverse_from_factor(self._factor))

    @cached_property
    def sigma(self) -> np.ndarray:
        return _read_only(self.sigma_rows)

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        return _read_only(self.sigma_inv_rows)

    @cached_property
    def chol(self) -> np.ndarray:
        # The one second factorisation: the samplers scale every draw by this
        # factor, and LAPACK's blocked potrf may round differently from the
        # Python factor of the check, so seeded draws stay bit-identical only
        # with LAPACK's.  A pivot the two round to opposite signs would be the
        # same DomainError as the check's.
        import numpy as np

        try:
            return _read_only(np.linalg.cholesky(self.sigma))
        except np.linalg.LinAlgError as exc:
            raise DomainError("sigma is not positive definite") from exc


def _frozen(rows: list[list[float]]) -> tuple[tuple[float, ...], ...]:
    return tuple(map(tuple, rows))


def _read_only(a) -> np.ndarray:
    """a as a new ndarray that refuses writes."""
    import numpy as np

    out = np.array(a)
    out.flags.writeable = False
    return out


class MomentSpec(_Value):
    """Index list k_1..k_2n (1-based) of an entrywise product moment: an
    immutable value, equal to and hashed as the (indices, inverse) pair."""

    __slots__ = _fields = ("indices", "inverse")

    def __init__(self, indices: Sequence[int], inverse: bool = False):
        indices = _as_ints(indices, "index", 1)
        if len(indices) % 2:
            raise ValueError("index list must have even length")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "inverse", inverse)

    @property
    def degree(self) -> int:
        return len(self.indices) // 2


def _side(params: WishartParams, inverse: bool) -> tuple[list[list[float]], Fraction]:
    """(sigma, beta) for moments of W; (sigma^-1, gamma) for moments of W^-1,
    DomainError unless gamma > 0; the matrix as the rows of ``params``.
    Callers return degree 0 first, so at degree n >= 1 this refuses what
    ``gamma_regime`` refuses, with its message."""
    if inverse:
        _require_positive_gamma(params.gamma)
        return params.sigma_inv_rows, params.gamma
    return params.sigma_rows, params.beta


# read by the benchmark's inverse-table counters until ROADMAP item 3 step 2; they count every point table
_inv_wg_table = _point_cache


def moment(params: WishartParams, spec: MomentSpec) -> float:
    """E[W_{k1 k2} ... W_{k_{2n-1} k_{2n}}], or the same product of entries of
    W^-1 when ``spec.inverse``: the sum over matchings of the coset weight of
    their type times prod x[k_p, k_q], x = sigma or sigma^-1, through
    ``matching_type_sums`` rather than over the (2n-1)!! matchings.  The
    forward weight (2 beta)^kappa / 2^n is a factor 2 beta per loop, so that
    sum takes the scalar partition stage in O(3^n); the Weingarten weights of
    the inverse side need the per-type sums, in O(3^n p(n)).

    Inverse moments hold for gamma > n-1 and, by analytic continuation, for any
    positive gamma avoiding the poles (those raise PoleError).
    """
    n = spec.degree
    if n == 0:
        return 1.0
    _check_indices(params, spec.indices)
    x, shape = _side(params, spec.inverse)
    weights = _point_table(n, "gamma", shape).floats if spec.inverse else None
    labels = [k - 1 for k in spec.indices]
    if weights is None:
        # dividing by a power of two is exact
        return matching_type_sums(labels, x, float(2 * shape)) / 2**n
    sums = matching_type_sums(labels, x)
    return sum(weights[rho] * w for rho, w in sums.items())


def _check_indices(params: WishartParams, indices: Sequence[int]) -> None:
    """``moment``'s first refusal: ValueError unless every index of a
    nonempty list is at most d (``MomentSpec`` read them as positive ints)."""
    _as_int(max(indices), "index", 1, params.d)


def inverse_moment(params: WishartParams, spec: MomentSpec) -> float:
    """E[W^{k1 k2} ... W^{k_{2n-1} k_{2n}}]: ``moment`` of the entries of W^-1,
    whatever ``spec.inverse`` says."""
    return moment(params, MomentSpec(spec.indices, inverse=True))


def trace_product_moment(params: WishartParams, s_list: Sequence[np.ndarray]) -> float:
    """E[prod_i tr(W s_i)] = sum over permutations of beta**nu * products of
    traces tr(sigma s_{c1} sigma s_{c2} ...) along cycles, taken by
    ``cycle_type_sums`` with the steps i -> j = sigma s_j and a factor beta
    per cycle.  Degree 0 is the empty product, 1.0."""
    import numpy as np

    steps = [params.sigma @ np.array(s) for s in _trace_product_factors(params, s_list)]
    return float(cycle_type_sums(len(steps), lambda i, j: steps[j], np.trace, float(params.beta)))


def _trace_product_factors(params: WishartParams, s_list: Sequence) -> list[list[list[float]]]:
    """The factors of ``trace_product_moment``, each read as a symmetric
    d x d matrix, then their number checked against the cap: its refusals
    that read no table."""
    factors = [_real_rows(s, params.d, "trace-product factor", True) for s in s_list]
    check_sum_degree(len(factors))
    return factors


def paired_contraction(g: Perm, x: np.ndarray, ms: Sequence[np.ndarray]) -> float:
    """T_g(x; m_1..m_n): contract m_k row/col indices at slots (2k-1, 2k)
    against symmetric-x links between slots g(2i-1) and g(2i).

    The pairing makes the contraction a product of trace words, one per loop
    of ``pair_loops(g.images)``: a base pair entered at its row slot adds m_k,
    one entered at its column slot adds m_k transposed, and x links them.
    """
    import numpy as np

    if g.size != 2 * len(ms):
        raise ValueError("pattern size must be twice the number of matrices")
    x = _real_rows(x, None, "x")
    mats = [np.array(_real_rows(m, len(x), "factor")) for m in ms]
    return _loop_contraction(list(pair_loops(g.images)), np.array(x), _slot_factors(mats))


def _slot_factors(ms: Sequence[np.ndarray]) -> list:
    """Entry s (from 1) is the factor a loop adds on entering base pair
    (s + 1) // 2 at slot s: m_k at its row slot 2k-1, m_k.T at 2k."""
    factors = [None]
    for m in ms:
        factors += (m, m.T)
    return factors


def _loop_contraction(loops: Sequence[Sequence[int]], x: np.ndarray, factors: Sequence[np.ndarray]) -> float:
    """The product, left to right from 1.0, of tr(f_1 x f_2 x ... f_L x) over
    the loops, each given by its entry slots s_1..s_L, f_i = factors[s_i]."""
    total = 1.0
    for slots in loops:
        word = factors[slots[0]]
        for s in slots[1:]:
            word = word @ x
            word = word @ factors[s]
        total *= (word @ x).trace()
    return total


def mixed_trace_moment(
    params: WishartParams, g: Perm, ms: Sequence[np.ndarray], inverse: bool = False
) -> float:
    """E[T_g(W^{+-1}; m_1..m_n)] as a sum over the matching words m of the
    paired contractions of sigma^{+-1}, each weighted by the coset weight of
    the type of g^-1 m, added in word order.  Relabelled by g, that type is
    the loop type of m's pairs against g's image pairs.  The weights are the
    float view of the stored table of the point.

    Each contraction is a product of loop traces, and ``_lockstep_table``
    lists the degree's distinct loops parents first, so each loop's trace
    word is formed once per call, from its parent's: word = (parent word @
    x) @ f_s (f_s alone with no parent), and the loop's value is
    (word @ x).trace().  These are the operations of ``_loop_contraction``
    in its order, and each word's loop values are multiplied left to right
    from 1.0, so every value is the one a loop-by-loop contraction gives;
    ``_lockstep_sum`` does them as stacked array operations at every
    degree.  Degree 0 is the empty product, 1.0."""
    import numpy as np

    n = len(ms)
    if n:  # the sum lists the matching words
        check_listed_degree(n)
    if g.size != 2 * n:
        raise ValueError("pattern size must be twice the number of matrices")
    if n == 0:
        return 1.0
    mats = [np.array(_real_rows(m, params.d, "factor")) for m in ms]
    g_pairs = _partners(g.images)
    _, shape = _side(params, inverse)
    x = params.sigma_inv if inverse else params.sigma
    weights = _point_table(n, "gamma" if inverse else "beta", shape).floats
    return _lockstep_sum(mats, x, g_pairs, weights)


def _lockstep_sum(mats: list, x: np.ndarray, g_pairs: list[int], weights: dict[Partition, float]) -> float:
    """The sum of ``mixed_trace_moment`` over the n = len(mats) pairs, as
    stacked array operations over the arrays of ``_lockstep_table(n)``: g_pairs
    is g's partner array and weights the coset weights by type.  Each
    stacked product, trace and float product is the 2-D one of a
    loop-by-loop contraction, in its order, so with its bits.

    The slot factors go into one (2n+1, d, d) stack, m_k.T copied
    contiguous.  Each depth of the loop forest is one stacked product
    (closed[parents] @ F[slots]) @ x, and the traces are one ``np.trace``.
    Each word's term is its loop values multiplied column by column from
    the first, the padding reading 1.0.  The type of g^-1 m comes, for all
    words m at once, from the permutation pi = g_pairs[partner] of the
    slots: a loop of L pairs of m against g's pairs is two pi-cycles of
    length L.  So the number of slots that pi^t fixes, t = 1..n, gives by
    Moebius inversion the slots on cycles of each length L, 2L per loop.
    The terms are added in word order by a cumulative sum (``np.sum``
    would add them pairwise)."""
    import numpy as np

    n, d = len(mats), len(x)
    levels, ids, partners, flat, mobius, loop_slots, radix, type_index = _lockstep_table(n)
    stack = np.empty((2 * n + 1, d, d))  # entry 0 is never read
    stack[1::2] = mats
    stack[2::2] = np.transpose(mats, (0, 2, 1))
    closed = np.empty((levels[-1][1], d, d))
    for lo, hi, parents, slots in levels:
        word = stack[slots] if parents is None else closed[parents] @ stack[slots]
        np.matmul(word, x, out=closed[lo:hi])
    values = np.append(np.trace(closed, axis1=1, axis2=2), 1.0)
    term = values[ids[:, 0]]
    for col in ids.T[1:]:
        term = term * values[col]
    # pi as positions in the flattened (K, 2n) array of the words' slots
    pi = ((np.array(g_pairs[1:]) - 1)[partners] + flat[:, :1]).ravel()
    at = flat
    fixed = np.empty((n, len(at)), dtype=np.intp)
    for t in range(n):
        at = pi[at]
        fixed[t] = np.count_nonzero(at == flat, axis=1)
    counts = mobius @ fixed // loop_slots
    w = np.array(list(weights.values()))[type_index[radix @ counts]]
    # the loop's sum starts from 0.0, which turns a sum of -0.0 terms into 0.0
    return 0.0 + np.cumsum(w * term)[-1]


@lru_cache(maxsize=MAX_LISTED_DEGREE)
def _lockstep_table(n: int) -> tuple:
    """(levels, ids, partners, flat, mobius, loop_slots, radix, type_index),
    the arrays of ``_lockstep_sum`` at n pairs, from ``_word_table(n)``,
    which checks n first, so the cache holds at most MAX_LISTED_DEGREE
    degrees.  With K words:

    - ``levels``: the loop forest.  Every prefix s_1..s_L of the entry slots
      of a loop of ``pair_loops(word)`` is itself the loop of some word, so
      the degree's distinct loops, sum over k of C(n, k) (k-1)! 2^(k-1) of
      them (729 at n = 5), are numbered by depth L (their number of pairs),
      in order of first sight within a depth.  Per depth (lo, hi, parents,
      slots): the loops of the depth are numbers lo..hi-1, their parents'
      numbers, those of their prefixes s_1..s_(L-1) (None at depth 1), and
      their last entry slots s_L;
    - ``ids``: the (K, n) loop numbers of each word, in order, padded with
      the number of loops, the index of the 1.0 appended to their values;
    - ``partners``: the (K, 2n) partner arrays of the slots 0..2n-1, and
      ``flat`` the positions of those slots in the flattened array;
    - ``mobius`` @ (slots that pi^t fixes, t = 1..n) is the slots on cycles
      of length L = 1..n, ``loop_slots`` 2L of them per loop;
    - the type with c_L loops of L pairs has the code ``radix`` @ c, in
      mixed radix n // L + 1, and ``type_index[code]`` is its index in
      ``partitions_of(n)``."""
    import numpy as np

    rows = _word_table(n)
    depths: list[dict[tuple[int, ...], int]] = [{} for _ in range(n)]  # prefix -> number within its depth
    word_loops = []
    for word, _, _ in rows:
        loops = [tuple(slots) for slots in pair_loops(word)]
        for loop in loops:
            for size in range(1, len(loop) + 1):
                depths[size - 1].setdefault(loop[:size], len(depths[size - 1]))
        word_loops.append(loops)
    offsets = list(accumulate(map(len, depths), initial=0))
    levels = []
    for level, prefixes in enumerate(depths):
        parents = None if level == 0 else np.array([offsets[level - 1] + depths[level - 1][p[:-1]] for p in prefixes])
        levels.append((offsets[level], offsets[level + 1], parents, np.array([p[-1] for p in prefixes])))
    ids = np.full((len(rows), n), offsets[-1])
    for k, loops in enumerate(word_loops):
        ids[k, : len(loops)] = [offsets[len(loop) - 1] + depths[len(loop) - 1][loop] for loop in loops]
    partners = np.array([partner[1:] for _, partner, _ in rows]) - 1
    lengths = range(1, n + 1)
    # pi^L fixes the slots on cycles of the lengths k dividing L
    mobius = np.eye(n, dtype=np.intp)
    for length in lengths:
        for k in range(1, length):
            if length % k == 0:
                mobius[length - 1] -= mobius[k - 1]
    radix = [1]
    for length in lengths[:-1]:
        radix.append(radix[-1] * (n // length + 1))
    type_index = np.full(radix[-1] * 2, -1)
    for k, rho in enumerate(partitions_of(n)):
        type_index[sum(radix[length - 1] for length in rho)] = k
    flat = np.arange(partners.size).reshape(partners.shape)
    return levels, ids, partners, flat, mobius, 2 * np.array(lengths)[:, None], np.array(radix), type_index


def _power_sums(x: list[list[float]], n: int) -> dict[int, float]:
    """tr(x^r), r = 1..n, of the symmetric x given as rows: x^a and x^b are
    symmetric, so tr(x^(a+b)) sums the entrywise product of x^a and x^b, and
    the powers up to x^h, h = ceil(n/2), take h - 1 matrix products (in which
    the rows of x are its columns)."""
    powers = [x]
    for _ in range(1, (n + 1) // 2):
        powers.append([[sum(map(mul, row, col)) for col in x] for row in powers[-1]])
    flat = [list(chain(*p)) for p in powers]
    out = {1: sum(row[i] for i, row in enumerate(x))}
    for r in range(2, n + 1):
        out[r] = sum(map(mul, flat[r // 2 - 1], flat[r - r // 2 - 1]))
    return out


def _ndarray_power_sums(x: np.ndarray, n: int) -> dict[int, float]:
    """tr(x^r), r = 1..n, by numpy products, for ``invariant_moment``."""
    import numpy as np

    out, acc = {}, np.eye(len(x))
    for r in range(1, n + 1):
        acc = acc @ x
        out[r] = float(np.trace(acc))
    return out


def invariant_moment(params: WishartParams, lam: Partition, inverse: bool = False) -> float:
    """E[Z_lam(W^{+-1})] = e_lam Z_lam(sigma^{+-1}), the eigenvalue e_lam
    = C_lam(2 beta) / 2^n, or (-1)^n 2^n / C_lam(-2 gamma), read by
    ``weingarten._point_eigenvalue``: a pole only when lam's own term is one.
    Power sums only, no eigendecomposition.

    The power sums stay numpy's (``_ndarray_power_sums``): when lam has more
    parts than d, Z_lam(sigma) is exactly 0 and the float value is rounding
    noise, and the benchmark's reference outputs record numpy's noise there
    (E[Z_(1,1,1,1)(W)] at d = 3 is -2.9e-06), which Python sums do not
    reproduce.  ROADMAP items 6 and 19 (step 2) have the follow-up."""
    lam = check_partition(lam)
    if not lam:  # the empty shape, Z = 1, on either side, whatever gamma is
        return 1.0
    n = check_degree(sum(lam))
    _, shape = _side(params, inverse)
    e = _point_eigenvalue(lam, "gamma" if inverse else "beta", shape)
    return e * _contract(_zonal_coeffs(lam), _ndarray_power_sums(params.sigma_inv if inverse else params.sigma, n))


def power_trace_coeffs(mu: Partition, shape: Fraction, inverse: bool = False) -> dict[Partition, Fraction]:
    """Exact coefficients c_rho with E[p_mu(W^{+-1})] = sum c_rho p_rho(sigma^{+-1}).

    ``shape`` is beta on the forward side and gamma on the inverse side.
    c_rho is M_rho times the stored table of the point and mu,
    ``weingarten._point_table``: the sum over lam of the eigenvalues e_lam
    times omega^lam(mu), which at mu = (1^n) is the coset weight of rho.
    """
    mu, shape = check_partition(mu), _as_fraction(shape, "shape")
    if not mu:
        return {(): 1}
    table = _point_table(sum(mu), "gamma" if inverse else "beta", shape, mu)
    return {rho: matching_type_count(rho) * c for rho, c in table.items()}


def power_trace_moment(params: WishartParams, mu: Partition, inverse: bool = False) -> float:
    """E[prod_i tr((W^{+-1})^{mu_i})] with exact coefficients on p_rho(sigma^{+-1})."""
    mu = check_partition(mu)
    if not mu:  # the empty product, p_() = 1, on either side, whatever gamma is
        return 1.0
    n = check_degree(sum(mu))
    x, shape = _side(params, inverse)
    return _contract(power_trace_coeffs(mu, shape, inverse), _power_sums(x, n))


def trace_power_coeffs(n: int, shape: Fraction, inverse: bool = False) -> dict[Partition, Fraction]:
    """Exact coefficients with E[(tr W^{+-1})^n] = sum c_rho p_rho(sigma^{+-1}):
    ``power_trace_coeffs`` at mu = (1^n)."""
    n, shape = _as_int(n, "degree", 0), _as_fraction(shape, "shape")
    if n:  # the degree is checked before (1,) * n is built
        check_degree(n)
    return power_trace_coeffs((1,) * n, shape, inverse)


def trace_power_moment(params: WishartParams, n: int, inverse: bool = False) -> float:
    """E[(tr W)^n] or E[(tr W^-1)^n]: ``power_trace_moment`` at mu = (1^n)."""
    n = _as_int(n, "degree", 0)
    if n:  # the degree is checked before (1,) * n is built
        check_degree(n)
    return power_trace_moment(params, (1,) * n, inverse)


# The exact half of each moment kind of ``MomentKind``: its argument checked,
# its degree, and its moment E[f(W^{+-1})] at (params, argument, inverse).
# Each moment is looked up in this module when it is computed, so a wrapper
# set on the module attribute runs.
_KINDS = {
    "entries": (lambda k: MomentSpec(k).indices, lambda k: len(k) // 2, lambda p, k, inv: moment(p, MomentSpec(k, inv))),
    "trace_power": (lambda n: _as_int(n, "power", 0), lambda n: n, lambda p, n, inv: trace_power_moment(p, n, inv)),
    "power_trace": (check_partition, sum, lambda p, mu, inv: power_trace_moment(p, mu, inv)),
    "invariant": (check_partition, sum, lambda p, lam, inv: invariant_moment(p, lam, inv)),
}


class MomentKind(_Value):
    """E[f(W)] or E[f(W^-1)] for one kind of f at one argument: "entries"
    (an index list k, f a product of entries as in ``moment``),
    "trace_power" (n, f = (tr x)^n), "power_trace" (a partition mu, f =
    p_mu(x)) or "invariant" (a partition lam, f = Z_lam(x)), the names of
    the ``wishmom moment`` flags.  The argument is checked and kept as read
    in ``arg``; ``order`` is the degree of f, ``target`` its exact moment
    and ``check`` the refusals of ``target`` that read no table.  An
    immutable value of (kind, arg, inverse).  montecarlo's
    descriptors pair it with their sampled values."""

    __slots__ = ("kind", "arg", "inverse", "order")
    _fields = ("kind", "arg", "inverse")

    def __init__(self, kind: str, arg, inverse: bool = False):
        check, degree, _ = _KINDS[kind]
        arg = check(arg)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "arg", arg)
        object.__setattr__(self, "inverse", inverse)
        object.__setattr__(self, "order", degree(arg))

    def check(self, params: WishartParams) -> None:
        """Refuse, with ``target``'s error, an index past ``params.d`` or a
        degree past the cap, before any table is built.  gamma is not read:
        gamma <= 0 on the inverse side stays ``target``'s refusal."""
        if self.order:
            if self.kind == "entries":
                _check_indices(params, self.arg)
            check_degree(self.order)

    def target(self, params: WishartParams) -> float:
        return _KINDS[self.kind][2](params, self.arg, self.inverse)


def _log_multigamma(a: float, d: int) -> float:
    """log Gamma_d(a) = d(d-1)/4 log(pi) + sum_{j<d} log Gamma(a - j/2)."""
    return d * (d - 1) / 4 * log(pi) + sum(lgamma(a - j / 2) for j in range(d))


def _log_det(factor: list[list[float]]) -> float:
    """log det a = 2 sum_i log L_ii, from the Cholesky factor L of a."""
    return 2 * sum(log(row[-1]) for row in factor)


def log_density(params: WishartParams, w) -> float:
    """Log density at a symmetric positive definite d x d w; needs beta > (d-1)/2.

    The log determinants come from Python Cholesky factors and tr(sigma^-1 w)
    from ``sigma_inv_rows``; no numpy runs."""
    d = params.d
    beta = float(params.beta)
    if params.beta <= Fraction(d - 1, 2):
        raise DomainError(f"density requires beta > (d-1)/2, got beta={params.beta}")
    w = _real_rows(w, d, "w", True)
    factor = _cholesky(w)
    if factor is None:
        raise DomainError("w is not positive definite")
    return (
        -_log_multigamma(beta, d)
        - beta * _log_det(params._factor)
        + (beta - (d + 1) / 2) * _log_det(factor)
        - sum(map(mul, chain(*params.sigma_inv_rows), chain(*w)))
    )


def density(params: WishartParams, w) -> float:
    return exp(log_density(params, w))


def _haar_degree(i_idx: Sequence[int], j_idx: Sequence[int]) -> int | None:
    """The degree of a Haar moment, len / 2, or None for an odd length, whose
    moment is exactly 0: ValueError unless the index lists have equal
    length, and ``check_listed_degree``, as the column matchings are listed."""
    if len(i_idx) != len(j_idx):
        raise ValueError("row and column index lists must have equal length")
    if len(i_idx) % 2:
        return None
    n = len(i_idx) // 2
    if n:
        check_listed_degree(n)
    return n


def haar_moment(i_idx: Sequence[int], j_idx: Sequence[int], N: int) -> Fraction:
    """Exact E[O_{i1 j1} ... O_{ik jk}] for a Haar orthogonal N x N matrix.

    Odd k gives exactly zero.  Otherwise it sums the truncated Weingarten
    value (valid for every N >= 1) at the coset type of m^-1 n over matchings
    m pairing equal row indices and n pairing equal column indices.  With the
    slots relabelled so that n's pairs are the base pairs, that is the coset
    type of the relabelled m; so ``matching_type_sums`` counts the m per type,
    with the row indices in the slot order of n's pairs as labels and the 0/1
    identity as x.
    """
    N = check_dimension(N)
    i_idx = _as_ints(i_idx, "row index", 1, N)
    j_idx = _as_ints(j_idx, "column index", 1, N)
    n = _haar_degree(i_idx, j_idx)
    if n is None:
        return Fraction(0)
    if n == 0:
        return Fraction(1)
    rows = set(i_idx)
    delta = {a: {b: int(a == b) for b in rows} for a in rows}
    # the n pairing equal column indices, grouped by the row labels they give
    groups = Counter(tuple(i_idx[s - 1] for s in seq) for seq in label_matchings(j_idx))
    counts = Counter()
    for labels, mult in groups.items():
        for rho, c in matching_type_sums(labels, delta).items():
            counts[rho] += mult * c
    if not any(counts.values()):
        return Fraction(0)
    wg = _point_table(n, "N", N)
    return sum(c * wg[rho] for rho, c in counts.items())
