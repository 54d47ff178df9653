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
types.  ``mixed_trace_moment`` forms each distinct loop's trace word once
per call, from the loop list of ``matchgroup._word_table``.

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
from functools import cached_property
from itertools import chain
from math import exp, isfinite, lgamma, log, pi, sqrt
from numbers import Real
from operator import mul
from typing import TYPE_CHECKING, Sequence

from .matchgroup import (
    _pairing_type,
    _partners,
    _word_table,
    check_listed_degree,
    cycle_type_sums,
    label_matchings,
    matching_type_count,
    matching_type_sums,
    pair_loops,
)
from .symcomb import Partition, Perm, _Value, _as_fraction, _as_int, _as_ints, check_partition
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
    _as_int(max(spec.indices), "index", 1, params.d)  # MomentSpec read them as positive ints
    x, shape = _side(params, spec.inverse)
    weights = _point_table(n, "gamma", shape) if spec.inverse else None
    labels = [k - 1 for k in spec.indices]
    if weights is None:
        # dividing by a power of two is exact
        return matching_type_sums(labels, x, float(2 * shape)) / 2**n
    sums = matching_type_sums(labels, x)
    return sum(float(weights[rho]) * w for rho, w in sums.items())


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

    steps = [params.sigma @ np.array(_real_rows(s, params.d, "trace-product factor", True)) for s in s_list]
    return float(cycle_type_sums(len(steps), lambda i, j: steps[j], np.trace, float(params.beta)))


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
    the loop type of m's pairs against g's image pairs, read off the partner
    arrays of ``_word_table``.

    Each contraction is a product of loop traces, and the table lists the
    degree's distinct loops parents first, so each loop's trace word is
    formed once per call, from its parent's: word = (parent word @ x) @ f_s
    (f_s alone with no parent), and the loop's value is (word @ x).trace().
    These are the operations of ``_loop_contraction`` in its order, and each
    word's loop values are multiplied left to right from 1.0, so every value
    is the one a loop-by-loop contraction gives.  Degree 0 is the empty
    product, 1.0."""
    import numpy as np

    n = len(ms)
    if n:  # the sum lists the matching words
        check_listed_degree(n)
    if g.size != 2 * n:
        raise ValueError("pattern size must be twice the number of matrices")
    if n == 0:
        return 1.0
    factors = _slot_factors([np.array(_real_rows(m, params.d, "factor")) for m in ms])
    g_pairs = _partners(g.images)
    _, shape = _side(params, inverse)
    x = params.sigma_inv if inverse else params.sigma
    weights = {rho: float(w) for rho, w in _point_table(n, "gamma" if inverse else "beta", shape).items()}
    words, loops = _word_table(n)
    closed = []  # (loop word) @ x per loop
    for parent, s in loops:
        closed.append((factors[s] if parent < 0 else closed[parent] @ factors[s]) @ x)
    traces = [c.trace() for c in closed]
    total = 0.0
    for _, partner, _, ids in words:
        term = 1.0
        for i in ids:
            term *= traces[i]
        total += weights[_pairing_type(partner, g_pairs)] * term
    return total


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
_KINDS = {
    "entries": (lambda k: MomentSpec(k).indices, lambda k: len(k) // 2, lambda p, k, inv: moment(p, MomentSpec(k, inv))),
    "trace_power": (lambda n: _as_int(n, "power", 0), lambda n: n, trace_power_moment),
    "power_trace": (check_partition, sum, power_trace_moment),
    "invariant": (check_partition, sum, invariant_moment),
}


class MomentKind(_Value):
    """E[f(W)] or E[f(W^-1)] for one kind of f at one argument: "entries"
    (an index list k, f a product of entries as in ``moment``),
    "trace_power" (n, f = (tr x)^n), "power_trace" (a partition mu, f =
    p_mu(x)) or "invariant" (a partition lam, f = Z_lam(x)), the names of
    the ``wishmom moment`` flags.  The argument is checked and kept as read
    in ``arg``; ``order`` is the degree of f and ``target`` its exact
    moment.  An immutable value of (kind, arg, inverse).  montecarlo's
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
    if len(i_idx) != len(j_idx):
        raise ValueError("row and column index lists must have equal length")
    k = len(i_idx)
    if k % 2:
        return Fraction(0)
    n = k // 2
    if n == 0:
        return Fraction(1)
    check_listed_degree(n)  # the column matchings are listed
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
