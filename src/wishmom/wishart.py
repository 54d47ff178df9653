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
C_lam(2 beta) / 2^n).  ``_side``, ``_coset_weights`` and ``_eigenvalue`` make
that choice; every moment below has one body for both sides.

Coefficients (powers of 2*beta, Weingarten values, partition weights) are
kept exact as rationals; only the contractions against the user-supplied
sigma happen in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import permutations
from math import factorial, lgamma, log, prod
from typing import Mapping, Sequence

import numpy as np

from .matchgroup import (
    coset_type,
    iter_matchings,
    matching_type_sums,
    pair_loops,
    paired_perm,
)
from .symcomb import (
    Partition,
    Perm,
    centralizer_order,
    check_partition,
    content_product,
    partitions_of,
    hook_dim_doubled,
)
from .weingarten import (
    PoleError,
    check_dimension,
    pole_shapes,
    weingarten_values,
    zonal_eval,
    zonal_spherical,
)

MAX_ENTRY_DEGREE = 10
MAX_TRACE_PRODUCT_DEGREE = 7
MAX_MIXED_DEGREE = 5
MAX_HAAR_DEGREE = 4
SYMMETRY_TOL = 1e-12


class DomainError(ValueError):
    """Parameter outside the mathematical domain (non-PD, bad beta/gamma, ...)."""


def admissible_beta(beta: Fraction, d: int) -> bool:
    """True when beta lies in {1/2, 1, ..., (d-1)/2} or beyond (d-1)/2."""
    if beta > Fraction(d - 1, 2):
        return True
    twice = 2 * beta
    return twice.denominator == 1 and 1 <= twice.numerator <= d - 1


def gamma_regime(gamma: Fraction, n: int) -> str:
    """'standard' when gamma > n-1; 'analytic-continuation' for smaller positive
    gamma, where the formulas extend but only pole-freeness is checked."""
    if gamma > n - 1:
        return "standard"
    if gamma > 0:
        return "analytic-continuation"
    raise DomainError(f"gamma={gamma} must be positive for inverse moments")


@dataclass
class WishartParams:
    """Dimension, shape and scale of one Wishart law; sigma must be symmetric PD."""

    d: int
    beta: Fraction
    sigma: np.ndarray

    def __post_init__(self):
        self.beta = Fraction(self.beta)
        sig = np.asarray(self.sigma, dtype=float)
        if sig.ndim != 2 or sig.shape[0] != sig.shape[1]:
            raise ValueError(f"sigma must be square, got shape {sig.shape}")
        if self.d != sig.shape[0]:
            raise ValueError(f"d={self.d} does not match sigma shape {sig.shape}")
        if not np.isfinite(sig).all():
            raise ValueError("sigma has non-finite entries")
        scale = max(np.abs(sig).max(), 1.0)
        if np.abs(sig - sig.T).max() > SYMMETRY_TOL * scale:
            raise DomainError("sigma is not symmetric")
        self.sigma = (sig + sig.T) / 2
        try:
            np.linalg.cholesky(self.sigma)
        except np.linalg.LinAlgError as exc:
            raise DomainError("sigma is not positive definite") from exc
        if not admissible_beta(self.beta, self.d):
            raise DomainError(f"beta={self.beta} not admissible for d={self.d}")

    @property
    def gamma(self) -> Fraction:
        return self.beta - Fraction(self.d + 1, 2)

    @cached_property
    def chol(self) -> np.ndarray:
        return np.linalg.cholesky(self.sigma)

    @cached_property
    def sigma_inv(self) -> np.ndarray:
        # inverse through the Cholesky factor; also the PD certificate
        L = self.chol
        inv_l = np.linalg.solve(L, np.eye(self.d))
        return inv_l.T @ inv_l


@dataclass(frozen=True)
class MomentSpec:
    """Index list k_1..k_2n (1-based) of an entrywise product moment."""

    indices: tuple[int, ...]
    inverse: bool = False

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(map(int, self.indices)))
        if len(self.indices) % 2:
            raise ValueError("index list must have even length")

    @property
    def degree(self) -> int:
        return len(self.indices) // 2


def _check_indices(indices: Sequence[int], d: int) -> None:
    for k in indices:
        if not 1 <= k <= d:
            raise ValueError(f"index {k} outside 1..{d}")


def _side(params: WishartParams, n: int, inverse: bool) -> tuple[np.ndarray, Fraction]:
    """(sigma, beta) for moments of W; (sigma^-1, gamma) for moments of W^-1,
    once ``gamma_regime`` has checked gamma > 0 at degree n."""
    if inverse:
        gamma = params.gamma
        gamma_regime(gamma, n)
        return params.sigma_inv, gamma
    return params.sigma, params.beta


class _KappaWeights(dict):
    """rho -> (2 beta)^len(rho) / 2^n at one (n, beta), each computed on first
    lookup: a degree past the cap enumerates no partitions before it is rejected.
    Threads that miss the same rho at once store equal values."""

    def __init__(self, n: int, beta: Fraction):
        super().__init__()
        self.n, self.two_beta = n, 2 * beta

    def __missing__(self, rho: Partition) -> Fraction:
        self[rho] = w = self.two_beta ** len(rho) / 2**self.n
        return w


_kappa_weights = cache(_KappaWeights)  # one table per (n, beta)


@cache
def _inv_wg_table(n: int, gamma: Fraction) -> dict[Partition, Fraction]:
    return weingarten_values(n, gamma=gamma)


def _coset_weights(n: int, shape: Fraction, inverse: bool) -> Mapping[Partition, Fraction]:
    """Weight of a matching of coset type rho in the degree-n matching sum:
    (2 beta)^len(rho) / 2^n, or the inverse-Wishart Weingarten value at gamma."""
    return _inv_wg_table(n, shape) if inverse else _kappa_weights(n, shape)


def _eigenvalue(lam: Partition, shape: Fraction, inverse: bool) -> Fraction:
    """E[Z_lam(W)] / Z_lam(sigma) = C_lam(2 beta) / 2^n, or, for W^-1 against
    sigma^-1, (-1)^n 2^n / C_lam(-2 gamma), which has a pole where C_lam vanishes."""
    n = sum(lam)
    if not inverse:
        return Fraction(content_product(lam, 2 * shape), 2**n)
    cval = content_product(lam, -2 * shape)
    if cval == 0:
        raise PoleError(-2 * shape, (lam,))
    return Fraction((-1) ** n * 2**n) / cval


def moment(params: WishartParams, spec: MomentSpec) -> float:
    """E[W_{k1 k2} ... W_{k_{2n-1} k_{2n}}], or the same product of entries of
    W^-1 when ``spec.inverse``: the sum over matchings of the coset weight of
    their type times prod x[k_p, k_q], x = sigma or sigma^-1.  The sum runs per
    coset type through ``matching_type_sums`` in O(3^n p(n)) rather than over
    the (2n-1)!! matchings.

    Inverse moments hold for gamma > n-1 and, by analytic continuation, for any
    positive gamma avoiding the poles (those raise PoleError).
    """
    n = spec.degree
    if n == 0:
        return 1.0
    _check_indices(spec.indices, params.d)
    x, shape = _side(params, n, spec.inverse)
    weights = _coset_weights(n, shape, spec.inverse)
    # the cap comes last, so an inverse spec past it still fails as a domain
    # error (gamma <= 0) or on the Weingarten tables' own degree limit
    if n > MAX_ENTRY_DEGREE:
        raise ValueError(f"entrywise moments support degree <= {MAX_ENTRY_DEGREE}")
    sums = matching_type_sums([k - 1 for k in spec.indices], x.tolist())
    return sum(float(weights[rho]) * w for rho, w in sums.items())


def inverse_moment(params: WishartParams, spec: MomentSpec) -> float:
    """E[W^{k1 k2} ... W^{k_{2n-1} k_{2n}}]: ``moment`` of the entries of W^-1,
    whatever ``spec.inverse`` says."""
    return moment(params, MomentSpec(spec.indices, inverse=True))


def _require_symmetric(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    out = []
    for s in mats:
        s = np.asarray(s, dtype=float)
        if not np.allclose(s, s.T, rtol=1e-12, atol=1e-12):
            raise ValueError("trace-product factors must be symmetric matrices")
        out.append(s)
    return out


def _perm_objects(n: int) -> list[Perm]:
    return [Perm(images) for images in permutations(range(1, n + 1))]


def trace_product_moment(params: WishartParams, s_list: Sequence[np.ndarray]) -> float:
    """E[prod_i tr(W s_i)] = sum over permutations of beta**nu * products of
    traces tr(sigma s_{c1} sigma s_{c2} ...) along cycles."""
    n = len(s_list)
    if not 1 <= n <= MAX_TRACE_PRODUCT_DEGREE:
        raise ValueError(f"trace products support 1 <= n <= {MAX_TRACE_PRODUCT_DEGREE}")
    mats = _require_symmetric(s_list)
    sig = params.sigma
    beta = params.beta
    total = 0.0
    for pi in _perm_objects(n):
        cycles = pi.cycles()
        term = float(beta ** len(cycles))
        for c in cycles:
            prod = np.eye(params.d)
            for ci in c:
                prod = prod @ sig @ mats[ci - 1]
            term *= np.trace(prod)
        total += term
    return total


def trace_pattern_perm(pi: Perm, transposed: Sequence[bool]) -> Perm:
    """The S_{2n} pattern whose paired contraction reproduces the trace word
    R_pi with the flagged factors transposed: pair swaps at the flagged slots
    composed with the paired lift of pi."""
    n = pi.size
    if len(transposed) != n:
        raise ValueError("one transpose flag per matrix")
    swap = {}
    for i, t in enumerate(transposed, start=1):
        if t:
            swap[2 * i - 1] = 2 * i
            swap[2 * i] = 2 * i - 1
    base = paired_perm(pi)
    return Perm(swap.get(v, v) for v in base.images)


def paired_contraction(g: Perm, x: np.ndarray, ms: Sequence[np.ndarray]) -> float:
    """T_g(x; m_1..m_n): contract m_k row/col indices at slots (2k-1, 2k)
    against symmetric-x links between slots g(2i-1) and g(2i).

    The pairing makes the contraction a product of trace words, one per loop
    of ``pair_loops(g.images)``: a base pair entered at its row slot adds m_k,
    one entered at its column slot adds m_k transposed, and x links them.
    """
    n = len(ms)
    if g.size != 2 * n:
        raise ValueError("pattern size must be twice the number of matrices")
    total = 1.0
    for k0, slots in pair_loops(g.images):
        word = ms[k0 - 1]
        for s in slots[1:]:
            m = ms[(s - 1) // 2]
            word = word @ x
            word = word @ (m if s % 2 else m.T)
        total *= np.trace(word @ x)
    return total


def mixed_trace_moment(
    params: WishartParams, g: Perm, ms: Sequence[np.ndarray], inverse: bool = False
) -> float:
    """E[T_g(W^{+-1}; m_1..m_n)] as a matching sum of paired contractions of
    sigma^{+-1}, each weighted by the coset weight of the type of g^-1 n."""
    n = len(ms)
    if not 1 <= n <= MAX_MIXED_DEGREE:
        raise ValueError(f"mixed trace moments support 1 <= n <= {MAX_MIXED_DEGREE}")
    if g.size != 2 * n:
        raise ValueError("pattern size must be twice the number of matrices")
    mats = [np.asarray(m, dtype=float) for m in ms]
    g_inv = g.inverse()
    x, shape = _side(params, n, inverse)
    weights = _coset_weights(n, shape, inverse)
    total = 0.0
    for m in iter_matchings(n):
        p = m.as_perm()
        total += float(weights[coset_type(g_inv * p)]) * paired_contraction(p, x, mats)
    return total


def _power_sums(x: np.ndarray, n: int) -> dict[int, float]:
    out = {}
    acc = np.eye(x.shape[0])
    for r in range(1, n + 1):
        acc = acc @ x
        out[r] = float(np.trace(acc))
    return out


def _contract(coeffs: dict[Partition, Fraction], x: np.ndarray, n: int) -> float:
    """sum_rho c_rho p_rho(x), from the power sums tr(x^r), r <= n."""
    psums = _power_sums(x, n)
    return sum(float(c) * prod(psums[part] for part in rho) for rho, c in coeffs.items())


def invariant_moment(params: WishartParams, lam: Partition, inverse: bool = False) -> float:
    """E[Z_lam(W^{+-1})] = eigenvalue * Z_lam(sigma^{+-1}), see ``_eigenvalue``.
    Power sums only, no eigendecomposition."""
    lam = check_partition(lam)
    n = sum(lam)
    x, shape = _side(params, n, inverse)
    coef = _eigenvalue(lam, shape, inverse)
    return float(coef) * zonal_eval(lam, _power_sums(x, n))


def power_trace_coeffs(mu: Partition, shape: Fraction, inverse: bool = False) -> dict[Partition, Fraction]:
    """Exact coefficients c_rho with E[p_mu(W^{+-1})] = sum c_rho p_rho(sigma^{+-1}).

    ``shape`` is beta on the forward side and gamma on the inverse side.
    """
    mu = check_partition(mu)
    n = sum(mu)
    shape = Fraction(shape)
    if inverse:
        bad = pole_shapes(n, -2 * shape)
        if bad:
            raise PoleError(-2 * shape, bad)
    pref = Fraction((2**n * factorial(n)) ** 2, factorial(2 * n))
    eig = {lam: _eigenvalue(lam, shape, inverse) for lam in partitions_of(n)}
    coeffs = {}
    for rho in partitions_of(n):
        inner = Fraction(0)
        for lam in partitions_of(n):
            inner += eig[lam] * hook_dim_doubled(lam) * zonal_spherical(lam, mu) * zonal_spherical(lam, rho)
        coeffs[rho] = pref * Fraction(1, 2 ** len(rho) * centralizer_order(rho)) * inner
    return coeffs


def power_trace_moment(params: WishartParams, mu: Partition, inverse: bool = False) -> float:
    """E[prod_i tr((W^{+-1})^{mu_i})] with exact coefficients on p_rho(sigma^{+-1})."""
    mu = check_partition(mu)
    n = sum(mu)
    if n > 4:
        raise ValueError("power-trace moments support |mu| <= 4")
    x, shape = _side(params, n, inverse)
    return _contract(power_trace_coeffs(mu, shape, inverse), x, n)


def trace_power_coeffs(n: int, shape: Fraction, inverse: bool = False) -> dict[Partition, Fraction]:
    """Exact coefficients with E[(tr W^{+-1})^n] = sum c_rho p_rho(sigma^{+-1}):
    c_rho = 2^(n - len(rho)) n! / z_rho times the coset weight of rho."""
    weights = _coset_weights(n, Fraction(shape), inverse)
    return {
        rho: 2 ** (n - len(rho)) * Fraction(factorial(n), centralizer_order(rho)) * weights[rho]
        for rho in partitions_of(n)
    }


def trace_power_moment(params: WishartParams, n: int, inverse: bool = False) -> float:
    """E[(tr W)^n] or E[(tr W^-1)^n] with exact partition-indexed coefficients."""
    if not 1 <= n <= 4:
        raise ValueError("trace-power moments support 1 <= n <= 4")
    x, shape = _side(params, n, inverse)
    return _contract(trace_power_coeffs(n, shape, inverse), x, n)


def _log_multigamma(a: float, d: int) -> float:
    """log Gamma_d(a) = d(d-1)/4 log(pi) + sum_{j<d} log Gamma(a - j/2)."""
    return d * (d - 1) / 4 * log(np.pi) + sum(lgamma(a - j / 2) for j in range(d))


def log_density(params: WishartParams, w: np.ndarray) -> float:
    """Log density at a positive definite w; needs beta > (d-1)/2."""
    d = params.d
    beta = float(params.beta)
    if params.beta <= Fraction(d - 1, 2):
        raise DomainError(f"density requires beta > (d-1)/2, got beta={params.beta}")
    w = np.asarray(w, dtype=float)
    try:
        np.linalg.cholesky(w)
    except np.linalg.LinAlgError as exc:
        raise DomainError("w is not positive definite") from exc
    _, logdet_sigma = np.linalg.slogdet(params.sigma)
    _, logdet_w = np.linalg.slogdet(w)
    return (
        -_log_multigamma(beta, d)
        - beta * logdet_sigma
        + (beta - (d + 1) / 2) * logdet_w
        - float(np.sum(params.sigma_inv * w))
    )


def density(params: WishartParams, w: np.ndarray) -> float:
    return float(np.exp(log_density(params, w)))


@cache
def _matching_product_types(n: int) -> tuple[tuple[Partition, ...], ...]:
    # coset type of m^-1 * n for every ordered pair of matchings
    perms = [m.as_perm() for m in iter_matchings(n)]
    invs = [p.inverse() for p in perms]
    return tuple(
        tuple(coset_type(inv_p * q) for q in perms)
        for inv_p in invs
    )


@cache
def _haar_wg_values(n: int, N: int) -> dict[Partition, Fraction]:
    return weingarten_values(n, N=N)


def haar_moment(i_idx: Sequence[int], j_idx: Sequence[int], N: int) -> Fraction:
    """Exact E[O_{i1 j1} ... O_{ik jk}] for a Haar orthogonal N x N matrix.

    Odd k gives exactly zero; otherwise a double matching sum with truncated
    Weingarten weights, valid for every N >= 1.
    """
    i_idx = tuple(int(v) for v in i_idx)
    j_idx = tuple(int(v) for v in j_idx)
    if len(i_idx) != len(j_idx):
        raise ValueError("row and column index lists must have equal length")
    N = check_dimension(N)
    for v in i_idx + j_idx:
        if not 1 <= v <= N:
            raise ValueError(f"index {v} outside 1..{N}")
    k = len(i_idx)
    if k % 2:
        return Fraction(0)
    n = k // 2
    if n == 0:
        return Fraction(1)
    if n > MAX_HAAR_DEGREE:
        raise ValueError(f"Haar moments support degree <= {MAX_HAAR_DEGREE}")
    matchings = list(iter_matchings(n))
    ok_i = [all(i_idx[p - 1] == i_idx[q - 1] for p, q in m.pairs) for m in matchings]
    ok_j = [all(j_idx[p - 1] == j_idx[q - 1] for p, q in m.pairs) for m in matchings]
    if not any(ok_i) or not any(ok_j):
        return Fraction(0)
    types = _matching_product_types(n)
    wg = _haar_wg_values(n, N)
    total = Fraction(0)
    for a, good_a in enumerate(ok_i):
        if not good_a:
            continue
        row = types[a]
        for b, good_b in enumerate(ok_j):
            if good_b:
                total += wg[row[b]]
    return total
