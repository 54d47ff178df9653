"""Zonal spherical functions, orthogonal Weingarten functions and tables.

All values are exact rationals.  A function on S_{2n} that is invariant under
the hyperoctahedral group on both sides is the plain table {rho: value} of its
values on the coset types, the partitions of n.  The convolution of two such
tables is a weighted sum over pairs of types; one loop builds the weights
from the perfect matchings, or, as a cross-check for small degrees, from all
of S_{2n}.

The zonal spherical functions are the coefficients of the zonal polynomials
Z_lam = sum_rho M_rho omega^lam(rho) p_rho, the Gram-Schmidt orthogonalised
Schur functions: S_n characters suffice, and H_n is never enumerated.

The Weingarten function Wg(rho; z) is the deg-n rational function whose
convolution against z**kappa inverts to (2^n n!)^2 times the algebra unit;
it is evaluated through its expansion over zonal spherical functions,
Wg(rho; z) = sum_lam f^{2 lam} omega^lam(rho) / (C_lam(z) (2n-1)!!).
``_zonal_sum`` is that lambda-sum over integer pairs (a_lam, b_lam) in place
of 1 / C_lam(z), on one read of ``_zonal_weights``, the integers
c_lam / L_rho = f^{2 lam} omega^lam(rho) / (2n-1)!!; the pairs are the terms
of ``_point_terms`` and stay inside this module.  At z = p/q,
1 / C_lam(z) = q^n / P_lam with the integer P_lam = q^n C_lam(z), one
product of p + c q over the box contents c, and the sum becomes one Fraction
at the end.  Every coefficient of this module and of ``wishart`` is that sum
over the one term list of ``_point_terms``: Wg at z, the inverse-Wishart
kernel at z = -2*gamma scaled
by (-1)^n 2^n, the shapes with at most N rows at z = N, or the forward
eigenvalues C_lam(2 beta) / 2^n at z = 2*beta, whose sum at rho is the
coset weight (2 beta)^len(rho) / 2^n; with each term times omega^lam(mu)
the power-trace coefficients of p_mu over M_rho.  A term with b_lam = 0 is
a pole, and ``_check_poles`` is the one place that raises it.

Each table {rho: value} is summed in one pass and kept in one store of the
last POINT_TABLES tables (degree, kind, point and mu), which every reader
shares: the three per-value functions, ``weingarten_values`` and
``_point_table``, every table of ``wishart``.  A pole is never stored.
Each stored table keeps its float view beside it (``_Table.floats``), made
on its first read, for the moments of ``wishart`` that weigh in floats.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import permutations
from math import factorial, lcm, prod
from numbers import Number
from pathlib import Path
from typing import Mapping

from . import __version__
from .matchgroup import (
    MAX_SUM_DEGREE,
    SizeLimitError,
    _loop_type,
    _pairing_type,
    _partners,
    _word_table,
    check_listed_degree,
    check_sum_degree,
    coset_representative,
    matching_count,
    matching_type_count,
)
from .symcomb import (
    Partition,
    _as_fraction,
    _as_int,
    _character,
    _hook_dim_doubled,
    centralizer_order,
    check_partition,
    partitions_of,
)

TABLE_SCHEMA = 1
# points whose tables ``_point_cache`` keeps, the least recently read dropped first
POINT_TABLES = 1024


class DomainError(ValueError):
    """Parameter outside the mathematical domain (non-PD, bad beta/gamma, ...).

    Raised by ``wishart`` and ``montecarlo``; it lives here, beside
    ``PoleError``, so that catching both runs neither of those modules."""


class PoleError(ValueError):
    """Evaluation point makes some C_lambda vanish; carries the offending shapes."""

    def __init__(self, z, shapes: tuple[Partition, ...]):
        self.z = z
        self.shapes = shapes
        super().__init__(f"content product vanishes at z={z} for shapes {list(shapes)}")


def check_degree(n) -> int:
    """n as an int: ValueError unless it is an integer (``symcomb._as_int``),
    SizeLimitError unless 1 <= n and, with ``matchgroup.check_sum_degree``'s
    message, n <= MAX_SUM_DEGREE.  The degree check of every route that lists
    nothing: the tables, the zonal functions and every moment read from them."""
    k = _as_int(n, "degree")
    if k < 1:
        raise SizeLimitError(f"degree must be at least 1, got {k}")
    check_sum_degree(k)
    return k


@cache
def _zonal_table(n: int) -> dict[Partition, dict[Partition, Fraction]]:
    """omega^lam(rho) for every lam, rho of weight n: Z_lam is the Gram-Schmidt
    orthogonalisation, in lex-increasing order (a linear extension of
    dominance), of s_lam = sum_rho chi^lam(rho) p_rho / z_rho under
    <p_rho, p_sig> = delta z_rho 2^len(rho).  Each f is kept as
    b_rho = z_rho 2^len(rho) [p_rho] f, proportional to [p_rho] f / M_rho, so
    omega^lam(rho) = b_rho / b_(1^n).  The one store of omega: readers check
    first (``check_degree``, the partitions and their weight), then read it
    once per call.
    """
    rhos = partitions_of(n)
    weight = {rho: Fraction(1, centralizer_order(rho) * 2 ** len(rho)) for rho in rhos}
    done: list[tuple[dict[Partition, Fraction], Fraction]] = []
    table = {}
    for lam in reversed(rhos):
        b = {rho: Fraction(_character(lam, rho) * 2 ** len(rho)) for rho in rhos}
        for u, uu in done:
            c = sum(b[rho] * u[rho] * weight[rho] for rho in rhos) / uu
            b = {rho: b[rho] - c * u[rho] for rho in rhos}
        done.append((b, sum(b[rho] ** 2 * weight[rho] for rho in rhos)))
        table[lam] = {rho: b[rho] / b[rhos[-1]] for rho in rhos}
    return table


def zonal_spherical(lam: Partition, rho: Partition) -> Fraction:
    """Zonal spherical function value on the double coset of type rho."""
    lam, rho = check_partition(lam), check_partition(rho)
    n = sum(lam)
    if n != sum(rho):
        raise ValueError(f"weight mismatch: |{lam}| != |{rho}|")
    check_degree(n)
    return _zonal_table(n)[lam][rho]


# the benchmark's zonal cache counters read these until ROADMAP item 3 step 2
zonal_spherical.cache_info = _zonal_table.cache_info
zonal_spherical.cache_clear = _zonal_table.cache_clear


def pole_shapes(n: int, z) -> tuple[Partition, ...]:
    """Shapes of weight n whose content product vanishes at the rational z, the
    terms of ``_point_terms`` with b = 0; SizeLimitError past
    MAX_SUM_DEGREE (``check_degree``), none at n = 0."""
    z = _as_fraction(z, "z")
    n = _as_int(n, "degree", 0)
    if not n:
        return ()
    _, terms, _ = _point_terms(check_degree(n), "z", z.numerator, z.denominator)
    return tuple(lam for lam, _, b in terms if b == 0)


def check_dimension(N) -> int:
    """N as an int; ValueError unless N is a positive integer (``symcomb._as_int``)."""
    return _as_int(N, "N", 1)


def _check_poles(z: Fraction, terms) -> None:
    """PoleError at z, the Fraction of ``_point_terms``, naming every shape of
    its (lam, a, b) terms with b = 0."""
    poles = tuple(lam for lam, _, b in terms if b == 0)
    if poles:
        raise PoleError(z, poles)


@cache
def _box_contents(n: int) -> tuple[tuple[Partition, tuple[int, ...]], ...]:
    """(lam, the contents 2j - i of its boxes (i, j), 0-based) for every lam of
    weight n, in ``partitions_of`` order: P_lam = prod(p + c q)."""
    return tuple((lam, tuple(2 * j - i for i, row in enumerate(lam) for j in range(row))) for lam in partitions_of(n))


def _point_key(n, kind: str, point) -> tuple[int, str, int, int]:
    """(n, kind, p, q) for the point p/q in lowest terms of kind "z", "gamma",
    "beta" or "N" (q = 1): the degree is checked first, then the point, so
    equal keys are equal points of one kind.  The key of ``_point_cache``."""
    n = check_degree(n)
    if kind == "N":
        return n, kind, check_dimension(point), 1
    x = _as_fraction(point, kind)
    return n, kind, x.numerator, x.denominator


def _point_terms(n: int, kind: str, p: int, q: int) -> tuple[Fraction, list[tuple[Partition, int, int]], int]:
    """(z, terms, scale) of ``_zonal_sum`` at a key of ``_point_key``, with
    z = p/q in lowest terms and P_lam = q^n C_lam(z): the terms (lam, q^n,
    P_lam) of Wg at the point itself, at z = -2 gamma with scale (-2)^n, or at
    z = N over the shapes with at most N rows; or (lam, P_lam, (2q)^n), the
    forward eigenvalues C_lam(2 beta) / 2^n at z = 2 beta.  A term with
    b = 0 is a pole, for ``_check_poles`` to raise."""
    rows, scale = n, 1
    if kind in ("gamma", "beta"):
        # 2 beta or -2 gamma in lowest terms, as gcd(p, q) = 1
        p, q = (p, q // 2) if q % 2 == 0 else (2 * p, q)
        if kind == "gamma":
            p, scale = -p, (-2) ** n
    elif kind == "N":
        # no pole: every box (i, j) of a shape with at most N rows has N + 2j - i - 1 >= 1
        rows = p
    # P_lam is the product of p + c q over the contents c of its boxes: one factor per c serves every shape
    factor = {c: p + c * q for c in range(1 - n, 2 * n - 1)}
    qn = q**n
    terms = [(lam, qn, prod(map(factor.__getitem__, cs))) for lam, cs in _box_contents(n) if len(lam) <= rows]
    if kind == "beta":
        # the forward eigenvalue C_lam(2 beta) / 2^n = P_lam / (2q)^n
        terms = [(lam, b, 2**n * a) for lam, a, b in terms]
    return Fraction(p, q), terms, scale


@cache
def _zonal_weights(n: int) -> dict[Partition, tuple[int, dict[Partition, int]]]:
    """(L, {lam: c_lam}) for every rho of weight n: the integers with
    f^{2 lam} omega^lam(rho) / (2n-1)!! = c_lam / L, the factors of ``_zonal_sum``."""
    table, out = _zonal_table(n), {}
    for rho in partitions_of(n):
        w = {lam: _hook_dim_doubled(lam) * table[lam][rho] / matching_count(n) for lam in table}
        den = lcm(*(x.denominator for x in w.values()))
        out[rho] = den, {lam: x.numerator * (den // x.denominator) for lam, x in w.items()}
    return out


def _zonal_sum(weights, rho: Partition, terms, scale: int) -> Fraction:
    """scale / (2n-1)!! * sum_lam f^{2 lam} omega^lam(rho) a_lam / b_lam over
    the (lam, a_lam, b_lam) terms of ``_point_terms`` (b_lam != 0), in
    integers normalised once, from the ``_zonal_weights`` of the weight of
    rho: one read serves every rho of a degree.  Wg(rho; z) at
    a_lam / b_lam = 1 / C_lam(z)."""
    den_rho, row = weights[rho]
    num, den = 0, 1
    for lam, a, b in terms:
        a *= row[lam]
        if a:
            num = num * b + a * den
            den *= b
    return Fraction(scale * num, den_rho * den)


class _Table(dict):
    """A stored table {rho: Fraction} of ``_point_cache``.  ``floats`` is its
    float view, {rho: float(value)} in the same order, made on its first read
    and kept in the same store entry, for the moments that weigh in floats.
    A value past the float range raises OverflowError there, as its float()
    does, and nothing is kept."""

    @cached_property
    def floats(self) -> dict[Partition, float]:
        return {rho: float(v) for rho, v in self.items()}


@lru_cache(maxsize=POINT_TABLES)
def _point_cache(n: int, kind: str, p: int, q: int, mu: Partition | None) -> _Table:
    """The table {rho: value} for every rho of weight n, in ``partitions_of``
    order, at a key of ``_point_key`` and a partition mu of n, None for (1^n):
    one pass over the terms of ``_point_terms``, each times omega^lam(mu),
    which is 1 at (1^n).  A PoleError from ``_check_poles`` stores nothing."""
    z, terms, scale = _point_terms(n, kind, p, q)
    _check_poles(z, terms)
    omega, mu = _zonal_table(n), mu or (1,) * n
    terms = [(lam, a * omega[lam][mu].numerator, b * omega[lam][mu].denominator) for lam, a, b in terms]
    weights = _zonal_weights(n)
    return _Table((rho, _zonal_sum(weights, rho, terms, scale)) for rho in partitions_of(n))


def _point_table(n: int, kind: str, point, mu: Partition | None = None) -> _Table:
    """The stored table at the point of kind "z", "gamma", "beta" or "N" and
    the partition mu of n, the degree and the point checked first.  The dict
    is the store's own: the callers in this package only read it (and its
    ``floats``), and ``weingarten_values`` hands out a plain copy."""
    key = _point_key(n, kind, point)
    # (1^n), the one partition of n with n parts, shares the entry of mu = None
    return _point_cache(*key, None if mu is None or len(mu) == key[0] else mu)


def _point_eigenvalue(lam: Partition, kind: str, point) -> Fraction:
    """The eigenvalue of Z_lam, lam checked, at the point of kind "gamma" or
    "beta": lam's own term of ``_point_terms`` times the scale, a PoleError
    only when that term is a pole."""
    z, terms, scale = _point_terms(*_point_key(sum(lam), kind, point))
    [term] = [t for t in terms if t[0] == lam]
    _check_poles(z, [term])
    return Fraction(scale * term[1], term[2])


def _point_value(rho: Partition, kind: str, point) -> Fraction:
    """The one body of ``weingarten``, ``weingarten_truncated`` and
    ``inv_wishart_weingarten``: rho is checked, then the degree and the point."""
    rho = check_partition(rho)
    return _point_table(sum(rho), kind, point)[rho]


def weingarten(rho: Partition, z) -> Fraction:
    """Orthogonal Weingarten value Wg(rho; z), exact in the rational point z."""
    return _point_value(rho, "z", z)


def weingarten_truncated(rho: Partition, N: int) -> Fraction:
    """Weingarten sum restricted to shapes with at most N rows, evaluated at z=N.

    Coincides with ``weingarten(rho, N)`` whenever N >= n, and stays defined
    for 1 <= N < n where the full sum has poles.  N must be a positive integer.
    """
    return _point_value(rho, "N", N)


def inv_wishart_weingarten(rho: Partition, gamma) -> Fraction:
    """Coefficient kernel for inverse-Wishart moments: (-1)^n 2^n Wg(rho; -2*gamma)."""
    return _point_value(rho, "gamma", gamma)


def weingarten_values(n: int, *, z=None, gamma=None, N=None) -> dict[Partition, Fraction]:
    """One degree's table at one point: ``weingarten(rho, z)``,
    ``inv_wishart_weingarten(rho, gamma)`` or ``weingarten_truncated(rho, N)``
    for every rho of weight n, in reverse-lex order; exactly one point is given.
    A new dict from ``_point_table``, so the caller may change it.
    """
    points = [(kind, v) for kind, v in (("z", z), ("gamma", gamma), ("N", N)) if v is not None]
    if len(points) != 1:
        raise ValueError("give exactly one of z, gamma and N")
    return dict(_point_table(n, *points[0]))


def hecke_unit(n: int) -> dict[Partition, Fraction]:
    """Unit of the convolution algebra: (2^n n!)^-1 on H_n, zero elsewhere;
    SizeLimitError past MAX_SUM_DEGREE (``check_degree``), {(): 1} at n = 0."""
    n = _as_int(n, "degree", 0)
    if n:
        check_degree(n)
    unit = Fraction(1, 2**n * factorial(n))
    return {rho: (unit if rho == (1,) * n else Fraction(0)) for rho in partitions_of(n)}


@cache
def _convolution_kernel(n: int, full: bool) -> dict[Partition, tuple[tuple[Partition, Partition, int], ...]]:
    """Weights w such that (f1 * f2)(g_rho) = sum w * f1[t1] * f2[t2]: w counts
    the h in S_{2n} with (type(g_rho h), type(h)) = (t1, t2), that is
    g' = h^-1 in sum_g' f1(g_rho g'^-1) f2(g'), a coset type being invariant
    under inversion.

    The reduced kernel runs over the (2n-1)!! matching words of
    ``_word_table`` with weight |H_n|, one per left coset h H_n, and reads
    type(g_rho h) as the loop type of h's pairs against g_rho^-1's image
    pairs.  The full kernel runs over every word of S_{2n} with weight 1,
    typing each relabelled word g_rho h, and is kept only as a small-degree
    oracle.
    """
    if full:
        if n > 3:
            raise SizeLimitError("full-group convolution supports n <= 3")
        typed, weight = [(h, _loop_type(h)) for h in permutations(range(1, 2 * n + 1))], 1
    else:
        table, weight = _word_table(n), 2**n * factorial(n)
    out = {}
    for rho in partitions_of(n):
        g = coset_representative(rho)
        if full:
            keys = ((_loop_type([g.images[s - 1] for s in h]), t2) for h, t2 in typed)
        else:
            g_pairs = _partners(g.inverse().images)
            keys = ((_pairing_type(partner, g_pairs), t2) for _, partner, t2 in table)
        out[rho] = tuple((t1, t2, w * weight) for (t1, t2), w in sorted(Counter(keys).items()))
    return out


def biinvariant_convolve(
    f1: Mapping[Partition, Fraction], f2: Mapping[Partition, Fraction], method: str = "reduced"
) -> dict[Partition, Fraction]:
    """Convolution (f1 * f2)(g) = sum over g' of f1(g g'^-1) f2(g') of two
    functions on S_{2n} invariant under H_n on both sides, each given as its
    table {rho: value} over exactly the coset types ``partitions_of(n)``; the
    kernel lists matching words, so n is held to ``check_listed_degree``."""
    # (1^n) is the longest type; as p(n) >= n, no table with fewer keys needs partitions_of(n)
    n = max(map(len, f1), default=0)
    if n > len(f1) or set(f1) != set(partitions_of(n)) or set(f2) != set(f1):
        raise ValueError("f1 and f2 must each cover exactly the partitions of one n")
    check_listed_degree(n)
    if method not in ("reduced", "full"):
        raise ValueError("method must be 'reduced' or 'full'")
    kernel = _convolution_kernel(n, method == "full")
    return {rho: sum((w * f1[t1] * f2[t2] for t1, t2, w in rows), Fraction(0)) for rho, rows in kernel.items()}


def _contract(coeffs: Mapping[Partition, object], pvals: Mapping[int, object]):
    """sum_rho c_rho p_rho1 p_rho2 ..., each term multiplied left to right from
    c_rho and added to a total that starts at 0: exact on Fractions, float on
    floats, and elementwise on numpy arrays of power sums."""
    total = 0
    for rho, c in coeffs.items():
        term = c
        for part in rho:
            term = term * pvals[part]
        total = total + term
    return total


def _zonal_coeffs(lam: Partition) -> dict[Partition, Fraction]:
    """{rho: M_rho omega^lam(rho)}, in ``partitions_of`` order, for the checked
    partition lam of weight 1..MAX_SUM_DEGREE: Z_lam = sum_rho of that times p_rho."""
    n = check_degree(sum(lam))
    omega = _zonal_table(n)[lam]
    return {rho: matching_type_count(rho) * omega[rho] for rho in partitions_of(n)}


def zonal_eval(lam: Partition, pvals: Mapping[int, object]):
    """Zonal polynomial of shape lam evaluated at given power sums.

    pvals is a mapping r -> value of the r-th power sum for r = 1..n, each a
    number and not a bool, as ``hafnian`` reads matrix entries; the result,
    exact when the inputs are, is ``_contract`` of ``_zonal_coeffs``: the sum
    over rho of M_rho * omega(lam, rho) * prod pvals, M_rho the number of
    matchings of coset type rho (``matching_type_count``).
    """
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    if n == 0:
        return Fraction(1)
    check_degree(n)
    if not isinstance(pvals, Mapping):
        raise ValueError(f"power sums must be a mapping r -> value, got {type(pvals).__name__}")
    missing = [r for r in range(1, n + 1) if r not in pvals]
    if missing:
        raise ValueError(f"missing power-sum values for r={missing}")
    for r in range(1, n + 1):
        if not isinstance(pvals[r], Number) or isinstance(pvals[r], bool):
            raise ValueError(f"power-sum value for r={r} must be a number, got {pvals[r]!r}")
    return _contract(_zonal_coeffs(lam), pvals)


def fraction_json(f: Fraction) -> dict:
    """f as the JSON object {"num": "<p>", "den": "<q>"} of table files and CLI reports."""
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _json_fraction(doc) -> Fraction:
    return Fraction(int(doc["num"]), int(doc["den"]))


def table_to_json(n: int, z, entries: Mapping[Partition, Fraction]) -> str:
    """The table file of the values {rho: value} of degree n at the point z."""
    n, z = _as_int(n, "degree"), _as_fraction(z, "z")
    # provenance is deliberately clock-free so rebuilds are byte-identical
    doc = {
        "n": n,
        "z": fraction_json(z),
        "entries": [{"rho": list(rho), "value": fraction_json(v)} for rho, v in entries.items()],
        "provenance": {"generator": "wishmom", "version": __version__, "schema": TABLE_SCHEMA},
    }
    return json.dumps(doc, indent=2) + "\n"


def _table_root(cache_dir: str | Path) -> Path:
    return Path(cache_dir) / "tables" / "wg_o"


def table_path(cache_dir: str | Path, n: int, z) -> Path:
    n, z = _as_int(n, "degree"), _as_fraction(z, "z")
    return _table_root(cache_dir) / f"n{n}" / f"z_{z.numerator}_{z.denominator}.json"


def cached_tables(cache_dir: str | Path) -> list[Path]:
    """The files under cache_dir that lie at ``table_path(cache_dir, n, z)`` for
    some n and z, sorted.  Nothing else there is listed, a directory at such a
    path included; what the files hold is ``load_table``'s to check."""
    root = _table_root(cache_dir)
    found = []
    for path in root.glob("n*/z_*.json"):
        m = re.fullmatch(r"n(\d+)/z_(-?\d+)_([1-9]\d*)\.json", path.relative_to(root).as_posix())
        if m and path.is_file() and path == table_path(cache_dir, int(m[1]), Fraction(int(m[2]), int(m[3]))):
            found.append(path)
    return sorted(found)


def save_table(cache_dir: str | Path, n: int, z, entries: Mapping[Partition, Fraction]) -> Path:
    """Write the table {rho: value} of degree n at z to its ``table_path``; that path."""
    path = table_path(cache_dir, n, z)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(table_to_json(n, z, entries))
    return path


def load_table(cache_dir: str | Path, n: int, z) -> dict[Partition, Fraction] | None:
    """The table {rho: value} cached for (n, z), or None when there is none.  A
    path that cannot be read as a file (a directory, say), a file that does not
    parse as a table, or holds another n, z or schema, or whose entries are not
    keyed by exactly ``partitions_of(n)`` in order, is not that table either:
    callers rebuild it.  The generator and version of its provenance are not read."""
    n, z = _as_int(n, "degree"), _as_fraction(z, "z")
    # weingarten_values makes no table outside the supported degrees
    if not 1 <= n <= MAX_SUM_DEGREE:
        return None
    try:
        doc = json.loads(table_path(cache_dir, n, z).read_text())
        header = (int(doc["n"]), _json_fraction(doc["z"]), doc["provenance"]["schema"])
        entries = {tuple(e["rho"]): _json_fraction(e["value"]) for e in doc["entries"]}
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError):
        # no readable file, truncated JSON, or a document without the fields of a table
        return None
    if header != (n, z, TABLE_SCHEMA) or tuple(entries) != partitions_of(n):
        return None
    return entries
