"""Partitions, permutations and symmetric-group character arithmetic.

Everything here is exact: integer partitions are plain tuples, permutations
are immutable one-line words, and character values come out of a memoized
Murnaghan-Nakayama recursion as Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial, prod
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def _not_real(x) -> bool:
    """Whether x is a bool or complex, Python's or numpy's (told by its dtype)."""
    return isinstance(x, (bool, complex)) or getattr(getattr(x, "dtype", None), "kind", "") in ("b", "c")


def _as_int(x, what: str, lo: int | None = None, hi: int | None = None) -> int:
    """x as an int when it is a real number equal to one, and not a bool, with
    lo <= x <= hi for each bound given (hi only with lo); else ValueError
    naming ``what`` and the rule."""
    if type(x) is int and (lo is None or lo <= x) and (hi is None or x <= hi):
        return x
    try:
        k = None if _not_real(x) else int(x)
    except (TypeError, ValueError, OverflowError):
        k = None
    if k is None or k != x or (lo is not None and k < lo) or (hi is not None and k > hi):
        if hi is not None:
            rule = f"an integer in {lo}..{hi}"
        elif lo is not None:
            rule = "a positive integer" if lo == 1 else f"an integer >= {lo}"
        else:
            rule = "an integer"
        raise ValueError(f"{what} must be {rule}, got {x!r}")
    return k


def _as_ints(values: Iterable, what: str, lo: int | None = None, hi: int | None = None) -> tuple[int, ...]:
    """Each of the values as an int by ``_as_int``."""
    return tuple([_as_int(v, what, lo, hi) for v in values])


def _as_fraction(x, what: str) -> Fraction:
    """x as a Fraction of Python ints (numpy ints overflow) when it is a finite
    rational number (an int, Fraction, finite float, numpy int or float64, or a
    string such as "7/3") and not a bool; else ValueError naming ``what``."""
    if type(x) is Fraction:
        return x
    if not _not_real(x):
        try:
            f = Fraction(x)
            return Fraction(int(f.numerator), int(f.denominator))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"{what} must be a finite rational number, got {x!r}")


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize a weakly decreasing sequence of positive parts."""
    t = _as_ints(parts, "partition part", 1)
    for i, p in enumerate(t):
        if i and t[i - 1] < p:
            raise ValueError(f"partition parts must be weakly decreasing, got {t}")
    return t


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, e.g. (3), (2,1), (1,1,1)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_partitions_bounded(n, n))


def _partitions_bounded(n: int, max_part: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _partitions_bounded(n - k, k):
            yield (k,) + rest


def multiplicities(rho: Partition) -> dict[int, int]:
    m: dict[int, int] = {}
    for r in rho:
        m[r] = m.get(r, 0) + 1
    return m


def centralizer_order(rho: Partition) -> int:
    """Order of the centralizer of a permutation with cycle type rho:
    the product over part sizes r of r**m_r * m_r!."""
    return prod(r**m * factorial(m) for r, m in multiplicities(rho).items())


def conjugate(parts: Partition) -> Partition:
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0]))


def doubled(parts: Partition) -> Partition:
    """The partition with every part doubled."""
    return tuple(2 * p for p in parts)


def hook_dim(parts: Partition) -> int:
    """Number of standard Young tableaux of the given shape (hook-length formula)."""
    parts = check_partition(parts) if parts else ()
    if not parts:
        return 1
    conj = conjugate(parts)
    dim = factorial(sum(parts))
    for i, row in enumerate(parts):
        for j in range(row):
            dim //= row - j + conj[j] - i - 1
    return dim


def hook_dim_doubled(parts: Partition) -> int:
    """Tableau count of the doubled shape: hook_dim(2*lambda)."""
    return _hook_dim_doubled(check_partition(parts))


@cache
def _hook_dim_doubled(parts: Partition) -> int:
    """``hook_dim_doubled`` of a checked partition, for callers that built it."""
    return hook_dim(doubled(parts))


def content_product(parts: Partition, z):
    """Product over Young-diagram boxes (i, j) of (z + 2j - i - 1), rows/cols 1-based.

    For a rational z = p/q this is the integer product over the boxes of
    p + (2j - i - 1) q, over q^|lam|: one Fraction; an int when q = 1, and 1
    for the empty partition.
    """
    p, q = z.numerator, z.denominator
    num = 1
    for i, row in enumerate(parts):
        for c in range(p - i * q, p + (2 * row - i) * q, 2 * q):
            num *= c
    return num if q == 1 else Fraction(num, q ** sum(parts))


class _Value:
    """An immutable value: every set and delete is refused, and equality,
    hashing and the repr go by the class's ``_fields``.  Pickles and copies
    are built by the constructor from them, which checks them again."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot set or delete {name!r}: a {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class Perm(_Value):
    """A permutation of {1, ..., m} in one-line notation.

    ``images[i-1]`` is the image of i.  Composition is the usual left action:
    ``(p * q)(i) == p(q(i))``.
    """

    __slots__ = _fields = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = _as_ints(images, "permutation image")
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a bijection of 1..{len(imgs)}: {imgs}")
        object.__setattr__(self, "images", imgs)

    @classmethod
    def identity(cls, m: int) -> "Perm":
        return cls(range(1, _as_int(m, "permutation size", 0) + 1))

    @classmethod
    def from_cycles(cls, m: int, cycles: Iterable[Iterable[int]]) -> "Perm":
        m = _as_int(m, "permutation size", 0)
        imgs = list(range(1, m + 1))
        for cyc in cycles:
            cyc = _as_ints(cyc, "cycle entry", 1, m)
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                imgs[a - 1] = b
        return cls(imgs)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[_as_int(i, "point", 1, self.size) - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Perm(self.images[j - 1] for j in other.images)

    def inverse(self) -> "Perm":
        inv = [0] * self.size
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Perm(inv)

    def __repr__(self) -> str:
        return f"Perm{self.images}"


def character(lam: Partition, rho: Partition) -> int:
    """Irreducible character of S_n for shape lam on the class of cycle type rho;
    ValueError unless both are partitions of one n."""
    lam, rho = check_partition(lam), check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"weight mismatch: |{lam}| != |{rho}|")
    return _character(lam, rho)


@cache
def _character(lam: Partition, rho: Partition) -> int:
    """``character`` of checked partitions of one n, for callers that built them.

    Murnaghan-Nakayama recursion over border strips, driven on beta-numbers
    (first-column hook lengths); memoized on (shape, remaining cycle lengths).
    """
    if not lam:
        return 1
    r, rest = rho[0], rho[1:]
    ell = len(lam)
    beta = [lam[i] + (ell - 1 - i) for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for i, b in enumerate(beta):
        nb = b - r
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((nb if k == i else c for k, c in enumerate(beta)), reverse=True)
        new_lam = tuple(c - (ell - 1 - k) for k, c in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        total += (-1) ** height * _character(new_lam, rest)
    return total


# the benchmark's character cache counters read these until ROADMAP item 3 step 2
character.cache_info = _character.cache_info
character.cache_clear = _character.cache_clear
