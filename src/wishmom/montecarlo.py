"""Wishart and Haar-orthogonal samplers plus a moment-validation estimator.

Sampling is reproducible: an RngSpec (seed, stream) pins the whole draw
sequence, worker streams are merged by a deterministic pairwise reduction,
and the thread count never changes results.  Every estimated moment is
paired with its exact target from the closed-form modules and reported as a
z-score.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from . import _kernels, wishart
from ._kernels import COND_LIMIT
from .symcomb import Partition, _as_int, _as_ints, check_partition
from .weingarten import check_dimension
from .wishart import DomainError, MomentSpec, WishartParams, _real_matrix

DEFAULT_CHUNK = 1 << 16


@dataclass(frozen=True)
class RngSpec:
    """Seed plus worker-stream index; fully determines a sample sequence."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0))
        object.__setattr__(self, "stream", _as_int(self.stream, "stream", 0))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass
class SampleStats:
    """Streaming summary of one estimated moment against its exact target."""

    count: int
    mean: float
    stderr: float
    target: float
    zscore: float
    rejected: int = 0
    label: str = ""


# ------------------------------------------------------------- descriptors


@dataclass(frozen=True)
class EntryProduct:
    """Product of matrix entries W^{+-1}[k1,k2] * W^{+-1}[k3,k4] * ..."""

    indices: tuple[int, ...]
    inverse: bool = False

    def __post_init__(self):
        object.__setattr__(self, "indices", MomentSpec(self.indices).indices)

    @property
    def order(self) -> int:
        return len(self.indices) // 2

    @property
    def label(self) -> str:
        w = "Winv" if self.inverse else "W"
        pairs = [f"{w}[{self.indices[i]},{self.indices[i+1]}]" for i in range(0, len(self.indices), 2)]
        return "*".join(pairs)

    def target(self, params: WishartParams) -> float:
        return wishart.moment(params, MomentSpec(self.indices, inverse=self.inverse))

    def values(self, mats: np.ndarray) -> np.ndarray:
        out = np.ones(mats.shape[0])
        for i in range(0, len(self.indices), 2):
            out *= mats[:, self.indices[i] - 1, self.indices[i + 1] - 1]
        return out


@dataclass(frozen=True)
class TracePower:
    """(tr W^{+-1})**n."""

    power: int
    inverse: bool = False

    def __post_init__(self):
        object.__setattr__(self, "power", _as_int(self.power, "power"))

    @property
    def order(self) -> int:
        return self.power

    @property
    def label(self) -> str:
        return f"tr({'Winv' if self.inverse else 'W'})^{self.power}"

    def target(self, params: WishartParams) -> float:
        return wishart.trace_power_moment(params, self.power, inverse=self.inverse)

    def values(self, mats: np.ndarray) -> np.ndarray:
        return np.einsum("mii->m", mats) ** self.power


@dataclass(frozen=True)
class PowerTrace:
    """prod_i tr((W^{+-1})**mu_i)."""

    mu: Partition
    inverse: bool = False

    def __post_init__(self):
        object.__setattr__(self, "mu", check_partition(self.mu))

    @property
    def order(self) -> int:
        return sum(self.mu)

    @property
    def label(self) -> str:
        return f"p_{self.mu}({'Winv' if self.inverse else 'W'})"

    def target(self, params: WishartParams) -> float:
        return wishart.power_trace_moment(params, self.mu, inverse=self.inverse)

    def values(self, mats: np.ndarray) -> np.ndarray:
        # tr(W^r) contracts W^(r-1) against W, so the top power is never formed.
        # einsum runs along the sample axis, which the Gram kernels put
        # innermost in memory; a stacked @ on that layout is ten times slower.
        out = np.ones(mats.shape[0])
        top = max(self.mu, default=0)
        power = mats
        traces = {1: np.einsum("mii->m", mats)}
        for r in range(2, top + 1):
            traces[r] = np.einsum("mij,mji->m", power, mats)
            if r < top:
                power = np.einsum("mij,mjk->mik", power, mats)
        for part in self.mu:
            out = out * traces[part]
        return out


@dataclass(frozen=True)
class TraceProduct:
    """prod_i tr(W s_i) for fixed symmetric matrices s_i (forward only)."""

    mats: tuple

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(_real_matrix(m, None, "trace-product factor") for m in self.mats))

    @property
    def order(self) -> int:
        return len(self.mats)

    @property
    def label(self) -> str:
        return f"prod tr(W s_i), n={len(self.mats)}"

    def target(self, params: WishartParams) -> float:
        return wishart.trace_product_moment(params, list(self.mats))

    def values(self, mats: np.ndarray) -> np.ndarray:
        out = np.ones(mats.shape[0])
        for s in self.mats:
            out = out * np.einsum("mij,ji->m", mats, s)
        return out


# ---------------------------------------------------------------- sampling


def _resolve_method(params: WishartParams, method: str) -> str:
    two_beta = 2 * params.beta
    if method == "auto":
        if two_beta > params.d - 1:
            return "bartlett"
        if two_beta.denominator == 1:
            return "vectors"
        raise DomainError("no sampler: need 2*beta > d-1 (Bartlett) or integer 2*beta")
    if method == "bartlett":
        if not two_beta > params.d - 1:
            raise DomainError(f"Bartlett path needs 2*beta > d-1, got beta={params.beta}")
        return method
    if method == "vectors":
        if two_beta.denominator != 1:
            raise DomainError(f"integer path needs integer 2*beta, got beta={params.beta}")
        return method
    raise ValueError(f"unknown sampling method {method!r}")


def sample_wishart_batch(
    params: WishartParams, count: int, gen: np.random.Generator, method: str = "auto"
) -> np.ndarray:
    """Draw ``count`` Wishart matrices; E[W] = beta * sigma."""
    count = _as_int(count, "count", 0)
    method = _resolve_method(params, method)
    d = params.d
    chol2 = params.chol / np.sqrt(2.0)  # cholesky factor of sigma/2
    if method == "bartlett":
        dof = 2 * float(params.beta) - np.arange(d)
        chis = gen.chisquare(dof, size=(count, d))
        normals = gen.standard_normal((count, d * (d - 1) // 2)) if d > 1 else np.zeros((count, 0))
        return _kernels.bartlett_gram(chol2, chis, normals)
    p = int(2 * params.beta)
    Z = gen.standard_normal((count, d, p))
    return _kernels.vectors_gram(chol2, Z)


def sample_wishart(params: WishartParams, rng: RngSpec, method: str = "auto") -> np.ndarray:
    """One Wishart draw from a fresh generator at the given RngSpec."""
    return sample_wishart_batch(params, 1, rng.generator(), method)[0]


def sample_haar_batch(N: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` Haar-orthogonal N x N matrices, stacked as (count, N, N)."""
    N, count = check_dimension(N), _as_int(count, "count", 0)
    return _kernels.haar_orthogonalize(gen.standard_normal((count, N, N)), N)


def sample_haar_orthogonal(N: int, rng: RngSpec) -> np.ndarray:
    """One Haar-orthogonal N x N matrix: the Q of a Gaussian matrix G = QR
    whose R has a positive diagonal."""
    return sample_haar_batch(N, 1, rng.generator())[0]


# ------------------------------------------------------------ accumulation


@dataclass
class _Acc:
    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    rejected: int = 0

    def add_chunk(self, values: np.ndarray, rejected: int = 0) -> None:
        m = values.size
        self.rejected += rejected
        if m == 0:
            return
        mean = float(values.mean())
        m2 = float(((values - mean) ** 2).sum())
        self.merge(_Acc(count=m, mean=mean, m2=m2))

    def merge(self, other: "_Acc") -> None:
        if other.count == 0:
            self.rejected += other.rejected
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            self.rejected += other.rejected
            return
        n1, n2 = self.count, other.count
        delta = other.mean - self.mean
        tot = n1 + n2
        self.mean += delta * n2 / tot
        self.m2 += other.m2 + delta * delta * n1 * n2 / tot
        self.count = tot
        self.rejected += other.rejected


def _finalize(acc: _Acc, target: float, label: str) -> SampleStats:
    if acc.count > 1:
        stderr = sqrt(acc.m2 / (acc.count - 1) / acc.count)
    else:
        stderr = 0.0
    if stderr > 0:
        z = (acc.mean - target) / stderr
    else:
        z = 0.0 if acc.mean == target else float("inf")
    return SampleStats(
        count=acc.count, mean=acc.mean, stderr=stderr, target=target, zscore=z,
        rejected=acc.rejected, label=label,
    )


def _pairwise_merge(per_stream: list[list[_Acc]]) -> list[_Acc]:
    work = per_stream
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work) - 1, 2):
            left, right = work[i], work[i + 1]
            for a, b in zip(left, right):
                a.merge(b)
            nxt.append(left)
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return work[0]


def _run_streams(
    draw_chunk: Callable[[np.random.Generator, int, list[_Acc]], None], targets: list[float],
    labels: list[str], sample_count: int, rng: RngSpec, chunk: int, streams: int, threads: int,
) -> list[SampleStats]:
    """Split ``sample_count`` draws over RngSpec(seed, stream + i), i < streams,
    calling ``draw_chunk(gen, m, accs)`` with at most ``chunk`` draws at a time;
    merge the streams pairwise in order, so the thread count never changes
    results.  Each stream runs on one thread, so ``threads > streams`` leaves
    threads unused and warns.
    """
    sample_count = _as_int(sample_count, "sample_count", 1000)
    streams = _as_int(streams, "streams", 1)
    chunk = _as_int(chunk, "chunk", 1)
    threads = _as_int(threads, "threads", 1)
    if threads > streams:
        warnings.warn(
            f"threads={threads} exceeds streams={streams}; only {streams} thread(s) can run",
            RuntimeWarning,
            stacklevel=3,
        )
    base, extra = divmod(sample_count, streams)

    def run_stream(i: int) -> list[_Acc]:
        gen = RngSpec(rng.seed, rng.stream + i).generator()
        accs = [_Acc() for _ in targets]
        left = base + (1 if i < extra else 0)
        while left > 0:
            m = min(chunk, left)
            left -= m
            draw_chunk(gen, m, accs)
        return accs

    if threads > 1 and streams > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_stream = list(pool.map(run_stream, range(streams)))
    else:
        per_stream = [run_stream(i) for i in range(streams)]
    merged = _pairwise_merge(per_stream)
    return [_finalize(acc, t, lab) for acc, t, lab in zip(merged, targets, labels)]


def estimate(
    descriptors: Sequence,
    params: WishartParams,
    sample_count: int,
    rng: RngSpec,
    method: str = "auto",
    chunk: int = DEFAULT_CHUNK,
    streams: int = 1,
    threads: int = 1,
) -> list[SampleStats]:
    """Estimate each descriptor's moment over ``sample_count`` draws.

    Inverse-moment descriptors additionally require gamma > order, one unit
    beyond the existence threshold, so the empirical variance is usable;
    near-singular draws (condition above 1e12) are rejected and counted.
    """
    descriptors = list(descriptors)
    need_inverse = any(getattr(d, "inverse", False) for d in descriptors)
    if need_inverse:
        gamma = params.gamma
        worst = max(d.order for d in descriptors if getattr(d, "inverse", False))
        if not gamma > Fraction(worst):
            raise DomainError(
                f"inverse-moment estimation needs gamma > n, got gamma={gamma} for degree {worst}"
            )
    targets = [float(d.target(params)) for d in descriptors]

    def draw_chunk(gen: np.random.Generator, m: int, accs: list[_Acc]) -> None:
        W = sample_wishart_batch(params, m, gen, method)
        Winv = None
        rejected = 0
        if need_inverse:
            inv, cond = _kernels.inverse_and_cond(W)
            mask = cond < COND_LIMIT
            rejected = int(m - mask.sum())
            Winv = inv[mask] if rejected else inv
        for desc, acc in zip(descriptors, accs):
            if getattr(desc, "inverse", False):
                acc.add_chunk(desc.values(Winv), rejected=rejected)
            else:
                acc.add_chunk(desc.values(W))

    labels = [d.label for d in descriptors]
    return _run_streams(draw_chunk, targets, labels, sample_count, rng, chunk, streams, threads)


def estimate_haar(
    index_pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    N: int,
    sample_count: int,
    rng: RngSpec,
    chunk: int = DEFAULT_CHUNK,
    streams: int = 1,
    threads: int = 1,
) -> list[SampleStats]:
    """Estimate E[prod O[i_k, j_k]] for each (i, j) pair list against the
    exact Weingarten-sum value."""
    N = check_dimension(N)
    pairs = [(_as_ints(i, "row index", 1, N), _as_ints(j, "column index", 1, N)) for i, j in index_pairs]
    targets = [float(wishart.haar_moment(i, j, N)) for i, j in pairs]
    labels = [f"prod O[{i},{j}]" for i, j in pairs]
    k = max((b for _, j_idx in pairs for b in j_idx), default=0)

    def draw_chunk(gen: np.random.Generator, m: int, accs: list[_Acc]) -> None:
        # the draws of sample_haar_batch, orthogonalized up to the last column read
        Q = _kernels.haar_orthogonalize(gen.standard_normal((m, N, N)), k)
        for (i_idx, j_idx), acc in zip(pairs, accs):
            vals = np.ones(m)
            for a, b in zip(i_idx, j_idx):
                vals *= Q[:, a - 1, b - 1]
            acc.add_chunk(vals)

    return _run_streams(draw_chunk, targets, labels, sample_count, rng, chunk, streams, threads)
