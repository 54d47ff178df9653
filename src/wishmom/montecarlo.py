"""Wishart and Haar-orthogonal samplers plus a moment-validation estimator.

Sampling is reproducible: an RngSpec (seed, stream) pins the whole draw
sequence, worker streams are merged by a deterministic pairwise reduction,
and the thread count never changes results.  The streams run on one pool of
worker threads kept across calls, and the draws go into buffers each thread
keeps (``_kernels._scratch``).  Every estimated moment is paired with its
exact target from the closed-form modules and reported as a z-score.
"""

from __future__ import annotations

import os
import threading
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import _kernels, wishart
from ._kernels import COND_LIMIT
from .symcomb import Partition, _as_int, _as_ints
from .weingarten import _contract, _zonal_coeffs, check_dimension
from .wishart import DomainError, WishartParams, _real_rows

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

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
# One class per moment kind, with its exact target and its per-draw values.
# The exact half of each kind that ``wishmom moment`` also prints (its
# argument check, degree and target) is ``wishart.MomentKind``.


def _pair(desc, field: str, kind: str) -> None:
    """Pair the descriptor ``desc`` with the exact half of its kind,
    ``wishart.MomentKind``, keep its argument ``field`` as that reads it and
    take its ``order``."""
    exact = wishart.MomentKind(kind, getattr(desc, field), desc.inverse)
    object.__setattr__(desc, "_exact", exact)
    object.__setattr__(desc, field, exact.arg)
    object.__setattr__(desc, "order", exact.order)


def _power_traces(mats: np.ndarray, top: int) -> dict[int, np.ndarray]:
    """tr(W^r) of each draw, for r = 1..top (and r = 1 when top is 0)."""
    # tr(W^r) contracts W^(r-1) against W, so the top power is never formed.
    # einsum runs along the sample axis, which the Gram kernels put
    # innermost in memory; a stacked @ on that layout is ten times slower.
    power = mats
    traces = {1: np.einsum("mii->m", mats)}
    for r in range(2, top + 1):
        traces[r] = np.einsum("mij,mji->m", power, mats)
        if r < top:
            power = np.einsum("mij,mjk->mik", power, mats)
    return traces


@dataclass(frozen=True)
class EntryProduct:
    """Product of matrix entries W^{+-1}[k1,k2] * W^{+-1}[k3,k4] * ..."""

    indices: tuple[int, ...]
    inverse: bool = False

    def __post_init__(self):
        _pair(self, "indices", "entries")

    @property
    def label(self) -> str:
        w = "Winv" if self.inverse else "W"
        pairs = [f"{w}[{self.indices[i]},{self.indices[i+1]}]" for i in range(0, len(self.indices), 2)]
        return "*".join(pairs)

    def target(self, params: WishartParams) -> float:
        return self._exact.target(params)

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
        _pair(self, "power", "trace_power")

    @property
    def label(self) -> str:
        return f"tr({'Winv' if self.inverse else 'W'})^{self.power}"

    def target(self, params: WishartParams) -> float:
        return self._exact.target(params)

    def values(self, mats: np.ndarray) -> np.ndarray:
        return np.einsum("mii->m", mats) ** self.power


@dataclass(frozen=True)
class PowerTrace:
    """prod_i tr((W^{+-1})**mu_i)."""

    mu: Partition
    inverse: bool = False

    def __post_init__(self):
        _pair(self, "mu", "power_trace")

    @property
    def label(self) -> str:
        return f"p_{self.mu}({'Winv' if self.inverse else 'W'})"

    def target(self, params: WishartParams) -> float:
        return self._exact.target(params)

    def values(self, mats: np.ndarray) -> np.ndarray:
        out = np.ones(mats.shape[0])
        traces = _power_traces(mats, max(self.mu, default=0))
        for part in self.mu:
            out = out * traces[part]
        return out


@dataclass(frozen=True)
class Invariant:
    """Z_lam(W^{+-1}), the zonal polynomial of shape lam."""

    lam: Partition
    inverse: bool = False

    def __post_init__(self):
        _pair(self, "lam", "invariant")

    @property
    def label(self) -> str:
        return f"Z_{self.lam}({'Winv' if self.inverse else 'W'})"

    def target(self, params: WishartParams) -> float:
        return self._exact.target(params)

    def values(self, mats: np.ndarray) -> np.ndarray:
        # the exact contraction of ``zonal_eval`` on float coefficients: a
        # Fraction times an array would make an object array
        if not self.lam:
            return np.ones(mats.shape[0])
        coeffs = {rho: float(c) for rho, c in _zonal_coeffs(self.lam).items()}
        return _contract(coeffs, _power_traces(mats, self.order))


@dataclass(frozen=True)
class TraceProduct:
    """prod_i tr(W s_i) for fixed symmetric matrices s_i (forward only)."""

    mats: tuple

    def __post_init__(self):
        object.__setattr__(self, "mats", tuple(np.array(_real_rows(m, None, "trace-product factor")) for m in self.mats))
        object.__setattr__(self, "order", len(self.mats))

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
    if method == "auto":  # an admissible beta has 2 beta > d - 1 or an integer 2 beta
        return "bartlett" if two_beta > params.d - 1 else "vectors"
    if method == "bartlett":
        if not two_beta > params.d - 1:
            raise DomainError(f"Bartlett path needs 2*beta > d-1, got beta={params.beta}")
        return method
    if method == "vectors":
        if two_beta.denominator != 1:
            raise DomainError(f"integer path needs integer 2*beta, got beta={params.beta}")
        return method
    raise ValueError(f"unknown sampling method {method!r}")


def _normals(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard normal draws of ``shape`` in this thread's workspace."""
    return gen.standard_normal(shape, out=_kernels._scratch("normal", shape))


def sample_wishart_batch(
    params: WishartParams, count: int, gen: np.random.Generator, method: str = "auto"
) -> np.ndarray:
    """Draw ``count`` Wishart matrices; E[W] = beta * sigma."""
    count = _as_int(count, "count", 0)
    method = _resolve_method(params, method)
    d = params.d
    chol2 = params.chol / np.sqrt(2.0)  # cholesky factor of sigma/2
    # the draws go into the thread's workspace; the kernels return fresh arrays
    if method == "bartlett":
        dof = 2 * float(params.beta) - np.arange(d)
        # chisquare(dof) is 2 standard_gamma(dof / 2), draw for draw
        chis = gen.standard_gamma(dof / 2, (count, d), out=_kernels._scratch("gamma", (count, d)))
        chis *= 2
        return _kernels.bartlett_gram(chol2, chis, _normals(gen, (count, d * (d - 1) // 2)))
    return _kernels.vectors_gram(chol2, _normals(gen, (count, d, int(2 * params.beta))))


def sample_haar_batch(N: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` Haar-orthogonal N x N matrices, stacked as (count, N, N):
    each the Q of a Gaussian matrix G = QR whose R has a positive diagonal."""
    N, count = check_dimension(N), _as_int(count, "count", 0)
    return _kernels.haar_orthogonalize(_normals(gen, (count, N, N)), N)


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


# Every estimate runs its streams on one pool of worker threads, built on
# first use and kept, so that a call starts no thread and each worker keeps
# its workspace (``_kernels._scratch``) from one call to the next.
# concurrent.futures is imported there too: a one-lane estimate, and every
# CLI command but validate montecarlo, never needs it.
_pool: ThreadPoolExecutor | None = None
_pool_size = 0
_pool_pid = 0
_pool_lock = threading.Lock()


def _workers(lanes: int) -> ThreadPoolExecutor:
    """The worker pool, rebuilt when it has fewer than ``lanes`` workers or
    was built by another process: a forked child inherits the pool but not
    its threads, and would wait forever on what it submits.  A replaced pool
    is dropped, not shut down, so a call still submitting to it runs; its
    workers exit once it is garbage-collected."""
    from concurrent.futures import ThreadPoolExecutor

    global _pool, _pool_size, _pool_pid
    with _pool_lock:
        if _pool is None or _pool_size < lanes or _pool_pid != os.getpid():
            _pool = ThreadPoolExecutor(lanes, thread_name_prefix="wishmom-streams")
            _pool_size, _pool_pid = lanes, os.getpid()
        return _pool


def _run_streams(
    draw_chunk: Callable[[np.random.Generator, int, list[_Acc]], None], targets: list[float],
    labels: list[str], sample_count: int, rng: RngSpec, chunk: int, streams: int, threads: int,
) -> list[SampleStats]:
    """Split ``sample_count`` draws over RngSpec(seed, stream + i), i < streams,
    calling ``draw_chunk(gen, m, accs)`` with at most ``chunk`` draws at a time;
    merge the streams pairwise in order, so the thread count never changes
    results.  Each stream runs on one thread, so ``threads > streams`` leaves
    threads unused and warns.

    The streams run in ``min(threads, streams)`` lanes: lane j runs streams
    j, j + lanes, ... in order, so at most ``threads`` of them run at once.
    One lane runs on the calling thread, more on the worker pool.
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

    lanes = min(threads, streams)

    def run_lane(j: int) -> list[list[_Acc]]:
        return [run_stream(i) for i in range(j, streams, lanes)]

    if lanes > 1:
        from concurrent.futures import wait

        pool = _workers(lanes)
        futures = [pool.submit(run_lane, j) for j in range(lanes)]
        wait(futures)  # every lane ends before an error is raised
        per_lane = [f.result() for f in futures]
    else:
        per_lane = [run_lane(0)]
    per_stream = [per_lane[i % lanes][i // lanes] for i in range(streams)]
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
        Q = _kernels.haar_orthogonalize(_normals(gen, (m, N, N)), k)
        for (i_idx, j_idx), acc in zip(pairs, accs):
            vals = np.ones(m)
            for a, b in zip(i_idx, j_idx):
                vals *= Q[:, a - 1, b - 1]
            acc.add_chunk(vals)

    return _run_streams(draw_chunk, targets, labels, sample_count, rng, chunk, streams, threads)
