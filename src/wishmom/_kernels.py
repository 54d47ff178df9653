"""Hot sampling kernels: batched numpy transforms of the random draws.

The random draws themselves come from a numpy Generator; the kernels are the
deterministic transforms that dominate the per-sample cost.  They take and
return stacks with the sample axis first and contain no randomness, so a
fixed ``(seed, stream)`` reproduces every result bit for bit.

Inside, every Monte Carlo kernel lays its batch out as (d, k, m), with the
sample axis m innermost in memory, from the factor to W^-1.  Each numpy call
then runs along m, and none loops over an axis only d or p long.  Each kernel
calls into numpy a fixed number of times per batch or block of draws (at
most a few per row or column), never once per sample:

- the Gram kernels run their batch in blocks of b draws through two
  (d, k, b) scratch buffers from the thread's workspace (below), reused by
  every block, of at most ``_BLOCK_BYTES`` = 1 MB together (up to 7,281
  Bartlett draws at d = 3, 512 draws at d = 8, p = 16).  Each block's
  factors go into the first (the Bartlett factors as A[:, :, s], the
  Gaussian blocks Z[s] copied to F[:, :, s]), chol(sigma/2) scales them into
  the second in one (d x d)(d x k*b) matrix product, and the lower triangle
  of the Gram is written row by row, one ``einsum`` per row; it is mirrored
  at the end.  A Bartlett row i reads only k <= i: about d^3/3 multiply-adds
  per draw instead of d^3.  The output is the (m, d, d) view of a (d, d, m) array, so
  an entry read across all samples is contiguous, and it equals the
  whole-batch product bit for bit.  Whole-batch intermediates cost as much
  in first touches of fresh pages as in arithmetic; blocked, on 12,500
  draws at d = 3, ``bartlett_gram`` took 1.1 against 1.5 ms and
  ``vectors_gram`` (p = 6) 1.1 against 1.9 ms, at d = 8 they took 1.8
  against 2.3 ms on 2,500 draws and 1.9 against 3.4 ms on 2,000 (p = 16),
  and ``bartlett_gram`` at d = 4 on 3,125 draws, one block, 0.25 against
  0.30 ms (2-vCPU VM, one BLAS thread, median of 101).  A stacked
  ``M @ M.T`` calls BLAS once per sample and runs slower on two threads
  than one after the other, and the estimator runs its streams on threads;
- the inverse comes from a Cholesky factorization across the batch, one
  ``einsum`` per column of L, one per row of L^-1 and one per row of
  W^-1 = L^-T L^-1.  Only a draw with a pivot that is not positive or not
  finite goes to LAPACK, alone.  On 20,000 draws it took
  0.9 / 1.8 / 3.1 / 19 ms at d = 2 / 3 / 4 / 8, against 9.1 / 11 / 13 / 41 ms
  for a batched ``np.linalg.inv``; 50 against 70 ms on 2,000 draws at d = 32,
  and about even, 66 against 63 ms, on 500 draws at d = 64 (2-vCPU VM, one
  BLAS thread, best of 15 and 7);
- the condition numbers of the inverses are bounded by a Frobenius-norm
  product, and ``eigvalsh`` runs only on the draws whose bound comes near
  ``COND_LIMIT`` and on those LAPACK inverted;
- the Haar Q comes from Gram-Schmidt across the whole batch, each projection
  applied twice, on only the columns the caller reads: 20,000 draws at N = 8
  took 3.5 ms for 2 columns and 27 ms for all 8, against 55-72 ms for LAPACK
  QR with the sign fix (2-vCPU VM, one BLAS thread).  A draw where a column
  all but vanishes in the projections, which a Gaussian draw almost never
  does, goes to LAPACK QR.

Each thread keeps a workspace of named float64 buffers (``_scratch``) that
grow on demand and outlive the call: the samplers in ``montecarlo`` draw
into it, the Gaussians through ``Generator.standard_normal(out=...)`` and
the Bartlett chi-squares as 2 ``standard_gamma(dof / 2, out=...)``, which
is numpy's own definition of ``chisquare``, draw for draw; the Gram kernels
take their two scratch buffers from it, the first zeroed at every call.  A
thread keeps at most ``_KEEP_BYTES`` = 8 MB; a larger request gets a fresh
array that is not kept.  No buffer escapes: every array a function returns
is freshly allocated.  The estimator runs its streams on worker threads
that persist across calls, so after the first call a repeated estimate
touches no fresh page.  On the benchmark's Monte Carlo pool, one call of
each slot in turn at threads = 1 faulted in 195 / 72 / 1,068 / 277 / 98
fresh pages per call (Bartlett d = 3 / Bartlett d = 8 / vectors d = 3 /
inverse d = 4 / Haar N = 3, none at Haar N = 8); with the workspace, none.
The vectors d = 3 call (25,000 draws, p = 6) took 12.3 against 15.3 ms
(2-vCPU VM, one BLAS thread, median of 12).
"""

from __future__ import annotations

import math
import threading

import numpy as np

# Draws whose eigenvalue ratio is not below this are rejected by the estimator.
COND_LIMIT = 1e12
# A Frobenius bound below COND_LIMIT / COND_SCREEN decides a draw without an
# eigenvalue solve.  The factor dwarfs every rounding error in the bound and
# in the eigenvalue ratio it stands in for.
COND_SCREEN = 100.0
# A Haar draw where Gram-Schmidt leaves some column with at most this share of
# its norm goes to LAPACK QR: near there the two orthogonalizations can differ
# by far more than rounding (by about the unit roundoff over the share).  An
# N x N Gaussian draw falls below it with probability about 1e-8 sqrt(N).
GS_SCREEN = 1e-8
# Scratch bytes per block of the Gram kernels: the factors F and X = chol2 F,
# 16 d k bytes per sample.  A batch is split into the fewest blocks within it,
# of nearly equal size; a batch that fits is one block.
_BLOCK_BYTES = 1 << 20
# Bytes of workspace one thread keeps from call to call (``_scratch``): the
# draws of every chunk the benchmark draws fit, with the Gram scratch.  A
# larger request gets a fresh array that is not kept, so that, say, a
# DEFAULT_CHUNK of draws at d = 8, p = 16 (67 MB) is not held for the life
# of the thread.
_KEEP_BYTES = 1 << 23


class _Workspace(threading.local):
    """The named float64 buffers of one thread."""

    def __init__(self):
        self.buffers: dict[str, np.ndarray] = {}


_workspace = _Workspace()


def _scratch(name: str, shape: tuple[int, ...]) -> np.ndarray:
    """A C-contiguous float64 array of ``shape`` from this thread's buffer
    ``name``, its contents left over from earlier calls.

    The buffer grows on demand and is kept while the thread keeps at most
    ``_KEEP_BYTES`` in all; past that the request gets a fresh array that is
    not kept.  The next request for ``name`` on the thread reuses the memory,
    so the array must not outlive the call that asked for it.
    """
    size = math.prod(shape)
    buffers = _workspace.buffers
    buf = buffers.get(name)
    if buf is None or buf.size < size:
        if 8 * size + sum(b.nbytes for key, b in buffers.items() if key != name) > _KEEP_BYTES:
            return np.empty(shape)
        buf = buffers[name] = np.empty(size)
    return buf[:size].reshape(shape)


def _block_gram(chol2: np.ndarray, m: int, k: int, fill, lower: bool) -> np.ndarray:
    """X[:, :, s] @ X[:, :, s].T for X = chol2 @ F[:, :, s] and each of m
    samples s, returned as the (m, d, d) view of a (d, d, m) array.

    The batch runs in blocks of b samples through two (d, k, b) scratch
    buffers of the thread's workspace, F zeroed once per call:
    ``fill(F, b0, n)`` writes the factors of samples b0 .. b0 + n - 1 into
    F[:, :, :n], one GEMM (d x d)(d x k b) scales them into X, and the lower
    triangle of the Gram is written row by row, one ``einsum`` along the
    contiguous sample axis per row, then mirrored.  With ``lower`` the X
    are lower triangular (k = d), so row i reads only k <= i.
    """
    d = len(chol2)
    blocks = -(-16 * d * k * m // _BLOCK_BYTES) or 1
    b = -(-m // blocks) or 1  # an empty batch still gets a one-draw scratch
    F = _scratch("gram F", (d, k, b))
    F.fill(0.0)  # a Bartlett factor's upper triangle is read, never written
    X = _scratch("gram X", (d, k, b))
    G = np.empty((d, d, m))
    for b0 in range(0, m, b):
        n = min(b, m - b0)
        fill(F, b0, n)
        np.matmul(chol2, F.reshape(d, k * b), out=X.reshape(d, k * b))
        for i in range(d):
            # the terms k > i of a Bartlett row are exact zeros, but a lone
            # draw reads them too: einsum then reduces along k, in an order
            # that depends on its length, as the whole-batch product did
            top = i + 1 if lower and n > 1 else k
            np.einsum("km,jkm->jm", X[i, :top, :n], X[:i + 1, :top, :n], out=G[i, :i + 1, b0:b0 + n])
    for i in range(1, d):
        G[:i, i] = G[i, :i]
    return G.transpose(2, 0, 1)


def bartlett_gram(chol2: np.ndarray, chis: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Gram matrices of lower-triangular Bartlett factors against chol(sigma/2)."""
    m, d = chis.shape
    rows, cols = np.tril_indices(d, -1)

    def fill(A: np.ndarray, b0: int, n: int) -> None:
        # A[:, :, s] is the Bartlett factor of sample b0 + s, its diagonal
        # every (d + 1)-th row of A as (d * d, b); the upper triangle of the
        # zeroed buffer is never written
        np.sqrt(chis[b0:b0 + n].T, out=A.reshape(d * d, -1)[::d + 1, :n])
        A[rows, cols, :n] = normals[b0:b0 + n].T

    return _block_gram(chol2, m, d, fill, lower=True)


def vectors_gram(chol2: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Sum of outer products of the columns of chol(sigma/2) @ Z per sample."""
    m, d, p = Z.shape

    def fill(F: np.ndarray, b0: int, n: int) -> None:
        F[:, :, :n] = Z[b0:b0 + n].transpose(1, 2, 0)  # F[:, :, s] = Z[b0 + s]

    return _block_gram(chol2, m, p, fill, lower=False)


def _cholesky_inverse(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """W^-1 = L^-T L^-1 with W = L L^T for every sample of a (d, d, m) stack.

    Returns the (d, d, m) inverses and a mask of the draws whose Cholesky
    pivot was not positive or not finite; their inverses are not to be used.
    """
    d, _, m = V.shape
    bad = np.zeros(m, dtype=bool)
    L = np.zeros_like(V)  # L, then L^-1 written over it row by row
    inv = np.empty_like(V)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for j in range(d):  # column j of L
            col = V[j:, j] - np.einsum("ikm,km->im", L[j:, :j], L[j, :j])
            bad |= ~((col[0] > 0) & (col[0] < np.inf))
            L[j, j] = np.sqrt(col[0])
            L[j + 1:, j] = col[1:] / L[j, j]
        for i in range(d):  # row i of L^-1 reads row i of L and rows < i of L^-1
            L[i, :i] = np.einsum("km,kjm->jm", L[i, :i], L[:i, :i]) / -L[i, i]
            L[i, i] = 1.0 / L[i, i]
        for a in range(d):  # the lower triangle of L^-T L^-1 by rows, mirrored
            inv[a, :a + 1] = np.einsum("km,kbm->bm", L[a:, a], L[a:, :a + 1])
            inv[:a, a] = inv[a, :a]
    return inv, bad


def inverse_and_cond(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched inverses plus condition numbers of symmetric positive definite W.

    The inverse comes from a Cholesky factorization run across the whole
    batch with the sample axis innermost, one ``einsum`` per column of L,
    one per row of L^-1 and one per row of W^-1 = L^-T L^-1, whose lower
    triangle is mirrored, so it is exactly symmetric.  A draw whose pivot is
    not positive or not finite is inverted alone by ``np.linalg.inv`` and
    always takes the eigenvalue solve.

    ``cond[s]`` is the eigenvalue ratio |lambda|_max / |lambda|_min of
    ``W[s]`` wherever the Frobenius bound ||W||_F ||W^-1||_F reaches
    COND_LIMIT / COND_SCREEN.  Below that, the ratio is certainly below
    COND_LIMIT and ``cond[s]`` holds the bound itself, which is at least the
    ratio and at most d times it.  So ``cond < COND_LIMIT`` decides every
    draw as the eigenvalue ratio does.

    A draw that LAPACK cannot invert either gets a NaN inverse and
    ``cond = inf``, so it is rejected without aborting the rest of the batch.
    Results do not depend on the memory layout of W.  ``inv`` is the
    (m, d, d) view of a (d, d, m) array, like the Gram kernels' output.
    """
    V = np.ascontiguousarray(W.transpose(1, 2, 0), dtype=float)
    Vinv, bad = _cholesky_inverse(V)
    inv = Vinv.transpose(2, 0, 1)
    singular = np.zeros(len(inv), dtype=bool)
    for s in np.flatnonzero(bad):
        try:
            inv[s] = np.linalg.inv(W[s])
        except np.linalg.LinAlgError:
            inv[s] = np.nan
            singular[s] = True
    # squares that under- or overflow give a bound of 0 * inf = NaN or inf,
    # and such a draw gets the eigenvalue solve; a ratio that overflows is inf
    with np.errstate(invalid="ignore", over="ignore"):
        cond = np.sqrt(np.einsum("ijm,ijm->m", V, V) * np.einsum("ijm,ijm->m", Vinv, Vinv))
        near = ~(cond < COND_LIMIT / COND_SCREEN) | bad
        if near.any():
            eig = np.abs(np.linalg.eigvalsh(W[near]))
            cond[near] = eig[:, -1] / np.maximum(eig[:, 0], np.finfo(float).tiny)
    cond[singular] = np.inf
    return inv, cond


def haar_orthogonalize(G: np.ndarray, k: int) -> np.ndarray:
    """The first k columns of Q in G = QR, R with a positive diagonal, for
    every sample of an (m, N, N) stack; Haar when G is iid Gaussian.

    Gram-Schmidt runs across the batch with the sample axis innermost:
    column j is projected twice against the columns before it, two ``einsum``
    calls per pass, and then normalised.  Column j reads only columns 1..j
    of G.  A draw where some column keeps at most ``GS_SCREEN`` of its norm
    after the projections (an exactly zero residual included, where
    Gram-Schmidt would divide by zero) is orthogonalized by LAPACK QR with
    the signs of R's diagonal fixed, a zero sign counting as +1.
    """
    A = G[:, :, :k].transpose(2, 1, 0).copy()  # A[j, i, s] = G[s, i, j], C order
    with np.errstate(invalid="ignore", divide="ignore"):
        before = np.sqrt(np.einsum("jis,jis->js", A, A))
        after = np.empty_like(before)
        for j in range(k):
            v, P = A[j], A[:j]
            for _ in range(2 if j else 0):
                v -= np.einsum("cis,cs->is", P, np.einsum("cis,is->cs", P, v))
            after[j] = np.sqrt(np.einsum("is,is->s", v, v))
            v /= after[j]
        # written so that 0/0 = NaN counts as screened out
        bad = ~(after > GS_SCREEN * before).all(axis=0)
    Q = A.transpose(2, 1, 0)
    if bad.any():
        q, r = np.linalg.qr(G[bad])
        sign = np.sign(np.einsum("mii->mi", r[:, :k, :k]))
        sign[sign == 0] = 1.0
        Q[bad] = q[:, :, :k] * sign[:, None, :]
    return Q
