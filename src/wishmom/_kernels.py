"""Hot sampling kernels: batched numpy transforms of the random draws.

The random draws themselves come from a numpy Generator; the kernels are the
deterministic transforms that dominate the per-sample cost.  They take and
return stacks with the sample axis first and contain no randomness, so a
fixed ``(seed, stream)`` reproduces every result bit for bit.

Inside, every Monte Carlo kernel lays its batch out as (d, k, m), with the
sample axis m innermost in memory, from the factor to W^-1.  Each numpy call
then runs along m, and none loops over an axis only d or p long.  Each kernel
calls into numpy a fixed number of times per batch (at most a few per row or
column), never once per sample:

- the Bartlett factors are built as A[:, :, s], and the Gaussian blocks Z[s]
  copied once to (d, p, m); the scale factor chol(sigma/2) then multiplies
  all of them in one (d x d)(d x k*m) matrix product;
- the per-sample Gram matrices come from one ``einsum("ikm,jkm->ijm")``,
  returned as the (m, d, d) view of the (d, d, m) result, so an entry read
  across all samples is contiguous.  A stacked ``M @ M.T`` calls BLAS once
  per sample and runs slower on two threads than one after the other, and
  the estimator runs its streams on threads;
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
"""

from __future__ import annotations

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
# Samples per block when vectors_gram moves the sample axis innermost.
_COPY_BLOCK = 256


def _gram(chol2: np.ndarray, F: np.ndarray) -> np.ndarray:
    """X[:, :, s] @ X[:, :, s].T for X = chol2 @ F[:, :, s] and every sample s
    of a (d, k, m) stack, returned as the (m, d, d) view of a (d, d, m) array.

    The scale factor is one GEMM, (d x d)(d x k*m), and the Gram one einsum
    whose inner loop runs along the contiguous sample axis.
    """
    d, k, m = F.shape
    X = (chol2 @ F.reshape(d, k * m)).reshape(d, k, m)
    return np.einsum("ikm,jkm->ijm", X, X).transpose(2, 0, 1)


def bartlett_gram(chol2: np.ndarray, chis: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Gram matrices of lower-triangular Bartlett factors against chol(sigma/2)."""
    m, d = chis.shape
    A = np.zeros((d, d, m))  # A[:, :, s] is the Bartlett factor of sample s
    idx = np.arange(d)
    A[idx, idx] = np.sqrt(chis).T
    rows, cols = np.tril_indices(d, -1)
    A[rows, cols] = normals.T
    return _gram(chol2, A)


def vectors_gram(chol2: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Sum of outer products of the columns of chol(sigma/2) @ Z per sample."""
    m, d, p = Z.shape
    F = np.empty((d, p, m))  # F[:, :, s] = Z[s]
    # copied _COPY_BLOCK samples at a time: one whole-batch transpose reads Z
    # with a stride of 8 d p bytes, which thrashes the cache when that is a
    # power of two (3-4x slower at d = 8, p = 16)
    for b in range(0, m, _COPY_BLOCK):
        F[:, :, b:b + _COPY_BLOCK] = Z[b:b + _COPY_BLOCK].transpose(1, 2, 0)
    return _gram(chol2, F)


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
