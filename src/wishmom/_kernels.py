"""Hot sampling kernels: batched numpy transforms of the random draws.

The random draws themselves come from a numpy Generator; the kernels are the
deterministic transforms that dominate the per-sample cost.  They are
vectorized over the leading sample axis and contain no randomness, so a fixed
``(seed, stream)`` reproduces every result bit for bit.

Each kernel calls into numpy a fixed number of times per batch, never once
per sample:

- the scale factor chol(sigma/2) multiplies the factors of all samples in one
  (d x d)(d x m*k) matrix product, with the samples' columns side by side;
- the per-sample Gram matrices come from one ``einsum`` over the sample axis.
  A stacked ``M @ M.T`` calls BLAS once per sample and runs slower on two
  threads than one after the other, and the estimator runs its streams on
  threads;
- the condition numbers of the inverses are bounded by a Frobenius-norm
  product, and ``eigvalsh`` runs only on the few draws whose bound comes
  near ``COND_LIMIT``;
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


def _scaled_columns(chol2: np.ndarray, F: np.ndarray) -> np.ndarray:
    """chol2 @ F[:, s, :] for every sample s of a (d, m, k) stack, as one GEMM."""
    d, m, k = F.shape
    return (chol2 @ F.reshape(d, m * k)).reshape(d, m, k)


def _gram(X: np.ndarray) -> np.ndarray:
    """X[:, s, :] @ X[:, s, :].T for every sample s, stacked as (m, d, d).

    einsum lays the result out like its operand, with the sample axis
    innermost in memory, so an entry read across all samples is contiguous.
    """
    Xs = X.transpose(1, 0, 2)
    return np.einsum("mik,mjk->mij", Xs, Xs)


def bartlett_gram(chol2: np.ndarray, chis: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Gram matrices of lower-triangular Bartlett factors against chol(sigma/2)."""
    m, d = chis.shape
    A = np.zeros((d, m, d))  # A[:, s, :] is the Bartlett factor of sample s
    idx = np.arange(d)
    A[idx, :, idx] = np.sqrt(chis).T
    rows, cols = np.tril_indices(d, -1)
    A[rows, :, cols] = normals.T
    return _gram(_scaled_columns(chol2, A))


def vectors_gram(chol2: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Sum of outer products of the columns of chol(sigma/2) @ Z per sample."""
    return _gram(_scaled_columns(chol2, Z.transpose(1, 0, 2)))


def inverse_and_cond(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched inverses plus condition numbers of symmetric positive definite W.

    ``inv`` is ``np.linalg.inv(W)``.  ``cond[s]`` is the eigenvalue ratio
    |lambda|_max / |lambda|_min of ``W[s]`` wherever the Frobenius bound
    ||W||_F ||W^-1||_F reaches COND_LIMIT / COND_SCREEN.  Below that, the
    ratio is certainly below COND_LIMIT and ``cond[s]`` holds the bound
    itself, which is at least the ratio and at most d times it.  So
    ``cond < COND_LIMIT`` decides every draw as the eigenvalue ratio does.

    A draw that LAPACK cannot invert gets a NaN inverse and ``cond = inf``,
    so it is rejected without aborting the rest of the batch.
    """
    singular = None
    try:
        inv = np.linalg.inv(W)
    except np.linalg.LinAlgError:
        # invert one draw at a time, as the batched call does, to find the bad ones
        inv = np.full_like(W, np.nan)
        singular = np.zeros(len(W), dtype=bool)
        for s, w in enumerate(W):
            try:
                inv[s] = np.linalg.inv(w)
            except np.linalg.LinAlgError:
                singular[s] = True
    # squares that under- or overflow give a bound of 0 * inf = NaN or inf,
    # and such a draw gets the eigenvalue solve; a ratio that overflows is inf
    with np.errstate(invalid="ignore", over="ignore"):
        cond = np.sqrt(np.einsum("mij,mij->m", W, W) * np.einsum("mij,mij->m", inv, inv))
        near = ~(cond < COND_LIMIT / COND_SCREEN)
        if near.any():
            eig = np.abs(np.linalg.eigvalsh(W[near]))
            cond[near] = eig[:, -1] / np.maximum(eig[:, 0], np.finfo(float).tiny)
    if singular is not None:
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
