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
  near ``COND_LIMIT``.
"""

from __future__ import annotations

import numpy as np

# Draws whose eigenvalue ratio is not below this are rejected by the estimator.
COND_LIMIT = 1e12
# A Frobenius bound below COND_LIMIT / COND_SCREEN decides a draw without an
# eigenvalue solve.  The factor dwarfs every rounding error in the bound and
# in the eigenvalue ratio it stands in for.
COND_SCREEN = 100.0


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


def haar_orthogonalize(G: np.ndarray) -> np.ndarray:
    """Batched QR with the R-diagonal sign fix; Haar when G is iid Gaussian."""
    Q, R = np.linalg.qr(G)
    sign = np.sign(np.einsum("mii->mi", R))
    sign[sign == 0] = 1.0
    return Q * sign[:, None, :]
