"""Hot sampling kernels: batched numpy transforms of the random draws.

The random draws themselves come from a numpy Generator; the kernels are the
deterministic transforms that dominate the per-sample cost.  They are
vectorized over the leading sample axis and contain no randomness, so a fixed
``(seed, stream)`` reproduces every result bit for bit.
"""

from __future__ import annotations

import numpy as np


def bartlett_gram(chol2: np.ndarray, chis: np.ndarray, normals: np.ndarray) -> np.ndarray:
    """Gram matrices of lower-triangular Bartlett factors against chol(sigma/2)."""
    m, d = chis.shape
    A = np.zeros((m, d, d))
    idx = np.arange(d)
    A[:, idx, idx] = np.sqrt(chis)
    rows, cols = np.tril_indices(d, -1)
    A[:, rows, cols] = normals
    M = np.einsum("ij,mjk->mik", chol2, A)
    return np.einsum("mik,mjk->mij", M, M)


def vectors_gram(chol2: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Sum of outer products of the columns of chol(sigma/2) @ Z per sample."""
    X = np.einsum("ij,mjp->mip", chol2, Z)
    return np.einsum("mip,mjp->mij", X, X)


def inverse_and_cond(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched inverses plus eigenvalue-ratio condition numbers."""
    eig = np.abs(np.linalg.eigvalsh(W))
    cond = eig[:, -1] / np.maximum(eig[:, 0], np.finfo(float).tiny)
    return np.linalg.inv(W), cond


def haar_orthogonalize(G: np.ndarray) -> np.ndarray:
    """Batched QR with the R-diagonal sign fix; Haar when G is iid Gaussian."""
    Q, R = np.linalg.qr(G)
    sign = np.sign(np.einsum("mii->mi", R))
    sign[sign == 0] = 1.0
    return Q * sign[:, None, :]
