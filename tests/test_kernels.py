import numpy as np
import pytest

from oracles import (
    bartlett_gram_einsum,
    bartlett_gram_whole_batch,
    haar_orthogonalize_qr,
    inverse_and_cond_eigvalsh,
    vectors_gram_einsum,
    vectors_gram_whole_batch,
)
from wishmom import _kernels, montecarlo
from wishmom._kernels import COND_LIMIT, bartlett_gram, haar_orthogonalize, inverse_and_cond, vectors_gram


def _chol2(rng, d):
    a = rng.normal(size=(d, d))
    return np.linalg.cholesky(a @ a.T + d * np.eye(d)) / np.sqrt(2.0)


def _assert_gram_close(got, want):
    assert got.shape == want.shape
    err = np.abs(got - want).max(axis=(1, 2))
    assert (err <= 1e-13 * np.abs(want).max(axis=(1, 2))).all()


@pytest.mark.parametrize("m", [1, 1000])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_bartlett_gram_matches_per_sample_einsum(d, m):
    rng = np.random.default_rng(100 * d + m)
    chol2 = _chol2(rng, d)
    chis = rng.chisquare(2.5 + np.arange(d)[::-1], size=(m, d))
    normals = rng.standard_normal((m, d * (d - 1) // 2))
    _assert_gram_close(bartlett_gram(chol2, chis, normals), bartlett_gram_einsum(chol2, chis, normals))


@pytest.mark.parametrize("m", [1, 1000])
@pytest.mark.parametrize("p_of_d", [lambda d: 1, lambda d: d, lambda d: 2 * d], ids=["p=1", "p=d", "p=2d"])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_vectors_gram_matches_per_sample_einsum(d, p_of_d, m):
    rng = np.random.default_rng(100 * d + m)
    chol2 = _chol2(rng, d)
    Z = rng.standard_normal((m, d, p_of_d(d)))
    _assert_gram_close(vectors_gram(chol2, Z), vectors_gram_einsum(chol2, Z))


def _bartlett_draws(rng, d, m):
    chis = rng.chisquare(2.5 + np.arange(d)[::-1], size=(m, d))
    return chis, rng.standard_normal((m, d * (d - 1) // 2))


def _assert_whole_batch(got, want):
    """Bit for bit the whole-batch product, exactly symmetric, sample stride 8 bytes."""
    assert np.array_equal(got, want)
    assert np.array_equal(got, got.transpose(0, 2, 1))
    assert got.strides[0] == 8


def _block_edges(d, k):
    """Batch sizes 1, B - 1, B, B + 1 and 3B + 17, B the most draws of d x k
    factors in one block."""
    B = _kernels._BLOCK_BYTES // (16 * d * k)
    return [1, B - 1, B, B + 1, 3 * B + 17]


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_bartlett_gram_is_the_whole_batch_product_at_block_edges(d):
    rng = np.random.default_rng(200 + d)
    chol2 = _chol2(rng, d)
    for m in _block_edges(d, d):
        chis, normals = _bartlett_draws(rng, d, m)
        _assert_whole_batch(bartlett_gram(chol2, chis, normals), bartlett_gram_whole_batch(chol2, chis, normals))


@pytest.mark.parametrize("p_of_d", [lambda d: 1, lambda d: d, lambda d: 2 * d], ids=["p=1", "p=d", "p=2d"])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_vectors_gram_is_the_whole_batch_product_at_block_edges(d, p_of_d):
    rng = np.random.default_rng(300 + d)
    chol2 = _chol2(rng, d)
    p = p_of_d(d)
    for m in _block_edges(d, p):
        Z = rng.standard_normal((m, d, p))
        _assert_whole_batch(vectors_gram(chol2, Z), vectors_gram_whole_batch(chol2, Z))


@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_gram_kernels_are_the_whole_batch_product_in_blocks_of_three(d, monkeypatch):
    # blocks of at most three draws, down to a lone draw behind full blocks
    rng = np.random.default_rng(400 + d)
    chol2 = _chol2(rng, d)
    for m in range(1, 12):
        chis, normals = _bartlett_draws(rng, d, m)
        monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 16 * d * d * 3)
        _assert_whole_batch(bartlett_gram(chol2, chis, normals), bartlett_gram_whole_batch(chol2, chis, normals))
        for p in (1, d, 2 * d):
            Z = rng.standard_normal((m, d, p))
            monkeypatch.setattr(_kernels, "_BLOCK_BYTES", 16 * d * p * 3)
            _assert_whole_batch(vectors_gram(chol2, Z), vectors_gram_whole_batch(chol2, Z))


def test_gram_kernels_take_an_empty_batch():
    chol2 = _chol2(np.random.default_rng(500), 3)
    assert bartlett_gram(chol2, np.zeros((0, 3)), np.zeros((0, 3))).shape == (0, 3, 3)
    assert vectors_gram(chol2, np.zeros((0, 3, 2))).shape == (0, 3, 3)
    assert np.array_equal(vectors_gram(chol2, np.zeros((4, 3, 0))), np.zeros((4, 3, 3)))


def _spd_with_ratios(rng, d, ratios):
    """One SPD matrix per ratio: eigenvalues 1 (d-1 times) and 1/ratio, in a
    random basis, so the Frobenius bound is about sqrt(d-1) times the ratio."""
    mats = []
    for r in ratios:
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        lam = np.ones(d)
        lam[0] = 1.0 / r
        w = (q * lam) @ q.T
        mats.append((w + w.T) / 2)
    return np.array(mats)


# c in the forward-error bound c d u kappa(W) ||W^-1||_2 between the Cholesky
# and the LAPACK inverse (Higham, Accuracy and Stability of Numerical
# Algorithms, ch. 14); the largest seen is c = 4, at d = 1.
INVERSE_ERROR_C = 8.0


def _assert_within_forward_error(inv, want_inv, W):
    """Each draw's inverse within the forward-error bound of LAPACK's."""
    d = W.shape[-1]
    eig = np.abs(np.linalg.eigvalsh(W))
    u = np.finfo(float).eps / 2
    # kappa(W) ||W^-1||_2 = lambda_max / lambda_min^2, taken in two steps so it does not overflow
    bound = INVERSE_ERROR_C * d * u * (eig[:, -1] / eig[:, 0]) / eig[:, 0]
    assert (np.abs(inv - want_inv).max(axis=(1, 2)) <= bound).all()


@pytest.mark.parametrize("d", [2, 3, 8])
def test_condition_screen_keeps_every_rejection_decision(d):
    rng = np.random.default_rng(d)
    # dense around the limit, where a bound up to sqrt(d-1) times the ratio
    # would reject draws the eigenvalue ratio keeps
    ratios = np.concatenate([np.logspace(9, 15, 61), COND_LIMIT * np.linspace(0.2, 1.2, 101)])
    W = _spd_with_ratios(rng, d, ratios)
    inv, cond = inverse_and_cond(W)
    want_inv, want_cond = inverse_and_cond_eigvalsh(W)
    _assert_within_forward_error(inv, want_inv, W)
    assert np.array_equal(cond < COND_LIMIT, want_cond < COND_LIMIT)
    assert (cond < COND_LIMIT).any() and not (cond < COND_LIMIT).all()


def test_condition_screen_on_wishart_draws():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2000, 4, 6))
    W = np.einsum("mik,mjk->mij", a, a)
    inv, cond = inverse_and_cond(W)
    want_inv, want_cond = inverse_and_cond_eigvalsh(W)
    _assert_within_forward_error(inv, want_inv, W)
    assert np.array_equal(cond < COND_LIMIT, want_cond < COND_LIMIT)
    # a screened draw holds the Frobenius bound: at least the ratio, at most d times it
    assert (cond >= want_cond * (1 - 1e-12)).all() and (cond <= 4 * want_cond * (1 + 1e-12)).all()


def test_condition_screen_at_d1():
    W = np.array([1e-300, 1e-12, 1.0, 3.5, 1e300]).reshape(-1, 1, 1)
    inv, cond = inverse_and_cond(W)
    want_inv, want_cond = inverse_and_cond_eigvalsh(W)
    _assert_within_forward_error(inv, want_inv, W)
    assert np.array_equal(cond < COND_LIMIT, want_cond < COND_LIMIT)
    assert (cond < COND_LIMIT).all()


@pytest.mark.parametrize("d", [1, 2, 4])
def test_singular_draw_is_rejected_alone(d):
    rng = np.random.default_rng(40 + d)
    a = rng.normal(size=(30, d, d + 2))
    ratios = COND_LIMIT * np.array([0.5, 2.0])  # two draws that take the eigenvalue solve
    W = np.concatenate([np.einsum("mik,mjk->mij", a, a), _spd_with_ratios(rng, d, ratios)])
    # exactly singular: LAPACK finds a zero pivot
    singular = np.array([np.zeros((d, d)), np.diag(np.arange(d) * 100.0)])
    at = [3, 17]
    inv, cond = inverse_and_cond(np.insert(W, at, singular, axis=0))
    want_inv, want_cond = inverse_and_cond(W)
    bad = np.isin(np.arange(len(cond)), np.array(at) + np.arange(len(at)))
    assert np.array_equal(inv[~bad], want_inv) and np.array_equal(cond[~bad], want_cond)
    assert np.isnan(inv[bad]).all() and (cond[bad] == np.inf).all()
    assert np.array_equal(want_cond < COND_LIMIT, inverse_and_cond_eigvalsh(W)[1] < COND_LIMIT)


@pytest.mark.parametrize("d", range(1, 9))
def test_cholesky_inverse_matches_lapack(d):
    rng = np.random.default_rng(70 + d)
    a = rng.normal(size=(3000, d, d + 1))
    W = np.concatenate([np.einsum("mik,mjk->mij", a, a), _spd_with_ratios(rng, d, np.logspace(0, 14, 57))])
    inv, cond = inverse_and_cond(W)
    want_inv, want_cond = inverse_and_cond_eigvalsh(W)
    _assert_within_forward_error(inv, want_inv, W)
    assert np.array_equal(inv, inv.transpose(0, 2, 1))
    assert np.array_equal(cond < COND_LIMIT, want_cond < COND_LIMIT)


def _indefinite(rng, d):
    """Symmetric, eigenvalues 1 (d-1 times) and -1e-13 in a random basis: the
    last Cholesky pivot goes negative, but LAPACK's LU inverts it."""
    return _spd_with_ratios(rng, d, [-1e13])[0]


@pytest.mark.parametrize("d", [2, 3, 8])
def test_indefinite_draw_is_rejected_alone(d):
    rng = np.random.default_rng(80 + d)
    a = rng.normal(size=(40, d, d + 2))
    W = np.einsum("mik,mjk->mij", a, a)
    at = [0, 21, 40]
    H = np.insert(W, at, [_indefinite(rng, d) for _ in at], axis=0)
    inv, cond = inverse_and_cond(H)
    want_inv, want_cond = inverse_and_cond(W)
    bad = np.isin(np.arange(len(H)), np.array(at) + np.arange(len(at)))
    assert np.array_equal(inv[~bad], want_inv) and np.array_equal(cond[~bad], want_cond)
    # inverted one at a time by LAPACK and rejected by the eigenvalue ratio
    assert np.array_equal(inv[bad], [np.linalg.inv(w) for w in H[bad]])
    assert np.array_equal(cond[bad], inverse_and_cond_eigvalsh(H[bad])[1])
    assert (cond[bad] >= COND_LIMIT).all() and (want_cond < COND_LIMIT).all()


def test_draw_inverted_by_lapack_takes_the_eigenvalue_solve():
    # indefinite but far from singular: the first pivot fails, LAPACK inverts
    # it, and cond is the eigenvalue ratio 3, not the Frobenius bound 10/3
    W = np.array([np.eye(2), [[1.0, 2.0], [2.0, 1.0]]])
    inv, cond = inverse_and_cond(W)
    assert np.array_equal(inv[1], np.linalg.inv(W[1]))
    assert cond[1] == inverse_and_cond_eigvalsh(W)[1][1] and abs(cond[1] - 3) < 1e-14
    assert cond[0] == 2.0  # the identity keeps its Frobenius bound, d times the ratio


def test_inverse_does_not_depend_on_memory_layout():
    rng = np.random.default_rng(90)
    a = rng.normal(size=(500, 3, 5))
    W = np.einsum("mik,mjk->mij", a, a)
    ratios = COND_LIMIT * np.array([0.01, 0.5, 2.0])
    W = np.concatenate([W, _spd_with_ratios(rng, 3, ratios), [_indefinite(rng, 3), np.zeros((3, 3))]])
    inner = np.ascontiguousarray(W.transpose(1, 2, 0)).transpose(2, 0, 1)  # the Gram kernels' layout
    assert W.flags.c_contiguous and inner.strides[0] == 8 and np.array_equal(W, inner)
    inv, cond = inverse_and_cond(W)
    inv2, cond2 = inverse_and_cond(inner)
    assert np.array_equal(inv, inv2, equal_nan=True) and np.array_equal(cond, cond2)
    assert inv.strides[0] == inv2.strides[0] == 8


def test_gram_kernels_put_the_sample_axis_innermost():
    rng = np.random.default_rng(91)
    for d in (1, 3, 8):
        chol2 = _chol2(rng, d)
        chis = rng.chisquare(2.5 + np.arange(d)[::-1], size=(50, d))
        normals = rng.standard_normal((50, d * (d - 1) // 2))
        Z = rng.standard_normal((50, d, 2 * d))
        for G in (bartlett_gram(chol2, chis, normals), vectors_gram(chol2, Z)):
            assert G.shape == (50, d, d) and G.strides[0] == 8


def _gaussian(N, m=10_000):
    return np.random.default_rng(60 + N).standard_normal((m, N, N))


@pytest.mark.parametrize("N", range(1, 9))
def test_haar_orthogonalize_matches_lapack_qr(N):
    G = _gaussian(N)
    G0 = G.copy()
    want = haar_orthogonalize_qr(G)
    for k in range(N + 1):
        got = haar_orthogonalize(G, k)
        assert np.array_equal(G, G0)  # the input is left as it was
        assert got.shape == (len(G), N, k)
        assert np.abs(got - want[:, :, :k]).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("N", range(1, 9))
def test_haar_columns_are_orthonormal_with_positive_r_diagonal(N):
    # independent of LAPACK: Q^T Q = I and R = Q^T G upper triangular, diagonal > 0
    G = _gaussian(N)
    for k in range(1, N + 1):
        Q = haar_orthogonalize(G, k)
        assert np.abs(np.einsum("mik,mil->mkl", Q, Q) - np.eye(k)).max() <= 1e-14
        R = np.einsum("mik,mij->mkj", Q, G[:, :, :k])
        scale = np.abs(G).max(axis=(1, 2))[:, None, None]
        assert (np.abs(np.tril(R, -1)) <= 1e-14 * scale).all()
        assert (np.einsum("mii->mi", R) > 0).all()


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_degenerate_haar_draws_fall_back_to_lapack(N):
    # a zero column (Gram-Schmidt would divide by zero), a column parallel to
    # the first (only rounding is left of it, pointing anywhere in the
    # complement), N=1 with G=0: LAPACK QR decides each draw once its bad
    # column is among the k computed
    G = _gaussian(N, 40)
    bad = [np.zeros((N, N))]
    if N > 1:
        z = G[0].copy()
        z[:, N - 1] = 0.0
        rep = G[1].copy()
        rep[:, 1] = 3 * rep[:, 0]
        bad += [z, rep]
    at = [3, 17, 30][: len(bad)]
    H = np.insert(G, at, bad, axis=0)
    mask = np.isin(np.arange(len(H)), np.array(at) + np.arange(len(at)))
    for k in range(1, N + 1):
        got = haar_orthogonalize(H, k)
        assert np.isfinite(got).all()
        assert np.abs(got[mask] - haar_orthogonalize_qr(H[mask])[:, :, :k]).max() <= 1e-12
        assert np.array_equal(got[~mask], haar_orthogonalize(G, k))
    if N == 1:
        assert got[mask].ravel().tolist() == [1.0]


def test_gaussian_haar_draws_never_reach_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called LAPACK QR on a Gaussian batch")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    rng = montecarlo.RngSpec(8)
    for N, pairs in ((3, [((1, 1, 2, 2), (1, 2, 1, 2))]), (8, [((1, 8), (8, 8)), ((2, 2), (8, 8))])):
        for s in montecarlo.estimate_haar(pairs, N, 20_000, rng, streams=2, threads=2):
            assert abs(s.zscore) < 6
    Q = montecarlo.sample_haar_batch(8, 20_000, rng.generator())
    assert np.abs(np.einsum("mik,mil->mkl", Q, Q) - np.eye(8)).max() <= 1e-14
