"""Independent oracles used by the tests, kept deliberately dumb.

Nothing here may call the code paths it is used to check: linear systems are
solved by textbook Gaussian elimination over Fractions, determinants by
cofactor expansion, matchings and their counts by the defining recursion,
trace contractions by their defining index sums, mixed trace moments by one
Perm product per matching, coset types by union-find, Haar moments by the
double sum over pairs of matchings, zonal spherical functions by their
defining average over the hyperoctahedral group, Weingarten values and
power-trace coefficients by lambda-sums with one Fraction operation per step,
permutation sums (trace products, alpha-permanents and the P/Q hafnian sums)
over all n! permutations, the cycle functional Q_c by its defining sum over
slot picks, the sampling kernels by per-sample einsum products and
eigenvalue-ratio condition numbers, and the Haar orthogonalization by LAPACK
QR with the signs of R's diagonal fixed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

import numpy as np


def solve_exact(A, b):
    """Solve A x = b over Fractions by Gaussian elimination with pivoting."""
    n = len(A)
    M = [[Fraction(A[i][j]) for j in range(n)] + [Fraction(b[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[piv] = M[piv], M[col]
        inv = 1 / M[col][col]
        M[col] = [v * inv for v in M[col]]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * c for a, c in zip(M[r], M[col])]
    return [M[i][n] for i in range(n)]


def det_exact(A):
    """Determinant by cofactor expansion (exact, tiny matrices only)."""
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        total += (-1) ** j * A[0][j] * det_exact(minor)
    return total


def permanent_bruteforce(A):
    n = len(A)
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i in range(n):
            term *= A[i][perm[i]]
        total += term
    return total


def matching_count_recursive(n: int) -> int:
    """Number of pairings of 2n points: f(n) = (2n-1) f(n-1)."""
    if n == 0:
        return 1
    return (2 * n - 1) * matching_count_recursive(n - 1)


def matching_words(n: int) -> list[tuple[int, ...]]:
    """Canonical words of the matchings of {1,...,2n} in lexicographic order:
    the smallest free point is paired with each larger free point in turn."""

    def rec(free):
        if not free:
            return [()]
        a, rest = free[0], free[1:]
        return [(a, b) + w for i, b in enumerate(rest) for w in rec(rest[:i] + rest[i + 1 :])]

    return rec(tuple(range(1, 2 * n + 1)))


def partitions_bruteforce(n: int) -> set[tuple[int, ...]]:
    """All partitions of n by filtering weakly decreasing compositions."""
    found = set()

    def rec(remaining, prefix):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        top = prefix[-1] if prefix else remaining
        for k in range(1, min(remaining, top) + 1):
            rec(remaining - k, prefix + [k])

    rec(n, [])
    return found


def forward_differences(values):
    """One pass of finite differences on a list of exact values."""
    return [b - a for a, b in zip(values, values[1:])]


def t_contraction_bruteforce(g, x, ms):
    """T_g(x; m_1..m_n) by the defining d^{2n} index sum."""

    n = len(ms)
    d = x.shape[0]
    total = 0.0
    for js in product(range(d), repeat=2 * n):
        term = 1.0
        for k in range(1, n + 1):
            term *= ms[k - 1][js[2 * k - 2], js[2 * k - 1]]
        for i in range(1, n + 1):
            term *= x[js[g(2 * i - 1) - 1], js[g(2 * i) - 1]]
        total += term
    return total


def mixed_trace_moment_termwise(params, g, ms, inverse=False):
    """E[T_g(W^{+-1}; m_1..m_n)] term by term: for every matching m, built as
    a Perm, the coset weight at the union-find type of the product g^-1 m
    times ``paired_contraction`` at m.  The weights are built here:
    (2 beta)^len(rho) / 2^n, or (-2)^n Wg(rho; -2 gamma) by
    ``weingarten_sum_fractions``."""
    from wishmom.symcomb import Perm, partitions_of
    from wishmom.wishart import _side, paired_contraction

    n = len(ms)
    mats = [np.asarray(m, dtype=float) for m in ms]
    g_inv = g.inverse()
    x, shape = _side(params, inverse)
    shapes = partitions_of(n)
    if inverse:
        weights = {rho: (-2) ** n * weingarten_sum_fractions(rho, -2 * shape, shapes) for rho in shapes}
    else:
        weights = {rho: (2 * shape) ** len(rho) / 2**n for rho in shapes}
    total = 0.0
    for w in matching_words(n):
        p = Perm(w)
        total += float(weights[coset_type_union_find(g_inv * p)]) * paired_contraction(p, x, mats)
    return total


def coset_type_union_find(g):
    """Coset type of g in S_{2n}: the halved component sizes, sorted
    descending, of the graph with edges {2k-1, 2k} and {g(2k-1), g(2k)},
    found by union-find rather than by walking loops."""
    m = g.size
    parent = list(range(m + 1))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for k in range(1, m // 2 + 1):
        for a, b in ((2 * k - 1, 2 * k), (g(2 * k - 1), g(2 * k))):
            parent[find(b)] = find(a)
    sizes = {}
    for v in range(1, m + 1):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return tuple(sorted((s // 2 for s in sizes.values()), reverse=True))


def keyed_sum(sums, c):
    """sum_rho c^len(rho) S_rho over per-type sums: the weight a scalar
    partition stage with factor c applies per block."""
    return sum(c ** len(rho) * w for rho, w in sums.items())


def matching_type_sums_enumerative(labels, x):
    """Per coset type, the sum of prod x[labels[p-1]][labels[q-1]] over every
    one of the (2n-1)!! matchings of that type, term by term."""
    from wishmom.matchgroup import iter_matchings_with_type

    out = {}
    for pairs, ctype in iter_matchings_with_type(len(labels) // 2):
        term = 1
        for p, q in pairs:
            term = term * x[labels[p - 1]][labels[q - 1]]
        out[ctype] = out.get(ctype, 0) + term
    return out


def permutation_cycles(images):
    """Cycles of the permutation i -> images[i] of {0,...,n-1}, each listed
    from its largest point."""
    seen = set()
    cycles = []
    for start in sorted(range(len(images)), reverse=True):
        if start in seen:
            continue
        c = [start]
        seen.add(start)
        while images[c[-1]] != start:
            c.append(images[c[-1]])
            seen.add(c[-1])
        cycles.append(c)
    return cycles


def permutation_cycle_type(pi):
    """The cycle lengths of the Perm pi, sorted descending."""
    return tuple(sorted((len(c) for c in permutation_cycles([v - 1 for v in pi.images])), reverse=True))


def cycle_type_sums_enumerative(n, edge, read):
    """Per cycle type, the sum over every one of the n! permutations pi of
    that type of prod read(E_c), E_c = edge(c0, c1) @ edge(c1, c2) @ ... @
    edge(c_last, c0) along each cycle c from its largest point c0."""
    out = {}
    for images in permutations(range(n)):
        term = 1
        cycles = permutation_cycles(images)
        for c in cycles:
            E = edge(c[0], images[c[0]])
            for i in c[1:]:
                E = E @ edge(i, images[i])
            term = term * read(E)
        rho = tuple(sorted((len(c) for c in cycles), reverse=True))
        out[rho] = out.get(rho, 0) + term
    return out


def trace_product_enumerative(sigma, beta, mats):
    """E[prod_i tr(W s_i)]: per permutation, float(beta**nu) times the trace
    of sigma s_{c1} sigma s_{c2} ... along each cycle."""
    total = 0.0
    for images in permutations(range(len(mats))):
        cycles = permutation_cycles(images)
        term = float(beta ** len(cycles))
        for c in cycles:
            prod_ = np.eye(len(sigma))
            for i in c:
                prod_ = prod_ @ sigma @ mats[i]
            term *= np.trace(prod_)
        total += term
    return total


def alpha_permanent_enumerative(M, alpha):
    """per_a(M) = sum over S_n of alpha**nu(pi) * prod M[i][pi(i)]."""
    total = 0
    for images in permutations(range(len(M))):
        term = alpha ** len(permutation_cycles(images))
        for i, j in enumerate(images):
            term = term * M[i][j]
        total = total + term
    return total


def p_cycle_trace(A, c):
    """P_c = tr(A[c1,c2] J A[c2,c3] J ... A[cr,c1] J) for a cycle c on the
    pairs 1..n, J the antidiagonal unit, with 2x2 blocks kept as tuples."""

    def block_j(k, l):
        r, q = 2 * k - 2, 2 * l - 2
        # A[k, l] J: the block with its two columns swapped
        return (A[r][q + 1], A[r][q], A[r + 1][q + 1], A[r + 1][q])

    chain = block_j(c[0], c[1 % len(c)])
    for k in range(1, len(c)):
        a, b, cc, d = chain
        e, f, g, h = block_j(c[k], c[(k + 1) % len(c)])
        chain = (a * e + b * g, a * f + b * h, cc * e + d * g, cc * f + d * h)
    return chain[0] + chain[3]


def q_cycle_picks(A, c):
    """Q_c by its defining sum over the 2^(r-1) ways to enter each pair of
    c[:-1] through one slot and leave through the other; c ends with its
    largest element, where every term starts (odd slot) and ends (even slot)."""
    r = len(c)
    if r == 1:
        return A[2 * c[0] - 2][2 * c[0] - 1]
    last = c[-1]
    total = 0
    choices = [((2 * ck - 1, 2 * ck), (2 * ck, 2 * ck - 1)) for ck in c[:-1]]
    for picks in product(*choices):
        js = [j for pair in picks for j in pair]
        term = A[2 * last - 2][js[0] - 1]
        for i in range(1, r - 1):
            term = term * A[js[2 * i - 1] - 1][js[2 * i] - 1]
        term = term * A[js[-1] - 1][2 * last - 1]
        total = total + term
    return total


def hafnian_permsum_enumerative(A, alpha, variant):
    """Sum over S_n of (alpha/2)**nu * prod P_c, or of alpha**nu * prod Q_c,
    over the cycles c of each permutation of the pairs 1..n."""
    base = Fraction(alpha) / 2 if variant == "P" else alpha
    functional = p_cycle_trace if variant == "P" else q_cycle_picks
    total = 0
    for images in permutations(range(len(A) // 2)):
        cycles = permutation_cycles(images)
        term = base ** len(cycles)
        for c in cycles:
            # from the largest point, rotated so it comes last
            term = term * functional(A, tuple(i + 1 for i in c[1:] + c[:1]))
        total = total + term
    return total


def zonal_spherical_at(lam, g):
    """omega^lam(g): the average over zeta in H_n of the S_{2n} character of
    the doubled shape 2 lam at the cycle type of g zeta."""
    from math import factorial

    from wishmom.matchgroup import hyperoctahedral
    from wishmom.symcomb import character, doubled

    n = sum(lam)
    if g.size != 2 * n:
        raise ValueError("permutation size must be 2n")
    lam2 = doubled(lam)
    total = sum(character(lam2, permutation_cycle_type(g * zeta)) for zeta in hyperoctahedral(n))
    return Fraction(total, 2**n * factorial(n))


def content_product_boxwise(parts, z):
    """Product over Young-diagram boxes (i, j), rows/cols 1-based, of
    (z + 2j - i - 1), multiplied in one factor at a time in the ring of z."""
    out = 1
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            out = out * (z + 2 * j - i - 1)
    return out


def weingarten_sum_fractions(rho, z, shapes):
    """The zonal expansion of Wg(rho; z) over the given shapes, with one
    Fraction operation per step: sum f^{2 lam} omega^lam(rho) / C_lam(z),
    divided by (2n-1)!!."""
    from wishmom.symcomb import hook_dim_doubled
    from wishmom.weingarten import zonal_spherical

    terms = (
        Fraction(hook_dim_doubled(lam)) / content_product_boxwise(lam, z) * zonal_spherical(lam, rho)
        for lam in shapes
    )
    return sum(terms, Fraction(0)) / matching_count_recursive(sum(rho))


def haar_moment_pair_table(i_idx, j_idx, N):
    """E[O_{i1 j1} ... O_{ik jk}] for Haar orthogonal N x N O, term by term:
    the sum over every ordered pair of matchings (m, n), m pairing equal row
    indices and n equal column indices, of the Weingarten value truncated to
    shapes with at most N rows, at the coset type of m^-1 n."""
    from wishmom.symcomb import Perm, partitions_of

    k = len(i_idx)
    if k % 2:
        return Fraction(0)
    n = k // 2
    if n == 0:
        return Fraction(1)
    words = matching_words(n)
    ok_i = [Perm(w) for w in words if all(i_idx[p - 1] == i_idx[q - 1] for p, q in zip(w[::2], w[1::2]))]
    ok_j = [Perm(w) for w in words if all(j_idx[p - 1] == j_idx[q - 1] for p, q in zip(w[::2], w[1::2]))]
    shapes = [lam for lam in partitions_of(n) if len(lam) <= N]
    wg = {}
    total = Fraction(0)
    for a in ok_i:
        a_inv = a.inverse()
        for b in ok_j:
            rho = coset_type_union_find(a_inv * b)
            if rho not in wg:
                wg[rho] = weingarten_sum_fractions(rho, Fraction(N), shapes)
            total += wg[rho]
    return total


def power_trace_coeffs_fractions(mu, shape, inverse=False):
    """c_rho with E[p_mu(W^{+-1})] = sum_rho c_rho p_rho(sigma^{+-1}), shape
    beta or gamma: (2^n n!)^2 / ((2n)! 2^len(rho) z_rho) times
    sum_lam e_lam f^{2 lam} omega^lam(mu) omega^lam(rho), one Fraction
    operation per step.  e_lam = C_lam(2 beta) / 2^n, or (-1)^n 2^n /
    C_lam(-2 gamma), with PoleError naming every shape whose C_lam(-2 gamma)
    vanishes."""
    from math import factorial

    from wishmom.symcomb import centralizer_order, hook_dim_doubled, partitions_of
    from wishmom.weingarten import PoleError, zonal_spherical

    n = sum(mu)
    shape = Fraction(shape)
    z = -2 * shape if inverse else 2 * shape
    cont = {lam: Fraction(content_product_boxwise(lam, z)) for lam in partitions_of(n)}
    if inverse:
        bad = tuple(lam for lam, c in cont.items() if c == 0)
        if bad:
            raise PoleError(z, bad)
        eig = {lam: Fraction((-2) ** n) / c for lam, c in cont.items()}
    else:
        eig = {lam: c / 2**n for lam, c in cont.items()}
    pref = Fraction((2**n * factorial(n)) ** 2, factorial(2 * n))
    coeffs = {}
    for rho in partitions_of(n):
        inner = Fraction(0)
        for lam in partitions_of(n):
            inner += eig[lam] * hook_dim_doubled(lam) * zonal_spherical(lam, mu) * zonal_spherical(lam, rho)
        coeffs[rho] = pref / (2 ** len(rho) * centralizer_order(rho)) * inner
    return coeffs


def bartlett_gram_einsum(chol2, chis, normals):
    """Gram matrices of chol2 @ A per sample, A the lower-triangular Bartlett factor."""
    m, d = chis.shape
    A = np.zeros((m, d, d))
    idx = np.arange(d)
    A[:, idx, idx] = np.sqrt(chis)
    rows, cols = np.tril_indices(d, -1)
    A[:, rows, cols] = normals
    M = np.einsum("ij,mjk->mik", chol2, A)
    return np.einsum("mik,mjk->mij", M, M)


def vectors_gram_einsum(chol2, Z):
    """Gram matrices of chol2 @ Z per sample."""
    X = np.einsum("ij,mjp->mip", chol2, Z)
    return np.einsum("mip,mjp->mij", X, X)


def gram_whole_batch(chol2, F):
    """X[:, :, s] @ X[:, :, s].T for X = chol2 @ F[:, :, s], every sample s of a
    (d, k, m) stack at once: one GEMM and one full einsum along the sample
    axis, returned as the (m, d, d) view of the (d, d, m) result."""
    d, k, m = F.shape
    X = (chol2 @ F.reshape(d, k * m)).reshape(d, k, m)
    return np.einsum("ikm,jkm->ijm", X, X).transpose(2, 0, 1)


def bartlett_gram_whole_batch(chol2, chis, normals):
    """``gram_whole_batch`` of the lower-triangular Bartlett factors A[:, :, s]."""
    m, d = chis.shape
    A = np.zeros((d, d, m))
    idx = np.arange(d)
    A[idx, idx] = np.sqrt(chis).T
    rows, cols = np.tril_indices(d, -1)
    A[rows, cols] = normals.T
    return gram_whole_batch(chol2, A)


def vectors_gram_whole_batch(chol2, Z):
    """``gram_whole_batch`` of the Gaussian blocks, copied to F[:, :, s] = Z[s]."""
    return gram_whole_batch(chol2, np.ascontiguousarray(Z.transpose(1, 2, 0)))


def inverse_and_cond_eigvalsh(W):
    """Batched inverses plus the eigenvalue ratio of every matrix."""
    eig = np.abs(np.linalg.eigvalsh(W))
    cond = eig[:, -1] / np.maximum(eig[:, 0], np.finfo(float).tiny)
    return np.linalg.inv(W), cond


def haar_orthogonalize_qr(G):
    """Q of G = QR per sample, by LAPACK QR with R's diagonal made
    nonnegative; a zero on the diagonal keeps LAPACK's sign."""
    Q, R = np.linalg.qr(G)
    sign = np.sign(np.einsum("mii->mi", R))
    sign[sign == 0] = 1.0
    return Q * sign[:, None, :]
