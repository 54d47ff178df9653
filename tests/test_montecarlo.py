import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from wishmom import montecarlo
from wishmom.montecarlo import (
    EntryProduct,
    Invariant,
    PowerTrace,
    RngSpec,
    TracePower,
    TraceProduct,
    estimate,
    estimate_haar,
    sample_haar_batch,
    sample_wishart_batch,
)
from wishmom.weingarten import zonal_eval
from wishmom.wishart import DomainError, WishartParams


@pytest.fixture(scope="module")
def params():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(3, 3))
    return WishartParams(d=3, beta=Fraction(5, 2), sigma=a @ a.T + 3 * np.eye(3))


def test_rngspec_reproducibility(params):
    descs = [EntryProduct((1, 2)), TracePower(2)]
    s1 = estimate(descs, params, 5000, RngSpec(42))
    s2 = estimate(descs, params, 5000, RngSpec(42))
    for a, b in zip(s1, s2):
        assert a.mean == b.mean and a.stderr == b.stderr and a.count == b.count
    s3 = estimate(descs, params, 5000, RngSpec(43))
    assert s3[0].mean != s1[0].mean


def test_estimate_requires_minimum_samples(params):
    with pytest.raises(ValueError):
        estimate([EntryProduct((1, 1))], params, 10, RngSpec(0))


@pytest.fixture
def no_draws(monkeypatch):
    # a size check that fails must fail before the first draw
    def refuse(*args, **kwargs):
        raise AssertionError("drew samples before checking sizes")

    monkeypatch.setattr(montecarlo, "sample_wishart_batch", refuse)
    monkeypatch.setattr(montecarlo._kernels, "haar_orthogonalize", refuse)


def test_zero_streams_rejected(params, no_draws):
    with pytest.raises(ValueError, match="streams"):
        estimate([EntryProduct((1, 1))], params, 2000, RngSpec(0), streams=0)
    with pytest.raises(ValueError, match="streams"):
        estimate_haar([((1,), (1,))], 2, 2000, RngSpec(0), streams=0)


def test_negative_streams_rejected(params, no_draws):
    with pytest.raises(ValueError, match="streams"):
        estimate([EntryProduct((1, 1))], params, 2000, RngSpec(0), streams=-1)
    with pytest.raises(ValueError, match="streams"):
        estimate_haar([((1,), (1,))], 2, 2000, RngSpec(0), streams=-1)


def test_zero_chunk_rejected(params, no_draws):
    with pytest.raises(ValueError, match="chunk"):
        estimate([EntryProduct((1, 1))], params, 2000, RngSpec(0), chunk=0)
    with pytest.raises(ValueError, match="chunk"):
        estimate_haar([((1,), (1,))], 2, 2000, RngSpec(0), chunk=0)


@pytest.mark.parametrize("threads", [0, -3])
def test_thread_count_below_one_rejected(params, no_draws, threads):
    with pytest.raises(ValueError, match=f"threads must be a positive integer, got {threads}"):
        estimate([EntryProduct((1, 1))], params, 2000, RngSpec(0), streams=2, threads=threads)
    with pytest.raises(ValueError, match=f"threads must be a positive integer, got {threads}"):
        estimate_haar([((1,), (1,))], 2, 2000, RngSpec(0), streams=2, threads=threads)


@pytest.mark.parametrize(
    "knob, bad",
    [("threads", True), ("chunk", True), ("streams", 2.5), ("sample_count", 1000.5), ("streams", None),
     ("chunk", "1000"), ("threads", np.bool_(True)), ("sample_count", float("inf"))],
)
def test_estimator_knobs_must_be_integers(params, no_draws, knob, bad):
    kw = dict(sample_count=2000, streams=2, chunk=1000, threads=1, rng=RngSpec(0))
    kw[knob] = bad
    rule = "an integer >= 1000" if knob == "sample_count" else "a positive integer"
    for call in (lambda: estimate([EntryProduct((1, 1))], params, **kw), lambda: estimate_haar([((1,), (1,))], 2, **kw)):
        with pytest.raises(ValueError, match=f"{knob} must be {rule}, got") as info:
            call()
        assert type(info.value) is ValueError


def test_rngspec_takes_integers_only():
    for bad in (True, np.bool_(False), 1.5, None, "1"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            RngSpec(bad)
        with pytest.raises(ValueError, match="stream must be an integer"):
            RngSpec(1, bad)
    spec = RngSpec(np.int64(5), 2.0)
    assert spec == RngSpec(5, 2) and type(spec.seed) is type(spec.stream) is int


def test_integral_knobs_of_other_types_run_as_ints(params):
    want = estimate([EntryProduct((1, 2))], params, 3000, RngSpec(4), chunk=700, streams=2, threads=2)
    got = estimate([EntryProduct((1, 2))], params, 3000.0, RngSpec(4.0), chunk=np.int64(700), streams=Fraction(2),
                   threads=np.int32(2))
    assert got == want


def test_thread_count_does_not_change_results(params):
    descs = [EntryProduct((1, 1, 2, 2))]
    a = estimate(descs, params, 12000, RngSpec(7), streams=4, threads=1)
    b = estimate(descs, params, 12000, RngSpec(7), streams=4, threads=4)
    assert a[0].mean == b[0].mean and a[0].stderr == b[0].stderr


def _estimate_path(path, threads):
    rng, kw = RngSpec(11), dict(streams=2, threads=threads, chunk=1500)
    if path == "haar":
        return estimate_haar([((1, 1), (1, 1)), ((1, 2), (1, 2))], 3, 4000, rng, **kw)
    if path == "haar_last_column":
        return estimate_haar([((3, 3), (8, 8)), ((1, 1, 2, 2), (1, 8, 1, 8))], 8, 4000, rng, **kw)
    if path == "haar_degree0":
        return estimate_haar([((), ()), ((1, 1), (2, 2))], 3, 4000, rng, **kw)
    if path == "inverse":
        p6 = WishartParams(d=3, beta=6, sigma=np.diag([2.0, 1.0, 0.5]) + 0.1)
        return estimate([EntryProduct((1, 1), inverse=True), TracePower(2, inverse=True)], p6, 4000, rng, **kw)
    p = WishartParams(d=3, beta=Fraction(5, 2), sigma=np.diag([2.0, 1.0, 0.5]) + 0.1)
    if path == "power_trace":
        return estimate([PowerTrace((3, 1))], p, 4000, rng, **kw)
    return estimate([EntryProduct((1, 2)), TracePower(2)], p, 4000, rng, method=path, **kw)


@pytest.mark.parametrize(
    "path", ["bartlett", "vectors", "inverse", "power_trace", "haar", "haar_last_column", "haar_degree0"]
)
def test_every_sampling_path_is_thread_invariant(path):
    one, two = _estimate_path(path, 1), _estimate_path(path, 2)
    for a, b in zip(one, two):
        assert a.count == b.count and a.rejected == b.rejected
        assert a.mean == b.mean and a.stderr == b.stderr


def test_unused_threads_warn_without_changing_results(params):
    descs = [EntryProduct((1, 1, 2, 2))]
    a = estimate(descs, params, 4000, RngSpec(7), streams=1, threads=1)
    with pytest.warns(RuntimeWarning, match="threads=2 exceeds streams=1"):
        b = estimate(descs, params, 4000, RngSpec(7), streams=1, threads=2)
    assert a[0].mean == b[0].mean and a[0].stderr == b[0].stderr
    with pytest.warns(RuntimeWarning, match="threads=3 exceeds streams=2"):
        estimate_haar([((1,), (1,))], 2, 2000, RngSpec(0), streams=2, threads=3)


def test_threads_up_to_streams_do_not_warn(params):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        estimate([EntryProduct((1, 2))], params, 2000, RngSpec(0), streams=2, threads=2)
        estimate([EntryProduct((1, 2))], params, 2000, RngSpec(0), streams=3, threads=2)
        estimate_haar([((1,), (1,))], 2, 2000, RngSpec(0), streams=1, threads=1)


def test_sample_wishart_is_symmetric_pd(params):
    for method in ("bartlett", "vectors"):  # beta=5/2 admits both paths
        w = sample_wishart_batch(params, 1, RngSpec(1).generator(), method)[0]
        assert np.allclose(w, w.T)
        np.linalg.cholesky(w)


def test_entry_pair_product_d4():
    rng = np.random.default_rng(20)
    a = rng.normal(size=(4, 4))
    p = WishartParams(d=4, beta=3, sigma=a @ a.T + 4 * np.eye(4))
    s = estimate([EntryProduct((1, 2, 3, 4))], p, 30000, RngSpec(21))[0]
    assert abs(s.zscore) < 6


def test_scalar_wishart_mean():
    # d=1, beta=1, sigma=2 is an exponential with mean 2
    p = WishartParams(d=1, beta=1, sigma=np.array([[2.0]]))
    s = estimate([EntryProduct((1, 1))], p, 20000, RngSpec(15))[0]
    assert s.target == pytest.approx(2.0)
    assert abs(s.zscore) < 5


def test_haar_degenerate_dimension():
    # N=1: entries are +-1, even powers are exactly 1 with zero spread
    s = estimate_haar([((1, 1, 1, 1), (1, 1, 1, 1))], 1, 2000, RngSpec(16))[0]
    assert s.mean == 1.0 and s.target == 1.0 and s.stderr == 0.0 and s.zscore == 0.0


def test_haar_estimate_reads_the_last_column():
    # the pairs read column N, so every column of Q is orthogonalized
    stats = estimate_haar([((3, 3), (8, 8)), ((1, 1, 2, 2), (1, 8, 1, 8))], 8, 20000, RngSpec(17))
    assert stats[0].target == 1 / 8
    for s in stats:
        assert abs(s.zscore) < 5


def test_degree0_estimates_are_the_empty_product(params):
    s = estimate_haar([((), ())], 3, 2000, RngSpec(18))[0]
    assert s.mean == 1.0 and s.target == 1.0 and s.stderr == 0.0 and s.zscore == 0.0
    descs = [PowerTrace(()), PowerTrace((), inverse=True), TracePower(0), TraceProduct(())]
    for s in estimate(descs, params, 2000, RngSpec(19)):
        assert s.mean == 1.0 and s.target == 1.0 and s.stderr == 0.0 and s.zscore == 0.0


def test_invariant_values_are_the_zonal_polynomial(params):
    mats = sample_wishart_batch(params, 5, RngSpec(20).generator())
    for lam in ((), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (3, 2)):
        psums = [{r: np.trace(np.linalg.matrix_power(w, r)) for r in range(1, sum(lam) + 1)} for w in mats]
        assert Invariant(lam).values(mats) == pytest.approx([float(zonal_eval(lam, p)) for p in psums], rel=1e-12)
    assert (Invariant((2, 1), inverse=True).label, Invariant((2, 1)).order) == ("Z_(2, 1)(Winv)", 3)


def test_replace_re_pairs_a_descriptor_with_its_order():
    # order is set where the descriptor is paired with its exact half, so a
    # dataclasses.replace, which runs __post_init__ again, reads the new argument
    cases = [
        (EntryProduct((1, 2)), {"indices": (1, 1, 2, 2)}, 2),
        (TracePower(1), {"power": 3}, 3),
        (PowerTrace((2,)), {"mu": [2, 1, 1]}, 4),
        (Invariant((1,), inverse=True), {"lam": (3, 2)}, 5),
        (TraceProduct([np.eye(2)]), {"mats": [np.eye(2)] * 3}, 3),
    ]
    for desc, change, order in cases:
        new = replace(desc, **change)
        assert new.order == order and desc.order != order
    assert replace(PowerTrace((2,)), mu=[2, 1, 1]).mu == (2, 1, 1)
    with pytest.raises(ValueError):
        replace(TracePower(1), power=-1)


def test_sampler_paths_agree_in_distribution():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 2))
    p = WishartParams(d=2, beta=2, sigma=a @ a.T + 2 * np.eye(2))
    descs = [EntryProduct((i, j)) for i in (1, 2) for j in (1, 2)] + [EntryProduct((1, 1, 2, 2))]
    res_b = estimate(descs, p, 40000, RngSpec(11), method="bartlett")
    res_v = estimate(descs, p, 40000, RngSpec(12), method="vectors")
    for sb, sv in zip(res_b, res_v):
        # both target the same exact values; 5 stderr in both directions
        assert abs(sb.zscore) < 5 and abs(sv.zscore) < 5
        assert abs(sb.mean - sv.mean) < 5 * (sb.stderr + sv.stderr)


def test_sampler_method_guards():
    p_frac = WishartParams(d=3, beta=Fraction(1, 2), sigma=np.eye(3))
    with pytest.raises(DomainError):
        sample_wishart_batch(p_frac, 4, RngSpec(0).generator(), "bartlett")
    with pytest.raises(DomainError):
        sample_wishart_batch(
            WishartParams(d=3, beta=Fraction(9, 4), sigma=np.eye(3)), 4, RngSpec(0).generator(), "vectors"
        )
    w = sample_wishart_batch(p_frac, 4, RngSpec(0).generator(), "vectors")
    assert w.shape == (4, 3, 3)


def test_auto_method_draws_what_the_path_it_picks_draws():
    # an admissible beta below the Bartlett range has 2 beta an integer, so
    # auto always finds a sampler: vectors at d = 3, beta = 1, Bartlett at 5/2
    for beta, path in ((1, "vectors"), (Fraction(5, 2), "bartlett")):
        p = WishartParams(d=3, beta=beta, sigma=np.eye(3) + 0.2)
        auto = sample_wishart_batch(p, 50, RngSpec(4, 1).generator())
        assert np.array_equal(auto, sample_wishart_batch(p, 50, RngSpec(4, 1).generator(), path))
        descs = [EntryProduct((1, 2, 2, 3)), TracePower(2)]
        for a, b in zip(estimate(descs, p, 3000, RngSpec(9)), estimate(descs, p, 3000, RngSpec(9), method=path)):
            assert (a.count, a.mean, a.stderr, a.zscore) == (b.count, b.mean, b.stderr, b.zscore)


def test_an_unknown_sampling_method_is_a_value_error(params):
    for call in (
        lambda: sample_wishart_batch(params, 4, RngSpec(0).generator(), "gibbs"),
        lambda: estimate([EntryProduct((1, 1))], params, 2000, RngSpec(0), method="Auto"),
    ):
        with pytest.raises(ValueError, match="unknown sampling method") as info:
            call()
        assert type(info.value) is ValueError


def test_empty_and_all_rejected_chunks_count_only_their_rejections():
    values = np.array([0.5, 1.25, -2.0, 3.5])
    acc = montecarlo._Acc()
    acc.add_chunk(values[:3], rejected=1)
    before = (acc.count, acc.mean, acc.m2)
    acc.add_chunk(np.array([]), rejected=4)  # a chunk whose draws were all rejected
    acc.merge(montecarlo._Acc(rejected=2))  # a stream that kept nothing
    assert (acc.count, acc.mean, acc.m2) == before and acc.rejected == 7
    # an empty accumulator takes the other's sums as they are
    empty = montecarlo._Acc(rejected=3)
    empty.merge(acc)
    assert (empty.count, empty.mean, empty.m2, empty.rejected) == (*before, 10)
    # and the chunk after the empty ones merges as it would have without them
    acc.add_chunk(values[3:])
    plain = montecarlo._Acc()
    plain.add_chunk(values[:3])
    plain.add_chunk(values[3:])
    assert (acc.count, acc.mean, acc.m2) == (plain.count, plain.mean, plain.m2)


def test_finalize_of_at_most_one_value_has_no_standard_error():
    for count, mean, target, z in ((1, 2.0, 2.0, 0.0), (1, 2.0, 1.0, float("inf")), (0, 0.0, 0.0, 0.0)):
        stats = montecarlo._finalize(montecarlo._Acc(count=count, mean=mean, rejected=5), target, "x")
        assert (stats.count, stats.mean, stats.stderr, stats.zscore) == (count, mean, 0.0, z)
        assert (stats.target, stats.rejected, stats.label) == (target, 5, "x")


def test_estimator_zscores_sane(params):
    descs = [
        EntryProduct((1, 2)),
        EntryProduct((1, 1, 2, 2)),
        TracePower(2),
        PowerTrace((2, 1)),
        TraceProduct((np.eye(3),)),
    ]
    for s in estimate(descs, params, 30000, RngSpec(5)):
        assert abs(s.zscore) < 6
        assert s.count == 30000 and s.rejected == 0


def test_inverse_descriptors():
    p = WishartParams(d=2, beta=6, sigma=np.diag([1.0, 2.0]))  # gamma = 9/2
    stats = estimate(
        [EntryProduct((1, 1), inverse=True), TracePower(1, inverse=True)],
        p,
        30000,
        RngSpec(6),
    )
    for s in stats:
        assert abs(s.zscore) < 6
        assert s.count + s.rejected == 30000


def test_inverse_gamma_margin_guard():
    p = WishartParams(d=2, beta=Fraction(9, 2), sigma=np.eye(2))  # gamma = 3
    with pytest.raises(DomainError):
        estimate([EntryProduct((1, 1, 2, 2, 1, 2), inverse=True)], p, 2000, RngSpec(0))


def test_haar_sample_orthogonal():
    for N in (2, 3, 5):
        O = sample_haar_batch(N, 1, RngSpec(4).generator())[0]
        assert np.allclose(O.T @ O, np.eye(N), atol=1e-12)


def test_haar_estimates(params):
    stats = estimate_haar(
        [((1, 1), (1, 1)), ((1, 1, 2, 2), (1, 2, 1, 2))], 3, 30000, RngSpec(9)
    )
    for s in stats:
        assert abs(s.zscore) < 6


def test_trace_product_descriptor_is_forward_only():
    with pytest.raises(TypeError):
        TraceProduct((np.eye(2),), inverse=True)
    desc = TraceProduct(([[1, 0], [0, 2]],))
    assert not hasattr(desc, "inverse") and desc.mats[0].dtype == float
    # gamma = -1/2: an inverse descriptor could not be estimated at all
    p = WishartParams(d=2, beta=1, sigma=np.eye(2))
    with pytest.raises(DomainError):
        estimate([TracePower(1, inverse=True)], p, 100, RngSpec(0))
    (stat,) = estimate([desc], p, 2000, RngSpec(0))
    assert stat.count == 2000 and stat.rejected == 0 and stat.target == 3  # E[W] = beta sigma


_SIGMA3 = np.diag([2.0, 1.0, 0.5]) + 0.1
# (count, rejected, mean.hex(), stderr.hex()) per descriptor, recorded with
# the whole-batch Gram kernels (numpy 2.4, OpenBLAS 0.3.31, x86-64): the
# blocked kernels must give the same seeded estimates bit for bit
PINNED_ESTIMATES = {
    "bartlett d=3": (
        lambda: estimate([EntryProduct((1, 2)), TracePower(2), PowerTrace((2, 1))],
                         WishartParams(d=3, beta=Fraction(5, 2), sigma=_SIGMA3), 20_000, RngSpec(2024),
                         method="bartlett", streams=2),
        [(20000, 0, "0x1.092e33b240334p-2", "0x1.8b5055c98ff81p-7"),
         (20000, 0, "0x1.a2f9423136736p+6", "0x1.4cc57b821ee4ep-1"),
         (20000, 0, "0x1.9a70b90ac10cfp+9", "0x1.39ac0a8ee5635p+3")],
    ),
    "vectors d=3 p=6": (
        lambda: estimate([EntryProduct((1, 1, 2, 2)), TracePower(1)],
                         WishartParams(d=3, beta=3, sigma=_SIGMA3), 20_000, RngSpec(2025),
                         method="vectors", streams=2),
        [(20000, 0, "0x1.4b289009d2cb4p+4", "0x1.074490f7949dcp-3"),
         (20000, 0, "0x1.6c02712179a02p+3", "0x1.eba8210f8ac02p-6")],
    ),
    # a chunk of 1000 draws at d=8, p=16 needs 2 MB of kernel scratch: it spans two blocks
    "vectors d=8 p=16": (
        lambda: estimate([EntryProduct((1, 2, 3, 4)), TracePower(2)],
                         WishartParams(d=8, beta=8, sigma=np.eye(8) + 0.3), 4_000, RngSpec(2026),
                         method="vectors", chunk=1000, streams=2),
        [(4000, 0, "0x1.956cf7a1ff8b0p+2", "0x1.a2c598c2d4883p-3"),
         (4000, 0, "0x1.bce9dfedb6287p+12", "0x1.0eada9147da53p+5")],
    ),
}


@pytest.mark.parametrize("case", list(PINNED_ESTIMATES))
def test_seeded_estimates_are_pinned_bit_for_bit(case):
    run, want = PINNED_ESTIMATES[case]
    stats = run()
    assert [(s.count, s.rejected, s.mean.hex(), s.stderr.hex()) for s in stats] == want
    assert all(abs(s.zscore) < 5 for s in stats)
