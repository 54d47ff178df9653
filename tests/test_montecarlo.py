import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest

from wishmom import montecarlo, wishart
from wishmom.matchgroup import SizeLimitError
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


@pytest.fixture
def no_work(monkeypatch):
    # a refused argument must be refused before any exact target or draw
    def refuse(*args, **kwargs):
        raise AssertionError("computed a target or drew samples before refusing an argument")

    monkeypatch.setattr(wishart.MomentKind, "target", refuse)
    monkeypatch.setattr(wishart, "trace_product_moment", refuse)
    monkeypatch.setattr(wishart, "haar_moment", refuse)
    monkeypatch.setattr(montecarlo, "sample_wishart_batch", refuse)
    monkeypatch.setattr(montecarlo._kernels, "haar_orthogonalize", refuse)


_COUNT_REFUSALS = [
    (dict(sample_count=999), "sample_count must be an integer >= 1000, got 999"),
    (dict(sample_count=-1), "sample_count must be an integer >= 1000, got -1"),
    (dict(sample_count=1000.5), "sample_count must be an integer >= 1000, got 1000.5"),
    (dict(streams=0), "streams must be a positive integer, got 0"),
    (dict(chunk=0), "chunk must be a positive integer, got 0"),
    (dict(threads=0), "threads must be a positive integer, got 0"),
]


@pytest.mark.parametrize(
    "beta, bad, error, message",
    [(9, kw, ValueError, msg) for kw, msg in _COUNT_REFUSALS]
    + [(9, dict(method="Auto"), ValueError, "unknown sampling method 'Auto'"),
       (1, dict(method="bartlett"), DomainError, "Bartlett path needs 2*beta > d-1, got beta=1"),
       (Fraction(7, 4), dict(method="vectors"), DomainError, "integer path needs integer 2*beta, got beta=7/4")],
)
def test_estimate_refuses_before_any_target_or_draw(no_work, beta, bad, error, message):
    p = WishartParams(d=3, beta=beta, sigma=np.eye(3) + 0.2)
    descs = [EntryProduct((1, 2, 2, 3)), TraceProduct((np.eye(3),))]
    if p.gamma > 2:  # at gamma <= 0 the gamma margin of an inverse descriptor is refused first
        descs.append(TracePower(2, inverse=True))
    kw = {**dict(sample_count=2000, streams=2, chunk=1000, threads=1), **bad}
    with pytest.raises(error) as info:
        estimate(descs, p, rng=RngSpec(0), **kw)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("bad, message", _COUNT_REFUSALS)
def test_estimate_haar_refuses_before_any_target_or_draw(no_work, bad, message):
    kw = {**dict(sample_count=2000, streams=2, chunk=1000, threads=1), **bad}
    with pytest.raises(ValueError) as info:
        estimate_haar([((1, 1), (1, 1)), ((1, 2), (2, 1))], 3, rng=RngSpec(0), **kw)
    assert type(info.value) is ValueError and str(info.value) == message


def test_a_bad_count_or_method_is_refused_before_a_target_refuses():
    p = WishartParams(d=3, beta=9, sigma=np.eye(3) + 0.2)
    # TracePower(11) is built, and its check refuses the degree
    with pytest.raises(SizeLimitError):
        estimate([TracePower(11)], p, 2000, RngSpec(0))
    with pytest.raises(ValueError, match="index must be an integer in 1..3, got 4"):
        estimate([EntryProduct((1, 4))], p, 2000, RngSpec(0))
    for descs in ([TracePower(11)], [EntryProduct((1, 4))], [EntryProduct((1, 2))]):
        with pytest.raises(ValueError, match="sample_count must be"):
            estimate(descs, p, 999, RngSpec(0), method="Auto")
        with pytest.raises(ValueError, match="unknown sampling method 'Auto'"):
            estimate(descs, p, 2000, RngSpec(0), method="Auto")
    with pytest.raises(DomainError, match="Bartlett path needs"):
        estimate([TracePower(11)], WishartParams(d=3, beta=1, sigma=np.eye(3)), 2000, RngSpec(0), method="bartlett")
    six = ((1,) * 12, (1,) * 12)  # degree 6: haar_moment refuses to list its matchings
    with pytest.raises(SizeLimitError):
        estimate_haar([six], 3, 2000, RngSpec(0))
    with pytest.raises(ValueError, match="streams must be"):
        estimate_haar([six], 3, 2000, RngSpec(0), streams=0)


def test_the_unused_threads_warning_points_at_the_caller(params):
    calls = (lambda: estimate([EntryProduct((1, 2))], params, 2000, RngSpec(0), streams=1, threads=2),
             lambda: estimate_haar([((1,), (1,))], 2, 2000, RngSpec(0), streams=1, threads=2))
    for call in calls:
        with pytest.warns(RuntimeWarning, match="threads=2 exceeds streams=1") as record:
            call()
        assert [w.filename for w in record] == [__file__]


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


_SIGMA3 = np.diag([2.0, 1.0, 0.5]) + 0.1
_P_DIAG = WishartParams(d=3, beta=Fraction(5, 2), sigma=_SIGMA3)
_P8_VECTORS = WishartParams(d=8, beta=8, sigma=np.eye(8) + 0.3)
_KW = dict(streams=2, chunk=1500)
# path -> estimate at a thread count; the 20,000-draw cases also keep every |z| < 5
_PATHS = {
    "bartlett": lambda t: estimate([EntryProduct((1, 2)), TracePower(2)], _P_DIAG, 4000, RngSpec(11), method="bartlett",
                                   threads=t, **_KW),
    "vectors": lambda t: estimate([EntryProduct((1, 2)), TracePower(2)], _P_DIAG, 4000, RngSpec(11), method="vectors",
                                  threads=t, **_KW),
    "inverse": lambda t: estimate([EntryProduct((1, 1), inverse=True), TracePower(2, inverse=True)],
                                  WishartParams(d=3, beta=6, sigma=_SIGMA3), 4000, RngSpec(11), threads=t, **_KW),
    "power_trace": lambda t: estimate([PowerTrace((3, 1))], _P_DIAG, 4000, RngSpec(11), threads=t, **_KW),
    "haar": lambda t: estimate_haar([((1, 1), (1, 1)), ((1, 2), (1, 2))], 3, 4000, RngSpec(11), threads=t, **_KW),
    "haar_last_column": lambda t: estimate_haar([((3, 3), (8, 8)), ((1, 1, 2, 2), (1, 8, 1, 8))], 8, 4000, RngSpec(11),
                                                threads=t, **_KW),
    "haar_degree0": lambda t: estimate_haar([((), ()), ((1, 1), (2, 2))], 3, 4000, RngSpec(11), threads=t, **_KW),
    # Haar draws orthogonalized up to column 8 of 8
    "haar_last_column 20000": lambda t: estimate_haar([((3, 3), (8, 8)), ((1, 1, 2, 2), (1, 8, 1, 8))], 8, 20_000,
                                                      RngSpec(6), streams=2, threads=t),
    # the batched Cholesky inverse at d = 8 and d = 2
    **{f"inverse d={d} 20000": lambda t, d=d, beta=beta: estimate(
        [EntryProduct((1, 1), True), EntryProduct((1, 2, 1, 2), True), TracePower(2, True), PowerTrace((2,), True)],
        WishartParams(d=d, beta=beta, sigma=np.eye(d) + 0.3), 20_000, RngSpec(7), streams=2, threads=t)
       for d, beta in ((8, 10), (2, 6))},
    # zonal invariants Z_lambda of W and of W^-1
    "invariant 20000": lambda t: estimate([Invariant((2, 1)), Invariant((1, 1), True)],
                                          WishartParams(d=3, beta=Fraction(19, 2), sigma=_SIGMA3), 20_000,
                                          RngSpec(8), streams=2, threads=t),
    # the blocked Gram kernels on chunks of 1000 draws, two blocks each at d = 8, p = 16
    "vectors d=8 chunk=1000 20000": lambda t: estimate([EntryProduct((1, 2, 3, 4)), TracePower(2)], _P8_VECTORS, 20_000,
                                                       RngSpec(9), method="vectors", chunk=1000, streams=2, threads=t),
    "bartlett d=3 chunk=1000 20000": lambda t: estimate(
        [EntryProduct((1, 2)), TracePower(2), PowerTrace((2, 1))], WishartParams(d=3, beta=2.5, sigma=_SIGMA3),
        20_000, RngSpec(9), method="bartlett", chunk=1000, streams=2, threads=t),
}


@pytest.mark.parametrize("path", list(_PATHS))
def test_every_sampling_path_is_thread_invariant(path):
    one, two = _PATHS[path](1), _PATHS[path](2)
    assert one == two
    if path.endswith(" 20000"):
        assert all(abs(s.zscore) < 5 for s in one), one


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


def test_labels_reprs_and_fields_of_every_descriptor():
    # recorded before the paired kinds shared one base, which adds no field
    cases = [
        (EntryProduct((1, 2, 2, 1)), "W[1,2]*W[2,1]", "EntryProduct(indices=(1, 2, 2, 1), inverse=False)"),
        (EntryProduct([1, 1], True), "Winv[1,1]", "EntryProduct(indices=(1, 1), inverse=True)"),
        (EntryProduct(()), "", "EntryProduct(indices=(), inverse=False)"),
        (TracePower(3), "tr(W)^3", "TracePower(power=3, inverse=False)"),
        (TracePower(2, True), "tr(Winv)^2", "TracePower(power=2, inverse=True)"),
        (PowerTrace((2, 1)), "p_(2, 1)(W)", "PowerTrace(mu=(2, 1), inverse=False)"),
        (PowerTrace([3, 1, 1], True), "p_(3, 1, 1)(Winv)", "PowerTrace(mu=(3, 1, 1), inverse=True)"),
        (PowerTrace(()), "p_()(W)", "PowerTrace(mu=(), inverse=False)"),
        (Invariant((2, 1)), "Z_(2, 1)(W)", "Invariant(lam=(2, 1), inverse=False)"),
        (Invariant((1, 1), True), "Z_(1, 1)(Winv)", "Invariant(lam=(1, 1), inverse=True)"),
        (TraceProduct([np.eye(2)] * 2), "prod tr(W s_i), n=2", None),
    ]
    for desc, label, text in cases:
        assert desc.label == label and (text is None or repr(desc) == text)
    want = {EntryProduct: ["indices", "inverse"], TracePower: ["power", "inverse"], PowerTrace: ["mu", "inverse"],
            Invariant: ["lam", "inverse"], TraceProduct: ["mats"]}
    assert {cls: [f.name for f in fields(cls)] for cls in want} == want


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
    # a batch through the batched Gram-Schmidt kernel
    Q = sample_haar_batch(8, 20_000, np.random.default_rng(5))
    assert np.abs(np.einsum("mik,mil->mkl", Q, Q) - np.eye(8)).max() <= 1e-13


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
