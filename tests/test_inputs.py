"""One reader per kind of input, and a fuzz test over every public function.

Integers (degrees, dimensions, counts, indices, seeds) are read by
``symcomb._as_int``, rationals (beta, gamma, z, alpha) by
``symcomb._as_fraction`` and real matrices by ``wishart._real_rows``.  The
fuzz test puts one bad input into one argument position of a valid call of a
public function of ``weingarten``, ``wishart``, ``hafnian`` or ``montecarlo``,
or of the integer-taking calls of ``symcomb.Perm``.
With warnings raised as errors, the call must either behave as on the equal
valid input (the same value, or the same exception) or raise ValueError;
DomainError, SizeLimitError and PoleError are subclasses.  Equal is as Python
compares, True == 1 and 2 + 0j == 2; a string is equal to the rational it
spells, as beta reads it.  An alpha of ``hafnian`` is used as given, so there
the equal valid input is the value itself (a numpy int made an int, a string
its rational), and a bool has none.

Not fuzzed, as they take none of the three kinds: flags (``inverse``,
``transposed``), choices (``method``, ``variant``), objects the library builds
(``SampleStats``, tables of values {rho: value}, JSON text).  The matrices
of ``hafnian`` are matrices
over any ring of numbers, complex and IEEE ones included, read by
``hafnian._square``, and the power sums of ``zonal_eval`` are numbers of any
such ring: in these ring slots the fuzz test checks the shape and that every
entry is a number and not a bool.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction
from numbers import Number

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from wishmom import hafnian as hf
from wishmom import montecarlo as mc
from wishmom import weingarten as wg
from wishmom import wishart as ws
from wishmom.matchgroup import coset_type
from wishmom.symcomb import Perm


@dataclasses.dataclass(eq=False)
class S:
    """An argument slot: ``kind`` is "int", "rational", "alpha", "matrix"
    (real, of ``size`` x ``size``, any square size when None) or "ring" (a
    hafnian matrix of numbers, or one number when ``value`` is a scalar)."""

    kind: str
    value: object
    size: int | None = None


class C:
    """A call made as the arguments are filled in: a constructor whose own
    arguments may hold slots, or a fresh generator."""

    def __init__(self, fn, *args, **kwargs):
        self.fn, self.args, self.kwargs = fn, args, kwargs


def Int(v):
    return S("int", v)


def Rat(v):
    return S("rational", v)


def Alpha(v):
    return S("alpha", v)


def Mat(v, size=2):
    return S("matrix", np.array(v, dtype=float), size)


def ints(*vs):
    return tuple(Int(v) for v in vs)


def _fill(tree, slot, bad):
    if isinstance(tree, S):
        return bad if tree is slot else tree.value
    if isinstance(tree, C):
        return tree.fn(*_fill(tree.args, slot, bad), **_fill(tree.kwargs, slot, bad))
    if isinstance(tree, (list, tuple)):
        return type(tree)(_fill(t, slot, bad) for t in tree)
    if isinstance(tree, dict):
        return {k: _fill(v, slot, bad) for k, v in tree.items()}
    return tree


def _slots(tree):
    if isinstance(tree, S):
        yield tree
    elif isinstance(tree, C):
        yield from _slots(tree.args)
        yield from _slots(tree.kwargs)
    elif isinstance(tree, (list, tuple)):
        for t in tree:
            yield from _slots(t)
    elif isinstance(tree, dict):
        for t in tree.values():
            yield from _slots(t)


SIG = [[2.0, 0.3], [0.3, 1.5]]
P2 = ws.WishartParams(d=2, beta=3, sigma=np.array(SIG))
P6 = ws.WishartParams(d=2, beta=6, sigma=np.array(SIG))  # gamma = 9/2
S1, S2 = [[1.0, 0.2], [0.2, -0.5]], [[0.3, 1.0], [1.0, 2.0]]
F1, F2 = [[1.0, 0.2], [-0.4, 0.5]], [[0.3, 1.0], [0.0, 2.0]]
A4 = [[Fraction(0), Fraction(1), Fraction(2), Fraction(-1)],
      [Fraction(1), Fraction(0), Fraction(1, 2), Fraction(3)],
      [Fraction(2), Fraction(1, 2), Fraction(0), Fraction(1)],
      [Fraction(-1), Fraction(3), Fraction(1), Fraction(0)]]
M2 = [[Fraction(1), Fraction(2)], [Fraction(-1), Fraction(1, 3)]]
GEN = C(np.random.default_rng, 0)
KNOBS = {"chunk": Int(700), "streams": Int(2), "threads": Int(1)}


def _call(fn, *args, **kwargs):
    return fn, args, kwargs


CASES = {
    # weingarten
    "check_degree": _call(wg.check_degree, Int(3)),
    "check_dimension": _call(wg.check_dimension, Int(3)),
    "zonal_spherical": _call(wg.zonal_spherical, ints(2, 1), ints(2, 1)),
    "pole_shapes": _call(wg.pole_shapes, Int(2), Rat(1)),
    "weingarten": _call(wg.weingarten, ints(2, 1), Rat(Fraction(7, 2))),
    "weingarten_truncated": _call(wg.weingarten_truncated, ints(2, 1), Int(2)),
    "inv_wishart_weingarten": _call(wg.inv_wishart_weingarten, ints(2, 1), Rat(7)),
    "weingarten_values(z)": _call(wg.weingarten_values, Int(2), z=Rat(5)),
    "weingarten_values(gamma)": _call(wg.weingarten_values, Int(2), gamma=Rat(Fraction(9, 2))),
    "weingarten_values(N)": _call(wg.weingarten_values, Int(2), N=Int(3)),
    "hecke_unit": _call(wg.hecke_unit, Int(2)),
    "zonal_eval": _call(wg.zonal_eval, ints(2, 1), {r: S("ring", Fraction(v)) for r, v in ((1, 2), (2, 3), (3, 5))}),
    "table_to_json": _call(wg.table_to_json, Int(2), Rat(5), wg.weingarten_values(2, z=5)),
    "table_path": _call(wg.table_path, "cache", Int(2), Rat(5)),
    "load_table": _call(wg.load_table, "no-such-cache-dir", Int(2), Rat(5)),
    # symcomb
    "Perm.identity": _call(Perm.identity, Int(3)),
    "Perm.from_cycles": _call(Perm.from_cycles, Int(4), [ints(1, 3), ints(2, 4)]),
    "Perm.__call__": _call(Perm((2, 3, 1)), Int(2)),
    # wishart
    "admissible_beta": _call(ws.admissible_beta, Rat(Fraction(5, 2)), Int(3)),
    "gamma_regime": _call(ws.gamma_regime, Rat(Fraction(3, 2)), Int(2)),
    "WishartParams": _call(ws.WishartParams, Int(2), Rat(3), Mat(SIG)),
    "MomentSpec": _call(ws.MomentSpec, ints(1, 2, 2, 1)),
    "moment": _call(ws.moment, P2, C(ws.MomentSpec, ints(1, 2, 2, 1))),
    "inverse_moment": _call(ws.inverse_moment, P6, C(ws.MomentSpec, ints(1, 2, 2, 2))),
    "trace_product_moment": _call(ws.trace_product_moment, P2, [Mat(S1), Mat(S2)]),
    "paired_contraction": _call(ws.paired_contraction, Perm((1, 3, 2, 4)), Mat(SIG, None), [Mat(F1), Mat(F2)]),
    "mixed_trace_moment": _call(ws.mixed_trace_moment, P2, Perm((3, 1, 2, 4)), [Mat(F1), Mat(F2)]),
    "mixed_trace_moment(inverse)": _call(ws.mixed_trace_moment, P6, Perm((3, 1, 2, 4)), [Mat(F1), Mat(F2)], True),
    "invariant_moment": _call(ws.invariant_moment, P6, ints(2, 1), True),
    "power_trace_coeffs": _call(ws.power_trace_coeffs, ints(2, 1), Rat(Fraction(5, 2)), True),
    "power_trace_moment": _call(ws.power_trace_moment, P2, ints(2, 1)),
    "trace_power_coeffs": _call(ws.trace_power_coeffs, Int(2), Rat(3)),
    "trace_power_moment": _call(ws.trace_power_moment, P6, Int(2), True),
    "log_density": _call(ws.log_density, P2, Mat(SIG)),
    "density": _call(ws.density, P2, Mat(SIG)),
    "haar_moment": _call(ws.haar_moment, ints(1, 2, 1, 2), ints(2, 2, 1, 1), Int(3)),
    # hafnian
    "hafnian_matching": _call(hf.hafnian_matching, S("ring", A4), Alpha(Fraction(1, 2))),
    "hafnian_expand": _call(hf.hafnian_expand, S("ring", A4), Alpha(2)),
    "hafnian_permsum": _call(hf.hafnian_permsum, S("ring", A4), Alpha(-1), "P"),
    "cycle_functionals": _call(hf.cycle_functionals, S("ring", A4), ints(2, 1)),
    "alpha_permanent": _call(hf.alpha_permanent, S("ring", M2), Alpha(Fraction(-5, 3))),
    "permanent_embedding": _call(hf.permanent_embedding, S("ring", M2)),
    # montecarlo
    "RngSpec": _call(mc.RngSpec, Int(3), Int(1)),
    "EntryProduct": _call(mc.EntryProduct, ints(1, 2, 2, 2)),
    "TracePower": _call(mc.TracePower, Int(2)),
    "PowerTrace": _call(mc.PowerTrace, ints(2, 1)),
    "TraceProduct": _call(mc.TraceProduct, (Mat(S1, None), Mat(S2, None))),
    "sample_wishart_batch": _call(mc.sample_wishart_batch, P2, Int(3), GEN),
    "sample_haar_batch": _call(mc.sample_haar_batch, Int(3), Int(3), GEN),
    "estimate": _call(
        mc.estimate,
        [C(mc.EntryProduct, ints(1, 2)), C(mc.TracePower, Int(2), True), C(mc.TraceProduct, [Mat(S1)])],
        P6, Int(1000), C(mc.RngSpec, Int(6)), **KNOBS,
    ),
    "estimate_haar": _call(mc.estimate_haar, [(ints(1, 2), ints(2, 2))], Int(2), Int(1000), mc.RngSpec(7), **KNOBS),
}
SLOTS = [
    pytest.param(name, k, id=f"{name}-{k}")
    for name, (_, args, kwargs) in CASES.items()
    for k in range(len(list(_slots((args, kwargs)))))
]

NAN, INF = float("nan"), float("inf")
BAD = [
    # scalars
    True, False, np.True_, np.False_, np.int64(2), np.int32(3), np.uint8(1), 2.0, np.float64(3.0), 2.5,
    -0.5, Fraction(7, 2), NAN, INF, -INF, np.float64(NAN), None, "2", "5/2", "x", "", "1/0",
    2 + 0j, 1j, np.complex128(2), np.complex64(1 + 1j),
    # matrices: complex, non-finite and of the wrong shape
    np.eye(2) + 0.5j, [[1.0, 0.0], [0.0, 1j]], np.array([[1.0, NAN], [NAN, 1.0]]), np.full((2, 2), INF),
    [[1.0, 0.0], [0.0, -INF]], np.eye(3), np.ones(2), np.ones((2, 2, 1)), [[1.0, 0.0], [0.0]], np.ones((2, 3)),
    # matrices with entries that are not numbers, or are bools
    [["a", "b"], ["b", "a"]], [[None, 1], [1, None]], [[0, "1/2"], ["1/2", 0]], [[True, False], [False, True]],
    np.eye(2, dtype=bool), np.array([[0, Fraction(1, 2)], [Fraction(1, 2), None]], dtype=object),
]


def _square(x) -> bool:
    try:
        shape = np.shape(x)
    except ValueError:
        return False
    return len(shape) == 2 and shape[0] == shape[1]


def _numbers(x) -> bool:
    """Every entry of x is a number and not a bool."""
    return all(isinstance(v, Number) and not isinstance(v, bool) for v in np.array(x, dtype=object).flat)


def _rational(x):
    """The Fraction equal to x, or spelt by the string x; None when there is none."""
    try:
        f = Fraction(x) if isinstance(x, (str, int, float, Fraction)) else Fraction(float(x))
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        return None
    return f if isinstance(x, str) or f == x else None


def _equal_valid(slot: S, x):
    """The valid input equal to x in the slot's kind, or None when there is none."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if slot.kind == "int":
            try:
                k = int(x.real if isinstance(x, complex) else x)
            except (TypeError, ValueError, OverflowError):
                return None
            return k if k == x else None
        if slot.kind == "rational":
            return _rational(x)
        if slot.kind == "alpha":
            # alpha is used as given, a string as its rational and a numpy int as the int
            if isinstance(x, (bool, np.bool_)) or _rational(x) is None:
                return None
            if isinstance(x, str):
                return _rational(x)
            return int(x) if isinstance(x, (int, np.integer)) else x
    # a matrix slot of any square size takes every real, finite square array
    if slot.size is None and isinstance(x, np.ndarray) and x.dtype.kind == "f" and _square(x):
        return x if np.isfinite(x).all() else None
    return None


def _outcome(case, slot, value):
    fn, args, kwargs = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return True, fn(*_fill(args, slot, value), **_fill(kwargs, slot, value))
        except Exception as exc:  # the contract is checked by the caller
            return False, exc


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(map(_same, a, b))
    return a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


SCALARS = st.one_of(
    st.integers(-3, 12),
    st.floats(-20, 20),
    st.sampled_from([NAN, INF, -INF]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.complex_numbers(max_magnitude=20),
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
)


def _with_examples(test):
    for bad in BAD:
        test = example(bad=bad)(test)
    return test


@pytest.mark.parametrize("name, k", SLOTS)
@settings(max_examples=4, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@_with_examples
@given(bad=SCALARS)
def test_bad_input_is_refused_or_read_as_its_equal(name, k, bad):
    case = CASES[name]
    slot = list(_slots(case[1:]))[k]
    if slot.kind in ("int", "rational", "alpha") and isinstance(bad, (list, np.ndarray)):
        return  # bad scalars go into scalar positions, bad matrices into every position
    returned, got = _outcome(case, slot, bad)
    if not returned and isinstance(got, ValueError):
        return
    if slot.kind == "ring":
        # any square matrix of numbers is a hafnian input and any number a power
        # sum; a value of another shape, or with an entry that is not a number
        # or is a bool, is not
        if np.ndim(slot.value) == 2:
            assert _square(bad) and _numbers(bad) and returned, (name, bad, got)
        else:
            assert isinstance(bad, Number) and not isinstance(bad, bool) and returned, (name, bad, got)
        return
    equal = _equal_valid(slot, bad)
    assert equal is not None, f"{name}: {bad!r} in slot {k} gave {got!r}"
    want_returned, want = _outcome(case, slot, equal)
    if returned:
        assert want_returned and _same(got, want), (name, bad, got, want)
    else:
        assert not want_returned and type(got) is type(want), (name, bad, got, want)



# ------------------------------------------------ faults found by hand


A4_INT = [[0, 1, 2, -1], [1, 0, 3, 3], [2, 3, 0, 1], [-1, 3, 1, 0]]
ROUTES = {
    "matching": (hf.hafnian_matching, A4),
    "expand": (hf.hafnian_expand, A4),
    "permsum_P": (lambda A, al: hf.hafnian_permsum(A, al, "P"), A4),
    "permsum_Q": (lambda A, al: hf.hafnian_permsum(A, al, "Q"), A4),
    "permanent": (hf.alpha_permanent, M2),
}


@pytest.mark.parametrize("route, exact", ROUTES.values(), ids=ROUTES.keys())
def test_alpha_is_read_as_a_finite_rational(route, exact):
    for bad in (True, np.True_, None, NAN, INF, 1j, 2 + 0j, "x"):
        with pytest.raises(ValueError, match="alpha must be a finite rational number"):
            route(exact, bad)
    assert route(exact, "1/2") == route(exact, Fraction(1, 2))
    # any other alpha is used as given: a numpy int as the int, a float as a float
    ints = A4_INT if len(exact) == 4 else [[1, 2], [-1, 3]]
    assert route(ints, np.int64(3)) == route(ints, 3) and type(route(ints, np.int64(3))) is type(route(ints, 3))
    assert type(route(exact, 0.5)) is float and route(exact, 0.5) == pytest.approx(float(route(exact, Fraction(1, 2))))


@pytest.mark.parametrize("route, exact", ROUTES.values(), ids=ROUTES.keys())
def test_hafnian_matrix_entries_are_numbers(route, exact):
    # a string entry was returned as a value or raised TypeError from inside a sum
    for bad in ("b", None, True, np.True_, [1]):
        M = [list(row) for row in exact]
        M[0][1] = M[1][0] = bad
        with pytest.raises(ValueError, match=r"matrix entry at \(0,1\) must be a number") as info:
            route(M, 2)
        assert type(info.value) is ValueError
    # complex entries are numbers of a ring
    ints = A4_INT if len(exact) == 4 else [[1, 2], [-1, 3]]
    assert route([[complex(v) for v in row] for row in ints], 2) == route(ints, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda bad: mc.sample_wishart_batch(P2, bad, np.random.default_rng(0)),
        lambda bad: mc.sample_haar_batch(bad, 3, np.random.default_rng(0)),
        lambda bad: mc.sample_haar_batch(3, bad, np.random.default_rng(0)),
        lambda bad: mc.sample_haar_batch(bad, 1, mc.RngSpec(0).generator())[0],
    ],
    ids=["wishart-count", "haar-N", "haar-count", "orthogonal-N"],
)
def test_sampler_sizes_are_integers(call):
    for bad in (True, 2.5, None, "3"):
        with pytest.raises(ValueError, match="must be"):
            call(bad)
    assert np.array_equal(call(3.0), call(3))


def test_haar_estimates_read_N_and_indices_as_haar_moment_does():
    want = mc.estimate_haar([((1, 2), (2, 2))], 2, 1000, mc.RngSpec(3))
    assert mc.estimate_haar([((1.0, np.int64(2)), (2.0, 2))], 2.0, 1000, mc.RngSpec(3)) == want
    for pairs, N in (([((1, 3), (1, 1))], 2), ([((1, 2.5), (1, 1))], 2), ([((1, 1), (1, 1))], True)):
        with pytest.raises(ValueError, match="must be"):
            mc.estimate_haar(pairs, N, 1000, mc.RngSpec(3))


def test_descriptors_read_their_integers_and_matrices():
    assert mc.EntryProduct((1, 2.0)).indices == (1, 2) and type(mc.EntryProduct((1, 2.0)).indices[1]) is int
    assert mc.TracePower(2.0).power == 2 and type(mc.TracePower(2.0).power) is int
    want = mc.estimate([mc.EntryProduct((1, 2)), mc.TracePower(2)], P2, 1000, mc.RngSpec(2))
    assert mc.estimate([mc.EntryProduct((1, 2.0)), mc.TracePower(2.0)], P2, 1000, mc.RngSpec(2)) == want
    for bad in ((1, 2.5), (1, True), (0, 1), (1, 2, 1)):
        with pytest.raises(ValueError):
            mc.EntryProduct(bad)
    for bad in (2.5, True, None, "2"):
        with pytest.raises(ValueError, match="power must be"):
            mc.TracePower(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="trace-product factor must be real"):
            mc.TraceProduct([np.eye(2) + 1j * np.ones((2, 2))])


def test_a_negative_trace_power_is_a_bad_argument_not_a_size_limit():
    # construction refuses it before any order is read, the direct calls
    # before the degree cap is checked
    for call, match in (
        (lambda: mc.TracePower(-1), "power must be an integer >= 0, got -1"),
        (lambda: ws.MomentKind("trace_power", -1, True), "power must be an integer >= 0, got -1"),
        (lambda: ws.trace_power_moment(P2, -1), "degree must be an integer >= 0, got -1"),
        (lambda: ws.trace_power_coeffs(-1, 3), "degree must be an integer >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=match) as info:
            call()
        assert type(info.value) is ValueError


def test_permutation_images_are_read_as_integers():
    # images were kept as given: 2.0 passed the bijection check and raised
    # TypeError at the first list index, True passed as 1, and numpy ints
    # came back as images
    g = Perm((2.0, 1.0))
    assert g.images == (2, 1) and all(type(v) is int for v in g.images)
    assert g.inverse() == Perm((2, 1))
    assert coset_type(Perm((2.0, 1.0, 4.0, 3.0))) == coset_type(Perm((2, 1, 4, 3)))
    assert ws.mixed_trace_moment(P2, g, [np.eye(2)]) == ws.mixed_trace_moment(P2, Perm((2, 1)), [np.eye(2)])
    images = Perm(np.array([2, 1])).images
    assert images == (2, 1) and all(type(v) is int for v in images)
    for bad in ((True, 2), (1.5, 1), (2, 1 + 0j), ("2", "1"), (None, 1)):
        with pytest.raises(ValueError, match="permutation image must be an integer"):
            Perm(bad)



def test_permutation_sizes_points_and_cycles_are_read_as_integers():
    # a point was a list index: p(0) was p(3) and p(-1) p(2), p(4) an
    # IndexError; cycles and sizes were used as given
    p = Perm([2, 3, 1])
    assert [p(1), p(2.0), p(np.int64(3))] == [2, 3, 1]
    for bad in (0, -1, 4, 1.5, True, "1", None):
        with pytest.raises(ValueError, match=r"^point must be an integer in 1\.\.3, got "):
            p(bad)
    assert Perm.from_cycles(3, [(1, 2.0)]) == Perm.from_cycles(3.0, [(1, 2)]) == Perm([2, 1, 3])
    assert Perm.from_cycles(np.int64(3), [(np.int64(3), 1)]) == Perm([3, 2, 1])
    for cycle in ((1, 5), (0, 1), (1, 1.5), (1, True)):
        with pytest.raises(ValueError, match=r"^cycle entry must be an integer in 1\.\.3, got "):
            Perm.from_cycles(3, [cycle])
    for call in (lambda m: Perm.from_cycles(m, []), Perm.identity):
        for bad in (-1, 2.5, True, "2", None):
            with pytest.raises(ValueError, match=r"^permutation size must be an integer >= 0, got "):
                call(bad)
        assert call(2.0) == call(np.int64(2)) == Perm([1, 2]) and call(0) == Perm(())
    with pytest.raises(TypeError):
        p * [1, 2, 3]


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.array(S1) + 1j * np.eye(2), "must be real"),
        (np.array(S1) + 0j, "must be real"),
        (np.full((2, 2), INF), "non-finite"),
        (np.array([[1.0, NAN], [NAN, 1.0]]), "non-finite"),
        (np.eye(3), "must be a square matrix of size 2"),
        (np.ones(2), "must be a square matrix of size 2"),
    ],
)
def test_trace_and_mixed_factors_are_real_finite_d_by_d(bad, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (
            lambda: ws.trace_product_moment(P2, [np.array(S2), bad]),
            lambda: ws.mixed_trace_moment(P2, Perm((3, 1, 2, 4)), [np.array(F1), bad]),
            lambda: ws.mixed_trace_moment(P6, Perm((3, 1, 2, 4)), [np.array(F1), bad], True),
            lambda: ws.paired_contraction(Perm((1, 3, 2, 4)), np.array(SIG), [np.array(F1), bad]),
        ):
            with pytest.raises(ValueError, match=match) as info:
                call()
            assert type(info.value) is ValueError


def test_paired_contraction_reads_x_as_a_real_square_matrix():
    for bad, match in ((np.eye(2) * 1j, "x must be real"), (np.ones((2, 3)), "x must be a square matrix")):
        with pytest.raises(ValueError, match=match):
            ws.paired_contraction(Perm((1, 3, 2, 4)), bad, [np.array(F1), np.array(F2)])


def test_an_asymmetric_trace_factor_is_a_domain_error_as_sigma_is():
    with pytest.raises(ws.DomainError, match="trace-product factor is not symmetric"):
        ws.trace_product_moment(P2, [np.array(F1)])


@pytest.mark.parametrize(
    "call, good",
    [
        (lambda n: ws.gamma_regime(Fraction(5), n), "standard"),
        (lambda d: ws.admissible_beta(Fraction(1), d), True),
        (lambda n: wg.pole_shapes(n, Fraction(1)), ((1, 1),)),
        (lambda n: wg.hecke_unit(n), wg.hecke_unit(2)),
    ],
    ids=["gamma_regime", "admissible_beta", "pole_shapes", "hecke_unit"],
)
def test_integer_arguments_without_a_rule_before(call, good):
    for bad in (True, np.True_, None, "2", 2.5):
        with pytest.raises(ValueError, match="must be"):
            call(bad)
    assert call(2) == call(2.0) == call(np.int64(2)) == good


def test_rational_arguments_without_a_rule_before():
    for bad in (True, None, "x", NAN):
        for call in (lambda g: ws.gamma_regime(g, 2), lambda b: ws.admissible_beta(b, 3), lambda z: wg.pole_shapes(2, z)):
            with pytest.raises(ValueError, match="must be a finite rational number"):
                call(bad)
    assert ws.gamma_regime(2.5, 2) == ws.gamma_regime("5/2", 2) == "standard"


def test_a_numpy_int_is_read_as_a_python_int():
    # a Fraction made from a numpy int keeps that type: -2 * gamma overflowed a uint8
    assert wg.inv_wishart_weingarten((2, 1), np.uint8(7)) == wg.inv_wishart_weingarten((2, 1), 7)
    assert ws.power_trace_coeffs((2, 1), np.uint8(7), True) == ws.power_trace_coeffs((2, 1), 7, True)
    assert hf.hafnian_matching(A4, np.uint8(200)) == hf.hafnian_matching(A4, 200)


def _symmetric_with_spectrum(eigenvalues, seed):
    """Q diag(eigenvalues) Q^T for a random orthogonal Q, symmetrised."""
    d = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    m = q @ np.diag(eigenvalues) @ q.T
    return (m + m.T) / 2


@settings(max_examples=300, deadline=None)
@given(
    smallest=st.floats(-6, -2),
    others=st.lists(st.floats(0, 2), min_size=1, max_size=5),
    signs=st.sampled_from(((1, 1), (-1, 1), (1, -1))),
    seed=st.integers(0, 2**32 - 1),
)
def test_sigma_is_accepted_exactly_when_lapack_factors_it(smallest, others, signs, seed):
    # the Python Cholesky of the check against LAPACK's, on matrices whose
    # smallest eigenvalue is at least 1e-8 max|eigenvalue| or at most -1e-8
    # max: one eigenvalue of 1e-6..1e-2 and others of 1..100, with the small
    # one or one large one negated, or neither
    eigenvalues = [signs[0] * 10.0**smallest, signs[1] * 10.0 ** others[0], *(10.0**e for e in others[1:])]
    sigma = _symmetric_with_spectrum(eigenvalues, seed)
    eig = np.linalg.eigvalsh(sigma)
    top = np.abs(eig).max()
    assume(top > 0 and (eig[0] >= 1e-8 * top or eig[0] <= -1e-8 * top))
    try:
        want = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        want = None
    try:
        p = ws.WishartParams(d=len(sigma), beta=len(sigma) + 1, sigma=sigma)
    except ws.DomainError as exc:
        assert want is None and str(exc) == "sigma is not positive definite"
        return
    assert want is not None
    assert np.array_equal(p.sigma, sigma) and np.array_equal(p.chol, want) and np.array_equal(p.chol, np.linalg.cholesky(p.sigma))


def test_matrix_entries_numpy_used_to_convert_are_refused():
    # bools, numpy bools, Decimals and numeric strings in an object array were
    # converted to floats by numpy; a number is now a real number and not a bool
    from decimal import Decimal

    for bad in ([[2.0, False], [False, 1.5]], [[2.0, np.False_], [np.False_, 1.5]],
                [[Decimal("2"), Decimal("0.3")], [Decimal("0.3"), Decimal("1.5")]],
                np.array([["2.0", "0.3"], ["0.3", "1.5"]], dtype=object)):
        with pytest.raises(ValueError, match="sigma must be real") as info:
            ws.WishartParams(d=2, beta=3, sigma=bad)
        assert type(info.value) is ValueError
    with pytest.raises(ValueError, match=r"x must be a square matrix, got shape \(0, 0\)"):
        ws.paired_contraction(Perm(()), np.zeros((0, 0)), [])
    # ints, Fractions, tuples, rows given as arrays and float32 arrays are read as floats
    want = ws.WishartParams(d=2, beta=3, sigma=np.array([[2.0, 0.5], [0.5, 1.5]]))
    for good in ([[2, Fraction(1, 2)], [Fraction(1, 2), 1.5]], ((2.0, 0.5), (0.5, 1.5)),
                 [np.array([2.0, 0.5]), np.array([0.5, 1.5])], np.array([[2, 0.5], [0.5, 1.5]], dtype=np.float32)):
        assert ws.WishartParams(d=2, beta=3, sigma=good) == want
