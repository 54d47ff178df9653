import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

import wishmom
from wishmom.matchgroup import coset_type, paired_perm
from wishmom.montecarlo import EntryProduct
from wishmom.symcomb import (
    Perm,
    _Value,
    centralizer_order,
    character,
    check_partition,
    conjugate,
    content_product,
    doubled,
    hook_dim,
    hook_dim_doubled,
    partitions_of,
)
from wishmom.wishart import MomentKind, MomentSpec, WishartParams

from oracles import forward_differences, partitions_bruteforce


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11]


def test_partitions_reverse_lex_order():
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_of(0) == ((),)


@pytest.mark.parametrize("n", range(7))
def test_partition_counts(n):
    assert len(partitions_of(n)) == PARTITION_COUNTS[n]


def test_partitions_of_a_negative_number_is_a_value_error():
    for n in (-1, -4):
        with pytest.raises(ValueError, match="^n must be nonnegative$"):
            partitions_of(n)


def test_partitions_match_bruteforce_enumeration():
    for n in range(1, 7):
        assert set(partitions_of(n)) == partitions_bruteforce(n)


def test_check_partition_rejects_bad_input():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))
    for bad in ((2.5,), (2, 0.5), ("2",), (True,), (None,), (float("inf"),)):
        with pytest.raises(ValueError, match="partition part must be a positive integer"):
            check_partition(bad)


def test_check_partition_takes_numbers_equal_to_ints_as_ints():
    got = check_partition((np.int64(3), 2.0, Fraction(1)))
    assert got == (3, 2, 1) and all(type(p) is int for p in got)


def test_cycle_type_worked_example():
    # the library reads the cycle type of pi as the coset type of its paired
    # lift; one-line (5,6,1,4,3,2) decomposes into a 3-cycle, a 2-cycle and a
    # fixed point
    assert coset_type(paired_perm(Perm((5, 6, 1, 4, 3, 2)))) == (3, 2, 1)


def test_cycle_type_identity_and_full_cycle():
    assert coset_type(paired_perm(Perm.identity(4))) == (1, 1, 1, 1)
    assert coset_type(paired_perm(Perm((2, 3, 4, 5, 1)))) == (5,)


def test_perm_validation_and_group_ops():
    with pytest.raises(ValueError):
        Perm((1, 1, 2))
    p = Perm((3, 1, 2))
    assert p * p.inverse() == Perm.identity(3)
    assert (p * p)(1) == p(p(1))
    assert Perm.from_cycles(4, [(1, 3), (2, 4)]) == Perm((3, 4, 1, 2))


def test_perm_products_take_perms_of_one_size():
    p = Perm((2, 3, 1))
    for a, b in ((p, Perm((2, 1))), (Perm(()), p)):
        with pytest.raises(ValueError, match="^size mismatch$"):
            a * b
    # a product with anything but a Perm is left to the other operand
    assert p.__mul__([1, 2, 3]) is NotImplemented and p.__mul__((2, 3, 1)) is NotImplemented
    assert p * Perm((1, 2, 3)) == p and Perm(()) * Perm(()) == Perm(())


@given(st.permutations(list(range(1, 8))))
def test_cycle_type_is_partition_of_size(images):
    t = coset_type(paired_perm(Perm(images)))
    assert sum(t) == len(images)
    assert all(a >= b for a, b in zip(t, t[1:]))


def test_centralizer_order_values():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((4,)) == 4
    assert centralizer_order((2, 2)) == 8


@pytest.mark.parametrize("n", range(1, 7))
def test_class_sizes_sum_to_group_order(n):
    assert sum(factorial(n) // centralizer_order(rho) for rho in partitions_of(n)) == factorial(n)


def test_hook_dims_doubled_degree3():
    assert hook_dim_doubled((3,)) == 1
    assert hook_dim_doubled((2, 1)) == 9
    assert hook_dim_doubled((1, 1, 1)) == 5


@pytest.mark.parametrize("n", range(1, 7))
def test_dimension_squares_sum_to_factorial(n):
    assert sum(hook_dim(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_conjugate_and_doubled():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert doubled((2, 1)) == (4, 2)


def test_character_trivial_representation():
    for n in range(1, 6):
        for rho in partitions_of(n):
            assert character((n,), rho) == 1


def test_character_identity_class_gives_dimension():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert character(lam, (1,) * n) == hook_dim(lam)


@pytest.mark.parametrize("n", range(1, 7))
def test_character_column_orthogonality(n):
    for r1 in partitions_of(n):
        for r2 in partitions_of(n):
            s = sum(character(lam, r1) * character(lam, r2) for lam in partitions_of(n))
            assert s == (centralizer_order(r1) if r1 == r2 else 0)


def test_character_weight_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2,))


def test_character_and_doubled_hook_dim_check_partitions_after_the_equal_key_was_read():
    assert character((1, 1), (1, 1)) == 1 and hook_dim_doubled((1, 1)) == 2
    for lam, rho in (((True, 1), (1, 1)), ((1, 1), (1, True)), ((1, 2), (2,))):
        with pytest.raises(ValueError, match="partition part"):
            character(lam, rho)
    for parts in ((True, 1), (1, 2), (2 + 0j,)):
        with pytest.raises(ValueError, match="partition part"):
            hook_dim_doubled(parts)
    assert character([2, 1], [1, 1, 1]) == character((2, 1), (1, 1, 1)) == 2
    assert hook_dim_doubled([2, 1]) == hook_dim_doubled((2, 1)) == 9


def test_content_product_degree3_factorizations():
    z = Fraction(11, 7)
    assert content_product((3,), z) == z * (z + 2) * (z + 4)
    assert content_product((2, 1), z) == z * (z + 2) * (z - 1)
    assert content_product((1, 1, 1), z) == z * (z - 1) * (z - 2)
    assert content_product((), z) == 1


def test_content_product_is_monic_of_degree_weight():
    # finite differences on integer points: n-th difference of a monic degree-n
    # polynomial is n!, the (n+1)-st vanishes
    for n in range(1, 5):
        for lam in partitions_of(n):
            vals = [content_product(lam, Fraction(t)) for t in range(n + 2)]
            diffs = vals
            for _ in range(n):
                diffs = forward_differences(diffs)
            assert diffs[0] == factorial(n)
            assert forward_differences(diffs) == [0]


# ------------------------------------------------ one immutability mechanism


def _wishmom_classes():
    for info in pkgutil.iter_modules(wishmom.__path__):
        module = importlib.import_module(f"wishmom.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                yield obj


def _writes_own_setattr(cls) -> bool:
    """Whether cls or a base of wishmom's defines ``__setattr__`` (those of
    exceptions and ``threading.local`` are Python's)."""
    return any("__setattr__" in vars(c) for c in cls.__mro__ if c.__module__.startswith("wishmom"))


def test_every_class_that_refuses_writes_is_a_dataclass_or_a_value():
    refusing = {cls for cls in _wishmom_classes() if _writes_own_setattr(cls) and not dataclasses.is_dataclass(cls)}
    assert {_Value, Perm, MomentSpec, MomentKind, WishartParams} <= refusing
    assert all(issubclass(cls, _Value) for cls in refusing), refusing


VALUES = [
    Perm((2, 1, 3)),
    Perm(()),
    MomentSpec((1, 2, 2, 1), inverse=True),
    MomentKind("power_trace", (2, 1), True),
    MomentKind("entries", (1, 2, 2, 1)),
    WishartParams(d=2, beta=Fraction(7, 2), sigma=[[2.0, 0.3], [0.3, 1.5]]),
]


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_a_value_refuses_every_write(value):
    cls = type(value)
    names = {*cls._fields, *getattr(cls, "__slots__", ()), *getattr(value, "__dict__", ()), "other"}
    for name in names:
        message = f"^cannot set or delete '{name}': a {cls.__name__} is immutable$"
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, 1)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
    assert cls(*value._values()) == value


@pytest.mark.parametrize("value", VALUES, ids=repr)
def test_a_value_copies_pickles_and_hashes_by_its_fields(value):
    cls = type(value)
    assert value.__reduce__() == (cls, value._values())
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value), cls(*value._values())):
        assert type(other) is cls and other == value and repr(other) == repr(value)
        assert hash(other) == hash(value) and len({other, value}) == 1
    assert value.__eq__(value._values()) is NotImplemented and value != value._values()


def test_values_differ_by_any_field_and_only_by_fields():
    sigma = [[2.0, 0.3], [0.3, 1.5]]
    p = WishartParams(d=2, beta=3, sigma=sigma)
    assert p.sigma_inv_rows and p.chol is not None  # cached reads are not part of the value
    assert p == WishartParams(d=2, beta=3, sigma=sigma) and {p: 1}[WishartParams(2, 3, np.array(sigma))] == 1
    assert p != WishartParams(d=2, beta=4, sigma=sigma) and p != WishartParams(d=2, beta=3, sigma=np.eye(2))
    kind = MomentKind("trace_power", 2)
    assert kind.order == 2 and kind == MomentKind("trace_power", 2.0) and hash(kind) == hash(MomentKind("trace_power", 2))
    assert kind != MomentKind("trace_power", 2, True) and kind != MomentKind("power_trace", (1, 1))
    assert repr(kind) == "MomentKind(kind='trace_power', arg=2, inverse=False)"
    assert repr(Perm((2, 1, 3))) == "Perm(2, 1, 3)" and repr(Perm((1,))) == "Perm(1,)"
    assert Perm((2, 1)) != MomentSpec((2, 1)) and Perm((1, 2)) != Perm((1, 2, 3))


def test_a_descriptor_cannot_move_its_exact_target_to_the_inverse_side():
    # the exact half was a plain object: setting its inverse flag turned the
    # target of E[W_11] into E[W^-1_11] while the descriptor still read forward
    params = WishartParams(d=2, beta=3, sigma=np.eye(2))
    desc = EntryProduct((1, 1))
    with pytest.raises(AttributeError, match="a MomentKind is immutable"):
        desc._exact.inverse = True
    assert desc.inverse is False and desc.target(params) == 3.0
