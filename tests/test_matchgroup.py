import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wishmom import matchgroup
from wishmom.matchgroup import (
    MAX_LISTED_DEGREE,
    MAX_SUM_DEGREE,
    SizeLimitError,
    coset_representative,
    coset_type,
    cycle_type_sums,
    double_coset_size,
    hyperoctahedral,
    iter_matchings_with_type,
    label_matchings,
    matching_count,
    matching_type_count,
    matching_type_sums,
    matchings_with_type,
    pair_loops,
    paired_perm,
)
from wishmom.symcomb import Perm, centralizer_order, multiplicities, partitions_of

from oracles import (
    coset_type_union_find,
    cycle_type_sums_enumerative,
    keyed_sum,
    matching_count_recursive,
    matching_type_sums_enumerative,
    permutation_cycle_type,
)


def all_perms(m):
    return [Perm(p) for p in permutations(range(1, m + 1))]


def all_words(n):
    return list(label_matchings((0,) * (2 * n)))


def pairs_of(word):
    return tuple(zip(word[::2], word[1::2]))


def test_matchings_n2_explicit():
    got = [pairs_of(w) for w in all_words(2)]
    assert got == [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]


def test_matchings_n1():
    assert [pairs_of(w) for w in all_words(1)] == [((1, 2),)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matching_counts(n):
    ms = all_words(n)
    assert len(ms) == matching_count(n) == matching_count_recursive(n)
    assert len(set(ms)) == len(ms)


def test_matchings_canonical_lex_order():
    for n in (2, 3, 4):
        seqs = all_words(n)
        assert seqs == sorted(seqs)


@given(st.lists(st.integers(0, 3), max_size=10))
@settings(max_examples=60, deadline=None)
def test_label_matchings_pair_equal_labels_only(labels):
    mult = Counter(labels)
    words = list(label_matchings(labels))
    if any(m % 2 for m in mult.values()):
        assert words == []
        return
    want = 1
    for m in mult.values():
        want *= matching_count_recursive(m // 2)
    assert len(words) == want
    assert words == sorted(set(words))
    for w in words:
        # canonical: a word over 1..2n, each pair increasing, openers increasing
        assert sorted(w) == list(range(1, len(w) + 1))
        assert all(p < q for p, q in zip(w[::2], w[1::2])) and list(w[::2]) == sorted(w[::2])
        assert all(labels[p - 1] == labels[q - 1] for p, q in zip(w[::2], w[1::2]))


def test_size_guards():
    with pytest.raises(SizeLimitError):
        hyperoctahedral(6)


def test_coset_type_worked_examples():
    assert coset_type(Perm((7, 1, 6, 3, 2, 8, 4, 5))) == (2, 2)
    m = Perm((1, 3, 2, 7, 4, 8, 5, 6))  # the matching {1,3}, {2,7}, {4,8}, {5,6}
    assert coset_type(m) == (3, 1)


def test_coset_type_identity():
    for n in (1, 2, 3):
        assert coset_type(Perm.identity(2 * n)) == (1,) * n


def test_coset_type_odd_ground_set():
    with pytest.raises(ValueError):
        coset_type(Perm((2, 3, 1)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_coset_type_equals_union_find_on_all_of_s2n(n):
    for images in permutations(range(1, 2 * n + 1)):
        g = Perm(images)
        assert coset_type(g) == coset_type_union_find(g)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, 2 * n + 1))))
def test_coset_type_equals_union_find(images):
    g = Perm(images)
    assert coset_type(g) == coset_type_union_find(g)


def check_loops(images):
    n = len(images) // 2
    loops = list(pair_loops(images))
    pairs = [(s + 1) // 2 for slots in loops for s in slots]
    assert sorted(pairs) == list(range(1, n + 1))  # every base pair once
    assert sum(len(slots) for slots in loops) == n
    starts = [(slots[0] + 1) // 2 for slots in loops]
    assert starts == sorted(starts)
    for slots in loops:
        # each loop is entered at the odd slot of its lowest base pair
        assert slots[0] % 2 == 1 and min((s + 1) // 2 for s in slots) == (slots[0] + 1) // 2
    assert sorted((len(slots) for slots in loops), reverse=True) == list(coset_type(Perm(images)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pair_loops_cover_every_base_pair_once_on_all_of_s2n(n):
    for images in permutations(range(1, 2 * n + 1)):
        check_loops(images)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.permutations(range(1, 2 * n + 1))))
def test_pair_loops_cover_every_base_pair_once(images):
    check_loops(images)


def test_pair_loops_worked_example():
    # pairing {1,3}, {2,7}, {4,8}, {5,6}: the walk 1 -> 2 -> 7 -> 8 -> 4 -> 3 -> 1
    # enters pairs 1, 4 and 2 at slots 1, 7 and 4; pair 3 closes on itself,
    # entered at its odd slot 5
    assert list(pair_loops((1, 3, 2, 7, 4, 8, 5, 6))) == [[1, 7, 4], [5]]
    assert list(pair_loops(())) == []


def check_type_walk(g, table):
    # relabelled by g, the type of g^-1 m is the loop type of m's pairs
    # against g's image pairs {g(2k-1), g(2k)}
    g_pairs = matchgroup._partners(g.images)
    g_inv = g.inverse()
    for word, partner, _, _ in table[0]:
        assert matchgroup._pairing_type(partner, g_pairs) == coset_type_union_find(g_inv * Perm(word))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_type_walk_of_two_pairings_is_the_type_of_g_inverse_m_on_all_of_s2n(n):
    table = matchgroup._word_table(n)
    for g in all_perms(2 * n):
        check_type_walk(g, table)


@pytest.mark.parametrize("n", [4, 5])
def test_type_walk_of_two_pairings_at_random_g(n):
    rnd = random.Random(n)
    for _ in range(3 if n == 5 else 20):
        images = list(range(1, 2 * n + 1))
        rnd.shuffle(images)
        check_type_walk(Perm(images), matchgroup._word_table(n))


def loop_slots(loops, i):
    """The entry slots of loop i of a word table's loop list, read back along
    its parent chain."""
    slots = []
    while i >= 0:
        i, s = loops[i]
        slots.append(s)
    return tuple(reversed(slots))


def test_word_table_holds_each_listed_degree_in_label_matchings_order():
    table = matchgroup._word_table
    assert table.cache_info().maxsize == MAX_LISTED_DEGREE
    for n in range(1, MAX_LISTED_DEGREE + 1):
        rows, loops = entry = table(n)
        assert [word for word, *_ in rows] == all_words(n)
        for word, partner, rho, ids in rows:
            assert [partner[s] for s in word] == [word[i ^ 1] for i in range(2 * n)]
            assert tuple(loop_slots(loops, i) for i in ids) == tuple(map(tuple, pair_loops(word)))
            assert rho == coset_type_union_find(Perm(word))
        assert table(n) is entry
    for n in (0, MAX_LISTED_DEGREE + 1):
        with pytest.raises(SizeLimitError, match="routes that list words"):
            table(n)
    assert table.cache_info().currsize <= MAX_LISTED_DEGREE


def test_loop_list_counts_each_distinct_loop_once():
    # a loop on k of the n pairs starts at the lowest, visits the other k - 1
    # in any order and enters each at either slot
    assert [len(matchgroup._word_table(n)[1]) for n in range(1, 6)] == [1, 4, 17, 96, 729]
    for n in range(1, 6):
        want = sum(comb(n, k) * factorial(k - 1) * 2 ** (k - 1) for k in range(1, n + 1))
        loops = matchgroup._word_table(n)[1]
        assert len(loops) == want
        assert len({loop_slots(loops, i) for i in range(len(loops))}) == want


@pytest.mark.parametrize("n", range(1, MAX_LISTED_DEGREE + 1))
def test_loop_list_has_parents_first_and_every_loop_is_a_word_loop(n):
    words, loops = matchgroup._word_table(n)
    for i, (parent, s) in enumerate(loops):
        assert -1 <= parent < i
        assert 1 <= s <= 2 * n
        # a loop starts at the row slot 2 k0 - 1 of its lowest pair
        if parent < 0:
            assert s % 2 == 1
    # every entry is the whole loop of some word, not only a prefix
    assert {i for *_, ids in words for i in ids} == set(range(len(loops)))


def test_word_table_cache_holds_at_most_the_listed_degrees():
    table = matchgroup._word_table
    table.cache_clear()
    for n in [*range(MAX_LISTED_DEGREE, 0, -1), *range(1, MAX_LISTED_DEGREE + 1)]:
        table(n)
    info = table.cache_info()
    assert (info.currsize, info.misses, info.hits) == (MAX_LISTED_DEGREE, MAX_LISTED_DEGREE, MAX_LISTED_DEGREE)


def test_kappa_equals_type_length_for_matchings():
    for n in (1, 2, 3, 4):
        for w in all_words(n):
            t = coset_type(Perm(w))
            # kappa, the number of loops, is the length of the coset type
            assert len(list(pair_loops(w))) == len(t)
    for pairs, t in matchings_with_type(4):
        assert coset_type(Perm(x for pair in pairs for x in pair)) == t


def test_hyperoctahedral_small():
    h1 = hyperoctahedral(1)
    assert [g.images for g in h1] == [(1, 2), (2, 1)]
    assert len(hyperoctahedral(2)) == 8
    assert len(hyperoctahedral(3)) == 48


def test_hyperoctahedral_matches_coset_type_filter():
    # independent characterization: H_n is exactly the identity coset type class
    brute = {g for g in all_perms(4) if coset_type(g) == (1, 1)}
    assert set(hyperoctahedral(2)) == brute
    assert all(coset_type(g) == (1, 1, 1) for g in hyperoctahedral(3))


def test_double_coset_sizes_n2():
    assert double_coset_size((2,)) == 16
    assert double_coset_size((1, 1)) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_double_coset_sizes_sum(n):
    assert sum(double_coset_size(rho) for rho in partitions_of(n)) == factorial(2 * n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_double_coset_sizes_by_classification(n):
    counts = {rho: 0 for rho in partitions_of(n)}
    for g in all_perms(2 * n):
        counts[coset_type(g)] += 1
    for rho in partitions_of(n):
        assert counts[rho] == double_coset_size(rho)


def test_left_coset_decomposition():
    # the matchings are coset representatives: m * H_n tiles S_{2n}
    for n in (1, 2, 3):
        h = hyperoctahedral(n)
        seen = set()
        for w in all_words(n):
            mp = Perm(w)
            coset = {mp * z for z in h}
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == factorial(2 * n)


def test_coset_type_is_biinvariant():
    for n in (1, 2, 3):
        h = hyperoctahedral(n)
        for g in (Perm.identity(2 * n), Perm(all_words(n)[-1])):
            t = coset_type(g)
            assert all(coset_type(z * g) == t and coset_type(g * z) == t for z in h)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coset_representative_roundtrip(n):
    for rho in partitions_of(n):
        assert coset_type(coset_representative(rho)) == rho
    assert coset_representative((1,) * n) == Perm.identity(2 * n)


def test_coset_representative_checks_its_partition_after_the_equal_key_was_read():
    assert coset_representative((1, 1)) == Perm.identity(4)
    with pytest.raises(ValueError, match="partition part"):
        coset_representative((True, 1))
    assert coset_representative([2, 1]) == coset_representative((2, 1))


def test_paired_perm_carries_cycle_type_to_coset_type():
    for images in permutations(range(1, 5)):
        pi = Perm(images)
        assert coset_type(paired_perm(pi)) == permutation_cycle_type(pi)


def test_streaming_matches_cached():
    assert list(iter_matchings_with_type(3)) == list(matchings_with_type(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 10**9))
def test_matching_type_sums_equal_enumeration(n, d, seed):
    # exact per-type agreement in Fractions, with repeated labels
    rnd = random.Random(seed)
    x = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            x[i][j] = x[j][i] = Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))
    labels = [rnd.randrange(d) for _ in range(2 * n)]
    assert matching_type_sums(labels, x) == matching_type_sums_enumerative(labels, x)


@pytest.mark.parametrize("n", [1, 4, 7, 10])
def test_matching_type_sums_count_each_double_coset(n):
    # with unit weights the type-rho sum counts |H rho H| / |H| matchings
    sums = matching_type_sums([0] * (2 * n), [[1]])
    assert sums == {rho: double_coset_size(rho) // (2**n * factorial(n)) for rho in partitions_of(n)}


@pytest.mark.parametrize("n", range(1, 8))
def test_matching_type_count_sums_to_all_matchings_and_counts_each_type(n):
    counts = {rho: matching_type_count(rho) for rho in partitions_of(n)}
    assert sum(counts.values()) == matching_count_recursive(n)
    # distinct labels and an all-ones x give every matching weight 1
    assert matching_type_sums(range(2 * n), [[1] * (2 * n)] * (2 * n)) == counts
    assert all(double_coset_size(rho) == 2**n * factorial(n) * m for rho, m in counts.items())


def test_matching_type_sums_degree0_and_odd():
    assert matching_type_sums([], [[1]]) == {(): 1}
    for c in (3, Fraction(3), 3.0):
        got = matching_type_sums([], [[1]], c)
        assert type(got) is int and got == 1
    with pytest.raises(ValueError):
        matching_type_sums([0, 0, 0], [[1]])


def _rand_entry(rnd, integral):
    return rnd.randint(-6, 6) if integral else Fraction(rnd.randint(-6, 6), rnd.randint(1, 4))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(1, 4), st.booleans(), st.integers(0, 10**9))
def test_matching_scalar_stage_equals_keyed_sum(n, d, integral, seed):
    # a factor c per loop, as the forward moment (c = 2 beta) and the
    # alpha-hafnian (c = alpha) weigh their matchings; exact, and an int stays an int
    rnd = random.Random(seed)
    x = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            x[i][j] = x[j][i] = _rand_entry(rnd, integral)
    labels = [rnd.randrange(d) for _ in range(2 * n)]
    c = _rand_entry(rnd, integral)
    got, want = matching_type_sums(labels, x, c), keyed_sum(matching_type_sums(labels, x), c)
    assert got == want and type(got) is type(want)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 7), st.sampled_from([1, 2]), st.booleans(), st.integers(0, 10**9))
def test_cycle_scalar_stage_equals_keyed_sum(n, k, integral, seed):
    # a factor c per cycle, as trace products (c = beta), alpha-permanents and
    # the hafnian permutation sums weigh their permutations; n <= 7, since one
    # example on 2 x 2 Fraction edges takes about 2.5 s at n = 10
    rnd = random.Random(seed)
    E = [
        [np.array([[_rand_entry(rnd, integral) for _ in range(k)] for _ in range(k)], dtype=object) for _ in range(n)]
        for _ in range(n)
    ]
    c = _rand_entry(rnd, integral)
    for read in (np.trace, lambda X: X[k - 1, 0]):
        got = cycle_type_sums(n, lambda i, j: E[i][j], read, c)
        want = keyed_sum(cycle_type_sums(n, lambda i, j: E[i][j], read), c)
        # size 0 is the int empty product whatever c is
        assert got == want and type(got) is (int if n == 0 else type(want))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.sampled_from([1, 2]), st.integers(0, 10**9))
def test_cycle_type_sums_equal_enumeration(n, k, seed):
    # exact per-type agreement in Fractions on k x k object-array edges, read
    # by the trace and by one entry
    rnd = random.Random(seed)
    E = [
        [np.array([[Fraction(rnd.randint(-6, 6), rnd.randint(1, 4)) for _ in range(k)] for _ in range(k)], dtype=object)
         for _ in range(n)]
        for _ in range(n)
    ]
    for read in (np.trace, lambda X: X[k - 1, 0]):
        want = cycle_type_sums_enumerative(n, lambda i, j: E[i][j], read)
        assert cycle_type_sums(n, lambda i, j: E[i][j], read) == want


@pytest.mark.parametrize("n", range(MAX_SUM_DEGREE + 1))
def test_cycle_type_sums_count_each_conjugacy_class(n):
    one = np.ones((1, 1), dtype=object)
    sums = cycle_type_sums(n, lambda i, j: one, lambda X: X[0, 0])
    assert sums == {rho: factorial(n) // centralizer_order(rho) for rho in partitions_of(n)}


@pytest.mark.parametrize("n", range(MAX_SUM_DEGREE + 1))
def test_split_stage_lists_every_set_partition_once(n):
    # unit blocks count the splits: the Bell number B_n in all, and
    # n! / (prod rho_i! prod_k m_k(rho)!) set partitions of each type rho
    bell = [1]
    for m in range(n):
        bell.append(sum(comb(m, k) * bell[k] for k in range(m + 1)))
    unit = [1] * (1 << n)
    total = matchgroup._partition_sums(n, unit, 1)
    assert type(total) is int and total == bell[n]
    per_type = {
        rho: factorial(n) // (prod(map(factorial, rho)) * prod(map(factorial, multiplicities(rho).values())))
        for rho in partitions_of(n)
    }
    assert matchgroup._partition_sums(n, unit) == per_type


def _float_sums(n):
    rnd = random.Random(n)
    x = [[0.0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            x[i][j] = x[j][i] = rnd.uniform(-1, 1)
    labels = [rnd.randrange(3) for _ in range(2 * n)]
    edges = [[np.array([[rnd.uniform(-1, 1)]]) for _ in range(n)] for _ in range(n)]
    return repr((
        matching_type_sums(labels, x),
        matching_type_sums(labels, x, 0.7),
        cycle_type_sums(n, lambda i, j: edges[i][j], np.trace),
        cycle_type_sums(n, lambda i, j: edges[i][j], np.trace, 0.7),
    ))


def test_dp_structure_cache_holds_structure_only():
    # the results of a degree do not depend on which degrees ran before it:
    # the same bits and dict order whether its structure was cold or warm
    structure = matchgroup._dp_structure
    order = [7, 3, MAX_SUM_DEGREE, 3]
    structure.cache_clear()
    forward = [_float_sums(n) for n in order]
    structure.cache_clear()
    backward = [_float_sums(n) for n in reversed(order)]
    assert forward == backward[::-1]
    for n in range(MAX_SUM_DEGREE + 1):
        matching_type_sums([0] * (2 * n), [[1]])
        cycle_type_sums(n, lambda i, j: np.ones((1, 1)), np.trace)
    held = structure.cache_info().currsize
    assert held <= MAX_SUM_DEGREE
    over = MAX_SUM_DEGREE + 1
    with pytest.raises(SizeLimitError):
        matching_type_sums([0] * (2 * over), [[1]])
    with pytest.raises(SizeLimitError):
        cycle_type_sums(over, lambda i, j: np.ones((1, 1)), np.trace)
    assert structure.cache_info().currsize == held
