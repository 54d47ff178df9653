"""Perfect matchings of {1,...,2n}, coset types and the hyperoctahedral group.

A matching is its canonical word (m(1),...,m(2n)) with m(2k-1) < m(2k) and
m(1) < m(3) < ... < m(2n-1); this word is the one matching format.
``label_matchings`` yields the words, and read as one-line notation a word is
the matching's coset representative in S_{2n}.  The image pairs
{g(2k-1), g(2k)} of g in S_{2n} and the base pairs {2k-1, 2k} together form a
graph in which every slot has one edge of each kind, so it splits into loops.
``pair_loops`` walks those loops and yields each one's entry slots, which
the trace words of ``wishart.paired_contraction`` follow.  The coset type of
g is the partition of n formed by the number of base pairs in each loop, so
len(coset_type(g)) is the number of loops; ``_pairing_type`` reads
the type, and the loop type of any two pairings, off their partner arrays.
Relabelled by g, the type of g^-1 m is the loop type of m's pairs against
g's image pairs, so ``_word_table`` keeps each degree's matching words with
their partner arrays, and the routes that list words build no relabelled
word per matching.  It keeps their loops as ids into one list of the
degree's distinct loops, each a prefix loop plus one entry slot, so that a
trace word common to several matchings, or the prefix of a longer one, is
formed once.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, lru_cache
from itertools import permutations, product
from math import factorial
from typing import Iterator, Sequence

from .symcomb import Partition, Perm, centralizer_order, check_partition, partitions_of

# the most pairs (matching sums, alpha-hafnians) or points (permutation sums)
# an exact sum may take; its subset DPs hold 2^n tables and take O(3^n) splits.
# ``weingarten.check_degree`` holds every route that lists nothing to it too.
MAX_SUM_DEGREE = 10
# the most pairs of a route that lists words: the (2n-1)!! matchings, 945 at
# n = 5 and 654,729,075 at n = 10, or the 2^n n! elements of H_n
MAX_LISTED_DEGREE = 5


class SizeLimitError(ValueError):
    """Requested enumeration exceeds the library's hard size guard."""


def check_sum_degree(n: int) -> None:
    """SizeLimitError unless an exact sum of n pairs or points is within
    MAX_SUM_DEGREE; checked before any table of size 2^n is built."""
    if n > MAX_SUM_DEGREE:
        raise SizeLimitError(f"exact sums support degree <= {MAX_SUM_DEGREE} (pairs or points), got {n}")


def matching_count(n: int) -> int:
    """(2n-1)!! pairings of a 2n-set."""
    out = 1
    for k in range(2 * n - 1, 0, -2):
        out *= k
    return out


def check_listed_degree(n: int) -> None:
    """SizeLimitError unless 1 <= n <= MAX_LISTED_DEGREE, for the routes that
    list the words of n pairs (``label_matchings``, ``hyperoctahedral``);
    checked before any word is listed."""
    if not 1 <= n <= MAX_LISTED_DEGREE:
        raise SizeLimitError(f"routes that list words support 1 <= n <= {MAX_LISTED_DEGREE}, got {n}")


def label_matchings(labels: Sequence) -> Iterator[tuple[int, ...]]:
    """Yield, in lexicographic order, the canonical sequences of the matchings
    of {1,...,len(labels)} that pair only slots with equal labels; none when a
    label occurs an odd number of times."""
    if any(c % 2 for c in Counter(labels).values()):
        return

    def rec(free: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        # every label left has even count, so slot a always finds a partner
        if not free:
            yield ()
            return
        a = free[0]
        for i in range(1, len(free)):
            b = free[i]
            if labels[a - 1] == labels[b - 1]:
                for rest in rec(free[1:i] + free[i + 1 :]):
                    yield (a, b) + rest

    yield from rec(tuple(range(1, len(labels) + 1)))


def pair_loops(pairing: Sequence[int]) -> Iterator[list[int]]:
    """Walk the loops of the graph on the slots 1..2n whose edges are the base
    pairs {2k-1, 2k} and the pairs {pairing[2k-2], pairing[2k-1]}; ``pairing``
    is a one-line word such as ``Perm.images`` or a ``label_matchings`` word.

    Yields each loop's entry slots, in increasing order of k0, the lowest base
    pair on the loop.  The walk enters pair k0 at slot 2k0-1, leaves it at 2k0,
    and then follows one pairing edge and one base pair at a time; the slots
    are those through which it enters each base pair, in walk order, so the
    first is 2k0-1 and their number is the number of base pairs on the loop.
    """
    partner = _partners(pairing)
    seen = [False] * (len(pairing) // 2 + 1)
    for k0 in range(1, len(seen)):
        if seen[k0]:
            continue
        start = 2 * k0 - 1
        slots = [start]
        s = partner[start + 1]
        while s != start:
            slots.append(s)
            seen[(s + 1) // 2] = True
            s = partner[s + 1 if s % 2 else s - 1]  # leave through the pair's other slot
        yield slots


def _partners(pairing: Sequence[int]) -> list[int]:
    """The partner array of the pairs {pairing[2k-2], pairing[2k-1]}: entry s
    is the slot paired with slot s (entry 0 unused)."""
    partner = [0] * (len(pairing) + 1)
    for a, b in zip(pairing[::2], pairing[1::2]):
        partner[a] = b
        partner[b] = a
    return partner


def _pairing_type(a: Sequence[int], b: Sequence[int]) -> Partition:
    """The loop type of two pairings of the slots 1..2n given as partner
    arrays: the pairs of a per loop of the graph whose edges are the pairs of
    a and of b, sorted descending.  Each step of the walk takes one pair of a
    and then one of b."""
    seen = [False] * len(a)
    sizes = []
    for start in range(1, len(a)):
        if seen[start]:
            continue
        size = 0
        s = start
        while True:
            t = a[s]
            seen[s] = seen[t] = True
            size += 1
            s = b[t]
            if s == start:
                break
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def _loop_type(pairing: Sequence[int]) -> Partition:
    """The coset type of a one-line word: its pairs against the base pairs."""
    return _pairing_type(_partners(pairing), _partners(range(1, len(pairing) + 1)))


# a row of ``_word_table``: (word, partner array, coset type, loop ids)
_WordRow = tuple[tuple[int, ...], tuple[int, ...], Partition, tuple[int, ...]]


@lru_cache(maxsize=MAX_LISTED_DEGREE)
def _word_table(n: int) -> tuple[tuple[_WordRow, ...], tuple[tuple[int, int], ...]]:
    """(words, loops) for n pairs.  ``words`` holds every
    ``label_matchings((0,) * 2n)`` word, in that order, as (word, partner
    array, coset type, loop ids), the ids those of the loops of
    ``pair_loops(word)``, in its order, in ``loops``.

    ``loops`` lists the degree's distinct loops, each as (parent, s): the loop
    with entry slots s_1..s_L is its prefix s_1..s_(L-1), the entry at index
    parent (-1 when L = 1), followed by s = s_L.  A prefix of a loop is itself
    the loop of some word, so the list holds every prefix, parents first:
    sum over k of C(n, k) (k-1)! 2^(k-1) entries, 729 at n = 5.

    These depend on n alone, so they are built once per degree and process;
    the check comes first, so the cache holds at most MAX_LISTED_DEGREE
    degrees (945 words at n = 5)."""
    check_listed_degree(n)
    base = _partners(range(1, 2 * n + 1))
    ids: dict[tuple[int, ...], int] = {}
    loops = []
    words = []
    for word in label_matchings((0,) * (2 * n)):
        partner = _partners(word)
        word_loops = []
        for slots in pair_loops(word):
            parent = -1
            for size in range(1, len(slots) + 1):
                prefix = tuple(slots[:size])
                if prefix not in ids:
                    ids[prefix] = len(loops)
                    loops.append((parent, slots[size - 1]))
                parent = ids[prefix]
            word_loops.append(parent)
        words.append((word, tuple(partner), _pairing_type(partner, base), tuple(word_loops)))
    return tuple(words), tuple(loops)


@cache
def matchings_with_type(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], Partition], ...]:
    """All matchings of {1,...,2n} as (pairs, coset type), cached for n <= 6."""
    if not 1 <= n <= 6:
        raise SizeLimitError("cached matching/coset-type table supports 1 <= n <= 6")
    return tuple(_pairs_with_type(n))


def iter_matchings_with_type(n: int) -> Iterator[tuple[tuple[tuple[int, int], ...], Partition]]:
    """Stream (pairs, coset type) over all matchings; cached table when small."""
    if n <= 6:
        yield from matchings_with_type(n)
    else:
        yield from _pairs_with_type(n)


def _pairs_with_type(n: int) -> Iterator[tuple[tuple[tuple[int, int], ...], Partition]]:
    for seq in label_matchings((0,) * (2 * n)):
        yield tuple(zip(seq[::2], seq[1::2])), _loop_type(seq)


def matching_type_sums(labels: Sequence[int], x, factor=None):
    """For each coset type rho, the sum over the matchings of {1,...,2n} of
    type rho of prod x[labels[p-1]][labels[q-1]] over their pairs {p, q}.
    Given ``factor`` c, the one sum over all matchings of c^kappa times that
    product instead, kappa the number of loops (``len(rho)``).

    ``x`` must be symmetric on the labels used; the sums stay in its ring
    (float, int or Fraction).  Every matching splits into loops, each closing
    a block B of base pairs {2j-1, 2j}, and its weight is the product of the
    loop weights.  So two subset DPs replace the (2n-1)!! enumeration:

    * ``loop[B]`` sums the loops closing exactly B, in O(2^n n^2).  A loop is
      walked once: it starts at pair min(B), leaves through its second slot
      and takes on one new pair per step; the state is (pairs taken, label of
      the exit slot), so repeated labels merge.
    * ``_partition_sums`` splits the n pairs into loops: per coset type in
      O(3^n p(n)), or weighting each loop by c in O(3^n).

    The steps of both DPs depend on n alone, so ``_dp_structure`` builds them
    once per degree and process; a call adds only the label- and x-dependent
    work, always in the order of those steps, so its bits do not depend on
    what ran before it.
    """
    n, odd = divmod(len(labels), 2)
    if odd:
        raise ValueError("need an even number of labels")
    check_sum_degree(n)
    if n == 0:
        return _partition_sums(0, [], factor)
    walk = _dp_structure(n)[0]
    loop = [0] * len(walk)
    # walks[mask]: {exit label: summed weight} of open walks from pair min(mask),
    # made when a step first reaches mask
    walks: list = [None] * len(walk)
    for a in range(n):
        walks[1 << a] = {labels[2 * a + 1]: 1}
    for mask in range(1, len(walk)):
        a, free = walk[mask]
        back = labels[2 * a]
        steps = []
        for b, target in free:
            nxt = walks[target]
            if nxt is None:
                nxt = walks[target] = {}
            steps.append((nxt, labels[2 * b], labels[2 * b + 1]))
        closed = 0
        for e, v in walks[mask].items():
            row = x[e]
            closed = closed + v * row[back]
            for nxt, first, second in steps:
                # enter the new pair through one slot and leave through the other
                nxt[second] = nxt.get(second, 0) + v * row[first]
                nxt[first] = nxt.get(first, 0) + v * row[second]
        loop[mask] = closed
    return _partition_sums(n, loop, factor)


def cycle_type_sums(n: int, edge, read, factor=None):
    """For each cycle type rho, the sum over the permutations pi of
    {0,...,n-1} of type rho of prod read(E_c) over their cycles c, where E_c
    is the product of edge(i, pi(i)) along c from its largest point.  Given
    ``factor`` c, the one sum over all pi of c^nu(pi) times that product
    instead, nu the number of cycles (``len(rho)``).

    ``edge`` gives square matrices with + and @ (numpy arrays, or the small
    blocks of exact entries of ``hafnian``) and ``read`` is linear, like the
    trace.  ``cycle[B]`` reads the sum of E_c over the cycles on exactly B,
    from Held-Karp walks that start at max(B) and take on one smaller point
    per step, in O(2^n n^2) products; then ``_partition_sums`` splits the n
    points into cycles, in O(3^n p(n)) per cycle type or O(3^n) with
    ``factor``.
    """
    check_sum_degree(n)
    steps = [[edge(i, j) for j in range(n)] for i in range(n)]
    cycle = [0] * (1 << n)
    for top in range(n):
        # walks[low]: {last point: summed product} of the walks from top
        # through exactly the points of low, all smaller than top
        walks: list[dict] = [{} for _ in range(1 << top)]
        for j in range(top):
            walks[1 << j][j] = steps[top][j]
        cycle[1 << top] = read(steps[top][top])
        for low in range(1, 1 << top):
            free = [(k, walks[low | 1 << k]) for k in range(top) if not low >> k & 1]
            closed = 0
            for j, w in walks[low].items():
                row = steps[j]
                closed = closed + w @ row[top]
                for k, nxt in free:
                    nxt[k] = nxt.get(k, 0) + w @ row[k]
            cycle[low | 1 << top] = read(closed)
    return _partition_sums(n, cycle, factor)


def _partition_sums(n: int, block, factor=None):
    """The sums over the splits of {0,...,n-1} into blocks B (bitmasks) of
    prod block[B], from the recursion on the block holding the lowest point
    of each set S: f(S) = sum over B containing min(S) of block[B] f(S - B).

    Keyed mode (``factor`` None): one sum per partition rho of n, over the
    splits into blocks of sizes rho, in O(3^n p(n)).  Scalar mode: the one
    sum of prod factor * block[B] over all the splits, that is
    sum_rho factor^len(rho) times the keyed sum at rho, with one value per set
    and no partition keys, in O(3^n).  Size 0 is the empty product: {(): 1},
    or 1.  The splits of each S and the partition key that a block adds come
    from ``_dp_structure(n)``, built once per degree.
    """
    keyed = factor is None
    empty = {(): 1} if keyed else 1
    if n == 0:
        return empty
    _, splits, grown = _dp_structure(n)
    parts: list = [None] * len(block)
    parts[0] = empty
    for S, row in splits:
        if keyed:
            acc = {}
            for B, rest, size in row:
                w = block[B]
                into = grown[size]
                for t, v in parts[rest].items():
                    key = into[t]
                    acc[key] = acc.get(key, 0) + w * v
        else:
            acc = 0
            for B, rest, _ in row:
                acc = acc + block[B] * parts[rest]
            acc = factor * acc
        parts[S] = acc
    return parts[-1]


@cache
def _dp_structure(n: int) -> tuple[tuple, tuple, tuple]:
    """What the two subset DPs on n >= 1 pairs or points do that depends on
    n alone, in the order they do it; callers check n against MAX_SUM_DEGREE
    first, so this cache holds at most that many entries (2.6 MB for every
    n <= 10; n = 10 takes about 4 ms to build on a 2-vCPU VM).

    * walk[mask], for 0 < mask < 2^n: (a, ((b, mask | 1 << b), ...)), with
      a = min(mask) and one entry per pair b > a outside mask, ascending.
    * splits: (S, ((B, S - B, |B|), ...)) for S = the full set and every set
      left after removing a block holding point 0, ascending, where B runs
      over the blocks of S holding min(S) from the largest down.
    * grown[size]: {t: the partition t with a part size added}, for every
      partition t of at most n - size.
    """
    full = (1 << n) - 1
    walk: list = [None]
    for mask in range(1, full + 1):
        a = (mask & -mask).bit_length() - 1
        walk.append((a, tuple((b, mask | 1 << b) for b in range(a + 1, n) if not mask >> b & 1)))
    splits = []
    for S in [*range(2, full, 2), full]:
        low = S & -S
        rest = S ^ low
        row = []
        sub = rest
        while True:
            B = sub | low
            row.append((B, rest ^ sub, B.bit_count()))
            if not sub:
                break
            sub = (sub - 1) & rest
        splits.append((S, tuple(row)))
    grown = [None] + [
        {t: tuple(sorted(t + (size,), reverse=True)) for m in range(n - size + 1) for t in partitions_of(m)}
        for size in range(1, n + 1)
    ]
    return tuple(walk), tuple(splits), tuple(grown)


def coset_type(g: Perm) -> Partition:
    """Base pairs per loop (sorted descending) of the pairing graph of g."""
    if g.size % 2:
        raise ValueError("coset type needs an even-sized ground set")
    return _loop_type(g.images)


@cache
def hyperoctahedral(n: int) -> tuple[Perm, ...]:
    """All 2^n n! elements of H_n inside S_{2n}, in sorted one-line order: a
    permutation pi of the base pairs, sending pair k to pair pi(k), with the
    two slots crossed wherever the flip bit f_k is set."""
    check_listed_degree(n)
    elements = (
        Perm(v for k, f in zip(pi, flips) for v in (2 * k + 1 + f, 2 * k + 2 - f))
        for pi in permutations(range(n))
        for flips in product((0, 1), repeat=n)
    )
    return tuple(sorted(elements, key=lambda p: p.images))


def matching_type_count(rho: Partition) -> int:
    """M_rho = 2^n n! / (2^len(rho) z_rho), z_rho = ``centralizer_order(rho)``:
    the number of matchings of {1,...,2n} of coset type rho."""
    n = sum(rho)
    return 2**n * factorial(n) // (2 ** len(rho) * centralizer_order(rho))


def double_coset_size(rho: Partition) -> int:
    """Number of elements of S_{2n} with coset type rho: |H_n| = 2^n n! times
    the M_rho matchings of that type."""
    rho = check_partition(rho)
    n = sum(rho)
    return 2**n * factorial(n) * matching_type_count(rho)


def paired_perm(pi: Perm) -> Perm:
    """Lift pi in S_n to S_{2n}: odd slots follow pi (2j-1 -> 2*pi(j)-1),
    even slots stay fixed.  The lift of a cycle-type-rho permutation has
    coset type rho."""
    n = pi.size
    imgs = [0] * (2 * n)
    for j in range(1, n + 1):
        imgs[2 * j - 2] = 2 * pi.images[j - 1] - 1
        imgs[2 * j - 1] = 2 * j
    return Perm(imgs)


def coset_representative(rho: Partition) -> Perm:
    """A deterministic element of S_{2n} with the given coset type: the paired
    lift of the permutation whose cycles are consecutive blocks of sizes rho."""
    rho = check_partition(rho)
    cycles = []
    start = 1
    for r in rho:
        cycles.append(tuple(range(start, start + r)))
        start += r
    return paired_perm(Perm.from_cycles(sum(rho), cycles))
