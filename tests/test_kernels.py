"""Oracle tests for the bitmask kernels of the poset build and the search:
membership DP, multiples and covers, the convexity and shifted box shapes
that make interval masks need no table and no hole test, candidate order,
the rank classes read off the ceilings, the upper bound, the fibers that
decide target 1, the minimal elements found by shifts, the popcount
counting prune, the branch bottom it picks, the orbit search and its walk
by orbits, and the bounded failed-state memo.

The search masks are indexed by sub-box cell code; the oracles here work on
element indices, and `_to_cells` translates their masks."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruteforce import (
    box_interval,
    brute_force_sdepth,
    divides_raw,
    member_of_ideal,
)
from sdepthlab import (
    CharPoset,
    build_poset,
    contains,
    maximal_power,
    minimalize,
    sdepth_ideal,
    sdepth_quotient,
    sdepth_zero_quotient,
    unit_ideal,
    verify_partition,
    zero_ideal,
)
from sdepthlab import partitions


@pytest.fixture(scope="module")
def kernel_posets(small_corpus):
    """Posets of the exhaustive corpus: every S/I (down-closed, not
    up-closed), every ideal I, and I/J for J = I * (x1...xn)."""
    posets = []
    for ideal in small_corpus:
        n = ideal.arity
        posets.append(build_poset(unit_ideal(n), ideal))
        if not ideal.is_zero:
            posets.append(build_poset(ideal))
            shifted = minimalize([tuple(e + 1 for e in g)
                                  for g in ideal.generators], n)
            posets.append(build_poset(ideal, shifted))
    return [p for p in posets if len(p) > 0]


def _to_cells(poset, mask):
    """The cell-code mask of an element-index mask."""
    return sum(1 << c for i, c in enumerate(poset.codes) if mask >> i & 1)


def test_membership_dp_matches_contains(small_corpus):
    for ideal in small_corpus:
        n = ideal.arity
        shifted = minimalize([tuple(e + 1 for e in g)
                              for g in ideal.generators], n)
        for num, den, g in ((unit_ideal(n), ideal, None),
                            (ideal, zero_ideal(n), None),
                            (ideal, shifted, None),
                            (ideal, zero_ideal(n), (3,) * n)):
            if num.is_zero:
                continue
            p = build_poset(num, den, g)
            expected = [u for u in itertools.product(*(range(e + 1)
                                                       for e in p.g))
                        if contains(num, u) and not contains(den, u)]
            assert list(p.elements) == expected


@pytest.fixture(scope="module")
def oracle_posets(kernel_posets, small_corpus):
    """kernel_posets plus empty I/I posets, boxes that some denominator
    generator does not divide, and (for n <= 2, where it stays cheap) a
    larger box set with g."""
    extra = []
    for ideal in small_corpus:
        n = ideal.arity
        if ideal.is_zero:
            continue
        extra.append(build_poset(ideal, ideal))
        extra.append(CharPoset(unit_ideal(n), ideal, (1,) * n))
        if n <= 2:
            extra.append(build_poset(unit_ideal(n), ideal, (3,) * n))
            extra.append(build_poset(ideal, None, (3,) * n))
    return kernel_posets + extra


def _doubling_posets():
    """Posets where the level masks' doubling could slip: lo != 0, sides
    of 5 and 7 cells (not powers of two), and a long single axis."""
    return [
        build_poset(minimalize([(3, 1, 2), (1, 3, 2), (2, 2, 3)], 3),
                    minimalize([(3, 3, 3)], 3)),
        build_poset(minimalize([(1, 2)], 2), minimalize([(5, 8)], 2)),
        build_poset(unit_ideal(2), minimalize([(4, 6)], 2)),
        build_poset(unit_ideal(1), minimalize([(40,)], 1)),
    ]


def test_closure_interval_and_candidate_kernels(oracle_posets):
    """The multiples of each element against plain divisibility; shifted
    shapes: for every dividing pair u | v the whole box interval lies in
    the poset (convexity) and is shape(v - u) << u; the covers against the
    one-step multiples; the candidates against the divisibility-and-rank
    filter in (-deg, lex) order, each with the shape of its interval; one
    level mask per digit sum, from 0 to sum(g) - sum(lo) + 1; and the
    digit sum, sum(u) - sum(lo), that the counting prune caches for every
    element it walks."""
    posets = oracle_posets + _doubling_posets()
    assert any(p._lo != (0,) * p.arity for p in posets[-4:])
    convex_pairs = 0
    for p in posets:
        searcher = partitions._get_searcher(p)
        elems = p.elements
        index = {u: i for i, u in enumerate(elems)}
        rho = [p.rho(u) for u in elems]
        divides = [[divides_raw(u, v) for v in elems] for u in elems]
        codes = p.codes
        assert len(searcher.level) == sum(p.g) - sum(p._lo) + 2
        for c in codes:  # walks c unless c has the full rank n
            searcher.branch_bottom(1 << c, p.arity)
        assert {c: k for c, (_, k, *_) in searcher._records.items()} == {
            c: sum(u) - sum(p._lo)
            for c, u, r in zip(codes, elems, rho) if r < p.arity}
        for i, u in enumerate(elems):
            multiples = [j for j in range(len(elems)) if divides[i][j]]
            assert searcher.multiples(codes[i]) == _to_cells(
                p, sum(1 << j for j in multiples))
            assert searcher.covers(codes[i]) == _to_cells(
                p, sum(1 << j for j in multiples
                       if sum(elems[j]) == sum(u) + 1))
            order = sorted(multiples, key=lambda j: (-sum(elems[j]), elems[j]))
            for s in range(p.arity + 1):
                assert searcher._candidates(codes[i], s) == [
                    (codes[j], searcher.shape(codes[j] - codes[i]))
                    for j in order if rho[j] >= s]
            for j in multiples:
                cell = box_interval(u, elems[j])
                assert all(w in index for w in cell)
                assert searcher.shape(codes[j] - codes[i]) << codes[i] == (
                    _to_cells(p, sum(1 << index[w] for w in cell)))
                convex_pairs += 1
    assert convex_pairs > 100_000



class _NoElementTuples:
    """A poset whose element tuples raise; every other attribute is the
    wrapped poset's."""

    def __init__(self, poset):
        self._poset = poset

    def __getattr__(self, name):
        if name == "elements":
            raise AssertionError(f"poset.{name} was read")
        return getattr(self._poset, name)


def test_search_set_up_reads_no_element_tuple():
    """The set-up and the search work on cell codes alone: on m in 8
    variables, a searcher over a poset without element tuples builds and
    finds the same code pairs at target 4 as over the plain poset, and
    the poset then holds what `CharPoset.__init__` set and its mask."""
    poset = build_poset(maximal_power(8, 1))
    bare = partitions._Searcher(_NoElementTuples(poset))
    plain = partitions._Searcher(poset)
    deadline = time.monotonic() + 60
    pairs = bare.decide(4, deadline, partitions.SearchStats(), bare.cycle)
    assert pairs
    assert pairs == plain.decide(4, deadline, partitions.SearchStats(),
                                 plain.cycle)
    built = vars(CharPoset(poset.numerator, poset.denominator, poset.g))
    assert vars(poset).keys() <= built.keys() | {"mask"}


def _power(permutation, c, k):
    """The image of c under the k-th power of `permutation`."""
    for _ in range(k):
        c = permutation(c)
    return c


def _side_one_posets():
    """Posets with axes of side 1 first, last, in between and in two
    places: m^2 in three variables times x_j^2 for each inserted variable
    x_j, so lo_j = g_j = 2, and S/J for J the same m^2 with exponent 0 in
    the inserted variables, so lo_j = g_j = 0."""
    posets = []
    for places in ((0,), (3,), (1,), (0, 4), (1, 3)):
        n = 3 + len(places)
        for fill in (2, 0):
            gens = []
            for u in maximal_power(3, 2).generators:
                v = list(u)
                for j in places:
                    v.insert(j, fill)
                gens.append(v)
            ideal = minimalize(gens, n)
            p = build_poset(ideal) if fill else build_poset(unit_ideal(n),
                                                            ideal)
            assert [j for j in range(n) if p.dims[j] == 1] == list(places)
            posets.append(p)
    return posets


def test_rank_and_fixed_point_masks_match_their_definitions(oracle_posets):
    """The rank classes read off the ceiling masks ("Ranks by ceilings"),
    the rank in the record of every element the counting prune walks, and
    the level masks, against `CharPoset.rho` and the digit sum of each
    element; the cells that sigma^p fixes against
    p steps of the cycle.  The posets include one-cell axes, also first,
    last and in between (`_side_one_posets`), the sparse S/m^2 in 9
    variables, an empty poset and posets the cycle fixes."""
    posets = oracle_posets + _doubling_posets() + _side_one_posets() + [
        build_poset(unit_ideal(9), maximal_power(9, 2)),
        build_poset(maximal_power(3, 2), maximal_power(3, 2)),
        build_poset(maximal_power(4, 2)),
        build_poset(maximal_power(6, 1)),
        build_poset(unit_ideal(6), maximal_power(6, 2)),
    ]
    assert any(1 in p.dims for p in posets if len(p))
    assert any(len(p) == 0 for p in posets)
    fixed_checked = set()
    for p in posets:
        searcher = partitions._Searcher(p)
        n, codes = p.arity, p.codes
        rho = [p.rho(u) for u in p.elements]
        assert searcher.full_mask == sum(1 << c for c in codes)
        for s in range(n + 2):
            assert searcher.rank_below[s] == sum(
                1 << c for c, r in zip(codes, rho) if r < s)
        for k, level in enumerate(searcher.level):
            assert level == sum(1 << c for c, u in zip(codes, p.elements)
                                if sum(u) - sum(p._lo) == k)
        for c in codes:  # walks c, as no element has rank above n
            searcher.branch_bottom(1 << c, n + 1)
        assert [searcher._records[c][2] for c in codes] == rho
        cycle = searcher.cycle
        if cycle is None:
            continue
        for period in range(1, n):
            if n % period == 0:
                assert searcher.fixed(period) == sum(
                    1 << c for c in codes if _power(cycle, c, period) == c)
                fixed_checked.add((n, period))
    assert {(4, 2), (6, 2), (6, 3)} <= fixed_checked

def _upper_bound_oracle(poset):
    """The least, over minimal elements, of the highest rank among their
    multiples, from plain divisibility; n on an empty poset."""
    elems = poset.elements
    ub = poset.arity
    for u in elems:
        if not any(v != u and divides_raw(v, u) for v in elems):
            ub = min(ub, max(poset.rho(v) for v in elems
                             if divides_raw(u, v)))
    return ub


@pytest.fixture(scope="module")
def small_sdepths(oracle_posets):
    """The brute-force sdepth of each oracle poset of 1 to 12 elements, by
    its index in oracle_posets."""
    return {i: brute_force_sdepth(p.elements, p.g)
            for i, p in enumerate(oracle_posets) if 0 < len(p) <= 12}


def test_intrinsic_upper_bound(oracle_posets, small_sdepths):
    for i, p in enumerate(oracle_posets):
        ub = partitions._get_searcher(p).intrinsic_upper_bound()
        assert ub == _upper_bound_oracle(p)
        if len(p) > 0 and any(divides_raw(gen, p.g)
                              for gen in p.denominator.generators):
            # g lies in J, so no element has rank n: a proper quotient
            # needs no separate cap at n - 1
            assert ub <= p.arity - 1
        if i in small_sdepths:
            assert ub >= small_sdepths[i]
    assert len(small_sdepths) > 100


def _is_up_closed_walk(poset):
    """The successor walk as first written: every element's one-step box
    multiples must be elements."""
    for u in poset.elements:
        for j in range(poset.arity):
            if u[j] < poset.g[j]:
                if u[:j] + (u[j] + 1,) + u[j + 1:] not in poset:
                    return False
    return True


def test_target_one_is_decided_by_fibers(oracle_posets, small_sdepths):
    """Target 1 costs no node and returns a partition exactly when the
    sdepth is at least 1: by the saturation test when the box holds every
    generator, by brute force on posets of at most 12 elements.  Each
    partition passes the verifier at 1, and on up-closed posets it is the
    last-axis fibers: a bottom is an element with no element one step below
    it on the last axis, its top the last cell of its line."""
    seen = {"feasible": 0, "infeasible": 0, "brute force": 0,
            "up-closed": 0}
    for i, p in enumerate(oracle_posets):
        if len(p) == 0:
            continue
        stats = partitions.SearchStats()
        partition = partitions.exists_partition(p, 1, stats=stats)
        assert stats.nodes == 0
        if all(divides_raw(gen, p.g) for gen in
               p.numerator.generators + p.denominator.generators):
            zero, _ = sdepth_zero_quotient(p.numerator, p.denominator)
            assert (partition is None) == zero
        if i in small_sdepths:
            assert (partition is None) == (small_sdepths[i] == 0)
            seen["brute force"] += 1
        if partition is None:
            seen["infeasible"] += 1
            continue
        seen["feasible"] += 1
        assert verify_partition(p, partition, 1)
        if _is_up_closed_walk(p):
            dim = p.dims[-1]
            element = dict(zip(p.codes, p.elements))
            fibers = [(u, element[c - c % dim + dim - 1])
                      for c, u in element.items()
                      if c % dim == 0 or c - 1 not in element]
            assert [(iv.bottom, iv.top) for iv in partition] == fibers
            seen["up-closed"] += 1
    assert min(seen.values()) > 300, seen


def test_depth_zero_quotient_needs_no_search():
    """S/J for J the cycle closure of x2 x3 x4^2, x1 x3 x4^2 and x2^2 x4^2
    (10 generators, 40 elements) has depth 0, with x1 x2 x3 x4 in the
    saturation of J.  Its scan took 415,035 nodes while target 1 was
    refuted by search."""
    ideal = minimalize(_cycle_closure(
        [(0, 1, 1, 2), (1, 0, 1, 2), (0, 2, 0, 2)], 4), 4)
    assert len(ideal.generators) == 10
    cert = sdepth_quotient(unit_ideal(4), ideal, timeout_s=0.5)
    assert (cert.s, len(cert.poset)) == (0, 40)
    assert cert.stats.nodes < 100


def _budget_feasible_oracle(poset, uncovered, s):
    """The per-element counting prune as first written: every uncovered
    element is visited, level sizes are counted one by one, and minimality
    and covers come from plain divisibility."""
    if s <= 0:
        return True
    live = [u for i, u in enumerate(poset.elements) if uncovered >> i & 1]
    level_count = {}
    needs = {}
    for u in live:
        d = sum(u)
        level_count[d] = level_count.get(d, 0) + 1
        if not any(v != u and divides_raw(v, u) for v in live):
            need = s - poset.rho(u)
            if need > 0:
                covers = sum(1 for v in live
                             if sum(v) == d + 1 and divides_raw(u, v))
                if covers < need:
                    return False
                needs[d] = needs.get(d, 0) + need
    for d, req in needs.items():
        if req > level_count.get(d + 1, 0):
            return False
    return True


def test_budget_feasible_matches_per_element_oracle(kernel_posets):
    rng = random.Random(31)
    pruned = 0
    for p in kernel_posets:
        searcher = partitions._get_searcher(p)
        m = len(p)
        for _ in range(3):
            uncovered = rng.getrandbits(m) | (1 << rng.randrange(m))
            for s in range(1, p.arity + 1):
                got = searcher.branch_bottom(
                    _to_cells(p, uncovered), s) is not None
                assert got == _budget_feasible_oracle(p, uncovered, s)
                pruned += not got
    assert pruned > 100  # the comparison covers both outcomes


def test_branch_bottom_is_the_tightest_minimal_element(oracle_posets):
    """The bottom the counting prune returns, against plain divisibility: it
    is minimal in the uncovered set and has the least (slack, degree,
    code) among the minimal elements of rank < s, slack being the uncovered
    covers one degree up minus s - rho; with no uncovered element of rank
    < s it is the lex-least uncovered element.  The verdict is the
    per-element oracle's."""
    rng = random.Random(53)
    outcomes = {"pruned": 0, "not lex-least": 0, "no rank below s": 0}
    for p in oracle_posets:
        m = len(p)
        if m == 0:
            continue
        searcher = partitions._get_searcher(p)
        elems = p.elements
        for _ in range(3):
            uncovered = rng.getrandbits(m) | (1 << rng.randrange(m))
            live = [i for i in range(m) if uncovered >> i & 1]
            minimal = [i for i in live
                       if not any(j != i and divides_raw(elems[j], elems[i])
                                  for j in live)]
            for s in range(1, p.arity + 1):
                got = searcher.branch_bottom(_to_cells(p, uncovered), s)
                feasible = _budget_feasible_oracle(p, uncovered, s)
                assert (got is not None) == feasible
                if got is None:
                    outcomes["pruned"] += 1
                    continue
                bottom = p.codes.index(got)
                assert bottom in minimal
                keys = {i: ((sum(1 for j in live
                                 if sum(elems[j]) == sum(elems[i]) + 1
                                 and divides_raw(elems[i], elems[j]))
                             - (s - p.rho(elems[i]))),
                            sum(elems[i]), i)
                        for i in minimal if p.rho(elems[i]) < s}
                if keys:
                    assert keys[bottom] == min(keys.values())
                else:
                    assert bottom == live[0]
                    outcomes["no rank below s"] += 1
                outcomes["not lex-least"] += bottom != live[0]
    assert min(outcomes.values()) > 1000, outcomes


def test_minimal_by_shifts_matches_divisibility(oracle_posets,
                                                small_corpus):
    """The shift-computed minimal set against plain divisibility, on random
    element sets and on every pair of the lex-least element with another
    (on S/I that pair spans every offset of the box), also on boxes set
    with g whose sub-box sides reach 5, so that the doubling passes of the
    up-closure run with reaches of 1, 2 and 4 steps along an axis."""
    rng = random.Random(47)
    wide = [build_poset(unit_ideal(ideal.arity), ideal, (4,) * ideal.arity)
            for ideal in rng.sample(small_corpus, 60) if not ideal.is_zero]
    sides = set()
    for p in oracle_posets + wide:
        searcher = partitions._get_searcher(p)
        elems = p.elements
        m = len(elems)
        masks = [rng.getrandbits(m) for _ in range(3)]
        masks += [1 | 1 << j for j in range(1, m)]
        for mask in masks:
            chosen = [i for i in range(m) if mask >> i & 1]
            minimal = [i for i in chosen
                       if not any(j != i and divides_raw(elems[j], elems[i])
                                  for j in chosen)]
            assert searcher.minimal(_to_cells(p, mask)) == _to_cells(
                p, sum(1 << i for i in minimal))
        sides.update(p.dims)
    assert max(sides) >= 5


_small_gens = st.lists(
    st.tuples(*(st.integers(0, 2),) * 3), min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3), gens=_small_gens, shift=_small_gens,
       proper=st.booleans())
def test_sdepth_quotient_matches_brute_force(n, gens, shift, proper):
    """Random S/J (proper) or I/J with J = I * shift, against an oracle that
    builds the poset from raw membership and maximizes over all
    partitions."""
    gens = [g[:n] for g in gens]
    if proper:
        num_gens, den_gens = [(0,) * n], gens
    else:
        num_gens = gens
        den_gens = [tuple(a + b for a, b in zip(g, t[:n]))
                    for g in gens for t in shift]
    num, den = minimalize(num_gens, n), minimalize(den_gens, n)
    box = tuple(max(g[j] for g in num.generators + den.generators)
                for j in range(n))
    elements = [u for u in itertools.product(*(range(e + 1) for e in box))
                if member_of_ideal(num.generators, u)
                and not member_of_ideal(den.generators, u)]
    assume(0 < len(elements) <= 12)
    cert = sdepth_quotient(num, den)
    assert cert.s == brute_force_sdepth(elements, box)


def _cycle_closure(gens, n):
    """The generators with all their images under x1 -> x2 -> ... -> xn -> x1."""
    return [g[-j:] + g[:-j] for g in gens for j in range(n)]


_cyclic_gens = st.lists(
    st.tuples(*(st.integers(0, 2),) * 4), min_size=1, max_size=3)


def _cyclic_quotient(n, gens, shift, kind):
    """An ideal (I), S/J or I/J that the variable cycle fixes, made by
    closing random generators under it."""
    gens = _cycle_closure([g[:n] for g in gens], n)
    if kind == "I":
        num_gens, den_gens = gens, []
    elif kind == "S/J":
        num_gens, den_gens = [(0,) * n], gens
    else:
        num_gens = gens
        den_gens = [tuple(a + b for a, b in zip(g, t))
                    for g in gens
                    for t in _cycle_closure([t[:n] for t in shift], n)]
    return minimalize(num_gens, n), minimalize(den_gens, n)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 4), gens=_cyclic_gens, shift=_cyclic_gens,
       kind=st.sampled_from(["I", "S/J", "I/J"]))
def test_orbit_search_matches_brute_force(n, gens, shift, kind):
    """Ideals and quotients that the variable cycle fixes, against the
    oracle that maximizes over all partitions: the orbit search, with the
    plain search after it when it exhausts, finds the same value."""
    num, den = _cyclic_quotient(n, gens, shift, kind)
    box = tuple(max(g[j] for g in num.generators + den.generators)
                for j in range(n))
    elements = [u for u in itertools.product(*(range(e + 1) for e in box))
                if member_of_ideal(num.generators, u)
                and not member_of_ideal(den.generators, u)]
    assume(0 < len(elements) <= 12)
    cert = sdepth_quotient(num, den)
    assert cert.s == brute_force_sdepth(elements, box)
    cycle = partitions._get_searcher(cert.poset).cycle
    assert (cycle is not None) == (cert.poset.dims[0] > 1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4), gens=_cyclic_gens, shift=_cyclic_gens,
       kind=st.sampled_from(["I", "S/J", "I/J"]))
def test_orbit_candidates_are_the_tops_whose_images_never_overlap(
        n, gens, shift, kind):
    """The "Orbit overlap" lemma: at every bottom and target, the orbit
    search's tops are the plain search's tops, in their order, whose n
    images are equal or pairwise disjoint.  The oracle enumerates each
    image as a box of exponent tuples."""
    poset = build_poset(*_cyclic_quotient(n, gens, shift, kind))
    assume(0 < len(poset) <= 40)
    searcher = partitions._get_searcher(poset)
    assume(searcher.cycle is not None)
    element = dict(zip(poset.codes, poset.elements))

    def image_boxes(w, v):
        return {frozenset(itertools.product(*map(
                    range, w[-j:] + w[:-j], (e + 1 for e in v[-j:] + v[:-j]))))
                for j in range(n)}

    valid = set()
    for w, v in itertools.product(poset.elements, repeat=2):
        if divides_raw(w, v):
            boxes = image_boxes(w, v)
            if all(not a & b for a, b in itertools.combinations(boxes, 2)):
                valid.add((w, v))
    for c in poset.codes:
        for s in range(n + 1):
            plain = [v for v, _ in searcher._candidates(c, s)]
            orbit = [v for v, _ in searcher._candidates(c, s, searcher.cycle)]
            assert orbit == [v for v in plain
                             if (element[c], element[v]) in valid]


def test_orbit_walks_only_the_tops_it_places(monkeypatch):
    """m in 10 variables at target 5: the orbit search places 10 orbits in
    10 nodes and walks no other orbit."""
    walks = []
    original = partitions._Searcher.orbit

    def counting(self, *args):
        walks.append(args[:2])
        return original(self, *args)

    monkeypatch.setattr(partitions._Searcher, "orbit", counting)
    stats = partitions.SearchStats()
    poset = build_poset(maximal_power(10, 1))
    assert partitions.exists_partition(poset, 5, stats=stats) is not None
    assert (len(walks), stats.nodes, stats.prunes) == (10, 10, 0)



@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 4), gens=_cyclic_gens, shift=_cyclic_gens,
       kind=st.sampled_from(["I", "S/J", "I/J"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_orbit_walk_matches_the_plain_walk(n, gens, shift, kind, seed):
    """The "Orbit walk" lemma: on uncovered sets that the cycle fixes, the
    full poset and unions of random orbits, the walk that scores each
    orbit once gives the plain walk's verdict and bottom at every target.
    The orbits come from rotating exponent tuples."""
    poset = build_poset(*_cyclic_quotient(n, gens, shift, kind))
    assume(0 < len(poset) <= 60)
    searcher = partitions._get_searcher(poset)
    assume(searcher.cycle is not None)
    code = dict(zip(poset.elements, poset.codes))
    orbits = sorted({sum(1 << c for c in {code[u[-j:] + u[:-j]]
                                          for j in range(n)})
                     for u in poset.elements})
    rng = random.Random(seed)
    states = [searcher.full_mask] + [
        sum(rng.sample(orbits, rng.randint(1, len(orbits))))
        for _ in range(6)]
    for uncovered in states:
        for s in range(n + 1):
            assert searcher.branch_bottom(uncovered, s, searcher.cycle) == (
                searcher.branch_bottom(uncovered, s))


def test_orbit_walk_scores_one_element_per_orbit():
    """m in 10 variables, the whole scan: the counting prune scores 19
    elements, one per orbit, where scoring every element of its walk
    scored 235 with the root walk of each refuted target run twice.  Each
    scored element looks up its record once, and the 5 targets refuted at
    the root walk it once, as the plain search's hand-over reads the orbit
    search's counters."""
    class Counting(dict):
        lookups = 0

        def get(self, key):
            Counting.lookups += 1
            return super().get(key)

    poset = build_poset(maximal_power(10, 1))
    partitions._get_searcher(poset)._records = Counting()
    cert = partitions.sdepth_poset(poset)
    assert (cert.s, cert.stats.nodes, Counting.lookups) == (5, 15, 19)


def test_records_hold_the_orbit_of_every_walked_element(oracle_posets):
    """After a whole scan, the record of every element the counting prune
    walked holds its orbit under the cycle as a mask, and the orbit size,
    against the images u[-j:] + u[:-j] of its exponent tuple: on the
    posets of `oracle_posets` that the cycle fixes, on m in 8 variables
    and on m^2 in 5."""
    posets = [CharPoset(p.numerator, p.denominator, p.g)
              for p in oracle_posets]
    posets += [build_poset(maximal_power(8, 1)),
               build_poset(maximal_power(5, 2))]
    scanned, sizes = 0, set()
    for p in posets:
        searcher = partitions._get_searcher(p)
        if not len(p) or searcher.cycle is None:
            continue
        partitions.sdepth_poset(p)
        code = dict(zip(p.elements, p.codes))
        element = dict(zip(p.codes, p.elements))
        for c, (*_, orbit, size) in searcher._records.items():
            u = element[c]
            images = {code[u[-j:] + u[:-j]] for j in range(p.arity)}
            assert (orbit, size) == (sum(1 << a for a in images), len(images))
            sizes.add((p.arity, size))
        scanned += 1
    assert scanned > 20
    assert {(2, 1), (3, 1), (5, 5), (8, 4), (8, 8)} <= sizes


def test_exhausted_orbit_search_hands_over_to_the_plain_search():
    """S/(x1 x2 x3) is the cube {0, 1}^3 without x1 x2 x3.  At target 2 the
    bottom 1 has the tops x1 x2, x1 x3 and x2 x3, and each interval meets
    its images at 1, so the orbit search exhausts at its root without a
    prune; the plain search then finds a partition in 3 nodes."""
    poset = build_poset(unit_ideal(3), minimalize([(1, 1, 1)], 3))
    assert partitions._get_searcher(poset).cycle is not None
    stats = partitions.SearchStats()
    partition = partitions.exists_partition(poset, 2, stats=stats)
    assert [(iv.bottom, iv.top) for iv in partition] == [
        ((0, 0, 0), (0, 1, 1)), ((1, 0, 0), (1, 0, 1)),
        ((1, 1, 0), (1, 1, 0))]
    assert (stats.nodes, stats.prunes) == (1 + 3, 0)


def test_root_refutation_under_the_cycle_counts_one_node():
    """A prune at the root refutes every completion, so the plain search
    does not run after the orbit search."""
    poset = build_poset(maximal_power(7, 2))
    assert partitions._get_searcher(poset).cycle is not None
    stats = partitions.SearchStats()
    assert partitions.exists_partition(poset, 4, stats=stats) is None
    assert (stats.nodes, stats.prunes) == (1, 1)


MIDHARD = minimalize([(0, 2, 0, 1, 0), (1, 1, 2, 0, 0), (2, 2, 1, 0, 1)], 5)
# m in 8 variables with a box the cycle does not fix
M8_SKEW = (maximal_power(8, 1), (2,) + (1,) * 7)


def _digest(cert) -> str:
    pairs = [(iv.bottom, iv.top) for iv in cert.partition]
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


@pytest.mark.parametrize("solve, s, nodes, prunes, digest", [
    (lambda: sdepth_ideal(maximal_power(8, 1)), 4, 14, 4, "3b81880b54a964dc"),
    (lambda: sdepth_ideal(maximal_power(5, 2)), 2, 30, 24,
     "ff937e726d031fc0"),
    (lambda: sdepth_ideal(maximal_power(6, 2)), 2, 36, 25,
     "ad182f0002b39eb0"),
    (lambda: sdepth_quotient(unit_ideal(5), MIDHARD), 2, 1747, 0,
     "8aec67559402c5de"),
    (lambda: sdepth_ideal(maximal_power(11, 1)), 6, 21, 5,
     "2e92d260af51bb08"),
    (lambda: sdepth_ideal(M8_SKEW[0], g=M8_SKEW[1]), 4, 80, 57,
     "8f965348eb579d30"),
    (lambda: sdepth_ideal(maximal_power(5, 3)), 2, 550, 219,
     "e320c3b4d312f94a"),
], ids=["m-n8", "m2-n5", "m2-n6", "midhard-S/I", "m-n11", "m-n8-skew-g",
        "m3-n5"])
def test_search_is_deterministic(solve, s, nodes, prunes, digest):
    """Node and prune counts do not depend on the machine: any change of the
    search order, the prunes or the memo shows here, as does any other
    partition (the digest covers the interval list in order)."""
    cert = solve()
    assert (cert.s, cert.stats.nodes, cert.stats.prunes, _digest(cert)) == (
        s, nodes, prunes, digest)


@pytest.mark.parametrize("solve", [
    lambda: sdepth_quotient(unit_ideal(5), MIDHARD),
    lambda: sdepth_ideal(M8_SKEW[0], g=M8_SKEW[1]),
], ids=["midhard-S/I", "m-n8-skew-g"])
def test_inputs_the_cycle_does_not_fix_search_as_before(solve):
    """Their rows above keep the nodes, prunes and digests of the search
    without the orbit search."""
    assert partitions._get_searcher(solve().poset).cycle is None


def test_tiny_memo_budget_keeps_the_answer(monkeypatch):
    full = sdepth_quotient(unit_ideal(5), MIDHARD)
    monkeypatch.setattr(partitions, "_FAILED_MEMO_BYTES", 4096)
    runs = [sdepth_quotient(unit_ideal(5), MIDHARD) for _ in range(2)]
    for cert in runs:
        assert cert.s == full.s
        assert verify_partition(cert.poset, cert.partition, cert.s)
        # the memo changes how much is searched, not what is found
        assert cert.partition == full.partition
    assert runs[0].stats.nodes == runs[1].stats.nodes > full.stats.nodes
