import itertools
import math
import operator
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruteforce import (
    brute_force_decomposition_check,
    brute_force_sdepth,
    brute_force_verify_partition,
    member_of_ideal,
)
from corpus import exhaustive_ideals
from sdepthlab import (
    CharPoset,
    Interval,
    IntervalPartition,
    SearchStats,
    SearchTimeout,
    StanleyDecomposition,
    build_poset,
    counting_prune,
    default_box,
    exists_partition,
    janet_decomposition,
    maximal_power,
    maximal_power_poset,
    minimalize,
    sdepth_ideal,
    sdepth_poset,
    sdepth_quotient,
    to_stanley_decomposition,
    unit_ideal,
    verify_certificate,
    verify_partition,
    verify_stanley_decomposition,
    zero_ideal,
)
from sdepthlab import partitions, posets


def test_exists_partition_maximal_ideal_n2():
    p = maximal_power_poset(2, 1)
    partition = exists_partition(p, 1)
    assert partition is not None
    assert verify_partition(p, partition, 1)
    assert exists_partition(p, 2) is None


def test_exists_partition_s0_singletons():
    p = maximal_power_poset(2, 2)
    partition = exists_partition(p, 0)
    assert len(partition) == len(p)
    assert all(iv.bottom == iv.top for iv in partition)
    assert verify_partition(p, partition, 0)


def test_exists_partition_target_range():
    p = maximal_power_poset(2, 1)
    with pytest.raises(ValueError):
        exists_partition(p, -1)
    with pytest.raises(ValueError):
        exists_partition(p, 3)


def test_exists_partition_empty_poset():
    """The empty poset gets the empty partition from the fibers at s = 1
    and from the search at s = 2, with no node: the search counts its
    root only when there is a state to search."""
    p = build_poset(maximal_power(2, 1), maximal_power(2, 1))
    for s in (1, 2):
        stats = SearchStats()
        assert exists_partition(p, s, stats=stats) == IntervalPartition(())
        assert stats == SearchStats()


def test_sdepth_poset_examples():
    assert sdepth_poset(maximal_power_poset(5, 1)).s == 3
    assert sdepth_poset(maximal_power_poset(3, 2)).s == 1
    single = build_poset(minimalize([(1, 1)], 2), g=(1, 1))
    assert sdepth_poset(single).s == 2


def test_sdepth_poset_rejects_empty():
    with pytest.raises(ValueError):
        sdepth_poset(build_poset(maximal_power(2, 1), maximal_power(2, 1)))


def test_sdepth_ideal_examples():
    assert sdepth_ideal(maximal_power(3, 2)).s == 1
    for n in (1, 2, 3):
        principal = minimalize([(2,) + (0,) * (n - 1)], n)
        assert sdepth_ideal(principal).s == n
    with pytest.raises(ValueError):
        sdepth_ideal(zero_ideal(2))


def test_sdepth_quotient_examples():
    assert sdepth_quotient(unit_ideal(2), maximal_power(2, 1)).s == 0
    assert sdepth_quotient(unit_ideal(2), minimalize([(1, 1)], 2)).s == 1
    # S/0 = S is free
    assert sdepth_quotient(unit_ideal(3), zero_ideal(3)).s == 3


def test_certificates_verify_and_witness_their_value():
    for cert in (sdepth_ideal(maximal_power(3, 1)),
                 sdepth_quotient(unit_ideal(2), minimalize([(2, 0), (1, 1)], 2))):
        assert verify_partition(cert.poset, cert.partition, cert.s)
        assert min(cert.poset.rho(iv.top) for iv in cert.partition) == cert.s


def test_sdepth_invariant_under_box_growth():
    ideal = minimalize([(1, 1)], 2)
    assert sdepth_ideal(ideal).s == sdepth_ideal(ideal, g=(2, 2)).s == 2
    m = maximal_power(2, 1)
    assert sdepth_ideal(m, g=(3, 3)).s == sdepth_ideal(m).s == 1


def test_verify_partition_reports():
    p = maximal_power_poset(2, 1)
    good = IntervalPartition((Interval((0, 1), (1, 1)), Interval((1, 0), (1, 0))))
    assert verify_partition(p, good, 1)

    missing = IntervalPartition((Interval((0, 1), (1, 1)),))
    check = verify_partition(p, missing, 1)
    assert not check and "uncovered" in check.reason

    overlap = IntervalPartition((Interval((0, 1), (1, 1)),
                                 Interval((1, 0), (1, 1))))
    check = verify_partition(p, overlap, 1)
    assert not check and "double cover" in check.reason

    foreign = IntervalPartition((Interval((0, 0), (1, 1)),))
    check = verify_partition(p, foreign, 0)
    assert not check and "not a poset element" in check.reason

    nondividing = IntervalPartition((Interval((1, 0), (0, 1)),))
    assert not verify_partition(p, nondividing, 0)

    check = verify_partition(p, good, 2)
    assert not check and "rank" in check.reason


def test_counting_prune_examples():
    # any state is feasible for s = 0
    p = maximal_power_poset(2, 1)
    assert counting_prune(p, 0, p.elements)
    # both x1 and x2 uncovered with only x1x2 above: two bottoms compete
    # for a single degree-2 element
    assert not counting_prune(p, 2, [(1, 0), (0, 1), (1, 1)])
    # the full-poset state reproduces the closed-form level inequality
    from sdepthlab import alpha_formula, conjecture_bound
    for n in (2, 3, 4):
        for k in (1, 2):
            a = conjecture_bound(n, k)
            poset = maximal_power_poset(n, k)
            lhs = alpha_formula(n, k, k + 1) if k + 1 <= k * n else 0
            rhs = n * a + (alpha_formula(n, k, k) - n) * (a + 1)
            assert counting_prune(poset, a + 1, poset.elements) == (lhs >= rhs)


def test_counting_prune_rejects_bad_targets_and_non_elements():
    """The same ValueError as exists_partition: the target 4 used to raise
    IndexError, -1 returned True, and a non-element raised KeyError."""
    p = maximal_power_poset(2, 1)
    for s in (-1, 3, 4):
        with pytest.raises(ValueError, match=f"target {s} outside"):
            counting_prune(p, s, p.elements)
        with pytest.raises(ValueError, match=f"target {s} outside"):
            exists_partition(p, s)
    for s in (0, 1):
        with pytest.raises(ValueError, match="not a poset element"):
            counting_prune(p, s, [(1, 0), (0, 0)])


def test_monotonicity_of_feasibility():
    for poset in (maximal_power_poset(3, 1), maximal_power_poset(2, 2),
                  build_poset(unit_ideal(2), minimalize([(1, 1)], 2))):
        feasible = [s for s in range(poset.arity + 1)
                    if exists_partition(poset, s) is not None]
        assert feasible == list(range(len(feasible)))


def test_sdepth_value_is_permutation_invariant():
    rng = random.Random(23)
    for _ in range(10):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        ideal = minimalize(gens, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = minimalize([tuple(g[perm[j]] for j in range(n))
                               for g in ideal.generators], n)
        assert sdepth_ideal(ideal).s == sdepth_ideal(permuted).s


def test_nonzero_ideals_have_positive_sdepth():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        assert sdepth_ideal(minimalize(gens, n)).s >= 1


def test_proper_quotient_sdepth_below_arity():
    for ideal in exhaustive_ideals(2, 2):
        if ideal.is_zero:
            continue
        p = build_poset(unit_ideal(2), ideal)
        if len(p) == 0:
            continue
        assert sdepth_quotient(unit_ideal(2), ideal).s <= 1


def test_matches_brute_force_on_quotients():
    for ideal in exhaustive_ideals(2, 2):
        p = build_poset(unit_ideal(2), ideal)
        if len(p) == 0:
            continue
        assert sdepth_quotient(unit_ideal(2), ideal).s == \
            brute_force_sdepth(p.elements, p.g)


def test_timeout_is_distinct_from_infeasible():
    p = maximal_power_poset(3, 1)
    with pytest.raises(SearchTimeout):
        exists_partition(p, 2, timeout_s=1e-12)
    # and the scan propagates it, naming the target that was open
    with pytest.raises(SearchTimeout, match="target 4 open"):
        sdepth_ideal(maximal_power(4, 1), timeout_s=1e-12)


def test_scan_shares_one_budget(monkeypatch):
    """Each decision of a scan gets the time its predecessors left."""
    given = []
    original = partitions.exists_partition

    def recording(poset, s, **kwargs):
        given.append(kwargs["timeout_s"])
        return original(poset, s, **kwargs)

    monkeypatch.setattr(partitions, "exists_partition", recording)
    cert = sdepth_poset(maximal_power_poset(5, 1), timeout_s=30.0)
    assert cert.s == 3
    assert len(given) == 3  # targets 5 and 4 refuted, 3 found
    assert given[0] < 30.0  # the search set-up and the bound are charged
    assert all(a >= b for a, b in zip(given, given[1:]))
    assert given[-1] < 30.0  # later decisions do not restart the clock


@pytest.mark.parametrize("solve, target", [
    (lambda: sdepth_ideal(maximal_power(5, 1), timeout_s=0.1), 5),
    (lambda: sdepth_quotient(maximal_power(5, 1), zero_ideal(5),
                             timeout_s=0.1), 5),
], ids=["ideal", "quotient"])
def test_budget_covers_the_poset_build(monkeypatch, solve, target):
    """The clock starts before the poset build: a build that takes longer
    than the budget leaves the scan none, and the timeout names the open
    target."""
    original = partitions.build_poset

    def slow_build(*args):
        time.sleep(0.2)
        return original(*args)

    monkeypatch.setattr(partitions, "build_poset", slow_build)
    with pytest.raises(SearchTimeout, match=f"target {target} open"):
        solve()


def test_scan_charges_the_search_set_up_and_the_bound(monkeypatch):
    """The scan's one deadline is set on entry, so an upper bound that
    takes longer than the budget leaves the first target none: it is
    open before any node is searched."""
    original = partitions._Searcher.intrinsic_upper_bound

    def slow_bound(self):
        time.sleep(0.3)
        return original(self)

    monkeypatch.setattr(partitions._Searcher, "intrinsic_upper_bound",
                        slow_bound)
    with pytest.raises(SearchTimeout, match="target 4 open") as info:
        sdepth_poset(maximal_power_poset(4, 1), timeout_s=0.2)
    assert (info.value.stats.nodes, info.value.stats.prunes) == (0, 0)


def test_no_budget_left_settles_no_target(monkeypatch):
    """A target settled by construction obeys the budget like a searched
    one: S/(x1, x2) has one element, so its scan is the singleton target
    0, which an overrun build must leave open rather than answer."""
    original = partitions.build_poset

    def slow_build(*args):
        time.sleep(0.2)
        return original(*args)

    monkeypatch.setattr(partitions, "build_poset", slow_build)
    with pytest.raises(SearchTimeout, match="target 0 open"):
        sdepth_quotient(unit_ideal(2), maximal_power(2, 1), timeout_s=0.05)
    for s in (0, 1):
        with pytest.raises(SearchTimeout, match=f"target {s} open"):
            exists_partition(maximal_power_poset(3, 1), s, timeout_s=0)


def test_timeout_stats_cover_the_whole_scan(monkeypatch):
    """The counters of a timed-out scan add up every target, not only the
    open one: on m^4 in 6 variables targets 6 to 3 are refuted at the root
    before target 2 runs out of time."""
    per_target = []
    original = partitions.exists_partition

    def recording(poset, s, **kwargs):
        per_target.append(kwargs["stats"])
        return original(poset, s, **kwargs)

    monkeypatch.setattr(partitions, "exists_partition", recording)
    with pytest.raises(SearchTimeout, match="target 2 open") as info:
        sdepth_ideal(maximal_power(6, 4), timeout_s=0.5)
    assert len(per_target) == 5
    assert info.value.stats.nodes == sum(st.nodes for st in per_target)
    assert info.value.stats.nodes == per_target[-1].nodes + 4
    assert info.value.stats.prunes == sum(st.prunes for st in per_target)


def test_search_set_up_costs_less_than_the_poset_build():
    """No pre-search step costs more than the poset it feeds: m^4 in 7
    variables has 78,005 elements, and OR-ing them one bit at a time into
    the level and rank masks made the set-up take 1.4 to 1.9 times the
    build.  Best of three of each."""
    build, set_up = [], []
    for _ in range(3):
        start = time.perf_counter()
        poset = maximal_power_poset(7, 4)
        build.append(time.perf_counter() - start)
        start = time.perf_counter()
        partitions._Searcher(poset)
        set_up.append(time.perf_counter() - start)
    assert min(set_up) < min(build)


def test_search_set_up_keeps_nothing_per_non_element_cell():
    """S/m^2 in 9 variables has 10 elements in a sub-box of 3^9 = 19,683
    cells.  The search set-up keeps a few masks per element and per shift
    pass, none wider than the highest element code, and nothing for the
    other cells; closure masks spread over every cell peaked at about
    14 MB here, and grew about eightfold per variable."""
    n = 9
    poset = build_poset(unit_ideal(n), maximal_power(n, 2))
    tracemalloc.start()
    try:
        cert = sdepth_poset(poset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.s == 0 and len(poset) == n + 1
    searcher = partitions._get_searcher(poset)
    masks = 8 * (len(poset) + len(searcher.passes))
    assert peak < masks * sys.getsizeof(searcher.full_mask)


def test_search_set_up_keeps_no_mask_per_element():
    """m in 14 variables has 16,383 elements.  The search set-up and the
    upper bound keep level and rank masks, the shift passes and the shapes
    on the way to the multiples of the minimal elements, so no mask per
    element: per-element closure masks peaked at 93.7 MB here, about
    5.7 KB per element."""
    poset = maximal_power_poset(14, 1)
    tracemalloc.start()
    try:
        ub = partitions._get_searcher(poset).intrinsic_upper_bound()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ub == 14
    assert peak < 256 * len(poset)


def test_pure_power_recognition_is_linear_in_generators():
    # one-element poset; rebuilding m^10 in 6 variables would take seconds
    start = time.perf_counter()
    assert sdepth_ideal(minimalize([(10, 0, 0, 0, 0, 0)], 6)).s == 6
    assert time.perf_counter() - start < 1.0


def test_root_prune_refutes_every_target_above_the_conjecture():
    """With no scan start taken from the ideal, the scan of m^k begins at
    n; the counting prune must refute every target in (ceil(n/(k+1)), n]
    at the root, so the scan never searches above the conjectured value.
    Boxes above 5^6 cells are left out: m^4 in 8 variables has 390,460
    elements, and its poset build and search set-up take about 3 s."""
    for n in range(1, 9):
        for k in range(1, 5):
            if (k + 1) ** n > 5 ** 6:
                continue
            p = maximal_power_poset(n, k)
            for s in range(-(-n // (k + 1)) + 1, n + 1):
                stats = SearchStats()
                assert exists_partition(p, s, stats=stats) is None
                assert (stats.nodes, stats.prunes) == (1, 1), (n, k, s)


@pytest.mark.parametrize("k, n", [
    (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (1, 11), (2, 4), (2, 5),
    (2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4)])
def test_every_mpow_rung_solves_at_the_conjecture(k, n):
    """Every m^k rung of the benchmark ladder and frontier, m^2 in 7 and m^3
    in 5 variables among them, is solved at ceil(n/(k+1)) within 2 s."""
    cert = sdepth_ideal(maximal_power(n, k), timeout_s=2.0)
    assert cert.s == -(-n // (k + 1))
    assert verify_certificate(cert.poset, cert.partition, cert.s)


def test_search_stats_accumulate():
    stats = SearchStats()
    p = maximal_power_poset(3, 1)
    exists_partition(p, 2, stats=stats)
    assert stats.nodes > 0


def test_to_stanley_decomposition():
    p = maximal_power_poset(2, 1)
    partition = IntervalPartition((Interval((1, 0), (1, 1)),
                                   Interval((0, 1), (0, 1))))
    d = to_stanley_decomposition(p, partition)
    assert set(d.spaces) == {((1, 0), frozenset({1, 2})),
                             ((0, 1), frozenset({2}))}
    assert d.sdepth == 1
    bad = IntervalPartition((Interval((1, 0), (1, 1)),))
    with pytest.raises(ValueError):
        to_stanley_decomposition(p, bad)


def test_to_stanley_decomposition_singleton_rank_zero():
    p = build_poset(unit_ideal(2), maximal_power(2, 1))
    d = to_stanley_decomposition(
        p, IntervalPartition((Interval((0, 0), (0, 0)),)))
    assert d.spaces == (((0, 0), frozenset()),)
    assert d.sdepth == 0


def test_verify_stanley_decomposition_roundtrip():
    ideal = maximal_power(2, 1)
    cert = sdepth_ideal(ideal)
    d = to_stanley_decomposition(cert.poset, cert.partition)
    assert verify_stanley_decomposition(ideal, zero_ideal(2), d, 4)
    dropped = type(d)(d.arity, d.spaces[1:])
    check = verify_stanley_decomposition(ideal, zero_ideal(2), dropped, 4)
    assert not check and "uncovered" in check.reason
    doubled = type(d)(d.arity, d.spaces + d.spaces[:1])
    assert not verify_stanley_decomposition(ideal, zero_ideal(2), doubled, 4)


def test_verify_stanley_decomposition_rejects_stray_variables():
    """On S/(x1^2) the spaces 1 * K[x5] and x1 * K[x0, x7] cover the poset
    {1, x1} once each if the stray indices are ignored, and would count
    as sdepth 1 where the true value is 0."""
    ideal = minimalize([(2,)], 1)
    stray = StanleyDecomposition(1, (((0,), frozenset({5})),
                                     ((1,), frozenset({0, 7}))))
    check = verify_stanley_decomposition(unit_ideal(1), ideal, stray, 2)
    assert not check and "outside 1..1" in check.reason
    plain = StanleyDecomposition(1, (((0,), frozenset()),
                                     ((1,), frozenset())))
    assert verify_stanley_decomposition(unit_ideal(1), ideal, plain, 2)
    assert sdepth_quotient(unit_ideal(1), ideal).s == plain.sdepth == 0


def test_verify_stanley_decomposition_cap_validation():
    ideal = maximal_power(2, 2)
    cert = sdepth_ideal(ideal)
    d = to_stanley_decomposition(cert.poset, cert.partition)
    with pytest.raises(ValueError):
        verify_stanley_decomposition(ideal, zero_ideal(2), d, 1)


def _tampered(decomposition, cap, rng, kind):
    """A copy of the decomposition with one edit of the given kind."""
    n = decomposition.arity
    spaces = list(decomposition.spaces)
    i = rng.randrange(len(spaces))
    m, z = spaces[i]
    if kind == "drop":
        del spaces[i]
    elif kind == "duplicate":
        spaces.append(spaces[i])
    elif kind == "shift":
        j = rng.randrange(n)
        step = rng.choice((-1, 1)) if m[j] > 0 else 1
        spaces[i] = (m[:j] + (m[j] + step,) + m[j + 1:], z)
    elif kind == "toggle":
        spaces[i] = (m, z ^ {rng.randrange(n) + 1})
    else:  # a stray space
        stray = tuple(rng.randint(0, cap) for _ in range(n))
        spaces.append((stray, frozenset(j for j in range(1, n + 1)
                                        if rng.random() < 0.5)))
    return StanleyDecomposition(n, tuple(spaces))


def test_decomposition_check_matches_cube_walk(small_corpus):
    """verify_stanley_decomposition against the cube walk of
    tests/bruteforce.py, on Janet decompositions of S/I, decompositions of
    I/J from certificates, and tampered copies of both."""
    rng = random.Random(20261018)
    cases = []
    for ideal in small_corpus:
        cases.append((unit_ideal(ideal.arity), ideal,
                      janet_decomposition(ideal)))
    for ideal in rng.sample([i for i in small_corpus if not i.is_zero], 200):
        n = ideal.arity
        shifted = minimalize([tuple(e + 1 for e in g)
                              for g in ideal.generators], n)
        cert = sdepth_quotient(ideal, shifted)
        cases.append((ideal, shifted,
                      to_stanley_decomposition(cert.poset, cert.partition)))
    kinds = ("drop", "duplicate", "shift", "toggle", "stray")
    verdicts = {True: 0, False: 0}
    for index, (num, den, decomposition) in enumerate(cases):
        cap = max(sum(default_box(num, den)), 1)
        for d in (decomposition,
                  _tampered(decomposition, cap, rng, kinds[index % 5])):
            verdict = bool(verify_stanley_decomposition(num, den, d, cap))
            assert verdict == brute_force_decomposition_check(
                num.generators, den.generators, d.arity, d.spaces, cap)
            verdicts[verdict] += 1
    assert sum(verdicts.values()) >= 2000
    assert verdicts[True] >= len(cases) and verdicts[False] > 800


def test_verify_certificate_rule():
    cert = sdepth_ideal(maximal_power(3, 1))
    assert verify_certificate(cert.poset, cert.partition, cert.s)
    check = verify_certificate(cert.poset, cert.partition, cert.s - 1)
    assert not check and "every top has rank above 1" in check.reason
    assert not verify_certificate(cert.poset, cert.partition, cert.s + 1)
    dropped = IntervalPartition(cert.partition.intervals[1:])
    check = verify_certificate(cert.poset, dropped, cert.s)
    assert not check and "uncovered" in check.reason
    ideal = maximal_power(2, 1)
    check = verify_certificate(build_poset(ideal, ideal), IntervalPartition(()),
                               0)
    assert not check and "poset is empty" in check.reason


def test_verify_certificate_rejects_targets_outside_the_rank_range():
    """s = -1 used to read "every top has rank above -1"."""
    cert = sdepth_ideal(maximal_power(3, 1))
    for s in (-1, 4):
        check = verify_certificate(cert.poset, cert.partition, s)
        assert not check and check.reason == f"target {s} outside [0, 3]"


def _same_verdict(poset, pairs, s):
    """verify_partition and the per-cell oracle give the same reason ("" when
    both accept); returns the reason."""
    check = verify_partition(poset, IntervalPartition(tuple(
        Interval(b, t) for b, t in pairs)), s)
    reason = brute_force_verify_partition(poset.elements, poset.g, pairs, s)
    assert (check.ok, check.reason) == (not reason, reason)
    return reason


def _tampered_pairs(poset, pairs, s, rng):
    """Copies of a partition with one edit each: an interval dropped, an
    interval grown one step onto an element (a double cover), a non-element
    endpoint, a bottom swapped with its top, and the target raised above
    the least top rank."""
    i = rng.randrange(len(pairs))
    yield pairs[:i] + pairs[i + 1:], s
    g, n = poset.g, poset.arity
    grown = [(k, j) for k, (b, t) in enumerate(pairs) for j in range(n)
             if t[j] < g[j] and t[:j] + (t[j] + 1,) + t[j + 1:] in poset]
    if grown:
        k, j = rng.choice(grown)
        b, t = pairs[k]
        grown_top = t[:j] + (t[j] + 1,) + t[j + 1:]
        yield pairs[:k] + [(b, grown_top)] + pairs[k + 1:], s
    outside = tuple(e + 1 for e in g)
    b, t = pairs[i]
    ends = [(outside, t), (b, outside)]
    yield pairs[:i] + [rng.choice(ends)] + pairs[i + 1:], s
    swapped = [k for k, (b, t) in enumerate(pairs) if b != t]
    if swapped:
        k = rng.choice(swapped)
        yield pairs[:k] + [pairs[k][::-1]] + pairs[k + 1:], s
    yield pairs, min(poset.rho(t) for _, t in pairs) + 1


_REASONS = ("not a poset element", "does not divide", "has rank",
            "leaves the poset", "double cover", "uncovered element")


def test_mask_checker_matches_the_per_cell_checker(small_corpus):
    """Every certificate of S/I and I over the n <= 3 corpus, and tampered
    copies of each: the same verdict and reason as the per-cell oracle."""
    rng = random.Random(20261019)
    reasons = {}
    for ideal in small_corpus:
        if ideal.is_zero:
            continue
        for cert in (sdepth_ideal(ideal),
                     sdepth_quotient(unit_ideal(ideal.arity), ideal)):
            pairs = [(iv.bottom, iv.top) for iv in cert.partition]
            assert _same_verdict(cert.poset, pairs, cert.s) == ""
            for tampered, s in _tampered_pairs(cert.poset, pairs, cert.s, rng):
                reason = _same_verdict(cert.poset, tampered, s)
                kind = next(k for k in _REASONS if k in reason)
                reasons[kind] = reasons.get(kind, 0) + 1
    assert set(reasons) == set(_REASONS) - {"leaves the poset"}, reasons
    assert min(reasons.values()) > 100, reasons


def test_mask_checker_matches_the_per_cell_checker_on_decompositions(
        small_corpus):
    """verify_stanley_decomposition on Janet decompositions of S/I and
    tampered copies, against the per-cell oracle on the intervals of the
    cube [0, cap]^n."""
    rng = random.Random(20261019)
    seen = set()
    for index, ideal in enumerate(small_corpus[::7]):
        n = ideal.arity
        decomposition = janet_decomposition(ideal)
        cap = max(sum(default_box(unit_ideal(n), ideal)), 1)
        elements = [w for w in itertools.product(range(cap + 1), repeat=n)
                    if not member_of_ideal(ideal.generators, w)]
        kinds = ("drop", "duplicate", "shift", "toggle")
        for d in (decomposition,
                  _tampered(decomposition, cap, rng, kinds[index % 4])):
            check = verify_stanley_decomposition(unit_ideal(n), ideal, d, cap)
            pairs = [(m, tuple(cap if j + 1 in z else e
                               for j, e in enumerate(m)))
                     for m, z in d.spaces if max(m, default=0) <= cap]
            reason = brute_force_verify_partition(elements, (cap,) * n,
                                                  pairs, 0)
            assert (check.ok, check.reason) == (not reason, reason)
            seen.add(next((k for k in _REASONS if k in reason), reason))
    assert seen >= {"", "double cover", "uncovered element"}, seen


def test_box_mask_is_the_box_of_cells():
    """The box mask of an extent against itertools.product over it, in
    random sub-boxes of up to five axes; its popcount is the product of
    the e_j + 1."""
    rng = random.Random(18)
    for _ in range(300):
        dims = [rng.randint(1, 6) for _ in range(rng.randint(0, 5))]
        strides = posets._weights(dims)
        extent = [rng.randrange(d) for d in dims]
        mask = partitions._box_mask(extent, strides)
        assert mask == sum(1 << sum(map(operator.mul, k, strides))
                           for k in itertools.product(
                               *(range(e + 1) for e in extent)))
        assert bin(mask).count("1") == math.prod(e + 1 for e in extent)


class _HoledPoset:
    """A poset's element mask with one element taken out.  No CharPoset
    has a hole between two of its elements (convexity), so this is the only
    way to reach the checker's "leaves the poset" branch."""

    def __init__(self, poset, hole):
        self.g, self.strides, self.dims = poset.g, poset.strides, poset.dims
        self._lo, self.monomial = poset._lo, poset.monomial
        kept = [(c, u) for c, u in zip(poset.codes, poset.elements)
                if u != hole]
        self.codes = tuple(c for c, _ in kept)
        self.elements = tuple(u for _, u in kept)
        self.mask = sum(1 << c for c in self.codes)

    def __len__(self):
        return len(self.elements)

    def __contains__(self, u):
        return tuple(u) in self.elements

    def rho(self, u):
        return sum(map(operator.eq, u, self.g))


def test_mask_checker_reports_a_hole_in_the_poset():
    holed = _HoledPoset(maximal_power_poset(3, 1), (1, 1, 0))
    # the hole is the first bad cell in lex order
    assert _same_verdict(holed, [((0, 1, 0), (0, 1, 1)),
                                 ((1, 0, 0), (1, 1, 1))], 0) == (
        "interval [(1, 0, 0), (1, 1, 1)] leaves the poset at (1, 1, 0)")
    # a double cover before the hole in lex order is reported first
    assert _same_verdict(holed, [((1, 0, 1), (1, 0, 1)),
                                 ((1, 0, 0), (1, 1, 1))], 0) == (
        "double cover at (1, 0, 1)")
    # a double cover after it is not
    assert _same_verdict(holed, [((1, 1, 1), (1, 1, 1)),
                                 ((1, 0, 0), (1, 1, 1))], 0) == (
        "interval [(1, 0, 0), (1, 1, 1)] leaves the poset at (1, 1, 0)")
    # the plain partition of the holed poset into singletons passes
    assert _same_verdict(holed, [(u, u) for u in holed.elements], 0) == ""


def test_verify_partition_builds_no_search_machinery():
    """The checker shares nothing with the search: checking a certificate
    of a fresh poset leaves it without a searcher."""
    cert = sdepth_ideal(maximal_power(4, 2))
    fresh = maximal_power_poset(4, 2)
    assert verify_certificate(fresh, cert.partition, cert.s)
    assert not verify_partition(fresh, IntervalPartition(
        cert.partition.intervals[1:]), cert.s)
    assert not hasattr(fresh, "_searcher")


def test_brute_force_agreement_on_power_posets():
    for (n, k) in [(2, 1), (2, 2), (3, 1)]:
        p = maximal_power_poset(n, k)
        assert sdepth_poset(p).s == brute_force_sdepth(p.elements, p.g)


# I = (x1 x2^2, x1^2 x2) and J = (x1^3 x2^3) walk the sub-box [(1, 1),
# (3, 3)] of codes 3 (u1 - 1) + (u2 - 1), so each tuple below has the code
# of an element although it lies outside the sub-box: (2, 0) that of
# (1, 3), (1, 4) that of (2, 1), (3, -1) that of (2, 2), and (2,) and
# (1, 3, 0) that of (1, 3) when the coordinates are zipped with the
# strides.
_SHIFTED = (minimalize([(1, 2), (2, 1)], 2), minimalize([(3, 3)], 2))
_ALIASES = [(2, 0), (1, 4), (3, -1), (2,), (1, 3, 0)]


def test_checker_rejects_endpoints_outside_the_sub_box():
    """A bottom or a top outside the sub-box [lo, g] whose code names an
    element is no element: the in-box test comes before the code, so the
    checker gives the per-cell oracle's reason."""
    poset = build_poset(*_SHIFTED)
    assert poset._lo == (1, 1) and poset.g == (3, 3)
    cert = sdepth_poset(poset)
    pairs = [(iv.bottom, iv.top) for iv in cert.partition]
    origin = sum(map(operator.mul, poset._lo, poset.strides))
    for alias in _ALIASES:
        code = sum(map(operator.mul, alias, poset.strides)) - origin
        assert code in poset.codes and alias not in poset
        for k, (b, t) in enumerate(pairs):
            for edited in ((alias, t), (b, alias)):
                tampered = pairs[:k] + [edited] + pairs[k + 1:]
                reason = _same_verdict(poset, tampered, cert.s)
                assert reason.endswith("is not a poset element")


def _shifted_quotients():
    """Random I/J with lo != 0 and, on the axes in `flat`, one-cell sides:
    every generator of I and J has the base exponent there."""
    n = st.integers(2, 3)
    return n.flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 2), min_size=n, max_size=n),
        st.sets(st.integers(0, n - 1), max_size=n - 1),
        st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                 min_size=1, max_size=3),
        st.lists(st.lists(st.integers(0, 2), min_size=n, max_size=n),
                 min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(_shifted_quotients(), st.randoms(use_true_random=False))
def test_checker_agrees_with_the_per_cell_oracle_on_shifted_quotients(
        quotient, rng):
    """Certificates of random I/J with lo != 0 and one-cell sides, and
    tampered copies with edits inside and outside the sub-box: the same
    verdict and reason as the per-cell oracle."""
    base, flat, num_offsets, den_offsets = quotient
    n = len(base)

    def lift(under, row):
        return tuple(u + (0 if j in flat else e)
                     for j, (u, e) in enumerate(zip(under, row)))

    num = minimalize([lift(base, row) for row in num_offsets], n)
    den = minimalize([lift(u, row) for u, row in zip(
        itertools.cycle(num.generators), den_offsets)], n)
    poset = build_poset(num, den)
    assume(len(poset) > 0)
    assert all(poset.dims[j] == 1 for j in flat)
    cert = sdepth_poset(poset)
    pairs = [(iv.bottom, iv.top) for iv in cert.partition]
    assert _same_verdict(poset, pairs, cert.s) == ""
    for tampered, s in _tampered_pairs(poset, pairs, cert.s, rng):
        _same_verdict(poset, tampered, s)
    lo, g = poset._lo, poset.g
    k, j = rng.randrange(len(pairs)), rng.randrange(n)
    b, t = pairs[k]
    for edited in ((b[:j] + (lo[j] - 1,) + b[j + 1:], t),
                   (b, t[:j] + (g[j] + 1,) + t[j + 1:]), (b[:-1], t)):
        _same_verdict(poset, pairs[:k] + [edited] + pairs[k + 1:], cert.s)


def test_sdepth_and_its_checks_decode_no_element_tuples(monkeypatch):
    """Search, certificate and the checks work on codes: after
    `sdepth_poset` and `verify_certificate` on m in 8 variables, and after
    the Janet decomposition check on its cube poset, no poset holds its
    element tuples: each holds what `CharPoset.__init__` set, its mask and
    its searcher."""
    poset = build_poset(maximal_power(8, 1))
    cert = sdepth_poset(poset)
    assert verify_certificate(poset, cert.partition, cert.s)
    checked = []
    original = partitions.verify_partition

    def spy(cube, partition, s):
        checked.append(cube)
        return original(cube, partition, s)

    monkeypatch.setattr(partitions, "verify_partition", spy)
    ideal = minimalize([(2, 1, 0), (0, 2, 1), (1, 0, 2)], 3)
    cap = sum(default_box(unit_ideal(3), ideal))
    assert verify_stanley_decomposition(unit_ideal(3), ideal,
                                        janet_decomposition(ideal), cap)
    cube = checked[0]
    cube_cert = sdepth_poset(cube)
    assert verify_certificate(cube, cube_cert.partition, cube_cert.s)
    for p in (poset, cube):
        built = vars(CharPoset(p.numerator, p.denominator, p.g))
        assert vars(p).keys() <= built.keys() | {"mask", "_searcher"}


def test_lookups_and_the_sdepth_path_read_one_element_mask():
    """`counting_prune`, `in`, `position` and `rho` test membership by the
    in-box test and the codes: on m in 8 variables they decode no element
    tuple, and the built poset holds what `CharPoset.__init__` set.  After
    `sdepth_poset` the search reads the poset's mask itself, which the
    checker reads too, so the sdepth path builds it once."""
    poset = build_poset(maximal_power(8, 1))
    built = vars(CharPoset(poset.numerator, poset.denominator, poset.g))
    assert vars(poset).keys() == built.keys()
    g, x1 = poset.g, (1,) + (0,) * 7
    assert g in poset and x1 in poset and (0,) * 8 not in poset
    assert (poset.position(x1), poset.position(g)) == (127, 254)
    assert (poset.rho(x1), poset.rho(g)) == (1, 8)
    assert [counting_prune(poset, s, map(poset.monomial, poset.codes))
            for s in range(9)] == [True] * 5 + [False] * 4
    assert "elements" not in vars(poset)
    fresh = build_poset(maximal_power(8, 1))
    cert = sdepth_poset(fresh)
    assert partitions._get_searcher(fresh).full_mask is fresh.mask
    assert verify_certificate(fresh, cert.partition, cert.s)
    assert "elements" not in vars(fresh)
