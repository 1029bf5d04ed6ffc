"""Oracle tests for the bitmask kernels of the poset build and the search:
membership DP, closure masks, interval masks, candidate order, the popcount
counting prune and the bounded failed-state memo."""

import hashlib
import itertools
import random

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
    build_poset,
    contains,
    maximal_power,
    minimalize,
    sdepth_ideal,
    sdepth_quotient,
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


def test_closure_interval_and_candidate_kernels(kernel_posets):
    """Closure masks against plain divisibility, interval masks against box
    enumeration (mask or None), and the multiples against the divisibility
    filter in (-deg, lex) order."""
    for p in kernel_posets:
        searcher = partitions._get_searcher(p)
        below, above = p.closure_masks()
        elems = p.elements
        index = {u: i for i, u in enumerate(elems)}
        divides = [[divides_raw(u, v) for v in elems] for u in elems]
        for i, u in enumerate(elems):
            multiples = [j for j in range(len(elems)) if divides[i][j]]
            assert above[i] == sum(1 << j for j in multiples)
            assert below[i] == sum(1 << j for j in range(len(elems))
                                   if divides[j][i])
            assert searcher._multiples(i) == sorted(
                multiples, key=lambda j: (-sum(elems[j]), elems[j]))
            for j in multiples:
                cell = box_interval(u, elems[j])
                expected = (sum(1 << index[w] for w in cell)
                            if all(w in index for w in cell) else None)
                assert searcher.interval_mask(i, j) == expected


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
                got = searcher.budget_feasible(uncovered, s)
                assert got == _budget_feasible_oracle(p, uncovered, s)
                pruned += not got
    assert pruned > 100  # the comparison covers both outcomes


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


MIDHARD = minimalize([(0, 2, 0, 1, 0), (1, 1, 2, 0, 0), (2, 2, 1, 0, 1)], 5)


def _digest(cert) -> str:
    pairs = [(iv.bottom, iv.top) for iv in cert.partition]
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


@pytest.mark.parametrize("solve, s, nodes, digest", [
    (lambda: sdepth_ideal(maximal_power(8, 1)), 4, 54, "da83f919a3b863cc"),
    (lambda: sdepth_ideal(maximal_power(5, 2)), 2, 146, "62bc2e990d604e60"),
    (lambda: sdepth_ideal(maximal_power(6, 2)), 2, 391, "aa6778322cfb5477"),
    (lambda: sdepth_quotient(unit_ideal(5), MIDHARD), 2, 4280,
     "a766e730ecb2df04"),
], ids=["m-n8", "m2-n5", "m2-n6", "midhard-S/I"])
def test_search_is_deterministic(solve, s, nodes, digest):
    """Node counts do not depend on the machine: any change of the search
    order, the prunes or the memo shows here, as does any other partition
    (the digest covers the interval list in order)."""
    cert = solve()
    assert (cert.s, cert.stats.nodes, _digest(cert)) == (s, nodes, digest)


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
