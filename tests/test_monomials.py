import copy
import itertools
import pickle
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruteforce import (
    as_monomial_walk,
    brute_force_saturation_members,
    degrevlex_key_walk,
    maximal_power_filter,
    member_of_ideal,
)
from sdepthlab import (
    ArityMismatch,
    MonomialIdeal,
    QuotientPresentation,
    as_monomial,
    contains,
    divides,
    ideal_intersection,
    ideal_product,
    lcm,
    maximal_power,
    minimalize,
    num_min_gens,
    saturate,
    saturate_variable,
    unit_ideal,
    zero_ideal,
)
from sdepthlab.monomials import (
    DEFAULT_EXPONENT_CAP,
    degrevlex_key,
    minimal_antichain,
)


def test_divides():
    assert divides((1, 2), (2, 2))
    assert divides((1, 2), (1, 2))
    assert not divides((1, 0), (0, 5))
    with pytest.raises(ArityMismatch):
        divides((1,), (1, 2))


def test_lattice_ops():
    assert lcm((1, 0), (0, 2)) == (1, 2)
    with pytest.raises(ArityMismatch):
        lcm((1,), (1, 2))


def test_as_monomial_validation():
    assert as_monomial([1, 2]) == (1, 2)
    with pytest.raises(ValueError):
        as_monomial([-1, 0])
    with pytest.raises(ValueError):
        as_monomial([2**15])
    with pytest.raises(ArityMismatch):
        as_monomial([1, 0], arity=3)


_exponent = st.one_of(
    st.integers(-3, 3),
    st.integers(DEFAULT_EXPONENT_CAP - 2, DEFAULT_EXPONENT_CAP + 2),
    st.integers(),
    st.booleans(), st.floats(), st.sampled_from(["2", "-1", "x", ""]))


def _outcome(function, *args):
    """The value `function` returns, or the type and message it raises."""
    try:
        return function(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_exponent, max_size=5), st.none() | st.integers(0, 5))
def test_canonicalising_matches_the_walks(exponents, arity):
    """`as_monomial` and `degrevlex_key` against the walks over the
    exponents that they replace: the same monomial, or the same error type
    with the same message, and the same sort key."""
    assert (_outcome(as_monomial, exponents, arity)
            == _outcome(as_monomial_walk, exponents, arity))
    ints = tuple(e for e in exponents if type(e) is int)
    assert degrevlex_key(ints) == degrevlex_key_walk(ints)


def test_minimalize():
    assert minimalize([(1, 0), (1, 1)], 2).generators == ((1, 0),)
    assert minimalize([], 2).is_zero
    kept = minimalize([(2, 0), (1, 1), (0, 2)], 2)
    assert len(kept.generators) == 3


def test_minimalize_is_antichain_and_idempotent():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(0, 3) for _ in range(n))
                for _ in range(rng.randint(0, 6))]
        ideal = minimalize(gens, n)
        for u, v in itertools.combinations(ideal.generators, 2):
            assert not divides(u, v) and not divides(v, u)
        assert minimalize(ideal.generators, n) == ideal


def _quadratic_antichain(gens):
    """The minimal generators by definition: the distinct monomials that no
    other one divides, in ascending degrevlex order."""
    pool = set(gens)
    kept = [g for g in pool
            if not any(h != g and divides(h, g) for h in pool)]
    return tuple(sorted(kept, key=degrevlex_key))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*(st.integers(0, 3),) * n), max_size=12))))
def test_minimal_antichain_matches_the_quadratic_definition(case):
    n, gens = case
    assert minimal_antichain(gens, n) == _quadratic_antichain(gens)


def test_ideal_equality_is_canonical():
    a = MonomialIdeal(2, ((1, 0), (1, 1), (1, 2)))
    b = MonomialIdeal(2, ((1, 0),))
    assert a == b
    assert a.generators == ((1, 0),)


def test_ideal_is_an_immutable_value():
    """An ideal compares, hashes and prints by its arity and canonical
    generators, as the frozen record it replaced did; it is no tuple, so
    it never equals one, and it iterates its generators.  Assignment is
    refused, and copies and pickles come back equal."""
    a = MonomialIdeal(2, ((1, 0), (0, 1), (1, 1)))
    b = minimalize([(0, 1), (1, 0)], 2)
    assert a == b and hash(a) == hash(b) == hash((2, ((0, 1), (1, 0))))
    assert repr(a) == "MonomialIdeal(arity=2, generators=((0, 1), (1, 0)))"
    assert a != MonomialIdeal(3, ((0, 1, 0), (1, 0, 0)))
    assert a != (2, ((0, 1), (1, 0)))
    assert list(a) == [(0, 1), (1, 0)] and len({a, b}) == 1
    assert MonomialIdeal(arity=2).is_zero
    with pytest.raises(ValueError):
        MonomialIdeal(0)
    with pytest.raises(AttributeError):
        a.arity = 3
    with pytest.raises(AttributeError):
        del a.generators
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is MonomialIdeal and twin == a


def test_contains():
    assert contains(minimalize([(1, 0)], 2), (1, 1))
    assert not contains(minimalize([(2, 0), (1, 1)], 2), (1, 0))
    assert not contains(zero_ideal(2), (3, 3))
    assert contains(unit_ideal(2), (0, 0))


def test_sum_product_intersection():
    x1 = minimalize([(1, 0)], 2)
    x2 = minimalize([(0, 1)], 2)
    assert ideal_intersection(x1, x2).generators == ((1, 1),)
    assert ideal_product(x1, x2).generators == ((1, 1),)
    assert ideal_intersection(x1, unit_ideal(2)) == x1


def test_saturate_variable():
    ideal = minimalize([(2, 0), (1, 1)], 2)
    assert saturate_variable(ideal, 1) == unit_ideal(2)
    assert saturate_variable(ideal, 2) == minimalize([(1, 0)], 2)
    untouched = minimalize([(0, 2)], 2)
    assert saturate_variable(untouched, 1) == untouched
    with pytest.raises(IndexError):
        saturate_variable(ideal, 3)


def test_saturate():
    assert saturate(minimalize([(2, 0), (1, 1)], 2)) == minimalize([(1, 0)], 2)
    principal = minimalize([(1, 1)], 2)
    assert saturate(principal) == principal
    assert saturate(maximal_power(3, 2)) == unit_ideal(3)
    assert saturate(zero_ideal(2)).is_zero
    assert saturate(unit_ideal(2)).is_unit


def test_saturate_against_socle_oracle():
    # membership in (I : m^inf) agrees with pushing by a large power
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        ideal = minimalize(gens, n)
        sat = saturate(ideal)
        cap = 4
        oracle = brute_force_saturation_members(ideal.generators, n, cap, power=6)
        for u in itertools.product(range(cap + 1), repeat=n):
            assert contains(sat, u) == (u in oracle), (ideal.generators, u)
        assert all(contains(sat, g) for g in ideal.generators)  # I <= sat(I)
        assert saturate(sat) == sat  # idempotent


def _saturate_fold(ideal):
    """(I : m^inf) as the plain fold of the n per-variable saturations
    by intersection, with no early return."""
    result = saturate_variable(ideal, 1)
    for j in range(2, ideal.arity + 1):
        result = ideal_intersection(result, saturate_variable(ideal, j))
    return result


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*(st.integers(0, 3),) * n), max_size=5),
    st.sets(st.integers(0, n - 1)),
    st.dictionaries(st.integers(0, n - 1), st.integers(1, 3)))))
def test_saturate_matches_the_fold_of_per_variable_saturations(case):
    """`saturate` returns I at once when a variable occurs in no
    generator, and skips the saturation by x_j when a generator is a pure
    power of x_j.  The variables in `absent` are zeroed in every
    generator, so about half the ideals leave one out, and `powers` adds
    the pure power x_j^e for each of its items (j, e), so many ideals hold
    one, some one per variable.  Either way it equals the fold, which is
    I itself when a variable is left out and the unit ideal when every
    variable has a pure power."""
    n, gens, absent, powers = case
    gens = [tuple(0 if j in absent else e for j, e in enumerate(g))
            for g in gens]
    gens += [tuple(e if i == j else 0 for i in range(n))
             for j, e in powers.items()]
    ideal = minimalize(gens, n)
    assert saturate(ideal) == _saturate_fold(ideal)
    if not all(map(any, zip(*ideal.generators))):
        assert saturate(ideal) == ideal
    elif len(powers) == n:
        assert saturate(ideal) == unit_ideal(n)


def test_maximal_power():
    assert maximal_power(2, 1).generators == ((0, 1), (1, 0))
    assert num_min_gens(maximal_power(3, 2)) == 6
    assert maximal_power(2, 3).generators == (
        (0, 3), (1, 2), (2, 1), (3, 0))
    with pytest.raises(ValueError):
        maximal_power(0, 1)
    with pytest.raises(ValueError):
        maximal_power(2, 0)
    # against the filter over the whole box [0, k]^n
    for n in range(1, 7):
        for k in range(1, 5):
            ideal = maximal_power(n, k)
            assert ideal.arity == n
            assert sorted(ideal.generators) == maximal_power_filter(n, k)


def test_maximal_power_does_not_walk_the_box():
    """m in 22 variables has 22 generators; the filter over its box of
    2^22 cells took 1.1 s on a 2-core VM with CPython 3.11."""
    start = time.perf_counter()
    assert num_min_gens(maximal_power(22, 1)) == 22
    assert time.perf_counter() - start < 0.5


def test_num_min_gens():
    assert num_min_gens(maximal_power(4, 3)) == 20  # binom(6, 3)
    assert num_min_gens(minimalize([(1, 1)], 2)) == 1
    product = ideal_product(maximal_power(2, 1), minimalize([(1, 0)], 2))
    assert num_min_gens(product) == 2  # {x1^2, x1*x2}


def _random_ideal(rng, n):
    gens = [tuple(rng.randint(0, 2) for _ in range(n))
            for _ in range(rng.randint(1, 4))]
    return minimalize([g for g in gens if any(g)] or [(1,) * n], n)


def test_lattice_laws_on_random_ideals():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 3)
        a, b, c = (_random_ideal(rng, n) for _ in range(3))
        assert ideal_intersection(a, b) == ideal_intersection(b, a)
        assert ideal_intersection(ideal_intersection(a, b), c) == \
            ideal_intersection(a, ideal_intersection(b, c))
        assert ideal_intersection(a, a) == a
        # membership inclusions up to degree D = max gen degree + 2
        d = max(sum(g) for g in a.generators + b.generators) + 2
        for w in itertools.product(range(d + 1), repeat=n):
            if sum(w) > d:
                continue
            inter = contains(ideal_intersection(a, b), w)
            assert inter == (contains(a, w) and contains(b, w))


def test_quotient_presentation_requires_containment():
    with pytest.raises(ValueError):
        QuotientPresentation(minimalize([(2, 0)], 2), minimalize([(0, 1)], 2))
    q = QuotientPresentation(numerator=minimalize([(1, 0)], 2),
                             denominator=minimalize([(1, 1)], 2))
    assert q.arity == 2 and pickle.loads(pickle.dumps(q)) == q
    with pytest.raises(ArityMismatch):
        QuotientPresentation(unit_ideal(2), minimalize([(1,)], 1))


def test_generator_order_is_degrevlex():
    ideal = minimalize([(2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 1)], 3)
    assert ideal.generators == ((0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0))
