import itertools
import math
import operator
import random
import tracemalloc

import pytest

from bruteforce import product_walk_poset
from sdepthlab.posets import code_mask
from sdepthlab import (
    CharPoset,
    alpha_enumerate,
    alpha_formula,
    build_poset,
    default_box,
    maximal_power,
    maximal_power_poset,
    minimalize,
    unit_ideal,
    zero_ideal,
)


def test_build_poset_maximal_ideal():
    p = maximal_power_poset(2, 1)
    assert set(p.elements) == {(1, 0), (0, 1), (1, 1)}
    assert p.g == (1, 1)


def test_build_poset_square_power():
    p = maximal_power_poset(2, 2)
    counts = p.level_counts().counts
    assert counts == {2: 3, 3: 2, 4: 1}
    assert len(p) == 6


def test_build_poset_quotient_exclusion():
    p = build_poset(minimalize([(1, 0)], 2), minimalize([(1, 1)], 2),
                    g=(1, 1))
    assert p.elements == ((1, 0),)


def test_build_poset_default_box():
    ideal = minimalize([(2, 0), (0, 3)], 2)
    assert default_box(ideal, zero_ideal(2)) == (2, 3)
    p = build_poset(ideal)
    assert p.g == (2, 3)
    assert all(e in p for e in ideal.generators)


def test_build_poset_invalid_box():
    with pytest.raises(ValueError):
        build_poset(minimalize([(2, 0)], 2), g=(1, 1))
    with pytest.raises(ValueError):
        build_poset(minimalize([(1, 0)], 2), g=(1,))


def test_rho():
    p = maximal_power_poset(2, 1)
    assert p.rho((1, 1)) == 2
    p2 = maximal_power_poset(2, 2)
    assert p2.rho((2, 1)) == 1
    assert p2.rho((1, 1)) == 0
    with pytest.raises(KeyError):
        p2.rho((0, 1))


def test_rho_ceiling_characterization():
    p = maximal_power_poset(3, 2)
    for u in p.elements:
        assert (p.rho(u) == 3) == (u == (2, 2, 2))
    # degree-k generators: rank 0 except the pure powers which have rank 1
    for u in p.level(2):
        expected = 1 if u in {(2, 0, 0), (0, 2, 0), (0, 0, 2)} else 0
        assert p.rho(u) == expected


def test_levels():
    p = maximal_power_poset(2, 2)
    assert set(p.level(3)) == {(2, 1), (1, 2)}
    assert p.level(1) == ()
    assert p.level_counts().total == len(p)


def test_alpha_formula_boundary_values():
    for n in range(1, 6):
        for k in range(1, 5):
            assert alpha_formula(n, k, k) == math.comb(n + k - 1, n - 1)
            if k + 1 <= k * n:
                assert alpha_formula(n, k, k + 1) == \
                    math.comb(n + k, n - 1) - n
    assert alpha_formula(2, 1, 1) == 2
    assert alpha_formula(2, 1, 2) == 1


def test_alpha_formula_domain():
    with pytest.raises(ValueError):
        alpha_formula(2, 1, 0)
    with pytest.raises(ValueError):
        alpha_formula(2, 1, 3)
    with pytest.raises(ValueError):
        alpha_formula(0, 1, 1)


def test_alpha_enumerate():
    assert alpha_enumerate(3, 2, 6) == 1
    assert alpha_enumerate(3, 1, 2) == 3
    assert alpha_enumerate(3, 2, 7) == 0


def test_alpha_formula_equals_enumeration_small():
    for n in range(1, 5):
        for k in range(1, 4):
            for d in range(k, k * n + 1):
                assert alpha_formula(n, k, d) == alpha_enumerate(n, k, d)


def test_alpha_sum_identity():
    for n in range(1, 5):
        for k in range(1, 4):
            total = sum(alpha_formula(n, k, d) for d in range(k, k * n + 1))
            below = sum(math.comb(n + d - 1, n - 1) for d in range(k))
            assert total == (k + 1) ** n - below
            assert total == len(maximal_power_poset(n, k))


def test_poset_permutation_equivariance():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n))
                for _ in range(rng.randint(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        ideal = minimalize(gens, n)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = minimalize([tuple(g[perm[j]] for j in range(n))
                               for g in ideal.generators], n)
        p = build_poset(ideal)
        q = build_poset(permuted)
        mapped = {tuple(u[perm[j]] for j in range(n)) for u in p.elements}
        assert mapped == set(q.elements)
        for u in p.elements:
            image = tuple(u[perm[j]] for j in range(n))
            assert p.rho(u) == q.rho(image)


def test_code_order_is_lex_and_bijective():
    p = maximal_power_poset(2, 2)
    codes = list(p.codes)
    assert codes == sorted(codes)
    assert len(set(codes)) == len(p)
    # the codes are the mixed-radix codes of the elements in the sub-box
    # [lo, g], so distinct elements get distinct codes inside that box
    lo = tuple(map(min, zip(*p.elements)))
    assert all(0 <= c < math.prod(p.dims) for c in codes)
    assert codes == [sum((e - a) * w for e, a, w in zip(u, lo, p.strides))
                     for u in p.elements]
    assert list(p.elements) == sorted(p.elements)
    for i, u in enumerate(p.elements):
        assert p.position(u) == i


def test_dump_format():
    p = maximal_power_poset(2, 1)
    lines = p.dump().splitlines()
    assert lines[0] == "n=2 g=1,1 size=3"
    assert lines[1:] == ["0,1 deg=1 rho=1", "1,0 deg=1 rho=1",
                         "1,1 deg=2 rho=2"]


def test_empty_and_degenerate_posets():
    # S/S is the zero module: empty poset
    p = build_poset(maximal_power(2, 1), maximal_power(2, 1))
    assert len(p) == 0
    # S/0 has the single box monomial 1, with full rank
    q = build_poset(unit_ideal(2), zero_ideal(2))
    assert q.elements == ((0, 0),)
    assert q.rho((0, 0)) == 2


def test_poset_build_takes_a_byte_per_box_cell():
    """The membership DP keeps one byte of flags per cell of the walked
    sub-box: m/m^2 in 6 variables inside (5,...,5) walks all 6^6 cells but
    keeps only the 6 variables."""
    cells = 6 ** 6
    tracemalloc.start()
    try:
        poset = CharPoset(maximal_power(6, 1), maximal_power(6, 2), (5,) * 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(poset) == 6
    assert peak < 2 * cells


def _assert_no_element(p, u):
    """u is not in p, and `position` and `rho` raise KeyError naming it."""
    assert u not in p
    for lookup in (p.position, p.rho):
        try:
            lookup(u)
        except KeyError as error:
            assert error.args == (f"{u} is not a poset element",)
        else:
            raise AssertionError(f"{lookup.__name__} accepted {u}")


def _aliases(p, u):
    """Tuples outside the sub-box [lo, g] whose code, zipped with the
    strides, names the cell u: a unit carried into or borrowed from the
    next higher axis, so one coordinate falls below lo or above g; and u
    with a coordinate dropped or added."""
    n = len(u)
    for j in range(1, n):
        for carry in (1, -1):
            alias = list(u)
            alias[j - 1] += carry
            alias[j] -= carry * p.dims[j]
            yield tuple(alias), True
    yield u[:-1], False
    yield u + (0,), False


def _assert_matches_product_walk(p):
    found, cells = product_walk_poset(p.numerator.generators,
                                      p.denominator.generators, p.g)
    assert p.codes == tuple(c for c, _ in found)
    assert p.elements == tuple(u for _, u in found)
    assert p.mask == sum(1 << c for c, _ in found)
    assert [p.monomial(c) for c in range(len(cells))] == cells
    assert len(p) == len(found)
    index = {u: i for i, (_, u) in enumerate(found)}
    for u in cells:
        if u in index:
            assert u in p
            assert p.position(u) == index[u]
            assert p.rho(u) == sum(map(operator.eq, u, p.g))
        else:
            _assert_no_element(p, u)
    # the aliases of the least, a middle and the greatest element
    for i in {0, len(found) // 2, len(found) - 1} if found else ():
        u = found[i][1]
        for alias, same_code in _aliases(p, u):
            assert not same_code or p._sub_code(alias) == p._sub_code(u)
            _assert_no_element(p, alias)


def test_codes_elements_and_index_match_the_product_walk(small_corpus):
    """The codes read off the membership bytes, the element tuples and
    the element mask built from them, `monomial` on every cell of the
    sub-box, and `in`, `position` and `rho` on every cell and on tuples
    outside the sub-box that alias an element, against the product walk:
    S/I, I and I/J over the n <= 3 corpus, and the same in a box set with
    g."""
    posets = 0
    for ideal in small_corpus:
        n = ideal.arity
        shifted = minimalize([tuple(e + 1 for e in g)
                              for g in ideal.generators], n)
        for num, den, g in ((unit_ideal(n), ideal, None),
                            (ideal, zero_ideal(n), None),
                            (ideal, shifted, None),
                            (ideal, zero_ideal(n), (3,) * n)):
            if not num.is_zero:
                _assert_matches_product_walk(build_poset(num, den, g))
                posets += 1
    assert posets > 1000


def test_codes_match_the_product_walk_on_random_quotients():
    """Random I/J with 3 to 5 variables, where lo is rarely 0 and some
    sides have one cell, and random S/J in boxes larger than the default
    one."""
    rng = random.Random(20261019)
    for _ in range(150):
        n = rng.randint(3, 5)
        base = [rng.randint(0, 2) for _ in range(n)]
        flat = rng.sample(range(n), rng.randint(0, 2))
        gens = [[b + (0 if j in flat else rng.randint(0, 2))
                 for j, b in enumerate(base)]
                for _ in range(rng.randint(1, 3))]
        if not any(map(any, gens)):
            continue
        num = minimalize([tuple(u) for u in gens], n)
        den = minimalize([tuple(e + (0 if j in flat else rng.randint(0, 2))
                                for j, e in enumerate(u))
                          for u in num.generators], n)
        _assert_matches_product_walk(build_poset(num, den))
        g = tuple(e + rng.randint(0, 1) for e in default_box(num, den))
        _assert_matches_product_walk(build_poset(unit_ideal(n), num, g))


def test_poset_build_keeps_no_element_tuples():
    """The build holds the codes and no tuple per element: m in 12
    variables (4095 elements in 4096 cells) peaks within 48 bytes per
    element and 2 per cell, which the element tuples and their index
    alone would exceed several times over, and the poset holds only what
    `CharPoset.__init__` sets."""
    ideal = maximal_power(12, 1)
    tracemalloc.start()
    try:
        poset = build_poset(ideal)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(poset) == 4095
    built = vars(CharPoset(ideal, poset.denominator, poset.g))
    assert vars(poset).keys() == built.keys()
    assert peak < 48 * len(poset) + 2 * 2 ** 12


def test_code_mask_sets_one_bit_per_distinct_code():
    """`code_mask` against OR-ing the bits of the distinct codes, on
    codes out of order, repeated, a single code 0 and none at all; the
    element mask of a poset is the mask of its codes."""
    rng = random.Random(7)
    inputs = [[], [0], [0, 0], [5, 3, 5, 0], [1, 70, 70, 2, 64]]
    inputs += [[rng.randrange(300) for _ in range(rng.randrange(1, 40))]
               for _ in range(20)]
    for codes in inputs:
        assert code_mask(codes) == sum(1 << c for c in set(codes))
    poset = build_poset(minimalize([(1, 2, 0), (0, 1, 3)], 3))
    assert poset.mask == code_mask(poset.codes)
