"""Exact arithmetic on monomials and monomial ideals.

Monomials are plain tuples of nonnegative exponents of a fixed arity n
(the ambient ring has variables x1..xn).  Ideals are stored by their
unique minimal generating antichain, canonically ordered, so two equal
ideals compare equal and serialize identically.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import namedtuple

Monomial = tuple[int, ...]

# Per-coordinate exponent cap for validated inputs.  Boxes beyond this are
# unsearchable anyway; the cap keeps parsed data sane.
DEFAULT_EXPONENT_CAP = 2**15 - 1
# Arity cap for parsed inputs: a few bytes can name a variable x99999999999,
# and every generator is one tuple of that length.
DEFAULT_ARITY_CAP = 2**15 - 1


class ArityMismatch(ValueError):
    """Raised when operands live in polynomial rings of different arity."""


def as_monomial(exponents, arity: int | None = None) -> Monomial:
    """Validate and normalize an exponent sequence into a Monomial.  One
    range test by `min` and `max` clears a valid one; the exponents are
    walked one by one only to name the first bad one."""
    m = tuple(map(int, exponents))
    if arity is not None and len(m) != arity:
        raise ArityMismatch(f"expected arity {arity}, got {len(m)}")
    if m and (min(m) < 0 or max(m) > DEFAULT_EXPONENT_CAP):
        for e in m:
            if e < 0:
                raise ValueError(f"negative exponent in {m}")
            if e > DEFAULT_EXPONENT_CAP:
                raise ValueError(
                    f"exponent {e} exceeds cap {DEFAULT_EXPONENT_CAP}")
    return m


def _check_arity(a: int, b: int) -> None:
    if a != b:
        raise ArityMismatch(f"arity mismatch: {a} vs {b}")


def divides(u: Monomial, v: Monomial) -> bool:
    """True iff u | v, i.e. u_j <= v_j for every coordinate."""
    _check_arity(len(u), len(v))
    return all(a <= b for a, b in zip(u, v))


def lcm(u: Monomial, v: Monomial) -> Monomial:
    _check_arity(len(u), len(v))
    return tuple(max(a, b) for a, b in zip(u, v))


def mul(u: Monomial, v: Monomial) -> Monomial:
    _check_arity(len(u), len(v))
    return tuple(a + b for a, b in zip(u, v))


def degrevlex_key(u: Monomial):
    """Sort key giving ascending degrevlex order (x2^2 < x1x2 < x1^2)."""
    return (sum(u), tuple(map(operator.neg, reversed(u))))


class MonomialIdeal:
    """A monomial ideal, stored by its minimal generating antichain.

    The zero ideal has no generators; the unit ideal is generated by the
    unit monomial (0,...,0).  Generators are kept in ascending degrevlex
    order so all derived output is reproducible byte for byte.  An ideal
    is immutable and compares and hashes by its arity and generators.
    """

    __slots__ = ("arity", "generators")

    def __init__(self, arity: int, generators: tuple[Monomial, ...] = ()):
        if arity < 1:
            raise ValueError(f"arity must be >= 1, got {arity}")
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "generators",
                           minimal_antichain(generators, arity))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        """Pickle and copy through the constructor, as the slots refuse
        the assignment by which they would restore an ideal's state."""
        return MonomialIdeal, (self.arity, self.generators)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.arity, self.generators) == (other.arity, other.generators)

    def __hash__(self):
        return hash((self.arity, self.generators))

    def __repr__(self):
        return (f"MonomialIdeal(arity={self.arity!r}, "
                f"generators={self.generators!r})")

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and sum(self.generators[0]) == 0

    def __iter__(self):
        return iter(self.generators)


def minimal_antichain(gens, arity: int) -> tuple[Monomial, ...]:
    """Reduce a generator collection to its divisibility-minimal antichain.
    The pool is a set in degree order, so each monomial is compared only
    with the kept generators of lower degree: two monomials of equal degree
    divide each other only when they are equal.  All have the same arity
    by `as_monomial`, so the test needs no arity check."""
    pool = sorted({as_monomial(g, arity) for g in gens}, key=degrevlex_key)
    kept: list[Monomial] = []
    lower: list[Monomial] = []
    degree = None
    for g in pool:
        if sum(g) != degree:
            degree, lower = sum(g), kept[:]
        if not any(all(map(operator.le, h, g)) for h in lower):
            kept.append(g)
    return tuple(kept)


def minimalize(gens, arity: int) -> MonomialIdeal:
    """The ideal generated by `gens`, with redundant generators dropped."""
    return MonomialIdeal(arity, tuple(tuple(g) for g in gens))


def zero_ideal(arity: int) -> MonomialIdeal:
    return MonomialIdeal(arity, ())


def unit_ideal(arity: int) -> MonomialIdeal:
    return MonomialIdeal(arity, ((0,) * arity,))


def contains(ideal: MonomialIdeal, u: Monomial) -> bool:
    """Membership test: true iff some generator divides u."""
    _check_arity(len(u), ideal.arity)
    return any(divides(g, u) for g in ideal.generators)


def ideal_product(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_arity(i.arity, j.arity)
    gens = [mul(f, g) for f in i.generators for g in j.generators]
    return minimalize(gens, i.arity)


def ideal_intersection(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _check_arity(i.arity, j.arity)
    gens = [lcm(f, g) for f in i.generators for g in j.generators]
    return minimalize(gens, i.arity)


def saturate_variable(ideal: MonomialIdeal, j: int) -> MonomialIdeal:
    """(I : x_j^infinity): delete the j-th exponent of every generator.

    `j` is 1-based, matching the variable names x1..xn.
    """
    if not 1 <= j <= ideal.arity:
        raise IndexError(f"variable index {j} out of range 1..{ideal.arity}")
    pos = j - 1
    gens = [g[:pos] + (0,) + g[pos + 1:] for g in ideal.generators]
    return minimalize(gens, ideal.arity)


def saturate(ideal: MonomialIdeal) -> MonomialIdeal:
    """Total saturation (I : m^infinity) as the intersection of the
    per-variable saturations, folded one at a time into the unit ideal.
    Zero saturates to zero, the unit ideal to itself.  Every per-variable
    saturation contains I, so once the fold reaches I it stays there, and
    it stops.  When a variable x_j occurs in no generator,
    (I : x_j^infinity) is I, so the saturation is I with no fold.  When
    some generator is a pure power of x_j, (I : x_j^infinity) is the unit
    ideal and leaves the fold as it is, so it is skipped; when every
    variable has one, the fold stays the unit ideal."""
    n, gens = ideal.arity, ideal.generators
    if ideal.is_zero or not all(map(any, zip(*gens))):
        return ideal
    powers = {g.index(max(g)) for g in gens if g.count(0) == n - 1}
    result = unit_ideal(n)
    for j in range(n):
        if result == ideal:
            break
        if j not in powers:
            result = ideal_intersection(result, saturate_variable(ideal, j + 1))
    return result


def maximal_power(arity: int, k: int) -> MonomialIdeal:
    """The k-th power of the maximal ideal (x1,...,xn): generated by all
    monomials of total degree exactly k, one per multiset of k variables."""
    if arity < 1:
        raise ValueError(f"arity must be >= 1, got {arity}")
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    gens = []
    for variables in itertools.combinations_with_replacement(range(arity), k):
        g = [0] * arity
        for j in variables:
            g[j] += 1
        gens.append(g)
    ideal = minimalize(gens, arity)
    assert len(ideal.generators) == math.comb(arity + k - 1, arity - 1)
    return ideal


def num_min_gens(ideal: MonomialIdeal) -> int:
    """Cardinality of the minimal generating antichain."""
    return len(ideal.generators)


class QuotientPresentation(namedtuple("QuotientPresentation",
                                      "numerator denominator")):
    """A quotient module I/J of two monomial ideals with J contained in I.

    S/I is presented with the unit ideal as numerator and I as denominator.
    """

    __slots__ = ()

    def __new__(cls, numerator: MonomialIdeal, denominator: MonomialIdeal):
        _check_arity(numerator.arity, denominator.arity)
        for v in denominator.generators:
            if not contains(numerator, v):
                raise ValueError(
                    f"denominator generator {v} is not in the numerator ideal")
        return super().__new__(cls, numerator, denominator)

    @property
    def arity(self) -> int:
        return self.numerator.arity
