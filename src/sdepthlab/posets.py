"""The finite characteristic poset of a quotient of monomial ideals.

For monomial ideals J <= I and a box corner g dominating all generators,
the poset holds every monomial u with u | x^g that lies in I but not in J,
ordered by divisibility.  Interval partitions of this poset compute the
Stanley depth of I/J.

The rank rho(u) counts coordinates where u meets the box ceiling; for the
k-th power of the maximal ideal with g = (k,...,k) this is the number of
variables x_j with x_j^k | u.  Level sizes of that poset also have a
closed inclusion-exclusion form (`alpha_formula`), checked here against
plain enumeration (`alpha_enumerate`).

Every element of I is a multiple of lo, the componentwise minimum of the
generators of I, and so is every monomial between two elements.  The poset
build therefore walks only the sub-box [lo, g], by dynamic programming over
its mixed-radix cell codes: a cell is in an ideal iff it is a generator or
a cell one step below it is in the ideal.  The build keeps the codes of the
elements only, read off the membership bytes in one pass of C loops that
allocates nothing per cell.  The search and the certificate checker work
on those codes and on the one element mask built from them (`CharPoset.mask`),
where an interval is a shifted box shape (`partitions`), and decode a
monomial only where they report one (`CharPoset.monomials`).  The decoded
element tuples (`CharPoset.elements`) are built on first use, for callers
outside the engine.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import sys

from .monomials import (
    Monomial,
    MonomialIdeal,
    QuotientPresentation,
    divides,
    maximal_power,
    zero_ideal,
)


def alpha_formula(n: int, k: int, d: int) -> int:
    """Closed-form count of degree-d monomials dividing (x1...xn)^k with
    degree at least k: an alternating sum over the number i of coordinates
    forced past the ceiling, C(n, i) * C(n + d - i(k+1) - 1, n - 1).  The
    second factor counts degree-(d - i(k+1)) monomials, so it is nonzero
    only for i <= d // (k+1), and the sum stops there."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if not k <= d <= k * n:
        raise ValueError(f"degree {d} outside range [{k}, {k * n}]")
    total = 0
    for i in range(min(n, d // (k + 1)) + 1):
        term = math.comb(n, i) * math.comb(n + d - i * (k + 1) - 1, n - 1)
        total += term if i % 2 == 0 else -term
    return total


def alpha_enumerate(n: int, k: int, d: int) -> int:
    """Independent oracle for `alpha_formula`: count exponent vectors with
    every coordinate <= k and coordinate sum d, by explicit enumeration."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    return sum(1 for v in itertools.product(range(k + 1), repeat=n)
               if sum(v) == d)


def default_box(numerator: MonomialIdeal,
                denominator: MonomialIdeal) -> Monomial:
    """Componentwise max over all generators of both ideals (the lcm
    exponent), or zeros when there are none, in one pass of C loops.  Any
    larger box computes the same Stanley depth, it only grows the search
    space."""
    gens = numerator.generators + denominator.generators
    return tuple(map(max, zip(*gens))) if gens else (0,) * numerator.arity


def check_indexable(dims) -> None:
    """Refuse with ValueError a box with the side lengths `dims` that has
    more cells than an index can count.  The message names the number of
    axes, not the sides, as there can be thousands of them."""
    if math.prod(dims) > sys.maxsize:
        raise ValueError(f"the box of {len(dims)} axes has too many cells "
                         "to index")


def _weights(dims) -> tuple[int, ...]:
    """Mixed-radix weights of a box with the given side lengths, the first
    coordinate most significant."""
    weights = [1] * len(dims)
    for j in range(len(dims) - 2, -1, -1):
        weights[j] = weights[j + 1] * dims[j + 1]
    return tuple(weights)


def _spread(cells: bytearray, dims) -> None:
    """OR each cell of a box, indexed by mixed-radix code, into every cell
    above it in the componentwise order, in place.  One prefix pass per
    axis suffices: a cell above another is reached by raising one
    coordinate at a time."""
    size = len(cells)
    for stride, dim in zip(_weights(dims), dims):
        block = stride * dim
        for base in range(0, size, block):
            for c in range(base + stride, base + block):
                cells[c] |= cells[c - stride]


def code_mask(codes) -> int:
    """The mask with a bit at each cell code of the sequence `codes`, in
    any order, repeats allowed: one binary digit per cell, reversed to put
    the highest code first.  Base 2 parses in linear time, where OR-ing
    bits into an int one at a time is quadratic.  The digits are set by a
    plain loop: on CPython 3.11 a `map` over `bytearray.__setitem__` takes
    2.5 times as long, as each item pays for a call through the slot
    wrapper."""
    digits = bytearray(b"0") * (max(codes, default=0) + 1)
    for c in codes:
        digits[c] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


class CharPoset:
    """Characteristic poset of I/J inside the divisor box of g.

    Elements are kept sorted by their dense mixed-radix code (x1 is the
    most significant digit), which coincides with lexicographic order on
    exponent tuples and is a linear extension of divisibility.  They are
    found by the membership DP over the sub-box [lo, g] (module docstring).
    `codes[i]` is the cell code of element i in that sub-box, whose side
    lengths are `dims` and whose axis strides are `strides`; `monomials`
    decodes a sequence of codes.  The build keeps only the codes, read off
    the membership bytes.  `mask`, the element mask read by the search and
    the checker, is built from them on first use; so is `elements`, the
    decoded tuples, which nothing in the engine reads and which serve
    callers outside it.  `code` encodes a monomial once and bisects the
    codes for it, for `in`, `rho` and `partitions.counting_prune`.  A
    sub-box of more cells than an index can count is refused by
    `check_indexable` before any allocation.
    """

    def __init__(self, numerator: MonomialIdeal, denominator: MonomialIdeal,
                 g: Monomial):
        self.arity = numerator.arity
        self.numerator = numerator
        self.denominator = denominator
        self.g = g
        gens = numerator.generators
        self._lo = tuple(map(min, zip(*gens))) if gens else tuple(g)
        self.dims = tuple(b - a + 1 for a, b in zip(self._lo, g))
        check_indexable(self.dims)
        self.strides = _weights(self.dims)
        self._origin = sum(map(operator.mul, self._lo, self.strides))
        # Membership DP: bit 0 marks I, bit 1 marks J, one byte per cell.  A
        # generator seeds lcm(gen, lo), its least multiple inside the sub-box.
        cells = bytearray(math.prod(self.dims))
        for flag, ideal in ((1, numerator), (2, denominator)):
            for gen in ideal.generators:
                seed = tuple(map(max, gen, self._lo))
                if all(a <= b for a, b in zip(seed, g)):
                    cells[self._sub_code(seed)] |= flag
        _spread(cells, self.dims)
        # the codes of the cells flagged I alone, in one pass of C loops
        self.codes: tuple[int, ...] = tuple(itertools.compress(
            itertools.count(), map((1).__eq__, cells)))

    @functools.cached_property
    def mask(self) -> int:
        """The element mask, a bit at each element's code, built on first
        use by `code_mask`."""
        return code_mask(self.codes)

    @functools.cached_property
    def elements(self) -> tuple[Monomial, ...]:
        """The elements in code order, decoded from the codes on first use."""
        return tuple(self.monomials(self.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, u) -> bool:
        return self.code(u) is not None

    def code(self, u) -> int | None:
        """The cell code of u, or None when u is no element: the in-box
        test lo <= u <= g, as outside the sub-box a code can alias an
        element's, then a bisect on `codes`, which copies nothing where a
        bit test of `mask` copies the mask above the bit."""
        u = tuple(u)
        if len(u) != self.arity or not all(
                map(operator.le, self._lo + u, u + self.g)):
            return None
        code = self._sub_code(u)
        i = bisect.bisect_left(self.codes, code)
        return code if i < len(self.codes) and self.codes[i] == code else None

    def _sub_code(self, u: Monomial) -> int:
        """Mixed-radix code of u in the sub-box [lo, g], x1 most
        significant, so code order is lex order: the weighted sum of its
        exponents less that of lo."""
        return sum(map(operator.mul, u, self.strides)) - self._origin

    def monomials(self, codes) -> list[Monomial]:
        """The cells of the sub-box [lo, g] with the codes of the sequence
        `codes`, as monomials, in order: each axis' exponents in one
        comprehension over the codes, then one zip."""
        return list(zip(*[[a + c // t % d for c in codes] for a, t, d
                          in zip(self._lo, self.strides, self.dims)]))

    def rho(self, u: Monomial) -> int:
        """Number of coordinates where u meets the box ceiling g."""
        u = tuple(u)
        if u not in self:
            raise KeyError(f"{u} is not a poset element")
        return sum(1 for a, b in zip(u, self.g) if a == b)


def build_poset(numerator: MonomialIdeal,
                denominator: MonomialIdeal | None = None,
                g: Monomial | None = None) -> CharPoset:
    """Construct the characteristic poset of numerator/denominator.

    The denominator defaults to the zero ideal (poset of the ideal
    itself); g defaults to the componentwise max over all generators.
    Raises ValueError when a supplied g fails to dominate a generator or
    when the sub-box that `CharPoset` walks is too large to index.
    """
    if denominator is None:
        denominator = zero_ideal(numerator.arity)
    QuotientPresentation(numerator, denominator)  # validates J <= I
    if g is None:
        g = default_box(numerator, denominator)
    else:
        g = tuple(int(e) for e in g)
        if len(g) != numerator.arity:
            raise ValueError(f"box has arity {len(g)}, ideals have {numerator.arity}")
        for gen in numerator.generators + denominator.generators:
            if not divides(gen, g):
                raise ValueError(f"generator {gen} does not divide the box corner {g}")
    return CharPoset(numerator, denominator, g)


def maximal_power_poset(n: int, k: int) -> CharPoset:
    """Characteristic poset of the k-th power of the maximal ideal, with
    its canonical box g = (k,...,k)."""
    return build_poset(maximal_power(n, k), g=(k,) * n)
