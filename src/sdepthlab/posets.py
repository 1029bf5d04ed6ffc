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
build and the closure masks of the search therefore walk only the sub-box
[lo, g], by dynamic programming over its mixed-radix cell codes: a cell is
in an ideal iff it is a generator or a cell one step below it is in the
ideal, and a cell's closure mask is its own bit ORed with those of the
cells one step below (or above) it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .monomials import (
    Monomial,
    MonomialIdeal,
    QuotientPresentation,
    divides,
    maximal_power,
    zero_ideal,
)


def _binom(a: int, b: int) -> int:
    """Binomial coefficient, zero when a < b or a < 0."""
    if a < 0 or b < 0 or a < b:
        return 0
    return math.comb(a, b)


def alpha_formula(n: int, k: int, d: int) -> int:
    """Closed-form count of degree-d monomials dividing (x1...xn)^k with
    degree at least k: an alternating sum over how many coordinates are
    forced past the ceiling."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    if not k <= d <= k * n:
        raise ValueError(f"degree {d} outside range [{k}, {k * n}]")
    total = 0
    for i in range(n + 1):
        term = _binom(n, i) * _binom(n + d - i * (k + 1) - 1, n - 1)
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
    exponent).  Any larger box computes the same Stanley depth, it only
    grows the search space."""
    n = numerator.arity
    g = [0] * n
    for gen in numerator.generators + denominator.generators:
        for j, e in enumerate(gen):
            if e > g[j]:
                g[j] = e
    return tuple(g)


def _weights(dims) -> tuple[int, ...]:
    """Mixed-radix weights of a box with the given side lengths, the first
    coordinate most significant."""
    weights = [1] * len(dims)
    for j in range(len(dims) - 2, -1, -1):
        weights[j] = weights[j + 1] * dims[j + 1]
    return tuple(weights)


def _spread(cells: list[int], dims, upward: bool) -> None:
    """OR each cell of a box, indexed by mixed-radix code, into every cell
    above it (upward) or below it (downward) in the componentwise order, in
    place.  One prefix pass per axis suffices: a cell above another is
    reached by raising one coordinate at a time."""
    size = len(cells)
    for stride, dim in zip(_weights(dims), dims):
        block = stride * dim
        for base in range(0, size, block):
            if upward:
                for c in range(base + stride, base + block):
                    cells[c] |= cells[c - stride]
            else:
                for c in range(base + block - stride - 1, base - 1, -1):
                    cells[c] |= cells[c + stride]


@dataclass(frozen=True)
class LevelTable:
    """Per-degree element counts of a poset."""

    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class CharPoset:
    """Characteristic poset of I/J inside the divisor box of g.

    Elements are kept sorted by their dense mixed-radix code (x1 is the
    most significant digit), which coincides with lexicographic order on
    exponent tuples and is a linear extension of divisibility.  They are
    found by the membership DP over the sub-box [lo, g] (module docstring).
    """

    def __init__(self, numerator: MonomialIdeal, denominator: MonomialIdeal,
                 g: Monomial):
        self.arity = numerator.arity
        self.numerator = numerator
        self.denominator = denominator
        self.g = g
        self._weights = _weights([e + 1 for e in g])
        gens = numerator.generators
        self._lo = tuple(map(min, zip(*gens))) if gens else tuple(g)
        self._dims = [b - a + 1 for a, b in zip(self._lo, g)]
        self._sub_weights = _weights(self._dims)
        # Membership DP: bit 0 marks I, bit 1 marks J.  A generator seeds
        # lcm(gen, lo), its least multiple inside the sub-box.
        cells = [0] * math.prod(self._dims)
        for flag, ideal in ((1, numerator), (2, denominator)):
            for gen in ideal.generators:
                seed = tuple(map(max, gen, self._lo))
                if all(a <= b for a, b in zip(seed, g)):
                    cells[self._sub_code(seed)] |= flag
        _spread(cells, self._dims, upward=True)
        # product order over the sub-box is lex == mixed-radix code order
        self.elements: tuple[Monomial, ...] = tuple(
            u for u, flags in zip(
                itertools.product(*(range(a, b + 1)
                                    for a, b in zip(self._lo, g))), cells)
            if flags == 1)
        self._position = {u: i for i, u in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, u) -> bool:
        return tuple(u) in self._position

    def code(self, u: Monomial) -> int:
        """Mixed-radix code of a box monomial, in [0, prod(g_j + 1))."""
        return sum(e * w for e, w in zip(u, self._weights))

    def _sub_code(self, u: Monomial) -> int:
        """Mixed-radix code of u in the sub-box [lo, g], ordered as `code`."""
        return sum((e - a) * w
                   for e, a, w in zip(u, self._lo, self._sub_weights))

    def closure_masks(self) -> tuple[list[int], list[int]]:
        """Per element i, bitmasks over element indices: below[i] holds the
        elements dividing element i and above[i] the elements it divides,
        i itself included in both.  Each element's bit is spread over the
        sub-box cells above it (for below) and below it (for above)."""
        below = [0] * math.prod(self._dims)
        codes = [self._sub_code(u) for u in self.elements]
        for i, c in enumerate(codes):
            below[c] = 1 << i
        above = below[:]
        _spread(below, self._dims, upward=True)
        _spread(above, self._dims, upward=False)
        return [below[c] for c in codes], [above[c] for c in codes]

    def position(self, u: Monomial) -> int:
        """Index of u in the code-sorted element list."""
        return self._position[tuple(u)]

    def rho(self, u: Monomial) -> int:
        """Number of coordinates where u meets the box ceiling g."""
        u = tuple(u)
        if u not in self._position:
            raise KeyError(f"{u} is not a poset element")
        return sum(1 for a, b in zip(u, self.g) if a == b)

    def level(self, d: int) -> tuple[Monomial, ...]:
        """All elements of total degree d."""
        return tuple(u for u in self.elements if sum(u) == d)

    def level_counts(self) -> LevelTable:
        counts: dict[int, int] = {}
        for u in self.elements:
            d = sum(u)
            counts[d] = counts.get(d, 0) + 1
        return LevelTable(counts)

    def is_up_closed(self) -> bool:
        """True when every box multiple of an element is again an element
        (always the case for pure ideals; quotients can have holes)."""
        for u in self.elements:
            for j in range(self.arity):
                if u[j] < self.g[j]:
                    v = u[:j] + (u[j] + 1,) + u[j + 1:]
                    if v not in self._position:
                        return False
        return True

    def dump(self) -> str:
        """Debug listing: header (n, g, |P|) then one line per element
        (exponent vector, degree, rho), in code order."""
        lines = [f"n={self.arity} g={','.join(map(str, self.g))} size={len(self)}"]
        for u in self.elements:
            vec = ",".join(map(str, u))
            lines.append(f"{vec} deg={sum(u)} rho={self.rho(u)}")
        return "\n".join(lines) + "\n"


def build_poset(numerator: MonomialIdeal,
                denominator: MonomialIdeal | None = None,
                g: Monomial | None = None) -> CharPoset:
    """Construct the characteristic poset of numerator/denominator.

    The denominator defaults to the zero ideal (poset of the ideal
    itself); g defaults to the componentwise max over all generators.
    Raises ValueError when a supplied g fails to dominate a generator.
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
