"""Exact search for interval partitions of a characteristic poset.

Computing the Stanley depth of I/J reduces to a covering problem: partition
the poset into divisibility intervals [u_i, v_i] so that every top v_i meets
the box ceiling in at least s coordinates, then maximize s.  The search here
is an exact-cover style backtracker over bitmask states:

* the branch bottom is the tightest minimal uncovered element of rank
  < s: the one with the fewest uncovered covers to spare over what its
  interval needs, then of least degree, then lex-least ("Tightest bottom"
  below); with no uncovered element of rank < s it is the lex-least
  uncovered element (lex order extends divisibility, so that element can
  only be covered by an interval starting at itself);
* candidate tops are tried in decreasing degree, then lex order;
* a sound counting prune cuts branches where some degree level cannot supply
  the forced degree-(d+1) elements of the intervals that still must start at
  degree d.

All of it runs on bitmasks indexed by the mixed-radix cell code of each
element in the sub-box [lo, g] of the poset (`CharPoset.codes`).  Code
order is lex order, so the lowest set bit is the lex-least element, and
multiplying by x_j is a left shift by the stride of axis j, masked to the
cells below the ceiling of that axis.  No interval needs a table per
element or a test for holes, by two lemmas:

  Convexity.  The characteristic poset of I/J is convex: if u | w | v with
  u and v in the poset, then w is in the poset.  Proof: w lies in the box
  because it divides v; w is in I because u | w and I is an ideal; and w
  is not in J, because otherwise its multiple v would be in J.

  Shifted shapes.  Let shape(d) be the mask of the box [0, d], the cells
  whose digits are at most those of the cell code d.  For cells u | v,
  [u, v] is shape(v - u) << u, as adding u to a cell of [0, v - u] gives
  digits at most v's and so carries nothing.  shape(0) is cell 0, and
  shape(d) = S | S << stride_j with S = shape(d - stride_j), for j the
  least significant axis where d has a nonzero digit: S holds the cells of
  [0, d] with digit j below d_j, and the shift raises it to at most d_j.

So by convexity every multiple of a bottom is a valid top, and the
multiples of c are the elements of shape(top - c) << c, top being the code
of g.  The counting prune reads level sizes as popcounts of per-degree
masks, and finds the minimal uncovered elements by shifts:

  Shifted minimal set.  Let U be the uncovered set and up(U) the elements
  divisible by an element of U.  An element u of U is minimal in U iff no
  other element of U divides it, iff u is not a one-step multiple u' * x_j
  of an element u' of up(U): if v | u with v != u, pick j with v_j < u_j;
  u' = u / x_j lies between v and u, so it is an element, and v divides
  it.  One shift per axis gives those one-step multiples; up(U) takes
  ceil(log2 dim_j) doubling shifts per axis, each pass doubling the reach
  along that axis.  A pass keeps only the shifts that land on elements,
  which loses nothing: for w in up(U) and a divisor v of it in U, the
  passes of axis j raise coordinate j from v_j to w_j through the partial
  sums of the binary digits of w_j - v_j, and every cell on that way lies
  between v and w, so it is an element.  No mask is therefore wider than
  the highest element code.  Only elements of rank < s can force
  anything, and every divisor of such an element again has rank < s (the
  rank counts coordinates at the ceiling, which a divisor can only lose),
  so the closure starts from those elements alone.

  Tightest bottom.  The counting prune walks the minimal elements of
  U & rank<s and counts, for each such c, its uncovered covers one degree
  up; the interval that covers c must take s - rho(c) of them, and the
  difference is the slack of c.  The search branches on the element of
  least slack, then least degree, then least code, when the prune passes.
  This is exhaustive: an element c minimal in U & rank<s is minimal in U,
  because every divisor of c has rank < s (a divisor can only lose
  ceiling coordinates), so an uncovered proper divisor of c would lie in
  U & rank<s below c.  So no interval of a completion holds c above its
  bottom, every interval covering c starts at c, and trying every top of
  c covers all completions.  The failed memo stays valid, because
  whether a state can be completed does not depend on the path that
  reached it.

  Ranks by ceilings.  The rank of a cell counts the axes on whose ceiling
  it lies, and the ceiling cells of each axis are one periodic mask.  So
  the rank classes take one step per axis: with R_r the elements on
  exactly r of the ceilings so far, ceiling C makes the new R_r equal to
  R_r & ~C | R_(r-1) & C.  The order of the axes does not matter, as each
  step only counts one more ceiling.  An axis of side 1 puts every cell
  on its ceiling and only shifts the classes up by one, so those axes add
  one empty class each at the end, not a pass over all the classes each.
  The counting prune reads the rank of an element it walks off the
  digits of its code, the digits at the ceiling of their axis, so no
  Python loop runs over the elements for ranks.

  Levels by doubling.  The degree of a cell is sum(lo) plus the sum of
  its digits, so the cells of one digit sum are those of one degree.
  They grow from cell 0, of digit sum 0, by doubling along each axis as
  the checker's box masks do, with each copy carrying its digit sum:
  with L[k] the cells of digit sum k so far, laying `step` more copies
  along an axis of stride t makes the new L[k] equal to L[k] | L[k -
  step] << step * t.  The shift carries nothing, as the copies stay
  inside the side of the axis.  The doubling runs at the steps of the
  axis's shift passes: with k = 1, 2, 4, ... < side copies laid so far,
  the step is min(k, side - k), so on a side that is not a power of two
  the last step lays copies over cells already there.  The OR still puts
  each cell in one class: a cell comes from L[k] only if its digits sum
  to k, and from L[k - step] << step * t only if they sum to k - step
  before the shift adds step to one digit, so to k again.  ANDed with
  the elements, L[k] is a level.  One empty level at the end lets the
  counting prune read level[d + 1] with no bound test at every digit sum
  d of a walked element, which it reads off the digits of its code, so
  no Python loop runs over the elements for levels either.

  One pass per axis.  The set-up visits each axis once, lowest stride
  first: that visit builds the axis's ceiling mask, its shift passes,
  its doubling of the levels and its step of the rank classes.  The
  up-closure and the covers come out the same in any order of the axes.
  Each visit leaves one row of the per-axis table `lines`, kept in that
  order, last axis first, for the Fibers construction below; the passes,
  the shapes and the digits of a walked element are read off the same
  rows.

  Memo in the parent.  The loop over the tops of a frame settles each
  child state before it opens a frame for it: it counts the child's node,
  checks the deadline, then consults the failed-state memo, so a memo hit
  opens no frame.  The root, whose memo is empty, is counted and checked
  before the loop, and the prune runs only when a state opens, after the
  memo.  A state enters the memo only after it passed the prune at the
  same target, and the prune is a function of the state and the target,
  so a memo hit would have passed the prune again: the order changes no
  node, prune or partition, and the counters at a timeout are those that
  opening every state, memo first, would have left.

  Invariant search.  When the cycle sigma: x1 -> x2 -> ... -> xn -> x1 maps
  the generators of I, those of J and the corner g to themselves, it maps
  the poset onto itself and keeps divisibility and rank, and the search
  first looks only for partitions that sigma fixes (Kramer and Mesner,
  Discrete Math. 15 (1976) 263-296).  Each branch at bottom w and top v
  places the whole orbit of [w, v]: the images [sigma^j w, sigma^j v],
  any two of which must be equal or disjoint ("Orbit overlap" below says
  which tops pass).  An invariant partition is a partition, and the
  certificate check re-checks it like any other.  The uncovered set stays
  invariant, as it loses whole orbits, so once [w, v] is uncovered each of
  its images is too.  The bottom is minimal in the uncovered set, so the
  interval that covers it in an invariant completion starts at it and
  trying every top covers all invariant completions.  The counting prune
  refutes every completion, so a prune at the root settles the target for
  both searches.  An exhausted orbit search shows that prune in its
  counters: its root was pruned iff it made one node and one prune, as the
  failed memo is empty at the root, and a root that passes the prune
  prunes nothing itself, while each state below it counts a node (none is
  covered, or the search would not have exhausted).  The failed memo holds
  states with no invariant completion, so it is kept per search.  An
  exhausted orbit search proves nothing, as a partition need not be
  invariant, so the plain search, the identity permutation, follows it on
  the same deadline.

  Orbit overlap.  For elements w | v and tau = sigma^j, the intervals
  [w, v] and [tau w, tau v] share a cell iff tau w | v and tau^-1 w | v.
  A shared cell x has tau w | x | v, and w | x | tau v, so tau^-1 w | v.
  Conversely, w and tau w both divide v, and both divide tau v (w does as
  tau^-1 w | v, tau w does as w | v), so lcm(w, tau w) divides gcd(v,
  tau v); it lies between w and v, so it is an element by convexity, and
  it lies in both intervals.  Let p be the period of w under sigma (p
  divides n).  Two images j apart meet as [w, v] and its j-th image do,
  applying a power of sigma to both.  For j a multiple of p they share
  the bottom w, so they must be equal: sigma^p must fix v.  For the other
  j their bottoms differ, so they must be disjoint.  Once sigma^p fixes w
  and v, the image at p - j is the image at -j, which meets [w, v] iff
  the image at j does (apply sigma^j to both), so j = 1 ... p // 2
  suffice.  So the orbit search tries at bottom w only the multiples of w
  outside multiples(sigma^j w) & multiples(sigma^-j w) for those j, and,
  when p < n, only those that sigma^p fixes.  Every top it tries then
  places its orbit with no test beyond the fit of [w, v] itself.

  Orbit walk.  In the orbit search the uncovered set U is invariant, and
  so is the walk of the counting prune, the minimal elements of U &
  rank<s, as sigma keeps divisibility and rank.  The members of an orbit
  have the same need, as sigma keeps rank, the same degree, and the same
  slack, as sigma maps the uncovered covers of c onto those of sigma c.
  So the walk scores each orbit once, at its lowest code, and adds its
  need once per member to the level check, whose sums are then those of
  the walk over every element.  A member has negative slack iff the
  lowest one does, so the prune verdict is the same.  The lowest code of
  an orbit comes first in ascending order, and the other members tie with
  it on slack and degree and lose on code, so the bottom is the same.

Target 0 is met by singletons, and target 1 is decided both ways by a
construction, so the backtracker runs only at s >= 2:

  Fibers.  Let R start as the poset and take the axes from the last to
  the first.  On axis j, each element u of R whose line inside R reaches
  g_j starts a run [u, u * x_j^(g_j - u_j)]; each run is an interval
  whose top has rank >= 1, and the runs leave R.  R stays (I cap U)
  minus J, U the up-set of the cells whose raise to g_j on every
  processed axis lies in J.  So R is convex, each line of R is one run,
  and whether a line reaches g_j does not depend on u_j.  After axis 1,
  R is the box part of ((J : m^infinity) cap I) minus J.  If R is empty,
  the runs partition the poset at target 1.  If not, a maximal poset
  element above an element of R lies in R and has rank 0, as a
  coordinate at the ceiling would put it outside U; it must be its own
  interval's top, so target 1 is infeasible.  This is the theorem that
  sdepth(I/J) = 0 exactly when depth(I/J) = 0, made constructive.  On an
  up-closed poset R is empty after the last axis, and the runs are its
  last-axis fibers.

  In masks, the run cells of an axis of stride t and side d are found
  from the ceiling down: reach = R & ceiling, then reach |= reach >> shift
  & keep & R for each doubling pass of the axis, which loses nothing as
  each line of R is one run.  The bottoms are the cells of reach that are
  not one step above a cell of reach & ~ceiling, and the top of bottom c
  is c + (d - 1 - c // t % d) * t.  A one-cell axis puts every cell on
  the ceiling, so its runs are single cells.

Every certificate is re-checked before it is returned, by a checker that
calls nothing of the search:

  Checking by masks.  For elements b | t and a cell w with b | w | t,
  every digit of w lies between those of b and t, inside the sub-box, so
  code(w) = code(b) + sum_j k_j * stride_j with k_j = w_j - b_j, and the
  sum carries nothing.  Distinct k give distinct codes, so the box mask of
  the extent t - b, the codes sum_j k_j * stride_j with 0 <= k_j <= t_j -
  b_j, shifted left by code(b), is exactly the set of cells of [b, t],
  and its bit order is their lex order.  Each interval strikes its cells
  from the mask of the elements not yet covered.  A cell missing from
  that mask is no element or was covered before, and the lowest such bit
  is the lex-first bad cell; a bit left at the end is an uncovered
  element.  The checker reads the poset's element mask (`CharPoset.mask`),
  as it reads its codes, and builds its own box masks, each axis doubling
  the copies of the mask so far; it still calls nothing of the search.
  The strike tests the bottom and top of each interval too: both are
  cells of [b, t], so one that is no element leaves a bad cell, and only
  then does the checker look them up (`in`) to name the reason.  It
  strikes only after the in-box test lo <= b <= t <= g.  Inside the
  sub-box each digit u_j - lo_j lies in [0, dim_j), so distinct tuples get
  distinct codes.  Outside it the code would alias a cell: with two axes
  of side d, the digits (0, d) give the code of (1, 0), and a negative
  digit or a missing coordinate can land on any cell as well.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import time
from collections import namedtuple

from .monomials import (
    Monomial,
    MonomialIdeal,
    maximal_power,  # noqa: F401  (public name, wrapped by perfbench/tracing.py)
    zero_ideal,
)
from .posets import CharPoset, build_poset, code_mask, default_box


class SearchTimeout(Exception):
    """The wall-clock budget of a decision call or a target scan ran out.

    Distinct from infeasibility: no conclusion about the target is implied.
    """

    def __init__(self, message: str, stats: "SearchStats"):
        super().__init__(message)
        self.stats = stats


class InternalVerificationError(AssertionError):
    """A solver result failed its own independent verifier (a bug guard)."""


class Interval(namedtuple("Interval", "bottom top")):
    """The interval [bottom, top] of a partition, both ends monomials."""

    __slots__ = ()


class IntervalPartition(tuple):
    """The intervals of a partition, in order.  A tuple of `Interval`s, so
    pickle and `copy.deepcopy` rebuild it from that one tuple; `intervals`
    names it as the one field of the record."""

    __slots__ = ()

    def __new__(cls, intervals: tuple[Interval, ...]):
        return super().__new__(cls, intervals)

    @property
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(self)

    def __repr__(self):
        return f"IntervalPartition(intervals={tuple(self)!r})"


class SearchStats:
    """Nodes and prunes of one decision or scan, counted in place."""

    __slots__ = ("nodes", "prunes")

    def __init__(self, nodes: int = 0, prunes: int = 0):
        self.nodes = nodes
        self.prunes = prunes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.nodes, self.prunes) == (other.nodes, other.prunes)

    __hash__ = None  # mutable

    def __repr__(self):
        return f"SearchStats(nodes={self.nodes!r}, prunes={self.prunes!r})"

    def merge(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.prunes += other.prunes


class SdepthCertificate(namedtuple("SdepthCertificate",
                                   "s partition stats poset")):
    """A witnessed Stanley depth value: s together with a partition whose
    interval tops all have rank at least s (and at least one exactly s)."""

    __slots__ = ()


class CheckResult(namedtuple("CheckResult", "ok reason", defaults=("",))):
    """Verdict of a certificate checker; false with a reason on failure."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


class StanleyDecomposition(namedtuple("StanleyDecomposition",
                                      "arity spaces")):
    """Stanley spaces (m_i, Z_i): the monomial m_i times the polynomial
    subring on the 1-based variable indices Z_i."""

    __slots__ = ()

    @property
    def sdepth(self) -> int | None:
        if not self.spaces:
            return None
        return min(len(z) for _, z in self.spaces)


# Byte budget of the failed-state memo of one decision call (see decide).
_FAILED_MEMO_BYTES = 4 << 20


def _cells(mask: int):
    """The cell codes of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _variable_cycle(poset: CharPoset):
    """The action on cell codes of x1 -> x2 -> ... -> xn -> x1 when it
    maps the generators of I and of J and the corner g to themselves,
    found in O(n |G|), and moves a cell; else None.  Then lo, the least
    exponents of I, is fixed too, so every side of the sub-box has the
    same length d, and (u1, ..., un) going to (un, u1, ..., un-1) moves
    the last digit of a cell code to the front, of weight d ** (n - 1)."""
    if poset.arity < 2 or not poset.codes or poset.dims[0] < 2:
        return None
    for gens in (poset.numerator.generators,
                 poset.denominator.generators, (poset.g,)):
        fixed = set(gens)
        if any(u[-1:] + u[:-1] not in fixed for u in gens):
            return None
    d, lead = poset.dims[0], poset.strides[0]
    return lambda c: c // d + c % d * lead


class _Searcher:
    """Per-poset bitmask machinery shared by all decision calls;
    `partition` settles one target on a deadline and returns cell-code
    pairs, which `exists_partition` decodes.

    Masks are over sub-box cell codes (module docstring); `full_mask` is
    the poset's element mask (`CharPoset.mask`).  The searcher keeps that
    mask, the poset's `codes` and its arity `n`, but not the poset: the
    poset holds its searcher (`_get_searcher`) and nothing points back,
    so both are freed by reference counting.  The set-up keeps masks
    only, none per element.  Kept when first used: shapes, by code
    difference, and the `record` of an element, one entry with its covers,
    digit sum, rank, orbit and orbit size, when the counting prune first
    walks it.  The candidate tops of a bottom, with the cells that sigma^p
    fixes when its period p is below n, are built when a decision first
    branches on it and live in that `decide` call only.
    One pass over the axes, lowest first ("One pass per axis"), builds the
    rest.  Level and rank masks let the counting prune count by popcount
    and the candidates filter by rank and run in level order; the level
    masks, one per digit sum, come from doubling over the sub-box
    ("Levels by doubling"), and the rank masks from the ceiling masks
    ("Ranks by ceilings"), with no loop over elements.  `lines` is the
    one per-axis table, a row per axis, last axis first: the stride, the
    side, the ceiling cells and the (shift, keep) pairs of the doubling
    passes of the up-closure, `keep` the cells that the shift moves to an
    element without carrying past the ceiling of its axis.  `shape`,
    `record`, `fixed` and `fiber_partition` read it, and `passes`, every
    pair, and `steps`, the single-step pair of each axis, are read off it
    after the pass, for `minimal` and `covers`.  `cycle` is the action of
    the variable cycle on cell codes when it fixes the input and moves
    some cell, else None (`_variable_cycle`; module docstring, "Invariant
    search").
    """

    def __init__(self, poset: CharPoset):
        self.full_mask = full = poset.mask
        self.codes, self.n = poset.codes, poset.arity
        self.top = math.prod(poset.dims) - 1  # code of g, the last cell
        self._shapes = {0: 1}
        self._records: dict[int, tuple[int, int, int, int, int]] = {}
        width = full.bit_length()
        self.lines: list[tuple[int, int, int, list[tuple[int, int]]]] = []
        # sums[k]: cells of digit sum k ("Levels by doubling"); ranks[r]:
        # elements on exactly r ceilings ("Ranks by ceilings")
        sums, ranks = [1], [full]
        for stride, dim in zip(poset.strides[::-1], poset.dims[::-1]):
            # one bit per block of stride * dim cells that share the digits
            # of the axes before this one
            repeat, span = 1, stride * dim
            while span < width:
                repeat |= repeat << span
                span *= 2
            ceiling = ((1 << stride) - 1 << stride * (dim - 1)) * repeat
            axis_passes = []
            k = 1
            while k < dim:
                # the cells whose digit on this axis is below dim - k and
                # that the shift by k steps takes to an element
                shift = stride * k
                keep = ((1 << stride * (dim - k)) - 1) * repeat & full >> shift
                axis_passes.append((shift, keep))
                step = min(k, dim - k)
                pad = [0] * step
                sums = [low | high << step * stride
                        for low, high in zip(sums + pad, pad + sums)]
                k *= 2
            if dim > 1:
                ranks = [below & ~ceiling | on & ceiling
                         for below, on in zip(ranks + [0], [0] + ranks)]
            self.lines.append((stride, dim, ceiling, axis_passes))
        self.passes = [pair for *_, pairs in self.lines for pair in pairs]
        self.steps = [pairs[0] for *_, pairs in self.lines if pairs]
        # level[k]: elements of digit sum k; rank_below[s]: elements of
        # rank < s, side-1 axes adding one empty class each
        self.level = [cells & full for cells in sums] + [0]
        self.rank_below = list(itertools.accumulate(
            [0] * poset.dims.count(1) + ranks, operator.or_, initial=0))
        self.cycle = _variable_cycle(poset)

    def shape(self, d: int) -> int:
        """The box [0, d] as a mask, one shift per step ("Shifted shapes")."""
        chain = []
        while d not in self._shapes:
            for stride, dim, _, _ in self.lines:
                if d // stride % dim:
                    break
            chain.append((d, stride))
            d -= stride
        mask = self._shapes[d]
        for d, stride in reversed(chain):
            mask = self._shapes[d] = mask | mask << stride
        return mask

    def multiples(self, c: int) -> int:
        """The elements that the element at c divides, c included."""
        return self.shape(self.top - c) << c & self.full_mask

    def covers(self, c: int) -> int:
        """The elements one step above c: one shift of its bit per axis."""
        return sum((1 << c & keep) << shift for shift, keep in self.steps)

    def record(self, c: int) -> tuple[int, int, int, int, int]:
        """The covers, digit sum, rank, orbit and orbit size of the element
        at c.  Digit sum and rank come from one pass over the digits of its
        code: the rank counts the digits at the ceiling of their axis.  The
        orbit is the mask of the images of c under `cycle`, or the bit of c
        alone when there is no cycle."""
        total = rank = 0
        for stride, dim, _, _ in self.lines:
            digit = c // stride % dim
            total += digit
            rank += digit == dim - 1
        orbit, size, cycle = 1 << c, 1, self.cycle
        if cycle is not None:
            a = cycle(c)
            while a != c:
                orbit |= 1 << a
                size += 1
                a = cycle(a)
        return self.covers(c), total, rank, orbit, size

    def _candidates(self, c: int, s: int, cycle=None) -> list[tuple[int, int]]:
        """Tops of the intervals at bottom c with rank >= s, in decreasing
        degree, then lex order, each with the shape of its interval.  Under
        the cell permutation `cycle`, only the tops whose images are equal
        or disjoint (module docstring, "Orbit overlap").  Nothing is cached
        here: `decide` keeps the lists of its own call, keyed by c."""
        tops = self.multiples(c) & ~self.rank_below[s]
        if cycle is not None:
            images = [c]  # images[j] = sigma^j c, for 0 <= j < period
            while (image := cycle(images[-1])) != c:
                images.append(image)
            period = len(images)
            for j in range(1, period // 2 + 1):
                tops &= ~(self.multiples(images[j])
                          & self.multiples(images[-j]))
            if period < self.n:
                tops &= self.fixed(period)
        get = self._shapes.get  # a shape is never 0: `or` only on a miss
        return [(v, get(v - c) or self.shape(v - c))
                for level in reversed(self.level) if tops & level
                for v in _cells(tops & level)]

    def fixed(self, p: int) -> int:
        """The elements that sigma^p fixes, for a proper divisor p of n:
        the cells whose digit j equals digit j + p, which are the k * R for
        k < d ** p, R = (d ** n - 1) // (d ** p - 1) having the digits
        0...01 repeated n // p times, d the side that every axis has under
        a cycle (`_variable_cycle`), read off the first row of `lines`.
        One doubling shift per bit of d ** p; multiples of R past the top
        cell fall off with the mask.
        Built anew for each candidate list that needs it, as each decision
        builds the list of a bottom once."""
        d, n = self.lines[0][1], self.n
        step, count, mask = (d ** n - 1) // (d ** p - 1), 1, 1
        while count < d ** p:
            mask |= mask << step * count
            count *= 2
        return mask & self.full_mask

    def minimal(self, mask: int) -> int:
        """The elements of `mask` that no other element of it divides: the
        cells of `mask` that are not one step above its up-closure (module
        docstring, "Shifted minimal set")."""
        up = mask
        for shift, keep in self.passes:
            up |= (up & keep) << shift
        above_up = 0
        for shift, keep in self.steps:
            above_up |= (up & keep) << shift
        return mask & ~above_up

    def branch_bottom(self, uncovered: int, s: int,
                      cycle=None) -> int | None:
        """Counting prune and branch rule in one walk: None when no
        completion can exist, else the cell code of the bottom to branch
        on (module docstring, "Tightest bottom").

        Every element minimal in the uncovered set must start an interval,
        which forces at least s - rho(bottom) of its uncovered `covers`; the
        forced elements of distinct bottoms are distinct.  Only the minimal
        elements of rank < s force anything, and only they are walked, as
        `minimal` finds them; level sizes are popcounts of the level masks.
        The walk keeps the element of least slack, uncovered covers minus
        need, then of least degree; it visits codes in ascending order, so a
        tie keeps the lex-least.  With no uncovered element of rank < s the
        bottom is the lex-least uncovered element.  Given the cell
        permutation `cycle`, the searcher's own, under which `uncovered`
        must be invariant, the walk scores each orbit once, at its lowest
        code, and counts its need once per member (module docstring, "Orbit
        walk"), reading the orbit off the element's record."""
        walk = self.minimal(uncovered & self.rank_below[s])
        if not walk:
            return (uncovered & -uncovered).bit_length() - 1
        needs: dict[int, int] = {}
        best, best_slack, best_deg = -1, 0, 0
        known = self._records
        while walk:
            low = walk & -walk
            c = low.bit_length() - 1
            entry = known.get(c)
            if entry is None:
                entry = known[c] = self.record(c)
            covers, d, rank, orbit, members = entry
            need = s - rank
            if cycle is None:
                walk ^= low
                forced = need
            else:
                walk ^= orbit
                forced = need * members
            slack = (covers & uncovered).bit_count() - need
            if slack < 0:
                return None
            needs[d] = needs.get(d, 0) + forced
            if best < 0 or slack < best_slack or (
                    slack == best_slack and d < best_deg):
                best, best_slack, best_deg = c, slack, d
        for d, req in needs.items():
            if req > (self.level[d + 1] & uncovered).bit_count():
                return None
        return best

    def orbit(self, w: int, v: int, placed: int,
              cycle) -> tuple[int, list[tuple[int, int]]]:
        """The union of the images [sigma^j w, sigma^j v] and their (bottom,
        top) pairs, given `placed`, the mask of [w, v] itself, for a top v
        of the orbit candidates of w whose interval is uncovered.  Every
        image is then uncovered, as the uncovered set is invariant, and
        any two images are equal or disjoint (module docstring, "Orbit
        overlap"), so nothing is tested.  Those candidates keep only tops
        that sigma^p fixes, p the period of w, so the walk stops when the
        bottom comes back to w."""
        pairs = [(w, v)]
        a, b = cycle(w), cycle(v)
        while a != w:
            placed |= self.shape(b - a) << a
            pairs.append((a, b))
            a, b = cycle(a), cycle(b)
        return placed, pairs

    def decide(self, s: int, deadline: float, stats: SearchStats,
               cycle=None) -> list[tuple[int, int]] | None:
        """Exhaustive search for a full cover with all tops of rank >= s,
        among the partitions that the cell permutation `cycle` fixes, or
        among all of them when it is None (module docstring, "Invariant
        search").  Returns (bottom, top) cell-code pairs or None if none
        exists.  Each node branches on the bottom that `branch_bottom`
        returns with the prune's verdict, and each top places the orbit of
        its interval.  The tops of a bottom come from `_candidates` the
        first time the call branches on it and are kept, keyed by bottom,
        until the call returns; the sdepth scan decides each target once,
        so no list outlives its decision.  SearchTimeout once
        `time.monotonic()` passes `deadline`.

        The search is one loop over a list of open frames, one per state on
        the path from the root, so nothing recurses.  A frame holds its
        state, the bottom, the state shifted down by the bottom, an
        iterator over the tops left to try, and the pairs that reached the
        state.  The loop meets each child in the top frame's tops: it
        counts the child's node, checks the deadline and looks the child up
        in the memo; then the prune closes it, or it opens a frame at its
        bottom.  An exhausted frame is popped and its state goes into the
        memo.  A child that leaves nothing uncovered completes the cover:
        every frame's pairs in order, then the child's own.

        Refuted states go into a memo bounded by _FAILED_MEMO_BYTES = 4 MiB;
        once it is full it takes no more states.  The memo only spares
        searching a refuted state again, so its size can change node counts
        but never the answer or the partition found.  4 MiB is about 19
        times the largest memo of the benchmark ladders, 2,261 states or
        0.22 MiB on the 5,177-node mid-hard S/I scan (the other mid-hard
        scans fill 0.07-0.08 MiB, the mpow frontier rungs at most
        0.04 MiB), and holds about 11k masks at |P| = 2047; unbounded, the
        memo grew RSS by about 90 MB in 40 s on m with n = 12.  A memo hit
        opens no frame, and the prune runs only on a state that missed the
        memo (module docstring, "Memo in the parent").
        """
        if not self.full_mask:
            return []
        failed: set[int] = set()
        # bytes per entry: no mask is larger than the full one, plus 64 for
        # its 16-byte set slot in a table at least a quarter full
        capacity = _FAILED_MEMO_BYTES // (sys.getsizeof(self.full_mask) + 64)
        table: dict[int, list[tuple[int, int]]] = {}
        message = f"time ran out with target {s} open"
        stats.nodes += 1
        if time.monotonic() > deadline:
            raise SearchTimeout(message, stats)
        # open frames: state, bottom, state >> bottom, tops left, and the
        # pairs that reached the state
        frames = []
        state, pairs = self.full_mask, ()
        while True:
            # `state` is counted, nonempty and not in the memo
            w = self.branch_bottom(state, s, cycle)
            if w is None:
                stats.prunes += 1
            else:
                tops = table.get(w)
                if tops is None:
                    tops = table[w] = self._candidates(w, s, cycle)
                frames.append((state, w, state >> w, iter(tops), pairs))
            state = 0
            while not state:
                if not frames:
                    return None
                uncovered, w, free, tops, _ = frames[-1]
                # [w, v] is shape << w, which fits iff free holds shape
                for v, shape in tops:
                    if free & shape != shape:
                        continue
                    placed, pairs = shape << w, ((w, v),)
                    if cycle is not None:
                        placed, pairs = self.orbit(w, v, placed, cycle)
                    rest = uncovered ^ placed
                    if not rest:
                        return [pair for frame in frames
                                for pair in frame[4]] + list(pairs)
                    stats.nodes += 1
                    if time.monotonic() > deadline:
                        raise SearchTimeout(message, stats)
                    if rest not in failed:
                        state = rest
                        break
                else:
                    frames.pop()
                    if len(failed) < capacity:
                        failed.add(uncovered)

    def fiber_partition(self) -> list[tuple[int, int]] | None:
        """A partition with every top of rank >= 1, or None when there is
        none: from the last axis to the first, the order of `lines`, the
        elements left whose line reaches the ceiling leave as runs (module
        docstring, "Fibers")."""
        rest, out = self.full_mask, []
        for stride, dim, ceiling, axis_passes in self.lines:
            reach = rest & ceiling
            for shift, keep in axis_passes:
                reach |= reach >> shift & keep & rest
            rest ^= reach
            out += ((c, c + (dim - 1 - c // stride % dim) * stride) for c in
                    _cells(reach & ~((reach & ~ceiling) << stride)))
        return None if rest else out

    def partition(self, s: int, deadline: float,
                  stats: SearchStats) -> list[tuple[int, int]] | None:
        """The (bottom, top) cell-code pairs of a partition with every top
        of rank >= s, or None when there is none: singletons at s = 0,
        fibers at s = 1, and above that the orbit search, then the plain
        search on the same deadline unless the counting prune refuted the
        orbit search's root, which it did iff that search made one node
        and one prune (module docstring, "Invariant search").  An empty
        poset gets no pairs.  The searcher holds no poset, so
        `exists_partition` decodes the pairs."""
        if s == 0:
            return [(c, c) for c in self.codes]
        if s == 1:
            return self.fiber_partition()
        nodes, prunes = stats.nodes, stats.prunes
        pairs = self.decide(s, deadline, stats, self.cycle)
        if (pairs is None and self.cycle is not None
                and (stats.nodes - nodes, stats.prunes - prunes) != (1, 1)):
            pairs = self.decide(s, deadline, stats)
        return pairs

    def intrinsic_upper_bound(self) -> int:
        """Largest s any partition could reach: each minimal poset element
        must start an interval, and by convexity its best top is the
        highest-ranked of its multiples.  When the corner g is an element
        it is a multiple of every element, so the bound stays n."""
        ub = self.n
        for c in _cells(self.minimal(self.full_mask)):
            while not self.multiples(c) & ~self.rank_below[ub]:
                ub -= 1
        return ub


def _get_searcher(poset: CharPoset) -> _Searcher:
    searcher = getattr(poset, "_searcher", None)
    if searcher is None:
        searcher = _Searcher(poset)
        poset._searcher = searcher
    return searcher


def exists_partition(poset: CharPoset, s: int, *, timeout_s: float = 60.0,
                     stats: SearchStats | None = None) -> IntervalPartition | None:
    """Exact decision: a partition with every top of rank >= s, or None.
    The poset's searcher finds cell-code pairs, and this call decodes
    them by the poset (`CharPoset.monomials`) into the intervals.

    Raises SearchTimeout when the budget runs out, which is reported
    distinctly from infeasibility; a call with no budget left raises it
    before any construction, also at a target settled without search.
    Raises ValueError for a NaN budget, which no clock reading passes.
    """
    if not 0 <= s <= poset.arity:
        raise ValueError(f"target {s} outside [0, {poset.arity}]")
    if timeout_s != timeout_s:
        raise ValueError("the time budget is NaN")
    if stats is None:
        stats = SearchStats()
    if timeout_s <= 0:
        raise SearchTimeout(f"time ran out with target {s} open", stats)
    pairs = _get_searcher(poset).partition(s, time.monotonic() + timeout_s,
                                           stats)
    if pairs is None:
        return None
    decode = poset.monomials
    return IntervalPartition(tuple(map(
        Interval, decode([u for u, _ in pairs]),
        decode([v for _, v in pairs]))))


def _box_mask(extent, strides) -> int:
    """The cells of the box [0, extent] in a sub-box with these axis
    strides: the codes k_1 * stride_1 + ... + k_n * stride_n with
    0 <= k_j <= extent_j.  Each axis doubles the copies of the mask so far,
    stride_j apart, until it holds extent_j + 1 of them."""
    box = 1
    for e, stride in zip(extent, strides):
        copies = 1
        while copies <= e:
            step = copies if copies + copies <= e + 1 else e + 1 - copies
            box |= box << step * stride
            copies += step
    return box


def verify_partition(poset: CharPoset, partition: IntervalPartition,
                     s: int) -> CheckResult:
    """Independent certificate checker: interval containment in the poset,
    pairwise disjointness, exact cover, and min rank of tops >= s.  It
    calls nothing of the search: it reads the poset's element mask as it
    reads its codes, and after an in-box and rank test takes each
    interval's cells as its own box mask shifted by the bottom's code and
    strikes them from the mask of the elements left (module docstring,
    "Checking by masks").  A struck cell that was not left fails the
    interval; a bottom or top that is no element is reported first, as
    the checks one at a time would.  The first failure is reported, in
    interval order and within an interval in lex order of its cells; an
    uncovered element is reported lex-least first."""
    g, lo, strides = poset.g, poset._lo, poset.strides
    n, origin = len(g), sum(map(operator.mul, lo, strides))
    elements = left = poset.mask
    for interval in partition:
        bottom, top = tuple(interval.bottom), tuple(interval.top)
        # lo <= bottom <= top <= g and the top has rank >= s, all at once;
        # on a failure the checks run again one at a time for the reason
        if not (len(bottom) == len(top) == n
                and all(map(operator.le, lo + bottom + top, bottom + top + g))
                and sum(map(operator.eq, top, g)) >= s):
            return CheckResult(False, _interval_failure(poset, bottom, top, s))
        cells = _box_mask(map(operator.sub, top, bottom), strides) << (
            sum(map(operator.mul, bottom, strides)) - origin)
        left ^= cells
        bad = left & cells  # the cells that were not left
        if bad:
            # a bottom or top that is no element is one of them
            if bottom not in poset or top not in poset:
                return CheckResult(
                    False, _interval_failure(poset, bottom, top, s))
            w = (bad & -bad).bit_length() - 1
            [cell] = poset.monomials([w])
            if not elements >> w & 1:
                return CheckResult(False, f"interval [{bottom}, {top}] "
                                   f"leaves the poset at {cell}")
            return CheckResult(False, f"double cover at {cell}")
    if left:
        [cell] = poset.monomials([(left & -left).bit_length() - 1])
        return CheckResult(False, f"uncovered element {cell}")
    return CheckResult(True)


def _interval_failure(poset: CharPoset, bottom: Monomial, top: Monomial,
                      s: int) -> str:
    """Why `verify_partition` rejects the interval [bottom, top]: its
    checks one at a time, in their order."""
    if bottom not in poset:
        return f"bottom {bottom} is not a poset element"
    if top not in poset:
        return f"top {top} is not a poset element"
    if not all(map(operator.le, bottom, top)):
        return f"bottom {bottom} does not divide top {top}"
    rank = sum(map(operator.eq, top, poset.g))
    return f"top {top} has rank {rank} < {s}"


def verify_certificate(poset: CharPoset, partition: IntervalPartition,
                       s: int) -> CheckResult:
    """The certificate rule: the poset is nonempty, s lies in [0, n], the
    partition passes `verify_partition` at s, and some top has rank
    exactly s.  Once every top has rank >= s, the first top of rank s
    settles the last test."""
    if len(poset) == 0:
        return CheckResult(False, "the poset is empty (the quotient module is zero)")
    if not 0 <= s <= poset.arity:
        return CheckResult(False, f"target {s} outside [0, {poset.arity}]")
    check = verify_partition(poset, partition, s)
    if check and not any(sum(map(operator.eq, iv.top, poset.g)) == s
                         for iv in partition):
        return CheckResult(False, f"every top has rank above {s}")
    return check


def counting_prune(poset: CharPoset, s: int, uncovered) -> bool:
    """Public form of the level-budget feasibility test.

    `uncovered` is an iterable of monomials still to be covered; the result
    is False only when no completion with all top ranks >= s can exist.
    Raises ValueError for a target outside [0, n] or a non-element.
    """
    if not 0 <= s <= poset.arity:
        raise ValueError(f"target {s} outside [0, {poset.arity}]")
    codes = []
    for u in uncovered:
        code = poset.code(u)
        if code is None:
            raise ValueError(f"{tuple(u)} is not a poset element")
        codes.append(code)
    mask = code_mask(codes)
    return s == 0 or _get_searcher(poset).branch_bottom(mask, s) is not None


def sdepth_poset(poset: CharPoset, *,
                 timeout_s: float = 60.0) -> SdepthCertificate:
    """Maximize s by descending scan from `intrinsic_upper_bound`; the
    first feasible target wins and its partition is the certificate.  No
    target comes from outside the poset, and no family of ideals is
    special: on m^k (checked on every benchmark rung and on m in 12
    variables) the counting prune refutes each target above
    ceil(n/(k+1)) at the root, in one node.

    `timeout_s` bounds the whole scan, the search set-up and the upper
    bound included: each decision gets only the time left before one
    deadline, and SearchTimeout names the open target and carries the
    counters of every target of the scan.  `sdepth_quotient` passes what
    the poset build left of its budget.

    Once the scan has its partition, the poset drops its searcher, so a
    certificate held afterwards keeps none of the search's masks and
    caches alive.
    """
    deadline = time.monotonic() + timeout_s
    if len(poset) == 0:
        raise ValueError("the poset is empty (the quotient module is zero)")
    total = SearchStats()
    for s in range(_get_searcher(poset).intrinsic_upper_bound(), -1, -1):
        stats = SearchStats()
        try:
            partition = exists_partition(
                poset, s, timeout_s=deadline - time.monotonic(), stats=stats)
        except SearchTimeout as exc:
            exc.stats = total  # the whole scan: `finally` adds this target
            raise
        finally:
            total.merge(stats)
        if partition is not None:
            break
    else:
        raise AssertionError("target 0 is always feasible on a nonempty poset")
    del poset._searcher
    check = verify_certificate(poset, partition, s)
    if not check:
        raise InternalVerificationError(check.reason)
    return SdepthCertificate(s, partition, total, poset)


def sdepth_ideal(ideal: MonomialIdeal, *, g: Monomial | None = None,
                 timeout_s: float = 60.0) -> SdepthCertificate:
    """Stanley depth of a nonzero monomial ideal, with certificate."""
    if ideal.is_zero:
        raise ValueError("the zero ideal has no Stanley depth")
    return sdepth_quotient(ideal, zero_ideal(ideal.arity), g=g,
                           timeout_s=timeout_s)


def sdepth_quotient(numerator: MonomialIdeal, denominator: MonomialIdeal, *,
                    g: Monomial | None = None,
                    timeout_s: float = 60.0) -> SdepthCertificate:
    """Stanley depth of I/J (S/I when the numerator is the unit ideal).
    The deadline is set before the poset build, so `timeout_s` bounds the
    build and the search set-up too."""
    deadline = time.monotonic() + timeout_s
    poset = build_poset(numerator, denominator, g)
    return sdepth_poset(poset, timeout_s=deadline - time.monotonic())


def to_stanley_decomposition(poset: CharPoset,
                             partition: IntervalPartition) -> StanleyDecomposition:
    """Convert a verified partition into Stanley spaces (Herzog, Vladoiu
    and Zheng, Theorem 2.1): with Z the variables where v meets the ceiling,
    [u, v] is the sum of the a * K[Z] over the a in [u, v] equal to u on Z."""
    check = verify_partition(poset, partition, 0)
    if not check:
        raise ValueError(f"refusing to convert an invalid partition: {check.reason}")
    spaces = []
    for u, v in ((iv.bottom, iv.top) for iv in partition):
        z = frozenset(j + 1 for j in range(poset.arity) if v[j] == poset.g[j])
        spaces.extend((a, z) for a in itertools.product(
            *((u[j],) if j + 1 in z else range(u[j], v[j] + 1)
              for j in range(poset.arity))))
    return StanleyDecomposition(poset.arity, tuple(spaces))


def verify_stanley_decomposition(numerator: MonomialIdeal,
                                 denominator: MonomialIdeal,
                                 decomposition: StanleyDecomposition,
                                 cap: int) -> CheckResult:
    """Degreewise check of the direct-sum property: inside the cube of
    monomials with all coordinates <= cap, every monomial of I minus J must
    lie in exactly one space, and no other monomial in any.  There m * K[Z]
    is the box interval [m, t], t_j = cap on Z and m_j elsewhere (empty if
    some m_j > cap), so `verify_partition` decides the check on the
    characteristic poset with corner (cap, ..., cap).  A space naming a
    variable index outside 1..n is rejected: the interval would ignore it,
    while `StanleyDecomposition.sdepth` would count it."""
    n = numerator.arity
    g = default_box(numerator, denominator)
    if cap < sum(g):
        raise ValueError(f"cap {cap} is below the box degree {sum(g)}")
    intervals = []
    for m, z in decomposition.spaces:
        if len(m) != n:
            return CheckResult(False, f"space monomial {m} has wrong arity")
        stray = sorted(j for j in z if not 1 <= j <= n)
        if stray:
            return CheckResult(
                False, f"space {m} names variables {stray} outside 1..{n}")
        if all(e <= cap for e in m):
            intervals.append(Interval(m, tuple(cap if j + 1 in z else e
                                               for j, e in enumerate(m))))
    cube = CharPoset(numerator, denominator, (cap,) * n)
    return verify_partition(cube, IntervalPartition(tuple(intervals)), 0)
