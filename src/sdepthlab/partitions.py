"""Exact search for interval partitions of a characteristic poset.

Computing the Stanley depth of I/J reduces to a covering problem: partition
the poset into divisibility intervals [u_i, v_i] so that every top v_i meets
the box ceiling in at least s coordinates, then maximize s.  The search here
is an exact-cover style backtracker over bitmask states:

* the branch bottom is always the lexicographically least uncovered element
  (lex order extends divisibility, so that element can only be covered by an
  interval starting at itself);
* candidate tops are tried in decreasing degree, then lex order;
* a sound counting prune cuts branches where some degree level cannot supply
  the forced degree-(d+1) elements of the intervals that still must start at
  degree d.

All of it runs on bitmasks over element indices.  Each element has two
closure masks from the poset (`CharPoset.closure_masks`): below[i], the
elements dividing it, and above[i], the elements it divides.  Candidate tops
are the bits of above[i].  The elements between u and v are above[u] &
below[v]; they are a subset of the box interval [u, v], so the interval lies
in the poset exactly when the two have the same size, and a popcount decides
it.  The counting prune reads level sizes as popcounts of per-degree masks.

Feasibility at s = 0 (singletons) and, for up-closed posets, at s = 1
(fibers along the last coordinate) admit direct constructions, so the
backtracker only ever runs where real search is needed.  Every certificate
is re-checked by an independent marking verifier, which enumerates each
interval's box itself, before it is returned.
"""

from __future__ import annotations

import itertools
import math
import operator
import sys
import time
from dataclasses import dataclass

from .monomials import (
    Monomial,
    MonomialIdeal,
    contains,
    divides,
    maximal_power,  # noqa: F401  (public name, wrapped by perfbench/tracing.py)
)
from .posets import CharPoset, build_poset, default_box


class SearchTimeout(Exception):
    """The wall-clock budget of a decision call or a target scan ran out.

    Distinct from infeasibility: no conclusion about the target is implied.
    """

    def __init__(self, message: str, stats: "SearchStats"):
        super().__init__(message)
        self.stats = stats


class InternalVerificationError(AssertionError):
    """A solver result failed its own independent verifier (a bug guard)."""


@dataclass(frozen=True)
class Interval:
    bottom: Monomial
    top: Monomial


@dataclass(frozen=True)
class IntervalPartition:
    intervals: tuple[Interval, ...]

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)


@dataclass
class SearchStats:
    nodes: int = 0
    prunes: int = 0
    elapsed_s: float = 0.0

    def merge(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.prunes += other.prunes
        self.elapsed_s += other.elapsed_s


@dataclass(frozen=True)
class SdepthCertificate:
    """A witnessed Stanley depth value: s together with a partition whose
    interval tops all have rank at least s (and at least one exactly s)."""

    s: int
    partition: IntervalPartition
    stats: SearchStats
    poset: CharPoset


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a certificate checker; false with a reason on failure."""

    ok: bool
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class StanleyDecomposition:
    """Stanley spaces (m_i, Z_i): the monomial m_i times the polynomial
    subring on the 1-based variable indices Z_i."""

    arity: int
    spaces: tuple[tuple[Monomial, frozenset[int]], ...]

    @property
    def sdepth(self) -> int | None:
        if not self.spaces:
            return None
        return min(len(z) for _, z in self.spaces)


# Byte budget of the failed-state memo of one decision call (see decide).
_FAILED_MEMO_BYTES = 4 << 20


class _Searcher:
    """Per-poset bitmask machinery shared by all decision calls.

    below[i] and above[i] are the closure masks of element i: the poset
    elements dividing it and those it divides, itself included.  Level and
    rank masks let the counting prune count by popcount.
    """

    def __init__(self, poset: CharPoset):
        self.poset = poset
        elems = poset.elements
        self.m = len(elems)
        self.full_mask = (1 << self.m) - 1
        self.deg = [sum(u) for u in elems]
        self.rho = [poset.rho(u) for u in elems]
        self.up_closed = poset.is_up_closed()
        self.below, self.above = poset.closure_masks()
        # level[d]: elements of degree d; rank_below[s]: elements of rank < s
        self.level = [0] * (sum(poset.g) + 2)
        by_rank = [0] * (poset.arity + 1)
        for i in range(self.m):
            self.level[self.deg[i]] |= 1 << i
            by_rank[self.rho[i]] |= 1 << i
        self.rank_below = list(itertools.accumulate(by_rank, operator.or_,
                                                    initial=0))
        # covers[i]: the elements elems[i] * x_j, its multiples one degree up
        self.covers = [self.above[i] & self.level[self.deg[i] + 1]
                       for i in range(self.m)]
        self._multiples_cache: dict[int, list[int]] = {}
        self._candidates_cache: dict[tuple[int, int], list[int]] = {}
        sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * self.m + 500))

    def _multiples(self, i: int) -> list[int]:
        """Element indices v with elems[i] | elems[v], sorted by decreasing
        degree then lex order (the candidate-top order)."""
        cached = self._multiples_cache.get(i)
        if cached is None:
            cached = []
            bits = self.above[i]
            while bits:
                low = bits & -bits
                cached.append(low.bit_length() - 1)
                bits ^= low
            cached.sort(key=lambda j: -self.deg[j])  # stable: lex within a degree
            self._multiples_cache[i] = cached
        return cached

    def _candidates(self, i: int, s: int) -> list[int]:
        """Tops of the valid intervals at bottom i with rank >= s, in
        candidate-top order."""
        key = (i, s)
        cached = self._candidates_cache.get(key)
        if cached is None:
            cached = [j for j in self._multiples(i) if self.rho[j] >= s
                      and self.interval_mask(i, j) is not None]
            self._candidates_cache[key] = cached
        return cached

    def interval_mask(self, i: int, j: int) -> int | None:
        """Bitmask of the interval [elems[i], elems[j]] for elems[i] |
        elems[j], or None when some box monomial in between is missing from
        the poset.  The poset elements between the two are above[i] &
        below[j], a subset of the box interval; it has no hole exactly when
        both have the same size, prod(v_k - u_k + 1)."""
        mask = self.above[i] & self.below[j]
        u = self.poset.elements[i]
        v = self.poset.elements[j]
        if mask.bit_count() != math.prod(b - a + 1 for a, b in zip(u, v)):
            return None
        return mask

    def budget_feasible(self, uncovered: int, s: int) -> bool:
        """Counting prune.  Every element minimal in the uncovered set must
        start an interval, which forces at least s - rho(bottom) uncovered
        covers of it one degree up; the forced elements of distinct bottoms
        are distinct.  Returns False only when no completion can exist.

        Only uncovered elements of rank < s can force anything, so only
        they are walked; level sizes are popcounts of the level masks."""
        if s <= 0:
            return True
        needs: dict[int, int] = {}
        walk = uncovered & self.rank_below[s]
        while walk:
            low = walk & -walk
            i = low.bit_length() - 1
            walk ^= low
            if self.below[i] & uncovered == low:
                need = s - self.rho[i]
                if (self.covers[i] & uncovered).bit_count() < need:
                    return False
                d = self.deg[i]
                needs[d] = needs.get(d, 0) + need
        for d, req in needs.items():
            if req > (self.level[d + 1] & uncovered).bit_count():
                return False
        return True

    def decide(self, s: int, timeout_s: float, use_prune: bool,
               stats: SearchStats) -> list[tuple[int, int]] | None:
        """Exhaustive search for a full cover with all tops of rank >= s.
        Returns (bottom, top) index pairs or None if none exists.

        Refuted states go into a memo bounded by _FAILED_MEMO_BYTES = 4 MiB;
        once it is full it takes no more states.  The memo only spares
        searching a refuted state again, so its size can change node counts
        but never the answer or the partition found.  4 MiB is about six
        times what the hardest solved instances of the benchmark ladders
        fill (0.7 MiB for S/I quotients of about 70 elements and 13k nodes)
        and holds about 11k masks at |P| = 2047; unbounded, the memo grew
        RSS by about 90 MB in 40 s on m with n = 12.
        """
        deadline = time.monotonic() + timeout_s
        below, above = self.below, self.above
        failed: set[int] = set()
        # bytes per entry: no mask is larger than the full one, plus 64 for
        # its 16-byte set slot in a table at least a quarter full
        capacity = _FAILED_MEMO_BYTES // (sys.getsizeof(self.full_mask) + 64)

        def rec(uncovered: int) -> list[tuple[int, int]] | None:
            if uncovered == 0:
                return []
            stats.nodes += 1
            if time.monotonic() > deadline:
                raise SearchTimeout(
                    f"time ran out with target {s} open", stats)
            if use_prune and not self.budget_feasible(uncovered, s):
                stats.prunes += 1
                return None
            if uncovered in failed:
                return None
            w = (uncovered & -uncovered).bit_length() - 1
            # [w, v] fits in the uncovered set iff it misses the covered
            # multiples of w
            blocked = above[w] & ~uncovered
            for v in self._candidates(w, s):
                if below[v] & blocked:
                    continue
                rest = rec(uncovered ^ (above[w] & below[v]))
                if rest is not None:
                    rest.append((w, v))
                    return rest
            if len(failed) < capacity:
                failed.add(uncovered)
            return None

        chosen = rec(self.full_mask)
        if chosen is None:
            return None
        chosen.reverse()
        return chosen

    def singleton_partition(self) -> list[tuple[int, int]]:
        return [(i, i) for i in range(self.m)]

    def fiber_partition(self) -> list[tuple[int, int]]:
        """Partition an up-closed poset into last-coordinate fibers; each
        fiber is a full interval whose top sits on the ceiling, so every
        top has rank >= 1."""
        assert self.up_closed
        poset = self.poset
        out: list[tuple[int, int]] = []
        i = 0
        elems = poset.elements
        while i < self.m:
            prefix = elems[i][:-1]
            j = i
            while j + 1 < self.m and elems[j + 1][:-1] == prefix:
                j += 1
            top = prefix + (poset.g[-1],)
            assert elems[j] == top and j - i == top[-1] - elems[i][-1]
            out.append((i, j))
            i = j + 1
        return out

    def intrinsic_upper_bound(self) -> int:
        """Largest s any partition could reach: each minimal poset element
        must start an interval, whose top is one of its valid candidates."""
        n = self.poset.arity
        if self.m == 0 or self.up_closed:
            return n
        ub = n
        for i in range(self.m):
            if self.below[i] != 1 << i:
                continue
            best = 0
            for v in self._multiples(i):
                if self.rho[v] > best and self.interval_mask(i, v) is not None:
                    best = self.rho[v]
            ub = min(ub, best)
            if ub == 0:
                break
        return ub


def _get_searcher(poset: CharPoset) -> _Searcher:
    searcher = getattr(poset, "_searcher", None)
    if searcher is None:
        searcher = _Searcher(poset)
        poset._searcher = searcher
    return searcher


def _pairs_to_partition(poset: CharPoset,
                        pairs: list[tuple[int, int]]) -> IntervalPartition:
    elems = poset.elements
    return IntervalPartition(tuple(
        Interval(elems[i], elems[j]) for i, j in pairs))


def exists_partition(poset: CharPoset, s: int, *, timeout_s: float = 60.0,
                     use_prune: bool = True,
                     stats: SearchStats | None = None) -> IntervalPartition | None:
    """Exact decision: a partition with every top of rank >= s, or None.

    Raises SearchTimeout when the budget runs out, which is reported
    distinctly from infeasibility.
    """
    if not 0 <= s <= poset.arity:
        raise ValueError(f"target {s} outside [0, {poset.arity}]")
    if stats is None:
        stats = SearchStats()
    searcher = _get_searcher(poset)
    if searcher.m == 0:
        return IntervalPartition(())
    start = time.monotonic()
    try:
        if s == 0:
            pairs = searcher.singleton_partition()
        elif s == 1 and searcher.up_closed:
            pairs = searcher.fiber_partition()
        else:
            pairs = searcher.decide(s, timeout_s, use_prune, stats)
        if pairs is None:
            return None
        return _pairs_to_partition(poset, pairs)
    finally:
        stats.elapsed_s += time.monotonic() - start


def verify_partition(poset: CharPoset, partition: IntervalPartition,
                     s: int) -> CheckResult:
    """Independent certificate checker: interval containment in the poset,
    pairwise disjointness, exact cover, and min rank of tops >= s.  Linear
    in the poset size, by marking; never trusts solver internals."""
    seen: set[Monomial] = set()
    for interval in partition:
        bottom, top = tuple(interval.bottom), tuple(interval.top)
        if bottom not in poset:
            return CheckResult(False, f"bottom {bottom} is not a poset element")
        if top not in poset:
            return CheckResult(False, f"top {top} is not a poset element")
        if not divides(bottom, top):
            return CheckResult(False, f"bottom {bottom} does not divide top {top}")
        if poset.rho(top) < s:
            return CheckResult(
                False, f"top {top} has rank {poset.rho(top)} < {s}")
        for w in itertools.product(*(range(a, b + 1)
                                     for a, b in zip(bottom, top))):
            if w not in poset:
                return CheckResult(
                    False, f"interval [{bottom}, {top}] leaves the poset at {w}")
            if w in seen:
                return CheckResult(False, f"double cover at {w}")
            seen.add(w)
    if len(seen) != len(poset):
        missing = next(u for u in poset.elements if u not in seen)
        return CheckResult(False, f"uncovered element {missing}")
    return CheckResult(True)


def counting_prune(poset: CharPoset, s: int, uncovered) -> bool:
    """Public form of the level-budget feasibility test.

    `uncovered` is an iterable of monomials still to be covered; the result
    is False only when no completion with all top ranks >= s can exist.
    """
    if s <= 0:
        return True
    searcher = _get_searcher(poset)
    mask = 0
    for u in uncovered:
        mask |= 1 << poset.position(u)
    return searcher.budget_feasible(mask, s)


def sdepth_poset(poset: CharPoset, *, timeout_s: float = 60.0,
                 use_prune: bool = True,
                 upper_bound: int | None = None) -> SdepthCertificate:
    """Maximize s by descending scan from the upper bound; the first
    feasible target wins and its partition is the certificate.

    `timeout_s` bounds the whole scan: each decision gets only the time
    left by the ones before it, and SearchTimeout names the open target.
    """
    if len(poset) == 0:
        raise ValueError("the poset is empty (the quotient module is zero)")
    searcher = _get_searcher(poset)
    ub = searcher.intrinsic_upper_bound()
    if upper_bound is not None:
        ub = min(ub, upper_bound)
    start = time.monotonic()
    total = SearchStats()
    remaining = timeout_s
    for s in range(ub, -1, -1):
        stats = SearchStats()
        try:
            partition = exists_partition(poset, s, timeout_s=remaining,
                                         use_prune=use_prune, stats=stats)
        finally:
            total.merge(stats)
        if partition is not None:
            break
        remaining = timeout_s - (time.monotonic() - start)
    else:
        raise AssertionError("target 0 is always feasible on a nonempty poset")
    total.elapsed_s = time.monotonic() - start
    check = verify_partition(poset, partition, s)
    if not check:
        raise InternalVerificationError(check.reason)
    witnessed = min(poset.rho(iv.top) for iv in partition)
    if witnessed != s:
        raise InternalVerificationError(
            f"scan found target {s} but the partition witnesses {witnessed}")
    return SdepthCertificate(s, partition, total, poset)


def _pure_power_degree(ideal: MonomialIdeal) -> int | None:
    """k when the ideal is the k-th power of the maximal ideal, else None.

    The minimal generators are distinct, so when all have degree k and
    there are C(n+k-1, n-1) of them, they are every monomial of degree k.
    """
    if ideal.is_zero or ideal.is_unit:
        return None
    n, gens = ideal.arity, ideal.generators
    k = sum(gens[0])
    if (len(gens) == math.comb(n + k - 1, n - 1)
            and all(sum(g) == k for g in gens)):
        return k
    return None


def sdepth_ideal(ideal: MonomialIdeal, *, g: Monomial | None = None,
                 timeout_s: float = 60.0,
                 use_prune: bool = True) -> SdepthCertificate:
    """Stanley depth of a nonzero monomial ideal, with certificate."""
    if ideal.is_zero:
        raise ValueError("the zero ideal has no Stanley depth")
    poset = build_poset(ideal, None, g)
    ub = ideal.arity
    k = _pure_power_degree(ideal)
    if k is not None:
        # scan from one above the conjectured value; the counting prune
        # settles the region above it immediately
        ub = min(ub, -(-ideal.arity // (k + 1)) + 1)
    return sdepth_poset(poset, timeout_s=timeout_s, use_prune=use_prune,
                        upper_bound=ub)


def sdepth_quotient(numerator: MonomialIdeal, denominator: MonomialIdeal, *,
                    g: Monomial | None = None,
                    timeout_s: float = 60.0) -> SdepthCertificate:
    """Stanley depth of I/J (S/I when the numerator is the unit ideal)."""
    poset = build_poset(numerator, denominator, g)
    ub = numerator.arity
    if not denominator.is_zero and len(poset) > 0:
        ub -= 1  # a proper quotient has torsion, hence is not free
    return sdepth_poset(poset, timeout_s=timeout_s, upper_bound=ub)


def to_stanley_decomposition(poset: CharPoset,
                             partition: IntervalPartition) -> StanleyDecomposition:
    """Convert a verified partition into Stanley spaces: interval [u, v]
    becomes u * K[Z] with Z the variables where v meets the ceiling."""
    check = verify_partition(poset, partition, 0)
    if not check:
        raise ValueError(f"refusing to convert an invalid partition: {check.reason}")
    spaces = []
    for interval in partition:
        z = frozenset(j + 1 for j in range(poset.arity)
                      if interval.top[j] == poset.g[j])
        spaces.append((interval.bottom, z))
    return StanleyDecomposition(poset.arity, tuple(spaces))


def verify_stanley_decomposition(numerator: MonomialIdeal,
                                 denominator: MonomialIdeal,
                                 decomposition: StanleyDecomposition,
                                 cap: int) -> CheckResult:
    """Degreewise check of the direct-sum property: inside the box of
    monomials with all coordinates <= cap, every monomial of I minus J must
    lie in exactly one space, and no other monomial in any."""
    n = numerator.arity
    g = default_box(numerator, denominator)
    if cap < sum(g):
        raise ValueError(f"cap {cap} is below the box degree {sum(g)}")
    cover: dict[Monomial, int] = {}
    for m, z in decomposition.spaces:
        if len(m) != n:
            return CheckResult(False, f"space monomial {m} has wrong arity")
        if any(e > cap for e in m):
            continue  # no points inside the check box
        ranges = [range(m[j], cap + 1) if (j + 1) in z else (m[j],)
                  for j in range(n)]
        for w in itertools.product(*ranges):
            cover[w] = cover.get(w, 0) + 1
    for w in itertools.product(range(cap + 1), repeat=n):
        member = contains(numerator, w) and not contains(denominator, w)
        hits = cover.get(w, 0)
        if member and hits != 1:
            kind = "uncovered" if hits == 0 else f"covered {hits} times"
            return CheckResult(False, f"module monomial {w} is {kind}")
        if not member and hits != 0:
            return CheckResult(False, f"non-module monomial {w} is covered")
    return CheckResult(True)
