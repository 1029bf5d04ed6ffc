"""Independent brute-force oracles used by the test suite.

Everything here is deliberately naive and shares no code with the solver:
plain tuples, sets and recursion.  These implementations define expected
values; they are never imported by the package itself.
"""

from itertools import product

from sdepthlab.monomials import DEFAULT_EXPONENT_CAP, ArityMismatch


def as_monomial_walk(exponents, arity=None):
    """`as_monomial` by one generator pass and a walk over the exponents,
    with its error types and messages."""
    m = tuple(int(e) for e in exponents)
    if arity is not None and len(m) != arity:
        raise ArityMismatch(f"expected arity {arity}, got {len(m)}")
    for e in m:
        if e < 0:
            raise ValueError(f"negative exponent in {m}")
        if e > DEFAULT_EXPONENT_CAP:
            raise ValueError(f"exponent {e} exceeds cap {DEFAULT_EXPONENT_CAP}")
    return m


def degrevlex_key_walk(u):
    """`degrevlex_key` by a generator over the reversed exponents."""
    return (sum(u), tuple(-e for e in reversed(u)))


def maximal_power_filter(n, k):
    """The generators of m^k in n variables by a filter over the whole box
    [0, k]^n: every exponent tuple of total degree k, in lex order."""
    return [u for u in product(range(k + 1), repeat=n) if sum(u) == k]


def box_interval(bottom, top):
    return list(product(*(range(a, b + 1) for a, b in zip(bottom, top))))


def product_walk_poset(num_gens, den_gens, g):
    """The characteristic poset by a product walk over the sub-box [lo, g],
    lo the componentwise minimum of `num_gens` (g when there are none):
    one exponent tuple per cell, in lex order, numbered by that order, and
    kept when it lies in I and not in J.  Returns the (code, element)
    pairs of the elements and every cell of the sub-box in order."""
    lo = tuple(map(min, zip(*num_gens))) if num_gens else tuple(g)
    cells = list(product(*(range(a, b + 1) for a, b in zip(lo, g))))
    found = [(c, u) for c, u in enumerate(cells)
             if member_of_ideal(num_gens, u)
             and not member_of_ideal(den_gens, u)]
    return found, cells


def brute_force_sdepth(elements, g) -> int:
    """Maximize min rho(top) over ALL partitions of `elements` into
    divisibility intervals fully contained in `elements`.

    Exhaustive recursion with an admissible cut (a branch whose running
    minimum cannot beat the incumbent is abandoned), so the returned
    maximum is exact.
    """
    elements = frozenset(tuple(u) for u in elements)
    if not elements:
        raise ValueError("empty poset")
    n = len(g)

    def rho(u):
        return sum(1 for a, b in zip(u, g) if a == b)

    best = -1

    def rec(uncovered, running_min):
        nonlocal best
        if running_min <= best:
            return
        if not uncovered:
            best = running_min
            return
        w = min(uncovered)  # lex-least element: forced interval bottom
        for top in sorted(uncovered):
            if all(a <= b for a, b in zip(w, top)):
                cell = box_interval(w, top)
                if all(u in uncovered for u in cell):
                    rec(uncovered - set(cell), min(running_min, rho(top)))

    rec(elements, n)
    return best


def enumerate_interval_partitions(elements):
    """Yield every partition of `elements` into valid intervals, as lists
    of (bottom, top) pairs."""
    elements = frozenset(tuple(u) for u in elements)

    def rec(uncovered):
        if not uncovered:
            yield []
            return
        w = min(uncovered)
        for top in sorted(uncovered):
            if all(a <= b for a, b in zip(w, top)):
                cell = box_interval(w, top)
                if all(u in uncovered for u in cell):
                    for rest in rec(uncovered - set(cell)):
                        yield [(w, top)] + rest

    yield from rec(elements)


def divides_raw(u, v) -> bool:
    return all(a <= b for a, b in zip(u, v))


def member_of_ideal(gens, u) -> bool:
    """Raw membership oracle: some generator divides u."""
    return any(divides_raw(g, u) for g in gens)


def member_of_scaled_ideal(gens, k, u) -> bool:
    """Membership in m^k * I: u = w * g with deg(w) >= k for a generator g."""
    return any(divides_raw(g, u) and sum(u) - sum(g) >= k for g in gens)


def brute_force_min_gens(member, n, coordinate_cap) -> list:
    """Minimal generators of an arbitrary monomial-membership predicate:
    members none of whose immediate divisors are members, enumerated over
    the cap box."""
    gens = []
    for u in product(range(coordinate_cap + 1), repeat=n):
        if not member(u):
            continue
        is_minimal = True
        for j in range(n):
            if u[j] > 0:
                below = u[:j] + (u[j] - 1,) + u[j + 1:]
                if member(below):
                    is_minimal = False
                    break
        if is_minimal:
            gens.append(u)
    return gens


def brute_force_saturation_members(gens, n, coordinate_cap, power) -> set:
    """Monomials u (within the cap box) with u * x_j^power in the ideal for
    every j: a finite stand-in for membership in (I : m^infinity)."""
    out = set()
    for u in product(range(coordinate_cap + 1), repeat=n):
        pushed = []
        for j in range(n):
            v = list(u)
            v[j] += power
            pushed.append(member_of_ideal(gens, tuple(v)))
        if all(pushed):
            out.add(u)
    return out


def brute_force_decomposition_check(num_gens, den_gens, n, spaces,
                                    cap) -> bool:
    """Cube walk over [0, cap]^n: every monomial of I minus J lies in
    exactly one space m * K[Z], and no other monomial lies in any.  Spaces
    with an exponent above cap have no point in the cube and are skipped."""
    cover = {}
    for m, z in spaces:
        if any(e > cap for e in m):
            continue
        ranges = [range(m[j], cap + 1) if (j + 1) in z else (m[j],)
                  for j in range(n)]
        for w in product(*ranges):
            cover[w] = cover.get(w, 0) + 1
    for w in product(range(cap + 1), repeat=n):
        member = (member_of_ideal(num_gens, w)
                  and not member_of_ideal(den_gens, w))
        if cover.get(w, 0) != (1 if member else 0):
            return False
    return True


def brute_force_verify_partition(elements, g, intervals, s) -> str:
    """Per-cell partition check: "" when the (bottom, top) pairs partition
    `elements` into intervals whose tops have rank >= s, else the reason
    of the first failure.  Each interval's cells come from its own box
    enumeration in lex order, looked up in a set of the elements."""
    members = set(elements)
    seen = set()
    for bottom, top in intervals:
        bottom, top = tuple(bottom), tuple(top)
        if bottom not in members:
            return f"bottom {bottom} is not a poset element"
        if top not in members:
            return f"top {top} is not a poset element"
        if not divides_raw(bottom, top):
            return f"bottom {bottom} does not divide top {top}"
        rank = sum(1 for a, b in zip(top, g) if a == b)
        if rank < s:
            return f"top {top} has rank {rank} < {s}"
        for w in box_interval(bottom, top):
            if w not in members:
                return f"interval [{bottom}, {top}] leaves the poset at {w}"
            if w in seen:
                return f"double cover at {w}"
            seen.add(w)
    if len(seen) != len(members):
        return f"uncovered element {min(members - seen)}"
    return ""
