"""Structural Stanley depth results that bypass the partition search.

* the depth-zero criterion: for a quotient of monomial ideals, Stanley
  depth zero is equivalent to a nonzero saturation submodule, which is a
  pure ideal computation;
* the Janet decomposition of S/I: a constructive Stanley decomposition
  obtained by peeling powers of the last variable;
* a counting certificate bounding the Stanley depth of powers of the
  maximal ideal from above, plus sweep harnesses that gather exact values
  next to the conjectured ceiling(n / (k+1)) without asserting equality.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple

from .monomials import (
    Monomial,
    MonomialIdeal,
    QuotientPresentation,
    contains,
    ideal_intersection,
    ideal_product,
    maximal_power,
    minimal_antichain,
    num_min_gens,
    saturate,
    unit_ideal,
)
from .partitions import (
    SearchTimeout,
    StanleyDecomposition,
    sdepth_ideal,
    sdepth_quotient,
)
from .posets import alpha_formula, check_indexable


class SaturationReport(namedtuple(
        "SaturationReport", "ideal saturation is_saturated witness")):
    """Outcome of the saturation comparison behind the depth-zero test:
    the ideal is saturated exactly when there is no witness."""

    __slots__ = ()

    def __new__(cls, ideal: MonomialIdeal, saturation: MonomialIdeal,
                is_saturated: bool, witness: Monomial | None):
        assert is_saturated == (witness is None)
        return super().__new__(cls, ideal, saturation, is_saturated, witness)


def ideal_saturation_report(ideal: MonomialIdeal) -> SaturationReport:
    """Compare an ideal with its total saturation: the report of S/I, as
    sat(I) intersected with the unit ideal is sat(I)."""
    return sdepth_zero_quotient(unit_ideal(ideal.arity), ideal)[1]


def sdepth_zero_quotient(numerator: MonomialIdeal,
                         denominator: MonomialIdeal) -> tuple[bool, SaturationReport]:
    """Decide sdepth(I/J) = 0 without any search.

    A quotient of monomial ideals has one-dimensional graded pieces, so its
    Stanley depth vanishes exactly when its depth does, i.e. when the
    saturation submodule ((J : m^infinity) cap I) / J is nonzero.  For S/I
    (unit numerator) this is the classical test I^sat != I.

    The search decides the same question by its own construction at
    target 1 (`partitions`, "Fibers"); this test stays as the independent
    oracle, which acceptance criterion 6 and the benchmark's janet check
    both use.
    """
    QuotientPresentation(numerator, denominator)
    relevant = ideal_intersection(saturate(denominator), numerator)
    witness = next((g for g in relevant.generators
                    if not contains(denominator, g)), None)
    report = SaturationReport(denominator, relevant, witness is None, witness)
    return not report.is_saturated, report


def _janet(n: int, gens: tuple[Monomial, ...]) -> list[tuple[Monomial, frozenset[int]]]:
    """The Janet spaces of S/I in n variables, by splitting along the last
    variable, then the one before it, down to none.  Each pending layer is
    a quotient in k variables, the exponents already fixed on x_(k+1),
    ..., x_n, and the variables already adjoined; a layer in no variables
    is one space.  The layers of a split are pushed last first, so they
    pop, and give their spaces, in the order of x_k's exponent."""
    spaces: list[tuple[Monomial, frozenset[int]]] = []
    pending = [(n, gens, (), frozenset())]
    while pending:
        k, gens, fixed, adjoined = pending.pop()
        if any(sum(g) == 0 for g in gens):
            continue  # unit ideal: the layer is zero
        if k == 0:
            spaces.append((fixed, adjoined))
            continue
        q = max((g[k - 1] for g in gens), default=0)
        for j in range(q, -1, -1):
            # the j-th layer is S'/I_j, with I_j generated by the x_k-free
            # parts of the generators whose x_k exponent is at most j
            pending.append((k - 1, minimal_antichain(
                [g[:-1] for g in gens if g[k - 1] <= j], k - 1),
                (j,) + fixed, adjoined | {k} if j == q else adjoined))
    return spaces


def janet_decomposition(ideal: MonomialIdeal) -> StanleyDecomposition:
    """Stanley decomposition of S/I built by splitting along the last
    variable: layers 1, x_n, ..., x_n^(q-1) of quotients in one fewer
    variable, and a final layer x_n^q with x_n adjoined to every space,
    each layer split again the same way (`_janet`, on a stack of pending
    layers, so no input is too deep to split)."""
    if ideal.is_unit:
        raise ValueError("S/I is the zero module for the unit ideal")
    return StanleyDecomposition(
        ideal.arity, tuple(_janet(ideal.arity, ideal.generators)))


def conjecture_bound(n: int, k: int) -> int:
    """ceil(n / (k+1)), the conjectured value of sdepth(m^k)."""
    if n < 1 or k < 1:
        raise ValueError(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    return -(-n // (k + 1))


def check_counting_inequality(n: int, k: int, a: int) -> bool:
    """True iff the degree-(k+1) level of the m^k poset is too small to
    host a partition with all top ranks >= a+1, i.e. iff

        alpha_{k+1} >= n*a + (alpha_k - n)*(a + 1)

    FAILS.  A failure certifies sdepth(m^k) <= a.  No monomial of degree
    k has an exponent above k, so alpha_k = C(n+k-1, k) counts them all;
    at degree k+1 only the n pure powers x_j^(k+1) have one, so
    alpha_{k+1} = C(n+k, k+1) - n, which is 0 for n = 1."""
    if n < 1 or k < 1 or a < 1:
        raise ValueError("need n, k, a >= 1")
    alpha_k = math.comb(n + k - 1, k)
    alpha_next = math.comb(n + k, k + 1) - n
    return alpha_next < n * a + (alpha_k - n) * (a + 1)


class SweepRow(namedtuple("SweepRow", "n k alpha_k sdepth bound "
                                      "conjecture_match status ms nodes")):
    """One cell of the maximal-power sweep.  `bound` is the conjectured
    value; equality with the computed sdepth is reported, never asserted."""

    __slots__ = ()


def conjecture_sweep(n_values, k_values, *,
                     timeout_s: float = 60.0) -> list[SweepRow]:
    """Exact sdepth(m^k) across a grid, next to the conjectured value.
    Cells that exhaust their budget are reported with status 'timeout' and
    the sweep continues.  A cell whose sub-box [0, k]^n (for n >= 2) is
    too large to index is refused before m^k is built, as in `mki_sweep`."""
    rows = []
    for n in sorted(set(n_values)):
        for k in sorted(set(k_values)):
            if n > 1:
                check_indexable((k + 1,) * n)
            bound = conjecture_bound(n, k)
            sdepth, status, ms, nodes = _timed_sdepth(maximal_power(n, k),
                                                      timeout_s)
            match = (sdepth == bound) if sdepth is not None else None
            rows.append(SweepRow(n, k, alpha_formula(n, k, k), sdepth, bound,
                                 match, status, ms, nodes))
    return rows


def _timed_sdepth(ideal: MonomialIdeal,
                  timeout_s: float) -> tuple[int | None, str, int, int]:
    """(sdepth, status, ms, nodes) of one sweep cell.  A cell that exhausts
    its budget gets sdepth None and status 'timeout' instead of raising."""
    start = time.perf_counter()
    try:
        cert = sdepth_ideal(ideal, timeout_s=timeout_s)
        sdepth, nodes, status = cert.s, cert.stats.nodes, "ok"
    except SearchTimeout as exc:
        sdepth, nodes, status = None, exc.stats.nodes, "timeout"
    return sdepth, status, int((time.perf_counter() - start) * 1000), nodes


class MkiRow(namedtuple("MkiRow", "k num_gens sdepth status ms nodes")):
    """One cell of the sweep over m^k * I: the minimal generator count (the
    Hilbert function of the associated fiber algebra) and the exact sdepth."""

    __slots__ = ()


def mki_sweep(ideal: MonomialIdeal, k_values, *,
              timeout_s: float = 60.0) -> list[MkiRow]:
    """For each k, build m^k * I and record |G(m^k I)| plus sdepth(m^k I).
    k = 0 contributes the row of I itself.

    A sub-box of m^k * I too large to index is refused before m^k or the
    product is built, from the sides read off I.  For n >= 2 the sub-box
    is exactly [lo(I), g(I) + k], lo and g the componentwise minimum and
    maximum of the generators: x_j^k * h stays minimal for a generator h
    of largest x_j exponent, as any generator of m^k * I dividing it is
    x^a * h' with h' | h, so h' = h and a = k e_j; and x_i^k * h with
    i != j and h of least x_j exponent reaches lo_j.  For n = 1, m^k * I
    is principal and its sub-box one cell."""
    if ideal.is_zero:
        raise ValueError("need a nonzero ideal")
    lo = tuple(map(min, zip(*ideal.generators)))
    hi = tuple(map(max, zip(*ideal.generators)))
    rows = []
    for k in sorted(set(k_values)):
        if k < 0:
            raise ValueError(f"negative power {k}")
        if ideal.arity > 1:
            check_indexable([b - a + k + 1 for a, b in zip(lo, hi)])
        scaled = ideal if k == 0 else ideal_product(
            maximal_power(ideal.arity, k), ideal)
        rows.append(MkiRow(k, num_min_gens(scaled),
                           *_timed_sdepth(scaled, timeout_s)))
    return rows


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def rows_to_csv(row_type, rows) -> str:
    """CSV of sweep rows: a header of the `row_type` field names, in order,
    then one line per row; None is an empty cell, booleans are lowercase."""
    names = row_type._fields
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_csv_cell(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


# The headers rows_to_csv writes for each row type: the CSV schemas of the
# conjecture and mki commands, so the field order of the rows is fixed.
SWEEP_CSV_HEADER = "n,k,alpha_k,sdepth,bound,conjecture_match,status,ms,nodes"
MKI_CSV_HEADER = "k,num_gens,sdepth,status,ms,nodes"


class ComparisonReport(namedtuple(
        "ComparisonReport", "sdepth_ideal sdepth_quotient inequality_holds")):
    """Exploratory comparison of sdepth(I) against sdepth(S/I) + 1.  The
    inequality is an open question; this reports, it does not assert."""

    __slots__ = ()


def ideal_vs_quotient_report(ideal: MonomialIdeal, *,
                             timeout_s: float = 60.0) -> ComparisonReport:
    """Compute sdepth(I) and sdepth(S/I) exactly and report whether
    sdepth(I) >= sdepth(S/I) + 1 held for this ideal.  Only the two values
    are kept, so the first poset is freed before the second is built."""
    if ideal.is_zero or ideal.is_unit:
        raise ValueError("need a proper nonzero ideal")
    s_ideal = sdepth_ideal(ideal, timeout_s=timeout_s).s
    s_quotient = sdepth_quotient(unit_ideal(ideal.arity), ideal,
                                 timeout_s=timeout_s).s
    return ComparisonReport(s_ideal, s_quotient, s_ideal >= s_quotient + 1)
