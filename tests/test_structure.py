import pytest

from sdepthlab import (
    MkiRow,
    SaturationReport,
    SweepRow,
    alpha_formula,
    check_counting_inequality,
    conjecture_bound,
    conjecture_sweep,
    exists_partition,
    ideal_saturation_report,
    ideal_vs_quotient_report,
    janet_decomposition,
    maximal_power,
    maximal_power_poset,
    minimalize,
    mki_sweep,
    sdepth_quotient,
    sdepth_zero_quotient,
    unit_ideal,
    verify_stanley_decomposition,
    zero_ideal,
)
from sdepthlab.structure import (
    MKI_CSV_HEADER,
    SWEEP_CSV_HEADER,
    rows_to_csv,
)


def test_sdepth_zero_quotient_examples():
    u = unit_ideal(2)
    zero, report = sdepth_zero_quotient(u, minimalize([(2, 0), (1, 1)], 2))
    assert zero is True
    assert report.saturation == minimalize([(1, 0)], 2)
    assert report.witness == (1, 0)

    zero, report = sdepth_zero_quotient(u, minimalize([(1, 1)], 2))
    assert zero is False and report.witness is None

    zero, _ = sdepth_zero_quotient(u, maximal_power(2, 1))
    assert zero is True


def test_sdepth_zero_quotient_general_pair():
    # (x1)/(x1^2, x1*x2): the class of x1 is killed by the whole maximal
    # ideal, so the quotient has sdepth zero
    numerator = minimalize([(1, 0)], 2)
    denominator = minimalize([(2, 0), (1, 1)], 2)
    zero, report = sdepth_zero_quotient(numerator, denominator)
    assert zero is True
    assert report.witness == (1, 0)
    assert sdepth_quotient(numerator, denominator).s == 0

    # (x1)/(x1*x2) is a free K[x1] line: only x2 kills it, not every
    # variable, so the saturation is zero and sdepth is positive
    free_line = minimalize([(1, 1)], 2)
    zero, report = sdepth_zero_quotient(numerator, free_line)
    assert zero is False
    assert report.saturation == free_line
    assert sdepth_quotient(numerator, free_line).s == 1


def test_sdepth_zero_quotient_matches_engine_spot_checks():
    u = unit_ideal(3)
    for gens in ([(1, 0, 0)], [(1, 1, 0)], [(2, 0, 0), (1, 1, 0)],
                 [(1, 1, 1)], [(2, 1, 0), (0, 0, 2)]):
        ideal = minimalize(gens, 3)
        zero, _ = sdepth_zero_quotient(u, ideal)
        assert zero == (sdepth_quotient(u, ideal).s == 0)


def test_ideal_saturation_report():
    report = ideal_saturation_report(minimalize([(2, 0), (1, 1)], 2))
    assert not report.is_saturated
    assert report.saturation == minimalize([(1, 0)], 2)
    saturated = ideal_saturation_report(minimalize([(1, 1)], 2))
    assert saturated.is_saturated and saturated.witness is None


def test_saturation_report_keeps_its_invariant():
    """A report is saturated exactly when it has no witness; a record that
    says otherwise is refused."""
    ideal = minimalize([(2, 0), (1, 1)], 2)
    report = ideal_saturation_report(ideal)
    assert report == SaturationReport(ideal, minimalize([(1, 0)], 2),
                                      False, (1, 0))
    for is_saturated, witness in ((True, (1, 0)), (False, None)):
        with pytest.raises(AssertionError):
            SaturationReport(ideal, ideal, is_saturated, witness)


def test_janet_examples():
    d = janet_decomposition(minimalize([(1, 1)], 2))
    assert d.spaces == (((0, 0), frozenset({1})), ((0, 1), frozenset({2})))
    assert d.sdepth == 1

    dm = janet_decomposition(maximal_power(2, 1))
    assert dm.sdepth == 0

    d1 = janet_decomposition(minimalize([(2,)], 1))
    assert d1.spaces == (((0,), frozenset()), ((1,), frozenset()))

    with pytest.raises(ValueError):
        janet_decomposition(unit_ideal(2))


def test_janet_of_zero_ideal_is_free_ring():
    d = janet_decomposition(zero_ideal(3))
    assert d.spaces == (((0, 0, 0), frozenset({1, 2, 3})),)
    assert verify_stanley_decomposition(unit_ideal(3), zero_ideal(3), d, 2)


def test_janet_splits_one_variable_at_a_time_without_recursing():
    """S/(x1500) splits once per variable, 1500 layers deep, with no
    Python frame per layer: its one space is 1 * K[x1, ..., x1499]."""
    n = 1500
    d = janet_decomposition(minimalize([(0,) * (n - 1) + (1,)], n))
    assert d.spaces == (((0,) * n, frozenset(range(1, n))),)


def test_janet_always_verifies_spot_checks():
    u = unit_ideal(3)
    for gens in ([(1, 0, 0)], [(0, 1, 2)], [(2, 0, 0), (1, 1, 0)],
                 [(1, 1, 0), (0, 1, 1), (1, 0, 1)]):
        ideal = minimalize(gens, 3)
        d = janet_decomposition(ideal)
        assert verify_stanley_decomposition(u, ideal, d, 6)
        assert d.sdepth <= sdepth_quotient(u, ideal).s


def test_conjecture_bound():
    assert conjecture_bound(6, 1) == 3
    assert conjecture_bound(4, 2) == 2
    for n in range(2, 7):
        for k in range(n - 1, n + 2):
            assert conjecture_bound(n, k) == 1
    with pytest.raises(ValueError):
        conjecture_bound(0, 1)


def test_check_counting_inequality_at_conjectured_value():
    # the failure of the level inequality is algebraically equivalent to
    # n + k < (k+1)(a+1), which always holds at a = ceil(n/(k+1))
    for n in range(1, 7):
        for k in range(1, 5):
            a = conjecture_bound(n, k)
            fails = check_counting_inequality(n, k, a)
            assert fails == (n + k < (k + 1) * (a + 1))
            assert fails is True


def test_check_counting_inequality_direct_evaluation():
    # a = n fails for all n >= 2 (evaluated straight from the alpha values)
    for n in range(2, 6):
        for k in range(1, 4):
            alpha_k = alpha_formula(n, k, k)
            alpha_next = alpha_formula(n, k, k + 1)
            expected = alpha_next < n * n + (alpha_k - n) * (n + 1)
            assert check_counting_inequality(n, k, n) == expected is True
    # a huge target always fails: the right side grows without bound
    assert check_counting_inequality(3, 2, 50) is True
    # at a = 1, n = 3, k = 1 the inequality itself holds (no certificate)
    assert check_counting_inequality(3, 1, 1) is False


def test_counting_certificate_implies_engine_infeasibility():
    for n in (2, 3):
        for k in (1, 2):
            a = conjecture_bound(n, k)
            if check_counting_inequality(n, k, a):
                assert exists_partition(maximal_power_poset(n, k), a + 1) is None


def test_conjecture_sweep_small_grid():
    rows = conjecture_sweep(range(1, 4), range(1, 3))
    assert len(rows) == 6
    assert [(r.n, r.k) for r in rows] == [(1, 1), (1, 2), (2, 1), (2, 2),
                                          (3, 1), (3, 2)]
    for row in rows:
        assert row.status == "ok"
        assert row.alpha_k == alpha_formula(row.n, row.k, row.k)
        assert row.bound == conjecture_bound(row.n, row.k)
        assert 1 <= row.sdepth <= row.bound
        assert row.conjecture_match == (row.sdepth == row.bound)
    by_cell = {(r.n, r.k): r.sdepth for r in rows}
    assert by_cell[(2, 1)] == 1 and by_cell[(3, 1)] == 2


def test_conjecture_sweep_timeout_rows_are_reported():
    rows = conjecture_sweep([4], [1], timeout_s=1e-12)
    assert rows[0].status == "timeout"
    assert rows[0].sdepth is None and rows[0].conjecture_match is None


def test_sweep_csv_rendering():
    rows = conjecture_sweep(range(1, 3), range(1, 2))
    csv = rows_to_csv(SweepRow, rows)
    lines = csv.strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1].startswith("1,1,1,1,1,true,ok,")
    assert len(lines) == 3


def test_csv_headers_are_the_row_fields():
    """`rows_to_csv` names the fields of the row type in order, so the two
    CSV schemas follow the rows: a header alone for no rows."""
    assert rows_to_csv(SweepRow, []) == SWEEP_CSV_HEADER + "\n"
    assert rows_to_csv(MkiRow, []) == MKI_CSV_HEADER + "\n"


def test_mki_sweep_frozen_small_case():
    rows = mki_sweep(minimalize([(1, 0)], 2), range(3))
    assert [(r.k, r.num_gens, r.sdepth) for r in rows] == \
        [(0, 1, 2), (1, 2, 1), (2, 3, 1)]
    assert all(r.status == "ok" for r in rows)
    csv = rows_to_csv(MkiRow, rows)
    assert csv.splitlines()[0] == MKI_CSV_HEADER
    with pytest.raises(ValueError):
        mki_sweep(zero_ideal(2), range(2))
    with pytest.raises(ValueError):
        mki_sweep(minimalize([(1, 0)], 2), [-1])


def test_ideal_vs_quotient_report():
    report = ideal_vs_quotient_report(maximal_power(4, 1))
    assert (report.sdepth_ideal, report.sdepth_quotient) == (2, 0)
    assert report.inequality_holds is True

    principal = ideal_vs_quotient_report(minimalize([(1, 0)], 2))
    assert (principal.sdepth_ideal, principal.sdepth_quotient) == (2, 1)
    assert principal.inequality_holds is True

    with pytest.raises(ValueError):
        ideal_vs_quotient_report(zero_ideal(2))
    with pytest.raises(ValueError):
        ideal_vs_quotient_report(unit_ideal(2))
