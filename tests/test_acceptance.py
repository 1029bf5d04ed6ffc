"""Acceptance suite: one test per release criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import json
import time

import pytest

from bruteforce import (
    brute_force_min_gens,
    brute_force_sdepth,
    member_of_scaled_ideal,
)
from sdepthlab import (
    alpha_enumerate,
    alpha_formula,
    build_poset,
    check_counting_inequality,
    conjecture_bound,
    conjecture_sweep,
    exists_partition,
    janet_decomposition,
    maximal_power,
    maximal_power_poset,
    minimalize,
    mki_sweep,
    sdepth_ideal,
    sdepth_quotient,
    sdepth_zero_quotient,
    unit_ideal,
    verify_stanley_decomposition,
)
from sdepthlab.cli import main
from sdepthlab.posets import default_box


def _report(num: int, name: str, ok: bool, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} "
          f"({time.perf_counter() - started:.1f}s)")
    assert ok, f"criterion {num} ({name}) failed"


@pytest.fixture(scope="module")
def quotient_results(small_corpus, random4_corpus):
    """Engine results for S/I over the whole criterion-6 corpus:
    (ideal, poset, sdepth)."""
    results = []
    for ideal in small_corpus + random4_corpus:
        u = unit_ideal(ideal.arity)
        poset = build_poset(u, ideal)
        s = sdepth_quotient(u, ideal).s if len(poset) else None
        results.append((ideal, poset, s))
    return results


def test_criterion_01_alpha_oracle_equivalence():
    started = time.perf_counter()
    ok = all(
        alpha_formula(n, k, d) == alpha_enumerate(n, k, d)
        for n in range(1, 6)
        for k in range(1, 5)
        for d in range(k, k * n + 1)
    )
    _report(1, "level-count formula equals enumeration (n<=5, k<=4)", ok,
            started)


def test_criterion_02_maximal_ideal_values():
    started = time.perf_counter()
    ok = True
    for n in range(2, 7):
        cert = sdepth_ideal(maximal_power(n, 1), timeout_s=60.0)
        expected = -(-n // 2)
        if cert.s != expected:
            print(f"  n={n}: got {cert.s}, expected {expected}")
            ok = False
    _report(2, "sdepth(m) = ceil(n/2) for n = 2..6", ok, started)


def test_criterion_03_high_power_special_case():
    started = time.perf_counter()
    ok = True
    for n in range(2, 5):
        for k in range(n - 1, n + 2):
            cert = sdepth_ideal(maximal_power(n, k), timeout_s=60.0)
            if cert.s != 1:
                print(f"  n={n}, k={k}: got {cert.s}, expected 1")
                ok = False
    _report(3, "sdepth(m^k) = 1 for k >= n-1 (n <= 4, k <= n+1)", ok, started)


def test_criterion_04_counting_certificate():
    started = time.perf_counter()
    ok = True
    for n in range(1, 7):
        for k in range(1, 5):
            a = conjecture_bound(n, k)
            fails = check_counting_inequality(n, k, a)
            algebraic = n + k < (k + 1) * (a + 1)
            if not (fails and algebraic and fails == algebraic):
                print(f"  ({n},{k}): inequality failure={fails}, "
                      f"algebraic contradiction={algebraic}")
                ok = False
    # differentially: the engine finds no partition one above the bound
    for n in range(1, 5):
        for k in range(1, 4):
            a = conjecture_bound(n, k)
            if a + 1 > n:
                continue
            if exists_partition(maximal_power_poset(n, k), a + 1,
                                timeout_s=60.0) is not None:
                print(f"  ({n},{k}): unexpected partition at s={a + 1}")
                ok = False
    _report(4, "counting inequality certifies the bound (n<=6, k<=4)", ok,
            started)


def test_criterion_05_conjecture_sweep():
    started = time.perf_counter()
    rows = conjecture_sweep(range(1, 5), range(1, 4), timeout_s=60.0)
    rows += conjecture_sweep([5], [1, 2], timeout_s=60.0)
    ok = True
    timeouts = [(r.n, r.k) for r in rows if r.status == "timeout"]
    if timeouts and timeouts != [(5, 2)]:
        print(f"  unexpected timeouts: {timeouts}")
        ok = False
    for r in rows:
        if r.status != "ok":
            continue
        if not (1 <= r.sdepth <= r.bound):
            print(f"  ({r.n},{r.k}): sdepth {r.sdepth} outside [1, {r.bound}]")
            ok = False
        if r.conjecture_match is None:
            print(f"  ({r.n},{r.k}): equality not reported")
            ok = False
    _report(5, "sweep: 1 <= sdepth(m^k) <= ceil(n/(k+1)), equality reported",
            ok, started)


def test_criterion_06_depth_zero_equivalence(quotient_results):
    started = time.perf_counter()
    ok = True
    checked = 0
    for ideal, poset, s in quotient_results:
        if s is None:
            continue
        zero, _ = sdepth_zero_quotient(unit_ideal(ideal.arity), ideal)
        checked += 1
        if zero != (s == 0):
            print(f"  disagreement on {ideal.generators}: "
                  f"saturation={zero}, engine s={s}")
            ok = False
    ok = ok and checked > 1000
    _report(6, f"sdepth-zero criterion matches the engine on {checked} ideals",
            ok, started)


def test_criterion_07_brute_force_oracle(quotient_results):
    started = time.perf_counter()
    ok = True
    checked = 0
    for ideal, poset, s in quotient_results:
        if s is None or len(poset) > 12:
            continue
        checked += 1
        oracle = brute_force_sdepth(poset.elements, poset.g)
        if s != oracle:
            print(f"  {ideal.generators}: engine {s}, oracle {oracle}")
            ok = False
    ok = ok and checked > 400
    _report(7, f"engine equals exhaustive partition maximum on {checked} "
            "posets with |P| <= 12", ok, started)


def test_criterion_08_janet_validity(quotient_results):
    started = time.perf_counter()
    ok = True
    for ideal, poset, s in quotient_results:
        if ideal.is_unit:
            continue
        u = unit_ideal(ideal.arity)
        decomposition = janet_decomposition(ideal)
        cap = max(sum(default_box(u, ideal)), 1)
        check = verify_stanley_decomposition(u, ideal, decomposition, cap)
        if not check:
            print(f"  {ideal.generators}: {check.reason}")
            ok = False
        if s is not None and decomposition.sdepth is not None \
                and decomposition.sdepth > s:
            print(f"  {ideal.generators}: Janet sdepth "
                  f"{decomposition.sdepth} exceeds engine {s}")
            ok = False
    _report(8, "Janet decomposition verifies and lower-bounds the engine",
            ok, started)


# frozen from engine runs, cross-checked against the brute-force partition
# maximizer (|P| <= 20 cells) and the membership-oracle generator counts
MKI_GOLDENS = {
    ((1,), 2): [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
    ((1,), 3): [(0, 1, 3), (1, 3, 2), (2, 6, 1), (3, 10, 1), (4, 15, 1)],
    ((1, 2), 2): [(0, 2, 1), (1, 3, 1), (2, 4, 1), (3, 5, 1), (4, 6, 1)],
    ((1, 2), 3): [(0, 2, 2), (1, 5, 1), (2, 9, 1), (3, 14, 1), (4, 20, 1)],
    ((1, 1), 2): [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1)],
    ((1, 1), 3): [(0, 1, 3), (1, 3, 2), (2, 6, 1), (3, 10, 1), (4, 15, 1)],
}


def _mki_ideal(shape, n):
    if shape == (1,):
        return minimalize([(1,) + (0,) * (n - 1)], n)
    if shape == (1, 2):
        return minimalize([(1,) + (0,) * (n - 1), (0, 2) + (0,) * (n - 2)], n)
    return minimalize([(1, 1) + (0,) * (n - 2)], n)


def test_criterion_09_scaled_power_evidence():
    started = time.perf_counter()
    ok = True
    for (shape, n), golden in MKI_GOLDENS.items():
        ideal = _mki_ideal(shape, n)
        rows = mki_sweep(ideal, range(5), timeout_s=60.0)
        got = [(r.k, r.num_gens, r.sdepth) for r in rows]
        if got != golden:
            print(f"  {shape} n={n}: {got} != {golden}")
            ok = False
        # sdepth reaches 1 within the range and stays there
        values = [r.sdepth for r in rows]
        onset = values.index(1) if 1 in values else None
        if onset is None or any(v != 1 for v in values[onset:]):
            print(f"  {shape} n={n}: no stable tail of 1s in {values}")
            ok = False
        # generator counts against the independent membership oracle
        for r in rows:
            cap = r.k + max(sum(g) for g in ideal.generators) + 1
            oracle = brute_force_min_gens(
                lambda u: member_of_scaled_ideal(ideal.generators, r.k, u),
                n, cap)
            if len(oracle) != r.num_gens:
                print(f"  {shape} n={n} k={r.k}: |G| {r.num_gens} != "
                      f"oracle {len(oracle)}")
                ok = False
    _report(9, "sdepth(m^k I) stabilizes at 1 with verified generator counts",
            ok, started)


def test_criterion_10_determinism_and_integrity(tmp_path):
    started = time.perf_counter()
    ok = True

    inputs = {
        "m3.txt": "x1\nx2\nx3\n",
        "mixed.txt": "x1^2\nx1*x2\nx3\n",
        "unit.txt": "1\n",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)

    # byte-identical certificates across repeated runs, all passing verify
    for args in (["sdepth", "--input", str(tmp_path / "m3.txt")],
                 ["sdepth", "--input", str(tmp_path / "mixed.txt")],
                 ["quotient", "--input", str(tmp_path / "unit.txt"),
                  "--input-j", str(tmp_path / "mixed.txt")]):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        if main(args + ["--out", str(out_a)]) != 0:
            ok = False
        if main(args + ["--out", str(out_b)]) != 0:
            ok = False
        if out_a.read_bytes() != out_b.read_bytes():
            print(f"  nondeterministic document for {args}")
            ok = False
        if main(["verify", str(out_a)]) != 0:
            print(f"  emitted certificate failed verification for {args}")
            ok = False

    # sweep documents identical modulo the ms timing column
    sweep_a = tmp_path / "sweep_a.csv"
    sweep_b = tmp_path / "sweep_b.csv"
    for path in (sweep_a, sweep_b):
        if main(["conjecture", "--n-max", "3", "--k-max", "2",
                 "--out", str(path)]) != 0:
            ok = False

    def mask_ms(text):
        rows = [line.split(",") for line in text.strip().splitlines()]
        return [row[:7] + row[8:] for row in rows]

    if mask_ms(sweep_a.read_text()) != mask_ms(sweep_b.read_text()):
        print("  sweep CSV differs beyond the timing column")
        ok = False

    _report(10, "determinism, certificate integrity", ok, started)
