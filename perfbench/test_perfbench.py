"""Tests of the benchmark's own code: seeded generation and answer checks.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import random
import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402

cli, structure, sdepthlab = run._import_sdepthlab(ROOT)

# The seed the baseline was recorded with, and the one kept back for
# confirming later claims.
SEEDS = (1, 2)


def _written(tmp_path: Path, workload: str, seed: int, label: str) -> dict:
    directory = tmp_path / label
    workloads.write_inputs(workloads.generate(workload, seed), directory)
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_writes_identical_files(tmp_path, workload):
    for seed in SEEDS:
        first = _written(tmp_path, workload, seed, f"a{seed}")
        assert first == _written(tmp_path, workload, seed, f"b{seed}")
    assert (_written(tmp_path, workload, SEEDS[0], "c")
            != _written(tmp_path, workload, SEEDS[1], "d"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_presentations_parse_to_the_canonical_ideal(workload):
    for inst in workloads.generate(workload, SEEDS[0]):
        for stem, gens in inst.ideals.items():
            ideal = sdepthlab.parse_ideal(inst.files[stem], arity=inst.n)
            expected = ((0,) * inst.n,) if gens is None else gens
            assert sorted(ideal.generators) == sorted(expected), inst.name


def test_instance_mix():
    counts = {w: len(workloads.generate(w, SEEDS[0])) for w in workloads.WORKLOADS}
    assert counts == {"mpow": 51, "quotient": 139, "janet": 43}
    quotient = workloads.generate("quotient", SEEDS[0])
    assert sum(i.frontier for i in quotient) == len(workloads.QUOTIENT_FRONTIER)
    assert sum(i.name.startswith("midhard") for i in quotient) == (
        len(workloads.QUOTIENT_MIDHARD) * workloads.QUOTIENT_MIDHARD_COPIES)
    for inst in quotient:
        if inst.name.startswith("si"):
            size = workloads.quotient_size(inst.n, inst.ideals["J"])
            assert size <= workloads.QUOTIENT_MAX_POSET


def test_mpow_expected_values():
    for inst in workloads.generate("mpow", SEEDS[0]):
        k = sum(inst.ideals["I"][0])
        assert inst.expect_s == -(-inst.n // (k + 1))
        if k == 1:
            assert inst.expect_s == (inst.n + 1) // 2


@pytest.fixture
def runner():
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        yield run.Runner(cli, structure, sdepthlab, "mpow", 2.0)
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_tampered_certificates_are_wrong(tmp_path, runner):
    assert runner.tamper_self_test(tmp_path) is None


def test_checks_flag_a_wrong_value(tmp_path, runner):
    inst = workloads.Instance("wrong", "mpow", 5,
                              {"I": workloads.power_generators(5, 1)},
                              expect_s=2)
    inst.files = {"I": workloads.present(random.Random(3), 5,
                                         inst.ideals["I"])}
    workloads.write_inputs([inst], tmp_path)
    folder = tmp_path / inst.name
    _, codes, outputs = runner.execute(inst, folder)
    assert codes == [0, 0]
    solved, problem = runner.check(inst, folder, codes, outputs)
    assert not solved and "expected 2" in problem


def test_search_timeout_is_a_failure_not_a_wrong_answer(tmp_path, runner):
    inst = workloads.Instance("timeout", "quotient", 5,
                              {"I": None, "J": workloads.QUOTIENT_FRONTIER[0][1]})
    inst.files = {stem: workloads.present(random.Random(4), 5, gens)
                  for stem, gens in inst.ideals.items()}
    workloads.write_inputs([inst], tmp_path)
    folder = tmp_path / inst.name
    runner.budget = 0.2
    _, codes, outputs = runner.execute(inst, folder)
    assert codes == [3]
    assert runner.check(inst, folder, codes, outputs) == (False, None)


class _FakeRunner:
    """Stands in for Runner: every run takes `seconds` of wall time; the
    frontier ends at the budget (exit code 3), the rest are solved."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def execute(self, inst, folder, tracer=None):
        time.sleep(self.seconds)
        return self.seconds, [3] if inst.frontier else [0, 0], ["", ""]

    def check(self, inst, folder, codes, outputs):
        return codes[-1] == 0, None


def test_timed_phase_counts_the_frontier_once(tmp_path):
    instances = [workloads.Instance(f"i{k}", "mpow", 3, {"I": None},
                                    frontier=k == 0) for k in range(4)]
    start = time.perf_counter()
    tally = run._timed(_FakeRunner(0.01), instances, tmp_path, seconds=0.5)
    wall = time.perf_counter() - start
    runs = {name: len(v) for name, v in tally.samples.items()}
    assert runs["i0"] == 1
    assert all(runs[f"i{k}"] >= run.MIN_PASSES for k in (1, 2, 3))
    assert wall >= 0.5
    metrics = tally.end_to_end(0.1, 50)
    ladder_s = run.SWEEP_PASSES * sum(
        statistics.fmean(tally.scaled(f"i{k}")) for k in (1, 2, 3))
    assert metrics["solved_per_s"][0] == pytest.approx(
        3 * run.SWEEP_PASSES / (0.01 + ladder_s))
    assert metrics["fail_frac"][0] == pytest.approx(0.25)
    # the frontier ending at the budget is its expected outcome
    assert tally.failed == 0
    _, seconds, frontier_s = tally.sweep()
    assert frontier_s == pytest.approx(0.01)
    assert seconds == pytest.approx(0.01 + ladder_s)


def test_only_unexpected_outcomes_count_as_failed(tmp_path):
    """A frontier instance ending at the budget is unsolved but not failed;
    the same timeout on another instance is a failed run."""
    frontier = workloads.Instance("f", "mpow", 3, {"I": None}, frontier=True)
    ladder = workloads.Instance("l", "mpow", 3, {"I": None})
    tally = run.Tally([frontier, ladder])

    class _TimesOut(_FakeRunner):
        def execute(self, inst, folder, tracer=None):
            return self.seconds, [3], [""]

    for inst in (frontier, ladder):
        tally.run_one(_TimesOut(0.01), inst, tmp_path)
    assert tally.failures == {"f": 1, "l": 1}
    assert tally.failed == 1


def test_runs_are_scaled_by_their_bracketing_references(tmp_path, monkeypatch):
    references = iter([0.002, 0.006, 0.002])
    monkeypatch.setattr(run, "reference_seconds", lambda: next(references))
    inst = workloads.Instance("i", "mpow", 3, {"I": None})
    tally = run.Tally([inst])
    for _ in range(2):
        tally.run_one(_FakeRunner(0.01), inst, tmp_path)
    # references 2 and 6 ms around the first run, 6 and 2 ms around the second
    assert tally.scaled("i") == pytest.approx([0.005, 0.005])
