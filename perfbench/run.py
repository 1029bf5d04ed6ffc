"""sdepthlab benchmark runner.

Run from the root of a source checkout:

    python3 perfbench/run.py --timeout 2 --workload mpow --seed 1 --seconds 30 \
        --trace 0

It imports `sdepthlab` from ./src, writes the seeded inputs of the chosen
workload under ./.perfbench/, and feeds them to `sdepthlab.cli.main(argv)`
(the function behind the `sdepthlab` command) in this one process and
thread.  The timed phase runs every instance once, then repeats all but the
frontier instances (which end at the budget) round-robin, at least three
runs each, until the phase's wall time reaches --seconds.  Each run's time is
scaled to the reference speed by the reference times taken just before and
just after it (see reference_seconds); runs that end at the budget count at
their wall time.  solved_per_s is the throughput of a
sweep with the frontier once and the other instances SWEEP_PASSES times
(see Tally.sweep); the percentiles are taken over each instance's
median time.  setup_s is the
median wall time of SETUP_REPEATS fresh child processes (`--prepare`) that
start Python, import sdepthlab and generate the inputs, without the time
they take to write them, scaled by the start time of an empty Python child
(see _setup_seconds).
Every answer is checked: a timeout, a non-zero exit or a wrong value is an
unsolved instance (fail_frac), and a wrong value or an unexpected exit code
also makes the run incorrect (exit status 1).  The result's `failed` counts
the runs that went wrong: every unsolved run except a frontier instance
ending at the budget, which is that instance's expected outcome.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones.  With --trace 1 every instance runs untraced and traced (see
tracing.py) back to back; the run reports the per-layer metrics per traced
pass and the tracing overhead, and writes every span to
.perfbench/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

SETUP_REPEATS = 9
MIN_PASSES = 3
# Passes over the non-frontier instances in the sweep that solved_per_s
# describes: enough that the frontier (6 s on mpow and quotient) takes at
# most about a third of the sweep's time on every workload.
SWEEP_PASSES = 6
# Typical time of reference_seconds() on the baseline machine (2 cores,
# CPython 3.11.7).
REFERENCE_S = 0.002
# Typical wall time of an empty `python3 -c pass` child there.
STARTUP_REFERENCE_S = 0.075
# Guard on the whole instance, in units of the budget.  Janet has no
# --timeout flag, so the budget itself bounds each janet instance; the
# searching commands are bounded per decision and only need a backstop.
GUARD_FACTOR = {"mpow": 10.0, "quotient": 10.0, "janet": 1.0}


class InstanceTimeout(Exception):
    """The benchmark's wall-clock guard on one instance ran out."""


def _alarm(signum, frame):
    raise InstanceTimeout()


def reference_seconds() -> float:
    """Time a fixed piece of pure-Python work of the engine's kind (tuples,
    dicts, sets, big-int masks).

    A shared 2-core virtual machine changes speed by up to 2x within
    seconds, because of load from other guests.  The reference is therefore
    timed between every two runs, and each run is scaled by REFERENCE_S /
    (the mean of the reference times just before and just after it), which
    reports it at the baseline machine's reference speed.  A phase-wide
    median reference cannot follow changes that fast: on 8 recorded mpow
    phases it left 15-18% spreads between seeds in the percentiles and
    throughput, where the bracketing references leave 1-3%."""
    start = time.perf_counter()
    seen = {}
    mask = 0
    for i, u in enumerate(itertools.product(range(5), repeat=5)):
        mask |= 1 << ((sum(u) * 37 + i) % 2000)
        seen[u] = mask.bit_count()
    len(set(seen))
    return time.perf_counter() - start


def _import_sdepthlab(root: Path):
    src = root / "src"
    if not (src / "sdepthlab" / "__init__.py").is_file():
        raise SystemExit(f"no sdepthlab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sdepthlab
    from sdepthlab import cli, structure

    if Path(sdepthlab.__file__).resolve().parent != (src / "sdepthlab").resolve():
        raise SystemExit(f"sdepthlab imported from {sdepthlab.__file__}, "
                         f"not from {src}")
    return cli, structure, sdepthlab


def _steps(inst: workloads.Instance, folder: Path, budget: float) -> list[list[str]]:
    """The CLI calls of one instance."""
    common = ["--arity", str(inst.n)]
    search = ["--timeout", repr(budget), "--threads", "1"]
    i_path = str(folder / "I.txt")
    if inst.kind == "janet":
        return [["janet", "--input", i_path, *common,
                 "--out", str(folder / "janet.json")],
                ["sat", "--input", i_path, *common,
                 "--out", str(folder / "sat.json")]]
    cert = str(folder / "cert.json")
    if inst.kind == "mpow":
        solve = ["sdepth", "--input", i_path]
    else:
        solve = ["quotient", "--input", i_path,
                 "--input-j", str(folder / "J.txt")]
    return [solve + common + search + ["--out", cert], ["verify", cert]]


class Runner:
    """Executes and checks instances through the in-process CLI."""

    def __init__(self, cli, structure, sdepthlab, workload: str,
                 budget: float):
        self.cli = cli
        self.structure = structure
        self.lib = sdepthlab
        self.guard = GUARD_FACTOR[workload] * budget
        self.budget = budget

    def call(self, argv: list[str], tracer=None) -> tuple[int, str]:
        """One CLI call; returns (exit code, captured stdout)."""
        out = io.StringIO()
        index = tracer.open("cli.main") if tracer else None
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        finally:
            if tracer:
                tracer.close(index)
        return code, out.getvalue()

    def execute(self, inst, folder: Path, tracer=None):
        """Run an instance under its guard.  Returns (seconds, codes,
        outputs); a guard timeout shows as exit code None."""
        codes: list[int | None] = []
        outputs: list[str] = []
        if tracer:
            tracer.instance = inst.name
            index = tracer.open("instance")
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.guard)
        try:
            for argv in _steps(inst, folder, self.budget):
                code, text = self.call(argv, tracer)
                codes.append(code)
                outputs.append(text)
                if code != 0:
                    break
        except InstanceTimeout:
            codes.append(None)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.close(index)
                tracer.instance = None
        return elapsed, codes, outputs

    def check(self, inst, folder: Path, codes, outputs) -> tuple[bool, str | None]:
        """(solved, problem).  A problem is a wrong answer or an exit code
        that neither success nor a timeout explains."""
        if codes[-1] in (None, 3):
            return False, None
        if codes[-1] != 0:
            return False, f"exit code {codes[-1]}"
        if inst.kind == "janet":
            return self._check_janet(inst, folder)
        return self._check_certificate(inst, folder / "cert.json", outputs[-1])

    def _canonical(self, inst, stem: str) -> list[list[int]]:
        gens = inst.ideals[stem]
        return [[0] * inst.n] if gens is None else [list(g) for g in gens]

    def _check_certificate(self, inst, cert_path: Path, verify_out: str):
        doc = json.loads(cert_path.read_text(encoding="utf-8"))
        if not verify_out.startswith("certificate ok"):
            return False, "verify did not accept the certificate"
        stems = {"numerator": "I"} if inst.kind == "mpow" else {
            "numerator": "I", "denominator": "J"}
        for key, stem in stems.items():
            if sorted(doc[key]["generators"]) != self._canonical(inst, stem):
                return False, f"certificate {key} differs from the input"
        s = doc["s"]
        if inst.expect_s is not None and s != inst.expect_s:
            return False, f"sdepth {s}, expected {inst.expect_s}"
        if inst.kind == "quotient" and inst.ideals["I"] is None:
            lib = self.lib
            zero, _ = self.structure.sdepth_zero_quotient(
                lib.unit_ideal(inst.n), lib.MonomialIdeal(inst.n, inst.ideals["J"]))
            if zero != (s == 0):
                return False, f"sdepth {s} disagrees with the saturation test"
        return True, None

    def _check_janet(self, inst, folder: Path):
        janet = json.loads((folder / "janet.json").read_text(encoding="utf-8"))
        sat = json.loads((folder / "sat.json").read_text(encoding="utf-8"))
        canonical = self._canonical(inst, "I")
        if janet.get("verified") is not True:
            return False, "janet document is not verified"
        for name, doc in (("janet", janet), ("sat", sat)):
            if sorted(doc["ideal"]["generators"]) != canonical:
                return False, f"{name} ideal differs from the input"
        if sat["sdepth_zero_quotient"] and janet["sdepth"] != 0:
            return False, "sdepth(S/I) = 0 but the decomposition has sdepth > 0"
        return True, None

    def tamper_self_test(self, directory: Path) -> str | None:
        """Certify m in 4 variables, then check that a certificate missing
        an interval and one claiming a higher s both count as wrong.  Also
        serves as the warm-up before timing."""
        inst = workloads.Instance("tamper", "mpow", 4,
                                  {"I": workloads.power_generators(4, 1)},
                                  expect_s=2)
        inst.files = {"I": workloads.present(random.Random(0), 4,
                                             inst.ideals["I"])}
        workloads.write_inputs([inst], directory)
        folder = directory / inst.name
        _, codes, outputs = self.execute(inst, folder)
        solved, problem = self.check(inst, folder, codes, outputs)
        if not solved:
            return f"self-test certificate failed: {problem or codes}"
        cert = folder / "cert.json"
        original = json.loads(cert.read_text(encoding="utf-8"))
        for label, edit in (("dropped interval", lambda d: d["intervals"].pop()),
                            ("raised s", lambda d: d.update(s=d["s"] + 1))):
            doc = json.loads(json.dumps(original))
            edit(doc)
            cert.write_text(json.dumps(doc), encoding="utf-8")
            code, text = self.call(["verify", str(cert)])
            solved, problem = self.check(inst, folder, [0, code], ["", text])
            if solved or problem is None:
                return f"tampered certificate ({label}) was accepted"
        return None


def _prepare(root: Path, workload: str, seed: int, inputs: Path):
    """Import sdepthlab, generate the inputs and write them.  Returns the
    modules, the instances and the seconds spent writing."""
    shutil.rmtree(inputs, ignore_errors=True)
    modules = _import_sdepthlab(root)
    instances = workloads.generate(workload, seed)
    start = time.perf_counter()
    workloads.write_inputs(instances, inputs)
    return modules, instances, time.perf_counter() - start


def _child_seconds(command: list[str]) -> tuple[float, str]:
    """Wall time of a child process from start to exit, and its stdout."""
    start = time.perf_counter()
    done = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                          text=True)
    return time.perf_counter() - start, done.stdout


def _setup_seconds(argv: list[str], inputs: Path) -> float:
    """Median wall time of SETUP_REPEATS child processes that each run this
    script with `--prepare`: interpreter start, import and generation, from
    process start to exit.  Each child also writes the inputs, but reports
    how long that took, and that part is left out: the shared disk's speed
    changed fivefold within minutes, which would swamp the rest.

    Process start does not follow reference_seconds(), so the time is
    scaled by STARTUP_REFERENCE_S / (the median time of an empty child
    `python -c pass`, one started before each repeat) instead."""
    command = [sys.executable, str(Path(__file__).resolve()), *argv,
               "--prepare", str(inputs)]
    empty, times = [], []
    for _ in range(SETUP_REPEATS):
        empty.append(_child_seconds([sys.executable, "-c", "pass"])[0])
        shutil.rmtree(inputs, ignore_errors=True)
        wall, out = _child_seconds(command)
        times.append(wall - float(out))
    shutil.rmtree(inputs, ignore_errors=True)
    return (statistics.median(times) * STARTUP_REFERENCE_S
            / statistics.median(empty))


class Tally:
    """Samples and outcomes per instance, over the passes of one phase."""

    def __init__(self, instances):
        self.instances = instances
        self.samples = {inst.name: [] for inst in instances}
        # speed factor of each sample: REFERENCE_S over its references
        self.speeds = {inst.name: [] for inst in instances}
        self.references: list[float] = []
        self.failures = {inst.name: 0 for inst in instances}
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0
        self._at_budget = {inst.name: [] for inst in instances}

    def run_one(self, runner: Runner, inst, inputs: Path,
                tracer=None) -> float:
        """Run and check one instance; returns its time."""
        folder = inputs / inst.name
        if not self.references:
            gc.collect()
            self.references.append(reference_seconds())
        elapsed, codes, outputs = runner.execute(inst, folder, tracer)
        gc.collect()  # leave a clean heap to the reference and the next run
        self.references.append(reference_seconds())
        speed = REFERENCE_S / statistics.fmean(self.references[-2:])
        self.samples[inst.name].append(elapsed)
        self.speeds[inst.name].append(speed)
        at_budget = codes[-1] in (None, 3)
        self._at_budget[inst.name].append(at_budget)
        solved, problem = runner.check(inst, folder, codes, outputs)
        self.failures[inst.name] += not solved
        # a frontier instance is expected to end at the budget
        self.failed += not solved and not (at_budget and inst.frontier)
        if problem is not None:
            self.problems.append(f"{inst.name}: {problem}")
        return elapsed

    def scaled(self, name: str) -> list[float]:
        """An instance's run times at the reference speed.  A run that
        ended at the budget took the budget's wall time and is not
        scaled."""
        return [t if at_budget else t * speed
                for t, speed, at_budget in zip(self.samples[name],
                                               self.speeds[name],
                                               self._at_budget[name])]

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.samples.values())

    def sweep(self) -> tuple[float, float, float]:
        """Solved answers, seconds and frontier seconds of a sweep that runs
        the frontier once and every other instance SWEEP_PASSES times, each
        at its solved share and mean time over the runs made.

        The phase itself makes as many passes as fit in --seconds, and
        stops part-way through the last one; a sweep of a fixed number of
        passes keeps both the pass count and the seeded order of the last
        pass out of solved_per_s."""
        solved = seconds = frontier_s = 0.0
        for inst in self.instances:
            runs = self.scaled(inst.name)
            weight = 1 if inst.frontier else SWEEP_PASSES
            solved += weight * (1 - self.failures[inst.name] / len(runs))
            seconds += weight * statistics.fmean(runs)
            if inst.frontier:
                frontier_s += statistics.fmean(runs)
        return solved, seconds, frontier_s

    def end_to_end(self, setup_s: float, tail_p: float) -> dict:
        """For the percentiles and fail_frac, an instance's time is the
        median of its scaled run times, and it failed when most of its runs
        failed."""
        times = sorted(statistics.median(self.scaled(name))
                       for name in self.samples)
        failed = sum(2 * self.failures[name] > len(v)
                     for name, v in self.samples.items())
        solved, seconds, _ = self.sweep()
        return {
            "setup_s": (setup_s, "s"),
            "solved_per_s": (solved / seconds, "1/s"),
            "instance_ms_p50": (workloads.percentile(times, 50) * 1e3, "ms"),
            "instance_ms_tail": (workloads.percentile(times, tail_p) * 1e3, "ms"),
            "fail_frac": (failed / len(times), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }


def _timed(runner, instances, inputs, seconds: float) -> Tally:
    """Run every instance once, then the non-frontier ones round-robin
    (the frontier ends at the budget anyway): MIN_PASSES runs each, and
    more until the phase's wall time reaches `seconds`."""
    tally = Tally(instances)
    start = time.perf_counter()
    ladder = [inst for inst in instances if not inst.frontier]
    for inst in instances:
        tally.run_one(runner, inst, inputs)
    for runs, inst in enumerate(itertools.cycle(ladder), len(ladder)):
        if (runs >= MIN_PASSES * len(ladder)
                and time.perf_counter() - start >= seconds):
            break
        tally.run_one(runner, inst, inputs)
    tally.passes = runs / len(ladder)
    return tally


def _traced(runner, instances, inputs, seconds: float):
    """Full passes in which every instance runs once untraced and once
    traced, back to back and in alternating order, while the next pass is
    expected to end within `seconds` (at least one pass)."""
    from tracing import Tracer

    plain, traced, tracer = Tally(instances), Tally(instances), Tracer()

    def run_traced(inst):
        tracer.install()
        try:
            traced.run_one(runner, inst, inputs, tracer)
        finally:
            tracer.uninstall()

    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for k, inst in enumerate(instances):
            if k % 2:
                plain.run_one(runner, inst, inputs)
                run_traced(inst)
            else:
                run_traced(inst)
                plain.run_one(runner, inst, inputs)
        plain.passes += 1
        traced.passes += 1
        pass_s = time.perf_counter() - pass_start
        if time.perf_counter() - start + pass_s > seconds:
            break
    metrics = tracer.layer_metrics(traced.passes)
    # frontier instances end at the budget either way, so leave them out
    ladder = [sum(sum(tally.samples[i.name]) for i in instances
                  if not i.frontier) for tally in (plain, traced)]
    metrics["trace.overhead_frac"] = (ladder[1] / ladder[0] - 1, "ratio")
    return [plain, traced], tracer, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--timeout", type=float, required=True,
                        help="per-decision budget in seconds, passed to every "
                             "search; also the whole-instance budget of janet")
    parser.add_argument("--prepare", metavar="DIR",
                        help="only write the inputs to DIR, print the seconds "
                             "spent writing and exit (the step that setup_s "
                             "times)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if args.prepare:
        print(_prepare(root, args.workload, args.seed, Path(args.prepare))[2])
        return 0
    work = root / ".perfbench"
    inputs = work / f"{args.workload}-{args.seed}"
    modules, instances, _ = _prepare(root, args.workload, args.seed, inputs)
    setup_s = _setup_seconds(sys.argv[1:] if argv is None else argv,
                             work / f"setup-{args.workload}-{args.seed}")

    signal.signal(signal.SIGALRM, _alarm)
    runner = Runner(*modules, args.workload, args.timeout)
    problems = []
    problem = runner.tamper_self_test(work / f"selftest-{args.seed}")
    if problem:
        problems.append(problem)

    tail_p = workloads.TAIL_PERCENTILE[args.workload]
    if args.trace:
        tallies, tracer, metrics = _traced(runner, instances, inputs,
                                           args.seconds)
        tracer.write(work / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        tallies = [_timed(runner, instances, inputs, args.seconds)]
        metrics = tallies[0].end_to_end(setup_s, tail_p)
        _, sweep_s, frontier_s = tallies[0].sweep()
        print(f"# {args.workload} seed {args.seed}: {len(instances)} instances,"
              f" {tallies[0].passes:.2f} passes, frontier "
              f"{frontier_s / sweep_s:.1%} of the sweep,"
              f" tail = p{tail_p:g}, reference "
              f"{statistics.median(tallies[0].references) * 1e3:.3f} ms "
              f"(nominal {REFERENCE_S * 1e3:g} ms)")
    for tally in tallies:
        problems += tally.problems
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.rmtree(work / f"selftest-{args.seed}", ignore_errors=True)

    for problem in problems:
        print(f"WRONG {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
