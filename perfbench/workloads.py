"""Seeded inputs for the sdepthlab benchmark.

A workload is a list of instances.  An instance is one certified answer:
one or two CLI calls plus the check of their outputs.  The generator uses
only its own `random.Random` and pure Python, so the same seed writes
byte-identical input files on any machine.

The seed chooses the random ideals and how every ideal is written down:
text or structured JSON, generator order, factor order and redundant
generators (multiples of a minimal generator, which the parser drops).
The frontier instances are fixed ideals that time out under the budget at
the seed engine; the seed only changes their presentation and position.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

Gens = tuple[tuple[int, ...], ...]

# m^k rungs (k, n, copies).  The ladder solves well inside the budget; the
# frontier rungs time out at the seed engine and count in fail_frac.  The
# copies put the median inside the middle group (m n=8, m^2 n=5, m^4 n=4)
# and the tail inside the m^2 n=6 group, away from the edges where
# neighbouring rungs mix.
MPOW_LADDER = ([(1, 6, 3), (1, 7, 3), (2, 4, 3), (3, 3, 3), (3, 4, 3),
                (4, 3, 3)]
               + [(1, 8, 5), (2, 5, 5), (4, 4, 5)]
               + [(1, 9, 5), (2, 6, 5), (1, 10, 5)])
MPOW_FRONTIER = [(1, 11), (2, 7), (3, 5)]

# S/I denominators that time out at the seed engine with zero or few
# prunes.  The first is the reproducer of ROADMAP item 3,
# I = (x2*x4^2*x5, x1*x2^2*x4*x5^2, x1^2*x2^2*x3^2*x4, x1^2*x2*x3^2*x4*x5^2).
QUOTIENT_FRONTIER: list[tuple[int, Gens]] = [
    (5, ((0, 1, 0, 2, 1), (1, 2, 0, 1, 2), (2, 2, 2, 1, 0), (2, 1, 2, 1, 2))),
    (4, ((3, 0, 1, 2), (2, 1, 2, 1), (2, 2, 1, 3))),
    (5, ((1, 0, 2, 1, 1), (2, 0, 2, 1, 0), (1, 1, 2, 2, 0), (2, 1, 1, 2, 1))),
]
# S/I denominators that the seed engine solves with 4k-14k search nodes,
# some with prunes, in 0.1-0.25 s: well inside the budget, but hard enough
# that prune and memo changes move the tail and solved_per_s before a
# frontier instance flips.  Each runs in QUOTIENT_MIDHARD_COPIES copies,
# which puts the p90 tail inside the group.
QUOTIENT_MIDHARD: list[tuple[int, Gens]] = [
    (5, ((0, 2, 0, 1, 0), (1, 1, 2, 0, 0), (2, 2, 1, 0, 1))),
    (5, ((1, 0, 0, 0, 2), (2, 0, 1, 1, 0), (2, 1, 2, 0, 1))),
    (4, ((0, 1, 1, 2), (2, 3, 0, 2), (3, 1, 0, 0))),
    (4, ((0, 1, 2, 3), (1, 2, 0, 1), (2, 1, 0, 0))),
]
QUOTIENT_MIDHARD_COPIES = 4
# The random quotients are drawn from a pool of easy instances per class
# (S/I n=4, S/I n=5, I/J), written by make_pool.py.
QUOTIENT_POOL = Path(__file__).resolve().parent / "quotient_pool.json"
QUOTIENT_RANDOM = 40        # per class
QUOTIENT_MAX_POSET = 60     # |P| cap of the pooled S/I instances

# Janet: random ideals whose generators fill a given box (in a seeded
# variable order), so the (cap+1)^n cube walk of the check has a fixed size
# per class: 8^5 and 11^4 cells.  The n=6 frontier ideal walks 13^6 cells.
JANET_RANDOM = [((2, 2, 1, 1, 1), 28), ((3, 3, 2, 2), 14)]   # (box, count)
JANET_FRONTIER: list[tuple[int, Gens]] = [
    (6, ((2, 1, 0, 0, 1, 0), (0, 2, 1, 0, 0, 1), (1, 0, 2, 1, 0, 0),
         (0, 0, 0, 2, 2, 1), (1, 1, 1, 0, 1, 2))),
]

WORKLOADS = ("mpow", "quotient", "janet")

# Tail percentile per workload: the highest of 99, 95, 90, 80 and 75 with at
# least ten instances beyond it.
TAIL_PERCENTILE = {"mpow": 80.0, "quotient": 90.0, "janet": 75.0}


@dataclass
class Instance:
    """One benchmark instance.

    `kind` selects the CLI calls and the check (see run.py); `ideals` maps
    an input file stem to its canonical generators (None for the unit
    ideal); `files` holds the written text of each input file.
    """

    name: str
    kind: str
    n: int
    ideals: dict[str, Gens | None]
    files: dict[str, str] = field(default_factory=dict)
    expect_s: int | None = None
    frontier: bool = False


def minimal_generators(gens) -> Gens:
    """Divisibility-minimal antichain, sorted lexicographically."""
    kept: list[tuple[int, ...]] = []
    for g in sorted(set(map(tuple, gens)), key=lambda u: (sum(u), u)):
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return tuple(sorted(kept))


def power_generators(n: int, k: int) -> Gens:
    return tuple(g for g in itertools.product(range(k + 1), repeat=n)
                 if sum(g) == k)


def quotient_size(n: int, gens: Gens) -> int:
    """|P| of S/I: box monomials below lcm(gens) outside I."""
    box = [max(g[j] for g in gens) for j in range(n)]
    return sum(1 for u in itertools.product(*(range(e + 1) for e in box))
               if not any(all(a <= b for a, b in zip(g, u)) for g in gens))


def random_gens(rng: random.Random, n: int, max_exp: int, lo: int,
                 hi: int) -> Gens:
    while True:
        gens = [tuple(rng.randint(0, max_exp) for _ in range(n))
                for _ in range(rng.randint(lo, hi))]
        gens = [g for g in gens if any(g)]
        if gens:
            return minimal_generators(gens)


def _full_box_gens(rng: random.Random, box: tuple[int, ...]) -> Gens:
    """Random ideal whose lcm of minimal generators is `box`."""
    while True:
        gens = [tuple(rng.randint(0, e) for e in box)
                for _ in range(rng.randint(3, 5))]
        gens = minimal_generators(g for g in gens if any(g))
        if gens and all(max(g[j] for g in gens) == e
                        for j, e in enumerate(box)):
            return gens


def ideal_product(a: Gens, b: Gens) -> Gens:
    return minimal_generators(tuple(x + y for x, y in zip(f, g))
                              for f in a for g in b)


def _monomial_text(rng: random.Random, u) -> str:
    factors = [f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}"
               for j, e in enumerate(u) if e]
    rng.shuffle(factors)
    return "*".join(factors) if factors else "1"


def present(rng: random.Random, n: int, gens: Gens | None) -> str:
    """Write an ideal in a seeded presentation; parsing it gives back the
    same canonical ideal."""
    if gens is None:
        return "1\n"
    rows = [list(g) for g in gens]
    for _ in range(rng.randint(0, 2)):
        extra = list(rng.choice(gens))
        extra[rng.randrange(n)] += 1
        rows.append(extra)
    rng.shuffle(rows)
    if rng.random() < 0.3:
        return json.dumps({"n": n, "generators": rows}) + "\n"
    return "".join(_monomial_text(rng, r) + "\n" for r in rows)


def _mpow(rng: random.Random) -> list[Instance]:
    out = []
    rungs = [(k, n, c, False) for k, n, copies in MPOW_LADDER
             for c in range(copies)]
    rungs += [(k, n, 0, True) for k, n in MPOW_FRONTIER]
    for k, n, copy, frontier in rungs:
        out.append(Instance(f"m{k}-n{n}-c{copy}", "mpow", n,
                            {"I": power_generators(n, k)},
                            expect_s=-(-n // (k + 1)), frontier=frontier))
    return out


def _quotient(rng: random.Random) -> list[Instance]:
    pool = json.loads(QUOTIENT_POOL.read_text(encoding="utf-8"))
    out = []
    for label in ("si4", "si5", "ij"):
        for i, entry in enumerate(rng.sample(pool[label], QUOTIENT_RANDOM)):
            ideals = {stem: None if entry[stem] is None
                      else tuple(map(tuple, entry[stem])) for stem in "IJ"}
            out.append(Instance(f"{label}-{i}", "quotient", entry["n"], ideals))
    for i, (n, gens) in enumerate(QUOTIENT_MIDHARD):
        for copy in range(QUOTIENT_MIDHARD_COPIES):
            out.append(Instance(f"midhard-{i}-c{copy}", "quotient", n,
                                {"I": None, "J": gens}))
    for i, (n, gens) in enumerate(QUOTIENT_FRONTIER):
        out.append(Instance(f"frontier-{i}", "quotient", n,
                            {"I": None, "J": gens}, frontier=True))
    return out


def _janet(rng: random.Random) -> list[Instance]:
    out = []
    for box, count in JANET_RANDOM:
        n = len(box)
        for i in range(count):
            order = list(box)
            rng.shuffle(order)
            out.append(Instance(f"janet{n}-{i}", "janet", n,
                                {"I": _full_box_gens(rng, tuple(order))}))
    for i, (n, gens) in enumerate(JANET_FRONTIER):
        out.append(Instance(f"frontier-{i}", "janet", n, {"I": gens},
                            frontier=True))
    return out


_GENERATORS = {"mpow": _mpow, "quotient": _quotient, "janet": _janet}


def generate(workload: str, seed: int) -> list[Instance]:
    """The instances of a workload, in their seeded order, with the text of
    every input file filled in."""
    rng = random.Random(f"{workload}:{seed}")
    instances = _GENERATORS[workload](rng)
    for inst in instances:
        inst.files = {stem: present(rng, inst.n, gens)
                      for stem, gens in inst.ideals.items()}
    rng.shuffle(instances)
    return instances


def write_inputs(instances: list[Instance], directory: Path) -> None:
    """Write each instance's input files as <directory>/<name>/<stem>.txt."""
    for inst in instances:
        folder = directory / inst.name
        folder.mkdir(parents=True, exist_ok=True)
        for stem, text in inst.files.items():
            (folder / f"{stem}.txt").write_text(text, encoding="utf-8")


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
