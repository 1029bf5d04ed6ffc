"""Regenerate perfbench/quotient_pool.json, the pool of easy quotients.

Run from the repository root:

    python3 perfbench/make_pool.py

The quotient workload draws its random instances from this pool, so that
every seed gets the same number of failures (the fixed frontier) and a
similar spread of times.  Candidates come from a fixed random stream in
three classes: S/I with n=4 and exponents <= 3, S/I with n=5 and exponents
<= 2 (both with |P| <= 60), and I/J with J = I*K in 3 or 4 variables.  A
candidate is kept when the engine decides every target of its scan within
NODE_CAP search nodes, a count that does not depend on the machine.  The
harder regime is covered by fixed instances in workloads.py: mid-hard ones
that still solve well inside the budget, and the frontier that times out.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from sdepthlab import (  # noqa: E402
    MonomialIdeal, SearchTimeout, sdepth_quotient, unit_ideal)

PER_CLASS = 200
NODE_CAP = 3000
POOL = HERE / "quotient_pool.json"


def _easy(n: int, num, den) -> bool:
    numerator = unit_ideal(n) if num is None else MonomialIdeal(n, num)
    try:
        cert = sdepth_quotient(numerator, MonomialIdeal(n, den), timeout_s=2.0)
    except SearchTimeout:
        return False
    return cert.stats.nodes <= NODE_CAP


def build() -> dict:
    rng = random.Random("quotient-pool")
    pool = {}
    for label, n, max_exp in (("si4", 4, 3), ("si5", 5, 2)):
        kept = []
        while len(kept) < PER_CLASS:
            gens = workloads.random_gens(rng, n, max_exp, 2, 5)
            if (workloads.quotient_size(n, gens) <= workloads.QUOTIENT_MAX_POSET
                    and {"n": n, "I": None, "J": gens} not in kept
                    and _easy(n, None, gens)):
                kept.append({"n": n, "I": None, "J": gens})
        pool[label] = kept
    kept = []
    while len(kept) < PER_CLASS:
        n = rng.choice((3, 4))
        num = workloads.random_gens(rng, n, 2, 1, 3)
        den = workloads.ideal_product(num, workloads.random_gens(rng, n, 1, 1, 3))
        if {"n": n, "I": num, "J": den} not in kept and _easy(n, num, den):
            kept.append({"n": n, "I": num, "J": den})
    pool["ij"] = kept
    return pool


if __name__ == "__main__":
    POOL.write_text(json.dumps(build(), separators=(",", ":")) + "\n",
                    encoding="utf-8")
    print(f"wrote {POOL}")
