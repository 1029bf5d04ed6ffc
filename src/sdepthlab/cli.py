"""Command-line front end.

Subcommands: sdepth, quotient, sat, janet, alpha, conjecture, mki,
remark17, verify.  Human summaries go to stdout; structured documents go
to --out (and to stdout under --format structured).  Exit codes: 0 ok,
2 parse/input error, 3 timeout, 4 internal verification failure.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time
from pathlib import Path

from . import ENGINE_VERSION
from .cache import ResultCache, content_key
from .formats import (
    IdealParseError,
    ideal_str,
    ideal_to_structured,
    is_structured,
    json_ints,
    monomial_str,
    parse_ideal,
    parse_ideal_structured,
)
from .monomials import DEFAULT_ARITY_CAP, MonomialIdeal, unit_ideal
from .partitions import (
    Interval,
    IntervalPartition,
    InternalVerificationError,
    SdepthCertificate,
    SearchTimeout,
    sdepth_ideal,
    sdepth_quotient,
    verify_certificate,
    verify_partition,  # noqa: F401  (wrapped by perfbench/tracing.py)
    verify_stanley_decomposition,
)
from .posets import alpha_formula, build_poset, check_indexable, default_box
from .structure import (
    MkiRow,
    SweepRow,
    conjecture_sweep,
    ideal_saturation_report,
    ideal_vs_quotient_report,
    janet_decomposition,
    mki_sweep,
    rows_to_csv,
)


def _parse_g(value: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(part) for part in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"--g expects k1,...,kn, got {value!r}")
    if any(p < 0 for p in parts):
        raise argparse.ArgumentTypeError("--g entries must be nonnegative")
    return parts


def _parse_timeout(value: str) -> float:
    """A positive, finite number of seconds: a NaN budget would never run
    out, and neither would an infinite one."""
    try:
        seconds = float(value)
    except ValueError:
        seconds = math.nan
    if not 0 < seconds < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number of seconds, got {value!r}")
    return seconds


def _parse_count(value: str) -> int:
    """A positive integer, for --arity, --threads and the `n` and `k` of
    `alpha`."""
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"expected a count >= 1, got {value!r}")
    return count


def _add_budget(sp) -> None:
    sp.add_argument("--timeout", type=_parse_timeout, default=60.0,
                    help="wall-clock budget in seconds for each Stanley "
                         "depth computation, all of its targets together")
    sp.add_argument("--threads", type=_parse_count, default=1,
                    help="accepted and ignored: the search runs in one thread")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: building it costs about
    thirty parses, and `parse_args` fills a fresh namespace on every call,
    so calls share no state through it."""
    parser = argparse.ArgumentParser(
        prog="sdepthlab",
        description="Exact Stanley depth computations for monomial ideals")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, run, *, needs_input=True, needs_j=False, box=False,
                   budget=False, cache=True):
        # _load_ideals reads input_j and g, also where the flag does not exist
        sp.set_defaults(run=run, input_j=None, g=None)
        if needs_input:
            sp.add_argument("--input", required=True,
                            help="ideal file (text or structured JSON)")
        if needs_j:
            sp.add_argument("--input-j", required=True,
                            help="denominator ideal file")
        if needs_input:
            sp.add_argument("--arity", type=_parse_count, default=None,
                            help="ambient arity (default: inferred from inputs)")
        if box:
            sp.add_argument("--g", type=_parse_g, metavar="K1,...,KN",
                            help="box corner override")
        if budget:
            _add_budget(sp)
        if cache:
            sp.add_argument("--cache", default=None, help="cache directory")
        sp.add_argument("--out", default=None, help="write the document here")
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text", help="stdout format")

    add_common(sub.add_parser("sdepth", help="Stanley depth of an ideal"),
               cmd_certificate, box=True, budget=True)
    add_common(sub.add_parser("quotient",
                              help="Stanley depth of I/J (use a '1' file for S/J)"),
               cmd_certificate, needs_j=True, box=True, budget=True)
    add_common(sub.add_parser("sat", help="saturation report of an ideal"),
               cmd_sat)
    add_common(sub.add_parser("janet", help="Janet decomposition of S/I"),
               cmd_janet, cache=False)

    alpha = sub.add_parser("alpha", help="level counts of the m^k poset")
    alpha.add_argument("n", type=_parse_count)
    alpha.add_argument("k", type=_parse_count)
    add_common(alpha, cmd_alpha, needs_input=False, cache=False)

    conj = sub.add_parser("conjecture", help="sdepth(m^k) sweep vs ceil(n/(k+1))")
    conj.add_argument("--n-min", type=int, default=1)
    conj.add_argument("--n-max", type=int, default=4)
    conj.add_argument("--k-min", type=int, default=1)
    conj.add_argument("--k-max", type=int, default=3)
    add_common(conj, cmd_conjecture, needs_input=False, budget=True)

    mki = sub.add_parser("mki", help="sweep of |G(m^k I)| and sdepth(m^k I)")
    add_common(mki, cmd_mki, budget=True)
    mki.add_argument("--k-min", type=int, default=0)
    mki.add_argument("--k-max", type=int, default=4)

    add_common(sub.add_parser(
        "remark17", help="compare sdepth(I) against sdepth(S/I) + 1"),
        cmd_remark17, budget=True)

    verify = sub.add_parser("verify", help="re-check a stored certificate")
    verify.add_argument("certificate", help="certificate JSON path")
    verify.set_defaults(run=cmd_verify)
    return parser


def _load_ideals(args: argparse.Namespace) -> list[MonomialIdeal]:
    """Parse the input ideal(s) over a common ambient arity: --input, then
    --input-j where the command has it.

    Text inputs infer their arity from the largest variable index; the
    shared arity is the maximum over all inputs, --arity and the --g
    length.  Structured inputs carry an explicit n and must match it.
    A shared arity above `DEFAULT_ARITY_CAP` is refused before any padding.
    Each input is parsed once: a text input inferred below the shared
    arity is padded with zero exponents, which is what parsing it at that
    arity gives.
    """
    texts = [Path(args.input).read_text(encoding="utf-8")]
    if args.input_j is not None:
        texts.append(Path(args.input_j).read_text(encoding="utf-8"))
    parsed = [parse_ideal(text) for text in texts]
    n = max([ideal.arity for ideal in parsed]
            + ([len(args.g)] if args.g else [])
            + ([args.arity] if args.arity else []))
    if n > DEFAULT_ARITY_CAP:
        raise ValueError(f"arity {n} exceeds cap {DEFAULT_ARITY_CAP}")
    ideals = []
    for text, ideal in zip(texts, parsed):
        if ideal.arity < n:
            if is_structured(text):
                raise IdealParseError(
                    f"inputs disagree on the ambient arity {n}", 1)
            pad = (0,) * (n - ideal.arity)
            ideal = MonomialIdeal(n, tuple(g + pad for g in ideal.generators))
        ideals.append(ideal)
    return ideals


def _ideal_hash(numerator: MonomialIdeal, denominator: MonomialIdeal,
                g: tuple[int, ...]) -> str:
    return content_key({
        "n": numerator.arity,
        "numerator": ideal_to_structured(numerator),
        "denominator": ideal_to_structured(denominator),
        "g": list(g),
        "engine": ENGINE_VERSION,
    })


def _ideal_document(schema: str, ideal: MonomialIdeal, **fields) -> dict:
    """A document about one ideal: its schema, the engine, n and the ideal,
    then `fields` in order."""
    return {"schema": schema, "engine": ENGINE_VERSION, "n": ideal.arity,
            "ideal": ideal_to_structured(ideal), **fields}


def certificate_document(cert: SdepthCertificate) -> dict:
    poset = cert.poset
    return {
        "schema": "sdepth-certificate@1",
        "engine": ENGINE_VERSION,
        "n": poset.arity,
        "g": list(poset.g),
        "numerator": ideal_to_structured(poset.numerator),
        "denominator": ideal_to_structured(poset.denominator),
        "ideal_hash": _ideal_hash(poset.numerator, poset.denominator, poset.g),
        "s": cert.s,
        "intervals": [[list(iv.bottom), list(iv.top)] for iv in cert.partition],
        "verified": True,
        "stats": {
            "poset_size": len(poset),
            "nodes": cert.stats.nodes,
            "prunes": cert.stats.prunes,
        },
    }


# One scalar or string key to JSON text by the C encoder; json.dumps with an
# indent would take the pure-Python encoder for the whole document.
_encode_scalar = json.JSONEncoder().encode
_INT, _LIST = {int}, {list}


def _int_lists(value, ints, depth: int, indent: str) -> str:
    """`_json_text` of a rectangular list nested `depth` lists deep, whose
    lists at each depth have one nonzero length and whose leaves are the
    plain ints `ints` in order: one template of %d slots, one template
    string per depth, then one % for all the ints, as %d writes a plain
    int as its repr and an int is its own repr in JSON."""

    def template(value, depth: int, indent: str) -> str:
        inner = indent + "  "
        item = template(value[0], depth - 1, inner) if depth else "%d"
        return ("[\n" + inner + (",\n" + inner).join([item] * len(value))
                + "\n" + indent + "]")

    return template(value, depth, indent) % tuple(ints)


def _json_text(value, indent: str) -> str:
    """`value` as `json.dumps(value, indent=2)` writes it, nested under
    `indent`, for documents of dicts with string keys, lists and scalars.
    A rectangular nest of nonempty lists with plain ints at the bottom,
    such as the intervals of a certificate, takes one type test and one
    length test per depth for the whole nest and then `_int_lists`; the
    type test leaves out bools, which JSON spells in lower case.  Any other
    list, a ragged nest among them, takes the generic path, item by item."""
    if isinstance(value, dict) and value:
        inner = indent + "  "
        body = (",\n" + inner).join(
            _encode_scalar(key) + ": " + _json_text(item, inner)
            for key, item in value.items())
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        depth, level = 0, value
        while ((types := set(map(type, level))) == _LIST
               and len(set(map(len, level))) == 1 and level[0]):
            level = list(itertools.chain.from_iterable(level))
            depth += 1
        if types == _INT:
            return _int_lists(value, level, depth, indent)
        inner = indent + "  "
        body = (",\n" + inner).join(
            _json_text(item, inner) for item in value)
        return "[\n" + inner + body + "\n" + indent + "]"
    return _encode_scalar(value)


def _document_text(document) -> str:
    if isinstance(document, str):
        return document
    return _json_text(document, "") + "\n"


def _emit(args: argparse.Namespace, document, summary_lines) -> None:
    if args.out is not None:
        Path(args.out).write_text(_document_text(document),
                                         encoding="utf-8")
    if args.format == "structured":
        sys.stdout.write(_document_text(document))
    else:
        for line in summary_lines:
            print(line)


# Parsed arguments that cannot change a result: the input paths and --arity,
# for which the canonical ideals stand in, the thread count, where and how
# the result is written, and the handler, which the command already names.
_UNKEYED = frozenset(
    {"input", "input_j", "arity", "threads", "cache", "out", "format", "run"})


def _cached(args: argparse.Namespace, ideals, compute):
    """Run `compute` through the cache when one is configured.  The key is
    the engine version, the canonical input ideals and every other parsed
    argument, so an option reaches the key as soon as it is parsed."""
    if args.cache is None:
        return compute()
    cache = ResultCache(args.cache)
    key = content_key({
        "engine": ENGINE_VERSION,
        "ideals": [ideal_to_structured(ideal) for ideal in ideals],
        "args": {name: value for name, value in vars(args).items()
                 if name not in _UNKEYED},
    })
    payload = cache.load(key)
    if payload is None:
        payload = compute()
        cache.store(key, payload)
    return payload


def _cert_summary(document: dict) -> list[str]:
    return [
        f"sdepth = {document['s']}",
        f"n = {document['n']}, g = {tuple(document['g'])}, "
        f"|P| = {document['stats']['poset_size']}",
        f"intervals = {len(document['intervals'])}, "
        f"nodes = {document['stats']['nodes']}, "
        f"prunes = {document['stats']['prunes']}",
    ]


def cmd_certificate(args: argparse.Namespace) -> int:
    """`sdepth` (of an ideal I) and `quotient` (of I/J): a certified value."""
    ideals = _load_ideals(args)
    start = time.perf_counter()
    solve = sdepth_quotient if len(ideals) == 2 else sdepth_ideal

    def compute():
        return certificate_document(
            solve(*ideals, g=args.g, timeout_s=args.timeout))

    document = _cached(args, ideals, compute)
    _emit(args, document, _cert_summary(document))
    if args.format == "text":
        print(f"elapsed_ms: {int((time.perf_counter() - start) * 1000)}")
    return 0


def cmd_sat(args: argparse.Namespace) -> int:
    [ideal] = _load_ideals(args)

    def compute():
        report = ideal_saturation_report(ideal)
        return _ideal_document(
            "saturation-report@1", report.ideal,
            saturation=ideal_to_structured(report.saturation),
            is_saturated=report.is_saturated,
            witness=list(report.witness) if report.witness else None,
            sdepth_zero_quotient=not report.is_saturated)

    document = _cached(args, [ideal], compute)
    witness = document["witness"]
    summary = [
        f"ideal = {ideal_str(ideal)}",
        f"saturation = {ideal_str(parse_ideal_structured(document['saturation']))}",
        f"is_saturated = {str(document['is_saturated']).lower()}",
        f"sdepth(S/I) = 0: {str(document['sdepth_zero_quotient']).lower()}",
    ]
    if witness is not None:
        summary.append(f"witness = {monomial_str(witness)}")
    _emit(args, document, summary)
    return 0


def _space_str(monomial, variables) -> str:
    inner = ",".join(f"x{j}" for j in sorted(variables))
    return f"{monomial_str(monomial)}*K[{inner}]"


def cmd_janet(args: argparse.Namespace) -> int:
    [ideal] = _load_ideals(args)
    cap = sum(default_box(unit_ideal(ideal.arity), ideal))
    check_indexable((cap + 1,) * ideal.arity)  # the check cube, refused early
    decomposition = janet_decomposition(ideal)
    check = verify_stanley_decomposition(unit_ideal(ideal.arity), ideal,
                                         decomposition, cap)
    if not check:
        raise InternalVerificationError(check.reason)
    document = _ideal_document(
        "janet-decomposition@1", ideal,
        spaces=[{"monomial": list(m), "variables": sorted(z)}
                for m, z in decomposition.spaces],
        sdepth=decomposition.sdepth,
        verified=True)
    summary = [f"S/I decomposes into {len(decomposition.spaces)} Stanley spaces "
               f"(degreewise checked up to {cap}):"]
    summary += ["  " + _space_str(m, z) for m, z in decomposition.spaces]
    summary.append(f"sdepth of the decomposition = {decomposition.sdepth}")
    _emit(args, document, summary)
    return 0


def cmd_alpha(args: argparse.Namespace) -> int:
    n, k = args.n, args.k
    rows = [(d, alpha_formula(n, k, d)) for d in range(k, k * n + 1)]
    document = "d,alpha\n" + "\n".join(f"{d},{a}" for d, a in rows) + "\n"
    summary = [f"alpha_d for n={n}, k={k} (d = {k}..{k * n}):"]
    summary += [f"  d={d}: {a}" for d, a in rows]
    summary.append(f"total = {sum(a for _, a in rows)}")
    _emit(args, document, summary)
    return 0


def _span(low: int, high: int, name: str) -> range:
    """The values of --NAME-min low through --NAME-max high, or ValueError
    when there are none: a sweep over an empty range would write its CSV
    header alone and exit 0."""
    if low > high:
        raise ValueError(f"empty range: --{name}-min {low} is above "
                         f"--{name}-max {high}")
    return range(low, high + 1)


def _emit_rows(args: argparse.Namespace, ideals, row_type, sweep) -> int:
    """Run `sweep(timeout_s=...)`, which returns rows of `row_type`, through
    the cache to CSV, and emit the CSV, one summary line per CSV line."""
    document = _cached(args, ideals, lambda: rows_to_csv(
        row_type, sweep(timeout_s=args.timeout)))
    _emit(args, document, document.rstrip("\n").splitlines())
    return 0


def cmd_conjecture(args: argparse.Namespace) -> int:
    return _emit_rows(args, [], SweepRow, functools.partial(
        conjecture_sweep, _span(args.n_min, args.n_max, "n"),
        _span(args.k_min, args.k_max, "k")))


def cmd_mki(args: argparse.Namespace) -> int:
    [ideal] = _load_ideals(args)
    return _emit_rows(args, [ideal], MkiRow, functools.partial(
        mki_sweep, ideal, _span(args.k_min, args.k_max, "k")))


def cmd_remark17(args: argparse.Namespace) -> int:
    [ideal] = _load_ideals(args)

    def compute():
        report = ideal_vs_quotient_report(ideal, timeout_s=args.timeout)
        return _ideal_document("sdepth-comparison@1", ideal,
                               **report._asdict())

    document = _cached(args, [ideal], compute)
    _emit(args, document, [
        f"sdepth(I) = {document['sdepth_ideal']}",
        f"sdepth(S/I) = {document['sdepth_quotient']}",
        f"sdepth(I) >= sdepth(S/I) + 1: "
        f"{str(document['inequality_holds']).lower()} (reported, not asserted)",
    ])
    return 0


def _intervals(value) -> IntervalPartition:
    """A certificate's `intervals`, a list of [bottom, top] pairs of
    integer lists, or TypeError from `json_ints`."""
    json_ints(value, "intervals", None, 2, None)
    return IntervalPartition(tuple(
        Interval(tuple(bottom), tuple(top)) for bottom, top in value))


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        document = json.loads(Path(args.certificate).read_text(
            encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise IdealParseError(exc.msg, exc.lineno, exc.colno) from exc
    try:
        numerator = parse_ideal_structured(document["numerator"])
        denominator = parse_ideal_structured(document["denominator"])
        g = tuple(json_ints(document["g"], "g", None))
        (s,) = json_ints(document["s"], "s")
        intervals = _intervals(document["intervals"])
        stored_hash = document["ideal_hash"]
    except (KeyError, TypeError) as exc:
        raise IdealParseError(f"malformed certificate: {exc!r}", 1) from exc
    poset = build_poset(numerator, denominator, g)
    check = verify_certificate(poset, intervals, s)
    failures = [] if check else [check.reason]
    if stored_hash != _ideal_hash(numerator, denominator, g):
        failures.append("ideal hash mismatch (stale or tampered certificate)")
    if failures:
        for failure in failures:
            print(f"certificate INVALID: {failure}", file=sys.stderr)
        return 4
    print(f"certificate ok: sdepth = {s} over {len(poset)} poset elements")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except IdealParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except SearchTimeout as exc:
        print(f"timeout: {exc}", file=sys.stderr)
        return 3
    except InternalVerificationError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory (the input's box or check cube is too "
              "large for this machine)", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
