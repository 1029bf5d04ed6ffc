"""Input/output formats for monomial ideals.

Two interchangeable representations:

* text, one monomial per line: ``x1^2*x3`` style tokens built from
  variables ``x1..xn``, ``*`` separation and ``^`` exponents, with ``1``
  for the unit monomial;
* structured (JSON), an object ``{"n": <int>, "generators": [[..], ..]}``
  with exponent arrays of length ``n``.

Both reject negative exponents and wrong-length arrays, and text rejects
a variable index above ``DEFAULT_ARITY_CAP``.
"""

from __future__ import annotations

import itertools
import json
import re
import reprlib

from .monomials import (
    DEFAULT_ARITY_CAP,
    DEFAULT_EXPONENT_CAP,
    MonomialIdeal,
    minimalize,
)

_FACTOR_RE = re.compile(r"x(\d+)(?:\^(-?\d+))?$")


class IdealParseError(ValueError):
    """Parse failure with a line/column position for diagnostics."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def parse_monomial_token(token: str, line: int, column: int) -> dict[int, int]:
    """Parse one monomial token into a {variable index: exponent} map."""
    if token == "1":
        return {}
    exponents: dict[int, int] = {}
    col = column
    for factor in token.split("*"):
        if not factor:
            raise IdealParseError("empty factor", line, col)
        m = _FACTOR_RE.match(factor)
        if m is None:
            raise IdealParseError(f"malformed factor {factor!r}", line, col)
        index = int(m.group(1))
        if index < 1:
            raise IdealParseError(
                f"variables start at x1, got {factor!r}", line, col)
        if index > DEFAULT_ARITY_CAP:
            raise IdealParseError(
                f"variable x{index} exceeds cap {DEFAULT_ARITY_CAP}", line, col)
        exponent = int(m.group(2)) if m.group(2) is not None else 1
        if exponent < 0:
            raise IdealParseError(
                f"negative exponent in {factor!r}", line, col)
        if exponent > DEFAULT_EXPONENT_CAP:
            raise IdealParseError(
                f"exponent {exponent} exceeds cap {DEFAULT_EXPONENT_CAP}",
                line, col)
        exponents[index] = exponents.get(index, 0) + exponent
        col += len(factor) + 1
    return exponents


def parse_ideal_text(text: str, arity: int | None = None) -> MonomialIdeal:
    """Parse the one-monomial-per-line format.

    When `arity` is omitted, the ambient arity is the largest variable
    index appearing in the input (1 for a file containing only ``1``).
    """
    parsed: list[tuple[int, dict[int, int]]] = []
    max_index = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        column = raw.index(stripped[0]) + 1
        exps = parse_monomial_token(stripped, lineno, column)
        if exps:
            max_index = max(max_index, max(exps))
        parsed.append((lineno, exps))
    n = arity if arity is not None else max(max_index, 1)
    gens = []
    for lineno, exps in parsed:
        if exps and max(exps) > n:
            raise IdealParseError(
                f"variable x{max(exps)} exceeds arity {n}", lineno)
        gens.append(tuple(exps.get(j, 0) for j in range(1, n + 1)))
    return minimalize(gens, n)


_ARRAYS, _INTS = {list, tuple}, {int}


def json_ints(value, what: str, *lengths: int | None) -> list[int]:
    """The integers of `value`, in document order: arrays nested
    `len(lengths)` deep, each array at depth d holding `lengths[d]` items
    (any number where that is None), with integers at the bottom; with no
    lengths, `value` is one integer.  Anything else is a TypeError naming
    `what` and the first bad part of the shallowest depth that has one.
    One set of types, and one of lengths, clears a whole depth: JSON has
    no integer type of its own, and Python decodes true and false as
    bools, whose type is not int, so floats, strings and bools all fail.
    A depth is walked item by item only to name its first bad part."""
    level = [value]
    for length in lengths:
        if not set(map(type, level)) <= _ARRAYS or (
                length is not None and not set(map(len, level)) <= {length}):
            bad = next(item for item in level if type(item) not in _ARRAYS
                       or length not in (None, len(item)))
            of = "" if length is None else f" of length {length}"
            raise TypeError(f"{what}: {reprlib.repr(bad)} must be an "
                            f"array{of}")
        level = list(itertools.chain.from_iterable(level))
    if not set(map(type, level)) <= _INTS:
        bad = next(item for item in level if type(item) is not int)
        raise TypeError(f"{what}: {reprlib.repr(bad)} must be an integer")
    return level


def parse_ideal_structured(data) -> MonomialIdeal:
    """Parse the structured format from a JSON string or decoded object."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise IdealParseError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(data, dict) or "n" not in data or "generators" not in data:
        raise IdealParseError("expected an object with fields 'n' and 'generators'", 1)
    n = data["n"]
    if type(n) is not int or n < 1:
        raise IdealParseError(f"'n' must be a positive integer, got {n!r}", 1)
    try:
        exponents = json_ints(data["generators"], "generators", None, n)
    except TypeError as exc:
        raise IdealParseError(str(exc), 1) from exc
    cap = DEFAULT_EXPONENT_CAP
    if exponents and not 0 <= min(exponents) <= max(exponents) <= cap:
        at, e = next((at, e) for at, e in enumerate(exponents)
                     if not 0 <= e <= cap)
        raise IdealParseError(f"generators[{at // n}][{at % n}] is {e}, "
                              f"outside [0, {cap}]", 1)
    return minimalize(data["generators"], n)


def is_structured(text: str) -> bool:
    """Whether `parse_ideal` reads the text as structured JSON."""
    return text.lstrip().startswith("{")


def parse_ideal(text: str, arity: int | None = None) -> MonomialIdeal:
    """Dispatch on content: structured if it looks like JSON, text otherwise."""
    if is_structured(text):
        return parse_ideal_structured(text)
    return parse_ideal_text(text, arity=arity)


def monomial_str(u) -> str:
    """Render an exponent tuple back into x1^2*x3 notation."""
    factors = []
    for j, e in enumerate(u, start=1):
        if e == 1:
            factors.append(f"x{j}")
        elif e > 1:
            factors.append(f"x{j}^{e}")
    return "*".join(factors) if factors else "1"


def ideal_to_text(ideal: MonomialIdeal) -> str:
    return "\n".join(monomial_str(g) for g in ideal.generators) + "\n"


def ideal_to_structured(ideal: MonomialIdeal) -> dict:
    return {"n": ideal.arity,
            "generators": [list(g) for g in ideal.generators]}


def ideal_str(ideal: MonomialIdeal) -> str:
    """Compact one-line rendering, e.g. ``(x1^2, x1*x2)``."""
    if ideal.is_zero:
        return "(0)"
    return "(" + ", ".join(monomial_str(g) for g in ideal.generators) + ")"
