"""Spans around the calls into each sdepthlab layer, recorded from outside.

`Tracer.install()` replaces public functions at the module attribute each
caller looks up (for example `cli.sdepth_ideal` or
`partitions.exists_partition`) with wrappers that record a span: name,
start, end, parent span and instance id, plus a few counts read from the
arguments or the result.  `uninstall()` puts the originals back.  Spans
stay in memory; `write()` dumps them as JSON lines and `layer_metrics()`
folds them into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import json
import math
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or None, instance, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.instance: str | None = None

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.instance, {}])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5].update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span[0]} closed out of order")

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Record a span named `name` around module.attr; `counts(args,
        result)` may return attributes to attach to the span."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            attrs = {}
            try:
                result = original(*args, **kwargs)
                if counts is not None:
                    attrs = counts(args, result)
                return result
            finally:
                self.close(index, **attrs)

        self._patch(module, attr, wrapper)

    def install(self) -> None:
        from sdepthlab import cli, formats, partitions, structure

        for module, attr in ((cli, "parse_ideal"),
                             (cli, "parse_ideal_structured")):
            self.wrap(module, attr, "formats.parse")
        for module, attr in ((formats, "minimalize"),
                             (partitions, "maximal_power"),
                             (structure, "maximal_power"),
                             (structure, "minimal_antichain"),
                             (structure, "saturate"),
                             (structure, "ideal_intersection"),
                             (structure, "ideal_product")):
            self.wrap(module, attr, "monomials")
        for attr in ("sdepth_ideal", "sdepth_quotient"):
            self.wrap(cli, attr, "partitions.solve")
        self.wrap(cli, "build_poset", "posets.build", _poset_counts)
        self._wrap_solver_build_poset(partitions)
        self._wrap_exists_partition(partitions)
        for module in (partitions, cli):
            self.wrap(module, "verify_partition", "partitions.verify")
        self.wrap(cli, "verify_stanley_decomposition",
                  "partitions.decomp_verify",
                  lambda args, result: {"cells": (args[3] + 1) ** args[0].arity})
        self.wrap(cli, "janet_decomposition", "structure.janet",
                  lambda args, result: {"spaces": len(result.spaces)})
        self.wrap(cli, "ideal_saturation_report", "structure.sat")

    def _wrap_solver_build_poset(self, partitions) -> None:
        """Time the solver's poset build, then force the lazily built
        search machinery (link masks) so that it gets a span of its own."""
        original = partitions.build_poset
        counting_prune = partitions.counting_prune

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self.open("posets.build")
            poset = None
            try:
                poset = original(*args, **kwargs)
            finally:
                self.close(index, **(_poset_counts(args, poset)
                                      if poset is not None else {}))
            index = self.open("partitions.searcher_init")
            try:
                counting_prune(poset, 1, [])
            finally:
                self.close(index)
            return poset

        self._patch(partitions, "build_poset", wrapper)

    def _wrap_exists_partition(self, partitions) -> None:
        """One span per decision call, carrying the per-target record read
        from the `stats` argument after the call."""
        original = partitions.exists_partition
        SearchStats = partitions.SearchStats
        SearchTimeout = partitions.SearchTimeout

        @functools.wraps(original)
        def wrapper(poset, s, **kwargs):
            stats = kwargs.get("stats")
            if stats is None:
                stats = kwargs["stats"] = SearchStats()
            index = self.open("partitions.decide")
            outcome = "interrupted"
            try:
                result = original(poset, s, **kwargs)
                if result is not None:
                    outcome = "constructive" if stats.nodes == 0 else "found"
                else:
                    outcome = "refuted_root" if stats.nodes <= 1 else "refuted"
                return result
            except SearchTimeout:
                outcome = "timeout"
                raise
            finally:
                self.close(index, s=s, outcome=outcome, nodes=stats.nodes,
                           prunes=stats.prunes)

        self._patch(partitions, "exists_partition", wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Seconds of each span not covered by its direct children."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def write(self, path: Path) -> None:
        """One JSON object per span; times in ms from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, instance, attrs) in enumerate(
                    self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "instance": instance,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "end_ms": round((end - origin) * 1e3, 4),
                    "self_ms": round(own[i] * 1e3, 4), **attrs}) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, summed over instance spans and divided by the
        number of traced passes (ratios are not divided)."""
        own = self.self_times()
        ms: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        decide_total_s = 0.0
        for i, (name, start, end, _parent, instance, attrs) in enumerate(
                self.spans):
            if instance is None:
                continue
            ms[name] = ms.get(name, 0.0) + own[i] * 1e3
            calls[name] = calls.get(name, 0) + 1
            for key, value in attrs.items():
                if isinstance(value, (int, float)) and key != "s":
                    counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
            if name == "partitions.decide":
                decide_total_s += end - start
                outcome = attrs["outcome"]
                counts["root_refuted"] = (counts.get("root_refuted", 0)
                                          + (outcome == "refuted_root"))
                counts["timeouts"] = counts.get("timeouts", 0) + (outcome == "timeout")
        nodes = counts.get("partitions.decide.nodes", 0)
        prunes = counts.get("partitions.decide.prunes", 0)
        per_pass = {
            "formats.parse_ms": (ms.get("formats.parse", 0.0), "ms"),
            "formats.parse_calls": (calls.get("formats.parse", 0), "count"),
            "monomials.ms": (ms.get("monomials", 0.0), "ms"),
            "monomials.calls": (calls.get("monomials", 0), "count"),
            "posets.build_ms": (ms.get("posets.build", 0.0), "ms"),
            "posets.elements": (counts.get("posets.build.elements", 0), "count"),
            "posets.box_cells": (counts.get("posets.build.box_cells", 0), "count"),
            "partitions.searcher_init_ms": (
                ms.get("partitions.searcher_init", 0.0), "ms"),
            "partitions.solve_ms": (ms.get("partitions.solve", 0.0), "ms"),
            "partitions.decide_ms": (ms.get("partitions.decide", 0.0), "ms"),
            "partitions.decisions": (calls.get("partitions.decide", 0), "count"),
            "partitions.nodes": (nodes, "count"),
            "partitions.prunes": (prunes, "count"),
            "partitions.root_refuted": (counts.get("root_refuted", 0), "count"),
            "partitions.timeouts": (counts.get("timeouts", 0), "count"),
            "partitions.verify_ms": (ms.get("partitions.verify", 0.0), "ms"),
            "partitions.decomp_verify_ms": (
                ms.get("partitions.decomp_verify", 0.0), "ms"),
            "partitions.decomp_verify_cells": (
                counts.get("partitions.decomp_verify.cells", 0), "count"),
            "structure.janet_ms": (ms.get("structure.janet", 0.0), "ms"),
            "structure.janet_spaces": (
                counts.get("structure.janet.spaces", 0), "count"),
            "structure.sat_ms": (ms.get("structure.sat", 0.0), "ms"),
            "cli.self_ms": (ms.get("cli.main", 0.0), "ms"),
        }
        out = {key: (value / passes, unit)
               for key, (value, unit) in per_pass.items()}
        out["partitions.nodes_per_s"] = (
            nodes / decide_total_s if decide_total_s else 0.0, "1/s")
        out["partitions.prune_ratio"] = (
            prunes / nodes if nodes else 0.0, "ratio")
        return out


def _poset_counts(args, poset) -> dict:
    return {"elements": len(poset),
            "box_cells": math.prod(e + 1 for e in poset.g)}
