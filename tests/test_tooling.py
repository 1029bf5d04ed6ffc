"""Guard for the per-layer tracer in perfbench/tracing.py: it patches
module attributes by name, so a renamed or bypassed layer function would
silently drop its spans from the benchmark's per-layer metrics.  The
posets.build and partitions.searcher_init spans need three names to stay
in place: `partitions.build_poset`, looked up at call time by
`sdepth_ideal`/`sdepth_quotient`; `counting_prune`, public, which the
tracer calls to force the search set-up; and `partitions.exists_partition`,
called with its budget and stats by keyword."""

import importlib.util
from pathlib import Path

from sdepthlab.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracer_class():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_records_the_layers_of_an_sdepth_call(tmp_path):
    path = tmp_path / "m3.txt"
    path.write_text("x1\nx2\nx3\n", encoding="utf-8")
    tracer = _load_tracer_class()()
    tracer.install()
    try:
        assert main(["sdepth", "--input", str(path)]) == 0
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"partitions.decide", "partitions.solve", "monomials",
            "posets.build", "partitions.searcher_init"} <= names
