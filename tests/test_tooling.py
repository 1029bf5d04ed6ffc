"""Guard for the per-layer tracer in perfbench/tracing.py: it patches
module attributes by name, so a renamed or bypassed layer function would
silently drop its spans from the benchmark's per-layer metrics.  The
posets.build and partitions.searcher_init spans need three names to stay
in place: `partitions.build_poset`, looked up at call time by
`sdepth_ideal`/`sdepth_quotient`; `counting_prune`, public, which the
tracer calls to force the search set-up; and `partitions.exists_partition`,
called with its budget and stats by keyword.  The partitions.verify span
needs `verify_certificate` to reach `partitions.verify_partition` by its
module name.  The package metadata must name the engine version, the
sources must parse as the oldest Python the metadata allows, and they
import nothing outside the standard library.  A search never touches the
interpreter's recursion limit.  Every name README's library overview
gives a module is still there.  Importing the package and its command line
loads neither `dataclasses` nor `inspect`.  The certificate checker shares
nothing with the search.  The code-line counter behind ROADMAP's figure
counts what it says it counts."""

import ast
import importlib
import importlib.util
import itertools
import keyword
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import code_lines
import sdepthlab
from sdepthlab import (
    ENGINE_VERSION,
    CharPoset,
    build_poset,
    maximal_power,
    partitions,
)
from sdepthlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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
            "posets.build", "partitions.searcher_init",
            "partitions.verify"} <= names


def test_package_version_is_the_engine_version():
    """pyproject.toml and ENGINE_VERSION name the same release.  A regex
    reads the file, as tomllib needs Python 3.11 and the package allows
    3.10."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [
        ENGINE_VERSION]


def test_sources_parse_as_python_3_10():
    """pyproject.toml allows Python 3.10, while the tests run on a newer
    one: syntax added after 3.10, such as `except*`, must not creep in."""
    assert re.search(r'^requires-python = ">=3\.10"$',
                     (ROOT / "pyproject.toml").read_text(encoding="utf-8"),
                     re.M)
    sources = sorted((ROOT / "src" / "sdepthlab").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def test_sources_import_the_standard_library_only():
    """The package has no third-party runtime dependency: every absolute
    import in its sources names a standard-library module, and imports
    within the package are relative."""
    sources = sorted((ROOT / "src" / "sdepthlab").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}")


def test_a_search_never_sets_the_recursion_limit(monkeypatch):
    """The search keeps its open frames in a list, so it needs no deeper
    recursion and leaves the interpreter-wide limit alone: with
    `sys.setrecursionlimit` made to raise, a solved scan of m^2 in 8
    variables (6,552 elements) still runs, and so does a decision at
    target 3 that times out inside the search: there the clock ticks once
    per read, so the 21st node finds the deadline passed."""
    def refuse(limit):
        raise AssertionError(f"the recursion limit was set to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert partitions.sdepth_ideal(maximal_power(8, 2)).s == 3
    ticks = itertools.count()
    monkeypatch.setattr(partitions, "time",
                        SimpleNamespace(monotonic=lambda: next(ticks)))
    stats = partitions.SearchStats()
    with pytest.raises(partitions.SearchTimeout):
        partitions.exists_partition(build_poset(maximal_power(8, 2)), 3,
                                    timeout_s=20, stats=stats)
    assert stats.nodes == 21


def test_readme_library_overview_names_only_what_exists():
    """Each row of README's "Library overview" table names a module, and
    each backticked Python identifier in the row is an attribute of that
    module, of `CharPoset` or of the package, so a deleted function or
    method cannot linger in the docs.  Keywords such as `in`, one-letter
    symbols such as `s` and the command name `sdepthlab` are no names of
    the library and are skipped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines()
            if line.startswith("| `sdepthlab.")]
    assert len(rows) >= 6
    for row in rows:
        name, contents = row.strip("|").split("|")[:2]
        name = name.strip(" `")
        module = importlib.import_module(name)
        for word in re.findall(r"`([^`]*)`", contents):
            if (not word.isidentifier() or keyword.iskeyword(word)
                    or len(word) == 1 or word == "sdepthlab"):
                continue
            assert any(hasattr(owner, word)
                       for owner in (module, CharPoset, sdepthlab)), (
                f"README names `{word}` in the {name} row")


def test_importing_the_package_loads_neither_dataclasses_nor_inspect():
    """Every CLI process pays for the package's imports.  Its records are
    namedtuples and slotted classes, so a fresh interpreter that imports
    `sdepthlab` and `sdepthlab.cli` has loaded neither `dataclasses` nor
    the `inspect` it pulls in, nor built a class through them."""
    code = ("import sys, sdepthlab, sdepthlab.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert done.stdout == "[]\n"


def test_the_checker_names_nothing_of_the_search():
    """The checker (`verify_partition`, `_interval_failure`, `_box_mask`
    and `verify_certificate`) shares nothing with the solver: its syntax
    trees name none of `_Searcher`, `_get_searcher`, the mask helpers
    `_cells` and `_digit_sums` and the `_searcher` slot of a poset, and
    read no attribute that `_Searcher` defines, its methods or what its
    methods assign on `self`.  `top`, a field of the `Interval` that the
    checker reads, is the one name the two share and is left out."""
    source = Path(partitions.__file__).read_text(encoding="utf-8")
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    searcher = functions["_Searcher"]
    defined = {node.name for node in searcher.body
               if isinstance(node, ast.FunctionDef)}
    defined |= {node.attr for node in ast.walk(searcher)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"}
    assert {"decide", "full_mask", "multiples", "shape"} <= defined
    defined -= set(partitions.Interval._fields)
    banned = {"_Searcher", "_get_searcher", "_cells", "_digit_sums",
              "_searcher"}
    for name in ("verify_partition", "_interval_failure", "_box_mask",
                 "verify_certificate"):
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                assert node.id not in banned, (name, node.id)
            elif isinstance(node, ast.Attribute):
                assert node.attr not in banned | defined, (name, node.attr)


_COUNTED = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line
TEXT = """a string that is
no docstring"""


class Box:
    """A class docstring."""

    side = 1


def join(a,
         b):
    """A function docstring,
    over two lines."""
    # a comment line
    return os.path.join(a,
                        b)
'''


def test_code_lines_skip_docstrings_comments_and_blanks(tmp_path, capsys):
    """`tests/code_lines.py` counts the lines that hold a token other than
    a comment, less docstring lines: of the snippet, the import, both
    lines of the string assignment, `class`, `side = 1`, and both lines of
    the wrapped `def` and of the wrapped call, 9 lines.  Run on a folder,
    it prints each file's count and the total."""
    assert code_lines.code_lines(_COUNTED) == 9
    (tmp_path / "a.py").write_text(_COUNTED, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["9", "1", "10"]
    assert out[-1].split()[1] == "total"
