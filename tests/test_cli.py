import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdepthlab
from sdepthlab import cli, partitions, sdepth_ideal
from sdepthlab.cache import ResultCache
from sdepthlab.cli import _ideal_hash, build_parser, main
from sdepthlab.formats import IdealParseError, ideal_to_structured, parse_ideal
from sdepthlab.monomials import (
    DEFAULT_ARITY_CAP,
    DEFAULT_EXPONENT_CAP,
    maximal_power,
    minimalize,
    unit_ideal,
)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def m5_file(tmp_path):
    return _write(tmp_path / "m5.txt", "x1\nx2\nx3\nx4\nx5\n")


def test_sdepth_maximal_ideal_n5(m5_file, capsys):
    assert main(["sdepth", "--input", m5_file]) == 0
    out = capsys.readouterr().out
    assert "sdepth = 3" in out


def test_sdepth_principal_prints_arity(tmp_path, capsys):
    path = _write(tmp_path / "p.txt", "x1*x2^2\n")
    assert main(["sdepth", "--input", path]) == 0
    assert "sdepth = 2" in capsys.readouterr().out
    assert main(["sdepth", "--input", path, "--arity", "4"]) == 0
    assert "sdepth = 4" in capsys.readouterr().out


def test_sdepth_parse_error_position(tmp_path, capsys):
    path = _write(tmp_path / "bad.txt", "x0^2\n")
    assert main(["sdepth", "--input", path]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "x0" in err


def test_sdepth_missing_file(tmp_path):
    assert main(["sdepth", "--input", str(tmp_path / "nope.txt")]) == 2


def test_sdepth_zero_ideal_rejected(tmp_path):
    path = _write(tmp_path / "zero.json", '{"n": 2, "generators": []}')
    assert main(["sdepth", "--input", path]) == 2


def test_usage_error_exit_code():
    assert main(["sdepth"]) == 2  # --input is required
    assert main(["unknown-command"]) == 2


def test_repeated_main_calls_share_no_state(tmp_path, capsys):
    """The parser is built once per process; no default, override or
    argparse error carries over from one call into the next, so later calls
    write what a fresh process writes."""
    assert build_parser() is build_parser()
    path = _write(tmp_path / "m3.txt", "x1\nx2\nx3\n")
    fresh = tmp_path / "fresh.json"
    env = {**os.environ,
           "PYTHONPATH": str(Path(sdepthlab.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-m", "sdepthlab.cli", "sdepth",
                    "--input", path, "--out", str(fresh)],
                   check=True, env=env, capture_output=True, timeout=60)
    wide = tmp_path / "wide.json"
    assert main(["sdepth", "--input", path, "--g", "2,2,2",
                 "--out", str(wide)]) == 0
    assert json.loads(wide.read_text())["g"] == [2, 2, 2]
    after_g = tmp_path / "after_g.json"
    assert main(["sdepth", "--input", path, "--out", str(after_g)]) == 0
    assert main(["sdepth", "--input", path, "--g", "x"]) == 2
    after_error = tmp_path / "after_error.json"
    assert main(["sdepth", "--input", path, "--out", str(after_error)]) == 0
    assert after_g.read_bytes() == after_error.read_bytes() == fresh.read_bytes()
    capsys.readouterr()


def test_quotient_residue_field(tmp_path, capsys):
    unit = _write(tmp_path / "unit.txt", "1\n")
    m2 = _write(tmp_path / "m2.txt", "x1\nx2\n")
    assert main(["quotient", "--input", unit, "--input-j", m2]) == 0
    assert "sdepth = 0" in capsys.readouterr().out


def test_inputs_share_the_largest_arity(tmp_path, capsys):
    """A text input inferred below the shared arity is embedded with zero
    exponents; a structured input of another arity is a parse error."""
    x1 = _write(tmp_path / "x1.txt", "x1\n")
    m3 = _write(tmp_path / "m3.json", '{"n": 3, "generators": '
                '[[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')
    x1_m3 = _write(tmp_path / "x1m3.txt", "x1^2\nx1*x2\nx1*x3\n")
    out = tmp_path / "cert.json"
    assert main(["quotient", "--input", x1, "--input-j", x1_m3,
                 "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["numerator"] == {"n": 3, "generators": [[1, 0, 0]]}
    assert document["s"] == 0
    assert main(["quotient", "--input", x1, "--input-j", m3,
                 "--arity", "4"]) == 2
    assert "disagree on the ambient arity 4" in capsys.readouterr().err


def test_quotient_structured_format(tmp_path, capsys):
    unit = _write(tmp_path / "unit.txt", "1\n")
    ideal = _write(tmp_path / "i.txt", "x1*x2\n")
    assert main(["quotient", "--input", unit, "--input-j", ideal,
                 "--format", "structured"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["s"] == 1
    assert document["schema"] == "sdepth-certificate@1"
    assert document["verified"] is True


def test_certificate_roundtrip_and_tampering(tmp_path, m5_file, capsys):
    cert_path = tmp_path / "cert.json"
    assert main(["sdepth", "--input", m5_file, "--out", str(cert_path)]) == 0
    assert main(["verify", str(cert_path)]) == 0
    capsys.readouterr()

    document = json.loads(cert_path.read_text())
    document["s"] = document["s"] + 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(document))
    assert main(["verify", str(tampered)]) == 4
    assert "INVALID" in capsys.readouterr().err

    document = json.loads(cert_path.read_text())
    document["ideal_hash"] = "0" * 64
    tampered.write_text(json.dumps(document))
    assert main(["verify", str(tampered)]) == 4

    document = json.loads(cert_path.read_text())
    document["intervals"] = document["intervals"][1:]
    tampered.write_text(json.dumps(document))
    assert main(["verify", str(tampered)]) == 4

    tampered.write_text("{not json")
    assert main(["verify", str(tampered)]) == 2


@pytest.mark.parametrize("edit", [
    lambda d: d["intervals"].__setitem__(0, d["intervals"][0][:1]),
    lambda d: d["intervals"][0].append(d["intervals"][0][1]),
    lambda d: d.update(intervals={"ab": [1, 2], "x": 3}),
    lambda d: d.update(intervals={}),
    lambda d: d["intervals"].__setitem__(0, 7),
    lambda d: d["intervals"][0].__setitem__(0, "12"),
    lambda d: d["intervals"][0].__setitem__(1, {}),
], ids=["one-part", "three-parts", "dict", "empty-dict", "int-entry",
        "string-bottom", "dict-top"])
def test_verify_rejects_malformed_intervals(tmp_path, m5_file, capsys, edit):
    """An interval entry with 1 or 3 parts, or intervals as a dict, used to
    end in "error: not enough values to unpack"."""
    cert_path = tmp_path / "cert.json"
    assert main(["sdepth", "--input", m5_file, "--out", str(cert_path)]) == 0
    capsys.readouterr()
    document = json.loads(cert_path.read_text())
    edit(document)
    cert_path.write_text(json.dumps(document))
    assert main(["verify", str(cert_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and "malformed certificate" in err


@pytest.mark.parametrize("s", [-1, 6])
def test_verify_rejects_targets_outside_the_rank_range(tmp_path, m5_file,
                                                       capsys, s):
    cert_path = tmp_path / "cert.json"
    assert main(["sdepth", "--input", m5_file, "--out", str(cert_path)]) == 0
    capsys.readouterr()
    document = json.loads(cert_path.read_text())
    document["s"] = s
    cert_path.write_text(json.dumps(document))
    assert main(["verify", str(cert_path)]) == 4
    assert (f"certificate INVALID: target {s} outside [0, 5]"
            in capsys.readouterr().err)


@pytest.mark.parametrize("edit", [
    lambda d: d.update(s=d["s"] + 0.9),
    lambda d: d.update(s=str(d["s"])),
    lambda d: d.update(s=True),
    lambda d: d["g"].__setitem__(0, d["g"][0] + 0.99),
    lambda d: d["g"].__setitem__(0, str(d["g"][0])),
    lambda d: d["intervals"][0][0].__setitem__(
        0, d["intervals"][0][0][0] + 0.5),
    lambda d: d["intervals"][0][1].__setitem__(0, True),
], ids=["s-float", "s-string", "s-bool", "g-float", "g-string",
        "bottom-float", "top-bool"])
def test_verify_rejects_non_integer_values(tmp_path, m5_file, capsys, edit):
    """int() would truncate 3.9 to 3 and read "1" as 1, so each of these
    certificates used to pass."""
    cert_path = tmp_path / "cert.json"
    assert main(["sdepth", "--input", m5_file, "--out", str(cert_path)]) == 0
    capsys.readouterr()
    document = json.loads(cert_path.read_text())
    edit(document)
    cert_path.write_text(json.dumps(document))
    assert main(["verify", str(cert_path)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


def test_verify_rejects_zero_module_certificate(tmp_path, capsys):
    """Numerator equal to denominator: the poset is empty, so the empty
    interval list passes the partition check, but there is nothing to
    certify."""
    ideal = parse_ideal("x1*x2\n")
    structured = ideal_to_structured(ideal)
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps({
        "schema": "sdepth-certificate@1", "n": 2, "g": [1, 1],
        "numerator": structured, "denominator": structured,
        "ideal_hash": _ideal_hash(ideal, ideal, (1, 1)),
        "s": 0, "intervals": []}))
    assert main(["verify", str(forged)]) == 4
    assert ("certificate INVALID: the poset is empty (the quotient module "
            "is zero)") in capsys.readouterr().err


def test_alpha_command(tmp_path, capsys):
    """The level counts of m^2 in 3 variables.  n and k below 1 are usage
    errors, as `alpha_formula` rejects them: `alpha 0 1` and `alpha -2 3`
    printed an empty table and exited 0."""
    out = tmp_path / "alpha.csv"
    assert main(["alpha", "3", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "total = 23" in printed
    assert out.read_text() == "d,alpha\n2,6\n3,7\n4,6\n5,3\n6,1\n"
    for n, k in (("0", "1"), ("-2", "3"), ("3", "0"), ("3", "two")):
        assert main(["alpha", n, k]) == 2
        assert "count >= 1" in capsys.readouterr().err


def test_conjecture_command(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["conjecture", "--n-max", "3", "--k-max", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,alpha_k,sdepth,bound,conjecture_match,status,ms,nodes"
    assert len(lines) == 7
    assert all(",ok," in line for line in lines[1:])


def test_mki_command(tmp_path, capsys):
    path = _write(tmp_path / "x1.txt", "x1\n")
    assert main(["mki", "--input", path, "--arity", "2", "--k-max", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,num_gens,sdepth,status,ms,nodes"
    assert [line.split(",")[:3] for line in lines[1:]] == \
        [["0", "1", "2"], ["1", "2", "1"], ["2", "3", "1"]]


def test_an_empty_sweep_range_exits_2(tmp_path, capsys):
    """A sweep over an empty n or k range is an input error with one
    `error:` line: `conjecture --n-min 3 --n-max 2` and `mki --k-min 3
    --k-max 1` printed the CSV header alone and exited 0.  A range of one
    value still runs."""
    path = _write(tmp_path / "x1.txt", "x1\n")
    for argv in (["conjecture", "--n-min", "3", "--n-max", "2"],
                 ["conjecture", "--k-min", "4", "--k-max", "3"],
                 ["mki", "--input", path, "--k-min", "3", "--k-max", "1"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: empty range: --")
        assert captured.err.count("\n") == 1
    assert main(["mki", "--input", path, "--k-min", "1", "--k-max", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("1,1,1,")


def test_remark17_command(tmp_path, capsys):
    path = _write(tmp_path / "m4.txt", "x1\nx2\nx3\nx4\n")
    assert main(["remark17", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "sdepth(I) = 2" in out
    assert "sdepth(S/I) = 0" in out
    assert "true (reported, not asserted)" in out


def test_janet_command(tmp_path, capsys):
    path = _write(tmp_path / "i.txt", "x1*x2\n")
    assert main(["janet", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "1*K[x1]" in out and "x2*K[x2]" in out


def test_sat_command(tmp_path, capsys):
    path = _write(tmp_path / "i.txt", "x1^2\nx1*x2\n")
    assert main(["sat", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "is_saturated = false" in out
    assert "witness = x1" in out


def test_every_document_kind_is_written_as_json_dumps_writes_it(
        tmp_path, monkeypatch, capsys):
    """The document writer gives the bytes of json.dumps(indent=2) on every
    kind of document the CLI writes; the CSV documents pass as they are."""
    documents = []
    original = cli._document_text

    def recording(document):
        documents.append(document)
        return original(document)

    monkeypatch.setattr(cli, "_document_text", recording)
    ideal = _write(tmp_path / "i.txt", "x1^2*x2\nx2*x3\nx1*x3^2\n")
    unit = _write(tmp_path / "one.txt", "1\n")
    for argv in (["sdepth", "--input", ideal],
                 ["quotient", "--input", unit, "--input-j", ideal],
                 ["janet", "--input", ideal],
                 ["sat", "--input", ideal],
                 ["conjecture", "--n-max", "2", "--k-max", "2"],
                 ["mki", "--input", ideal, "--k-max", "1"],
                 ["remark17", "--input", ideal]):
        assert main(argv + ["--format", "structured"]) == 0
    capsys.readouterr()
    schemas = []
    for document in documents:
        if isinstance(document, str):
            assert original(document) == document
        else:
            assert original(document) == json.dumps(document, indent=2) + "\n"
            schemas.append(document["schema"])
    assert len(documents) == 7
    assert sorted(schemas) == [
        "janet-decomposition@1", "saturation-report@1",
        "sdepth-certificate@1", "sdepth-certificate@1",
        "sdepth-comparison@1"]


_json_documents = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=30)


_big_ints = st.one_of(st.integers(), st.just(0),
                      st.integers(2**63, 2**200), st.integers(-2**200, -1))


@st.composite
def _int_nests(draw):
    """Nests of int lists, depth 0 to 3, with all leaves at one depth:
    rectangular or ragged, some with a bool leaf or an empty list."""
    depth = draw(st.integers(0, 3))
    rectangular = draw(st.booleans())
    leaf = (st.one_of(_big_ints, st.booleans()) if draw(st.booleans())
            else _big_ints)
    length = st.integers(0 if draw(st.booleans()) else 1, 3)
    lengths = [draw(length) for _ in range(depth)]

    def nest(k):
        if k == depth:
            return draw(leaf)
        size = lengths[k] if rectangular else draw(length)
        return [nest(k + 1) for _ in range(size)]

    return nest(0)


def _int_nest_shape(value):
    """The list lengths, one per depth, of a rectangular nest of nonempty
    lists with plain ints at the bottom, whose lists at each depth have one
    length; () for a plain int, None for anything else."""
    if type(value) is int:
        return ()
    if type(value) is not list or not value:
        return None
    shapes = {_int_nest_shape(item) for item in value}
    if None in shapes or len(shapes) > 1:
        return None
    return (len(value),) + shapes.pop()


@settings(max_examples=300, deadline=None)
@given(st.one_of(_json_documents, _int_nests()))
def test_document_writer_matches_json_dumps(document):
    """The bytes of json.dumps(indent=2), and the int-nest path taken for
    the whole document exactly when it is a rectangular nest of nonempty
    lists of plain ints: a bool, an empty list or a ragged nest sends it
    down the generic path."""
    with mock.patch.object(cli, "_int_lists", wraps=cli._int_lists) as spy:
        assert cli._json_text(document, "") == json.dumps(document, indent=2)
    took = any(call.args[0] is document for call in spy.call_args_list)
    assert took == bool(_int_nest_shape(document))


@pytest.mark.parametrize("command, ideals, digest", [
    ("sdepth", (maximal_power(8, 1),),
     "044f4e71f24912711d387a5f197cc651fc156084ef57821024abbe517bfe3a1b"),
    ("sdepth", (maximal_power(6, 2),),
     "409ddc5081b551c3dc657ed0a707b918ade0cc00b601086252daa8cd91c9e3a2"),
    ("quotient", (unit_ideal(5), minimalize(
        [(0, 2, 0, 1, 0), (1, 1, 2, 0, 0), (2, 2, 1, 0, 1)], 5)),
     "6745b6a36ab204a17510f1f736cfe4c50bbebff6127fdd55a5918cb2b51c820f"),
    ("quotient", (unit_ideal(5), minimalize(
        [(1, 0, 0, 0, 2), (2, 0, 1, 1, 0), (2, 1, 2, 0, 1)], 5)),
     "63190b483de8600dfdf14f532fb69f7aa38c2d5926ca8b6d0f8dd992dd9b5efa"),
    ("quotient", (unit_ideal(4), minimalize(
        [(0, 1, 1, 2), (2, 3, 0, 2), (3, 1, 0, 0)], 4)),
     "619cf254f38e8b93b3ecc0d96f451ffe85d6f88a3ff431d0a06ddb69636a9402"),
    ("quotient", (unit_ideal(4), minimalize(
        [(0, 1, 2, 3), (1, 2, 0, 1), (2, 1, 0, 0)], 4)),
     "4d73eccc0eda98ec9fc1d0ef0402380108929e403f569d9d31a9f2c104a36867"),
    ("sdepth", (maximal_power(5, 3),),
     "5e507509200f94c9f76bd2244634bc8f91412262e917e8652d9783c0968c3bfc"),
], ids=["m-n8", "m2-n6", "midhard-S/I", "midhard-S/I-1", "midhard-S/I-2",
        "midhard-S/I-3", "m3-n5"])
def test_certificate_documents_are_pinned(tmp_path, capsys, command, ideals,
                                          digest):
    """The certificate text, byte for byte: any change of the search, of the
    partition it finds or of the writer shows here.  The rows cover the four
    mid-hard S/I of the benchmark and m^3 in 5 variables (550 nodes)."""
    flags = []
    for flag, ideal in zip(("--input", "--input-j"), ideals):
        path = tmp_path / f"{flag[2:]}.json"
        flags += [flag, _write(path, json.dumps(ideal_to_structured(ideal)))]
    out = tmp_path / "certificate.json"
    assert main([command, *flags, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_a_deep_plain_search_is_pinned():
    """m in 12 variables with the corner (1, ..., 1, 2): the corner breaks
    the variable cycle, so only the plain search runs, and its partition
    of 103 intervals is found on a path 103 states deep, one interval per
    state.  Its counters and its certificate text are pinned."""
    cert = sdepth_ideal(maximal_power(12, 1), g=(1,) * 11 + (2,))
    assert partitions._get_searcher(cert.poset).cycle is None
    assert (cert.s, cert.stats.nodes, cert.stats.prunes) == (6, 1451, 772)
    assert len(cert.partition) == 103
    text = cli._document_text(cli.certificate_document(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a8c3e3763f3a1984e59a10a8b80bf4b48cb7380188a79701a52a6d715ec04386")


def test_timeout_exit_code(tmp_path, capsys):
    path = _write(tmp_path / "m2.txt", "x1\nx2\n")
    assert main(["sdepth", "--input", path, "--timeout", "1e-12"]) == 3
    assert "timeout" in capsys.readouterr().err


def test_config_validation(tmp_path):
    path = _write(tmp_path / "m2.txt", "x1\nx2\n")
    assert main(["sdepth", "--input", path, "--timeout", "0"]) == 2
    assert main(["sdepth", "--input", path, "--threads", "0"]) == 2


def test_non_finite_timeout_rejected(tmp_path, capsys):
    """A NaN budget never compares below the clock and an infinite one
    never runs out, so neither would bound the command."""
    path = _write(tmp_path / "m2.txt", "x1\nx2\n")
    for budget in ("nan", "inf"):
        assert main(["sdepth", "--input", path, "--timeout", budget]) == 2
        assert main(["conjecture", "--n-max", "1", "--k-max", "1",
                     "--timeout", budget]) == 2
        assert "positive finite" in capsys.readouterr().err


def test_threads_flag(tmp_path, capsys):
    path = _write(tmp_path / "m3.txt", "x1\nx2\nx3\n")
    assert main(["sdepth", "--input", path, "--threads", "4"]) == 0
    assert "sdepth = 2" in capsys.readouterr().out


def test_threads_flag_changes_no_document(tmp_path, m5_file):
    certs, sweeps = [], []
    for threads in ("1", "4"):
        cert = tmp_path / f"cert{threads}.json"
        sweep = tmp_path / f"sweep{threads}.csv"
        assert main(["sdepth", "--input", m5_file, "--threads", threads,
                     "--out", str(cert)]) == 0
        assert main(["conjecture", "--n-max", "3", "--k-max", "2",
                     "--threads", threads, "--out", str(sweep)]) == 0
        certs.append(cert.read_bytes())
        rows = [line.split(",") for line in sweep.read_text().splitlines()]
        sweeps.append([row[:7] + row[8:] for row in rows])  # mask ms
    assert certs[0] == certs[1]
    assert sweeps[0] == sweeps[1]


def test_arity_must_be_positive(tmp_path, capsys):
    path = _write(tmp_path / "m2.txt", "x1\nx2\n")
    for arity in ("0", "-1", "two"):
        assert main(["sdepth", "--input", path, "--arity", arity]) == 2
        assert "count >= 1" in capsys.readouterr().err
    assert main(["janet", "--input", path, "--arity", "-1"]) == 2


def test_flags_no_handler_reads_are_rejected(tmp_path):
    """mki and remark17 have no box override (a --g only re-embedded the
    ideal through its length), and janet and alpha keep no cache."""
    m2 = _write(tmp_path / "m2.txt", "x1\nx2\n")
    cache = tmp_path / "cache"
    assert main(["mki", "--input", m2, "--g", "9,9,9"]) == 2
    assert main(["remark17", "--input", m2, "--g", "1,1"]) == 2
    assert main(["janet", "--input", m2, "--cache", str(cache)]) == 2
    assert main(["alpha", "2", "1", "--cache", str(cache)]) == 2
    assert not cache.exists()


def test_g_override(tmp_path, capsys):
    path = _write(tmp_path / "i.txt", "x1*x2\n")
    assert main(["sdepth", "--input", path, "--g", "2,2"]) == 0
    assert "sdepth = 2" in capsys.readouterr().out
    assert main(["sdepth", "--input", path, "--g", "0,0"]) == 2


def test_box_too_large_to_index_exits_2(tmp_path, capsys):
    """A box of 2^63 cells or more is refused with one error line before
    anything is allocated; it used to end in an OverflowError traceback.
    Only the walked sub-box counts.  The cube of the janet check is
    guarded too: S/(x70) checks on 2^70 cells, S/(x1500) on 2^1500.  The
    line names the number of axes, not the corner, so it stays under 200
    characters where printing the corner of S/(x1500) took 4.5 KB."""
    huge = "100000000000"
    m2 = _write(tmp_path / "m2.txt", "x1^2\nx1*x2\nx2^2\n")
    cert = tmp_path / "cert.json"
    assert main(["sdepth", "--input", m2, "--g", "3,3",
                 "--out", str(cert)]) == 0
    document = json.loads(cert.read_text())
    document["g"] = [int(huge)] * 2
    cert.write_text(json.dumps(document))
    capsys.readouterr()
    x70 = _write(tmp_path / "x70.txt", "x70\n")
    x1500 = _write(tmp_path / "x1500.txt", "x1500\n")
    for argv in (["sdepth", "--input", m2, "--g", f"{huge},{huge}"],
                 ["verify", str(cert)],
                 ["janet", "--input", x70],
                 ["janet", "--input", x1500]):
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "too many cells to index" in lines[0]
        assert len(lines[0]) < 200, lines[0]
    # the full box has 32768^5 = 2^75 cells, the walked sub-box one
    far = _write(tmp_path / "far.txt", "*".join(
        f"x{j}^32767" for j in range(1, 6)) + "\n")
    assert main(["sdepth", "--input", far]) == 0
    assert "sdepth = 5" in capsys.readouterr().out


def test_arity_above_the_cap_exits_2(tmp_path, capsys):
    """Every route to the arity is bounded before anything is built per
    variable: a variable index in a text file, reported at its line and
    column, then --arity, --g and a structured n, refused by the shared
    arity.  A 13-byte file x99999999999 used to build a tuple of 10^11
    entries before the deadline started; at the cap itself, x32767 is
    still solved."""
    over = DEFAULT_ARITY_CAP + 1
    x1 = _write(tmp_path / "x1.txt", "x1\n")
    text = _write(tmp_path / "over.txt", f"# far\n  x1*x{over}\n")
    structured = _write(tmp_path / "over.json",
                        f'{{"n": {over}, "generators": []}}')
    for argv, reason in (
            (["--input", text], f"parse error: line 2, column 6: variable "
                                f"x{over} exceeds cap {DEFAULT_ARITY_CAP}"),
            (["--input", x1, "--arity", str(over)], None),
            (["--input", x1, "--g", ",".join(["1"] * over)], None),
            (["--input", structured], None)):
        assert main(["sdepth", *argv]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [reason or f"error: arity {over} exceeds cap "
                                   f"{DEFAULT_ARITY_CAP}"]
    with pytest.raises(IdealParseError, match="line 1, column 1"):
        parse_ideal("x99999999999\n")
    at_cap = _write(tmp_path / "cap.txt", f"x{DEFAULT_ARITY_CAP}\n")
    assert main(["sdepth", "--input", at_cap]) == 0
    assert f"sdepth = {DEFAULT_ARITY_CAP}" in capsys.readouterr().out


# Runs `main` on the arguments after -c and prints its exit code and the
# seconds it took, leaving out the interpreter's start and the imports.
_TIMED_MAIN = """\
import sys, time
from sdepthlab.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""


@pytest.mark.parametrize("command", [
    pytest.param(["sdepth", "--input", "CAP"], id="sdepth"),
    pytest.param(["quotient", "--input-j", "CAP", "--input", "ONE"],
                 id="quotient"),
    pytest.param(["sat", "--input", "CAP"], id="sat"),
    pytest.param(["janet", "--input", "CAP"], id="janet"),
    pytest.param(["mki", "--input", "CAP"], id="mki"),
    pytest.param(["remark17", "--input", "CAP"], id="remark17"),
    pytest.param(["sat", "--input", "MAXIMAL"], id="sat-maximal-400"),
    pytest.param(["sat", "--input", "PRINCIPAL"], id="sat-principal-2000"),
    pytest.param(["conjecture", "--n-min", "40", "--n-max", "40",
                  "--k-min", "4", "--k-max", "4"], id="conjecture-40-4")])
def test_every_command_at_the_arity_cap_ends_within_a_second(tmp_path,
                                                             command):
    """Each command that reads --input, on the one-line file x32767 (CAP;
    for `quotient`, S/(x32767) with a file "1" as --input), exits 0 or 2
    within 1 s.  `sat` folded 32,766 intersections of 32,767-tuples, and
    `mki` and `janet` did quadratic work before refusing a box of 2^32767
    cells, each for 5 s to minutes.  The same bound holds for `sat` on the
    maximal ideal (x1, ..., x400) (MAXIMAL), whose per-variable
    saturations are all the unit ideal and which folded 399 intersections
    for about 12 s, for `sat` on the principal x1*...*x2000 (PRINCIPAL),
    whose fold is the ideal itself after two saturations and which folded
    all 2,000 for about 2 s, and for a `conjecture` cell of m^4 in 40
    variables, whose 5^40-cell box it refused only after building m^4 for
    about 2.5 s.  The command runs in a child, so a regression fails at
    the child's timeout instead of hanging the run."""
    files = {
        "CAP": _write(tmp_path / "cap.txt", f"x{DEFAULT_ARITY_CAP}\n"),
        "ONE": _write(tmp_path / "one.txt", "1\n"),
        "MAXIMAL": _write(tmp_path / "maximal.txt", "".join(
            f"x{j}\n" for j in range(1, 401))),
        "PRINCIPAL": _write(tmp_path / "principal.txt", "*".join(
            f"x{j}" for j in range(1, 2001)) + "\n")}
    command = [files.get(word, word) for word in command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _TIMED_MAIN, *command],
                          env=env, capture_output=True, text=True,
                          timeout=30)
    assert done.returncode == 0, done.stderr
    code, seconds = done.stdout.split()[-2:]
    assert code in ("0", "2"), done.stderr
    assert float(seconds) < 1.0, (command[0], seconds)


# JSON values for the structured fields: exponents stay in [-1, 3] or go
# past the cap, so a valid ideal's box holds at most 4^4 cells; n is any
# integer, so it also goes past the arity cap.  Generators are often rows
# of one length, so that some files hold an ideal.
_small_exponents = st.integers(-1, 3) | st.sampled_from(
    [DEFAULT_EXPONENT_CAP + 1, 2**64])
_rows = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_small_exponents, min_size=n, max_size=n), max_size=4))


def _json_values(ints):
    return st.recursive(
        st.none() | st.booleans() | ints | st.floats() | st.text(max_size=3),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 4) | _json_values(st.integers()),
       generators=_rows | _json_values(_small_exponents))
def test_structured_input_with_any_fields_exits_0_or_2(
        tmp_path_factory, n, generators):
    """`main` on a structured file with any JSON value in `n` and in
    `generators` solves it or exits 2, and never raises: a `generators` of
    5 or null raised a TypeError traceback."""
    path = tmp_path_factory.mktemp("structured") / "i.json"
    path.write_text(json.dumps({"n": n, "generators": generators}),
                    encoding="utf-8")
    assert main(["sdepth", "--input", str(path)]) in (0, 2)


def test_out_of_memory_exits_2(m5_file, monkeypatch, capsys):
    """A MemoryError, say from a poset build over a box of 10^10 cells,
    is an input error with one line, not a traceback with exit 1.  The
    test raises it in place of allocating for real."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "sdepth_ideal", exhausted)
    assert main(["sdepth", "--input", m5_file]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory")


def test_determinism_of_documents(tmp_path, m5_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["sdepth", "--input", m5_file, "--out", str(a)]) == 0
    assert main(["sdepth", "--input", m5_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cache_transparency(tmp_path, m5_file):
    cache = tmp_path / "cache"
    cold, warm, plain = (tmp_path / name for name in
                         ("cold.json", "warm.json", "plain.json"))
    assert main(["sdepth", "--input", m5_file, "--cache", str(cache),
                 "--out", str(cold)]) == 0
    assert main(["sdepth", "--input", m5_file, "--cache", str(cache),
                 "--out", str(warm)]) == 0
    assert main(["sdepth", "--input", m5_file, "--out", str(plain)]) == 0
    assert cold.read_bytes() == warm.read_bytes() == plain.read_bytes()
    assert any(cache.iterdir())


def test_cache_ignores_corrupt_entries(tmp_path, m5_file):
    cache = tmp_path / "cache"
    out = tmp_path / "a.json"
    assert main(["sdepth", "--input", m5_file, "--cache", str(cache),
                 "--out", str(out)]) == 0
    entry = next(cache.glob("*.json"))
    # a stale key, and records that are valid JSON but not objects
    for record in ('{"key": "wrong", "payload": {}}', "[]", "3", "null"):
        entry.write_text(record)
        fresh = tmp_path / "b.json"
        assert main(["sdepth", "--input", m5_file, "--cache", str(cache),
                     "--out", str(fresh)]) == 0
        assert out.read_bytes() == fresh.read_bytes()


def test_cache_file_depends_only_on_key_and_payload(tmp_path):
    """Storing one payload twice under one key writes the same bytes: a
    record carries no time stamp or other state of the run."""
    cache = ResultCache(str(tmp_path))
    key, payload = "k" * 64, {"s": 3, "rows": [[1, 2], [3, 4]]}
    cache.store(key, payload)
    first = (tmp_path / f"{key}.json").read_bytes()
    cache.store(key, payload)
    assert (tmp_path / f"{key}.json").read_bytes() == first
    assert cache.load(key) == payload


def test_cache_key_is_derived_from_the_parsed_arguments(tmp_path, capsys):
    """The key holds the canonical ideals and every parsed argument that
    can change a result: a re-serialised ideal hits the entry, a changed
    budget, box or sweep range misses it, and the output and thread
    settings change nothing."""
    cache = tmp_path / "cache"
    text = _write(tmp_path / "i.txt", "x1^2\nx1*x2\n")
    again = _write(tmp_path / "again.txt", "x1*x2\nx1^2*x2\nx1^2\n")
    structured = _write(tmp_path / "i.json",
                        '{"n": 2, "generators": [[1, 1], [2, 0]]}')

    def entries(*argv):
        assert main([*argv, "--cache", str(cache)]) == 0
        capsys.readouterr()
        return len(list(cache.glob("*.json")))

    assert entries("sdepth", "--input", text) == 1
    for path in (again, structured):
        assert entries("sdepth", "--input", path) == 1
    for extra in (["--format", "structured"], ["--threads", "3"],
                  ["--out", str(tmp_path / "cert.json")]):
        assert entries("sdepth", "--input", text, *extra) == 1
    assert entries("sdepth", "--input", text, "--timeout", "30") == 2
    assert entries("sdepth", "--input", text, "--g", "3,3") == 3
    assert entries("mki", "--input", text, "--k-max", "1") == 4
    assert entries("mki", "--input", structured, "--k-max", "1") == 4
    assert entries("mki", "--input", text, "--k-max", "2") == 5


def test_principal_ideal_far_out_is_fast(tmp_path, capsys):
    """A one-element poset: the poset build and the search set-up walk
    only the cells between the generators' minimum and the box corner."""
    path = _write(tmp_path / "p.txt", "x1^20*x2^20*x3^20*x4^20\n")
    for extra in ([], ["--g", "25,25,25,25"]):
        start = time.perf_counter()
        assert main(["sdepth", "--input", path, "--timeout", "0.1",
                     *extra]) == 0
        assert time.perf_counter() - start < 0.5
        assert "sdepth = 4" in capsys.readouterr().out
