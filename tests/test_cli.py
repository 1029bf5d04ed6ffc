import json
import time

import pytest

from sdepthlab.cli import main


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


def test_quotient_residue_field(tmp_path, capsys):
    unit = _write(tmp_path / "unit.txt", "1\n")
    m2 = _write(tmp_path / "m2.txt", "x1\nx2\n")
    assert main(["quotient", "--input", unit, "--input-j", m2]) == 0
    assert "sdepth = 0" in capsys.readouterr().out


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


def test_alpha_command(tmp_path, capsys):
    out = tmp_path / "alpha.csv"
    assert main(["alpha", "3", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "total = 23" in printed
    assert out.read_text() == "d,alpha\n2,6\n3,7\n4,6\n5,3\n6,1\n"


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


def test_timeout_exit_code(tmp_path, capsys):
    path = _write(tmp_path / "m2.txt", "x1\nx2\n")
    assert main(["sdepth", "--input", path, "--timeout", "1e-12"]) == 3
    assert "timeout" in capsys.readouterr().err


def test_config_validation(tmp_path):
    path = _write(tmp_path / "m2.txt", "x1\nx2\n")
    assert main(["sdepth", "--input", path, "--timeout", "0"]) == 2
    assert main(["sdepth", "--input", path, "--threads", "0"]) == 2


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


def test_g_override(tmp_path, capsys):
    path = _write(tmp_path / "i.txt", "x1*x2\n")
    assert main(["sdepth", "--input", path, "--g", "2,2"]) == 0
    assert "sdepth = 2" in capsys.readouterr().out
    assert main(["sdepth", "--input", path, "--g", "0,0"]) == 2


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
    entry.write_text('{"key": "wrong", "payload": {}}')
    fresh = tmp_path / "b.json"
    assert main(["sdepth", "--input", m5_file, "--cache", str(cache),
                 "--out", str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


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
