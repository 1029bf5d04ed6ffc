import json

import pytest

from sdepthlab import (
    IdealParseError,
    ideal_str,
    ideal_to_structured,
    ideal_to_text,
    maximal_power,
    minimalize,
    monomial_str,
    parse_ideal,
    parse_ideal_structured,
    parse_ideal_text,
)
from sdepthlab.formats import json_ints


def test_parse_text_basic():
    ideal = parse_ideal_text("x1^2*x3\nx2\n")
    assert ideal.arity == 3
    assert ideal.generators == ((0, 1, 0), (2, 0, 1))


def test_parse_text_unit_and_blank_lines():
    assert parse_ideal_text("1\n").is_unit
    assert parse_ideal_text("\n  x1  \n\n# comment\nx2\n").generators == \
        ((0, 1), (1, 0))


def test_parse_text_arity_inference_and_override():
    assert parse_ideal_text("x2\n").arity == 2
    assert parse_ideal_text("x1\n", arity=4).generators == ((1, 0, 0, 0),)
    with pytest.raises(IdealParseError):
        parse_ideal_text("x3\n", arity=2)


def test_parse_text_rejects():
    with pytest.raises(IdealParseError) as exc:
        parse_ideal_text("x0^2\n")
    assert "line 1" in str(exc.value)
    with pytest.raises(IdealParseError):
        parse_ideal_text("x1^-2\n")
    with pytest.raises(IdealParseError):
        parse_ideal_text("x1**x2\n")
    with pytest.raises(IdealParseError):
        parse_ideal_text("y1\n")
    with pytest.raises(IdealParseError):
        parse_ideal_text("x1^999999\n")


def test_parse_text_repeated_factor_accumulates():
    assert parse_ideal_text("x1*x1\n").generators == ((2,),)


def test_parse_structured():
    ideal = parse_ideal_structured({"n": 2, "generators": [[1, 0], [1, 1]]})
    assert ideal.generators == ((1, 0),)
    assert parse_ideal_structured('{"n": 1, "generators": []}').is_zero


def test_parse_structured_rejects():
    with pytest.raises(IdealParseError):
        parse_ideal_structured({"n": 2, "generators": [[1]]})
    with pytest.raises(IdealParseError):
        parse_ideal_structured({"n": 2, "generators": [[-1, 0]]})
    with pytest.raises(IdealParseError):
        parse_ideal_structured({"generators": []})
    with pytest.raises(IdealParseError):
        parse_ideal_structured({"n": 0, "generators": []})
    with pytest.raises(IdealParseError):
        parse_ideal_structured('{"n": 1,')
    with pytest.raises(IdealParseError):
        parse_ideal_structured({"n": 2, "generators": [[1, "a"]]})
    for generators in (5, None, "x1", {"0": [1, 0]}):
        with pytest.raises(IdealParseError, match="must be an array"):
            parse_ideal_structured({"n": 2, "generators": generators})
    # JSON true and false decode to bools, which are Python ints
    for data in ({"n": True, "generators": [[True]]},
                 {"n": 1, "generators": [[False]]},
                 {"n": 2.0, "generators": [[1, 0]]},
                 '{"n": 2, "generators": [[1.5, 0]]}'):
        with pytest.raises(IdealParseError):
            parse_ideal_structured(data)


def test_json_ints_reads_a_nest_and_names_the_first_bad_part():
    """The leaves come back in document order; a depth is walked only to
    name its first bad part, and a shallower bad part wins over a deeper
    one that comes earlier."""
    assert json_ints(7, "s") == [7]
    assert json_ints([[[0, 1], [2]], [[3], []]], "iv", None, 2, None) == [
        0, 1, 2, 3]
    for value, lengths, message in (
            (True, (), "s: True must be an integer"),
            ([[1, 2.0], [3, "4"]], (None, 2), "s: 2.0 must be an integer"),
            ([[1, "a"], [2]], (None, 2), "s: [2] must be an array of length 2"),
            ({"0": [1]}, (None,), "s: {'0': [1]} must be an array")):
        with pytest.raises(TypeError) as exc:
            json_ints(value, "s", *lengths)
        assert str(exc.value) == message


def test_parse_dispatch():
    assert parse_ideal('{"n": 2, "generators": [[1, 1]]}').generators == ((1, 1),)
    assert parse_ideal("x1*x2\n").generators == ((1, 1),)


def test_round_trips():
    ideal = minimalize([(2, 0, 1), (0, 1, 0)], 3)
    assert parse_ideal_text(ideal_to_text(ideal)) == ideal
    assert parse_ideal_structured(
        json.dumps(ideal_to_structured(ideal))) == ideal
    big = maximal_power(3, 2)
    assert parse_ideal_text(ideal_to_text(big)) == big


def test_monomial_str():
    assert monomial_str((0, 0)) == "1"
    assert monomial_str((2, 0, 1)) == "x1^2*x3"
    assert monomial_str((1, 1)) == "x1*x2"
    assert ideal_str(minimalize([], 2)) == "(0)"
    assert ideal_str(minimalize([(1, 1)], 2)) == "(x1*x2)"
