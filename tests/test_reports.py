"""Deterministic report serialization: %.17g floats, sorted keys, strict types."""

import hashlib
import json

import numpy as np
import pytest

from sacpde.reports import config_hash, csv_cell, json17, write_csv, write_json


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf, np.float32("nan")])
def test_non_finite_floats_are_refused(value):
    with pytest.raises(ValueError):
        json17({"x": [1.0, value]})
    with pytest.raises(ValueError):
        csv_cell(value)


def test_non_string_keys_and_unknown_types_raise():
    with pytest.raises(TypeError):
        json17({1: "a"})
    with pytest.raises(TypeError):
        json17({"a": {"b": {2.5: 0}}})
    with pytest.raises(TypeError):
        json17({"a": {1, 2}})
    with pytest.raises(TypeError):
        json17(np.zeros(2))


@pytest.mark.parametrize(
    "numpy_value,python_value",
    [
        (np.int64(-7), -7),
        (np.int32(3), 3),
        (np.uint8(200), 200),
        (np.True_, True),
        (np.False_, False),
        (np.float64(0.1), 0.1),
        (np.float64(-2.5e-300), -2.5e-300),
    ],
)
def test_numpy_scalars_render_like_python_ones(numpy_value, python_value):
    assert json17([numpy_value]) == json17([python_value])
    assert csv_cell(numpy_value) == csv_cell(python_value)


def test_bool_is_not_rendered_as_int():
    for true, false in ((True, False), (np.True_, np.False_)):
        assert json17([true, false, 1, 0]) == "[true,false,1,0]"
        assert [csv_cell(v) for v in (true, false)] == ["true", "false"]


def test_keys_come_out_sorted():
    text = json17({"b": 1, "a": {"z": None, "y": "s"}, "C": [2.0]})
    assert text == '{"C":[2],"a":{"y":"s","z":null},"b":1}'
    assert list(json.loads(text)) == ["C", "a", "b"]


AWKWARD = [
    0.1,
    1.0 / 3.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    1e22,
    1e23,
    123456789012345680.0,
    np.nextafter(1.0, 2.0),
    np.nextafter(1.0, 0.0),
    -9.30593463855486,
    np.pi,
]


@pytest.mark.parametrize("value", AWKWARD)
def test_seventeen_digits_round_trip_exactly(value):
    for text in (json17([value])[1:-1], csv_cell(value)):
        assert np.float64(float(text)).tobytes() == np.float64(value).tobytes()


def test_none_is_an_empty_csv_cell():
    assert csv_cell(None) == ""
    assert json17(None) == "null"


def test_config_hash_is_the_sha256_of_json17():
    config = {"seed": 1, "levels": [8, 16], "R": 2 * np.pi, "lumped": False, "x0": "cos"}
    expected = hashlib.sha256(json17(config).encode()).hexdigest()
    assert config_hash(config) == expected
    assert config_hash(dict(reversed(list(config.items())))) == expected


def test_written_files_hold_the_rendered_text(tmp_path):
    payload = {"b": [np.float64(0.1), np.int64(2)], "a": True}
    write_json(tmp_path / "report.json", payload)
    assert (tmp_path / "report.json").read_text() == json17(payload) + "\n"
    write_csv(tmp_path / "rows.csv", ("j", "x", "ok"), [(1, 0.25, True), (2, None, np.False_)])
    assert (tmp_path / "rows.csv").read_text() == "j,x,ok\n1,0.25,true\n2,,false\n"
