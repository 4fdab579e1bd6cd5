import json
from fractions import Fraction

import pytest

from toriq import io as tio
from toriq.basepoint import INF, is_infinite
from toriq.forms import BinaryForm, ProjPoint


def test_fan_round_trip(bl0p2, tmp_path):
    path = tmp_path / "fan.json"
    tio.dump(tio.fan_to_dict(bl0p2), path)
    assert tio.load_fan(path) == bl0p2


def test_fan_rejects_floats(tmp_path):
    path = tmp_path / "fan.json"
    path.write_text('{"dim": 2, "rays": [[1.0, 0], [0, 1], [-1, -1]], '
                    '"max_cones": [[0, 1], [1, 2], [0, 2]]}')
    with pytest.raises(ValueError):
        tio.load_fan(path)


def test_scalar_parsing():
    assert tio.parse_scalar("3/4") == Fraction(3, 4)
    assert tio.parse_scalar(7) == 7
    assert tio.scalar_to_json(Fraction(3, 4)) == "3/4"
    assert tio.scalar_to_json(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        tio.parse_scalar(1.5)
    with pytest.raises(ValueError):
        tio.parse_scalar(True)


def order_to_json(value):
    return "inf" if is_infinite(value) else int(value)


def test_order_tokens():
    assert tio.parse_order("inf") is INF
    assert tio.parse_order("3") == 3
    assert order_to_json(INF) == "inf"
    assert order_to_json(tio.parse_order("3")) == 3
    assert tio.parse_order_list("0,1,inf,0", 4) == (0, 1, INF, 0)


def test_quasimap_round_trip_with_rational_coeffs(p2, tmp_path):
    q_dict = {
        "fan": tio.fan_to_dict(p2),
        "components": [[
            {"degree": 1, "coeffs": ["1/2", "1"]},
            {"degree": 1, "coeffs": [0, "2"]},
            {"degree": 1, "coeffs": [1, 1]},
        ]],
        "markings": [[0, [1, 1]], [0, [1, "3/2"]]],
    }
    path = tmp_path / "q.json"
    path.write_text(json.dumps(q_dict))
    q = tio.load_quasimap(path)
    assert q.sections(0)[0].coeffs == (Fraction(1, 2), Fraction(1))
    assert q.markings[1][1] == ProjPoint(1, Fraction(3, 2))
    again = tio.quasimap_from_dict(tio.quasimap_to_dict(q))
    assert again == q


def test_quasimap_fan_by_path(p2, tmp_path):
    tio.dump(tio.fan_to_dict(p2), tmp_path / "fan.json")
    q_dict = {
        "fan": "fan.json",
        "components": [[
            {"degree": 0, "coeffs": [1]},
            {"degree": 0, "coeffs": [2]},
            {"degree": 0, "coeffs": [3]},
        ]],
    }
    (tmp_path / "q.json").write_text(json.dumps(q_dict))
    q = tio.load_quasimap(tmp_path / "q.json")
    assert q.fan == p2


def test_zero_form_serialization():
    zero = BinaryForm.zero(-2)
    data = tio.form_to_dict(zero)
    assert data == {"degree": -2, "coeffs": []}
    assert tio.form_from_dict(data) == zero


def test_fan_shape_errors_come_from_the_fan():
    data = {"dim": 2, "rays": [[1, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}
    assert tio.fan_from_dict(data).max_cones == ((0, 1), (1, 2), (0, 2))
    with pytest.raises(tio.MalformedInput, match=r"cone \(1, 5\) references unknown ray 5"):
        tio.fan_from_dict({**data, "max_cones": [[0, 1], [1, 5], [0, 2]]})
    with pytest.raises(tio.MalformedInput, match=r"ray \(0, 1, 0\) does not have length 2"):
        tio.fan_from_dict({**data, "rays": [[1, 0], [0, 1, 0], [-1, -1]]})


def test_form_shape_errors_come_from_the_form():
    with pytest.raises(tio.MalformedInput, match="needs 3 coefficients, got 2"):
        tio.form_from_dict({"degree": 2, "coeffs": [1, 2]})
    with pytest.raises(tio.MalformedInput, match="negative-degree forms must be zero"):
        tio.form_from_dict({"degree": -2, "coeffs": [7, 7]})
    assert tio.form_from_dict({"degree": -2, "coeffs": [0, 0]}) == BinaryForm.zero(-2)
