"""Engineering-unit conversion round trips and error handling."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramangn import UNIT_TAGS, convert_units, db_to_linear
from ramangn.errors import UnitError

_TAGS = sorted(UNIT_TAGS)


def test_tag_table_is_the_six_supported_tags():
    assert set(UNIT_TAGS) == {
        "dB/km", "ps^2/km", "ps^3/km", "dBm", "THz", "1/(W*km)",
    }


def test_attenuation_conversion_value():
    # 0.2 dB/km -> Np/m
    assert convert_units(0.2, "dB/km") == pytest.approx(
        0.2 * math.log(10.0) / 10.0 / 1e3, rel=1e-15
    )


def test_linear_conversions():
    assert convert_units(-21.7, "ps^2/km") == pytest.approx(-21.7e-27, rel=1e-15)
    assert convert_units(0.14, "ps^3/km") == pytest.approx(0.14e-39, rel=1e-15)
    assert convert_units(1.2, "1/(W*km)") == pytest.approx(1.2e-3, rel=1e-15)
    assert convert_units(193.4, "THz") == pytest.approx(193.4e12, rel=1e-15)
    assert convert_units(0.0, "dBm") == pytest.approx(1e-3, rel=1e-15)
    assert convert_units(30.0, "dBm") == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("tag", _TAGS)
@given(value=st.floats(min_value=-50.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_round_trip_per_tag(tag, value):
    if tag not in ("dBm",) and abs(value) < 1e-6:
        value += 1.0  # keep relative comparison meaningful
    si = convert_units(value, tag)
    # scale tags are linear in the value; dBm is 10 log10 of P / 1 mW
    back = (10.0 * math.log10(si / 1e-3) if tag == "dBm"
            else si / convert_units(1.0, tag))
    assert back == pytest.approx(value, rel=1e-12, abs=1e-12)


@given(value_db=st.floats(min_value=-100.0, max_value=100.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=60, deadline=None)
def test_db_round_trip(value_db):
    assert 10.0 * math.log10(db_to_linear(value_db)) == pytest.approx(
        value_db, rel=1e-12, abs=1e-12
    )


def test_db_anchor_points():
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
    assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)


def test_unknown_tag_rejected():
    with pytest.raises(UnitError):
        convert_units(1.0, "furlongs/fortnight")
