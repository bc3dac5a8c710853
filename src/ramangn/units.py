"""Engineering-unit conversion at the I/O boundary.

Everything inside the package is strict SI: Hz, W, m, Np/m, s^2/m, s^3/m,
1/(W*m), 1/(W*m*Hz).  Engineering units exist only in scenario files, which
the scenario parser converts on the way in with ``convert_units`` (tagged
quantities) and ``db_to_linear`` (plain dB ratios); reports are written in
SI, with SNRs in dB.
"""

from __future__ import annotations

import math

from .errors import UnitError

_LN10 = math.log(10.0)

#: Supported engineering-unit tags and their SI target units.
UNIT_TAGS = {
    "dB/km": "Np/m",
    "ps^2/km": "s^2/m",
    "ps^3/km": "s^3/m",
    "dBm": "W",
    "THz": "Hz",
    "1/(W*km)": "1/(W*m)",
}

# Linear tags convert by a pure scale factor.
_SCALE = {
    "dB/km": _LN10 / 10.0 / 1e3,   # dB -> Np, km -> m
    "ps^2/km": 1e-24 / 1e3,
    "ps^3/km": 1e-36 / 1e3,
    "THz": 1e12,
    "1/(W*km)": 1e-3,
}


def convert_units(value: float, unit: str) -> float:
    """Convert an engineering value with a unit tag to its SI equivalent.

    Parameters
    ----------
    value:
        Numeric value expressed in the engineering unit ``unit``.
    unit:
        One of the tags in ``UNIT_TAGS``.

    Raises
    ------
    UnitError
        If the tag is not supported.
    """
    if unit in _SCALE:
        return value * _SCALE[unit]
    if unit == "dBm":
        return 1e-3 * 10.0 ** (value / 10.0)
    raise UnitError(f"unknown unit tag {unit!r}; supported: {sorted(UNIT_TAGS)}")


def db_to_linear(value_db: float) -> float:
    """Plain dB ratio to linear scale."""
    return 10.0 ** (value_db / 10.0)
