"""Scenario-file parsing: JSON in engineering units -> validated domain objects.

A scenario file is a single JSON object.  Dimensioned quantities are written
as ``{"value": <number>, "unit": "<tag>"}`` with one of the supported
engineering-unit tags (see :mod:`ramangn.units`), except where the unit is
part of the key name (``length_km``, ``power_w``, ``*_db``).  Parsing is
strict: unknown keys are rejected, every error message carries the full key
path, and the result is a fully validated :class:`~ramangn.domain.LinkConfig`.

Top-level structure::

    {
      "span": {
        "length_km": 80.0,
        "attenuation": {"value": 0.2, "unit": "dB/km"},
        "beta2": {"value": -21.7, "unit": "ps^2/km"},
        "beta3": {"value": 0.14, "unit": "ps^3/km"},
        "gamma": {"value": 1.2, "unit": "1/(W*km)"},
        "raman_slope_per_w_per_m_per_hz": 2.8e-17
      },
      "span_count": 1,                     # optional, default 1
      "grid": {                            # uniform shorthand ...
        "count": 40,
        "first_center": {"value": 191.45, "unit": "THz"},
        "spacing": {"value": 0.1, "unit": "THz"},
        "bandwidth": {"value": 0.1, "unit": "THz"},
        "launch_power": {"value": 0.0, "unit": "dBm"}
      },                                   # ... or {"channels": [...]}
      "pumps": [
        {"frequency": {"value": 206.6, "unit": "THz"}, "power_w": 0.6,
         "direction": "backward",
         "attenuation": {"value": 0.2, "unit": "dB/km"}}
      ],
      "budget": {"snr_ase_db": 20.0, "snr_trx_db": "infinite"},
      "coherence_epsilon": 0.0,
      "solver": {"steps": 1000},
      "fit": {"max_iterations": 200},
      "quadrature": {"max_refinements": 3}
    }

``budget`` may also be the string ``"infinite"`` (the default);
``snr_ase_db`` and ``snr_trx_db`` may each be a list with one entry per
channel.  In the explicit-channel form each channel is
``{"center": Q, "bandwidth": Q, "launch_power": Q or [Q, ...]}`` with one
launch power per span (a single value is broadcast).  The ``solver``,
``fit`` and ``quadrature`` keys shown are every run control a scenario
sets, each section parsed by ``_run_control``; the fitter's seed grid and
start counts and the oracle's tolerances are constants (see
:func:`~ramangn.profile.fit_profile` and
:class:`~ramangn.oracle.QuadratureSpec`); the output directory is ``--out``.
A grid holds at most 2000 channels, a link at most 1000 spans and 100
pumps, a solve 100 to 4000 steps and a polish 1000 evaluations (the
``_MAX_*`` constants); larger counts are refused before the link is solved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Tuple

from .domain import (Channel, Direction, FiberSpan, LinkConfig, Pump,
                     SnrBudget, WdmGrid)
from .errors import ScenarioError, UnitError, ValidationError
from .oracle import QuadratureSpec
from .raman import _MIN_STEPS
from .units import UNIT_TAGS, convert_units, db_to_linear

# Count bounds, each refused while parsing; the README's bounds list derives
# them.  The closed-form kernel's channel-pair planes take about
# 65 bytes x channels^2.
_MAX_CHANNELS = 2000
_MAX_SPANS = 1000  # spans add a spans x channels launch-power matrix
# A pump is one more line of the solve: 100 add 5 % to its lines at the
# channel ceiling.
_MAX_PUMPS = 100
# The solver holds (lines, steps + 1) powers and doubles the steps on each of
# up to three retries, and the fit holds (channels, steps + 1) targets: at the
# 2000-channel ceiling 4000 steps take 64 MB, and 512 MB at the third retry.
_MAX_STEPS = 4000
# Residual evaluations of one polish, 5 times the default: a 256-channel
# block takes about 2 ms per evaluation, so 2000 channels that never
# converge stop after about 16-18 s.
_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class Scenario:
    """A parsed and validated scenario: link plus run controls."""

    link: LinkConfig
    budget: SnrBudget
    solver_steps: int = 1000
    fit_overrides: dict = field(default_factory=dict)
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)


def _require_mapping(node: Any, path: str) -> dict:
    if not isinstance(node, dict):
        raise ScenarioError(f"{path}: expected an object, got {type(node).__name__}")
    return node


_REQUIRED = object()


def _take(node: dict, key: str, path: str, default=_REQUIRED):
    if key in node:
        return node.pop(key)
    if default is _REQUIRED:
        raise ScenarioError(f"{path}: missing required key {key!r}")
    return default


def _reject_unknown(node: dict, path: str) -> None:
    if node:
        keys = ", ".join(sorted(map(repr, node)))
        raise ScenarioError(f"{path}: unknown key(s) {keys}")


def _number(value: Any, path: str) -> float:
    """A finite JSON number; ``json`` also reads NaN, Infinity and 1e400."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{path}: expected a finite number, got {value!r}")
    return number


def _quantity(value: Any, path: str) -> float:
    """A ``{"value": x, "unit": tag}`` object converted to SI."""
    node = dict(_require_mapping(value, path))
    raw = _number(_take(node, "value", path), f"{path}.value")
    unit = _take(node, "unit", path)
    _reject_unknown(node, path)
    if not isinstance(unit, str):
        raise ScenarioError(f"{path}.unit: expected a unit tag string")
    try:
        return convert_units(raw, unit)
    except UnitError as exc:
        # a known tag fails only on a value that overflows
        key = "value" if unit in UNIT_TAGS else "unit"
        raise ScenarioError(f"{path}.{key}: {exc}") from exc


def _int_at_least(value: Any, path: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ScenarioError(
            f"{path}: expected an integer >= {minimum}, got {value!r}")
    return value


def _count_at_most(count: int, maximum: int, path: str, noun: str) -> int:
    """``count``, refused before any object is built if above ``maximum``."""
    if count > maximum:
        raise ScenarioError(
            f"{path}: {count} {noun}, more than the {maximum} allowed")
    return count


def _solver_steps(value: Any, path: str) -> int:
    """An RK4 step count in [``_MIN_STEPS``, ``_MAX_STEPS``], else a
    ScenarioError naming ``path``, the key or the CLI flag."""
    return _count_at_most(_int_at_least(value, path, _MIN_STEPS), _MAX_STEPS,
                          path, "steps")


def _max_iterations(value: Any, path: str) -> int:
    """A polish's evaluation cap in [1, ``_MAX_ITERATIONS``]."""
    return _count_at_most(_int_at_least(value, path), _MAX_ITERATIONS, path,
                          "iterations")


def _parse_span(node: Any, path: str) -> FiberSpan:
    node = dict(_require_mapping(node, path))
    length = 1e3 * _number(_take(node, "length_km", path), f"{path}.length_km")
    attenuation = _quantity(_take(node, "attenuation", path), f"{path}.attenuation")
    beta2 = _quantity(_take(node, "beta2", path), f"{path}.beta2")
    beta3 = _quantity(_take(node, "beta3", path, {"value": 0.0, "unit": "ps^3/km"}),
                      f"{path}.beta3")
    gamma = _quantity(_take(node, "gamma", path), f"{path}.gamma")
    slope = _number(_take(node, "raman_slope_per_w_per_m_per_hz", path, 0.0),
                    f"{path}.raman_slope_per_w_per_m_per_hz")
    _reject_unknown(node, path)
    return FiberSpan(length=length, beta2=beta2, beta3=beta3, gamma=gamma,
                     attenuation=attenuation, raman_slope=slope)


def _parse_launch_powers(value: Any, path: str, span_count: int
                         ) -> Tuple[float, ...]:
    if isinstance(value, list):
        powers = tuple(_quantity(v, f"{path}[{j}]") for j, v in enumerate(value))
        if len(powers) != span_count:
            raise ScenarioError(
                f"{path}: {len(powers)} launch powers for {span_count} span(s)")
        return powers
    return (_quantity(value, path),) * span_count


def _parse_grid(node: Any, path: str, span_count: int) -> WdmGrid:
    node = dict(_require_mapping(node, path))
    if "channels" in node:
        raw = _take(node, "channels", path)
        _reject_unknown(node, path)
        if not isinstance(raw, list) or not raw:
            raise ScenarioError(f"{path}.channels: expected a non-empty list")
        _count_at_most(len(raw), _MAX_CHANNELS, f"{path}.channels",
                       "channels")
        channels = []
        for j, item in enumerate(raw):
            cpath = f"{path}.channels[{j}]"
            cnode = dict(_require_mapping(item, cpath))
            center = _quantity(_take(cnode, "center", cpath), f"{cpath}.center")
            bandwidth = _quantity(_take(cnode, "bandwidth", cpath),
                                  f"{cpath}.bandwidth")
            powers = _parse_launch_powers(
                _take(cnode, "launch_power", cpath),
                f"{cpath}.launch_power", span_count)
            _reject_unknown(cnode, cpath)
            channels.append(Channel(center, bandwidth, powers))
        return WdmGrid(tuple(channels))
    count = _count_at_most(_int_at_least(_take(node, "count", path),
                                         f"{path}.count"),
                           _MAX_CHANNELS, f"{path}.count", "channels")
    first = _quantity(_take(node, "first_center", path), f"{path}.first_center")
    spacing = _quantity(_take(node, "spacing", path), f"{path}.spacing")
    bandwidth = _quantity(_take(node, "bandwidth", path), f"{path}.bandwidth")
    powers = _parse_launch_powers(_take(node, "launch_power", path),
                                  f"{path}.launch_power", span_count)
    _reject_unknown(node, path)
    return WdmGrid(tuple(
        Channel(first + j * spacing, bandwidth, powers) for j in range(count)))


def _parse_pumps(node: Any, path: str) -> Tuple[Pump, ...]:
    if not isinstance(node, list):
        raise ScenarioError(f"{path}: expected a list of pump objects")
    _count_at_most(len(node), _MAX_PUMPS, path, "pumps")
    pumps = []
    for j, item in enumerate(node):
        ppath = f"{path}[{j}]"
        pnode = dict(_require_mapping(item, ppath))
        frequency = _quantity(_take(pnode, "frequency", ppath),
                              f"{ppath}.frequency")
        power = _number(_take(pnode, "power_w", ppath), f"{ppath}.power_w")
        direction = _take(pnode, "direction", ppath)
        attenuation = _quantity(_take(pnode, "attenuation", ppath),
                                f"{ppath}.attenuation")
        _reject_unknown(pnode, ppath)
        try:
            direction = Direction(direction)
        except ValueError:
            raise ScenarioError(
                f"{ppath}.direction: expected 'forward' or 'backward', "
                f"got {direction!r}") from None
        pumps.append(Pump(frequency, power, direction, attenuation))
    return tuple(pumps)


def _linear(value: Any, path: str) -> float:
    """A finite JSON number of dB as a linear ratio."""
    try:
        return db_to_linear(_number(value, path))
    except UnitError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_budget_entry(value: Any, path: str, n_channels: int):
    if value == "infinite":
        return math.inf
    if isinstance(value, list):
        if len(value) != n_channels:
            raise ScenarioError(
                f"{path}: {len(value)} entries for {n_channels} channel(s)")
        return tuple(_linear(v, f"{path}[{j}]") for j, v in enumerate(value))
    return _linear(value, path)


def _parse_budget(node: Any, path: str, n_channels: int) -> SnrBudget:
    if node == "infinite":
        return SnrBudget()
    node = dict(_require_mapping(node, path))
    ase = _parse_budget_entry(_take(node, "snr_ase_db", path, "infinite"),
                              f"{path}.snr_ase_db", n_channels)
    trx = _parse_budget_entry(_take(node, "snr_trx_db", path, "infinite"),
                              f"{path}.snr_trx_db", n_channels)
    _reject_unknown(node, path)
    return SnrBudget(snr_ase=ase, snr_trx=trx)


def _run_control(root: dict, section: str, key: str, parse) -> dict:
    """Run-control ``section`` of ``root``, an object, as ``{key: parse(value,
    "section.key")}``, or ``{}`` without ``key``; other keys are refused."""
    node = dict(_require_mapping(_take(root, section, "<root>", {}), section))
    out = ({key: parse(node.pop(key), f"{section}.{key}")} if key in node
           else {})
    _reject_unknown(node, section)
    return out


def parse_scenario(path) -> Scenario:
    """Read, parse, convert, and validate a scenario file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}") from exc
    try:
        root = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    root = dict(_require_mapping(root, "<root>"))

    span_count = _take(root, "span_count", "<root>", 1)
    span_count = _count_at_most(_int_at_least(span_count, "span_count"),
                                _MAX_SPANS, "span_count", "spans")
    span = _parse_span(_take(root, "span", "<root>"), "span")
    grid = _parse_grid(_take(root, "grid", "<root>"), "grid", span_count)
    pumps = _parse_pumps(_take(root, "pumps", "<root>", []), "pumps")
    epsilon = _number(_take(root, "coherence_epsilon", "<root>", 0.0),
                      "coherence_epsilon")
    budget = _parse_budget(_take(root, "budget", "<root>", "infinite"),
                           "budget", grid.n_channels)

    solver = _run_control(root, "solver", "steps", _solver_steps)
    fit_overrides = _run_control(root, "fit", "max_iterations",
                                 _max_iterations)
    try:
        quadrature = QuadratureSpec(**_run_control(
            root, "quadrature", "max_refinements", _int_at_least))
    except ValidationError as exc:
        raise ScenarioError(f"quadrature: {exc}") from exc

    _reject_unknown(root, "<root>")

    link = LinkConfig(span=span, span_count=span_count, grid=grid,
                      pumps=pumps, coherence_epsilon=epsilon)
    return Scenario(link=link, budget=budget,
                    solver_steps=solver.get("steps", 1000),
                    fit_overrides=fit_overrides, quadrature=quadrature)
