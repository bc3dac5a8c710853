"""Scenario file parsing: unit conversion, strictness, and defaults."""

import json
import math
import os
import re

import pytest

from ramangn import parse_scenario
from ramangn.domain import Direction
from ramangn.errors import ScenarioError, UnitError, ValidationError

from conftest import ALPHA_02_DB_KM


def _write(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _base_payload():
    return {
        "span": {
            "length_km": 80.0,
            "attenuation": {"value": 0.2, "unit": "dB/km"},
            "beta2": {"value": -21.7, "unit": "ps^2/km"},
            "gamma": {"value": 1.2, "unit": "1/(W*km)"},
        },
        "grid": {
            "count": 2,
            "first_center": {"value": 193.0, "unit": "THz"},
            "spacing": {"value": 0.1, "unit": "THz"},
            "bandwidth": {"value": 0.1, "unit": "THz"},
            "launch_power": {"value": 0.0, "unit": "dBm"},
        },
    }


def test_reference_scenario_parses_and_converts(reference_scenario):
    link = reference_scenario.link
    assert link.grid.n_channels == 40
    assert link.grid.channels[0].center_frequency == pytest.approx(191.45e12)
    assert link.grid.channels[-1].center_frequency == pytest.approx(195.35e12)
    assert link.grid.band_center == pytest.approx(193.4e12)
    assert link.span.length == pytest.approx(80e3)
    assert link.span.attenuation == pytest.approx(ALPHA_02_DB_KM)
    assert link.span.beta2 == pytest.approx(-21.7e-27)
    assert link.span.beta3 == pytest.approx(0.14e-39)
    assert link.span.gamma == pytest.approx(1.2e-3)
    assert link.span.raman_slope == pytest.approx(2.8e-17)
    assert len(link.pumps) == 1
    pump = link.pumps[0]
    assert pump.frequency == pytest.approx(206.6e12)
    assert pump.input_power == pytest.approx(0.6)
    assert pump.direction is Direction.BACKWARD
    ase, trx = reference_scenario.budget.as_arrays(2)
    assert math.isinf(ase[0]) and math.isinf(trx[0])
    assert reference_scenario.solver_steps == 1000


def test_minimal_scenario_defaults(minimal_scenario_path):
    sc = parse_scenario(minimal_scenario_path)
    assert sc.link.span.beta3 == 0.0
    assert sc.link.span.raman_slope == 0.0
    assert sc.link.pumps == ()
    assert sc.link.span_count == 1
    assert sc.fit_overrides == {}


def test_unknown_root_key_rejected(tmp_path):
    payload = _base_payload()
    payload["unexpected"] = 1
    with pytest.raises(ScenarioError, match="unexpected"):
        parse_scenario(_write(tmp_path, payload))


def test_output_directory_is_not_a_scenario_key(tmp_path):
    """Where outputs go is the CLI's ``--out``; a scenario cannot set it."""
    payload = _base_payload()
    payload["output"] = {"directory": "results"}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_write(tmp_path, payload))
    assert str(info.value) == "<root>: unknown key(s) 'output'"


def test_unknown_nested_key_reports_path(tmp_path):
    payload = _base_payload()
    payload["span"]["lenght_km"] = 80.0
    with pytest.raises(ScenarioError, match="span"):
        parse_scenario(_write(tmp_path, payload))


def test_missing_required_key_reports_path(tmp_path):
    payload = _base_payload()
    del payload["span"]["attenuation"]
    with pytest.raises(ScenarioError, match="attenuation"):
        parse_scenario(_write(tmp_path, payload))


def test_bad_unit_tag_rejected(tmp_path):
    payload = _base_payload()
    payload["span"]["attenuation"] = {"value": 0.2, "unit": "dB/mile"}
    # the unit failure is wrapped with the offending key path
    with pytest.raises(ScenarioError, match="span.attenuation.*unit tag"):
        parse_scenario(_write(tmp_path, payload))


def test_invalid_json_rejected_with_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"span": ')
    with pytest.raises(ScenarioError, match="line"):
        parse_scenario(str(path))


def test_missing_file_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("/nonexistent/scenario.json")


def test_budget_conversion(tmp_path):
    payload = _base_payload()
    payload["budget"] = {"snr_ase_db": 20.0, "snr_trx_db": "infinite"}
    sc = parse_scenario(_write(tmp_path, payload))
    ase, trx = sc.budget.as_arrays(2)
    assert ase[0] == pytest.approx(100.0)
    assert math.isinf(trx[0])


def test_explicit_channel_list(tmp_path):
    payload = _base_payload()
    payload["grid"] = {
        "channels": [
            {
                "center": {"value": 193.0, "unit": "THz"},
                "bandwidth": {"value": 0.05, "unit": "THz"},
                "launch_power": {"value": 1.0, "unit": "dBm"},
            },
            {
                "center": {"value": 193.2, "unit": "THz"},
                "bandwidth": {"value": 0.1, "unit": "THz"},
                "launch_power": {"value": 0.0, "unit": "dBm"},
            },
        ]
    }
    sc = parse_scenario(_write(tmp_path, payload))
    chans = sc.link.grid.channels
    assert chans[0].bandwidth == pytest.approx(50e9)
    assert chans[0].launch_power_per_span[0] == pytest.approx(
        1e-3 * 10 ** 0.1)
    assert chans[1].center_frequency == pytest.approx(193.2e12)


def test_per_span_launch_powers(tmp_path):
    """A list of launch powers gives one value per span, in both grid forms;
    a list of the wrong length is refused with its key path."""
    payload = _base_payload()
    payload["span_count"] = 3
    payload["grid"]["launch_power"] = [
        {"value": v, "unit": "dBm"} for v in (0.0, 1.0, -2.0)]
    sc = parse_scenario(_write(tmp_path, payload))
    expected = tuple(1e-3 * 10 ** (v / 10) for v in (0.0, 1.0, -2.0))
    for ch in sc.link.grid.channels:
        assert ch.launch_power_per_span == pytest.approx(expected, rel=1e-15)
    payload["grid"]["launch_power"].pop()
    with pytest.raises(ScenarioError,
                       match=r"^grid\.launch_power: 2 launch powers for 3 "):
        parse_scenario(_write(tmp_path, payload))

    payload = _base_payload()
    payload["span_count"] = 2
    payload["grid"] = {"channels": [{
        "center": {"value": 193.0, "unit": "THz"},
        "bandwidth": {"value": 0.1, "unit": "THz"},
        "launch_power": [{"value": 3.0, "unit": "dBm"}] * 3,
    }]}
    with pytest.raises(ScenarioError, match=r"^grid\.channels\[0\]"
                       r"\.launch_power: 3 launch powers for 2 "):
        parse_scenario(_write(tmp_path, payload))
    payload["grid"]["channels"][0]["launch_power"].pop()
    sc = parse_scenario(_write(tmp_path, payload))
    assert sc.link.grid.channels[0].launch_power_per_span == pytest.approx(
        (1e-3 * 10 ** 0.3,) * 2, rel=1e-15)


def test_per_channel_budget(tmp_path):
    """snr_ase_db may list one dB value per channel; a list of the wrong
    length is refused with its key path."""
    payload = _base_payload()
    payload["budget"] = {"snr_ase_db": [20.0, 23.0], "snr_trx_db": 30.0}
    sc = parse_scenario(_write(tmp_path, payload))
    ase, trx = sc.budget.as_arrays(2)
    assert ase == pytest.approx([100.0, 10 ** 2.3], rel=1e-15)
    assert trx == pytest.approx([1000.0, 1000.0], rel=1e-15)
    payload["budget"]["snr_ase_db"].append(25.0)
    with pytest.raises(ScenarioError,
                       match=r"^budget\.snr_ase_db: 3 entries for 2 "):
        parse_scenario(_write(tmp_path, payload))


def test_solver_fit_quadrature_sections(tmp_path):
    payload = _base_payload()
    payload["solver"] = {"steps": 500}
    payload["fit"] = {"max_iterations": 50}
    payload["quadrature"] = {"max_refinements": 2}
    sc = parse_scenario(_write(tmp_path, payload))
    assert sc.solver_steps == 500
    assert sc.fit_overrides == {"max_iterations": 50}
    assert sc.quadrature.max_refinements == 2


@pytest.mark.parametrize("section, key, value", [
    ("fit", "n_grid", 4),
    ("fit", "rng_seed", 7),
    ("fit", "n_random_starts", 24),
    ("fit", "n_polish", 12),
    ("quadrature", "rel_tol_mu", 1e-8),
    ("quadrature", "rel_tol_eta", 1e-5),
    ("quadrature", "abs_tol", 0.0),
    ("quadrature", "truncation_halfwidth", 50.0),
    ("quadrature", "include_window", False),
])
def test_fixed_run_controls_are_rejected(tmp_path, section, key, value):
    """The seed grid, the random-start seed, the start counts and the
    oracle tolerances are constants; a scenario that sets one is refused
    with the key's path."""
    payload = _base_payload()
    payload[section] = {key: value}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_write(tmp_path, payload))
    assert str(info.value) == f"{section}: unknown key(s) '{key}'"


def test_documented_example_parses(tmp_path):
    """The example in the scenario module's docstring, its ``#`` comments
    stripped, is a valid scenario file."""
    from ramangn import scenario

    block = scenario.__doc__.split("Top-level structure::\n", 1)[1]
    lines = []
    for line in block.splitlines()[1:]:
        if line and not line.startswith("    "):
            break
        lines.append(line.split("#", 1)[0])
    path = tmp_path / "example.json"
    path.write_text("\n".join(lines))
    sc = parse_scenario(str(path))
    assert sc.link.grid.n_channels == 40
    assert sc.solver_steps == 1000
    assert sc.fit_overrides == {"max_iterations": 200}
    assert sc.quadrature.max_refinements == 3


@pytest.mark.parametrize("section, key, value, message", [
    ("fit", "max_iterations", 0,
     "fit.max_iterations: expected an integer >= 1, got 0"),
    ("quadrature", "max_refinements", 11,
     "quadrature: max_refinements must lie in [1, 5]"),
    ("quadrature", "max_refinements", 6,
     "quadrature: max_refinements must lie in [1, 5]"),
    ("solver", "steps", 50,
     "solver.steps: expected an integer >= 100, got 50"),
    ("solver", "steps", 4001,
     "solver.steps: 4001 steps, more than the 4000 allowed"),
], ids=["fit.max_iterations=0", "quadrature.max_refinements=11",
        "quadrature.max_refinements=6", "solver.steps=50",
        "solver.steps=4001"])
def test_run_control_out_of_range_rejected(tmp_path, section, key, value,
                                           message):
    """Refused as a scenario error (exit 2), not a validation error."""
    payload = _base_payload()
    payload[section] = {key: value}
    with pytest.raises(ScenarioError) as info:
        parse_scenario(_write(tmp_path, payload))
    assert str(info.value) == message


def _dense_grid(count):
    """``count`` channels 10 GHz apart, 5 GHz wide, in the uniform form."""
    return {"count": count, "first_center": {"value": 193.0, "unit": "THz"},
            "spacing": {"value": 0.01, "unit": "THz"},
            "bandwidth": {"value": 0.005, "unit": "THz"},
            "launch_power": {"value": 0.0, "unit": "dBm"}}


def _dense_channels(count):
    """The channels of ``_dense_grid(count)``, listed one by one."""
    return {"channels": [
        {"center": {"value": 193.0 + 0.01 * j, "unit": "THz"},
         "bandwidth": {"value": 0.005, "unit": "THz"},
         "launch_power": {"value": 0.0, "unit": "dBm"}}
        for j in range(count)]}


@pytest.mark.parametrize("key, bound, noun, section", [
    ("span_count", 1000, "spans", lambda n: {"span_count": n}),
    ("grid.count", 2000, "channels", lambda n: {"grid": _dense_grid(n)}),
    ("grid.channels", 2000, "channels",
     lambda n: {"grid": _dense_channels(n)}),
], ids=["span_count", "grid.count", "grid.channels"])
def test_count_above_its_bound_exits_2_before_any_channel(
        tmp_path, capsys, monkeypatch, key, bound, noun, section):
    """The span and channel counts parse up to their bound.  One more is
    refused at parse time, naming the key and the count, before any
    launch-power tuple or ``Channel`` is built."""
    from ramangn import cli, scenario

    payload = _base_payload()
    payload.update(section(bound))
    parse_scenario(_write(tmp_path, payload))
    monkeypatch.setattr(scenario, "Channel",
                        lambda *a, **kw: pytest.fail("a channel was built"))
    payload.update(section(bound + 1))
    path = _write(tmp_path, payload)
    message = f"{key}: {bound + 1} {noun}, more than the {bound} allowed"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(path)
    assert cli.main(["solve", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


def _pumps(count):
    """``count`` backward pumps 50 GHz apart above the signal band."""
    return [{"frequency": {"value": 200.0 + 0.05 * j, "unit": "THz"},
             "power_w": 0.01, "direction": "backward",
             "attenuation": {"value": 0.25, "unit": "dB/km"}}
            for j in range(count)]


@pytest.mark.parametrize("key, bound, noun, section", [
    ("pumps", 100, "pumps", lambda n: {"pumps": _pumps(n)}),
    ("fit.max_iterations", 1000, "iterations",
     lambda n: {"fit": {"max_iterations": n}}),
], ids=["pumps", "fit.max_iterations"])
def test_count_above_its_bound_exits_2_before_the_solve(
        tmp_path, capsys, monkeypatch, key, bound, noun, section):
    """The pump list and the polish's evaluation cap parse up to their
    bound.  One more is refused at parse time, naming the key and the
    count, and ``nli`` exits 2 before the link is solved."""
    from ramangn import cli

    payload = _base_payload()
    payload.update(section(bound))
    parse_scenario(_write(tmp_path, payload))
    monkeypatch.setattr(cli, "solve_power_evolution",
                        lambda *a, **kw: pytest.fail("the link was solved"))
    payload.update(section(bound + 1))
    path = _write(tmp_path, payload)
    message = f"{key}: {bound + 1} {noun}, more than the {bound} allowed"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(path)
    assert cli.main(["nli", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"


def test_unknown_fit_key_rejected(tmp_path):
    payload = _base_payload()
    payload["fit"] = {"optimizer": "lm"}
    with pytest.raises(ScenarioError, match="fit"):
        parse_scenario(_write(tmp_path, payload))


def test_validation_failure_surfaces(tmp_path):
    payload = _base_payload()
    payload["pumps"] = [{
        "frequency": {"value": 193.05, "unit": "THz"},  # inside the band
        "power_w": 0.5,
        "direction": "backward",
        "attenuation": {"value": 0.2, "unit": "dB/km"},
    }]
    with pytest.raises(ValidationError):
        parse_scenario(_write(tmp_path, payload))


def test_non_mapping_root_rejected(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ScenarioError):
        parse_scenario(str(path))


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf,
    pytest.param(10 ** 400, id="400-digit-integer")])
@pytest.mark.parametrize("keys, path", [
    (("span", "gamma", "value"), "span.gamma.value"),
    (("span", "length_km"), "span.length_km"),
    (("pumps", 0, "power_w"), "pumps[0].power_w"),
    (("coherence_epsilon",), "coherence_epsilon"),
    (("budget", "snr_ase_db", 1), "budget.snr_ase_db[1]"),
])
def test_non_finite_number_rejected(tmp_path, keys, path, value):
    """json reads the literals NaN, Infinity and -Infinity, and integers
    too large for a float; each is refused with its key path instead of
    reaching the link."""
    payload = _base_payload()
    payload["pumps"] = [{
        "frequency": {"value": 206.6, "unit": "THz"},
        "power_w": 0.6,
        "direction": "backward",
        "attenuation": {"value": 0.2, "unit": "dB/km"},
    }]
    payload["coherence_epsilon"] = 0.0
    payload["budget"] = {"snr_ase_db": [20.0, 23.0]}
    parse_scenario(_write(tmp_path, payload))
    node = payload
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    with pytest.raises(ScenarioError,
                       match=f"^{re.escape(path)}: expected a finite "):
        parse_scenario(_write(tmp_path, payload))


def _pump(**kwargs):
    pump = {"frequency": {"value": 206.6, "unit": "THz"}, "power_w": 0.6,
            "direction": "backward",
            "attenuation": {"value": 0.2, "unit": "dB/km"}}
    pump.update(kwargs)
    return pump


@pytest.mark.parametrize("keys, value, message", [
    (("span", "length_km"), "80",
     "span.length_km: expected a number, got '80'"),
    (("span", "attenuation", "unit"), 0.2,
     "span.attenuation.unit: expected a unit tag string"),
    (("pumps",), _pump(), "pumps: expected a list of pump objects"),
    (("pumps",), [_pump(direction="sideways")],
     "pumps[0].direction: expected 'forward' or 'backward', "
     "got 'sideways'"),
    (("grid",), {"channels": []}, "grid.channels: expected a non-empty list"),
    (("grid", "launch_power", "value"), 3100,
     "grid.launch_power.value: 3100.0 dB overflows a float"),
    (("budget",), {"snr_ase_db": 4000},
     "budget.snr_ase_db: 4000.0 dB overflows a float"),
    (("budget",), {"snr_trx_db": [20, 4000]},
     "budget.snr_trx_db[1]: 4000.0 dB overflows a float"),
], ids=["string-number", "number-unit", "pumps-object", "sideways",
        "no-channels", "dbm-overflow", "db-overflow", "db-list-overflow"])
def test_malformed_value_exits_2_naming_its_key(tmp_path, capsys, keys,
                                                 value, message):
    from ramangn import cli

    payload = _base_payload()
    node = payload
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = _write(tmp_path, payload)
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(path)
    assert cli.main(["solve", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"scenario error: {message}\n"
    assert not (tmp_path / "out").exists()
