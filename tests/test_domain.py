"""Link-description invariants, checked when a link is built, and small
helpers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ramangn import (
    Channel,
    Direction,
    FiberSpan,
    LinkConfig,
    Pump,
    SnrBudget,
    WdmGrid,
)
from ramangn.errors import ValidationError

from conftest import ALPHA_02_DB_KM


def _span(**kwargs):
    base = dict(length=80e3, beta2=-21.7e-27, beta3=0.0, gamma=1.2e-3,
                attenuation=ALPHA_02_DB_KM, raman_slope=0.0)
    base.update(kwargs)
    return FiberSpan(**base)


def _grid(n=3, first=193.0e12, spacing=100e9, bw=100e9, power=1e-3, spans=1):
    channels = tuple(
        Channel(first + i * spacing, bw, (power,) * spans) for i in range(n)
    )
    return WdmGrid(channels)


def _diagnostics(**link):
    """The diagnostics a ``LinkConfig`` built from ``link`` is refused with."""
    with pytest.raises(ValidationError) as info:
        LinkConfig(**link)
    assert str(info.value) == "; ".join(info.value.diagnostics)
    return info.value.diagnostics


def test_valid_link_has_no_diagnostics(lumped_scenario):
    link = lumped_scenario.link
    assert replace(link) == link


def test_grid_properties():
    grid = _grid(5)
    assert grid.n_channels == 5
    assert grid.band_center == pytest.approx(193.2e12)
    assert np.allclose(grid.launch_powers(0), 1e-3)
    assert grid.total_launch_power(0) == pytest.approx(5e-3)
    assert np.allclose(grid.bandwidths, 100e9)


def test_grid_arrays_are_read_only_and_built_once():
    grid = _grid(4, spans=3)
    arrays = (grid.frequencies, grid.bandwidths, grid.launch_powers(1))
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert grid.frequencies is arrays[0]
    assert grid.bandwidths is arrays[1]
    assert np.shares_memory(grid.launch_powers(1), arrays[2])
    assert np.array_equal(arrays[2], [1e-3] * 4)


def test_ragged_launch_powers_get_the_link_diagnostic():
    """The power matrix is built on first use, so the link's own check, not
    numpy, reports a channel with the wrong number of spans."""
    grid = WdmGrid((Channel(193.0e12, 100e9, (1e-3, 1e-3)),
                    Channel(193.1e12, 100e9, (1e-3,))))
    diags = _diagnostics(span=_span(), span_count=2, grid=grid)
    assert diags == ["channel 1: 1 launch powers for 2 spans"]


def test_non_positive_launch_power_diagnosed():
    grid = WdmGrid((Channel(193.0e12, 100e9, (0.0,)),))
    diags = _diagnostics(span=_span(), span_count=1, grid=grid)
    assert diags == ["channel 0: non-positive launch power"]


def test_overlapping_channels_diagnosed():
    channels = (Channel(193.0e12, 100e9, (1e-3,)),
                Channel(193.05e12, 100e9, (1e-3,)))
    diags = _diagnostics(span=_span(), span_count=1, grid=WdmGrid(channels))
    assert any("overlap" in d for d in diags)


def test_unordered_channels_diagnosed():
    channels = (Channel(193.2e12, 100e9, (1e-3,)),
                Channel(193.0e12, 100e9, (1e-3,)))
    diags = _diagnostics(span=_span(), span_count=1, grid=WdmGrid(channels))
    assert any("not strictly increasing" in d for d in diags)


def test_span_count_power_mismatch_diagnosed():
    diags = _diagnostics(span=_span(), span_count=2, grid=_grid(spans=1))
    assert any("launch powers" in d for d in diags)


def test_pump_inside_band_diagnosed():
    pump = Pump(193.1e12, 0.5, Direction.BACKWARD, ALPHA_02_DB_KM)
    diags = _diagnostics(span=_span(), span_count=1, grid=_grid(),
                         pumps=(pump,))
    assert any("inside or below the signal band" in d for d in diags)


def test_pumps_by_direction():
    pumps = (Pump(206.0e12, 0.5, Direction.BACKWARD, ALPHA_02_DB_KM),
             Pump(207.0e12, 0.2, Direction.FORWARD, ALPHA_02_DB_KM))
    cfg = LinkConfig(span=_span(), span_count=1, grid=_grid(), pumps=pumps)
    assert cfg.pumps_by_direction(Direction.BACKWARD) == (pumps[0],)
    assert cfg.pumps_by_direction(Direction.FORWARD) == (pumps[1],)


def test_gain_at_triangular_sign():
    span = _span(raman_slope=2.8e-17)
    assert span.gain_at(1e12) == pytest.approx(2.8e-5, rel=1e-15)
    assert span.gain_at(-1e12) == pytest.approx(-2.8e-5, rel=1e-15)
    assert span.gain_at(0.0) == 0.0


def test_attenuation_is_one_span_number():
    """The span's loss is one number for every channel, so a non-positive
    value is one span diagnostic, whatever the channel count."""
    assert _span().attenuation == ALPHA_02_DB_KM
    diags = _diagnostics(span=_span(attenuation=0.0), span_count=1,
                         grid=_grid(n=5))
    assert [d for d in diags if "attenuation" in d] == [
        "span attenuation must be positive, got 0.0"]


def test_snr_budget_broadcast_and_sequence():
    ase, trx = SnrBudget().as_arrays(4)
    assert np.all(np.isinf(ase)) and np.all(np.isinf(trx))
    budget = SnrBudget(snr_ase=100.0, snr_trx=(1.0, 2.0, 3.0))
    ase, trx = budget.as_arrays(3)
    assert np.allclose(ase, 100.0)
    assert np.allclose(trx, [1.0, 2.0, 3.0])


def test_coherence_epsilon_bounds_diagnosed():
    diags = _diagnostics(span=_span(), span_count=1, grid=_grid(),
                         coherence_epsilon=1.5)
    assert diags == ["coherence epsilon must lie in [0, 1], got 1.5"]


def _link_with(record, name, value):
    """A valid three-channel, one-pump link with ``name`` of ``record``
    (the span, channel 1, the pump or the link itself) set to ``value``."""
    link = dict(span=_span(raman_slope=2.8e-17), span_count=1, grid=_grid(),
                pumps=(Pump(206.6e12, 0.5, Direction.BACKWARD,
                            ALPHA_02_DB_KM),))
    if record == "span":
        link["span"] = replace(link["span"], **{name: value})
    elif record == "channel":
        channels = list(link["grid"].channels)
        if name == "launch_power_per_span":
            value = (value,)
        channels[1] = replace(channels[1], **{name: value})
        link["grid"] = WdmGrid(channels)
    elif record == "pump":
        link["pumps"] = (replace(link["pumps"][0], **{name: value}),)
    else:
        link[name] = value
    return link


def test_hand_built_link_is_valid():
    assert LinkConfig(**_link_with("link", "coherence_epsilon", 1.0))


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("record, name, named", [
    ("span", "length", "span length"),
    ("span", "beta2", "span beta2"),
    ("span", "beta3", "span beta3"),
    ("span", "gamma", "span gamma"),
    ("span", "attenuation", "span attenuation"),
    ("span", "raman_slope", "span raman_slope"),
    ("channel", "center_frequency", "channel 1: center_frequency"),
    ("channel", "bandwidth", "channel 1: bandwidth"),
    ("channel", "launch_power_per_span", "channel 1: non-finite launch power"),
    ("pump", "frequency", "pump 0: frequency"),
    ("pump", "input_power", "pump 0: input_power"),
    ("pump", "attenuation", "pump 0: attenuation"),
    ("link", "coherence_epsilon", "coherence epsilon"),
])
def test_non_finite_field_refused_when_built(record, name, named, value):
    """A NaN (or infinite) number in a hand-built link used to reach the
    closed form and give NaN SNRs; the link refuses it when built, naming
    the field."""
    diags = _diagnostics(**_link_with(record, name, value))
    assert any(named in d for d in diags), diags


@pytest.mark.parametrize("name, value, expected", [
    ("center_frequency", math.nan,
     ["channel 1: center_frequency must be finite, got nan"]),
    ("center_frequency", math.inf,
     ["channel 1: center_frequency must be finite, got inf"]),
    ("center_frequency", -math.inf,
     ["channel 1: center_frequency must be finite, got -inf"]),
    ("launch_power_per_span", math.nan,
     ["channel 1: non-finite launch power"]),
    ("launch_power_per_span", -math.inf,
     ["channel 1: non-positive launch power",
      "channel 1: non-finite launch power"]),
    ("bandwidth", math.nan, ["channel 1: bandwidth must be finite, got nan"]),
    ("span.length", math.nan, ["span length must be finite, got nan"]),
    ("span.length", -math.inf,
     ["span length must be finite, got -inf",
      "span length must be positive, got -inf"]),
    ("span.gamma", math.nan, ["span gamma must be finite, got nan"]),
    ("span.attenuation", math.nan,
     ["span attenuation must be finite, got nan"]),
    ("pump.frequency", math.nan, ["pump 0: frequency must be finite, got nan"]),
    ("pump.input_power", math.nan,
     ["pump 0: input_power must be finite, got nan"]),
    ("pump.attenuation", math.nan,
     ["pump 0: attenuation must be finite, got nan"]),
])
def test_non_finite_channel_value_gets_only_its_own_diagnostics(
        name, value, expected):
    """A non-finite frequency used to add "overlapping channels" for both
    of its pairs and "pump 0: frequency inside or below the signal band",
    and a NaN launch power "non-positive launch power".  The span and pump
    fields (``record.name``) likewise: a NaN span length used to add "must
    be positive" too."""
    record, _, name = name.rpartition(".")
    assert _diagnostics(**_link_with(record or "channel", name,
                                     value)) == expected


@pytest.mark.parametrize("record, name, value, expected", [
    ("span", "length", 0.0, "span length must be positive, got 0.0"),
    ("span", "gamma", -1e-3,
     "nonlinear coefficient must be >= 0, got -0.001"),
    ("span", "attenuation", 0.0,
     "span attenuation must be positive, got 0.0"),
    ("channel", "bandwidth", -50e9, "channel 1: bandwidth must be positive"),
    ("pump", "input_power", -0.1, "pump 0: negative pump power"),
    ("pump", "attenuation", 0.0, "pump 0: attenuation must be positive"),
])
def test_wrong_sign_diagnosed(record, name, value, expected):
    assert _diagnostics(**_link_with(record, name, value)) == [expected]


def test_link_without_spans_or_channels_diagnosed():
    """The scenario parser refuses both first; a hand-built link reaches
    the domain's own diagnostics."""
    assert "span count must be >= 1, got 0" in _diagnostics(
        span=_span(), span_count=0, grid=_grid())
    assert _diagnostics(span=_span(), span_count=1,
                        grid=WdmGrid(())) == ["grid has no channels"]


@pytest.mark.parametrize("entry", [0.0, -1.0, -math.inf, math.nan,
                                   (1.0, math.nan)])
@pytest.mark.parametrize("name", ["snr_ase", "snr_trx"])
def test_snr_budget_refuses_non_positive_entries(name, entry):
    with pytest.raises(ValidationError) as info:
        SnrBudget(**{name: entry})
    assert info.value.diagnostics == [f"{name} entries must be positive"]


def test_snr_budget_of_wrong_length_named():
    """A per-channel entry of the wrong length used to raise numpy's
    broadcast error."""
    with pytest.raises(ValidationError,
                       match=r"^snr_ase: 3 entries for 9 channel\(s\)$"):
        SnrBudget(snr_ase=(10.0, 20.0, 30.0)).as_arrays(9)
