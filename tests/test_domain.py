"""Link-description invariants, diagnostics, and small helpers."""

import math

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
    link_diagnostics,
    validate_link,
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


def test_valid_link_has_no_diagnostics(lumped_scenario):
    assert link_diagnostics(lumped_scenario.link) == []
    assert validate_link(lumped_scenario.link) is lumped_scenario.link


def test_grid_properties():
    grid = _grid(5)
    assert grid.n_channels == 5
    assert grid.band_center == pytest.approx(193.2e12)
    assert np.allclose(grid.launch_powers(0), 1e-3)
    assert grid.total_launch_power(0) == pytest.approx(5e-3)
    assert np.allclose(grid.bandwidths, 100e9)


def test_non_positive_launch_power_diagnosed():
    grid = WdmGrid((Channel(193.0e12, 100e9, (0.0,)),))
    cfg = LinkConfig(span=_span(), span_count=1, grid=grid)
    diags = link_diagnostics(cfg)
    assert any("non-positive launch power" in d for d in diags)
    with pytest.raises(ValidationError) as exc_info:
        validate_link(cfg)
    assert exc_info.value.diagnostics


def test_overlapping_channels_diagnosed():
    channels = (Channel(193.0e12, 100e9, (1e-3,)),
                Channel(193.05e12, 100e9, (1e-3,)))
    cfg = LinkConfig(span=_span(), span_count=1, grid=WdmGrid(channels))
    assert any("overlap" in d for d in link_diagnostics(cfg))


def test_unordered_channels_diagnosed():
    channels = (Channel(193.2e12, 100e9, (1e-3,)),
                Channel(193.0e12, 100e9, (1e-3,)))
    cfg = LinkConfig(span=_span(), span_count=1, grid=WdmGrid(channels))
    assert any("not strictly increasing" in d for d in link_diagnostics(cfg))


def test_span_count_power_mismatch_diagnosed():
    cfg = LinkConfig(span=_span(), span_count=2, grid=_grid(spans=1))
    assert any("launch powers" in d for d in link_diagnostics(cfg))


def test_pump_inside_band_diagnosed():
    pump = Pump(193.1e12, 0.5, Direction.BACKWARD, ALPHA_02_DB_KM)
    cfg = LinkConfig(span=_span(), span_count=1, grid=_grid(), pumps=(pump,))
    assert any("inside or below the signal band" in d
               for d in link_diagnostics(cfg))


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
    cfg = LinkConfig(span=_span(attenuation=0.0), span_count=1,
                     grid=_grid(n=5))
    diags = link_diagnostics(cfg)
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
    cfg = LinkConfig(span=_span(), span_count=1, grid=_grid(),
                     coherence_epsilon=1.5)
    assert any("coherence epsilon" in d for d in link_diagnostics(cfg))
