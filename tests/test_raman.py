"""Power-evolution ODE solver: exactness, conservation, convergence, I/O."""

import io
import math
import os

import numpy as np
import pytest

from ramangn import (
    Channel,
    Direction,
    FiberSpan,
    LinkConfig,
    Pump,
    WdmGrid,
    evolution_to_csv,
    normalized_profile,
    parse_scenario,
    solve_power_evolution,
)
from ramangn import raman
from ramangn.errors import DivergenceError, ValidationError

from conftest import ALPHA_02_DB_KM


def _link(n=3, raman_slope=0.0, pumps=(), power=1e-3, spacing=100e9,
          alpha=ALPHA_02_DB_KM, length=80e3):
    span = FiberSpan(length=length, beta2=-21.7e-27, beta3=0.0, gamma=1.2e-3,
                     attenuation=alpha, raman_slope=raman_slope)
    grid = WdmGrid(tuple(
        Channel(193.0e12 + i * spacing, 100e9, (power,)) for i in range(n)
    ))
    return LinkConfig(span=span, span_count=1, grid=grid, pumps=pumps)


def test_passive_link_matches_analytic_decay():
    cfg = _link(n=2, raman_slope=0.0)
    evo = solve_power_evolution(cfg, steps=1000)
    expected = 1e-3 * np.exp(-ALPHA_02_DB_KM * evo.z_grid)
    assert np.allclose(evo.powers[:2], expected[None, :], rtol=1e-9)


def test_normalized_profile_starts_at_one():
    cfg = _link(n=3, raman_slope=2.8e-17)
    evo = solve_power_evolution(cfg, steps=200)
    for i in range(3):
        rho = normalized_profile(evo, i)
        assert rho[0] == 1.0
        assert np.all(rho > 0)
    with pytest.raises(IndexError):
        normalized_profile(evo, evo.n_lines)


def test_pairwise_conservation_without_photon_factors():
    """With the photon-energy factors disabled, the Raman exchange is
    exactly power-conserving: the total behaves as pure fibre loss."""
    cfg = _link(n=4, raman_slope=2.8e-15, spacing=1e12, power=50e-3)
    evo = solve_power_evolution(cfg, steps=800, photon_factors=False)
    total = evo.powers[:4].sum(axis=0)
    compensated = total * np.exp(ALPHA_02_DB_KM * evo.z_grid)
    assert np.allclose(compensated, compensated[0], rtol=1e-9)


def test_photon_factors_break_exact_conservation():
    """With the photon-energy factors on, the pairwise exchange is no
    longer exactly power-conserving (the factors scale the loss side)."""
    cfg = _link(n=4, raman_slope=2.8e-15, spacing=1e12, power=50e-3)
    evo = solve_power_evolution(cfg, steps=800, photon_factors=True)
    compensated = (evo.powers[:4].sum(axis=0)
                   * np.exp(ALPHA_02_DB_KM * evo.z_grid))
    assert abs(compensated[-1] / compensated[0] - 1.0) > 1e-4


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the higher-frequency line loses f_j/f_i times what the "
    "lower one gains, not f_i/f_j, so the exchange conserves sum f_i P_i "
    "and the photon number rises 1.6 % on this link"))
def test_raman_exchange_conserves_photon_number():
    """Each photon a higher-frequency line gives up becomes one photon of
    the lower-frequency line: the loss-compensated photon number
    sum_i P_i / f_i stays constant."""
    cfg = _link(n=4, raman_slope=2.8e-15, spacing=1e12, power=50e-3)
    evo = solve_power_evolution(cfg, steps=800)
    photons = (evo.powers[:4] / evo.frequencies[:4, None]).sum(axis=0)
    compensated = photons * np.exp(ALPHA_02_DB_KM * evo.z_grid)
    np.testing.assert_allclose(compensated, compensated[0], rtol=1e-9)


def test_backward_pump_row_is_analytic_profile():
    pump = Pump(206.6e12, 0.6, Direction.BACKWARD, ALPHA_02_DB_KM)
    cfg = _link(n=2, raman_slope=2.8e-17, pumps=(pump,))
    evo = solve_power_evolution(cfg, steps=200)
    expected = 0.6 * np.exp(-ALPHA_02_DB_KM * (80e3 - evo.z_grid))
    assert np.allclose(evo.powers[-1], expected, rtol=1e-12)


def test_backward_pump_amplifies_channels():
    pump = Pump(206.6e12, 0.6, Direction.BACKWARD, ALPHA_02_DB_KM)
    pumped = solve_power_evolution(
        _link(n=2, raman_slope=2.8e-17, pumps=(pump,)), steps=400)
    passive = solve_power_evolution(
        _link(n=2, raman_slope=2.8e-17), steps=400)
    assert pumped.powers[0, -1] > passive.powers[0, -1]


def _per_call_channel_powers(cfg, steps):
    """The RK4 march of the channel and forward-pump rows, with the
    backward-pump powers evaluated inside every right-hand-side call."""
    span, length = cfg.span, cfg.span.length
    fw = cfg.pumps_by_direction(Direction.FORWARD)
    bw = cfg.pumps_by_direction(Direction.BACKWARD)
    ch_freqs = cfg.grid.frequencies
    freqs = np.concatenate([ch_freqs, [p.frequency for p in fw]])
    p = np.concatenate([cfg.grid.launch_powers(0),
                        [q.input_power for q in fw]])
    alpha = np.concatenate([[span.attenuation] * len(ch_freqs),
                            [q.attenuation for q in fw]])
    coupling = raman._coupling_matrix(span, freqs, freqs, True)
    bw_freqs = np.array([q.frequency for q in bw])
    bw_gain = span.gain_at(bw_freqs[None, :] - freqs[:, None])
    bw_gain = np.where(bw_freqs[None, :] < freqs[:, None],
                       bw_freqs[None, :] / freqs[:, None], 1.0) * bw_gain
    bw_p_end = np.array([q.input_power for q in bw])
    bw_alpha = np.array([q.attenuation for q in bw])

    def rhs(z, p):
        bw_power = bw_p_end * np.exp(-bw_alpha * (length - z))
        return p * (-alpha + coupling @ p + bw_gain @ bw_power)

    z_grid = np.linspace(0.0, length, steps + 1)
    h = length / steps
    sol = [p]
    for n in range(steps):
        z = z_grid[n]
        k1 = rhs(z, p)
        k2 = rhs(z + 0.5 * h, p + 0.5 * h * k1)
        k3 = rhs(z + 0.5 * h, p + 0.5 * h * k2)
        k4 = rhs(z + h, p + h * k3)
        p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sol.append(p)
    return np.array(sol).T


@pytest.mark.parametrize("name", ["reference_pumped.json",
                                  "stress_strong_pump.json"])
def test_stage_point_pump_powers_match_a_per_call_evaluation(data_dir, name):
    """The solver takes the backward-pump powers at all stage points of a
    step at once; the evolution equals evaluating them in every call."""
    scenario = parse_scenario(os.path.join(data_dir, name))
    cfg, steps = scenario.link, scenario.solver_steps
    evo = solve_power_evolution(cfg, steps=steps)
    expected = _per_call_channel_powers(cfg, steps)
    np.testing.assert_array_equal(evo.powers[:len(expected)], expected)


def test_step_halving_self_consistency():
    cfg = _link(n=3, raman_slope=2.8e-16, spacing=1e12, power=20e-3)
    p_800 = solve_power_evolution(cfg, steps=800).powers[:3, -1]
    p_1600 = solve_power_evolution(cfg, steps=1600).powers[:3, -1]
    assert np.allclose(p_800, p_1600, rtol=1e-8)


def test_convergence_order_is_four():
    cfg = _link(n=3, raman_slope=2.8e-16, spacing=2e12, power=100e-3)
    ref = solve_power_evolution(cfg, steps=6400).powers[:3, -1]
    errors = []
    for steps in (100, 200, 400):
        p = solve_power_evolution(cfg, steps=steps).powers[:3, -1]
        errors.append(np.max(np.abs(p - ref) / ref))
    orders = [math.log2(errors[j] / errors[j + 1]) for j in range(2)]
    for order in orders:
        assert 3.7 <= order <= 4.3


def test_step_halving_retry_returns_the_finer_solve():
    """100 steps turn a line non-positive on this strongly coupled link;
    the retry at 200 steps succeeds and is exactly the direct 200-step
    solve."""
    cfg = _link(n=2, raman_slope=2.8e-15, spacing=2e12, power=0.7)
    evo = solve_power_evolution(cfg, steps=100)
    assert evo.z_grid.size == 201
    direct = solve_power_evolution(cfg, steps=200)
    np.testing.assert_array_equal(evo.z_grid, direct.z_grid)
    np.testing.assert_array_equal(evo.powers, direct.powers)


def test_divergence_after_every_retry_raises():
    cfg = _link(n=2, raman_slope=3e-14, spacing=2e12, power=1.0)
    with pytest.raises(DivergenceError) as info:
        solve_power_evolution(cfg, steps=100)
    assert 0.0 < info.value.z_position <= cfg.span.length


def test_too_few_steps_rejected():
    with pytest.raises(ValidationError):
        solve_power_evolution(_link(), steps=50)


def test_bad_span_index_rejected():
    with pytest.raises(ValidationError):
        solve_power_evolution(_link(), span_index=1)


def test_csv_output_is_deterministic():
    cfg = _link(n=2, raman_slope=2.8e-17)
    evo = solve_power_evolution(cfg, steps=150)
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        evolution_to_csv(evo, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    header = bufs[0].splitlines()[0]
    assert header.startswith("z_m,P_")
    assert len(bufs[0].splitlines()) == 1 + 151
