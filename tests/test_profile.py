"""Semi-analytical profile model and the nonlinear least-squares fit."""

import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramangn import (
    Channel,
    Direction,
    FiberSpan,
    LinkConfig,
    Pump,
    WdmGrid,
    backward_effective_length,
    effective_length,
    eval_profile_taylor,
    fit_profile,
    parse_scenario,
    tilt_derivative,
    tilt_integral,
)
from ramangn import profile
from ramangn.profile import (ChannelFit, ProfileParams, _best_seeds,
                             _parameter_space, _polish, _residual_and_jac,
                             _seed_grid, _seed_levels, _seed_scores,
                             _varpro_seeds, shared_fit_context)
from ramangn.raman import PowerEvolution, normalized_profile, solve_power_evolution
from ramangn.errors import NumericalError, ValidationError

from conftest import ALPHA_02_DB_KM

_L = 80e3


def _params(**kwargs):
    base = dict(alpha=ALPHA_02_DB_KM, c_f=2.0e-18, c_b=1.2e-18,
                alpha_f=1.1 * ALPHA_02_DB_KM, alpha_b=0.9 * ALPHA_02_DB_KM,
                p_f=0.04, p_b=0.6, f_hat=206.6e12)
    base.update(kwargs)
    return ProfileParams(**base)


def test_effective_length_value_and_limit():
    a = ALPHA_02_DB_KM
    assert effective_length(_L, a) == pytest.approx(-np.expm1(-a * _L) / a)
    assert effective_length(1e3, 1e-12) == pytest.approx(1e3, rel=1e-6)
    assert effective_length(0.0, a) == 0.0


def test_backward_effective_length_endpoints():
    a = ALPHA_02_DB_KM
    assert backward_effective_length(0.0, _L, a) == 0.0
    expected = (1.0 - math.exp(-a * _L)) / a
    assert backward_effective_length(_L, _L, a) == pytest.approx(expected)


def test_tilt_integral_matches_numeric_quadrature():
    p = _params()
    z_grid = np.linspace(0.0, _L, 20001)
    rate = (p.c_f * p.p_f * np.exp(-p.alpha_f * z_grid)
            + p.c_b * p.p_b * np.exp(-p.alpha_b * (_L - z_grid)))
    numeric = np.concatenate(
        [[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(z_grid))]
    )
    analytic = tilt_integral(p, z_grid, _L)
    assert np.allclose(analytic, numeric, rtol=1e-7, atol=1e-20)
    assert np.allclose(tilt_derivative(p, z_grid, _L), rate, rtol=1e-15,
                       atol=0.0)


@pytest.mark.parametrize("order", [1, 2, 3, 5])
def test_tilt_derivative_orders_match_central_differences(order):
    """x^(m) against a central difference of x^(m-1) (of x for m = 1),
    at both span ends and inside, one call for all orders."""
    p = _params()
    z = np.array([0.0, 30e3, _L])
    h = 5.0

    def lower(zz):
        if order == 1:
            return tilt_integral(p, zz, _L)
        return tilt_derivative(p, zz, _L, order - 1)

    numeric = (lower(z + h) - lower(z - h)) / (2.0 * h)
    assert np.allclose(tilt_derivative(p, z, _L, order), numeric,
                       rtol=1e-7, atol=0.0)
    stacked = tilt_derivative(p, 30e3, _L, np.arange(1, 6))
    assert stacked[order - 1] == tilt_derivative(p, 30e3, _L, order)


@given(
    c_f=st.floats(min_value=0.0, max_value=5e-18),
    c_b=st.floats(min_value=0.0, max_value=2e-18),
    d=st.floats(min_value=-14e12, max_value=-2e12),
)
@settings(max_examples=50, deadline=None)
def test_taylor_profile_is_one_at_launch(c_f, c_b, d):
    p = _params(c_f=c_f, c_b=c_b)
    assert eval_profile_taylor(p, 0.0, p.f_hat + d, _L) == 1.0


def test_taylor_is_linearization_of_exact():
    """The linearized profile against its precursor, which keeps the tilt in
    the exponent and normalizes over the bandwidth B:
    exp(-alpha z) (x B / 2) / sinh(x B / 2) exp(-x (f - f_hat))."""
    p = _params(c_f=2e-19, c_b=1.2e-19)  # small tilt
    f_i = 193.4e12
    z = np.linspace(0.0, _L, 101)
    taylor = eval_profile_taylor(p, z, f_i, _L)
    x = tilt_integral(p, z, _L)
    t = 0.5 * x * 4e12
    norm = np.ones_like(t)  # the limit 1 at x = 0 (z = 0)
    norm[t != 0.0] = t[t != 0.0] / np.sinh(t[t != 0.0])
    exact = np.exp(-p.alpha * z) * norm * np.exp(-x * (f_i - p.f_hat))
    assert np.allclose(taylor, exact, rtol=2e-3)
    assert not np.allclose(taylor, exact, rtol=1e-9)


_C_R = 2.8e-17  # Raman slope of the test links; the fitter's box is 10 C_r


def _grid_margin(params, d_lo, d_hi):
    """The least 1 - x d over a dense z grid and the offsets d_lo, d_hi."""
    x = tilt_integral(params, np.linspace(0.0, _L, 100_001), _L)
    return np.min(1.0 - np.multiply.outer(x, (d_lo, d_hi)))


@given(
    c_f=st.floats(min_value=-10.0, max_value=10.0),
    c_b=st.floats(min_value=-10.0, max_value=10.0),
    rate_f=st.floats(min_value=0.2, max_value=5.0),
    rate_b=st.floats(min_value=0.2, max_value=5.0),
    p_f=st.floats(min_value=1e-3, max_value=1.0),
    p_b=st.floats(min_value=0.0, max_value=1.0),
    d=st.lists(st.floats(min_value=-20e12, max_value=20e12), min_size=2,
               max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_profile_margin_matches_a_dense_grid(c_f, c_b, rate_f, rate_b, p_f,
                                             p_b, d):
    """The exact least value of 1 - x d is the dense grid's, from below;
    the draws cover both sign patterns of the two tilt terms, so the
    stationary point of x falls inside the span as often as not."""
    a = ALPHA_02_DB_KM
    params = _params(c_f=c_f * _C_R, c_b=c_b * _C_R, alpha_f=rate_f * a,
                     alpha_b=rate_b * a, p_f=p_f, p_b=p_b)
    d_lo, d_hi = sorted(d)
    margin, z_min = profile.profile_margin(params, _L, d_lo, d_hi)
    on_grid = _grid_margin(params, d_lo, d_hi)
    scale = 1e-9 * (1.0 + (abs(params.c_f * p_f) + abs(params.c_b * p_b))
                    * _L * max(abs(d_lo), abs(d_hi)))
    assert margin <= on_grid + scale
    assert on_grid - margin <= scale
    x_at = tilt_integral(params, z_min, _L)
    assert min(1.0 - x_at * d_lo, 1.0 - x_at * d_hi) == pytest.approx(
        margin, abs=scale)


@pytest.mark.parametrize("c_f, c_b", [(2.0, -3.0), (-2.0, 3.0)])
def test_profile_margin_finds_the_stationary_point(c_f, c_b):
    """With opposite tilt terms x turns once inside the span (a maximum
    for c_f > 0, a minimum for c_f < 0), and the margin is taken there."""
    params = _params(c_f=c_f * _C_R, c_b=c_b * _C_R, p_f=0.5, p_b=0.5)
    d = 5e12 if c_f > 0 else -5e12
    margin, z_min = profile.profile_margin(params, _L, d, d)
    assert 0.0 < z_min < _L
    assert tilt_derivative(params, z_min, _L) == pytest.approx(
        0.0, abs=1e-12 * abs(params.c_f * params.p_f))
    on_grid = _grid_margin(params, d, d)
    assert on_grid - margin < 1e-9
    assert margin < 1.0 - tilt_integral(params, _L, _L) * d


def _synthetic_setup(params_true, n_ch=3, first=193.0e12, spacing=0.5e12,
                     n_z=501):
    """A link plus a PowerEvolution of ``n_z`` samples generated exactly
    from the model."""
    span = FiberSpan(length=_L, beta2=-21.7e-27, beta3=0.0, gamma=1.2e-3,
                     attenuation=params_true.alpha, raman_slope=2.8e-17)
    p_each = params_true.p_f / n_ch
    grid = WdmGrid(tuple(
        Channel(first + i * spacing, 100e9, (p_each,)) for i in range(n_ch)
    ))
    pump = Pump(params_true.f_hat, params_true.p_b, Direction.BACKWARD,
                params_true.alpha)
    cfg = LinkConfig(span=span, span_count=1, grid=grid, pumps=(pump,))

    z = np.linspace(0.0, _L, n_z)
    rows = [
        p_each * eval_profile_taylor(params_true, z,
                                     grid.channels[i].center_frequency, _L)
        for i in range(n_ch)
    ]
    rows.append(params_true.p_b
                * np.exp(-params_true.alpha * (_L - z)))  # backward pump row
    freqs = np.concatenate([grid.frequencies, [params_true.f_hat]])
    evo = PowerEvolution(z_grid=z, powers=np.array(rows), frequencies=freqs,
                         n_channels=n_ch, span_index=0)
    return cfg, evo


def test_fit_recovers_synthetic_model_profiles():
    """Data generated exactly from the model is fitted to ~machine noise."""
    params_true = _params()
    cfg, evo = _synthetic_setup(params_true)
    report = fit_profile(evo, cfg, n_random_starts=8, n_polish=4)
    assert report.n_channels == 3
    assert max(cf.rms_db for cf in report.channel_fits) <= 1e-6
    z = np.linspace(0.0, _L, 101)
    for i, cf in enumerate(report.channel_fits):
        f_i = cfg.grid.channels[i].center_frequency
        truth = eval_profile_taylor(params_true, z, f_i, _L)
        fitted = eval_profile_taylor(cf.params, z, f_i, _L)
        err_db = 10.0 * np.log10(fitted / truth)
        assert np.max(np.abs(err_db)) <= 1e-5


def test_fit_pins_backward_coefficient_without_pump():
    params_true = _params(c_b=0.0, p_b=0.0)
    cfg, evo = _synthetic_setup(params_true)
    cfg = LinkConfig(span=cfg.span, span_count=1, grid=cfg.grid, pumps=())
    report = fit_profile(evo, cfg, n_random_starts=4, n_polish=2)
    for channel, cf in zip(cfg.grid.channels, report.channel_fits):
        alpha_phys = cfg.span.attenuation
        assert cf.params.c_b == 0.0
        assert cf.params.alpha_b == alpha_phys
        assert cf.params.p_b == 0.0


def test_fit_rejects_short_evolution():
    params_true = _params()
    cfg, evo = _synthetic_setup(params_true)
    short = PowerEvolution(z_grid=evo.z_grid[:40], powers=evo.powers[:, :40],
                           frequencies=evo.frequencies, n_channels=3,
                           span_index=0)
    with pytest.raises(ValidationError):
        fit_profile(short, cfg)


def test_sample_count_check_counts_the_solver_samples():
    """The 50-sample floor reads the evolution's own grid, not the fit's
    sub-grid."""
    params_true = _params()
    cfg, evo = _synthetic_setup(params_true, n_z=49)
    with pytest.raises(ValidationError,
                       match=r"needs >= 50 z samples, got 49$"):
        fit_profile(evo, cfg)
    cfg, evo = _synthetic_setup(params_true, n_z=50)
    assert fit_profile(evo, cfg).n_channels == 3


def test_fit_report_json_round_trip():
    import json

    params_true = _params()
    cfg, evo = _synthetic_setup(params_true)
    report = fit_profile(evo, cfg, n_random_starts=2, n_polish=1)
    payload = json.loads(report.to_json())
    assert len(payload["channels"]) == 3
    assert payload["channels"][0]["params"]["alpha"] == pytest.approx(
        report.channel_fits[0].params.alpha
    )


def test_fit_report_parameter_array_is_read_only_and_built_once(
        reference_fit):
    """One row per ``ProfileParams`` field, one column per channel, equal
    to each channel's fields bit for bit; the same read-only array on every
    access."""
    _, fit = reference_fit
    rows = fit._param_matrix
    assert fit._param_matrix is rows
    with pytest.raises(ValueError):
        rows[0, 0] = 0.0
    assert rows.shape == (8, fit.n_channels)
    for k, cf in enumerate(fit.channel_fits):
        want = np.array(dataclasses.astuple(cf.params), dtype=float)
        assert rows[:, k].tobytes() == want.tobytes()


def test_pump_free_fit_is_exact_on_exponential_data():
    alpha = 1.3 * ALPHA_02_DB_KM
    span = FiberSpan(length=_L, beta2=-21.7e-27, beta3=0.0, gamma=1.2e-3,
                     attenuation=alpha, raman_slope=0.0)
    grid = WdmGrid((Channel(193.0e12, 100e9, (1e-3,)),))
    cfg = LinkConfig(span=span, span_count=1, grid=grid, pumps=())
    z = np.linspace(0.0, _L, 501)
    evo = PowerEvolution(z_grid=z, powers=1e-3 * np.exp(-alpha * z)[None, :],
                         frequencies=grid.frequencies, n_channels=1,
                         span_index=0)
    (cf,) = fit_profile(evo, cfg).channel_fits
    assert cf.params.alpha == pytest.approx(alpha, rel=1e-12)
    assert cf.rms_db <= 1e-12


def test_non_finite_target_fails_naming_every_channel():
    cfg, evo = _synthetic_setup(_params())
    powers = evo.powers.copy()
    powers[0, 100] = np.nan
    powers[2, 200] = np.inf
    evo = PowerEvolution(z_grid=evo.z_grid, powers=powers,
                         frequencies=evo.frequencies, n_channels=3,
                         span_index=0)
    with pytest.raises(NumericalError, match=r"channel\(s\) \[0, 2\]"):
        fit_profile(evo, cfg)


def test_non_positive_sample_refused_naming_the_channel():
    """A hand-built evolution with a zero power has no dB target."""
    cfg, evo = _synthetic_setup(_params())
    powers = evo.powers.copy()
    powers[1, 100] = 0.0
    evo = PowerEvolution(z_grid=evo.z_grid, powers=powers,
                         frequencies=evo.frequencies, n_channels=3,
                         span_index=0)
    with pytest.raises(ValidationError, match=r"^channel 1: numeric profile "
                                              r"is not strictly positive$"):
        fit_profile(evo, cfg)


# Channels 0 and 39 of the reference grid: the band edges, where the tilt is
# strongest, with its 0.6 W backward pump or a 0.3 W forward pump instead.
@pytest.fixture(scope="module", params=["backward", "forward"])
def edge_pair(request, reference_scenario):
    link = reference_scenario.link
    pumps = link.pumps
    if request.param == "forward":
        pumps = tuple(Pump(p.frequency, 0.3, Direction.FORWARD, p.attenuation)
                      for p in pumps)
    grid = WdmGrid((link.grid.channels[0], link.grid.channels[39]))
    cfg = LinkConfig(span=link.span, span_count=1, grid=grid, pumps=pumps)
    return cfg, solve_power_evolution(cfg, steps=1000)


def _fit_inputs(cfg, evo, ch, with_backward=None):
    """The per-channel quantities fit_profile hands to its helpers, on the
    sub-grid it ranks and polishes on (``z``, ``target_db``) and on the
    solver's grid (``z_full``, ``target_full``).

    ``with_backward=False`` builds the forward-only problem (c_b pinned to
    zero) even when the link has a backward pump.
    """
    p_f, p_b, f_hat = shared_fit_context(evo, cfg)
    f_i = cfg.grid.channels[ch].center_frequency
    target_full = 10.0 * np.log10(normalized_profile(evo, ch))
    sub = profile._fit_samples(evo.z_grid.size - 1)
    alpha_phys = cfg.span.attenuation
    if with_backward is None:
        with_backward = p_b > 0
    free, base, lo, hi, scale = _parameter_space(
        alpha_phys, cfg.span.raman_slope, with_backward)
    return dict(length=cfg.span.length, z=evo.z_grid[sub],
                target_db=target_full[sub], z_full=evo.z_grid,
                target_full=target_full, delta=f_i - f_hat, f_hat=f_hat,
                p_f=p_f, p_b=p_b, alpha_phys=alpha_phys,
                with_backward=with_backward, free=free, base=base, lo=lo,
                hi=hi, scale=scale)


def _polish_one(inp, x0):
    """One start through the batched polish, as a batch of one:
    (x, nfev, converged, failed)."""
    def problem(rows):
        return _residual_and_jac(
            inp["length"], inp["z"], inp["target_db"][None],
            np.array([[inp["delta"]]]), inp["p_f"], inp["p_b"],
            inp["free"], inp["base"][:, None, None])

    out = _polish(problem, x0[None], inp["lo"][None], inp["hi"][None],
                  inp["scale"][None], 200)
    return tuple(v[0] for v in out)


def _grid_seeds(inp, ratios):
    grid = _seed_grid(inp["length"], inp["z"], inp["p_f"], inp["p_b"],
                      ratios, inp["alpha_phys"], inp["with_backward"])
    return _varpro_seeds(grid, inp["target_db"], inp["delta"])


def _levels(inp, seeds):
    """``_seed_levels`` of ``seeds`` (rows of the free entries), with rate
    tables keyed by those seeds' own rates, which need not be grid rates."""
    full = np.tile(inp["base"], (len(seeds), 1))
    full[:, inp["free"]] = seeds
    keys_f, row_f = np.unique(full[:, 3], return_inverse=True)
    keys_b, row_b = np.unique(full[:, 4], return_inverse=True)
    tables = (row_f, effective_length(inp["z"], keys_f[:, None]), row_b,
              None if inp["p_b"] == 0.0 else backward_effective_length(
                  inp["z"], inp["length"], keys_b[:, None]))
    return _seed_levels(inp["z"], inp["target_db"], inp["delta"], inp["p_f"],
                        inp["p_b"], full, tables)


def _penalty_seeds(cfg, inp):
    """Grid seeds of channel ``inp`` plus two that drive the linearized
    profile below the clamp, so the 1e3 penalty is part of their rows: a
    strongly negative slope on the pumped term (c_b, else c_f), once at a
    grid rate and once at a rate off the grid."""
    free = inp["free"]
    seeds = _grid_seeds(inp, np.geomspace(0.2, 5.0, 6))[:, free]
    slope = 2 if inp["p_b"] > 0 else 1
    penalty = np.vstack([seeds[0], seeds[-1]])
    penalty[:, list(free).index(slope)] = -10.0 * cfg.span.raman_slope
    penalty[1, -1] *= 0.9
    full = inp["base"].copy()
    full[free] = penalty[0]
    tilted = eval_profile_taylor(
        ProfileParams(*full, p_f=inp["p_f"], p_b=inp["p_b"],
                      f_hat=inp["f_hat"]),
        inp["z"], inp["f_hat"] + inp["delta"], inp["length"])
    assert np.min(tilted) < 0.0
    return np.vstack([seeds, penalty])


def _problem(inp):
    return _residual_and_jac(inp["length"], inp["z"], inp["target_db"],
                             inp["delta"], inp["p_f"], inp["p_b"],
                             inp["free"], inp["base"])


def test_batched_seed_scores_match_residual(edge_pair):
    """Every level of the tabulated seed residual equals
    ``_residual_and_jac``'s residual rows on its z samples, bit for bit,
    clamp-penalty rows included; batched scores equal looped ones."""
    cfg, evo = edge_pair
    inp = _fit_inputs(cfg, evo, 1)
    seeds = _penalty_seeds(cfg, inp)
    assert len(seeds) > 32  # more than one scoring block
    levels = _levels(inp, seeds)
    residual = _problem(inp)[0]
    everyone = np.arange(len(seeds))
    rows, terms = residual(seeds.T[:, :, None])
    assert np.any(terms[-1] < profile._FLOOR)
    for level, stride in zip(levels, profile._BOUND_STRIDES + (1,)):
        np.testing.assert_array_equal(level(everyone), rows[:, ::stride])
    batched = _seed_scores(levels[-1], everyone)
    looped = np.array([np.sum(residual(s)[0] ** 2) for s in seeds])
    np.testing.assert_array_equal(batched, looped)
    assert batched[-1] > 1e3 * batched[0]


def _reference_jacobian(inp, pvec):
    """d residual / d (free entries) straight from the model's formulas,
    each exponential evaluated afresh."""
    length, z, delta = inp["length"], inp["z"], inp["delta"]
    p_f, p_b = inp["p_f"], inp["p_b"]
    full = list(inp["base"])
    for j, k in enumerate(inp["free"]):
        full[k] = pvec[j]
    a, cf, cb, af, ab = full
    leff = effective_length(z, af)
    lbeff = backward_effective_length(z, length, ab)
    u = 1.0 - (cf * p_f * leff + cb * p_b * lbeff) * delta
    bad = u < 1e-12
    dr_dx = -delta * np.where(bad, -1e3, 10.0 / math.log(10.0)
                              / np.maximum(u, 1e-12))
    dlb = (-(length - z) * np.exp(-ab * (length - z))
           + length * np.exp(-ab * length) - lbeff) / ab
    dx = (p_f * leff, p_b * lbeff,
          cf * p_f * (z * np.exp(-af * z) - leff) / af, cb * p_b * dlb)
    d_r = [np.broadcast_to(-10.0 / math.log(10.0) * z, u.shape)]
    d_r += [dr_dx * d for d in dx]
    return np.stack([d_r[k] for k in inp["free"]], axis=-2)


def test_jacobian_from_saved_terms_matches_a_fresh_one(edge_pair):
    """The Jacobian built from a batch residual's terms, kept for a subset
    of its rows as ``_polish`` keeps them, equals the Jacobian of those
    rows evaluated afresh, bit for bit, clamp-penalty rows included."""
    cfg, evo = edge_pair
    inp = _fit_inputs(cfg, evo, 1)
    seeds = _penalty_seeds(cfg, inp)
    residual, jacobian = _problem(inp)
    _, terms = residual(seeds.T[:, :, None])
    rows = np.arange(len(seeds)) % 3 != 1
    rows[-2:] = True  # the penalty seeds
    kept = [None if t is None else t[rows] for t in terms]
    assert (kept[1] is None) == (inp["p_b"] == 0)
    assert np.any(kept[-1][-2:] < profile._FLOOR)
    x = seeds[rows].T[:, :, None]
    np.testing.assert_array_equal(jacobian(x, kept),
                                  _reference_jacobian(inp, x))


def test_seed_grid_solves_the_linear_slopes(edge_pair):
    cfg, evo = edge_pair
    inp = _fit_inputs(cfg, evo, 0)
    ratios = np.geomspace(0.2, 5.0, 5)
    seeds = _grid_seeds(inp, ratios)
    z, n = inp["z"], ratios.size
    with_backward = inp["p_b"] > 0
    assert seeds.shape == ((n ** 3 if with_backward else n ** 2), 5)
    rates = ratios * inp["alpha_phys"]
    for i_a, i_f, i_b in [(0, 0, 0), (1, 4, 2), (2, 2, 2), (4, 1, 3),
                          (3, 0, 4)]:
        if not with_backward:
            i_b = 0
        row = seeds[(i_a * n + i_f) * n + i_b if with_backward
                    else i_a * n + i_f]
        a, a_f = rates[i_a], rates[i_f]
        a_b = rates[i_b] if with_backward else inp["alpha_phys"]
        assert row[[0, 3, 4]] == pytest.approx([a, a_f, a_b], rel=1e-15)
        u_target = 10.0 ** ((inp["target_db"] + 10.0 / math.log(10.0)
                             * a * z) / 10.0)
        y = (1.0 - u_target) / inp["delta"]
        cols = [inp["p_f"] * effective_length(z, a_f)]
        if with_backward:
            cols.append(inp["p_b"]
                        * backward_effective_length(z, inp["length"], a_b))
        coef = np.linalg.lstsq(np.column_stack(cols), y, rcond=None)[0]
        expected = [coef[0], coef[1] if with_backward else 0.0]
        assert row[1:3] == pytest.approx(expected, rel=1e-9)


@given(alpha_phys=st.floats(min_value=1e-30, max_value=1e30))
@settings(max_examples=200, deadline=None)
def test_box_leaves_every_grid_rate_unchanged(alpha_phys):
    """Clipping onto the rate box [alpha_phys / 5, 5 alpha_phys] leaves
    every seed-grid rate bit for bit, so a seed's rate is a row of
    ``_seed_grid``'s rate table: ``np.geomspace`` returns 0.2 and 5.0
    exactly, the double 0.2 is above 1/5, and the top rate is the box's
    own 5.0 * alpha_phys."""
    ratios = np.geomspace(0.2, 5.0, profile._N_GRID)
    assert (ratios[0], ratios[-1]) == (0.2, 5.0)
    rates = ratios * alpha_phys
    free, _, lo, hi, _ = _parameter_space(alpha_phys, 2.8e-17, True)
    for j in np.flatnonzero(profile._IS_RATE[free]):
        assert np.clip(rates, lo[j], hi[j]).tobytes() == rates.tobytes()


def test_default_fit_matches_exhaustive_multistart(edge_pair):
    cfg, evo = edge_pair
    default = fit_profile(evo, cfg)
    exhaustive = fit_profile(evo, cfg, n_random_starts=24, n_polish=12)
    for got, ref in zip(default.channel_fits, exhaustive.channel_fits):
        assert got.rms_db == pytest.approx(ref.rms_db, abs=1e-9)
        assert got.converged


def test_every_polish_stays_inside_the_bounds(edge_pair, monkeypatch):
    cfg, evo = edge_pair
    calls = []

    def spy(problem, x0, lo, hi, scale, max_nfev):
        result = _polish(problem, x0, lo, hi, scale, max_nfev)
        calls.append((x0, lo, hi, result[0]))
        return result

    monkeypatch.setattr(profile, "_polish", spy)
    report = fit_profile(evo, cfg, n_random_starts=24, n_polish=12)
    # 1 + 12 + 24 starts per channel, polished once each.
    assert sum(len(x0) for x0, _, _, _ in calls) == 2 * (1 + 12 + 24)
    for x0, lo, hi, x in calls:
        assert np.all((lo <= x0) & (x0 <= hi))
        assert np.all((lo <= x) & (x <= hi))
    for ch, cf in enumerate(report.channel_fits):
        inp = _fit_inputs(cfg, evo, ch)
        full = np.array([cf.params.alpha, cf.params.c_f, cf.params.c_b,
                         cf.params.alpha_f, cf.params.alpha_b])
        assert np.all((inp["lo"] <= full[inp["free"]])
                      & (full[inp["free"]] <= inp["hi"]))


def test_reference_channel_0_meets_the_projected_first_order_condition(
        reference_scenario, reference_fit):
    """At the fit, alpha sits on its lower bound with the gradient of the
    score pointing outward; every other entry is interior with a gradient
    of about zero."""
    evolution, fit = reference_fit
    inp = _fit_inputs(reference_scenario.link, evolution, 0)
    residual, jacobian = _residual_and_jac(
        inp["length"], inp["z"], inp["target_db"], inp["delta"], inp["p_f"],
        inp["p_b"], inp["free"], inp["base"])
    p = fit.channel_fits[0].params
    x = np.array([p.alpha, p.c_f, p.c_b, p.alpha_f, p.alpha_b])
    assert x[0] == inp["lo"][0]
    assert np.all((inp["lo"][1:] < x[1:]) & (x[1:] < inp["hi"][1:]))
    r, terms = residual(x)
    jac = jacobian(x, terms) * inp["scale"][:, None]
    gradient = jac @ r
    size = np.linalg.norm(jac, axis=1) * np.linalg.norm(r)
    assert gradient[0] > 1e-3 * size[0]
    assert np.all(np.abs(gradient[1:]) <= 1e-6 * size[1:])


def test_failed_problem_leaves_the_rest_of_the_batch_intact(edge_pair):
    """A problem whose residual is not finite is flagged; the problem
    beside it gets the result it gets alone."""
    cfg, evo = edge_pair
    inp = _fit_inputs(cfg, evo, 0)
    x0 = inp["base"][inp["free"]]
    alone = _polish_one(inp, x0)
    assert alone[2] and not alone[3]
    target = np.stack([inp["target_db"], inp["target_db"]])
    target[0, 125] = np.nan

    def problem(rows):
        return _residual_and_jac(
            inp["length"], inp["z"], target[rows],
            np.full((len(rows), 1), inp["delta"]), inp["p_f"], inp["p_b"],
            inp["free"],
            np.tile(inp["base"][:, None, None], (1, len(rows), 1)))

    x, nfev, converged, failed = _polish(
        problem, np.stack([x0, x0]), np.stack([inp["lo"]] * 2),
        np.stack([inp["hi"]] * 2), np.stack([inp["scale"]] * 2), 200)
    assert failed.tolist() == [True, False]
    np.testing.assert_array_equal(x[1], alone[0])
    assert (nfev[1], converged[1]) == alone[1:3]


def test_polish_started_at_the_minimum_returns_it():
    """A linear least-squares problem started at its minimum, where J^T r
    is 0 but r is not: every row stops on the gradient test before its
    first step, with x unchanged after one evaluation."""
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = np.array([1.0, 2.0, 3.0])

    def problem(rows):
        def residual(pvec):
            return (a @ pvec[:, :, 0]).T - b, ()

        def jacobian(pvec, terms):
            return np.broadcast_to(a.T, (pvec.shape[1],) + a.T.shape)
        return residual, jacobian

    x0 = np.array([[1.0, 2.0], [1.0, 2.0]])
    box = np.ones_like(x0)
    x, nfev, converged, failed = _polish(problem, x0, -10.0 * box,
                                         10.0 * box, box, 50)
    np.testing.assert_array_equal(x, x0)
    assert nfev.tolist() == [1, 1]
    assert converged.all() and not failed.any()


def test_damped_steps_isolate_a_singular_system():
    a = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
    g = np.ones((3, 3))
    frozen = np.array([[False] * 3, [False] * 3, [False, True, False]])
    h = profile._damped_steps(a, g, np.array([1.0, 0.0, 0.0]), frozen)
    np.testing.assert_array_equal(h[0], [-0.5, -0.5, -0.5])
    assert np.isnan(h[1]).all()
    np.testing.assert_array_equal(h[2], [-0.5, 0.0, -0.5])


def _full_grid_rms(inp, x):
    """The RMS of the free entries ``x`` over the solver's grid, as a batch
    of one."""
    r = _residual_and_jac(
        inp["length"], inp["z_full"], inp["target_full"][None],
        np.array([[inp["delta"]]]), inp["p_f"], inp["p_b"], inp["free"],
        inp["base"][:, None, None])[0](x[:, None, None])[0]
    return float(np.sqrt(np.sum(r * r, axis=1) / r.shape[1])[0])


def _solo_fit(cfg, evo):
    """fit_profile at its defaults, one problem at a time: each channel
    polishes its best-scored seed alone on the fit's sub-grid, with its own
    seed grid and rate tables, and takes its RMS on the solver's grid."""
    fits = []
    for ch in range(evo.n_channels):
        levels, seeds, inp = _selection_problem(cfg, evo, ch, None)
        (first,) = _best_seeds(levels, len(seeds), 1)
        best = _polish_one(inp, seeds[first])
        assert not best[3]
        full = inp["base"].copy()
        full[inp["free"]] = best[0]
        params = ProfileParams(*full.tolist(), inp["p_f"], inp["p_b"],
                               inp["f_hat"])
        fits.append(ChannelFit(params, _full_grid_rms(inp, best[0]),
                               int(best[1]), bool(best[2])))
    return tuple(fits)


@pytest.mark.parametrize("n_steps, stride", [
    (1000, 4), (2000, 8), (750, 3), (500, 2), (499, 1), (250, 1), (200, 1),
    (1001, 4), (997, 3), (1009, 4)])
def test_fit_sub_grid_is_every_sth_sample_and_the_last(n_steps, stride):
    """Every ``stride``-th sample, stride = n_steps // 250 (at least 1),
    then z = L, whether or not the stride divides the step count: at least
    250 steps from 250 steps on."""
    sub = profile._fit_samples(n_steps)
    np.testing.assert_array_equal(
        sub, np.unique(np.append(np.arange(0, n_steps + 1, stride), n_steps)))
    assert sub.size - 1 >= min(n_steps, 250)


def test_fit_rms_is_taken_on_the_solver_grid(reference_scenario,
                                              reference_fit, data_dir):
    """The fit polishes on every 4th sample, and every channel's ``rms_db``
    equals its dB misfit recomputed from the model over all 1001 solver
    samples, on the backward reference and its forward variant."""
    forward = parse_scenario(os.path.join(data_dir, "forward_pumped.json"))
    forward_evo = solve_power_evolution(forward.link,
                                        steps=forward.solver_steps)
    for link, (evo, fit) in [
            (reference_scenario.link, reference_fit),
            (forward.link, (forward_evo,
                            fit_profile(forward_evo, forward.link)))]:
        z = evo.z_grid
        assert z.size == 1001
        np.testing.assert_array_equal(profile._fit_samples(z.size - 1),
                                      np.arange(0, 1001, 4))
        for ch, cf in enumerate(fit.channel_fits):
            f_i = link.grid.channels[ch].center_frequency
            target = 10.0 * np.log10(evo.powers[ch] / evo.powers[ch, 0])
            model = 10.0 * np.log10(eval_profile_taylor(
                cf.params, z, f_i, link.span.length))
            rms = math.sqrt(np.mean((model - target) ** 2))
            assert cf.rms_db == pytest.approx(rms, abs=1e-9)


def test_fit_of_a_200_step_solve_uses_every_sample(edge_pair, monkeypatch):
    """A 200-step solve is fitted on all its samples: the fit equals one
    with the sub-grid switched off."""
    cfg, _ = edge_pair
    evo = solve_power_evolution(cfg, steps=200)
    fits = fit_profile(evo, cfg).channel_fits
    monkeypatch.setattr(profile, "_FIT_STEPS", 10 ** 9)
    assert fits == fit_profile(evo, cfg).channel_fits


def test_batched_fit_matches_solo_polishes(edge_pair):
    cfg, evo = edge_pair
    assert fit_profile(evo, cfg).channel_fits == _solo_fit(cfg, evo)


def test_batched_fit_matches_solo_polishes_on_a_strong_pump(data_dir):
    scenario = parse_scenario(
        os.path.join(data_dir, "stress_strong_pump.json"))
    cfg = scenario.link
    evo = solve_power_evolution(cfg, steps=scenario.solver_steps)
    assert fit_profile(evo, cfg).channel_fits == _solo_fit(cfg, evo)


# Links the two-start default was not tuned on: three backward pumps (a fit
# far from the ODE profile), a forward plus a backward pump, one 0.9 W pump,
# two forward pumps only, and 100 channels at 50 GHz with two backward pumps.
_STRESS = ("stress_three_backward_pumps.json",
           "stress_forward_and_backward.json", "stress_strong_pump.json",
           "stress_forward_only.json", "stress_wideband_100ch.json")


@pytest.fixture(scope="module", params=_STRESS)
def stress_link(request, data_dir):
    scenario = parse_scenario(os.path.join(data_dir, request.param))
    return scenario.link, solve_power_evolution(
        scenario.link, steps=scenario.solver_steps)


def _selection_problem(cfg, evo, ch, with_backward):
    """(residual levels, clipped seeds, inputs) as fit_profile builds
    them."""
    inp = _fit_inputs(cfg, evo, ch, with_backward)
    free, base, lo, hi = inp["free"], inp["base"], inp["lo"], inp["hi"]
    grid = _grid_seeds(inp, np.geomspace(0.2, 5.0, 12))
    seeds = np.clip(np.vstack([base[free], grid[:, free]]), lo, hi)
    levels = _levels(inp, seeds)
    return levels, seeds, inp


@pytest.mark.parametrize("with_backward", [True, False],
                         ids=["backward", "forward_only"])
def test_pruned_seed_selection_matches_full_scan(stress_link, with_backward):
    cfg, evo = stress_link
    for ch in (0, 13, 26, 39):
        levels, seeds, _ = _selection_problem(cfg, evo, ch, with_backward)
        full = _seed_scores(levels[-1], np.arange(len(seeds)))
        for count in (1, 13):
            got = _best_seeds(levels, len(seeds), count)
            np.testing.assert_array_equal(got, np.argsort(full)[:count])


def _stress_fit(data_dir, name):
    """Per-channel RMS and fit report at the defaults, with the RMS the
    fitter reached before the batched polish (``stress_fit_rms.json``)."""
    scenario = parse_scenario(os.path.join(data_dir, name))
    evo = solve_power_evolution(scenario.link, steps=scenario.solver_steps)
    report = fit_profile(evo, scenario.link)
    with open(os.path.join(data_dir, "stress_fit_rms.json")) as fh:
        stored = np.array(json.load(fh)[name])
    rms = np.array([cf.rms_db for cf in report.channel_fits])
    return rms, stored, report


@pytest.mark.parametrize("name", [n for n in _STRESS
                                  if n != "stress_three_backward_pumps.json"])
def test_stress_fit_is_no_worse_than_the_stored_rms(data_dir, name):
    rms, stored, report = _stress_fit(data_dir, name)
    assert rms.shape == stored.shape
    np.testing.assert_array_less(rms, stored + 1e-6)
    assert report.unconverged_channels == ()


def test_three_pump_fit_is_no_worse_or_refused(data_dir):
    """On three backward pumps the model is far from the ODE profile (RMS
    4-15 dB) and the local minimum reached depends on the path, so some
    channels may end worse than the stored RMS; then some channel must be
    unconverged, which makes ``nli`` exit 4."""
    rms, stored, report = _stress_fit(data_dir,
                                      "stress_three_backward_pumps.json")
    assert rms.shape == stored.shape
    if np.any(rms > stored + 1e-6):
        assert report.unconverged_channels


def _synthetic_levels(rows, fine_scale=1.0):
    """``_best_seeds`` levels over synthetic residual rows: level i keeps
    every ``_BOUND_STRIDES[i]``-th sample, the last level all of them.  The
    finest bound is multiplied by ``fine_scale``.  Also returns the seed
    indices each level was asked for."""
    asked = [[] for _ in range(len(profile._BOUND_STRIDES) + 1)]
    fine = len(profile._BOUND_STRIDES) - 1

    def level(i, step):
        def residual(k):
            asked[i].extend(k.tolist())
            out = rows[k][:, ::step]
            return fine_scale * out if i == fine else out
        return residual

    steps = profile._BOUND_STRIDES + (1,)
    return [level(i, step) for i, step in enumerate(steps)], asked


@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    n_seeds=st.integers(min_value=1, max_value=120),
    n_z=st.integers(min_value=1, max_value=300),
    count=st.integers(min_value=1, max_value=40),
    penalty=st.floats(min_value=0.0, max_value=0.3),
    n_nan=st.integers(min_value=0, max_value=40),
    n_dup=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_pruned_seed_selection_property(seed, n_seeds, n_z, count, penalty,
                                        n_nan, n_dup):
    """Synthetic residual rows, one residual per bound level: the pruned
    selection is the stable argsort of the full scores, ties,
    clamp-penalty values and NaN rows included."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_seeds, n_z)) * rng.uniform(
        0.01, 1.0, size=(n_seeds, 1))
    hit = rng.random(rows.shape) < penalty
    rows[hit] = 1e3 * (1e-12 + rng.exponential(size=hit.sum()))
    rows[rng.integers(n_seeds, size=n_nan), rng.integers(n_z, size=n_nan)] = (
        np.nan)
    rows[rng.integers(n_seeds, size=n_dup)] = rows[
        rng.integers(n_seeds, size=n_dup)]
    levels, _ = _synthetic_levels(rows)

    full = _seed_scores(levels[-1], np.arange(n_seeds))
    got = _best_seeds(levels, n_seeds, count)
    expected = np.argsort(full, kind="stable")[:count]
    np.testing.assert_array_equal(got, expected)
    if np.isnan(full[got]).any():
        assert np.isfinite(full).sum() < min(count, n_seeds)


def test_seeds_pruned_only_at_a_finer_level():
    """Four seeds pass the coarse bound.  One is pruned at the middle
    level, one only at the finest, one is fully scored and loses, and one
    is fully scored and wins."""
    coarse, middle, fine = profile._BOUND_STRIDES
    n_cap = profile._CAP_SEEDS
    rows = np.zeros((n_cap + 4, 2 * coarse))
    rows[:n_cap, 1] = 1.0  # bound 0 at every level, score 1: the cap
    a, b, c, d = range(n_cap, n_cap + 4)
    rows[a:, 0] = 0.5  # coarse bound 0.25 for the four
    rows[a, middle] = 1.0
    rows[b, fine] = 1.0
    rows[c, 1] = 1.0
    rows[d, 1] = 0.5
    for count in (1, 2):
        levels, asked = _synthetic_levels(rows)
        got = _best_seeds(levels, len(rows), count)
        np.testing.assert_array_equal(got, [d, 0][:count])
        assert sorted(asked[0]) == list(range(len(rows)))
        assert sorted(asked[1]) == [a, b, c, d]
        assert sorted(asked[2]) == [b, c, d]
        assert sorted(asked[3]) == list(range(n_cap)) + [c, d]


def test_seed_whose_bound_only_rounds_above_the_cap_is_kept():
    """Seed 0 ties the seeds that set the cap on the full score and wins the
    tie by index, but its finest bound exceeds that score by a rounding
    error; the coarser bounds do not."""
    coarse, middle, fine = profile._BOUND_STRIDES
    n_cap = profile._CAP_SEEDS
    rows = np.zeros((n_cap + 2, 2 * coarse))
    rows[0, [0, fine]] = 0.5  # score 0.5, half of it off the coarser levels
    rows[1:, [1, 2]] = 0.5  # score 0.5, bound 0 at every level
    levels, asked = _synthetic_levels(rows, fine_scale=1.0 + 1e-15)
    bounds = [_seed_scores(level, np.array([0]))[0] for level in levels]
    assert bounds[1] < 0.5 < bounds[2] and bounds[3] == 0.5

    levels, asked = _synthetic_levels(rows, fine_scale=1.0 + 1e-15)
    np.testing.assert_array_equal(_best_seeds(levels, len(rows), 1), [0])
    assert 0 in asked[3]  # fully scored


def test_seed_ranking_work_on_the_reference(reference_scenario,
                                            reference_fit, monkeypatch):
    """The residual elements and full-resolution rows of the fit's
    sub-grid (every 4th of the 1001 samples) that the seed ranking scores
    on the reference fit.  One bound level every 16th sample, with exp and
    expm1 taken per seed, scored 8 111 831 elements and 3 751 full rows;
    three levels on all 1001 samples, 3 447 677 elements and 972 rows."""
    evolution, fit = reference_fit
    work = {"elements": 0, "rows": 0}
    sub = profile._fit_samples(evolution.z_grid.size - 1)
    assert sub.size == 251

    def counting(residual, index, block=profile._SCORE_BLOCK):
        if len(index):
            width = residual(index[:1]).shape[1]
            work["elements"] += len(index) * width
            if width == sub.size:
                work["rows"] += len(index)
        return _seed_scores(residual, index, block)

    monkeypatch.setattr(profile, "_seed_scores", counting)
    again = fit_profile(evolution, reference_scenario.link)
    assert again.channel_fits == fit.channel_fits
    assert work == {"elements": 1_054_136, "rows": 376}


def test_nominal_start_ranks_first_on_a_mixed_pump_link(data_dir, tmp_path,
                                                        monkeypatch):
    """The reference grid with a 0.73 W backward pump at 209.0 THz and a
    0.74 W forward pump at 211.5 THz: the seed ranking of channels 0-3
    picks the nominal start, index 0 of the ranked vectors, ahead of every
    grid seed."""
    with open(os.path.join(data_dir, "reference_pumped.json")) as fh:
        payload = json.load(fh)
    payload["pumps"] = [
        {"frequency": {"value": f, "unit": "THz"}, "power_w": p,
         "direction": d, "attenuation": {"value": 0.2, "unit": "dB/km"}}
        for f, p, d in ((209.0, 0.73, "backward"), (211.5, 0.74, "forward"))]
    path = tmp_path / "mixed_pumps.json"
    path.write_text(json.dumps(payload))
    cfg = parse_scenario(str(path)).link
    evo = solve_power_evolution(cfg)
    ranked, picked = [], []

    def seed_levels(*args):
        ranked.append(args[-2])
        return _seed_levels(*args)

    def best_seeds(*args):
        picked.append(_best_seeds(*args))
        return picked[-1]

    monkeypatch.setattr(profile, "_seed_levels", seed_levels)
    monkeypatch.setattr(profile, "_best_seeds", best_seeds)
    fit_profile(evo, cfg)
    nominal = _fit_inputs(cfg, evo, 0)["base"]
    for ch in range(4):
        np.testing.assert_array_equal(ranked[ch][0], nominal)
        assert picked[ch][0] == 0, ch
    assert any(order[0] != 0 for order in picked)
