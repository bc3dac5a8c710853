"""Semi-analytical profile model and the nonlinear least-squares fit."""

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
    eval_profile_exact,
    eval_profile_taylor,
    fit_profile,
    parse_scenario,
    tilt_derivative,
    tilt_integral,
)
from ramangn import profile
from ramangn.profile import (ProfileParams, _best_seeds, _parameter_space,
                             _residual_and_jac, _seed_scores, _varpro_seeds,
                             shared_fit_context)
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
    p = _params(c_f=2e-19, c_b=1.2e-19)  # small tilt
    f_i = 193.4e12
    z = np.linspace(0.0, _L, 101)
    taylor = eval_profile_taylor(p, z, f_i, _L)
    exact = eval_profile_exact(p, z, f_i, _L, total_bandwidth=4e12)
    assert np.allclose(taylor, exact, rtol=2e-3)
    assert not np.allclose(taylor, exact, rtol=1e-9)


def test_exact_profile_rejects_bad_bandwidth():
    with pytest.raises(ValidationError):
        eval_profile_exact(_params(), 0.0, 193.4e12, _L, total_bandwidth=0.0)


def _synthetic_setup(params_true, n_ch=3, first=193.0e12, spacing=0.5e12):
    """A link plus a PowerEvolution generated exactly from the model."""
    span = FiberSpan(length=_L, beta2=-21.7e-27, beta3=0.0, gamma=1.2e-3,
                     attenuation=params_true.alpha, raman_slope=2.8e-17)
    p_each = params_true.p_f / n_ch
    grid = WdmGrid(tuple(
        Channel(first + i * spacing, 100e9, (p_each,)) for i in range(n_ch)
    ))
    pump = Pump(params_true.f_hat, params_true.p_b, Direction.BACKWARD,
                params_true.alpha)
    cfg = LinkConfig(span=span, span_count=1, grid=grid, pumps=(pump,))

    z = np.linspace(0.0, _L, 501)
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
    report = fit_profile(evo, cfg, n_random_starts=8, n_grid=8, n_polish=4)
    assert report.n_channels == 3
    assert report.max_rms_db <= 1e-6
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
    report = fit_profile(evo, cfg, n_random_starts=4, n_grid=6, n_polish=2)
    for channel, cf in zip(cfg.grid.channels, report.channel_fits):
        alpha_phys = cfg.span.alpha_at(channel.center_frequency)
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


def test_fit_report_json_round_trip():
    import json

    params_true = _params()
    cfg, evo = _synthetic_setup(params_true)
    report = fit_profile(evo, cfg, n_random_starts=2, n_grid=4, n_polish=1)
    payload = json.loads(report.to_json())
    assert len(payload["channels"]) == 3
    assert payload["channels"][0]["params"]["alpha"] == pytest.approx(
        report.channel_fits[0].params.alpha
    )


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


def test_least_squares_failure_names_the_channel(monkeypatch):
    cfg, evo = _synthetic_setup(_params())

    def failing(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(profile, "least_squares", failing)
    with pytest.raises(NumericalError, match="channel 0"):
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
    """The per-channel quantities fit_profile hands to its helpers.

    ``with_backward=False`` builds the forward-only problem (c_b pinned to
    zero) even when the link has a backward pump.
    """
    p_f, p_b, f_hat = shared_fit_context(evo, cfg)
    f_i = cfg.grid.channels[ch].center_frequency
    target_db = 10.0 * np.log10(normalized_profile(evo, ch))
    alpha_phys = cfg.span.alpha_at(f_i)
    if with_backward is None:
        with_backward = p_b > 0
    free, base, lo, hi, _ = _parameter_space(
        alpha_phys, cfg.span.raman_slope, with_backward)
    return dict(length=cfg.span.length, z=evo.z_grid, target_db=target_db,
                delta=f_i - f_hat, f_hat=f_hat, p_f=p_f, p_b=p_b,
                alpha_phys=alpha_phys, with_backward=with_backward,
                free=free, base=base, lo=lo, hi=hi)


def _grid_seeds(inp, ratios):
    return _varpro_seeds(inp["length"], inp["z"], inp["target_db"],
                         inp["delta"], inp["p_f"], inp["p_b"], ratios,
                         inp["alpha_phys"], inp["with_backward"])


def test_batched_seed_scores_match_residual(edge_pair):
    cfg, evo = edge_pair
    inp = _fit_inputs(cfg, evo, 1)
    free = inp["free"]
    residual, _ = _residual_and_jac(
        inp["length"], inp["z"], inp["target_db"], inp["delta"], inp["p_f"],
        inp["p_b"], free, inp["base"])
    seeds = _grid_seeds(inp, np.geomspace(0.2, 5.0, 6))[:, free]
    # A strongly negative slope on the pumped term (c_b, else c_f) drives
    # the linearized profile below the clamp, so the 1e3 penalty is part
    # of the score.
    slope = 2 if inp["p_b"] > 0 else 1
    penalty = seeds[0].copy()
    penalty[list(free).index(slope)] = -10.0 * cfg.span.raman_slope
    full = inp["base"].copy()
    full[free] = penalty
    tilted = eval_profile_taylor(
        ProfileParams(*full, p_f=inp["p_f"], p_b=inp["p_b"],
                      f_hat=inp["f_hat"]),
        inp["z"], inp["f_hat"] + inp["delta"], inp["length"])
    assert np.min(tilted) < 0.0
    seeds = np.vstack([seeds, penalty])
    assert len(seeds) > 32  # more than one scoring block

    batched = _seed_scores(residual, seeds)
    looped = np.array([np.sum(residual(s) ** 2) for s in seeds])
    assert np.allclose(batched, looped, rtol=1e-12, atol=0.0)
    assert batched[-1] > 1e3 * batched[0]


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


def test_default_fit_matches_exhaustive_multistart(edge_pair):
    cfg, evo = edge_pair
    default = fit_profile(evo, cfg)
    exhaustive = fit_profile(evo, cfg, n_random_starts=24, n_polish=12)
    for got, ref in zip(default.channel_fits, exhaustive.channel_fits):
        assert got.rms_db == pytest.approx(ref.rms_db, abs=1e-9)
        assert got.converged


def test_every_start_lies_strictly_inside_the_bounds(edge_pair, monkeypatch):
    cfg, evo = edge_pair
    real = profile.least_squares
    calls = []

    def spy(fun, x0, *args, bounds, **kwargs):
        lo, hi = bounds
        inside = bool(np.all(lo < x0) and np.all(x0 < hi))
        try:
            result = real(fun, x0, *args, bounds=bounds, **kwargs)
        except Exception as exc:  # recorded, then re-raised
            calls.append((inside, exc))
            raise
        calls.append((inside, None))
        return result

    monkeypatch.setattr(profile, "least_squares", spy)
    fit_profile(evo, cfg, n_random_starts=24, n_polish=12)
    assert len(calls) == 2 * (1 + 12 + 24) + 1
    assert all(inside for inside, _ in calls)
    assert [exc for _, exc in calls if exc is not None] == []


# Links the two-start default was not tuned on: three backward pumps (a fit
# far from the ODE profile), a forward plus a backward pump, one 0.9 W pump.
_STRESS = ("stress_three_backward_pumps.json",
           "stress_forward_and_backward.json", "stress_strong_pump.json")


@pytest.fixture(scope="module", params=_STRESS)
def stress_link(request, data_dir):
    scenario = parse_scenario(os.path.join(data_dir, request.param))
    return scenario.link, solve_power_evolution(
        scenario.link, steps=scenario.solver_steps)


def _selection_problem(cfg, evo, ch, with_backward):
    """(residual, bound residual, clipped seeds) as fit_profile builds them."""
    inp = _fit_inputs(cfg, evo, ch, with_backward)
    free, base, lo, hi = inp["free"], inp["base"], inp["lo"], inp["hi"]
    grid = _grid_seeds(inp, np.geomspace(0.2, 5.0, 12))
    seeds = np.vstack([base[free], grid[:, free]])
    margin = 1e-9 * (hi - lo)
    seeds = np.clip(seeds, lo + margin, hi - margin)

    def build(step):
        return _residual_and_jac(
            inp["length"], inp["z"][::step], inp["target_db"][::step],
            inp["delta"], inp["p_f"], inp["p_b"], free, base)[0]

    return build(1), build(profile._BOUND_STRIDE), seeds


@pytest.mark.parametrize("with_backward", [True, False],
                         ids=["backward", "forward_only"])
def test_pruned_seed_selection_matches_full_scan(stress_link, with_backward):
    cfg, evo = stress_link
    for ch in (0, 13, 26, 39):
        residual, bound_residual, seeds = _selection_problem(
            cfg, evo, ch, with_backward)
        full = _seed_scores(residual, seeds)
        for count in (1, 13):
            got = _best_seeds(residual, bound_residual, seeds, count)
            np.testing.assert_array_equal(got, np.argsort(full)[:count])


@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    n_seeds=st.integers(min_value=1, max_value=120),
    n_z=st.integers(min_value=1, max_value=80),
    count=st.integers(min_value=1, max_value=40),
    penalty=st.floats(min_value=0.0, max_value=0.3),
    n_nan=st.integers(min_value=0, max_value=40),
    n_dup=st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_pruned_seed_selection_property(seed, n_seeds, n_z, count, penalty,
                                        n_nan, n_dup):
    """Synthetic residual rows: the pruned selection is the stable argsort
    of the full scores, ties, clamp-penalty values and NaN rows included."""
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n_seeds, n_z)) * rng.uniform(
        0.01, 1.0, size=(n_seeds, 1))
    hit = rng.random(rows.shape) < penalty
    rows[hit] = 1e3 * (1e-12 + rng.exponential(size=hit.sum()))
    rows[rng.integers(n_seeds, size=n_nan), rng.integers(n_z, size=n_nan)] = (
        np.nan)
    rows[rng.integers(n_seeds, size=n_dup)] = rows[
        rng.integers(n_seeds, size=n_dup)]
    seeds = np.arange(n_seeds, dtype=float)[:, None]

    def residual(p):
        return rows[p[0, :, 0].astype(int)]

    def bound_residual(p):
        return residual(p)[:, ::profile._BOUND_STRIDE]

    full = _seed_scores(residual, seeds)
    got = _best_seeds(residual, bound_residual, seeds, count)
    expected = np.argsort(full, kind="stable")[:count]
    np.testing.assert_array_equal(got, expected)
    if np.isnan(full[got]).any():
        assert np.isfinite(full).sum() < min(count, n_seeds)


def test_seed_whose_bound_only_rounds_above_the_cap_is_kept():
    """Seed 0 ties the pass-2 seeds on the full score and wins the tie by
    index, but its bound exceeds that score by a rounding error."""
    rows = np.zeros((34, 2 * profile._BOUND_STRIDE))
    rows[0, 0] = 1.0  # all of its score lies on the strided samples
    rows[1:, 1] = 1.0  # none of theirs does: bound 0, full score 1
    seeds = np.arange(34, dtype=float)[:, None]

    def residual(p):
        return rows[p[0, :, 0].astype(int)]

    def bound_residual(p):
        return (1.0 + 1e-15) * residual(p)[:, ::profile._BOUND_STRIDE]

    assert _seed_scores(bound_residual, seeds)[0] > 1.0
    np.testing.assert_array_equal(
        _best_seeds(residual, bound_residual, seeds, 1), [0])
