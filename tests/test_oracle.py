"""Numerical-integration oracle: moments, link function, 2D eta, identities.

The frozen reference numbers in this module were produced by the oracle
itself at its tightest settings and cross-validated against brute-force
dense tensor quadrature; they pin the quadrature machinery against
regressions.
"""

import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from ramangn import (
    Channel,
    QuadratureSpec,
    TaylorProfile,
    closed_form_terms,
    eta_spm_numeric,
    eta_xpm_numeric,
    eta_spm,
    eta_total,
    eta_xpm_pair,
    fit_profile,
    mu_closed,
    parse_scenario,
    solve_power_evolution,
    WdmGrid,
)
from ramangn import closedform, oracle
from ramangn.errors import (DegenerateDispersionError, NumericalError,
                            ProfileDomainError, ValidationError)
from ramangn.oracle import (_N_ZETA_DEG, EtaEstimate, _PairEngine,
                            _filon_rule, _fit_nodes, _gl_rule)
from ramangn.profile import (ChannelFit, FitReport, ProfileParams,
                             pair_offsets, profile_margin)

from conftest import ALPHA_02_DB_KM
from reference import mu_numeric, verify_identities

_L = 80e3
_EPS = np.finfo(float).eps
_F_REF = 193.4e12  # band center of the 40 x 100 GHz reference grid


def _channel(i):
    return Channel(191.45e12 + 0.1e12 * i, 100e9, (1e-3,))


# ---------------------------------------------------------------------------
# oscillatory moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 8, 27, 64, 512, 2048])
def test_gl_rule_matches_leggauss(n):
    """Nodes agree with numpy's eigenvalue rule to rounding; the weights
    sum to 2 and integrate even powers exactly.  ``leggauss``'s own
    endpoint weights are off by up to about 6e-8 relative at n = 2048,
    which bounds the weight comparison."""
    x, w = _gl_rule(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, xr, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(w, wr, rtol=1e-7)
    assert abs(w.sum() - 2.0) <= 1e-15
    for m in range(0, min(2 * n, 20), 2):
        assert np.sum(w * x ** m) == pytest.approx(2.0 / (m + 1), rel=1e-13)


def test_gl_rule_memory_is_linear():
    """n = 4096 in well under the 128 MiB of a dense n x n matrix."""
    import tracemalloc

    tracemalloc.start()
    try:
        x, w = _gl_rule.__wrapped__(4096)  # bypass the cache
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert x.size == w.size == 4096
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("theta", [0.0, 0.3, 3.9, 4.1, 40.0, 4000.0])
def test_filon_moments_match_weighted_quadrature(theta):
    """The Filon weights of both node sets, the zeta panels' 11 Chebyshev
    nodes and the outer phase panels' 8 Gauss nodes, integrate every power
    up to their degree exactly against e^{j theta t}, on both sides of the
    split between the power series and the upward recurrence."""
    from scipy.integrate import quad

    for t, inv_v in (_fit_nodes(_N_ZETA_DEG + 1), _fit_nodes(8, True)):
        w = _filon_rule(np.array([theta]), inv_v)[0]
        for m in range(t.size):
            if theta == 0.0:
                re = (1.0 + (-1.0) ** m) / (m + 1)
                im = 0.0
            else:
                re = quad(lambda x: x ** m, -1, 1, weight="cos",
                          wvar=theta)[0]
                im = quad(lambda x: x ** m, -1, 1, weight="sin",
                          wvar=theta)[0]
            moment = np.sum(w * t ** m)
            assert moment.real == pytest.approx(re, abs=1e-13), (t.size, m)
            assert moment.imag == pytest.approx(im, abs=1e-13), (t.size, m)


def test_zeta_kernel_matches_adaptive_quadrature(fixed_params,
                                                 reference_span):
    """I(phi) from the panel Filon weights against mu_numeric, with phases
    on both sides of the moment split and more phase groups than one
    kernel block holds."""
    rho = TaylorProfile(fixed_params, _L)
    ch_i, ch_k = _channel(19), _channel(25)
    engine = _PairEngine(rho, reference_span, ch_i, ch_k, _F_REF)
    rng = np.random.default_rng(5)
    n_groups, group = 700, 3
    phi = rng.uniform(-3.0, 3.0, n_groups) * engine.phi_split
    f1 = rng.uniform(-50e9, 50e9, n_groups * group)
    f2 = rng.uniform(-50e9, 50e9, n_groups * group)
    grouped = engine._i_of_phi(f1, f2, phi, group)
    single = engine._i_of_phi(f1, f2, np.repeat(phi, group))
    np.testing.assert_allclose(grouped, single, rtol=1e-12, atol=0.0)
    theta = np.abs(phi)[:, None] * engine._zp[1]
    assert (theta < 4.0).any() and (theta > 4.0).any()
    for n in range(0, n_groups * group, 157):
        ref = mu_numeric(ch_i.center_frequency + f1[n],
                         ch_k.center_frequency + f2[n],
                         ch_i.center_frequency, rho, phi[n // group], _L)
        assert abs(grouped[n]) ** 2 == pytest.approx(ref, rel=1e-9)


def _pair_engine(params, span, pair):
    """Engine of pair (i, k) or (i, k, B_i, B_k) of the reference grid."""
    i, k, b_i, b_k = pair if len(pair) == 4 else pair + (100e9, 100e9)
    return _PairEngine(TaylorProfile(params, _L), span,
                       replace(_channel(i), bandwidth=b_i),
                       replace(_channel(k), bandwidth=b_k), _F_REF)


def _band_cuts(engine):
    """The band ends and the kinks +-(B_k - B_i)/2 that lie in the band."""
    half, kink = engine.b_k / 2, (engine.b_k - engine.b_i) / 2
    return np.unique([-half, half] + [v for v in (kink, -kink)
                                      if -half < v < half])


# XPM of one piece: far pairs, adjacent pairs, whose phase slope is the
# least, and a 32 GHz channel under a 100 GHz interferer, split at the
# kinks +-34 GHz into three pieces
_EDGE_PAIRS = [(19, 25), (25, 19), (0, 39), (19, 20), (20, 19), (39, 0),
               (19, 25, 32e9, 100e9)]


@pytest.mark.parametrize("pair", _EDGE_PAIRS)
def test_domain_edges_match_scalar_root_search(fixed_params, reference_span,
                                               pair):
    """The D(phi) edges of both sides, inner and outer phases alike, from
    the one call that a refinement level makes, against a per-phase scan
    of 8193 f2 points and the cuts, with brentq on the continuous extreme
    phase at machine tolerance: within 1e-13 of the half-band.  Without
    the cuts the scan misses the interval that a phase just below a kink
    maximum leaves."""
    from scipy.optimize import brentq

    engine = _pair_engine(fixed_params, reference_span, pair)
    assert engine._sw is not None
    scan = np.union1d(np.linspace(-engine.b_k / 2, engine.b_k / 2, 8193),
                      _band_cuts(engine))
    p_scan = {side: engine._p_end(scan, side) for side in (1, -1)}
    phis = np.concatenate([side * np.linspace(0.0, p.max(), 302)[1:-1]
                           for side, p in p_scan.items()])
    assert (np.abs(phis) < engine.phi_split).any()
    assert (np.abs(phis) > engine.phi_split).any()
    rows, left, right = engine._domain_edges(phis)
    expected = []
    for j, phi in enumerate(phis):
        side = 1 if phi > 0.0 else -1
        inside = np.flatnonzero(p_scan[side] > side * phi)
        for run in np.split(inside, np.flatnonzero(np.diff(inside) > 1) + 1):

            def gap(x, phi=phi, side=side):
                return float(engine._p_end(x, side)) - side * phi

            i0, i1 = run[0], run[-1]
            lo = scan[i0] if i0 == 0 else brentq(
                gap, scan[i0 - 1], scan[i0], xtol=1e-300, rtol=4 * _EPS)
            hi = scan[i1] if i1 == scan.size - 1 else brentq(
                gap, scan[i1], scan[i1 + 1], xtol=1e-300, rtol=4 * _EPS)
            expected.append((j, lo, hi))
    assert rows.tolist() == [e[0] for e in expected]
    tol = 1e-13 * engine.b_k / 2
    np.testing.assert_allclose(left, [e[1] for e in expected], rtol=0.0,
                               atol=tol)
    np.testing.assert_allclose(right, [e[2] for e in expected], rtol=0.0,
                               atol=tol)


def _grid_applies(engine):
    """The swapped order's slope test as it read a 2049-point f2 grid with
    the cuts: no zero of d2 in the band, which sends SPM to the direct
    order, one slope sign over the band, and a curvature term 2 b f1 below
    half the least slope."""
    half = engine.b_k / 2
    if -half < engine.fi_off - engine.fk_off < half:
        return False
    f2 = np.union1d(np.linspace(-half, half, 2049), _band_cuts(engine))
    a, b = engine._phase_coeffs(f2)
    lo, hi = engine._f1_window(f2)
    f1ext = np.maximum(np.abs(lo), np.abs(hi))
    return bool(np.all(a != 0.0) and a.max() * a.min() >= 0.0
                and np.max(np.abs(2.0 * b * f1ext)) < 0.5 * np.min(np.abs(a)))


def test_extreme_phase_runs_are_exact_quadratics(fixed_params,
                                                 reference_span):
    """Each monotone run's quadratic, expanded about its x0, reproduces the
    extreme phase on a dense scan to 1e-13 of its largest value, and the
    scan is monotone inside every run, on the edge test's pairs and at
    beta3 x 35.  The order decision read at the cuts equals the test read
    on a 2049-point grid for rows 0, 19 and 39 against every k, at beta2 of
    -21.7, -5, -2, -0.5, 0 and +0.5 ps^2/km."""
    for span in (reference_span,
                 replace(reference_span, beta3=35 * reference_span.beta3)):
        for pair in _EDGE_PAIRS:
            engine = _pair_engine(fixed_params, span, pair)
            for side, runs in engine._sw["runs"].items():
                bounds = engine._sw["p"][side]
                assert bounds.size == runs.shape[0] + 1
                top = bounds.max()
                for start, end, x0, p0, dp, curv in runs:
                    x = np.linspace(start, end, 513)
                    p = engine._p_end(x, side)
                    quad = p0 + dp * (x - x0) + curv * (x - x0) ** 2
                    assert np.max(np.abs(quad - p)) <= 1e-13 * top, pair
                    step = np.diff(p) * np.sign(dp)
                    assert np.all(step >= -1e-15 * top), pair
    decisions = []
    for beta2 in (-21.7e-27, -5e-27, -2e-27, -0.5e-27, 0.0, 0.5e-27):
        span = replace(reference_span, beta2=beta2)
        for i in (0, 19, 39):
            for k in range(40):
                engine = _pair_engine(fixed_params, span, (i, k))
                assert (engine._sw is not None) == _grid_applies(engine), (
                    beta2, i, k)
                decisions.append(engine._sw is not None)
    assert 0 < sum(decisions) < len(decisions)


def test_f1_of_phi_without_curvature_is_phi_over_a(fixed_params,
                                                   reference_span):
    """With b = 0 (beta3 = 0) the general root 2 phi / (a + sign(a)
    sqrt(a^2 + 4 b phi)) is phi / a bit for bit, since sqrt(a * a) is |a|
    exactly in IEEE arithmetic; SPM's slope a takes both signs."""
    ch = _channel(19)
    engine = _PairEngine(TaylorProfile(fixed_params, _L), reference_span, ch,
                         ch, _F_REF)
    rng = np.random.default_rng(3)
    a = engine._phase_coeffs(rng.uniform(-50e9, 50e9, 1000))[0]
    assert (a > 0.0).any() and (a < 0.0).any()
    phi = rng.uniform(-3.0, 3.0, a.size) * engine.phi_split
    assert engine._f1_of_phi(phi, a, 0 * a).tobytes() == (phi / a).tobytes()


def test_f1_of_phi_at_a_vertex_rounded_past_it(fixed_params,
                                              reference_span):
    """A phase one ulp past the vertex value a^2 / (4 |b|) rounds the
    discriminant below 0; the root is then the vertex -a / (2 b), not NaN.
    Random pairs reach this when a phase node lies within a few ulps of a
    run's bound value."""
    engine = _PairEngine(TaylorProfile(fixed_params, _L), reference_span,
                         _channel(19), _channel(25), _F_REF)
    a, b = np.array([1.0]), np.array([-1.0])
    phi = np.nextafter(0.25, 1.0)
    assert a * a + 4.0 * b * phi < 0.0
    assert engine._f1_of_phi(phi, a, b) == pytest.approx(0.5, rel=1e-15)


def _reference_spm(scenario, fit, i):
    grid, span = scenario.link.grid, scenario.link.span
    return _PairEngine(TaylorProfile(fit.channel_fits[i].params, span.length),
                       span, grid.channels[i], grid.channels[i],
                       grid.band_center)


def test_reference_spm_converges_at_the_first_refinement(reference_scenario,
                                                         reference_fit):
    """Every SPM of the reference's rows 0, 20 and 39 converges at the
    first refinement, its two levels within 1e-12 relative."""
    grid, span = reference_scenario.link.grid, reference_scenario.link.span
    for i in (0, 20, 39):
        rho = TaylorProfile(reference_fit[1].channel_fits[i].params,
                            span.length)
        est = eta_spm_numeric(grid.channels[i], rho, span,
                              QuadratureSpec(max_refinements=1),
                              f_ref=grid.band_center)
        assert est.converged, i
        assert est.error_estimate <= 1e-12 * est.value, i


def test_reference_spm_memory_is_bounded(reference_scenario, reference_fit):
    """The order that the oracle takes for SPM 20 of the reference keeps
    the peak memory of level 3 within 2x of level 0's."""
    import tracemalloc

    engine = _reference_spm(reference_scenario, reference_fit[1], 20)
    peaks = []
    tracemalloc.start()
    try:
        for level in (0, 3):
            tracemalloc.reset_peak()
            engine.eta(level)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


# ---------------------------------------------------------------------------
# link function oracle
# ---------------------------------------------------------------------------

def test_mu_closed_matches_quadrature(fixed_params):
    rho = TaylorProfile(fixed_params, _L)
    f_i = _channel(19).center_frequency
    terms = closed_form_terms(fixed_params, f_i, _L)
    for phi in (0.0, 1.23e-3, -4.5e-4, 2e-2):
        numeric = mu_numeric(f_i, f_i, f_i, rho, phi, _L)
        closed = float(mu_closed(phi, terms))
        assert closed == pytest.approx(numeric, rel=1e-9)


def test_mu_numeric_rejects_negative_profile(fixed_params):
    # negative slope drives the linearized profile through zero mid-span
    bad = replace(fixed_params, c_b=-5e-16)
    rho = TaylorProfile(bad, _L)
    f_i = 191.45e12
    with pytest.raises(ProfileDomainError):
        mu_numeric(f_i, f_i, f_i, rho, 1e-4, _L)


# ---------------------------------------------------------------------------
# 2D eta oracle: frozen values for the hand-specified pumped profile
# ---------------------------------------------------------------------------

_FROZEN_XPM = {
    (19, 25): 2.343125318730e+00,
    (0, 39): 3.563498699304e-01,
    (19, 20): 1.486068010021e+01,
}
_FROZEN_SPM_19 = 5.311605825519e+01


@pytest.mark.parametrize("pair", sorted(_FROZEN_XPM))
def test_eta_xpm_frozen_values(fixed_params, reference_span, pair):
    i, k = pair
    rho = TaylorProfile(fixed_params, _L)
    est = eta_xpm_numeric(_channel(i), _channel(k), rho, reference_span,
                          QuadratureSpec(), f_ref=_F_REF)
    assert est.converged
    assert est.value == pytest.approx(_FROZEN_XPM[pair], rel=1e-6)


def test_eta_spm_frozen_value(fixed_params, reference_span):
    rho = TaylorProfile(fixed_params, _L)
    est = eta_spm_numeric(_channel(19), rho, reference_span,
                          QuadratureSpec(), f_ref=_F_REF)
    assert est.converged
    assert est.value == pytest.approx(_FROZEN_SPM_19, rel=1e-12)


def test_swapped_and_direct_integration_orders_agree(fixed_params,
                                                     reference_span,
                                                     monkeypatch):
    """Force the direct (f1, f2) fallback onto an ordinary XPM pair: the
    tensor Gauss rule converges at the first refinement and matches the
    default swapped-order evaluation to 1e-8."""
    rho = TaylorProfile(fixed_params, _L)
    spec = QuadratureSpec(max_refinements=1)
    default = eta_xpm_numeric(_channel(19), _channel(25), rho,
                              reference_span, spec, f_ref=_F_REF)
    monkeypatch.setattr(_PairEngine, "_setup_swapped", lambda self: None)
    fallback = eta_xpm_numeric(_channel(19), _channel(25), rho,
                               reference_span, spec, f_ref=_F_REF)
    assert default.converged and fallback.converged
    assert fallback.value == pytest.approx(default.value, rel=1e-8)


def test_direct_order_memory_is_bounded(fixed_params, reference_span):
    """The tensor rule takes its nodes a block at a time: on pair (19, 20)
    level 3 has about 9 times the nodes of level 0, and its peak memory
    stays within 2x of level 0's."""
    import tracemalloc

    engine = _PairEngine(TaylorProfile(fixed_params, _L), reference_span,
                         _channel(19), _channel(20), _F_REF)
    peaks = []
    tracemalloc.start()
    try:
        for level in (0, 3):
            tracemalloc.reset_peak()
            engine.eta_direct(level)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def test_integration_order_per_pair(fixed_params, reference_span):
    """The swapped (phi, f2) order serves every XPM pair of rows 0, 19 and
    39 of the reference grid, and the direct order every SPM channel, whose
    phase slope vanishes at f2 = 0."""
    rho = TaylorProfile(fixed_params, _L)
    for i in range(40):
        spm = _PairEngine(rho, reference_span, _channel(i), _channel(i),
                          _F_REF)
        assert spm._sw is None, i
    for i in (0, 19, 39):
        for k in range(40):
            if k != i:
                xpm = _PairEngine(rho, reference_span, _channel(i),
                                  _channel(k), _F_REF)
                assert xpm._sw is not None, (i, k)
                assert "zero" not in xpm._sw, (i, k)


def _gauss_64x64(engine):
    """J over the pair's (f1, f2) domain by a Gauss rule: 32 f2 nodes on
    each side of the kink where the f1 window starts clipping, 64 f1 nodes
    over the window at each f2."""
    t32, w32 = np.polynomial.legendre.leggauss(32)
    t64, w64 = np.polynomial.legendre.leggauss(64)
    half, kink = engine.b_k / 2, (engine.b_k - engine.b_i) / 2
    f2, w2 = [], []
    for lo, hi in ((-half, kink), (kink, half)):
        f2.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * t32)
        w2.append(0.5 * (hi - lo) * w32)
    f2, w2 = np.concatenate(f2), np.concatenate(w2)
    lo, hi = engine._f1_window(f2)
    f1 = (0.5 * (lo + hi)[:, None] + 0.5 * (hi - lo)[:, None] * t64).ravel()
    w = (w2[:, None] * 0.5 * (hi - lo)[:, None] * w64).ravel()
    f2 = np.repeat(f2, 64)
    phi = engine._phi_of(f1, *engine._phase_coeffs(f2))
    return np.sum(w * np.abs(engine._i_of_phi(f1, f2, phi)) ** 2)


@pytest.mark.parametrize("pair", [(39, 13), (9, 39)])
def test_direct_order_near_zero_dispersion(fixed_params, reference_span,
                                           pair):
    """At beta2 = -0.5 ps^2/km the phase slope of these XPM pairs changes
    sign over the interferer, so the direct (f1, f2) order is their only
    path.  It converges, and matches a 64 x 64 Gauss rule in (f1, f2) over
    the same |I(phi)|^2."""
    span = replace(reference_span, beta2=-0.5e-27)
    rho = TaylorProfile(fixed_params, _L)
    ch_i, ch_k = _channel(pair[0]), _channel(pair[1])
    engine = _PairEngine(rho, span, ch_i, ch_k, _F_REF)
    assert engine._sw is None
    est = eta_xpm_numeric(ch_i, ch_k, rho, span, f_ref=_F_REF)
    assert est.converged
    assert est.value == pytest.approx(
        32.0 / 27.0 * span.gamma ** 2 / engine.b_k ** 2
        * _gauss_64x64(engine), rel=1e-9)


def test_spm_direct_order_near_zero_dispersion(fixed_params, reference_span):
    """At beta2 = -0.5 ps^2/km the phase slope of channel 25 changes sign
    a second time, near f2 = 37 GHz, so one piece is not monotone and its
    SPM falls back to the direct order.  It converges, and matches a
    64 x 64 Gauss rule in (f1, f2)."""
    span = replace(reference_span, beta2=-0.5e-27)
    rho = TaylorProfile(fixed_params, _L)
    ch = _channel(25)
    engine = _PairEngine(rho, span, ch, ch, _F_REF)
    assert engine._sw is None
    est = eta_spm_numeric(ch, rho, span, f_ref=_F_REF)
    assert est.converged
    assert est.value == pytest.approx(
        16.0 / 27.0 * span.gamma ** 2 / engine.b_k ** 2
        * _gauss_64x64(engine), rel=1e-9)


def test_profile_domain_refusal_names_the_pair(data_dir):
    """The three-pump stress fit puts interferers 28-39 outside the
    linearized profile's domain: row 0 refuses exactly those pairs, and the
    refusal names both centre frequencies."""
    scenario = parse_scenario(os.path.join(
        data_dir, "stress_three_backward_pumps.json"))
    link = scenario.link
    fit = fit_profile(solve_power_evolution(link, steps=scenario.solver_steps),
                      link)
    span, grid = link.span, link.grid
    ch_0 = grid.channels[0]
    refused = []
    for k, ch_k in enumerate(grid.channels):
        rho = TaylorProfile(fit.channel_fits[k].params, span.length)
        try:
            _PairEngine(rho, span, ch_0, ch_k, grid.band_center)
        except ProfileDomainError as exc:
            refused.append(k)
            assert (f"f_i = {ch_0.center_frequency:.6e} Hz, "
                    f"f_k = {ch_k.center_frequency:.6e} Hz") in str(exc)
    assert refused == list(range(28, 40))
    with pytest.raises(ProfileDomainError, match="f_k = 1.953500e"):
        eta_xpm_numeric(ch_0, grid.channels[39],
                        TaylorProfile(fit.channel_fits[39].params,
                                      span.length),
                        span, scenario.quadrature, f_ref=grid.band_center)


@pytest.mark.parametrize("name", [
    "stress_forward_only.json", "stress_forward_and_backward.json",
    "stress_strong_pump.json", "stress_wideband_100ch.json"])
def test_stress_middle_row_within_criterion_5(data_dir, name):
    """The middle row of every stress scenario inside the profile's domain
    (all but the three-pump one) converges and stays within criterion 5's
    0.5 dB per-row bound."""
    scenario = parse_scenario(os.path.join(data_dir, name))
    link = scenario.link
    fit = fit_profile(solve_power_evolution(link, steps=scenario.solver_steps),
                      link)
    row = link.grid.n_channels // 2
    report = oracle.compare_closed_vs_oracle(
        link, fit, spec=scenario.quadrature, channels=(row,))
    assert report.converged[row]
    assert abs(report.delta_db[row]) <= 0.5


def test_eta_oracle_rejects_identical_pair(fixed_params, reference_span):
    rho = TaylorProfile(fixed_params, _L)
    with pytest.raises(ValidationError):
        eta_xpm_numeric(_channel(5), _channel(5), rho, reference_span,
                        f_ref=_F_REF)


def test_eta_oracle_rejects_a_plain_callable(fixed_params, reference_span):
    rho = TaylorProfile(fixed_params, _L)
    with pytest.raises(ValidationError, match="requires a TaylorProfile"):
        eta_xpm_numeric(_channel(5), _channel(6), rho.__call__,
                        reference_span, f_ref=_F_REF)


def test_eta_oracle_of_a_span_without_nonlinearity(fixed_params,
                                                   reference_span):
    """gamma = 0 needs no shortcut: the integral is scaled by 0 at every
    level, which converges at the first refinement."""
    span = replace(reference_span, gamma=0.0)
    rho = TaylorProfile(fixed_params, _L)
    zero = EtaEstimate(0.0, 0.0, True)
    assert eta_xpm_numeric(_channel(19), _channel(25), rho, span,
                           f_ref=_F_REF) == zero
    assert eta_spm_numeric(_channel(19), rho, span, f_ref=_F_REF) == zero


def test_g_tilde_refuses_a_product_rounded_below_zero(fixed_params,
                                                      reference_span):
    """A backward-only profile that leaves the pair (0, 39) a margin of
    1.1e-16 at z = L passes the exact domain rule, but the expanded cubic
    of ``_g_tilde`` rounds the product at the window edge f1 = -B_i / 2
    below zero at that node (32 of these 51 points on x86-64): the refusal
    guards its square root."""
    params = replace(fixed_params, c_f=0.0, c_b=-4.715796046978568e-18)
    ch_i, ch_k = _channel(0), _channel(39)
    lo, hi = pair_offsets(ch_i.center_frequency, ch_i.bandwidth,
                          ch_k.center_frequency, ch_k.bandwidth,
                          params.f_hat)
    assert 0.0 < profile_margin(params, _L, lo, hi)[0] < 1e-15
    engine = _PairEngine(TaylorProfile(params, _L), reference_span, ch_i,
                         ch_k, _F_REF)
    f2 = np.linspace(0.0, 50e9, 51)
    with pytest.raises(ProfileDomainError,
                       match=r"non-positive at zeta = 8\.000000e\+04 m"):
        engine._g_tilde(np.full(f2.size, -50e9), f2)


def test_quadrature_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec(max_refinements=6)
    # a single level has no error estimate, so it could never converge
    with pytest.raises(ValidationError, match=r"\[1, 5\]"):
        QuadratureSpec(max_refinements=0)
    assert QuadratureSpec(max_refinements=1).max_refinements == 1


# ---------------------------------------------------------------------------
# closed form vs oracle on single pairs (spot checks; the full-grid run is
# in the acceptance suite)
# ---------------------------------------------------------------------------

def test_closed_form_tracks_oracle_per_pair(fixed_params, reference_span):
    rho = TaylorProfile(fixed_params, _L)
    spec = QuadratureSpec()
    for (i, k), gate_db in (((19, 25), 0.05), ((0, 39), 0.05),
                            ((19, 20), 0.5)):
        ch_i, ch_k = _channel(i), _channel(k)
        terms_k = closed_form_terms(fixed_params, ch_k.center_frequency, _L)
        closed = eta_xpm_pair(ch_i, ch_k, terms_k, reference_span,
                              f_ref=_F_REF)
        numeric = eta_xpm_numeric(ch_i, ch_k, rho, reference_span, spec,
                                  f_ref=_F_REF).value
        assert abs(10.0 * math.log10(closed / numeric)) <= gate_db


def test_closed_form_tracks_oracle_spm(fixed_params, reference_span):
    rho = TaylorProfile(fixed_params, _L)
    ch = _channel(19)
    terms = closed_form_terms(fixed_params, ch.center_frequency, _L)
    closed = eta_spm(ch, terms, reference_span, f_ref=_F_REF)
    numeric = eta_spm_numeric(ch, rho, reference_span, QuadratureSpec(),
                              f_ref=_F_REF).value
    assert abs(10.0 * math.log10(closed / numeric)) <= 0.1


# eta_numeric of four rows of the reference grid on the fit that
# fit_profile makes of the reference scenario
_REFERENCE_ROWS = {0: 775.8317805435613, 19: 570.4625176802178,
                   20: 553.7764610696353, 39: 277.8492531954771}


def test_reference_rows_keep_their_oracle_values(reference_scenario,
                                                 reference_fit):
    """Rows 0, 19, 20 and 39, band edges and centre, every SPM and XPM
    estimate converged, each row's eta within 1e-12 relative."""
    _, fit = reference_fit
    report = oracle.compare_closed_vs_oracle(
        reference_scenario.link, fit, spec=reference_scenario.quadrature,
        channels=tuple(_REFERENCE_ROWS))
    assert report.converged.all()
    for i, value in _REFERENCE_ROWS.items():
        assert report.eta_numeric[i] == pytest.approx(value, rel=1e-12), i


# ---------------------------------------------------------------------------
# full-grid comparison: fail-closed bookkeeping (oracle stubbed out)
# ---------------------------------------------------------------------------

def _flat_fit(link):
    """Pump-free fit: every channel decays with the fibre loss alone."""
    params = ProfileParams(alpha=link.span.attenuation, c_f=0.0, c_b=0.0,
                           alpha_f=link.span.attenuation,
                           alpha_b=link.span.attenuation,
                           p_f=link.grid.total_launch_power(0), p_b=0.0,
                           f_hat=link.grid.band_center)
    return FitReport(tuple(
        ChannelFit(params=params, rms_db=0.0, n_eval=1, converged=True)
        for _ in range(link.grid.n_channels)))


def _stub_oracle(monkeypatch, link, xpm):
    """Replace both eta oracles by ``xpm(i, k) -> EtaEstimate`` lookups."""
    index = {ch.center_frequency: j for j, ch in enumerate(link.grid.channels)}
    monkeypatch.setattr(
        oracle, "eta_xpm_numeric",
        lambda ch_i, ch_k, *a, **kw: xpm(index[ch_i.center_frequency],
                                         index[ch_k.center_frequency]))
    monkeypatch.setattr(oracle, "eta_spm_numeric",
                        lambda *a, **kw: EtaEstimate(1.0, 0.0, True))


def test_compare_rejects_non_finite_oracle_row(lumped_scenario, monkeypatch):
    link = lumped_scenario.link
    fit = _flat_fit(link)
    _stub_oracle(monkeypatch, link, lambda i, k: EtaEstimate(
        math.nan if i == 2 else 0.5, 0.0, True))
    with pytest.raises(NumericalError, match=r"\[2\]"):
        oracle.compare_closed_vs_oracle(link, fit)
    with pytest.raises(NumericalError):
        oracle.compare_closed_vs_oracle(link, fit, channels=(2,))
    # the NaN row left out: compared rows are finite, the rest read 0 dB
    report = oracle.compare_closed_vs_oracle(link, fit, channels=(0, 1))
    assert np.all(np.isfinite(report.delta_db))
    assert np.all(report.delta_db[2:] == 0.0)
    assert np.all(report.delta_db[:2] != 0.0)


def test_compare_reports_unconverged_rows(lumped_scenario, monkeypatch):
    link = lumped_scenario.link
    fit = _flat_fit(link)
    _stub_oracle(monkeypatch, link, lambda i, k: EtaEstimate(
        0.5, 1e-3, not (i == 1 and k == 7)))
    report = oracle.compare_closed_vs_oracle(link, fit, channels=(0, 1, 2))
    assert report.converged.dtype == bool
    assert report.converged.tolist() == [True, False] + [True] * 7
    assert report.to_csv().splitlines()[0] == (
        "channel,f_i_hz,eta_closed_per_w2,eta_numeric_per_w2,delta_db,"
        "quadrature_error_estimate")


def test_compare_refuses_duplicate_and_out_of_range_rows(lumped_scenario,
                                                         monkeypatch):
    """Rows asked for twice or outside the 9-channel grid are refused,
    every one named, before any oracle call."""
    link = lumped_scenario.link
    calls = []
    _stub_oracle(monkeypatch, link, lambda i, k: calls.append((i, k)))
    monkeypatch.setattr(oracle, "eta_spm_numeric",
                        lambda *a, **kw: calls.append(a))
    for channels, named in (
            ((4, 4), r"9-channel grid.*: duplicate channel\(s\) \[4\]$"),
            ((9,), r": out-of-range channel\(s\) \[9\]$"),
            ((-1,), r": out-of-range channel\(s\) \[-1\]$"),
            ((2, 9, 2, -1, 3, 3), r"out-of-range channel\(s\) \[-1, 9\]; "
                                  r"duplicate channel\(s\) \[2, 3\]$")):
        with pytest.raises(ValidationError, match=named):
            oracle.compare_closed_vs_oracle(link, _flat_fit(link),
                                            channels=channels)
    assert calls == []


def test_compare_rows_are_integer_indices(lumped_scenario, monkeypatch):
    """A bool row is the integer it equals, not a numpy mask that writes
    every row's XPM, and a float row is refused."""
    link = lumped_scenario.link
    _stub_oracle(monkeypatch, link, lambda i, k: EtaEstimate(0.5, 0.0, True))
    report = oracle.compare_closed_vs_oracle(link, _flat_fit(link),
                                             channels=(True,))
    assert np.flatnonzero(report.eta_numeric).tolist() == [1]
    with pytest.raises(TypeError):
        oracle.compare_closed_vs_oracle(link, _flat_fit(link),
                                        channels=(1.5,))


def test_compare_contracts_each_channel_once(lumped_scenario,
                                            fixed_params, monkeypatch):
    """compare contracts every channel's tilt terms in one call, the
    kernel's; its closed columns equal per-pair evaluations on fresh
    terms, and its closed eta equals eta_total's, bit for bit.  Rows left
    out read 0 in both closed columns."""
    link = lumped_scenario.link
    span, grid = link.span, link.grid
    f_ref = grid.band_center
    fit = FitReport(tuple(
        ChannelFit(params=fixed_params, rms_db=0.0, n_eval=1, converged=True)
        for _ in range(grid.n_channels)))

    def fresh_terms(j):
        return closed_form_terms(fixed_params,
                                 grid.channels[j].center_frequency,
                                 span.length)

    spm = np.array([eta_spm(ch, fresh_terms(i), span, f_ref=f_ref)
                    for i, ch in enumerate(grid.channels)])
    xpm = np.zeros((grid.n_channels, grid.n_channels))
    for i, ch_i in enumerate(grid.channels):
        for k, ch_k in enumerate(grid.channels):
            if k != i:
                xpm[i, k] = eta_xpm_pair(ch_i, ch_k, fresh_terms(k), span,
                                         f_ref=f_ref)
    total = eta_total(link, fit).eta_total

    _stub_oracle(monkeypatch, link, lambda i, k: EtaEstimate(0.5, 0.0, True))
    calls = []
    contract = closedform._contract
    monkeypatch.setattr(closedform, "_contract",
                        lambda *a: calls.append(a) or contract(*a))
    report = oracle.compare_closed_vs_oracle(link, fit)
    assert len(calls) == 1
    np.testing.assert_array_equal(report.spm_closed, spm)
    np.testing.assert_array_equal(report.xpm_closed, xpm)
    np.testing.assert_array_equal(report.eta_closed, total)

    rows = [0, 4]
    part = oracle.compare_closed_vs_oracle(link, fit, channels=rows)
    assert len(calls) == 2
    left_out = np.ones(grid.n_channels, dtype=bool)
    left_out[rows] = False
    np.testing.assert_array_equal(part.spm_closed[rows], spm[rows])
    np.testing.assert_array_equal(part.xpm_closed[rows], xpm[rows])
    np.testing.assert_array_equal(part.eta_closed[rows], total[rows])
    assert np.all(part.spm_closed[left_out] == 0.0)
    assert np.all(part.xpm_closed[left_out] == 0.0)
    assert np.all(part.eta_closed[left_out] == 0.0)


def test_compare_refuses_a_fit_of_another_grid(lumped_scenario,
                                               monkeypatch):
    """An 8-channel fit on the 9-channel grid is refused as eta_total
    refuses it, before any oracle call; it used to end in an IndexError."""
    link = lumped_scenario.link
    calls = []
    _stub_oracle(monkeypatch, link, lambda i, k: calls.append((i, k)))
    fit = _flat_fit(link)
    short = FitReport(fit.channel_fits[:8])
    with pytest.raises(ValidationError,
                       match=r"^fit covers 8 channels but the grid has 9$"):
        oracle.compare_closed_vs_oracle(link, short)
    assert calls == []


def test_compare_refuses_a_phase_matched_pair(lumped_scenario, monkeypatch):
    """beta2 = 0 and offsets +-0.1 THz zero the pair phase factor: compare
    refuses the link with the kernel's error, as nli does, and makes no
    oracle call."""
    base = lumped_scenario.link
    grid = WdmGrid(tuple(Channel(f, 1e11, (1e-3,))
                         for f in (193.0e12, 193.2e12)))
    link = replace(base, span=replace(base.span, beta2=0.0), grid=grid)
    calls = []
    _stub_oracle(monkeypatch, link, lambda i, k: calls.append((i, k)))
    monkeypatch.setattr(oracle, "eta_spm_numeric",
                        lambda *a, **kw: calls.append(a))
    with pytest.raises(DegenerateDispersionError,
                       match=re.escape("phi_ik vanishes for pair(s) (i, k) "
                                       "[(0, 1), (1, 0)]")):
        oracle.compare_closed_vs_oracle(link, _flat_fit(link))
    assert calls == []


def _three_span_lumped(scenario):
    """``lumped_9ch.json`` over three spans at per-span powers (1,
    2 (1 + 0.1 i), 0.5) mW on channel i, epsilon = 0.05, and its fit."""
    base = scenario.link
    grid = WdmGrid(tuple(
        Channel(c.center_frequency, c.bandwidth,
                (1e-3, 2e-3 * (1.0 + 0.1 * i), 0.5e-3))
        for i, c in enumerate(base.grid.channels)))
    link = replace(base, span_count=3, grid=grid, coherence_epsilon=0.05)
    evolution = solve_power_evolution(link, steps=scenario.solver_steps)
    return link, fit_profile(evolution, link, **scenario.fit_overrides)


def test_compare_sums_spans_as_eta_total(lumped_scenario):
    """With per-span powers and epsilon > 0, compare's closed eta is
    eta_total's bit for bit, and every row converges within 0.5 dB of the
    oracle.  Both sides used to take the span count and the first span's
    powers per pair, 3.3-6.3 dB below eta_total."""
    link, fit = _three_span_lumped(lumped_scenario)
    report = oracle.compare_closed_vs_oracle(
        link, fit, spec=lumped_scenario.quadrature)
    np.testing.assert_array_equal(report.eta_closed,
                                  eta_total(link, fit).eta_total)
    assert report.converged.all()
    assert report.max_abs_delta_db <= 0.5


# ---------------------------------------------------------------------------
# identity suite (short randomized run; the full run is in acceptance)
# ---------------------------------------------------------------------------

# (name, max_rel_error, max_tail) of each check at (12 draws, seed 7): pins
# the order in which the identities take their draws from the one generator
_SHORT_RUN = (
    ("multinomial", 1.0586517582436051e-14, 0.0),
    ("complex_modulus", 2.4022384737822264e-16, 0.0),
    ("rational_atan", 2.735523333444127e-16, 0.0),
    ("rational_trig", 3.7668371505595766e-16, 0.0),
    ("quartic_asinh", 2.605801356505189e-16, 0.0),
    ("improper_cos", 2.8054672944430464e-15, 0.0007433036316822758),
    ("improper_sin", 1.6893130830507057e-13, 4.735829805929399e-05),
)


def test_identity_suite_short_run():
    report = verify_identities(n_draws=12, seed=7)
    assert report.all_passed
    assert len(report.checks) >= 5
    assert [(c.name, c.max_rel_error, c.max_tail)
            for c in report.checks] == list(_SHORT_RUN)


def test_identity_suite_fails_on_a_nan_quadrature(monkeypatch):
    """With every second adaptive quadrature NaN, each check that
    integrates reads NaN and fails, where the two without a quadrature
    still pass.  With only the improper integrals' tails NaN, those two
    checks fail, though every error they compare is finite."""
    import scipy.integrate

    quad, calls = scipy.integrate.quad, []

    def every_second_nan(*args, **kwargs):
        calls.append(None)
        return (math.nan, 0.0) if len(calls) % 2 else quad(*args, **kwargs)

    def tail_nan(f, lo, hi, **kwargs):
        return (math.nan, 0.0) if lo > 0.0 else quad(f, lo, hi, **kwargs)

    for patch, failing in ((every_second_nan, 5), (tail_nan, 2)):
        monkeypatch.setattr(scipy.integrate, "quad", patch)
        report = verify_identities(n_draws=12, seed=7)
        assert not report.all_passed
        assert [c.passed for c in report.checks] == (
            [True] * (7 - failing) + [False] * failing)
        assert all(math.isnan(c.max_rel_error)
                   for c in report.checks[7 - failing:])
