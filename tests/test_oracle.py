"""Numerical-integration oracle: moments, link function, 2D eta, identities.

The frozen reference numbers in this module were produced by the oracle
itself at its tightest settings and cross-validated against brute-force
dense tensor quadrature; they pin the quadrature machinery against
regressions.
"""

import math
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
    eta_xpm_pair,
    mu_closed,
    mu_numeric,
    phase_mismatch,
    verify_identities,
)
from ramangn import closedform, oracle
from ramangn.errors import (NumericalError, ProfileDomainError,
                            ValidationError)
from ramangn.oracle import (_N_ZETA_DEG, EtaEstimate, _PairEngine,
                            _filon_moments)
from ramangn.profile import ChannelFit, FitReport, ProfileParams

from conftest import ALPHA_02_DB_KM

_L = 80e3
_F_REF = 193.4e12  # band center of the 40 x 100 GHz reference grid


def _channel(i):
    return Channel(191.45e12 + 0.1e12 * i, 100e9, (1e-3,))


# ---------------------------------------------------------------------------
# oscillatory moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("theta", [0.0, 0.3, 3.9, 4.1, 40.0, 4000.0])
def test_filon_moments_match_weighted_quadrature(theta):
    """Every moment the zeta-panel kernel uses, both sides of the split
    between the power series and the upward recurrence."""
    from scipy.integrate import quad

    moments = _filon_moments(np.array([theta]), _N_ZETA_DEG)[:, 0]
    for m in range(_N_ZETA_DEG + 1):
        if theta == 0.0:
            re = (1.0 + (-1.0) ** m) / (m + 1)
            im = 0.0
        else:
            re = quad(lambda t: t ** m, -1, 1, weight="cos", wvar=theta)[0]
            im = quad(lambda t: t ** m, -1, 1, weight="sin", wvar=theta)[0]
        assert moments[m].real == pytest.approx(re, abs=1e-13)
        assert moments[m].imag == pytest.approx(im, abs=1e-13)


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


@pytest.mark.parametrize("pair", [(19, 25), (25, 19), (0, 39)])
def test_domain_edges_match_scalar_root_search(fixed_params, reference_span,
                                               pair):
    """The batched D(phi) edges against a per-phase scan of the f2 grid with
    brentq on the continuous extreme phase."""
    from scipy.optimize import brentq

    i, k = pair
    rho = TaylorProfile(fixed_params, _L)
    engine = _PairEngine(rho, reference_span, _channel(i), _channel(k),
                         _F_REF)
    assert engine._sw is not None
    f2d = engine._sw["f2d"]
    for side in (1, -1):
        p = engine._sw["p_hi"] if side > 0 else engine._sw["p_lo"]
        phis = np.linspace(p.min(), p.max(), 301)
        phis = phis[side * phis > 0.0]
        rows, left, right = engine._domain_edges(phis, side)
        expected = []
        for j, phi in enumerate(phis):
            inside = np.flatnonzero(side * p >= side * phi)
            runs = np.split(inside, np.flatnonzero(np.diff(inside) > 1) + 1)
            for run in runs:
                if run.size == 0:
                    continue

                def gap(x, phi=phi):
                    return float(engine._p_end(x, side)) - phi

                i0, i1 = run[0], run[-1]
                lo = f2d[i0] if i0 == 0 else brentq(
                    gap, f2d[i0 - 1], f2d[i0], rtol=1e-12)
                hi = f2d[i1] if i1 == f2d.size - 1 else brentq(
                    gap, f2d[i1], f2d[i1 + 1], rtol=1e-12)
                if hi > lo:
                    expected.append((j, lo, hi))
        assert rows.tolist() == [e[0] for e in expected]
        # both solvers stop within 2e-12 + 1e-12 |x| of the root
        np.testing.assert_allclose(left, [e[1] for e in expected],
                                   rtol=2e-12, atol=4e-12)
        np.testing.assert_allclose(right, [e[2] for e in expected],
                                   rtol=2e-12, atol=4e-12)


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
    assert est.value == pytest.approx(_FROZEN_SPM_19, rel=5e-6)


def test_swapped_and_direct_integration_orders_agree(fixed_params,
                                                     reference_span,
                                                     monkeypatch):
    """Force the direct (f1-then-f2) fallback and compare with the default
    swapped-order evaluation of the same pair."""
    rho = TaylorProfile(fixed_params, _L)
    spec = QuadratureSpec()
    default = eta_xpm_numeric(_channel(19), _channel(25), rho,
                              reference_span, spec, f_ref=_F_REF)
    monkeypatch.setattr(_PairEngine, "eta_swapped",
                        lambda self, level: None)
    fallback = eta_xpm_numeric(_channel(19), _channel(25), rho,
                               reference_span, spec, f_ref=_F_REF)
    assert default.converged
    assert fallback.value == pytest.approx(default.value, rel=1e-4)


@pytest.mark.xfail(strict=True, reason="the direct-order fallback stops at "
                   "max_refinements on pair (19, 25) with an error estimate "
                   "of about 2.2e-4")
def test_direct_integration_order_converges(fixed_params, reference_span,
                                            monkeypatch):
    monkeypatch.setattr(_PairEngine, "eta_swapped",
                        lambda self, level: None)
    fallback = eta_xpm_numeric(_channel(19), _channel(25),
                               TaylorProfile(fixed_params, _L),
                               reference_span, QuadratureSpec(), f_ref=_F_REF)
    assert fallback.converged


def test_integration_order_per_pair(fixed_params, reference_span):
    """The swapped (phi, f2) order serves every XPM pair of rows 0, 19 and
    39 of the reference grid, and the direct order every SPM channel."""
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


def test_eta_oracle_rejects_identical_pair(fixed_params, reference_span):
    rho = TaylorProfile(fixed_params, _L)
    with pytest.raises(ValidationError):
        eta_xpm_numeric(_channel(5), _channel(5), rho, reference_span)


def test_eta_estimate_float_conversion():
    est = EtaEstimate(2.5, 1e-9, True)
    assert float(est) == 2.5


def test_quadrature_spec_validation():
    with pytest.raises(ValidationError):
        QuadratureSpec(max_refinements=11)


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
        pm = phase_mismatch(reference_span,
                            ch_i.center_frequency - _F_REF,
                            ch_k.center_frequency - _F_REF)
        closed = eta_xpm_pair(ch_i, ch_k, terms_k, pm, reference_span, 1)
        numeric = eta_xpm_numeric(ch_i, ch_k, rho, reference_span, spec,
                                  f_ref=_F_REF).value
        assert abs(10.0 * math.log10(closed / numeric)) <= gate_db


def test_closed_form_tracks_oracle_spm(fixed_params, reference_span):
    rho = TaylorProfile(fixed_params, _L)
    ch = _channel(19)
    terms = closed_form_terms(fixed_params, ch.center_frequency, _L)
    pm = phase_mismatch(reference_span, ch.center_frequency - _F_REF)
    closed = eta_spm(ch, terms, pm, reference_span, 1)
    numeric = eta_spm_numeric(ch, rho, reference_span, QuadratureSpec(),
                              f_ref=_F_REF).value
    assert abs(10.0 * math.log10(closed / numeric)) <= 0.1


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


def test_compare_contracts_each_channel_once(lumped_scenario,
                                            fixed_params, monkeypatch):
    """compare contracts each channel's tilt terms once for all the pairs
    they serve, and its closed columns equal per-pair evaluations on fresh
    terms bit for bit."""
    link = lumped_scenario.link
    span, grid = link.span, link.grid
    n, f_ref = link.span_count, grid.band_center
    fit = FitReport(tuple(
        ChannelFit(params=fixed_params, rms_db=0.0, n_eval=1, converged=True)
        for _ in range(grid.n_channels)))

    def fresh_terms(j):
        return closed_form_terms(fixed_params,
                                 grid.channels[j].center_frequency,
                                 span.length)

    offsets = grid.frequencies - f_ref
    spm = np.array([
        eta_spm(ch, fresh_terms(i), phase_mismatch(span, offsets[i]), span,
                n, link.coherence_epsilon)
        for i, ch in enumerate(grid.channels)])
    xpm = np.zeros((grid.n_channels, grid.n_channels))
    for i, ch_i in enumerate(grid.channels):
        for k, ch_k in enumerate(grid.channels):
            if k != i:
                xpm[i, k] = eta_xpm_pair(
                    ch_i, ch_k, fresh_terms(k),
                    phase_mismatch(span, offsets[i], offsets[k]), span, n)

    _stub_oracle(monkeypatch, link, lambda i, k: EtaEstimate(0.5, 0.0, True))
    calls = []
    contract = closedform._contract
    monkeypatch.setattr(closedform, "_contract",
                        lambda *a: calls.append(a) or contract(*a))
    report = oracle.compare_closed_vs_oracle(link, fit)
    assert len(calls) == grid.n_channels
    np.testing.assert_array_equal(report.spm_closed, spm)
    np.testing.assert_array_equal(report.xpm_closed, xpm)
    np.testing.assert_array_equal(report.eta_closed, spm + xpm.sum(axis=1))


# ---------------------------------------------------------------------------
# identity suite (short randomized run; the full run is in acceptance)
# ---------------------------------------------------------------------------

def test_identity_suite_short_run():
    report = verify_identities(n_draws=12, seed=7)
    assert report.all_passed
    assert len(report.checks) >= 5
