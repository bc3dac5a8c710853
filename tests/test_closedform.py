"""Closed-form NLI machinery: tilt decomposition, link function, eta, SNR."""

import math
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramangn import (
    Channel,
    ChannelFit,
    FiberSpan,
    FitReport,
    LinkConfig,
    SnrBudget,
    WdmGrid,
    assemble_snr,
    closed_form_terms,
    eta_spm,
    eta_total,
    eta_xpm_pair,
    mu_closed,
)
from ramangn import closedform, profile
from ramangn.closedform import (_check_rate_sums, _contract, _phi_pair,
                                _phi_self, _spm_eta, _terms_arrays, _xpm_eta)
from ramangn.errors import (DegenerateDispersionError, NumericalError,
                            ValidationError)
from ramangn.oracle import TaylorProfile
from ramangn.profile import ProfileParams, profile_margin, tilt_integral

from conftest import ALPHA_02_DB_KM
from reference import mu_numeric

_L = 80e3


def _params(**kwargs):
    base = dict(alpha=ALPHA_02_DB_KM, c_f=2.0e-18, c_b=1.2e-18,
                alpha_f=1.1 * ALPHA_02_DB_KM, alpha_b=0.9 * ALPHA_02_DB_KM,
                p_f=0.04, p_b=0.6, f_hat=206.6e12)
    base.update(kwargs)
    return ProfileParams(**base)


def _fit_report(params_list):
    return FitReport(tuple(
        ChannelFit(params=p, rms_db=0.0, n_eval=1, converged=True)
        for p in params_list
    ))


def _param_rows(params_list):
    """The (8, n) parameter array of ``_terms_arrays``, built here from the
    records, independently of ``FitReport``'s."""
    return np.array([astuple(p) for p in params_list], dtype=float).T


# ---------------------------------------------------------------------------
# tilt decomposition
# ---------------------------------------------------------------------------

def _tilt_reconstruction(terms, zeta):
    """1 - x(zeta) (f_i - f_hat) rebuilt from the three-term decomposition:
    sum_l Upsilon_l kappa_b,l exp(-(alpha_l - alpha) zeta)."""
    rates = terms.alpha_l - terms.alpha  # l1 alpha_f - l2 alpha_b
    return np.sum(terms.upsilon * terms.kappa_b
                  * np.exp(-np.multiply.outer(zeta, rates)), axis=-1)


def test_tilt_reconstruction_is_one_at_launch():
    terms = closed_form_terms(_params(), 193.4e12, _L)
    assert _tilt_reconstruction(terms, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_tilt_reconstruction_matches_profile_factor():
    p = _params()
    f_i = 192.0e12
    terms = closed_form_terms(p, f_i, _L)
    z = np.linspace(0.0, _L, 257)
    direct = 1.0 - tilt_integral(p, z, _L) * (f_i - p.f_hat)
    assert np.allclose(_tilt_reconstruction(terms, z), direct, rtol=1e-12)


def test_terms_collapse_without_raman_tilt():
    terms = closed_form_terms(_params(c_f=0.0, c_b=0.0), 193.4e12, _L)
    assert np.allclose(terms.upsilon, [1.0, 0.0, 0.0])
    assert terms.kappa_f[0] == pytest.approx(math.exp(-terms.alpha * _L))
    assert terms.kappa_b[0] == 1.0


def test_zero_tilt_factor_is_accepted():
    """T, the constant tilt term, is zero here, yet the profile factor
    1 - x d runs from 1 to about 27.5 over the span: T does not decide the
    profile's domain, and the closed form is exact on it."""
    p0 = _params(c_f=0.0)
    f_i = 193.4e12
    d = f_i - p0.f_hat
    c_b = -p0.alpha_b * math.exp(p0.alpha_b * _L) / (p0.p_b * d)
    params = _params(c_f=0.0, c_b=c_b)
    terms = closed_form_terms(params, f_i, _L)
    assert abs(terms.upsilon[0]) < 1e-12
    factor = 1.0 - tilt_integral(params, np.linspace(0.0, _L, 257), _L) * d
    assert factor.min() == pytest.approx(1.0)
    assert factor.max() == pytest.approx(27.5, rel=1e-2)
    assert profile_margin(params, _L, d, d)[0] == pytest.approx(1.0)
    rho = TaylorProfile(params, _L)
    for phi in (1e-5, 3.3e-4, -2e-3):
        numeric = mu_numeric(f_i, f_i, f_i, rho, phi, _L)
        assert float(mu_closed(phi, terms)) == pytest.approx(numeric,
                                                             rel=1e-12)


# ---------------------------------------------------------------------------
# link function
# ---------------------------------------------------------------------------

def _mu_complex_modulus(phi, terms):
    """|sum_l Upsilon_l (kappa_f e^{j phi L} - kappa_b) / (-alpha_l + j phi)|^2,
    the modulus form of the link function (zero-weight terms left out)."""
    active = terms.upsilon != 0.0
    s = np.sum(terms.upsilon[active]
               * (terms.kappa_f[active] * np.exp(1j * phi * terms.length)
                  - terms.kappa_b[active])
               / (-terms.alpha_l[active] + 1j * phi))
    return abs(s) ** 2


@given(
    c_f=st.floats(min_value=0.0, max_value=4e-18),
    c_b=st.floats(min_value=0.0, max_value=1.5e-18),
    d=st.floats(min_value=-14e12, max_value=-2e12),
    phi=st.floats(min_value=-1e-2, max_value=1e-2),
)
@settings(max_examples=80, deadline=None)
def test_mu_grouped_equals_complex_modulus(c_f, c_b, d, phi):
    p = _params(c_f=c_f, c_b=c_b)
    terms = closed_form_terms(p, p.f_hat + d, _L)
    grouped = float(mu_closed(phi, terms))
    modulus = _mu_complex_modulus(phi, terms)
    assert grouped == pytest.approx(modulus, rel=1e-10, abs=1e-30)


def test_mu_accepts_arrays():
    terms = closed_form_terms(_params(), 193.4e12, _L)
    phi = np.array([1e-5, 1e-4, 1e-3])
    out = mu_closed(phi, terms)
    assert out.shape == (3,)
    assert np.all(out > 0)


def test_mu_lumped_analytic():
    """Without Raman tilt, mu reduces to the plain lossy-fibre efficiency."""
    a = ALPHA_02_DB_KM
    terms = closed_form_terms(_params(c_f=0.0, c_b=0.0), 193.4e12, _L)
    for phi in (1e-5, 3.3e-4, -2e-3):
        expected = ((1.0 + math.exp(-2 * a * _L)
                     - 2.0 * math.exp(-a * _L) * math.cos(phi * _L))
                    / (a * a + phi * phi))
        assert float(mu_closed(phi, terms)) == pytest.approx(expected,
                                                             rel=1e-12)


def test_mu_at_zero_phase_is_squared_area():
    """Pump-free profiles; with alpha_b = alpha the backward term has
    weight 0 and rate 0, and drops out instead of giving 0/0 at phi = 0."""
    a = ALPHA_02_DB_KM
    area = (1.0 - math.exp(-a * _L)) / a
    for alpha_b in (0.9 * a, a):
        terms = closed_form_terms(_params(c_f=0.0, c_b=0.0, alpha_b=alpha_b),
                                  193.4e12, _L)
        assert float(mu_closed(0.0, terms)) == pytest.approx(area ** 2,
                                                             rel=1e-12)


# ---------------------------------------------------------------------------
# phase mismatch
# ---------------------------------------------------------------------------

def _span(**kwargs):
    base = dict(length=_L, beta2=-21.7e-27, beta3=0.14e-39, gamma=1.2e-3,
                attenuation=ALPHA_02_DB_KM, raman_slope=2.8e-17)
    base.update(kwargs)
    return FiberSpan(**base)


def test_phase_mismatch_pair_antisymmetry():
    span = _span()
    f_i, f_k = -1.95e12, 0.55e12
    assert _phi_pair(span, f_i, f_k) == pytest.approx(
        -_phi_pair(span, f_k, f_i), rel=1e-15
    )


def test_phase_mismatch_degenerate_pair_raises():
    # beta2 = 0 and offsets summing to zero zero out the pair factor
    span = _span(beta2=0.0)
    ch_i = Channel(192.9e12, 100e9, (1e-3,))
    ch_k = Channel(193.9e12, 100e9, (1e-3,))
    terms_k = closed_form_terms(_params(), ch_k.center_frequency, _L)
    with pytest.raises(DegenerateDispersionError, match="pair phase factor"):
        eta_xpm_pair(ch_i, ch_k, terms_k, span, f_ref=193.4e12)


def test_spm_degenerate_dispersion_raises():
    span = _span(beta2=0.0, beta3=0.0)
    ch = Channel(193.4e12, 100e9, (1e-3,))
    terms = closed_form_terms(_params(), ch.center_frequency, _L)
    with pytest.raises(DegenerateDispersionError):
        eta_spm(ch, terms, span, f_ref=193.4e12)


# ---------------------------------------------------------------------------
# eta building blocks
# ---------------------------------------------------------------------------

def test_xpm_power_ratio_scaling():
    """The per-pair XPM eta reads no launch power; eta_total's XPM of
    channel i carries (P_k/P_i)^2: doubling channel 1's power multiplies
    channel 0's XPM by 4 and its own by 1/4."""
    span = _span()
    ch_i = Channel(193.0e12, 100e9, (1e-3,))
    ch_k = Channel(193.5e12, 100e9, (1e-3,))
    doubled_k = Channel(193.5e12, 100e9, (2e-3,))
    terms_k = closed_form_terms(_params(), ch_k.center_frequency, _L)
    assert eta_xpm_pair(ch_i, doubled_k, terms_k, span, f_ref=193.4e12) == \
        eta_xpm_pair(ch_i, ch_k, terms_k, span, f_ref=193.4e12)
    fit = _fit_report(_per_channel_params(2))
    cfg = LinkConfig(span=span, span_count=1, grid=WdmGrid((ch_i, ch_k)))
    base = eta_total(cfg, fit).eta_xpm
    doubled = eta_total(_relinked(cfg, [[1e-3, 2e-3]]), fit).eta_xpm
    assert doubled == pytest.approx([4.0 * base[0], 0.25 * base[1]],
                                    rel=1e-14)


def test_xpm_span_count_is_linear():
    """Three spans at equal powers carry three times one span's XPM, and
    one span's is the per-pair eta_xpm_pair."""
    cfg = _pumped_link(2)
    fit = _fit_report(_per_channel_params(2))
    one = eta_total(cfg, fit).eta_xpm
    three = eta_total(_pumped_link(2, spans=3), fit).eta_xpm
    assert three == pytest.approx(3.0 * one, rel=1e-14)
    ch_i, ch_k = cfg.grid.channels
    terms_k = closed_form_terms(fit.channel_fits[1].params,
                                ch_k.center_frequency, _L)
    assert one[0] == pytest.approx(
        eta_xpm_pair(ch_i, ch_k, terms_k, cfg.span,
                     f_ref=cfg.grid.band_center), rel=1e-14)


def test_spm_coherent_accumulation_exponent():
    """n spans at equal powers carry n^{1+epsilon} times one span's SPM,
    and one span's is the per-pair eta_spm."""
    cfg = _pumped_link(2)
    fit = _fit_report(_per_channel_params(2))
    p = cfg.grid.launch_powers(0)
    one = eta_total(_relinked(cfg, [p], epsilon=0.1), fit).eta_spm
    four = eta_total(_relinked(cfg, [p] * 4, epsilon=0.1), fit).eta_spm
    assert four == pytest.approx(4.0 ** 1.1 * one, rel=1e-14)
    ch = cfg.grid.channels[0]
    terms = closed_form_terms(fit.channel_fits[0].params,
                              ch.center_frequency, _L)
    assert one[0] == pytest.approx(
        eta_spm(ch, terms, cfg.span, f_ref=cfg.grid.band_center), rel=1e-14)


def test_xpm_requires_distinct_channels():
    span = _span()
    ch = Channel(193.4e12, 100e9, (1e-3,))
    terms = closed_form_terms(_params(), ch.center_frequency, _L)
    with pytest.raises(ValidationError):
        eta_xpm_pair(ch, ch, terms, span, f_ref=193.4e12)


@pytest.mark.parametrize("value", [0.0, math.nan, -50e9])
@pytest.mark.parametrize("kind, field", [
    ("spm", "bandwidth_i"), ("spm", "length"), ("xpm", "bandwidth_i"),
    ("xpm", "bandwidth_k"), ("xpm", "length")])
def test_per_pair_eta_refuses_bad_records(kind, field, value):
    """Hand-built records reach the per-pair functions unchecked: an
    interferer bandwidth of 0, NaN or -50 GHz used to give eta_xpm_pair
    inf, nan and -5.39 where eta_spm refused the same records."""
    span = _span()
    ch_i = Channel(193.0e12, 100e9, (1e-3,))
    ch_k = Channel(193.5e12, 100e9, (1e-3,))
    terms = closed_form_terms(_params(), ch_k.center_frequency, _L)
    if field == "length":
        span = replace(span, length=value)
    elif field == "bandwidth_i":
        ch_i = replace(ch_i, bandwidth=value)
    else:
        ch_k = replace(ch_k, bandwidth=value)
    with pytest.raises(ValidationError, match="positive bandwidths and span"):
        if kind == "spm":
            eta_spm(ch_i, terms, span, f_ref=193.4e12)
        else:
            eta_xpm_pair(ch_i, ch_k, terms, span, f_ref=193.4e12)


# ---------------------------------------------------------------------------
# whole-grid accumulation
# ---------------------------------------------------------------------------

def _pumped_link(n_ch=5, spans=1):
    grid = WdmGrid(tuple(
        Channel(192.0e12 + 0.5e12 * i, 100e9, (1e-3,) * spans)
        for i in range(n_ch)
    ))
    return LinkConfig(span=_span(), span_count=spans, grid=grid)


def _per_channel_params(n_ch):
    """Slightly different params per channel to exercise pair indexing."""
    return [_params(c_f=2.0e-18 * (1 + 0.05 * i),
                    c_b=1.2e-18 * (1 - 0.03 * i)) for i in range(n_ch)]


def _relinked(cfg, powers, span=None, epsilon=0.0):
    """``cfg`` with launch powers ``powers[j, i]`` (span j, channel i)."""
    powers = np.asarray(powers, dtype=float)
    grid = WdmGrid(tuple(
        Channel(c.center_frequency, c.bandwidth, tuple(powers[:, i]))
        for i, c in enumerate(cfg.grid.channels)))
    return LinkConfig(span=span or cfg.span, span_count=powers.shape[0],
                      grid=grid, coherence_epsilon=epsilon)


def _per_pair_reference(cfg, fit):
    """eta per channel from the public per-pair functions, span by span.

    Span j contributes (P_ij/P_i0)^2 [eta_spm n^eps + sum_k eta_xpm_pair
    (P_kj/P_ij)^2], the per-pair terms being one span's at equal powers.
    """
    span, grid = cfg.span, cfg.grid
    n, f_ref = cfg.span_count, grid.band_center
    terms = [closed_form_terms(fit.channel_fits[i].params,
                               ch.center_frequency, span.length)
             for i, ch in enumerate(grid.channels)]
    eta = np.zeros(grid.n_channels)
    for j in range(n):
        p = [c.launch_power_per_span[j] for c in grid.channels]
        for i, ch_i in enumerate(grid.channels):
            total = eta_spm(ch_i, terms[i], span,
                            f_ref=f_ref) * n ** cfg.coherence_epsilon
            for k, ch_k in enumerate(grid.channels):
                if k != i:
                    total += (eta_xpm_pair(ch_i, ch_k, terms[k], span,
                                           f_ref=f_ref)
                              * (p[k] / p[i]) ** 2)
            eta[i] += (p[i] / ch_i.launch_power_per_span[0]) ** 2 * total
    return eta


def _reference_case(name):
    """(link, fit) of one reference case; powers differ by up to +-3 dB."""
    # four channels: offsets -0.75, -0.25, 0.25, 0.75 THz from the center
    cfg = _pumped_link(4)
    fit = _fit_report(_per_channel_params(4))
    rng = np.random.default_rng(11)
    p0 = cfg.grid.launch_powers(0)
    powers = p0 * 10.0 ** (rng.uniform(-0.3, 0.3, (3, 4)))
    powers[0] = p0
    if name == "uniform":
        return _relinked(cfg, np.tile(p0, (3, 1)), epsilon=0.05), fit
    if name == "per_span":
        return _relinked(cfg, powers, epsilon=0.05), fit
    if name == "degenerate":
        # beta2 = 0: the pairs whose offsets sum to zero are phase-matched
        return _relinked(cfg, powers[:2], span=_span(beta2=0.0)), fit
    # pump-free fit: zero-weight terms with alpha_l = alpha - alpha_b = 0
    a = ALPHA_02_DB_KM
    pump_free = _fit_report([_params(c_f=0.0, c_b=0.0, alpha_f=a, alpha_b=a,
                                     p_b=0.0)] * 4)
    return _relinked(cfg, powers[:2]), pump_free


@pytest.mark.parametrize("case", ["uniform", "per_span", "degenerate",
                                  "pump_free"])
def test_eta_total_matches_per_pair_reference(case):
    """eta_total's span sum equals the per-pair terms summed by hand; a
    phase-matched pair is refused by both, every such pair named."""
    cfg, fit = _reference_case(case)
    if case == "degenerate":
        with pytest.raises(DegenerateDispersionError,
                           match=r"phi_ik vanishes for pair\(s\) \(i, k\) "
                                 r"\[\(0, 3\), \(1, 2\), \(2, 1\), "
                                 r"\(3, 0\)\]$"):
            eta_total(cfg, fit)
        with pytest.raises(DegenerateDispersionError,
                           match="pair phase factor"):
            _per_pair_reference(cfg, fit)
        return
    report = eta_total(cfg, fit)
    assert np.allclose(report.eta_total, _per_pair_reference(cfg, fit),
                       rtol=1e-12, atol=0.0)
    assert np.all(report.eta_spm > 0.0)


@given(
    n_spans=st.integers(min_value=2, max_value=4),
    db=st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=20,
                max_size=20),
    epsilon=st.sampled_from([0.0, 0.05]),
)
@settings(max_examples=40, deadline=None)
def test_per_span_powers_sum_incoherently(n_spans, db, epsilon):
    """eta = (1/n) sum_j (P_j/P_0)^2 eta_j, with eta_j the eta of the same
    link with every span at span j's powers."""
    cfg = _pumped_link(5)
    fit = _fit_report(_per_channel_params(5))
    powers = (cfg.grid.launch_powers(0)
              * 10.0 ** (np.array(db[:5 * n_spans]).reshape(n_spans, 5) / 10))
    report = eta_total(_relinked(cfg, powers, epsilon=epsilon), fit)
    expected = sum(
        (powers[j] / powers[0]) ** 2
        * eta_total(_relinked(cfg, np.tile(powers[j], (n_spans, 1)),
                              epsilon=epsilon), fit).eta_total
        for j in range(n_spans)) / n_spans
    assert np.allclose(report.eta_total, expected, rtol=1e-12, atol=0.0)


def _double_sum_bracket(terms, phi, b_i, spm):
    """The (l, l') double sum of the SPM/XPM bracket, term by term."""
    a, up = terms.alpha_l, terms.upsilon
    kf, kb = terms.kappa_f, terms.kappa_b
    uu = np.outer(up, up)
    active = uu != 0.0
    w = np.where(active, uu / np.where(active, np.add.outer(a, a), 1.0), 0.0)
    kff = np.outer(kf, kf) + np.outer(kb, kb)
    kfb_p = np.outer(kf, kb) + np.outer(kb, kf)
    kfb_m = np.outer(kf, kb) - np.outer(kb, kf)
    e = np.exp(-np.abs(a * terms.length))
    a_div = np.where(a == 0.0, 1e-300, a)
    if spm:
        g = np.arcsinh(3.0 * phi * b_i ** 2 / (8.0 * math.pi * a_div))
        c = 4.0 * math.log(math.sqrt(abs(phi) * terms.length
                                     / (2.0 * math.pi)) * b_i)
    else:
        g = np.arctan(phi * b_i / (2.0 * a_div))
        c = math.pi
    s = math.copysign(1.0, phi)
    ca = np.sign(a) * s * e
    bracket = (2.0 * kff * np.add.outer(g, g)
               - c * (kfb_p * np.add.outer(ca, ca)
                      + kfb_m * (-s * e[:, None] + s * e[None, :])))
    return float(np.sum(w * bracket))


@pytest.mark.parametrize("pumped", [True, False], ids=["pumped", "pump_free"])
def test_contracted_bracket_matches_double_sum(pumped):
    """The per-pair terms equal the bracket's (l, l') double sum, and
    eta_total's terms of the two-channel link equal them, the XPM times
    (P_k/P_i)^2."""
    span = _span()
    a = ALPHA_02_DB_KM
    params = (_params() if pumped else
              _params(c_f=0.0, c_b=0.0, alpha_f=a, alpha_b=a, p_b=0.0))
    chans = (Channel(192.5e12, 100e9, (1e-3,)),
             Channel(194.0e12, 50e9, (2e-3,)))
    link = LinkConfig(span=span, span_count=1, grid=WdmGrid(chans))
    f_ref = link.grid.band_center
    report = eta_total(link, _fit_report([params, params]))
    for i, (ch_i, ch_k) in enumerate((chans, chans[::-1])):
        fi = ch_i.center_frequency - f_ref
        fk = ch_k.center_frequency - f_ref
        # the phase factors written out from beta2, beta3
        phi_ik = (-4.0 * math.pi ** 2 * (fk - fi)
                  * (span.beta2 + math.pi * span.beta3 * (fi + fk)))
        phi_i = -4.0 * math.pi ** 2 * (span.beta2
                                       + 2.0 * math.pi * span.beta3 * fi)
        terms_k = closed_form_terms(params, ch_k.center_frequency, _L)
        expected = (32.0 / 27.0 * span.gamma ** 2
                    / (phi_ik * ch_k.bandwidth)
                    * _double_sum_bracket(terms_k, phi_ik, ch_i.bandwidth,
                                          spm=False))
        assert eta_xpm_pair(ch_i, ch_k, terms_k, span,
                            f_ref=f_ref) == pytest.approx(expected, rel=1e-12)
        ratio = ch_k.launch_power_per_span[0] / ch_i.launch_power_per_span[0]
        assert report.eta_xpm[i] == pytest.approx(ratio ** 2 * expected,
                                                  rel=1e-12)

        terms_i = closed_form_terms(params, ch_i.center_frequency, _L)
        expected = (16.0 / 27.0 * math.pi * span.gamma ** 2
                    / (ch_i.bandwidth ** 2 * phi_i)
                    * _double_sum_bracket(terms_i, phi_i, ch_i.bandwidth,
                                          spm=True))
        assert eta_spm(ch_i, terms_i, span, f_ref=f_ref) == \
            pytest.approx(expected, rel=1e-12)
        assert report.eta_spm[i] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# summation order: the term sums add as np.sum(..., axis=-1) does, and the
# span sum runs in span order, so outputs keep every bit
# ---------------------------------------------------------------------------

def _contract_by_np_sum(upsilon, alpha_l, kappa_f, kappa_b, alpha, length):
    """``_contract`` with every term sum written as ``np.sum(axis=-1)``."""
    ab = _check_rate_sums(upsilon, alpha_l, alpha)
    w = upsilon[..., :, None] * upsilon[..., None, :] / ab
    kf, kf_t = kappa_f[..., :, None], kappa_f[..., None, :]
    kb, kb_t = kappa_b[..., :, None], kappa_b[..., None, :]
    e_al = np.exp(-np.abs(alpha_l * length))
    weight = 4.0 * np.sum(w * (kf * kf_t + kb * kb_t), axis=-1)
    sym = np.sum(w * (kf * kb_t + kb * kf_t), axis=-1)
    anti = np.sum(w * (kf * kb_t - kb * kf_t), axis=-1)
    tail = 2.0 * np.sum(e_al * (np.sign(alpha_l) * sym - anti), axis=-1)
    return weight, tail, np.where(alpha_l == 0.0, 1e-300, alpha_l)


def _spm_by_np_sum(span, phi_i, b_i, contracted):
    weight, tail, rate = contracted
    phi_i, b_i = np.asarray(phi_i), np.asarray(b_i)
    with np.errstate(over="ignore"):
        ash = np.arcsinh(3.0 * phi_i[..., None] * b_i[..., None] ** 2
                         / (8.0 * math.pi * rate))
    log_w = np.log(np.sqrt(np.abs(phi_i) * span.length / (2.0 * math.pi))
                   * b_i)
    total = (np.sum(ash * weight, axis=-1)
             - 4.0 * log_w * np.sign(phi_i) * tail)
    return 16.0 / 27.0 * math.pi * span.gamma ** 2 / (b_i ** 2 * phi_i) * total


def _xpm_by_np_sum(span, phi_ik, b_i, b_k, contracted):
    weight, tail, rate = contracted
    phi_ik = np.asarray(phi_ik)
    with np.errstate(over="ignore"):
        at = np.arctan(phi_ik[..., None] * np.asarray(b_i)[..., None]
                       / (2.0 * rate))
    total = np.sum(at * weight, axis=-1) - math.pi * np.sign(phi_ik) * tail
    return 32.0 / 27.0 * span.gamma ** 2 / (phi_ik * b_k) * total


def _eta_total_by_np_sum(cfg, fit):
    """``eta_total``'s arrays from the references above, with the power
    matrix stacked span by span."""
    span, grid = cfg.span, cfg.grid
    f = np.array([c.center_frequency for c in grid.channels])
    b = np.array([c.bandwidth for c in grid.channels])
    f_off = f - 0.5 * (f[0] + f[-1])
    t = _terms_arrays(_param_rows(cf.params for cf in fit.channel_fits), f,
                      span.length)
    contracted = _contract_by_np_sum(t["upsilon"], t["alpha_l"],
                                     t["kappa_f"], t["kappa_b"], t["alpha"],
                                     span.length)
    spm = _spm_by_np_sum(span, _phi_self(span, f_off), b, contracted)
    phi_ik = _phi_pair(span, f_off[:, None], f_off[None, :])
    valid = ~np.eye(f.size, dtype=bool) & (np.abs(phi_ik) >= 1e-30)
    xpm = np.where(valid, _xpm_by_np_sum(span, np.where(valid, phi_ik, 1.0),
                                         b[:, None], b[None, :], contracted),
                   0.0)
    powers = np.array([[c.launch_power_per_span[j] for c in grid.channels]
                       for j in range(cfg.span_count)])
    p2 = np.sum(powers ** 2, axis=0)
    e_spm = (spm * cfg.span_count ** cfg.coherence_epsilon * p2
             / powers[0] ** 2)
    e_xpm = xpm @ p2 / powers[0] ** 2
    return e_spm, e_xpm, e_spm + e_xpm


def _random_params(rng, pump_free):
    """One fit per channel.  A pump-free channel has zero-weight terms and a
    zero rate (alpha_l = alpha - alpha_b = 0: the 1e-300 stand-in)."""
    a = ALPHA_02_DB_KM * rng.uniform(0.9, 1.1, len(pump_free))
    return [
        _params(alpha=a[i], c_f=0.0, c_b=0.0, alpha_f=a[i], alpha_b=a[i],
                p_b=0.0) if free else
        _params(alpha=a[i], c_f=rng.uniform(0.5e-18, 3e-18),
                c_b=rng.uniform(0.5e-18, 2e-18),
                alpha_f=a[i] * rng.uniform(1.0, 1.3),
                alpha_b=a[i] * rng.uniform(0.5, 0.95),
                p_f=rng.uniform(0.01, 0.2), p_b=rng.uniform(0.2, 0.8))
        for i, free in enumerate(pump_free)]


def _random_link(rng, n_ch, n_spans):
    """``n_ch`` channels 50 GHz apart from 191 THz, each span's launch
    powers drawn within +-3 dB of 1 mW."""
    powers = 1e-3 * 10.0 ** (rng.uniform(-3.0, 3.0, (n_spans, n_ch)) / 10.0)
    grid = WdmGrid(tuple(Channel(191.0e12 + 50e9 * i, 45e9,
                                 tuple(powers[:, i])) for i in range(n_ch)))
    return LinkConfig(span=_span(), span_count=n_spans, grid=grid,
                      coherence_epsilon=0.05)


def _assert_eta_total_keeps_np_sum_order(cfg, fit):
    report = eta_total(cfg, fit)
    expected = _eta_total_by_np_sum(cfg, fit)
    for got, want in zip((report.eta_spm, report.eta_xpm, report.eta_total),
                         expected):
        assert np.array_equal(got, want)


@given(
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
    pump_free=st.lists(st.booleans(), min_size=1, max_size=6),
    n_spans=st.integers(min_value=1, max_value=10),
)
@settings(max_examples=60, deadline=None)
def test_term_sums_keep_np_sum_order(seed, pump_free, n_spans):
    """Contraction, SPM and XPM equal the np.sum references bit for bit, on
    the grid and on one channel or pair, and so does eta_total."""
    rng = np.random.default_rng(seed)
    n = len(pump_free)
    params = _random_params(rng, pump_free)
    t = _terms_arrays(_param_rows(params), 191.0e12 + 50e9 * np.arange(n), _L)
    args = (t["upsilon"], t["alpha_l"], t["kappa_f"], t["kappa_b"],
            t["alpha"], _L)
    contracted = _contract(*args)
    expected = _contract_by_np_sum(*args)
    assert all(map(np.array_equal, contracted, expected))
    assert 1e-300 in contracted[2] or not any(pump_free)

    span = _span()
    # either sign, at the magnitudes of phi_ik and phi_i on C-band grids
    phi_ik = (rng.choice([-1.0, 1.0], (n, n))
              * 10.0 ** rng.uniform(-15.0, -11.0, (n, n)))
    phi_i = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-26.0, -23.0, n)
    b = rng.uniform(20e9, 100e9, n)
    assert np.array_equal(_spm_eta(span, phi_i, b, contracted),
                          _spm_by_np_sum(span, phi_i, b, expected))
    assert np.array_equal(
        _xpm_eta(span, phi_ik, b[:, None], b[None, :], contracted),
        _xpm_by_np_sum(span, phi_ik, b[:, None], b[None, :], expected))

    one = tuple(x[-1] for x in contracted)
    assert _spm_eta(span, phi_i[0], b[0], one) == \
        _spm_by_np_sum(span, phi_i[0], b[0], one)
    assert _xpm_eta(span, phi_ik[0, -1], b[0], b[-1], one) == \
        _xpm_by_np_sum(span, phi_ik[0, -1], b[0], b[-1], one)

    _assert_eta_total_keeps_np_sum_order(_random_link(rng, n, n_spans),
                                         _fit_report(params))


def test_eta_total_keeps_np_sum_order_over_spans():
    """Forty channels, ten spans at differing powers: every eta array
    equals the reference bit for bit, the span sum included."""
    rng = np.random.default_rng(20)
    _assert_eta_total_keeps_np_sum_order(
        _random_link(rng, 40, 10),
        _fit_report(_random_params(rng, [False] * 40)))


def test_eta_total_over_one_fit_builds_its_parameter_array_once(
        monkeypatch):
    """A sweep's eta_total calls over one fit, at differing launch powers,
    all read the fit's one parameter array; none rebuilds it."""
    fit = _fit_report(_per_channel_params(4))
    built, seen = [], []
    read_only, terms_arrays = profile._read_only, closedform._terms_arrays
    monkeypatch.setattr(profile, "_read_only",
                        lambda *a: built.append(a) or read_only(*a))
    monkeypatch.setattr(closedform, "_terms_arrays",
                        lambda params, *a: seen.append(params)
                        or terms_arrays(params, *a))
    cfg = _pumped_link(4, spans=3)
    for offset_db in (-2.0, 0.0, 2.0):
        eta_total(_relinked(cfg, np.full((3, 4), 1e-3 * 10.0 ** (
            offset_db / 10.0))), fit)
    assert len(built) == 1
    assert len(seen) == 3
    assert all(params is fit._param_matrix for params in seen)


def test_rate_sum_guard_uses_each_channels_alpha():
    """A rate sum of 5e-7 of a channel's own alpha is rejected, even when
    another channel's alpha is ten times smaller."""
    a = 10.0 * ALPHA_02_DB_KM
    params = _per_channel_params(3)
    params[1] = _params(alpha=a, alpha_b=a * (1.0 - 2.5e-7))
    cfg = _pumped_link(3)
    with pytest.raises(NumericalError, match=r"channel\(s\) \[1\]"):
        eta_total(cfg, _fit_report(params))
    ch = cfg.grid.channels[1]
    terms = closed_form_terms(params[1], ch.center_frequency, _L)
    assert 2.0 * terms.alpha_l[2] == pytest.approx(5e-7 * a, rel=1e-6)
    with pytest.raises(NumericalError):
        eta_spm(ch, terms, cfg.span, f_ref=ch.center_frequency)


def test_eta_total_uniform_fast_path_matches_general():
    cfg = _pumped_link(4, spans=3)
    fit = _fit_report(_per_channel_params(4))
    report = eta_total(cfg, fit)
    single = eta_total(
        LinkConfig(span=cfg.span, span_count=1,
                   grid=WdmGrid(tuple(
                       Channel(c.center_frequency, c.bandwidth,
                               (c.launch_power_per_span[0],))
                       for c in cfg.grid.channels))),
        fit,
    )
    assert np.allclose(report.eta_xpm, 3.0 * single.eta_xpm, rtol=1e-12)
    assert np.allclose(report.eta_spm, 3.0 * single.eta_spm, rtol=1e-12)


def test_eta_total_rejects_mismatched_fit():
    cfg = _pumped_link(5)
    fit = _fit_report(_per_channel_params(4))
    with pytest.raises(ValidationError):
        eta_total(cfg, fit)


def test_eta_total_refuses_negative_and_non_finite_eta(monkeypatch):
    """A summed eta_SPM or eta_XPM that is negative, NaN or infinite is
    refused, naming every such channel; an eta of 0 (gamma = 0) passes."""
    cfg = _pumped_link(5)
    fit = _fit_report(_per_channel_params(5))
    spm, xpm = closedform._kernel(cfg, fit)
    spm[1] = -spm[1]
    xpm[3, 0] = math.nan
    xpm[4, 2] = math.inf
    monkeypatch.setattr(closedform, "_kernel", lambda *a: (spm, xpm))
    with pytest.raises(NumericalError,
                       match=r"is negative or not finite for channel\(s\) "
                             r"\[1, 3, 4\]: eta_spm \[-"):
        eta_total(cfg, fit)
    monkeypatch.undo()
    report = eta_total(replace(cfg, span=replace(cfg.span, gamma=0.0)), fit)
    assert np.all(report.eta_total == 0.0)


@pytest.mark.parametrize("bad", [0.0, -50e9, math.inf, math.nan])
def test_eta_total_rejects_bad_bandwidth(bad):
    """A channel without a positive, finite bandwidth used to give eta_spm =
    inf and a negative XPM eta; no link that holds one can be built, so
    eta_total never sees it."""
    grid = WdmGrid((Channel(193.0e12, 100e9, (1e-3,)),
                    Channel(193.1e12, bad, (1e-3,))))
    with pytest.raises(ValidationError, match=r"channel 1: bandwidth must "):
        LinkConfig(span=_span(), span_count=1, grid=grid)


def test_eta_total_rejects_dispersion_free_span():
    """beta2 = beta3 = 0 zeroes every channel's phi_i; the refusal names
    the channels."""
    cfg = LinkConfig(span=_span(beta2=0.0, beta3=0.0), span_count=1,
                     grid=WdmGrid((Channel(193.0e12, 100e9, (1e-3,)),
                                   Channel(193.1e12, 100e9, (1e-3,)))))
    with pytest.raises(DegenerateDispersionError,
                       match=r"phi_i vanishes for channel\(s\) \[0, 1\]"):
        eta_total(cfg, _fit_report(_per_channel_params(2)))


def test_degenerate_pair_bookkeeping():
    """beta2 = 0 with offsets summing to zero makes the pair phase-matched,
    its XPM the largest term rather than the least: eta_total refuses it,
    naming both orders of the pair."""
    span = _span(beta2=0.0, beta3=0.14e-39)
    grid = WdmGrid((Channel(193.0e12, 100e9, (1e-3,)),
                    Channel(194.0e12, 100e9, (1e-3,))))
    cfg = LinkConfig(span=span, span_count=1, grid=grid)
    fit = _fit_report(_per_channel_params(2))
    with pytest.raises(DegenerateDispersionError,
                       match=r"phi_ik vanishes for pair\(s\) \(i, k\) "
                             r"\[\(0, 1\), \(1, 0\)\]$"):
        eta_total(cfg, fit)


# ---------------------------------------------------------------------------
# SNR assembly
# ---------------------------------------------------------------------------

def test_assemble_snr_reciprocal_identity():
    cfg = _pumped_link(5)
    fit = _fit_report(_per_channel_params(5))
    report = eta_total(cfg, fit)
    budget = SnrBudget(snr_ase=200.0, snr_trx=500.0)
    full = assemble_snr(report, budget, cfg.grid)
    manual = 1.0 / (1.0 / full.snr_nli + 1.0 / 200.0 + 1.0 / 500.0)
    assert np.allclose(full.snr_total, manual, rtol=1e-15)
    assert np.allclose(full.snr_total_db, 10 * np.log10(manual), rtol=1e-15)


def test_assemble_snr_rejects_nonpositive_budget():
    cfg = _pumped_link(3)
    fit = _fit_report(_per_channel_params(3))
    report = eta_total(cfg, fit)
    with pytest.raises(ValidationError):
        assemble_snr(report, SnrBudget(snr_ase=-1.0), cfg.grid)


def test_report_csv_is_deterministic():
    cfg = _pumped_link(3)
    fit = _fit_report(_per_channel_params(3))
    report = assemble_snr(eta_total(cfg, fit), SnrBudget(), cfg.grid)
    text_a = report.to_csv()
    text_b = report.to_csv()
    assert text_a == text_b
    assert text_a.splitlines()[0] == (
        "f_i_hz,eta_spm_per_w2,eta_xpm_per_w2,eta_total_per_w2,"
        "snr_nli_db,snr_db"
    )


def test_report_csv_without_snr_writes_nan():
    """``eta_total``'s report carries no SNR until ``assemble_snr``; its CSV
    keeps the SNR columns, as nan."""
    cfg = _pumped_link(3)
    rows = eta_total(cfg, _fit_report(_per_channel_params(3))).to_csv()
    assert [row.split(",")[4:] for row in rows.splitlines()[1:]] == (
        [["nan", "nan"]] * 3)
