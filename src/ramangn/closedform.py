"""Closed-form nonlinear-interference evaluation.

Builds the per-channel tilt decomposition of the linearized power profile,
evaluates the closed-form link function (``mu_closed``) and the XPM/SPM
efficiencies, and assembles per-channel eta and SNR.

The link function and the SPM and XPM brackets are double sums over the
three tilt terms (l, l').  The rate weights Upsilon_l Upsilon_l' /
(alpha_l + alpha_l') and the endpoint products are symmetric in (l, l')
(the kappa_f kappa_b difference antisymmetric), so each double sum folds
onto three per-term sums (``_term_sums``).  ``mu_closed`` reads them
through partial fractions in phi^2; ``_contract`` folds them, per
channel, into three weights on the arctan/arcsinh terms plus one tail
constant before any channel pair is formed.  ``_spm_eta`` and ``_xpm_eta``
hold the only copy of each efficiency expression.  The whole-grid kernel
(``_kernel``) calls them on every channel and pair at once; it is the
closed side of both ``eta_total`` and ``oracle.compare_closed_vs_oracle``,
so the oracle checks the terms that ``nli`` ships.  The public per-pair
functions ``eta_spm`` and ``eta_xpm_pair`` call them on one channel or
pair, from a ``ClosedFormTerms``: a library view of the kernel's entries,
which no command runs.  Both take frequency offsets from ``f_ref``, the
frequency at which beta2/beta3 are quoted, and give one span's terms at
equal powers.  Span count, epsilon and per-span powers enter only in
``_span_sum``, which ``eta_total`` and the comparison share.

Every sum over the three tilt terms runs one channel (or channel-pair)
plane at a time, in numpy's own order for a length-3 reduction, ((t0 + t1)
+ t2) (``_sum3``; ``_xpm_eta`` adds its three arctan planes the same way):
numpy reduces a short trailing axis slowly, and this order keeps every bit
of ``np.sum(..., axis=-1)``.

Sign note: the sin-weighted tail term appears in several published variants
with an inconsistent sign.  The implementation below uses the sign that
reproduces the unambiguous complex-modulus form of the link function
|sum Upsilon (kappa_f e^{j phi L} - kappa_b)/(-alpha_l + j phi)|^2, the
modulus of the defining integral.  Acceptance criterion 1 checks
``mu_closed``, and with it the per-term sums that every eta is built
from, against the tests' adaptive quadrature of that integral to 1e-9,
on pumped and pump-free profiles and for both signs of phi.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, replace
from typing import Optional

import numpy as np

from .domain import (Channel, FiberSpan, LinkConfig, SnrBudget, WdmGrid,
                     freeze_arrays, write_csv, write_json)
from .errors import (DegenerateDispersionError, NumericalError,
                     ValidationError)
from .profile import ProfileParams

_PHI_EPS = 1e-30
_XPM_PREF = 32.0 / 27.0
_SPM_PREF = 16.0 / 27.0


@dataclass(frozen=True)
class ClosedFormTerms:
    """Tilt decomposition of one channel's linearized profile.

    The profile factor 1 - x(zeta) (f_i - f_hat) is written as a sum of
    three exponentials indexed by (l1, l2) in ((0, 0), (1, 0), (0, 1));
    ``upsilon`` holds the coefficients, ``alpha_l`` the decay rates
    alpha + l1 alpha_f - l2 alpha_b, and ``kappa_f`` / ``kappa_b`` the two
    endpoint weights e^{-(alpha + l1 alpha_f) L} and e^{-l2 alpha_b L}.
    """

    upsilon: np.ndarray
    alpha_l: np.ndarray
    kappa_f: np.ndarray
    kappa_b: np.ndarray
    alpha: float
    length: float

    def __post_init__(self):
        freeze_arrays(self, ("upsilon", "alpha_l", "kappa_f", "kappa_b"))

    @property
    def contracted(self):
        """The SPM/XPM bracket contraction (``_contract``); raises
        NumericalError on a cancelling rate sum."""
        return _contract(self.upsilon, self.alpha_l, self.kappa_f,
                         self.kappa_b, self.alpha, self.length)


def _terms_arrays(params: np.ndarray, f, length: float):
    """Tilt decomposition of every channel at once.

    ``params`` is an (8, n) array with one row per ``ProfileParams`` field
    in declaration order (``FitReport``'s parameter array), column i
    channel i's fit, and ``f[i]`` channel i's absolute frequency.  Returns
    a dict of per-channel arrays: ``alpha`` of shape (n,) and ``upsilon``,
    ``alpha_l``, ``kappa_f``, ``kappa_b`` of shape (n, 3), one column per
    tilt term.  T, the constant term, may be zero: the profile's domain is
    ``profile.profile_margin``'s to decide, in the CLI's fit gate.
    """
    alpha, c_f, c_b, alpha_f, alpha_b, p_f, p_b, f_hat = params
    delta = np.asarray(f, dtype=float) - f_hat
    t_f = -p_f * c_f * delta / alpha_f
    t_b = -p_b * c_b * delta / alpha_b
    e_b = np.exp(-alpha_b * length)
    t_total = 1.0 + t_f - t_b * e_b
    e_a = np.exp(-alpha * length)
    ones = np.ones_like(alpha)
    return dict(
        upsilon=np.stack([t_total, -t_f, t_b], axis=-1),
        alpha_l=np.stack([alpha, alpha + alpha_f, alpha - alpha_b], axis=-1),
        kappa_f=np.stack([e_a, np.exp(-(alpha + alpha_f) * length), e_a],
                         axis=-1),
        kappa_b=np.stack([ones, ones, e_b], axis=-1),
        alpha=alpha,
    )


def closed_form_terms(params: ProfileParams, f_i: float, length: float
                      ) -> ClosedFormTerms:
    """Tilt decomposition for a channel at absolute frequency ``f_i``.

    The one-channel view of ``_terms_arrays``.
    """
    t = _terms_arrays(np.array(astuple(params), dtype=float)[:, None],
                      (f_i,), length)
    return ClosedFormTerms(length=length,
                           **{k: v[0] if v.ndim == 2 else float(v[0])
                              for k, v in t.items()})


def _phi_self(span: FiberSpan, f_i):
    """Self-channel phase factor phi_i at offset(s) ``f_i``."""
    return -4.0 * math.pi ** 2 * (span.beta2
                                  + 2.0 * math.pi * span.beta3 * f_i)


def _phi_pair(span: FiberSpan, f_i, f_k):
    """Pair phase factor phi_ik at offsets ``f_i``, ``f_k`` (broadcasting)."""
    return (-4.0 * math.pi ** 2 * (f_k - f_i)
            * (span.beta2 + math.pi * span.beta3 * (f_i + f_k)))


def _check_rate_sums(upsilon, alpha_l, alpha) -> np.ndarray:
    """Pairwise alpha_l + alpha_l' matrices; rejects near-cancellation.

    ``upsilon`` and ``alpha_l`` hold the three terms on their last axis,
    with optional leading channel axes that ``alpha`` (each channel's own
    rate) matches.  A rate sum is rejected below 1e-6 of its channel's
    alpha.  Index pairs whose Upsilon weight is exactly zero do not
    contribute and are exempt from the check (their rate sum may
    legitimately vanish, e.g. alpha_l = alpha - alpha_b = 0 in the
    pump-free reduction).
    """
    ab = alpha_l[..., :, None] + alpha_l[..., None, :]
    active = (upsilon[..., :, None] * upsilon[..., None, :]) != 0.0
    bad = active & (np.abs(ab) < 1e-6 * np.asarray(alpha)[..., None, None])
    if np.any(bad):
        where = ""
        if bad.ndim > 2:
            channels = np.flatnonzero(bad.any(axis=(-2, -1))).tolist()
            where = f" for channel(s) {channels}"
        raise NumericalError(
            f"a pairwise rate sum alpha_l + alpha_l' nearly vanishes{where}; "
            "the closed form is numerically undefined for these parameters"
        )
    return np.where(active, ab, 1.0)


def _sum3(x):
    """Sum over the last axis, of length 3 (the tilt terms), as
    ``np.sum(x, axis=-1)`` adds it, ((x0 + x1) + x2), without numpy's slow
    reduction over a short trailing axis."""
    return x[..., 0] + x[..., 1] + x[..., 2]


def _term_sums(upsilon, alpha_l, kappa_f, kappa_b, alpha):
    """The per-term sums behind both the link function and the SPM/XPM
    brackets.

    Arguments carry the three terms on their last axis, with optional
    leading channel axes that ``alpha`` matches.  With w = Upsilon_l
    Upsilon_l' / (alpha_l + alpha_l') (``_check_rate_sums``), returns
    (weight, sym, anti), each summed over l':

        weight_l = 4 sum w (kf kf' + kb kb'),
        sym_l = sum w (kf kb' + kb kf'),
        anti_l = sum w (kf kb' - kb kf').

    w (kf kf' + kb kb') and w (kf kb' + kb kf') are symmetric in (l, l'),
    w (kf kb' - kb kf') antisymmetric, so every pairwise double sum folds
    onto l.
    """
    ab = _check_rate_sums(upsilon, alpha_l, alpha)
    w = upsilon[..., :, None] * upsilon[..., None, :] / ab
    kf, kf_t = kappa_f[..., :, None], kappa_f[..., None, :]
    kb, kb_t = kappa_b[..., :, None], kappa_b[..., None, :]
    return (4.0 * _sum3(w * (kf * kf_t + kb * kb_t)),
            _sum3(w * (kf * kb_t + kb * kf_t)),
            _sum3(w * (kf * kb_t - kb * kf_t)))


def mu_closed(phi, terms: ClosedFormTerms):
    """Closed-form link function mu(phi) (m^2) for one channel's terms.

    ``phi`` (1/m) may be a scalar or an array.  All tilt factors are
    evaluated at the channel under test (single-profile substitution).
    Partial fractions in phi^2 write the modulus of the defining integral
    from ``_term_sums``, the sums every eta is built from:

        mu = sum_l 2 [alpha_l (weight_l / 4 - sym_l cos(phi L))
                      + anti_l phi sin(phi L)] / (alpha_l^2 + phi^2).

    A term whose three sums are 0 drops out, so a zero rate (alpha_l =
    alpha - alpha_b = 0 in the pump-free reduction) gives no 0/0 at phi = 0.
    """
    weight, sym, anti = _term_sums(terms.upsilon, terms.alpha_l,
                                   terms.kappa_f, terms.kappa_b, terms.alpha)
    a = terms.alpha_l
    p = np.asarray(phi, dtype=float)[..., None]
    arg = p * terms.length
    num = a * (0.25 * weight - sym * np.cos(arg)) + anti * p * np.sin(arg)
    active = (weight != 0.0) | (sym != 0.0) | (anti != 0.0)
    den = np.where(active, a * a + p * p, 1.0)
    out = 2.0 * _sum3(np.where(active, num / den, 0.0))
    return out if out.ndim else float(out)


def _contract(upsilon, alpha_l, kappa_f, kappa_b, alpha, length):
    """Contract the SPM/XPM bracket's (l, l') double sum, per channel.

    Arguments carry the three terms on their last axis, with optional
    leading channel axes (``alpha`` and the returned ``tail`` have only
    the channel axes).  With w = Upsilon_l Upsilon_l' / (alpha_l +
    alpha_l'), the bracket sum_{l,l'} w [...] equals

        sum_l g_l weight_l - c sign(phi) tail,

    where g_l is the arcsinh (SPM) or arctan (XPM) term of rate alpha_l
    and c is 4 log_w (SPM) or pi (XPM).  ``tail`` folds ``_term_sums``'s
    sym and anti.  Returns (weight, tail, rate); ``rate`` is alpha_l with
    a subnormal stand-in for zero rates.
    """
    weight, sym, anti = _term_sums(upsilon, alpha_l, kappa_f, kappa_b, alpha)
    e_al = np.exp(-np.abs(alpha_l * length))
    tail = 2.0 * _sum3(e_al * (np.sign(alpha_l) * sym - anti))
    # A vanishing rate only occurs in zero-weight terms or at the atan/asinh
    # limit points; a subnormal stand-in saturates those arguments to +-inf,
    # their limiting value (the overflow in the divide is intended).
    rate = np.where(alpha_l == 0.0, 1e-300, alpha_l)
    return weight, tail, rate


def _spm_eta(span: FiberSpan, phi_i, b_i, contracted):
    """Single-span SPM eta (1/W^2) from the channel's own contraction.

    The one copy of the SPM expression: ``phi_i`` and ``b_i`` broadcast
    against the contraction's channel axes.
    """
    weight, tail, rate = contracted
    phi_i = np.asarray(phi_i)
    b_i = np.asarray(b_i)
    with np.errstate(over="ignore"):
        ash = np.arcsinh(3.0 * phi_i[..., None] * b_i[..., None] ** 2
                         / (8.0 * math.pi * rate))
    log_w = np.log(np.sqrt(np.abs(phi_i) * span.length / (2.0 * math.pi))
                   * b_i)
    total = _sum3(ash * weight) - 4.0 * log_w * np.sign(phi_i) * tail
    return _SPM_PREF * math.pi * span.gamma ** 2 / (b_i ** 2 * phi_i) * total


def _xpm_eta(span: FiberSpan, phi_ik, b_i, b_k, contracted):
    """Single-span XPM eta (1/W^2) of interferer k onto channel i, at equal
    powers, from the interferer's contraction.

    The one copy of the XPM expression: ``phi_ik``, ``b_i`` and ``b_k``
    broadcast against the contraction's channel axes (the interferer k).
    """
    weight, tail, rate = contracted
    x = phi_ik * b_i
    # one (i, k) plane per term, added in ``_sum3``'s order
    with np.errstate(over="ignore"):
        t0, t1, t2 = (np.arctan(x / (2.0 * rate[..., l])) * weight[..., l]
                      for l in range(3))
    total = t0 + t1 + t2 - math.pi * np.sign(phi_ik) * tail
    return _XPM_PREF * span.gamma ** 2 / (phi_ik * b_k) * total


def _check_pair_records(span: FiberSpan, *channels: Channel) -> None:
    """ValidationError unless the span length and every channel's bandwidth
    are positive (NaN is not): the per-pair functions take records that no
    ``LinkConfig`` has checked."""
    if not (span.length > 0 and all(ch.bandwidth > 0 for ch in channels)):
        raise ValidationError(
            "SPM and XPM need positive bandwidths and span length")


def eta_xpm_pair(
    channel_i: Channel,
    channel_k: Channel,
    terms: ClosedFormTerms,
    span: FiberSpan,
    *,
    f_ref: float,
) -> float:
    """Closed-form XPM eta of interferer k onto channel i (1/W^2): one
    span at equal powers, ``_kernel``'s entry (i, k).

    ``terms`` must be the tilt decomposition of the *interferer* (built at
    f_k over ``span.length``): the spectral integrand collapses to the
    interfering channel's power profile.  ``f_ref`` is the absolute
    frequency at which beta2/beta3 are quoted (the grid's band center).

    Raises
    ------
    DegenerateDispersionError
        If the pair phase factor vanishes, as ``eta_total`` does.
    """
    _check_pair_records(span, channel_i, channel_k)
    if channel_k.center_frequency == channel_i.center_frequency:
        raise ValidationError("XPM pair requires distinct channels")
    f_i = channel_i.center_frequency - f_ref
    f_k = channel_k.center_frequency - f_ref
    phi_ik = _phi_pair(span, f_i, f_k)
    if abs(phi_ik) < _PHI_EPS:
        raise DegenerateDispersionError(
            f"pair phase factor vanishes for offsets "
            f"f_i = {f_i:.4e} Hz, f_k = {f_k:.4e} Hz"
        )
    return float(_xpm_eta(span, phi_ik, channel_i.bandwidth,
                          channel_k.bandwidth, terms.contracted))


def eta_spm(
    channel_i: Channel,
    terms: ClosedFormTerms,
    span: FiberSpan,
    *,
    f_ref: float,
) -> float:
    """Closed-form SPM eta of channel i onto itself (1/W^2): one span,
    ``_kernel``'s entry i.

    ``terms`` is channel i's tilt decomposition over ``span.length`` and
    ``f_ref`` the absolute frequency at which beta2/beta3 are quoted.
    """
    _check_pair_records(span, channel_i)
    phi_i = _phi_self(span, channel_i.center_frequency - f_ref)
    if phi_i == 0.0:
        raise DegenerateDispersionError(
            "self-channel phase factor phi_i is zero (dispersion-free); "
            "the SPM closed form is undefined"
        )
    return float(_spm_eta(span, phi_i, channel_i.bandwidth, terms.contracted))


@dataclass(frozen=True)
class NliReport:
    """Per-channel NLI and SNR summary for one link."""

    frequencies: np.ndarray
    launch_powers: np.ndarray
    eta_spm: np.ndarray
    eta_xpm: np.ndarray
    eta_total: np.ndarray
    snr_nli: Optional[np.ndarray] = None
    snr_total: Optional[np.ndarray] = None
    snr_total_db: Optional[np.ndarray] = None

    def __post_init__(self):
        freeze_arrays(self, ("frequencies", "launch_powers", "eta_spm",
                             "eta_xpm", "eta_total", "snr_nli", "snr_total",
                             "snr_total_db"))

    @property
    def n_channels(self) -> int:
        return self.frequencies.size

    def to_csv(self, path_or_buf=None) -> str:
        n = self.n_channels
        snr_nli_db = (10.0 * np.log10(self.snr_nli)
                      if self.snr_nli is not None else np.full(n, np.nan))
        snr_db = (self.snr_total_db if self.snr_total_db is not None
                  else np.full(n, np.nan))
        return write_csv(
            ("f_i_hz", "eta_spm_per_w2", "eta_xpm_per_w2", "eta_total_per_w2",
             "snr_nli_db", "snr_db"),
            np.column_stack((self.frequencies, self.eta_spm, self.eta_xpm,
                             self.eta_total, snr_nli_db, snr_db)),
            path_or_buf)

    def to_json(self, path_or_buf=None) -> str:
        payload = {
            "channels": [
                {
                    "f_i_hz": float(self.frequencies[i]),
                    "launch_power_w": float(self.launch_powers[i]),
                    "eta_spm_per_w2": float(self.eta_spm[i]),
                    "eta_xpm_per_w2": float(self.eta_xpm[i]),
                    "eta_total_per_w2": float(self.eta_total[i]),
                    "snr_nli": (None if self.snr_nli is None
                                else float(self.snr_nli[i])),
                    "snr_total": (None if self.snr_total is None
                                  else float(self.snr_total[i])),
                    "snr_total_db": (None if self.snr_total_db is None
                                     else float(self.snr_total_db[i])),
                }
                for i in range(self.n_channels)
            ],
        }
        return write_json(payload, path_or_buf)


def _kernel(config: LinkConfig, fit):
    """Launch-power-free single-span eta of the whole grid.

    Returns (spm, xpm): ``spm[i]`` is channel i's SPM eta and ``xpm[i, k]``
    interferer k's XPM eta onto channel i (0 on the diagonal), both for
    one span and equal powers P_k = P_i.  A fit that does not cover the
    grid raises ValidationError, and a vanishing phase factor, of a
    channel or of a pair, DegenerateDispersionError naming every one.  It
    re-checks nothing that ``LinkConfig`` checks when built.
    """
    span = config.span
    grid = config.grid
    if fit.n_channels != grid.n_channels:
        raise ValidationError(
            f"fit covers {fit.n_channels} channels but the grid has "
            f"{grid.n_channels}"
        )
    length = span.length
    f = grid.frequencies
    f_off = f - grid.band_center
    b = grid.bandwidths
    t = _terms_arrays(fit._param_matrix, f, length)
    contracted = _contract(t["upsilon"], t["alpha_l"], t["kappa_f"],
                           t["kappa_b"], t["alpha"], length)

    phi_i = _phi_self(span, f_off)
    zero = np.flatnonzero(phi_i == 0.0)
    if zero.size:
        raise DegenerateDispersionError(
            f"phi_i vanishes for channel(s) {zero.tolist()}")
    spm = _spm_eta(span, phi_i, b, contracted)

    # pair (i, k) on axes (0, 1): the tilt decomposition is the
    # interferer's, since the spectral integrand collapses to channel k's
    # power profile
    phi_ik = _phi_pair(span, f_off[:, None], f_off[None, :])
    np.fill_diagonal(phi_ik, 1.0)  # phi_ii is exactly 0: no XPM term
    matched = np.flatnonzero(np.abs(phi_ik) < _PHI_EPS)
    if matched.size:
        i, k = np.divmod(matched, f.size)
        raise DegenerateDispersionError(
            f"phi_ik vanishes for pair(s) (i, k) "
            f"{list(zip(i.tolist(), k.tolist()))}")
    xpm = _xpm_eta(span, phi_ik, b[:, None], b[None, :], contracted)
    np.fill_diagonal(xpm, 0.0)
    return spm, xpm


def _span_sum(config: LinkConfig, spm, xpm):
    """The link's (eta_SPM, eta_XPM) (1/W^2) from one span's terms at equal
    powers, S_i = ``spm[i]`` and K_ik = ``xpm[i, k]``: the kernel's, the
    oracle's or their error estimates.  Span j adds (P_{i,j}/P_{i,0})^2
    [n^epsilon S_i + sum_k K_ik (P_{k,j}/P_{i,j})^2] over n spans, so

        eta_SPM = n^epsilon S_i sum_j P_{i,j}^2 / P_{i,0}^2,
        eta_XPM = sum_k K_ik sum_j P_{k,j}^2 / P_{i,0}^2.
    """
    # (spans, channels), C-contiguous: the span sum runs in span order
    powers = config.grid._power_matrix
    p2 = np.sum(powers ** 2, axis=0)
    p_ref = powers[0]
    return (spm * config.span_count ** config.coherence_epsilon * p2
            / p_ref ** 2,
            xpm @ p2 / p_ref ** 2)


def eta_total(config: LinkConfig, fit) -> NliReport:
    """Accumulate per-channel eta over all spans (1/W^2): ``_span_sum`` of
    the single-span kernels S_i and K_ik, evaluated once whatever the
    per-span powers.  Equal powers in every span give n^{1+epsilon} S_i
    and n sum_k K_ik (P_k/P_i)^2.

    The link was checked when built.  Like the fit's convergence, its
    domain (``profile.profile_margin``) is checked once per command by the
    CLI's fit gate, not here.  A fit of another grid raises
    ValidationError, and a zero phi_i (beta2 = beta3 = 0, say) or phi_ik
    DegenerateDispersionError naming the channels or pairs (``_kernel``).
    A summed eta_SPM or eta_XPM that is NaN, infinite or negative raises
    NumericalError naming every such channel; 0 (gamma = 0) passes.
    """
    grid = config.grid
    e_spm, e_xpm = _span_sum(config, *_kernel(config, fit))
    total = e_spm + e_xpm
    # both terms >= 0 (NaN fails) and a finite sum: both finite
    sound = (np.minimum(e_spm, e_xpm) >= 0.0) & (total < math.inf)
    if not sound.all():
        bad = np.flatnonzero(~sound).tolist()
        raise NumericalError(
            f"eta_spm or eta_xpm is negative or not finite for channel(s) "
            f"{bad}: eta_spm {e_spm[bad].tolist()}, "
            f"eta_xpm {e_xpm[bad].tolist()}")
    return NliReport(
        frequencies=grid.frequencies,
        launch_powers=grid.launch_powers(0),
        eta_spm=e_spm,
        eta_xpm=e_xpm,
        eta_total=total,
    )


def assemble_snr(eta: NliReport, budget: SnrBudget, grid: WdmGrid) -> NliReport:
    """Complete a report with SNR_NLI and the reciprocal-sum total SNR; the
    budget's entries were checked when it was built."""
    n = eta.n_channels
    p_i = eta.launch_powers
    snr_ase, snr_trx = budget.as_arrays(n)
    with np.errstate(divide="ignore"):
        snr_nli = 1.0 / (eta.eta_total * p_i ** 2)
    inv = 1.0 / snr_nli + 1.0 / snr_ase + 1.0 / snr_trx
    snr_total = 1.0 / inv
    return replace(eta, snr_nli=snr_nli, snr_total=snr_total,
                   snr_total_db=10.0 * np.log10(snr_total))
