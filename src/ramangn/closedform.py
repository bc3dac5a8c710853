"""Closed-form nonlinear-interference evaluation.

Builds the per-channel tilt decomposition of the linearized power profile,
evaluates the closed-form link function and the XPM/SPM contributions, and
assembles per-channel eta and SNR.

The SPM and XPM brackets are double sums over the three tilt terms (l, l').
The rate weights Upsilon_l Upsilon_l' / (alpha_l + alpha_l') and the
endpoint products are symmetric in (l, l') (the kappa_f kappa_b difference
antisymmetric), so the double sum contracts, per channel, to three weights
on the arctan/arcsinh terms plus one tail constant (``_contract``) before
any channel pair is formed.  The whole-grid kernel is then launch-power
free; ``eta_total`` evaluates it once and applies the per-span powers as
sum_j P_{k,j}^2.

Sign note: the sin-weighted tail term appears in several published variants
with an inconsistent sign.  The implementation below uses the sign that
reproduces the unambiguous complex-modulus form of the link function
|sum Upsilon (kappa_f e^{j phi L} - kappa_b)/(-alpha_l + j phi)|^2
to machine precision, which the test suite asserts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Optional, Sequence, Tuple

import numpy as np

from .domain import (Channel, FiberSpan, LinkConfig, SnrBudget, WdmGrid,
                     format_float, write_text)
from .errors import (DegenerateDispersionError, DegenerateTiltError,
                     NumericalError, ValidationError)
from .profile import ProfileParams

#: The three (l1, l2) index pairs with 0 <= l1 + l2 <= 1.
INDEX_PAIRS = ((0, 0), (1, 0), (0, 1))

_TILT_EPS = 1e-12
_PHI_EPS = 1e-30
_XPM_PREF = 32.0 / 27.0
_SPM_PREF = 16.0 / 27.0


@dataclass(frozen=True)
class ClosedFormTerms:
    """Tilt decomposition of one channel's linearized profile.

    The profile factor 1 - x(zeta) (f_i - f_hat) is written as a sum of
    three exponentials indexed by ``INDEX_PAIRS``; ``upsilon`` holds the
    coefficients, ``alpha_l`` the decay rates alpha + l1 alpha_f -
    l2 alpha_b, and ``kappa_f`` / ``kappa_b`` the two endpoint weights
    e^{-(alpha + l1 alpha_f) L} and e^{-l2 alpha_b L}.
    """

    t_f: float
    t_b: float
    t_total: float
    upsilon: np.ndarray
    alpha_l: np.ndarray
    kappa_f: np.ndarray
    kappa_b: np.ndarray
    alpha: float
    alpha_f: float
    alpha_b: float
    length: float

    def __post_init__(self):
        for name in ("upsilon", "alpha_l", "kappa_f", "kappa_b"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class PhaseMismatch:
    """Dispersion phase factors for one channel (and optionally one pair).

    ``phi_i`` scales as 1/(m Hz^2) (self-channel), ``phi_ik`` as 1/(m Hz)
    (channel pair); ``phi_ik`` is None when no interferer was given.
    """

    phi_i: float
    phi_ik: Optional[float] = None


_PARAM_COLUMNS = attrgetter(*(f.name for f in fields(ProfileParams)))


def _terms_arrays(params: Sequence[ProfileParams], f, length: float):
    """Tilt decomposition of every channel at once.

    ``params[i]`` is channel i's fit and ``f[i]`` its absolute frequency.
    Returns a dict of per-channel arrays: ``t_f``, ``t_b``, ``t_total``,
    ``alpha``, ``alpha_f``, ``alpha_b`` of shape (n,) and ``upsilon``,
    ``alpha_l``, ``kappa_f``, ``kappa_b`` of shape (n, 3), one column per
    ``INDEX_PAIRS`` entry.

    Raises
    ------
    DegenerateTiltError
        If a channel's total tilt factor T is numerically zero (its
        linearized profile crosses zero inside the span).
    """
    (alpha, c_f, c_b, alpha_f, alpha_b, p_f, p_b,
     f_hat) = np.array([_PARAM_COLUMNS(p) for p in params], dtype=float).T
    f = np.asarray(f, dtype=float)
    delta = f - f_hat
    t_f = -p_f * c_f * delta / alpha_f
    t_b = -p_b * c_b * delta / alpha_b
    e_b = np.exp(-alpha_b * length)
    t_total = 1.0 + t_f - t_b * e_b
    bad = np.flatnonzero(np.abs(t_total) < _TILT_EPS)
    if bad.size:
        raise DegenerateTiltError(
            f"total tilt factor T = {t_total[bad[0]]:.3e} is numerically "
            f"zero for channel(s) {bad.tolist()} (f = {f[bad[0]]:.6e} Hz); "
            "the linearized profile crosses zero inside the span"
        )
    e_a = np.exp(-alpha * length)
    ones = np.ones_like(alpha)
    return dict(
        t_f=t_f, t_b=t_b, t_total=t_total,
        upsilon=np.stack([t_total, -t_f, t_b], axis=-1),
        alpha_l=np.stack([alpha, alpha + alpha_f, alpha - alpha_b], axis=-1),
        kappa_f=np.stack([e_a, np.exp(-(alpha + alpha_f) * length), e_a],
                         axis=-1),
        kappa_b=np.stack([ones, ones, e_b], axis=-1),
        alpha=alpha, alpha_f=alpha_f, alpha_b=alpha_b,
    )


def closed_form_terms(params: ProfileParams, f_i: float, length: float
                      ) -> ClosedFormTerms:
    """Tilt decomposition for a channel at absolute frequency ``f_i``.

    The one-channel view of ``_terms_arrays``.

    Raises
    ------
    DegenerateTiltError
        If the total tilt factor T is numerically zero (the linearized
        profile crosses zero inside the span).
    """
    t = _terms_arrays((params,), (f_i,), length)
    return ClosedFormTerms(length=length,
                           **{k: v[0] if v.ndim == 2 else float(v[0])
                              for k, v in t.items()})


def tilt_reconstruction(terms: ClosedFormTerms, zeta):
    """Rebuild 1 - x(zeta) (f_i - f_hat) from the three-term decomposition.

    Equals exactly 1 at zeta = 0 for any parameters.
    """
    zeta = np.asarray(zeta, dtype=float)
    rates = terms.alpha_l - terms.alpha  # l1 alpha_f - l2 alpha_b
    out = np.sum(
        terms.upsilon * terms.kappa_b
        * np.exp(-np.multiply.outer(zeta, rates)),
        axis=-1,
    )
    return out if out.ndim else float(out)


def _phi_self(span: FiberSpan, f_i):
    """Self-channel phase factor phi_i at offset(s) ``f_i``."""
    return -4.0 * math.pi ** 2 * (span.beta2
                                  + 2.0 * math.pi * span.beta3 * f_i)


def _phi_pair(span: FiberSpan, f_i, f_k):
    """Pair phase factor phi_ik at offsets ``f_i``, ``f_k`` (broadcasting)."""
    return (-4.0 * math.pi ** 2 * (f_k - f_i)
            * (span.beta2 + math.pi * span.beta3 * (f_i + f_k)))


def phase_mismatch(span: FiberSpan, f_i: float, f_k: Optional[float] = None
                   ) -> PhaseMismatch:
    """Dispersion phase factors; ``f_i``/``f_k`` are offsets (Hz) from the
    reference frequency at which beta2/beta3 are quoted.

    Raises
    ------
    DegenerateDispersionError
        If an interferer is given and the pair factor vanishes.
    """
    phi_i = _phi_self(span, f_i)
    phi_ik = None
    if f_k is not None:
        phi_ik = _phi_pair(span, f_i, f_k)
        if abs(phi_ik) < _PHI_EPS:
            raise DegenerateDispersionError(
                f"pair phase factor vanishes for offsets "
                f"f_i = {f_i:.4e} Hz, f_k = {f_k:.4e} Hz"
            )
    return PhaseMismatch(phi_i=phi_i, phi_ik=phi_ik)


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


def mu_closed(phi, terms: ClosedFormTerms):
    """Closed-form link function mu(phi) (m^2) for one channel's terms.

    ``phi`` (1/m) may be a scalar or an array.  All tilt factors are
    evaluated at the channel under test (single-profile substitution).
    """
    _check_rate_sums(terms.upsilon, terms.alpha_l, terms.alpha)
    phi_arr = np.asarray(phi, dtype=float)
    p = phi_arr[..., None, None]
    a = terms.alpha_l
    up = terms.upsilon
    kf, kb = terms.kappa_f, terms.kappa_b
    length = terms.length

    aa = a[:, None] * a[None, :]
    uu = up[:, None] * up[None, :]
    kff = kf[:, None] * kf[None, :] + kb[:, None] * kb[None, :]
    kfb_p = kf[:, None] * kb[None, :] + kb[:, None] * kf[None, :]
    kfb_m = kf[:, None] * kb[None, :] - kb[:, None] * kf[None, :]
    adiff = a[:, None] - a[None, :]

    p2 = p * p
    active = uu != 0.0
    denom = (a[:, None] ** 2 + p2) * (a[None, :] ** 2 + p2)
    denom = np.where(active, denom, 1.0)
    num = (kff * (aa + p2)
           - kfb_p * (aa + p2) * np.cos(p * length)
           - kfb_m * adiff * p * np.sin(p * length))
    out = np.sum(np.where(active, uu * num / denom, 0.0), axis=(-2, -1))
    return out if out.ndim else float(out)


def mu_closed_complex(phi, terms: ClosedFormTerms):
    """Link function via the complex-modulus form (cross-check path)."""
    _check_rate_sums(terms.upsilon, terms.alpha_l, terms.alpha)
    phi_arr = np.asarray(phi, dtype=float)
    p = phi_arr[..., None]
    active = terms.upsilon != 0.0
    denom = np.where(active, -terms.alpha_l + 1j * p, 1.0)
    s = np.sum(
        np.where(
            active,
            terms.upsilon
            * (terms.kappa_f * np.exp(1j * p * terms.length) - terms.kappa_b)
            / denom,
            0.0,
        ),
        axis=-1,
    )
    out = np.abs(s) ** 2
    return out if out.ndim else float(out)


def _contract(upsilon, alpha_l, kappa_f, kappa_b, alpha, length):
    """Contract the SPM/XPM bracket's (l, l') double sum, per channel.

    Arguments carry the three terms on their last axis, with optional
    leading channel axes (``alpha`` and the returned ``tail`` have only
    the channel axes).  With w = Upsilon_l Upsilon_l' / (alpha_l +
    alpha_l'), the bracket sum_{l,l'} w [...] equals

        sum_l g_l weight_l - c sign(phi) tail,

    where g_l is the arcsinh (SPM) or arctan (XPM) term of rate alpha_l
    and c is 4 log_w (SPM) or pi (XPM).  Returns (weight, tail, rate);
    ``rate`` is alpha_l with a subnormal stand-in for zero rates.
    """
    ab = _check_rate_sums(upsilon, alpha_l, alpha)
    w = upsilon[..., :, None] * upsilon[..., None, :] / ab
    kf, kf_t = kappa_f[..., :, None], kappa_f[..., None, :]
    kb, kb_t = kappa_b[..., :, None], kappa_b[..., None, :]
    e_al = np.exp(-np.abs(alpha_l * length))
    # w (kf kf' + kb kb') and w (kf kb' + kb kf') are symmetric in (l, l'),
    # w (kf kb' - kb kf') antisymmetric: each pairwise sum folds onto l.
    weight = 4.0 * np.sum(w * (kf * kf_t + kb * kb_t), axis=-1)
    sym = np.sum(w * (kf * kb_t + kb * kf_t), axis=-1)
    anti = np.sum(w * (kf * kb_t - kb * kf_t), axis=-1)
    tail = 2.0 * np.sum(e_al * (np.sign(alpha_l) * sym - anti), axis=-1)
    # A vanishing rate only occurs in zero-weight terms or at the atan/asinh
    # limit points; a subnormal stand-in saturates those arguments to +-inf,
    # their limiting value (the overflow in the divide is intended).
    rate = np.where(alpha_l == 0.0, 1e-300, alpha_l)
    return weight, tail, rate


def _terms_contracted(terms: ClosedFormTerms):
    return _contract(terms.upsilon, terms.alpha_l, terms.kappa_f,
                     terms.kappa_b, terms.alpha, terms.length)


def _xpm_sum(phi_ik, b_i, contracted):
    """XPM bracket sum from the interferer's contraction.

    ``phi_ik`` and ``b_i`` broadcast against the contraction's channel
    axes (the interferer k).
    """
    weight, tail, rate = contracted
    phi_ik = np.asarray(phi_ik)
    with np.errstate(over="ignore"):
        at = np.arctan(phi_ik[..., None] * np.asarray(b_i)[..., None]
                       / (2.0 * rate))
    return np.sum(at * weight, axis=-1) - math.pi * np.sign(phi_ik) * tail


def _spm_sum(phi_i, b_i, length, contracted):
    """SPM bracket sum from the channel's own contraction."""
    weight, tail, rate = contracted
    phi_i = np.asarray(phi_i)
    b_i = np.asarray(b_i)
    with np.errstate(over="ignore"):
        ash = np.arcsinh(3.0 * phi_i[..., None] * b_i[..., None] ** 2
                         / (8.0 * math.pi * rate))
    log_w = np.log(np.sqrt(np.abs(phi_i) * length / (2.0 * math.pi)) * b_i)
    return np.sum(ash * weight, axis=-1) - 4.0 * log_w * np.sign(phi_i) * tail


def eta_xpm_pair(
    channel_i: Channel,
    channel_k: Channel,
    terms: ClosedFormTerms,
    phase: PhaseMismatch,
    span: FiberSpan,
    n: int,
    span_index: int = 0,
) -> float:
    """Closed-form XPM contribution of interferer k onto channel i (1/W^2).

    ``terms`` must be the tilt decomposition of the *interferer* (built at
    f_k): the spectral integrand collapses to the interfering channel's
    power profile. Includes the interferer power ratio (P_k/P_i)^2 and the
    span count ``n`` (incoherent accumulation), so that the NLI power
    contributed by this pair is the return value times P_i^3.
    """
    if channel_k.center_frequency == channel_i.center_frequency:
        raise ValidationError("XPM pair requires distinct channels")
    if phase.phi_ik is None:
        raise ValidationError("phase mismatch lacks the pair factor phi_ik")
    phi_ik = phase.phi_ik
    p_i = channel_i.launch_power_per_span[span_index]
    p_k = channel_k.launch_power_per_span[span_index]
    total = float(_xpm_sum(phi_ik, channel_i.bandwidth,
                           _terms_contracted(terms)))
    return (n * _XPM_PREF * span.gamma ** 2 * (p_k / p_i) ** 2
            / (phi_ik * channel_k.bandwidth) * total)


def eta_spm(
    channel_i: Channel,
    terms: ClosedFormTerms,
    phase: PhaseMismatch,
    span: FiberSpan,
    n: int,
    epsilon: float = 0.0,
) -> float:
    """Closed-form SPM contribution of channel i onto itself (1/W^2).

    Includes the n^{1+epsilon} coherent accumulation factor; the launch
    power is divided out (NLI power = return value times P_i^3).
    """
    phi_i = phase.phi_i
    if phi_i == 0.0:
        raise DegenerateDispersionError(
            "self-channel phase factor phi_i is zero (dispersion-free); "
            "the SPM closed form is undefined"
        )
    b_i = channel_i.bandwidth
    if b_i <= 0 or terms.length <= 0:
        raise ValidationError("SPM needs positive bandwidth and span length")
    total = float(_spm_sum(phi_i, b_i, terms.length,
                           _terms_contracted(terms)))
    return (n ** (1.0 + epsilon) * _SPM_PREF * math.pi * span.gamma ** 2
            / (b_i ** 2 * phi_i) * total)


@dataclass(frozen=True)
class NliReport:
    """Per-channel NLI and SNR summary for one link."""

    frequencies: np.ndarray
    launch_powers: np.ndarray
    eta_spm: np.ndarray
    eta_xpm: np.ndarray
    eta_total: np.ndarray
    degenerate_pairs: Tuple[Tuple[int, int], ...] = ()
    snr_nli: Optional[np.ndarray] = None
    snr_total: Optional[np.ndarray] = None
    snr_total_db: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("frequencies", "launch_powers", "eta_spm", "eta_xpm",
                     "eta_total", "snr_nli", "snr_total", "snr_total_db"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "degenerate_pairs",
                           tuple(tuple(p) for p in self.degenerate_pairs))

    @property
    def n_channels(self) -> int:
        return self.frequencies.size

    def _rows(self):
        n = self.n_channels
        snr_nli_db = (10.0 * np.log10(self.snr_nli)
                      if self.snr_nli is not None else np.full(n, np.nan))
        snr_db = (self.snr_total_db if self.snr_total_db is not None
                  else np.full(n, np.nan))
        for i in range(n):
            yield tuple(map(format_float, (
                self.frequencies[i], self.eta_spm[i], self.eta_xpm[i],
                self.eta_total[i], snr_nli_db[i], snr_db[i])))

    def to_csv(self, path_or_buf=None) -> str:
        header = "f_i_hz,eta_spm_per_w2,eta_xpm_per_w2,eta_total_per_w2," \
                 "snr_nli_db,snr_db"
        text = header + "\n" + "\n".join(",".join(r) for r in self._rows()) \
            + "\n"
        return write_text(text, path_or_buf)

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
            "degenerate_pairs": [list(p) for p in self.degenerate_pairs],
        }
        return write_text(json.dumps(payload, indent=2) + "\n", path_or_buf)


def _kernel(config: LinkConfig, fit):
    """Launch-power-free single-span eta of the whole grid.

    Returns (spm, xpm, degenerate_pairs): ``spm[i]`` is channel i's SPM
    eta and ``xpm[i, k]`` interferer k's XPM eta onto channel i, both for
    one span and equal powers P_k = P_i; degenerate pairs hold 0.
    """
    span = config.span
    grid = config.grid
    length = span.length
    f_off = grid.frequencies - grid.band_center
    b = grid.bandwidths
    t = _terms_arrays([cf.params for cf in fit.channel_fits],
                      grid.frequencies, length)
    contracted = _contract(t["upsilon"], t["alpha_l"], t["kappa_f"],
                           t["kappa_b"], t["alpha"], length)

    phi_i = _phi_self(span, f_off)
    if np.any(phi_i == 0.0):
        raise DegenerateDispersionError(
            "phi_i vanishes for at least one channel"
        )
    spm = (_SPM_PREF * math.pi * span.gamma ** 2 / (b ** 2 * phi_i)
           * _spm_sum(phi_i, b, length, contracted))

    # pair (i, k) on axes (0, 1): the tilt decomposition is the
    # interferer's, since the spectral integrand collapses to channel k's
    # power profile
    phi_ik = _phi_pair(span, f_off[:, None], f_off[None, :])
    off_diag = ~np.eye(grid.n_channels, dtype=bool)
    degenerate = off_diag & (np.abs(phi_ik) < _PHI_EPS)
    valid = off_diag & ~degenerate
    phi_safe = np.where(valid, phi_ik, 1.0)
    xpm = (_XPM_PREF * span.gamma ** 2 / (phi_safe * b[None, :])
           * _xpm_sum(phi_safe, b[:, None], contracted))
    xpm = np.where(valid, xpm, 0.0)
    pairs = tuple((int(i), int(k)) for i, k in zip(*np.nonzero(degenerate)))
    return spm, xpm, pairs


def eta_total(config: LinkConfig, fit) -> NliReport:
    """Accumulate per-channel eta over all spans (1/W^2).

    eta_n(f_i) = sum_j (P_{i,j}/P_{i,0})^2 [eta_SPM,j n^epsilon
    + eta_XPM,j], where span j's XPM terms carry (P_{k,j}/P_{i,j})^2.  With
    the power-free single-span kernels S_i (SPM) and K_ik (XPM) this is

        eta_SPM = n^epsilon S_i sum_j P_{i,j}^2 / P_{i,0}^2,
        eta_XPM = sum_k K_ik sum_j P_{k,j}^2 / P_{i,0}^2,

    so the kernels are evaluated once whatever the per-span powers.  Equal
    powers in every span give n^{1+epsilon} S_i and n sum_k K_ik
    (P_k/P_i)^2.
    """
    if fit.n_channels != config.grid.n_channels:
        raise ValidationError(
            f"fit covers {fit.n_channels} channels but the grid has "
            f"{config.grid.n_channels}"
        )
    grid = config.grid
    n = config.span_count
    spm, xpm, pairs = _kernel(config, fit)
    powers = np.array([grid.launch_powers(j) for j in range(n)])
    p2 = np.sum(powers ** 2, axis=0)
    p_ref = powers[0]
    e_spm = spm * n ** config.coherence_epsilon * p2 / p_ref ** 2
    e_xpm = xpm @ p2 / p_ref ** 2
    return NliReport(
        frequencies=grid.frequencies,
        launch_powers=p_ref,
        eta_spm=e_spm,
        eta_xpm=e_xpm,
        eta_total=e_spm + e_xpm,
        degenerate_pairs=pairs,
    )


def assemble_snr(eta: NliReport, budget: SnrBudget, grid: WdmGrid) -> NliReport:
    """Complete a report with SNR_NLI and the reciprocal-sum total SNR."""
    n = eta.n_channels
    p_i = eta.launch_powers
    snr_ase, snr_trx = budget.as_arrays(n)
    for name, arr in (("snr_ase", snr_ase), ("snr_trx", snr_trx)):
        if np.any(arr <= 0.0) or np.any(np.isnan(arr)):
            raise ValidationError(f"{name} entries must be positive")
    with np.errstate(divide="ignore"):
        snr_nli = 1.0 / (eta.eta_total * p_i ** 2)
    inv = 1.0 / snr_nli + 1.0 / snr_ase + 1.0 / snr_trx
    snr_total = 1.0 / inv
    return NliReport(
        frequencies=eta.frequencies,
        launch_powers=eta.launch_powers,
        eta_spm=eta.eta_spm,
        eta_xpm=eta.eta_xpm,
        eta_total=eta.eta_total,
        degenerate_pairs=eta.degenerate_pairs,
        snr_nli=snr_nli,
        snr_total=snr_total,
        snr_total_db=10.0 * np.log10(snr_total),
    )
