"""Semi-analytical signal-power profile: evaluation and fitting.

The linearized profile used by the closed form is

    rho(z, f) = exp(-alpha z) * [1 - x(z) (f - f_hat)],
    x(z) = C_f P_f L_eff(z) + C_b P_b Lb_eff(z),

with L_eff(z) = (1 - exp(-alpha_f z)) / alpha_f and
Lb_eff(z) = (exp(-alpha_b (L - z)) - exp(-alpha_b L)) / alpha_b.  Its exact
precursor keeps the tilt in the exponent and normalizes over the total
bandwidth with a sinh factor.  ``effective_length``,
``backward_effective_length``, ``tilt_integral`` and ``tilt_derivative``
are the one implementation of these pieces; the fitter and the oracle
build on them.

``fit_profile`` matches the linearized model to an ODE solution per channel
by damped least squares on the dB-domain residual.  A channel's parameters
are one vector (alpha, c_f, c_b, alpha_f, alpha_b) addressed by position;
without a backward pump only the subset (alpha, c_f, alpha_f) is free and
c_b, alpha_b keep their fixed values.  The objective has many local minima
once the pump gain is strong, so the fitter ranks the physical initial
guess and a deterministic variable-projection seed grid by their scores
(sums of squared residuals).  The ranking is exact but prunes: every seed
is first scored on every ``_BOUND_STRIDE``-th z sample, a lower bound of
its score, and only seeds whose bound can still reach the best scores are
scored in full.  The fitter then polishes the best-scored seed and the
neighbouring channel's solution.  Seeded random restarts and further
polishes of the next-best seeds are opt-in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import least_squares

from .domain import LinkConfig, write_text
from .errors import NumericalError, ValidationError
from .raman import PowerEvolution, normalized_profile

_LN10 = math.log(10.0)
_K_DB = 10.0 / _LN10  # nepers -> dB
_SCORE_BLOCK = 32  # seeds per batched scoring pass
_BOUND_STRIDE = 16  # z samples per sample of the seed-score lower bound
_BOUND_MARGIN = 1e-9  # relative slack of the pruning test, far above rounding


@dataclass(frozen=True)
class ProfileParams:
    """Per-channel fitted quintuple plus the shared pump context.

    ``alpha``, ``alpha_f``, ``alpha_b`` are effective rates (Np/m); ``c_f``
    and ``c_b`` are effective Raman slopes (1/(W*m*Hz)); ``p_f`` is the total
    co-propagating power at z = 0 (channels plus forward pumps), ``p_b`` the
    total backward-pump power and ``f_hat`` the average pump frequency (Hz).
    """

    alpha: float
    c_f: float
    c_b: float
    alpha_f: float
    alpha_b: float
    p_f: float
    p_b: float
    f_hat: float


def effective_length(z, alpha_f: float):
    """Forward effective length (1 - exp(-alpha_f z)) / alpha_f."""
    z = np.asarray(z, dtype=float)
    out = -np.expm1(-alpha_f * z) / alpha_f
    return out if out.ndim else float(out)


def backward_effective_length(z, length: float, alpha_b: float):
    """Backward analogue (exp(-alpha_b (L - z)) - exp(-alpha_b L)) / alpha_b."""
    z = np.asarray(z, dtype=float)
    out = (np.exp(-alpha_b * (length - z)) - np.exp(-alpha_b * length)) / alpha_b
    return out if out.ndim else float(out)


def tilt_integral(params: ProfileParams, z, length: float):
    """Accumulated tilt x(z) = C_f P_f L_eff(z) + C_b P_b Lb_eff(z)."""
    return (params.c_f * params.p_f * effective_length(z, params.alpha_f)
            + params.c_b * params.p_b
            * backward_effective_length(z, length, params.alpha_b))


def tilt_derivative(params: ProfileParams, z, length: float, order=1):
    """The ``order``-th z-derivative of x(z), ``order`` >= 1:

    C_f P_f (-alpha_f)^(m-1) exp(-alpha_f z)
        + C_b P_b alpha_b^(m-1) exp(-alpha_b (L - z)).

    ``z`` and ``order`` broadcast against each other.
    """
    m = np.asarray(order) - 1
    return (params.c_f * params.p_f * np.exp(-params.alpha_f * z)
            * (-params.alpha_f) ** m
            + params.c_b * params.p_b * np.exp(-params.alpha_b * (length - z))
            * params.alpha_b ** m)


def eval_profile_taylor(params: ProfileParams, z, f_i: float, length: float):
    """First-order (linearized) profile; exactly 1 at z = 0."""
    z = np.asarray(z, dtype=float)
    x = tilt_integral(params, z, length)
    out = np.exp(-params.alpha * z) * (1.0 - x * (f_i - params.f_hat))
    return out if out.ndim else float(out)


def eval_profile_exact(params: ProfileParams, z, f_i: float, length: float,
                       total_bandwidth: float):
    """Pre-linearization profile with the sinh normalization factor.

    rho = exp(-alpha z) * x B / (2 sinh(x B / 2)) * exp(-x (f - f_hat)),
    with the removable singularity at x -> 0 evaluated by series.
    """
    if total_bandwidth <= 0:
        raise ValidationError("total bandwidth must be positive")
    z = np.asarray(z, dtype=float)
    x = np.asarray(tilt_integral(params, z, length), dtype=float)
    t = 0.5 * x * total_bandwidth
    small = np.abs(t) < 1e-6
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        norm = np.where(small, 1.0 - t * t / 6.0, t / np.sinh(np.where(small, 1.0, t)))
    out = np.exp(-params.alpha * z) * norm * np.exp(-x * (f_i - params.f_hat))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ChannelFit:
    """Fit result for one channel."""

    params: ProfileParams
    rms_db: float
    n_eval: int
    converged: bool


@dataclass(frozen=True)
class FitReport:
    """Per-channel profile fits for one span."""

    channel_fits: Tuple[ChannelFit, ...]

    def __post_init__(self):
        object.__setattr__(self, "channel_fits", tuple(self.channel_fits))

    @property
    def n_channels(self) -> int:
        return len(self.channel_fits)

    @property
    def max_rms_db(self) -> float:
        return max(cf.rms_db for cf in self.channel_fits)

    @property
    def unconverged_channels(self) -> Tuple[int, ...]:
        """Indices of the channels whose fit did not converge."""
        return tuple(i for i, cf in enumerate(self.channel_fits)
                     if not cf.converged)

    def to_json(self, path_or_buf=None) -> str:
        payload = {
            "channels": [
                {
                    "params": asdict(cf.params),
                    "rms_db": cf.rms_db,
                    "n_eval": cf.n_eval,
                    "converged": cf.converged,
                }
                for cf in self.channel_fits
            ]
        }
        return write_text(json.dumps(payload, indent=2) + "\n", path_or_buf)


def shared_fit_context(evolution: PowerEvolution, config: LinkConfig):
    """(P_f, P_b, f_hat) held fixed during fitting.

    P_f is the total co-propagating launch power (channels plus forward
    pumps), P_b the total backward-pump power, f_hat the power-unweighted
    mean pump frequency or the band center when there are no pumps.
    """
    from .domain import Direction

    span_index = evolution.span_index
    p_f = config.grid.total_launch_power(span_index)
    p_f += sum(p.input_power for p in config.pumps_by_direction(Direction.FORWARD))
    p_b = sum(p.input_power for p in config.pumps_by_direction(Direction.BACKWARD))
    if config.pumps:
        f_hat = float(np.mean([p.frequency for p in config.pumps]))
    else:
        f_hat = config.grid.band_center
    return p_f, p_b, f_hat


# Parameter vector (alpha, c_f, c_b, alpha_f, alpha_b): which entries are
# rates (Np/m) rather than slopes, and the free subset without a backward
# pump, where c_b and alpha_b are pinned.
_IS_RATE = np.array([True, False, False, True, True])
_ALL_FREE = np.arange(5)
_FORWARD_FREE = np.array([0, 1, 3])


def _parameter_space(alpha_phys, c_r, with_backward):
    """(free, base, lo, hi, x_scale) of one channel's fit.

    ``free`` indexes the fitted entries of the 5-vector.  ``base`` is that
    vector at its nominal values, alpha_phys for the rates and c_r for the
    slopes, with c_b pinned to zero without a backward pump; it is both the
    nominal seed and the source of the pinned values.  The bounds and
    scales cover the free entries only.
    """
    scale = np.where(_IS_RATE, alpha_phys, c_r)
    base = scale * np.array([1.0, 1.0, float(with_backward), 1.0, 1.0])
    hi = np.where(_IS_RATE, 5.0, 10.0) * scale
    lo = np.where(_IS_RATE, scale / 5.0, -hi)
    free = _ALL_FREE if with_backward else _FORWARD_FREE
    return free, base, lo[free], hi[free], scale[free]


def _residual_and_jac(length, z, target_db, delta, p_f, p_b, free, base):
    """Residual and Jacobian callables over the ``free`` entries of the
    parameter vector; the other entries keep their ``base`` values.

    The residual broadcasts over trailing axes of its argument.
    """
    def model_parts(pvec):
        full = list(base)
        for j, k in enumerate(free):
            full[k] = pvec[j]
        a, cf, cb, af, ab = full
        leff = effective_length(z, af)
        lbeff = backward_effective_length(z, length, ab)
        x = cf * p_f * leff + cb * p_b * lbeff
        u = 1.0 - x * delta
        return a, cf, cb, af, ab, leff, lbeff, u

    floor = 1e-12

    def residual(pvec):
        a, cf, cb, af, ab, leff, lbeff, u = model_parts(pvec)
        u_safe = np.maximum(u, floor)
        r = _K_DB * (-a * z + np.log(u_safe)) - target_db
        bad = u < floor
        if np.any(bad):
            r = r + np.where(bad, 1e3 * (floor - u), 0.0)
        return r

    def jacobian(pvec):
        a, cf, cb, af, ab, leff, lbeff, u = model_parts(pvec)
        u_safe = np.maximum(u, floor)
        bad = u < floor
        inv_u = np.where(bad, 0.0, 1.0 / u_safe)
        # d x / d (c_f, c_b, alpha_f, alpha_b); d u / d param = -delta d x
        dlb = (-(length - z) * np.exp(-ab * (length - z))
               + length * np.exp(-ab * length) - lbeff) / ab
        dx = np.array([p_f * leff, p_b * lbeff,
                       cf * p_f * (z * np.exp(-af * z) - leff) / af,
                       cb * p_b * dlb])
        du = -delta * dx
        jac = np.vstack([-_K_DB * z,
                         _K_DB * du * inv_u + np.where(bad, -1e3 * du, 0.0)])
        # Row-major: the trust-region SVD's last bits depend on the layout.
        return np.ascontiguousarray(jac[free].T)

    return residual, jacobian


def _varpro_seeds(length, z, target_db, delta, p_f, p_b, ratios, alpha_phys,
                  with_backward):
    """Variable-projection seed grid, one row (alpha, c_f, c_b, alpha_f,
    alpha_b) per candidate rate triple.

    For each candidate (alpha, alpha_f, alpha_b) the two slope coefficients
    enter the pre-log model linearly, so they are obtained by a tiny linear
    least-squares solve against the de-trended target.  The 2x2 normal
    equations of the whole grid are built from the per-rate effective-length
    rows and solved at once.  Rows run alpha-major, then alpha_f, then
    alpha_b; singular systems (det <= 0) are dropped.
    """
    rates = ratios * alpha_phys
    col_f = p_f * effective_length(z, rates[:, None])
    u_target = 10.0 ** ((target_db + _K_DB * np.outer(rates, z)) / 10.0)
    y = (1.0 - u_target) / delta  # one de-trended target per alpha
    g_ff = np.einsum("ij,ij->i", col_f, col_f)
    b_f = y @ col_f.T  # (alpha, alpha_f)
    if not with_backward:
        keep = np.broadcast_to(g_ff > 0, b_f.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            c_f = b_f / g_ff
        a, a_f = np.meshgrid(rates, rates, indexing="ij")
        rows = (a, c_f, np.zeros_like(c_f), a_f, np.full_like(c_f, alpha_phys))
        return np.stack(rows, axis=-1)[keep]
    col_b = p_b * backward_effective_length(z, length, rates[:, None])
    g_bb = np.einsum("ij,ij->i", col_b, col_b)
    g_fb = col_f @ col_b.T  # (alpha_f, alpha_b)
    b_b = y @ col_b.T  # (alpha, alpha_b)
    det = g_ff[:, None] * g_bb[None, :] - g_fb * g_fb
    b_f = b_f[:, :, None]
    b_b = b_b[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        c_f = (g_bb[None, None, :] * b_f - g_fb * b_b) / det
        c_b = (g_ff[None, :, None] * b_b - g_fb * b_f) / det
    keep = np.broadcast_to(det > 0, c_f.shape)
    a, a_f, a_b = np.meshgrid(rates, rates, rates, indexing="ij")
    return np.stack((a, c_f, c_b, a_f, a_b), axis=-1)[keep]


def _seed_scores(residual, seeds, block=_SCORE_BLOCK):
    """sum(residual(s)**2) for every row s of ``seeds``, in blocks.

    ``residual`` broadcasts over trailing axes, so a (n_free, m, 1) stack of
    seeds yields an (m, n_z) block of residual rows in one pass.  Blocks of
    at most ``block`` seeds bound the size of the temporaries.
    """
    scores = np.empty(len(seeds))
    for start in range(0, len(seeds), block):
        rows = seeds[start:start + block]
        r = residual(rows.T[:, :, None])
        scores[start:start + len(rows)] = np.sum(r * r, axis=1)
    return scores


def _best_seeds(residual, bound_residual, seeds, count):
    """Indices of the ``count`` lowest-scored rows of ``seeds``, best first.

    The result equals ``np.argsort(_seed_scores(residual, seeds),
    kind="stable")[:count]``, but most seeds are never fully scored.  A
    score is a sum of squares, so its partial sum over the z samples that
    ``bound_residual`` sees is a lower bound.  Pass 1 bounds every seed;
    pass 2 fully scores the seeds with the lowest bounds, whose
    ``count``-th best score U caps the answer; pass 3 fully scores every
    other seed whose bound is at most U * (1 + ``_BOUND_MARGIN``).  Seeds
    above that are strictly worse than U and are pruned.  A NaN score sorts
    after every finite one; without ``count`` finite scores in pass 2 the
    selection scores every seed.
    """
    n = len(seeds)
    if count < n:
        # Bounding rows are _BOUND_STRIDE times shorter, so their blocks
        # can hold that many more seeds for the same temporaries.
        bounds = _seed_scores(bound_residual, seeds,
                              block=_SCORE_BLOCK * _BOUND_STRIDE)
        first = np.argsort(bounds, kind="stable")[:max(count, _SCORE_BLOCK)]
        scores = np.empty(n)
        scores[first] = _seed_scores(residual, seeds[first])
        cap = np.sort(scores[first])[count - 1]
        if np.isfinite(cap):
            scored = np.zeros(n, dtype=bool)
            scored[first] = True
            keep = bounds <= cap * (1.0 + _BOUND_MARGIN)
            rest = np.flatnonzero(keep & ~scored)
            scores[rest] = _seed_scores(residual, seeds[rest])
            kept = np.flatnonzero(keep)
            return kept[np.argsort(scores[kept], kind="stable")[:count]]
    return np.argsort(_seed_scores(residual, seeds), kind="stable")[:count]


def _fit_exponential(z, target_db):
    """Closed-form fit when there is no Raman coupling at all."""
    coeffs = np.polyfit(z, target_db, 1)  # dB per metre, dB
    alpha = -coeffs[0] / _K_DB
    rms = float(np.sqrt(np.mean((target_db - np.polyval(coeffs, z)) ** 2)))
    return alpha, rms


def fit_profile(
    evolution: PowerEvolution,
    config: LinkConfig,
    *,
    n_random_starts: int = 0,
    n_grid: int = 12,
    n_polish: int = 0,
    rng_seed: int = 20260823,
    max_iterations: int = 200,
) -> FitReport:
    """Fit the linearized profile to an ODE solution, channel by channel.

    The per-channel objective is the sum of squared dB-domain residuals over
    the evolution's z grid.  The parameters are the vector (alpha, c_f, c_b,
    alpha_f, alpha_b): rates within a factor 5 of the intrinsic loss,
    slopes within 10 C_r in magnitude.  (P_f, P_b, f_hat) come from the link
    configuration and are held fixed.  Without a backward pump c_b is
    unidentifiable: only (alpha, c_f, alpha_f) are fitted, c_b is pinned to
    zero and alpha_b to the intrinsic loss.  Without Raman coupling (C_r =
    0) and on a channel at f_hat, which sees no tilt, only alpha is fitted,
    in closed form.

    Each channel ranks the nominal guess and an ``n_grid``^3 (``n_grid``^2
    without a backward pump) variable-projection seed grid by score, then
    polishes the best-scored seed and the previous channel's solution.  The
    ranking bounds each score by its partial sum over a strided subset of
    the z grid and fully scores only the seeds that bound cannot rule out,
    so it picks the same seeds as a full scan (``_best_seeds``).  With the
    defaults that is two polishes per channel (one on the first).  An
    exhaustive multistart is opt-in: ``n_polish`` further polishes of the
    next-best seeds and ``n_random_starts`` uniform random starts drawn with
    ``rng_seed`` (for example 12 and 24).  A polish stops after
    ``max_iterations`` residual evaluations.

    Raises
    ------
    ValidationError
        If the evolution has fewer than 50 z samples or a channel's profile
        is not strictly positive.
    NumericalError
        If a polish fails; the message names the channel.
    """
    z = evolution.z_grid
    if z.size < 50:
        raise ValidationError(
            f"profile fit needs >= 50 z samples, got {z.size}"
        )
    span = config.span
    length = span.length
    c_r = span.raman_slope
    p_f, p_b, f_hat = shared_fit_context(evolution, config)
    with_backward = p_b > 0.0

    rng = np.random.default_rng(rng_seed)
    fits = []
    prev_best: Optional[np.ndarray] = None
    for ch_idx in range(evolution.n_channels):
        f_i = config.grid.channels[ch_idx].center_frequency
        rho = normalized_profile(evolution, ch_idx)
        if np.any(rho <= 0.0):
            raise ValidationError(
                f"channel {ch_idx}: numeric profile is not strictly positive"
            )
        target_db = 10.0 * np.log10(rho)
        alpha_phys = span.alpha_at(f_i)
        free, base, lo, hi, x_scale = _parameter_space(alpha_phys, c_r,
                                                       with_backward)
        delta = f_i - f_hat
        if c_r == 0.0 or delta == 0.0:
            base[0], rms = _fit_exponential(z, target_db)
            params = ProfileParams(*base.tolist(), p_f, p_b, f_hat)
            fits.append(ChannelFit(params, rms, 1, True))
            continue

        residual, jacobian = _residual_and_jac(
            length, z, target_db, delta, p_f, p_b, free, base
        )
        bound_residual = _residual_and_jac(
            length, z[::_BOUND_STRIDE], target_db[::_BOUND_STRIDE], delta,
            p_f, p_b, free, base
        )[0]

        ratios = np.geomspace(0.2, 5.0, n_grid)
        grid_seeds = _varpro_seeds(length, z, target_db, delta, p_f, p_b,
                                   ratios, alpha_phys, with_backward)
        seeds = np.vstack([base[free], grid_seeds[:, free]])
        random_seeds = [lo + rng.random(len(free)) * (hi - lo)
                        for _ in range(n_random_starts)]
        if prev_best is not None:
            random_seeds.append(prev_best)

        # Strictly inside the bounds, whatever their signs: least_squares
        # rejects a start on (or beyond) a bound.
        margin = 1e-9 * (hi - lo)
        clip = lambda s: np.clip(s, lo + margin, hi - margin)
        seeds = clip(seeds)
        order = _best_seeds(residual, bound_residual, seeds, 1 + n_polish)
        to_polish = [seeds[k] for k in order] + [clip(s) for s in random_seeds]

        best = None
        for s0 in to_polish:
            try:
                res = least_squares(
                    residual, s0, jac=jacobian, bounds=(lo, hi),
                    method="trf", x_scale=x_scale,
                    xtol=1e-10, ftol=1e-12, gtol=1e-14,
                    max_nfev=max_iterations,
                )
            except (ValueError, np.linalg.LinAlgError) as exc:
                raise NumericalError(
                    f"channel {ch_idx}: profile fit failed: {exc}"
                ) from exc
            rms = float(np.sqrt(np.mean(res.fun ** 2)))
            if best is None or rms < best[0]:
                best = (rms, res)
        rms, res = best
        prev_best = res.x
        base[free] = res.x
        params = ProfileParams(*base.tolist(), p_f, p_b, f_hat)
        fits.append(ChannelFit(params, rms, int(res.nfev), res.status > 0))

    return FitReport(tuple(fits))
