"""Semi-analytical signal-power profile: evaluation and fitting.

The linearized profile used by the closed form is

    rho(z, f) = exp(-alpha z) * [1 - x(z) (f - f_hat)],
    x(z) = C_f P_f L_eff(z) + C_b P_b Lb_eff(z),

with L_eff(z) = (1 - exp(-alpha_f z)) / alpha_f and
Lb_eff(z) = (exp(-alpha_b (L - z)) - exp(-alpha_b L)) / alpha_b.  Its exact
precursor, which the package does not evaluate, keeps the tilt in the
exponent and normalizes over the total bandwidth with a sinh factor.
``effective_length``, ``backward_effective_length``, ``tilt_integral`` and
``tilt_derivative`` are the one implementation of these pieces; the fitter
and the oracle build on them.

``fit_profile`` matches the linearized model to an ODE solution per channel
by damped least squares on the dB-domain residual.  It ranks and polishes
on a uniform sub-grid of the solver's z samples, every s-th sample with s
the largest divisor of the step count that leaves ``_FIT_STEPS`` steps
(``_fit_stride``): the same L2-integral estimate on fewer samples, z = L
kept.  Each channel's RMS is taken on the solver's grid.  A channel's
parameters are one vector (alpha, c_f, c_b, alpha_f, alpha_b) addressed by
position; without a backward pump only the subset (alpha, c_f, alpha_f) is
free and c_b, alpha_b keep their fixed values.  The objective has many
local minima once the pump gain is strong, so the fitter ranks the
physical initial guess and a deterministic variable-projection seed grid
by their scores (sums of squared residuals).  The ranking is exact but
prunes: a seed's partial score over every ``_BOUND_STRIDES[i]``-th sub-grid
sample is a lower bound of its score, the bounds are checked from coarse
to fine samples, and only the seeds that no bound rules out are scored in
full.  The grid's rates are the same for every channel, so its effective
lengths, Gram terms and one L_eff and Lb_eff table (a row per grid rate and
one for the nominal rate) are built once per fit; the seed residuals gather
their rows from that table instead of taking exponentials per seed.

Every polish is one problem of a batched, bounded, projected
Levenberg-Marquardt (``_polish``; More 1978, Kanzow, Yamashita & Fukushima
2004): the residuals and Jacobians of all problems are evaluated as stacked
arrays and their damped normal equations solved in one call per iteration.
The Jacobian at a kept step is built from the terms of the residual that
tested the step, so only exp(-alpha_f z) is new there.  All channels are
polished in one such pass, each from its best-scored seed; a channel's
result depends on its own starts only.  Seeded random restarts and further
polishes of the next-best seeds are opt-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields
from functools import cached_property
from typing import Tuple

import numpy as np

from .domain import Direction, LinkConfig, _read_only, write_json
from .errors import NumericalError, ValidationError
from .raman import PowerEvolution, normalized_profile

_LN10 = math.log(10.0)
_K_DB = 10.0 / _LN10  # nepers -> dB
_N_GRID = 12  # seed-grid ratios per rate, 0.2 to 5 times the nominal
_RNG_SEED = 20260823  # seed of the opt-in random starts
_SCORE_BLOCK = 32  # seeds per batched scoring pass
_FIT_STEPS = 250  # least steps of the sub-grid the fit ranks and polishes on
# Sub-grid samples per sample of each seed-score lower bound, coarse to fine;
# each stride divides the one before, so every level sees the coarser
# samples.
_BOUND_STRIDES = (32, 8, 2)
_CAP_SEEDS = 8  # seeds fully scored, at the least, to set the pruning cap
_BOUND_MARGIN = 1e-9  # relative slack of the pruning test, far above rounding
_POLISH_BLOCK = 256  # problems per batched polish, bounding its temporaries
_FLOOR = 1e-12  # least pre-log model value; below it a linear penalty applies
_MU0 = 1e-3  # initial damping, relative to the largest diagonal of J^T J
_ACCEPT = 1e-4  # least gain ratio of a kept step
# Stop tolerances of a polish: relative change of the score, scaled step,
# projected scaled gradient.
_FTOL, _XTOL, _GTOL = 1e-12, 1e-10, 1e-14


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


def _backward_terms(z, length, alpha_b):
    """(Lb_eff, exp(-alpha_b (L - z)), exp(-alpha_b L)): the backward
    effective length and the two exponentials it is built from."""
    e_z = np.exp(-alpha_b * (length - z))
    e_l = np.exp(-alpha_b * length)
    return (e_z - e_l) / alpha_b, e_z, e_l


def backward_effective_length(z, length: float, alpha_b: float):
    """Backward analogue (exp(-alpha_b (L - z)) - exp(-alpha_b L)) / alpha_b."""
    z = np.asarray(z, dtype=float)
    out = _backward_terms(z, length, alpha_b)[0]
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


def pair_offsets(f_i, b_i, f_k, b_k, f_hat):
    """(lo, hi): the offsets from ``f_hat`` at which the pair (channel under
    test i, interferer k) evaluates the profile: both bands, f1 + f2 + f_k
    over both, and f_i.  Broadcasts."""
    d1, d2 = f_i - f_hat, f_k - f_hat
    lo1, hi1 = d1 - b_i / 2, d1 + b_i / 2
    lo2, hi2 = d2 - b_k / 2, d2 + b_k / 2
    lo3, hi3 = lo1 + lo2 - d1 + 0.0, hi1 + hi2 - d1
    return (np.minimum(np.minimum(lo1, lo2), np.minimum(lo3, d1)),
            np.maximum(np.maximum(hi1, hi2), np.maximum(hi3, d1)))


def profile_margin(params: ProfileParams, length: float, d_lo, d_hi):
    """(m, z): the least m of 1 - x(z) d over z in [0, L] and d in [d_lo,
    d_hi], and a z where it is taken; a power profile needs m > 0.  The
    factor is linear in d; x(0) = 0 and x' = C_f P_f e^{-alpha_f z} + C_b P_b
    e^{-alpha_b (L - z)} is monotone: x's extremes lie at 0, L and x' = 0."""
    a, b = params.c_f * params.p_f, params.c_b * params.p_b
    z = [0.0, length]
    if a * b < 0.0:
        z.append(np.clip((math.log(-a / b) + params.alpha_b * length)
                         / (params.alpha_f + params.alpha_b), 0.0, length))
    u = 1.0 - np.multiply.outer(tilt_integral(params, np.array(z), length),
                                (d_lo, d_hi))
    j = int(np.argmin(u))
    return float(u.flat[j]), float(z[j // 2])


@dataclass(frozen=True)
class ChannelFit:
    """Fit result for one channel."""

    params: ProfileParams
    rms_db: float
    n_eval: int
    converged: bool


@dataclass(frozen=True)
class FitReport:
    """Per-channel profile fits for one span.  Its parameter array is
    built on first use, once, and is read-only."""

    channel_fits: Tuple[ChannelFit, ...]

    def __post_init__(self):
        object.__setattr__(self, "channel_fits", tuple(self.channel_fits))

    @property
    def n_channels(self) -> int:
        return len(self.channel_fits)

    @cached_property
    def _param_matrix(self) -> np.ndarray:
        """The fits' ``ProfileParams``, one C-contiguous row per field in
        declaration order (alpha, ..., f_hat), one column per channel."""
        return _read_only([[getattr(cf.params, f.name)
                            for cf in self.channel_fits]
                           for f in fields(ProfileParams)], float)

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
        return write_json(payload, path_or_buf)


def shared_fit_context(evolution: PowerEvolution, config: LinkConfig):
    """(P_f, P_b, f_hat) held fixed during fitting.

    P_f is the total co-propagating launch power (channels plus forward
    pumps), P_b the total backward-pump power, f_hat the power-unweighted
    mean pump frequency or the band center when there are no pumps.
    """
    span_index = evolution.span_index
    p_f = config.grid.total_launch_power(span_index)
    p_f += sum(p.input_power for p in config.pumps_by_direction(Direction.FORWARD))
    p_b = sum((p.input_power
               for p in config.pumps_by_direction(Direction.BACKWARD)), 0.0)
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


def _tilt(cf, cb, leff, lbeff, p_f, p_b):
    """x = c_f P_f L_eff + c_b P_b Lb_eff; ``lbeff`` None drops the
    backward term, which is exactly zero when P_b = 0."""
    x = cf * p_f * leff
    return x if lbeff is None else x + cb * p_b * lbeff


def _log_residual(a, x, z, delta, target_db):
    """(r, u): the dB residual of exp(-a z) (1 - x delta) against
    ``target_db``, and u = 1 - x delta.  Where u < ``_FLOOR`` the log is
    taken at ``_FLOOR`` and a penalty of 1e3 per unit shortfall is added."""
    u = 1.0 - x * delta
    r = _K_DB * (-a * z + np.log(np.maximum(u, _FLOOR))) - target_db
    bad = u < _FLOOR
    if np.any(bad):
        r = r + np.where(bad, 1e3 * (_FLOOR - u), 0.0)
    return r, u


def _residual_and_jac(length, z, target_db, delta, p_f, p_b, free, base):
    """Residual and Jacobian callables over the ``free`` entries of the
    parameter vector; the other entries keep their ``base`` values.

    Both broadcast over problems: a (n_free, m, 1) stack of parameter
    vectors, with ``base`` (5, m, 1) or (5,), ``target_db`` (m, n_z) or
    (n_z,) and ``delta`` (m, 1) or a scalar, gives (m, n_z) residual rows
    and an (m, n_free, n_z) Jacobian whose row j is d residual / d pvec[j].

    ``residual(pvec)`` returns (r, terms): the rows and the terms they are
    built from, (L_eff, Lb_eff, exp(-alpha_b (L - z)), exp(-alpha_b L), u)
    with u = 1 - x delta.  ``jacobian(pvec, terms)`` takes the terms of the
    residual at the same ``pvec`` (or a row subset of them, for the same
    rows of ``pvec``), so only exp(-alpha_f z) is new.  With P_b = 0 the
    backward term is dropped: the three backward terms are None, and c_b
    and alpha_b must not be free.
    """
    backward = p_b != 0.0

    def entries(pvec):
        full = list(base)
        for j, k in enumerate(free):
            full[k] = pvec[j]
        return full

    def residual(pvec):
        a, cf, cb, af, ab = entries(pvec)
        leff = effective_length(z, af)
        lbeff = e_b = e_l = None
        if backward:
            lbeff, e_b, e_l = _backward_terms(z, length, ab)
        r, u = _log_residual(a, _tilt(cf, cb, leff, lbeff, p_f, p_b), z,
                             delta, target_db)
        return r, (leff, lbeff, e_b, e_l, u)

    def jacobian(pvec, terms):
        a, cf, cb, af, ab = entries(pvec)
        leff, lbeff, e_b, e_l, u = terms
        # d r / d x: the log branch, or the clamp penalty's slope
        bad = u < _FLOOR
        dr_dx = -delta * np.where(bad, -1e3, _K_DB / np.maximum(u, _FLOOR))
        # d r / d alpha, and d x / d (c_f, alpha_f[, c_b, alpha_b])
        d_r = {0: np.broadcast_to(-_K_DB * z, u.shape)}
        dx = {1: p_f * leff,
              3: cf * p_f * (z * np.exp(-af * z) - leff) / af}
        if backward:
            dx[2] = p_b * lbeff
            dx[4] = cb * p_b * ((-(length - z) * e_b + length * e_l
                                 - lbeff) / ab)
        d_r.update((k, dr_dx * d) for k, d in dx.items())
        return np.stack([d_r[k] for k in free], axis=-2)

    return residual, jacobian


def _seed_grid(length, z, p_f, p_b, ratios, alpha_phys, with_backward):
    """The channel-invariant terms of the variable-projection seed grid:
    (decay, col_f, col_b, gram, keep, rows, tables).  ``_varpro_seeds``
    takes all but ``tables``, ``_seed_levels`` takes ``tables``.

    The candidate rates are ``ratios * alpha_phys``.  ``decay`` holds the dB
    loss _K_DB alpha z of each alpha, ``col_f`` and ``col_b`` the per-rate
    columns P_f L_eff and P_b Lb_eff, ``gram`` their Gram terms (g_ff, g_bb,
    g_fb, det).  Without a backward pump ``col_b`` is None, ``gram`` is
    (g_ff,) and alpha_b keeps ``alpha_phys``.  ``keep`` marks the rate
    triples whose normal equations are not singular, and ``rows`` holds
    their rates as parameter vectors, alpha-major, then alpha_f, then
    alpha_b, with zero slopes.  ``tables`` is (row_f, L_eff, row_b,
    Lb_eff): the one rate table, L_eff and Lb_eff (None without a backward
    pump) at the candidate rates and then at ``alpha_phys``, and the table
    rows of the alpha_f and alpha_b of the nominal seed, then of ``rows``.
    """
    n = len(ratios)
    rates = np.append(ratios, 1.0) * alpha_phys
    decay = _K_DB * np.outer(rates[:n], z)
    leff = effective_length(z, rates[:, None])
    col_f = p_f * leff[:n]
    g_ff = np.einsum("ij,ij->i", col_f, col_f)
    index = np.arange(n)
    if with_backward:
        lbeff = backward_effective_length(z, length, rates[:, None])
        col_b = p_b * lbeff[:n]
        g_bb = np.einsum("ij,ij->i", col_b, col_b)
        g_fb = col_f @ col_b.T  # (alpha_f, alpha_b)
        det = g_ff[:, None] * g_bb[None, :] - g_fb * g_fb
        gram, keep = (g_ff, g_bb, g_fb, det), det > 0
        i_a, i_f, i_b = np.meshgrid(index, index, index, indexing="ij")
    else:
        lbeff, col_b, gram, keep = None, None, (g_ff,), g_ff > 0
        i_a, i_f = np.meshgrid(index, index, indexing="ij")
        i_b = np.full_like(i_a, n)
    keep = np.broadcast_to(keep, i_a.shape)
    row_f, row_b = (np.append(n, i[keep]) for i in (i_f, i_b))
    a = rates[i_a[keep]]
    zero = np.zeros_like(a)
    rows = np.stack((a, zero, zero, rates[row_f[1:]], rates[row_b[1:]]),
                    axis=-1)
    return decay, col_f, col_b, gram, keep, rows, (row_f, leff, row_b, lbeff)


def _varpro_seeds(grid, target_db, delta):
    """Variable-projection seed grid of one channel, one row (alpha, c_f,
    c_b, alpha_f, alpha_b) per candidate rate triple of ``grid``
    (``_seed_grid``).

    For each candidate (alpha, alpha_f, alpha_b) the two slope coefficients
    enter the pre-log model linearly, so they are obtained by a tiny linear
    least-squares solve against the de-trended target.  The 2x2 normal
    equations of the whole grid are built from the per-rate effective-length
    rows and solved at once.  Rows run alpha-major, then alpha_f, then
    alpha_b; singular systems (det <= 0) are dropped.
    """
    decay, col_f, col_b, gram, keep, rows = grid[:6]
    u_target = 10.0 ** ((target_db + decay) / 10.0)
    y = (1.0 - u_target) / delta  # one de-trended target per alpha
    b_f = y @ col_f.T  # (alpha, alpha_f)
    seeds = rows.copy()
    if col_b is None:
        (g_ff,) = gram
        with np.errstate(divide="ignore", invalid="ignore"):
            seeds[:, 1] = (b_f / g_ff)[keep]
        return seeds
    g_ff, g_bb, g_fb, det = gram
    b_b = y @ col_b.T  # (alpha, alpha_b)
    b_f = b_f[:, :, None]
    b_b = b_b[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        seeds[:, 1] = ((g_bb[None, None, :] * b_f - g_fb * b_b) / det)[keep]
        seeds[:, 2] = ((g_ff[None, :, None] * b_b - g_fb * b_f) / det)[keep]
    return seeds


def _seed_levels(z, target_db, delta, p_f, p_b, full, tables):
    """The residuals of the parameter vectors ``full`` at every level of
    ``_best_seeds``: one per ``_BOUND_STRIDES`` entry and one at full
    resolution, last.

    Level i maps an index array k into ``full`` to the (len(k), n_z /
    stride) residual rows of those vectors on z[::stride], equal to
    ``_residual_and_jac``'s.  L_eff and Lb_eff are gathered from
    ``tables`` (row_f, L_eff, row_b, Lb_eff), which hold one row per rate
    and each vector's alpha_f and alpha_b row (``_seed_grid``), so each
    exponential is taken once per rate and z sample.
    """
    a, cf, cb = (full[:, j, None] for j in range(3))
    row_f, table_f, row_b, table_b = tables

    def level(step):
        zs, target, leff = z[::step], target_db[::step], table_f[:, ::step]
        lbeff = None if table_b is None else table_b[:, ::step]

        def residual(k):
            x = _tilt(cf[k], cb[k], leff[row_f[k]],
                      None if lbeff is None else lbeff[row_b[k]], p_f, p_b)
            return _log_residual(a[k], x, zs, delta, target)[0]

        return residual

    return [level(step) for step in _BOUND_STRIDES + (1,)]


def _seed_scores(residual, index, block=_SCORE_BLOCK):
    """sum(residual(k)**2) for every seed index k of ``index``, in blocks.

    ``residual`` maps an index array to one residual row per index.  Blocks
    of at most ``block`` seeds bound the size of the temporaries.
    """
    scores = np.empty(len(index))
    for start in range(0, len(index), block):
        r = residual(index[start:start + block])
        scores[start:start + block] = np.sum(r * r, axis=1)
    return scores


def _best_seeds(levels, n, count):
    """Indices of the ``count`` lowest-scored of ``n`` seeds, best first.

    ``levels`` are residuals as ``_seed_levels`` builds them: one per
    ``_BOUND_STRIDES`` entry, coarse to fine, each seeing the samples of the
    coarser ones, then the full residual.  The result equals
    ``np.argsort(_seed_scores(levels[-1], np.arange(n)), kind="stable")
    [:count]``, but most seeds are never fully scored.  A score is a sum of
    squares, so its partial sum over the samples of a level is a lower
    bound.  Every seed is bounded at the coarsest level; the seeds with the
    lowest bounds there are fully scored, and their ``count``-th best score
    U caps the answer.  Each level in turn then bounds the seeds that are
    still in, and drops those whose bound exceeds U * (1 + ``_BOUND_MARGIN``):
    they are strictly worse than U.  The survivors of the finest level are
    fully scored.  A NaN score sorts after every finite one; without
    ``count`` finite scores among the first fully scored seeds the
    selection scores every seed.
    """
    *bounds, residual = levels
    everyone = np.arange(n)
    if count < n:
        # A level's rows are ``stride`` times shorter than full ones, so its
        # blocks can hold that many more seeds for the same temporaries.
        coarse = _seed_scores(bounds[0], everyone,
                              _SCORE_BLOCK * _BOUND_STRIDES[0])
        first = np.argsort(coarse, kind="stable")[:max(count, _CAP_SEEDS)]
        scores = np.empty(n)
        scores[first] = _seed_scores(residual, first)
        cap = np.sort(scores[first])[count - 1]
        if np.isfinite(cap):
            limit = cap * (1.0 + _BOUND_MARGIN)
            alive = coarse <= limit
            alive[first] = False
            alive = np.flatnonzero(alive)
            for bound, stride in zip(bounds[1:], _BOUND_STRIDES[1:]):
                alive = alive[_seed_scores(bound, alive, _SCORE_BLOCK * stride)
                              <= limit]
            scores[alive] = _seed_scores(residual, alive)
            kept = np.sort(np.concatenate([first, alive]))
            return kept[np.argsort(scores[kept], kind="stable")[:count]]
    return np.argsort(_seed_scores(residual, everyone), kind="stable")[:count]


def _normal_equations(jacobian, x, r, terms, scale):
    """(J^T J, J^T r) in ``scale`` units, one (n, n) and (n,) per row of
    ``x``, from the residual ``r`` and its ``terms`` at ``x``."""
    jt = jacobian(x.T[:, :, None], terms) * scale[:, :, None]
    return jt @ jt.transpose(0, 2, 1), (jt @ r[:, :, None])[:, :, 0]


def _damped_steps(a, g, mu, frozen):
    """Solve (A + mu I) h = -g on the entries not ``frozen``; h is 0 on the
    frozen ones.  Rows whose solve fails come back NaN."""
    free = ~frozen
    m = a * (free[:, :, None] & free[:, None, :])
    diag = np.arange(a.shape[1])
    m[:, diag, diag] += np.where(free, mu[:, None], 1.0)
    rhs = -np.where(frozen, 0.0, g)[:, :, None]
    try:
        return np.linalg.solve(m, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        h = np.full(g.shape, np.nan)
        for i in range(len(m)):
            try:
                h[i] = np.linalg.solve(m[i], rhs[i])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return h


def _polish(problem, x0, lo, hi, scale, max_nfev):
    """Batched projected Levenberg-Marquardt, one problem per row of ``x0``.

    ``problem(rows)`` returns the (residual, jacobian) pair of
    ``_residual_and_jac`` for those rows (none, once every row has stopped
    before a step), with per-row parameters, so that
    the residual's terms index by row: the Jacobian at a kept step is built
    from the terms of the residual that tested it.  Each problem minimizes
    its sum of squared residuals S over the box [lo, hi], in ``scale``
    units: an entry on a bound whose gradient points outward is frozen, the
    damped normal equations (J^T J + mu I) h = -J^T r are solved on the
    others, and the step is projected onto the box.  A step is kept when its gain ratio
    (actual over predicted decrease of S) exceeds ``_ACCEPT``; mu follows
    Nielsen's (1999) update.  A problem stops, converged, when its projected
    gradient falls below ``_GTOL``, or after an evaluation, kept or not,
    whose step changed S by less than ``_FTOL`` S with a gain ratio above
    0.25 or moved the scaled parameters by less than ``_XTOL`` (``_XTOL`` +
    |x|).  It stops unconverged after ``max_nfev`` residual evaluations, the
    one at ``x0`` included.  Each row follows the same arithmetic whatever
    else is in the batch.

    Returns (x, nfev, converged, failed); ``failed`` marks rows
    whose residual, Jacobian or damped solve was not finite, and those rows
    are dropped from the iteration.
    """
    x = x0.copy()
    residual, jacobian = problem(np.arange(len(x)))
    r, terms = residual(x.T[:, :, None])
    cost = np.sum(r * r, axis=1)
    a, g = _normal_equations(jacobian, x, r, terms, scale)
    nfev = np.ones(len(x), dtype=int)
    failed = ~(np.isfinite(cost) & np.isfinite(a).all(axis=(1, 2))
               & np.isfinite(g).all(axis=1))
    converged = np.zeros(len(x), dtype=bool)
    mu = _MU0 * np.max(np.diagonal(a, axis1=1, axis2=2), axis=1)
    nu = np.full(len(x), 2.0)
    rows = np.flatnonzero(~failed & (nfev < max_nfev))
    while rows.size:
        xr, gr = x[rows], g[rows]
        frozen = (((xr <= lo[rows]) & (gr > 0.0))
                  | ((xr >= hi[rows]) & (gr < 0.0)))
        stop = np.max(np.abs(np.where(frozen, 0.0, gr)), axis=1) < _GTOL
        h = _damped_steps(a[rows], gr, mu[rows], frozen)
        bad = ~np.isfinite(h).all(axis=1) & ~stop
        failed[rows[bad]] = True
        converged[rows[stop]] = True
        keep = ~(stop | bad)
        rows, xr, gr, h = rows[keep], xr[keep], gr[keep], h[keep]
        sr = scale[rows]
        x_new = np.clip(xr + h * sr, lo[rows], hi[rows])
        step = (x_new - xr) / sr
        r_new, terms = problem(rows)[0](x_new.T[:, :, None])
        cost_new = np.sum(r_new * r_new, axis=1)
        nfev[rows] += 1
        bad = ~np.isfinite(cost_new)
        actual = cost[rows] - cost_new
        predicted = -(2.0 * np.sum(gr * step, axis=1)
                      + np.einsum("bi,bij,bj->b", step, a[rows], step))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(predicted > 0.0, actual / predicted, 0.0)
        done = (((actual < _FTOL * cost[rows]) & (ratio > 0.25))
                | (np.linalg.norm(step, axis=1)
                   < _XTOL * (_XTOL + np.linalg.norm(xr / sr, axis=1))))
        done &= ~bad
        accept = ratio > _ACCEPT

        took = rows[accept]
        x[took], cost[took] = x_new[accept], cost_new[accept]
        move = accept & ~done
        if move.any():
            jac_rows = rows[move]
            terms = [None if t is None else t[move] for t in terms]
            a[jac_rows], g[jac_rows] = _normal_equations(
                problem(jac_rows)[1], x[jac_rows], r_new[move], terms,
                scale[jac_rows])
            bad[move] |= ~(np.isfinite(a[jac_rows]).all(axis=(1, 2))
                           & np.isfinite(g[jac_rows]).all(axis=1))
        gain = np.maximum(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
        mu[rows] *= np.where(accept, gain, nu[rows])
        nu[rows] = np.where(accept, 2.0, 2.0 * nu[rows])
        failed[rows[bad]] = True
        converged[rows[done]] = True
        rows = rows[~(done | bad) & (nfev[rows] < max_nfev)]
    return x, nfev, converged, failed


def _fit_stride(n_steps):
    """The largest divisor s of ``n_steps`` that leaves at least
    ``_FIT_STEPS`` steps of the sub-grid z[::s]; 1 below 2 ``_FIT_STEPS``."""
    return next((s for s in range(n_steps // _FIT_STEPS, 1, -1)
                 if n_steps % s == 0), 1)


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
    n_polish: int = 0,
    max_iterations: int = 200,
) -> FitReport:
    """Fit the linearized profile to an ODE solution, channel by channel.

    The per-channel objective is the sum of squared dB-domain residuals over
    a uniform sub-grid of the evolution's z grid: every s-th sample, s the
    largest divisor of the step count that leaves at least ``_FIT_STEPS``
    (250) steps, so every 4th of a 1000-step solve's 1001 samples and every
    sample below 500 steps (``_fit_stride``).  z = L is kept, and the sum
    stays an unweighted estimate of the L2 integral over the span.  The
    parameters are the vector (alpha, c_f, c_b, alpha_f, alpha_b): rates
    within a factor 5 of the intrinsic loss, slopes within 10 C_r in
    magnitude.  The box is active, not only a guard: alpha ends on its
    floor, alpha_phys / 5, on all 40 channels of the backward-pumped
    reference, and alpha_f on 33 of 40 of its forward-pumped variant, so
    the closed form's eta follows the floor.
    (P_f, P_b, f_hat) come from the link configuration and are held fixed.
    Without a backward pump c_b is unidentifiable: only (alpha, c_f,
    alpha_f) are fitted, c_b is pinned to zero and alpha_b to the intrinsic
    loss.  Without Raman coupling (C_r = 0) and on a channel at f_hat,
    which sees no tilt, only alpha is fitted, in closed form.

    Each channel ranks the nominal guess and a 12^3 (12^2 without a
    backward pump, ``_N_GRID``) variable-projection seed grid by score.  The
    ranking bounds each score by its partial sums over strided subsets of
    the sub-grid, every 32nd, 8th and 2nd sample in turn
    (``_BOUND_STRIDES``), and fully scores only the seeds that no bound
    rules out, so it picks the same seeds as a full scan (``_best_seeds``).
    The grid's rates, and with them its effective lengths, Gram terms and
    the one L_eff and Lb_eff table the seed residuals gather from (one row
    per grid rate and one for the nominal rate), are the same for every
    channel and built once (``_seed_grid``).  Every polish is a problem of one
    batched projected Levenberg-Marquardt pass (``_polish``), whose
    Jacobian at a kept step reuses the terms of the residual that tested
    it.  It polishes each channel's best-scored seed, plus, opt-in,
    ``n_polish`` next-best seeds and ``n_random_starts`` uniform random
    starts drawn channel by channel from one generator seeded with
    ``_RNG_SEED`` (for example 12 and 24).  Every polished start's RMS is
    then taken over all the solver's samples, in one batched residual per
    block of polishes; a channel's result is the polish of its own starts
    with the lowest such RMS, the first on a tie, and its ``rms_db`` is
    that RMS.  The pump-free closed-form fit uses every sample.

    A polish stops after ``max_iterations`` residual evaluations.  A
    channel's ``n_eval`` counts the residual evaluations of its winning
    polish, the one at the start included, and ``converged`` says that
    polish stopped on its score, step or gradient tolerance (``_FTOL``,
    ``_XTOL``, ``_GTOL``; see ``_polish``) before that cap.

    Raises
    ------
    ValidationError
        If the evolution has fewer than 50 z samples or a channel's profile
        is not strictly positive.
    NumericalError
        If a polish meets a non-finite residual or Jacobian or a failed
        damped solve; the message names every such channel.
    """
    z_full = evolution.z_grid
    if z_full.size < 50:
        raise ValidationError(
            f"profile fit needs >= 50 z samples, got {z_full.size}"
        )
    stride = _fit_stride(z_full.size - 1)
    z = z_full[::stride]
    span = config.span
    length = span.length
    c_r = span.raman_slope
    alpha_phys = span.attenuation
    p_f, p_b, f_hat = shared_fit_context(evolution, config)
    with_backward = p_b > 0.0
    free, base, lo, hi, x_scale = _parameter_space(alpha_phys, c_r,
                                                   with_backward)
    # The seed grid's rates are the same for every channel, and so are its
    # effective lengths, Gram terms and rate table.  The box leaves every
    # grid rate unchanged: 0.2 alpha_phys >= alpha_phys / 5 in floating
    # point, and the top rate is the box's own 5 alpha_phys.
    grid = _seed_grid(length, z, p_f, p_b, np.geomspace(0.2, 5.0, _N_GRID),
                      alpha_phys, with_backward)

    rng = np.random.default_rng(_RNG_SEED)
    fits = [None] * evolution.n_channels
    fitted, full_targets, deltas, starts, owners = [], [], [], [], []
    for ch_idx in range(evolution.n_channels):
        f_i = config.grid.channels[ch_idx].center_frequency
        rho = normalized_profile(evolution, ch_idx)
        if np.any(rho <= 0.0):
            raise ValidationError(
                f"channel {ch_idx}: numeric profile is not strictly positive"
            )
        full_target = 10.0 * np.log10(rho)
        target_db = full_target[::stride]
        delta = f_i - f_hat
        if c_r == 0.0 or delta == 0.0:
            full = base.copy()
            full[0], rms = _fit_exponential(z_full, full_target)
            params = ProfileParams(*full.tolist(), p_f, p_b, f_hat)
            fits[ch_idx] = ChannelFit(params, rms, 1, True)
            continue

        full = np.vstack([base, _varpro_seeds(grid, target_db, delta)])
        full[:, free] = np.clip(full[:, free], lo, hi)
        levels = _seed_levels(z, target_db, delta, p_f, p_b, full, grid[-1])
        order = _best_seeds(levels, len(full), 1 + n_polish)
        mine = [full[k, free] for k in order]
        mine += [lo + rng.random(len(free)) * (hi - lo)
                 for _ in range(n_random_starts)]
        owners += [len(fitted)] * len(mine)
        starts += mine
        fitted.append(ch_idx)
        full_targets.append(full_target)
        deltas.append(delta)

    if not fitted:
        return FitReport(tuple(fits))
    fitted, full_targets, deltas = map(np.array,
                                       (fitted, full_targets, deltas))
    targets = full_targets[:, ::stride]
    owners, starts = np.array(owners), np.array(starts)
    parts, failed = [], []
    for first in range(0, len(owners), _POLISH_BLOCK):
        block = owners[first:first + _POLISH_BLOCK]
        x0 = starts[first:first + _POLISH_BLOCK]

        def problem(rows, block=block):
            ch = block[rows]
            return _residual_and_jac(length, z, targets[ch], deltas[ch, None],
                                     p_f, p_b, free, base[:, None, None])

        x, nfev, converged, bad = _polish(
            problem, x0, *(np.broadcast_to(v, x0.shape)
                           for v in (lo, hi, x_scale)), max_iterations)
        # Every polished start's RMS, on the solver's grid.
        r = _residual_and_jac(length, z_full, full_targets[block],
                              deltas[block, None], p_f, p_b, free,
                              base[:, None, None])[0](x.T[:, :, None])[0]
        parts.append((x, np.sqrt(np.sum(r * r, axis=1) / z_full.size), nfev,
                      converged))
        failed += fitted[block[bad]].tolist()
    if failed:
        raise NumericalError(
            f"profile fit failed on channel(s) {sorted(set(failed))}: "
            "non-finite residual, Jacobian or damped step")
    x, rms, nfev, converged = (np.concatenate(v) for v in zip(*parts))

    for c, ch_idx in enumerate(fitted):
        mine = np.flatnonzero(owners == c)
        k = mine[np.argmin(rms[mine])]
        full = base.copy()
        full[free] = x[k]
        params = ProfileParams(*full.tolist(), p_f, p_b, f_hat)
        fits[ch_idx] = ChannelFit(params, float(rms[k]), int(nfev[k]),
                                  bool(converged[k]))
    return FitReport(tuple(fits))
