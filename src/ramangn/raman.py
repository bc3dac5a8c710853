"""Coupled Raman power-evolution ODE solver.

Integrates the pairwise stimulated-Raman power transfer between all
co-propagating lines (channels and forward pumps) with a fixed-step
fourth-order Runge-Kutta scheme.  Backward pumps are treated as undepleted
and follow the analytic profile P(z) = P(L) * exp(-alpha_p (L - z)), which
is injected into the channel right-hand side.  ``_coupling_matrix`` builds
the gains both among the co-propagating lines and from the backward pumps.

Sign convention: a line gains power from every higher-frequency line and
loses power to every lower-frequency line.  The loss side carries the
photon-energy factor f_self/f_other (> 1): each photon the higher-frequency
line gives up becomes one photon of the lower-frequency line, so the
exchange conserves the photon number sum_i P_i / f_i (Agrawal, *Nonlinear
Fiber Optics*, the Raman coupled equations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Direction, LinkConfig, write_csv
from .errors import DivergenceError, ValidationError

_MAX_RETRIES = 3
_MIN_STEPS = 100


@dataclass(frozen=True)
class PowerEvolution:
    """Sampled solution of the power-evolution ODEs over one span.

    Rows of ``powers`` are ordered: channels (grid order), forward pumps,
    backward pumps.  Backward-pump rows hold the prescribed analytic
    profile, not an integrated one.
    """

    z_grid: np.ndarray
    powers: np.ndarray
    frequencies: np.ndarray
    n_channels: int
    span_index: int

    @property
    def n_lines(self) -> int:
        return self.powers.shape[0]


def _coupling_matrix(span, f_to, f_from):
    """Gain matrix M[i, j]: contribution of the power of the line at
    ``f_from[j]`` to d ln P/dz of the line at ``f_to[i]``.

    Equal frequencies, the diagonal among the co-propagating lines
    included, have zero gain.  Line i loses power to every lower-frequency
    line j with the photon-energy factor f_i/f_j (see the module
    docstring).
    """
    gains = span.gain_at(f_from[None, :] - f_to[:, None])
    return np.where(f_from[None, :] < f_to[:, None],
                    f_to[:, None] / f_from[None, :], 1.0) * gains


def solve_power_evolution(
    config: LinkConfig,
    span_index: int = 0,
    steps: int = 1000,
) -> PowerEvolution:
    """Integrate one span of ``config`` and return the sampled powers.

    Parameters
    ----------
    config:
        The link to integrate.
    span_index:
        Which span's launch powers to use.
    steps:
        Number of RK4 steps (>= 100); the output grid has ``steps + 1``
        samples.  If the state turns non-finite (or non-positive) the
        integration retries with the step halved, up to three times.

    Every pairwise gain is the span's triangular slope,
    ``FiberSpan.gain_at``, the same C_r that ``fit_profile`` bounds its
    slopes by.
    """
    if steps < _MIN_STEPS:
        raise ValidationError(f"steps must be >= {_MIN_STEPS}, got {steps}")
    if not (0 <= span_index < config.span_count):
        raise ValidationError(
            f"span index {span_index} out of range for {config.span_count} spans"
        )

    span = config.span
    length = span.length
    grid = config.grid
    fw_pumps = config.pumps_by_direction(Direction.FORWARD)
    bw_pumps = config.pumps_by_direction(Direction.BACKWARD)

    ch_freqs = grid.frequencies
    fw_freqs = np.array([p.frequency for p in fw_pumps])
    bw_freqs = np.array([p.frequency for p in bw_pumps])
    freqs = np.concatenate([ch_freqs, fw_freqs])

    p0 = np.concatenate([
        grid.launch_powers(span_index),
        np.array([p.input_power for p in fw_pumps]),
    ])

    alpha = np.concatenate([
        np.full(grid.n_channels, span.attenuation, dtype=float),
        np.array([p.attenuation for p in fw_pumps]),
    ])

    neg_alpha = -alpha
    coupling = _coupling_matrix(span, freqs, freqs)

    # Backward pumps enter the integrated lines only through their analytic
    # (undepleted) power profile.
    if bw_pumps:
        bw_gain = _coupling_matrix(span, freqs, bw_freqs)
        bw_p_end = np.array([p.input_power for p in bw_pumps])
        bw_alpha = np.array([p.attenuation for p in bw_pumps])

        def bw_power(z):
            return bw_p_end * np.exp(-bw_alpha * (length - z))

        def rhs(p, bw):
            return p * (neg_alpha + coupling @ p + bw_gain @ bw)
    else:
        def rhs(p, bw):
            return p * (neg_alpha + coupling @ p)

    n_steps = steps
    for attempt in range(_MAX_RETRIES + 1):
        z_grid = np.linspace(0.0, length, n_steps + 1)
        h = length / n_steps
        half_h, sixth_h = 0.5 * h, h / 6.0
        sol = np.empty((p0.size, n_steps + 1))
        sol[:, 0] = p0
        p = p0
        # Backward-pump powers at each step's three stage points, z_n,
        # z_n + h/2 and z_n + h, one row per step.
        z_n = z_grid[:-1, None]
        if bw_pumps:
            start, mid, end = (bw_power(z_n), bw_power(z_n + half_h),
                               bw_power(z_n + h))
        else:
            start = mid = end = [None] * n_steps
        # The state is checked once, after the march: a step that is not
        # finite and positive spoils only the steps after it.
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(n_steps):
                k1 = rhs(p, start[n])
                k2 = rhs(p + half_h * k1, mid[n])
                k3 = rhs(p + half_h * k2, mid[n])
                k4 = rhs(p + h * k3, end[n])
                p = p + sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                sol[:, n + 1] = p
            marched = sol[:, 1:]
            failing = np.flatnonzero(
                ~(np.isfinite(marched) & (marched > 0.0)).all(axis=0))
        if not failing.size:
            break
        n_steps *= 2
    else:
        failed_at = z_grid[failing[0] + 1]
        raise DivergenceError(
            f"power evolution diverged near z = {failed_at:.3f} m "
            f"(after {_MAX_RETRIES} step-halving retries)",
            z_position=failed_at,
        )

    if bw_pumps:
        bw_rows = bw_power(z_grid[None, :].T).T
        sol = np.vstack([sol, bw_rows])
        freqs = np.concatenate([freqs, bw_freqs])

    return PowerEvolution(
        z_grid=z_grid,
        powers=sol,
        frequencies=freqs,
        n_channels=grid.n_channels,
        span_index=span_index,
    )


def normalized_profile(evolution: PowerEvolution, channel_index: int) -> np.ndarray:
    """Sampled rho(z, f_i) = P(z, f_i) / P(0, f_i); first sample is exactly 1."""
    if not (0 <= channel_index < evolution.n_lines):
        raise IndexError(
            f"channel index {channel_index} out of range "
            f"for {evolution.n_lines} lines"
        )
    row = evolution.powers[channel_index]
    rho = row / row[0]
    rho[0] = 1.0
    return rho


def evolution_to_csv(evolution: PowerEvolution, path_or_buf) -> None:
    """Write the evolution as CSV: z_m column plus one column per line."""
    header = ["z_m"] + [f"P_{f:.6e}Hz_W" for f in evolution.frequencies]
    write_csv(header, np.column_stack((evolution.z_grid, evolution.powers.T)),
              path_or_buf)
