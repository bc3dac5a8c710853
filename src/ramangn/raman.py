"""Coupled Raman power-evolution ODE solver.

Integrates the pairwise stimulated-Raman power transfer between all
co-propagating lines (channels and forward pumps) with a fixed-step
fourth-order Runge-Kutta scheme.  Backward pumps are treated as undepleted
and follow the analytic profile P(z) = P(L) * exp(-alpha_p (L - z)), which
is injected into the channel right-hand side.

Sign convention: a line gains power from every higher-frequency line and
loses power to every lower-frequency line.  The loss side carries the
photon-energy factor f_other/f_self (< 1); a derivation-mode switch sets
all factors to 1 so that the pairwise transfer conserves total power
exactly (used by conservation tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import (Direction, LinkConfig, format_float, validate_link,
                     write_text)
from .errors import DivergenceError, ValidationError

_MAX_RETRIES = 3


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


def _coupling_matrix(span, freqs, photon_factors):
    """Pairwise gain matrix M[i, j]: contribution of line j to d ln P_i/dz."""
    f = np.asarray(freqs, dtype=float)
    gains = span.gain_at(f[None, :] - f[:, None])
    if photon_factors:
        # Line i loses power to every lower-frequency line j; only the
        # fraction f_j/f_i of the transferred photon flux leaves line i as
        # power, the rest is the vibrational quantum defect.
        weights = np.where(f[None, :] < f[:, None], f[None, :] / f[:, None], 1.0)
    else:
        weights = 1.0
    m = weights * gains
    np.fill_diagonal(m, 0.0)
    return m


def solve_power_evolution(
    config: LinkConfig,
    span_index: int = 0,
    steps: int = 1000,
    photon_factors: bool = True,
) -> PowerEvolution:
    """Integrate one span of ``config`` and return the sampled powers.

    Parameters
    ----------
    config:
        Validated link description.
    span_index:
        Which span's launch powers to use.
    steps:
        Number of RK4 steps (>= 100); the output grid has ``steps + 1``
        samples.  If the state turns non-finite (or non-positive) the
        integration retries with the step halved, up to three times.
    photon_factors:
        Apply the f_other/f_self photon-energy factors on the loss side of
        each pairwise transfer.  ``False`` is the derivation-mode switch
        that makes pairwise transfer exactly power-conserving.

    Every pairwise gain is the span's triangular slope,
    ``FiberSpan.gain_at``, the same C_r that ``fit_profile`` bounds its
    slopes by.
    """
    validate_link(config)
    if steps < 100:
        raise ValidationError(f"steps must be >= 100, got {steps}")
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
        np.array([span.alpha_at(f) for f in ch_freqs]),
        np.array([p.attenuation for p in fw_pumps]),
    ])

    coupling = _coupling_matrix(span, freqs, photon_factors)

    # Backward pumps enter the integrated lines only through their analytic
    # (undepleted) power profile.
    if bw_pumps:
        bw_gain = span.gain_at(bw_freqs[None, :] - freqs[:, None])
        if photon_factors:
            w = np.where(bw_freqs[None, :] < freqs[:, None],
                         bw_freqs[None, :] / freqs[:, None], 1.0)
            bw_gain = w * bw_gain
        bw_p_end = np.array([p.input_power for p in bw_pumps])
        bw_alpha = np.array([p.attenuation for p in bw_pumps])

        def bw_power(z):
            return bw_p_end * np.exp(-bw_alpha * (length - z))

        def rhs(z, p):
            return p * (-alpha + coupling @ p + bw_gain @ bw_power(z))
    else:
        def rhs(z, p):
            return p * (-alpha + coupling @ p)

    n_steps = steps
    for attempt in range(_MAX_RETRIES + 1):
        z_grid = np.linspace(0.0, length, n_steps + 1)
        h = length / n_steps
        sol = np.empty((p0.size, n_steps + 1))
        sol[:, 0] = p0
        p = p0.copy()
        failed_at = None
        for n in range(n_steps):
            z = z_grid[n]
            k1 = rhs(z, p)
            k2 = rhs(z + 0.5 * h, p + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h, p + 0.5 * h * k2)
            k4 = rhs(z + h, p + h * k3)
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(p)) or np.any(p <= 0.0):
                failed_at = z_grid[n + 1]
                break
            sol[:, n + 1] = p
        if failed_at is None:
            break
        n_steps *= 2
    if failed_at is not None:
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
    rows = []
    for j, z in enumerate(evolution.z_grid):
        cells = [format_float(z)]
        cells += [format_float(v) for v in evolution.powers[:, j]]
        rows.append(",".join(cells))
    write_text(",".join(header) + "\n" + "\n".join(rows) + "\n", path_or_buf)
