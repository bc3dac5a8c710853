"""Domain types, validated when built, and the shared text format and writers.

All quantities are SI (Hz, W, m, Np/m ...).  Objects are immutable after
construction and safe to share across threads.  ``LinkConfig`` and
``SnrBudget`` refuse invalid and non-finite values when built.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Tuple, Union

import numpy as np

from .errors import ValidationError


class Direction(enum.Enum):
    """Propagation direction of a Raman pump relative to the signal."""

    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class Channel:
    """One WDM channel.

    Attributes
    ----------
    center_frequency:
        Absolute optical frequency f_i (Hz).
    bandwidth:
        Symbol-rate bandwidth B_i (Hz).
    launch_power_per_span:
        Launch power P_ij (W) at the input of each span.
    """

    center_frequency: float
    bandwidth: float
    launch_power_per_span: Tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "launch_power_per_span", tuple(self.launch_power_per_span)
        )


@dataclass(frozen=True)
class WdmGrid:
    """Ordered set of channels, ascending in center frequency.  Its
    arrays are built on first use, once, and are read-only."""

    channels: Tuple[Channel, ...]

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @cached_property
    def frequencies(self) -> np.ndarray:
        return _read_only([c.center_frequency for c in self.channels])

    @cached_property
    def bandwidths(self) -> np.ndarray:
        return _read_only([c.bandwidth for c in self.channels])

    @property
    def band_center(self) -> float:
        """Midpoint between the lowest and highest channel frequency."""
        f = self.frequencies
        return 0.5 * (f[0] + f[-1])

    @cached_property
    def _power_matrix(self) -> np.ndarray:
        """Launch powers, one C-contiguous row per span.  Built on first
        use, so that a ragged grid reaches ``LinkConfig``'s diagnostic."""
        return _read_only(np.array(
            [c.launch_power_per_span for c in self.channels]).T.copy())

    def launch_powers(self, span_index: int) -> np.ndarray:
        return self._power_matrix[span_index]

    def total_launch_power(self, span_index: int) -> float:
        return float(self.launch_powers(span_index).sum())


@dataclass(frozen=True)
class Pump:
    """A Raman pump line.

    ``attenuation`` is the intrinsic fibre loss at the pump wavelength (Np/m).
    """

    frequency: float
    input_power: float
    direction: Direction
    attenuation: float


@dataclass(frozen=True)
class FiberSpan:
    """Physical description of one fibre span.

    Attributes
    ----------
    length:
        Span length L (m).
    beta2, beta3:
        Dispersion coefficients (s^2/m, s^3/m), quoted at the band-center
        reference frequency; phase-mismatch formulas take frequency offsets
        from that reference.
    gamma:
        Nonlinear coefficient (1/(W*m)).
    attenuation:
        Intrinsic loss (Np/m), the same at every channel frequency.
    raman_slope:
        Normalized triangular Raman gain slope C_r (1/(W*m*Hz)): a line
        gains C_r * (f_donor - f) per watt of donor power and metre.  The
        ODE solver and the profile fit both use this one gain model.
    """

    length: float
    beta2: float
    beta3: float
    gamma: float
    attenuation: float
    raman_slope: float

    def gain_at(self, delta_f):
        """Signed Raman gain for a frequency offset ``delta_f = f_donor - f``.

        Positive ``delta_f`` (donor above) means gain; negative means loss.
        """
        out = self.raman_slope * np.asarray(delta_f, dtype=float)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class LinkConfig:
    """A transmission link: one span type repeated ``span_count`` times,
    refused when built (``ValidationError`` listing every diagnostic) if it
    breaks an invariant or holds a NaN or infinite number."""

    span: FiberSpan
    span_count: int
    grid: WdmGrid
    pumps: Tuple[Pump, ...] = ()
    coherence_epsilon: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "pumps", tuple(self.pumps))
        diags = _link_diagnostics(self)
        if diags:
            raise ValidationError(diags)

    def pumps_by_direction(self, direction: Direction) -> Tuple[Pump, ...]:
        return tuple(p for p in self.pumps if p.direction is direction)


@dataclass(frozen=True)
class SnrBudget:
    """Linear-scale SNR contributions external to the NLI model.

    Entries may be ``math.inf`` (contribution absent), a scalar broadcast to
    every channel, or a per-channel sequence.  The constructor refuses an
    entry that is not positive (NaN included), ``as_arrays`` a per-channel
    entry of the wrong length, each with ``ValidationError``.
    """

    snr_ase: Union[float, Tuple[float, ...]] = math.inf
    snr_trx: Union[float, Tuple[float, ...]] = math.inf

    def __post_init__(self):
        for name in ("snr_ase", "snr_trx"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if not np.all(arr > 0.0):
                raise ValidationError(f"{name} entries must be positive")
            if arr.ndim:
                object.__setattr__(self, name, tuple(arr.tolist()))

    def as_arrays(self, n_channels: int):
        out = []
        for name in ("snr_ase", "snr_trx"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim and arr.size != n_channels:
                raise ValidationError(f"{name}: {arr.size} entries for "
                                      f"{n_channels} channel(s)")
            out.append(np.broadcast_to(arr, (n_channels,)).copy())
        return tuple(out)


def _non_finite(label: str, record, names) -> list:
    """One diagnostic per named field of ``record`` that is not finite."""
    return [f"{label}{name} must be finite, got {getattr(record, name)}"
            for name in names if not math.isfinite(getattr(record, name))]


def _link_diagnostics(config: LinkConfig) -> list:
    """Violated invariants (empty when valid).  A non-finite field has its
    own diagnostic, so the sign, order, overlap and band tests let NaN pass
    or skip it: theirs would only report its effects.  The span count and
    the coherence epsilon have no finiteness test, and NaN fails theirs."""
    diags = []
    grid = config.grid
    n_spans = config.span_count
    span = config.span

    if not n_spans >= 1:
        diags.append(f"span count must be >= 1, got {n_spans}")
    eps = config.coherence_epsilon
    if not (0.0 <= eps <= 1.0):
        diags.append(f"coherence epsilon must lie in [0, 1], got {eps}")

    diags += _non_finite("span ", span, [f.name for f in fields(span)])
    if span.length <= 0:
        diags.append(f"span length must be positive, got {span.length}")
    if span.gamma < 0:
        diags.append(f"nonlinear coefficient must be >= 0, got {span.gamma}")
    if span.attenuation <= 0:
        diags.append(f"span attenuation must be positive, got "
                     f"{span.attenuation}")

    if grid.n_channels == 0:
        diags.append("grid has no channels")
    for i, ch in enumerate(grid.channels):
        diags += _non_finite(f"channel {i}: ", ch,
                             ("center_frequency", "bandwidth"))
        if ch.bandwidth <= 0:
            diags.append(f"channel {i}: bandwidth must be positive")
        if len(ch.launch_power_per_span) != n_spans:
            diags.append(
                f"channel {i}: {len(ch.launch_power_per_span)} launch powers "
                f"for {n_spans} spans"
            )
        if any(p <= 0 for p in ch.launch_power_per_span):
            diags.append(f"channel {i}: non-positive launch power")
        if not all(map(math.isfinite, ch.launch_power_per_span)):
            diags.append(f"channel {i}: non-finite launch power")

    chans = grid.channels
    for i in range(len(chans) - 1):
        lo, hi = chans[i], chans[i + 1]
        if not (math.isfinite(lo.center_frequency)
                and math.isfinite(hi.center_frequency)):
            continue
        if not hi.center_frequency > lo.center_frequency:
            diags.append(f"overlapping channels at index {i},{i + 1}: "
                         "frequencies not strictly increasing")
        elif (hi.center_frequency - lo.center_frequency
              < 0.5 * (lo.bandwidth + hi.bandwidth) - 1e-6):
            diags.append(f"overlapping channels at index {i},{i + 1}: "
                         "spectral overlap")

    f_top = max((edge for edge in (c.center_frequency + 0.5 * c.bandwidth
                                   for c in chans) if math.isfinite(edge)),
                default=-math.inf)
    for p_idx, pump in enumerate(config.pumps):
        diags += _non_finite(f"pump {p_idx}: ", pump,
                             ("frequency", "input_power", "attenuation"))
        if pump.input_power < 0:
            diags.append(f"pump {p_idx}: negative pump power")
        if pump.attenuation <= 0:
            diags.append(f"pump {p_idx}: attenuation must be positive")
        if pump.frequency <= f_top:
            diags.append(
                f"pump {p_idx}: frequency inside or below the signal band"
            )

    return diags


def format_float(value) -> str:
    """``value`` in scientific notation with 9 significant digits, the
    float format of every text output, so identical inputs give identical
    bytes."""
    return f"{value:.8e}"


def _read_only(values, dtype=None) -> np.ndarray:
    """``values`` as a read-only array (not copied if already an array of
    that dtype)."""
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def freeze_arrays(obj, names, dtype=float) -> None:
    """Replace each named attribute of the frozen dataclass ``obj`` by a
    read-only ``dtype`` array; ``None`` attributes stay ``None``."""
    for name in names:
        arr = getattr(obj, name)
        if arr is not None:
            object.__setattr__(obj, name, _read_only(arr, dtype))


def write_text(text: str, path_or_buf=None) -> str:
    """Return ``text``, first writing it to ``path_or_buf`` if one is given.

    A str, bytes or path-like target is opened as a UTF-8 file and
    overwritten; anything else is taken to be a writable text buffer.
    """
    if path_or_buf is None:
        return text
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        with open(path_or_buf, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path_or_buf.write(text)
    return text


def write_csv(header, rows, path_or_buf=None) -> str:
    """Write a CSV table with ``write_text``: one ``header`` line of column
    names, then one line per row.  A str cell is written as is, any other
    cell with ``format_float``."""
    lines = [",".join(header)]
    lines += [",".join(c if isinstance(c, str) else format_float(c)
                       for c in row) for row in rows]
    return write_text("\n".join(lines) + "\n", path_or_buf)


def write_json(payload, path_or_buf=None) -> str:
    """Write ``payload`` as JSON, indented by 2, with ``write_text``."""
    return write_text(json.dumps(payload, indent=2) + "\n", path_or_buf)
