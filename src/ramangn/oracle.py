"""Brute-force numerical evaluation of the NLI integrals.

Everything here is deliberately independent of the closed form: the link
function is integrated directly, the 2D SPM/XPM spectral integrals use the
exact (unapproximated) phase term and apply the rectangular spectral
window, and the supporting integral identities are checked against
adaptive quadrature.

The 2D eta integrals are highly oscillatory (phase phi * zeta with phi L up to
~1e4 rad), so the inner zeta integral is evaluated with a panel-wise Filon
rule (exact integration of a local polynomial fit of the smooth profile factor
against e^{j phi zeta}; the weights of a block of phases are one complex
array).  Where the phase is monotone in f1 over each piece of the band, the
spectral integral runs in the swapped (phi, f2) order.  There the extreme
phase of the f1 window is a quadratic in f2 on each monotone run, so the
edges of every phase node's f2 range are closed-form roots; beyond a
phase-rate threshold the order switches to an integration-by-parts endpoint
expansion whose smooth and single-ripple parts are integrated separately,
the ripple by a Filon rule in phi (both Filon rules take their weights from
``_filon_rule``).  Other pairs take one tensor Gauss-Legendre rule in (f1,
f2).  Every node count grows with
the refinement level, and the change between two levels is reported as the
error estimate; an estimate refines until that change meets ``_REL_TOL_ETA``,
which every SPM and XPM estimate of the reference grid does at the first
refinement.

Only ``mu_numeric`` and the identity checks call scipy's adaptive ``quad``;
they import ``scipy.integrate`` when they run, so importing the package
and running the eta oracle never load scipy.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np

from .domain import Channel, FiberSpan, freeze_arrays, write_csv
from .errors import NumericalError, ProfileDomainError, ValidationError
from .profile import (ProfileParams, eval_profile_taylor, pair_offsets,
                      profile_margin, tilt_derivative, tilt_integral)

_TWO_PI = 2.0 * math.pi


def _quad_quiet(*args, **kwargs):
    """quad with the oscillatory-cycle warning suppressed.

    The Fourier-weighted improper integrals occasionally report "bad
    integrand behavior" for near-degenerate parameter draws while still
    converging well inside tolerance; the accuracy checks are the gate.
    """
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(*args, **kwargs)


_REL_TOL_MU = 1e-8  # link function and finite identities, relative
_REL_TOL_ETA = 1e-6  # change between eta refinement levels, relative
_TRUNCATION_HALFWIDTH = 50.0  # identity tail split, in max(a, b)/|c|


@dataclass(frozen=True)
class QuadratureSpec:
    """Refinement cap of the eta oracle.

    An eta estimate refines until two successive levels agree to
    ``_REL_TOL_ETA`` relative, or until ``max_refinements`` refinements
    have run, when it reports ``converged=False``.  At least one
    refinement is needed: the first level alone has no error estimate.
    At most 5 are allowed: each level of a pair that never converges
    takes 2-2.5 times the memory of the one before (about 120 MiB for an
    SPM estimate of the reference at level 5).  The rectangular spectral
    window is always applied.
    """

    max_refinements: int = 3

    def __post_init__(self):
        if self.max_refinements < 1 or self.max_refinements > 5:
            raise ValidationError("max_refinements must lie in [1, 5]")


@dataclass(frozen=True)
class EtaEstimate:
    """A numerically integrated eta value with its convergence status."""

    value: float
    error_estimate: float
    converged: bool


class TaylorProfile:
    """Callable rho(zeta, f) backed by the linearized fitted profile.

    The eta oracle requires this structured evaluator (it needs the shared
    tilt integral x(zeta)); ``mu_numeric`` accepts any callable.
    """

    def __init__(self, params: ProfileParams, length: float):
        self.params = params
        self.length = length

    def __call__(self, zeta, f):
        return eval_profile_taylor(self.params, zeta, f, self.length)


# ---------------------------------------------------------------------------
# Link function by adaptive quadrature
# ---------------------------------------------------------------------------

def mu_numeric(f1: float, f2: float, f_i: float, rho: Callable,
               phi: float, length: float) -> float:
    """Link function |int_0^L g(zeta) e^{j phi zeta} d zeta|^2 (m^2).

    ``rho(zeta, f)`` must be positive on [0, L] for the four frequency
    arguments; ``f1``, ``f2``, ``f_i`` are absolute frequencies.  The
    adaptive quadrature runs to ``_REL_TOL_MU`` relative.
    """
    from scipy.integrate import quad

    f3 = f1 + f2 - f_i
    freqs = (f1, f2, f3, f_i)

    def g(zeta):
        vals = [float(rho(zeta, f)) for f in freqs]
        if min(vals) <= 0.0:
            raise ProfileDomainError(
                f"profile is non-positive at zeta = {zeta:.6e} m"
            )
        return math.sqrt(vals[0] * vals[1] * vals[2] / vals[3])

    kwargs = dict(epsabs=1e-300, epsrel=_REL_TOL_MU, limit=400)
    if phi == 0.0:
        re, _ = quad(g, 0.0, length, **kwargs)
        im = 0.0
    else:
        re, _ = quad(g, 0.0, length, weight="cos", wvar=phi, **kwargs)
        im, _ = quad(g, 0.0, length, weight="sin", wvar=phi, **kwargs)
    return re * re + im * im


# ---------------------------------------------------------------------------
# Filon moments: integral of t^m e^{j theta t} over [-1, 1]
# ---------------------------------------------------------------------------
#
# mu_m(theta) is real for even m and imaginary for odd m, so the kernels
# carry the real numbers r_m with mu_m = r_m (m even) or j r_m (m odd).

_N_SERIES_TERMS = 36
_SERIES_SPLIT = 4.0


@lru_cache(maxsize=None)
def _filon_series_matrix(m_max: int) -> np.ndarray:
    """E[m, i] with r_m = sum_i E[m, i] theta^(2i), times theta for odd m.

    This is the series mu_m = sum_k (j theta)^k / k! (1 + (-1)^{m+k}) /
    (m + k + 1), k < _N_SERIES_TERMS, keeping the k of the parity of m.
    """
    m = np.arange(m_max + 1)[:, None]
    i = np.arange(_N_SERIES_TERMS // 2)[None, :]
    k = 2 * i + m % 2
    fact = np.array([float(math.factorial(v)) for v in range(_N_SERIES_TERMS)])
    return (-1.0) ** i * 2.0 / ((m + k + 1.0) * fact[k])


def _powers(x, out: np.ndarray) -> np.ndarray:
    """Fill the rows of ``out`` with x, x^2, ..., as cumprod multiplies."""
    out[0] = x
    for m in range(1, out.shape[0]):
        np.multiply(out[m - 1], out[0], out=out[m])
    return out


def _moments_series(theta: np.ndarray, m_max: int) -> np.ndarray:
    """r_m for |theta| < _SERIES_SPLIT by the power series; (m_max+1, n)."""
    sq = np.empty((_N_SERIES_TERMS // 2, theta.size))  # theta^(2i)
    sq[0] = 1.0
    _powers(theta * theta, sq[1:])
    r = _filon_series_matrix(m_max) @ sq
    r[1::2] *= theta
    return r


def _moments_recurrence(theta: np.ndarray, m_max: int) -> np.ndarray:
    """r_m for |theta| >= _SERIES_SPLIT by upward recurrence.

    mu_m = (e^{j theta} - (-1)^m e^{-j theta}) / (j theta)
           - m / (j theta) mu_{m-1}, split into its real and imaginary parts.
    """
    out = np.empty((m_max + 1, theta.size))
    inv = 1.0 / theta
    two_s = 2.0 * np.sin(theta)
    two_c = 2.0 * np.cos(theta)
    out[0] = two_s * inv
    for m in range(1, m_max + 1):
        if m % 2:
            out[m] = (m * out[m - 1] - two_c) * inv
        else:
            out[m] = (two_s - m * out[m - 1]) * inv
    return out


def _filon_moments_real(theta: np.ndarray, m_max: int) -> np.ndarray:
    """r_m(theta) for m = 0..m_max over flattened theta -> (m_max+1, n)."""
    theta = np.asarray(theta, dtype=float).ravel()
    small = np.abs(theta) < _SERIES_SPLIT
    if small.all():
        return _moments_series(theta, m_max)
    out = np.empty((m_max + 1, theta.size))
    out[:, small] = _moments_series(theta[small], m_max)
    out[:, ~small] = _moments_recurrence(theta[~small], m_max)
    return out


def _filon_rule(theta: np.ndarray, inv_v: np.ndarray) -> np.ndarray:
    """Complex (theta.size, M) weights, int_{-1}^{1} p(t) e^{j theta_n t} dt
    = sum_m W[n, m] p(t_m) for the fit of p through the M nodes whose inverse
    Vandermonde matrix is ``inv_v``: W[n, m] = sum_k inv_v[k, m] mu_k."""
    r = _filon_moments_real(theta, inv_v.shape[0] - 1)
    w = np.empty((r.shape[1], inv_v.shape[1]), dtype=complex)
    w.real = r[0::2].T @ inv_v[0::2]  # even k: mu_k real
    w.imag = r[1::2].T @ inv_v[1::2]  # odd k: mu_k imaginary
    return w


@lru_cache(maxsize=None)
def _cheb_nodes_invv(n_nodes: int):
    t = np.cos(np.pi * np.arange(n_nodes) / (n_nodes - 1))[::-1]
    v = np.vander(t, increasing=True)
    return t, np.linalg.inv(v)


def _legendre_pair(n: int, x: np.ndarray):
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p0, p1 = np.ones_like(x), x
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (p0 - x * p1) / (1.0 - x * x)


@lru_cache(maxsize=None)
def _gl_rule(n: int):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton's method on P_n, from Tricomi's asymptotic guesses, finds the
    nodes of one half; the other half is their mirror image, and the
    weights are scaled to sum to 2, as numpy's ``leggauss`` does.  Memory
    is O(n), where ``leggauss``'s companion eigenproblem needs O(n^2).
    """
    k = np.arange(1, (n + 1) // 2 + 1)  # nodes in [0, 1), largest first
    x = ((1.0 - (n - 1.0) / (8.0 * n ** 3))
         * np.cos(math.pi * (4 * k - 1) / (4 * n + 2)))
    for _ in range(10):
        p, dp = _legendre_pair(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    dp = _legendre_pair(n, x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    if n % 2:
        x[-1] = 0.0
    half = n // 2
    nodes = np.concatenate([-x, x[:half][::-1]])
    weights = np.concatenate([w, w[:half][::-1]])
    return nodes, weights * (2.0 / weights.sum())


_GL_CAP = 1 << 14  # largest Gauss-Legendre rule of one segment


@lru_cache(maxsize=None)
def _gl8_fit() -> np.ndarray:
    """Inverse Vandermonde matrix of the 8 Gauss nodes (degree-7 fit)."""
    return np.linalg.inv(np.vander(_gl_rule(8)[0], 8, increasing=True))


def _gl_size(n: float) -> int:
    n = int(min(max(n, 8), _GL_CAP))
    return 32 * int(math.ceil(n / 32))


def _phase_panels(h, phase_c, theta, smooth, cross):
    """Contributions of outer phase panels from their 8 Gauss-node values.

    Panel q spans phi = c_q + h_q t; ``smooth`` (|U|^2 + |V|^2 part) is
    integrated by the Gauss rule, and the ripple -2 Re int U V* e^{j phi L}
    by the Filon rule of the 8 Gauss nodes (``_filon_rule``) applied to
    ``cross`` (U V* part), with ``phase_c`` = c_q L and ``theta`` = h_q L.
    """
    w8 = _gl_rule(8)[1]
    ripple = np.sum(cross * _filon_rule(theta, _gl8_fit()), axis=1)
    osc = h * np.exp(1j * phase_c) * ripple
    return h * (smooth @ w8) - 2.0 * osc.real


def _octave_edges(start: float, stop: float) -> list:
    """Phase panel edges start, 2 start, 4 start, ... cut at ``stop`` (of
    the sign of ``start``): each panel is twice as wide as the one before."""
    sign = 1.0 if stop > start else -1.0
    width = sign * (stop - start)
    edges = [start]
    w0 = abs(start)
    acc = 0.0
    while acc < width:
        acc = min(acc + w0, width)
        edges.append(start + sign * acc)
        w0 *= 2.0
    return edges


# ---------------------------------------------------------------------------
# Pair engine: eta for one (i, k) channel pair
# ---------------------------------------------------------------------------

_K_SERIES = 10  # endpoint-expansion order
_SPLIT_FACTOR = 20.0  # phase-rate multiple separating inner/outer regions
_N_ZETA_DEG = 10  # polynomial degree per zeta panel
_NODE_BLOCK = 512  # (f1, phi) nodes per block of the zeta-integral kernel
_GRADE_DEPTH = 14  # halvings of the inner phase segment next to a zero ...
_GRADE_STEP = 4  # ... plus this many more per refinement level

# U/V expansion factors (-1)^m m! (-j)^{m+1}: sum_m c_m g_m / phi^{m+1}
# equals sum_m (-1)^m g^{(m)} / (j phi)^{m+1}.
_UV_FACTORS = np.array([(-1.0) ** m * math.factorial(m)
                        * (-1j, -1.0, 1j, 1.0)[m % 4]
                        for m in range(_K_SERIES + 1)])


class _PairEngine:
    """Evaluates the 2D integral of |I(f1, f2)|^2 for one channel pair.

    Two integration orders: the swapped (phi, f2) order (``eta_swapped``)
    and the direct (f1, f2) order, one tensor Gauss rule (``eta_direct``).
    The constructor builds what every refinement level shares; ``_sw`` is
    None where the swapped order does not apply, which picks the order.
    ``_sw["runs"][side]`` holds the monotone runs of each side's extreme
    phase times the side, one quadratic in f2 each, so phase bounds are
    |phi|; a swapped level takes the f2 edges of all its phase nodes from
    them in one pass (``_domain_edges``).
    The phase slope vanishes with d2 = f2 + f_k - f_i, so SPM's band
    splits at f2 = 0 into two pieces (``_setup_swapped``); XPM's band is
    one piece.
    """

    def __init__(self, profile: TaylorProfile, span: FiberSpan,
                 channel_i: Channel, channel_k: Channel, f_ref: float):
        self.p = profile.params
        self.length = profile.length
        self.span = span
        self.fi_abs = channel_i.center_frequency
        self.fk_abs = channel_k.center_frequency
        self.fi_off = self.fi_abs - f_ref
        self.fk_off = self.fk_abs - f_ref
        self.b_i = channel_i.bandwidth
        self.b_k = channel_k.bandwidth
        self.phi_split = _SPLIT_FACTOR * self._scan_profile()
        self._zp = self._zeta_panels()
        self._uv = self._uv_series()
        self._sw = self._setup_swapped()

    # -- profile pieces ----------------------------------------------------

    def _x_of(self, zeta):
        return tilt_integral(self.p, zeta, self.length)

    def _scan_profile(self) -> float:
        """alpha + 2 max |d x' / (1 - x d)| over zeta (2049 points) and the
        extreme offsets d of the pair's frequencies from f_hat;
        ProfileDomainError if 1 - x d reaches 0 (``profile_margin``)."""
        lo, hi = pair_offsets(self.fi_abs, self.b_i, self.fk_abs, self.b_k,
                              self.p.f_hat)
        margin, z_min = profile_margin(self.p, self.length, lo, hi)
        if margin <= 0.0:
            raise ProfileDomainError(
                f"linearized profile factor 1 - x d falls to {margin:.3e} at "
                f"zeta = {z_min:.6e} m for a frequency inside the channel "
                f"pair f_i = {self.fi_abs:.6e} Hz, f_k = {self.fk_abs:.6e} Hz")
        z = np.linspace(0.0, self.length, 2049)
        x = self._x_of(z)
        xp = tilt_derivative(self.p, z, self.length)
        rate = max(np.max(np.abs(d * xp / (1.0 - x * d))) for d in (lo, hi))
        return self.p.alpha + 2.0 * rate

    # -- phase and windows -------------------------------------------------

    def _phase_coeffs(self, f2):
        b2, b3 = self.span.beta2, self.span.beta3
        d2 = f2 + (self.fk_off - self.fi_off)
        a = (-4.0 * math.pi ** 2 * d2
             * (b2 + math.pi * b3 * (f2 + self.fi_off + self.fk_off)))
        b = -4.0 * math.pi ** 2 * d2 * math.pi * b3
        return a, b

    def _f1_window(self, f2):
        """f1 range whose product f1 + f2 stays inside channel k's band."""
        return (np.maximum(-self.b_i / 2, -self.b_k / 2 - f2),
                np.minimum(self.b_i / 2, self.b_k / 2 - f2))

    def _phi_of(self, f1, a, b):
        return a * f1 + b * f1 * f1

    def _f1_of_phi(self, phi, a, b):
        # the root that stays finite as b -> 0; a phase within rounding of a
        # vertex can take the discriminant just below 0
        disc = np.sqrt(np.maximum(a * a + 4.0 * b * phi, 0.0))
        return 2.0 * phi / (a + np.sign(a) * disc)

    def _f2_window(self, f1):
        """f2 range of channel k's band whose f1 + f2 stays inside it too."""
        return (np.maximum(-self.b_k / 2, -self.b_k / 2 - f1),
                np.minimum(self.b_k / 2, self.b_k / 2 - f1))

    # -- zeta panels (shared per refinement level) --------------------------

    def _zeta_panels(self):
        """Panel boundaries such that ln g varies by <= ~0.35 per panel.

        With degree-10 interpolation per panel the node-polynomial error is
        then far below 1e-14 relative, so the zeta direction contributes no
        visible quadrature error; refinement passes probe the spectral (f2)
        direction instead.
        """
        z = np.linspace(0.0, self.length, 4097)
        x = self._x_of(z)
        d1 = self.fi_abs - self.p.f_hat
        g_log = -self.p.alpha * z + 0.5 * (
            3.0 * np.log(1.0 - x * d1) - np.log(1.0 - x * d1))
        arc = np.abs(np.diff(g_log))
        cum = np.concatenate([[0.0], np.cumsum(arc)])
        n_panels = max(6, int(math.ceil(cum[-1] / 0.5)))
        targets = np.linspace(0.0, cum[-1], n_panels + 1)
        bounds = np.interp(targets, cum, z)
        bounds[0], bounds[-1] = 0.0, self.length
        bounds = np.unique(bounds)
        centers = 0.5 * (bounds[1:] + bounds[:-1])
        halfw = 0.5 * (bounds[1:] - bounds[:-1])
        t_nodes, inv_v = _cheb_nodes_invv(_N_ZETA_DEG + 1)
        z_nodes = centers[:, None] + halfw[:, None] * t_nodes[None, :]
        z_nodes = z_nodes.ravel()
        x = self._x_of(z_nodes)
        # g^2 = (1 - x d1)(1 - x d2)(1 - x d3) * decay^2 / (1 - x d4); the
        # last two factors depend on zeta only and the product of the first
        # three is 1 - s1 x + s2 x^2 - s3 x^3 with s_i the elementary
        # symmetric polynomials of (d1, d2, d3)
        scale = (np.exp(-2.0 * self.p.alpha * z_nodes)
                 / (1.0 - x * (self.fi_abs - self.p.f_hat)))
        cubic = np.stack([scale, -x * scale, x * x * scale, -x ** 3 * scale])
        return centers, halfw, inv_v, z_nodes, cubic

    def _g_tilde(self, f1: np.ndarray, f2):
        """g(zeta; f1) on the panel node grid -> (n_f1, P * n_nodes).

        ``f2`` may be a scalar or an array matched element-wise to ``f1``.
        """
        z_nodes, cubic = self._zp[3:]
        fh = self.p.f_hat
        d1 = f1 + self.fi_abs - fh
        d2 = f2 + self.fk_abs - fh
        d3 = f1 + f2 + self.fk_abs - fh
        sym = np.empty((f1.size, 4))
        sym[:, 0] = 1.0
        sym[:, 1] = d1 + d2 + d3
        sym[:, 2] = d1 * d2 + (d1 + d2) * d3
        sym[:, 3] = d1 * d2 * d3
        g2 = sym @ cubic
        if g2.min() <= 0.0:
            idx = np.argwhere(g2 <= 0.0)[0]
            raise ProfileDomainError(
                f"profile product non-positive at zeta = "
                f"{z_nodes[idx[1]]:.6e} m"
            )
        return np.sqrt(g2, out=g2)

    def _filon_weights(self, phi: np.ndarray):
        """Complex quadrature weights of the panel nodes at each phase.

        int g e^{j phi zeta} d zeta = sum_{p,m} g(zeta_pm) W[p, m]: the
        Filon rule of the panel's Chebyshev nodes (``_filon_rule``) at
        theta = phi h_p, rotated to the panel, W[p, m] = h_p e^{j phi c_p}
        sum_k inv_v[k, m] mu_k(phi h_p).  Returns W as one complex
        (len(phi), P * M) array.
        """
        centers, halfw, inv_v = self._zp[:3]
        w = _filon_rule(phi[:, None] * halfw, inv_v).reshape(
            phi.size, centers.size, -1)
        w *= (halfw * np.exp(1j * (phi[:, None] * centers)))[:, :, None]
        return w.reshape(phi.size, -1)

    def _i_of_phi(self, f1: np.ndarray, f2, phi: np.ndarray,
                  group: int = 1):
        """I(phi) = int g e^{j phi zeta} d zeta at the (f1, f2) nodes.

        The nodes form consecutive groups of ``group`` sharing one phase,
        ``phi[q]`` for group q, so the Filon weights are built once per
        group.  Weights are built for _NODE_BLOCK phases and g for about
        _NODE_BLOCK nodes at a time, which keeps every temporary small; a
        block of g meets the weights' float view in one matmul.
        """
        f2 = np.broadcast_to(np.asarray(f2, dtype=float), f1.shape)
        out = np.empty(f1.size, dtype=complex)
        step = max(1, _NODE_BLOCK // group)
        for q0 in range(0, phi.size, _NODE_BLOCK):
            w = self._filon_weights(phi[q0:q0 + _NODE_BLOCK])
            n_w = w.shape[0]
            w = w.view(float).reshape(n_w, -1, 2)
            for q in range(0, n_w, step):
                sub = slice(q, min(q + step, n_w))
                blk = slice((q0 + sub.start) * group, (q0 + sub.stop) * group)
                g = self._g_tilde(f1[blk], f2[blk])
                g = g.reshape(-1, group, g.shape[1])
                out[blk] = np.matmul(g, w[sub]).view(complex).ravel()
        return out

    # -- endpoint expansion (outer region) -----------------------------------

    def _x_series(self, zeta0: float):
        # The m-th series coefficient of x at zeta0 is x^{(m)}(zeta0) / m!.
        mm = np.arange(1, _K_SERIES + 1)
        fct = np.array([math.factorial(int(v)) for v in mm])
        return np.concatenate([
            [self._x_of(zeta0)],
            tilt_derivative(self.p, zeta0, self.length, mm) / fct])

    def _uv_series(self):
        """(zeta0, x(zeta0), Y) per endpoint, L first, then 0.

        With y(tau) = x(zeta0 + tau) - x(zeta0), Y[k-1, m-1] is the tau^m
        coefficient of y^k / k, so ln(1 - x d) has the tau^m coefficient
        -sum_k s^k Y[k-1, m-1] with s = d / (1 - x(zeta0) d).
        """
        series = []
        for zeta0 in (self.length, 0.0):
            y = self._x_series(zeta0)
            x0 = y[0]
            y[0] = 0.0
            ymat = np.empty((_K_SERIES, _K_SERIES))
            power = y
            for k in range(1, _K_SERIES + 1):
                ymat[k - 1] = power[1:] / k
                power = np.convolve(power, y)[: _K_SERIES + 1]
            series.append((zeta0, x0, ymat))
        return series

    def _endpoint_uv(self, f1: np.ndarray, f2, phi: np.ndarray):
        """U(phi), V(phi) from the order-K integration-by-parts expansion.

        U = sum_m (-1)^m g^{(m)}(L) / (j phi)^{m+1}, V likewise at 0; the
        Taylor coefficients of g = exp(ln g) follow from those of ln g by
        the usual exp recurrence.  Series are stored one order per row.
        """
        fh = self.p.f_hat
        deltas = ((f1 + self.fi_abs - fh, 0.5),
                  (np.broadcast_to(f2 + self.fk_abs - fh, f1.shape), 0.5),
                  (f1 + f2 + self.fk_abs - fh, 0.5),
                  (self.fi_abs - fh, -0.5))
        orders = np.arange(_K_SERIES + 1)[:, None]
        # 1 / phi^{m+1}, m = 0..K
        inv_pw = _powers(1.0 / phi, np.empty((_K_SERIES + 1, phi.size)))
        res = []
        for zeta0, x0, ymat in self._uv:
            log0 = -self.p.alpha * zeta0
            s_pows = np.zeros((_K_SERIES, f1.size))
            for d, wt in deltas:
                u0 = 1.0 - x0 * d
                log0 = log0 + wt * np.log(u0)
                s_pows += wt * _powers(d / u0, np.empty_like(s_pows))
            k_log = np.empty((_K_SERIES + 1, f1.size))  # m * [ln g]_m
            k_log[0] = 0.0
            k_log[1:] = -(ymat.T @ s_pows)
            k_log[1] -= self.p.alpha
            k_log *= orders
            g = np.empty_like(k_log)  # Taylor coefficients g^{(m)} / m!
            g[0] = np.exp(log0)
            for m in range(1, _K_SERIES + 1):
                g[m] = np.einsum("kn,kn->n", k_log[1: m + 1],
                                 g[m - 1:: -1]) / m
            terms = g * inv_pw
            res.append(_UV_FACTORS.real @ terms
                       + 1j * (_UV_FACTORS.imag @ terms))
        return res[0], res[1]  # U (at L), V (at 0)

    # -- direct (f1, f2) integration order -----------------------------------

    def eta_direct(self, level: int) -> float:
        """Full 2D integral by one tensor Gauss rule, f1 outer, f2 inner.

        The f1 panels split at f1 = 0, where the f2 window switches the
        bound that clips it, so the integrand is smooth on each panel; each
        f1 node carries Gauss nodes in f2 over its window.  Each direction
        gets about one node per four radians of the largest phase variation
        along it (on a 129 x 129 grid), times 1.5 per level.  The phase
        slope in f1 carries the channel offset f_k - f_i, so f1 is the
        outer direction: the window edges move with f1 and would carry
        that slope into the inner direction.  The nodes are taken
        _NODE_BLOCK at a time, so no temporary grows with n1 x n2.
        """
        lim = min(self.b_i / 2, self.b_k)
        total = 0.0
        for e0, e1 in ((-lim, 0.0), (0.0, lim)):
            f1 = np.linspace(e0, e1, 129)[:, None]
            lo, hi = self._f2_window(f1)
            f2 = lo + (hi - lo) * np.linspace(0.0, 1.0, 129)
            phi = self._phi_of(f1, *self._phase_coeffs(f2)) * self.length
            n1, n2 = (_gl_size(1.5 ** level * (8 + 0.25 * np.max(np.sum(
                np.abs(np.diff(phi, axis=ax)), axis=ax)))) for ax in (0, 1))
            t1, w1 = _gl_rule(n1)
            t2, w2 = _gl_rule(n2)
            for q in range(0, n1 * n2, _NODE_BLOCK):
                j1, j2 = np.divmod(np.arange(q, min(q + _NODE_BLOCK,
                                                    n1 * n2)), n2)
                f1 = 0.5 * (e0 + e1) + 0.5 * (e1 - e0) * t1[j1]
                lo, hi = self._f2_window(f1)
                f2 = 0.5 * (lo + hi) + 0.5 * (hi - lo) * t2[j2]
                phi = self._phi_of(f1, *self._phase_coeffs(f2))
                weight = 0.25 * (e1 - e0) * (hi - lo) * w1[j1] * w2[j2]
                total += float(np.sum(
                    weight * np.abs(self._i_of_phi(f1, f2, phi)) ** 2))
        return total

    # -- swapped (phi, f2) integration order ---------------------------------
    #
    # When phi(f1, f2) is monotone in f1 with a slope of constant sign
    # across each piece of the interfering band, the 2D integral is
    # evaluated as
    #   int dphi T(phi),   T(phi) = int_{D(phi)} |I|^2 / |dphi/df1| df2,
    # with D(phi) the f2 set whose f1 window reaches phase phi.  At fixed
    # phi the integrand is smooth in f2 -- the oscillation of |I|^2 lives
    # entirely in phi -- so a small Gauss rule in f2 suffices and every
    # oscillatory direction is handled by the phi machinery (dense Gauss
    # nodes below the split, endpoint expansion plus polynomial Filon
    # above it).  This is what makes the oracle converge: integrating f2
    # on the outside instead leaves an interference ripple across the
    # interfering band that a fixed f2 rule cannot resolve.  Where the
    # slope vanishes inside the band (SPM), |dphi/df1| ~ |f2| near the
    # zero and T(phi) ~ ln(1/|phi|): the f2 nodes move to ln|f2| and the
    # inner phase segment next to phi = 0 is graded geometrically.

    def _p_end(self, f2, side):
        """side (+1 or -1, per f2) times the extreme phase of the f1 window
        at f2: the max if side > 0, else the min."""
        a, b = self._phase_coeffs(f2)
        lo, hi = self._f1_window(f2)
        return np.maximum(side * self._phi_of(lo, a, b),
                          side * self._phi_of(hi, a, b))

    def _setup_swapped(self) -> Optional[dict]:
        """The monotone runs of the extreme phase in f2, or None where
        phi(f1) is not monotone with one slope sign over each piece.

        The phase slope a(f2) and curvature b(f2) share the factor d2 =
        f2 + f_k - f_i.  Where d2 vanishes inside the band (SPM, at f2 =
        0), ``zero`` is that f2 and it splits the band into two pieces with
        slopes of opposite sign; every phase phi != 0 stays away from the
        zero, so each interval of D(phi) lies in one piece.  Otherwise
        ``zero`` is None.  The slope test reads the cuts of the band: its
        ends, the kinks +-(B_k - B_i)/2 where the f1 window changes the
        bound that clips it, and ``zero``.  Between two cuts the active
        window end is f1 = const or f1 + f2 = const, so the extreme phase
        is a quadratic in f2, read from its values at the piece's ends and
        midpoint and split at its vertex.  Every f1 window holds f1 = 0,
        where phi = 0, so side times the max (1) or min (-1) is >= 0.
        ``runs[side]`` holds one monotone run per row, (start, end, x0,
        p(x0), p'(x0), p''/2), expanded about the end x0 away from the
        vertex, and ``p[side]`` the values at the run bounds, in f2 order.
        """
        bk2 = self.b_k / 2
        kink = (self.b_k - self.b_i) / 2
        zero = self.fi_off - self.fk_off
        if not -bk2 < zero < bk2:
            zero = None
        cuts = np.unique([-bk2, bk2] + [v for v in (kink, -kink, zero)
                                        if v is not None and -bk2 < v < bk2])
        a, b = self._phase_coeffs(cuts)
        lo, hi = self._f1_window(cuts)
        f1ext = np.maximum(np.abs(lo), np.abs(hi))
        if zero is not None:  # check the pieces' slopes with d2 divided out
            d2 = cuts + (self.fk_off - self.fi_off)
            keep = d2 != 0.0
            a, b, f1ext = a[keep] / d2[keep], b[keep] / d2[keep], f1ext[keep]
        if np.any(a == 0.0) or a.max() * a.min() < 0.0:
            return None
        if np.max(np.abs(2.0 * b * f1ext)) >= 0.5 * np.min(np.abs(a)):
            return None
        mid, h = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
        runs, bound_p = {}, {}
        for side in (1, -1):
            pc, pm = self._p_end(cuts, side), self._p_end(mid, side)
            slope = (pc[1:] - pc[:-1]) / (2.0 * h)  # p' at the midpoint
            curv = (0.5 * (pc[1:] + pc[:-1]) - pm) / (h * h)  # p'' / 2
            turn = (slope - 2.0 * curv * h) * (slope + 2.0 * curv * h) < 0.0
            x = np.concatenate([cuts, mid[turn] - slope[turn]
                                / (2.0 * curv[turn])])
            p = np.concatenate([pc, pm[turn] - slope[turn] ** 2
                                / (4.0 * curv[turn])])
            order = np.argsort(x)
            x, p = x[order], p[order]
            piece = np.searchsorted(cuts, x[:-1], side="right") - 1
            dp0, dp1 = (slope[piece] + 2.0 * curv[piece] * (end - mid[piece])
                        for end in (x[:-1], x[1:]))
            at_start = np.abs(dp0) >= np.abs(dp1)  # x0 away from the vertex
            runs[side] = np.column_stack([
                x[:-1], x[1:], np.where(at_start, x[:-1], x[1:]),
                np.where(at_start, p[:-1], p[1:]),
                np.where(at_start, dp0, dp1), curv[piece]])
            bound_p[side] = p
        return {"zero": zero, "runs": runs, "p": bound_p}

    def _domain_edges(self, phis: np.ndarray):
        """The intervals of D(phi) for every phi != 0: (owner, left, right).

        D(phi) is where p > |phi|, p the extreme phase of phi's sign.  Its
        edges are band ends and the crossings of |phi| inside the runs
        whose bound values lie on either side of it: the run's quadratic
        root ``_f1_of_phi(|phi| - p(x0), p'(x0), p''/2)`` about x0, clipped
        to the run.  Along f2 the edges of one phi alternate, entering
        first, so consecutive edges pair into intervals, joined across the
        run bounds inside D(phi).
        Intervals come in phi order, left to right.
        """
        zero = self._sw["zero"]
        rows, left, right = [], [], []
        for side, runs in self._sw["runs"].items():
            n = runs.shape[0]
            owner = np.flatnonzero(side * phis > 0.0)
            level = np.abs(phis[owner])
            # column c + 1 is run bound c; columns 0 and n + 2 lie past the
            # band, outside D.  A change between columns j and j + 1 is in
            # run j - 1, or at a band end (j = 0 or n + 1).
            inside = np.zeros((owner.size, n + 3), dtype=bool)
            inside[:, 1:-1] = self._sw["p"][side] > level[:, None]
            r, j = np.nonzero(inside[:, 1:] != inside[:, :-1])
            start, end, x0, p0, dp, curv = runs[np.clip(j - 1, 0, n - 1)].T
            edge = np.where(j == 0, start, end)
            cross = (j > 0) & (j <= n)
            edge[cross] = np.clip(x0[cross] + self._f1_of_phi(
                level[r[cross]] - p0[cross], dp[cross], curv[cross]),
                start[cross], end[cross])
            if zero is not None:
                # p = 0 < |phi| there, so an edge on the zero is a crossing
                # within an ulp of x0 of it, rounded; that ulp adds nothing
                # to T(phi), and ln|f2 - zero| (``_f2_batch``) needs it off
                edge = np.where(edge == zero, zero + np.spacing(x0 - zero),
                                edge)
            rows.append(owner[r[0::2]])
            left.append(edge[0::2])
            right.append(edge[1::2])
        rows, left, right = (np.concatenate(v) for v in (rows, left, right))
        order = np.argsort(rows, kind="stable")
        keep = order[right[order] > left[order]]
        return rows[keep], left[keep], right[keep]

    def _f2_batch(self, phis: np.ndarray, edges, nf2: int):
        """f2 Gauss nodes of D(phi) for every phi from its ``_domain_edges``
        as flat arrays (phi, f2, f1 at phi, weight / |dphi/df1|, index of
        phi), empty when no phi has a D(phi).

        With a zero of the slope in the band, the nodes are Gauss nodes in
        s = ln|f2 - zero|: df2 = |f2 - zero| ds cancels the 1 / |a| of the
        phase Jacobian, which grows without bound toward the zero.
        """
        rows, left, right = edges
        tg, wg = _gl_rule(nf2)
        zero = self._sw["zero"]
        if zero is not None:
            sign = np.repeat(np.sign(left + right - 2.0 * zero), nf2)
            left = np.log(np.abs(left - zero))
            right = np.log(np.abs(right - zero))
        cc, hh = 0.5 * (left + right), 0.5 * (right - left)
        nodes = (cc[:, None] + hh[:, None] * tg).ravel()
        weights = (hh[:, None] * wg).ravel()
        if zero is not None:
            dist = np.exp(nodes)
            nodes = zero + sign * dist
            weights = np.abs(weights) * dist
        owner = np.repeat(rows, nf2)
        phi = phis[owner]
        a, b = self._phase_coeffs(nodes)
        f1 = self._f1_of_phi(phi, a, b)
        return phi, nodes, f1, weights / np.abs(a + 2.0 * b * f1), owner

    def _inner_part(self, edges, side: int, density: float):
        """The inner panels between consecutive |phi| ``edges``:
        (``_t_inner``, their Gauss phase nodes, (their weights,))."""
        edges = np.asarray(edges, dtype=float)
        e0, e1 = edges[:-1], edges[1:]
        sizes = [_gl_size(density * (24 + 0.7 * span))
                 for span in (e1 - e0) * self.length]
        rules = [_gl_rule(n) for n in sizes]
        tq = np.concatenate([r[0] for r in rules])
        wq = np.concatenate([r[1] for r in rules])
        c = np.repeat(0.5 * (e1 + e0), sizes)
        h = np.repeat(0.5 * (e1 - e0), sizes)
        return self._t_inner, side * c + h * tq, (h * wq,)

    def _t_inner(self, phis, edges, nf2: int, weights) -> float:
        """Direct quadrature of T(phi) over the inner panels."""
        phi, f2, f1, jac, owner = self._f2_batch(phis, edges, nf2)
        ivals = self._i_of_phi(f1, f2, phi[::nf2], nf2)
        tvals = np.bincount(owner, weights=np.abs(ivals) ** 2 * jac,
                            minlength=phis.size)
        return float(np.sum(weights * tvals))

    def _outer_part(self, criticals: np.ndarray, lim: float, side: int,
                    density: float):
        """Outer |phi| in [phi_split, lim]: (``_outer_side``, 8 Gauss phase
        nodes per panel, the panels' ``_phase_panels`` arguments)."""
        ps = self.phi_split
        edges = np.asarray(_octave_edges(ps, lim))
        crit = criticals[(criticals > ps) & (criticals < lim)]
        edges = np.union1d(edges, crit)
        parts = int(math.ceil(density))
        if parts > 1:
            edges = np.union1d(edges, np.concatenate(
                [np.linspace(x0, x1, parts + 1)
                 for x0, x1 in zip(edges[:-1], edges[1:])]))
        c, h = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        phis = side * (c[:, None] + h[:, None] * _gl_rule(8)[0]).ravel()
        return self._outer_side, phis, (h, side * c * self.length,
                                        side * h * self.length)

    def _outer_side(self, phis, edges, nf2: int, *panels) -> float:
        """Endpoint series + Filon over the outer panels of one side: the
        ``_phase_panels`` inputs (|U|^2 + |V|^2 and U V*, over |dphi/df1|)
        are summed over f2 into each phase node."""
        phi, f2, f1, jac, owner = self._f2_batch(phis, edges, nf2)
        u, v = self._endpoint_uv(f1, f2, phi)
        smooth = np.bincount(owner, weights=(np.abs(u) ** 2 + np.abs(v) ** 2)
                             * jac, minlength=phis.size)
        cross = u * np.conj(v) * jac
        ripple = (np.bincount(owner, weights=cross.real, minlength=phis.size)
                  + 1j * np.bincount(owner, weights=cross.imag,
                                     minlength=phis.size))
        return float(np.sum(_phase_panels(*panels, smooth.reshape(-1, 8),
                                          ripple.reshape(-1, 8))))

    def eta_swapped(self, level: int) -> float:
        """Full 2D integral in (phi, f2) order, where ``_sw`` is set.

        One ``_domain_edges`` call serves the phase nodes of both sides and
        regions; each part then integrates in its own helper, which frees
        its nodes.  The phase panels break at the extreme phase's values at
        the run bounds, where D(phi) changes shape, and end at its maximum.
        With a zero of the slope in the band, the inner segment [0, e1]
        becomes panels with edges 0 and e1 2^-k, k = 0.._GRADE_DEPTH +
        _GRADE_STEP level; the depth grows with the level so that the
        change between levels measures what the grading leaves out.
        """
        density = 1.5 ** level
        nf2 = int(round(12 * density))
        ps = self.phi_split
        parts = []  # (integrate, phase nodes, its further arguments)
        for side, p in self._sw["p"].items():
            lim = float(p.max())
            crits = np.unique(p[p > 0.0])  # where D(phi) changes shape
            lim_in = min(ps, lim)
            e = sorted({0.0, lim_in, *crits[crits < lim_in].tolist()})
            if self._sw["zero"] is not None:
                # T(phi) ~ ln(1/|phi|) toward phi = 0: panels e1 2^-k
                e = [0.0] + list(e[1] / 2.0 ** np.arange(
                    _GRADE_DEPTH + _GRADE_STEP * level, 0, -1)) + e[1:]
            parts.append(self._inner_part(e, side, density))
            if lim > ps:
                parts.append(self._outer_part(crits, lim, side, density))
        phis = [part[1] for part in parts]
        rows, left, right = self._domain_edges(np.concatenate(phis))
        first = np.cumsum([0] + [q.size for q in phis])
        cut = np.searchsorted(rows, first)
        total = 0.0
        for (integrate, phi, args), q0, lo, hi in zip(parts, first, cut,
                                                      cut[1:]):
            total += integrate(phi, (rows[lo:hi] - q0, left[lo:hi],
                                     right[lo:hi]), nf2, *args)
        return total


def _eta_pair_numeric(channel_i: Channel, channel_k: Channel,
                      rho: TaylorProfile, span: FiberSpan,
                      spec: QuadratureSpec, f_ref: float) -> EtaEstimate:
    """Refine one pair's eta until two levels agree to ``_REL_TOL_ETA``.

    Each level integrates in the swapped (phi, f2) order where the pair
    allows it, else in the direct (f1, f2) order (``eta_direct``).  The
    swapped order serves XPM on the whole band and SPM on the two halves
    of its band, split at f2 = 0, where the phase slope changes sign; on
    the reference grid both converge at the first refinement.  The direct
    order serves only pairs whose phase slope changes sign elsewhere in
    the band, or nearly so, which happens near zero dispersion, for SPM
    and XPM alike.  Its tensor Gauss rule shares no endpoint expansion
    with the swapped order and converges at the first refinement too, but
    its node count grows with the phase range: on channels 19 and 25 of
    the reference grid it takes about 40 times as long.
    """
    if not isinstance(rho, TaylorProfile):
        raise ValidationError(
            "the eta oracle requires a TaylorProfile evaluator"
        )
    engine = _PairEngine(rho, span, channel_i, channel_k, f_ref)
    p_i = channel_i.launch_power_per_span[0]
    p_k = channel_k.launch_power_per_span[0]
    pref = (32.0 / 27.0 * span.gamma ** 2 / channel_k.bandwidth ** 2
            * (p_k / p_i) ** 2)
    integrate = engine.eta_direct if engine._sw is None else engine.eta_swapped
    prev = None
    value = err = math.inf
    converged = False
    for level in range(spec.max_refinements + 1):
        value = pref * integrate(level)
        if prev is not None:
            err = abs(value - prev)
            if err <= _REL_TOL_ETA * abs(value):
                converged = True
                break
        prev = value
    return EtaEstimate(value=value, error_estimate=err, converged=converged)


def eta_xpm_numeric(channel_i: Channel, channel_k: Channel,
                    rho: TaylorProfile, span: FiberSpan,
                    spec: Optional[QuadratureSpec] = None, *,
                    f_ref: float) -> EtaEstimate:
    """2D quadrature of the XPM spectral integral with the exact phase.

    ``f_ref`` is the absolute frequency at which beta2/beta3 are quoted,
    the grid's band center (``FiberSpan``).
    """
    spec = spec or QuadratureSpec()
    if channel_k.center_frequency == channel_i.center_frequency:
        raise ValidationError("XPM oracle requires distinct channels")
    return _eta_pair_numeric(channel_i, channel_k, rho, span, spec, f_ref)


def eta_spm_numeric(channel_i: Channel, rho: TaylorProfile, span: FiberSpan,
                    spec: Optional[QuadratureSpec] = None, *,
                    f_ref: float) -> EtaEstimate:
    """SPM oracle: the self-pair XPM integral, halved.

    ``f_ref`` is the absolute frequency at which beta2/beta3 are quoted,
    the grid's band center (``FiberSpan``).
    """
    spec = spec or QuadratureSpec()
    est = _eta_pair_numeric(channel_i, channel_i, rho, span, spec, f_ref)
    return EtaEstimate(0.5 * est.value, 0.5 * est.error_estimate,
                       est.converged)


# ---------------------------------------------------------------------------
# Identity verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    name: str
    n_draws: int
    max_rel_error: float
    tolerance: float
    passed: bool
    max_tail: float = 0.0


@dataclass(frozen=True)
class IdentityReport:
    checks: Tuple[IdentityCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _rel(err, ref):
    return err / max(abs(ref), 1e-300)


def verify_identities(n_draws: int = 120, seed: int = 20260823
                      ) -> IdentityReport:
    """Randomized numeric verification of the supporting identities.

    Finite integrals are compared against adaptive quadrature, to
    ``_REL_TOL_MU`` relative; improper oscillatory ones use weighted
    quadrature over [0, inf) with the tail beyond
    ``_TRUNCATION_HALFWIDTH`` max(a, b)/|c| reported separately.
    """
    from scipy.integrate import quad

    tol = _REL_TOL_MU
    rng = np.random.default_rng(seed)
    checks = []

    # multinomial expansion for exponents 1..3 on random complex triples
    worst = 0.0
    from itertools import product as _prod
    for _ in range(n_draws):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        for power in (1, 2, 3):
            lhs = np.sum(z) ** power
            rhs = 0.0
            for ks in _prod(range(power + 1), repeat=3):
                if sum(ks) != power:
                    continue
                coef = (math.factorial(power)
                        / math.prod(math.factorial(k) for k in ks))
                rhs += coef * z[0] ** ks[0] * z[1] ** ks[1] * z[2] ** ks[2]
            worst = max(worst, _rel(abs(lhs - rhs), abs(lhs)))
    checks.append(IdentityCheck("multinomial", n_draws, worst, 1e-12,
                                worst <= 1e-12))

    # complex modulus identities
    worst = 0.0
    for _ in range(n_draws):
        z1, z2 = rng.normal(size=2) + 1j * rng.normal(size=2)
        worst = max(worst, _rel(abs(abs(z1) ** 2 - (z1 * np.conj(z1)).real),
                                abs(z1) ** 2))
        lhs = z1 * np.conj(z2) + z2 * np.conj(z1)
        rhs = 2.0 * (z1 * np.conj(z2)).real
        worst = max(worst, _rel(abs(lhs - rhs), abs(rhs)))
    checks.append(IdentityCheck("complex_modulus", n_draws, worst, 1e-12,
                                worst <= 1e-12))

    qkw = dict(epsabs=1e-13, epsrel=1e-12, limit=400)

    # finite rational-atan identity
    worst = 0.0
    for _ in range(n_draws):
        a, b2 = rng.uniform(0.2, 3.0, 2)
        c = rng.choice([-1, 1]) * rng.uniform(0.3, 3.0)
        x_up = rng.uniform(0.5, 5.0)
        f = lambda x: ((a * b2 + c * c * x * x)
                       / ((a * a + c * c * x * x) * (b2 * b2 + c * c * x * x)))
        lhs = quad(f, 0.0, x_up, **qkw)[0]
        rhs = (math.atan(c * x_up / a) + math.atan(c * x_up / b2)) \
            / (c * (a + b2))
        worst = max(worst, _rel(abs(lhs - rhs), rhs))
    checks.append(IdentityCheck("rational_atan", n_draws, worst, tol,
                                worst <= tol))

    # finite trigonometric identity over [0, pi/2]
    worst = 0.0
    for _ in range(n_draws):
        a, b2 = rng.uniform(0.2, 3.0, 2)
        c = rng.choice([-1, 1]) * rng.uniform(0.3, 3.0)
        f = lambda x: ((a * b2 + c * c * math.sin(x) ** 2)
                       / ((a * a + c * c * math.sin(x) ** 2)
                          * (b2 * b2 + c * c * math.sin(x) ** 2)))
        lhs = quad(f, 0.0, math.pi / 2, **qkw)[0]
        rhs = (math.pi / (2.0 * (a + b2))
               * (1.0 / math.sqrt(a * a + c * c)
                  + 1.0 / math.sqrt(b2 * b2 + c * c)))
        worst = max(worst, _rel(abs(lhs - rhs), rhs))
    checks.append(IdentityCheck("rational_trig", n_draws, worst, tol,
                                worst <= tol))

    # quartic-sqrt asinh identity
    worst = 0.0
    for _ in range(n_draws):
        d = rng.uniform(0.1, 10.0)
        x_up = rng.uniform(0.5, 5.0)
        f = lambda x: x / math.sqrt(1.0 + d * d * x ** 4)
        lhs = quad(f, 0.0, x_up, **qkw)[0]
        rhs = math.asinh(d * x_up ** 2) / (2.0 * d)
        worst = max(worst, _rel(abs(lhs - rhs), rhs))
    checks.append(IdentityCheck("quartic_asinh", n_draws, worst, tol,
                                worst <= tol))

    # improper oscillatory cosine identity
    worst = tail_worst = 0.0
    for _ in range(n_draws):
        a, b2 = rng.uniform(0.2, 3.0, 2)
        c = rng.choice([-1, 1]) * rng.uniform(0.3, 3.0)
        ell = rng.uniform(0.3, 3.0)
        f = lambda x: ((a * b2 + c * c * x * x)
                       / ((a * a + c * c * x * x) * (b2 * b2 + c * c * x * x)))
        lhs = _quad_quiet(f, 0.0, np.inf, weight="cos", wvar=c * ell, **qkw)[0]
        rhs = (math.pi / 2.0
               * (math.exp(-abs(a * ell)) * math.copysign(1.0, c / a)
                  + math.exp(-abs(b2 * ell)) * math.copysign(1.0, c / b2))
               / (c * (a + b2)))
        x_cut = _TRUNCATION_HALFWIDTH * max(a, b2) / abs(c)
        tail = _quad_quiet(f, x_cut, np.inf, weight="cos", wvar=c * ell, **qkw)[0]
        worst = max(worst, _rel(abs(lhs - rhs), abs(rhs)))
        tail_worst = max(tail_worst, _rel(abs(tail), abs(rhs)))
    checks.append(IdentityCheck("improper_cos", n_draws, worst, tol,
                                worst <= tol, max_tail=tail_worst))

    # improper oscillatory sine identity
    worst = tail_worst = 0.0
    for _ in range(n_draws):
        a, b2 = rng.uniform(0.2, 3.0, 2)
        c = rng.choice([-1, 1]) * rng.uniform(0.3, 3.0)
        ell = rng.uniform(0.3, 3.0)
        f = lambda x: ((a - b2) * c * x
                       / ((a * a + c * c * x * x) * (b2 * b2 + c * c * x * x)))
        lhs = _quad_quiet(f, 0.0, np.inf, weight="sin", wvar=c * ell, **qkw)[0]
        rhs = (math.pi / 2.0
               * (math.exp(-abs(a * ell)) * (-math.copysign(1.0, c))
                  + math.exp(-abs(b2 * ell)) * math.copysign(1.0, c))
               / (c * (a + b2)))
        x_cut = _TRUNCATION_HALFWIDTH * max(a, b2) / abs(c)
        tail = _quad_quiet(f, x_cut, np.inf, weight="sin", wvar=c * ell, **qkw)[0]
        scale = max(abs(rhs), 1e-6)
        worst = max(worst, abs(lhs - rhs) / scale)
        tail_worst = max(tail_worst, abs(tail) / scale)
    checks.append(IdentityCheck("improper_sin", n_draws, worst, tol,
                                worst <= tol, max_tail=tail_worst))

    return IdentityReport(tuple(checks))


# ---------------------------------------------------------------------------
# Closed-form vs oracle comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    """Per-channel closed-form vs quadrature-oracle NLI comparison.

    ``converged[i]`` is False when any oracle estimate (SPM or XPM) of
    row i stopped refining before meeting its tolerance; rows left out
    of the comparison read True.
    """

    frequencies: np.ndarray
    eta_closed: np.ndarray
    eta_numeric: np.ndarray
    delta_db: np.ndarray
    error_estimates: np.ndarray
    xpm_closed: np.ndarray
    xpm_numeric: np.ndarray
    spm_closed: np.ndarray
    spm_numeric: np.ndarray
    converged: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, ("frequencies", "eta_closed", "eta_numeric",
                             "delta_db", "error_estimates", "xpm_closed",
                             "xpm_numeric", "spm_closed", "spm_numeric"))
        freeze_arrays(self, ("converged",), dtype=bool)

    @property
    def max_abs_delta_db(self) -> float:
        return float(np.max(np.abs(self.delta_db)))

    def to_csv(self, path_or_buf=None) -> str:
        return write_csv(
            ("channel", "f_i_hz", "eta_closed_per_w2", "eta_numeric_per_w2",
             "delta_db", "quadrature_error_estimate"),
            ((str(i),) + row for i, row in enumerate(zip(
                self.frequencies, self.eta_closed, self.eta_numeric,
                self.delta_db, self.error_estimates))),
            path_or_buf)


def compare_closed_vs_oracle(config, fit, spec: Optional[QuadratureSpec] = None,
                             channels: Optional[Tuple[int, ...]] = None
                             ) -> ComparisonReport:
    """Closed-form per-channel NLI vs the 2D quadrature oracle.

    Both sides use the same fitted profile and the same span-count and
    coherence bookkeeping; frequency offsets are taken from the grid's
    band center.  Rows left out through ``channels`` read 0 dB; rows
    outside the grid or named twice raise ValidationError, rows that are
    not integers TypeError, and a compared row whose ratio is not finite
    raises NumericalError.
    """
    from .closedform import closed_form_terms, eta_spm, eta_xpm_pair

    spec = spec or QuadratureSpec()
    grid = config.grid
    span = config.span
    n = config.span_count
    eps = config.coherence_epsilon
    f_ref = grid.band_center
    n_ch = grid.n_channels
    # operator.index: a bool row is its int, not a numpy mask over every row
    idxs = (tuple(range(n_ch)) if channels is None
            else tuple(map(operator.index, channels)))
    problems = [f"{what} channel(s) {bad}" for what, bad in (
        ("out-of-range", sorted({i for i in idxs if not 0 <= i < n_ch})),
        ("duplicate", sorted({i for i in idxs if idxs.count(i) > 1}))) if bad]
    if problems:
        raise ValidationError(f"rows of the {n_ch}-channel grid to compare: "
                              + "; ".join(problems))

    spm_c = np.zeros(n_ch)
    spm_n = np.zeros(n_ch)
    xpm_c = np.zeros((n_ch, n_ch))
    xpm_n = np.zeros((n_ch, n_ch))
    errs = np.zeros(n_ch)
    converged = np.ones(n_ch, dtype=bool)

    # Per-channel tilt decompositions and integrable profiles; an XPM pair
    # (i, k) uses the interferer's (channel k's) profile on both sides.  A
    # decomposition contracts itself once, for all the pairs it serves.
    all_terms = [
        closed_form_terms(fit.channel_fits[j].params,
                          grid.channels[j].center_frequency, span.length)
        for j in range(n_ch)
    ]
    all_rho = [
        TaylorProfile(fit.channel_fits[j].params, span.length)
        for j in range(n_ch)
    ]

    for i in idxs:
        ch_i = grid.channels[i]
        spm_c[i] = eta_spm(ch_i, all_terms[i], span, n, eps, f_ref=f_ref)
        est = eta_spm_numeric(ch_i, all_rho[i], span, spec, f_ref=f_ref)
        spm_n[i] = est.value * n ** (1.0 + eps)
        errs[i] += est.error_estimate
        converged[i] &= est.converged
        for k in range(n_ch):
            if k == i:
                continue
            ch_k = grid.channels[k]
            xpm_c[i, k] = eta_xpm_pair(ch_i, ch_k, all_terms[k], span, n,
                                       f_ref=f_ref)
            est = eta_xpm_numeric(ch_i, ch_k, all_rho[k], span, spec,
                                  f_ref=f_ref)
            xpm_n[i, k] = n * est.value
            errs[i] += n * est.error_estimate
            converged[i] &= est.converged

    eta_c = spm_c + xpm_c.sum(axis=1)
    eta_n_arr = spm_n + xpm_n.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = 10.0 * np.log10(eta_c / eta_n_arr)
    # equal sides agree exactly: rows left out (both 0) and gamma = 0 spans
    delta[eta_c == eta_n_arr] = 0.0
    bad = np.flatnonzero(~(np.isfinite(delta) & np.isfinite(eta_c)
                           & np.isfinite(eta_n_arr)))
    if bad.size:
        raise NumericalError(
            f"closed form vs oracle is not finite for channel(s) "
            f"{bad.tolist()}: eta_closed {eta_c[bad].tolist()}, "
            f"eta_numeric {eta_n_arr[bad].tolist()}")
    return ComparisonReport(
        frequencies=grid.frequencies,
        eta_closed=eta_c,
        eta_numeric=eta_n_arr,
        delta_db=delta,
        error_estimates=errs,
        xpm_closed=xpm_c,
        xpm_numeric=xpm_n,
        spm_closed=spm_c,
        spm_numeric=spm_n,
        converged=converged,
    )
