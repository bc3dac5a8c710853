"""Reference computations the tests check the package against.

Adaptive quadrature, by scipy's ``quad``, of the link function's defining
integral (``mu_numeric``, criterion 1) and of the textbook identities the
closed form rests on (``verify_identities``, criterion 2).  No command
needs either, so they live with the tests, and the package needs numpy
alone.  scipy is imported when they run.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Tuple

import numpy as np

from ramangn.errors import ProfileDomainError

_REL_TOL_MU = 1e-8  # link function and finite identities, relative
_TRUNCATION_HALFWIDTH = 50.0  # identity tail split, in max(a, b)/|c|


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


def _quad_quiet(f, lo, hi, **weight):
    """int_lo^hi f by scipy's ``quad`` to 1e-12 relative, with its warnings
    off: the Fourier-weighted improper integrals occasionally report "bad
    integrand behavior" for near-degenerate parameter draws while still
    converging well inside tolerance; the accuracy checks are the gate."""
    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return quad(f, lo, hi, epsabs=1e-13, epsrel=1e-12, limit=400,
                    **weight)[0]


def _rational(a, b, u):
    """(ab + c^2 x^2) / ((a^2 + c^2 x^2)(b^2 + c^2 x^2)) at u = c^2 x^2."""
    return (a * b + u) / ((a * a + u) * (b * b + u))


def _draw_abc(rng):
    a, b = rng.uniform(0.2, 3.0, 2)
    return a, b, rng.choice([-1, 1]) * rng.uniform(0.3, 3.0)


def _draw_multinomial(rng):
    """(z0 + z1 + z2)^p by the multinomial theorem, p = 1..3, complex z."""
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    errors = []
    for p in (1, 2, 3):
        lhs = np.sum(z) ** p
        rhs = sum(math.factorial(p) / math.prod(map(math.factorial, ks))
                  * z[0] ** ks[0] * z[1] ** ks[1] * z[2] ** ks[2]
                  for ks in itertools.product(range(p + 1), repeat=3)
                  if sum(ks) == p)
        errors.append(_rel(abs(lhs - rhs), abs(lhs)))
    return np.max(errors), 0.0


def _draw_complex_modulus(rng):
    """|z1|^2 = Re z1 z1* and z1 z2* + z2 z1* = 2 Re z1 z2*."""
    z1, z2 = rng.normal(size=2) + 1j * rng.normal(size=2)
    lhs = z1 * np.conj(z2) + z2 * np.conj(z1)
    rhs = 2.0 * (z1 * np.conj(z2)).real
    return np.max((_rel(abs(abs(z1) ** 2 - (z1 * np.conj(z1)).real),
                        abs(z1) ** 2), _rel(abs(lhs - rhs), abs(rhs)))), 0.0


def _draw_rational_atan(rng):
    """The rational over [0, X] is (atan(cX/a) + atan(cX/b)) / (c (a + b))."""
    a, b, c = _draw_abc(rng)
    x_up = rng.uniform(0.5, 5.0)
    lhs = _quad_quiet(lambda x: _rational(a, b, c * c * x * x), 0.0, x_up)
    rhs = (math.atan(c * x_up / a) + math.atan(c * x_up / b)) / (c * (a + b))
    return _rel(abs(lhs - rhs), rhs), 0.0


def _draw_rational_trig(rng):
    """The rational at x = sin t over t in [0, pi/2] is
    pi / (2 (a + b)) (1 / sqrt(a^2 + c^2) + 1 / sqrt(b^2 + c^2))."""
    a, b, c = _draw_abc(rng)
    lhs = _quad_quiet(lambda t: _rational(a, b, c * c * math.sin(t) ** 2),
                      0.0, math.pi / 2)
    rhs = (math.pi / (2.0 * (a + b))
           * (1.0 / math.sqrt(a * a + c * c) + 1.0 / math.sqrt(b * b + c * c)))
    return _rel(abs(lhs - rhs), rhs), 0.0


def _draw_quartic_asinh(rng):
    """x / sqrt(1 + d^2 x^4) over [0, X] is asinh(d X^2) / (2 d)."""
    d, x_up = rng.uniform(0.1, 10.0), rng.uniform(0.5, 5.0)
    lhs = _quad_quiet(lambda x: x / math.sqrt(1.0 + d * d * x ** 4), 0.0,
                      x_up)
    rhs = math.asinh(d * x_up ** 2) / (2.0 * d)
    return _rel(abs(lhs - rhs), rhs), 0.0


def _draw_improper(rng, weight):
    """The rational against cos(c l x), or (a - b) c x over its denominator
    against sin(c l x), over [0, inf) is pi/2 (e^{-a l} +- e^{-b l}) sgn(c)
    / (c (a + b)), + for cos; the sine's error is relative to >= 1e-6."""
    a, b, c = _draw_abc(rng)
    ell = rng.uniform(0.3, 3.0)
    cos = weight == "cos"

    def f(x):
        u = c * c * x * x
        return (_rational(a, b, u) if cos
                else (a - b) * c * x / ((a * a + u) * (b * b + u)))

    lhs, tail = (_quad_quiet(f, x_lo, np.inf, weight=weight, wvar=c * ell)
                 for x_lo in (0.0, _TRUNCATION_HALFWIDTH * max(a, b) / abs(c)))
    sign = math.copysign(1.0, c)
    rhs = (math.pi / 2.0 * (math.exp(-a * ell) * (sign if cos else -sign)
                            + math.exp(-b * ell) * sign) / (c * (a + b)))
    scale = max(abs(rhs), 1e-300 if cos else 1e-6)
    return abs(lhs - rhs) / scale, abs(tail) / scale


# (name, tolerance, draw), in the order they draw.  A draw takes one parameter
# set from the shared generator and returns (relative error, relative tail).
_IDENTITIES = (
    ("multinomial", 1e-12, _draw_multinomial),
    ("complex_modulus", 1e-12, _draw_complex_modulus),
    ("rational_atan", _REL_TOL_MU, _draw_rational_atan),
    ("rational_trig", _REL_TOL_MU, _draw_rational_trig),
    ("quartic_asinh", _REL_TOL_MU, _draw_quartic_asinh),
    ("improper_cos", _REL_TOL_MU, partial(_draw_improper, weight="cos")),
    ("improper_sin", _REL_TOL_MU, partial(_draw_improper, weight="sin")),
)


def verify_identities(n_draws: int = 120, seed: int = 20260823
                      ) -> IdentityReport:
    """Randomized numeric verification of the supporting identities.

    Each identity of ``_IDENTITIES`` takes ``n_draws`` parameter sets in
    turn from one generator seeded with ``seed``.  Finite integrals are
    compared against adaptive quadrature, to ``_REL_TOL_MU`` relative;
    improper oscillatory ones use weighted quadrature over [0, inf) with
    the tail beyond ``_TRUNCATION_HALFWIDTH`` max(a, b)/|c| reported
    separately.  A NaN error or tail fails its check, whose
    ``max_rel_error`` then reads NaN.
    """
    rng = np.random.default_rng(seed)
    checks = []
    for name, tol, draw in _IDENTITIES:
        draws = np.array([draw(rng) for _ in range(n_draws)]).reshape(-1, 2)
        worst, tail = draws.max(axis=0, initial=0.0).tolist()
        if math.isnan(tail):
            worst = tail
        checks.append(IdentityCheck(name, n_draws, worst, tol, worst <= tol,
                                    max_tail=tail))
    return IdentityReport(tuple(checks))
