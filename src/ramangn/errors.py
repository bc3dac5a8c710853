"""Exception hierarchy shared by all modules.

Each CLI-visible error class maps to one process exit code (see cli.py).
"""

from __future__ import annotations


class RamanGnError(Exception):
    """Base class for all errors raised by this package."""


class UnitError(RamanGnError, ValueError):
    """Unknown or unsupported engineering-unit tag, or a value whose
    conversion overflows a float."""


class ScenarioError(RamanGnError):
    """Scenario file could not be parsed (syntax, unknown key, bad value)."""


class ValidationError(RamanGnError):
    """A domain object violates its invariants.

    ``diagnostics`` lists every violated invariant with index context.
    """

    def __init__(self, diagnostics):
        if isinstance(diagnostics, str):
            diagnostics = [diagnostics]
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(self.diagnostics))


class NumericalError(RamanGnError):
    """A numerical routine failed to produce a trustworthy result."""


class DivergenceError(NumericalError):
    """The ODE integration produced a non-finite (or non-positive) state."""

    def __init__(self, message, z_position=None):
        self.z_position = z_position
        super().__init__(message)


class DegenerateDispersionError(NumericalError):
    """A phase-mismatch factor vanishes (zero-dispersion channel pair)."""


class ProfileDomainError(NumericalError):
    """The linearized profile is non-positive on frequencies a fit serves
    (``profile.profile_margin``); the fit gate and the oracle refuse it."""


class GateFailure(RamanGnError):
    """An accuracy gate requested on the command line was not met."""
