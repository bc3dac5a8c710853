"""Closed-form NLI/SNR estimation for Raman-amplified WDM links.

The package predicts the nonlinear-interference (NLI) signal-to-noise
ratio of wideband WDM transmission over fibre spans with distributed
Raman amplification:

1. :mod:`ramangn.raman` integrates the coupled Raman power-evolution ODEs.
2. :mod:`ramangn.profile` fits a semi-analytical tilted-exponential
   signal-power profile to the ODE solution.
3. :mod:`ramangn.closedform` evaluates the closed-form Gaussian-noise NLI
   expression built on that profile and assembles the SNR budget.
4. :mod:`ramangn.oracle` validates the closed form against direct
   numerical integration of the underlying spectral integrals.

All internal quantities are SI; engineering units exist only at the I/O
boundary (:mod:`ramangn.units`, :mod:`ramangn.scenario`).
"""

from .closedform import (ClosedFormTerms, NliReport, assemble_snr,
                         closed_form_terms, eta_spm, eta_total, eta_xpm_pair,
                         mu_closed)
from .domain import (Channel, Direction, FiberSpan, LinkConfig, Pump,
                     SnrBudget, WdmGrid)
from .errors import (DegenerateDispersionError, DivergenceError,
                     GateFailure, NumericalError, ProfileDomainError,
                     RamanGnError, ScenarioError, UnitError, ValidationError)
from .oracle import (ComparisonReport, EtaEstimate, QuadratureSpec,
                     TaylorProfile, compare_closed_vs_oracle, eta_spm_numeric,
                     eta_xpm_numeric)
from .profile import (ChannelFit, FitReport, ProfileParams,
                      backward_effective_length, effective_length,
                      eval_profile_taylor, fit_profile, tilt_derivative,
                      tilt_integral)
from .raman import (PowerEvolution, evolution_to_csv, normalized_profile,
                    solve_power_evolution)
from .scenario import Scenario, parse_scenario
from .units import UNIT_TAGS, convert_units, db_to_linear

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
