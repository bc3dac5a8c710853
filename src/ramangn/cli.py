"""Command-line interface.

Commands
--------
solve    Integrate the Raman power-evolution ODEs; write the z-sampled
         per-line powers as CSV.
fit      Fit the semi-analytical tilted-exponential profile to the ODE
         solution; write the per-channel parameters as JSON and print the
         count of channels whose fit did not converge.
nli      Closed-form per-channel NLI and SNR; write CSV and JSON reports.
compare  Closed form vs the 2D quadrature oracle; write the per-channel
         comparison CSV and verdict against ``--gate-db``, which also fails
         when any oracle row did not converge.  The closed side is
         ``nli``'s own kernel, and both sides are summed over the spans as
         ``nli`` sums its eta.
sweep    Uniform launch-power offsets; per-channel SNR vs offset as CSV.
         The amplification profile is fitted once at the nominal powers and
         held fixed across offsets, and so is eta, which a uniform offset
         leaves unchanged; the sweep isolates the launch-power dependence
         of the SNR arithmetic (SNR_NLI falls 2 dB per +1 dB of power).

``nli``, ``compare`` and ``sweep`` first pass the fit through one gate,
``_converged_fit``: it exits 4 naming every channel whose fit did not
converge and every channel whose profile leaves its domain.

Exit codes: 0 success, 2 scenario/parse error (a value that overflows
when converted to SI included), 3 validation error (a gamma or launch
power whose square overflows, and a ``--sweep`` taking a launch power to
0 or to such a square, included), 4 numerical failure (a vanishing
channel or pair phase, and an eta that is negative or not finite,
included), 5 gate failure.

All floating-point output uses 9 significant digits in scientific
notation, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .closedform import assemble_snr, eta_total
from .domain import format_float, write_csv
from .errors import (GateFailure, NumericalError, ProfileDomainError,
                     ScenarioError, UnitError, ValidationError)
from .oracle import compare_closed_vs_oracle
from .profile import fit_profile, pair_offsets, profile_margin
from .raman import evolution_to_csv, solve_power_evolution
from .scenario import Scenario, parse_scenario, _solver_steps

def _out_dir(args) -> str:
    directory = args.out or "."
    os.makedirs(directory, exist_ok=True)
    return directory


def _solve(scenario: Scenario, args):
    steps = (scenario.solver_steps if args.steps is None
             else _solver_steps(args.steps, "--steps"))
    return solve_power_evolution(scenario.link, steps=steps)


def _fit(scenario: Scenario, args):
    evolution = _solve(scenario, args)
    return fit_profile(evolution, scenario.link, **scenario.fit_overrides)


def _converged_fit(scenario: Scenario, args):
    """The fit, if every channel's converged and its profile is positive on
    the pairs (i, k) it serves as channel k, SPM included, as in the oracle;
    1 - x d is linear in d, so the hull of their offsets decides.  Else one
    error naming every channel that fails either test: ProfileDomainError
    when some profile leaves its domain, which needs only the parameters,
    converged or not, and NumericalError otherwise."""
    report = _fit(scenario, args)
    grid, length = scenario.link.grid, scenario.link.span.length
    lo, hi = pair_offsets(grid.frequencies[:, None], grid.bandwidths[:, None],
                          grid.frequencies, grid.bandwidths,
                          report._param_matrix[-1])  # the f_hat row
    outside = [k for k, (cf, d_lo, d_hi) in enumerate(
                   zip(report.channel_fits, lo.min(axis=0), hi.max(axis=0)))
               if profile_margin(cf.params, length, d_lo, d_hi)[0] <= 0.0]
    unconverged = list(report.unconverged_channels)
    problems = []
    if unconverged:
        problems.append(
            f"profile fit did not converge on channel(s) {unconverged}")
    if outside:
        problems.append(
            f"linearized profile is non-positive on the frequencies served "
            f"by channel(s) {outside}")
    if problems:
        error = ProfileDomainError if outside else NumericalError
        raise error("; ".join(problems))
    return report


def cmd_solve(scenario: Scenario, args) -> int:
    evolution = _solve(scenario, args)
    path = os.path.join(_out_dir(args), "power_evolution.csv")
    evolution_to_csv(evolution, path)
    print(f"solved {evolution.n_lines} lines over "
          f"{evolution.z_grid.size} z samples -> {path}")
    return 0


def cmd_fit(scenario: Scenario, args) -> int:
    report = _fit(scenario, args)
    path = os.path.join(_out_dir(args), "fit_report.json")
    report.to_json(path)
    rms = [cf.rms_db for cf in report.channel_fits]
    print(f"fitted {len(rms)} channels: "
          f"worst RMS {format_float(max(rms))} dB, "
          f"mean RMS {format_float(sum(rms) / len(rms))} dB, "
          f"{len(report.unconverged_channels)} unconverged -> {path}")
    return 0


def cmd_nli(scenario: Scenario, args) -> int:
    fit = _converged_fit(scenario, args)
    report = eta_total(scenario.link, fit)
    report = assemble_snr(report, scenario.budget, scenario.link.grid)
    directory = _out_dir(args)
    csv_path = os.path.join(directory, "nli_report.csv")
    json_path = os.path.join(directory, "nli_report.json")
    report.to_csv(csv_path)
    report.to_json(json_path)
    snr_db = report.snr_total_db
    print(f"NLI for {report.n_channels} channels: total SNR "
          f"{format_float(float(np.min(snr_db)))} .. "
          f"{format_float(float(np.max(snr_db)))} dB -> {csv_path}")
    return 0


def cmd_compare(scenario: Scenario, args) -> int:
    if args.gate_db is not None and math.isnan(args.gate_db):
        raise ScenarioError("--gate-db must be a number of dB, got nan")
    fit = _converged_fit(scenario, args)
    t0 = time.perf_counter()
    report = compare_closed_vs_oracle(scenario.link, fit,
                                      spec=scenario.quadrature)
    elapsed = time.perf_counter() - t0
    path = os.path.join(_out_dir(args), "comparison.csv")
    report.to_csv(path)
    worst = report.max_abs_delta_db
    unconverged = np.flatnonzero(~report.converged).tolist()
    print(f"closed form vs oracle: max |delta| {format_float(worst)} dB over "
          f"{report.frequencies.size} channels ({elapsed:.1f} s) -> {path}")
    if args.gate_db is None:
        print(f"{len(unconverged)} unconverged rows")
    else:
        if unconverged:
            raise GateFailure(
                f"oracle did not converge on channel(s) {unconverged}; "
                f"the --gate-db gate needs converged rows")
        if worst > args.gate_db:
            raise GateFailure(
                f"max |delta| {format_float(worst)} dB exceeds the "
                f"--gate-db {format_float(args.gate_db)} dB gate")
        print(f"gate passed: {format_float(worst)} <= "
              f"{format_float(args.gate_db)} dB")
    return 0


def _parse_sweep(text: str):
    """The offsets lo, lo + step, ... up to hi, at most 10001 of them (0.01
    dB steps over 100 dB); the count is checked before any is built."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ScenarioError(f"--sweep expects lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise ScenarioError(f"--sweep expects numbers, got {text!r}") from None
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ScenarioError(f"--sweep expects finite numbers, got {text!r}")
    if step <= 0 or hi < lo:
        raise ScenarioError("--sweep requires step > 0 and hi >= lo")
    count = (hi - lo) / step
    if not math.isfinite(count):
        raise ScenarioError(
            f"--sweep's offset count (hi - lo) / step is not finite: {text!r}")
    count = int(round(count))
    if lo + count * step > hi + 1e-9:  # stop short of hi
        count -= 1
    if count >= 10001:
        raise ScenarioError(f"--sweep asks for {count + 1} offsets, more "
                            f"than the 10001 allowed: {text!r}")
    return [lo + j * step for j in range(count + 1)]


def cmd_sweep(scenario: Scenario, args) -> int:
    if not args.sweep:
        raise ScenarioError("sweep requires --sweep lo:hi:step (dB offsets)")
    offsets = _parse_sweep(args.sweep)
    grid = scenario.link.grid
    powers = grid._power_matrix
    with np.errstate(over="ignore"):
        low, high = (np.float64(10.0) ** (off / 10.0) * p for off, p in (
            (offsets[0], powers.min()), (offsets[-1], powers.max())))
        sound = low > 0.0 and high * high < math.inf  # LinkConfig's rule
    if not sound:
        raise ValidationError(
            f"--sweep {args.sweep} scales the launch powers to "
            f"{format_float(low)} .. {format_float(high)} W; they must stay "
            f"positive and finite, and so must their squares")
    fit = _converged_fit(scenario, args)
    # eta is launch-power free for a uniform offset: only the SNR moves
    eta = eta_total(scenario.link, fit)
    rows = []
    for off in offsets:
        report = assemble_snr(
            replace(eta, launch_powers=10.0 ** (off / 10.0)
                    * eta.launch_powers),
            scenario.budget, grid)
        snr_nli_db = 10.0 * np.log10(report.snr_nli)
        rows += [(off, str(i)) + row for i, row in enumerate(zip(
            report.frequencies, report.launch_powers, snr_nli_db,
            report.snr_total_db))]
    path = os.path.join(_out_dir(args), "sweep.csv")
    write_csv(("offset_db", "channel", "f_i_hz", "launch_power_w",
               "snr_nli_db", "snr_db"), rows, path)
    print(f"swept {len(offsets)} offsets x "
          f"{grid.n_channels} channels -> {path}")
    return 0


_COMMANDS = {
    "solve": cmd_solve,
    "fit": cmd_fit,
    "nli": cmd_nli,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ramangn",
        description="Closed-form NLI/SNR estimation for Raman-amplified "
                    "WDM links.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--scenario", required=True,
                        help="path to the JSON scenario file")
    parser.add_argument("--out", default=None,
                        help="output directory (default: current directory)")
    parser.add_argument("--gate-db", type=float, default=None,
                        help="compare: fail (exit 5) if max |delta| exceeds "
                             "this many dB or an oracle row did not converge")
    parser.add_argument("--steps", type=int, default=None,
                        help="override the ODE step count")
    parser.add_argument("--sweep", default=None,
                        help="sweep: launch-power offsets as lo:hi:step (dB)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        scenario = parse_scenario(args.scenario)
        return _COMMANDS[args.command](scenario, args)
    except (ScenarioError, UnitError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except GateFailure as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
