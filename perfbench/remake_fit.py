"""Fit the reference scenario afresh and compare with the stored fit.

``oracle-compare-rows`` reads its fitted profile from
``inputs/reference_fit.json`` instead of refitting in the timed part. This
command makes that fit again the way ``ramangn nli`` does (ODE solve at
the scenario's steps, ``fit_profile`` with the scenario's overrides) and
reports whether the stored one still matches it:

    python3 perfbench/remake_fit.py           # compare only
    python3 perfbench/remake_fit.py --write   # compare, then store the fresh fit

Exit code 0 when they match, 1 when they do not (after ``--write`` the
stored fit is the fresh one either way), 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import env

#: Largest relative parameter change and absolute RMS change (dB) that
#: still count as the same fit.
PARAM_REL_TOL = 1e-9
RMS_TOL_DB = 1e-9


def compare(stored, fresh) -> tuple:
    """(largest relative parameter change, largest RMS change in dB)."""
    if stored.n_channels != fresh.n_channels:
        return float("inf"), float("inf")
    worst_param = worst_rms = 0.0
    for a, b in zip(stored.channel_fits, fresh.channel_fits):
        for name, value in dataclasses.asdict(a.params).items():
            ref = getattr(b.params, name)
            scale = max(abs(ref), abs(value))
            if scale:
                worst_param = max(worst_param, abs(value - ref) / scale)
        worst_rms = max(worst_rms, abs(a.rms_db - b.rms_db))
    return worst_param, worst_rms


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="store the fresh fit in place of the old one")
    args = parser.parse_args(argv)
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(f"remake_fit: {exc}", file=sys.stderr)
        return 2
    from ramangn import fit_profile, parse_scenario, solve_power_evolution

    import workloads

    scenario = parse_scenario(workloads.REFERENCE)
    evolution = solve_power_evolution(scenario.link,
                                      steps=scenario.solver_steps)
    fresh = fit_profile(evolution, scenario.link, **scenario.fit_overrides)
    stored = workloads.load_fit(workloads.STORED_FIT)
    worst_param, worst_rms = compare(stored, fresh)
    matches = worst_param <= PARAM_REL_TOL and worst_rms <= RMS_TOL_DB
    print(f"stored fit vs fresh fit: largest parameter change {worst_param:.3e}"
          f" (rel), largest RMS change {worst_rms:.3e} dB -> "
          f"{'matches' if matches else 'DIFFERS'}")
    if args.write:
        fresh.to_json(workloads.STORED_FIT)
        print(f"wrote {workloads.STORED_FIT}")
    return 0 if matches else 1


if __name__ == "__main__":
    sys.exit(main())
