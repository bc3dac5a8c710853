"""Output checks of the benchmark.

Every check compares an output of ramangn with a quantity computed here,
apart from the program, or with a property the method must have. None
compares with a stored copy of an earlier output. Each returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np

#: Written floats carry 9 significant digits.
CSV_REL_TOL = 2e-8
CSV_DB_TOL = 1e-7
SNR_REL_TOL = 1e-12
#: Acceptance criterion 4 of the test suite: worst and mean fit RMS.
FIT_WORST_DB = 0.5
FIT_MEAN_DB = 0.2
FIT_RMS_AGREE_DB = 1e-6
ODE_REL_TOL = 1e-6
#: Acceptance criterion 5: per-row total and non-adjacent pair gates.
ROW_DB = 0.5
PAIR_DB = 0.2
#: Pairs closer than this many interferer bandwidths count as adjacent.
ADJACENT_BANDWIDTHS = 3.0
SLOPE_DB_PER_DB = -2.0
SLOPE_TOL_DB = 0.01
PATH_REL_TOL = 1e-9
SPAN_SUM_REL_TOL = 1e-10
LUMPED_TOL_DB = 0.05

NLI_CSV_COLUMNS = ("f_i_hz", "eta_spm_per_w2", "eta_xpm_per_w2",
                   "eta_total_per_w2", "snr_nli_db", "snr_db")


def _rel(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.abs(a - b) / np.maximum(np.abs(b), np.finfo(float).tiny)


def _worst(values) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.max(values)) if values.size else 0.0


def snr_budget(eta_spm, eta_xpm, eta_total, launch_powers, snr_nli,
               snr_total, snr_total_db, snr_ase, snr_trx) -> list:
    """SNR assembly: eta sum, SNR_NLI = 1/(eta P^2), reciprocal-sum total."""
    problems = []
    eta_total = np.asarray(eta_total, dtype=float)
    p = np.asarray(launch_powers, dtype=float)
    err = _worst(_rel(eta_total, np.asarray(eta_spm) + np.asarray(eta_xpm)))
    if not err <= SNR_REL_TOL:
        problems.append(f"eta_total != eta_spm + eta_xpm (rel {err:.3e})")
    err = _worst(_rel(snr_nli, 1.0 / (eta_total * p ** 2)))
    if not err <= SNR_REL_TOL:
        problems.append(f"snr_nli != 1/(eta_total P^2) (rel {err:.3e})")
    expected = 1.0 / (1.0 / np.asarray(snr_nli, dtype=float)
                      + 1.0 / np.asarray(snr_ase, dtype=float)
                      + 1.0 / np.asarray(snr_trx, dtype=float))
    err = _worst(_rel(snr_total, expected))
    if not err <= SNR_REL_TOL:
        problems.append(f"snr_total is not the reciprocal sum (rel {err:.3e})")
    err = _worst(np.abs(np.asarray(snr_total_db, dtype=float)
                        - 10.0 * np.log10(expected)))
    if not err <= 1e-9:
        problems.append(f"snr_total_db != 10 log10 snr_total ({err:.3e} dB)")
    return problems


def nli_files(csv_text: str, json_text: str, snr_ase: float,
              snr_trx: float) -> list:
    """The ``nli`` CSV and JSON reports: SNR arithmetic and CSV = JSON."""
    try:
        rows = json.loads(json_text)["channels"]
        table = list(csv.reader(io.StringIO(csv_text)))
    except (ValueError, KeyError, csv.Error) as exc:
        return [f"unreadable report: {exc}"]

    def col(key):
        return np.array([r[key] for r in rows], dtype=float)

    eta_total = col("eta_total_per_w2")
    snr_nli = col("snr_nli")
    problems = snr_budget(col("eta_spm_per_w2"), col("eta_xpm_per_w2"),
                          eta_total, col("launch_power_w"), snr_nli,
                          col("snr_total"), col("snr_total_db"),
                          snr_ase, snr_trx)
    if tuple(table[0]) != NLI_CSV_COLUMNS:
        return problems + [f"CSV header {table[0]}"]
    body = np.array(table[1:], dtype=float)
    if body.shape != (len(rows), len(NLI_CSV_COLUMNS)):
        return problems + [f"CSV has shape {body.shape}, JSON {len(rows)} rows"]
    linear = {"f_i_hz": col("f_i_hz"), "eta_spm_per_w2": col("eta_spm_per_w2"),
              "eta_xpm_per_w2": col("eta_xpm_per_w2"),
              "eta_total_per_w2": eta_total}
    for j, name in enumerate(NLI_CSV_COLUMNS[:4]):
        err = _worst(_rel(body[:, j], linear[name]))
        if not err <= CSV_REL_TOL:
            problems.append(f"CSV {name} differs from JSON (rel {err:.3e})")
    in_db = {"snr_nli_db": 10.0 * np.log10(snr_nli),
             "snr_db": col("snr_total_db")}
    for j, name in enumerate(NLI_CSV_COLUMNS[4:], start=4):
        err = _worst(np.abs(body[:, j] - in_db[name]))
        if not err <= CSV_DB_TOL:
            problems.append(f"CSV {name} differs from JSON ({err:.3e} dB)")
    return problems


def profile_db(params: dict, z, f: float, length: float) -> np.ndarray:
    """The linearized profile model in dB, coded apart from ramangn.profile.

    rho(z, f) = exp(-alpha z) [1 - x(z) (f - f_hat)] with
    x(z) = c_f P_f (1 - e^{-alpha_f z})/alpha_f
           + c_b P_b (e^{-alpha_b (L - z)} - e^{-alpha_b L})/alpha_b.
    """
    z = np.asarray(z, dtype=float)
    leff = (1.0 - np.exp(-params["alpha_f"] * z)) / params["alpha_f"]
    lbeff = ((np.exp(-params["alpha_b"] * (length - z))
              - math.exp(-params["alpha_b"] * length)) / params["alpha_b"])
    x = (params["c_f"] * params["p_f"] * leff
         + params["c_b"] * params["p_b"] * lbeff)
    with np.errstate(invalid="ignore", divide="ignore"):
        return 10.0 * np.log10(np.exp(-params["alpha"] * z)
                               * (1.0 - x * (f - params["f_hat"])))


def fit_rms(fit_json_text: str, z, channel_powers, frequencies,
            length: float) -> tuple:
    """Recompute each channel's fit RMS from the written parameters.

    Returns (problems, reported RMS array). The written RMS must agree with
    the recomputation against the ODE powers.
    """
    try:
        written = json.loads(fit_json_text)["channels"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable fit report: {exc}"], np.zeros(0)
    powers = np.asarray(channel_powers, dtype=float)
    if len(written) != powers.shape[0]:
        return [f"fit covers {len(written)} of {powers.shape[0]} channels"], \
            np.zeros(0)
    reported = np.array([c["rms_db"] for c in written], dtype=float)
    target = 10.0 * np.log10(powers / powers[:, :1])
    recomputed = np.array([
        math.sqrt(float(np.mean((profile_db(c["params"], z, f, length)
                                 - row) ** 2)))
        for c, f, row in zip(written, frequencies, target)])
    err = _worst(np.abs(recomputed - reported))
    if not err <= FIT_RMS_AGREE_DB:
        return [f"written fit RMS differs from the recomputed RMS by "
                f"{err:.3e} dB"], reported
    return [], reported


def fit_gates(rms) -> list:
    """Worst and mean fit RMS within the gates of acceptance criterion 4."""
    problems = []
    worst, mean = _worst(rms), float(np.mean(rms))
    if not worst <= FIT_WORST_DB:
        problems.append(f"worst fit RMS {worst:.3f} dB > {FIT_WORST_DB} dB")
    if not mean <= FIT_MEAN_DB:
        problems.append(f"mean fit RMS {mean:.3f} dB > {FIT_MEAN_DB} dB")
    return problems


def ode_refinement(z, powers, z_fine, powers_fine) -> list:
    """The ODE powers agree with a solve at twice the steps."""
    z = np.asarray(z, dtype=float)
    coarse = np.asarray(powers, dtype=float)
    fine = np.asarray(powers_fine, dtype=float)[:, ::2]
    if fine.shape != coarse.shape or not np.allclose(
            np.asarray(z_fine)[::2], z, rtol=1e-12, atol=1e-9):
        return [f"refined solve has shape {fine.shape}, expected "
                f"{coarse.shape} on a halved step"]
    err = _worst(_rel(coarse, fine))
    if not err <= ODE_REL_TOL:
        return [f"powers differ from the twice-refined solve by rel "
                f"{err:.3e} (> {ODE_REL_TOL})"]
    return []


def oracle_rows(rows, frequencies, bandwidths, delta_db, converged,
                xpm_closed, xpm_numeric) -> list:
    """Compared rows: converged, within 0.5 dB, non-adjacent pairs 0.2 dB."""
    problems = []
    for i in rows:
        if not converged[i]:
            problems.append(f"row {i}: an oracle estimate did not converge")
        if not abs(delta_db[i]) <= ROW_DB:
            problems.append(f"row {i}: closed form vs oracle "
                            f"{delta_db[i]:.3f} dB (> {ROW_DB} dB)")
        for k in range(len(frequencies)):
            if k == i or xpm_numeric[i][k] == 0.0:
                continue
            if (abs(frequencies[k] - frequencies[i])
                    < ADJACENT_BANDWIDTHS * bandwidths[k]):
                continue
            pair_db = 10.0 * math.log10(xpm_closed[i][k] / xpm_numeric[i][k])
            if not abs(pair_db) <= PAIR_DB:
                problems.append(f"pair ({i}, {k}): {pair_db:.3f} dB "
                                f"(> {PAIR_DB} dB)")
    return problems


def sweep_slope(offsets_db, snr_nli) -> list:
    """SNR_NLI falls 2 dB per +1 dB of launch-power offset."""
    snr_db = 10.0 * np.log10(np.asarray(snr_nli, dtype=float))
    steps = np.diff(np.asarray(offsets_db, dtype=float))
    slopes = np.diff(snr_db, axis=0) / steps[:, None]
    err = _worst(np.abs(slopes - SLOPE_DB_PER_DB))
    if not err <= SLOPE_TOL_DB:
        return [f"sweep slope deviates from {SLOPE_DB_PER_DB} dB/dB by "
                f"{err:.3e} dB (> {SLOPE_TOL_DB})"]
    return []


def rel_agree(what: str, value, reference, tol: float) -> list:
    err = _worst(_rel(value, reference))
    if not err <= tol:
        return [f"{what}: rel deviation {err:.3e} (> {tol:.0e})"]
    return []


def per_span_sum(eta_per_span, eta_uniform, span_powers) -> list:
    """Incoherent accumulation over spans with differing launch powers.

    With launch powers P_j in span j (rows of ``span_powers``), eta of the
    link equals (1/n) sum_j (P_j/P_0)^2 eta_j, where eta_j is the eta of
    the same link with every span at P_j.
    """
    p = np.asarray(span_powers, dtype=float)
    scale = (p / p[0]) ** 2
    expected = np.sum(scale * np.asarray(eta_uniform, dtype=float),
                      axis=0) / p.shape[0]
    return rel_agree("per-span eta vs span-wise uniform sum", eta_per_span,
                     expected, SPAN_SUM_REL_TOL)


def xpm_phase(beta2: float, beta3: float, f_i: float, f_k: float) -> float:
    """XPM phase factor phi_ik for offsets f_i, f_k from the reference."""
    return (-4.0 * math.pi ** 2 * (f_k - f_i)
            * (beta2 + math.pi * beta3 * (f_i + f_k)))


def lumped_eta_xpm(alpha, length, gamma, b_i, b_k, phi_ik, p_ratio) -> float:
    """Hand-coded XPM closed form of a single-exponential (pump-free) span."""
    e2 = math.exp(-2.0 * alpha * length)
    at = math.atan(phi_ik * b_i / (2.0 * alpha))
    total = (2.0 / alpha) * ((1.0 + e2) * at
                             - math.pi * math.copysign(1.0, phi_ik) * e2)
    return (32.0 / 27.0) * gamma ** 2 * p_ratio ** 2 / (phi_ik * b_k) * total


def lumped_pair(oracle_value: float, converged: bool,
                lumped_value: float) -> list:
    """One oracle XPM pair on a pump-free profile vs the lumped form."""
    problems = [] if converged else ["lumped-pair oracle estimate did not "
                                     "converge"]
    if not (oracle_value > 0.0 and lumped_value > 0.0):
        return problems + [f"lumped pair: oracle {oracle_value!r}, "
                           f"closed form {lumped_value!r}"]
    delta = 10.0 * math.log10(lumped_value / oracle_value)
    if not abs(delta) <= LUMPED_TOL_DB:
        problems.append(f"lumped pair: oracle vs hand-coded closed form "
                        f"{delta:.4f} dB (> {LUMPED_TOL_DB} dB)")
    return problems


def same_bytes(dir_a: str, dir_b: str, names) -> list:
    """Files of the same name in two directories are byte-identical."""
    problems = []
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{name} differs between {dir_a} and {dir_b}")
    return problems
