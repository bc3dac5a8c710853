"""Tests of the benchmark's own checks: each passes a sound output and
rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import env

env.prepare()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ramangn import (assemble_snr, eta_total, fit_profile,  # noqa: E402
                     parse_scenario, solve_power_evolution)
from ramangn.oracle import TaylorProfile, eta_xpm_numeric  # noqa: E402
from ramangn.profile import ProfileParams  # noqa: E402


@pytest.fixture(scope="module")
def scratch():
    path = os.path.join(env.HERE, "runs", f"test-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    yield path
    shutil.rmtree(path)


@pytest.fixture(scope="module")
def companion(scratch):
    """Two-channel backward-pumped scenario: (scenario, evolution, fit)."""
    budget = {"snr_ase_db": 20.0, "snr_trx_db": 25.0}
    inp = workloads._write_nli_inputs(scratch, budget,
                                      workloads.COMPANION_CHANNELS)["backward"]
    evolution = solve_power_evolution(inp.scenario.link, steps=400)
    fit = fit_profile(evolution, inp.scenario.link)
    return inp, evolution, fit


@pytest.fixture(scope="module")
def cf():
    """A small generated link, its fit and the closed-form step's links."""
    rng = np.random.default_rng(7)
    link, fit = workloads.generated_link(rng)
    return link, fit, workloads.closedform_links(link, rng, 100.0, 300.0)


def _reports(inp, fit):
    report = eta_total(inp.scenario.link, fit)
    report = assemble_snr(report, inp.scenario.budget, inp.scenario.link.grid)
    return report.to_csv(), report.to_json()


def _shift_csv_column(text, column, delta):
    lines = text.splitlines()
    j = lines[0].split(",").index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[j] = f"{float(cells[j]) + delta:.8e}"
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


def test_nli_files_accepts_program_output(companion):
    inp, _, fit = companion
    csv_text, json_text = _reports(inp, fit)
    assert checks.nli_files(csv_text, json_text, inp.snr_ase,
                            inp.snr_trx) == []


def test_nli_files_rejects_snr_column_shifted_by_0_1_db(companion):
    inp, _, fit = companion
    csv_text, json_text = _reports(inp, fit)
    shifted = _shift_csv_column(csv_text, "snr_db", 0.1)
    assert checks.nli_files(shifted, json_text, inp.snr_ase, inp.snr_trx)


def test_nli_files_rejects_total_snr_that_is_not_the_reciprocal_sum(
        companion):
    inp, _, fit = companion
    csv_text, json_text = _reports(inp, fit)
    doc = json.loads(json_text)
    doc["channels"][0]["snr_total"] *= 1.0 + 1e-6
    assert checks.nli_files(csv_text, json.dumps(doc), inp.snr_ase,
                            inp.snr_trx)


def test_nli_files_rejects_eta_total_that_is_not_the_sum(companion):
    inp, _, fit = companion
    csv_text, json_text = _reports(inp, fit)
    doc = json.loads(json_text)
    doc["channels"][1]["eta_xpm_per_w2"] *= 1.01
    assert checks.nli_files(csv_text, json.dumps(doc), inp.snr_ase,
                            inp.snr_trx)


def test_fit_rms_recomputation(companion):
    inp, ev, fit = companion
    n = ev.n_channels
    args = (ev.z_grid, ev.powers[:n], ev.frequencies[:n],
            inp.scenario.link.span.length)
    problems, rms = checks.fit_rms(fit.to_json(), *args)
    assert problems == []
    assert np.array_equal(rms, [cf.rms_db for cf in fit.channel_fits])

    doc = json.loads(fit.to_json())
    doc["channels"][1]["rms_db"] -= 0.01
    assert checks.fit_rms(json.dumps(doc), *args)[0]
    doc = json.loads(fit.to_json())
    doc["channels"][0]["params"]["c_b"] *= 1.05
    assert checks.fit_rms(json.dumps(doc), *args)[0]


def test_fit_gates():
    assert checks.fit_gates([0.177, 0.05, 0.12]) == []
    assert checks.fit_gates([0.51, 0.05, 0.05])
    assert checks.fit_gates([0.25, 0.21, 0.2])


def test_ode_refinement(companion):
    inp, ev, _ = companion
    fine = solve_power_evolution(inp.scenario.link, steps=800)
    assert checks.ode_refinement(ev.z_grid, ev.powers, fine.z_grid,
                                 fine.powers) == []
    bent = fine.powers.copy()
    bent[0, 300] *= 1.0 + 1e-5
    assert checks.ode_refinement(ev.z_grid, ev.powers, fine.z_grid, bent)
    assert checks.ode_refinement(ev.z_grid, ev.powers, ev.z_grid, ev.powers)


def _rows(n=6):
    freqs = 193e12 + 100e9 * np.arange(n)
    bws = np.full(n, 100e9)
    xc = np.ones((n, n)) - np.eye(n)
    return freqs, bws, np.zeros(n), np.ones(n, dtype=bool), xc, xc.copy()


def test_oracle_rows_accepts_agreeing_rows():
    assert checks.oracle_rows((0, 3), *_rows()) == []


def test_oracle_rows_rejects_an_unconverged_row():
    freqs, bws, delta, conv, xc, xn = _rows()
    conv[3] = False
    assert checks.oracle_rows((0, 3), freqs, bws, delta, conv, xc, xn)


def test_oracle_rows_rejects_row_and_pair_deviations():
    freqs, bws, delta, conv, xc, xn = _rows()
    delta[0] = 0.6
    assert checks.oracle_rows((0,), freqs, bws, delta, conv, xc, xn)
    freqs, bws, delta, conv, xc, xn = _rows()
    xn[0, 4] = xc[0, 4] * 10.0 ** (-0.3 / 10.0)  # non-adjacent, 0.3 dB
    assert checks.oracle_rows((0,), freqs, bws, delta, conv, xc, xn)
    freqs, bws, delta, conv, xc, xn = _rows()
    xn[0, 1] = xc[0, 1] * 10.0 ** (-0.3 / 10.0)  # adjacent pairs are exempt
    assert checks.oracle_rows((0,), freqs, bws, delta, conv, xc, xn) == []


def test_sweep_slope():
    offsets = np.array(workloads.SWEEP_OFFSETS_DB)
    base = np.array([120.0, 80.0, 95.0])
    good = base[None, :] * 10.0 ** (-2.0 * offsets[:, None] / 10.0)
    assert checks.sweep_slope(offsets, good) == []
    bad = base[None, :] * 10.0 ** (-1.9 * offsets[:, None] / 10.0)
    assert checks.sweep_slope(offsets, bad)


def test_closed_form_path_checks(cf):
    _, fit, links = cf
    plan = eta_total(links.plan, fit)
    uniform = [eta_total(link, fit).eta_total for link in links.plan_uniform]
    assert checks.per_span_sum(plan.eta_total, uniform,
                               links.plan_powers) == []
    assert checks.per_span_sum(plan.eta_total * (1.0 + 1e-8), uniform,
                               links.plan_powers)

    at_zero = dict(links.sweep)[0.0]
    near = eta_total(links.near_equal, fit).eta_total
    ref = eta_total(at_zero, fit).eta_total
    assert checks.rel_agree("path", near, ref, checks.PATH_REL_TOL) == []
    assert checks.rel_agree("path", near * (1.0 + 3e-9), ref,
                            checks.PATH_REL_TOL)


def test_lumped_pair_against_the_oracle():
    reference = parse_scenario(workloads.REFERENCE)
    pair = workloads._draw_lumped_pair(np.random.default_rng(3),
                                       reference.link)
    span = pair.span
    a = span.attenuation
    params = ProfileParams(alpha=a, c_f=0.0, c_b=0.0, alpha_f=a, alpha_b=a,
                           p_f=1e-3, p_b=0.0, f_hat=pair.f_ref)
    est = eta_xpm_numeric(pair.channel_i, pair.channel_k,
                          TaylorProfile(params, span.length), span,
                          f_ref=pair.f_ref)
    ci, ck = pair.channel_i, pair.channel_k
    phi = checks.xpm_phase(span.beta2, span.beta3,
                           ci.center_frequency - pair.f_ref,
                           ck.center_frequency - pair.f_ref)
    lumped = checks.lumped_eta_xpm(a, span.length, span.gamma, ci.bandwidth,
                                   ck.bandwidth, phi, 1.0)
    assert checks.lumped_pair(est.value, est.converged, lumped) == []
    assert checks.lumped_pair(est.value, False, lumped)
    assert checks.lumped_pair(est.value * 10.0 ** (0.1 / 10.0), True, lumped)


def test_same_bytes(scratch):
    a, b = os.path.join(scratch, "a"), os.path.join(scratch, "b")
    for d, text in ((a, "1.00000000e+00\n"), (b, "1.00000000e+00\n")):
        os.makedirs(d, exist_ok=True)
        with open(os.path.join(d, "f.csv"), "w", encoding="utf-8") as fh:
            fh.write(text)
    assert checks.same_bytes(a, b, ["f.csv"]) == []
    with open(os.path.join(b, "f.csv"), "w", encoding="utf-8") as fh:
        fh.write("1.00000001e+00\n")
    assert checks.same_bytes(a, b, ["f.csv"])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(273) == 95.0
    assert tracing.tail_percentile(100) == 90.0
    assert tracing.tail_percentile(39) == 50.0
    assert tracing.tail_percentile(4) == 50.0


def test_instrument_books_self_time_and_restores_originals(companion,
                                                           scratch):
    import ramangn.cli
    import ramangn.closedform

    inp = companion[0]
    original = ramangn.closedform.eta_total
    inst = tracing.Instrument(timing=True)
    with inst.installed(tracing.TARGETS):
        assert ramangn.cli.eta_total is not original
        assert ramangn.cli.main(["nli", "--scenario", inp.path, "--steps",
                                 "200", "--out", scratch]) == 0
    assert ramangn.cli.eta_total is original
    assert ramangn.closedform.eta_total is original
    names = [s[0] for s in inst.spans]
    assert names == ["cli.main", "scenario.parse_scenario",
                     "raman.solve_power_evolution", "profile.fit_profile",
                     "closedform.eta_total", "closedform.assemble_snr",
                     "cli.write_csv", "cli.write_json"]
    assert [s[3] for s in inst.spans] == [None] + [0] * 7
    layer = tracing.layer_metrics(inst)
    total = inst.spans[0][2] - inst.spans[0][1]
    booked = sum(layer[f"{name}.self_s"] for name in tracing.LAYERS)
    assert math.isclose(booked, total, rel_tol=1e-9)
    assert layer["raman.rk4_steps"] == 200
    assert layer["profile.fit_backward_s"] > 0.0
    assert layer["profile.fit_forward_s"] == 0.0
    assert layer["cli.output_bytes"] == sum(
        os.path.getsize(os.path.join(scratch, name))
        for name in workloads.NLI_FILES)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    import run

    with open(os.path.join(env.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} \
        == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] \
        == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
