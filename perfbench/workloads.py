"""The benchmark's three workloads and the steps they share.

A workload prepares its inputs from the seed (``prepare``), then runs one
round (``run_round``): the timed operations, each followed by the checks
of its outputs. An operation is one ``nli`` command, one closed-form
evaluation, one oracle estimate or one output check. Every workload
reports every end-to-end metric; where a metric is not the workload's
focus it is measured on a small companion step, named in ``README.md``.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from ramangn import cli, closedform, oracle, raman, scenario
from ramangn.domain import (Channel, FiberSpan, LinkConfig, SnrBudget,
                            WdmGrid)
from ramangn.oracle import TaylorProfile
from ramangn.profile import ChannelFit, FitReport, ProfileParams

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")
REFERENCE = os.path.join(INPUTS, "reference_pumped_40ch.json")
FORWARD = os.path.join(INPUTS, "forward_pumped_40ch.json")
STORED_FIT = os.path.join(INPUTS, "reference_fit.json")

#: Rows of the reference grid compared in ``oracle-compare-rows``; 0 and
#: 39 are the band edges.
ORACLE_ROWS = (0, 7, 13, 20, 26, 33, 39)
#: Row compared against the oracle after the 40-channel ``nli``.
SPOT_ROW = 20
#: Reference channels kept in the two-channel companion scenarios.
COMPANION_CHANNELS = (0, 39)
#: Run length of the companion closed-form step on the 40-channel link.
COMPANION_CF_SECONDS = 1.0
#: Passes of the short companion steps; their metric is the median pass.
COMPANION_PASSES = 3
SWEEP_OFFSETS_DB = (-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0)
SPANS = 10
GENERATED_CHANNELS = 100
#: Relative spread of the "equal" per-span powers of the path check.
NEAR_EQUAL_REL = 1e-10
NLI_FILES = ("nli_report.csv", "nli_report.json")

_ALPHA_02 = 0.2 * math.log(10.0) / 10.0 / 1e3  # 0.2 dB/km in Np/m


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checks_failed: int = 0
    problems: list = field(default_factory=list)

    def ops(self, count: int, failed: int = 0) -> None:
        self.attempted += count
        self.failed += failed

    def check(self, name: str, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.checks_failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


class SpeedProbe:
    """The machine's speed, from a fixed kernel timed in this thread.

    On a shared machine the speed of this process drifts by tens of per
    cent over seconds with the load of its neighbours, and only a kernel
    run on the same CPU tracks it: a probe process on the other CPU does
    not. The kernel, a Python loop and numpy elementwise work with no
    ramangn code, runs before every closed-form iteration, around every
    other timed operation and, from a timer signal every PERIOD_S, during
    it (``run`` takes the kernel's time back out of the operation's).
    An operation's scaled time is its time times NOMINAL_S over the
    kernel's median time from PAD_S before it to PAD_S after it, so that
    drift the kernel and the program share cancels.
    """

    NOMINAL_S = 2.5e-3
    PERIOD_S = 0.25
    PAD_S = 0.5

    def __init__(self):
        self.at, self.samples = [], []  # start and duration of each probe
        self._x = np.linspace(0.0, 1.0, 20000)

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            total = 0.0
            for i in range(10000):
                total += (i * 0.5) % 7.0
            x = self._x
            for _ in range(10):
                x = np.arctan(x * 1.0001) + np.exp(-x)
            self.at.append(t0)
            self.samples.append(time.perf_counter() - t0)

    def run(self, fn, *args):
        """(fn(*args), (start, end, seconds without the probes meanwhile))."""
        self.probe()
        previous = signal.signal(signal.SIGALRM,
                                 lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()
        during = slice(bisect.bisect_left(self.at, t0),
                       bisect.bisect_left(self.at, t1))
        return result, (t0, t1, t1 - t0 - sum(self.samples[during]))

    def scaled(self, op) -> float:
        """Seconds of ``op`` = (start, end, seconds), scaled."""
        lo = bisect.bisect_left(self.at, op[0] - self.PAD_S)
        hi = bisect.bisect_right(self.at, op[1] + self.PAD_S)
        return op[2] * self.NOMINAL_S / statistics.median(self.samples[lo:hi])

    def kernel_s(self) -> float:
        return statistics.median(self.samples)


@dataclass
class Ctx:
    """What a round needs from the run: instrument, tally, output, length."""

    instrument: object
    tally: Tally
    speed: SpeedProbe
    out: str
    seconds: float
    plan: dict = None  # loop counts to replay; None runs by the clock


@dataclass
class Round:
    metrics: dict  # end-to-end metrics of the round, times scaled
    raw: dict  # the same, unscaled
    work_s: float  # summed duration of the timed operations
    plan: dict  # loop counts, replayed by a traced round
    outputs: list  # nli output directories


# ---------------------------------------------------------------------------
# inputs


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _draw_budget(rng) -> dict:
    """SNR_ASE and SNR_TRX in dB, drawn per seed."""
    return {"snr_ase_db": round(float(rng.uniform(18.0, 24.0)), 3),
            "snr_trx_db": round(float(rng.uniform(22.0, 30.0)), 3)}


def _budget_linear(budget: dict):
    return (10.0 ** (budget["snr_ase_db"] / 10.0),
            10.0 ** (budget["snr_trx_db"] / 10.0))


def _with_channels(doc: dict, indices) -> dict:
    """Scenario document reduced to some channels of its uniform grid."""
    grid = doc["grid"]
    first = grid["first_center"]["value"]
    spacing = grid["spacing"]["value"]
    out = dict(doc)
    out["grid"] = {"channels": [
        {"center": {"value": round(first + i * spacing, 9), "unit": "THz"},
         "bandwidth": grid["bandwidth"],
         "launch_power": grid["launch_power"]}
        for i in indices]}
    return out


@dataclass
class NliInput:
    path: str
    scenario: object
    snr_ase: float
    snr_trx: float
    gated: bool  # the 40-channel grid criterion 4 gates


def _write_nli_inputs(out: str, budget: dict, channels=None) -> dict:
    """Backward- and forward-pumped scenario files with the seed's budget."""
    os.makedirs(out, exist_ok=True)
    inputs = {}
    ase, trx = _budget_linear(budget)
    for name, source in (("backward", REFERENCE), ("forward", FORWARD)):
        doc = _load(source)
        if channels is not None:
            doc = _with_channels(doc, channels)
        doc["budget"] = budget
        path = os.path.join(out, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        inputs[name] = NliInput(path, scenario.parse_scenario(path), ase,
                                trx, gated=channels is None)
    return inputs


def load_fit(path: str) -> FitReport:
    """A fit stored with ``FitReport.to_json``."""
    return FitReport(tuple(
        ChannelFit(ProfileParams(**c["params"]), c["rms_db"], c["n_eval"],
                   c["converged"])
        for c in _load(path)["channels"]))


@dataclass
class CfLinks:
    """Links of the closed-form step, all derived from one base link."""

    sweep: list  # [(offset_db, link)] with equal powers in every span
    plan: LinkConfig  # per-span launch powers differ
    plan_powers: np.ndarray  # (spans, channels)
    plan_uniform: list  # one all-spans-equal link per row of plan_powers
    near_equal: LinkConfig  # per-span powers equal to NEAR_EQUAL_REL
    budget: SnrBudget


def _relink(base: LinkConfig, powers: np.ndarray) -> LinkConfig:
    channels = tuple(
        Channel(c.center_frequency, c.bandwidth, tuple(powers[:, i]))
        for i, c in enumerate(base.grid.channels))
    return LinkConfig(span=base.span, span_count=powers.shape[0],
                      grid=WdmGrid(channels), pumps=base.pumps,
                      coherence_epsilon=base.coherence_epsilon)


def closedform_links(base: LinkConfig, rng, snr_ase: float,
                     snr_trx: float) -> CfLinks:
    p = base.grid.launch_powers(0)
    n = p.size
    equal = np.tile(p, (SPANS, 1))
    sweep = [(off, _relink(base, equal * 10.0 ** (off / 10.0)))
             for off in SWEEP_OFFSETS_DB]
    plan_powers = p * 10.0 ** (rng.uniform(-1.0, 1.0, (SPANS, n)) / 10.0)
    near = equal * (1.0 + NEAR_EQUAL_REL * rng.uniform(-1.0, 1.0, (SPANS, n)))
    near[0] = p
    return CfLinks(
        sweep=sweep,
        plan=_relink(base, plan_powers),
        plan_powers=plan_powers,
        plan_uniform=[_relink(base, np.tile(row, (SPANS, 1)))
                      for row in plan_powers],
        near_equal=_relink(base, near),
        budget=SnrBudget(snr_ase=snr_ase, snr_trx=snr_trx))


def generated_link(rng):
    """A 100-channel link and a fitted profile drawn from the seed.

    Ranges: launch power 0 dBm +- 1 dB per channel; alpha within 1 % of
    0.2 dB/km; c_f in [1.5, 2.5]e-18 and c_b in [0.9, 1.5]e-18 1/(W m Hz);
    alpha_f in [1.0, 1.2] alpha; alpha_b in [0.80, 0.95] alpha; one
    backward pump power P_b in [0.4, 0.8] W at f_hat = 206.6 THz.
    """
    n = GENERATED_CHANNELS
    span = FiberSpan(length=80e3, beta2=-21.7e-27, beta3=0.14e-39,
                     gamma=1.2e-3, attenuation=_ALPHA_02, raman_slope=2.8e-17)
    powers = 1e-3 * 10.0 ** (rng.uniform(-1.0, 1.0, n) / 10.0)
    grid = WdmGrid(tuple(
        Channel(191.0e12 + 50e9 * i, 45e9, (float(powers[i]),))
        for i in range(n)))
    p_b = float(rng.uniform(0.4, 0.8))
    fits = []
    for _ in range(n):
        alpha = _ALPHA_02 * (1.0 + rng.uniform(-0.01, 0.01))
        fits.append(ChannelFit(ProfileParams(
            alpha=alpha,
            c_f=float(rng.uniform(1.5e-18, 2.5e-18)),
            c_b=float(rng.uniform(0.9e-18, 1.5e-18)),
            alpha_f=alpha * float(rng.uniform(1.0, 1.2)),
            alpha_b=alpha * float(rng.uniform(0.80, 0.95)),
            p_f=float(powers.sum()), p_b=p_b, f_hat=206.6e12),
            rms_db=0.0, n_eval=1, converged=True))
    return LinkConfig(span=span, span_count=1, grid=grid), FitReport(fits)


# ---------------------------------------------------------------------------
# shared steps


@dataclass
class NliResult:
    scenario: object
    out: str
    fit: FitReport
    evolution: object


def nli_step(ctx: Ctx, inputs: dict, label: str = "main"):
    """``ramangn nli`` on each scenario, then the checks of its outputs.

    Returns ([(start, end, seconds)] per command, {name: NliResult},
    channel fit RMS).
    """
    inst = ctx.instrument
    times = []
    results = {}
    rms = []
    for name, inp in inputs.items():
        out = os.path.join(ctx.out, "nli", label, name)
        fits = inst.calls["profile.fit_profile"]
        solves = inst.calls["raman.solve_power_evolution"]
        n_fits, n_solves = len(fits), len(solves)
        with contextlib.redirect_stdout(sys.stderr):
            code, op = ctx.speed.run(
                cli.main, ["nli", "--scenario", inp.path, "--out", out])
        times.append(op)
        ctx.tally.ops(1, failed=int(code != 0))
        if code != 0 or len(fits) != n_fits + 1 or len(solves) != n_solves + 1:
            ctx.tally.problems.append(f"nli {name}: exit code {code}")
            continue
        result = NliResult(inp.scenario, out, fits[-1][2], solves[-1][2])
        results[name] = result
        with inst.paused():
            rms.extend(_check_nli(ctx, name, inp, result))
    return times, results, rms


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _check_nli(ctx: Ctx, name: str, inp: NliInput, res: NliResult):
    tally = ctx.tally
    tally.check(f"nli {name} report", checks.nli_files(
        _read(os.path.join(res.out, "nli_report.csv")),
        _read(os.path.join(res.out, "nli_report.json")),
        inp.snr_ase, inp.snr_trx))
    fit_path = os.path.join(res.out, "fit_report.json")
    res.fit.to_json(fit_path)
    ev = res.evolution
    n_ch = ev.n_channels
    problems, rms = checks.fit_rms(
        _read(fit_path), ev.z_grid, ev.powers[:n_ch], ev.frequencies[:n_ch],
        inp.scenario.link.span.length)
    tally.check(f"nli {name} fit", problems)
    if inp.gated:
        tally.check(f"nli {name} fit gates", checks.fit_gates(rms))
    fine = raman.solve_power_evolution(
        inp.scenario.link, steps=2 * (ev.z_grid.size - 1))
    tally.check(f"nli {name} ODE", checks.ode_refinement(
        ev.z_grid, ev.powers, fine.z_grid, fine.powers))
    return list(rms)


class ClosedformStep:
    """(a) launch-power sweeps alternating with (b) per-span evaluations.

    ``sample`` may be called several times in a round, so that the samples
    spread over the round (the machine's speed drifts over seconds);
    ``rates`` gives the two rates, from the median time of one evaluation.
    """

    def __init__(self, ctx: Ctx, links: CfLinks, fit: FitReport, key: str):
        self.ctx, self.links, self.fit, self.key = ctx, links, fit, key
        self.replay = (ctx.plan or {}).get(key)
        self.counts = []
        self.per_eval_a, self.evals_b = [], []
        self.work = 0.0
        self.sweep = self.plan = None

    def _evaluate(self, link):
        report = closedform.eta_total(link, self.fit)
        return closedform.assemble_snr(report, self.links.budget, link.grid)

    def sample(self, seconds: float) -> None:
        """Alternate the two uses for ``seconds``, or, in a traced round,
        as many times as the untraced round did."""
        target = self.replay[len(self.counts)] if self.replay else None
        deadline = time.perf_counter() + seconds
        done = 0
        while (done < target if target is not None
               else done == 0 or time.perf_counter() < deadline):
            self.ctx.speed.probe()
            t0 = time.perf_counter()
            self.sweep = [self._evaluate(link) for _, link in self.links.sweep]
            t1 = time.perf_counter()
            self.plan = self._evaluate(self.links.plan)
            t2 = time.perf_counter()
            self.per_eval_a.append((t0, t1, (t1 - t0) / len(self.sweep)))
            self.evals_b.append((t1, t2, t2 - t1))
            self.work += t2 - t0
            self.ctx.tally.ops(len(self.sweep) + 1)
            done += 1
        self.counts.append(done)

    def check(self):
        with self.ctx.instrument.paused():
            _check_closedform(self.ctx, self.key, self.links, self.sweep,
                              self.plan, self._evaluate)

    def rates(self, seconds) -> tuple:
        """(sweep, plan) evaluations per second, ``seconds`` giving each
        evaluation's time from its (start, end, seconds)."""
        return tuple(1.0 / statistics.median(map(seconds, ops))
                     for ops in (self.per_eval_a, self.evals_b))


def _check_closedform(ctx, key, links, sweep, plan, evaluate):
    tally = ctx.tally
    ase, trx = links.budget.snr_ase, links.budget.snr_trx
    for what, rep in (("sweep", sweep[-1]), ("plan", plan)):
        tally.check(f"{key} {what} SNR", checks.snr_budget(
            rep.eta_spm, rep.eta_xpm, rep.eta_total, rep.launch_powers,
            rep.snr_nli, rep.snr_total, rep.snr_total_db, ase, trx))
    tally.check(f"{key} sweep slope", checks.sweep_slope(
        [off for off, _ in links.sweep], [rep.snr_nli for rep in sweep]))
    at_zero = sweep[SWEEP_OFFSETS_DB.index(0.0)]
    near = evaluate(links.near_equal)
    tally.check(f"{key} near-equal spans", checks.rel_agree(
        "per-span path vs equal-power path", near.eta_total,
        at_zero.eta_total, checks.PATH_REL_TOL))
    uniform = [evaluate(link) for link in links.plan_uniform]
    for part in ("eta_spm", "eta_xpm"):
        tally.check(f"{key} per-span sum {part}", checks.per_span_sum(
            getattr(plan, part), [getattr(u, part) for u in uniform],
            links.plan_powers))


def oracle_step(ctx: Ctx, link: LinkConfig, fit: FitReport, spec, rows):
    """``compare_closed_vs_oracle`` on some rows, then its row checks.

    Returns (estimates completed, (start, end, seconds)).
    """
    calls = ctx.instrument.calls
    names = ("oracle.eta_spm_numeric", "oracle.eta_xpm_numeric")
    before = [len(calls[n]) for n in names]
    report, op = ctx.speed.run(
        lambda: oracle.compare_closed_vs_oracle(link, fit, spec=spec,
                                                channels=rows))
    estimates = [c[2] for n, b in zip(names, before) for c in calls[n][b:]]
    ctx.tally.ops(len(estimates),
                  failed=sum(not e.converged for e in estimates))
    with ctx.instrument.paused():
        ctx.tally.check(f"oracle rows {tuple(rows)}", checks.oracle_rows(
            rows, link.grid.frequencies, link.grid.bandwidths,
            report.delta_db, report.converged, report.xpm_closed,
            report.xpm_numeric))
    return len(estimates), op


def _round(ctx, nli_passes, rms, cf, oracle_passes, outputs) -> Round:
    """The round's metrics, scaled and unscaled, from its steps' results.

    ``nli_passes`` holds each pass's (start, end, seconds) per command and
    ``oracle_passes`` each pass's (estimates, (start, end, seconds)); the
    metrics take the median pass.
    """
    cf.check()

    def metrics(seconds):
        sweep_rate, plan_rate = cf.rates(seconds)
        return {
            "nli_s": statistics.median(sum(map(seconds, p))
                                       for p in nli_passes),
            "fit_rms_worst_db": max(rms) if rms else float("nan"),
            "fit_rms_mean_db": sum(rms) / len(rms) if rms else float("nan"),
            "sweep_evals_per_s": sweep_rate,
            "plan_evals_per_s": plan_rate,
            "oracle_estimates_per_s": statistics.median(
                n / seconds(op) for n, op in oracle_passes),
        }

    def raw(op):
        return op[2]

    work = (sum(op[2] for p in nli_passes for op in p)
            + sum(op[2] for _, op in oracle_passes) + cf.work)
    return Round(metrics(ctx.speed.scaled), metrics(raw), work,
                 {cf.key: cf.counts}, outputs)


def _companion_passes(ctx: Ctx, nli: dict, between):
    """``nli`` on the two-channel links COMPANION_PASSES times, calling
    ``between(results)`` after each pass.

    Returns (passes' command times, fit RMS of the first pass, outputs).
    """
    passes, outputs, rms = [], [], None
    for k in range(COMPANION_PASSES):
        times, results, pass_rms = nli_step(ctx, nli, f"pass{k}")
        passes.append(times)
        outputs.extend(r.out for r in results.values())
        rms = pass_rms if rms is None else rms
        between(results)
    return passes, rms, outputs


# ---------------------------------------------------------------------------
# workloads


class NliPumped:
    """``ramangn nli`` on the 40-channel backward- and forward-pumped links.

    Companions: the oracle on row ``SPOT_ROW`` and the closed-form step on
    the backward-pumped link, both with the fit the command made.
    """

    name = "nli-pumped-40ch"

    def prepare(self, seed: int, out: str):
        rng = np.random.default_rng([seed, 1])
        budget = _draw_budget(rng)
        nli = _write_nli_inputs(out, budget)
        back = nli["backward"]
        links = closedform_links(back.scenario.link, rng, back.snr_ase,
                                 back.snr_trx)
        return nli, links

    def run_round(self, ctx: Ctx, inputs) -> Round:
        nli, links = inputs
        piece = COMPANION_CF_SECONDS / 3.0
        times, results, rms = nli_step(ctx, {"backward": nli["backward"]})
        back = results["backward"]
        cf = ClosedformStep(ctx, links, back.fit, "closedform-40ch")
        cf.sample(piece)
        more_times, more, more_rms = nli_step(ctx,
                                              {"forward": nli["forward"]})
        times, rms = times + more_times, rms + more_rms
        results.update(more)
        cf.sample(piece)
        oracle = oracle_step(ctx, back.scenario.link, back.fit,
                             back.scenario.quadrature, (SPOT_ROW,))
        cf.sample(piece)
        return _round(ctx, [times], rms, cf, [oracle],
                      [r.out for r in results.values()])


class ClosedformSweep:
    """The closed form alone on a generated 100-channel, 10-span link.

    Companions, in COMPANION_PASSES passes between slices of the closed-form
    step: ``nli`` on two-channel backward- and forward-pumped links, then
    the oracle on every row of the backward-pumped one.
    """

    name = "closedform-sweep-100ch"

    def prepare(self, seed: int, out: str):
        rng = np.random.default_rng([seed, 2])
        base, fit = generated_link(rng)
        budget = _draw_budget(rng)
        links = closedform_links(base, rng, *_budget_linear(budget))
        nli = _write_nli_inputs(out, budget, COMPANION_CHANNELS)
        return links, fit, nli

    def run_round(self, ctx: Ctx, inputs) -> Round:
        links, fit, nli = inputs
        cf = ClosedformStep(ctx, links, fit, "closedform-100ch")
        oracle_passes = []

        def between(results):
            back = results["backward"]
            rows = tuple(range(back.scenario.link.grid.n_channels))
            oracle_passes.append(oracle_step(
                ctx, back.scenario.link, back.fit, back.scenario.quadrature,
                rows))
            cf.sample(ctx.seconds / COMPANION_PASSES)

        passes, rms, outputs = _companion_passes(ctx, nli, between)
        return _round(ctx, passes, rms, cf, oracle_passes, outputs)


@dataclass
class LumpedPair:
    """Pump-free span and one non-adjacent pair of the reference grid."""

    span: FiberSpan
    channel_i: Channel
    channel_k: Channel
    f_ref: float


def _draw_lumped_pair(rng, link: LinkConfig) -> LumpedPair:
    """alpha in [0.16, 0.25] dB/km, beta2 in [-25, -17] ps^2/km,
    beta3 in [0, 0.15] ps^3/km, the pair at least 3 channels apart."""
    alpha = float(rng.uniform(0.16, 0.25)) * math.log(10.0) / 10.0 / 1e3
    span = FiberSpan(length=80e3,
                     beta2=float(rng.uniform(-25.0, -17.0)) * 1e-27,
                     beta3=float(rng.uniform(0.0, 0.15)) * 1e-39,
                     gamma=1.2e-3, attenuation=alpha, raman_slope=0.0)
    n = link.grid.n_channels
    i = int(rng.integers(0, n))
    k = int(rng.choice([k for k in range(n) if abs(k - i) >= 3]))
    return LumpedPair(span, link.grid.channels[i], link.grid.channels[k],
                      link.grid.band_center)


def _check_lumped(ctx: Ctx, pair: LumpedPair) -> None:
    span = pair.span
    a = span.attenuation
    params = ProfileParams(alpha=a, c_f=0.0, c_b=0.0, alpha_f=a, alpha_b=a,
                           p_f=1e-3, p_b=0.0, f_hat=pair.f_ref)
    est = oracle.eta_xpm_numeric(pair.channel_i, pair.channel_k,
                                 TaylorProfile(params, span.length), span,
                                 f_ref=pair.f_ref)
    ctx.tally.ops(1, failed=int(not est.converged))
    ci, ck = pair.channel_i, pair.channel_k
    phi = checks.xpm_phase(span.beta2, span.beta3,
                           ci.center_frequency - pair.f_ref,
                           ck.center_frequency - pair.f_ref)
    lumped = checks.lumped_eta_xpm(
        a, span.length, span.gamma, ci.bandwidth, ck.bandwidth, phi,
        ck.launch_power_per_span[0] / ci.launch_power_per_span[0])
    ctx.tally.check("oracle lumped pair",
                    checks.lumped_pair(est.value, est.converged, lumped))


class OracleCompare:
    """``compare_closed_vs_oracle`` on seven rows with the stored fit.

    Companions: COMPANION_PASSES passes of ``nli`` on the two-channel
    links, each followed by a slice of the closed-form step on the
    40-channel link with the stored fit; and one oracle pair on a
    pump-free span against the hand-coded lumped closed form (a check).
    """

    name = "oracle-compare-rows"

    def prepare(self, seed: int, out: str):
        rng = np.random.default_rng([seed, 3])
        reference = scenario.parse_scenario(REFERENCE)
        fit = load_fit(STORED_FIT)
        budget = _draw_budget(rng)
        links = closedform_links(reference.link, rng, *_budget_linear(budget))
        nli = _write_nli_inputs(out, budget, COMPANION_CHANNELS)
        return reference, fit, links, nli, _draw_lumped_pair(rng,
                                                             reference.link)

    def run_round(self, ctx: Ctx, inputs) -> Round:
        reference, fit, links, nli, pair = inputs
        piece = COMPANION_CF_SECONDS / 3.0
        cf = ClosedformStep(ctx, links, fit, "closedform-40ch")
        oracle = oracle_step(ctx, reference.link, fit, reference.quadrature,
                             ORACLE_ROWS)
        with ctx.instrument.paused():
            _check_lumped(ctx, pair)
        passes, rms, outputs = _companion_passes(
            ctx, nli, lambda results: cf.sample(piece))
        return _round(ctx, passes, rms, cf, [oracle], outputs)


WORKLOADS = {w.name: w for w in (NliPumped(), ClosedformSweep(),
                                 OracleCompare())}
