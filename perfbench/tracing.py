"""Layer-boundary instrumentation of ramangn, from outside the package.

:class:`Instrument` replaces public functions of the package with
wrappers, under every name a caller looks them up by (the defining
module, the modules that imported the name, the package namespace), and
puts the originals back on exit. A wrapper either only keeps the call's
result, so that the benchmark can check it (untraced runs), or also
records one span per call: name, start, end and parent span (traced
runs). Spans stay in memory; :meth:`Instrument.write` stores them when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

#: Span name -> (module, attribute) of each wrapped function. The span
#: name's prefix is the layer the time is booked to.
TARGETS = {
    "cli.main": ("ramangn.cli", "main"),
    "cli.write_csv": ("ramangn.closedform", "NliReport.to_csv"),
    "cli.write_json": ("ramangn.closedform", "NliReport.to_json"),
    "scenario.parse_scenario": ("ramangn.scenario", "parse_scenario"),
    "raman.solve_power_evolution": ("ramangn.raman", "solve_power_evolution"),
    "profile.fit_profile": ("ramangn.profile", "fit_profile"),
    "closedform.eta_total": ("ramangn.closedform", "eta_total"),
    "closedform.assemble_snr": ("ramangn.closedform", "assemble_snr"),
    "closedform.eta_spm": ("ramangn.closedform", "eta_spm"),
    "closedform.eta_xpm_pair": ("ramangn.closedform", "eta_xpm_pair"),
    "oracle.compare_closed_vs_oracle": ("ramangn.oracle",
                                        "compare_closed_vs_oracle"),
    "oracle.eta_spm_numeric": ("ramangn.oracle", "eta_spm_numeric"),
    "oracle.eta_xpm_numeric": ("ramangn.oracle", "eta_xpm_numeric"),
}

#: Functions whose results the checks need, wrapped in untraced runs too.
CAPTURED = ("raman.solve_power_evolution", "profile.fit_profile",
            "oracle.eta_spm_numeric", "oracle.eta_xpm_numeric")

LAYERS = ("scenario", "raman", "profile", "closedform", "oracle", "cli")

#: Per-layer metrics of a traced run and their units.
PER_LAYER_UNITS = dict(
    [(f"{layer}.self_s", "s") for layer in LAYERS] + [
        ("scenario.parse_s", "s"),
        ("raman.solve_s", "s"),
        ("raman.rk4_steps", "count"),
        ("profile.fit_backward_s", "s"),
        ("profile.fit_forward_s", "s"),
        ("profile.fit_nfev", "count"),
        ("profile.unconverged_channels", "count"),
        ("closedform.eta_total_uniform_s", "s"),
        ("closedform.eta_total_per_span_s", "s"),
        ("closedform.assemble_snr_s", "s"),
        ("closedform.pair_s", "s"),
        ("oracle.compare_s", "s"),
        ("oracle.row_s", "s"),
        ("oracle.spm_estimate_s", "s"),
        ("oracle.xpm_estimate_s", "s"),
        ("oracle.xpm_estimate_tail_s", "s"),
        ("oracle.estimates", "count"),
        ("oracle.unconverged", "count"),
        ("oracle.max_rel_error_estimate", "ratio"),
        ("cli.write_s", "s"),
        ("cli.output_bytes", "bytes"),
        ("trace.spans", "count"),
        ("trace.overhead_s", "s"),
        ("trace.span_cost_s", "s"),
        ("machine.kernel_s", "s"),
    ])

#: Percentiles tried, highest first, for a timing's tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n_samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n_samples * (100.0 - pct) / 100.0 >= 10.0:
            return pct
    return 50.0


class Instrument:
    """Wrappers, captured results and spans for one round of a workload."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.recording = True
        self.spans = []  # [name, start, end, parent index or None]
        self.calls = defaultdict(list)  # name -> [(args, kwargs, result, span)]
        self._stack = []
        self._originals = {}

    @contextmanager
    def installed(self, names):
        undo = []
        try:
            for name in names:
                undo.extend(self._patch(name))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Calls made inside (the checks' own) are neither kept nor timed."""
        previous, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = previous

    def original(self, name: str):
        return self._originals[name]

    def _patch(self, name):
        module_name, attr = TARGETS[name]
        module = importlib.import_module(module_name)
        if "." in attr:  # a method: patch the class attribute
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__[method]
            self._originals[name] = original
            setattr(owner, method, self._wrap(name, original))
            return [(owner, method, original)]
        original = getattr(module, attr)
        self._originals[name] = original
        wrapper = self._wrap(name, original)
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "ramangn" and not mod_name.startswith("ramangn."):
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
        return undo

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if not self.timing:
                result = fn(*args, **kwargs)
                self.calls[name].append((args, kwargs, result, None))
                return result
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.calls[name].append((args, kwargs, result, index))
            return result
        return wrapper

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_s": start - t0,
                                     "end_s": end - t0, "parent": parent})
                         + "\n")


def span_cost_s(calls: int = 20000) -> float:
    """Time one traced call adds to a direct call, measured on a no-op."""
    def noop():
        return None

    inst = Instrument(timing=True)
    traced = inst._wrap("calibration", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def _bound(instrument: Instrument, name: str, args, kwargs):
    sig = inspect.signature(instrument.original(name))
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(inst: Instrument) -> dict:
    """Per-layer times and counts of one traced round."""
    from ramangn.domain import Direction

    spans = inst.spans
    dur = np.array([end - start for _, start, end, _ in spans])
    covered = np.zeros(len(spans))
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            covered[parent] += dur[i]
    own = dur - covered
    by_name = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)

    def total(name):
        return float(sum(dur[i] for i in by_name[name]))

    def per_call(name, keep=lambda call: True):
        return [float(dur[c[3]]) for c in inst.calls[name] if keep(c)]

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(
            own[i] for i, s in enumerate(spans)
            if s[0].split(".")[0] == layer))

    out["scenario.parse_s"] = total("scenario.parse_scenario")

    solves = inst.calls["raman.solve_power_evolution"]
    out["raman.solve_s"] = total("raman.solve_power_evolution")
    out["raman.rk4_steps"] = sum(int(c[2].z_grid.size - 1) for c in solves)

    def backward(call):
        config = _bound(inst, "profile.fit_profile", call[0], call[1])["config"]
        return any(p.direction is Direction.BACKWARD for p in config.pumps)

    fits = inst.calls["profile.fit_profile"]
    out["profile.fit_backward_s"] = sum(
        per_call("profile.fit_profile", backward))
    out["profile.fit_forward_s"] = sum(
        per_call("profile.fit_profile", lambda c: not backward(c)))
    out["profile.fit_nfev"] = sum(cf.n_eval for c in fits
                                  for cf in c[2].channel_fits)
    out["profile.unconverged_channels"] = sum(
        not cf.converged for c in fits for cf in c[2].channel_fits)

    def uniform(call):
        config = call[0][0]
        first = config.grid.launch_powers(0)
        return all(np.array_equal(first, config.grid.launch_powers(j))
                   for j in range(config.span_count))

    out["closedform.eta_total_uniform_s"] = _median(
        per_call("closedform.eta_total", uniform))
    out["closedform.eta_total_per_span_s"] = _median(
        per_call("closedform.eta_total", lambda c: not uniform(c)))
    out["closedform.assemble_snr_s"] = _median(
        per_call("closedform.assemble_snr"))
    out["closedform.pair_s"] = (total("closedform.eta_spm")
                                + total("closedform.eta_xpm_pair"))

    out["oracle.compare_s"] = total("oracle.compare_closed_vs_oracle")
    out["oracle.row_s"] = _median(_row_durations(spans, by_name))
    spm = per_call("oracle.eta_spm_numeric")
    xpm = per_call("oracle.eta_xpm_numeric")
    out["oracle.spm_estimate_s"] = _median(spm)
    out["oracle.xpm_estimate_s"] = _median(xpm)
    out["oracle.xpm_estimate_tail_s"] = (
        float(np.percentile(xpm, tail_percentile(len(xpm)))) if xpm else 0.0)
    estimates = [c[2] for name in ("oracle.eta_spm_numeric",
                                   "oracle.eta_xpm_numeric")
                 for c in inst.calls[name]]
    out["oracle.estimates"] = len(estimates)
    out["oracle.unconverged"] = sum(not e.converged for e in estimates)
    out["oracle.max_rel_error_estimate"] = max(
        (e.error_estimate / abs(e.value) for e in estimates if e.value),
        default=0.0)

    out["cli.write_s"] = total("cli.write_csv") + total("cli.write_json")
    out["cli.output_bytes"] = sum(
        len(c[2].encode("utf-8"))
        for name in ("cli.write_csv", "cli.write_json")
        for c in inst.calls[name])
    out["trace.spans"] = len(spans)
    out["trace.span_cost_s"] = len(spans) * span_cost_s()
    return out


def _row_durations(spans, by_name):
    """Row times inside each comparison, from one row's SPM call to the next.

    ``compare_closed_vs_oracle`` starts every row with the closed-form SPM
    call, so the rows are the intervals between those calls' starts, the
    last one ending with the comparison.
    """
    rows = []
    for c in by_name["oracle.compare_closed_vs_oracle"]:
        starts = [spans[i][1] for i in by_name["closedform.eta_spm"]
                  if spans[i][3] == c]
        bounds = starts + [spans[c][2]]
        rows.extend(b - a for a, b in zip(bounds[:-1], bounds[1:]))
    return rows
