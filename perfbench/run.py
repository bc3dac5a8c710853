"""Benchmark of ramangn: three workloads, timed end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload nli-pumped-40ch --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` the run makes one untraced and one traced round of the
same operations and reports the per-layer metrics, the tracing overhead
among them. The line before it records the commit, ``nproc``, the thread
settings and the library versions. Run files (outputs, spans, a copy of
the result) go under ``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import env

WORKLOAD_NAMES = ("nli-pumped-40ch", "closedform-sweep-100ch",
                  "oracle-compare-rows")
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUPS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "nli_s": "s", "fit_rms_worst_db": "dB",
    "fit_rms_mean_db": "dB", "sweep_evals_per_s": "1/s",
    "plan_evals_per_s": "1/s", "oracle_estimates_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    return parser


def _timed_setups(args, run_dir: str, speed) -> tuple:
    """Median (seconds, scaled seconds) of fresh interpreters that import
    ramangn and prepare the workload's inputs."""
    ops = []
    for k in range(SETUPS):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-only", os.path.join(run_dir, f"setup-{k}")]
        speed.probe(5)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       cwd=env.ROOT, timeout=120)
        t1 = time.perf_counter()
        ops.append((t0, t1, t1 - t0))
    speed.probe(5)
    return (statistics.median(op[2] for op in ops),
            statistics.median(map(speed.scaled, ops)))


def _clear_program_caches() -> None:
    """Empty ramangn's memoized tables, as a fresh process has them.

    Each round then pays the same first-use costs, so the traced and the
    untraced round of a trace run differ only by the tracing.
    """
    for name, module in list(sys.modules.items()):
        if name != "ramangn" and not name.startswith("ramangn."):
            continue
        for obj in vars(module).values():
            clear = getattr(obj, "cache_clear", None)
            if callable(clear):
                clear()


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args) -> dict:
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    run_dir = os.path.join(env.HERE, "runs", f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}-{os.getpid()}")
    if args.setup_only:
        workload.prepare(args.seed, args.setup_only)
        return {}
    os.makedirs(run_dir, exist_ok=True)
    speed = workloads.SpeedProbe()
    setup_s = None if args.trace else _timed_setups(args, run_dir, speed)
    inputs = workload.prepare(args.seed, os.path.join(run_dir, "inputs"))
    tally = workloads.Tally()

    def one_round(timing: bool, label: str, plan=None):
        inst = tracing.Instrument(timing=timing)
        names = tracing.TARGETS if timing else tracing.CAPTURED
        ctx = workloads.Ctx(inst, tally, speed, os.path.join(run_dir, label),
                            args.seconds, plan)
        _clear_program_caches()
        with inst.installed(names):
            return inst, workload.run_round(ctx, inputs)

    _, plain = one_round(False, "untraced")
    raw = None
    if not args.trace:
        peak = _peak_rss_mib()
        raw = dict(plain.raw, setup_s=setup_s[0], peak_rss_mib=peak)
        scaled = dict(plain.metrics, setup_s=setup_s[1], peak_rss_mib=peak)
        metrics = {name: {"value": scaled[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        inst, traced = one_round(True, "traced", plain.plan)
        for a, b in zip(plain.outputs, traced.outputs):
            tally.check("nli outputs traced vs untraced",
                        checks.same_bytes(a, b, workloads.NLI_FILES))
        inst.write(os.path.join(run_dir, "spans.jsonl"))
        layer = tracing.layer_metrics(inst)
        layer["trace.overhead_s"] = traced.work_s - plain.work_s
        layer["machine.kernel_s"] = speed.kernel_s()
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    correct = tally.checks_failed == 0
    result = {"correct": correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(run_dir, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "env": env.describe(), "problems": tally.problems,
                   "unscaled": raw, "kernel_s": speed.kernel_s(),
                   "result": result}, fh, indent=2)
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        env.prepare()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run(args)
    if args.setup_only:
        return 0
    print(json.dumps({"env": env.describe(), "workload": args.workload,
                      "seed": args.seed}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
