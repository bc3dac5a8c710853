"""Command-line interface: outputs, determinism, exit codes."""

import json
import os
import runpy
import subprocess
import sys
import warnings

import numpy as np
import pytest

from ramangn.cli import main
from ramangn.errors import RamanGnError


def _run(args):
    return main(list(args))


def test_solve_writes_deterministic_csv(minimal_scenario_path, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        rc = _run(["solve", "--scenario", minimal_scenario_path,
                   "--out", str(out)])
        assert rc == 0
    text_a = (out_a / "power_evolution.csv").read_text()
    text_b = (out_b / "power_evolution.csv").read_text()
    assert text_a == text_b
    assert text_a.splitlines()[0].startswith("z_m,")


def test_steps_override_changes_sampling(minimal_scenario_path, tmp_path):
    rc = _run(["solve", "--scenario", minimal_scenario_path,
               "--out", str(tmp_path), "--steps", "200"])
    assert rc == 0
    lines = (tmp_path / "power_evolution.csv").read_text().splitlines()
    assert len(lines) == 1 + 201


def test_fit_writes_json_report(minimal_scenario_path, tmp_path):
    rc = _run(["fit", "--scenario", minimal_scenario_path,
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "fit_report.json").read_text())
    assert len(payload["channels"]) == 1
    assert payload["channels"][0]["converged"] is True


def test_nli_writes_reports(data_dir, tmp_path):
    scenario = os.path.join(data_dir, "lumped_9ch.json")
    rc = _run(["nli", "--scenario", scenario, "--out", str(tmp_path)])
    assert rc == 0
    csv_lines = (tmp_path / "nli_report.csv").read_text().splitlines()
    assert csv_lines[0] == ("f_i_hz,eta_spm_per_w2,eta_xpm_per_w2,"
                            "eta_total_per_w2,snr_nli_db,snr_db")
    assert len(csv_lines) == 1 + 9
    payload = json.loads((tmp_path / "nli_report.json").read_text())
    assert list(payload) == ["channels"]
    assert len(payload["channels"]) == 9


def test_sweep_slope_is_minus_two(data_dir, tmp_path):
    scenario = os.path.join(data_dir, "lumped_9ch.json")
    rc = _run(["sweep", "--scenario", scenario, "--out", str(tmp_path),
               "--sweep=-2:2:2"])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("offset_db,channel,f_i_hz,launch_power_w,"
                        "snr_nli_db,snr_db")
    rows = [line.split(",") for line in lines[1:]]
    offsets = sorted({float(r[0]) for r in rows})
    assert offsets == [-2.0, 0.0, 2.0]
    for channel in range(9):
        per = {float(r[0]): float(r[4]) for r in rows
               if int(r[1]) == channel}
        slopes = np.diff([per[o] for o in offsets]) / np.diff(offsets)
        assert np.allclose(slopes, -2.0, atol=1e-9)


def test_sweep_requires_range(data_dir, tmp_path, capsys):
    scenario = os.path.join(data_dir, "lumped_9ch.json")
    assert _run(["sweep", "--scenario", scenario,
                 "--out", str(tmp_path)]) == 2
    for bad in ("nonsense", "a:b:c", "0:1:0", "1:0:1", "nan:1:1", "0:inf:1",
                "0:1:inf", "0:1e308:1e-308"):
        assert _run(["sweep", "--scenario", scenario, "--out", str(tmp_path),
                     f"--sweep={bad}"]) == 2
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_offset_count_is_bounded():
    """10001 offsets, 0.01 dB steps over 100 dB, are the most a sweep
    takes; more are refused from the count alone, before any is built."""
    from ramangn.cli import _parse_sweep
    from ramangn.errors import ScenarioError

    assert len(_parse_sweep("0:100:0.01")) == 10001
    for text, count in (("0:100.01:0.01", 10002), ("0:1e5:1", 100001)):
        with pytest.raises(ScenarioError,
                           match=rf"--sweep asks for {count} offsets"):
            _parse_sweep(text)


def test_sweep_refuses_too_many_offsets_before_the_solve(
        minimal_scenario_path, tmp_path, capsys, monkeypatch):
    """A million offsets exit 2 on their count alone: the link is never
    solved, and no traceback or sweep.csv is written."""
    from ramangn import cli

    monkeypatch.setattr(cli, "solve_power_evolution",
                        lambda *a, **kw: pytest.fail("the link was solved"))
    assert _run(["sweep", "--scenario", minimal_scenario_path,
                 "--out", str(tmp_path), "--sweep=0:1e6:1"]) == 2
    err = capsys.readouterr().err
    assert "--sweep asks for 1000001 offsets" in err
    assert "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("steps, message", [
    ("0", "--steps: expected an integer >= 100, got 0"),
    ("99", "--steps: expected an integer >= 100, got 99"),
    ("4001", "--steps: 4001 steps, more than the 4000 allowed")],
    ids=["0", "99", "4001"])
def test_steps_out_of_range_exit_2_before_the_solve(
        minimal_scenario_path, tmp_path, capsys, monkeypatch, steps, message):
    """--steps outside [100, 4000] is refused by name, before the link is
    solved; 0 is not read as "no override"."""
    from ramangn import cli

    monkeypatch.setattr(cli, "solve_power_evolution",
                        lambda *a, **kw: pytest.fail("the link was solved"))
    assert _run(["solve", "--scenario", minimal_scenario_path,
                 "--out", str(tmp_path), "--steps", steps]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "power_evolution.csv").exists()


def test_sweep_stops_at_hi(data_dir, tmp_path):
    """A step that does not divide hi - lo stops short of hi."""
    scenario = os.path.join(data_dir, "lumped_9ch.json")
    assert _run(["sweep", "--scenario", scenario, "--out", str(tmp_path),
                 "--sweep=0:1:0.6"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert sorted({float(line.split(",")[0]) for line in lines}) == [0.0, 0.6]


def test_sweep_refuses_powers_scaled_to_zero_or_infinity(
        data_dir, tmp_path, capsys, monkeypatch):
    """An offset that takes a launch power to 0, to infinity or to a power
    whose square overflows, which no link holds, exits 3 before the link
    is solved, with no traceback; 1580 dB used to write -inf rows."""
    from ramangn import cli

    monkeypatch.setattr(cli, "solve_power_evolution",
                        lambda *a, **kw: pytest.fail("the link was solved"))
    scenario = os.path.join(data_dir, "lumped_9ch.json")
    for sweep in ("-4000:-4000:1", "0:4000:4000", "1580:1580:1"):
        assert _run(["sweep", "--scenario", scenario, "--out", str(tmp_path),
                     f"--sweep={sweep}"]) == 3
        err = capsys.readouterr().err
        assert "they must stay positive and finite" in err
        assert "Traceback" not in err
    assert not (tmp_path / "sweep.csv").exists()


def test_nli_refuses_a_phase_matched_pair(data_dir, tmp_path, capsys):
    """beta2 = 0 and offsets +-0.1 THz zero the pair phase factor: a
    phase-matched pair is the largest XPM term, so nli exits 4 naming the
    pair instead of holding it at 0."""
    with open(os.path.join(data_dir, "lumped_9ch.json")) as fh:
        payload = json.load(fh)
    payload["span"]["beta2"]["value"] = 0.0
    payload["grid"].update(count=2, spacing={"value": 0.2, "unit": "THz"})
    path = tmp_path / "matched.json"
    path.write_text(json.dumps(payload))
    assert _run(["nli", "--scenario", str(path), "--out", str(tmp_path)]) == 4
    assert ("phi_ik vanishes for pair(s) (i, k) [(0, 1), (1, 0)]"
            in capsys.readouterr().err)
    assert not (tmp_path / "nli_report.csv").exists()


@pytest.mark.parametrize("name, keys, value, code, message", [
    ("lumped_9ch", ("grid", "launch_power", "value"), 3100.0, 2,
     "scenario error: grid.launch_power.value: 3100.0 dB overflows a float"),
    ("lumped_9ch", ("span", "gamma", "value"), 1e160, 3,
     "validation error: nonlinear coefficient 1e+157 overflows when "
     "squared"),
    ("lumped_9ch", ("grid", "launch_power", "value"), 1580.0, 3,
     "channel 8: a launch power overflows when squared"),
    ("lumped_9ch", ("span", "length_km"), 1e-300, 4,
     "numerical error: channel 0: the exponential fit failed"),
    ("lumped_9ch", ("span", "length_km"), 1e-12, 4,
     "numerical error: eta_spm or eta_xpm is negative or not finite for "
     "channel(s) [0, 1, 2, 3, 4, 5, 6, 7, 8]: eta_spm [nan,"),
    ("reference_pumped", ("span", "beta2", "value"), -1.0, 4,
     "numerical error: eta_spm or eta_xpm is negative or not finite for "
     "channel(s) [31]: eta_spm [-6968."),
    ("lumped_9ch", ("grid", "first_center", "value"), -1.0, 3,
     "validation error: channel 0: lower band edge -1.050000e+12 Hz is at "
     "or below 0 Hz; channel 1: lower band edge -9.500000e+11 Hz"),
], ids=["power-3100-dBm", "gamma-1e160", "power-1580-dBm",
        "length-1e-300-km", "length-1e-12-km", "reference-beta2-minus-1",
        "first-center-minus-1-THz"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nli_refuses_what_it_cannot_answer(data_dir, tmp_path, capsys, name,
                                           keys, value, code, message):
    """Inputs that used to end in a traceback (an OverflowError or numpy's
    LinAlgError), in NaN or negative eta, or, for a grid below 0 Hz, in
    exit 0 get a typed refusal; nli prints nothing else and writes no
    report."""
    with open(os.path.join(data_dir, f"{name}.json")) as fh:
        payload = json.load(fh)
    node = payload
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert _run(["nli", "--scenario", str(path), "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1  # the refusal alone
    assert captured.out == ""
    assert not (out / "nli_report.csv").exists()
    assert not (out / "nli_report.json").exists()


def test_compare_closed_column_is_the_nli_eta(data_dir, tmp_path):
    """On three spans at 0, 3 and -3 dBm with epsilon = 0.05, compare's
    closed column and nli's eta print the same bytes."""
    scenario = os.path.join(data_dir, "lumped_9ch_3span.json")
    for command in ("nli", "compare"):
        assert _run([command, "--scenario", scenario,
                     "--out", str(tmp_path)]) == 0

    def column(name, header):
        lines = (tmp_path / name).read_text().splitlines()
        j = lines[0].split(",").index(header)
        return [line.split(",")[j] for line in lines[1:]]

    closed = column("comparison.csv", "eta_closed_per_w2")
    assert len(closed) == 9
    assert closed == column("nli_report.csv", "eta_total_per_w2")


def test_missing_scenario_exits_2(tmp_path):
    assert _run(["solve", "--scenario", str(tmp_path / "nope.json")]) == 2


def test_unknown_key_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"what": 1}')
    assert _run(["solve", "--scenario", str(path)]) == 2


def test_non_finite_number_exits_2(minimal_scenario_path, tmp_path, capsys):
    """A NaN gamma used to run through nli to an all-NaN report, exit 0."""
    with open(minimal_scenario_path) as fh:
        payload = json.load(fh)
    payload["span"]["gamma"]["value"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(payload))
    assert _run(["nli", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert "span.gamma.value: expected a finite number" in (
        capsys.readouterr().err)
    assert not (tmp_path / "nli_report.csv").exists()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("error", sorted(_subclasses(RamanGnError),
                                         key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_package_error_has_an_exit_code(monkeypatch, capsys, error):
    """``main`` catches every error class of the package with exit 2-5: a
    subclass that none of its handlers names escapes and fails here."""
    from ramangn import cli

    def parse_scenario(path):
        raise error("cannot go on")

    monkeypatch.setattr(cli, "parse_scenario", parse_scenario)
    assert _run(["solve", "--scenario", "unread.json"]) in (2, 3, 4, 5)
    assert capsys.readouterr().err.endswith(": cannot go on\n")


def test_validation_failure_exits_3(data_dir, tmp_path):
    base = json.loads(
        open(os.path.join(data_dir, "minimal.json")).read())
    base["pumps"] = [{
        "frequency": {"value": 193.4, "unit": "THz"},  # inside the band
        "power_w": 0.1,
        "direction": "backward",
        "attenuation": {"value": 0.2, "unit": "dB/km"},
    }]
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(base))
    assert _run(["solve", "--scenario", str(path)]) == 3


def _tiny_compare_payload():
    """A 2-channel pump-free scenario small enough to run the oracle."""
    return {
        "span": {
            "length_km": 80.0,
            "attenuation": {"value": 0.2, "unit": "dB/km"},
            "beta2": {"value": -21.7, "unit": "ps^2/km"},
            "gamma": {"value": 1.2, "unit": "1/(W*km)"},
        },
        "grid": {
            "count": 2,
            "first_center": {"value": 193.0, "unit": "THz"},
            "spacing": {"value": 0.1, "unit": "THz"},
            "bandwidth": {"value": 0.1, "unit": "THz"},
            "launch_power": {"value": 0.0, "unit": "dBm"},
        },
    }


@pytest.fixture(scope="module")
def tiny_compare_scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.json"
    path.write_text(json.dumps(_tiny_compare_payload()))
    return str(path)


@pytest.fixture(scope="module")
def unconverged_compare_scenario(tmp_path_factory):
    """The tiny scenario with one refinement."""
    payload = _tiny_compare_payload()
    payload["quadrature"] = {"max_refinements": 1}
    path = tmp_path_factory.mktemp("cli") / "unconverged.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_compare_gate_pass_and_fail(tiny_compare_scenario, tmp_path):
    rc = _run(["compare", "--scenario", tiny_compare_scenario,
               "--out", str(tmp_path), "--gate-db", "1.0"])
    assert rc == 0
    lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert lines[0] == ("channel,f_i_hz,eta_closed_per_w2,eta_numeric_per_w2,"
                        "delta_db,quadrature_error_estimate")
    assert len(lines) == 1 + 2
    rc = _run(["compare", "--scenario", tiny_compare_scenario,
               "--out", str(tmp_path), "--gate-db", "1e-9"])
    assert rc == 5


def test_compare_refuses_a_nan_gate(minimal_scenario_path, tmp_path, capsys,
                                    monkeypatch):
    """max |delta| > nan is False, so a NaN gate would pass any comparison:
    it is refused with exit 2 before the solve runs."""
    from ramangn import cli

    monkeypatch.setattr(cli, "solve_power_evolution",
                        lambda *a, **kw: pytest.fail("the link was solved"))
    assert _run(["compare", "--scenario", minimal_scenario_path,
                 "--out", str(tmp_path), "--gate-db", "nan"]) == 2
    assert "--gate-db" in capsys.readouterr().err
    assert not (tmp_path / "comparison.csv").exists()


def test_compare_gate_fails_on_unconverged_rows(unconverged_compare_scenario,
                                                tmp_path, capsys,
                                                monkeypatch):
    # one refinement meets the 1e-6 tolerance; at 1e-12 both rows stop
    # short on their XPM pair, whose first two levels differ by 6.8e-12
    from ramangn import oracle

    monkeypatch.setattr(oracle, "_REL_TOL_ETA", 1e-12)
    rc = _run(["compare", "--scenario", unconverged_compare_scenario,
               "--out", str(tmp_path)])
    assert rc == 0
    assert "2 unconverged rows" in capsys.readouterr().out
    rc = _run(["compare", "--scenario", unconverged_compare_scenario,
               "--out", str(tmp_path), "--gate-db", "1.0"])
    assert rc == 5
    assert "channel(s) [0, 1]" in capsys.readouterr().err


def test_compare_non_finite_oracle_exits_4(unconverged_compare_scenario,
                                           tmp_path, monkeypatch):
    from ramangn import oracle

    monkeypatch.setattr(oracle, "eta_spm_numeric", lambda *a, **kw:
                        oracle.EtaEstimate(float("nan"), 0.0, True))
    rc = _run(["compare", "--scenario", unconverged_compare_scenario,
               "--out", str(tmp_path), "--gate-db", "1.0"])
    assert rc == 4


# The backward-pumped reference fits all five profile parameters; the
# forward-pumped variant fits the three-parameter subset.
@pytest.mark.parametrize("name", ["reference_pumped", "forward_pumped"])
def test_nli_output_is_byte_identical_to_the_stored_report(data_dir,
                                                           tmp_path, name):
    rc = _run(["nli", "--scenario", os.path.join(data_dir, f"{name}.json"),
               "--out", str(tmp_path)])
    assert rc == 0
    golden = os.path.join(data_dir, f"{name}_nli_report.csv")
    with open(golden, "rb") as fh:
        assert (tmp_path / "nli_report.csv").read_bytes() == fh.read()


# The bytes of the other commands' outputs; scenario ``None`` is the
# two-channel compare payload above.
@pytest.mark.parametrize("command, scenario, output, golden", [
    (["solve"], "minimal.json", "power_evolution.csv",
     "minimal_power_evolution.csv"),
    (["sweep", "--sweep=-2:2:1"], "lumped_9ch.json", "sweep.csv",
     "lumped_9ch_sweep.csv"),
    (["compare"], None, "comparison.csv", "two_channel_comparison.csv"),
    (["fit"], "forward_pumped.json", "fit_report.json",
     "forward_pumped_fit_report.json"),
], ids=["solve", "sweep", "compare", "fit"])
def test_output_is_byte_identical_to_the_stored_file(
        data_dir, tiny_compare_scenario, tmp_path, command, scenario, output,
        golden):
    path = (tiny_compare_scenario if scenario is None
            else os.path.join(data_dir, scenario))
    rc = _run([command[0], "--scenario", path, "--out", str(tmp_path)]
              + command[1:])
    assert rc == 0
    with open(os.path.join(data_dir, golden), "rb") as fh:
        assert (tmp_path / output).read_bytes() == fh.read()


def test_import_and_nli_do_not_load_scipy(minimal_scenario_path, tmp_path):
    """The package needs numpy alone: with scipy unimportable, it imports
    and every command runs, and none loads scipy."""
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy raises\n"
        "def loaded():\n"
        "    return any(mod is not None for name, mod in sys.modules.items()\n"
        "               if name.split('.')[0] == 'scipy')\n"
        "import ramangn\n"
        "print(loaded())\n"
        "from ramangn.cli import main\n"
        "for argv in (['solve'], ['fit'], ['nli'],\n"
        "             ['sweep', '--sweep=0:0:1'], ['compare']):\n"
        f"    rc = main(argv + ['--scenario', {minimal_scenario_path!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "    print(argv[0], rc, loaded())\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "False"
    assert [line for line in lines if line.startswith(("nli ", "compare "))
            ] == ["nli 0 False", "compare 0 False"]
    assert [line for line in lines
            if line.startswith(("solve ", "fit ", "sweep "))
            ] == ["solve 0 False", "fit 0 False", "sweep 0 False"]


@pytest.fixture(scope="module")
def unconverged_fit_scenario(data_dir, tmp_path_factory):
    """Channels 0 and 39 of the reference grid and its backward pump, with
    one fit iteration: neither channel's fit converges."""
    with open(os.path.join(data_dir, "reference_pumped.json")) as fh:
        payload = json.load(fh)
    grid = payload.pop("grid")
    channel = {key: grid[key] for key in ("bandwidth", "launch_power")}
    payload["grid"] = {"channels": [
        dict(channel, center={"value": center, "unit": "THz"})
        for center in (191.45, 195.35)]}
    payload["fit"] = {"max_iterations": 1}
    path = tmp_path_factory.mktemp("cli") / "unconverged_fit.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("command", [
    ["nli"], ["sweep", "--sweep=0:0:1"], ["compare", "--gate-db", "1.0"]])
def test_unconverged_fit_exits_4_naming_the_channels(
        unconverged_fit_scenario, tmp_path, capsys, command):
    rc = _run([command[0], "--scenario", unconverged_fit_scenario,
               "--out", str(tmp_path)] + command[1:])
    assert rc == 4
    assert "did not converge on channel(s) [0, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["nli"], ["sweep", "--sweep=0:0:1"], ["compare", "--gate-db", "1.0"]])
def test_out_of_domain_profile_exits_4_naming_the_channels(
        data_dir, tmp_path, capsys, monkeypatch, command):
    """The three-pump stress fit does not converge on channels 28-30, and
    the profiles of channels 28-39 turn non-positive on the pairs they
    serve, which the oracle refuses too: the fit gate exits 4 naming both
    lists before the oracle runs or a file is written."""
    from ramangn import cli

    def oracle_must_not_run(*args, **kwargs):
        raise AssertionError("compare reached the oracle")

    monkeypatch.setattr(cli, "compare_closed_vs_oracle", oracle_must_not_run)
    scenario = os.path.join(data_dir, "stress_three_backward_pumps.json")
    rc = _run([command[0], "--scenario", scenario, "--out", str(tmp_path)]
              + command[1:])
    assert rc == 4
    assert (f"non-positive on the frequencies served by channel(s) "
            f"{list(range(28, 40))}") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_fit_reports_unconverged_channels(unconverged_fit_scenario, tmp_path,
                                          capsys):
    rc = _run(["fit", "--scenario", unconverged_fit_scenario,
               "--out", str(tmp_path)])
    assert rc == 0
    assert "2 unconverged" in capsys.readouterr().out
    payload = json.loads((tmp_path / "fit_report.json").read_text())
    assert [ch["converged"] for ch in payload["channels"]] == [False, False]


def test_console_script_entry_point(minimal_scenario_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ramangn.cli", "solve",
         "--scenario", minimal_scenario_path, "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solved" in proc.stdout


def test_cli_module_run_as_script_exits_with_the_status_of_main(
        tmp_path, monkeypatch):
    """``python -m ramangn.cli`` passes ``main``'s return value to
    ``sys.exit``; the same path as ``test_console_script_entry_point``, in
    this process."""
    monkeypatch.setattr(sys, "argv", [
        "ramangn", "solve", "--scenario", str(tmp_path / "nope.json")])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as info:
        # runpy warns that ramangn.cli is imported already
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module("ramangn.cli", run_name="__main__")
    assert info.value.code == 2
