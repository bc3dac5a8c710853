"""Command-line interface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ramangn.cli import main


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
    assert len(payload["channels"]) == 9
    assert payload["degenerate_pairs"] == []


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
    for bad in ("nonsense", "a:b:c", "0:1:0", "1:0:1"):
        assert _run(["sweep", "--scenario", scenario, "--out", str(tmp_path),
                     f"--sweep={bad}"]) == 2
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_stops_at_hi(data_dir, tmp_path):
    """A step that does not divide hi - lo stops short of hi."""
    scenario = os.path.join(data_dir, "lumped_9ch.json")
    assert _run(["sweep", "--scenario", scenario, "--out", str(tmp_path),
                 "--sweep=0:1:0.6"]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert sorted({float(line.split(",")[0]) for line in lines}) == [0.0, 0.6]


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


def test_compare_gate_fails_on_unconverged_rows(unconverged_compare_scenario,
                                                tmp_path, capsys,
                                                monkeypatch):
    # one refinement meets the 1e-6 tolerance since SPM takes the swapped
    # order; at 1e-12 both rows stop short
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
], ids=["solve", "sweep", "compare"])
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
    """Only the adaptive-quadrature paths of the oracle need scipy."""
    code = (
        "import sys\n"
        "import ramangn\n"
        "print('scipy' in sys.modules)\n"
        "from ramangn.cli import main\n"
        f"rc = main(['nli', '--scenario', {minimal_scenario_path!r}, "
        f"'--out', {str(tmp_path)!r}])\n"
        "print(rc, 'scipy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "False"
    assert proc.stdout.splitlines()[-1] == "0 False"


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
    """The three-pump stress fit converges, but the profiles of channels
    29-39 turn non-positive on the pairs they serve, which the oracle
    refuses too: the fit gate exits 4 before the oracle runs or a file is
    written."""
    from ramangn import cli

    def oracle_must_not_run(*args, **kwargs):
        raise AssertionError("compare reached the oracle")

    monkeypatch.setattr(cli, "compare_closed_vs_oracle", oracle_must_not_run)
    scenario = os.path.join(data_dir, "stress_three_backward_pumps.json")
    rc = _run([command[0], "--scenario", scenario, "--out", str(tmp_path)]
              + command[1:])
    assert rc == 4
    assert (f"non-positive on the frequencies served by channel(s) "
            f"{list(range(29, 40))}") in capsys.readouterr().err
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
