import ast
import math
import os
import re
import signal
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import commands
import references
import satqlink
from satqlink import afc, cli, config, formatting, geometry, linkbudget, scenario, skr, spindyn
from satqlink.domain import replace
from satqlink.geometry import slant_range_from_elevation
from satqlink.spindyn import SolverFailure

BASELINE = config.scenario_config(config.RunConfig())  # the baseline operating point


def test_help_exits_zero(run_cli):
    cp = run_cli("--help")
    assert cp.returncode == 0, cp.stderr
    assert "scenario" in cp.stdout and "linkmap" in cp.stdout


def test_scenario_defaults(run_cli, tmp_path):
    out = tmp_path / "out"
    cp = run_cli("scenario", "--out", out)
    assert cp.returncode == 0, cp.stderr
    assert "Dual downlink" in cp.stdout
    md = (out / "scenario.md").read_text()
    assert "4.22535e-05" in md and "111.225x" in md
    assert (out / "effective_config.txt").exists()


def test_scenario_text_format_and_eta_mem_flag(run_cli, tmp_path):
    out = tmp_path / "out"
    cp = run_cli("scenario", "--out", out, "--format", "text", "--eta-mem", "0")
    assert cp.returncode == 0, cp.stderr
    record = dict(
        line.split(" = ") for line in (out / "scenario.txt").read_text().strip().splitlines()
    )
    assert float(record["eta_buffered"]) == 0.0
    assert float(record["skr_buffered_bits_per_s"]) == 0.0
    assert float(record["gain"]) == 0.0
    assert float(record["eta_dual"]) > 0.0


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
def test_unusable_output_directory_is_one_line(run_cli, tmp_path, below):
    # an --out that is, or lies below, an existing file cannot be created
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / below
    cp = run_cli("scenario", "--out", out, timeout=10)
    assert cp.returncode == 1
    assert cp.stderr.startswith("file error: ") and cp.stderr.count("\n") == 1
    assert str(out).rstrip("/") in cp.stderr


def test_scenario_missing_config_file(run_cli, tmp_path):
    cp = run_cli("scenario", "--config", tmp_path / "nope.txt", "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert "config file not found" in cp.stderr


def test_scenario_unknown_config_key(run_cli, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("eta_mem = 0.5\njiter_urad = 2.0\n")
    cp = run_cli("scenario", "--config", bad, "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert "line 2" in cp.stderr and "jiter_urad" in cp.stderr


def test_config_round_trip_reproduces_bytes(run_cli, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("scenario", "--out", out1, "--format", "text").returncode == 0
    cp = run_cli(
        "scenario", "--config", out1 / "effective_config.txt", "--out", out2, "--format", "text"
    )
    assert cp.returncode == 0, cp.stderr
    assert (out1 / "scenario.txt").read_bytes() == (out2 / "scenario.txt").read_bytes()
    assert (out1 / "effective_config.txt").read_bytes() == (out2 / "effective_config.txt").read_bytes()


def test_linkmap_small_grid(run_cli, tmp_path):
    out = tmp_path / "o"
    cp = run_cli(
        "linkmap", "--out", out,
        "--range-min", 500, "--range-max", 1000, "--range-steps", 2,
        "--jitter-min", 0, "--jitter-max", 2, "--jitter-steps", 2,
    )
    assert cp.returncode == 0, cp.stderr
    lines = (out / "linkmap.csv").read_text().splitlines()
    assert lines[0] == "slant_range_km,pointing_jitter_urad,success_probability"
    assert len(lines) == 5  # header + 4 cells


def test_linkmap_default_extents_include_operating_jitter(run_cli, tmp_path):
    out = tmp_path / "o"
    cp = run_cli("linkmap", "--out", out)
    assert cp.returncode == 0, cp.stderr
    lines = (out / "linkmap.csv").read_text().splitlines()
    assert len(lines) == 1 + 21 * 21
    ranges = {float(line.split(",")[0]) for line in lines[1:]}
    jitters = {float(line.split(",")[1]) for line in lines[1:]}
    assert min(ranges) == 500.0 and max(ranges) == 2500.0
    assert any(abs(j - 1.0) < 1e-9 for j in jitters)  # the 1 urad operating row


def test_linkmap_determinism(run_cli, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["linkmap", "--range-steps", 5, "--jitter-steps", 4]
    assert run_cli(*args, "--out", out1).returncode == 0
    assert run_cli(*args, "--out", out2).returncode == 0
    assert (out1 / "linkmap.csv").read_bytes() == (out2 / "linkmap.csv").read_bytes()


def test_gainmap_baseline_cell(run_cli, tmp_path):
    out = tmp_path / "o"
    cp = run_cli(
        "gainmap", "--out", out,
        "--elev-min", 20, "--elev-max", 90, "--elev-steps", 2,
        "--mem-min", 0.74, "--mem-max", 1.0, "--mem-steps", 2,
    )
    assert cp.returncode == 0, cp.stderr
    lines = (out / "gainmap.csv").read_text().splitlines()
    assert lines[0] == "elevation_deg,memory_efficiency,gain"
    cells = {}
    for line in lines[1:]:
        elev, mem, gain = (float(x) for x in line.split(","))
        cells[(round(elev), mem)] = gain
    assert cells[(90, 0.74)] >= 100.0


def test_gainmap_self_comparison_unity(run_cli, tmp_path):
    l20 = slant_range_from_elevation(math.radians(20.0), BASELINE.orbit)
    out = tmp_path / "o"
    cp = run_cli(
        "gainmap", "--out", out,
        "--set", f"dual_slant_range_km={l20!r}",
        "--elev-min", 20, "--elev-max", 90, "--elev-steps", 2,
        "--mem-min", 0.5, "--mem-max", 1.0, "--mem-steps", 2,
    )
    assert cp.returncode == 0, cp.stderr
    rows = [line.split(",") for line in (out / "gainmap.csv").read_text().splitlines()[1:]]
    low_elev_full_mem = [r for r in rows if abs(float(r[0]) - 20.0) < 1e-9 and float(r[1]) == 1.0]
    assert len(low_elev_full_mem) == 1
    assert float(low_elev_full_mem[0][2]) == pytest.approx(1.0, rel=1e-12)


def test_memory_lossless_preset(run_cli, tmp_path):
    out = tmp_path / "o"
    cp = run_cli(
        "memory", "--out", out, "--preset", "lossless",
        "--grid", 32, "--storage", 0.5, "--samples", 9,
    )
    assert cp.returncode == 0, cp.stderr
    eta = float(cp.stdout.split("eta_mem =")[1].split()[0])
    assert eta == pytest.approx(1.0, abs=1e-6)
    s_lines = (out / "kymograph_s.csv").read_text().splitlines()
    k_lines = (out / "kymograph_k.csv").read_text().splitlines()
    assert s_lines[0] == "t_seconds,r_over_R,S_norm"
    assert k_lines[0] == "t_seconds,r_over_R,K_norm"
    assert len(s_lines) == len(k_lines) > 9 * 32
    combined = (out / "kymograph.csv").read_text().splitlines()
    assert combined[0] == "t_seconds,r_over_R,S_norm,K_norm"


def test_memory_paper_literal_preset_runs(run_cli, tmp_path):
    # the literal coupling needs an explicit short transfer window to finish quickly
    out = tmp_path / "o"
    cp = run_cli(
        "memory", "--out", out, "--preset", "paper-literal",
        "--grid", 32, "--storage", 1.0, "--exchange-window", 50, "--samples", 9,
    )
    assert cp.returncode == 0, cp.stderr
    eta = float(cp.stdout.split("eta_mem =")[1].split()[0])
    assert 0.0 <= eta <= 1.0
    # 50 s of a ~7.9e4 s transfer leaves the noble spin essentially empty
    k_values = [
        float(line.split(",")[2])
        for line in (out / "kymograph_k.csv").read_text().splitlines()[1:]
    ]
    assert max(k_values) < 1e-4


def test_memory_paper_literal_default_transfer_window(tmp_path, capsys):
    # the literal coupling's full pi/(2J) ~ 7.9e4 s transfer: the stiffest default
    code = cli.main([
        "memory", "--out", str(tmp_path / "o"), "--preset", "paper-literal",
        "--grid", "16", "--samples", "3",
    ])
    assert code == 0, capsys.readouterr().err
    eta = float(capsys.readouterr().out.split("eta_mem =")[1].split()[0])
    assert 0.0 <= eta <= 1.0


def test_memory_grid_refinement_agreement(run_cli, tmp_path):
    # the smooth profile isolates grid convergence from the wall layer of
    # the uniform load, which needs far finer grids to settle
    etas = {}
    for n in (64, 512):
        cp = run_cli(
            "memory", "--out", tmp_path / f"g{n}", "--preset", "rescaled",
            "--profile", "fundamental-mode",
            "--grid", n, "--storage", 20, "--samples", 5,
        )
        assert cp.returncode == 0, cp.stderr
        etas[n] = float(cp.stdout.split("eta_mem =")[1].split()[0])
    assert abs(etas[64] - etas[512]) < 1e-3


def test_memory_solver_failure_exit_code(monkeypatch, tmp_path, capsys):
    def boom(*args, **kwargs):
        raise SolverFailure("step size underflow at t=1")

    monkeypatch.setattr(spindyn, "simulate_protocol", boom)
    code = cli.main([
        "memory", "--out", str(tmp_path / "o"), "--grid", "32", "--storage", "0.1",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "solver failure" in err and "schedule" in err


def test_non_finite_config_file_value_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.txt"
    path.write_text("altitude_km = nan\n")
    code = cli.main(["scenario", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["raises", "nan"])
def test_memory_eigen_failure_is_a_solver_failure(monkeypatch, tmp_path, capsys, broken):
    # the first transfer propagates S and K in the Neumann eigenbasis: a
    # LinAlgError (a ValueError) of its eigh or a non-finite state is a solver
    # failure, not a configuration error
    real_eigh = np.linalg.eigh

    def eigh(matrix):
        if broken == "raises":
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        values, vectors = real_eigh(matrix)
        return np.full_like(values, np.nan), vectors

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    code = cli.main([
        "memory", "--out", str(tmp_path / "o"), "--grid", "16", "--samples", "3",
        "--storage", "1",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "solver failure" in captured.err and "phase 1 of 3" in captured.err
    assert "configuration error" not in captured.err
    assert "eta_mem" not in captured.out


def test_memory_storage_beyond_the_time_resolution(tmp_path, capsys, monkeypatch):
    # the 7.9 s reverse transfer after 1e300 s of storage is lost in the
    # float resolution of t = 1e300 s; the plan refuses it before any
    # eigenbasis, so an eigh that raises is never reached
    def eigh(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    code = cli.main([
        "memory", "--out", str(tmp_path / "o"), "--grid", "16", "--samples", "3",
        "--storage", "1e300",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error: phase 3 of 3" in captured.err
    assert "shorter than the time resolution at t = 1e+300 s" in captured.err
    assert "eta_mem" not in captured.out


@pytest.mark.parametrize("override", ["detector_efficiency=0"])
def test_gainmap_without_a_dual_probability_exits_without_a_gain(run_cli, tmp_path, override):
    # through the process entry; the in-process run is a row of the table
    out = tmp_path / "o"
    cp = run_cli("gainmap", "--out", out, "--set", override)
    assert cp.returncode == 1
    assert "configuration error" in cp.stderr and "gain undefined" in cp.stderr
    assert "RuntimeWarning" not in cp.stderr
    assert not (out / "gainmap.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [("--set", "noble_detuning=1e6"), ("--set", "noble_detuning=1e300"),
     ("--set", "exchange_coupling=1e-300"), ("--exchange-window", "1e12")],
)
def test_transfer_beyond_the_contour_step_cap_is_refused(run_cli, tmp_path, argv):
    # each transfer would take from 5e6 to 1e293 contour steps, and ran until
    # killed before the cap; it is refused before any propagation, and the
    # timeout fails a regression instead of hanging it
    cp = run_cli("memory", "--grid", 16, "--samples", 3, *argv, "--out", tmp_path, timeout=10)
    assert cp.returncode == 1
    assert "configuration error: phase 1 of 3" in cp.stderr
    for name in ("--exchange-window", "exchange_coupling", "alkali_detuning", "noble_detuning"):
        assert name in cp.stderr
    assert not (tmp_path / "kymograph.csv").exists()


def test_cell_radius_whose_shells_underflow_is_a_config_error(run_cli, tmp_path, monkeypatch):
    # at 1e-300 m every shell volume of a 16-point grid rounds to 0, and the
    # initial state's normalisation would divide by zero (a RuntimeWarning,
    # an error here as in CI)
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    cp = run_cli("memory", "--grid", 16, "--samples", 3, "--set", "cell_radius_m=1e-300",
                 "--out", tmp_path, timeout=10)
    assert cp.returncode == 1
    assert cp.stderr.startswith("configuration error: ") and "cell_radius" in cp.stderr
    assert "Traceback" not in cp.stderr
    assert not (tmp_path / "kymograph.csv").exists()


@pytest.mark.parametrize(
    "command, flag, bound",
    [("memory", "--grid", 16), ("memory", "--grid", 2048), ("memory", "--samples", 2),
     ("linkmap", "--range-steps", 2), ("linkmap", "--jitter-steps", 2),
     ("gainmap", "--elev-steps", 2), ("gainmap", "--mem-steps", 2)],
)
def test_integer_flag_at_its_bound_is_accepted(command, flag, bound):
    # the runs just outside each bound are rows of the command table or out-of-domain cases
    args = cli.build_parser().parse_args([command, flag, str(bound)])
    assert getattr(args, flag[2:].replace("-", "_")) == bound


# one value outside the domain of each key, in the key's own units, and that domain
_OUT_OF_DOMAIN_KEYS = {
    "earth_radius_km": (0.0, "positive and finite"),
    "altitude_km": (-1.0, "non-negative and finite"),
    "gravitational_parameter_km3_s2": (-398600.0, "positive and finite"),
    "wavelength_nm": (0.0, "positive and finite"),
    "divergence_half_angle_urad": (-3.0, "positive and finite"),
    "pointing_jitter_urad": (-1.0, "non-negative and finite"),
    "receiver_diameter_m": (0.0, "positive and finite"),
    "zenith_transmission": (0.0, "in (0, 1]"),
    "detector_efficiency": (1.5, "in [0, 1]"),
    "channel_use_rate_hz": (math.inf, "positive and finite"),
    "qber_x": (0.9, "in [0, 0.5]"),
    "qber_z": (-0.1, "in [0, 0.5]"),
    "ec_inefficiency": (0.9, "at least 1 and finite"),
    "herald_probability": (math.nan, "in [0, 1]"),
    "mode_count": (0, "at least 1 and within the float range"),
    "memory_lifetime_s": (-1.0, "non-negative and finite"),
    "optical_linewidth_hz": (-5.96e6, "non-negative and finite"),
    "exchange_coupling": (-2e-05, "non-negative and finite"),
    "alkali_decay": (-5.0, "non-negative and finite"),
    "noble_decay": (-1e-06, "non-negative and finite"),
    "alkali_detuning": (math.inf, "finite"),
    "noble_detuning": (-math.inf, "finite"),
    "alkali_diffusion_m2_s": (-1e-08, "non-negative and finite"),
    "noble_diffusion_m2_s": (math.nan, "non-negative and finite"),
    "cell_radius_m": (-1.0, "positive and finite"),
    "eta_mem": (7.0, "in [0, 1]"),
    "dual_elevation_deg": (95.0, "in (0, 90]"),
    "dual_slant_range_km": (0.0, "positive and finite"),
    "buffered_slant_range_km": (-500.0, "positive and finite"),
    "ogs_separation_km": (-1.0, "non-negative and finite"),
}


def test_every_key_has_an_out_of_domain_case():
    assert list(_OUT_OF_DOMAIN_KEYS) == list(config.RunConfig._fields)


@pytest.mark.parametrize("key", _OUT_OF_DOMAIN_KEYS)
def test_out_of_domain_key_is_refused_by_every_command(key, tmp_path, capsys, monkeypatch):
    # whether or not a command uses the key: exit 1 before any artifact or
    # eigenbasis, naming the key as typed, and its line when read from a file
    value, domain = _OUT_OF_DOMAIN_KEYS[key]
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    monkeypatch.setattr(np.linalg, "eigh", lambda matrix: pytest.fail("eigh before the refusal"))
    refusal = f"{key} must be {domain}, got {value}"
    path = tmp_path / "run.txt"
    path.write_text(f"# a key outside its domain\n{key} = {value}\n")
    out = tmp_path / "o"
    overrides = [[command, "--set", f"{key}={value}"] for command in ("scenario", "linkmap", "memory", "gainmap")]
    if key == "eta_mem":
        overrides.append(["scenario", "--eta-mem", f"{value}"])
    runs = {f"configuration error: override: {refusal}": overrides,
            f"configuration error: {path}, line 2: {refusal}": [["scenario", "--config", str(path)]]}
    for last, argvs in runs.items():
        for argv in argvs:
            assert cli.main([*argv, "--out", str(out)]) == 1, argv
            assert capsys.readouterr() == ("", last + "\n"), argv
            assert not out.exists(), argv


# one value (or a tuple of values) outside the domain of each numeric flag, and
# that domain; --eta-mem X is --set eta_mem=X, checked as that key
_OUT_OF_DOMAIN_FLAGS = {
    ("linkmap", "--range-min"): (0.0, "positive and finite"),
    ("linkmap", "--range-max"): (-2500.0, "positive and finite"),
    ("linkmap", "--range-steps"): (1, "at least 2"),
    ("linkmap", "--jitter-min"): (-1.0, "non-negative and finite"),
    ("linkmap", "--jitter-max"): (math.inf, "non-negative and finite"),
    ("linkmap", "--jitter-steps"): (0, "at least 2"),
    ("memory", "--grid"): ((15, 2049), "in [16, 2048]"),
    ("memory", "--storage"): (-1.0, "non-negative and finite"),
    ("memory", "--exchange-window"): (-4.0, "non-negative and finite"),
    ("memory", "--write-time"): (-0.5, "non-negative and finite"),
    ("memory", "--read-time"): (math.nan, "non-negative and finite"),
    ("memory", "--rabi"): (-1e6, "non-negative and finite"),
    ("memory", "--samples"): (-121, "at least 2"),
    ("gainmap", "--elev-min"): (0.0, "in (0, 90]"),
    ("gainmap", "--elev-max"): (90.5, "in (0, 90]"),
    ("gainmap", "--elev-steps"): (1, "at least 2"),
    ("gainmap", "--mem-min"): (-0.1, "in [0, 1]"),
    ("gainmap", "--mem-max"): (1.5, "in [0, 1]"),
    ("gainmap", "--mem-steps"): (1, "at least 2"),
}


def test_every_numeric_flag_has_an_out_of_domain_case():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    typed = {(command, action.option_strings[0]) for command, sub in subparsers.items()
             for action in sub._actions if action.type is not None and action.dest != "overrides"}
    assert typed == set(_OUT_OF_DOMAIN_FLAGS)


@pytest.mark.parametrize("command, flag", _OUT_OF_DOMAIN_FLAGS, ids=[" ".join(c) for c in _OUT_OF_DOMAIN_FLAGS])
def test_out_of_domain_flag_is_a_usage_error(command, flag, tmp_path, capsys):
    values, domain = _OUT_OF_DOMAIN_FLAGS[command, flag]
    out = tmp_path / "o"
    for value in values if isinstance(values, tuple) else (values,):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, flag, str(value), "--out", str(out)])
        assert exc.value.code == 1 and not out.exists()
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.splitlines()[-1] == f"satqlink {command}: error: argument {flag}: must be {domain}, got {value}"


@pytest.mark.parametrize("line, code, digest, eta, reference, last", commands.COMMANDS,
                         ids=[row[0] for row in commands.COMMANDS])
def test_command_table_row(line, code, digest, eta, reference, last, tmp_path, capsys, monkeypatch,
                           record_property):
    # one row of the table of end-to-end runs, in process and within the
    # table's time limit; a refusal (exit 1) comes before any eigenbasis, and
    # a memory run's kymographs match their golden.
    # conftest reports the worst deviations that record_property collects
    results = []
    simulate = spindyn.simulate_protocol

    def capture(*args, **kwargs):
        results.append(simulate(*args, **kwargs))
        return results[-1]

    def eigh(matrix):
        pytest.fail("the refusal came after linear algebra")

    def alarm(signum, frame):
        pytest.fail(f"no exit within {commands.TIMEOUT_S} s")

    monkeypatch.setattr(spindyn, "simulate_protocol", capture)
    if code == 1:
        monkeypatch.setattr(np.linalg, "eigh", eigh)
    out = tmp_path / "o"
    handler = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, commands.TIMEOUT_S)
    try:
        assert cli.main([*line.split(), "--out", str(out)]) == code
        stdout, stderr = capsys.readouterr()
        if code == 2:  # the failure, then the ensemble, schedule and grid it met
            assert stderr.startswith("solver failure: phase") and stderr.splitlines()[-1] == last
        else:
            assert stderr == (last + "\n" if last else "")
    except SystemExit as exc:  # a usage error; argparse wraps its usage line with the terminal width
        stdout, stderr = capsys.readouterr()
        assert exc.code == code and stderr.splitlines()[-1] == last and not out.exists()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    if code in (1, 2):
        assert stdout == "" and not list(out.glob("kymograph*.csv"))
    printed = [text for text in stdout.splitlines() if text.startswith("eta_mem")]
    if eta is None:
        assert printed == []
    else:
        assert printed == [f"eta_mem = {eta:.6f}"]
        deviation = abs(results[0].eta_mem - eta)
        record_property("eta_mem relative", deviation / eta)
        assert deviation <= 1e-12 and deviation <= 1e-9 * eta, results[0].eta_mem
        record_property("kymograph golden absolute", references.check_kymograph_golden(line, results[0]))
    assert commands.artifact_digest(out) == digest
    deviation = references.check_reference(reference, out, stdout) if reference else None
    if deviation is not None:
        record_property("RK45-era kymograph absolute", deviation)


def test_diff_reports_the_largest_numeric_change(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for name, texts in {"01/same": ("x,1.0\n", "x,1.0\n"),
                        "01/o/map.csv": ("r,p\n1,100\n2,0.25\n", "r,p\n1,101\n2,-0.25\n"),
                        "02/stderr": ("error: got 1\n", "fault: got 1\n"),
                        "02/only": ("", None)}.items():
        for root, text in zip((a, b), texts):
            if text is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text)
    script = [sys.executable, commands.__file__, "--diff"]
    cp = subprocess.run([*script, a, b], capture_output=True, text=True)
    assert cp.returncode == 1
    assert cp.stdout.splitlines() == [
        "01/o/map.csv: largest absolute change 1 (line 2), largest relative change 2 (line 3)",
        f"02/only: only in {a}",
        "02/stderr: non-numeric text or token count differs at line 1",
    ]
    assert subprocess.run([*script, a, a]).returncode == 0


_LINK_RUNS = (("scenario", "--format", "markdown"), ("scenario", "--format", "text"),
              ("scenario", "--format", "csv"), ("linkmap", "--range-steps", "3", "--jitter-steps", "3"),
              ("gainmap", "--elev-steps", "3", "--mem-steps", "3"))
_EXTREMES = {float: (0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308), int: (0, 1, 10 ** 308, 10 ** 400)}
_NON_FINITE = re.compile(r"\b(?:inf|nan)\b", re.IGNORECASE)


@pytest.mark.parametrize("key", config.RunConfig._fields)
def test_any_accepted_key_gives_finite_artifacts_or_exit_1(key, tmp_path, monkeypatch):
    # every key at the extremes of its type through the three link commands:
    # main returns exit 0, 1 or 3 and writes no inf or nan. memory is left
    # out: an extreme key can still end there in a solver failure (exit 2).
    # One parser serves every run: building it is most of a run's time
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    for n, value in enumerate(_EXTREMES[type(getattr(config.RunConfig(), key))]):
        for m, run in enumerate(_LINK_RUNS):
            out = tmp_path / f"{n}-{m}"
            assert cli.main([*run, "--set", f"{key}={value!r}", "--out", str(out)]) in (0, 1, 3)
            for path in out.glob("*"):
                assert not _NON_FINITE.search(path.read_text()), (value, run, path.name)


def test_public_names_resolve():
    modules = (afc, config, formatting, geometry, linkbudget, scenario, skr, spindyn)
    exported = set()
    for module in modules:
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
            exported.add(name)
    for name, value in vars(satqlink).items():
        if not name.startswith("_") and not isinstance(value, types.ModuleType):
            assert name in exported, f"satqlink.{name}"


def _integrate_with_sample_times(times):
    grid = spindyn.RadialGrid(0.01, 16)
    schedule = spindyn.ProtocolSchedule(dark_interval=1.0, exchange_window=1.0)
    ens = replace(config.ensemble_params(config.RunConfig(), "paper-literal"), exchange_coupling=1.0)
    spindyn.integrate(spindyn.initial_state(grid), schedule, ens, grid, sample_times=np.array(times))


@pytest.mark.parametrize("call, name", [
    (lambda: geometry.elevation_from_slant_range(math.nan, BASELINE.orbit), "slant_range"),
    (lambda: geometry.elevation_from_slant_range(math.inf, BASELINE.orbit), "slant_range"),
    (lambda: geometry.buffer_time(math.nan, BASELINE.orbit), "ogs_separation"),
    (lambda: geometry.buffer_time(math.inf, BASELINE.orbit), "ogs_separation"),
    (lambda: replace(BASELINE.orbit, altitude=math.inf), "altitude"),
    (lambda: skr.feasibility(math.nan, 1.0), "memory_lifetime"),
    (lambda: skr.feasibility(1.0, math.nan), "buffer_interval"),
    (lambda: skr.feasibility(math.inf, math.inf), "memory_lifetime"),
    (lambda: spindyn.ProtocolSchedule(dark_interval=math.inf), "dark_interval"),
    (lambda: _integrate_with_sample_times([0.0, math.nan, 1.0]), "earliest_sample_time"),
    (lambda: linkbudget.beam_radius(math.inf, BASELINE.link), "propagation_distance"),
    (lambda: linkbudget.collected_fraction(math.inf, BASELINE.link), "slant_range"),
    (lambda: linkbudget.single_link_efficiency(0.5, math.inf, BASELINE.link), "slant_range"),
    (lambda: afc.comb_dephasing_factor(math.inf), "finesse"),
    (lambda: afc.multimode_capacity(math.inf, 96e6), "total_bandwidth"),
], ids=["elevation_from_slant_range-nan", "elevation_from_slant_range-inf", "buffer_time-nan",
        "buffer_time-inf", "OrbitalConfig-altitude-inf", "feasibility-lifetime-nan",
        "feasibility-interval-nan", "feasibility-inf", "ProtocolSchedule-dark_interval-inf",
        "integrate-sample-nan", "beam_radius-inf", "collected_fraction-inf",
        "single_link_efficiency-inf", "comb_dephasing_factor-inf", "multimode_capacity-inf"])
def test_public_scalar_api_rejects_nan_and_inf(call, name):
    # the command line checks every flag and key for finiteness; a library
    # caller gets a ValueError naming the argument instead of zenith, NaN,
    # inf, 0, a vacuous True or False, a dropped sample, or a crash further down
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        call()


# Top-level public names of src/satqlink that no code in src/ refers to,
# each with the caller that keeps it.
_UNREFERENCED_IN_SRC = {
    "multimode_capacity",       # acceptance criterion 05
    "total_memory_efficiency",  # acceptance criterion 08
    "collected_fraction",       # benchmark tracer seam (perfbench/tracing.py)
    "radial_laplacian",         # benchmark tracer seam
    "solve_ivp",                # benchmark tracer seam
    "__version__",              # the package version
}


def test_every_public_name_has_a_caller_in_src():
    """A top-level public function, class or constant of the package is
    referred to elsewhere in src/, or is one of the commented exceptions:
    no public name exists for the tests alone."""
    trees = [ast.parse(path.read_text()) for path in Path(satqlink.__file__).parent.glob("*.py")]
    defined, referred = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level:
                referred.update(alias.name for alias in node.names)
    public = {n for n in defined if not n.startswith("_") or (n.startswith("__") and n != "__all__")}
    assert sorted(public - referred) == sorted(_UNREFERENCED_IN_SRC)


# Record fields that src/ reads only in their own class's __post_init__,
# each with the reason it stays.
_FIELDS_READ_ONLY_IN_VALIDATION = {
    "AFCParams.homogeneous_linewidth",  # the comb wash-out warning
}


def test_every_dataclass_field_is_read_in_src():
    """Every field of a ``Record`` subclass in src/satqlink is read as an attribute
    somewhere in src/ outside its own class's ``__post_init__``, or is one of
    the commented exceptions: no field is state that no formula, artifact or
    message reads.

    The scan matches attribute names, not owners: a field passes when any
    attribute of its name is read. ``EnsembleParams.cell_radius``, which no
    code read, passed this way because ``RadialGrid.cell_radius`` is read."""
    trees = [ast.parse(path.read_text()) for path in Path(satqlink.__file__).parent.glob("*.py")]

    def reads(node) -> Counter:
        return Counter(n.attr for n in ast.walk(node)
                       if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))

    everywhere = sum((reads(tree) for tree in trees), Counter())
    unread, records = [], []
    for tree in trees:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "Record" for b in cls.bases)):
                continue
            records.append(cls.name)
            validation = sum((reads(f) for f in cls.body
                              if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"),
                             Counter())
            unread += [f"{cls.name}.{f.target.id}" for f in cls.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                       and everywhere[f.target.id] <= validation[f.target.id]]
    assert len(records) == 13, records  # the scan found every record class
    assert sorted(unread) == sorted(_FIELDS_READ_ONLY_IN_VALIDATION)


def _run_script(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)


def test_link_commands_load_no_scipy(tmp_path):
    """scenario, linkmap and gainmap go without importing numpy, scipy,
    satqlink.spindyn, dataclasses or inspect; once satqlink.cli is imported, the package resolves
    satqlink.spindyn on first access, memory runs through that module, and
    a short memory run loads no scipy. Any other missing name is an
    AttributeError. In-process ``main`` calls
    leave the heap unfrozen; the process entry returns a usage error's exit
    code and freezes it."""
    script = f"""
import gc
import sys
import satqlink
assert "numpy" not in sys.modules
from satqlink import cli
frozen = gc.get_freeze_count()
out = {str(tmp_path)!r}
for argv in (["scenario"], ["linkmap"], ["gainmap"]):
    assert cli.main([*argv, "--out", out]) == 0
loaded = sorted(m for m in sys.modules if m == "numpy" or m.startswith("numpy."))
assert not loaded, loaded
assert "satqlink.spindyn" not in sys.modules
# each costs a light command milliseconds of start-up
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
spindyn = satqlink.spindyn
assert sys.modules["satqlink.spindyn"] is spindyn and "numpy" in sys.modules
assert not hasattr(satqlink, "nope")
calls = []
solve = spindyn.simulate_protocol
spindyn.simulate_protocol = lambda *a, **k: calls.append(1) or solve(*a, **k)
memory = ["memory", "--grid", "32", "--storage", "1", "--samples", "5", "--out", out]
assert cli.main(memory) == 0
assert calls == [1]
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
# only the process entry freezes the heap, never an in-process main
assert gc.get_freeze_count() == frozen
sys.argv = ["satqlink", "memory", "--grid", "1", "--out", out]
assert cli.entry() == 1
assert gc.get_freeze_count() > frozen
"""
    cp = _run_script(script)
    assert cp.returncode == 0, cp.stderr


def test_benchmark_seams_resolve():
    """Every seam that the benchmark tracer wraps (perfbench/tracing.py, read
    as it is) resolves to a callable on the package after ``import
    satqlink.cli``; the tracer drops a missing one from its metrics."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    script = f"""
import importlib.util
import sys
sys.dont_write_bytecode = True
import satqlink
import satqlink.cli
spec = importlib.util.spec_from_file_location("tracing", {str(tracing)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = [f"{{m}}.{{a}}" for m, a in tracing.SPAN_SEAMS + tracing.COUNTER_SEAMS
           if not callable(getattr(getattr(satqlink, m), a, None))]
missing += [f"{{m}}.{{ref}}.{{n}}" for m, ref, names in tracing.BOUNDARY_COUNTERS for n in names
            if not callable(getattr(getattr(getattr(satqlink, m), ref, None), n, None))]
assert not missing, missing
"""
    cp = _run_script(script)
    assert cp.returncode == 0, cp.stderr


def test_memory_loads_no_scipy(tmp_path):
    """memory under every preset, on a 600-point grid, with optical windows
    (the closed-form {P, S} window) and with a user-set transfer loads no
    scipy, no numpy.ma and no link-budget or key-rate module; satqlink.scenario
    is imported only when a link command runs."""
    script = f"""
import sys
import satqlink
from satqlink import cli
out = {str(tmp_path)!r}
small = ["--grid", "32", "--samples", "5"]
for argv in (["--preset", "rescaled"], ["--preset", "lossless"],
             ["--preset", "paper-literal", "--samples", "3"], ["--grid", "600", "--samples", "3"],
             [*small, "--write-time", "1e-6", "--read-time", "1e-6", "--rabi", "1e6"],
             [*small, "--exchange-window", "4"]):
    assert cli.main(["memory", "--out", out, *argv]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
link = ("numpy.ma", "satqlink.scenario", "satqlink.linkbudget", "satqlink.geometry", "satqlink.afc",
        "satqlink.skr")
loaded = [m for m in link if m in sys.modules]
assert not loaded, loaded
for argv in (["scenario"], ["linkmap"]):
    assert cli.main([*argv, "--out", out]) == 0
assert satqlink.scenario is sys.modules["satqlink.scenario"]
assert "satqlink.linkbudget" in sys.modules
"""
    cp = _run_script(script)
    assert cp.returncode == 0, cp.stderr


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    lo=st.floats(-1e6, 1e6, allow_subnormal=False),
    hi=st.floats(-1e6, 1e6, allow_subnormal=False),
    steps=st.integers(2, 400),
    scale=st.sampled_from([1.0, 1e-6, math.pi / 180.0]),
)
# the default linkmap and gainmap axes, and the same bounds at 320 steps
@example(lo=500.0, hi=2500.0, steps=21, scale=1.0)
@example(lo=0.0, hi=5.0, steps=21, scale=1e-6)
@example(lo=20.0, hi=90.0, steps=15, scale=math.pi / 180.0)
@example(lo=0.1, hi=1.0, steps=19, scale=1.0)
@example(lo=500.0, hi=2500.0, steps=320, scale=1.0)
@example(lo=0.0, hi=5.0, steps=320, scale=1e-6)
@example(lo=20.0, hi=90.0, steps=320, scale=math.pi / 180.0)
@example(lo=0.1, hi=1.0, steps=320, scale=1.0)
def test_axis_is_numpy_linspace(lo, hi, steps, scale):
    lo, hi = lo * scale, hi * scale
    assume(lo < hi)
    # numpy takes another formula when the step underflows to zero; no axis
    # of that span can be strictly ascending, so it is rejected either way
    assume((hi - lo) / (steps - 1) != 0.0)
    assert cli._axis("axis", lo, hi, steps) == np.linspace(lo, hi, steps).tolist()
