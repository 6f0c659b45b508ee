import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import satqlink
from satqlink import afc, cli, config, formatting, geometry, linkbudget, scenario, skr, spindyn
from satqlink.geometry import OrbitalConfig, slant_range_from_elevation
from satqlink.spindyn import SolverFailure


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


def test_scenario_require_feasible(run_cli, tmp_path):
    cp = run_cli(
        "scenario", "--out", tmp_path / "o",
        "--set", "memory_lifetime_s=100", "--require-feasible",
    )
    assert cp.returncode == 3
    # without the flag the same configuration succeeds
    cp2 = run_cli("scenario", "--out", tmp_path / "o2", "--set", "memory_lifetime_s=100")
    assert cp2.returncode == 0


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


def test_linkmap_rejects_bad_axes(run_cli, tmp_path):
    cp = run_cli("linkmap", "--out", tmp_path / "o", "--range-steps", 1)
    assert cp.returncode == 1
    assert "steps" in cp.stderr
    cp = run_cli("linkmap", "--out", tmp_path / "o", "--range-min", 900, "--range-max", 800)
    assert cp.returncode == 1


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
    l20 = slant_range_from_elevation(math.radians(20.0), OrbitalConfig())
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


@pytest.mark.parametrize(
    "flags, expected",
    [((), spindyn.SolverConfig()),
     (("--rtol", "1e-6"), spindyn.SolverConfig(relative_tolerance=1e-6)),
     (("--atol", "1e-9"), spindyn.SolverConfig(absolute_tolerance=1e-9))],
)
def test_memory_tolerances_default_to_solver_config(monkeypatch, tmp_path, flags, expected):
    seen = []

    def capture(ens, schedule, grid, solver, time_samples):
        seen.append(solver)
        raise SolverFailure("captured")

    monkeypatch.setattr(spindyn, "simulate_protocol", capture)
    cli.main(["memory", "--out", str(tmp_path / "o"), "--grid", "32", *flags])
    assert seen == [expected]


def test_usage_error_maps_to_config_exit_code(run_cli, tmp_path):
    cp = run_cli("linkmap", "--range-steps", "many")
    assert cp.returncode == 1


@pytest.mark.parametrize("override", ["altitude_km=nan", "pointing_jitter_urad=inf"])
def test_non_finite_override_is_a_config_error(tmp_path, capsys, override):
    code = cli.main(["scenario", "--out", str(tmp_path / "o"), "--set", override])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error" in captured.err and override.split("=")[0] in captured.err
    assert captured.out == ""


def test_non_finite_config_file_value_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "run.txt"
    path.write_text("altitude_km = nan\n")
    code = cli.main(["scenario", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_zero_dual_probability_exits_without_a_gain(tmp_path, capsys):
    code = cli.main(["scenario", "--out", str(tmp_path / "o"), "--set", "detector_efficiency=0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error" in captured.err and "gain undefined" in captured.err
    assert "0x" not in captured.out


@pytest.mark.parametrize("override", ["detector_efficiency=0", "receiver_diameter_m=1e-9"])
def test_gainmap_without_a_dual_probability_exits_without_a_gain(run_cli, tmp_path, override):
    out = tmp_path / "o"
    cp = run_cli("gainmap", "--out", out, "--set", override)
    assert cp.returncode == 1
    assert "configuration error" in cp.stderr and "gain undefined" in cp.stderr
    assert "RuntimeWarning" not in cp.stderr
    assert not (out / "gainmap.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [("memory", "--grid", "16", "--samples", "3", "--storage", "nan"),
     ("memory", "--grid", "16", "--samples", "3", "--rtol", "nan"),
     ("gainmap", "--mem-max", "inf")],
)
def test_non_finite_flag_is_a_usage_error(run_cli, tmp_path, argv):
    cp = run_cli(*argv, "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert "expected a finite number" in cp.stderr
    assert "RuntimeWarning" not in cp.stderr
    assert "eta_mem" not in cp.stdout


def test_default_artifacts_match_the_recorded_references(tmp_path):
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    out = str(tmp_path)
    assert cli.main(["scenario", "--out", out, "--format", "text"]) == 0
    assert (tmp_path / "scenario.txt").read_bytes() == (reference / "scenario.txt").read_bytes()
    for command, name in (("linkmap", "linkmap-21x21.csv"), ("gainmap", "gainmap-15x19.csv")):
        assert cli.main([command, "--out", out]) == 0
        got = (tmp_path / f"{command}.csv").read_text().splitlines()
        want = (reference / name).read_text().splitlines()
        assert got[0] == want[0]
        got_rows = np.array([[float(x) for x in line.split(",")] for line in got[1:]])
        want_rows = np.array([[float(x) for x in line.split(",")] for line in want[1:]])
        assert got_rows.shape == want_rows.shape
        np.testing.assert_allclose(got_rows, want_rows, rtol=1e-12, atol=0.0)


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


def test_link_commands_load_no_scipy(tmp_path):
    """scenario, linkmap and gainmap run without importing scipy; the two
    callers that need it (quadrature reference, memory) still work after."""
    script = f"""
import sys
import satqlink
from satqlink import cli, linkbudget
out = {str(tmp_path)!r}
for argv in (["scenario"], ["linkmap"], ["gainmap"]):
    assert cli.main([*argv, "--out", out]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
link = linkbudget.OpticalLinkParams()
assert abs(linkbudget.collected_fraction_quadrature(5e5, link)
           - linkbudget.collected_fraction(5e5, link)) < 1e-6
assert cli.main(["memory", "--out", out, "--grid", "32", "--storage", "1", "--samples", "5"]) == 0
assert "scipy.integrate" in sys.modules
"""
    env = dict(os.environ)
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    cp = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert cp.returncode == 0, cp.stderr
