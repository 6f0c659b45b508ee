import ast
import gzip
import json
import math
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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


def test_gainmap_rejects_memory_efficiency_above_one(tmp_path, capsys):
    # as --eta-mem 1.5 is rejected by ScenarioConfig
    code = cli.main(["gainmap", "--out", str(tmp_path), "--mem-max", "1.5"])
    assert code == 1
    assert "eta_mem_axis values out of range" in capsys.readouterr().err
    assert not (tmp_path / "gainmap.csv").exists()


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


def test_removed_comb_key_is_unknown(tmp_path, capsys):
    code = cli.main(["scenario", "--out", str(tmp_path / "o"), "--set", "comb_bandwidth_hz=1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown configuration key 'comb_bandwidth_hz'" in captured.err
    assert captured.out == ""


def test_removed_output_key_is_unknown(tmp_path, capsys):
    code = cli.main(["scenario", "--out", str(tmp_path / "o"), "--set", "output_format=text"])
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown configuration key 'output_format'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [("linkmap", "--format", "csv"), ("gainmap", "--eta-mem", "0.5"), ("memory", "--rtol", "1e-6")],
)
def test_scenario_only_flags_are_usage_errors_elsewhere(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main([*argv, "--out", str(tmp_path / "o")])
    assert info.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_memory_storage_beyond_the_time_resolution(tmp_path, capsys):
    # storage is exact, so 1e300 s costs one eigenbasis; the 7.9 s reverse
    # transfer after it is lost in the float resolution of t = 1e300 s
    code = cli.main([
        "memory", "--out", str(tmp_path / "o"), "--grid", "16", "--samples", "3",
        "--storage", "1e300",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert "configuration error: phase 3 of 3" in captured.err
    assert "shorter than the time resolution at t = 1e+300 s" in captured.err
    assert "eta_mem" not in captured.out


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
     ("memory", "--grid", "16", "--samples", "3", "--exchange-window", "nan"),
     ("gainmap", "--mem-max", "inf")],
)
def test_non_finite_flag_is_a_usage_error(run_cli, tmp_path, argv):
    cp = run_cli(*argv, "--out", tmp_path / "o")
    assert cp.returncode == 1
    assert "expected a finite number" in cp.stderr
    assert "RuntimeWarning" not in cp.stderr
    assert "eta_mem" not in cp.stdout


@pytest.mark.parametrize(
    "command, flag, low",
    [("memory", "--grid", 16), ("memory", "--samples", 2),
     ("linkmap", "--range-steps", 2), ("linkmap", "--jitter-steps", 2),
     ("gainmap", "--elev-steps", 2), ("gainmap", "--mem-steps", 2)],
)
def test_integer_flag_below_its_bound_is_rejected_by_name(tmp_path, capsys, command, flag, low):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--out", str(tmp_path), flag, str(low - 1)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {flag}: must be at least {low}, got {low - 1}" in err
    assert not list(tmp_path.iterdir())
    args = cli.build_parser().parse_args([command, flag, str(low)])
    assert getattr(args, flag[2:].replace("-", "_")) == low


@pytest.mark.parametrize(
    "argv, name",
    [((), "memory-rescaled-n256-s121"),
     (("--preset", "lossless", "--samples", "301"), "memory-lossless-n256-s301"),
     (("--grid", "64"), "memory-rescaled-n64-s121")],
)
def test_kymographs_match_the_recorded_references(tmp_path, capsys, argv, name):
    """The benchmark's memory commands against their recorded kymographs:
    the eta_mem line verbatim, times and radii to 1e-12 relative, values to
    1e-6 absolute (they are normalised to peak 1)."""
    reference = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
    with gzip.open(reference / f"{name}.json.gz", "rt", encoding="utf-8") as handle:
        ref = json.load(handle)
    assert cli.main(["memory", "--out", str(tmp_path), *argv]) == 0
    assert capsys.readouterr().out.splitlines()[0] == ref["eta_line"]

    header, *lines = (tmp_path / "kymograph.csv").read_text(encoding="utf-8").splitlines()
    assert header == "t_seconds,r_over_R,S_norm,K_norm"
    rows = [line.split(",") for line in lines]
    for which, col in (("s", 2), ("k", 3)):
        got = (tmp_path / f"kymograph_{which}.csv").read_text(encoding="utf-8").splitlines()
        assert got == [f"t_seconds,r_over_R,{which.upper()}_norm"] + [
            f"{r[0]},{r[1]},{r[col]}" for r in rows]

    data = np.array(rows, dtype=float)
    nt, n = len(ref["t"]), len(ref["r"])
    assert data.shape == (nt * n, 4)
    t, r = data[:, 0].reshape(nt, n), data[:, 1].reshape(nt, n)
    assert np.all(t == t[:, :1]) and np.all(r == r[:1])
    np.testing.assert_allclose(t[:, 0], ref["t"], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(r[0], ref["r"], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(data[:, 2], ref["S"], rtol=0.0, atol=1e-6)
    np.testing.assert_allclose(data[:, 3], ref["K"], rtol=0.0, atol=1e-6)


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


def _integrate_with_sample_times(times):
    grid = spindyn.RadialGrid(0.01, 16)
    schedule = spindyn.ProtocolSchedule(dark_interval=1.0, exchange_window=1.0)
    ens = spindyn.EnsembleParams(exchange_coupling=1.0)
    spindyn.integrate(spindyn.initial_state(grid), schedule, ens, grid, sample_times=np.array(times))


@pytest.mark.parametrize("call", [
    lambda: geometry.elevation_from_slant_range(math.nan, OrbitalConfig()),
    lambda: geometry.elevation_from_slant_range(math.inf, OrbitalConfig()),
    lambda: geometry.buffer_time(math.nan, OrbitalConfig()),
    lambda: geometry.buffer_time(math.inf, OrbitalConfig()),
    lambda: OrbitalConfig(altitude=math.inf),
    lambda: skr.feasibility(math.nan, 1.0),
    lambda: skr.feasibility(1.0, math.nan),
    lambda: skr.feasibility(math.inf, math.inf),
    lambda: spindyn.ProtocolSchedule(dark_interval=math.inf),
    lambda: _integrate_with_sample_times([0.0, math.nan, 1.0]),
], ids=["elevation_from_slant_range-nan", "elevation_from_slant_range-inf", "buffer_time-nan",
        "buffer_time-inf", "OrbitalConfig-altitude-inf", "feasibility-lifetime-nan",
        "feasibility-interval-nan", "feasibility-inf", "ProtocolSchedule-dark_interval-inf",
        "integrate-sample-nan"])
def test_public_scalar_api_rejects_nan_and_inf(call):
    # the command line checks every flag and key for finiteness; a library
    # caller gets a ValueError instead of zenith, NaN, inf, a vacuous True or
    # False, a dropped sample, or a crash further down
    with pytest.raises(ValueError):
        call()


# Top-level public names of src/satqlink that no code in src/ refers to,
# each with the caller that keeps it.
_UNREFERENCED_IN_SRC = {
    "multimode_capacity",       # acceptance criterion 05
    "total_memory_efficiency",  # acceptance criterion 08
    "collected_fraction",       # benchmark tracer seam (perfbench/tracing.py)
    "radial_laplacian",         # benchmark tracer seam
    "solve_ivp",                # benchmark tracer seam; the tests' LSODA reference
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


# Dataclass fields that src/ reads only in their own class's __post_init__,
# each with the reason it stays.
_FIELDS_READ_ONLY_IN_VALIDATION = {
    "AFCParams.homogeneous_linewidth",  # the comb wash-out warning
}


def test_every_dataclass_field_is_read_in_src():
    """Every field of a ``@dataclass`` in src/satqlink is read as an attribute
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
    unread = []
    for tree in trees:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list)):
                continue
            validation = sum((reads(f) for f in cls.body
                              if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"),
                             Counter())
            unread += [f"{cls.name}.{f.target.id}" for f in cls.body
                       if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                       and everywhere[f.target.id] <= validation[f.target.id]]
    assert sorted(unread) == sorted(_FIELDS_READ_ONLY_IN_VALIDATION)


def _run_script(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src_dir = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)


def test_link_commands_load_no_scipy(tmp_path):
    """scenario, linkmap and gainmap go without importing numpy, scipy or
    satqlink.spindyn; once satqlink.cli is imported, the package resolves
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
    scipy, no numpy.ma and no link-budget module; satqlink.scenario is
    imported only when a link command runs."""
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
link = ("numpy.ma", "satqlink.scenario", "satqlink.linkbudget", "satqlink.geometry", "satqlink.afc")
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
