"""Numerical references that the tests hold the closed forms to.

- ``rhs`` and ``assemble`` write out and assemble the coupled field
  equations, and ``expm_propagate`` exponentiates them densely, group by
  coupled group; the exact modal propagators of ``satqlink.spindyn`` are
  checked against it;
- ``collected_fraction_quadrature`` integrates the jitter-broadened beam
  over the receiver pupil, against which ``linkbudget.collected_fraction``
  is checked (acceptance criterion 06);
- ``slant_range`` and ``elevation`` are the forward pass geometry, against
  which the closed-form inverses of ``satqlink.geometry`` are checked;
- ``naive_grid_csv`` formats a map cell by cell, against which the map
  writers of ``satqlink.scenario`` are checked;
- ``dirichlet_norm_factor`` and ``neumann_wavenumber`` give the continuum
  solution of storage, diffusion alone in the sphere, under either wall;
- ``check_reference`` holds a run's artifacts to a reference recorded in
  ``perfbench/reference/``, for the rows of ``commands.COMMANDS`` that name
  one, and ``check_kymograph_golden`` holds the kymographs of every
  ``memory`` row that exits 0 to the full-precision goldens in ``GOLDENS``,
  which ``record_kymograph_goldens`` rewrites.

The quadrature and the dense exponential are slow by design and need
scipy (``quad``, ``i0e`` and ``expm``), which no command loads.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import i0e

from satqlink import spindyn as sd
from satqlink.formatting import csv_float
from satqlink.geometry import _ASIN_TOL, OrbitalConfig
from satqlink.linkbudget import OpticalLinkParams, beam_radius
from satqlink.spindyn import EnsembleParams, RadialGrid, SpinFieldState

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
GOLDENS = Path(__file__).resolve().parent / "kymograph_goldens.json.gz"

# Largest S or K deviation from the goldens, normalised to peak 1. OpenBLAS's
# kernels for another CPU (OPENBLAS_CORETYPE Nehalem, Prescott, Sandybridge,
# Haswell or Zen, on an AVX-512 host) move them by up to 1.7e-12, all at
# n = 1024, and one thread instead of two by 0.
GOLDEN_BOUND = 1e-11

def rhs(
    state: SpinFieldState,
    ens: EnsembleParams,
    grid: RadialGrid,
    control_rabi: float = 0.0,
    exchange_coupling: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dP, dS, dK) of the coupled field equations of
    ``spindyn._phase_operator``, written out field by field.

    ``exchange_coupling`` overrides the ensemble value so that a phase can
    switch the exchange off (pass 0.0).
    """
    j = ens.exchange_coupling if exchange_coupling is None else exchange_coupling
    p, s, k = state.optical, state.alkali, state.noble
    dp = -ens.optical_decay * p + 1j * control_rabi * s
    ds = (
        -(ens.alkali_decay + 1j * ens.alkali_detuning) * s
        + 1j * control_rabi * p
        - 1j * j * k
    )
    dk = -(ens.noble_decay + 1j * ens.noble_detuning) * k - 1j * j * s
    if ens.alkali_diffusion != 0.0:
        ds = ds + ens.alkali_diffusion * sd.radial_laplacian(s, grid, "dirichlet")
    if ens.noble_diffusion != 0.0:
        dk = dk + ens.noble_diffusion * sd.radial_laplacian(k, grid, "neumann")
    return dp, ds, dk


@dataclass(frozen=True)
class Operator:
    """The constant A of y' = A y for an (n, 3) state of P, S and K, node by
    node.

    ``local`` (3 x 3) acts at every node. Column f of ``lower`` (n-1),
    ``diag`` (n) and ``upper`` (n-1) holds the diagonals of field f's
    diffusion stencil, D times the flux-form Laplacian.
    """

    local: np.ndarray
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        out = y @ self.local.T
        out += self.diag * y
        out[1:] += self.lower * y[:-1]
        out[:-1] += self.upper * y[1:]
        return out


def assemble(phase, grid: RadialGrid) -> Operator:
    """The operator of a ``spindyn._phase_operator`` phase (local block and
    diffusion constants of P, S and K), with the Dirichlet stencil for S and
    the Neumann stencil for K."""
    local, diffusion = phase
    n = grid.point_count
    lower, diag, upper = np.zeros((n - 1, 3)), np.zeros((n, 3)), np.zeros((n - 1, 3))
    for field, bc in ((1, "dirichlet"), (2, "neumann")):
        lo, di, up = sd._laplacian_diagonals(grid, bc)
        d = diffusion[field]
        lower[:, field], diag[:, field], upper[:, field] = d * lo, d * di, d * up
    return Operator(local, lower, diag, upper)


def expm_propagate(phase, grid: RadialGrid, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(tau A) y (n, 3) at every tau of ``taus``, by ``scipy.linalg.expm``
    of the dense assembled operator restricted to each group of fields that
    the phase couples (``spindyn._coupled_groups``). An uncoupled field, such
    as the fast-decaying P in a transfer, stays out of the other group's
    matrix: ``expm`` of the whole operator is 5e-6 off on a paper-literal
    transfer."""
    n = grid.point_count
    op = assemble(phase, grid)
    dense = np.stack([(op @ unit.reshape(n, 3)).ravel() for unit in np.eye(3 * n)], axis=1)
    out = np.empty((len(taus), n, 3), dtype=np.complex128)
    for group in sd._coupled_groups(phase[0]):
        index = (3 * np.arange(n)[:, None] + group).ravel()
        block = dense[np.ix_(index, index)]
        for frame, tau in zip(out, taus):
            frame[:, group] = (expm(tau * block) @ y[:, group].ravel()).reshape(n, len(group))
    return out


def dirichlet_norm_factor(diffusion: float, radius: float, t: float) -> float:
    """||u(t)||^2 / ||u(0)||^2 for diffusion in a sphere from a uniform start,
    the value pinned to 0 at the wall, at t > 0: the volume norm of Crank's
    series (The Mathematics of Diffusion, 2nd ed., 1975, eq. 6.18),
    sum_k 6 / (k^2 pi^2) exp(-2 D k^2 pi^2 t / R^2), summed from the last
    term that does not underflow."""
    rate = 2.0 * diffusion * math.pi ** 2 * t / radius ** 2
    k = np.arange(math.ceil(math.sqrt(750.0 / rate)), 0, -1)
    return float(np.sum(6.0 / (k * k * math.pi ** 2) * np.exp(-rate * k * k)))


def neumann_wavenumber(radius: float) -> float:
    """k1, the least positive root of tan(k R) = k R: sin(k1 r) / (k1 r) is the
    slowest non-uniform mode of diffusion in a sphere with a reflective wall
    (Carslaw & Jaeger, Conduction of Heat in Solids, 2nd ed., 1959, §9.3),
    and its volume norm decays as exp(-2 D k1^2 t)."""
    x = 4.5  # Newton on sin x - x cos x, which vanishes at k1 R = 4.4934...
    for _ in range(5):
        x -= (math.sin(x) - x * math.cos(x)) / (x * math.sin(x))
    return x / radius


def collected_fraction_quadrature(l: float, params: OpticalLinkParams) -> float:
    """Reference value of ``collected_fraction`` by adaptive polar quadrature.

    Numerically convolves the propagated beam intensity with the jitter
    kernel (angular part via the modified Bessel identity, radial parts via
    adaptive quadrature) and integrates over the pupil. Scalar range only.
    """
    w = beam_radius(l, params)
    sigma_j = params.pointing_jitter_rms * l
    peak = 2.0 / (math.pi * w * w)  # unit total power

    def beam(r):
        return peak * math.exp(-2.0 * r * r / (w * w))

    if sigma_j == 0.0:
        def smeared(rho):
            return beam(rho)
    else:
        s2 = sigma_j * sigma_j
        r_max = 5.0 * w  # beam intensity is ~1e-21 of peak beyond this

        def smeared(rho):
            def kernel(rp):
                gauss = math.exp(-((rho - rp) ** 2) / (2.0 * s2))
                bessel = i0e(rho * rp / s2)
                return rp * beam(rp) * gauss * bessel / s2

            value, _ = quad(kernel, 0.0, r_max, epsabs=1e-12, epsrel=1e-10, limit=200)
            return value

    power, _ = quad(
        lambda rho: 2.0 * math.pi * rho * smeared(rho),
        0.0,
        params.receiver_radius,
        epsabs=1e-10,
        epsrel=1e-9,
        limit=200,
    )
    return power


def slant_range(ground_track: float, orbit: OrbitalConfig) -> float:
    """Line-of-sight distance (km) for a ground-track separation (km).

    Law of cosines in the Earth-centre / station / satellite triangle, with
    central angle ground_track / earth_radius.
    """
    r_e = orbit.earth_radius
    r_s = orbit.orbit_radius
    if ground_track < 0.0:
        raise ValueError("ground_track must be non-negative")
    central = ground_track / r_e
    if central >= math.pi:
        raise ValueError("ground_track exceeds half the Earth circumference")
    l_sq = r_e * r_e + r_s * r_s - 2.0 * r_e * r_s * math.cos(central)
    if l_sq <= 0.0:
        raise ValueError("degenerate geometry: non-positive squared range")
    return math.sqrt(l_sq)


def elevation(ground_track: float, orbit: OrbitalConfig) -> float:
    """Elevation angle (rad) of the satellite seen from the station.

    pi/2 at zenith (ground_track = 0), negative once the satellite drops
    below the station's horizon.
    """
    central = ground_track / orbit.earth_radius
    if ground_track == 0.0:
        return math.pi / 2.0
    l = slant_range(ground_track, orbit)
    arg = orbit.earth_radius / l * math.sin(central)
    if arg > 1.0:
        if arg > 1.0 + _ASIN_TOL:
            raise ValueError(f"arcsin argument {arg} outside [-1, 1]")
        arg = 1.0
    return math.pi / 2.0 - central - math.asin(arg)


def naive_grid_csv(header: str, row_labels, column_labels, grid) -> str:
    """Long-format CSV of the 2-D array ``grid``, one ``csv_float`` per field."""
    lines = [header]
    for i, row in enumerate(row_labels):
        for j, column in enumerate(column_labels):
            lines.append(f"{csv_float(row)},{csv_float(column)},{csv_float(grid[i, j])}")
    return "\n".join(lines) + "\n"


def check_reference(name: str, out: Path, stdout: str) -> float | None:
    """Assert that the artifacts a run wrote to ``out``, and its ``stdout``,
    match the recorded reference ``name`` in ``REFERENCE_DIR``; the largest
    S or K deviation of kymographs, None for any other reference.

    - ``*.json.gz``, kymographs of an RK45-era solve: the ``eta_mem`` line
      verbatim, the S and K files equal to projections of ``kymograph.csv``,
      times and radii to 1e-12 relative, S and K (normalised to peak 1) to
      1e-6 absolute;
    - ``*.csv``, a map, to 1e-12 relative; a ``*.sampled.csv`` holds every
      97th row of a 320x320 map, each with its row index;
    - any other file, byte for byte.
    """
    path = REFERENCE_DIR / name
    if name.endswith(".json.gz"):
        return _check_kymographs(json.loads(gzip.decompress(path.read_bytes())), out, stdout)
    if not name.endswith(".csv"):
        assert (out / name).read_bytes() == path.read_bytes(), name
        return None
    got_header, *got = (out / f"{name.split('-')[0]}.csv").read_text(encoding="utf-8").splitlines()
    want_header, *want = path.read_text(encoding="utf-8").splitlines()
    want = np.loadtxt(want, delimiter=",", ndmin=2)
    if name.endswith(".sampled.csv"):
        got_header, got, want = "row," + got_header, [got[int(i)] for i in want[:, 0]], want[:, 1:]
    assert got_header == want_header
    np.testing.assert_allclose(np.loadtxt(got, delimiter=",", ndmin=2), want, rtol=1e-12, atol=0.0)
    return None


def _check_kymographs(ref: dict, out: Path, stdout: str) -> float:
    assert stdout.splitlines()[0] == ref["eta_line"]
    header, *lines = (out / "kymograph.csv").read_text(encoding="utf-8").splitlines()
    assert header == "t_seconds,r_over_R,S_norm,K_norm"
    rows = [line.split(",") for line in lines]
    for field, col in (("S", 2), ("K", 3)):
        assert (out / f"kymograph_{field.lower()}.csv").read_text(encoding="utf-8").splitlines() == [
            f"t_seconds,r_over_R,{field}_norm"] + [f"{r[0]},{r[1]},{r[col]}" for r in rows]
    data = np.array(rows, dtype=float).reshape(len(ref["t"]), len(ref["r"]), 4)
    assert np.all(data[:, :, 0] == data[:, :1, 0]) and np.all(data[:, :, 1] == data[:1, :, 1])
    np.testing.assert_allclose(data[:, 0, 0], ref["t"], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(data[0, :, 1], ref["r"], rtol=1e-12, atol=0.0)
    deviation = np.max(np.abs(data[:, :, 2:].reshape(-1, 2) - np.transpose([ref["S"], ref["K"]])))
    assert deviation <= 1e-6, deviation
    return float(deviation)


def _kymograph_sample(result) -> dict:
    """The S and K kymographs of a ``spindyn.ProtocolResult`` at 41 times
    and 33 radii, spread evenly from first to last, with their shape,
    indices, times and radii: the form ``GOLDENS`` holds them in."""
    nt, nr = result.kymograph_alkali.shape
    rows, cols = (np.unique(np.linspace(0, size - 1, min(size, count)).round().astype(int))
                  for size, count in ((nt, 41), (nr, 33)))
    picked = np.ix_(rows, cols)
    return {"shape": [nt, nr], "rows": rows.tolist(), "cols": cols.tolist(),
            "t": result.times[rows].tolist(), "r": result.radii_over_r[cols].tolist(),
            "S": result.kymograph_alkali[picked].tolist(), "K": result.kymograph_noble[picked].tolist()}


@functools.cache
def _goldens() -> dict:
    return json.loads(gzip.decompress(GOLDENS.read_bytes()))


def check_kymograph_golden(line: str, result) -> float:
    """Assert that the kymographs of the ``memory`` row ``line`` of
    ``commands.COMMANDS`` match its golden: the same shape and sample
    indices, times and radii to 1e-12 relative, S and K to ``GOLDEN_BOUND``
    absolute; the largest S or K deviation."""
    want, got = _goldens()[line], _kymograph_sample(result)
    assert [got[key] for key in ("shape", "rows", "cols")] == [want[key] for key in ("shape", "rows", "cols")]
    for key in ("t", "r"):
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=0.0)
    deviation = float(max(np.max(np.abs(np.subtract(got[key], want[key]))) for key in ("S", "K")))
    assert deviation <= GOLDEN_BOUND, deviation
    return deviation


def record_kymograph_goldens() -> None:
    """Rewrite ``GOLDENS`` from this checkout's runs of the ``memory`` rows of
    ``commands.COMMANDS`` that exit 0. After a change that moves a kymograph
    on purpose, run from the repository root:

        PYTHONPATH=src:tests python -c 'import references; references.record_kymograph_goldens()'
    """
    import commands
    from satqlink import cli

    simulate, results, goldens = sd.simulate_protocol, [], {}
    sd.simulate_protocol = lambda *args, **kwargs: results.append(simulate(*args, **kwargs)) or results[-1]
    try:
        for line, code, _, eta, *_ in commands.COMMANDS:
            if eta is not None:
                with tempfile.TemporaryDirectory() as out:
                    assert cli.main([*line.split(), "--out", out]) == code, line
                goldens[line] = _kymograph_sample(results.pop())
    finally:
        sd.simulate_protocol = simulate
    GOLDENS.write_bytes(gzip.compress(json.dumps(goldens, indent=0).encode(), mtime=0))
