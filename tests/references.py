"""Numerical references that the tests hold the closed forms to.

- ``rhs``, ``assemble`` and ``lsoda_propagate`` write out, assemble and step
  the coupled field equations with LSODA, and ``expm_propagate``
  exponentiates them densely, group by coupled group; the exact modal
  propagators of ``satqlink.spindyn`` are checked against both;
- ``collected_fraction_quadrature`` integrates the jitter-broadened beam
  over the receiver pupil, against which ``linkbudget.collected_fraction``
  is checked (acceptance criterion 06);
- ``slant_range`` and ``elevation`` are the forward pass geometry, against
  which the closed-form inverses of ``satqlink.geometry`` are checked;
- ``naive_grid_csv`` formats a map cell by cell, against which the map
  writers of ``satqlink.scenario`` are checked;
- ``check_reference`` holds a run's artifacts to a reference recorded in
  ``perfbench/reference/``, for the rows of ``commands.COMMANDS`` that name
  one.

The quadrature and LSODA are slow by design and need scipy, which no
command loads.
"""

from __future__ import annotations

import gzip
import json
import math
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

# Right-hand-side evaluations one LSODA phase may take: about 20x the largest
# phase of a legitimate run, so that a runaway phase fails instead of never
# ending.
MAX_RHS_PER_PHASE = 200_000


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


def real_band(op: Operator) -> tuple[np.ndarray, int]:
    """Real form of a phase operator A on the interleaved state, in the packed
    banded layout of LSODA, and its half bandwidth: the stencils couple
    complex indices g apart, that is 2 g reals, plus one for the
    real/imaginary pair."""
    n, g = op.diag.shape
    half = 2 * g + 1
    index = np.arange(n * g).reshape(n, g)
    blocks = op.local + op.diag[:, :, None] * np.eye(g)  # (n, g, g) per-node blocks
    rows = 2 * np.concatenate((np.repeat(index, g, axis=1).ravel(), index[1:].ravel(), index[:-1].ravel()))
    cols = 2 * np.concatenate((np.tile(index, g).ravel(), index[:-1].ravel(), index[1:].ravel()))
    values = np.concatenate((blocks.ravel(), op.lower.ravel(), op.upper.ravel()))
    band = np.zeros((2 * half + 1, 2 * n * g))
    for dr, dc, part in ((0, 0, values.real), (0, 1, -values.imag),
                         (1, 0, values.imag), (1, 1, values.real)):
        band[half + (rows + dr) - (cols + dc), cols + dc] = part
    return band, half


def lsoda_propagate(op: Operator, y: np.ndarray, t0: float, t_eval: np.ndarray,
                    rtol: float, atol: float) -> np.ndarray:
    """The state at every time of ``t_eval`` (the last one ends the phase that
    starts at ``t0``), stepped by LSODA at ``rtol``/``atol``.

    At rtol 1e-10 / atol 1e-12, a full paper-literal transfer at n = 16 is
    3.2e-8 off a 40-digit expm, so a comparison with the exact propagators
    runs at 1e-12 / 1e-14.
    """
    n, g = y.shape
    band, half = real_band(op)
    evals = 0

    def fun(t, v):
        nonlocal evals
        evals += 1
        if evals > MAX_RHS_PER_PHASE:
            raise RuntimeError(
                f"LSODA exceeded {MAX_RHS_PER_PHASE} right-hand-side evaluations; "
                f"stopped at t = {t:g} s"
            )
        return (op @ v.view(np.complex128).reshape(n, g)).ravel().view(np.float64)

    sol = sd.solve_ivp(fun, (t0, t_eval[-1]), y.ravel().view(np.float64), method="LSODA",
                       t_eval=t_eval, rtol=rtol, atol=atol, jac=lambda t, v: band,
                       lband=half, uband=half)
    assert sol.success, f"LSODA failed; nfev={sol.nfev}: {sol.message}"
    return sol.y.T.copy().view(np.complex128).reshape(len(t_eval), n, g)


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
