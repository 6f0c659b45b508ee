"""Coupled optical / alkali / noble-gas spin dynamics on a radial grid.

Method of lines: the spherically symmetric Laplacian is discretised in
flux form on a uniform cell-centred grid with exact shell volumes, so
diffusion conserves the linear volume moment under a reflective wall and
the operator is second-order accurate.

Every schedule phase has constant controls, so within a phase the fields
obey a linear system y' = A y with a constant sparse A. The state is stored
node by node, (P_0, S_0, K_0, P_1, ...), which makes the real form of A
banded with seven sub- and super-diagonals. A is assembled once per phase
and integrated by LSODA with that band as its exact Jacobian: LSODA switches
between non-stiff Adams and stiff BDF steps by itself, so the stiff
diffusive storage and the lossless exchange oscillation both run with the
same solver. Integration restarts at every control discontinuity.

Boundary conditions follow the wall physics: the alkali spin wave is
destroyed at the glass wall (value pinned to zero at the wall face), the
noble-gas spin sees a reflective wall (zero flux). The origin carries no
flux by spherical symmetry.

The optical stage is collapsed into the initial alkali load by default:
the optical polarization decays orders of magnitude faster than anything
else. A full three-field mode is available by giving ``integrate`` an
initial state with optical amplitude and a schedule with non-zero control
windows; the stiff solver carries the fast optical decay at protocol length.

scipy (``sparse`` for the operators, ``integrate`` for LSODA) is imported on
first use: importing this module loads no scipy, only a protocol solve does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .afc import EnsembleParams
from .formatting import csv_floats

__all__ = [
    "SolverFailure",
    "RadialGrid",
    "SpinFieldState",
    "ProtocolSchedule",
    "SolverConfig",
    "Trajectory",
    "ProtocolResult",
    "radial_laplacian",
    "rhs",
    "initial_state",
    "integrate",
    "simulate_protocol",
    "write_kymograph_csv",
]

INITIAL_PROFILES = ("uniform", "fundamental-mode")

# Real-form half bandwidth of a phase operator: with three complex fields per
# node the Laplacian couples indices three apart, i.e. six reals, plus one for
# the real/imaginary pair.
_BAND = 7


class SolverFailure(RuntimeError):
    """Adaptive time stepping could not satisfy the requested tolerances."""


class RadialGrid:
    """Uniform cell-centred radial grid on (0, R].

    Cells are the spherical shells [i*dr, (i+1)*dr) with dr = R / point_count;
    nodes sit at the cell centres. ``shell_volumes`` holds the exact values of
    the integral of r^2 dr over each cell, so that flux-form operators
    telescope exactly and volume integrals are consistent with the Laplacian.
    """

    def __init__(self, cell_radius: float, point_count: int):
        if cell_radius <= 0.0:
            raise ValueError("cell_radius must be positive")
        if point_count < 16:
            raise ValueError("point_count must be at least 16")
        self.cell_radius = float(cell_radius)
        self.point_count = int(point_count)
        self.spacing = self.cell_radius / self.point_count
        self.faces = np.linspace(0.0, self.cell_radius, self.point_count + 1)
        self.nodes = 0.5 * (self.faces[:-1] + self.faces[1:])
        self.shell_volumes = np.diff(self.faces ** 3) / 3.0

    def volume_integral(self, field: np.ndarray) -> complex:
        """Integral of field * r^2 dr over the cell."""
        return complex(np.dot(self.shell_volumes, field))

    def volume_norm_sq(self, field: np.ndarray) -> float:
        """Integral of |field|^2 r^2 dr over the cell."""
        return float(np.dot(self.shell_volumes, np.abs(field) ** 2))

    def __repr__(self):
        return f"RadialGrid(cell_radius={self.cell_radius}, point_count={self.point_count})"


def radial_laplacian(field: np.ndarray, grid: RadialGrid, bc: str) -> np.ndarray:
    """Spherically symmetric Laplacian (1/r^2) d/dr (r^2 d/dr) of a nodal field.

    Flux form with central differences at the cell faces. The origin face
    carries zero flux (symmetric limit of a regular field); the wall face
    uses a mirror ghost cell, with sign -f for ``bc="dirichlet"`` (value
    pinned to zero at the wall) and +f for ``bc="neumann"`` (zero flux).
    """
    f = np.asarray(field)
    if f.shape != (grid.point_count,):
        raise ValueError("field length does not match grid point count")
    dr = grid.spacing
    flux = np.empty(grid.point_count + 1, dtype=np.result_type(f.dtype, np.float64))
    flux[0] = 0.0
    flux[1:-1] = grid.faces[1:-1] ** 2 * np.diff(f) / dr
    if bc == "dirichlet":
        ghost = -f[-1]
    elif bc == "neumann":
        ghost = f[-1]
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    flux[-1] = grid.faces[-1] ** 2 * (ghost - f[-1]) / dr
    return np.diff(flux) / grid.shell_volumes


@dataclass(frozen=True)
class SpinFieldState:
    """Complex radial profiles of the three collective fields at one instant."""

    optical: np.ndarray   # cavity-driven optical polarization P
    alkali: np.ndarray    # alkali spin wave S
    noble: np.ndarray     # noble-gas spin wave K
    time: float = 0.0

    def __post_init__(self):
        n = len(self.alkali)
        if len(self.optical) != n or len(self.noble) != n:
            raise ValueError("field arrays must share one length")

    def total_norm_sq(self, grid: RadialGrid) -> float:
        """Volume-weighted norm |P|^2 + |S|^2 + |K|^2."""
        return (
            grid.volume_norm_sq(self.optical)
            + grid.volume_norm_sq(self.alkali)
            + grid.volume_norm_sq(self.noble)
        )


@dataclass(frozen=True)
class ProtocolSchedule:
    """Timing of one write / transfer / store / retrieve / read cycle.

    All durations in seconds. ``exchange_window`` is the alkali/noble
    transfer time T'; None selects pi / (2 J) for a complete transfer.
    The optical control (Rabi frequency) acts only during the write and
    read windows; the exchange coupling acts only during the two transfer
    windows. Zero-length windows are skipped.
    """

    write_time: float = 0.0
    dark_interval: float = 0.0
    read_time: float = 0.0
    rabi_frequency: float = 0.0
    exchange_window: float | None = None

    def __post_init__(self):
        if not all(d >= 0.0 for d in (self.write_time, self.dark_interval, self.read_time)):
            raise ValueError("schedule durations must be non-negative")
        if not self.rabi_frequency >= 0.0:
            raise ValueError("rabi_frequency must be non-negative")
        if self.exchange_window is not None and not self.exchange_window >= 0.0:
            raise ValueError("exchange_window must be non-negative")

    def resolve_exchange_window(self, ens: EnsembleParams) -> float:
        if self.exchange_window is not None:
            return self.exchange_window
        if ens.exchange_coupling <= 0.0:
            raise ValueError("exchange_window is required when the exchange coupling is zero")
        return math.pi / (2.0 * ens.exchange_coupling)


@dataclass(frozen=True)
class SolverConfig:
    """Adaptive-integrator tolerances and the initial spatial profile."""

    relative_tolerance: float = 1e-10
    absolute_tolerance: float = 1e-12
    max_step: float = math.inf
    initial_profile: str = "uniform"

    def __post_init__(self):
        if not (self.relative_tolerance > 0.0 and self.absolute_tolerance > 0.0):
            raise ValueError("tolerances must be positive")
        if self.initial_profile not in INITIAL_PROFILES:
            raise ValueError(f"initial_profile must be one of {INITIAL_PROFILES}")


@dataclass(frozen=True)
class Trajectory:
    """Field profiles sampled along one integration, immutable once built."""

    times: np.ndarray     # (nt,)
    optical: np.ndarray   # (nt, nr)
    alkali: np.ndarray    # (nt, nr)
    noble: np.ndarray     # (nt, nr)

    def state_at(self, index: int) -> SpinFieldState:
        return SpinFieldState(
            optical=self.optical[index],
            alkali=self.alkali[index],
            noble=self.noble[index],
            time=float(self.times[index]),
        )


@dataclass(frozen=True)
class ProtocolResult:
    """Kymographs and retrieved efficiency of one full protocol run."""

    times: np.ndarray          # (nt,)
    radii_over_r: np.ndarray   # (nr,)
    kymograph_alkali: np.ndarray   # (nt, nr), |S|^2 normalized to the initial peak
    kymograph_noble: np.ndarray    # (nt, nr), |K|^2 normalized likewise
    eta_mem: float
    retrieval_time: float
    trajectory: Trajectory


def rhs(
    state: SpinFieldState,
    ens: EnsembleParams,
    grid: RadialGrid,
    control_rabi: float = 0.0,
    exchange_coupling: float | None = None,
    comb_detuning: float = 0.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dP, dS, dK) of the coupled field equations.

    dP = -(gamma_p + i delta_bar) P + i Omega S
    dS = -(gamma_s + i delta_s) S + D_a lap(S) + i Omega P - i J K
    dK = -(gamma_k + i delta_k) K + D_b lap(K) - i J S

    with a Dirichlet wall for S and a Neumann wall for K. The control Rabi
    frequency is taken real; ``exchange_coupling`` overrides the ensemble
    value so schedule phases can switch the exchange off (pass 0.0).
    Absorption enters as the initial condition, not as a drive term. The
    solver integrates the same equations as one assembled operator per
    phase; this function is their reference form.
    """
    j = ens.exchange_coupling if exchange_coupling is None else exchange_coupling
    p, s, k = state.optical, state.alkali, state.noble
    dp = -(ens.optical_decay + 1j * comb_detuning) * p + 1j * control_rabi * s
    ds = (
        -(ens.alkali_decay + 1j * ens.alkali_detuning) * s
        + 1j * control_rabi * p
        - 1j * j * k
    )
    dk = -(ens.noble_decay + 1j * ens.noble_detuning) * k - 1j * j * s
    if ens.alkali_diffusion != 0.0:
        ds = ds + ens.alkali_diffusion * radial_laplacian(s, grid, "dirichlet")
    if ens.noble_diffusion != 0.0:
        dk = dk + ens.noble_diffusion * radial_laplacian(k, grid, "neumann")
    return dp, ds, dk


def initial_state(grid: RadialGrid, profile: str = "uniform") -> SpinFieldState:
    """Alkali-loaded state with unit volume norm; optical and noble fields empty."""
    if profile == "uniform":
        s = np.ones(grid.point_count, dtype=np.complex128)
    elif profile == "fundamental-mode":
        x = math.pi * grid.nodes / grid.cell_radius
        s = (np.sin(x) / x).astype(np.complex128)
    else:
        raise ValueError(f"initial_profile must be one of {INITIAL_PROFILES}")
    s /= math.sqrt(grid.volume_norm_sq(s))
    zeros = np.zeros_like(s)
    return SpinFieldState(optical=zeros, alkali=s, noble=zeros.copy(), time=0.0)


def _laplacian_matrix(grid: RadialGrid, bc: str):
    """Tridiagonal matrix form of ``radial_laplacian`` (a scipy.sparse array)."""
    from scipy import sparse

    a = grid.faces ** 2 / grid.spacing  # face conductances; zero at the origin
    if bc == "dirichlet":
        a[-1] *= 2.0  # mirror ghost -f: the wall face sees twice the jump
    elif bc == "neumann":
        a[-1] = 0.0
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    v = grid.shell_volumes
    return sparse.diags_array(
        [a[1:-1] / v[1:], -(a[:-1] + a[1:]) / v, a[1:-1] / v[:-1]], offsets=[-1, 0, 1]
    )


def _phase_operator(ens, grid, control_rabi, exchange_coupling, comb_detuning=0.0):
    """The constant matrix A of y' = A y in one phase, nodes interleaved.

    Row/column 3 i + f holds field f (0 = P, 1 = S, 2 = K) at node i: a
    local 3x3 block of decay, detuning and coupling terms on every node,
    plus the diffusion stencils of S and K. Implements the equations of
    ``rhs``.
    """
    from scipy import sparse

    i_omega, i_j = 1j * control_rabi, 1j * exchange_coupling
    local = np.array([
        [-(ens.optical_decay + 1j * comb_detuning), i_omega, 0.0],
        [i_omega, -(ens.alkali_decay + 1j * ens.alkali_detuning), -i_j],
        [0.0, -i_j, -(ens.noble_decay + 1j * ens.noble_detuning)],
    ])
    # format="csr" keeps kron off its dense-block (BSR) path, whose stored
    # zeros would widen the band.
    a = sparse.kron(sparse.eye_array(grid.point_count), local, format="csr")
    for field, d, bc in ((1, ens.alkali_diffusion, "dirichlet"), (2, ens.noble_diffusion, "neumann")):
        pick = np.zeros((3, 3))
        pick[field, field] = d
        a = a + sparse.kron(_laplacian_matrix(grid, bc), pick, format="csr")
    return a


def _real_band(a) -> np.ndarray:
    """Real form of a complex operator in the packed banded layout of LSODA."""
    coo = a.tocoo()
    rows, cols = 2 * coo.row, 2 * coo.col
    band = np.zeros((2 * _BAND + 1, 2 * a.shape[1]))
    for dr, dc, part in ((0, 0, coo.data.real), (0, 1, -coo.data.imag),
                         (1, 0, coo.data.imag), (1, 1, coo.data.real)):
        band[_BAND + (rows + dr) - (cols + dc), cols + dc] = part
    return band


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    ``integrate`` calls the solver through this module attribute, so that it
    can be replaced from outside (the tests force solver failures this way).
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _schedule_phases(schedule: ProtocolSchedule, ens: EnsembleParams):
    """(duration, rabi, exchange) tuples; zero-length phases dropped."""
    t_ex = schedule.resolve_exchange_window(ens)
    j = ens.exchange_coupling
    raw = [
        (schedule.write_time, schedule.rabi_frequency, 0.0),
        (t_ex, 0.0, j),
        (schedule.dark_interval, 0.0, 0.0),
        (t_ex, 0.0, j),
        (schedule.read_time, schedule.rabi_frequency, 0.0),
    ]
    return [(d, om, jj) for d, om, jj in raw if d > 0.0]


def schedule_duration(schedule: ProtocolSchedule, ens: EnsembleParams) -> float:
    """Total protocol time implied by a schedule."""
    return sum(d for d, _, _ in _schedule_phases(schedule, ens))


def retrieval_instant(schedule: ProtocolSchedule, ens: EnsembleParams) -> float:
    """Time at which the reverse transfer completes and S is read back."""
    t_ex = schedule.resolve_exchange_window(ens)
    return schedule.write_time + 2.0 * t_ex + schedule.dark_interval


def integrate(
    initial: SpinFieldState,
    schedule: ProtocolSchedule,
    ens: EnsembleParams,
    grid: RadialGrid,
    solver: SolverConfig | None = None,
    sample_times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate one protocol schedule from an initial state.

    Each schedule phase has constant control values, so the integration is
    restarted at every phase boundary (exact event handling at the control
    discontinuities). Within a phase the assembled operator A is integrated
    by LSODA with its real band as the constant Jacobian; the solver picks
    Adams or BDF steps from the stiffness it observes. Dense output is
    evaluated at ``sample_times``; phase boundaries are always included.
    Raises :class:`SolverFailure`, naming the phase and the solver counts,
    when the stepper cannot reach the requested tolerances.
    """
    solver = solver or SolverConfig()
    phases = _schedule_phases(schedule, ens)
    total = sum(d for d, _, _ in phases)

    requested = np.array([], dtype=float) if sample_times is None else np.asarray(sample_times, dtype=float)
    if requested.size and (requested.min() < 0.0 or requested.max() > total * (1.0 + 1e-12)):
        raise ValueError("sample_times must lie within the schedule duration")

    n = grid.point_count
    # Real state; its complex view is (P, S, K) node by node.
    y = np.stack((initial.optical, initial.alkali, initial.noble), axis=1)
    y = y.astype(np.complex128).ravel().view(np.float64)

    times = [0.0]
    frames = [y]

    t0 = 0.0
    for index, (duration, omega, j_value) in enumerate(phases):
        t1 = t0 + duration
        inside = requested[(requested > t0 + 1e-15 * max(t1, 1.0)) & (requested < t1 - 1e-15 * max(t1, 1.0))]
        t_eval = np.unique(np.concatenate((inside, [t1])))
        a = _phase_operator(ens, grid, omega, j_value)
        band = _real_band(a)
        sol = solve_ivp(
            lambda t, y: (a @ y.view(np.complex128)).view(np.float64),
            (t0, t1),
            y,
            method="LSODA",
            t_eval=t_eval,
            rtol=solver.relative_tolerance,
            atol=solver.absolute_tolerance,
            max_step=solver.max_step,
            jac=lambda t, y: band,
            lband=_BAND,
            uband=_BAND,
        )
        if not sol.success:
            raise SolverFailure(
                f"time integration failed in phase {index + 1} of {len(phases)} "
                f"(t = {t0:g} to {t1:g} s; nfev={sol.nfev}, njev={sol.njev}, "
                f"nlu={sol.nlu}): {sol.message}"
            )
        times.extend(sol.t)
        # Per-sample copies fit the memory that solve_ivp freed after sampling,
        # so sol.y is released before the one final stack below (lower peak RSS
        # than keeping sol.y and concatenating).
        frames.extend(np.array(row) for row in sol.y.T)
        y = frames[-1]
        t0 = t1

    stacked = np.array(frames).view(np.complex128).reshape(len(times), n, 3)
    return Trajectory(
        times=np.array(times),
        optical=stacked[:, :, 0],
        alkali=stacked[:, :, 1],
        noble=stacked[:, :, 2],
    )


def simulate_protocol(
    ens: EnsembleParams,
    schedule: ProtocolSchedule,
    grid: RadialGrid,
    solver: SolverConfig | None = None,
    time_samples: int = 201,
) -> ProtocolResult:
    """Run write, transfer, storage, reverse transfer and read; report kymographs.

    The alkali spin is loaded at t = 0 with the profile selected in the
    solver config and unit volume norm. The memory efficiency is the ratio
    of the retrieved to the loaded alkali volume norm, measured when the
    reverse transfer completes. Kymographs are |S|^2 and |K|^2 on a uniform
    time grid, normalized so the initial alkali profile peaks at 1.
    """
    solver = solver or SolverConfig()
    if time_samples < 2:
        raise ValueError("time_samples must be at least 2")
    state0 = initial_state(grid, solver.initial_profile)
    total = schedule_duration(schedule, ens)
    t_ret = retrieval_instant(schedule, ens)
    samples = np.unique(np.concatenate((np.linspace(0.0, total, time_samples), [t_ret])))
    traj = integrate(state0, schedule, ens, grid, solver, sample_times=samples)

    idx_ret = int(np.argmin(np.abs(traj.times - t_ret)))
    norm_in = grid.volume_norm_sq(state0.alkali)
    norm_out = grid.volume_norm_sq(traj.alkali[idx_ret])
    eta = norm_out / norm_in

    peak0 = float(np.max(np.abs(state0.alkali) ** 2))
    return ProtocolResult(
        times=traj.times,
        radii_over_r=grid.nodes / grid.cell_radius,
        kymograph_alkali=np.abs(traj.alkali) ** 2 / peak0,
        kymograph_noble=np.abs(traj.noble) ** 2 / peak0,
        eta_mem=eta,
        retrieval_time=t_ret,
        trajectory=traj,
    )


def write_kymograph_csv(path, result: ProtocolResult, columns=("S_norm", "K_norm")) -> None:
    """Write a kymograph export: one line per (t, r), row-major in time.

    ``columns`` picks the fields after t_seconds and r_over_R: the combined
    export has both, a per-field file one. Radii are formatted once and the
    file is written one time sample at a time.
    """
    by_name = {"S_norm": result.kymograph_alkali, "K_norm": result.kymograph_noble}
    arrays = [by_name[c] for c in columns]
    radii = csv_floats(result.radii_over_r.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(("t_seconds", "r_over_R", *columns)) + "\n")
        for i, t in enumerate(csv_floats(result.times.tolist())):
            values = zip(radii, *(csv_floats(a[i].tolist()) for a in arrays))
            handle.write("".join(f"{t},{','.join(row)}\n" for row in values))
