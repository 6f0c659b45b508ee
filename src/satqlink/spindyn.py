"""Coupled optical / alkali / noble-gas spin dynamics on a radial grid.

Method of lines: the spherically symmetric Laplacian is discretised in
flux form on a uniform cell-centred grid with exact shell volumes, so
diffusion conserves the linear volume moment under a reflective wall and
the operator is second-order accurate.

Every schedule phase has constant controls, so within a phase the fields
obey a linear system y' = A y with a constant A, and the state at any time
of the phase is exp(tau A) y0. A is assembled once per phase from a 3x3
block that acts at every node (decay, detuning, control and exchange
couplings) and the tridiagonal diffusion stencils of S and K. Fields that
no coupling of the phase links are propagated one by one and exactly: the
flux-form Laplacian is symmetric once scaled by the square root of the
shell volumes, so ``numpy.linalg.eigh`` diagonalises it and every sample
of the phase is one matrix product. Coupled fields ({S, K} in a transfer,
{P, S} in an optical window) take a scaled, truncated Taylor series of the
exponential applied to the state (Al-Mohy & Higham, SIAM J. Sci. Comput.
33, 488 (2011)) on the stencils, as long as its cost, ||A - mu I||_1 times
the phase duration, stays below ``_TAYLOR_LIMIT``. A costlier group, such
as a transfer of the ``paper-literal`` preset, is integrated by LSODA with
its real band as the exact Jacobian. Integration restarts at every control
discontinuity.

Boundary conditions follow the wall physics: the alkali spin wave is
destroyed at the glass wall (value pinned to zero at the wall face), the
noble-gas spin sees a reflective wall (zero flux). The origin carries no
flux by spherical symmetry.

The optical stage is collapsed into the initial alkali load by default:
the optical polarization decays orders of magnitude faster than anything
else. A full three-field mode is available by giving ``integrate`` an
initial state with optical amplitude and a schedule with non-zero control
windows.

Only the LSODA fallback needs scipy (``scipy.integrate``), and it imports
it on its first call: a protocol that never reaches the fallback loads no
scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .afc import EnsembleParams
from .config import INITIAL_PROFILES
from .formatting import csv_floats

__all__ = [
    "SolverFailure",
    "RadialGrid",
    "SpinFieldState",
    "ProtocolSchedule",
    "Trajectory",
    "ProtocolResult",
    "radial_laplacian",
    "rhs",
    "initial_state",
    "integrate",
    "simulate_protocol",
    "write_kymograph_csv",
]

# Largest ||A - mu I||_1 * duration of a coupled group that the Taylor
# propagator takes on; a costlier group goes to LSODA. Taylor takes about
# three stencil products per unit of it, LSODA a step count that grows far
# more slowly. At n = 256 on 2 vCPUs a group of this cost takes Taylor
# 0.25 s, LSODA 0.10-0.18 s plus 0.57 s to import scipy.integrate once.
_TAYLOR_LIMIT = 2e3

# Taylor degree m -> theta_m, the largest ||h (A - mu I)||_1 at which the
# degree-m truncation of exp has backward error below 2^-53 (Al-Mohy &
# Higham 2011, Table 3.1).
_THETA = {
    5: 2.40e-3, 10: 1.44e-1, 15: 6.41e-1, 20: 1.44, 25: 2.43, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}

# Right-hand-side evaluations one LSODA phase may take: about 20x the largest
# phase of a legitimate run, so that a runaway phase fails instead of never
# ending.
_MAX_RHS_PER_PHASE = 200_000

# LSODA tolerances of every phase it steps. At these values the default
# protocol, stepped by LSODA alone, gave an eta within 2.1e-10 of a tight
# explicit Runge-Kutta reference (rtol 1e-12).
_RTOL = 1e-10
_ATOL = 1e-12


class SolverFailure(RuntimeError):
    """A phase propagator failed: a linear-algebra routine did not converge, a
    phase ended in a non-finite state, or LSODA missed its tolerances or spent
    its evaluation budget."""


class RadialGrid:
    """Uniform cell-centred radial grid on (0, R].

    Cells are the spherical shells [i*dr, (i+1)*dr) with dr = R / point_count;
    nodes sit at the cell centres. ``shell_volumes`` holds the exact values of
    the integral of r^2 dr over each cell, so that flux-form operators
    telescope exactly and volume integrals are consistent with the Laplacian.
    """

    def __init__(self, cell_radius: float, point_count: int):
        if not cell_radius > 0.0:
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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time derivatives (dP, dS, dK) of the coupled field equations.

    dP = -gamma_p P + i Omega S
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
    dp = -ens.optical_decay * p + 1j * control_rabi * s
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
    return SpinFieldState(optical=zeros, alkali=s, noble=zeros.copy())


def _laplacian_diagonals(grid: RadialGrid, bc: str):
    """(lower, diagonal, upper) of ``radial_laplacian`` as a tridiagonal matrix."""
    a = grid.faces ** 2 / grid.spacing  # face conductances; zero at the origin
    if bc == "dirichlet":
        a[-1] *= 2.0  # mirror ghost -f: the wall face sees twice the jump
    elif bc == "neumann":
        a[-1] = 0.0
    else:
        raise ValueError(f"unknown boundary condition {bc!r}")
    v = grid.shell_volumes
    return a[1:-1] / v[1:], -(a[:-1] + a[1:]) / v, a[1:-1] / v[:-1]


@dataclass(frozen=True)
class _Operator:
    """The constant A of y' = A y for an (n, g) state of g fields, node by node.

    ``local`` (g x g) acts at every node: decay and detuning on its diagonal,
    the control and exchange couplings off it. Column f of ``lower`` (n-1),
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

    def fields(self, picked: list) -> _Operator:
        """The block of A that acts on the fields ``picked`` (column indices)."""
        return _Operator(self.local[np.ix_(picked, picked)], self.lower[:, picked],
                         self.diag[:, picked], self.upper[:, picked])

    def centred(self) -> tuple[complex, _Operator]:
        """mu = trace(A) / size, and A - mu I."""
        mu = self.diag.mean() + np.diag(self.local).mean()
        return mu, replace(self, diag=self.diag - mu)

    def norm1(self) -> float:
        """Largest column sum of |A|."""
        local = np.abs(self.local)
        col = np.abs(self.diag + np.diag(self.local)) + local.sum(axis=0) - np.diag(local)
        col[:-1] += np.abs(self.lower)  # column i holds lower[i] in row i + 1
        col[1:] += np.abs(self.upper)   # and upper[i - 1] in row i - 1
        return float(col.max())


def _phase_operator(ens, grid, control_rabi, exchange_coupling) -> _Operator:
    """The operator of one phase on the state (P, S, K) node by node.

    Implements the equations of ``rhs``: field 0 is P, 1 is S and 2 is K.
    """
    i_omega, i_j = 1j * control_rabi, 1j * exchange_coupling
    local = np.array([
        [-ens.optical_decay, i_omega, 0.0],
        [i_omega, -(ens.alkali_decay + 1j * ens.alkali_detuning), -i_j],
        [0.0, -i_j, -(ens.noble_decay + 1j * ens.noble_detuning)],
    ])
    n = grid.point_count
    lower, diag, upper = np.zeros((n - 1, 3)), np.zeros((n, 3)), np.zeros((n - 1, 3))
    for field, d, bc in ((1, ens.alkali_diffusion, "dirichlet"), (2, ens.noble_diffusion, "neumann")):
        lo, di, up = _laplacian_diagonals(grid, bc)
        lower[:, field], diag[:, field], upper[:, field] = d * lo, d * di, d * up
    return _Operator(local, lower, diag, upper)


def _coupled_groups(local: np.ndarray) -> list:
    """The fields that the off-diagonal entries of ``local`` connect, as sorted lists."""
    linked = (local != 0.0) | (local.T != 0.0)
    groups = []
    for f in range(len(local)):
        joined = [g for g in groups if linked[f, g].any()]
        groups = [g for g in groups if g not in joined]
        groups.append(sorted([f] + [h for g in joined for h in g]))
    return groups


def _eigen_propagate(op: _Operator, grid: RadialGrid, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(tau A) y at every tau of ``taus`` for one field y (n,), exactly.

    D L is similar to the symmetric matrix V^(1/2) D L V^(-1/2) (V the shell
    volumes), whose off-diagonal is the geometric mean of L's two. One
    ``eigh`` of it gives the modes; each sample is then a product of mode
    amplitudes and exponentials.
    """
    c = op.local[0, 0]
    if not y.any():
        return np.zeros((len(taus), len(y)), dtype=np.complex128)
    if not op.diag.any():
        return np.exp(c * taus)[:, None] * y
    off = np.sqrt(op.lower[:, 0] * op.upper[:, 0])
    lam, q = np.linalg.eigh(np.diag(op.diag[:, 0]) + np.diag(off, 1) + np.diag(off, -1))
    # The flux-form Laplacian is negative semi-definite; clipping the rounding
    # of the Neumann zero mode keeps exp from growing over very long phases.
    lam = np.minimum(lam, 0.0)
    root = np.sqrt(grid.shell_volumes)
    modes = q.T @ (root * y)
    return (np.exp(np.outer(taus, c + lam)) * modes) @ q.T / root


def _taylor_steps(x: float) -> tuple[int, int]:
    """(substeps s, degree m) with the fewest products s m such that x / s <= theta_m."""
    return min(((max(1, math.ceil(x / theta)), m) for m, theta in _THETA.items()),
               key=lambda sm: sm[0] * sm[1])


def _taylor_propagate(mu: complex, shifted: _Operator, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(tau A) y at every increasing tau of ``taus``, for A = ``shifted`` +
    ``mu`` I, by a scaled, truncated Taylor series from one sample to the
    next (Al-Mohy & Higham 2011, Algorithm 3.2)."""
    norm = shifted.norm1()
    frames = np.empty((len(taus),) + y.shape, dtype=np.complex128)
    previous = 0.0
    for i, tau in enumerate(taus):
        h, previous = tau - previous, tau
        s, m = _taylor_steps(norm * h)
        for _ in range(s):
            term, total = y, y
            last = np.abs(term).max()
            for k in range(1, m + 1):
                term = (h / (s * k)) * (shifted @ term)
                size = np.abs(term).max()
                total = total + term
                if last + size <= 2.0 ** -53 * np.abs(total).max():
                    break
                last = size
            y = np.exp(mu * h / s) * total
        frames[i] = y
    return frames


def _real_band(op: _Operator) -> tuple[np.ndarray, int]:
    """Real form of A on the interleaved state, in the packed banded layout of
    LSODA, and its half bandwidth: the stencils couple complex indices g
    apart, that is 2 g reals, plus one for the real/imaginary pair."""
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


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    The LSODA fallback calls the solver through this module attribute, so
    that it can be replaced from outside (the tests force solver failures
    this way).
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _lsoda_propagate(op: _Operator, y: np.ndarray, t0: float, t_eval: np.ndarray, where: str) -> np.ndarray:
    """The state at every time of ``t_eval`` (the last one ends the phase that
    starts at ``t0``), stepped by LSODA at ``_RTOL``/``_ATOL``."""
    n, g = y.shape
    band, half = _real_band(op)
    evals = 0

    def fun(t, v):
        nonlocal evals
        evals += 1
        if evals > _MAX_RHS_PER_PHASE:
            raise SolverFailure(
                f"{where} exceeded {_MAX_RHS_PER_PHASE} right-hand-side evaluations; "
                f"stopped at t = {t:g} s"
            )
        return (op @ v.view(np.complex128).reshape(n, g)).ravel().view(np.float64)

    sol = solve_ivp(fun, (t0, t_eval[-1]), y.ravel().view(np.float64), method="LSODA",
                    t_eval=t_eval, rtol=_RTOL, atol=_ATOL, jac=lambda t, v: band,
                    lband=half, uband=half)
    if not sol.success:
        raise SolverFailure(
            f"time integration failed in {where}; nfev={sol.nfev}, njev={sol.njev}, "
            f"nlu={sol.nlu}: {sol.message}"
        )
    return sol.y.T.copy().view(np.complex128).reshape(len(t_eval), n, g)


def _propagate(op: _Operator, grid: RadialGrid, y: np.ndarray, t0: float,
               t_eval: np.ndarray, where: str) -> np.ndarray:
    """The (n, 3) state at every time of ``t_eval`` in the phase that starts
    at ``t0`` from state ``y``: each single field exactly, each coupled group
    by Taylor or, above ``_TAYLOR_LIMIT``, by LSODA."""
    taus = t_eval - t0
    frames = np.empty((len(t_eval),) + y.shape, dtype=np.complex128)
    for group in _coupled_groups(op.local):
        block = op.fields(group)
        mu, centred = block.centred()
        if len(group) == 1:
            frames[:, :, group[0]] = _eigen_propagate(block, grid, y[:, group[0]], taus)
        elif centred.norm1() * taus[-1] <= _TAYLOR_LIMIT:
            frames[:, :, group] = _taylor_propagate(mu, centred, y[:, group], taus)
        else:
            frames[:, :, group] = _lsoda_propagate(block, y[:, group], t0, t_eval, where)
    return frames


def _schedule_phases(schedule: ProtocolSchedule, ens: EnsembleParams):
    """(duration, rabi, exchange) of write, transfer, storage, reverse
    transfer and read, in that order; zero-length phases dropped."""
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
    """Time at which the reverse transfer completes and S is read back.

    The read window is the last phase, so this is the duration of the
    schedule without it, summed phase by phase exactly as ``integrate``
    accumulates its phase boundaries: the result is one of them, bit for bit.
    """
    return schedule_duration(replace(schedule, read_time=0.0), ens)


def integrate(
    initial: SpinFieldState,
    schedule: ProtocolSchedule,
    ens: EnsembleParams,
    grid: RadialGrid,
    sample_times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate one protocol schedule from an initial state.

    Each schedule phase has constant control values, so the propagation is
    restarted at every phase boundary (exact event handling at the control
    discontinuities). Within a phase, fields that no coupling links are
    propagated exactly through the eigenmodes of their diffusion operator,
    and each coupled group by a truncated Taylor series of the exponential,
    or by LSODA at ``_RTOL``/``_ATOL`` when the Taylor cost would exceed
    ``_TAYLOR_LIMIT``. States are evaluated at ``sample_times``; phase
    boundaries are always included. Raises :class:`SolverFailure`, naming
    the phase, when a linear-algebra routine fails, a phase ends in a
    non-finite state, or LSODA cannot reach its tolerances or exceeds
    ``_MAX_RHS_PER_PHASE``; and ValueError for a phase that still matters
    but is shorter than the float resolution of its start time.
    """
    phases = _schedule_phases(schedule, ens)
    total = sum(d for d, _, _ in phases)

    requested = np.array([], dtype=float) if sample_times is None else np.asarray(sample_times, dtype=float)
    if requested.size and (requested.min() < 0.0 or requested.max() > total * (1.0 + 1e-12)):
        raise ValueError("sample_times must lie within the schedule duration")

    y = np.stack((initial.optical, initial.alkali, initial.noble), axis=1).astype(np.complex128)
    times = [0.0]
    frames = [y[None]]

    t0 = 0.0
    for index, (duration, omega, j_value) in enumerate(phases):
        t1 = t0 + duration
        a = _phase_operator(ens, grid, omega, j_value)
        if t1 == t0:
            # exp(duration A) moves the state by at most about ||A||_1 duration.
            if duration * a.norm1() > _RTOL:
                raise ValueError(
                    f"phase {index + 1} of {len(phases)} ({duration:g} s) is shorter than "
                    f"the time resolution at t = {t0:g} s"
                )
            continue
        inside = requested[(requested > t0 + 1e-15 * max(t1, 1.0)) & (requested < t1 - 1e-15 * max(t1, 1.0))]
        t_eval = np.unique(np.concatenate((inside, [t1])))
        where = f"phase {index + 1} of {len(phases)} (t = {t0:g} to {t1:g} s)"
        try:
            block = _propagate(a, grid, y, t0, t_eval, where)
        except np.linalg.LinAlgError as exc:
            raise SolverFailure(f"{where}: {exc}") from exc
        if not np.isfinite(block[-1]).all():
            raise SolverFailure(f"{where} ended in a non-finite state")
        times.extend(t_eval)
        frames.append(block)
        y = block[-1]
        t0 = t1

    stacked = np.concatenate(frames)
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
    profile: str = "uniform",
    *,
    time_samples: int,
) -> ProtocolResult:
    """Run write, transfer, storage, reverse transfer and read; report kymographs.

    The alkali spin is loaded at t = 0 with the given initial profile and
    unit volume norm. The memory efficiency is the ratio of the retrieved to
    the loaded alkali volume norm, measured when the reverse transfer
    completes (a phase boundary, so always sampled). Kymographs are |S|^2
    and |K|^2 on a uniform time grid of ``time_samples`` points plus the
    phase boundaries, normalized so the initial alkali profile peaks at 1.
    """
    if time_samples < 2:
        raise ValueError("time_samples must be at least 2")
    state0 = initial_state(grid, profile)
    t_ret = retrieval_instant(schedule, ens)
    samples = np.linspace(0.0, schedule_duration(schedule, ens), time_samples)
    traj = integrate(state0, schedule, ens, grid, sample_times=samples)

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


def write_kymograph_csv(out_dir, result: ProtocolResult) -> None:
    """Write ``kymograph_s.csv``, ``kymograph_k.csv`` and ``kymograph.csv``
    into the directory ``out_dir`` (a ``pathlib.Path``).

    One line per (t, r), row-major in time: t_seconds and r_over_R, then
    S_norm, K_norm or both. One pass over time formats each value once and
    writes that time sample to all three files.
    """
    radii = csv_floats(result.radii_over_r.tolist())
    with (
        open(out_dir / "kymograph_s.csv", "w", encoding="utf-8", newline="\n") as s_file,
        open(out_dir / "kymograph_k.csv", "w", encoding="utf-8", newline="\n") as k_file,
        open(out_dir / "kymograph.csv", "w", encoding="utf-8", newline="\n") as both_file,
    ):
        s_file.write("t_seconds,r_over_R,S_norm\n")
        k_file.write("t_seconds,r_over_R,K_norm\n")
        both_file.write("t_seconds,r_over_R,S_norm,K_norm\n")
        for i, t in enumerate(csv_floats(result.times.tolist())):
            lead = [f"{t},{r}," for r in radii]
            s = csv_floats(result.kymograph_alkali[i].tolist())
            k = csv_floats(result.kymograph_noble[i].tolist())
            s_file.write("".join(f"{a}{b}\n" for a, b in zip(lead, s)))
            k_file.write("".join(f"{a}{b}\n" for a, b in zip(lead, k)))
            both_file.write("".join(f"{a}{b},{c}\n" for a, b, c in zip(lead, s, k)))
