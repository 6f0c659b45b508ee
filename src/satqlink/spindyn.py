"""Coupled optical / alkali / noble-gas spin dynamics on a radial grid.

Method of lines: the spherically symmetric Laplacian is discretised in
flux form on a uniform cell-centred grid with exact shell volumes, so
diffusion conserves the linear volume moment under a reflective wall and
the operator is second-order accurate.

Every schedule phase has constant controls, so within a phase the fields
obey a linear system y' = A y with a constant A (``_phase_operator``), and
the state at any time of the phase is exp(tau A) y0. ``_plan`` settles each
phase before any linear algebra: its sample times, every refusal, and its
``_groups``, read from its two switches, which say how each coupled group is
propagated: the eigenbasis of the Laplacian (``numpy.linalg.eigh``, once
per grid and wall condition) in which it splits into closed-form blocks per
mode, and the step of the Talbot contour quadrature (Trefethen, Weideman &
Schmelzer, BIT 46, 653 (2006)) that sums the wall term of an {S, K}
transfer. Integration restarts at every control discontinuity.

Boundary conditions follow the wall physics: the alkali spin wave is
destroyed at the glass wall (value pinned to zero at the wall face), the
noble-gas spin sees a reflective wall (zero flux). The origin carries no
flux by spherical symmetry.

The optical stage is collapsed into the initial alkali load by default:
the optical polarization decays orders of magnitude faster than anything
else. A full three-field mode is available by giving ``integrate`` an
initial state with optical amplitude and a schedule with non-zero control
windows.

The propagators need numpy only. The tests hold them to a dense matrix
exponential of each coupled group of the same equations, storage to the
continuum series of diffusion in a sphere, and the ``memory`` runs of the
command table to golden kymographs (``tests/references.py``).
"""

import math
from typing import Annotated

import numpy as np

from .config import INITIAL_PROFILES
from .domain import FINITE, NON_NEGATIVE, POSITIVE, ConfigError, Domain, Record, SolverFailure, require
from .formatting import write_long_csv

__all__ = [
    "SolverFailure",
    "EnsembleParams",
    "RadialGrid",
    "SpinFieldState",
    "ProtocolSchedule",
    "Trajectory",
    "ProtocolResult",
    "radial_laplacian",
    "initial_state",
    "integrate",
    "simulate_protocol",
    "write_kymograph_csv",
]

# Nodes of the contour quadrature of a coupled group's exponential, and the
# largest step h times the imaginary extent of the group's spectrum that one
# quadrature takes on; a longer phase is split into equal steps. The extent
# comes from the detunings and couplings, not from diffusion, whose spectrum
# stays on the real axis. The quadrature error falls like 3.9^-N and its
# rounding grows with N. On rescaled transfer steps at n = 128 against a
# dense expm (largest error relative to the state, over step lengths from
# 0.02 to 1 of the transfer): 5e-11 at N = 24, 3e-14 at N = 32, 8e-14 at
# N = 40 and 2e-12 at N = 64 with span 1.5; 8e-14 at N = 32 with span 2.
_TALBOT_NODES = 32
_CONTOUR_SPAN = 1.5

# Contour steps are taken one by one (about 55 us each at n = 256), so a transfer
# of more steps is refused up front; the rescaled default takes 3, paper-literal 61.
_MAX_CONTOUR_STEPS = 100_000

# A cap on the kymograph cells a run computes and writes, so that no accepted input starts
# unbounded work; runs at it or at scenario.MAP_CELLS took 3 to 6 s, at most 245 MB and
# about 200 MB of CSV on 2 vCPUs (the slowest: memory --grid 2048 --samples 512).
_KYMOGRAPH_CELLS = Domain("at most 1048576 kymograph cells", 0, 2 ** 20)

# A phase that rounds away in its start time is skipped when exp(duration A)
# moves the state by at most this fraction of its norm; a phase that would
# move it further is an error.
_NEGLIGIBLE_PHASE = 1e-10


class EnsembleParams(Record):
    """Hybrid-cell ensemble parameters for the spin dynamics.

    Rates are s^-1 and diffusion constants m^2/s. The cell radius is the
    radius of the ``RadialGrid`` the fields are solved on.
    """

    exchange_coupling: Annotated[float, NON_NEGATIVE]   # alkali/noble coherent coupling J
    alkali_decay: Annotated[float, NON_NEGATIVE]
    noble_decay: Annotated[float, NON_NEGATIVE]
    alkali_detuning: Annotated[float, FINITE]
    noble_detuning: Annotated[float, FINITE]
    alkali_diffusion: Annotated[float, NON_NEGATIVE]
    noble_diffusion: Annotated[float, NON_NEGATIVE]
    optical_decay: Annotated[float, NON_NEGATIVE]


class RadialGrid:
    """Uniform cell-centred radial grid on (0, R].

    Cells are the spherical shells [i*dr, (i+1)*dr) with dr = R / point_count;
    nodes sit at the cell centres. ``shell_volumes`` holds the exact values of
    the integral of r^2 dr over each cell, so that flux-form operators
    telescope exactly and volume integrals are consistent with the Laplacian.
    """

    def __init__(self, cell_radius: float, point_count: int):
        require(POSITIVE, cell_radius=cell_radius)
        require(Domain("at least 16", 16), point_count=point_count)
        self.cell_radius = r = float(cell_radius)
        require(FINITE, **{"cube of cell_radius": r * r * r})  # as numpy's faces ** 3 would; r ** 3 raises
        self.point_count = int(point_count)
        self.spacing = self.cell_radius / self.point_count
        self.faces = np.linspace(0.0, self.cell_radius, self.point_count + 1)
        self.nodes = 0.5 * (self.faces[:-1] + self.faces[1:])
        self.shell_volumes = np.diff(self.faces ** 3) / 3.0
        # eigenbasis() multiplies the stencil's two off-diagonals, a product of
        # about 1.3 / spacing^4 at its largest, the first pair of cells; it
        # overflows below about 1.5e-76 m at n = 16, and eigh then fails. v0 is
        # 0 below about 4e-107 m at n = 16, and the spacing too up to 4e-323 m
        v0, v1 = self.shell_volumes[:2].tolist()
        if not (v0 > 0.0 and (a := float(self.faces[1]) ** 2 / self.spacing) / v1 * (a / v0) < math.inf):
            raise ConfigError(f"cell_radius_m must be large enough that the Laplacian of {self.point_count} "
                              f"grid points stays within the float range, got {cell_radius}")
        self._eigh = {}

    def eigenbasis(self, bc: str):
        """(eigenvalues, orthonormal eigenvectors) of the flux-form Laplacian
        under ``bc``, symmetrised by the square root of the shell volumes V: L
        is similar to V^(1/2) L V^(-1/2), whose off-diagonal is the geometric
        mean of L's two. Computed on the first call for each ``bc``."""
        if bc not in self._eigh:
            lower, diag, upper = _laplacian_diagonals(self, bc)
            off = np.sqrt(lower * upper)
            lam, q = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
            # The flux-form Laplacian is negative semi-definite; clipping the rounding
            # of the Neumann zero mode keeps exp from growing over very long phases.
            self._eigh[bc] = np.minimum(lam, 0.0), q
        return self._eigh[bc]

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


class SpinFieldState(Record):
    """Complex radial profiles of the three collective fields at one instant."""

    optical: np.ndarray   # cavity-driven optical polarization P
    alkali: np.ndarray    # alkali spin wave S
    noble: np.ndarray     # noble-gas spin wave K

    def __post_init__(self):
        n = len(self.alkali)
        if len(self.optical) != n or len(self.noble) != n:
            raise ValueError("field arrays must share one length")


class ProtocolSchedule(Record):
    """Timing of one write / transfer / store / retrieve / read cycle.

    All durations in seconds. ``exchange_window`` is the alkali/noble
    transfer time T'; None selects pi / (2 J) for a complete transfer.
    The optical control (Rabi frequency) acts only during the write and
    read windows; the exchange coupling acts only during the two transfer
    windows. Zero-length windows are skipped.
    """

    write_time: Annotated[float, NON_NEGATIVE] = 0.0
    dark_interval: Annotated[float, NON_NEGATIVE] = 0.0
    read_time: Annotated[float, NON_NEGATIVE] = 0.0
    rabi_frequency: Annotated[float, NON_NEGATIVE] = 0.0
    exchange_window: Annotated[float | None, NON_NEGATIVE] = None

    def resolve_exchange_window(self, ens: EnsembleParams) -> float:
        if self.exchange_window is not None:
            return self.exchange_window
        if ens.exchange_coupling <= 0.0:
            raise ConfigError("exchange_window is required when the exchange coupling is zero")
        window = math.pi / (2.0 * ens.exchange_coupling)  # inf for a denormal coupling
        require(POSITIVE, exchange_window=window)
        return window


class Trajectory(Record):
    """Field profiles sampled along one integration, immutable once built."""

    times: np.ndarray     # (nt,)
    optical: np.ndarray   # (nt, nr)
    alkali: np.ndarray    # (nt, nr)
    noble: np.ndarray     # (nt, nr)


class ProtocolResult(Record):
    """Kymographs and retrieved efficiency of one full protocol run."""

    times: np.ndarray          # (nt,)
    radii_over_r: np.ndarray   # (nr,)
    kymograph_alkali: np.ndarray   # (nt, nr), |S|^2 normalized to the initial peak
    kymograph_noble: np.ndarray    # (nt, nr), |K|^2 normalized likewise
    eta_mem: float


def initial_state(grid: RadialGrid, profile: str = "uniform") -> SpinFieldState:
    """Alkali-loaded state with unit volume norm; optical and noble fields empty."""
    if profile == "uniform":
        s = np.ones(grid.point_count, dtype=np.complex128)
    elif profile == "fundamental-mode":
        x = math.pi * grid.nodes / grid.cell_radius
        s = (np.sin(x) / x).astype(np.complex128)
    else:
        raise ConfigError(f"initial_profile must be one of {INITIAL_PROFILES}")
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


# Wall conditions of P, S and K: the alkali spin S is pinned to zero at the
# wall (Dirichlet); the noble-gas spin K, and P, which does not diffuse, see a
# reflective wall (Neumann).
_PINNED = np.array([False, True, False])


def _phase_operator(ens, control_rabi, exchange_coupling):
    """(local, diffusion) of one phase on the state (P, S, K) node by node.

    Field 0 is P, 1 is S and 2 is K, and y' = A y are the coupled equations

    dP = -gamma_p P + i Omega S
    dS = -(gamma_s + i delta_s) S + D_a lap(S) + i Omega P - i J K
    dK = -(gamma_k + i delta_k) K + D_b lap(K) - i J S

    with a Dirichlet wall for S and a Neumann wall for K (``radial_laplacian``).
    ``local`` (3 x 3) acts at every node: decay and detuning on its diagonal,
    the control and exchange couplings off it; ``diffusion`` holds D of P, S
    and K. The control Rabi frequency is taken real; ``exchange_coupling`` is
    the phase's J, 0.0 when the exchange is off. Absorption enters as the
    initial condition, not as a drive term.
    """
    i_omega, i_j = 1j * control_rabi, 1j * exchange_coupling
    local = np.array([
        [-ens.optical_decay, i_omega, 0.0],
        [i_omega, -(ens.alkali_decay + 1j * ens.alkali_detuning), -i_j],
        [0.0, -i_j, -(ens.noble_decay + 1j * ens.noble_detuning)],
    ])
    return local, np.array([0.0, ens.alkali_diffusion, ens.noble_diffusion])


def _norm1(phase, grid: RadialGrid) -> float:
    """||A||_1, the largest column sum of |A|, of a phase's operator on the
    grid: at node i the column of field f holds local[:, f], plus D_f times
    its stencil's diagonal at i and its entries in rows i + 1 and i - 1."""
    local, diffusion = phase
    off = np.abs(local).sum(axis=0) - np.abs(np.diag(local))
    columns = []
    for f, pinned in enumerate(_PINNED):
        lower, diag, upper = _laplacian_diagonals(grid, "dirichlet" if pinned else "neumann")
        reach = np.append(lower, 0.0) + np.insert(upper, 0, 0.0)
        columns.append(np.abs(local[f, f] + diffusion[f] * diag) + off[f] + diffusion[f] * reach)
    return float(np.max(columns))


def _block_exp(blocks: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(tau B) (nt, n, g, g) for per-mode blocks B (n, g, g), g = 1 or 2,
    at every tau of ``taus``.

    A 2 x 2 block with eigenvalues l1 (the larger real part) and l2 has
    exp(tau B) = exp(l1 tau) (I + f (B - l1 I)) with the divided difference
    f = tau expm1(x) / x, x = (l2 - l1) tau; no factor grows with tau, where
    the cosh / sinh form overflows.
    """
    if blocks.shape[1] == 1:
        return np.exp(np.multiply.outer(taus, blocks))
    a, b, c, d = blocks[:, 0, 0], blocks[:, 0, 1], blocks[:, 1, 0], blocks[:, 1, 1]
    s = np.sqrt(((a - d) / 2.0) ** 2 + b * c)  # principal root: Re s >= 0
    l1 = (a + d) / 2.0 + s
    gap = np.outer(taus, -2.0 * s)
    f = taus[:, None] * np.divide(np.expm1(gap), gap, out=np.ones_like(gap), where=gap != 0.0)
    shifted = blocks - l1[:, None, None] * np.eye(2)
    return np.exp(np.outer(taus, l1))[:, :, None, None] * (np.eye(2) + f[:, :, None, None] * shifted)


def _talbot():
    """Nodes w_j and weights c_j with exp(A) x ~ sum_j c_j (w_j - A)^-1 x: the
    trapezoid rule on the modified Talbot contour
    w(theta) = N (-0.6122 + 0.5017 theta cot(0.6407 theta) + 0.2645 i theta)
    (Trefethen, Weideman & Schmelzer, BIT 46, 653 (2006)), for A whose
    spectrum lies in a strip of half-width 0.75 left of the imaginary axis."""
    n = _TALBOT_NODES
    theta = np.pi * (2.0 * np.arange(n) + 1.0 - n) / n
    cot = 1.0 / np.tan(0.6407 * theta)
    w = n * (-0.6122 + 0.5017 * theta * cot + 0.2645j * theta)
    dw = n * (0.5017 * (cot - 0.6407 * theta * (1.0 + cot ** 2)) + 0.2645j)
    return w, np.exp(w) * dw / (1j * n)


def _inverse_blocks(m: np.ndarray) -> np.ndarray:
    """Inverses of a stack of 2 x 2 blocks, as adjugate / determinant."""
    inverse = np.empty_like(m)
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    inverse[..., 0, 0] = m[..., 1, 1] / det
    inverse[..., 0, 1] = -m[..., 0, 1] / det
    inverse[..., 1, 0] = -m[..., 1, 0] / det
    inverse[..., 1, 1] = m[..., 0, 0] / det
    return inverse


def _contour_step(blocks: np.ndarray, wall, h: float):
    """exp(h A) as a function of the modal state (n, 2), for A the per-mode
    2 x 2 blocks less the rank-one wall term sigma v v^T, v = e_f (x) u, with
    ``wall`` = (f, sigma, u).

    The resolvent is taken in the scaled variable h A, so that no node grows
    like 1 / h, and through Sherman-Morrison on the blocks' inverses: the
    exponential is the blocks' own, in closed form, plus one rank-one term per
    quadrature node, so that only the wall term carries the quadrature's
    rounding (on rescaled transfers at n = 64, 3e-14 of the state rather than
    1.2e-13 when the blocks are summed on the contour too).
    """
    n, g, _ = blocks.shape
    w, weights = _talbot()
    inverses = _inverse_blocks(w[:, None, None, None] * np.eye(g) - h * blocks)
    diagonal = _block_exp(blocks, np.array([h]))[0]
    f, sigma, u = wall
    towards = inverses[:, :, :, f] * u[:, None]  # M^-1 v, one row per node
    away = inverses[:, :, f, :] * u[:, None]     # v^T M^-1
    scale = weights * h * sigma / (1.0 + h * sigma * (towards[:, :, f] @ u))
    towards = (scale[:, None, None] * towards).reshape(len(w), n * g)
    away = away.reshape(len(w), n * g)
    return lambda x: (diagonal @ x[:, :, None])[:, :, 0] - (towards.T @ (away @ x.ravel())).reshape(n, g)


def _longest_contour_step(local: np.ndarray):
    """The longest contour step h of a coupled group: h (spread of detunings +
    2 x largest coupling row sum) = ``_CONTOUR_SPAN``; h = 0 where that overflows."""
    own = np.diag(local)
    couplings = np.abs(local - np.diag(own)).sum(axis=1).max()
    return _CONTOUR_SPAN / (float(own.imag.max()) - float(own.imag.min()) + 2.0 * couplings)


def _contour_frames(blocks, wall, x, taus, longest):
    """exp(tau A) x at every increasing tau of ``taus``, from one sample to
    the next in equal steps of at most ``longest``; steps of one length share
    their quadrature."""
    frames = np.empty((len(taus),) + x.shape, dtype=np.complex128)
    steps = {}
    previous = 0.0
    for i, tau in enumerate(taus):
        count = math.ceil((tau - previous) / longest)
        h, previous = (tau - previous) / count, tau
        if h not in steps:
            steps[h] = _contour_step(blocks, wall, h)
        for _ in range(count):
            x = steps[h](x)
        frames[i] = x
    return frames


def _group_propagate(phase, group, grid: RadialGrid, y: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(tau A) y at every tau of ``taus`` on the fields of one group
    (fields, basis, longest) of ``_groups`` of ``phase``, from the state y (n, 3).

    Field f diffuses by D_f L_N - sigma_f e_n e_n^T: D_f times the Neumann
    Laplacian, less a wall term sigma_f = D_f (L_N - L_D) at the wall node
    when the field is pinned there. In the basis A splits into n blocks
    g x g, one per mode, exponentiated in closed form; with a contour step,
    the wall term is summed through a contour integral of the resolvent.
    """
    fields, basis, longest = group
    local, diffusion, y = phase[0][np.ix_(fields, fields)], phase[1][fields], y[:, fields]
    n, g = y.shape
    # Shift by the rightmost decay and the centre of the detunings: the
    # spectrum then lies left of the imaginary axis, centred on the real one.
    own = np.diag(local)
    mu = own.real.max() + 0.5j * (own.imag.max() + own.imag.min())
    blocks = (local - mu * np.eye(g))[None]  # without diffusion, one block serves every node
    x = y
    if basis is not None:
        lam, q = grid.eigenbasis(basis)
        blocks = np.repeat(blocks, n, axis=0)
        blocks[:, range(g), range(g)] += lam[:, None] * diffusion
        root = np.sqrt(grid.shell_volumes)[:, None]
        x = q.T @ (root * y)
    if longest is None:
        frames = (_block_exp(blocks, taus) @ x[:, :, None])[..., 0]
    else:
        f = int(np.argmax(_PINNED[fields]))
        lap_n, lap_d = (_laplacian_diagonals(grid, wall_bc)[1][-1] for wall_bc in ("neumann", "dirichlet"))
        # one product per stencil, rounded as in D_f L under each wall condition
        wall = (f, diffusion[f] * lap_n - diffusion[f] * lap_d, q[-1])
        frames = _contour_frames(blocks, wall, x, taus, longest)
    frames *= np.exp(mu * taus)[:, None, None]
    if basis is None:
        return frames
    return np.tensordot(frames, q, axes=(1, 1)).transpose(0, 2, 1) / root


def _groups(local: np.ndarray, diffusion: np.ndarray, where: str) -> list:
    """(fields, basis, longest) of each group of fields that a phase couples:
    P and S when its control (``local[0, 1]``) is on, S and K when its
    exchange (``local[1, 2]``) is on, each field alone when neither is; the
    eigenbasis that propagates the group, None without diffusion, and its
    longest contour step, None in closed form. Raises ValueError, naming
    ``where``, for a phase that switches on both."""
    control, exchange = local[0, 1] != 0.0, local[1, 2] != 0.0
    if control and exchange:
        raise ValueError(f"{where} switches on both the control and the exchange")
    groups = []
    for fields in [[0, 1], [2]] if control else [[0], [1, 2]] if exchange else [[0], [1], [2]]:
        pinned, diffusing = _PINNED[fields], diffusion[fields] != 0.0
        basis = longest = None
        if diffusing.any():
            basis = "dirichlet" if pinned[diffusing].all() else "neumann"
            if basis == "neumann" and (pinned & diffusing).any():
                longest = _longest_contour_step(local[np.ix_(fields, fields)])
        groups.append((fields, basis, longest))
    return groups


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call.

    No protocol run calls it; it is kept as the module attribute that the
    benchmark tracer wraps.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _propagate(phase, groups: list, grid: RadialGrid, y: np.ndarray, t0: float, t_eval: np.ndarray,
               where: str) -> np.ndarray:
    """The (n, 3) state at every time of ``t_eval`` in the phase that starts
    at ``t0`` from state ``y``, each of its ``groups`` (``_groups``) exactly.
    Raises :class:`SolverFailure`, naming ``where``, when a linear-algebra
    routine fails or the phase ends in a non-finite state."""
    taus = t_eval - t0
    frames = np.zeros((len(t_eval),) + y.shape, dtype=np.complex128)
    try:
        # An invalid operation leaves a NaN, which the check below reports.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            for group in groups:
                fields = group[0]
                if y[:, fields].any():
                    frames[:, :, fields] = _group_propagate(phase, group, grid, y, taus)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"{where}: {exc}") from exc
    if not np.isfinite(frames[-1]).all():
        raise SolverFailure(f"{where} ended in a non-finite state")
    return frames


def _schedule_phases(schedule: ProtocolSchedule, ens: EnsembleParams):
    """(t0, t1, duration, rabi, exchange) of write, transfer, storage,
    reverse transfer and read, in that order; zero-length phases dropped.

    The boundaries are summed here and nowhere else: each phase ends at
    t1 = t0 + duration and the next starts there, so every reader of a
    boundary sees the same float."""
    t_ex = schedule.resolve_exchange_window(ens)
    j = ens.exchange_coupling
    raw = [
        (schedule.write_time, schedule.rabi_frequency, 0.0),
        (t_ex, 0.0, j),
        (schedule.dark_interval, 0.0, 0.0),
        (t_ex, 0.0, j),
        (schedule.read_time, schedule.rabi_frequency, 0.0),
    ]
    phases, t0 = [], 0.0
    for duration, rabi, exchange in raw:
        if duration > 0.0:
            phases.append((t0, t0 + duration, duration, rabi, exchange))
            t0 += duration
    return phases


def schedule_duration(schedule: ProtocolSchedule, ens: EnsembleParams) -> float:
    """Total protocol time implied by a schedule: the end of its last phase."""
    phases = _schedule_phases(schedule, ens)
    return phases[-1][1] if phases else 0.0


def retrieval_instant(schedule: ProtocolSchedule, ens: EnsembleParams) -> float:
    """Time at which the reverse transfer completes and S is read back.

    The read window is the last phase, so this is where the read starts,
    or where the schedule ends when it has no read. Either is a phase
    boundary that ``integrate`` samples, bit for bit.
    """
    if schedule.read_time > 0.0:
        return _schedule_phases(schedule, ens)[-1][0]
    return schedule_duration(schedule, ens)


def _plan(schedule: ProtocolSchedule, ens: EnsembleParams, grid: RadialGrid,
          requested: np.ndarray) -> list:
    """(where, t0, t_eval, phase, groups) of each phase that moves the state;
    t_eval holds the times of ``requested`` inside the phase, then its end,
    and groups are the phase's ``_groups``, settled once here. Raises
    every refusal before any linear algebra, as :class:`ConfigError`: a
    contour step of ``_groups`` taken over ``_MAX_CONTOUR_STEPS`` times, or a
    phase below the float resolution of its start time that would move the
    state (one that would not is dropped)."""
    phases = _schedule_phases(schedule, ens)
    plan = []
    for index, (t0, t1, duration, omega, j_value) in enumerate(phases):
        phase = _phase_operator(ens, omega, j_value)
        where = f"phase {index + 1} of {len(phases)} (t = {t0:g} to {t1:g} s)"
        groups = _groups(*phase, where)
        for _, _, longest in groups:
            if longest is not None and duration > _MAX_CONTOUR_STEPS * longest:
                raise ConfigError(
                    f"phase {index + 1} of {len(phases)}, a {duration:g} s transfer, needs more than "
                    f"{_MAX_CONTOUR_STEPS} contour steps of at most {longest:.3g} s; shorten --exchange-window, "
                    "raise exchange_coupling, or narrow the gap between alkali_detuning and noble_detuning")
        if t1 == t0:
            # exp(duration A) moves the state by at most about ||A||_1 duration.
            if duration * _norm1(phase, grid) > _NEGLIGIBLE_PHASE:
                raise ConfigError(
                    f"phase {index + 1} of {len(phases)} ({duration:g} s) is shorter than "
                    f"the time resolution at t = {t0:g} s"
                )
            continue
        inside = requested[(requested > t0 + 1e-15 * max(t1, 1.0)) & (requested < t1 - 1e-15 * max(t1, 1.0))]
        # sorted and distinct, as np.unique gives them without loading numpy.ma
        t_eval = np.sort(np.append(inside, t1))
        t_eval = t_eval[np.append(t_eval[:-1] != t_eval[1:], True)]
        plan.append((where, t0, t_eval, phase, groups))
    return plan


def integrate(
    initial: SpinFieldState,
    schedule: ProtocolSchedule,
    ens: EnsembleParams,
    grid: RadialGrid,
    sample_times: np.ndarray | None = None,
) -> Trajectory:
    """Integrate one protocol schedule from an initial state.

    The controls are constant within a phase, so the propagation restarts at
    every phase boundary, and each phase is propagated exactly as ``_plan``
    and ``_groups`` decide. States are evaluated at ``sample_times`` and at
    every phase boundary. Raises :class:`ConfigError`, before any propagation,
    for a sample time that is NaN or outside the schedule and for the refusals
    of ``_plan``; and :class:`SolverFailure`, naming the phase, when a
    linear-algebra routine fails or a phase ends in a non-finite state.
    """
    requested = np.array([], dtype=float) if sample_times is None else np.asarray(sample_times, dtype=float)
    if requested.size:
        total = schedule_duration(schedule, ens)
        require(Domain(f"within the {total:g} s schedule", 0.0, total * (1.0 + 1e-12)),
                earliest_sample_time=requested.min(), latest_sample_time=requested.max())

    y = np.stack((initial.optical, initial.alkali, initial.noble), axis=1).astype(np.complex128)
    times = [0.0]
    frames = [y[None]]
    for where, t0, t_eval, phase, groups in _plan(schedule, ens, grid, requested):
        block = _propagate(phase, groups, grid, y, t0, t_eval, where)
        times.extend(t_eval)
        frames.append(block)
        y = block[-1]

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
    require(Domain("at least 2", 2), time_samples=time_samples)
    require(_KYMOGRAPH_CELLS, **{"time_samples x point_count": time_samples * grid.point_count})
    state0 = initial_state(grid, profile)
    t_ret = retrieval_instant(schedule, ens)
    duration = schedule_duration(schedule, ens)
    require(NON_NEGATIVE, schedule_duration=duration)  # finite phases can overflow in the sum
    samples = np.linspace(0.0, duration, time_samples)
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
    )


def write_kymograph_csv(out_dir, result: ProtocolResult) -> None:
    """Write ``kymograph_s.csv``, ``kymograph_k.csv`` and ``kymograph.csv``
    into ``out_dir`` (a ``pathlib.Path``): one line per (t, r), row-major in
    time, t_seconds and r_over_R then S_norm, K_norm or both."""
    write_long_csv(
        [
            (out_dir / "kymograph_s.csv", "t_seconds,r_over_R,S_norm", (0,)),
            (out_dir / "kymograph_k.csv", "t_seconds,r_over_R,K_norm", (1,)),
            (out_dir / "kymograph.csv", "t_seconds,r_over_R,S_norm,K_norm", (0, 1)),
        ],
        result.times.tolist(),
        result.radii_over_r.tolist(),
        zip(result.kymograph_alkali, result.kymograph_noble),
    )
