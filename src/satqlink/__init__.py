"""satqlink: deterministic simulator for LEO satellite-to-ground quantum
links with an onboard multimode spin-wave memory.

Modules: orbital pass geometry, free-space optical link budget, analytic
comb-memory model, coupled spin-diffusion dynamics, BB84 secret-key rates
and the architecture comparison that ties them together.
"""

from .afc import (
    AFCParams,
    CavityParams,
    ControlPulse,
    EnsembleParams,
    comb_dephasing_factor,
    echo_time,
    exchange_transfer_efficiency,
    finesse,
    multimode_capacity,
    multimode_success,
    optical_to_spin_efficiency,
    reflection_coefficient,
    total_memory_efficiency,
)
from .config import ConfigError, RunConfig, load_config, parse_config
from .geometry import (
    OrbitalConfig,
    buffer_time,
    elevation,
    elevation_from_slant_range,
    orbital_period,
    slant_range,
    slant_range_from_elevation,
)
from .linkbudget import (
    OpticalLinkParams,
    atmospheric_transmission,
    beam_radius,
    collected_fraction,
    collected_fraction_quadrature,
    effective_spot_sigma,
    single_link_efficiency,
)
from .scenario import (
    ScenarioConfig,
    ScenarioResult,
    compare_scenarios,
    downlink_probability_map,
    gain_map,
    improvement_factor,
)
from .skr import (
    QKDParams,
    binary_entropy,
    feasibility,
    instantaneous_skr,
    key_fraction,
    yield_buffered,
    yield_dual,
)
from .spindyn import (
    ProtocolResult,
    ProtocolSchedule,
    RadialGrid,
    SolverConfig,
    SolverFailure,
    SpinFieldState,
    Trajectory,
    integrate,
    radial_laplacian,
    simulate_protocol,
)

__version__ = "0.1.0"
