"""Flat key = value run configuration shared by all command-line tools.

One key per line, ``key = value``, with ``#`` comments and blank lines
ignored. Unknown keys are hard errors so a typo cannot silently skew a
sweep. Every key has a default and enters at least one parameter-pack
builder below; the shipped defaults are the baseline operating point
(795 nm, 1 m receive aperture, 3 urad divergence, 1 urad jitter, 20 deg
dual elevation, 90 MHz channel-use rate, 112 modes, memory efficiency 0.74,
detector 0.70, Earth radius 6371 km, altitude 500 km).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .formatting import config_value
from .skr import CALIBRATED_QBER, QKDParams

if TYPE_CHECKING:
    from .scenario import ScenarioConfig
    from .spindyn import EnsembleParams

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "load_config",
    "apply_overrides",
    "emit_config",
    "ensemble_params",
    "scenario_config",
    "ENSEMBLE_PRESETS",
    "INITIAL_PROFILES",
    "RESCALED_EXCHANGE_FACTOR",
]

ENSEMBLE_PRESETS = ("paper-literal", "rescaled", "lossless")
INITIAL_PROFILES = ("uniform", "fundamental-mode")

# The literal exchange coupling implies a transfer window of ~7.9e4 s,
# far beyond the storage interval; the rescaled preset multiplies it so
# the transfer takes ~8 s and a full protocol runs at desk scale.
RESCALED_EXCHANGE_FACTOR = 1e4


class ConfigError(ValueError):
    """Raised for unreadable, unknown or malformed configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """Every tunable of the simulator, one flat namespace."""

    # orbit
    earth_radius_km: float = 6371.0
    altitude_km: float = 500.0
    gravitational_parameter_km3_s2: float = 398600.0
    # optical link
    wavelength_nm: float = 795.0
    divergence_half_angle_urad: float = 3.0
    pointing_jitter_urad: float = 1.0
    receiver_diameter_m: float = 1.0
    zenith_transmission: float = 0.8
    detector_efficiency: float = 0.70
    # qkd
    channel_use_rate_hz: float = 90e6
    qber_x: float = CALIBRATED_QBER
    qber_z: float = CALIBRATED_QBER
    ec_inefficiency: float = 1.10
    herald_probability: float = 1.0
    mode_count: int = 112
    memory_lifetime_s: float = 463.0
    # ensemble
    optical_linewidth_hz: float = 5.96e6
    exchange_coupling: float = 2.00e-5
    alkali_decay: float = 3.1e-7
    noble_decay: float = 0.0
    alkali_detuning: float = 0.0
    noble_detuning: float = 1.11e-3
    alkali_diffusion_m2_s: float = 1.02e-8
    noble_diffusion_m2_s: float = 2.05e-8
    cell_radius_m: float = 0.01
    # scenario
    eta_mem: float = 0.74
    dual_elevation_deg: float = 20.0
    dual_slant_range_km: float = 1461.9
    buffered_slant_range_km: float = 500.0
    ogs_separation_km: float = 3267.9


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _convert(key: str, raw: str, where: str):
    kind = _FIELD_TYPES[key]
    try:
        value = {"int": int, "float": float}[kind](raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: invalid value {raw!r} for key '{key}'") from exc
    if kind == "float" and not math.isfinite(value):
        raise ConfigError(f"{where}: value {raw!r} for key '{key}' is not finite")
    return value


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse key = value text into a RunConfig; unknown keys are errors."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, raw = body.partition("=")
        if not sep:
            raise ConfigError(f"{source}, line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        raw = raw.strip()
        where = f"{source}, line {lineno}"
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}: unknown configuration key '{key}'")
        if key in values:
            raise ConfigError(f"{where}: duplicate key '{key}'")
        values[key] = _convert(key, raw, where)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    """Read a config file; a missing file is a distinct configuration error."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(encoding="utf-8"), source=str(p))


def apply_overrides(cfg: RunConfig, pairs: list[str]) -> RunConfig:
    """Apply 'key=value' override strings (command-line precedence)."""
    updates = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        key = key.strip()
        if not sep or not key:
            raise ConfigError(f"override must look like key=value, got {pair!r}")
        if key not in _FIELD_TYPES:
            raise ConfigError(f"override: unknown configuration key '{key}'")
        updates[key] = _convert(key, raw.strip(), "override")
    return replace(cfg, **updates)


def emit_config(cfg: RunConfig) -> str:
    """Render the effective configuration; parsing it back reproduces cfg."""
    lines = [f"{f.name} = {config_value(getattr(cfg, f.name))}" for f in fields(RunConfig)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# builders for the domain parameter packs


def ensemble_params(cfg: RunConfig, preset: str) -> EnsembleParams:
    """Ensemble parameters under one of the shipped presets.

    paper-literal: configured rates as given (all in s^-1).
    rescaled: exchange coupling multiplied by RESCALED_EXCHANGE_FACTOR so a
        complete transfer fits well inside the buffer interval.
    lossless: decays and diffusion zeroed, rescaled coupling; useful as a
        unitarity check.

    Only ``memory`` builds these, so the spin-dynamics module that defines
    them (and numpy with it) is imported here, not with the configuration.
    """
    from .spindyn import EnsembleParams

    if preset not in ENSEMBLE_PRESETS:
        raise ConfigError(f"preset must be one of {ENSEMBLE_PRESETS}, got '{preset}'")
    j = cfg.exchange_coupling
    decay_a, decay_b = cfg.alkali_decay, cfg.noble_decay
    decay_p = 2.0 * math.pi * cfg.optical_linewidth_hz
    diff_a, diff_b = cfg.alkali_diffusion_m2_s, cfg.noble_diffusion_m2_s
    det_s, det_k = cfg.alkali_detuning, cfg.noble_detuning
    if preset in ("rescaled", "lossless"):
        j = j * RESCALED_EXCHANGE_FACTOR
    if preset == "lossless":
        decay_a = decay_b = decay_p = 0.0
        diff_a = diff_b = 0.0
        det_s = det_k = 0.0
    return EnsembleParams(
        exchange_coupling=j,
        alkali_decay=decay_a,
        noble_decay=decay_b,
        alkali_detuning=det_s,
        noble_detuning=det_k,
        alkali_diffusion=diff_a,
        noble_diffusion=diff_b,
        optical_decay=decay_p,
    )


def scenario_config(cfg: RunConfig) -> ScenarioConfig:
    """The link-budget packs; like :func:`ensemble_params`, the modules that
    define them load when called, so ``memory`` never imports them."""
    from .geometry import OrbitalConfig
    from .linkbudget import OpticalLinkParams
    from .scenario import ScenarioConfig

    return ScenarioConfig(
        orbit=OrbitalConfig(
            earth_radius=cfg.earth_radius_km,
            altitude=cfg.altitude_km,
            gravitational_parameter=cfg.gravitational_parameter_km3_s2,
        ),
        link=OpticalLinkParams(
            wavelength=cfg.wavelength_nm * 1e-9,
            divergence_half_angle=cfg.divergence_half_angle_urad * 1e-6,
            pointing_jitter_rms=cfg.pointing_jitter_urad * 1e-6,
            receiver_radius=cfg.receiver_diameter_m / 2.0,
            zenith_transmission=cfg.zenith_transmission,
            detector_efficiency=cfg.detector_efficiency,
        ),
        qkd=QKDParams(
            channel_use_rate=cfg.channel_use_rate_hz,
            qber_x=cfg.qber_x,
            qber_z=cfg.qber_z,
            ec_inefficiency=cfg.ec_inefficiency,
            herald_probability=cfg.herald_probability,
            mode_count=cfg.mode_count,
            memory_lifetime=cfg.memory_lifetime_s,
        ),
        dual_elevation=math.radians(cfg.dual_elevation_deg),
        dual_slant_range=cfg.dual_slant_range_km,
        buffered_slant_range=cfg.buffered_slant_range_km,
        ogs_separation=cfg.ogs_separation_km,
        eta_mem=cfg.eta_mem,
    )
