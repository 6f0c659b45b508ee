import math

import pytest

from satqlink import config as cm
from satqlink.afc import AFCParams, ControlPulse
from satqlink.config import ConfigError
from satqlink.domain import Record, replace
from satqlink.geometry import OrbitalConfig
from satqlink.linkbudget import OpticalLinkParams
from satqlink.scenario import ScenarioConfig
from satqlink.skr import QKDParams
from satqlink.spindyn import EnsembleParams, ProtocolSchedule, RadialGrid

REMOVED_KEYS = (
    "source_efficiency",
    "bsm_efficiency",
    "qnd_efficiency",
    "ground_turbulence_cn2",
    "turbulence_scale_height_m",
    "relative_humidity",
    "alkali_density_cm3",
    "noble_density_cm3",
    "comb_bandwidth_hz",
    "comb_tooth_spacing_hz",
    "comb_tooth_width_hz",
    "output_dir",
    "output_format",
)


def test_defaults_match_baseline_tables():
    cfg = cm.RunConfig()
    assert cfg.wavelength_nm == 795.0
    assert cfg.receiver_diameter_m == 1.0
    assert cfg.divergence_half_angle_urad == 3.0
    assert cfg.pointing_jitter_urad == 1.0
    assert cfg.dual_elevation_deg == 20.0
    assert cfg.channel_use_rate_hz == 90e6
    assert cfg.eta_mem == 0.74
    assert cfg.detector_efficiency == 0.70
    assert cfg.mode_count == 112
    assert cfg.earth_radius_km == 6371.0
    assert cfg.altitude_km == 500.0
    assert cm.scenario_config(cfg).eta_mem == 0.74


def test_emit_parse_round_trip():
    cfg = cm.RunConfig()
    assert cm.parse_config(cm.emit_config(cfg)) == cfg
    tweaked = cm.apply_overrides(cfg, ["eta_mem=0.5", "mode_count=7"])
    assert cm.parse_config(cm.emit_config(tweaked)) == tweaked


def test_parse_comments_and_layout():
    cfg = cm.parse_config(
        """
        # comment line
        eta_mem = 0.5   # trailing comment
        mode_count=64
        """
    )
    assert cfg.eta_mem == 0.5
    assert cfg.mode_count == 64
    assert cfg.wavelength_nm == 795.0  # untouched default


def test_unknown_key_reports_key_and_line():
    with pytest.raises(ConfigError, match=r"line 2.*unknown configuration key 'jiter_urad'"):
        cm.parse_config("eta_mem = 0.5\njiter_urad = 2\n", source="demo.txt")


def test_duplicate_and_malformed_keys():
    with pytest.raises(ConfigError, match="duplicate key"):
        cm.parse_config("eta_mem = 0.5\neta_mem = 0.6\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        cm.parse_config("eta_mem 0.5\n")
    with pytest.raises(ConfigError, match="invalid value"):
        cm.parse_config("mode_count = twelve\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        cm.load_config(tmp_path / "absent.txt")


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    # as Windows editors save UTF-8; the mark is not part of the first key
    path = tmp_path / "run.txt"
    path.write_text("altitude_km = 600\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert cm.load_config(path) == cm.RunConfig(altitude_km=600.0)


def test_overrides_take_precedence(tmp_path):
    path = tmp_path / "run.txt"
    path.write_text("eta_mem = 0.6\n")
    cfg = cm.load_config(path)
    assert cfg.eta_mem == 0.6
    cfg = cm.apply_overrides(cfg, ["eta_mem=0.2"])
    assert cfg.eta_mem == 0.2
    with pytest.raises(ConfigError, match="unknown configuration key"):
        cm.apply_overrides(cfg, ["nope=1"])
    with pytest.raises(ConfigError, match="key=value"):
        cm.apply_overrides(cfg, ["just-a-word"])


def test_optical_builder_unit_conversion():
    link = cm.scenario_config(cm.RunConfig()).link
    assert link.wavelength == pytest.approx(795e-9)
    assert link.divergence_half_angle == pytest.approx(3e-6)
    assert link.pointing_jitter_rms == pytest.approx(1e-6)
    assert link.receiver_radius == 0.5


def test_scenario_builder():
    sc = cm.scenario_config(cm.RunConfig())
    assert sc.dual_elevation == pytest.approx(math.radians(20.0))
    assert sc.dual_slant_range == 1461.9
    assert sc.buffered_slant_range == 500.0
    assert sc.ogs_separation == 3267.9
    assert sc.qkd.mode_count == 112


def test_default_config_builds_the_domain_defaults():
    # RunConfig holds the only defaults; the packs it builds are written out
    # here in the packs' own units, which pins every unit conversion.
    assert cm.scenario_config(cm.RunConfig()) == ScenarioConfig(
        orbit=OrbitalConfig(earth_radius=6371.0, altitude=500.0, gravitational_parameter=398600.0),
        link=OpticalLinkParams(
            wavelength=795e-9, divergence_half_angle=3e-6, pointing_jitter_rms=1e-6,
            receiver_radius=0.5, zenith_transmission=0.8, detector_efficiency=0.70,
        ),
        qkd=QKDParams(
            channel_use_rate=90e6, qber_x=0.09657329074620885, qber_z=0.09657329074620885,
            ec_inefficiency=1.10, herald_probability=1.0, mode_count=112, memory_lifetime=463.0,
        ),
        dual_elevation=math.radians(20.0), dual_slant_range=1461.9, buffered_slant_range=500.0,
        ogs_separation=3267.9, eta_mem=0.74,
    )
    literal = EnsembleParams(
        exchange_coupling=2.00e-5, alkali_decay=3.1e-7, noble_decay=0.0, alkali_detuning=0.0,
        noble_detuning=1.11e-3, alkali_diffusion=1.02e-8, noble_diffusion=2.05e-8,
        optical_decay=2.0 * math.pi * 5.96e6,
    )
    lossless = EnsembleParams(
        exchange_coupling=2.00e-5 * 1e4, alkali_decay=0.0, noble_decay=0.0, alkali_detuning=0.0,
        noble_detuning=0.0, alkali_diffusion=0.0, noble_diffusion=0.0, optical_decay=0.0,
    )
    expected = {
        "paper-literal": literal,
        "rescaled": replace(literal, exchange_coupling=2.00e-5 * 1e4),
        "lossless": lossless,
    }
    for preset in cm.ENSEMBLE_PRESETS:
        assert cm.ensemble_params(cm.RunConfig(), preset) == expected[preset], preset


def test_ensemble_presets():
    cfg = cm.RunConfig()
    literal = cm.ensemble_params(cfg, "paper-literal")
    assert literal.exchange_coupling == 2.00e-5
    assert literal.alkali_diffusion == 1.02e-8
    assert literal.optical_decay == pytest.approx(2 * math.pi * 5.96e6)

    rescaled = cm.ensemble_params(cfg, "rescaled")
    assert rescaled.exchange_coupling == pytest.approx(2.00e-5 * cm.RESCALED_EXCHANGE_FACTOR)
    assert rescaled.alkali_decay == literal.alkali_decay

    lossless = cm.ensemble_params(cfg, "lossless")
    assert lossless.alkali_decay == 0.0
    assert lossless.alkali_diffusion == 0.0
    assert lossless.noble_detuning == 0.0
    assert lossless.optical_decay == 0.0
    assert lossless.exchange_coupling == rescaled.exchange_coupling

    with pytest.raises(ConfigError):
        cm.ensemble_params(cfg, "warp-speed")


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_non_finite_float_values_are_rejected(raw):
    with pytest.raises(ConfigError, match="line 2.*altitude_km"):
        cm.parse_config(f"eta_mem = 0.5\naltitude_km = {raw}\n")
    with pytest.raises(ConfigError, match="pointing_jitter_urad"):
        cm.apply_overrides(cm.RunConfig(), [f"pointing_jitter_urad={raw}"])


def _built(cfg: cm.RunConfig) -> tuple:
    """Everything the builders the CLI calls make from one RunConfig, and the
    grid that ``memory`` builds from it (by its repr: grids have no ``==``)."""
    return (
        cm.scenario_config(cfg),
        *(cm.ensemble_params(cfg, preset) for preset in cm.ENSEMBLE_PRESETS),
        repr(RadialGrid(cfg.cell_radius_m, 16)),
    )


def test_every_key_enters_a_builder():
    base = cm.RunConfig()
    reference = _built(base)
    for name in cm.RunConfig._fields:
        value = getattr(base, name)
        # a small step keeps every key inside its domain
        nudged = value - 1 if isinstance(value, int) else (value * 0.995 if value else 1e-3)
        assert _built(replace(base, **{name: nudged})) != reference, name


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=rf"line 2.*unknown configuration key '{key}'"):
        cm.parse_config(f"eta_mem = 0.5\n{key} = 0.5\n", source="old.txt")


def _arguments(record) -> dict:
    return {name: getattr(record, name) for name in record._fields}


# Every record class that declares a domain, and the arguments it needs
# besides the field under test: a baseline pack's, for the classes without
# defaults.
_BASELINE = cm.scenario_config(cm.RunConfig())
_DOMAIN_CLASSES = {
    cm.RunConfig: {},
    OrbitalConfig: _arguments(_BASELINE.orbit),
    OpticalLinkParams: _arguments(_BASELINE.link),
    QKDParams: _arguments(_BASELINE.qkd),
    AFCParams: {},
    EnsembleParams: _arguments(cm.ensemble_params(cm.RunConfig(), "paper-literal")),
    ControlPulse: {},
    ScenarioConfig: _arguments(_BASELINE),
    ProtocolSchedule: {},
}
_DOMAIN_FIELDS = [
    (cls, name, base) for cls, base in _DOMAIN_CLASSES.items() for name in cls._domains
] + [(RadialGrid, "cell_radius", {"point_count": 16})]


def test_every_declared_domain_is_a_case():
    # a change in how the domains are declared cannot shrink the case list unnoticed
    declared = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("satqlink.") and cls._domains}
    assert declared == set(_DOMAIN_CLASSES)
    assert len(_DOMAIN_FIELDS) == 71  # 30 RunConfig keys, 40 pack fields, the grid radius


@pytest.mark.parametrize(
    ("cls", "name", "base"), _DOMAIN_FIELDS, ids=[f"{c.__name__}.{n}" for c, n, _ in _DOMAIN_FIELDS]
)
def test_domain_validators_reject_nan(cls, name, base):
    # NaN and both infinities, each named in the message; pytest turns a
    # numpy RuntimeWarning on the way into an error
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got {bad}$"):
            cls(**{**base, name: bad})
