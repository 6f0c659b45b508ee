import math
from dataclasses import fields, replace

import pytest

from satqlink import config as cm
from satqlink.config import ConfigError

REMOVED_KEYS = (
    "source_efficiency",
    "bsm_efficiency",
    "qnd_efficiency",
    "ground_turbulence_cn2",
    "turbulence_scale_height_m",
    "relative_humidity",
    "alkali_density_cm3",
    "noble_density_cm3",
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
    tweaked = cm.apply_overrides(cfg, ["eta_mem=0.5", "mode_count=7", "output_format=text"])
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
    with pytest.raises(ConfigError, match="output_format"):
        cm.parse_config("output_format = yaml\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        cm.load_config(tmp_path / "absent.txt")


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
    link = cm.optical_link_params(cm.RunConfig())
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


def test_afc_builder():
    comb = cm.afc_params(cm.RunConfig())
    assert comb.total_bandwidth == 27e9
    assert comb.tooth_spacing == 96e6
    assert comb.tooth_width == 12e6
    assert comb.homogeneous_linewidth == 5.96e6


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
    """Everything the parameter-pack builders make from one RunConfig."""
    return (
        cm.orbital_config(cfg),
        cm.optical_link_params(cfg),
        cm.qkd_params(cfg),
        cm.afc_params(cfg),
        *(cm.ensemble_params(cfg, preset) for preset in cm.ENSEMBLE_PRESETS),
        cm.scenario_config(cfg),
    )


def test_every_key_enters_a_builder():
    base = cm.RunConfig()
    reference = _built(base)
    for f in fields(cm.RunConfig):
        if f.name in ("output_dir", "output_format"):
            continue
        value = getattr(base, f.name)
        # a small step keeps every key inside its domain (the comb tooth
        # width stays above twice the optical linewidth)
        nudged = value - 1 if isinstance(value, int) else (value * 0.995 if value else 1e-3)
        assert _built(replace(base, **{f.name: nudged})) != reference, f.name


@pytest.mark.parametrize("key", REMOVED_KEYS)
def test_removed_keys_are_unknown(key):
    with pytest.raises(ConfigError, match=rf"line 2.*unknown configuration key '{key}'"):
        cm.parse_config(f"eta_mem = 0.5\n{key} = 0.5\n", source="old.txt")
