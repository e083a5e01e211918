import json
import math

import numpy as np
import pytest

from qdssim import config as config_mod
from qdssim import discrimination, security
from qdssim.config import ConfigError, ExperimentConfig, config_from_dict, preset, read_config_file


def test_defaults_are_ideal():
    cfg = ExperimentConfig()
    assert cfg.alpha_sq == 1.0
    assert cfg.dark_click_prob == 0.0
    assert cfg.detector().efficiency == 1.0
    assert cfg.channel().total_transmittance == 1.0
    assert cfg.receiver_intensity() == pytest.approx(1.0)


def test_field_validation_names_the_field():
    with pytest.raises(ConfigError, match="detector_efficiency"):
        ExperimentConfig(detector_efficiency=2.0)
    with pytest.raises(ConfigError, match="length"):
        ExperimentConfig(length=0)
    with pytest.raises(ConfigError, match="length"):
        ExperimentConfig(length=2**63)  # beyond numpy's int64 counts
    assert ExperimentConfig(length=2**63 - 1).length == 2**63 - 1
    with pytest.raises(ConfigError, match="security_level"):
        ExperimentConfig(security_level=1.0)
    with pytest.raises(ConfigError, match="set together"):
        ExperimentConfig(auth_threshold=0.1)
    with pytest.raises(ConfigError, match="auth_threshold"):
        ExperimentConfig(auth_threshold=0.3, verify_threshold=0.2)


def test_dark_click_prob_from_rate_and_gate():
    cfg = ExperimentConfig(dark_rate_hz=320.0, gate_ns=2.0)
    assert cfg.dark_click_prob == pytest.approx(6.4e-7, rel=1e-12)


def test_2014_preset_values():
    cfg = preset("paper-2014")
    assert cfg.detector_efficiency == 0.405
    assert cfg.detection_visibility == 0.809
    assert cfg.multiport_visibility == 0.997
    assert cfg.clock_hz == 100e6
    t = cfg.channel().total_transmittance
    assert t == pytest.approx(10 ** (-(7.7 + 5.1 + 9.1) / 10), rel=1e-12)
    assert cfg.receiver_intensity() == pytest.approx(0.006446857476911035, rel=1e-12)


def test_unknown_preset():
    with pytest.raises(ConfigError, match="available"):
        preset("bogus")


def test_receiver_intensity_override_argument():
    cfg = preset("paper-2014")
    assert cfg.receiver_intensity(2.0) == pytest.approx(
        2 * cfg.receiver_intensity(), rel=1e-12
    )


def test_analytic_click_matrix_diagonal():
    cfg = preset("paper-2014")
    m = cfg.analytic_click_matrix()
    assert float(np.diag(m).mean()) == pytest.approx(2.4996e-4, abs=1e-7)


def test_resolve_thresholds_equalize():
    cfg = ExperimentConfig()
    s_a, s_v = cfg.resolve_thresholds(cfg.analytic_click_matrix())
    dec = security.decompose(cfg.analytic_click_matrix())
    g = discrimination.min_error_probability(1.0) * dec.guaranteed_advantage
    assert s_a == pytest.approx(dec.p_honest + g / 4, rel=1e-12)
    assert s_v == pytest.approx(dec.p_honest + 3 * g / 4, rel=1e-12)


def test_resolve_thresholds_explicit_pair_wins():
    cfg = ExperimentConfig(auth_threshold=0.1, verify_threshold=0.2)
    assert cfg.resolve_thresholds(cfg.analytic_click_matrix()) == (0.1, 0.2)


def test_resolve_thresholds_uses_given_matrix():
    cfg = ExperimentConfig()
    ref = security.reference_cost_matrix()
    s_a, s_v = cfg.resolve_thresholds(ref)
    rep = security.analyze(ref, 1.0, cfg.security_level)
    assert s_a == pytest.approx(rep.auth_threshold, rel=1e-12)
    assert s_v == pytest.approx(rep.verify_threshold, rel=1e-12)


def test_protocol_params_derived_null_budget():
    cfg = ExperimentConfig(dark_rate_hz=320.0, gate_ns=2.0, epsilon=1e-5)
    params = cfg.protocol_params()
    assert params.null_abort_fraction == pytest.approx(6.4e-7 + 2e-5, rel=1e-12)
    assert params.epsilon == 1e-5
    assert params.length == cfg.length


def test_round_trip_through_dict():
    cfg = preset("paper-2014").replace(seed=7, trials=3)
    back = config_from_dict(cfg.to_dict())
    assert back == cfg


def test_config_from_dict_errors():
    with pytest.raises(ConfigError, match="unknown configuration field"):
        config_from_dict({"nope": 1})
    with pytest.raises(ConfigError, match="must be an integer"):
        config_from_dict({"length": 10.5})
    with pytest.raises(ConfigError, match="must be a number"):
        config_from_dict({"alpha_sq": "abc"})
    with pytest.raises(ConfigError, match="sweep_grid"):
        config_from_dict({"sweep_grid": 3})
    with pytest.raises(ConfigError, match="mapping"):
        config_from_dict([1, 2])


def test_integer_fields_keep_exact_ints():
    # a double cannot hold these, yet they are valid integers
    assert config_from_dict({"length": 2**53 + 1}).length == 2**53 + 1
    assert config_from_dict({"seed": 2**70 + 1}).seed == 2**70 + 1
    assert config_from_dict({"trials": 3.0}).trials == 3
    with pytest.raises(ConfigError, match="invalid value for field 'length'"):
        config_from_dict({"length": 2**63})


@pytest.mark.parametrize("key", ["seed", "auth_threshold", "sweep_grid"])
def test_an_int_beyond_any_double_names_its_field(key):
    huge = 10**400
    with pytest.raises(ConfigError, match=f"field '{key}' must be a number"):
        config_from_dict({key: [huge] if key == "sweep_grid" else huge})


def test_load_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"alpha_sq": 0.5, "length": 100, "seed": 1}))
    cfg = config_from_dict(read_config_file(path))
    assert cfg.alpha_sq == 0.5
    assert cfg.length == 100
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        read_config_file(path)


@pytest.mark.parametrize("name", ["ideal", "paper-2014"])
def test_receiver_intensity_has_one_formula(name):
    cfg = preset(name)
    params = cfg.protocol_params()
    expected = cfg.channel().receiver_intensity(cfg.alpha_sq)
    assert cfg.receiver_intensity() == expected
    assert cfg.receiver_intensity(cfg.alpha_sq) == expected
    assert params.receiver_intensity() == expected
    assert params.channel.receiver_intensity(params.alpha_sq) == expected


def test_nullable_threshold_fields_accept_null():
    cfg = config_from_dict(
        {"auth_threshold": None, "verify_threshold": None, "null_abort_fraction": None}
    )
    assert cfg.auth_threshold is None
    cfg2 = config_from_dict({"auth_threshold": 0.1, "verify_threshold": 0.2})
    assert cfg2.auth_threshold == 0.1


def test_preset_dicts_stay_valid():
    for name in config_mod.PRESETS:
        cfg = preset(name)
        assert isinstance(cfg, ExperimentConfig)
        params = cfg.protocol_params()
        assert 0 <= params.auth_threshold < params.verify_threshold < 1
        assert math.isfinite(params.null_abort_fraction)
