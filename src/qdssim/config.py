"""Run configuration: one flat record, JSON-loadable, with named presets.

Thresholds left unset are derived from the analytic click matrix through
the security pipeline, so a bare preset is immediately runnable.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

from . import detection, security
from .detection import DetectorModel
from .optics import db_to_transmittance
from .protocol import ChannelModel, ProtocolParams


class ConfigError(ValueError):
    pass


_GRID_DEFAULT = tuple(float(x) for x in range(1, 12))


@dataclass(frozen=True)
class ExperimentConfig:
    """Physical, protocol, and run parameters for the CLI and simulations."""

    alpha_sq: float = 1.0
    multiport_loss_db: float = 0.0
    receiver_loss_db: float = 0.0
    interferometer_loss_db: float = 0.0
    detector_efficiency: float = 1.0
    dark_rate_hz: float = 0.0
    gate_ns: float = 2.0
    detection_visibility: float = 1.0
    multiport_visibility: float = 1.0
    clock_hz: float = 100e6
    length: int = 1_000_000
    auth_threshold: float | None = None
    verify_threshold: float | None = None
    null_abort_fraction: float | None = None
    epsilon: float = 1e-5
    security_level: float = 1e-4
    sweep_grid: tuple[float, ...] = _GRID_DEFAULT
    seed: int = 12345
    trials: int = 100

    def __post_init__(self):
        checks = [
            ("alpha_sq", self.alpha_sq >= 0),
            ("multiport_loss_db", self.multiport_loss_db >= 0),
            ("receiver_loss_db", self.receiver_loss_db >= 0),
            ("interferometer_loss_db", self.interferometer_loss_db >= 0),
            ("detector_efficiency", 0.0 <= self.detector_efficiency <= 1.0),
            ("dark_rate_hz", self.dark_rate_hz >= 0),
            ("gate_ns", self.gate_ns > 0),
            ("detection_visibility", 0.0 <= self.detection_visibility <= 1.0),
            ("multiport_visibility", 0.0 <= self.multiport_visibility <= 1.0),
            ("clock_hz", self.clock_hz > 0),
            ("length", 1 <= self.length < 2**63),  # numpy draws counts as int64
            ("epsilon", self.epsilon >= 0),
            ("security_level", 0.0 < self.security_level < 1.0),
            ("sweep_grid", len(self.sweep_grid) > 0 and all(x >= 0 for x in self.sweep_grid)),
            ("seed", self.seed >= 0),
            ("trials", self.trials >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ConfigError(f"invalid value for field '{name}': {getattr(self, name)!r}")
        if self.auth_threshold is not None or self.verify_threshold is not None:
            if self.auth_threshold is None or self.verify_threshold is None:
                raise ConfigError(
                    "fields 'auth_threshold' and 'verify_threshold' must be set together"
                )
            if not 0.0 <= self.auth_threshold < self.verify_threshold < 1.0:
                raise ConfigError(
                    "field 'auth_threshold' must satisfy "
                    "0 <= auth_threshold < verify_threshold < 1, got "
                    f"{self.auth_threshold} and {self.verify_threshold}"
                )
        if self.null_abort_fraction is not None and not 0.0 <= self.null_abort_fraction <= 1.0:
            raise ConfigError(
                f"invalid value for field 'null_abort_fraction': {self.null_abort_fraction!r}"
            )

    # -------------------------------------------------------------- derived

    @property
    def dark_click_prob(self) -> float:
        return self.dark_rate_hz * self.gate_ns * 1e-9

    def detector(self) -> DetectorModel:
        return DetectorModel(
            efficiency=self.detector_efficiency,
            dark_click_prob=self.dark_click_prob,
            visibility=self.detection_visibility,
        )

    def channel(self) -> ChannelModel:
        return ChannelModel(
            multiport_transmittance=db_to_transmittance(self.multiport_loss_db),
            receiver_transmittance=db_to_transmittance(self.receiver_loss_db),
            interferometer_transmittance=db_to_transmittance(self.interferometer_loss_db),
            multiport_visibility=self.multiport_visibility,
        )

    def receiver_intensity(self, alpha_sq: float | None = None) -> float:
        return self.channel().receiver_intensity(self.alpha_sq if alpha_sq is None else alpha_sq)

    def analytic_click_matrix(self):
        return detection.phase_click_matrix(self.receiver_intensity(), self.detector())

    def resolve_thresholds(self, cost_matrix) -> tuple[float, float]:
        """Configured thresholds, or the equalizing ones ``security.analyze`` places.

        A measured ``cost_matrix`` should govern the thresholds it will be
        tested against; ``protocol_params`` passes the analytic click
        matrix when it is given none.
        """
        if self.auth_threshold is not None:
            return self.auth_threshold, self.verify_threshold
        report = security.analyze(cost_matrix, self.alpha_sq, self.security_level)
        return report.auth_threshold, report.verify_threshold

    def protocol_params(self, cost_matrix=None) -> ProtocolParams:
        governing = self.analytic_click_matrix() if cost_matrix is None else cost_matrix
        s_a, s_v = self.resolve_thresholds(governing)
        r = self.null_abort_fraction
        if r is None:
            r = self.dark_click_prob + 2.0 * self.epsilon
        params = ProtocolParams(
            length=self.length,
            auth_threshold=s_a,
            verify_threshold=s_v,
            alpha_sq=self.alpha_sq,
            null_abort_fraction=r,
            epsilon=self.epsilon,
            channel=self.channel(),
            detector=self.detector(),
        )
        if cost_matrix is None:  # the analytic matrix params would compute from the same inputs
            vars(params)["_click_matrix"] = governing
        return params

    # -------------------------------------------------------------- (de)serialization

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["sweep_grid"] = list(self.sweep_grid)
        return d

    def replace(self, **kwargs) -> "ExperimentConfig":
        return dataclasses.replace(self, **kwargs)


_FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}
_INT_FIELDS = {"length", "seed", "trials"}


def _number(key: str, value) -> float:
    # JSON true/false are ints to Python, and float() would accept strings
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            number = float(value)
        except OverflowError:  # an int too long for a double
            number = math.inf
        if math.isfinite(number):
            return number
    raise ConfigError(f"field '{key}' must be a number, got {value!r}")


def _integer(key: str, value) -> int:
    # an exact int stays exact: a double cannot hold every int below 2**63
    if not _number(key, value).is_integer():
        raise ConfigError(f"field '{key}' must be an integer, got {value!r}")
    return int(value)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"configuration must be a mapping, got {type(data).__name__}")
    unknown = set(data) - _FIELD_NAMES
    if unknown:
        raise ConfigError(f"unknown configuration field(s): {sorted(unknown)}")
    kwargs = {}
    for key, value in data.items():
        if key == "sweep_grid":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"field 'sweep_grid' must be a list, got {value!r}")
            kwargs[key] = tuple(_number(key, x) for x in value)
        elif key in _INT_FIELDS:
            kwargs[key] = _integer(key, value)
        elif key in ("auth_threshold", "verify_threshold", "null_abort_fraction"):
            kwargs[key] = None if value is None else _number(key, value)
        else:
            kwargs[key] = _number(key, value)
    return ExperimentConfig(**kwargs)


def read_config_file(path) -> dict:
    """The JSON object of a configuration file, keyed by field name."""
    try:
        with open(path) as f:
            data = json.load(f)
    except ValueError as exc:
        # JSONDecodeError is a ValueError, and so is int()'s refusal of an
        # integer literal past Python's digit limit, whose advice to change
        # that limit is of no use to the author of a config file
        reason = str(exc).split("; use sys.set_int_max_str_digits")[0]
        raise ConfigError(f"{path}: cannot read JSON ({reason})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: configuration must be a JSON object, got {type(data).__name__}")
    return data


# Named parameter sets. "paper-2014" is the tabletop demonstration the
# bundled reference matrix came from: itemized losses 7.7/5.1/9.1 dB,
# 40.5% efficient detectors, 320 dark counts per second in 2 ns gates,
# 80.9% receiver and 99.7% multiport visibility, 100 MHz clock.
PRESETS: dict[str, dict] = {
    "ideal": {},
    "paper-2014": {
        "alpha_sq": 1.0,
        "multiport_loss_db": 7.7,
        "receiver_loss_db": 5.1,
        "interferometer_loss_db": 9.1,
        "detector_efficiency": 0.405,
        "dark_rate_hz": 320.0,
        "gate_ns": 2.0,
        "detection_visibility": 0.809,
        "multiport_visibility": 0.997,
        "clock_hz": 100e6,
        "security_level": 1e-4,
    },
}


def preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return config_from_dict(PRESETS[name])
