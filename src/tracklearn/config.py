"""Experiment configuration: one INI document per experiment.

Sections: [dataset] (gct parameters or a csv path, and the path of a
simulated dataset), [sensor], one per method, [ekf], [gp], [imm] and [mkf],
holding its filter's and its training's settings, and [models] (the trained
model files evaluate reads).  A section or key not listed in _DEFAULTS is an
error.  Seeds are mandatory wherever randomness is consumed; every resolved
value is materialized back into the run manifest so nothing depends on hidden
defaults.
"""

from __future__ import annotations

import configparser
from pathlib import Path

from .errors import ConfigError
from .simulate import GctConfig
from .statespace import SensorConfig

_DEFAULTS = {
    "dataset": {
        "kind": "gct",
        "n_steps": "100",
        "dt": "1.0",
        "half_period": "10",
        "turn_rate_low_deg": "10.0",
        "turn_rate_high_deg": "15.0",
        "start_low": "2000.0",
        "start_high": "2100.0",
        "speed": "10.0",
        "n_train": "512",
        "n_test": "50",
        "csv_path": "",
        "tracklet_len": "100",
        "train_fraction": "0.5",
        "path": "",
    },
    "sensor": {
        "origin_x": "0.0",
        "origin_y": "0.0",
        "sigma_r": "1.5",
        "sigma_a": "0.00523",
    },
    "ekf": {"q": "0.08"},
    "gp": {
        "max_pairs": "2000",
        "optimize_hyper": "true",
        "sigma0_sq": "1.0",
        "length_sq": "1.0",
        "noise_sq": "0.01",
        "n_particles": "1000",
        "sigma_p": "0.5",
    },
    "imm": {
        "modes": "cv,ct,ct",
        "train_r": "true",
        "init_q": "0.08",
        "init_omega": "0.22",
        "steps": "10000",
        "lr": "5e-4",
    },
    "mkf": {
        "hidden": "32",
        "dense": "32",
        "q_reg": "1e-2",
        "clip_norm": "10.0",
        "iterations": "10000",
        "lr": "5e-4",
    },
    "models": {"gp": "", "imm": "", "mkf": ""},
}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected boolean, got {text!r}")


def build(section: str, factory, **values):
    """factory(**values), with the ValueError it raises on a value it rejects
    raised again as a ConfigError "[section] ...".

    The caller reads the values, so they are read before the call and outside
    this handler: a bad number raises a ConfigError, which is a ValueError,
    and already names its own section and key.
    """
    try:
        return factory(**values)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from exc


class ExperimentConfig:
    """Typed view over the INI document with all defaults materialized."""

    def __init__(self, values: dict):
        self.values = values

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file {path} does not exist")
        # a value may hold "%", and [DEFAULT] is a section like any other: no
        # header can name the empty default section
        parser = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"config file {path}: {' '.join(str(exc).split())}") from exc
        values = {sec: dict(opts) for sec, opts in _DEFAULTS.items()}
        for section in parser.sections():
            if section not in values:
                raise ConfigError(f"unknown config section [{section}]")
            for key, val in parser.items(section):
                if key not in values[section]:
                    raise ConfigError(f"unknown key {key!r} in section [{section}]")
                values[section][key] = val
        return cls(values)

    def _get(self, section: str, key: str) -> str:
        return self.values[section][key]

    def fnum(self, section: str, key: str) -> float:
        try:
            return float(self._get(section, key))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def inum(self, section: str, key: str) -> int:
        try:
            return int(self._get(section, key))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from exc

    def text(self, section: str, key: str) -> str:
        return self._get(section, key).strip()

    def flag(self, section: str, key: str) -> bool:
        return _parse_bool(self._get(section, key))

    # -- typed assemblies -----------------------------------------------------

    def sensor(self) -> SensorConfig:
        return build(
            "sensor", SensorConfig,
            origin=(self.fnum("sensor", "origin_x"), self.fnum("sensor", "origin_y")),
            sigma_r=self.fnum("sensor", "sigma_r"),
            sigma_a=self.fnum("sensor", "sigma_a"),
        )

    def gct(self) -> GctConfig:
        return build(
            "dataset", GctConfig,
            n_steps=self.inum("dataset", "n_steps"),
            dt=self.fnum("dataset", "dt"),
            half_period=self.inum("dataset", "half_period"),
            turn_rate_bounds=(
                self.fnum("dataset", "turn_rate_low_deg"),
                self.fnum("dataset", "turn_rate_high_deg"),
            ),
            start_box=(
                (self.fnum("dataset", "start_low"), self.fnum("dataset", "start_high")),
                (self.fnum("dataset", "start_low"), self.fnum("dataset", "start_high")),
            ),
            speed=self.fnum("dataset", "speed"),
        )

    def resolved(self) -> dict:
        return {sec: dict(opts) for sec, opts in self.values.items()}
