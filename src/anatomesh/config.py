"""Run configuration: sectioned ``key = value`` text files with strict keys and types."""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, fields

from .graphnet import TrainConfig
from .meshfit import FitConfig
from .synth import SynthConfig, SynthError

__all__ = ["RunConfig", "ConfigError", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    """Unknown key, malformed line or value, value out of range, or missing config file."""


# section -> its stage settings class, whose fields hold the section's
# defaults and whose __post_init__ holds their range rules
SETTINGS = {"synth": SynthConfig, "fit": FitConfig, "train": TrainConfig}

# section -> key -> default value; also serves as the schema, each value
# fixing its key's type. The keys outside the settings classes are run-level.
DEFAULTS: dict[str, dict[str, object]] = {
    "synth": {"n_train": 400, "n_test": 100, "seed": 0, **asdict(SynthConfig())},
    "fit": {**asdict(FitConfig()), "prototype_cases": 10},
    "train": {**asdict(TrainConfig()), "width": 64, "val_fraction": 0.2},
}


# [section] key -> (test, rule) for run-level values of the right type that no stage can use
RANGES = {
    ("synth", "n_train"): (lambda v: v >= 1, "at least 1"),
    ("synth", "n_test"): (lambda v: v >= 1, "at least 1"),
    ("synth", "seed"): (lambda v: v >= 0, "at least 0"),
    ("fit", "prototype_cases"): (lambda v: v >= 1, "at least 1"),
    ("train", "width"): (lambda v: v >= 1, "at least 1"),
    ("train", "val_fraction"): (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
}


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]]
    path: str
    digest: str
    synth: SynthConfig
    fit: FitConfig
    train: TrainConfig

    def get(self, section: str, key: str):
        """The value of ``[section] key``, of its default's type."""
        return self.values[section][key]


def _settings(section: str, values: dict[str, object]):
    """The section's settings object; its class raises '<key> must be <rule>' on a bad value."""
    cls = SETTINGS[section]
    return cls(**{f.name: values[f.name] for f in fields(cls)})


def _parse(value: str, default: object) -> object:
    """``value`` read as ``default``'s type: an integer literal, a float, or
    a tuple of as many floats as the default has; ValueError if it is not."""
    if not isinstance(default, tuple):
        return type(default)(value)
    items = tuple(float(v) for v in value.split())
    if len(items) != len(default):
        raise ValueError(value)
    return items


def _type_name(default: object) -> str:
    if isinstance(default, tuple):
        return f"{len(default)} floats"
    return "an integer" if isinstance(default, int) else "a float"


def load_config(path: str) -> RunConfig:
    """Parse a config file; unknown sections or keys and bad values are rejected."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "rb") as f:
        raw = f.read()
    digest = hashlib.sha256(raw).hexdigest()
    values = {s: dict(kv) for s, kv in DEFAULTS.items()}
    section = None
    for lineno, line in enumerate(raw.decode().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in DEFAULTS[section]:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}' in [{section}]")
        default = DEFAULTS[section][key]
        try:
            values[section][key] = _parse(value, default)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: [{section}] {key} must be "
                              f"{_type_name(default)}, got {value!r}") from None
        test, rule = RANGES.get((section, key), (None, None))
        try:
            if test and not test(values[section][key]):
                raise ValueError(f"{key} must be {rule}")
            _settings(section, values[section])
        except (ValueError, SynthError) as exc:
            raise ConfigError(f"{path}:{lineno}: [{section}] {exc}, got {value!r}") from None
    return RunConfig(values, path, digest, **{s: _settings(s, values[s]) for s in SETTINGS})
