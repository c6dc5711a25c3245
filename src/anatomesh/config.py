"""Run configuration: sectioned ``key = value`` text files with strict keys and types."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

__all__ = ["RunConfig", "ConfigError", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    """Unknown key, malformed line or value, value out of range, or missing config file."""


# section -> key -> default value; also serves as the schema, each value
# fixing its key's type
DEFAULTS: dict[str, dict[str, object]] = {
    "synth": {
        "n_train": 400,
        "n_test": 100,
        "seed": 0,
        "grid": 48,
        "noise": 0.2,
        "bend": 6.0,
        "class_mix": (0.25, 0.25, 0.25, 0.25),
    },
    "fit": {
        "lambda1": 1e-4,
        "lambda2": 1e-2,
        "step_size": 0.25,
        "max_iters": 400,
        "tol": 1e-6,
        "prototype_cases": 10,
    },
    "train": {
        "eta1": 0.1,
        "eta2": 0.1,
        "learning_rate": 1e-4,
        "momentum": 0.9,
        "epochs": 60,
        "batch_size": 16,
        "seed": 0,
        "width": 64,
        "val_fraction": 0.2,
    },
}


# [section] key -> (test, rule) for values of the right type that no stage can use
RANGES = {
    ("synth", "n_train"): (lambda v: v >= 1, "at least 1"),
    ("synth", "noise"): (lambda v: 0.0 <= v < 0.5, "in [0, 0.5)"),
    ("train", "epochs"): (lambda v: v >= 0, "at least 0"),
    ("train", "batch_size"): (lambda v: v >= 1, "at least 1"),
    ("train", "val_fraction"): (lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
}


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]]
    path: str
    digest: str

    def get(self, section: str, key: str):
        """The value of ``[section] key``, of its default's type."""
        return self.values[section][key]


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
        if test and not test(values[section][key]):
            raise ConfigError(f"{path}:{lineno}: [{section}] {key} must be {rule}, got {value!r}")
    return RunConfig(values, path, digest)
