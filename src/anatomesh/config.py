"""Run configuration: sectioned ``key = value`` text files with strict keys."""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

__all__ = ["RunConfig", "ConfigError", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    """Unknown key, malformed line or missing config file."""


# section -> key -> default value; also serves as the schema
DEFAULTS: dict[str, dict[str, object]] = {
    "synth": {
        "n_train": 400,
        "n_test": 100,
        "seed": 0,
        "grid": 48,
        "noise": 0.2,
        "bend": 6.0,
        "class_mix": "0.25 0.25 0.25 0.25",
    },
    "fit": {
        "lambda1": 1e-4,
        "lambda2": 1e-2,
        "step_size": 0.25,
        "max_iters": 400,
        "tol": 1e-6,
        "prototype_cases": 10,
    },
    "pool": {
        "pooling": "mean",
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
    "classify": {
        "pv_threshold": "auto",
    },
}


@dataclass
class RunConfig:
    values: dict[str, dict[str, object]]
    path: str
    digest: str

    def get(self, section: str, key: str):
        return self.values[section][key]

    def get_float(self, section: str, key: str) -> float:
        return float(self.values[section][key])

    def get_int(self, section: str, key: str) -> int:
        value = self.values[section][key]
        try:
            return int(str(value))
        except ValueError:
            raise ConfigError(f"[{section}] {key} must be an integer, got {value!r}") from None

    def get_floats(self, section: str, key: str) -> tuple[float, ...]:
        return tuple(float(v) for v in str(self.values[section][key]).split())


def load_config(path: str) -> RunConfig:
    """Parse a config file; unknown sections or keys are rejected."""
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
        values[section][key] = value
    return RunConfig(values, path, digest)
