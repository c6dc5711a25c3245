"""Run configuration: sectioned ``key = value`` text files with strict keys and types."""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, replace

from .graphnet import TrainConfig
from .meshfit import FitConfig
from .synth import SynthConfig, SynthError

__all__ = ["RunConfig", "ConfigError", "load_config", "DEFAULTS"]


class ConfigError(ValueError):
    """Unknown, repeated or malformed key, bad value, undecodable or missing config file."""


# section -> its settings class: each field is one of the section's keys,
# with the run default, and __post_init__ holds the keys' range rules
SETTINGS = {"synth": SynthConfig, "fit": FitConfig, "train": TrainConfig}

# section -> key -> default value; each value fixes its key's type
DEFAULTS: dict[str, dict[str, object]] = {s: asdict(cls()) for s, cls in SETTINGS.items()}


@dataclass
class RunConfig:
    path: str
    digest: str
    synth: SynthConfig
    fit: FitConfig
    train: TrainConfig


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
    """Parse a config file; unknown sections or keys, keys set twice and bad
    values are rejected."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "rb") as f:
        raw = f.read()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        lineno = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} "
                          f"at byte {exc.start}") from None
    settings = {s: cls() for s, cls in SETTINGS.items()}
    set_on: dict[tuple[str, str], int] = {}  # [section] key -> the line that set it
    section = None
    for lineno, line in enumerate(text.splitlines(), 1):
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
        if (section, key) in set_on:
            raise ConfigError(f"{path}:{lineno}: [{section}] {key} is already set "
                              f"on line {set_on[section, key]}")
        set_on[section, key] = lineno
        default = DEFAULTS[section][key]
        try:
            parsed = _parse(value, default)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: [{section}] {key} must be "
                              f"{_type_name(default)}, got {value!r}") from None
        try:
            settings[section] = replace(settings[section], **{key: parsed})
        except (ValueError, SynthError) as exc:
            raise ConfigError(f"{path}:{lineno}: [{section}] {exc}, got {value!r}") from None
    return RunConfig(path, digest, **settings)
