"""Loading of noise/run configurations from YAML presets or files.

A configuration document is a mapping with optional top-level keys
`shots_per_term`, `pair_order`, `seed`, and a `noise` mapping whose keys
mirror the NoiseModel fields. Command-line flags override file values.
"""

from __future__ import annotations

import dataclasses
import re
from importlib import resources
from pathlib import Path

import yaml

from .errors import ConfigError
from .model import _REJECTED, NoiseModel, RunConfig

_NOISE_FIELDS = {f.name for f in dataclasses.fields(NoiseModel)}
_TOP_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


class _Loader(yaml.SafeLoader):
    """yaml.SafeLoader that reads every number in exponent form as a float,
    as JSON and YAML 1.2 do. YAML 1.1 asks for a dot and a signed exponent,
    so it reads 1e-05 and 1.0e9 as strings; a record writes every float
    below 1e-4 as 1e-05 is written, and its config block reads back."""


_EXPONENT_FLOAT = re.compile(r"^[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+$")
_Loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT, list("-+0123456789"))


def available_presets() -> list[str]:
    pkg = resources.files("kcbsim") / "presets"
    return sorted(p.name[: -len(".yaml")] for p in pkg.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> dict:
    """A shipped preset's parsed YAML; any other name, a path too, is a ConfigError."""
    shipped = available_presets()
    if name not in shipped:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(shipped)}")
    pkg = resources.files("kcbsim") / "presets" / f"{name}.yaml"
    return _parse(pkg.read_text(), source=f"preset {name!r}")


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file {'is not a regular file' if path.exists() else 'not found'}: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: cannot read as UTF-8 text ({exc})") from exc
    return _parse(text, source=str(path))


def _parse(text: str, source: str) -> dict:
    try:
        data = yaml.load(text, Loader=_Loader)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer too long to convert
        raise ConfigError(f"{source}: not valid YAML ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    return data


def build_run_config(
    data: dict,
    seed: int | None = None,
    shots: int | None = None,
    pair_order: str | None = None,
) -> RunConfig:
    """Turn a parsed configuration document into a RunConfig, applying
    overrides; a field that neither gives takes its RunConfig default.
    Unknown keys and field-level errors surface as ConfigError naming the
    key or field."""
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"unknown keys {_REJECTED.repr(sorted(unknown, key=repr))}")
    noise = data.get("noise", {})
    if not isinstance(noise, dict):
        raise ConfigError("'noise' must be a mapping")
    bad = set(noise) - _NOISE_FIELDS
    if bad:
        raise ConfigError(f"unknown noise keys {_REJECTED.repr(sorted(bad, key=repr))}")
    noise = NoiseModel(**noise)
    given = {"seed": seed, "shots_per_term": shots, "pair_order": pair_order}
    overrides = {k: v for k, v in given.items() if v is not None}
    return RunConfig(**{**data, **overrides, "noise": noise})
