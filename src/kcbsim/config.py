"""Loading of noise/run configurations from YAML presets or files.

A configuration document is a mapping with optional top-level keys
`shots_per_term`, `pair_order`, `seed`, and a `noise` mapping whose keys
mirror the NoiseModel fields. Command-line flags override file values.
"""

from __future__ import annotations

import dataclasses
from importlib import resources
from pathlib import Path

import yaml

from .errors import ConfigError
from .experiment import NoiseModel, RunConfig

_NOISE_FIELDS = {f.name for f in dataclasses.fields(NoiseModel)}
_TOP_FIELDS = {"shots_per_term", "pair_order", "seed", "noise"}

DEFAULT_SHOTS = 10_000
DEFAULT_SEED = 0


def available_presets() -> list[str]:
    pkg = resources.files("kcbsim") / "presets"
    return sorted(p.name[: -len(".yaml")] for p in pkg.iterdir() if p.name.endswith(".yaml"))


def load_preset(name: str) -> dict:
    pkg = resources.files("kcbsim") / "presets" / f"{name}.yaml"
    if not pkg.is_file():
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    return _parse(pkg.read_text(), source=f"preset {name!r}")


def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path}: cannot read as UTF-8 text ({exc})") from exc
    return _parse(text, source=str(path))


def _parse(text: str, source: str) -> dict:
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an integer too long to convert
        raise ConfigError(f"{source}: not valid YAML ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{source}: top level must be a mapping")
    unknown = set(data) - _TOP_FIELDS
    if unknown:
        raise ConfigError(f"{source}: unknown keys {sorted(unknown, key=repr)}")
    noise = data.get("noise", {})
    if not isinstance(noise, dict):
        raise ConfigError(f"{source}: 'noise' must be a mapping")
    bad = set(noise) - _NOISE_FIELDS
    if bad:
        raise ConfigError(f"{source}: unknown noise keys {sorted(bad, key=repr)}")
    return data


def build_run_config(
    data: dict,
    seed: int | None = None,
    shots: int | None = None,
    pair_order: str | None = None,
) -> RunConfig:
    """Turn a parsed configuration document into a RunConfig, applying
    overrides. Field-level errors surface as ConfigError naming the field."""
    try:
        noise = NoiseModel(**data.get("noise", {}))
    except TypeError as exc:
        raise ConfigError(f"invalid noise configuration: {exc}") from exc
    resolved_seed = seed if seed is not None else data.get("seed", DEFAULT_SEED)
    resolved_shots = shots if shots is not None else data.get("shots_per_term", DEFAULT_SHOTS)
    resolved_order = pair_order if pair_order is not None else data.get("pair_order", "forward")
    return RunConfig(
        seed=resolved_seed,
        shots_per_term=resolved_shots,
        noise=noise,
        pair_order=resolved_order,
    )


def config_as_dict(config: RunConfig) -> dict:
    """Round-trippable plain-dict form of a RunConfig."""
    return {
        "seed": config.seed,
        "shots_per_term": config.shots_per_term,
        "pair_order": config.pair_order,
        "noise": dataclasses.asdict(config.noise),
    }
