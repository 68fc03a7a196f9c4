"""Configuration file handling.

Settings live in a JSON document whose optional sections, the keys of
``_SECTIONS``, set the ``AppConfig`` fields of their names. Resolution
order for every effective value: command-line flag > config file >
built-in default. The environment variable GRIDLANDER_CONFIG supplies the
file path when no --config flag is given. Unknown sections or keys are
rejected before any command runs.
"""

from __future__ import annotations

import json
import os
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Optional, Sequence

from .dqn import TrainConfig
from .env import EnvConfig
from .errors import ContractViolation
from .vital import MODALITIES, VitalConfig

ENV_VAR = "GRIDLANDER_CONFIG"


@dataclass
class AppConfig:
    env: EnvConfig = field(default_factory=EnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    detector: VitalConfig = field(default_factory=VitalConfig)
    ppm_channel_order: tuple[str, ...] = MODALITIES


def _fits(value, hint) -> bool:
    """Whether a JSON value fits an annotated field type: numbers are never
    bools or strings, an int field takes only ints and a float field ints or
    floats, and a tuple field takes a list of its length."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        return (
            isinstance(value, (list, tuple))
            and len(value) == len(args)
            and all(map(_fits, value, args))
        )
    return not isinstance(value, bool) and isinstance(value, (int, float) if hint is float else hint)


def build_section(dc_type, section, where: str):
    """Build ``dc_type`` from a JSON object, rejecting unknown keys and values
    that do not fit the field annotations; ``where`` names the section in errors."""
    if not isinstance(section, dict):
        raise ContractViolation(f"config section {where} must be a JSON object")
    known = {f.name for f in fields(dc_type)}
    unknown = set(section) - known
    if unknown:
        raise ContractViolation(f"unknown {where} keys: {sorted(unknown)}")
    hints = typing.get_type_hints(dc_type)
    kwargs = {}
    for key, value in section.items():
        if not _fits(value, hints[key]):
            raise ContractViolation(f"{where}.{key} has the wrong type: {value!r}")
        kwargs[key] = tuple(value) if isinstance(value, list) else value
    return dc_type(**kwargs)


def check_channel_order(order: Sequence[str]) -> tuple[str, ...]:
    """``order`` as a tuple, if it is a list or tuple permuting the modalities."""
    if not (
        isinstance(order, (list, tuple))
        and all(isinstance(m, str) for m in order)
        and sorted(order) == sorted(MODALITIES)
    ):
        raise ContractViolation(f"channel order must be a permutation of {MODALITIES}, got {order!r}")
    return tuple(order)


# each section, in build order, with the dataclass it builds or the function that checks it
_SECTIONS = {"env": EnvConfig, "train": TrainConfig, "detector": VitalConfig,
             "ppm_channel_order": check_channel_order}


def parse_config_dict(raw: dict) -> AppConfig:
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise ContractViolation(f"unknown config sections: {sorted(unknown)}")
    return AppConfig(**{
        name: build_section(kind, raw[name], name) if is_dataclass(kind) else kind(raw[name])
        for name, kind in _SECTIONS.items() if name in raw
    })


def load_config(path: Optional[str]) -> AppConfig:
    """Load the config file from ``path``, the GRIDLANDER_CONFIG variable,
    or fall back to built-in defaults."""
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return AppConfig()
    p = Path(path)
    if not p.exists():
        raise ContractViolation(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"config file {path} is not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ContractViolation(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ContractViolation(f"config file {path} must hold a JSON object")
    return parse_config_dict(raw)
