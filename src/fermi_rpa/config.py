"""Run configuration: versioned defaults and JSON overrides.

The physical defaults (quadrature tolerance, oracle pair cap) live in
the packaged ``data/default_config.json`` and can be overridden by a
user-supplied JSON file of the same dialect or by CLI flags.  Unknown
keys in an override file are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from importlib import resources
from typing import Optional

from .errors import DomainError, ParseError

CONFIG_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    version: int = CONFIG_VERSION
    tol: float = 1e-10
    max_pairs: int = 2


def default_config() -> RunConfig:
    with resources.files("fermi_rpa").joinpath("data/default_config.json").open(
        "rb"
    ) as fh:
        return _parse_config(fh.read())


def load_config(path: Optional[str] = None) -> RunConfig:
    if path is None:
        return default_config()
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"unreadable config file {path}: {exc}") from exc
    base = default_config()
    override = _parse_config(raw, partial=True)
    return replace(
        base,
        **{
            field: getattr(override, field)
            for field in ("tol", "max_pairs")
            if getattr(override, field) is not None
        },
    )


def _parse_config(raw: bytes, partial: bool = False):
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed config document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config document must be a JSON object")
    if partial:
        return _PartialConfig(
            tol=float(doc["tol"]) if "tol" in doc else None,
            max_pairs=_integer(doc, "max_pairs") if "max_pairs" in doc else None,
        )
    try:
        return RunConfig(
            version=_integer(doc, "version"),
            tol=float(doc["tol"]),
            max_pairs=_integer(doc, "max_pairs"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid config document: {exc}") from exc


def _integer(doc: dict, key: str) -> int:
    """A count from a config document: a JSON integer, not a float or a bool."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


@dataclass(frozen=True)
class _PartialConfig:
    tol: Optional[float]
    max_pairs: Optional[int]


def checked_tol(tol: float) -> float:
    """The quadrature tolerance, from a flag or a config file; finite and > 0."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"tolerance must be finite and > 0, got {tol!r}")
    return tol


def checked_count(name: str, value: int) -> int:
    """An oracle count (trials, max_pairs), from a flag or a config file; >= 1."""
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    return value
