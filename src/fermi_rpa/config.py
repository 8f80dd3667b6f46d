"""Run configuration: defaults and JSON overrides.

The defaults (quadrature tolerance ``rpa_optimal.DEFAULT_TOL`` = 1e-10,
oracle pair cap 2) are the field values of ``RunConfig``.  A JSON file
given with ``--config`` overrides any of them; CLI flags override the
file.  In the file, ``tol`` must be a finite JSON number > 0,
``max_pairs`` a JSON integer >= 1 and ``version``, if present, the integer
1, even where a flag overrides the value.  Unknown keys are ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, ParseError
from .jsondoc import json_integer, json_number, json_object
from .rpa_optimal import DEFAULT_TOL

CONFIG_VERSION = 1


@dataclass(frozen=True)
class RunConfig:
    tol: float = DEFAULT_TOL
    max_pairs: int = 2


# override key -> checker of its JSON value
_OVERRIDES = {
    "tol": lambda value, key: checked_tol(json_number(value, key)),
    "max_pairs": lambda value, key: checked_count(key, json_integer(value, key)),
}


def load_config(path: Optional[str] = None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"unreadable config file {path}: {exc}") from exc
    doc = json_object(raw, "config")
    if "version" in doc and json_integer(doc["version"], "version") != CONFIG_VERSION:
        raise ParseError(f"version must be {CONFIG_VERSION}, got {doc['version']}")
    return RunConfig(
        **{key: check(doc[key], key) for key, check in _OVERRIDES.items() if key in doc}
    )


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
