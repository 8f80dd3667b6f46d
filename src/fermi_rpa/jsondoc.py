"""Typed reads from the JSON input documents (run config, potential).

JSON tells integers (``2``) from other numbers (``2.9``) and from
``true``; Python's ``json`` maps them to int, float and bool, and bool
is a subclass of int.  Every reader of an input document goes through
these checkers, so a value is never silently truncated or coerced, and
each rejection is a ParseError naming the key and the offending value.
"""

from __future__ import annotations

import json
from typing import Union

from .errors import ParseError


def json_object(raw: Union[bytes, str], what: str) -> dict:
    """The top-level object of a UTF-8 JSON document."""
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed {what} document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{what} document must be a JSON object")
    return doc


def json_integer(value, key: str) -> int:
    """A JSON integer: not a float (even 2.0), a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def json_number(value, key: str) -> float:
    """A JSON number, integer or not: not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{key} must be a number, got {json.dumps(value)}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond double range
        raise ParseError(f"{key} is out of range, got {json.dumps(value)}") from exc
