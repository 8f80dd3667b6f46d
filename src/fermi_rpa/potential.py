"""Interaction potentials given by finitely many Fourier coefficients.

A potential is the even, real, finitely supported map k -> V(k) on Z^3.
The on-disk document is JSON:

    {"support_radius_sq": 2,
     "coeffs": [{"k": [1, 0, 0], "v": 0.5}, ...]}

``support_radius_sq`` and the three components of each ``k`` must be
JSON integers and each ``v`` a JSON number; an entry may not repeat.
JSON tells integers (``2``) from other numbers (``2.9``) and from
``true``, while Python's bool is a subclass of int, so the reader checks
each value's JSON kind itself: nothing is silently truncated or coerced,
and each rejection is a ParseError naming the key and the offending value.
``load_potential`` only reads the document.  ``make_potential`` then
completes missing -k entries by evenness, and ``Potential`` itself
checks that every coefficient lies inside the support radius at a |k|^2
that fits in a double, is finite and equals its mirror, so explicit
mirrors that disagree raise ParseError.  The zero mode V(0) is
allowed (it feeds the Hartree-Fock direct term) but every correlation
sum runs over the support with k = 0 removed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, IO, Iterable, List, Tuple, Union

from .errors import DomainError, NumericalFailure, ParseError
from .lattice import Momentum, mode_sort_key, negate, norm_sq


@dataclass(frozen=True)
class Potential:
    coeffs: Dict[Momentum, float]
    support_radius_sq: int

    def __post_init__(self):
        for k, v in self.coeffs.items():
            if norm_sq(k) > self.support_radius_sq:
                raise ParseError(
                    f"coefficient at {k} lies outside support radius^2 "
                    f"{self.support_radius_sq}"
                )
            try:
                float(norm_sq(k))
            except OverflowError:
                raise ParseError(
                    f"|k|^2 of the coefficient at {k} does not fit in a double"
                ) from None
            if not math.isfinite(v):
                raise ParseError(f"non-finite coefficient at {k}: {v}")
            mirror = self.coeffs.get(negate(k))
            if mirror is None or mirror != v:
                raise ParseError(
                    f"evenness violated: V{k} = {v} and V{negate(k)} = {mirror} disagree"
                )

    def value(self, k: Momentum) -> float:
        return self.coeffs.get(tuple(k), 0.0)

    @cached_property
    def _ordered(self) -> Tuple[Momentum, ...]:
        return tuple(sorted(self.coeffs, key=mode_sort_key))

    def support(self) -> List[Momentum]:
        """Stored momenta in the global mode order (zeros retained)."""
        return list(self._ordered)

    def correlation_support(self) -> List[Momentum]:
        """Support minus the zero mode, in the global mode order."""
        return [k for k in self._ordered if norm_sq(k) > 0]


def make_potential(
    entries: Dict[Momentum, float], support_radius_sq: int = None
) -> Potential:
    """Build a potential from {k: value}, completing -k by evenness."""
    coeffs: Dict[Momentum, float] = {}
    for k, v in entries.items():
        k = tuple(int(c) for c in k)
        coeffs[k] = float(v)
        coeffs.setdefault(negate(k), coeffs[k])
    if support_radius_sq is None:
        support_radius_sq = max((norm_sq(k) for k in coeffs), default=0)
    return Potential(coeffs=coeffs, support_radius_sq=int(support_radius_sq))


def _json_object(raw: Union[bytes, str]) -> dict:
    """The top-level object of a UTF-8 JSON potential document."""
    try:
        doc = json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed potential document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("potential document must be a JSON object")
    return doc


def _json_integer(value, key: str) -> int:
    """A JSON integer: not a float (even 2.0), a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _json_number(value, key: str) -> float:
    """A finite JSON number, integer or not: not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{key} must be a number, got {json.dumps(value)}")
    try:
        number = float(value)
    except OverflowError as exc:  # an integer literal beyond double range
        raise ParseError(f"{key} is out of range, got {json.dumps(value)}") from exc
    if not math.isfinite(number):  # json reads NaN, Infinity and 1e999 as floats
        raise ParseError(f"{key} is non-finite, got {json.dumps(value)}")
    return number


def load_potential(source: Union[str, bytes, IO]) -> Potential:
    """Read a potential document (path, bytes, or stream) into make_potential."""
    try:
        if hasattr(source, "read"):
            raw = source.read()
        elif isinstance(source, (bytes, bytearray)):
            raw = bytes(source)
        else:
            with open(source, "rb") as fh:
                raw = fh.read()
    except OSError as exc:
        raise ParseError(f"unreadable potential document: {exc}") from exc
    doc = _json_object(raw)
    if not isinstance(doc.get("coeffs"), list):
        raise ParseError("potential document must be an object with a 'coeffs' array")
    if "support_radius_sq" not in doc:
        raise ParseError("potential document has no 'support_radius_sq'")
    radius_sq = _json_integer(doc["support_radius_sq"], "support_radius_sq")

    explicit: Dict[Momentum, float] = {}
    for i, item in enumerate(doc["coeffs"]):
        entry = f"coeffs[{i}]"
        if not (isinstance(item, dict) and "k" in item and "v" in item):
            raise ParseError(
                f"{entry} must be an object with 'k' and 'v', got {json.dumps(item)}"
            )
        if not (isinstance(item["k"], list) and len(item["k"]) == 3):
            raise ParseError(
                f"{entry}.k must have three components, got {json.dumps(item['k'])}"
            )
        k = tuple(_json_integer(c, f"{entry}.k[{j}]") for j, c in enumerate(item["k"]))
        if k in explicit:
            raise ParseError(f"duplicate coefficient entry for {k}")
        explicit[k] = _json_number(item["v"], f"{entry}.v")
    return make_potential(explicit, radius_sq)


def serialize_potential(v: Potential) -> str:
    """Canonical JSON document; floats keep full round-trip precision."""
    entries = [
        {"k": list(k), "v": v.coeffs[k]} for k in v.support()
    ]
    return json.dumps(
        {"support_radius_sq": v.support_radius_sq, "coeffs": entries},
        separators=(", ", ": "),
    )


def scale_coupling(v: Potential, s: float) -> Potential:
    """Multiply every coefficient by s; the support set is unchanged."""
    if not math.isfinite(s):
        raise DomainError(f"coupling scale must be finite, got {s}")
    return Potential(
        coeffs={k: s * val for k, val in v.coeffs.items()},
        support_radius_sq=v.support_radius_sq,
    )


def finite_fsum(terms: Iterable[float], quantity: str) -> float:
    """math.fsum of the terms, or a NumericalFailure naming ``quantity`` when a
    term or the sum leaves the double range: never an OverflowError or an inf."""
    try:
        values = list(terms)
        if all(map(math.isfinite, values)):
            return math.fsum(values)
    except OverflowError:
        pass
    raise NumericalFailure(f"{quantity} overflows a double")


def l1_norm(v: Potential) -> float:
    return finite_fsum((abs(v.coeffs[k]) for k in v.support()), "sum_k |V(k)|")
