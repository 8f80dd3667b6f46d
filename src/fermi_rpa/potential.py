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
``load_potential`` reads the whole document first, so a fault of type
anywhere in it, or a repeated entry, is reported before any check on a
value.  Then ``make_potential``, the one constructor, walks the entries
once: each must lie inside the support radius at a |k|^2 that fits in a
double, be finite and equal its explicit mirror (mirrors that disagree
raise ParseError), and is stored together with -k, completed by evenness
where it is missing.  The zero mode V(0) is allowed (it feeds the
Hartree-Fock direct term) but every correlation sum runs over the
support with k = 0 removed.

``make_potential`` then lays that support out as columns in the global
mode order (see ``Potential``), and every per-momentum reader zips them
by position: no reader looks a momentum up in the dict or recomputes its
|k|^2.  The sums of V alone are formed once per potential, on first use
(``Potential.once``): |V|_1 and sum_k V(k)^2 |k| here, A1..A5 and the
budget kernel in ``error_budget``.  The columns are tuples of Python
floats and ints, so row arithmetic is Python float arithmetic: an
overflow to inf, or an inf - inf, is silent, and the caller reports a
non-finite result (``finite_fsum``, say).  Every sum is ``math.fsum`` of
a list in mode order.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, Iterable, List, TypeVar

from .errors import NumericalFailure, ParseError
from .lattice import Momentum, fits_double, orbit_representative

ZERO: Momentum = (0, 0, 0)
T = TypeVar("T")


class Potential:
    """V as a dict ``coeffs`` and as columns of its nonzero support in mode order.

    ``make_potential`` builds both.  Each column is aligned with ``ks``,
    the tuple of the support minus k = 0 in the global mode order: ``kn``
    |k| and ``vs`` V(k) as tuples of floats (|k|^2 is summed as Python
    ints, since components may be as large as 10**150, and rounded once),
    and ``orbit`` the row's position in the tuple ``orbits``, the
    cubic-orbit representatives in the order ``ks`` first meets them.
    Readers zip the columns by position; none of them can be mutated.  The
    columns follow from ``coeffs``, so ``==`` compares only ``coeffs`` and
    ``support_radius_sq``, and a potential, holding a dict, has no hash.
    ``once`` keeps the quantities of V alone (sums over the support, the
    kernel), so a potential forms each of them once for every particle count.
    """

    __slots__ = ("coeffs", "support_radius_sq", "ks", "kn", "vs", "orbits", "orbit", "_derived")

    def __init__(self, coeffs, support_radius_sq, ks, kn, vs, orbits, orbit):
        self.coeffs, self.support_radius_sq = coeffs, support_radius_sq
        self.ks, self.kn, self.vs, self.orbits, self.orbit = ks, kn, vs, orbits, orbit
        self._derived = {}

    def __eq__(self, other):  # defining __eq__ leaves __hash__ None
        if type(other) is not Potential:
            return NotImplemented
        return (self.coeffs, self.support_radius_sq) == (other.coeffs, other.support_radius_sq)

    def value(self, k: Momentum) -> float:
        return self.coeffs.get(tuple(k), 0.0)

    def support(self) -> List[Momentum]:
        """Stored momenta in the global mode order (zeros retained)."""
        return [ZERO, *self.ks] if ZERO in self.coeffs else list(self.ks)

    def once(self, quantity: Callable[["Potential"], T]) -> T:
        """quantity(self), formed on the first call and kept on this potential.

        For quantities of V alone.  A call that raises keeps nothing, so
        the next call raises the same error.
        """
        derived = self._derived
        if quantity not in derived:
            derived[quantity] = quantity(self)
        return derived[quantity]


def make_potential(
    entries: Dict[Momentum, float], support_radius_sq: int = None
) -> Potential:
    """Build a potential from {k: value}, completing -k by evenness.

    One pass over the entries checks each one and stores it with its
    mirror -k.  An entry must lie inside the support radius (by default
    the largest |k|^2, so every entry does) at a |k|^2 that fits in a
    double, be finite, and equal its explicit mirror, which keeps its own
    bits: -0.0 == 0.0, but each is stored as given.  The first entry that
    fails raises ParseError; a mirror stored with an earlier entry was
    checked with it.
    """
    limit = math.inf if support_radius_sq is None else int(support_radius_sq)
    coeffs: Dict[Momentum, float] = {}
    norms: Dict[Momentum, int] = {}
    for k, v in entries.items():
        x, y, z = k = (int(k[0]), int(k[1]), int(k[2]))
        if k in coeffs:  # an earlier entry's mirror, checked with it
            continue
        v = float(v)
        s = x * x + y * y + z * z
        if s > limit:
            raise ParseError(f"coefficient at {k} lies outside support radius^2 {limit}")
        if not fits_double(s):
            raise ParseError(f"|k|^2 of the coefficient at {k} does not fit in a double")
        if not math.isfinite(v):
            raise ParseError(f"non-finite coefficient at {k}: {v}")
        minus_k = (-x, -y, -z)
        mirror = float(entries.get(minus_k, v))
        if mirror != v:
            raise ParseError(f"evenness violated: V{k} = {v} and V{minus_k} = {mirror} disagree")
        coeffs[k], coeffs[minus_k] = v, mirror
        norms[k] = norms[minus_k] = s
    # the global mode order, |k|^2 then lexicographic: a stable sort by
    # |k|^2 of the lexicographic order.  k = 0 alone has |k|^2 = 0.
    ks = sorted(sorted(norms), key=norms.__getitem__)
    if ks and norms[ks[0]] == 0:
        del ks[0]
    reps: Dict[Momentum, int] = {}
    orbit = tuple(reps.setdefault(orbit_representative(k), len(reps)) for k in ks)
    kn = tuple(math.sqrt(norms[k]) for k in ks)
    vs = tuple(coeffs[k] for k in ks)
    if support_radius_sq is None:
        limit = max(norms.values(), default=0)
    return Potential(coeffs, limit, tuple(ks), kn, vs, tuple(reps), orbit)


def _json_object(raw: bytes) -> dict:
    """The top-level object of a UTF-8 JSON potential document."""
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"malformed potential document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("potential document must be a JSON object")
    return doc


def _json_integer(value, key: str, *at) -> int:
    """A JSON integer: not a float (even 2.0), a bool or a string.

    A rejection names the value ``key.format(*at)``; the name is built
    only then, so a long document's valid entries format none.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{key.format(*at)} must be an integer, got {json.dumps(value)}")
    return value


def _json_number(value, key: str, *at) -> float:
    """A finite JSON number, integer or not: not a bool or a string; named as in _json_integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{key.format(*at)} must be a number, got {json.dumps(value)}")
    try:
        number = float(value)
    except OverflowError as exc:  # an integer literal beyond double range
        raise ParseError(f"{key.format(*at)} is out of range, got {json.dumps(value)}") from exc
    if not math.isfinite(number):  # json reads NaN, Infinity and 1e999 as floats
        raise ParseError(f"{key.format(*at)} is non-finite, got {json.dumps(value)}")
    return number


def load_potential(path) -> Potential:
    """Read the potential document at ``path`` into make_potential."""
    try:
        with open(path, "rb") as fh:
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
        if not (isinstance(item, dict) and "k" in item and "v" in item):
            raise ParseError(
                f"coeffs[{i}] must be an object with 'k' and 'v', got {json.dumps(item)}"
            )
        k = item["k"]
        if not (isinstance(k, list) and len(k) == 3):
            raise ParseError(f"coeffs[{i}].k must have three components, got {json.dumps(k)}")
        x, y, z = k
        k = (
            _json_integer(x, "coeffs[{}].k[0]", i),
            _json_integer(y, "coeffs[{}].k[1]", i),
            _json_integer(z, "coeffs[{}].k[2]", i),
        )
        if k in explicit:
            raise ParseError(f"duplicate coefficient entry for {k}")
        explicit[k] = _json_number(item["v"], "coeffs[{}].v", i)
    return make_potential(explicit, radius_sq)


def serialize_potential(v: Potential) -> str:
    """Canonical JSON document; floats keep full round-trip precision.

    The bytes are those of ``json.dumps`` with separators ", " and ": ",
    which writes an int by its decimal and a finite float by its repr.
    """
    values = list(v.vs)
    if ZERO in v.coeffs:
        values.insert(0, v.coeffs[ZERO])
    entries = ", ".join(
        f'{{"k": [{x}, {y}, {z}], "v": {value!r}}}' for (x, y, z), value in zip(v.support(), values)
    )
    return f'{{"support_radius_sq": {v.support_radius_sq}, "coeffs": [{entries}]}}'


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
    """sum_k |V(k)| over the support (k = 0 included), formed once per potential."""
    return v.once(_l1_norm)


def _l1_norm(v: Potential) -> float:
    terms = list(map(abs, v.vs))
    if ZERO in v.coeffs:
        terms.insert(0, abs(v.coeffs[ZERO]))
    return finite_fsum(terms, "sum_k |V(k)|")


def square_sum(v: Potential) -> float:
    """sum_k V(k)^2 |k| over the nonzero support, formed once per potential.

    A term or the sum beyond the double range raises NumericalFailure.
    """
    return v.once(_square_sum)


def _square_sum(v: Potential) -> float:
    # Python's ** raises OverflowError on overflow, which finite_fsum maps
    terms = (x ** 2 * kn for x, kn in zip(v.vs, v.kn))
    return finite_fsum(terms, "sum_k |k| V(k)^2")
