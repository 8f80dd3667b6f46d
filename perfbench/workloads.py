"""Seeded inputs and operation lists for the benchmark workloads.

The workload seed decides every input: the potential documents written
to disk and the oracle's ``--seed``.  The program under test receives
only those files and its argv.  Every generated V(k) is positive and at
most 0.08, which keeps alpha_k > |beta_k|, 1 + c V(k) > 0 and
a = 2 pi kappa V(k) > -1 for any seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

Momentum = Tuple[int, int, int]

SUPPORT_RADIUS_SQ = 30
RADIAL_NS = (257, 2109, 7153)
BULK_N = 57777
ORACLE_TRIALS = 10
ORACLE_HOLES_N = 7
ORACLE_LAMBDA_SQ = 2
ORACLE_PAIRS = 2

WORKLOADS = ("radial-sweep", "lattice-bulk", "fock-oracle")


def norm_sq(k: Momentum) -> int:
    return k[0] * k[0] + k[1] * k[1] + k[2] * k[2]


def support_momenta(radius_sq: int = SUPPORT_RADIUS_SQ) -> List[Momentum]:
    """Nonzero lattice momenta with |k|^2 <= radius_sq (738 for radius^2 30)."""
    r = math.isqrt(radius_sq)
    span = range(-r, r + 1)
    return [
        (x, y, z)
        for x in span
        for y in span
        for z in span
        if 0 < x * x + y * y + z * z <= radius_sq
    ]


def radial_potential(rng: random.Random) -> Dict[Momentum, float]:
    """V(k) depends on |k|^2 only: 26 distinct values over 738 momenta."""
    support = support_momenta()
    by_norm = {s: rng.uniform(0.02, 0.08) for s in sorted({norm_sq(k) for k in support})}
    coeffs = {(0, 0, 0): rng.uniform(0.02, 0.08)}
    coeffs.update({k: by_norm[norm_sq(k)] for k in support})
    return coeffs


def nonradial_potential(rng: random.Random) -> Dict[Momentum, float]:
    """One distinct value per +-k pair: 369 values over 738 momenta."""
    coeffs = {(0, 0, 0): rng.uniform(0.02, 0.08)}
    for k in support_momenta():
        mirror = (-k[0], -k[1], -k[2])
        coeffs[k] = coeffs[mirror] if mirror in coeffs else rng.uniform(0.005, 0.05)
    if len(set(coeffs.values())) != len(coeffs) // 2 + 1:
        raise RuntimeError("non-radial potential values are not distinct per pair")
    return coeffs


def write_potential(path: Path, coeffs: Dict[Momentum, float]) -> None:
    doc = {
        "support_radius_sq": SUPPORT_RADIUS_SQ,
        "coeffs": [{"k": list(k), "v": v} for k, v in coeffs.items()],
    }
    path.write_text(json.dumps(doc) + "\n")


@dataclass
class Workload:
    """Generated inputs plus the CLI operations of one pass, in order."""

    name: str
    ops: List[Tuple[str, List[str]]]
    potential: Dict[Momentum, float] = field(default_factory=dict)
    oracle_seed: int = 0


def make_workload(name: str, seed: int, input_dir: Path) -> Workload:
    """Write the seeded inputs for ``name`` under input_dir and list its ops."""
    rng = random.Random(f"{name}:{seed}")
    input_dir.mkdir(parents=True, exist_ok=True)
    if name == "radial-sweep":
        coeffs = radial_potential(rng)
        path = input_dir / "radial.json"
        write_potential(path, coeffs)
        n_list = ",".join(str(n) for n in RADIAL_NS)
        ops = [("compare", ["compare", "--potential", str(path), "--n-list", n_list])]
        return Workload(name, ops, potential=coeffs)
    if name == "lattice-bulk":
        coeffs = nonradial_potential(rng)
        path = input_dir / "nonradial.json"
        write_potential(path, coeffs)
        common = ["--n", str(BULK_N), "--potential", str(path)]
        ops = [
            ("hf", ["hf", *common]),
            ("corr-delocalized-exact", ["corr", *common, "--method", "delocalized-exact"]),
            ("errors-exact", ["errors", *common, "--backend", "exact"]),
            ("corr-optimal", ["corr", *common, "--method", "optimal"]),
        ]
        return Workload(name, ops, potential=coeffs)
    if name == "fock-oracle":
        oracle_seed = rng.randrange(1, 1_000_000)
        ops = [
            (
                "oracle",
                [
                    "oracle",
                    "--holes-n", str(ORACLE_HOLES_N),
                    "--lambda-sq", str(ORACLE_LAMBDA_SQ),
                    "--pairs", str(ORACLE_PAIRS),
                    "--seed", str(oracle_seed),
                    "--trials", str(ORACLE_TRIALS),
                ],
            )
        ]
        return Workload(name, ops, oracle_seed=oracle_seed)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
