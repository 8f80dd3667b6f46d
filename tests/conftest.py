import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from fermi_rpa.fock_oracle import build_mode_set
from fermi_rpa.lattice import build_fermi_ball
from fermi_rpa.potential import make_potential


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as the module ``name``, registered in sys.modules
    (dataclasses look their module up there, and run.py imports workloads by name)."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = path  # run.py puts perfbench/ first on the path
    return module


@pytest.fixture(scope="session")
def ball7():
    return build_fermi_ball(7)


@pytest.fixture(scope="session")
def ball33():
    return build_fermi_ball(33)


@pytest.fixture(scope="session")
def ball2109():
    return build_fermi_ball(2109)


@pytest.fixture(scope="session")
def demo_potential():
    return make_potential(
        {(1, 0, 0): 0.5, (0, 1, 0): 0.5, (0, 0, 1): 0.5, (1, 1, 0): 0.25},
        support_radius_sq=2,
    )


def scaled_potential(v, s):
    """v with every coefficient multiplied by s, on the same support."""
    return make_potential({k: s * x for k, x in v.coeffs.items()}, v.support_radius_sq)


@pytest.fixture(scope="session")
def weak_potential():
    return make_potential(
        {(1, 0, 0): 1e-4, (0, 1, 0): 1e-4, (0, 0, 1): 1e-4},
        support_radius_sq=1,
    )


@pytest.fixture(scope="session")
def modes_7_2():
    return build_mode_set(7, 2)


def brute_force_ball(radius_sq):
    """Triple-loop enumeration, independent of the package's numpy path."""
    pts = []
    r = int(np.ceil(np.sqrt(radius_sq))) if radius_sq > 0 else 0
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            for z in range(-r, r + 1):
                if x * x + y * y + z * z <= radius_sq:
                    pts.append((x, y, z))
    return pts
