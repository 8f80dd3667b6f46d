"""Spans around the package's public functions, recorded from outside it.

The program has no trace channel of its own yet, so the traced run wraps
the public functions of each module in this file's code.  Several modules
bind them by ``from .lattice import ...``; patching only the defining
module would silently miss those calls.  ``Tracer.installed`` therefore
replaces the function in every loaded ``fermi_rpa`` namespace that binds
it and restores all of them on exit.

Spans (name, parent, start, end) are kept in memory and written out when
the run ends.  A span's self time is its duration minus the durations of
its direct children.  Integrand evaluations are counted through the
callable handed to ``integrate_adaptive``, and Gauss-Kronrod panels
through calls to the module's panel rule, so neither adds a span.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

# module -> {function: span name}; several functions may share a span name
SPANNED = {
    "lattice": {
        "build_fermi_ball": "lattice.build_fermi_ball",
        "lune_count": "lattice.lune_count",
        "kinetic_coefficient": "lattice.kinetic_coefficient",
    },
    "hf": {"hf_energy": "hf.hf_energy"},
    "rpa_delocalized": {
        "correlation_delocalized": "rpa_delocalized.correlation_delocalized",
        "second_order_delocalized": "rpa_delocalized.second_order_delocalized",
    },
    "rpa_optimal": {
        "gmb_correlation": "rpa_optimal.gmb_correlation",
        "gmb_integral": "rpa_optimal.gmb_integral",
    },
    "quadrature": {"integrate_adaptive": "quadrature.integrate_adaptive"},
    "error_budget": {"assemble_error_budget": "error_budget.assemble_error_budget"},
    "report": {"energy_report": "report.energy_report"},
    "fock_oracle": {
        "sector_basis": "fock_oracle.sector_basis",
        "random_sector_state": "fock_oracle.random_sector_state",
        "apply_pair_create": "fock_oracle.apply",
        "apply_pair_annihilate": "fock_oracle.apply",
        "apply_c_create": "fock_oracle.apply",
        "apply_number": "fock_oracle.apply",
        "assemble_quadratic_interaction": "fock_oracle.assemble_quadratic_interaction",
        "verify_almost_ccr": "fock_oracle.verify.almost_ccr",
        "verify_c_commutator": "fock_oracle.verify.c_commutator",
        "verify_quadratic_interaction": "fock_oracle.verify.quadratic_interaction",
    },
}


class Tracer:
    def __init__(self):
        self.spans: List[list] = []  # [name, parent index or -1, start_ns, end_ns]
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.a_values: set = set()
        self.gmb_errors: List[float] = []
        self.sector_dims: List[int] = []
        self.bindings: Dict[str, int] = {}

    # --- recording -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, self._stack[-1] if self._stack else -1, 0, 0]
        self.spans.append(record)
        self._stack.append(index)
        record[2] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def _spanned(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _scan(self, args, kwargs):
        ball = args[0] if args else kwargs["ball"]
        self.counts["lattice.points_scanned"] += ball.n
        return args, kwargs

    def _integral_arg(self, args, kwargs):
        self.a_values.add(args[0] if args else kwargs["a"])
        return args, kwargs

    def _count_evals(self, args, kwargs):
        f = args[0] if args else kwargs.pop("f")
        counts = self.counts

        def counted(x):
            counts["quadrature.evals"] += 1
            return f(x)

        return (counted, *args[1:]), kwargs

    def _hooks(self, function: str):
        return {
            "lune_count": (self._scan, None),
            "kinetic_coefficient": (self._scan, None),
            "gmb_integral": (self._integral_arg, None),
            "integrate_adaptive": (self._count_evals, None),
            "gmb_correlation": (None, lambda r: self.gmb_errors.append(r.error)),
            "sector_basis": (None, lambda r: self.sector_dims.append(len(r))),
        }.get(function, (None, None))

    def _panel_counter(self, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args):
            counts["quadrature.panels"] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Patch every fermi_rpa namespace binding a traced function; undo on exit."""
        import fermi_rpa.cli  # noqa: F401  (binds its own copies of the functions)

        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "fermi_rpa"]
        replacements = []
        for module_name, functions in SPANNED.items():
            home = sys.modules[f"fermi_rpa.{module_name}"]
            for function, span_name in functions.items():
                original = getattr(home, function)
                before, after = self._hooks(function)
                replacements.append((original, self._spanned(span_name, original, before, after)))
        quadrature = sys.modules["fermi_rpa.quadrature"]
        replacements.append((quadrature._gk15_panel, self._panel_counter(quadrature._gk15_panel)))

        patched = []
        for original, wrapper in replacements:
            qualified = f"{original.__module__}.{original.__name__}"
            self.bindings[qualified] = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
                        self.bindings[qualified] += 1
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    # --- derived metrics --------------------------------------------------------

    def totals(self):
        total_ns: Dict[str, int] = defaultdict(int)
        self_ns: Dict[str, int] = defaultdict(int)
        calls: Counter = Counter()
        for name, parent, start, end in self.spans:
            duration = end - start
            total_ns[name] += duration
            self_ns[name] += duration
            calls[name] += 1
            if parent >= 0:
                self_ns[self.spans[parent][0]] -= duration
        return total_ns, self_ns, calls

    def metric(self, name: str, totals) -> float:
        """Value of a per-layer metric named in BENCHMARK.json."""
        total_ns, self_ns, calls = totals
        if name.endswith(".self_s"):
            return self_ns.get(name[: -len(".self_s")], 0) / 1e9
        if name.endswith(".s"):
            return total_ns.get(name[: -len(".s")], 0) / 1e9
        if name.endswith(".calls"):
            return calls.get(name[: -len(".calls")], 0)
        if name in ("lattice.points_scanned", "quadrature.evals", "quadrature.panels"):
            return self.counts[name]
        if name == "rpa_optimal.distinct_a_ratio":
            n_calls = calls.get("rpa_optimal.gmb_integral", 0)
            return len(self.a_values) / n_calls if n_calls else 0.0
        if name == "rpa_optimal.error_bound":
            return max(self.gmb_errors, default=0.0)
        if name == "fock_oracle.sector_dim":
            return max(self.sector_dims, default=0)
        raise KeyError(f"no rule derives per-layer metric {name!r}")

    def write(self, path) -> None:
        """Write the recorded spans as JSON lines, one per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"bindings": self.bindings, "counts": dict(self.counts)}) + "\n")
            for index, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps([index, parent, name, start, end]) + "\n")
