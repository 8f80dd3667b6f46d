"""The potential's columns and the sums of V alone, against per-k references.

``Potential`` holds its nonzero support as columns (``ks``, ``k2``, ``kn``,
``vs``, ``orbits``/``orbit``) and forms each quantity of V alone once
(A1..A5, the budget kernel, sum_k V(k)^2 |k|, |V|_1).  Each must be
``==`` what ``tests/oracles.py`` builds one momentum at a time on Python
ints and floats, and each error must name the same first offender with
the same message.  The potentials are the golden demo potential, the
benchmark potentials at seeds 1 and 2, and drawn documents whose
components reach 10**150 and whose values span 1e-320 to 1e308.
"""

import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from fermi_rpa import error_budget, potential, rpa_optimal
from fermi_rpa.cli import main
from fermi_rpa.error_budget import a_constants, assemble_error_budget
from fermi_rpa.errors import DomainError, NumericalFailure, ParseError
from fermi_rpa.hf import hf_energy
from fermi_rpa.lattice import ModelParams, build_fermi_ball, norm_sq
from fermi_rpa.potential import (
    l1_norm,
    load_potential,
    make_potential,
    serialize_potential,
)
from fermi_rpa.rpa_delocalized import (
    SECOND_ORDER_PREFACTOR,
    coefficient_table,
    second_order_delocalized,
)
from fermi_rpa.quadrature import IntegralResult
from fermi_rpa.rpa_optimal import (
    KAPPA,
    SECOND_ORDER_PREFACTOR_OPTIMAL,
    frequency_brackets,
    gmb_integral,
    second_order_optimal,
)
from conftest import load_perfbench
from oracles import (
    a_constants_loop,
    error_budget_loop,
    hf_energy_loop,
    kernel_loop,
    l1_norm_loop,
    optimal_kernel_magnitudes,
    outcome,
    square_sum_loop,
    nonzero_support,
    support_columns,
)

# an overflow is silent on Python floats, and must be in the columns too
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

DEMO = {(1, 0, 0): 0.5, (0, 1, 0): 0.5, (0, 0, 1): 0.5, (1, 1, 0): 0.25}


def benchmark_potentials():
    workloads = load_perfbench("workloads")
    for seed in (1, 2):
        for name, build in (("radial-sweep", workloads.radial_potential),
                            ("lattice-bulk", workloads.nonradial_potential)):
            coeffs = build(random.Random(f"{name}:{seed}"))
            yield make_potential(coeffs, workloads.SUPPORT_RADIUS_SQ)


def check_columns(v):
    ks, kn, vs, orbits, orbit = support_columns(v)
    assert v.ks == tuple(ks)
    assert list(v.kn) == kn
    assert list(v.vs) == vs
    assert v.orbits == tuple(orbits)
    assert list(v.orbit) == orbit
    assert v.support() == sorted(v.coeffs, key=lambda k: (norm_sq(k), *k))


def so_deloc_loop(params, v):
    return -params.hbar * SECOND_ORDER_PREFACTOR * square_sum_loop(v, params)


def so_opt_loop(v, params):
    return -params.hbar * SECOND_ORDER_PREFACTOR_OPTIMAL * square_sum_loop(v)


def check_sums(v, n):
    """Every quantity of V alone, and the per-N readers of the columns, at N = n."""
    assert outcome(a_constants, v) == outcome(a_constants_loop, v)
    assert outcome(optimal_kernel_magnitudes, v) == outcome(kernel_loop, v)
    assert outcome(l1_norm, v) == outcome(l1_norm_loop, v)
    params = ModelParams(n)
    assert outcome(second_order_optimal, v, params) == outcome(so_opt_loop, v, params)
    assert outcome(second_order_delocalized, params, v) == outcome(so_deloc_loop, params, v)
    tables = []
    for source in (params, build_fermi_ball(n)):
        try:
            tables.append(coefficient_table(source, v))
        except DomainError:
            continue
    if tables and isinstance(tables[0].source, ModelParams):
        continuum = tables[0]
        for table in tables:
            assert outcome(assemble_error_budget, table, continuum, v) == outcome(
                error_budget_loop, table, continuum, v
            )
    for table in tables:
        if not isinstance(table.source, ModelParams):
            for half in (False, True):
                assert outcome(hf_energy, table, v, half) == outcome(hf_energy_loop, table, v, half)


@pytest.mark.parametrize("n", [33, 257])
def test_golden_and_benchmark_potentials_match_the_per_k_reference(n):
    for v in [make_potential(DEMO, 2), make_potential({**DEMO, (0, 0, 0): 0.3}, 2),
              *benchmark_potentials()]:
        check_columns(v)
        check_sums(v, n)


def test_brackets_sums_match_the_per_k_reference():
    # one integral per support momentum, alone in its batch, and the unscaled
    # fsums of |k| times its value and error
    for v in [make_potential(DEMO, 2), *benchmark_potentials()]:
        rows = [
            (math.sqrt(norm_sq(k)), *gmb_integral((2.0 * math.pi * KAPPA * v.value(k),))[0])
            for k in nonzero_support(v)
        ]
        expected = IntegralResult(
            math.fsum(kn * value for kn, value, _ in rows),
            math.fsum(kn * error for kn, _, error in rows),
        )
        brackets = frequency_brackets(v)
        assert type(brackets) is IntegralResult
        assert [x.hex() for x in brackets] == [x.hex() for x in expected]


# components up to 10**150 (|k|^2 still fits a double), values of either
# sign and of magnitude 1e-320 to 1e308
COMPONENTS = st.one_of(st.integers(-3, 3), st.integers(-(10**150), 10**150))
MAGNITUDES = st.builds(
    lambda sign, exponent: sign * 10.0 ** exponent,
    st.sampled_from([1.0, -1.0]),
    st.floats(-320.0, 308.0),
)


@given(st.dictionaries(st.tuples(*[COMPONENTS] * 3), MAGNITUDES, min_size=1, max_size=6))
@example({(1, 0, 0): 1e308, (2, 0, 0): 1.0})
@example({(10**150, 0, 0): 0.1, (1, 1, 0): 0.2})
@example({(1, 0, 0): -0.3, (0, 3, 0): 2e160, (0, 0, 4): 5e-324})
@settings(max_examples=60, deadline=None, derandomize=True)
def test_extreme_documents_match_the_per_k_reference(entries):
    v = make_potential(entries)
    check_columns(v)
    check_sums(v, 257)


def test_lens_error_names_the_first_momentum_beyond_it():
    # 2 k_F = 2.37 at N = 7: |k| = 3 and 4 lie beyond it, 3 first
    v = make_potential({(0, 4, 0): 0.1, (3, 0, 0): 0.2, (1, 0, 0): 0.3})
    params = ModelParams(7)
    message = r"^\|k\| = 3 exceeds the lens-formula domain 2\*k_F = 2\.37"
    with pytest.raises(DomainError, match=message):
        coefficient_table(params, v)
    with pytest.raises(DomainError, match=message):
        second_order_delocalized(params, v)


@pytest.mark.parametrize(
    "entries, error",
    [
        # every |k| is checked against the lens domain before any square is
        # formed: V(k)^2 overflows inside it, and |k| = 3 lies beyond it
        ({(2, 0, 0): 1e200, (3, 0, 0): 0.1}, DomainError),
        # ... at the first row beyond it
        ({(3, 0, 0): 1e200, (4, 0, 0): 0.1}, DomainError),
        # ... past it
        ({(3, 0, 0): 0.1, (4, 0, 0): 1e200}, DomainError),
        # finite squares whose sum overflows, and |k| = 3 beyond the domain
        ({(1, 0, 0): 1e154, (3, 0, 0): 0.1}, DomainError),
        # inside the lens domain the sum overflows, or a square does
        ({(1, 0, 0): 1e154, (2, 0, 0): 0.1}, NumericalFailure),
        ({(1, 0, 0): 1e200, (2, 0, 0): 0.1}, NumericalFailure),
    ],
)
def test_second_order_reads_squares_and_the_lens_domain_in_mode_order(entries, error):
    v = make_potential(entries)
    params = ModelParams(7)
    with pytest.raises(error) as raised:
        second_order_delocalized(params, v)
    assert outcome(second_order_delocalized, params, v) == outcome(so_deloc_loop, params, v)
    if error is NumericalFailure:
        assert str(raised.value) == "sum_k |k| V(k)^2 overflows a double"
    else:  # the first |k| beyond 2 k_F = 2.37 in mode order
        assert str(raised.value).startswith("|k| = 3 exceeds the lens-formula domain")


def test_one_plus_c_v_error_names_the_first_momentum_in_mode_order():
    v = make_potential({(0, 2, 0): -0.9, (1, 0, 0): -0.5, (0, 1, 0): 0.1})
    # |k|^2 = 1 before 4, and (-1, 0, 0) first among |k|^2 = 1
    first = re.escape("at k = (-1, 0, 0)")
    with pytest.raises(DomainError, match=rf"^1 \+ c\*V\(k\) = -1\.\d+ <= 0 {first}$"):
        a_constants(v)
    with pytest.raises(DomainError, match=rf"^1 \+ c\*V\(k\) <= 0 {first}$"):
        optimal_kernel_magnitudes(v)
    assert outcome(a_constants, v) == outcome(a_constants_loop, v)
    assert outcome(optimal_kernel_magnitudes, v) == outcome(kernel_loop, v)


def test_evenness_error_names_the_first_entry_in_document_order(tmp_path):
    path = tmp_path / "v.json"
    entries = [((0, 1, 0), 0.3), ((1, 0, 0), 0.1), ((0, -1, 0), 0.2), ((-1, 0, 0), 0.4)]
    path.write_text(json.dumps(
        {"support_radius_sq": 2, "coeffs": [{"k": list(k), "v": x} for k, x in entries]}
    ))
    message = "evenness violated: V(0, 1, 0) = 0.3 and V(0, -1, 0) = 0.2 disagree"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        load_potential(path)


@pytest.mark.parametrize(
    "coeffs, message",
    [
        ([[1, 0, 0], 0.1, [0, 1, 0], 0.2, [1, 0, 0], 0.3, [0, 1, 0], 0.4],
         r"^duplicate coefficient entry for \(1, 0, 0\)$"),
        # the duplicate is named before its value is read
        ([[1, 0, 0], 0.1, [1, 0, 0], "x"], r"^duplicate coefficient entry for \(1, 0, 0\)$"),
        # an entry the usual-entry test rejects is named by its keys
        ([[1, 0, 0], 0.1, [1, 0, 2.0], 0.1], r"^coeffs\[1\]\.k\[2\] must be an integer, got 2\.0$"),
        ([[1, 0, 0], 0.1, [0, 1, 0], True], r"^coeffs\[1\]\.v must be a number, got true$"),
        ([[1, 0, 0], 1, [0, 1, 0], 10**400], r"^coeffs\[1\]\.v is out of range, got 1{1}0{400}$"),
    ],
)
def test_document_errors_name_the_first_offending_entry(tmp_path, coeffs, message):
    path = tmp_path / "v.json"
    items = [{"k": k, "v": x} for k, x in zip(coeffs[::2], coeffs[1::2])]
    path.write_text(json.dumps({"support_radius_sq": 2, "coeffs": items}))
    with pytest.raises(ParseError, match=message):
        load_potential(path)


def test_integer_values_read_as_floats(tmp_path):
    path = tmp_path / "v.json"
    path.write_text('{"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 1}]}')
    v = load_potential(path)
    assert v.vs == (1.0, 1.0) and all(type(x) is float for x in v.coeffs.values())


@pytest.mark.parametrize(
    "entries",
    [DEMO, {**DEMO, (0, 0, 0): -0.0}, {(10**150, 0, 0): 5e-324, (1, 2, 3): 1e308}, {(0, 0, 0): 1.0}],
)
def test_serialized_document_is_json_dumps(entries):
    v = make_potential(entries)
    document = {
        "support_radius_sq": v.support_radius_sq,
        "coeffs": [{"k": list(k), "v": v.coeffs[k]} for k in v.support()],
    }
    assert serialize_potential(v) == json.dumps(document, separators=(", ", ": "))


def test_columns_are_read_only():
    # every column is a tuple; tables share ks, so no reader can reorder it under the others
    v = make_potential(DEMO)
    table = coefficient_table(ModelParams(33), v)
    for column in (v.kn, v.vs, v.orbit, v.ks, v.orbits, *table[1:]):
        with pytest.raises(TypeError):
            column[0] = 0


def test_one_compare_forms_each_quantity_of_v_once(monkeypatch, tmp_path, capsys):
    # a three-N compare forms A1..A5, the budget kernel, sum_k V(k)^2 |k|,
    # |V|_1 and the brackets once, and calls norm_sq only for the lattice
    # count of each cubic orbit, never per support momentum
    import fermi_rpa

    counts = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in (
        (error_budget, "_a_constants"),
        (error_budget, "_kernel"),
        (potential, "_square_sum"),
        (potential, "_l1_norm"),
        (rpa_optimal, "gmb_integral"),
    ):
        counted(module, name)
    norm_sq_args = []
    for module in vars(fermi_rpa).values():
        if getattr(module, "norm_sq", None) is norm_sq:
            monkeypatch.setattr(module, "norm_sq", lambda k: norm_sq_args.append(k) or norm_sq(k))
    path = tmp_path / "v.json"
    v = make_potential({**DEMO, (2, 1, 0): 0.125, (0, 0, 0): 0.3}, 5)
    path.write_text(serialize_potential(v))
    ns = (33, 257, 2109)
    assert main(["compare", "--potential", str(path), "--n-list", ",".join(map(str, ns))]) == 0
    assert capsys.readouterr().out.count("\n") == 1 + len(ns)
    assert counts == dict.fromkeys(
        ["gmb_integral", "_square_sum", "_a_constants", "_kernel", "_l1_norm"], 1
    )
    # one count per orbit and N, at the orbit's representative
    assert sorted(norm_sq_args) == sorted(v.orbits * len(ns))
