import itertools
import json
import math
import random
import tracemalloc
from collections import Counter
from functools import partial

import numpy as np
import pytest
from oracles import (
    amplitudes,
    apply_h0,
    brute_force_pairs,
    coalesce_reference,
    hermiticity_residual_reference,
    honest_c_bound_reference,
    labels_differ_reference,
    matvec_reference,
    mode_sort_key,
    normalized,
    one_pair_deviations_loop,
    quadratic_compose_then_project,
    state_norm_sq,
)

from fermi_rpa import fock_oracle
from fermi_rpa.cli import json_text, main
from fermi_rpa.errors import BoundViolation, DomainError, NumericalFailure
from fermi_rpa.fock_oracle import (
    apply_c_create,
    apply_number,
    apply_pair_annihilate,
    apply_pair_create,
    assemble_quadratic_interaction,
    build_mode_set,
    fermion_sign,
    honest_c_bound_constant,
    integer_trials,
    random_sector_state,
    sector_basis,
    sector_blocks,
    vacuum,
    verify_almost_ccr,
    verify_c_commutator,
    verify_quadratic_interaction,
)
from fermi_rpa.lattice import ModelParams, norm_sq
from fermi_rpa.potential import make_potential

E1 = (1, 0, 0)
E2 = (0, 1, 0)
# (holes, cutoff) of the mode sets the lookup tests run on
MODE_SETS = [(7, 2), (7, 3), (1, 1), (19, 4)]
# a check's traced peak over the largest state it forms, the same for every check
MEMORY_MULTIPLE = 7

# the column budget as set, then zero: one block per check group
BUDGETS = [{"COLUMN_BUDGET": fock_oracle.COLUMN_BUDGET}, {"COLUMN_BUDGET": 0}]


def set_budgets(monkeypatch, budgets):
    for name, value in budgets.items():
        monkeypatch.setattr(fock_oracle, name, value)


def random_state(modes, rng, integer_amplitudes=False):
    """One random state over the whole <= 2 pair sector."""
    return random_sector_state([sector_basis(modes, 2)], rng, 1, integer_amplitudes)[0][0]


def two_trials(basis, rng, integer_amplitudes=False):
    """Two random states over ``basis``, labelled 0 and 1 in one state."""
    trials = random_sector_state([basis], rng, 2, integer_amplitudes)
    return fock_oracle._labelled([trial[0] for trial in trials])


def trial_blocks(modes, max_pairs):
    """The blocks the oracle's trials lie in, in order."""
    return list(fock_oracle._trial_blocks(sector_blocks(modes, max_pairs)).values())


def full_interaction(modes, v, params, max_pairs):
    """Q assembled on the whole <= max_pairs sector: (sector_basis, triplets)."""
    basis = sector_basis(modes, max_pairs)
    return basis, assemble_quadratic_interaction(modes, v, params, max_pairs, basis)


def inner(u, w):
    """<u, w> over the configurations both states hold."""
    _, iu, iw = np.intersect1d(u[0], w[0], return_indices=True)
    return np.vdot(u[1][iu], w[1][iw])


def loop_pair_operator(state, terms, create):
    """Configuration-by-configuration reference for the pair-term kernel.

    Applies sum_j w_j a*_p a*_h (a*_h first) or its adjoint w_j a_h a_p
    (a_p first) over terms (p, h, w_j) with signs (-1)^(occupied modes
    below the index), one mode and one configuration at a time.
    """

    def move(cfg, idx):
        occupied = (cfg >> idx) & 1
        if occupied == create:
            return None, 0
        sign = -1 if (cfg & ((1 << idx) - 1)).bit_count() & 1 else 1
        return cfg ^ (1 << idx), sign

    out = {}
    for cfg, amp in amplitudes(state).items():
        for p, h, w in terms:
            mid, s1 = move(cfg, h if create else p)
            if mid is None:
                continue
            new, s2 = move(mid, p if create else h)
            if new is None:
                continue
            out[new] = out.get(new, 0j) + w * s1 * s2 * amp
    return {c: a for c, a in out.items() if a != 0}


def wick_vacuum_expectation(ann_pairs, cre_pairs):
    """<0| prod a_g a_q ... prod a*_p a*_h ... |0> via the Wick determinant.

    ann_pairs lists (q, g) for each annihilating factor a_g a_q (leftmost
    factor first); cre_pairs lists (p, h) for each creating factor
    a*_p a*_h (leftmost first).  Independent of the sparse engine.
    """
    xs = []  # annihilator labels, innermost (rightmost) first
    for q, g in reversed(ann_pairs):
        xs.extend([q, g])  # a_g a_q: a_q is rightmost within the factor
    ys = []
    for p, h in cre_pairs:
        ys.extend([p, h])
    if len(xs) != len(ys):
        return 0.0
    # x_i ordered so that x_1 is adjacent to the creators
    x_ordered = list(reversed(xs))
    n = len(x_ordered)
    m = np.zeros((n, n))
    for i, x in enumerate(x_ordered):
        for j, y in enumerate(ys):
            m[i, j] = 1.0 if x == y else 0.0
    return round(np.linalg.det(m))


def test_mode_set_seven_two(modes_7_2):
    assert modes_7_2.n_holes == 7 and modes_7_2.n_modes == 19
    particles = modes_7_2.modes[7:].tolist()
    assert all(norm_sq(p) == 2 for p in particles)  # permutations of (+-1, +-1, 0)
    assert len(set(map(tuple, particles))) == 12


def test_mode_sets_compare_by_identity(modes_7_2):
    # each holds its own caches: two builds of one set are two mode sets
    assert build_mode_set(7, 2) != build_mode_set(7, 2)
    assert modes_7_2 == modes_7_2


def test_mode_index_inverts_the_mode_array():
    for n, lambda_sq in MODE_SETS:
        modes = build_mode_set(n, lambda_sq)
        rows = modes.modes.tolist()
        assert rows == sorted(rows, key=mode_sort_key)  # the global mode order
        assert modes.mode_index(modes.modes).tolist() == list(range(modes.n_modes))
        r = 7  # every query outside the cutoff ball misses, near or far
        box = np.stack(np.meshgrid(*[np.arange(-r, r + 1)] * 3, indexing="ij"), -1)
        box = box.reshape(-1, 3)
        outside = box[np.einsum("ij,ij->i", box, box) > lambda_sq]
        assert np.all(modes.mode_index(outside) == -1)
        assert np.all(modes.mode_index(np.array([[10**9, 0, 0], [0, 0, -10**9]])) == -1)


def test_pairs_match_brute_force_scan():
    for n, lambda_sq in MODE_SETS:
        modes = build_mode_set(n, lambda_sq)
        r2 = modes.hole_radius_sq
        for k in itertools.product(range(-2, 3), repeat=3):
            if not 0 < norm_sq(k) <= 5:
                continue
            scan = [
                (p, h) for p, h in brute_force_pairs(r2, k) if norm_sq(p) <= lambda_sq
            ]
            scan.sort(key=lambda pair: mode_sort_key(pair[1]))  # hole order
            p_idx, h_idx = modes.pairs(k)
            assert [tuple(h) for h in modes.modes[h_idx].tolist()] == [h for _, h in scan]
            assert np.array_equal(modes.modes[p_idx], modes.modes[h_idx] + k)
            assert modes.lune_size(k) == len(scan)
            expected = tuple(sum(p[i] + h[i] for p, h in scan) for i in range(3))
            assert modes.pair_vector_sum(k) == expected


def test_honest_c_bound_matches_per_hole_loop():
    transfers = [E1, E2, (1, 1, 0), (0, -1, 1)]
    for n, lambda_sq in MODE_SETS:
        modes = build_mode_set(n, lambda_sq)
        for k in transfers:
            for l in transfers:
                got = honest_c_bound_constant(modes, k, l)
                assert got == honest_c_bound_reference(modes, k, l)


def test_mode_cap_enforced(monkeypatch):
    with pytest.raises(DomainError):
        build_mode_set(33, 9)
    with pytest.raises(DomainError, match="more than 40 modes"):
        build_mode_set(1, 10**12)  # refused before the cutoff ball is enumerated

    def no_ball(n):
        raise AssertionError(f"built the Fermi ball of {n} holes")

    monkeypatch.setattr(fock_oracle, "build_fermi_ball", no_ball)
    with pytest.raises(DomainError, match="exceed the 40-mode cap"):
        build_mode_set(1000003353, 2)  # refused before the Fermi ball is built


def test_truncated_lune_matches_lattice_intersection(modes_7_2):
    for k in [E1, E2, (1, 1, 0), (0, 0, 2)]:
        full = brute_force_pairs(modes_7_2.hole_radius_sq, k)
        cutoff = sum(1 for p, _ in full if norm_sq(p) <= modes_7_2.lambda_sq)
        assert modes_7_2.lune_size(k) == cutoff


def test_pair_create_norm_squared_is_lune_count(modes_7_2):
    for k in [E1, E2, (1, 1, 0)]:
        state = apply_pair_create(vacuum(), k, modes_7_2, cap=2)
        assert state_norm_sq(state) == float(modes_7_2.lune_size(k))


def test_pair_create_zero_momentum(modes_7_2):
    state = apply_pair_create(vacuum(), (0, 0, 0), modes_7_2, cap=2)
    assert amplitudes(state) == {}


def test_annihilate_vacuum(modes_7_2):
    state = apply_pair_annihilate(vacuum(), E1, modes_7_2)
    assert amplitudes(state) == {}


def test_annihilate_inverts_create_on_vacuum(modes_7_2):
    created = normalized(apply_pair_create, vacuum(), E1, modes_7_2, cap=2)
    back = amplitudes(normalized(apply_pair_annihilate, created, E1, modes_7_2))
    assert set(back) == {0}
    assert back[0] == pytest.approx(1.0, rel=1e-15)


def test_adjoint_property(modes_7_2):
    rng = random.Random(5)
    for k in (E1, (1, 1, 0)):
        u = random_state(modes_7_2, rng)
        w = random_state(modes_7_2, rng)
        lhs = inner(apply_pair_annihilate(u, k, modes_7_2), w)
        rhs = inner(u, apply_pair_create(w, k, modes_7_2, cap=3))
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_kernel_matches_loop_reference():
    # the vectorized kernel against a one-configuration-at-a-time loop,
    # exactly, on integer amplitudes: unit weights (b*_k, b_k) and the
    # (p+h)_i weights of c*_k, on one state and on a two-trial labelled
    # state whose every label must equal the single-state result
    rng = np.random.default_rng(17)  # picks the sampled basis
    draws = random.Random(17)
    for n, lambda_sq in MODE_SETS:
        modes = build_mode_set(n, lambda_sq)
        basis = sector_basis(modes, 2)
        if len(basis) > 1500:  # keeps the Python loop short on the larger sets
            basis = rng.choice(basis, 1500, replace=False)
        labelled = two_trials(basis, draws, True)
        mode_bits = (1 << fock_oracle.MODE_CAP) - 1
        hole_vecs = modes.modes.tolist()
        n_terms = 0
        for k in (E1, (1, 1, 0), (0, -1, 1)):
            pairs = list(zip(*(idx.tolist() for idx in modes.pairs(k))))
            n_terms += len(pairs)
            unit = [(p, h, 1) for p, h in pairs]
            cases = [
                (partial(apply_pair_create, k=k, modes=modes, cap=3), unit, True),
                (partial(apply_pair_annihilate, k=k, modes=modes), unit, False),
            ]
            for i in range(3):
                weighted = [(p, h, 2 * hole_vecs[h][i] + k[i]) for p, h in pairs]
                c_star = partial(apply_c_create, k=k, modes=modes, component=i, cap=3)
                cases.append((c_star, weighted, True))
            for op, terms, create in cases:
                out_keys, out_amps = op(labelled)
                for j in range(2):
                    state = (labelled[0][labelled[0] >> fock_oracle.MODE_CAP == j] & mode_bits,
                             labelled[1][labelled[0] >> fock_oracle.MODE_CAP == j])
                    single = amplitudes(op(state))
                    assert single == loop_pair_operator(state, terms, create)
                    at = out_keys >> fock_oracle.MODE_CAP == j
                    assert amplitudes((out_keys[at] & mode_bits, out_amps[at])) == single
        assert n_terms


def assert_same_bits(state, reference):
    """Equal keys, and amplitudes equal to the last bit (signed zeros too)."""
    (keys, amps), (ref_keys, ref_amps) = state, reference
    assert keys.dtype == ref_keys.dtype and keys.tolist() == ref_keys.tolist()
    assert amps.dtype == ref_amps.dtype and amps.shape == ref_amps.shape
    assert amps.tobytes() == ref_amps.tobytes()


@pytest.mark.parametrize(
    "argv",
    ["oracle --pairs 3 --trials 2", "oracle --holes-n 1 --lambda-sq 3 --pairs 3 --trials 2"],
)
def test_sums_match_add_at_reference_bit_for_bit(monkeypatch, capsys, argv):
    # every key sum and every row of Q vec the oracle forms in a run,
    # against np.unique + np.add.at on the same inputs; with the column
    # budget as set and at zero
    coalesce, matvec = fock_oracle._coalesce, fock_oracle._matvec
    calls = {"coalesce": 0, "matvec": 0}

    def checked_coalesce(keys, amps):
        expected = coalesce_reference(keys, amps)
        result = coalesce(keys, amps)
        assert_same_bits(result, expected)
        calls["coalesce"] += 1
        return result

    def checked_matvec(triplets, vec):
        expected = matvec_reference(triplets, vec)
        result = matvec(triplets, vec)
        assert result.shape == expected.shape
        assert result.tobytes() == expected.tobytes()
        calls["matvec"] += 1
        return result

    monkeypatch.setattr(fock_oracle, "_coalesce", checked_coalesce)
    monkeypatch.setattr(fock_oracle, "_matvec", checked_matvec)
    for budgets in BUDGETS:
        set_budgets(monkeypatch, budgets)
        calls.update(coalesce=0, matvec=0)
        assert main(argv.split()) == 0
        assert capsys.readouterr().err == ""
        # one product with the trials, one with every one-pair state
        assert calls["coalesce"] > 100 and calls["matvec"] == 2


def quadratic_inputs(modes, max_pairs, rng, draws):
    """A two-trial sector state (``two_trials``) and one labelled as assembly labels it.

    The state is drawn from ``draws``; sectors above 3000 configurations
    are sampled down to 3000 of them by ``rng``.
    """
    basis = sector_basis(modes, max_pairs)
    if len(basis) > 3000:
        basis = np.sort(rng.choice(basis, 3000, replace=False))
    labelled = (np.arange(len(basis), dtype=np.int64) << modes.n_modes) | basis
    return two_trials(basis, draws), (labelled, np.ones(len(basis), dtype=complex))


def random_signed_potential(rng):
    """One to four momenta with |k|^2 <= 3, each with a value in [-1, 1]."""
    momenta = [k for k in itertools.product(range(-1, 2), repeat=3) if k > (0, 0, 0)]
    picks = rng.choice(len(momenta), rng.integers(1, 5), replace=False)
    values = rng.uniform(-1.0, 1.0, len(picks))
    return make_potential({momenta[i]: float(x) for i, x in zip(picks, values)}, 3)


@pytest.mark.parametrize("holes_n, lambda_sq", [(1, 1), (1, 2), (7, 2), (7, 3)])
@pytest.mark.parametrize("max_pairs", [1, 2, 3, 4])
def test_projected_quadratic_matches_compose_then_project(holes_n, lambda_sq, max_pairs):
    # projecting the input of b*_k b*_{-k} to <= max_pairs - 2 pairs forms
    # fewer configurations, and every kept key the same sum, bit for bit
    modes = build_mode_set(holes_n, lambda_sq)
    params = ModelParams(holes_n)
    seed = 100 * holes_n + 10 * lambda_sq + max_pairs
    rng, draws = np.random.default_rng(seed), random.Random(seed)
    for _ in range(2):
        v = random_signed_potential(rng)
        for state in quadratic_inputs(modes, max_pairs, rng, draws):
            expected = quadratic_compose_then_project(state, modes, v, params, max_pairs)
            got = fock_oracle._apply_quadratic(state, modes, v, params, max_pairs)
            assert_same_bits(got, expected)


@pytest.mark.parametrize("max_pairs", [1, 2, 3])
def test_quadratic_forms_no_configuration_above_the_sector(monkeypatch, demo_potential, max_pairs):
    # every configuration a pair term forms goes through _coalesce
    modes = build_mode_set(7, 3)
    mode_mask = (1 << modes.n_modes) - 1
    coalesce = fock_oracle._coalesce
    formed = []

    def checked_coalesce(keys, amps):
        formed.append(int(np.bitwise_count(keys & mode_mask).max(initial=0)) // 2)
        return coalesce(keys, amps)

    params = ModelParams(7)
    basis = sector_basis(modes, max_pairs)
    psi = two_trials(basis, random.Random(4))
    monkeypatch.setattr(fock_oracle, "_coalesce", checked_coalesce)
    assemble_quadratic_interaction(modes, demo_potential, params, max_pairs, basis)
    fock_oracle._apply_quadratic(psi, modes, demo_potential, params, max_pairs)
    assert len(formed) > 10 and max(formed) == max_pairs


def test_coalesce_hand_cases():
    coalesce = fock_oracle._coalesce
    keys, amps = coalesce(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))
    assert keys.shape == (0,) and amps.shape == (0,)
    # one key is (1e16 + 1) - 1e16 = 0, the other (1e16 - 1e16) + 1 = 1:
    # input order decides the bits; 2 holds a lone -0.0 real part, 3 cancels
    keys = np.array([7, 9, 7, 9, 7, 9, 2, 3, 3], dtype=np.int64)
    amps = np.array(
        [1e16 + 1j, 1e16 + 1j, 1, -1e16, -1e16, 1, complex(-0.0, 2), 3 + 4j, -3 - 4j]
    )
    expected = (np.array([2, 7, 9]), np.array([2j, 1j, 1 + 1j]))
    for state in (coalesce(keys, amps), coalesce_reference(keys, amps)):
        assert_same_bits(state, expected)
        assert math.copysign(1.0, state[1][0].real) == 1.0  # 0.0 + -0.0 is 0.0
    # a full cancellation is dropped, and -0.0 alone is a zero
    keys, amps = coalesce(np.array([4, 4, 6]), np.array([1 - 1j, -1 + 1j, complex(-0.0, -0.0)]))
    assert keys.shape == (0,) and amps.shape == (0,)


def test_coalesce_matches_the_reference_on_repeated_keys():
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, 400)
    amps = rng.normal(size=400) + 1j * rng.normal(size=400)
    assert_same_bits(fock_oracle._coalesce(keys, amps), coalesce_reference(keys, amps))
    # key 5 repeats 1200 times among other keys: its real parts are
    # integers and signed zeros that cancel exactly, its imaginary parts
    # normals and signed zeros; key 6 holds only -0.0
    real = rng.integers(-3, 4, 1200).astype(float)
    real[-1] -= real.sum()
    imag = rng.normal(size=1200)
    imag[rng.random(1200) < 0.3] = 0.0
    real[real == 0.0] *= rng.choice([-1.0, 1.0], int((real == 0.0).sum()))
    imag[imag == 0.0] *= rng.choice([-1.0, 1.0], int((imag == 0.0).sum()))
    assert np.signbit(real[real == 0.0]).any() and np.signbit(imag[imag == 0.0]).any()
    keys = np.concatenate([np.full(1200, 5), np.full(20, 6), rng.integers(10, 60, 400)])
    amps = np.concatenate([
        real + 1j * imag,
        np.full(20, complex(-0.0, -0.0)),
        rng.normal(size=400) + 1j * rng.normal(size=400),
    ])
    shuffle = rng.permutation(len(keys))
    keys, amps = keys[shuffle], amps[shuffle]
    got = fock_oracle._coalesce(keys, amps)
    assert_same_bits(got, coalesce_reference(keys, amps))
    assert got[0][0] == 5 and got[1][0].real == 0.0 and not np.signbit(got[1][0].real)


def test_compared_commutator_matches_the_summed_form():
    # _labels_differ(u, w) against the sum u + (-1) w on coalesced states
    def block(rows):
        """Labels 0 and 1 of one coalesced state, a row (key, (amplitude 0, amplitude 1))."""
        keys = np.array([key for key, _ in rows], dtype=np.int64)
        pieces = [(keys, np.array([a[j] for _, a in rows], dtype=complex)) for j in (0, 1)]
        return fock_oracle._coalesce(*fock_oracle._labelled(pieces))

    u = block([(3, (1 + 2j, -4)), (8, (5, 6j))])
    cases = [
        (u, block([(3, (1 + 2j, -4)), (8, (5, 6j))]), [False, False]),  # equal images
        (block([]), block([]), [False, False]),  # empty images
        (u, block([]), [True, True]),
        (block([]), block([(5, (0, 1))]), [False, True]),
        # a key in one image only, nonzero in its first label only
        (u, block([(3, (1 + 2j, -4)), (6, (7, 0)), (8, (5, 6j))]), [True, False]),
        # a label zero in one image only: second labels differ
        (u, block([(3, (1 + 2j, 0)), (8, (5, 6j))]), [False, True]),
        (block([(3, (1 + 2j, 0)), (8, (5, 6j))]), u, [False, True]),
        # a key whose row is zero in one label of each image
        (block([(2, (0, 9))]), block([(2, (0, 9)), (4, (0, 1))]), [False, True]),
    ]
    for a, b, expected in cases:
        assert fock_oracle._labels_differ(a, b, 2) == expected
        assert labels_differ_reference(a, b, 2) == expected


def test_positions_names_a_key_missing_from_the_basis():
    basis = np.array([0, 9, 3, 10, 5, 6])  # sector_basis order need not be sorted
    assert fock_oracle._positions(basis, np.array([10, 0, 5])).tolist() == [3, 0, 4]
    # 4 and 7 fall between basis keys, 11 above the largest
    for keys, missing in (([4, 7], 4), ([3, 11], 11)):
        with pytest.raises(DomainError, match=f"configuration {missing} "):
            fock_oracle._positions(basis, np.array(keys))


def test_pairs_built_once_per_momentum(modes_7_2):
    p_idx, h_idx = modes_7_2.pairs((0, 1, 1))
    for k in (np.array([0, 1, 1]), [0, 1, 1]):
        again = modes_7_2.pairs(k)
        assert again[0] is p_idx and again[1] is h_idx
    assert not p_idx.flags.writeable and not h_idx.flags.writeable


def test_pairs_of_a_momentum_beyond_the_cutoff_are_empty(modes_7_2):
    for k in ((5, 0, 0), (10**19, 0, 0)):
        p_idx, h_idx = modes_7_2.pairs(k)
        assert len(p_idx) == len(h_idx) == 0
        assert modes_7_2.lune_size(k) == 0


def test_random_sector_state_draws_trials_in_sequence():
    # trial j lies in blocks j, j + trials, ..., or in block j mod 5 alone
    # once the trials outnumber the 5 blocks, and the trials are the same
    # stream as one-trial calls over their blocks, one after another:
    # every golden max_ratio depends on it
    blocks = trial_blocks(build_mode_set(7, 2), 2)[:5]
    owned = {2: [[0, 2, 4], [1, 3]], 7: [[0], [1], [2], [3], [4], [0], [1]]}
    for integer, trials in itertools.product((True, False), owned):
        states = random_sector_state(blocks, random.Random(8), trials, integer)
        assert len({amps.tobytes() for trial in states for _, amps in trial}) == len(
            [b for own in owned[trials] for b in own]
        )  # distinct draws
        rng = random.Random(8)
        for trial, own in zip(states, owned[trials], strict=True):
            assert [keys.tolist() for keys, _ in trial] == [sorted(blocks[b]) for b in own]
            one = random_sector_state([blocks[b] for b in own], rng, 1, integer)[0]
            assert len(one) == len(trial)
            for (one_keys, one_amps), (keys, amps) in zip(one, trial):
                assert np.array_equal(one_keys, keys) and np.array_equal(one_amps, amps)


def sector_draw_reference(basis, rng, integer_amplitudes):
    """One trial of ``random_sector_state`` over ``basis``, by its documented mapping.

    On Python numbers.  Returns {key: amplitude} and the raw parts: the
    real parts in ``basis`` order, then the imaginary parts.
    """
    n, width = len(basis), 4 if integer_amplitudes else 8
    data = rng.getrandbits(16 * n * width).to_bytes(2 * n * width, "little")
    words = [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]
    if integer_amplitudes:
        parts = [(-1) ** (w & 1) * ((w >> 1) % 999 + 1) for w in words]
    else:
        parts = [(w >> 11) * 2.0**-52 - 1.0 for w in words]
    amps = [complex(re, im) for re, im in zip(parts[:n], parts[n:])]
    if not integer_amplitudes:
        squares = (re * re + im * im for re, im in zip(parts[:n], parts[n:]))
        scale = 1.0 / math.sqrt(math.fsum(squares))
        amps = [a * scale for a in amps]
    return dict(zip(basis.tolist(), amps)), parts


@pytest.mark.parametrize("integer", [True, False])
def test_random_sector_state_follows_its_documented_mapping(integer):
    # nonzero integer parts in [-999, 999], or float parts in [-1, 1) and
    # unit norms, drawn word by word over each trial's blocks in block
    # order: five trials share the blocks out, then 4 x 227 wrap over them
    blocks = trial_blocks(build_mode_set(7, 2), 2)
    rng, reference = random.Random(3), random.Random(3)
    drawn, norms = [], []
    for trials in (5, 4 * len(blocks)):
        states = random_sector_state(blocks, rng, trials, integer)
        for j, trial in enumerate(states):
            own = np.concatenate(blocks[j % len(blocks) :: trials])
            expected, parts = sector_draw_reference(own, reference, integer)
            got = {k: a for keys, amps in trial for k, a in zip(keys.tolist(), amps.tolist())}
            assert got == expected
            drawn += parts
            norms.append(math.sqrt(math.fsum(map(state_norm_sq, trial))))
    if integer:
        assert all(isinstance(p, int) and p != 0 and -999 <= p <= 999 for p in drawn)
        assert {-999, -1, 1, 999} <= set(drawn)
    else:
        assert all(-1.0 <= p < 1.0 for p in drawn)
        assert min(drawn) < -0.999 and max(drawn) > 0.999
        assert all(abs(norm - 1.0) <= 1e-15 for norm in norms)


# random.Random(seed) with an int seed gives the same MT19937 stream on every
# CPython since 3.2, and numpy is not involved: the oracle's one trial spans
# every block, and is pinned here by the first amplitudes of its first block,
# P = 0 without the vacuum, in sorted key order
STREAM_PINS = {
    0: (
        [-316 + 374j, 136 - 848j, 3 - 882j, 955 - 963j],
        [-0.007321966726605471 + 0.030897003871513368j,
         0.02489966149410397 - 0.014390866381238137j],
    ),
    5: (
        [-213 - 385j, -110 + 320j, -7 - 946j, 870 + 70j],
        [-0.015472717697063121 - 0.010748870098949473j,
         -0.008950298421131982 - 0.011740208645347788j],
    ),
}


@pytest.mark.parametrize("seed", STREAM_PINS)
def test_trial_stream_is_pinned(modes_7_2, seed):
    integer_head, float_head = STREAM_PINS[seed]
    ((_, xi), *_), = integer_trials(modes_7_2, 2, 1, seed)
    assert xi[:4].tolist() == integer_head
    ((_, psi), *_), = random_sector_state(trial_blocks(modes_7_2, 2), random.Random(seed), 1)
    assert psi[:2].tolist() == float_head


def test_double_pair_vacuum_expectation_wick(modes_7_2):
    # independent CAR oracle for <O| b_{-k} b_k b*_k b*_{-k} |O>
    k = E1
    neg_k = (-1, 0, 0)
    pairs_k = list(zip(*(idx.tolist() for idx in modes_7_2.pairs(k))))
    pairs_neg = list(zip(*(idx.tolist() for idx in modes_7_2.pairs(neg_k))))
    expected = 0.0
    for (p1, h1) in pairs_k:
        for (p2, h2) in pairs_neg:
            for (q1, g1) in pairs_k:
                for (q2, g2) in pairs_neg:
                    expected += wick_vacuum_expectation(
                        [(q2, g2), (q1, g1)], [(p1, h1), (p2, h2)]
                    )
    state = apply_pair_create(vacuum(), neg_k, modes_7_2, cap=2)
    state = apply_pair_create(state, k, modes_7_2, cap=2)
    state = apply_pair_annihilate(state, k, modes_7_2)
    state = apply_pair_annihilate(state, neg_k, modes_7_2)
    got = amplitudes(state).get(0, 0.0)
    assert got == pytest.approx(expected, abs=1e-12)


def test_number_on_vacuum(modes_7_2):
    assert amplitudes(apply_number(vacuum())) == {}


def test_h0_eigenvalues_on_pairs(modes_7_2):
    params = ModelParams(7)
    for k in (E1, (1, 1, 0)):
        for p_idx, h_idx in zip(*(idx.tolist() for idx in modes_7_2.pairs(k))):
            p, h = modes_7_2.modes[[p_idx, h_idx]].tolist()
            cfg = (1 << p_idx) | (1 << h_idx)
            state = (np.array([cfg]), np.array([1.0 + 0j]))
            out = amplitudes(apply_h0(state, modes_7_2, params))
            expected = params.hbar ** 2 * (norm_sq(p) - norm_sq(h))
            assert out[cfg] == expected
            assert expected > 0.0


def test_kinetic_commutator_identity(modes_7_2):
    # [H0, b*_k] O = hbar^2 k . c*_k O, amplitude by amplitude
    params = ModelParams(7)
    for k in (E1, E2, (1, 1, 0)):
        created = normalized(apply_pair_create, vacuum(), k, modes_7_2, cap=2)
        lhs = amplitudes(apply_h0(created, modes_7_2, params))  # H0 b*_k O (H0 O = 0)
        comps = [
            normalized(apply_c_create, vacuum(), k, modes_7_2, i, cap=2) for i in range(3)
        ]
        rhs_amps = {}
        for i in range(3):
            if k[i] == 0:
                continue
            for cfg, amp in amplitudes(comps[i]).items():
                rhs_amps[cfg] = rhs_amps.get(cfg, 0j) + params.hbar ** 2 * k[i] * amp
        assert set(lhs) == set(rhs_amps)
        for cfg, amp in lhs.items():
            assert abs(amp - rhs_amps[cfg]) <= 1e-13


def test_ccr_report_clean(modes_7_2):
    xi = integer_trials(modes_7_2, 2, 100, 42)
    report = verify_almost_ccr(modes_7_2, E1, E1, xi, seed=42, max_pairs=2)
    assert report.violations == []
    assert report.max_ratio <= 1.0 + 1e-12
    assert report.details["lune_k"] == 4.0


def test_ccr_orthogonal_transfers(modes_7_2):
    xi = integer_trials(modes_7_2, 2, 50, 1)
    report = verify_almost_ccr(modes_7_2, E1, E2, xi, seed=1, max_pairs=2)
    assert report.violations == []
    # vacuum matrix element of [b_k, b*_l] vanishes for k != l
    created = normalized(apply_pair_create, vacuum(), E2, modes_7_2, cap=3)
    annihilated = normalized(apply_pair_annihilate, created, E1, modes_7_2)
    assert amplitudes(annihilated).get(0, 0j) == 0j


def test_ccr_vacuum_identity(modes_7_2):
    # [b_k, b*_k] O = O exactly with the truncated normalization
    created = apply_pair_create(vacuum(), E1, modes_7_2, cap=3)
    back = apply_pair_annihilate(created, E1, modes_7_2)
    assert amplitudes(back) == {0: pytest.approx(float(modes_7_2.lune_size(E1)))}


def test_c_commutator_report_clean(modes_7_2):
    xi = integer_trials(modes_7_2, 2, 100, 42)
    for k, l in [(E1, E1), (E1, E2)]:
        report = verify_c_commutator(modes_7_2, k, l, xi, seed=42, max_pairs=2)
        assert report.violations == []
        assert report.max_ratio <= 1.0 + 1e-12


def test_c_commutator_vacuum_is_truncated_f(modes_7_2):
    # [c*_k, b_k] O = c*_k (b_k O) - b_k (c*_k O) = -f_trunc(k) O componentwise
    k = E1
    mk = modes_7_2.lune_size(k)
    fvec = modes_7_2.pair_vector_sum(k)
    assert amplitudes(apply_pair_annihilate(vacuum(), k, modes_7_2)) == {}
    for i in range(3):
        cstar = normalized(apply_c_create, vacuum(), k, modes_7_2, i, cap=3)
        second = normalized(apply_pair_annihilate, cstar, k, modes_7_2)
        comm = {cfg: -amp for cfg, amp in amplitudes(second).items()}  # 0 - b_k c*_k O
        expected = -fvec[i] / mk
        got = comm.get(0, 0j)
        assert abs(got - expected) <= 1e-13
        for cfg, amp in comm.items():
            if cfg != 0:
                assert abs(amp) <= 1e-13


def test_quadratic_interaction_report(modes_7_2, demo_potential):
    report = verify_quadratic_interaction(
        modes_7_2, demo_potential, ModelParams(7), max_pairs=2, seed=42
    )
    assert report.violations == []
    assert report.details["hermiticity_residual"] <= 1e-13
    assert report.details["dimension"] == float(len(sector_basis(modes_7_2, 2)))


def test_quadratic_interaction_three_pairs(modes_7_2, demo_potential):
    # 9171 sector configurations: held as triplets, never as a dense matrix
    report = verify_quadratic_interaction(
        modes_7_2, demo_potential, ModelParams(7), max_pairs=3
    )
    assert report.violations == []
    assert report.details["dimension"] == 9171.0


def test_quadratic_interaction_zero_potential(modes_7_2):
    v = make_potential({(1, 0, 0): 0.0})
    _, (_, _, values) = full_interaction(modes_7_2, v, ModelParams(7), 2)
    assert not np.any(values)


@pytest.mark.parametrize(
    "holes_n, lambda_sq, max_pairs", [(1, 1, 1), (1, 2, 2), (7, 2, 2), (7, 2, 3), (7, 3, 2)]
)
def test_hermiticity_residual_matches_the_doubled_coalesce(
    holes_n, lambda_sq, max_pairs, demo_potential
):
    # the entry-by-entry residual has the bits of Q - Q^dagger coalesced
    # whole: on Q as assembled, with noise that breaks hermiticity, with
    # entries whose transposes are missing, and with signed zero parts
    modes = build_mode_set(holes_n, lambda_sq)
    basis, (rows, cols, values) = full_interaction(
        modes, demo_potential, ModelParams(holes_n), max_pairs
    )
    dim = len(basis)
    rng = np.random.default_rng(dim)
    noise = 1.0 + 1e-3 * (rng.uniform(-1, 1, len(values)) + 1j * rng.uniform(-1, 1, len(values)))
    kept = rows <= cols  # no entry above the diagonal keeps its transpose
    signed = values.copy()
    signed.real[rng.random(len(values)) < 0.3] = -0.0
    cases = [
        (rows, cols, values),
        (rows, cols, values * noise),
        (rows[kept], cols[kept], values[kept]),
        (rows, cols, signed),
        (rows[:0], cols[:0], values[:0]),
    ]
    residuals = []
    for triplets in cases:
        got = fock_oracle.hermiticity_residual(triplets, dim)
        assert got.hex() == hermiticity_residual_reference(triplets, dim).hex()
        residuals.append(got)
    assert residuals[0] <= 1e-13 and residuals[-1] == 0.0
    assert residuals[1] > 1e-6  # deliberately non-Hermitian
    assert (residuals[2] > 0) == bool((rows != cols).any())


def test_quadratic_single_momentum_diagonal(modes_7_2):
    # with a one-momentum potential there are no cross terms at that momentum
    v = make_potential({(1, 1, 0): 0.7}, support_radius_sq=2)
    params = ModelParams(7)
    report = verify_quadratic_interaction(modes_7_2, v, params, 2, seed=3)
    assert report.violations == []


ONE_PAIR_CASES = [
    (7, 2, 2, {(1, 0, 0): 0.5, (0, 1, 0): 0.5, (0, 0, 1): 0.5, (1, 1, 0): 0.25}),
    (7, 3, 3, {(1, 0, 0): 0.5, (0, 1, 0): 0.5, (0, 0, 1): 0.5, (1, 1, 0): 0.25}),
    (7, 3, 2, {(1, 0, 0): 0.3, (1, 1, 1): -0.2, (2, 0, 0): 0.1, (1, 2, 0): 0.05}),
    (1, 1, 1, {(1, 0, 0): 0.7}),
]


@pytest.mark.parametrize("holes_n, lambda_sq, max_pairs, entries", ONE_PAIR_CASES)
def test_one_pair_rows_match_the_full_matvec(holes_n, lambda_sq, max_pairs, entries):
    # Q assembled on the blocks P = k alone gives Q phi_k the bits of the
    # full-sector product on every row, and so <phi_k, Q phi_k> too
    modes = build_mode_set(holes_n, lambda_sq)
    v = make_potential(entries)
    params = ModelParams(holes_n)
    blocks = sector_blocks(modes, max_pairs)
    basis = np.concatenate([keys for p, keys in blocks.items() if p in v.ks])
    triplets = assemble_quadratic_interaction(modes, v, params, max_pairs, basis)
    full_basis, full = full_interaction(modes, v, params, max_pairs)
    checked = 0
    for k in v.ks:
        if modes.lune_size(k) == 0:
            continue
        phi = normalized(apply_pair_create, vacuum(), k, modes, cap=max_pairs)
        vec = fock_oracle._basis_vector(basis, phi)
        full_vec = fock_oracle._basis_vector(full_basis, phi)
        rows = fock_oracle._matvec(triplets, vec)
        full_rows = fock_oracle._matvec(full, full_vec)
        at, full_at = (fock_oracle._positions(b, phi[0]) for b in (basis, full_basis))
        assert rows[at].tobytes() == full_rows[full_at].tobytes()
        assert np.vdot(vec, rows).tobytes() == np.vdot(full_vec, full_rows).tobytes()
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("holes_n, lambda_sq, max_pairs, entries", ONE_PAIR_CASES)
def test_one_pair_deviation_matches_the_full_matvec_loop(holes_n, lambda_sq, max_pairs, entries):
    modes = build_mode_set(holes_n, lambda_sq)
    v = make_potential(entries)
    params = ModelParams(holes_n)
    report = verify_quadratic_interaction(modes, v, params, max_pairs)
    basis, triplets = full_interaction(modes, v, params, max_pairs)
    devs = one_pair_deviations_loop(basis, triplets, modes, v, params, max_pairs)
    assert report.details["one_pair_deviation"] == max([0.0, *devs])


def test_one_pair_diagonal_that_overflows_before_its_division(tmp_path, capsys):
    # V(k) n_k^2 = 1e308 * 5 overflows, V(k) n_k^2 / N = 7.1e307 does not:
    # the check compares the finite diagonal, not inf, and finds no violation
    path = tmp_path / "v.json"
    path.write_text('{"support_radius_sq": 1, "coeffs": [{"k": [1, 0, 0], "v": 1e308}]}')
    assert main(["oracle", "--trials", "1", "--potential", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    decoder, end, reports = json.JSONDecoder(), 0, []
    while end < len(captured.out):
        report, end = decoder.raw_decode(captured.out, end)
        reports.append(report)
        end += 1  # each document ends its line
    assert len(reports) == 5
    assert report["check"] == "quadratic_interaction"
    assert report["violations"] == []
    assert math.isfinite(report["details"]["one_pair_deviation"])
    # the per-k loop with the diagonal as written sees inf
    modes = build_mode_set(7, 2)
    v = make_potential({(1, 0, 0): 1e308}, 1)
    basis, triplets = full_interaction(modes, v, ModelParams(7), 2)
    assert math.inf in one_pair_deviations_loop(basis, triplets, modes, v, ModelParams(7), 2)


def test_quadratic_expectation_hand_value(modes_7_2):
    # k = (1,1,0) at this cutoff has exactly one pair (h = 0), so
    # <b*_k O, Q b*_k O> = V(k) n_k^2 / N = 0.7 * 1 / 7 = 0.1; the mirror
    # transfer cannot annihilate anything in that one-pair state
    k = (1, 1, 0)
    assert modes_7_2.lune_size(k) == 1
    v = make_potential({k: 0.7}, support_radius_sq=2)
    basis, (rows, cols, values) = full_interaction(
        modes_7_2, v, ModelParams(7), 2
    )
    phi = normalized(apply_pair_create, vacuum(), k, modes_7_2, cap=2)
    (cfg, amp), = amplitudes(phi).items()
    pos = basis.tolist().index(cfg)
    (entry,) = values[(rows == pos) & (cols == pos)]
    expect = (amp.conjugate() * entry * amp).real
    assert expect == pytest.approx(0.1, abs=1e-15)


def test_ccr_on_single_hole_mode_set():
    # different geometry guards against index offsets tied to N = 7
    modes = build_mode_set(1, 1)
    assert modes.n_holes == 1 and modes.n_modes == 7
    assert modes.lune_size(E1) == 1
    xi = integer_trials(modes, 1, 25, 9)
    report = verify_almost_ccr(modes, E1, E2, xi, seed=9, max_pairs=1)
    assert report.violations == []
    report = verify_c_commutator(modes, E1, E1, xi, seed=9, max_pairs=1)
    assert report.violations == []


def traced_peak(run):
    """Peak bytes that run() allocates, traced from its start (its inputs excluded)."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_each_check_peaks_under_one_multiple_of_its_largest_state(monkeypatch, demo_potential):
    # dimension 44031 (7 holes, lambda^2 = 3, 3 pairs), one trial; every state
    # a pair operator, N or a linear combination returns is measured
    modes = build_mode_set(7, 3)
    xi = integer_trials(modes, 3, 1, 5)
    sizes = []

    def measured(fn):
        def wrapper(*args, **kwargs):
            keys, amps = state = fn(*args, **kwargs)
            sizes.append(keys.nbytes + amps.nbytes)
            return state

        return wrapper

    for name in (
        "apply_pair_create", "apply_pair_annihilate", "apply_c_create", "apply_number",
        "_linear_combination",
    ):
        monkeypatch.setattr(fock_oracle, name, measured(getattr(fock_oracle, name)))
    checks = [
        partial(check, modes, E1, l, xi, 5, 3)
        for check in (verify_almost_ccr, verify_c_commutator)
        for l in (E1, E2)
    ]
    params = ModelParams(7)
    checks.append(partial(verify_quadratic_interaction, modes, demo_potential, params, 3, 5))
    for check in checks:
        sizes.clear()
        peak = traced_peak(check)
        assert peak <= MEMORY_MULTIPLE * max(sizes), (check, peak, max(sizes))


def test_exact_checks_peak_does_not_grow_with_the_trial_count():
    # --pairs 3 on the default mode set: at either count the trials share
    # out its 9170 trial configurations, read in two column groups
    modes = build_mode_set(7, 2)
    peaks = {}
    for trials in (40, 160):
        xi = integer_trials(modes, 3, trials, 5)
        peaks[trials] = max(
            traced_peak(partial(check, modes, E1, l, xi, 5, 3))
            for check in (verify_almost_ccr, verify_c_commutator)
            for l in (E1, E2)
        )
    assert peaks[160] <= 1.25 * peaks[40], peaks


@pytest.mark.parametrize("width", [1, 10])
def test_exact_checks_count_the_columns_of_their_block(capsys, width):
    # the trial count is the block's width, and the four reports are the
    # ones `oracle --trials W` prints first
    modes = build_mode_set(7, 2)
    xi = integer_trials(modes, 2, width, 5)
    reports = [
        check(modes, E1, l, xi, 5, 2)
        for check in (verify_almost_ccr, verify_c_commutator)
        for l in (E1, E2)
    ]
    assert [report.trials for report in reports] == [width] * 4
    assert main(["oracle", "--trials", str(width), "--seed", "5"]) == 0
    assert capsys.readouterr().out.startswith("".join(map(json_text, reports)))


def scaled_number(state):
    """N state times 2^-20: exact, so N still commutes with every residual."""
    keys, amps = apply_number(state)
    return keys, amps * 2.0 ** -20


CCR = "||E xi|| n_k n_l / ||N xi|| ="
C = "does not commute with N"
# every violation line of the four exact checks at (E1, E1), (E1, E2) on
# two trials, byte for byte
VIOLATION_CASES = {
    "empty N": (
        {"apply_number": lambda state: (state[0][:0], state[1][:0])},
        [
            [f"trial 0: {CCR} inf > 1", f"trial 1: {CCR} inf > 1"],
            [f"trial 0: {CCR} inf > 1", f"trial 1: {CCR} inf > 1"],
            [
                "trial 0: residual ratio inf > 1 (constant 2.23607)",
                "trial 1: residual ratio inf > 1 (constant 2.23607)",
            ],
            [
                "trial 0: residual ratio inf > 1 (constant 2.23607)",
                "trial 1: residual ratio inf > 1 (constant 2.23607)",
            ],
        ],
    ),
    "scaled N, products differ": (
        {
            "apply_number": scaled_number,
            "_labels_differ": lambda u, w, count: [True] * count,
        },
        [
            [f"trial 0: {CCR} 906478.380297969 > 1", f"trial 1: {CCR} 819606.587492749 > 1"],
            [
                f"trial 0: {CCR} 370727.600094733 > 1",
                "trial 0: [b_k, b_l] xi != 0",
                "trial 0: [b*_k, b*_l] xi != 0",
                f"trial 1: {CCR} 370727.600094733 > 1",
                "trial 1: [b_k, b_l] xi != 0",
                "trial 1: [b*_k, b*_l] xi != 0",
            ],
            [
                "trial 0: residual ratio 405389.455696033 > 1 (constant 2.23607)",
                f"trial 0: residual component 0 {C}",
                f"trial 0: residual component 1 {C}",
                f"trial 0: residual component 2 {C}",
                "trial 1: residual ratio 366539.208888083 > 1 (constant 2.23607)",
                f"trial 1: residual component 0 {C}",
                f"trial 1: residual component 1 {C}",
                f"trial 1: residual component 2 {C}",
            ],
            [
                "trial 0: residual ratio 165794.422989436 > 1 (constant 2.23607)",
                f"trial 0: residual component 0 {C}",
                f"trial 0: residual component 1 {C}",
                f"trial 0: residual component 2 {C}",
                "trial 1: residual ratio 165794.422989436 > 1 (constant 2.23607)",
                f"trial 1: residual component 0 {C}",
                f"trial 1: residual component 1 {C}",
                f"trial 1: residual component 2 {C}",
            ],
        ],
    ),
}


@pytest.mark.parametrize("case", VIOLATION_CASES)
def test_exact_checks_violation_lines(monkeypatch, case):
    # ratio lines forced through N, flag lines through the compared products
    patches, expected = VIOLATION_CASES[case]
    for name, fn in patches.items():
        monkeypatch.setattr(fock_oracle, name, fn)
    modes = build_mode_set(7, 2)
    xi = integer_trials(modes, 2, 2, 5)
    found = []
    for check in (verify_almost_ccr, verify_c_commutator):
        for l in (E1, E2):
            with pytest.raises(BoundViolation) as raised:
                check(modes, E1, l, xi, 5, 2)
            report = raised.value.report
            assert str(raised.value) == f"{report.check}: {report.violations[0]}"
            found.append(report.violations)
    assert found == expected


# operator applications per column group, each distinct image formed once:
# [b_k, b*_k] alone at k = l (4 pair applications), all three commutators
# at k != l (10), and each c-commutator residual on xi and on N xi
C_APPLICATIONS = {"apply_c_create": 12, "apply_pair_annihilate": 8, "apply_number": 4}
APPLICATIONS = [
    (verify_almost_ccr, E1, {"apply_pair_create": 2, "apply_pair_annihilate": 2, "apply_number": 1}),
    (verify_almost_ccr, E2, {"apply_pair_create": 5, "apply_pair_annihilate": 5, "apply_number": 1}),
    (verify_c_commutator, E1, C_APPLICATIONS),
    (verify_c_commutator, E2, C_APPLICATIONS),
]


@pytest.mark.parametrize("budgets", BUDGETS)
def test_exact_checks_apply_each_distinct_image_once_per_column_group(monkeypatch, budgets):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("apply_pair_create", "apply_pair_annihilate", "apply_c_create", "apply_number"):
        monkeypatch.setattr(fock_oracle, name, counted(name, getattr(fock_oracle, name)))
    set_budgets(monkeypatch, budgets)
    modes = build_mode_set(7, 2)
    xi = integer_trials(modes, 2, 3, 5)
    # three trials share the 227 blocks out, one block per group at zero
    groups = 1 if budgets["COLUMN_BUDGET"] else len(trial_blocks(modes, 2))
    for check, l, expected in APPLICATIONS:
        calls.clear()
        check(modes, E1, l, xi, 5, 2)
        assert calls == {name: groups * count for name, count in expected.items()}


@pytest.mark.parametrize("budgets", BUDGETS)
def test_column_groups_are_labelled_in_key_order(monkeypatch, budgets):
    # _labelled sorts nothing: every block state's keys ascend, and so do
    # the labels, so each group's labelled keys strictly ascend
    set_budgets(monkeypatch, budgets)
    xi = integer_trials(build_mode_set(7, 2), 3, 3, 5)
    groups = list(fock_oracle._column_groups(xi))
    assert len(groups) > 1
    for owners, (keys, _) in groups:
        assert (np.diff(keys) > 0).all() and (keys[-1] >> fock_oracle.MODE_CAP) == len(owners) - 1


def test_truncation_overflow(modes_7_2):
    two_pairs = apply_pair_create(
        apply_pair_create(vacuum(), E1, modes_7_2, cap=2), E2, modes_7_2, cap=2
    )
    with pytest.raises(NumericalFailure, match="^configuration with 3 pairs exceeds max_pairs = 2$"):
        apply_pair_create(two_pairs, E1, modes_7_2, cap=2)


def test_sector_basis_structure(modes_7_2):
    basis = sector_basis(modes_7_2, 2)
    # 1 vacuum + 7*12 one-pair + C(7,2)*C(12,2) two-pair configurations
    assert len(basis) == 1 + 84 + 21 * 66
    holes_mask = (1 << 7) - 1
    assert len(set(basis.tolist())) == len(basis)
    for cfg in basis.tolist():
        holes = (cfg & holes_mask).bit_count()
        parts = (cfg >> 7).bit_count()
        assert holes == parts <= 2


def total_momentum(modes, key):
    """P = sum p - sum h of one configuration, one occupied mode at a time."""
    occupied = [i for i in range(modes.n_modes) if key >> i & 1]
    signs = [1 if i >= modes.n_holes else -1 for i in occupied]
    return tuple(
        sum(s * int(modes.modes[i, c]) for s, i in zip(signs, occupied)) for c in range(3)
    )


@pytest.mark.parametrize(
    "holes_n, lambda_sq, max_pairs", [(7, 2, 2), (7, 2, 3), (1, 1, 1), (1, 2, 4), (7, 3, 2)]
)
def test_sector_blocks_partition_the_sector_basis(holes_n, lambda_sq, max_pairs):
    # disjoint blocks of constant P whose union is sector_basis, each in
    # its order, largest first and ties by P
    modes = build_mode_set(holes_n, lambda_sq)
    blocks = sector_blocks(modes, max_pairs)
    holes, particles = modes.n_holes, modes.n_modes - modes.n_holes
    dim = sum(math.comb(holes, j) * math.comb(particles, j) for j in range(max_pairs + 1))
    assert sum(map(len, blocks.values())) == dim
    position = {key: i for i, key in enumerate(sector_basis(modes, max_pairs).tolist())}
    assert len(position) == dim
    seen = set()
    for p, keys in blocks.items():
        keys = keys.tolist()
        assert {total_momentum(modes, key) for key in keys} == {p}
        assert [position[key] for key in keys] == sorted(position[key] for key in keys)
        seen.update(keys)
    assert seen == set(position)
    order = [(-len(keys), p) for p, keys in blocks.items()]
    assert order == sorted(order)


def test_oracle_enumerates_its_sector_once(monkeypatch, capsys):
    # the blocks are built once per mode set and pair cap: the exact checks'
    # trials and the interaction check read the same ones
    calls = Counter()
    basis = fock_oracle.sector_basis

    def counted(modes, max_pairs):
        calls[max_pairs] += 1
        return basis(modes, max_pairs)

    monkeypatch.setattr(fock_oracle, "sector_basis", counted)
    assert main(["oracle", "--trials", "2"]) == 0
    assert calls == {2: 1}


def test_checked_operators_shift_every_block_by_a_fixed_momentum(modes_7_2, demo_potential):
    # b*_q, b_q and c*_q shift P by q, -q and q; N and Q keep it
    params = ModelParams(7)
    q = (1, 1, 0)
    shifts = [
        (partial(apply_pair_create, k=q, modes=modes_7_2, cap=3), q),
        (partial(apply_pair_annihilate, k=q, modes=modes_7_2), (-1, -1, 0)),
        (partial(apply_c_create, k=q, modes=modes_7_2, component=1, cap=3), q),
        (apply_number, (0, 0, 0)),
        (partial(fock_oracle._apply_quadratic, modes=modes_7_2, v=demo_potential, params=params,
                 max_pairs=2), (0, 0, 0)),
    ]
    blocks = sector_blocks(modes_7_2, 2)
    rng = random.Random(6)
    reached = Counter()
    for p, keys in blocks.items():
        state = random_sector_state([keys], rng, 1, True)[0][0]
        for j, (op, d) in enumerate(shifts):
            out = op(state)[0].tolist()
            assert {total_momentum(modes_7_2, key) for key in out} <= {tuple(np.add(p, d))}
            reached[j] += bool(out)
    assert min(reached.values()) > 10


def test_a_full_sector_trial_ratio_is_at_most_its_largest_block_ratio(modes_7_2):
    # ||A xi||^2 / ||N xi||^2 = sum_P ||A xi_P||^2 / sum_P ||N xi_P||^2 when
    # A maps each block into its own image block: the blocks lose nothing,
    # and a trial over several blocks reports its largest block ratio
    keys, amps = random_state(modes_7_2, random.Random(12), integer_amplitudes=True)
    projections = []
    for block in trial_blocks(modes_7_2, 2):  # every block, the vacuum left out
        block = np.sort(block)
        projections.append((block, amps[np.searchsorted(keys, block)]))
    for check in (verify_almost_ccr, verify_c_commutator):
        for l in (E1, E2):
            whole = check(modes_7_2, E1, l, [[(keys[1:], amps[1:])]], 5, 2).max_ratio
            parts = check(modes_7_2, E1, l, [[p] for p in projections], 5, 2).max_ratio
            assert check(modes_7_2, E1, l, [projections], 5, 2).max_ratio == parts
            assert 0.0 < whole <= parts * (1.0 + 1e-12), (check, l)


def test_pair_structure_preserved(modes_7_2):
    rng = random.Random(11)
    state = random_state(modes_7_2, rng)
    holes_mask = (1 << 7) - 1
    for op in (
        lambda s: apply_pair_create(s, E1, modes_7_2, cap=3),
        lambda s: apply_pair_annihilate(s, E1, modes_7_2),
        lambda s: apply_c_create(s, (1, 1, 0), modes_7_2, 0, cap=3),
    ):
        keys, _ = op(state)
        assert np.all(np.diff(keys) > 0)  # sorted, unique keys
        for cfg in keys.tolist():
            assert (cfg & holes_mask).bit_count() == (cfg >> 7).bit_count()


def test_fermionic_sign_anticommutation(modes_7_2):
    # a*_j a*_i = -a*_i a*_j on every configuration where i and j are free
    rng = np.random.default_rng(99)
    n_modes = modes_7_2.n_modes
    cfgs = rng.integers(0, 1 << n_modes, size=400)
    checked = 0
    for i in range(n_modes):
        for j in range(i + 1, n_modes):
            free = cfgs[(cfgs & ((1 << i) | (1 << j))) == 0]
            i_first = fermion_sign(free, i) * fermion_sign(free | (1 << i), j)
            j_first = fermion_sign(free, j) * fermion_sign(free | (1 << j), i)
            assert np.all(i_first == -j_first)
            checked += len(free)
    assert checked > 1000
