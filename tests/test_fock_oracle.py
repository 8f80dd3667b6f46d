import itertools
import json
import math
from functools import partial

import numpy as np
import pytest
from oracles import (
    amplitudes,
    brute_force_pairs,
    coalesce_reference,
    honest_c_bound_reference,
    matvec_reference,
    one_pair_deviations_loop,
    quadratic_compose_then_project,
)

from fermi_rpa import fock_oracle
from fermi_rpa.cli import json_text, main
from fermi_rpa.errors import DomainError, NumericalFailure
from fermi_rpa.fock_oracle import (
    apply_c_create,
    apply_h0,
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
    state_norm_sq,
    vacuum,
    verify_almost_ccr,
    verify_c_commutator,
    verify_quadratic_interaction,
)
from fermi_rpa.lattice import ModelParams, mode_sort_key, norm_sq
from fermi_rpa.potential import make_potential

E1 = (1, 0, 0)
E2 = (0, 1, 0)
# (holes, cutoff) of the mode sets the lookup tests run on
MODE_SETS = [(7, 2), (7, 3), (1, 1), (19, 4)]


def random_state(modes, rng, integer_amplitudes=False):
    """One random state in the <= 2 pair sector."""
    keys, amps = random_sector_state(sector_basis(modes, 2), rng, 1, integer_amplitudes)
    return keys, amps[:, 0]


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
    created = apply_pair_create(vacuum(), E1, modes_7_2, cap=2, normalized=True)
    back = amplitudes(apply_pair_annihilate(created, E1, modes_7_2, normalized=True))
    assert set(back) == {0}
    assert back[0] == pytest.approx(1.0, rel=1e-15)


def test_adjoint_property(modes_7_2):
    rng = np.random.default_rng(5)
    for k in (E1, (1, 1, 0)):
        u = random_state(modes_7_2, rng)
        w = random_state(modes_7_2, rng)
        lhs = inner(apply_pair_annihilate(u, k, modes_7_2), w)
        rhs = inner(u, apply_pair_create(w, k, modes_7_2, cap=3))
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_kernel_matches_loop_reference():
    # the vectorized kernel against a one-configuration-at-a-time loop,
    # exactly, on integer amplitudes: unit weights (b*_k, b_k) and the
    # (p+h)_i weights of c*_k, on one state and on a two-column block
    # whose every column must equal the single-state result
    rng = np.random.default_rng(17)
    for n, lambda_sq in MODE_SETS:
        modes = build_mode_set(n, lambda_sq)
        basis = sector_basis(modes, 2)
        if len(basis) > 1500:  # keeps the Python loop short on the larger sets
            basis = rng.choice(basis, 1500, replace=False)
        keys, block = random_sector_state(basis, rng, 2, integer_amplitudes=True)
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
            c_star = partial(apply_c_create, k=k, modes=modes, cap=3)
            for i in range(3):
                weighted = [(p, h, 2 * hole_vecs[h][i] + k[i]) for p, h in pairs]
                cases.append((lambda s, c=c_star, i=i: c(s)[i], weighted, True))
            for op, terms, create in cases:
                out_keys, out_block = op((keys, block))
                for j in range(2):
                    state = (keys, block[:, j])
                    single = amplitudes(op(state))
                    assert single == loop_pair_operator(state, terms, create)
                    column = zip(out_keys.tolist(), out_block[:, j].tolist())
                    assert {c: a for c, a in column if a != 0} == single
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
    # against np.unique + np.add.at on the same inputs
    coalesce, matvec, matvec_rows = (
        fock_oracle._coalesce, fock_oracle._matvec, fock_oracle._matvec_rows
    )
    calls = {"coalesce": 0, "matvec": 0, "matvec_rows": 0}

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

    def checked_matvec_rows(triplets, vec, targets):
        expected = matvec_reference(triplets, vec)
        result = matvec_rows(triplets, vec, targets)
        assert result.shape == expected.shape
        assert result[targets].tobytes() == expected[targets].tobytes()
        calls["matvec_rows"] += 1
        return result

    monkeypatch.setattr(fock_oracle, "_coalesce", checked_coalesce)
    monkeypatch.setattr(fock_oracle, "_matvec", checked_matvec)
    monkeypatch.setattr(fock_oracle, "_matvec_rows", checked_matvec_rows)
    assert main(argv.split()) == 0
    assert capsys.readouterr().err == ""
    # one full product, and one on the picked triplets per one-pair vector
    assert calls["coalesce"] > 100 and calls["matvec_rows"] > 1
    assert calls["matvec"] == 1 + calls["matvec_rows"]


def quadratic_inputs(modes, max_pairs, rng):
    """A plain two-trial sector state and a labelled one, as assembly makes it.

    Sectors above 3000 configurations are sampled down to 3000 of them.
    """
    basis = sector_basis(modes, max_pairs)
    if len(basis) > 3000:
        basis = np.sort(rng.choice(basis, 3000, replace=False))
    labelled = (np.arange(len(basis), dtype=np.int64) << modes.n_modes) | basis
    return random_sector_state(basis, rng, 2), (labelled, np.ones(len(basis), dtype=complex))


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
    rng = np.random.default_rng(100 * holes_n + 10 * lambda_sq + max_pairs)
    for _ in range(2):
        v = random_signed_potential(rng)
        for state in quadratic_inputs(modes, max_pairs, rng):
            got = fock_oracle._apply_quadratic(state, modes, v, params, max_pairs)
            expected = quadratic_compose_then_project(state, modes, v, params, max_pairs)
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
    psi = random_sector_state(sector_basis(modes, max_pairs), np.random.default_rng(4), 2)
    monkeypatch.setattr(fock_oracle, "_coalesce", checked_coalesce)
    assemble_quadratic_interaction(modes, demo_potential, params, max_pairs)
    fock_oracle._apply_quadratic(psi, modes, demo_potential, params, max_pairs)
    assert len(formed) > 10 and max(formed) == max_pairs


def test_coalesce_hand_cases():
    coalesce = fock_oracle._coalesce
    for shape in ((0,), (0, 3)):
        keys, amps = coalesce(np.zeros(0, dtype=np.int64), np.zeros(shape, dtype=complex))
        assert keys.shape == (0,) and amps.shape == shape
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
    # as the first column of a block whose second column cancels on 7 and 9
    # and not on 3: 3 is kept, with its first column exactly zero
    block = np.stack([amps, np.array([1, -1, -1, 1, 0, 0, 0, 5, 0])], axis=1)
    result = coalesce(keys, block)
    assert_same_bits(result, coalesce_reference(keys, block))
    assert result[0].tolist() == [2, 3, 7, 9]
    assert result[1].tolist() == [[2j, 0j], [0j, 5 + 0j], [1j, 0j], [1 + 1j, 0j]]
    # a full cancellation is dropped, and -0.0 alone is a zero
    keys, amps = coalesce(np.array([4, 4, 6]), np.array([1 - 1j, -1 + 1j, complex(-0.0, -0.0)]))
    assert keys.shape == (0,) and amps.shape == (0,)


def test_coalesce_gathers_repeats_in_chunks(monkeypatch):
    # a chunk smaller than one pass must not change a bit
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 50, 400)
    amps = rng.normal(size=(400, 3)) + 1j * rng.normal(size=(400, 3))
    whole = fock_oracle._coalesce(keys, amps)
    monkeypatch.setattr(fock_oracle, "GATHER_CHUNK", 7)
    assert_same_bits(fock_oracle._coalesce(keys, amps), whole)
    assert_same_bits(whole, coalesce_reference(keys, amps))


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
    # a block of trials is the same RNG stream as one-column calls, one
    # after another: every golden max_ratio depends on it
    basis = sector_basis(build_mode_set(7, 2), 2)
    for integer in (True, False):
        keys, block = random_sector_state(basis, np.random.default_rng(8), 4, integer)
        assert block.shape == (len(basis), 4)
        assert np.all(np.diff(keys) > 0)
        assert len({column.tobytes() for column in block.T}) == 4  # distinct draws
        rng = np.random.default_rng(8)
        for j in range(4):
            one_keys, one = random_sector_state(basis, rng, 1, integer)
            assert np.array_equal(one_keys, keys)
            assert np.array_equal(one[:, 0], block[:, j])
        if integer:
            parts = np.concatenate([block.real, block.imag])
            assert np.all(parts == np.round(parts))
            assert np.all((np.abs(parts) >= 1) & (np.abs(parts) <= 999))
        else:
            norms = np.sqrt(state_norm_sq((keys, block)))
            assert np.all(np.abs(norms - 1.0) <= 1e-15)


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
        created = apply_pair_create(vacuum(), k, modes_7_2, cap=2, normalized=True)
        lhs = amplitudes(apply_h0(created, modes_7_2, params))  # H0 b*_k O (H0 O = 0)
        comps = apply_c_create(vacuum(), k, modes_7_2, cap=2, normalized=True)
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
    created = apply_pair_create(vacuum(), E2, modes_7_2, cap=3, normalized=True)
    annihilated = apply_pair_annihilate(created, E1, modes_7_2, normalized=True)
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
    cstar = apply_c_create(vacuum(), k, modes_7_2, cap=3, normalized=True)
    for i in range(3):
        second = apply_pair_annihilate(cstar[i], k, modes_7_2, normalized=True)
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
    _, (_, _, values) = assemble_quadratic_interaction(modes_7_2, v, ModelParams(7), 2)
    assert not np.any(values)


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
    # Q phi_k on the rows phi_k occupies has the full product's bits there,
    # so its vdot with the full-length phi_k has them too
    modes = build_mode_set(holes_n, lambda_sq)
    v = make_potential(entries)
    basis, triplets = assemble_quadratic_interaction(modes, v, ModelParams(holes_n), max_pairs)
    checked = 0
    for k in v.ks:
        if modes.lune_size(k) == 0:
            continue
        phi = apply_pair_create(vacuum(), k, modes, cap=max_pairs, normalized=True)
        vec = fock_oracle._basis_vector(basis, phi)
        targets = fock_oracle._positions(basis, phi[0])
        full = fock_oracle._matvec(triplets, vec)
        rows = fock_oracle._matvec_rows(triplets, vec, targets)
        assert full[targets].tobytes() == rows[targets].tobytes()
        assert not np.delete(rows, targets).any()
        assert np.vdot(vec, rows).tobytes() == np.vdot(vec, full).tobytes()
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("holes_n, lambda_sq, max_pairs, entries", ONE_PAIR_CASES)
def test_one_pair_deviation_matches_the_full_matvec_loop(holes_n, lambda_sq, max_pairs, entries):
    modes = build_mode_set(holes_n, lambda_sq)
    v = make_potential(entries)
    params = ModelParams(holes_n)
    report = verify_quadratic_interaction(modes, v, params, max_pairs)
    basis, triplets = assemble_quadratic_interaction(modes, v, params, max_pairs)
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
    basis, triplets = assemble_quadratic_interaction(modes, v, ModelParams(7), 2)
    assert math.inf in one_pair_deviations_loop(basis, triplets, modes, v, ModelParams(7), 2)


def test_quadratic_expectation_hand_value(modes_7_2):
    # k = (1,1,0) at this cutoff has exactly one pair (h = 0), so
    # <b*_k O, Q b*_k O> = V(k) n_k^2 / N = 0.7 * 1 / 7 = 0.1; the mirror
    # transfer cannot annihilate anything in that one-pair state
    k = (1, 1, 0)
    assert modes_7_2.lune_size(k) == 1
    v = make_potential({k: 0.7}, support_radius_sq=2)
    basis, (rows, cols, values) = assemble_quadratic_interaction(
        modes_7_2, v, ModelParams(7), 2
    )
    phi = apply_pair_create(vacuum(), k, modes_7_2, cap=2, normalized=True)
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


def test_pair_structure_preserved(modes_7_2):
    rng = np.random.default_rng(11)
    state = random_state(modes_7_2, rng)
    holes_mask = (1 << 7) - 1
    for op in (
        lambda s: apply_pair_create(s, E1, modes_7_2, cap=3),
        lambda s: apply_pair_annihilate(s, E1, modes_7_2),
        lambda s: apply_c_create(s, (1, 1, 0), modes_7_2, cap=3)[0],
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
