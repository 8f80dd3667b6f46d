import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fermi_rpa.errors import DomainError
from fermi_rpa.hf import hf_energy
from fermi_rpa.lattice import (
    ModelParams,
    _ball_size,
    _slot_bits,
    _stay_count,
    build_fermi_ball,
    closed_shell_sizes,
    kinetic_coefficient,
    kinetic_coefficient_asymptotic,
    lune_count,
    nk_asymptotic,
    norm_sq,
    orbit_representative,
)
from fermi_rpa.potential import make_potential
from fermi_rpa.rpa_delocalized import coefficient_table

from conftest import brute_force_ball
from oracles import brute_force_pairs, mode_sort_key

SHELL_GRID = (4, 16, 64, 256, 1024)


def modes(ball):
    """The points set in the ball's row bitsets, in the global mode order."""
    r = len(ball.rows) // 2
    width = _slot_bits(r)
    points = [
        (i - r, bit // width - r, bit % width - r)
        for i, row in enumerate(ball.rows)
        for bit in range(row.bit_length())
        if row >> bit & 1
    ]
    return sorted(points, key=mode_sort_key)


def test_closed_shell_sizes_origin():
    assert closed_shell_sizes(0) == [(0, 1)]


def test_closed_shell_sizes_radius_one():
    assert closed_shell_sizes(1) == [(0, 1), (1, 7)]


def test_closed_shell_sizes_radius_four():
    levels = dict(closed_shell_sizes(4))
    assert levels[2] == 19
    assert levels[3] == 27
    assert levels[4] == 33


def test_closed_shell_sizes_against_brute_force():
    levels = dict(closed_shell_sizes(9))
    for s, count in levels.items():
        assert count == len(brute_force_ball(s))


def test_closed_shell_sizes_are_the_ball_sizes_of_every_level():
    # every s up to 4096: a level is attained exactly where the ball grows
    sizes = [_ball_size(s) for s in range(4097)]
    attained = [(s, size) for s, size in enumerate(sizes) if s == 0 or size > sizes[s - 1]]
    assert closed_shell_sizes(4096) == attained


def test_closed_shell_counts_strictly_increasing():
    counts = [c for _, c in closed_shell_sizes(50)]
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_build_fermi_ball_single_mode():
    ball = build_fermi_ball(1)
    assert ball.shell_radius_sq == 0
    assert modes(ball) == [(0, 0, 0)]


def test_build_fermi_ball_seven(ball7):
    assert ball7.shell_radius_sq == 1
    assert set(modes(ball7)) == {
        (0, 0, 0),
        (1, 0, 0),
        (-1, 0, 0),
        (0, 1, 0),
        (0, -1, 0),
        (0, 0, 1),
        (0, 0, -1),
    }


def test_build_fermi_ball_rejects_open_shell():
    with pytest.raises(DomainError, match="nearest shells have 1 and 7"):
        build_fermi_ball(2)
    with pytest.raises(DomainError, match="^no closed shell with exactly 100 modes; "):
        build_fermi_ball(100)


def test_ball_radius_for_every_shell_up_to_radius_sq_1000():
    # the extremes of the radius bracket: the largest n of each shell builds
    # it, and the smallest, one past the shell below, names both neighbours
    previous = 0
    for s, count in closed_shell_sizes(1000):
        ball = build_fermi_ball(count)
        assert (ball.n, ball.shell_radius_sq) == (count, s)
        if previous + 1 < count:
            with pytest.raises(DomainError, match=f"have {previous} and {count}$"):
                build_fermi_ball(previous + 1)
        previous = count


def test_ball_shells_stop_at_the_level_cap(monkeypatch):
    # with the cap at 64 the shell of 2109 modes (radius^2 64) is the last
    # one built; one mode more, or the next shell, needs a level above it
    from fermi_rpa import lattice

    (_, last), (_, following) = [pair for pair in closed_shell_sizes(65) if pair[0] >= 64]
    monkeypatch.setattr(lattice, "LEVEL_CAP", 64)
    assert build_fermi_ball(last).shell_radius_sq == 64
    for n in (last + 1, following):
        message = f"^{n} modes need a closed shell of radius\\^2 above the cap LEVEL_CAP = 64$"
        with pytest.raises(DomainError, match=message):
            build_fermi_ball(n)


@pytest.mark.parametrize("n", [10**10, 10**28])
def test_ball_beyond_the_level_cap_builds_no_column_table(monkeypatch, n):
    from fermi_rpa import lattice

    def refused(radius_sq):
        raise AssertionError(f"counted or built the ball of radius^2 {radius_sq}")

    monkeypatch.setattr(lattice, "_ball_size", refused)
    monkeypatch.setattr(lattice, "_ball_rows", refused)
    with pytest.raises(DomainError, match=f"^{n} modes need .* LEVEL_CAP = {lattice.LEVEL_CAP}$"):
        build_fermi_ball(n)


def test_ball_bisects_inside_the_bracket(monkeypatch):
    from fermi_rpa import lattice

    calls, built = [], []
    ball_size, ball_rows = lattice._ball_size, lattice._ball_rows

    def counted(radius_sq):
        calls.append(radius_sq)
        return ball_size(radius_sq)

    def rows(radius_sq):
        built.append(radius_sq)
        return ball_rows(radius_sq)

    monkeypatch.setattr(lattice, "_ball_size", counted)
    monkeypatch.setattr(lattice, "_ball_rows", rows)
    ball = build_fermi_ball(9947927)
    assert ball.shell_radius_sq == 17800
    # nine bisection steps over a bracket of width 535, then one count at the
    # answer, and only the answer's rows are built
    assert len(calls) == 10 and calls[-1] == 17800
    assert built == [17800]


def test_mode_order_is_deterministic(ball33):
    keys = [mode_sort_key(m) for m in modes(ball33)]
    assert keys == sorted(keys)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=200, deadline=None)
def test_membership_is_norm_test(probe_x, probe_y, probe_z):
    ball = build_fermi_ball(33)
    probe = (probe_x, probe_y, probe_z)
    assert (probe in set(modes(ball))) == (norm_sq(probe) <= ball.shell_radius_sq)


def test_membership_thousand_probes(ball33):
    rng = np.random.default_rng(123)
    members = set(modes(ball33))
    for _ in range(1000):
        probe = tuple(int(c) for c in rng.integers(-5, 6, size=3))
        assert (probe in members) == (norm_sq(probe) <= ball33.shell_radius_sq)


def test_lune_count_zero_transfer(ball7):
    assert lune_count(ball7, (0, 0, 0)) == 0


def test_lune_count_seven(ball7):
    pairs = brute_force_pairs(ball7.shell_radius_sq, (1, 0, 0))
    assert lune_count(ball7, (1, 0, 0)) == len(pairs) == 5
    for p, h in pairs:
        assert tuple(np.subtract(p, h)) == (1, 0, 0)
        assert norm_sq(h) <= ball7.shell_radius_sq
        assert norm_sq(p) > ball7.shell_radius_sq


def test_lune_count_brute_force(ball33):
    pts = brute_force_ball(ball33.shell_radius_sq)
    for k in [(1, 0, 0), (2, 1, 0), (0, 0, 3), (-1, -1, -1)]:
        expected = sum(
            1
            for h in pts
            if (h[0] + k[0]) ** 2 + (h[1] + k[1]) ** 2 + (h[2] + k[2]) ** 2
            > ball33.shell_radius_sq
        )
        assert lune_count(ball33, k) == expected


@pytest.mark.parametrize(
    "k", [(0, 0, 2**63 - 1), (10**19, 0, 0), (0, 0, 10**19)],
    ids=["int64-max", "beyond-int64", "beyond-int64-along-z"],
)
def test_lune_count_of_a_shift_beyond_the_ball(k):
    # every hole leaves the ball, and no int64 arithmetic with k overflows
    assert lune_count(build_fermi_ball(257), k) == 257


def test_lune_evenness(ball33):
    for k in brute_force_ball(9):
        assert lune_count(ball33, k) == lune_count(ball33, tuple(-c for c in k))


def test_pair_consistency(ball33):
    pairs = brute_force_pairs(ball33.shell_radius_sq, (1, 1, 0))
    assert len(pairs) == lune_count(ball33, (1, 1, 0))


def test_lune_count_along_an_axis_is_the_circle_count():
    # each x-line through the ball holds exactly one hole whose shift by
    # (1, 0, 0) leaves it, so n_k^2 = #{(y, z) : y^2 + z^2 <= R^2}, the Gauss
    # circle count; its remainder is why criterion 6's errors are not monotone
    shells = closed_shell_sizes(400)
    assert len(shells) == 336
    for radius_sq, n in shells:
        r = math.isqrt(radius_sq)
        circle = sum(2 * math.isqrt(radius_sq - y * y) + 1 for y in range(-r, r + 1))
        assert lune_count(build_fermi_ball(n), (1, 0, 0)) == circle


def test_model_params_is_an_immutable_value():
    params = ModelParams(7)
    assert params == ModelParams(7) and hash(params) == hash(ModelParams(7))
    assert params != ModelParams(33)
    assert copy.copy(params) == params  # rebuilt from n
    with pytest.raises(AttributeError):
        params.hbar = 1.0


def test_nk_asymptotic_zero():
    assert nk_asymptotic(ModelParams(7), (0, 0, 0)) == 0.0


def test_nk_asymptotic_seven():
    expected = math.sqrt(math.pi * (21 / (4 * math.pi)) ** (2 / 3) - math.pi / 12)
    assert nk_asymptotic(ModelParams(7), (1, 0, 0)) == pytest.approx(expected, rel=1e-15)


def test_nk_asymptotic_domain():
    with pytest.raises(DomainError):
        nk_asymptotic(ModelParams(7), (9, 0, 0))


def test_nk_asymptotic_algebraic_identity():
    # pi k_F^2 |k| = |k| (3 sqrt(pi)/4)^(2/3) N hbar
    params = ModelParams(257)
    for k in [(1, 0, 0), (1, 1, 0), (2, 1, 0)]:
        kn = math.sqrt(norm_sq(k))
        alt = math.sqrt(
            kn * (3 * math.sqrt(math.pi) / 4) ** (2 / 3) * params.n * params.hbar
            - math.pi / 12 * kn ** 3
        )
        assert nk_asymptotic(params, k) == pytest.approx(alt, rel=1e-13)


def test_kinetic_coefficient_seven(ball7):
    assert kinetic_coefficient(ball7, (1, 0, 0)) == (5, 7 / 5)


def test_kinetic_coefficient_positive(ball33):
    for k in [(1, 0, 0), (1, 1, 0), (2, 0, 1), (0, 0, 2)]:
        assert kinetic_coefficient(ball33, k)[1] > 0.0


def test_kinetic_coefficient_even(ball33):
    for k in [(1, 0, 0), (1, 1, 0), (2, 1, 0)]:
        neg = tuple(-c for c in k)
        assert kinetic_coefficient(ball33, k) == kinetic_coefficient(ball33, neg)


def test_kinetic_coefficient_empty():
    with pytest.raises(DomainError, match=r"^no particle-hole pair with transfer momentum \(0, 0, 0\)$"):
        kinetic_coefficient(build_fermi_ball(7), (0, 0, 0))


def test_kinetic_identity_exact(ball33):
    # sum over the lune of k.(2h+k) telescopes to N|k|^2 on symmetric balls
    lattice = modes(ball33)
    for k in [(1, 0, 0), (1, 1, 0), (2, 1, 0)]:
        members = set(lattice)
        lune = [h for h in lattice if (h[0] + k[0], h[1] + k[1], h[2] + k[2]) not in members]
        pair_sum = sum(k[i] * (2 * h[i] + k[i]) for h in lune for i in range(3))
        assert pair_sum == ball33.n * norm_sq(k)
        assert kinetic_coefficient(ball33, k) == (len(lune), pair_sum / len(lune))


def test_kinetic_asymptotic_value():
    expected = (4 / (3 * math.sqrt(math.pi))) ** (2 / 3)
    got = kinetic_coefficient_asymptotic(ModelParams(1), (1, 0, 0))
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(0.8271339878658667, abs=1e-15)


def test_kinetic_asymptotic_scaling():
    base = kinetic_coefficient_asymptotic(ModelParams(33), (1, 0, 0))
    scaled = kinetic_coefficient_asymptotic(ModelParams(8 * 33), (1, 0, 0))
    assert scaled == pytest.approx(2.0 * base, rel=1e-14)


def test_kinetic_asymptotic_rejects_zero():
    with pytest.raises(DomainError):
        kinetic_coefficient_asymptotic(ModelParams(7), (0, 0, 0))


def test_nk_relative_error_decreases_along_shells():
    k = (1, 0, 0)
    errors = []
    for radius_sq in SHELL_GRID:
        n = dict(closed_shell_sizes(radius_sq))[radius_sq]
        ball = build_fermi_ball(n)
        exact = math.sqrt(lune_count(ball, k))
        asym = nk_asymptotic(ModelParams(n), k)
        errors.append(abs(exact / asym - 1.0))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.03


def test_nk_squared_gauss_law_slope():
    # |n_k^2 - continuum| grows no faster than the boundary term O(k_F^2.5)
    k = (1, 0, 0)
    logs_err, logs_kf = [], []
    for radius_sq in SHELL_GRID:
        n = dict(closed_shell_sizes(radius_sq))[radius_sq]
        ball = build_fermi_ball(n)
        exact = lune_count(ball, k)
        asym = nk_asymptotic(ModelParams(n), k) ** 2
        logs_err.append(math.log(abs(exact - asym)))
        logs_kf.append(math.log(ModelParams(n).kf))
    slope = np.polyfit(logs_kf, logs_err, 1)[0]
    assert slope <= 2.5


@pytest.mark.parametrize("radius_sq", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 30])
def test_lazy_modes_match_brute_force(radius_sq):
    pts = brute_force_ball(radius_sq)
    ball = build_fermi_ball(len(pts))
    assert modes(ball) == sorted(pts, key=mode_sort_key)
    assert ball.norm_sq_sum() == sum(norm_sq(h) for h in pts)


@given(
    st.integers(0, 60),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
)
@example(0, (0, 0, 0))
@example(0, (1, 0, 0))
@example(60, (0, 0, 0))
@example(60, (16, 0, 0))
@example(60, (-20, 20, -20))
@settings(max_examples=200, deadline=None)
def test_column_kernel_matches_brute_force(radius_sq, k):
    # radius_sq need not be an attained level; the ball is the same set
    pts = brute_force_ball(radius_sq)
    members = set(pts)
    ball = build_fermi_ball(len(pts))
    lune = [h for h in pts if (h[0] + k[0], h[1] + k[1], h[2] + k[2]) not in members]
    stay = len(pts) - len(lune)
    assert lune_count(ball, k) == len(lune)
    # HF reads the stay count N - n_k^2 for every support momentum
    v = make_potential({k: 1.0})
    exchange = hf_energy(coefficient_table(ball, v), v).exchange
    assert exchange == (2 * stay if any(k) else stay) / ball.n
    if not lune:
        assert k == (0, 0, 0)
        with pytest.raises(DomainError, match="^no particle-hole pair with transfer momentum "):
            kinetic_coefficient(ball, k)
        return
    # the pair sum k.(2h+k) over the lune, counted point by point, equals
    # the closed-shell numerator N |k|^2 for every k
    pair_sum = sum(k[i] * (2 * h[i] + k[i]) for h in lune for i in range(3))
    assert pair_sum == ball.n * norm_sq(k)
    assert kinetic_coefficient(ball, k) == (len(lune), pair_sum / len(lune))


def test_column_kernel_large_n_against_numpy_scan():
    ball = build_fermi_ball(57777)
    radius_sq = ball.shell_radius_sq
    r = math.isqrt(radius_sq)
    ax = np.arange(-r, r + 1, dtype=np.int64)
    pts = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = pts[(pts * pts).sum(axis=1) <= radius_sq]
    assert len(pts) == ball.n
    assert ball.norm_sq_sum() == int((pts * pts).sum())
    ks = [(1, 0, 0), (2, -3, 1), (5, 5, 5), (-7, 0, 24), (0, 2 * r + 1, 0), (30, -30, 30)]
    for k in ks:
        shifted = pts + np.asarray(k)
        out = (shifted * shifted).sum(axis=1) > radius_sq
        count = int(out.sum())
        assert lune_count(ball, k) == count
        psum = 2 * pts[out].sum(axis=0) + count * np.asarray(k)
        pair_sum = int(np.dot(k, psum))
        assert pair_sum == ball.n * norm_sq(k)
        assert kinetic_coefficient(ball, k) == (count, pair_sum / count)


# the 48 signed permutations of the axes, as (permutation, signs)
CUBIC_GROUP = [
    (perm, signs)
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]


def act(g, k):
    perm, signs = g
    return tuple(signs[i] * k[perm[i]] for i in range(3))


@given(
    st.sampled_from(closed_shell_sizes(400)),
    st.tuples(st.integers(-25, 25), st.integers(-25, 25), st.integers(-25, 25)),
)
@example((0, 1), (1, 0, 0))
@example((400, 33401), (3, -1, 2))
@settings(max_examples=60, deadline=None)
def test_lune_count_is_invariant_under_the_cubic_group(shell, k):
    assert len({act(g, (1, 2, 3)) for g in CUBIC_GROUP}) == 48
    radius_sq, n = shell
    ball = build_fermi_ball(n)
    assert ball.shell_radius_sq == radius_sq
    count = lune_count(ball, k)
    rep = orbit_representative(k)
    assert rep in {act(g, k) for g in CUBIC_GROUP}
    for g in CUBIC_GROUP:
        assert lune_count(ball, act(g, k)) == count
        assert orbit_representative(act(g, k)) == rep


def test_integer_arithmetic_exact_near_a_billion():
    ball = build_fermi_ball(1000003353)
    radius_sq, rows = ball.shell_radius_sq, ball.rows
    r = len(rows) // 2
    width = _slot_bits(r)
    isqrt = math.isqrt

    def top(x, y):
        rest = radius_sq - x * x - y * y
        return isqrt(rest) if rest >= 0 else -1

    # every column of a few rows is the exact integer square root, empty off the ball
    for x in (0, 1, r // 2, r - 1, r):
        for y in range(-r, r + 1):
            z = top(x, y)
            column = rows[x + r] >> (y + r) * width & (1 << width) - 1
            assert column == ((1 << 2 * z + 1) - 1 << r - z if z >= 0 else 0)
            assert z < 0 or z * z <= radius_sq - x * x - y * y < (z + 1) ** 2
    # the quadrant x, y >= 0 of the columns, each weighted by its mirror images
    count = total = 0
    for x in range(r + 1):
        for y in range(isqrt(radius_sq - x * x) + 1):
            z = top(x, y)
            weight = (1 if x == 0 else 2) * (1 if y == 0 else 2)
            count += weight * (2 * z + 1)
            total += weight * ((x * x + y * y) * (2 * z + 1) + z * (z + 1) * (2 * z + 1) // 3)
    assert count == ball.n == sum(row.bit_count() for row in rows)
    assert 2 * 10**14 < total < 3 * 10**14
    assert ball.norm_sq_sum() == total
    # one row: the stay count as a Python-int sum of column overlaps
    k = (2, -1, 5)
    v = make_potential({k: 0.01})
    table = coefficient_table(ball, v)
    nk2, kdotf = table.nk2[table.ks.index(k)], table.kdotf[table.ks.index(k)]
    stay = 0
    for x in range(-r, r + 1):
        for y in range(-isqrt(radius_sq - x * x), isqrt(radius_sq - x * x) + 1):
            source, target = top(x, y), top(x + k[0], y + k[1])
            if target >= 0:
                stay += max(min(source, target - k[2]) - max(-source, -target - k[2]) + 1, 0)
    # the count is exact in its float column: it is below 2^53
    assert nk2 == ball.n - stay < 2**53
    numerator = ball.n * norm_sq(k)
    assert numerator == 30_000_100_590
    assert kinetic_coefficient(ball, k) == (ball.n - stay, numerator / (ball.n - stay))
    assert kdotf == numerator / (ball.n - stay)


def row_stays(ball, k):
    """{x: bit_count(row[x] & mask & (row[x + k_x] >> (k_y W + k_z)))} for every x
    whose partner row exists, for any signs of k: a negative shift moves left,
    and the mask keeps the source offsets o with o + k_z inside the slot."""
    rows = ball.rows
    r = len(rows) // 2
    width = _slot_bits(r)
    kx, ky, kz = k
    keep = sum(1 << o for o in range(width) if 0 <= o + kz < width)
    mask = sum(keep << width * y for y in range(2 * r + 1))
    shift = ky * width + kz
    stays = {}
    for x in range(max(-r, -r - kx), min(r, r - kx) + 1):
        target = rows[x + kx + r]
        target = target >> shift if shift >= 0 else target << -shift
        stays[x] = (rows[x + r] & mask & target).bit_count()
    return stays


@given(
    st.integers(0, 60),
    st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)),
)
@example(0, (0, 0, 0))
@example(4, (0, 0, -4))
@example(30, (-3, 2, -5))
@example(60, (15, 0, 0))
@example(60, (-7, 7, -7))
@settings(max_examples=200, deadline=None)
def test_row_kernel_matches_brute_force(radius_sq, k):
    pts = brute_force_ball(radius_sq)
    members = set(pts)
    ball = build_fermi_ball(len(pts))
    stay = sum((h[0] + k[0], h[1] + k[1], h[2] + k[2]) in members for h in pts)
    assert sum(row.bit_count() for row in ball.rows) == ball.n
    assert _stay_count(ball, k) == stay
    # the pass runs at one member of the orbit; every member gives its count
    assert {_stay_count(ball, act(g, k)) for g in CUBIC_GROUP} == {stay}
    r = math.isqrt(ball.shell_radius_sq)
    if max(map(abs, k)) >= 2 * r + 1:
        assert stay == 0 and lune_count(ball, k) == ball.n
        return
    # the row layout read at k itself, negative shifts included, without the pairing
    stays = row_stays(ball, k)
    assert sum(stays.values()) == stay
    # h -> -h - k maps the stayers of row x onto those of row -x - k_x
    assert all(stays[-x - k[0]] == count for x, count in stays.items())
