import math

import numpy as np
import pytest

import pressgap as pg
from pressgap import extension
from pressgap.decomposition import DecompositionConfig
from pressgap.errors import ValidationError
from pressgap.extension import (ExtensionConfig, birkhoff_hat, bowen_bound,
                                depth_for_tolerance, extend, lift_fiber_averaged,
                                lift_projection, tail_bound, verify_bowen)
from pressgap.maps import CIRCLE_DIAMETER, circle_dist
from pressgap.orbits import OrbitSegment

from oracles import (ExtPoint, birkhoff_hat_scalar, birkhoff_sum, classify_segment,
                     ext_columns, ext_point, ext_points,
                     extend_scalar, hat_distance, hat_g, hat_g_inverse,
                     hat_orbit_coords, random_branches, verify_bowen_scalar)


def _value(lift, p):
    """The lifted potential at one extension point."""
    return float(lift.evaluate(np.asarray(p.coords)))


def test_config_and_tail_bound():
    cfg = ExtensionConfig(2.0, 20)
    assert tail_bound(cfg.a, cfg.depth) == pytest.approx(2.0 ** -20)
    with pytest.raises(ValidationError):
        ExtensionConfig(1.0, 4)


def test_extend_examples(doubling_map):
    assert ext_point(doubling_map, 0.3, []).coords == (0.3,)
    assert ext_point(doubling_map, 0.0, [0] * 4).coords == (0.0,) * 5
    assert ext_point(doubling_map, 0.5, [0] * 3).coords == (0.5, 0.25, 0.125, 0.0625)


def test_extend_policies(doubling_map, rng):
    p = ext_point(doubling_map, 0.73, random_branches(rng, doubling_map.degree, 10))
    for i in range(10):
        assert float(circle_dist(doubling_map.forward(p.coords[i + 1]),
                                 p.coords[i])) < 1e-10
    q = ext_point(doubling_map, 0.5, [1, 0, 1])
    assert q.coords[1] == pytest.approx(0.75)


def test_shift_algebra(doubling_map, rng):
    p = ext_point(doubling_map, 0.37, random_branches(rng, doubling_map.degree, 8))
    q = hat_g(doubling_map, p)
    assert q.depth == p.depth
    assert q.coords[0] == pytest.approx(float(doubling_map.forward(0.37)))
    assert q.coords[1:] == p.coords[:-1]
    back = hat_g_inverse(doubling_map, q)
    assert back.coords[:-1] == p.coords[:-1]
    assert back.depth == p.depth


def test_semiconjugacy_and_projection_lipschitz(builtin_maps, rng):
    for system in builtin_maps:
        cfg = ExtensionConfig(2.0, 12)
        # each start is drawn before its 12 branches, p before q
        starts, branches = [], []
        for _ in range(400):
            starts.append(float(rng.random()))
            branches.append([int(rng.integers(system.degree)) for _ in range(12)])
        pts = ext_points(system, starts, branches)
        for p, q in zip(pts[0::2], pts[1::2]):
            # projection after the shift equals the map after projection
            assert hat_g(system, p).coords[0] == float(system.forward(p.coords[0]))
            trunc, _ = hat_distance(cfg, p, q)
            assert float(circle_dist(p.coords[0], q.coords[0])) <= trunc + 1e-15


def test_hat_distance_examples(doubling_map, rng):
    cfg = ExtensionConfig(2.0, 6)
    p = ext_point(doubling_map, 0.4, random_branches(rng, doubling_map.degree, 6))
    trunc, tail = hat_distance(cfg, p, p)
    assert trunc == 0.0 and tail == tail_bound(cfg.a, cfg.depth)
    q = ExtPoint((0.45,) + p.coords[1:])
    trunc2, _ = hat_distance(cfg, p, q)
    assert trunc2 == pytest.approx(0.05)
    with pytest.raises(ValidationError):
        hat_distance(cfg, p, ext_point(doubling_map, 0.4, [0] * 5))


def test_hat_distance_triangle(doubling_map, rng):
    cfg = ExtensionConfig(2.0, 8)
    pts = [ext_point(doubling_map, float(rng.random()), random_branches(rng, 2, 8))
           for _ in range(12)]
    for a in pts[:4]:
        for b in pts[4:8]:
            for c in pts[8:]:
                dab, _ = hat_distance(cfg, a, b)
                dbc, _ = hat_distance(cfg, b, c)
                dac, _ = hat_distance(cfg, a, c)
                assert dac <= dab + dbc + 1e-12


def test_lifted_decomposition_consistency(mp_map, rng):
    cfg = DecompositionConfig(0.9)
    for _ in range(40):
        x = float(rng.random())
        n = int(rng.integers(2, 12))
        p = ext_point(mp_map, x, random_branches(rng, mp_map.degree, 12))
        # lifted membership is defined through the base coordinate
        assert classify_segment(mp_map, cfg, OrbitSegment(p.coords[0], n)) is \
            classify_segment(mp_map, cfg, OrbitSegment(x, n))


def test_lift_projection(doubling_map, sin_potential, rng):
    lifted = lift_projection(sin_potential)
    p = ext_point(doubling_map, 0.3, random_branches(rng, doubling_map.degree, 6))
    assert _value(lifted, p) == pytest.approx(float(sin_potential(0.3)))
    assert lifted.holder_constant == sin_potential.holder_constant
    zero_lift = lift_projection(pg.zero_potential())
    assert _value(zero_lift, p) == 0.0


def test_lift_fiber_averaged_example(doubling_map):
    ident = pg.Potential(lambda x: np.asarray(x, dtype=float), 1.0, 1.0)
    lifted = lift_fiber_averaged(ident, 2.0)
    p = ext_point(doubling_map, 0.5, [0] * 3)
    assert _value(lifted, p) == pytest.approx(0.6640625)
    assert lifted.holder_constant == pytest.approx(2.0)
    assert lifted.holder_exponent == 1.0


def test_hat_orbit_coords(doubling_map, rng):
    p = ext_point(doubling_map, 0.31, random_branches(rng, doubling_map.degree, 6))
    coords = hat_orbit_coords(doubling_map, p, 4)
    fwd = doubling_map.orbit(0.31, 5)[0]
    for i, c in enumerate(coords):
        assert len(c) == 7
        assert c[0] == pytest.approx(fwd[i])
        if i + 1 < len(c):
            assert c[i] == p.coords[0]


def test_birkhoff_hat_projection_matches_base(doubling_map, sin_potential, rng):
    coords = extend(doubling_map, [0.61],
                    [random_branches(rng, doubling_map.degree, 10)])
    lifted = lift_projection(sin_potential)
    base = birkhoff_sum(doubling_map, sin_potential, OrbitSegment(0.61, 7))
    assert birkhoff_hat(doubling_map, lifted, coords, [7])[0] == pytest.approx(base)


@pytest.mark.parametrize("lift_kind", ["projection", "fiber"])
def test_birkhoff_hat_batch_matches_per_point_sums(lift_kind, builtin_maps,
                                                   sin_potential):
    for system in builtin_maps + [_tabulated_map()]:
        for phi in (sin_potential, pg.geometric_potential(system, 1.0)):
            lift_a = None if lift_kind == "projection" else 1.5
            lift = (lift_projection(phi) if lift_a is None
                    else lift_fiber_averaged(phi, lift_a))
            rng = np.random.default_rng(2)
            # a start at 0.0 summed once: MP's geometric potential is -0.0
            # there, and a sum from 0.0 makes it +0.0
            starts = np.concatenate([[0.0, 0.0], rng.random(18)])
            ns = np.concatenate([[1, 0], rng.integers(1, 25, size=18)])
            for depth in (0, 3, 12):
                coords = extend(system, starts, random_branches(
                    rng, system.degree, depth, starts.size))
                sums = birkhoff_hat(system, lift, coords, ns)
                assert sums.shape == (20,)
                for p, n, total in zip(ext_columns(coords), ns.tolist(), sums):
                    ref = np.float64(birkhoff_hat_scalar(system, phi, lift_a, p, n))
                    assert total.tobytes() == ref.tobytes(), (system, phi, n)
    mp = builtin_maps[1]
    geo = lift_projection(pg.geometric_potential(mp, 1.0))
    [total] = birkhoff_hat(mp, geo, extend(mp, [0.0], [[0] * 4]), [1])
    assert math.copysign(1.0, total) == 1.0


def test_bowen_bound_examples():
    dec = DecompositionConfig(0.5)
    assert bowen_bound(ExtensionConfig(2.0, 20), dec, 0.0, 1.0, 1.0 / 16.0) == 0.0
    assert bowen_bound(ExtensionConfig(2.0, 20), dec, 1.0, 1.0, 1.0 / 16.0) \
        == pytest.approx(0.25)
    val = bowen_bound(ExtensionConfig(2.0, 24), DecompositionConfig(0.9),
                      1.5, 0.5, 1.0 / 32.0)
    assert np.isfinite(val) and val > 0.0


def test_verify_bowen_constant_potential(doubling_map):
    rep = verify_bowen(doubling_map, ExtensionConfig(2.0, 16),
                       DecompositionConfig(0.75),
                       lift_projection(pg.constant_potential(2.0)),
                       1.0 / 16.0, 30, seed=5)
    assert rep.empirical_max == 0.0
    assert rep.bound == 0.0


def test_verify_bowen_identical_points_zero(doubling_map, sin_potential, rng):
    coords = extend(doubling_map, [0.3], [random_branches(rng, doubling_map.degree, 12)])
    lifted = lift_projection(sin_potential)
    assert birkhoff_hat(doubling_map, lifted, coords, [6]) \
        == birkhoff_hat(doubling_map, lifted, coords, [6])


def test_verify_bowen_within_bound(builtin_maps, sin_potential):
    for system in builtin_maps:
        for phi_hat in (lift_projection(sin_potential),
                        lift_fiber_averaged(sin_potential, 2.0)):
            rep = verify_bowen(system, ExtensionConfig(2.0, 24),
                               DecompositionConfig(0.9), phi_hat,
                               1.0 / 32.0, 120, seed=3)
            assert rep.within_bound
            assert rep.samples == 120


def test_fiber_contraction_bound(doubling_map, rng):
    # pairs sharing the base coordinate synchronize at rate a^-k
    cfg = ExtensionConfig(2.0, 16)
    for _ in range(60):
        x = float(rng.random())
        p = ext_point(doubling_map, x, random_branches(rng, doubling_map.degree, 16))
        q = ext_point(doubling_map, x, random_branches(rng, doubling_map.degree, 16))
        for k in (0, 2, 5, 9):
            pk, qk = p, q
            for _ in range(k):
                pk, qk = hat_g(doubling_map, pk), hat_g(doubling_map, qk)
            trunc, _ = hat_distance(cfg, pk, qk)
            assert trunc <= 0.5 * 2.0 ** (-k) * 2.0 + 1e-12


def test_depth_for_tolerance():
    # diam 1/2, a = 2: smallest k with 2^-k < tol
    assert depth_for_tolerance(2.0, 1.0 / 16.0) == 5
    assert depth_for_tolerance(2.0, 1.0 / 4.0) == 3
    assert depth_for_tolerance(4.0, 1.0 / 16.0) == 2
    # one ulp above 2^-47: the log estimate gives 48, the answer is 47
    assert depth_for_tolerance(2.0, math.nextafter(2.0 ** -47, 1.0)) == 47
    for a, tol in ((2.0, 1e-6), (3.0, 1e-4), (1.5, 1e-3)):
        k = depth_for_tolerance(a, tol)
        assert tail_bound(a, k) < tol
        if k > 0:
            assert tail_bound(a, k - 1) >= tol


def _tabulated_map():
    grid = np.linspace(0.0, 1.0, 65)
    return pg.tabulated_map(2.0 * grid + (0.5 / (2.0 * np.pi)) * np.sin(2.0 * np.pi * grid))


@pytest.mark.parametrize("bad", [2, -1])
def test_extend_rejects_out_of_range_branch_ids(bad, doubling_map, mp_map):
    # the ids are checked before any solve: unchecked, doubling's closed form
    # returns points outside [0, 1) and MP indexes past its branch cuts
    for system in (doubling_map, mp_map):
        with pytest.raises(ValidationError, match="branches"):
            extend(system, [0.3], [[bad]])
        with pytest.raises(ValidationError, match="branches"):
            extend(system, np.array([0.3, 0.6]), np.array([[0, 1], [1, bad]]))
        with pytest.raises(ValidationError, match="branches"):
            extend(system, [0.3], [[0, bad, 1]])


def test_vector_extend_equals_scalar_rows(builtin_maps):
    starts = np.random.default_rng(8).random(7)
    starts[0] = 0.0
    for system in builtin_maps + [_tabulated_map()]:
        for depth in (0, 1, 9):
            given = np.random.default_rng(9).integers(system.degree, size=(7, depth))
            drawn = random_branches(np.random.default_rng(4), system.degree,
                                    depth, starts.size)
            for policy, rows in (("lex-min", np.zeros_like(given)),
                                 ("random", drawn), ("given", given)):
                vec = extend(system, starts, rows)
                assert vec.shape == (depth + 1, starts.size)
                # random_branches draws row by row, as successive scalar
                # 'random' calls do
                rng_ref = np.random.default_rng(4)
                for x, b, row, p in zip(starts, given, rows, ext_columns(vec)):
                    assert p == extend_scalar(system, x, depth, policy, rng_ref, b)
                    assert p == ext_point(system, x, row)


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_block_branch_draws_equal_scalar_draws(degree):
    # verify_bowen draws its branch ids in one block and its reference one
    # at a time; both must give the same ids and leave the same state
    block, scalar = np.random.default_rng(7), np.random.default_rng(7)
    for rng in (block, scalar):
        rng.random()
        rng.integers(5, 21)
    drawn = block.integers(degree, size=(6, 11))
    expected = [[int(scalar.integers(degree)) for _ in range(11)] for _ in range(6)]
    assert drawn.tolist() == expected
    assert block.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("system_name", ["doubling", "mp", "perturbed", "tabulated"])
def test_verify_bowen_matches_scalar_reference(system_name, doubling_map, mp_map,
                                               perturbed_map, sin_potential,
                                               monkeypatch):
    system = {"doubling": doubling_map, "mp": mp_map, "perturbed": perturbed_map,
              "tabulated": _tabulated_map()}[system_name]
    dec = DecompositionConfig(0.9)
    monkeypatch.setattr(extension, "_LENGTH_RANGE", (3, 12))
    cases = 0
    for a, lift_a, lift in ((2.0, None, lift_projection(sin_potential)),
                            (1.5, 1.5, lift_fiber_averaged(sin_potential, 1.5))):
        for eps in (1.0 / 16.0, 1.0 / 32.0):
            sync = max(4, math.ceil(math.log(CIRCLE_DIAMETER * 4.0 / eps) / math.log(a)))
            # truncation depths below, at and above the companion's sync depth
            for depth in (sync - 1, sync, sync + 3):
                for seed in (cases, 100 + cases):
                    args = (system, ExtensionConfig(a, depth), dec, lift, eps, 6)
                    assert verify_bowen(*args, seed=seed) == verify_bowen_scalar(
                        *args, n_range=(3, 12), seed=seed, phi=sin_potential,
                        lift_a=lift_a), (a, eps, depth, seed)
                cases += 1
