import math

import numpy as np
import pytest

import pressgap as pg
from pressgap.decomposition import DecompositionConfig, classify_segment
from pressgap.errors import ValidationError
from pressgap.extension import (ExtensionConfig, ExtPoint, as_base_potential,
                                birkhoff_hat, bowen_bound, depth_for_tolerance,
                                extend, hat_distance, hat_g, hat_g_inverse,
                                hat_orbit_coords, lift_fiber_averaged,
                                lift_projection, verify_bowen)
from pressgap.maps import CIRCLE_DIAMETER, circle_dist
from pressgap.orbits import OrbitSegment

from oracles import extend_scalar, verify_bowen_scalar


def test_config_and_tail_bound():
    cfg = ExtensionConfig(2.0, 20)
    assert cfg.tail_bound == pytest.approx(2.0 ** -20)
    with pytest.raises(ValidationError):
        ExtensionConfig(1.0, 4)


def test_extend_examples(doubling_map):
    assert extend(doubling_map, 0.3, 0).coords == (0.3,)
    assert extend(doubling_map, 0.0, 4).coords == (0.0,) * 5
    assert extend(doubling_map, 0.5, 3).coords == (0.5, 0.25, 0.125, 0.0625)


def test_extend_policies(doubling_map, rng):
    p = extend(doubling_map, 0.73, 10, policy="random", rng=rng)
    for i in range(10):
        assert float(circle_dist(doubling_map.forward(p.coords[i + 1]),
                                 p.coords[i])) < 1e-10
    q = extend(doubling_map, 0.5, 3, policy="given", branches=[1, 0, 1])
    assert q.coords[1] == pytest.approx(0.75)
    with pytest.raises(ValidationError):
        extend(doubling_map, 0.5, 2, policy="nope")


def test_shift_algebra(doubling_map, rng):
    p = extend(doubling_map, 0.37, 8, policy="random", rng=rng)
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
        for _ in range(200):
            p = extend(system, float(rng.random()), 12, policy="random", rng=rng)
            q = extend(system, float(rng.random()), 12, policy="random", rng=rng)
            # projection after the shift equals the map after projection
            assert hat_g(system, p).coords[0] == float(system.forward(p.coords[0]))
            trunc, _ = hat_distance(cfg, p, q)
            assert float(circle_dist(p.coords[0], q.coords[0])) <= trunc + 1e-15


def test_hat_distance_examples(doubling_map, rng):
    cfg = ExtensionConfig(2.0, 6)
    p = extend(doubling_map, 0.4, 6, policy="random", rng=rng)
    trunc, tail = hat_distance(cfg, p, p)
    assert trunc == 0.0 and tail == cfg.tail_bound
    q = ExtPoint((0.45,) + p.coords[1:])
    trunc2, _ = hat_distance(cfg, p, q)
    assert trunc2 == pytest.approx(0.05)
    with pytest.raises(ValidationError):
        hat_distance(cfg, p, extend(doubling_map, 0.4, 5))


def test_hat_distance_triangle(doubling_map, rng):
    cfg = ExtensionConfig(2.0, 8)
    pts = [extend(doubling_map, float(rng.random()), 8, policy="random", rng=rng)
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
        p = extend(mp_map, x, 12, policy="random", rng=rng)
        # lifted membership is defined through the base coordinate
        assert classify_segment(mp_map, cfg, OrbitSegment(p.coords[0], n)) is \
            classify_segment(mp_map, cfg, OrbitSegment(x, n))


def test_lift_projection(doubling_map, sin_potential, rng):
    lifted = lift_projection(sin_potential)
    p = extend(doubling_map, 0.3, 6, policy="random", rng=rng)
    assert lifted(p) == pytest.approx(float(sin_potential(0.3)))
    assert lifted.holder_constant == sin_potential.holder_constant
    zero_lift = lift_projection(pg.zero_potential())
    assert zero_lift(p) == 0.0


def test_lift_fiber_averaged_example(doubling_map):
    ident = pg.Potential(lambda x: np.asarray(x, dtype=float), 1.0, 1.0)
    lifted = lift_fiber_averaged(ident, 2.0)
    p = extend(doubling_map, 0.5, 3)
    assert lifted(p) == pytest.approx(0.6640625)
    assert lifted.holder_constant == pytest.approx(2.0)
    assert lifted.holder_exponent == 1.0


def test_hat_orbit_coords(doubling_map, rng):
    p = extend(doubling_map, 0.31, 6, policy="random", rng=rng)
    coords = hat_orbit_coords(doubling_map, p, 4)
    fwd = doubling_map.orbit(0.31, 5)[0]
    for i, c in enumerate(coords):
        assert len(c) == 7
        assert c[0] == pytest.approx(fwd[i])
        if i + 1 < len(c):
            assert c[i] == p.coords[0]


def test_birkhoff_hat_projection_matches_base(doubling_map, sin_potential, rng):
    p = extend(doubling_map, 0.61, 10, policy="random", rng=rng)
    lifted = lift_projection(sin_potential)
    base = pg.birkhoff_sum(doubling_map, sin_potential, OrbitSegment(0.61, 7))
    assert birkhoff_hat(doubling_map, lifted, p, 7) == pytest.approx(base)


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
    p = extend(doubling_map, 0.3, 12, policy="random", rng=rng)
    lifted = lift_projection(sin_potential)
    assert birkhoff_hat(doubling_map, lifted, p, 6) \
        == birkhoff_hat(doubling_map, lifted, p, 6)


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
        p = extend(doubling_map, x, 16, policy="random", rng=rng)
        q = extend(doubling_map, x, 16, policy="random", rng=rng)
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
        assert ExtensionConfig(a, k).tail_bound < tol
        if k > 0:
            assert ExtensionConfig(a, k - 1).tail_bound >= tol


def test_as_base_potential(mp_map, sin_potential, rng):
    proj = lift_projection(sin_potential)
    assert as_base_potential(mp_map, proj, 8) is sin_potential
    fib = lift_fiber_averaged(sin_potential, 2.0)
    base = as_base_potential(mp_map, fib, 8)
    for _ in range(20):
        x = float(rng.random())
        assert float(base(x)) == pytest.approx(fib(extend(mp_map, x, 8)), abs=1e-12)


def test_extension_pressure_of_bad_collection(mp_map, sin_potential):
    # pressure of the bad collection with a genuinely extension-dependent
    # potential, evaluated through the declared lex-min policy
    from pressgap.decomposition import BadCollection, DecompositionConfig
    from pressgap.pressure import pressure_at_scale

    fib = lift_fiber_averaged(sin_potential, 2.0)
    base = as_base_potential(mp_map, fib, 10)
    est = pressure_at_scale(mp_map, base, BadCollection(DecompositionConfig(0.9)),
                            1.0 / 32.0, 8)
    assert not est.is_empty
    assert np.isfinite(est.rate)


def _tabulated_map():
    grid = np.linspace(0.0, 1.0, 65)
    return pg.tabulated_map(2.0 * grid + (0.5 / (2.0 * np.pi)) * np.sin(2.0 * np.pi * grid))


def test_vector_extend_equals_scalar_rows(builtin_maps):
    starts = np.random.default_rng(8).random(7)
    starts[0] = 0.0
    for system in builtin_maps + [_tabulated_map()]:
        for depth in (0, 1, 9):
            given = np.random.default_rng(9).integers(system.degree, size=(7, depth))
            for policy in ("lex-min", "random", "given"):
                vec = extend(system, starts, depth, policy, np.random.default_rng(4), given)
                # 'random' draws row by row, as successive scalar calls do
                rng_ref, rng_new = np.random.default_rng(4), np.random.default_rng(4)
                for x, b, p in zip(starts, given, vec):
                    assert p == extend_scalar(system, x, depth, policy, rng_ref, b)
                    assert p == extend(system, x, depth, policy, rng_new, b)


@pytest.mark.parametrize("system_name", ["doubling", "mp", "perturbed", "tabulated"])
def test_verify_bowen_matches_scalar_reference(system_name, doubling_map, mp_map,
                                               perturbed_map, sin_potential):
    system = {"doubling": doubling_map, "mp": mp_map, "perturbed": perturbed_map,
              "tabulated": _tabulated_map()}[system_name]
    dec = DecompositionConfig(0.9)
    cases = 0
    for a, lift in ((2.0, lift_projection(sin_potential)),
                    (1.5, lift_fiber_averaged(sin_potential, 1.5))):
        for eps in (1.0 / 16.0, 1.0 / 32.0):
            sync = max(4, math.ceil(math.log(CIRCLE_DIAMETER * 4.0 / eps) / math.log(a)))
            # truncation depths below, at and above the companion's sync depth
            for depth in (sync - 1, sync, sync + 3):
                for seed in (cases, 100 + cases):
                    args = (system, ExtensionConfig(a, depth), dec, lift, eps, 6)
                    kwargs = {"n_range": (3, 12), "seed": seed}
                    assert verify_bowen(*args, **kwargs) == \
                        verify_bowen_scalar(*args, **kwargs), (a, eps, depth, seed)
                cases += 1
