import json

import numpy as np
import pytest

from pressgap.decomposition import DecompositionConfig, GoodCollection
from pressgap.errors import GluingError, ValidationError
from pressgap.extension import depth_for_tolerance, extend
from pressgap.orbits import OrbitSegment
from pressgap.specification import (Arc, _pullback_arc, glue_base, glue_extension,
                                    verify_shadow, verify_shadow_extension)


def _good_segments(system, cfg, rng, count, lo=5, hi=20):
    good = GoodCollection(cfg)
    out = []
    while len(out) < count:
        seg = OrbitSegment(float(rng.random()), int(rng.integers(lo, hi + 1)))
        if good.contains(system, seg.start, seg.length):
            out.append(seg)
    return out


def test_single_segment_trivial(doubling_map):
    cfg = DecompositionConfig(0.75)
    plan = glue_base(doubling_map, cfg, [OrbitSegment(0.3, 7)], 1.0 / 16.0)
    assert plan.glue_point == 0.3
    assert plan.transition_times == ()
    assert verify_shadow(doubling_map, plan) == 0.0


def test_two_segments_doubling(doubling_map):
    cfg = DecompositionConfig(0.75)
    segs = [OrbitSegment(0.12, 5), OrbitSegment(0.7, 5)]
    plan = glue_base(doubling_map, cfg, segs, 1.0 / 16.0)
    assert all(t <= doubling_map.mixing_time(1.0 / 16.0) for t in plan.transition_times)
    assert verify_shadow(doubling_map, plan) <= 1.0 / 16.0


def test_three_segments_mp(mp_map, rng):
    cfg = DecompositionConfig(0.9)
    segs = _good_segments(mp_map, cfg, rng, 3)
    plan = glue_base(mp_map, cfg, segs, 1.0 / 32.0)
    assert all(t <= mp_map.mixing_time(1.0 / 32.0) for t in plan.transition_times)
    assert verify_shadow(mp_map, plan) <= 1.0 / 32.0


def test_schedule_formula(doubling_map, rng):
    cfg = DecompositionConfig(0.75)
    segs = _good_segments(doubling_map, cfg, rng, 4, lo=3, hi=9)
    plan = glue_base(doubling_map, cfg, segs, 1.0 / 16.0)
    taus = plan.transition_times
    for j, seg in enumerate(segs):
        expected = sum(s.length for s in segs[:j + 1]) + sum(taus[:j])
        assert plan.schedule[j] == expected
    # offsets: segment j starts tau_j after the end of segment j-1
    for j in range(1, len(segs)):
        assert plan.offsets[j] == plan.offsets[j - 1] + segs[j - 1].length + taus[j - 1]


def test_plan_battery_random(builtin_maps, rng):
    for system in builtin_maps:
        sigma = 0.9 if "manneville" in system.name else 0.75
        cfg = DecompositionConfig(sigma)
        for eps in (1.0 / 16.0, 1.0 / 32.0):
            if eps > system.epsilon0:
                continue
            cap = system.mixing_time(eps)
            for _ in range(5):
                segs = _good_segments(system, cfg, rng, 3, lo=5, hi=14)
                plan = glue_base(system, cfg, segs, eps)
                assert all(t <= cap for t in plan.transition_times)
                assert verify_shadow(system, plan) <= eps


def test_scale_monotonicity(doubling_map, rng):
    cfg = DecompositionConfig(0.75)
    segs = _good_segments(doubling_map, cfg, rng, 3, lo=4, hi=10)
    plan = glue_base(doubling_map, cfg, segs, 1.0 / 32.0)
    shadow = verify_shadow(doubling_map, plan)
    assert shadow <= 1.0 / 32.0 <= 1.0 / 16.0  # a plan at eps works at any larger scale


def test_rejects_bad_segment(mp_map):
    cfg = DecompositionConfig(0.9)
    with pytest.raises(ValidationError):
        glue_base(mp_map, cfg, [OrbitSegment(0.0, 8)], 1.0 / 32.0)


def test_rejects_eps_out_of_range(doubling_map):
    cfg = DecompositionConfig(0.75)
    with pytest.raises(ValidationError):
        glue_base(doubling_map, cfg, [OrbitSegment(0.3, 5)], 0.7)


def test_small_cap_raises(doubling_map):
    cfg = DecompositionConfig(0.75)
    # the one-step image of the first end ball misses the second tube
    segs = [OrbitSegment(0.12, 5), OrbitSegment(0.3, 5)]
    with pytest.raises(GluingError):
        glue_base(doubling_map, cfg, segs, 1.0 / 64.0, tau_cap=1)


def test_plan_serialization_deterministic(doubling_map, rng):
    cfg = DecompositionConfig(0.75)
    segs = _good_segments(doubling_map, cfg, rng, 3, lo=4, hi=9)
    a = glue_base(doubling_map, cfg, segs, 1.0 / 16.0)
    b = glue_base(doubling_map, cfg, segs, 1.0 / 16.0)
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


def test_fiber_sync_time_example(doubling_map, rng):
    # diam 1/2, a = 2: smallest k with 2^-k < eps
    assert depth_for_tolerance(2.0, 1.0 / 16.0) == 5
    assert depth_for_tolerance(2.0, 1.0 / 4.0) == 3
    assert depth_for_tolerance(4.0, 1.0 / 16.0) == 2
    # the extension gluing synchronizes fibers at eps/2
    p = extend(doubling_map, 0.3, 20, policy="random", rng=rng)
    plan = glue_extension(doubling_map, DecompositionConfig(0.75), [(p, 8)],
                          1.0 / 8.0, 2.0, 20)
    assert plan.tau_sync == 5


def test_glue_extension_single(doubling_map, rng):
    cfg = DecompositionConfig(0.75)
    p = extend(doubling_map, 0.3, 20, policy="random", rng=rng)
    plan = glue_extension(doubling_map, cfg, [(p, 8)], 1.0 / 8.0, 2.0, 20)
    mx, tail = verify_shadow_extension(doubling_map, plan)
    assert mx == 0.0
    assert plan.transition_times == ()


def test_glue_extension_pairs(builtin_maps, rng):
    for system in builtin_maps:
        sigma = 0.9 if "manneville" in system.name else 0.75
        cfg = DecompositionConfig(sigma)
        good = GoodCollection(cfg)
        eps = min(1.0 / 8.0, system.epsilon0)
        for k in (2, 3):
            pts = []
            while len(pts) < k:
                x = float(rng.random())
                n = int(rng.integers(5, 13))
                if good.contains(system, x, n):
                    pts.append((extend(system, x, 20, policy="random", rng=rng), n))
            plan = glue_extension(system, cfg, pts, eps, 2.0, 20)
            mx, tail = verify_shadow_extension(system, plan)
            assert mx <= eps + tail
            assert all(t <= plan.tau_cap for t in plan.transition_times)
            # segment j starts its history depth into the timeline, and each
            # transition spans the bridge plus the next history stretch
            assert plan.offsets[0] == plan.history_depths[0]
            for j in range(1, k):
                assert plan.offsets[j] == (plan.offsets[j - 1] + pts[j - 1][1]
                                           + plan.transition_times[j - 1])


def test_glue_extension_depth_validation(doubling_map, rng):
    cfg = DecompositionConfig(0.75)
    p = extend(doubling_map, 0.3, 5, policy="random", rng=rng)
    with pytest.raises(ValidationError):
        glue_extension(doubling_map, cfg, [(p, 5)], 1.0 / 8.0, 2.0, 20)


def test_glue_extension_needs_a_segment(doubling_map):
    with pytest.raises(ValidationError, match="segments: need at least one segment"):
        glue_extension(doubling_map, DecompositionConfig(0.75), [], 1.0 / 8.0, 2.0, 20)


def test_pullback_arc_matches_endpoint_pullbacks(builtin_maps, rng):
    for system in builtin_maps:
        for _ in range(40):
            x, lo, width = rng.random(), 2.0 * rng.random() - 0.5, 0.05 * rng.random()
            arc = _pullback_arc(system, x, Arc(lo, width))
            ends = [float(system.pullback(np.float64(x), np.float64(v % 1.0)))
                    for v in (lo, lo + width)]
            width = (ends[1] - ends[0]) % 1.0
            assert (arc.lo, arc.width) == (ends[0], width if width <= 0.5 else 0.0)
