from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressgap as pg
from pressgap import kernels, orbits
from pressgap.decomposition import (BadCollection, DecompositionConfig, GoodCollection,
                                    split_indices)
from pressgap.errors import NodeCapError, ValidationError
from pressgap.maps import TWO_PI, circle_dist
from pressgap.orbits import (CylinderTree, FullCollection, partition_sum_sep,
                             partition_sum_span, tree_depth)

from oracles import (birkhoff_sum, bowen_distance, bowen_pairs,
                     greedy_separated_quadratic, max_separated_cardinality,
                     pair_set, pairwise_bowen_broadcast, separated_set,
                     suffix_means)


def test_birkhoff_examples(doubling_map):
    seg = pg.OrbitSegment(0.3, 3)
    assert birkhoff_sum(doubling_map, pg.zero_potential(), seg) == 0.0
    assert birkhoff_sum(doubling_map, pg.constant_potential(1.3), seg) == pytest.approx(3.9)
    ident = pg.Potential(lambda x: np.asarray(x, dtype=float), 1.0, 1.0)
    assert birkhoff_sum(doubling_map, ident, seg) == pytest.approx(1.1)


def test_birkhoff_additivity(builtin_maps, rng, sin_potential):
    for system in builtin_maps:
        for _ in range(50):
            x = float(rng.random())
            n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
            whole = birkhoff_sum(system, sin_potential, pg.OrbitSegment(x, n + m))
            head = birkhoff_sum(system, sin_potential, pg.OrbitSegment(x, n))
            mid = float(system.orbit(x, n + 1)[0][-1])
            tail = birkhoff_sum(system, sin_potential, pg.OrbitSegment(mid, m))
            assert whole == pytest.approx(head + tail, abs=1e-10)


def test_bowen_examples(doubling_map, rng):
    assert bowen_distance(doubling_map, 0.2, 0.45, 1) == pytest.approx(0.25)
    assert bowen_distance(doubling_map, 0.0, 0.125, 3) == pytest.approx(0.5)
    x = float(rng.random())
    assert bowen_distance(doubling_map, x, x, 7) == 0.0


def test_bowen_metric_properties(builtin_maps, rng):
    for system in builtin_maps:
        xs = rng.random(3)
        for n in (1, 3, 6):
            dxy = bowen_distance(system, xs[0], xs[1], n)
            dyx = bowen_distance(system, xs[1], xs[0], n)
            assert dxy == dyx
            dxz = bowen_distance(system, xs[0], xs[2], n)
            dzy = bowen_distance(system, xs[2], xs[1], n)
            assert dxy <= dxz + dzy + 1e-12
        dns = [bowen_distance(system, xs[0], xs[1], n) for n in range(1, 9)]
        assert all(a <= b + 1e-15 for a, b in zip(dns, dns[1:]))


def test_segment_validation():
    with pytest.raises(ValidationError):
        pg.OrbitSegment(0.5, 0)


def test_cylinder_tree_doubling_midpoints(doubling_map):
    tree = CylinderTree(doubling_map, 3)
    reps = np.sort(tree.levels[tree.depth])
    assert reps == pytest.approx((2 * np.arange(8) + 1) / 16.0)


def test_cylinder_orbit_matrix_is_exact(builtin_maps):
    for system in builtin_maps:
        tree = CylinderTree(system, 6)
        om = tree.orbit_matrix()
        direct = system.orbit(tree.levels[tree.depth], 6)
        assert np.max(circle_dist(om, direct)) < 1e-9


def _degree3_table():
    grid = np.linspace(0.0, 1.0, 65)
    return pg.tabulated_map(3.0 * grid + (0.9 / TWO_PI) * np.sin(TWO_PI * grid))


POOL_MAPS = {"doubling": pg.doubling(), "mp": pg.manneville_pomeau(0.5),
             "perturbed": pg.perturbed_doubling(0.75), "table": _degree3_table()}


@pytest.mark.parametrize("name", sorted(POOL_MAPS))
def test_pool_masks_and_member_rows_match_the_full_matrices(name):
    # the cached window means give the masks of the log sigma rows, at the
    # sigmas of the benchmark and exactly at one row's full-window mean and
    # at its largest trailing mean (the edges of bad's >= and good's <);
    # member rows are the rows of the full orbit matrix
    system = POOL_MAPS[name]
    rng = np.random.default_rng(5)
    tree = CylinderTree(system, tree_depth(system, 10, 4))
    for n in range(1, 11):
        for refine in (0, 4):
            depth = tree_depth(system, n, refine)
            logs = tree.log_sigma_matrix(n, depth)
            means = suffix_means(logs)
            r = int(rng.integers(logs.shape[0]))
            first, worst = means[r, 0], means[r].max()
            for log_sigma in (np.log(0.6), np.log(0.75), np.log(0.9), first, worst):
                cfg = SimpleNamespace(sigma=0.5, log_sigma=float(log_sigma))
                good = GoodCollection(cfg).pool_mask(tree, n, depth)
                bad = BadCollection(cfg).pool_mask(tree, n, depth)
                splits = split_indices(logs, np.full(logs.shape[0], n), cfg.log_sigma)
                assert good.tobytes() == (splits == n).tobytes()
                assert bad.tobytes() == (splits == 0).tobytes()
                if log_sigma == first:
                    assert bad[r]
                if log_sigma == worst:
                    assert not good[r]
            full = tree.orbit_matrix(n, depth)
            for rows in (np.flatnonzero(good), np.flatnonzero(bad),
                         np.flatnonzero(np.zeros(logs.shape[0], dtype=bool)),
                         rng.integers(logs.shape[0], size=40)):
                assert tree.orbit_matrix(n, depth, rows).tobytes() == full[rows].tobytes()
                assert tree.orbit_matrix(n, depth, rows).shape == (rows.size, n)


def _assert_window_means_match_suffix_means(tree, n, depth):
    first, worst = tree.window_means(n, depth)
    means = suffix_means(tree.log_sigma_matrix(n, depth))
    assert first.tobytes() == means[:, 0].tobytes(), (n, depth)
    assert worst.tobytes() == means.max(axis=1).tobytes(), (n, depth)


@pytest.mark.parametrize("name", sorted(POOL_MAPS))
def test_window_means_are_bitwise_the_suffix_means_of_log_sigma_rows(name):
    # longest windows first, so each diagonal is also built from a cold cache
    system = POOL_MAPS[name]
    tree = CylinderTree(system, tree_depth(system, 10, 4))
    for n in range(10, 0, -1):
        for depth in sorted({n, n + 4, tree.depth}):
            if depth <= tree.depth:
                _assert_window_means_match_suffix_means(tree, n, depth)


@pytest.mark.parametrize("name", ["doubling", "table"])
def test_window_means_match_under_node_cap_depth_cuts(name, monkeypatch):
    # a small cap cuts the refined depth, so depth - n varies along n
    monkeypatch.setattr(orbits, "DEFAULT_NODE_CAP", 1 << 8)
    system = POOL_MAPS[name]
    top = tree_depth(system, 1, 64)
    tree = CylinderTree(system, top)
    offsets = set()
    for n in range(top, 0, -1):
        for refine in (0, 4):
            depth = tree_depth(system, n, refine)
            offsets.add(depth - n)
            _assert_window_means_match_suffix_means(tree, n, depth)
    assert len(offsets) > 2


EPS_NAMES = ("1/32", "1/8", "0.3", "exact")


@pytest.mark.parametrize("name", sorted(POOL_MAPS))
def test_conflicts_are_the_pairs_of_the_bowen_matrix(name):
    # each (n, depth, eps) entry, built from a cold cache longest n first,
    # holds each unordered pair below eps once; "exact" is one pair's own
    # Bowen distance, which the strict test must drop.  The greedy walk on
    # a pool's share of the pairs keeps the quadratic reference's rows.
    system = POOL_MAPS[name]
    top = 6 if system.degree == 2 else 3
    trees = {e: CylinderTree(system, top + 4) for e in EPS_NAMES}
    tree = trees["1/8"]
    for n in range(top, 0, -1):
        for depth in (n, n + 4):
            dist = pairwise_bowen_broadcast(tree.orbit_matrix(n, depth))
            upper = dist[np.triu_indices_from(dist, 1)]
            exact = float(np.sort(upper)[upper.size // 3])
            for eps_name, eps in zip(EPS_NAMES, (1.0 / 32.0, 1.0 / 8.0, 0.3, exact)):
                pairs = trees[eps_name].conflicts(n, depth, eps)
                ref = np.array(np.nonzero(np.triu(dist < eps, 1)))
                assert pairs.dtype == np.int32 and pairs.shape == ref.shape, (n, depth)
                assert pair_set(pairs) == pair_set(ref), (n, depth, eps_name)
                if eps_name == "exact":
                    assert ref.shape[1] < upper.size - np.count_nonzero(upper > eps)
    phi = pg.geometric_potential(system, 1.0)
    bad = BadCollection(DecompositionConfig(0.9))
    for n in range(1, top + 1):
        for coll in (FullCollection(), bad):
            _, rows, _, order, pairs = orbits._candidate_pool(
                system, coll, n, 1.0 / 8.0, phi, orbits.DEFAULT_ANCHOR, tree=tree)
            keep = kernels.greedy_separated(rows, order, pairs)
            assert keep.tobytes() == greedy_separated_quadratic(
                rows, order, 1.0 / 8.0).tobytes(), (n, coll.name)


def test_conflicts_beyond_the_pair_budget_raise_naming_eps(monkeypatch):
    # a cap of 2^4 nodes allows 64 * 16 = 1024 candidate pairs.  At eps 0.5
    # the depth-6 level has 2016 window pairs, so the one-column search
    # refuses it; the depth-5 level's 480 pairs pass, and the depth-6 step
    # from them refuses its 4 * 480 + 32 candidates.  At eps 1/16 every step
    # down from (4, 8) fits.
    tree = CylinderTree(pg.doubling(), 10)
    monkeypatch.setattr(orbits, "DEFAULT_NODE_CAP", 1 << 4)
    assert tree.conflicts(4, 8, 1.0 / 16.0).shape[1] == 256
    with pytest.raises(NodeCapError, match=r"eps 0\.5: 2016 candidate pairs"):
        tree.conflicts(1, 6, 0.5)
    with pytest.raises(NodeCapError,
                       match=r"eps 0\.5: 1952 candidate pairs at \(n, depth\) = \(2, 6\)"):
        tree.conflicts(2, 6, 0.5)
    assert tree.conflicts(1, 5, 0.5).shape[1] == 480


def test_node_cap():
    with pytest.raises(NodeCapError):
        CylinderTree(pg.doubling(), 19)


def test_separated_examples(doubling_map):
    full = FullCollection()
    e = separated_set(doubling_map, full, 3, 1.0 / 16.0)
    assert len(e) == 8
    assert len(separated_set(doubling_map, full, 1, 0.6)) == 1
    bad = BadCollection(DecompositionConfig(0.75))
    assert len(separated_set(doubling_map, bad, 5, 1.0 / 16.0)) == 0


def test_separated_pairwise_and_maximal(builtin_maps, rng):
    for system in builtin_maps:
        n, eps = 5, 1.0 / 8.0
        e = separated_set(system, FullCollection(), n, eps)
        for i in range(len(e)):
            for j in range(i + 1, len(e)):
                assert bowen_distance(system, e[i], e[j], n) >= eps
        # maximality: every cylinder representative is within eps of the set
        tree = CylinderTree(system, n)
        for p in tree.levels[tree.depth]:
            assert min(bowen_distance(system, p, q, n) for q in e) < eps or \
                any(abs(p - q) < 1e-14 for q in e)


def test_passed_tree_with_other_anchor_is_not_reused(mp_map):
    phi = pg.geometric_potential(mp_map, 1.0)
    tree = CylinderTree(mp_map, 6, anchor=0.5)
    got = partition_sum_sep(mp_map, phi, FullCollection(), 6, 1.0 / 32.0,
                            anchor=0.3, log=True, tree=tree)
    assert got == partition_sum_sep(mp_map, phi, FullCollection(), 6, 1.0 / 32.0,
                                    anchor=0.3, log=True, tree=None)


def test_partition_sum_examples(doubling_map):
    full = FullCollection()
    zero = pg.zero_potential()
    assert partition_sum_sep(doubling_map, zero, full, 3, 1.0 / 16.0) == pytest.approx(8.0)
    # constant shift factors out exactly
    c = 0.4
    lam0 = partition_sum_sep(doubling_map, zero, full, 4, 1.0 / 16.0)
    lamc = partition_sum_sep(doubling_map, pg.constant_potential(c), full, 4, 1.0 / 16.0)
    assert lamc == pytest.approx(np.exp(c * 4) * lam0, rel=1e-12)


def test_span_le_sep(builtin_maps, sin_potential):
    for system in builtin_maps:
        for n in (3, 5):
            for eps in (1.0 / 8.0, 0.3):
                sep = partition_sum_sep(system, sin_potential, FullCollection(), n, eps)
                span = partition_sum_span(system, sin_potential, FullCollection(), n, eps)
                assert span <= sep + 1e-12


def test_sep_monotone_in_eps(builtin_maps):
    zero = pg.zero_potential()
    for system in builtin_maps:
        vals = [partition_sum_sep(system, zero, FullCollection(), 5, eps)
                for eps in (1.0 / 32.0, 0.3, 0.45, 0.6)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("eps", [1.0 / 8.0, 1.0 / 16.0])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_greedy_matches_bruteforce_doubling(doubling_map, n, eps):
    tree = CylinderTree(doubling_map, n)
    greedy = separated_set(doubling_map, FullCollection(), n, eps)
    exact = max_separated_cardinality(doubling_map.forward,
                                      list(tree.levels[tree.depth]), n, eps)
    assert len(greedy) == exact


def test_greedy_matches_bruteforce_nontrivial(mp_map):
    # eps above the branch gap makes the conflict graph nontrivial
    for n, eps in [(2, 0.45), (3, 0.449), (4, 0.46)]:
        tree = CylinderTree(mp_map, n)
        greedy = separated_set(mp_map, FullCollection(), n, eps)
        exact = max_separated_cardinality(mp_map.forward,
                                          list(tree.levels[tree.depth]), n, eps)
        assert len(greedy) <= exact
        assert len(greedy) >= 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
def test_separated_property_random_pools(seed, n):
    system = pg.doubling()
    rng = np.random.default_rng(seed)
    pool = rng.random(30)
    eps = 0.05 + 0.4 * rng.random()
    rows = system.orbit(pool, n)
    keep = kernels.greedy_separated(rows, np.arange(pool.size), bowen_pairs(rows, eps))
    e = pool[keep]
    for i in range(len(e)):
        for j in range(i + 1, len(e)):
            assert bowen_distance(system, e[i], e[j], n) >= eps
