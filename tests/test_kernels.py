import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressgap as pg
from pressgap import kernels
from pressgap.decomposition import BadCollection, DecompositionConfig
from pressgap.orbits import (DEFAULT_ANCHOR, FullCollection, _candidate_pool,
                             greedy_cover, partition_sum_span)
from pressgap.pressure import katok_sn

from oracles import (bowen_pairs, greedy_cover_counts, greedy_cover_dense,
                     greedy_separated_quadratic, pair_set,
                     pairwise_bowen_broadcast)


def _random_instance(seed, n_cand=60, n_steps=6):
    rng = np.random.default_rng(seed)
    orbits = rng.random((n_cand, n_steps))
    order = rng.permutation(n_cand).astype(np.int64)
    eps = 0.02 + 0.3 * rng.random()
    return orbits, order, eps


def _circ(a, b):
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _bowen(orbits, i, j):
    return max(_circ(orbits[i, k], orbits[j, k]) for k in range(orbits.shape[1]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_greedy_separated_semantics(seed):
    orbits, order, eps = _random_instance(seed, n_cand=40, n_steps=4)
    keep = kernels.greedy_separated(orbits, order, bowen_pairs(orbits, eps))
    kept = [i for i in order if keep[i]]
    # pairwise separated
    for a in range(len(kept)):
        for b in range(a + 1, len(kept)):
            assert _bowen(orbits, kept[a], kept[b]) >= eps
    # maximal: every rejected candidate conflicts with an earlier kept one
    for i in order:
        if not keep[i]:
            assert any(_bowen(orbits, i, j) < eps for j in kept)


ONE_MINUS_ULP = float(np.nextafter(1.0, 0.0))
EPS_VALUES = (1e-3, 1.0 / 32.0, 0.3, 0.5, 0.75)
# the default window-pair budget, and one so small that every pool's
# window pairs cross chunk boundaries
PAIR_CHUNKS = (kernels._PAIR_CHUNK, 3)


def greedy_at_each_chunk(orbits, order, eps):
    """The kernel's keep-masks on the reference conflicts, one per budget in
    PAIR_CHUNKS; under each budget the one-column search must also find
    exactly the reference pairs of time 0."""
    pairs = bowen_pairs(orbits, eps)
    first = pair_set(bowen_pairs(orbits[:, :1], eps))
    masks = []
    for chunk in PAIR_CHUNKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_PAIR_CHUNK", chunk)
            found = kernels.close_pairs(orbits[:, 0], eps, orbits.shape[0] ** 2)
            masks.append(kernels.greedy_separated(orbits, order, pairs))
        assert found.dtype == np.int32 and found.shape == (2, len(first))
        assert pair_set(found) == first
    return masks


@st.composite
def pools(draw):
    """Orbit pools in [0, 1): uniform, clustered near-duplicates (exact
    copies and rows a few ulps or 1e-12 apart), or rows built from the
    window edges 0, 1 - ulp, eps and 1 - eps."""
    n_cand = draw(st.integers(0, 48))
    n_steps = draw(st.integers(1, 5))
    eps = draw(st.sampled_from(EPS_VALUES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("uniform", "clustered", "edges")))
    if kind == "uniform":
        orbits = rng.random((n_cand, n_steps))
    elif kind == "clustered":
        centres = rng.random((3, n_steps))
        centres[0, 0], centres[1, 0] = 0.0, ONE_MINUS_ULP
        orbits = centres[rng.integers(0, 3, size=n_cand)]
        ulps = rng.integers(-4, 5, size=orbits.shape)
        orbits = orbits + ulps * np.spacing(orbits)
        orbits[rng.random(n_cand) < 0.3] += 1e-12
        orbits = np.where((orbits < 0.0) | (orbits >= 1.0), 0.0, orbits)
    else:
        edges = np.array([0.0, ONE_MINUS_ULP, eps % 1.0, (1.0 - eps) % 1.0,
                          (0.5 + eps) % 1.0, 0.5])
        orbits = np.where(rng.random((n_cand, n_steps)) < 0.7,
                          edges[rng.integers(0, edges.size, (n_cand, n_steps))],
                          rng.random((n_cand, n_steps)))
    ordering = draw(st.sampled_from(("address", "random", "reversed")))
    order = {"address": np.arange(n_cand),
             "random": rng.permutation(n_cand),
             "reversed": np.arange(n_cand)[::-1]}[ordering]
    return orbits, order.astype(np.int64), eps


@settings(max_examples=300, deadline=None)
@given(pool=pools())
def test_sweep_matches_quadratic_reference(pool):
    orbits, order, eps = pool
    ref = greedy_separated_quadratic(orbits, order, eps)
    for keep in greedy_at_each_chunk(orbits, order, eps):
        assert keep.dtype == bool and keep.shape == (orbits.shape[0],)
        assert np.array_equal(keep, ref)


@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("rows", [
    [],
    [[0.25, 0.5]],
    [[0.0, 0.5], [ONE_MINUS_ULP, 0.5]],  # time-0 distance of one ulp across 0/1
    [[0.0, 0.1], [ONE_MINUS_ULP, 0.9], [0.5, 0.1], [0.5, 0.1]],
])
def test_sweep_edge_pools(rows, eps):
    orbits = np.array(rows, dtype=float).reshape(len(rows), 2)
    for order in (np.arange(len(rows)), np.arange(len(rows))[::-1]):
        ref = greedy_separated_quadratic(orbits, order, eps)
        for keep in greedy_at_each_chunk(orbits, order, eps):
            assert np.array_equal(keep, ref)


def _free_rows(orbits, eps):
    """Rows at Bowen distance >= eps from every other row."""
    near = pairwise_bowen_broadcast(orbits) < eps
    np.fill_diagonal(near, False)
    return ~near.any(axis=1)


def _conflict_mix(seed, isolated, clustered):
    """`isolated` rows alone in their cell of width 1/60 and `clustered`
    pairs and triples of rows 1e-4 apart or exactly equal, shuffled, at
    eps 1/64."""
    rng = np.random.default_rng(seed)
    cells = rng.permutation(60)[:isolated + clustered]
    centres = (cells[:, None] + 0.5) / 60.0 + np.zeros((1, 3))
    centres[:, 1:] = rng.random((cells.size, 2))
    rows = list(centres[:isolated])
    for centre in centres[isolated:]:
        rows += [centre, centre + 1e-4, centre][:int(rng.integers(2, 4))]
    orbits = np.array(rows) % 1.0
    return orbits[rng.permutation(len(rows))], 1.0 / 64.0


@pytest.mark.parametrize("isolated, clustered", [(30, 0), (0, 12), (14, 9)],
                         ids=["all-free", "none-free", "mixed"])
def test_greedy_keeps_conflict_free_rows_as_the_walk_would(isolated, clustered):
    orbits, eps = _conflict_mix(isolated + 7 * clustered, isolated, clustered)
    free = _free_rows(orbits, eps)
    assert free.sum() == isolated and (free.size == isolated) == (clustered == 0)
    rng = np.random.default_rng(1)
    by_free_first = np.concatenate([np.flatnonzero(free), np.flatnonzero(~free)])
    for order in (np.arange(free.size), rng.permutation(free.size),
                  by_free_first, by_free_first[::-1]):
        ref = greedy_separated_quadratic(orbits, order, eps)
        for keep in greedy_at_each_chunk(orbits, order, eps):
            assert np.array_equal(keep, ref)
        assert keep[free].all()


@pytest.mark.parametrize("coll", [FullCollection(),
                                  BadCollection(DecompositionConfig(0.6))],
                         ids=["full", "bad"])
@pytest.mark.parametrize("map_name", ["doubling_map", "mp_map", "perturbed_map"])
def test_tree_pools_match_quadratic_reference(request, map_name, coll):
    # the pools the package builds: depth-n cylinder representatives, or
    # refine-4 representatives filtered to the bad collection (empty for
    # the doubling map, whose every segment is good)
    system = request.getfixturevalue(map_name)
    phi = pg.geometric_potential(system, 1.0)
    for n in (1, 5, 9):
        for eps in (1.0 / 16.0, 1.0 / 32.0):
            _, orbits, _, by_weight, pairs = _candidate_pool(
                system, coll, n, eps, phi, DEFAULT_ANCHOR)
            for order in (np.arange(orbits.shape[0]), by_weight):
                keep = kernels.greedy_separated(orbits, order, pairs)
                assert np.array_equal(
                    keep, greedy_separated_quadratic(orbits, order, eps))


def test_greedy_memory_stays_bounded(doubling_map):
    # a depth-14 pool has millions of time-0 window pairs; its conflicts
    # come level by level from the tree in O(rows + conflicts), so the peak
    # stays a few MB
    tree = pg.CylinderTree(doubling_map, 14)
    orbits = tree.orbit_matrix(14)
    order = np.arange(orbits.shape[0])
    tracemalloc.start()
    try:
        kernels.greedy_separated(orbits, order, tree.conflicts(14, 14, 1.0 / 32.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def test_backend_is_numpy():
    assert kernels.backend() == "numpy"


def test_pairwise_bowen_values():
    orbits = np.array([[0.0, 0.5], [0.9, 0.6], [0.25, 0.25]])
    d = kernels.pairwise_bowen(orbits)
    assert d[0, 1] == pytest.approx(0.1)
    assert d[0, 2] == pytest.approx(0.25)
    assert d[1, 2] == pytest.approx(0.35)
    assert np.all(d == d.T)
    assert np.all(np.diag(d) == 0.0)


@settings(max_examples=200, deadline=None)
@given(pool=pools())
def test_pairwise_bowen_matches_broadcast_reference(pool):
    orbits, _, _ = pool
    d = kernels.pairwise_bowen(orbits)
    assert np.array_equal(d, pairwise_bowen_broadcast(orbits))
    assert np.array_equal(d, d.T)


@pytest.mark.parametrize("shape", [(1, 3), (37, 5), (300, 4)])
def test_pairwise_bowen_is_bitwise_the_same_for_every_block_size(shape):
    orbits = np.random.default_rng(shape[0]).random(shape)
    ref = pairwise_bowen_broadcast(orbits)
    # one row per block, and the whole matrix in one block
    for block in (1, shape[0] ** 2):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_BOWEN_BLOCK", block)
            d = kernels.pairwise_bowen(orbits)
        assert np.array_equal(d, ref) and np.array_equal(d, d.T)


def test_pairwise_bowen_memory_is_the_output_and_a_few_blocks():
    orbits = np.random.default_rng(3).random((1000, 6))
    tracemalloc.start()
    try:
        d = kernels.pairwise_bowen(orbits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.nbytes == 8 * 10**6
    assert peak <= d.nbytes + 2**20


# ---------------------------------------------------------------------------
# greedy covers
# ---------------------------------------------------------------------------

@st.composite
def cover_pools(draw):
    """Nonempty pools with tie weights: the separated-set pools, or lattice
    pools i/m under the doubling map, where every ball holds the same number
    of points and the tie rule alone decides the first pick."""
    if draw(st.booleans()):
        orbits, _, eps = draw(pools().filter(lambda p: p[0].shape[0] > 0))
    else:
        m = draw(st.integers(1, 48))
        x0 = np.arange(m) / m
        orbits = np.stack([(x0 * 2**k) % 1.0
                           for k in range(draw(st.integers(1, 3)))], axis=1)
        eps = draw(st.integers(0, 4)) / m
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cand = orbits.shape[0]
    tie = draw(st.sampled_from(("zero", "random", "few")))
    tie_weights = {"zero": np.zeros(n_cand),
                   "random": rng.random(n_cand),
                   "few": rng.integers(0, 3, n_cand).astype(float)}[tie]
    return orbits, eps, tie_weights


@settings(max_examples=300, deadline=None)
@given(pool=cover_pools(), data=st.data())
def test_cover_matches_dense_reference_with_unit_masses(pool, data):
    # unit masses make the reference's matrix-vector gains exact integers
    orbits, eps, tie_weights = pool
    n_cand = orbits.shape[0]
    target = data.draw(st.integers(1, n_cand))
    picks = greedy_cover(orbits, eps, tie_weights, target)
    ref = greedy_cover_dense(orbits, eps, np.ones(n_cand), tie_weights,
                             float(target))
    assert np.array_equal(picks, ref)


@settings(max_examples=200, deadline=None)
@given(pool=cover_pools(), eta=st.sampled_from((1e-6, 0.25, 0.5, 0.9, 0.999)))
def test_cover_of_a_mass_fraction_matches_integer_reference(pool, eta):
    # masses 1/N: katok_sn's point target for the fraction eta
    orbits, eps, tie_weights = pool
    target = math.ceil((eta - 1e-12) * orbits.shape[0])
    picks = greedy_cover(orbits, eps, tie_weights, target)
    ref = greedy_cover_counts(pairwise_bowen_broadcast(orbits), eps,
                              tie_weights, eta)
    assert picks.tolist() == ref


@pytest.mark.parametrize("eta", (0.25, 0.5, 0.9))
@pytest.mark.parametrize("geometric", (False, True))
def test_katok_matches_integer_reference(mp_map, eta, geometric):
    starts = np.random.default_rng(7).uniform(0.05, 0.95, size=10)
    sample = mp_map.orbit(starts, 20).ravel()
    phi = (pg.geometric_potential(mp_map, 1.0) if geometric
           else pg.zero_potential())
    orbits = mp_map.orbit(sample, 6)
    weights = phi(orbits).sum(axis=1)
    ref = greedy_cover_counts(pairwise_bowen_broadcast(orbits), 1.0 / 32.0,
                              weights, eta)
    value = katok_sn(mp_map, phi, sample, 1.0 / 32.0, eta, 6)
    assert value == float(np.exp(weights[ref]).sum())


# Katok inputs on which a cover that picked by float matrix-vector gains
# gave 286 with OpenBLAS 0.3.31's Haswell kernel and 287 with its Prescott
# kernel: 50 Manneville-Pomeau orbit pieces of length 20, n = 6.
_KATOK_SCRIPT = """
import numpy as np
import pressgap as pg
from pressgap.pressure import katok_sn
mp = pg.manneville_pomeau(0.5)
starts = np.random.default_rng(1420954724).uniform(0.05, 0.95, size=50)
sample = mp.orbit(starts, 20).ravel()
print(repr(katok_sn(mp, pg.zero_potential(), sample, 1.0 / 32.0, 0.9, 6)))
"""


def test_katok_does_not_depend_on_the_blas_kernel():
    src = str(Path(pg.__file__).resolve().parents[1])
    values = []
    for coretype in (None, "Prescott"):
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", _KATOK_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True)
        values.append(out.stdout.strip())
    assert values[0] == values[1] == "287.0"


# Outputs of the cover path, taken from the matrix-rescan cover: the heap
# cover and the row-blocked distance matrix must reproduce them bit for bit.
_SPAN_PINS = {
    ("doubling", 0.5): "6.238324625039508",
    ("doubling", 0.1875): "6.238324625039508",
    ("doubling", 0.8125): "6.238324625039508",
    ("mp", 0.5): "-0.14936727261870297",
    ("mp", 0.1875): "0.19504907747428124",
    ("mp", 0.8125): "-0.34192271598793944",
}
_KATOK_PINS = {1420954724: "287.0", 5: "293.0", 2024: "278.0"}
_PICKS_DIGEST = "3090c1367b1d8586fcb644b7dea09dfc282ca51277b907e36857f40bcba22335"


@pytest.mark.parametrize("name, anchor", sorted(_SPAN_PINS))
def test_spanning_sum_is_pinned(doubling_map, mp_map, name, anchor):
    system = {"doubling": doubling_map, "mp": mp_map}[name]
    phi = (pg.zero_potential() if name == "doubling"
           else pg.geometric_potential(mp_map, 1.0))
    value = partition_sum_span(system, phi, FullCollection(), 9, 1.0 / 32.0,
                               anchor=anchor, log=True)
    assert repr(value) == _SPAN_PINS[name, anchor]


@pytest.mark.parametrize("seed", sorted(_KATOK_PINS))
def test_katok_is_pinned(mp_map, seed):
    starts = np.random.default_rng(seed).uniform(0.05, 0.95, size=50)
    sample = mp_map.orbit(starts, 20).ravel()
    value = katok_sn(mp_map, pg.zero_potential(), sample, 1.0 / 32.0, 0.9, 6)
    assert repr(value) == _KATOK_PINS[seed]


def test_cover_picks_are_pinned(doubling_map, mp_map):
    digest = hashlib.sha256()
    for system in (doubling_map, mp_map):
        for anchor in (0.5, 0.1875):
            orbits = pg.CylinderTree(system, 9, anchor=anchor).orbit_matrix(9, 9)
            weights = (pg.geometric_potential(mp_map, 1.0)(orbits).sum(axis=1)
                       if system is mp_map else np.zeros(orbits.shape[0]))
            picks = greedy_cover(orbits, 1.0 / 32.0, weights, orbits.shape[0])
            digest.update(picks.astype(np.int64).tobytes())
    assert digest.hexdigest() == _PICKS_DIGEST


@pytest.mark.parametrize("m, eps_cells", [(24, 1), (24, 3), (40, 2), (16, 5)])
def test_cover_ties_with_nan_signed_zero_and_repeated_weights(m, eps_cells):
    # lattice points i/m under doubling: every ball holds the same number
    # of points, so the tie weights decide the picks; NaN sorts last and
    # 0.0 and -0.0 tie, leaving the index to decide.  At m = 16 the first
    # pick's newly covered balls hold more than m entries, so the gains
    # drop by whole cover-matrix rows.
    x0 = np.arange(m) / m
    orbits = np.stack([x0, (2 * x0) % 1.0], axis=1)
    eps = eps_cells / m
    base = np.array([np.nan, 0.0, -0.0, 1.0, 1.0, -2.0, np.nan, -0.0])
    for shift in range(base.size):
        tie_weights = np.resize(np.roll(base, shift), m)
        for target in (1, m // 2, m):
            picks = greedy_cover(orbits, eps, tie_weights, target)
            ref = greedy_cover_dense(orbits, eps, np.ones(m), tie_weights,
                                     float(target))
            assert np.array_equal(picks, ref)
