import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressgap import kernels

from oracles import greedy_separated_quadratic


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
    keep = kernels.greedy_separated(orbits, order, eps)
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
    keep = kernels.greedy_separated(orbits, order, eps)
    assert keep.dtype == bool and keep.shape == (orbits.shape[0],)
    assert np.array_equal(keep, greedy_separated_quadratic(orbits, order, eps))


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
        keep = kernels.greedy_separated(orbits, order, eps)
        assert np.array_equal(keep, greedy_separated_quadratic(orbits, order, eps))


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


def test_min_bowen_distance():
    orbits = np.array([[0.0, 0.0], [0.5, 0.5]])
    assert kernels.min_bowen_distance(orbits) == pytest.approx(0.5)
    assert kernels.min_bowen_distance(orbits[:1]) == np.inf
