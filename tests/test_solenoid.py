import hashlib
import math

import numpy as np
import pytest

from pressgap import solenoid
from pressgap.cli import main
from pressgap.decomposition import DecompositionConfig
from pressgap.errors import NodeCapError, ValidationError
from pressgap.solenoid import (AttractorBatch, SolenoidSystem, apply_f,
                               attractor_bowen_bound, attractor_bowen_check,
                               conjugacy_h, d_attractor, fiber_point,
                               fiber_sample, holonomy, metric_equivalence)

from oracles import (AttractorPoint, ExtPoint, apply_f_scalar, as_batch,
                     attractor_bowen_check_scalar, batch_rows,
                     conjugacy_h_scalar, d_attractor_scalar, ext_columns,
                     fiber_point_scalar, fiber_sample_scalar, hat_g,
                     holonomy_scalar, metric_equivalence_scalar)


@pytest.fixture(scope="module")
def sol():
    return SolenoidSystem(0.25, 0.5)


def test_parameter_validation():
    with pytest.raises(ValidationError):
        SolenoidSystem(0.6, 0.3)      # lam_s >= base contraction
    with pytest.raises(ValidationError):
        SolenoidSystem(0.4, 0.7)      # leaves the solid torus


@pytest.mark.parametrize("lam_s, offset", [(0.3, 0.2), (0.3, 0.3), (0.45, 0.45)])
def test_overlapping_preimage_fibers_are_rejected(lam_s, offset):
    # the two preimage fibers map to radius-lam_s disks 2 offset apart
    with pytest.raises(ValidationError) as info:
        SolenoidSystem(lam_s, offset)
    assert info.value.field == "offset"
    SolenoidSystem(lam_s, np.nextafter(max(lam_s, offset), 1.0))


def test_apply_f_example(sol):
    [img] = batch_rows(apply_f(sol, as_batch([AttractorPoint(0.0, (0.0, 0.0), ())])))
    assert img.theta == 0.0
    assert img.disk == pytest.approx((0.5, 0.0))
    assert img.itinerary == (0,)


def test_semiconjugacy_and_fiber_contraction(sol, rng):
    ps, qs = [], []
    for _ in range(100):
        theta = float(rng.random())
        u, v = rng.random(2) - 0.5
        ps.append(AttractorPoint(theta, (u, v), ()))
        qs.append(AttractorPoint(theta, (u + 0.1, v - 0.2), ()))
    fps = batch_rows(apply_f(sol, as_batch(ps)))
    fqs = batch_rows(apply_f(sol, as_batch(qs)))
    for p, q, fp, fq in zip(ps, qs, fps, fqs, strict=True):
        assert fp.theta == float(sol.base.forward(np.float64(p.theta)))
        d0 = math.hypot(p.disk[0] - q.disk[0], p.disk[1] - q.disk[1])
        d1 = math.hypot(fp.disk[0] - fq.disk[0], fp.disk[1] - fq.disk[1])
        assert abs(d1 - sol.lam_s * d0) <= 1e-12 * max(1.0, d0)


def test_fiber_sample_counts_and_separation(sol):
    assert len(fiber_sample(sol, 0.3, 1)) == 2
    for depth in (3, 5, 7):
        pts = fiber_sample(sol, 0.3, depth)
        assert len(pts) == 2 ** depth
        disks = pts.disk
        d = np.linalg.norm(disks[:, None, :] - disks[None, :, :], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 0.0
    with pytest.raises(NodeCapError):
        fiber_sample(sol, 0.3, 17)


def test_fiber_diameter_bounded_and_clusters_decay(sol):
    # whole-fiber diameter stays under 2r/(1 - lam); points sharing the k
    # most recent backward branches cluster at scale lam^k
    bound = 2 * sol.offset / (1 - sol.lam_s)
    pts = fiber_sample(sol, 0.77, 8)
    disks = pts.disk
    diam = float(np.linalg.norm(disks[:, None, :] - disks[None, :, :],
                                axis=2).max())
    assert diam <= bound
    for k in (1, 2, 3, 4):
        worst = 0.0
        for prefix in range(2 ** k):
            bits = [(prefix >> j) & 1 for j in range(k)]
            sub = disks[(pts.itinerary[:, :k] == bits).all(axis=1)]
            worst = max(worst, float(np.linalg.norm(
                sub[:, None, :] - sub[None, :, :], axis=2).max()))
        assert worst <= sol.lam_s ** k * bound + 1e-12


def test_attractor_nesting(sol):
    # every depth-(d+1) point is the f-image of a depth-d point
    deep = batch_rows(fiber_sample(sol, 0.4, 4))
    y_pre = sol.base.inverse_branches(0.4)
    shallow = {b: batch_rows(fiber_sample(sol, float(y_pre[b]), 3)) for b in (0, 1)}
    for p in deep:
        b = p.itinerary[0]
        match = [q for q in shallow[b] if q.itinerary == p.itinerary[1:]]
        assert len(match) == 1
        img = apply_f(sol, as_batch(match))
        assert d_attractor(img, as_batch([p])).tolist() == [0.0]


def test_conjugacy_examples(sol):
    p0 = fiber_point(sol, [0.0], [(0,) * 6])
    assert conjugacy_h(sol, p0, 6).tolist() == [[0.0]] * 7
    itin = (1, 0, 1, 1, 0, 0, 1, 0)
    p = fiber_point(sol, [0.37], [itin])
    h = conjugacy_h(sol, p, 8)[:, 0].tolist()
    for j in range(8):
        assert float(sol.base.forward(np.float64(h[j + 1]))) == h[j]
    with pytest.raises(ValidationError):
        conjugacy_h(sol, p, 20)


def test_conjugacy_intertwines_shift(sol, rng):
    thetas, itins = [], []
    for _ in range(50):
        itins.append([int(b) for b in rng.integers(0, 2, 10)])
        thetas.append(float(rng.random()))
    p = fiber_point(sol, thetas, itins)
    lhs = ext_columns(conjugacy_h(sol, apply_f(sol, p), 10))
    rhs = ext_columns(conjugacy_h(sol, p, 10))
    for left, right in zip(lhs, rhs, strict=True):
        assert left == hat_g(sol.base, right)


def test_holonomy_identity_and_invariance(sol, rng):
    itin = [int(b) for b in rng.integers(0, 2, 20)]
    p = fiber_point(sol, [0.2], [itin])
    assert d_attractor(holonomy(sol, p, [0.2]), p).tolist() == [0.0]
    # invariance on same-branch pairs, itinerary matched, depth <= 20
    xs, ys = [], []
    for _ in range(50):
        xs.append(0.5 * rng.random())   # same branch
        ys.append(0.5 * rng.random())
    z = fiber_point(sol, xs, [itin] * 50)
    lhs = apply_f(sol, holonomy(sol, z, ys))
    rhs = holonomy(sol, apply_f(sol, z), sol.base.forward(np.array(ys)))
    assert d_attractor(lhs, rhs).tolist() == [0.0] * 50


def test_metric_equivalence(sol):
    c_low, c_high = metric_equivalence(sol, samples=600, seed=0)
    assert 1.0 <= c_low <= c_high < np.inf
    c_low2, c_high2 = metric_equivalence(sol, samples=1200, seed=0)
    assert c_high2 <= c_high * 1.1 + 1e-9 or c_high <= c_high2 * 1.1
    with pytest.raises(ValidationError):
        metric_equivalence(sol, samples=10)


def test_attractor_bowen_bound_closed_form(sol):
    # lam = 1/4, sigma = 0.6, alpha = 1: K = C eps (1.5 + 4/3)
    dec = DecompositionConfig(0.6)
    val = attractor_bowen_bound(sol, dec, 1.0, 1.0, 1.0 / 16.0)
    assert val == pytest.approx((1.0 / 16.0) * (1.5 + 4.0 / 3.0))


def test_attractor_bowen_constant_potential(sol):
    dec = DecompositionConfig(0.6)
    def phi(theta, u, v):
        return np.full_like(theta, 3.0)

    rep = attractor_bowen_check(sol, dec, phi, 0.0, 1.0, 1.0 / 16.0,
                                n_samples=40, seed=2)
    assert rep.empirical_max == 0.0 and rep.bound == 0.0


def test_attractor_bowen_within_bound(sol):
    dec = DecompositionConfig(0.6)

    def phi(theta, u, v):
        return np.cos(2 * math.pi * theta) + 0.5 * u

    rep = attractor_bowen_check(sol, dec, phi, holder_constant=2 * math.pi,
                                holder_exponent=1.0, eps=1.0 / 16.0,
                                n_samples=150, seed=0)
    assert rep.within_bound
    assert rep.samples == 150


# ---------------------------------------------------------------------------
# batches against the one-point references, bit for bit
# ---------------------------------------------------------------------------

def _same_point(p, q):
    return (p.theta == q.theta and p.disk == q.disk and p.itinerary == q.itinerary
            and type(p.theta) is type(q.theta) is float)


@pytest.mark.parametrize("depth", [0, 1, 24])
def test_fiber_point_rows_match_reference(sol, rng, depth):
    thetas = np.concatenate([[0.0, np.nextafter(1.0, 0.0), 0.5], rng.random(40)])
    itins = rng.integers(0, 2, (thetas.size, depth))
    itins[:2] = 1     # (1 - ulp + 1) / 2 rounds up to 1.0, the end of the circle
    batch = fiber_point(sol, thetas, itins)
    assert isinstance(batch, AttractorBatch) and len(batch) == thetas.size
    for theta, itin, got in zip(thetas.tolist(), itins.tolist(), batch_rows(batch)):
        ref = fiber_point_scalar(sol, theta, tuple(itin))
        assert _same_point(got, ref)
        [alone] = batch_rows(fiber_point(sol, [theta], [itin]))
        assert _same_point(alone, ref)


def test_apply_f_matches_reference(sol, rng):
    pts = [AttractorPoint(float(rng.random()), tuple(rng.random(2) - 0.5), (1, 0))
           for _ in range(200)]
    for p, got in zip(pts, batch_rows(apply_f(sol, as_batch(pts))), strict=True):
        assert _same_point(got, apply_f_scalar(sol, p))


def test_fiber_sample_conjugacy_and_holonomy_match_reference(sol, rng):
    for depth in (1, 2, 5):
        for got, ref in zip(batch_rows(fiber_sample(sol, 0.77, depth)),
                            fiber_sample_scalar(sol, 0.77, depth), strict=True):
            assert _same_point(got, ref)
    thetas = rng.random(30)
    batch = fiber_point(sol, thetas, rng.integers(0, 2, (30, 12)))
    targets = rng.random(30)
    moved = holonomy(sol, batch, targets)
    columns = ext_columns(conjugacy_h(sol, batch, 9))
    dists = d_attractor(batch, moved).tolist()
    for i, (p, q) in enumerate(zip(batch_rows(batch), batch_rows(moved))):
        [alone] = ext_columns(conjugacy_h(sol, as_batch([p]), 9))
        assert alone == columns[i] == conjugacy_h_scalar(sol, p, 9)
        assert isinstance(columns[i], ExtPoint)
        assert _same_point(q, holonomy_scalar(sol, p, float(targets[i])))
        assert dists[i] == d_attractor_scalar(p, q)


def test_batch_distances_match_reference(rng):
    # about 0.6% of pairs would differ by an ulp with np.hypot
    size = 20000
    p = AttractorBatch(rng.random(size), rng.random((size, 2)) - 0.5,
                       np.zeros((size, 0), dtype=int))
    q = AttractorBatch(rng.random(size), rng.random((size, 2)) - 0.5,
                       np.zeros((size, 0), dtype=int))
    ref = [d_attractor_scalar(a, b) for a, b in zip(batch_rows(p), batch_rows(q))]
    assert d_attractor(p, q).tolist() == ref


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("depth", [0, 12])
def test_metric_equivalence_matches_reference(sol, seed, depth, monkeypatch):
    monkeypatch.setattr(solenoid, "_EQUIV_DEPTH", depth)
    assert (metric_equivalence(sol, samples=150, seed=seed)
            == metric_equivalence_scalar(sol, samples=150, depth=depth, seed=seed))


def _torus_phi(theta, u, v):
    # arithmetic only, so scalars and arrays round alike
    return theta * (1.0 - theta) + 0.5 * u - 0.25 * u * v


@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("sigma", [0.6, 0.9])
@pytest.mark.parametrize("eps", [1.0 / 32.0, 1.0 / 16.0])
def test_attractor_bowen_check_matches_reference(sol, seed, sigma, eps):
    args = (sol, DecompositionConfig(sigma), _torus_phi, 2 * math.pi, 1.0, eps)
    got = attractor_bowen_check(*args, n_samples=60, seed=seed)
    assert got == attractor_bowen_check_scalar(*args, n_samples=60, seed=seed)
    assert got.samples == 60


def test_attractor_bowen_check_stops_at_the_attempt_cap(sol, monkeypatch):
    # no segment of positive length stays in a ball of negative radius, so
    # only the n = 0 attempts (1 in 60) are admissible; seed 1 finds 3 of
    # 5 in the 250 attempts allowed, over several chunks
    args = (sol, DecompositionConfig(0.6), _torus_phi, 1.0, 1.0, -1.0 / 16.0)
    for check in (attractor_bowen_check, attractor_bowen_check_scalar):
        with pytest.raises(ValidationError, match="no admissible Bowen companions"):
            check(*args, n_samples=2, seed=0)
    monkeypatch.setattr(solenoid, "_LENGTH_RANGE", (0, 59))
    got = attractor_bowen_check(*args, n_samples=5, seed=1)
    assert got == attractor_bowen_check_scalar(*args, n_samples=5,
                                               n_range=(0, 59), seed=1)
    assert got.samples == 3


# sha256 of the `solenoid` CSV as the one-point implementation wrote it.
# The digests were recomputed when the `workers` field left the config:
# against the files written before, only the config_hash= token of the
# header line moved, and every data row was byte-identical.
_GOLDEN_CSV = {
    (0, 0): "676bda1995c895183bc744f02b34728bb1b1554937acf570319dbee3ab8d34ac",
    (0, 3): "672b573779cfa1ec46c36c87c4f5405876779a9351e21e1f44fbee48b75f3389",
    (0, 8): "327d761bbe3f5fff20d8abe4234e188220c332cd609be3d9e18e8ed93bf4e924",
    (1, 0): "a93c7471637eca7c9b1080abab64c23b379326f3bd128096bebf52a13cc7aee6",
    (1, 3): "ff1ad813871457e05f3c43f4b50eea05d7a38e009f881ae802c001b78222e378",
    (1, 8): "435f007f8c2f2a7ea3091cc7a6ef0da28b2f1a29ec6238d2bd0a579fb4a3a84c",
    (2, 0): "0bdbf1ad3016d0acbd318a194e5ae4d75caaffa8e5b4c745f146fedfdaacf48a",
    (2, 3): "2522ec79e71432ee9d7d5edb342a74fc19f1debeba47f326ad32be548806ddda",
    (2, 8): "26a886259cf15e2b09c9ecd5c8be9d66d4bad1b1f5295a4fb51e7f9869417c32",
}


@pytest.mark.parametrize("seed, cloud_depth", sorted(_GOLDEN_CSV))
def test_solenoid_csv_is_unchanged(tmp_path, seed, cloud_depth):
    out = tmp_path / "s.csv"
    assert main(["solenoid", "--samples", "100", "--seed", str(seed),
                 "--cloud-depth", str(cloud_depth), "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == _GOLDEN_CSV[seed, cloud_depth]
