import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressgap as pg
from pressgap import maps
from pressgap.errors import BranchSolveError, MixingCapError, ValidationError
from pressgap.maps import TWO_PI, circle_dist, circle_signed

from oracles import (bisect_root, branch_lipschitz_loop, branch_solve_bisect,
                     covering_time_dense)

# sigma(x) is the sup of 1/g' over the pulled-back ball up to rounding: the
# end solves' 2 ulp, the evaluation of g' at the ends and one division
SIGMA_ULPS = 4.0


def test_circle_metric_basics():
    assert circle_dist(0.1, 0.9) == pytest.approx(0.2)
    assert circle_dist(0.0, 0.5) == 0.5
    assert float(circle_signed(0.9, 0.1)) == pytest.approx(0.2)
    assert float(circle_signed(0.1, 0.9)) == pytest.approx(-0.2)
    xs = np.random.default_rng(0).random((2, 500))
    assert np.all(circle_dist(xs[0], xs[1]) <= 0.5 + 1e-15)


def test_doubling_forward_examples(doubling_map):
    assert doubling_map.forward(0.3) == pytest.approx(0.6)
    assert doubling_map.forward(0.75) == pytest.approx(0.5)


def test_mp_neutral_fixed_point(mp_map):
    assert mp_map.forward(0.0) == 0.0


def test_doubling_inverse_branches(doubling_map):
    assert doubling_map.inverse_branches(0.5) == pytest.approx([0.25, 0.75])
    assert doubling_map.inverse_branches(0.0) == pytest.approx([0.0, 0.5])


def test_mp_inverse_branches_of_zero(mp_map):
    root = bisect_root(lambda x: x + x**1.5 - 1.0, 0.0, 1.0)
    pre = mp_map.inverse_branches(0.0)
    assert pre[0] == pytest.approx(0.0, abs=1e-10)
    assert pre[1] == pytest.approx(root, abs=1e-10)


@pytest.mark.parametrize("y", [0.0, 0.123, 0.5, 0.77, 0.999])
def test_preimages_map_back(builtin_maps, y):
    for system in builtin_maps:
        for x in system.inverse_branches(y):
            assert float(circle_dist(system.forward(x), y)) < 1e-10


def test_branch_lipschitz_doubling(doubling_map):
    for x in (0.0, 0.3, 0.77):
        assert doubling_map.branch_lipschitz(x) == 0.5


def test_branch_lipschitz_mp_values(mp_map):
    assert mp_map.branch_lipschitz(0.0) == 1.0
    # independent grid-maximization of 1/g' over the pulled-back ball
    x = 0.5
    gx = float(mp_map.forward(x))
    lift = lambda t: t + abs(t) ** 1.5
    lo = bisect_root(lambda t: lift(t) - (lift(x) - mp_map.epsilon0), 0.0, 1.0)
    hi = bisect_root(lambda t: lift(t) - (lift(x) + mp_map.epsilon0), 0.0, 1.0)
    grid = np.linspace(lo, hi, 2000)
    sup = np.max(1.0 / (1.0 + 1.5 * np.sqrt(grid)))
    val = mp_map.branch_lipschitz(0.5)
    assert abs(val - sup) <= SIGMA_ULPS * np.spacing(sup)


def test_branch_lipschitz_consistency(builtin_maps, rng):
    # d(inv(y), inv(z)) <= sigma(x) d(y, z) on the ball around g(x)
    for system in builtin_maps:
        xs = rng.random(200)
        sig = system.branch_lipschitz(xs)
        gx = system.forward(xs)
        for _ in range(5):
            u = gx + system.epsilon0 * (2 * rng.random(200) - 1)
            v = gx + system.epsilon0 * (2 * rng.random(200) - 1)
            pu = system.pullback(xs, u % 1.0)
            pv = system.pullback(xs, v % 1.0)
            lhs = circle_dist(pu, pv)
            rhs = sig * circle_dist(u % 1.0, v % 1.0)
            assert np.all(lhs <= rhs + 1e-9)


def test_pullback_inverts_forward(builtin_maps, rng):
    for system in builtin_maps:
        xs = rng.random(300)
        ys = (system.forward(xs) + system.epsilon0 * (2 * rng.random(300) - 1)) % 1.0
        zs = system.pullback(xs, ys)
        assert np.max(circle_dist(system.forward(zs), ys)) < 1e-10


def test_pullback_evaluates_the_lift_at_x_once(builtin_maps, rng, monkeypatch):
    for system in builtin_maps:
        xs = rng.random(50)
        ys = (system.forward(xs) + 0.5 * system.epsilon0) % 1.0
        # the two-evaluation form: forward(x), then the lift at x again
        ref = system.lift_inverse(system._lift(xs % 1.0)
                                  + circle_signed(system.forward(xs), ys)) % 1.0
        lift = system._lift
        at_x = []

        def counting_lift(u):
            at_x.append(np.shape(u) == xs.shape and np.array_equal(u, xs % 1.0))
            return lift(u)

        monkeypatch.setattr(system, "_lift", counting_lift)
        zs = system.pullback(xs, ys)
        monkeypatch.undo()
        assert sum(at_x) == 1
        assert np.array_equal(zs, ref)


def test_mixing_time_doubling(doubling_map):
    assert doubling_map.mixing_time(1.0 / 16.0) == 3
    assert doubling_map.mixing_time(1.0 / 4.0) == 1


def test_mixing_time_mp_finite_and_matches_dense_oracle(mp_map):
    tau = mp_map.mixing_time(1.0 / 16.0)
    assert tau >= 1
    # worst covering time over a coarse y-grid, via dense simulation
    worst = max(covering_time_dense(mp_map.forward, y, 1.0 / 16.0)
                for y in np.linspace(0.0, 1.0, 16, endpoint=False))
    assert tau == worst


def test_mixing_time_monotone(builtin_maps):
    for system in builtin_maps:
        eps = [system.epsilon0 / k for k in (1, 2, 4, 8)]
        taus = [system.mixing_time(e) for e in eps]
        assert all(a <= b for a, b in zip(taus, taus[1:]))


def test_mixing_cap_error(doubling_map, monkeypatch):
    monkeypatch.setattr(maps, "_MIXING_CAP", 2)
    with pytest.raises(MixingCapError):
        doubling_map.mixing_time(1e-3)


def test_epsilon0_validation():
    with pytest.raises(ValidationError):
        pg.MapSystem("bad", lambda x: 2 * x, lambda x: np.full_like(x, 2.0),
                     degree=2, epsilon0=0.5, inv_deriv_peaks=())


def test_potential_holder_bound(builtin_maps, rng):
    # declared data holds on 10^4 random pairs; potentials carrying a wrap
    # jump only claim it for non-straddling pairs
    pots = [pg.zero_potential(), pg.constant_potential(1.7)]
    for system in builtin_maps:
        pots.append(pg.geometric_potential(system, 0.8))
    xs, ys = rng.random(10_000), rng.random(10_000)
    for pot in pots:
        keep = np.ones(xs.size, dtype=bool)
        if pot.wrap_jump > 0.0:
            straddle = np.abs(xs - ys) > 0.5  # pairs whose short arc crosses 0
            keep &= ~straddle
        lhs = np.abs(pot(xs[keep]) - pot(ys[keep]))
        rhs = (pot.holder_constant
               * np.abs(xs[keep] - ys[keep]) ** pot.holder_exponent)
        assert np.all(lhs <= rhs + 1e-12), pot.name


def test_geometric_potential_wrap_flags(doubling_map, mp_map, perturbed_map):
    assert pg.geometric_potential(doubling_map, 1.0).wrap_jump == 0.0
    assert pg.geometric_potential(perturbed_map, 1.0).wrap_jump == 0.0
    jump = pg.geometric_potential(mp_map, 1.0).wrap_jump
    assert jump == pytest.approx(np.log(2.5), abs=1e-6)


def test_tabulated_map_matches_doubling(doubling_map):
    grid = np.linspace(0.0, 1.0, 257)
    tab = pg.tabulated_map(2.0 * grid)
    xs = np.linspace(0.0, 1.0, 97, endpoint=False)
    assert np.max(np.abs(tab.forward(xs) - doubling_map.forward(xs))) < 1e-12
    assert tab.degree == 2
    assert np.max(np.abs(np.sort(tab.inverse_branches(0.4))
                         - np.sort(doubling_map.inverse_branches(0.4)))) < 1e-9


def test_tabulated_map_validation():
    with pytest.raises(ValidationError):
        pg.tabulated_map(np.linspace(0.0, 1.5, 33))  # non-integer degree
    with pytest.raises(ValidationError):
        pg.tabulated_map(np.zeros(33))


def test_tabulated_potential_roundtrip():
    xs = np.linspace(0.0, 1.0, 64, endpoint=False)
    pot = pg.tabulated_potential(xs, np.cos(2 * np.pi * xs), 2 * np.pi, 1.0)
    assert pot(0.0) == pytest.approx(1.0)
    assert abs(pot(0.25)) < 1e-2
    # one sample is a constant potential
    one = pg.tabulated_potential([0.3], [2.0], 0.0, 1.0)
    assert one(np.array([0.1, 0.7])).tolist() == [2.0, 2.0]


def test_tabulated_potential_wraps_below_the_first_sample():
    # below 0.2 the potential interpolates across 1 -> 0, from 2 at 0.5 to
    # 1 at 1.2, instead of holding the first value
    pot = pg.tabulated_potential([0.2, 0.5], [1.0, 2.0], 1.0, 1.0)
    assert pot(0.0) == pytest.approx(2.0 - 0.5 / 0.7)
    assert pot(0.1) == pytest.approx(2.0 - 0.6 / 0.7)
    assert pot(0.99) == pytest.approx(2.0 - 0.49 / 0.7)
    assert pot(np.array([0.2, 0.35, 0.5])).tolist() == [1.0, 1.5, 2.0]
    # continuous across 0, and independent of the order of the samples
    assert pot(1.0 - 1e-12) == pytest.approx(pot(0.0), abs=1e-11)
    swapped = pg.tabulated_potential([0.5, 0.2], [2.0, 1.0], 1.0, 1.0)
    x = np.linspace(-1.0, 2.0, 301)
    assert swapped(x).tolist() == pot(x).tolist()


@pytest.mark.parametrize("xs, constant, exponent, field", [
    ([], 1.0, 1.0, "xs"),
    ([0.2, 1.5], 1.0, 1.0, "xs"),
    ([0.2, float("nan")], 1.0, 1.0, "xs"),
    ([0.5, 0.5], 1.0, 1.0, "xs"),
    ([0.2, 0.5], -1.0, 1.0, "holder_constant"),
    ([0.2, 0.5], float("inf"), 1.0, "holder_constant"),
    ([0.2, 0.5], 1.0, 7.0, "holder_exponent"),
    ([0.2, 0.5], 1.0, 0.0, "holder_exponent"),
])
def test_tabulated_potential_validation(xs, constant, exponent, field):
    with pytest.raises(ValidationError) as info:
        pg.tabulated_potential(xs, np.zeros(len(xs)), constant, exponent)
    assert info.value.field == field


# -- inverse-branch root solves ---------------------------------------------

TAB_GRID = np.linspace(0.0, 1.0, 65)
TAB_VALUES = 3.0 * TAB_GRID + (0.9 / TWO_PI) * np.sin(TWO_PI * TAB_GRID)
PD_DELTA = 0.75

SOLVE_MAPS = {"mp": pg.manneville_pomeau(0.5),
              "perturbed": pg.perturbed_doubling(PD_DELTA),
              "tabulated": pg.tabulated_map(TAB_VALUES)}


def _tabulated_lift(x):
    j = min(max(int(x * 64), 0), 63)
    x0, v0, v1 = (mpmath.mpf(float(t)) for t in (TAB_GRID[j], TAB_VALUES[j],
                                                 TAB_VALUES[j + 1]))
    return v0 + (v1 - v0) * (x - x0) * 64


# the lifts in mpmath arithmetic, with the maps' float constants
MP_LIFTS = {
    "mp": lambda x: x + abs(x) ** mpmath.mpf(1.5),
    "perturbed": lambda x: 2 * x + (mpmath.mpf(PD_DELTA / TWO_PI)
                                    * mpmath.sin(mpmath.mpf(TWO_PI) * x)),
    "tabulated": _tabulated_lift,
}

Y_VALUES = st.one_of(st.sampled_from([0.0, 1.0 - 2.0 ** -53, 1e-300]),
                     st.floats(0.0, 1.0, exclude_max=True))


def _ulps(a, b):
    return abs(float(a) - float(b)) / np.spacing(abs(float(b)))


def _sign_change_nearby(system, x, target):
    """G at 2 ulp either side of x brackets the target, up to 4 ulp of it."""
    slack = 4.0 * np.spacing(np.abs(target))
    left = system._lift(np.maximum(x - 2.0 * np.spacing(x), 0.0))
    right = system._lift(np.minimum(x + 2.0 * np.spacing(x), 1.0))
    return bool(np.all((left - slack <= target) & (target <= right + slack)))


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SOLVE_MAPS)), data=st.data(),
       ys=st.lists(Y_VALUES, min_size=1, max_size=12))
def test_branch_solve_batch_single_and_scalar_agree(name, data, ys):
    system = SOLVE_MAPS[name]
    branch = data.draw(st.integers(0, system.degree - 1))
    y = np.asarray(ys)
    batch = system.branch_solve(branch, y)
    for i in range(y.size):
        single = system.branch_solve(branch, y[i:i + 1])
        scalar = system.branch_solve(branch, np.float64(y[i]))
        assert single.shape == (1,) and scalar.shape == ()
        assert batch[i].tobytes() == single[0].tobytes() == scalar.tobytes()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SOLVE_MAPS) + ["doubling"]), data=st.data(),
       ys=st.lists(Y_VALUES, min_size=1, max_size=12))
def test_branch_solve_branch_array_matches_per_branch_calls(name, data, ys):
    # "doubling" is the closed form, "tabulated" a degree-3 table
    system = pg.doubling() if name == "doubling" else SOLVE_MAPS[name]
    y = np.asarray(ys)
    branch = np.asarray(data.draw(st.lists(st.integers(0, system.degree - 1),
                                           min_size=y.size, max_size=y.size)))
    mixed = system.branch_solve(branch, y)
    for b in range(system.degree):
        rows = branch == b
        assert mixed[rows].tobytes() == system.branch_solve(b, y[rows]).tobytes()
    square = system.branch_solve(branch.reshape(1, -1), y.reshape(1, -1))
    assert square.shape == (1, y.size)
    assert square.tobytes() == mixed.tobytes()


def test_lift_inverse_matches_per_branch_solves():
    v = np.concatenate([np.linspace(-3.0, 6.0, 997), [0.0, 1.0, 2.0, 3.0 - 2.0 ** -51]])
    for system in list(SOLVE_MAPS.values()) + [pg.doubling()]:
        k = np.floor(v / system.degree)
        w = np.clip(v - system.degree * k, 0.0, np.nextafter(float(system.degree), 0.0))
        b = np.minimum(np.floor(w).astype(int), system.degree - 1)
        ref = np.empty_like(v)
        for branch in range(system.degree):
            ref[b == branch] = system.branch_solve(branch, w[b == branch] - branch)
        assert system.lift_inverse(v).tobytes() == (ref + k).tobytes()
        assert float(system.lift_inverse(v[3])) == ref[3] + k[3]


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SOLVE_MAPS)), data=st.data(), y=Y_VALUES)
def test_branch_solve_root_quality(name, data, y):
    system = SOLVE_MAPS[name]
    branch = data.draw(st.integers(0, system.degree - 1))
    x = float(system.branch_solve(branch, np.float64(y)))
    lo, hi = system.branch_cuts[branch], system.branch_cuts[branch + 1]
    assert lo <= x <= hi
    target = float(np.float64(y) + branch)
    assert _sign_change_nearby(system, x, target)
    # the bisection's clipped Newton polish ends at an absolute error near
    # 1e-48 on roots below 1e-33, so it is compared in ulp of 1e-30 there
    ref = float(branch_solve_bisect(system, branch, np.float64(y)))
    assert abs(x - ref) <= 4.0 * np.spacing(max(abs(x), 1e-30))
    # the 50-digit root of the same float target, refined from x
    g = MP_LIFTS[name]
    with mpmath.workdps(50):
        root = mpmath.findroot(lambda t: g(t) - target, mpmath.mpf(x),
                               solver="newton", df=lambda t: mpmath.diff(g, t))
    assert _ulps(x, float(root)) <= 4.0


@pytest.mark.parametrize("system", [pg.manneville_pomeau(0.5), pg.manneville_pomeau(0.9),
                                    pg.perturbed_doubling(PD_DELTA)], ids=repr)
def test_tabulated_start_settles_in_few_iterations(system, monkeypatch):
    # each block of a solve runs the solver, whose iterations evaluate G
    # once on the block's open points, and then the root check, which
    # evaluates G twice on every point of the block
    blocks = []
    lift, solve = system._lift, maps._bracketed_solve

    def counted(x):
        blocks[-1].append(np.size(x))
        return lift(x)

    def solve_block(*args):
        blocks.append([])
        return solve(*args)

    monkeypatch.setattr(system, "_lift", counted)
    monkeypatch.setattr(maps, "_bracketed_solve", solve_block)
    rng = np.random.default_rng(7)
    evaluations = points = 0
    for branch in range(system.degree):
        y = np.concatenate([rng.random(10_000), [0.0, 1.0 - 2.0 ** -53, 1e-300, 1e-12]])
        blocks.clear()
        x = system.branch_solve(branch, y)
        # the first iteration evaluates G on the whole block
        sizes = [calls[0] for calls in blocks]
        assert len(blocks) == -(-y.size // maps._BLOCK) > 1 and sum(sizes) == y.size
        for calls, size in zip(blocks, sizes):
            loop = calls[:-2]
            assert calls[-2:] == [size, size] and len(loop) <= 3
            evaluations += sum(loop)
        points += y.size
        assert _sign_change_nearby(system, x, y + branch)
    assert evaluations / points <= 2.1


@pytest.mark.parametrize("system", [pg.doubling()] + list(SOLVE_MAPS.values()), ids=repr)
def test_empty_inputs_give_empty_arrays(system):
    for shape in [(0,), (2, 0)]:
        y = np.empty(shape)
        assert system.branch_solve(0, y).shape == shape
        assert system.branch_solve(np.zeros(shape, dtype=int), y).shape == shape
        assert system.lift_inverse(y).shape == shape
        assert system.inverse_branches(y).shape == (system.degree,) + shape
        assert system.branch_lipschitz(y).shape == shape


@pytest.mark.parametrize("system", [pg.doubling()] + list(SOLVE_MAPS.values()), ids=repr)
def test_branch_lipschitz_keeps_one_point_shapes(system):
    for shape in [(1,), (1, 1)]:
        sigma = system.branch_lipschitz(np.full(shape, 0.3))
        assert isinstance(sigma, np.ndarray) and sigma.shape == shape
    for x in (0.3, np.float64(0.3), np.array(0.3)):
        assert type(system.branch_lipschitz(x)) is float


def _solve_all(system, y, branch, tree):
    """Every batched inverse-branch result on y, as bytes."""
    out = [system.branch_solve(1, y), system.branch_solve(branch, y),
           system.branch_solve(branch.reshape(5, -1), y.reshape(5, -1)),
           system.lift_inverse(3.0 * y - 1.0), system.inverse_branches(y),
           system.branch_lipschitz(y)]
    out += tree.levels + [tree.log_sigma_matrix(tree.depth)]
    return [a.tobytes() for a in out]


@pytest.mark.parametrize("name", sorted(SOLVE_MAPS))
def test_blocked_solves_match_the_unsplit_call(name, monkeypatch):
    # the mp and perturbed maps are degree 2, the table degree 3
    system = SOLVE_MAPS[name]
    rng = np.random.default_rng(11)
    y = np.concatenate([rng.random(195), [0.0, 1.0 - 2.0 ** -53, 1e-300, 1e-12, 0.5]])
    branch = rng.integers(0, system.degree, y.size)
    depth = 6 if system.degree == 2 else 4
    bad = np.full(10, 0.25)
    bad[8] = np.nan
    bad_branch = np.zeros(10, dtype=int)
    bad_branch[8] = system.degree - 1
    monkeypatch.setattr(maps, "_BLOCK", 1 << 30)
    ref = _solve_all(system, y, branch, pg.CylinderTree(system, depth))
    with pytest.raises(BranchSolveError) as unsplit:
        system.branch_solve(bad_branch, bad)
    assert f"branch {system.degree - 1} solve at target" in str(unsplit.value)
    for block in (1, 2, 3, 7, 64):
        monkeypatch.setattr(maps, "_BLOCK", block)
        assert _solve_all(system, y, branch, pg.CylinderTree(system, depth)) == ref
        # the NaN is in a later block but for the 64-point one
        with pytest.raises(BranchSolveError) as split:
            system.branch_solve(bad_branch, bad)
        assert str(split.value) == str(unsplit.value)


@pytest.mark.parametrize("points", [2 ** 14, 2 ** 16])
def test_branch_lipschitz_working_set_is_a_few_blocks(mp_map, points):
    x = np.random.default_rng(5).random(points)
    mp_map.branch_lipschitz(x[:10])
    tracemalloc.start()
    try:
        sigma = mp_map.branch_lipschitz(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - sigma.nbytes < 2 * 2 ** 20


def test_closed_form_maps_build_no_start_table():
    assert pg.doubling()._start_table is None
    for system in SOLVE_MAPS.values():
        values, nodes = system._start_table
        assert values.size == nodes.size == maps._START_NODES
        assert np.all(np.diff(values) > 0)


def test_solve_cuts_match_lift():
    for system in SOLVE_MAPS.values():
        cuts = system.branch_cuts
        assert cuts[0] == 0.0 and cuts[-1] == 1.0 and np.all(np.diff(cuts) > 0)
        assert _sign_change_nearby(system, cuts[1:-1],
                                          np.arange(1.0, system.degree))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_branch_solve_rejects_non_finite_y(bad):
    for system in SOLVE_MAPS.values():
        with pytest.raises(BranchSolveError):
            system.branch_solve(0, np.float64(bad))
        with pytest.raises(BranchSolveError):
            system.branch_solve(0, np.array([0.25, bad]))


def _hand_built(lift, deriv):
    return pg.MapSystem("hand-built", lift, deriv, degree=2, epsilon0=0.25,
                        inv_deriv_peaks=())


def test_branch_solve_rejects_nan_lift_inside_a_branch():
    # the cut solve starts at 1/2 and meets G(1/2) = 1 at once
    system = _hand_built(
        lambda x: np.where((x > 0.3) & (x < 0.35), np.nan, 2.0 * x),
        lambda x: np.full_like(x, 2.0))
    assert system.branch_cuts.tolist() == [0.0, 0.5, 1.0]
    assert float(system.branch_solve(0, np.float64(0.2))) == 0.1
    with pytest.raises(BranchSolveError, match="residual nan"):
        system.branch_solve(0, np.float64(0.65))
    with pytest.raises(BranchSolveError):
        system.branch_solve(0, np.array([0.2, 0.65, 0.9]))


def test_branch_solve_error_names_the_failing_points_branch():
    # G is NaN on (0.3, 0.35) in branch 0 and on (0.8, 0.85) in branch 1
    system = _hand_built(
        lambda x: np.where(((x > 0.3) & (x < 0.35)) | ((x > 0.8) & (x < 0.85)),
                           np.nan, 2.0 * x),
        lambda x: np.full_like(x, 2.0))
    y = np.array([0.2, 0.65, 0.65, 0.2])
    assert system.branch_solve(np.array([0, 1, 1, 1]), y[[0, 0, 3, 3]]).tolist() \
        == [0.1, 0.6, 0.6, 0.6]
    # both calls fail on a point of each branch; the first failing point's
    # branch is named
    with pytest.raises(BranchSolveError, match=r"branch 1 solve at target \S*1\.65"):
        system.branch_solve(np.array([0, 1, 0, 1]), y)
    with pytest.raises(BranchSolveError, match=r"branch 0 solve at target \S*0\.65"):
        system.branch_solve(np.array([1, 0, 1, 1]), y)


def test_branch_solve_rejects_a_wrong_derivative():
    # lift_deriv 1e30 on [0, 1/2) makes every Newton step there vanish, so
    # the solve stops at its start; the root check does not use lift_deriv
    system = _hand_built(lambda x: x + x * x,
                         lambda x: np.where(x < 0.5, 1e30, 1.0 + 2.0 * x))
    with pytest.raises(BranchSolveError, match="residual"):
        system.branch_solve(0, np.float64(0.3))


def test_branch_solve_settles_on_a_lift_jump():
    # G jumps from 0.475 to 0.575 at x = 1/4, so G(x) = 0.5 has no root;
    # the bracket closes on the jump, where G - 0.5 changes sign
    system = _hand_built(lambda x: 1.9 * x + np.where(x > 0.25, 0.1, 0.0),
                         lambda x: np.full_like(x, 1.9))
    assert float(system.branch_solve(0, np.float64(0.3))) == 0.3 / 1.9
    x = float(system.branch_solve(0, np.float64(0.5)))
    assert _ulps(x, 0.25) <= 2.0


def test_branch_solve_on_a_rough_table():
    # slopes from 1e-6 to 1 make plain bracketed Newton cycle between two
    # pieces, each landing on the other's line root; the previous-iterate
    # rule breaks the cycle.  (The bisection oracle's 44 steps leave it some 100
    # ulp off on this table, so the sign change is the reference.)
    rng = np.random.default_rng(3)
    v = np.concatenate([[0.0], np.cumsum(rng.random(300) ** 3 + 1e-6)])
    system = pg.tabulated_map(3.0 * v / v[-1])
    y = np.concatenate([rng.random(2000), [0.0, 1.0 - 2.0 ** -53, 1e-300]])
    for branch in range(system.degree):
        x = system.branch_solve(branch, y)
        assert _sign_change_nearby(system, x, y + branch)


def test_tabulated_table_ends_are_exact():
    # a table 5e-13 off 0 and 5e-10 short of its degree is accepted and
    # solved as the exact cover it rounds to, down to the node at 0
    v = 2.0 * np.linspace(0.0, 1.0, 33)
    v[0], v[-1] = 5e-13, 2.0 - 5e-10
    system = pg.tabulated_map(v)
    assert float(system._lift(0.0)) == 0.0 and float(system._lift(1.0)) == 2.0
    roots = system.inverse_branches(np.arange(8) / 8)
    assert roots[0, 0] == 0.0 and roots[1, 0] == 0.5
    assert float(system.lift_inverse(np.nextafter(2.0, 0.0))) <= 1.0
    # a table that passes the degree before its last node is refused
    v[-2], v[-1] = 2.0 + 1e-10, 2.0 + 5e-10
    with pytest.raises(ValidationError, match="within"):
        pg.tabulated_map(v)


def test_branch_solve_iteration_cap():
    # a derivative far too small turns every step of G(x) = x + x^2 into
    # bisection, which from [0, 0.618] cannot come within 2 ulp of a root
    # near 1e-300 by the cap; elsewhere bisection still settles
    system = _hand_built(lambda x: x + x * x, lambda x: np.full_like(x, 1e-300))
    root = (np.sqrt(7.0) - 1.0) / 2.0
    assert abs(float(system.branch_solve(1, np.float64(0.5))) - root) < 1e-15
    with pytest.raises(BranchSolveError, match="did not settle"):
        system.branch_solve(0, np.float64(1e-300))


# -- the sigma field ---------------------------------------------------------

SIGMA_MAPS = dict(SOLVE_MAPS, doubling=pg.doubling())
SIGMA_LIFTS = dict(MP_LIFTS, doubling=lambda x: 2 * x)


def _mp_inv_deriv_sides(name, x):
    """1/g' just left and just right of x in [0, 1), in mpmath arithmetic
    with the maps' float constants."""
    if name == "doubling":
        return [mpmath.mpf(0.5)] * 2
    if name == "mp":
        right = 1 / (1 + mpmath.mpf(1.5) * mpmath.sqrt(x))
        return [mpmath.mpf(1) / mpmath.mpf(2.5) if x == 0 else right, right]
    if name == "perturbed":
        value = 1 / (2 + mpmath.mpf(PD_DELTA) * mpmath.cos(mpmath.mpf(TWO_PI) * x))
        return [value, value]
    slopes = [(mpmath.mpf(float(TAB_VALUES[j + 1])) - mpmath.mpf(float(TAB_VALUES[j]))) * 64
              for j in range(64)]
    j = int(mpmath.floor(x * 64))
    return [1 / slopes[j - 1 if x * 64 == j else j], 1 / slopes[j]]


# where 1/g' can peak inside an arc: the derivative's kinks (the wrap point
# of the Manneville-Pomeau map, the table's nodes) and the zeros of g''
_CRITICAL = {"doubling": [], "mp": [0], "perturbed": [0, mpmath.mpf(0.5)],
             "tabulated": [mpmath.mpf(j) / 64 for j in range(64)]}


def _sigma_oracle(name, x):
    """The sup of 1/g' over the pulled-back ball about x: its ends are the
    50-digit roots of the lift, extended to the line, at the float targets
    G(x) -+ epsilon0 that the package solves for."""
    system = SIGMA_MAPS[name]
    v = float(system._lift(np.float64(x)))
    degree, lift = system.degree, SIGMA_LIFTS[name]
    with mpmath.workdps(50):
        def real_lift(z):
            k = mpmath.floor(z)
            return lift(z - k) + degree * k

        ends = []
        for target in (v - system.epsilon0, v + system.epsilon0):
            bracket = (mpmath.mpf(target) / degree - 1, mpmath.mpf(target) / degree + 1)
            ends.append(mpmath.findroot(lambda z: real_lift(z) - target, bracket,
                                        solver="anderson"))
        zlo, zhi = ends
        # the arc leaves zlo to the right and reaches zhi from the left
        values = [_mp_inv_deriv_sides(name, zlo - mpmath.floor(zlo))[1],
                  _mp_inv_deriv_sides(name, zhi - mpmath.floor(zhi))[0]]
        for k in range(int(mpmath.floor(zlo)), int(mpmath.floor(zhi)) + 1):
            for c in _CRITICAL[name]:
                if zlo <= k + c <= zhi:
                    values += _mp_inv_deriv_sides(name, c)
        return float(max(values)), float(zlo), float(zhi)


def _assert_sigma_is_the_sup(name, x):
    sigma = SIGMA_MAPS[name].branch_lipschitz(np.float64(x))
    sup, zlo, zhi = _sigma_oracle(name, x)
    assert abs(sigma - sup) <= SIGMA_ULPS * np.spacing(sup), (name, x, sigma, sup)
    return sup, zlo, zhi


# x = 0, 1/2 and 1 - ulp; arcs around the wrap point, the perturbed map's
# peak at 1/2 and the table's nodes
SIGMA_POINTS = [0.0, 0.5, 1.0 - 2.0 ** -53, 1e-300, 0.03, 0.97, 0.45, 0.55,
                17.0 / 64.0, 0.3]


@pytest.mark.parametrize("name", sorted(SIGMA_MAPS))
def test_branch_lipschitz_matches_the_exact_sup(name):
    for x in SIGMA_POINTS:
        _assert_sigma_is_the_sup(name, x)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SIGMA_MAPS)), x=st.floats(0.0, 1.0, exclude_max=True))
def test_branch_lipschitz_matches_the_exact_sup_at_drawn_points(name, x):
    sup, zlo, zhi = _assert_sigma_is_the_sup(name, x)
    # no point of the arc exceeds the sup by more than its rounding
    z = np.linspace(zlo, zhi, 257)
    inside = 1.0 / SIGMA_MAPS[name].deriv(z % 1.0)
    assert np.all(inside <= sup + SIGMA_ULPS * np.spacing(sup))


def test_branch_lipschitz_reaches_the_perturbed_peak():
    system = pg.perturbed_doubling(0.75)
    assert system.branch_lipschitz(0.5) >= 1.0 / float(system.deriv(0.5)) == 0.8


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(SIGMA_MAPS)),
       xs=st.lists(Y_VALUES, min_size=1, max_size=12))
def test_branch_lipschitz_is_elementwise(name, xs):
    system = SIGMA_MAPS[name]
    x = np.asarray(xs)
    batch = system.branch_lipschitz(x)
    for i in range(x.size):
        single = system.branch_lipschitz(x[i:i + 1])
        scalar = system.branch_lipschitz(np.float64(x[i]))
        assert batch[i].tobytes() == single.tobytes() == np.float64(scalar).tobytes()


def _sin_table(nodes):
    grid = np.linspace(0.0, 1.0, nodes)
    return pg.tabulated_map(3.0 * grid + (0.9 / TWO_PI) * np.sin(TWO_PI * grid))


PEAK_MAPS = {"mp": SOLVE_MAPS["mp"], "perturbed": SOLVE_MAPS["perturbed"],
             "table9": _sin_table(9), "table65": _sin_table(65),
             "table1025": _sin_table(1025)}


@pytest.mark.parametrize("name", sorted(PEAK_MAPS))
def test_branch_lipschitz_matches_the_per_peak_loop(name):
    # uniform points, the circle's edges, the table nodes and their
    # neighbours, and points whose ball ends land within rounding of a
    # peak's lift, from either side
    system = PEAK_MAPS[name]
    rng = np.random.default_rng(7)
    nodes = np.linspace(0.0, 1.0, 1025)[:-1]
    xs = [rng.random(4000), np.array([0.0, 1e-300, 1.0 - 2.0 ** -53, 0.5]),
          nodes, np.nextafter(nodes, 1.0), np.nextafter(nodes, -1.0) % 1.0]
    peaks = np.array([p for p, _ in system._peaks])
    for side in (-1.0, 1.0):
        y = (system._lift(peaks) + side * system.epsilon0) % 1.0
        xs += [system.branch_solve(b, y) for b in range(system.degree)]
    x = np.concatenate(xs)
    assert system.branch_lipschitz(x).tobytes() == branch_lipschitz_loop(system, x).tobytes()


def test_peak_points_must_lie_on_the_circle():
    for point in (1.0, -0.25):
        with pytest.raises(ValidationError, match="inv_deriv_peaks"):
            pg.MapSystem("hand-built", lambda x: 2.0 * x, lambda x: np.full_like(x, 2.0),
                         degree=2, epsilon0=0.25, inv_deriv_peaks=[(point, 1.0)])
