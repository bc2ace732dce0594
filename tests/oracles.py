"""Independent reference computations used to freeze expected test values.

Everything here is deliberately brute force and shares no code path with the
package: bisection on explicit functions, a one-point loop of the
inverse-branch solve's stop rule, exhaustive subset search for
separated sets, dense-point interval images for covering times, and direct
window scans for segment classification.  The exceptions are the package's
earlier code, kept so that the faster paths can be compared with it bit for
bit: the quadratic separated-set kernel, the broadcast Bowen matrix, the
conflict pairs read from it, the dense cover, the one-point samplers for
good segments, backward orbits (on the one-point type `ExtPoint`) and Bowen
companions, the per-point
extension Birkhoff sum, the per-time shadow verifiers and the
per-coordinate extension glue point, the one-point
solenoid fibers, metric-equivalence sampler and attractor Bowen check (on
a point type of their own, `AttractorPoint`, converted to and from the
package's batches by `as_batch` and `batch_rows`), the fixed-step
bisection inverse-branch solver, the per-peak pass of the sigma field, the
trailing-window means of log sigma rows (`suffix_means`), the plain
forward/adjoint power iteration for transfer-operator eigendata, the
invariance and pressure check of a grid's equilibrium density
(`check_equilibrium`), and the Arnoldi start that restarts from a single
Ritz vector.  `ext_points`, `ext_point` and `ext_columns` read the columns
of the package's backward-orbit arrays as ExtPoints.
The last section holds one-segment and one-point helpers that no package
code calls: Birkhoff sums, Bowen distances, good/bad/neither
classification, decomposition and pullback chains of one segment, the
greedy separated set of a collection's pool (through the package's greedy
kernel), and the extension shift, its inverse and the truncated extension
metric.
"""

import enum
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from pressgap import kernels
from pressgap.decomposition import GoodCollection, segment_log_sigma, split_indices
from pressgap.errors import BranchSolveError, ConvergenceError, ValidationError
from pressgap.extension import depth_for_tolerance, extend, tail_bound
from pressgap.maps import CIRCLE_DIAMETER, circle_dist, zero_potential
from pressgap.orbits import DEFAULT_ANCHOR, _candidate_pool
from pressgap.specification import _glue, _midpoint
from pressgap.transfer import (_BREAKDOWN, _MAX_APPLICATIONS, _TOL, EigenData,
                               _basis_norm, _dot, _norm, _power_finish,
                               apply_adjoint, apply_operator)


def circ(x, y):
    d = abs(float(x) - float(y)) % 1.0
    return min(d, 1.0 - d)


def branch_solve_newton_loop(system, branch, y, cap=100):
    """One-point reference of the inverse-branch solve's rule: from the
    tabulated start clipped to the branch's cut interval, shrink the bracket
    by the sign of G(x) - target and take a Newton step, or the bracket
    midpoint where the step leaves the bracket or lands back on the previous
    iterate; stop at the first iterate whose G at 2 ulp either side (within
    [0, 1]) brackets the target.  A step within 2 ulp, or a NaN one, that
    fails that test stops if G there brackets the target to within 4 ulp of
    it and raises otherwise, as does a point still open after `cap`
    iterations."""
    lift = lambda t: np.float64(system._lift(np.float64(t)))
    deriv = lambda t: np.float64(system._deriv(np.float64(t)))
    target = np.float64(y) + branch
    lo = np.float64(system.branch_cuts[branch])
    hi = np.float64(system.branch_cuts[branch + 1])
    x = min(max(np.float64(np.interp(target, *system._start_table)), lo), hi)
    slack = 4.0 * np.spacing(abs(target))
    prev = np.float64(np.nan)
    for _ in range(cap):
        f = lift(x) - target
        if f < 0.0:
            lo = x
        else:
            hi = x
        xn = x - f / deriv(x)
        if xn < lo or xn > hi or xn == prev:
            xn = 0.5 * (lo + hi)
        near = 2.0 * np.spacing(xn)
        left, right = lift(max(xn - near, 0.0)), lift(min(xn + near, 1.0))
        if left <= target <= right:
            return xn
        if not abs(xn - x) > 2.0 * np.spacing(x):
            if left - slack <= target <= right + slack:
                return xn
            raise BranchSolveError(f"stalled at target {target!r}")
        prev, x = x, xn
    raise BranchSolveError(f"open after {cap} iterations at target {target!r}")


def bisect_root(f, lo, hi, iters=100):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def peak_max_loop(system, zlo, zhi, out):
    """Reference peak raise of the sigma field: `out` raised to each
    declared peak whose lift ceil(zlo - p) + p lies in the arc [zlo, zhi],
    one vectorised pass per peak in declaration order."""
    for point, value in system._peaks:
        inside = np.ceil(zlo - point) + point <= zhi
        out = np.where(inside, np.maximum(out, value), out)
    return out


def branch_lipschitz_loop(system, x):
    """Reference sigma field: the larger 1/g' at the two ball ends of the
    pulled-back arc, raised by `peak_max_loop`."""
    x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
    v = system._lift(x)
    ends = system.lift_inverse(np.stack([v - system.epsilon0, v + system.epsilon0]))
    out = (1.0 / system.deriv(ends % 1.0)).max(axis=0)
    return peak_max_loop(system, *ends, out)


def branch_solve_bisect(system, branch, y):
    """Reference inverse-branch solve: 44 bisection steps on the branch's cut
    interval, then 3 Newton steps clipped into the final bracket.

    A reference for smooth lifts only: the fixed step count and the polish
    assume one.  It ends 110 ulp from the root next to a lift jump, and up to
    79 ulp off on a 300-piece tabulated map with slopes from 1e-6 to 1, so
    rough tables are checked by the sign change of G - target instead.
    """
    y = np.asarray(y, dtype=float)
    target = y + branch
    lo = np.full_like(y, system.branch_cuts[branch])
    hi = np.full_like(y, system.branch_cuts[branch + 1])
    for _ in range(44):
        mid = 0.5 * (lo + hi)
        below = system._lift(mid) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(3):  # Newton polish, clipped into the bracket
        x = x - (system._lift(x) - target) / system.deriv(x)
        x = np.clip(x, lo, hi)
    return x


def orbit_of(forward, x, n):
    out = [float(x) % 1.0]
    for _ in range(n - 1):
        out.append(float(forward(out[-1])) % 1.0)
    return out


def bowen_matrix(forward, points, n):
    orbits = [orbit_of(forward, p, n) for p in points]
    m = len(points)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d = max(circ(a, b) for a, b in zip(orbits[i], orbits[j]))
            out[i, j] = out[j, i] = d
    return out


def max_separated_cardinality(forward, points, n, eps):
    """Exact maximum size of an (n, eps)-separated subset, by branch and
    bound over the conflict graph (feasible for small pools)."""
    d = bowen_matrix(forward, points, n)
    m = len(points)
    compatible = d >= eps
    np.fill_diagonal(compatible, False)
    if compatible.sum() == m * (m - 1):
        return m  # every pair separated

    best = 0

    def grow(chosen_mask, start, size):
        nonlocal best
        best = max(best, size)
        for i in range(start, m):
            if size + (m - i) <= best:
                return
            if chosen_mask[i]:
                grow(chosen_mask & compatible[i], i + 1, size + 1)

    grow(np.ones(m, dtype=bool), 0, 0)
    return best


def covering_time_dense(forward, y, eps, points=20000, bins=512, cap=200):
    """Covering time of the eps-ball around y by dense forward simulation."""
    xs = (y + np.linspace(-eps, eps, points)) % 1.0
    for t in range(1, cap + 1):
        xs = np.asarray(forward(xs)) % 1.0
        counts = np.bincount((xs * bins).astype(int) % bins, minlength=bins)
        if np.all(counts > 0):
            return t
    raise AssertionError("no covering time below cap")


def window_means(log_values):
    """All trailing-window means [mean(v[j:]) for j]."""
    v = np.asarray(log_values, dtype=float)
    return [float(v[j:].mean()) for j in range(v.size)]


def is_good(log_values, log_sigma):
    return all(m < log_sigma for m in window_means(log_values))


def is_bad(log_values, log_sigma):
    return float(np.mean(log_values)) >= log_sigma


def brute_split(log_values, log_sigma):
    """Smallest m whose suffix is bad, scanning every split point."""
    n = len(log_values)
    for m in range(n):
        if is_bad(log_values[m:], log_sigma):
            return m
    return n


def greedy_separated_quadratic(orbits, order, eps):
    """Reference greedy (n, eps)-separated keep-mask: every kept candidate is
    compared with every still-alive row of the pool."""
    n_cand = orbits.shape[0]
    keep = np.zeros(n_cand, dtype=bool)
    # alive[i] == True while i is >= eps away from every kept candidate
    alive = np.ones(n_cand, dtype=bool)
    for idx in order:
        if not alive[idx]:
            continue
        keep[idx] = True
        cand = np.flatnonzero(alive)
        d = np.abs(orbits[cand] - orbits[idx])
        d = np.minimum(d, 1.0 - d)
        alive[cand[d.max(axis=1) < eps]] = False
    return keep


def pairwise_bowen_broadcast(orbits):
    """Reference Bowen distance matrix: one broadcast over row blocks and
    every time step at once."""
    orbits = np.ascontiguousarray(orbits, dtype=np.float64)
    n = orbits.shape[0]
    out = np.empty((n, n))
    # row blocks keep the broadcast temporaries modest
    block = max(1, (1 << 22) // max(1, n * orbits.shape[1]))
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        d = np.abs(orbits[lo:hi, None, :] - orbits[None, :, :])
        d = np.minimum(d, 1.0 - d)
        out[lo:hi] = d.max(axis=2)
    return out


def bowen_pairs(orbits, eps):
    """Reference conflicts: the row pairs (i, j), i < j, of the broadcast
    Bowen matrix below eps, as a (2, K) array in row-major order."""
    near = np.triu(pairwise_bowen_broadcast(orbits) < eps, 1)
    return np.array(np.nonzero(near), dtype=np.int64).reshape(2, -1)


def pair_set(pairs):
    """The unordered pairs of a (2, K) pair array, as a set of (min, max)
    tuples."""
    pairs = np.asarray(pairs)
    return set(zip(np.minimum(*pairs).tolist(), np.maximum(*pairs).tolist()))


def greedy_cover_dense(orbits, eps, masses, tie_weights, target_mass):
    """Reference greedy cover by mass: every pick recomputes every ball's
    uncovered mass with one matrix-vector product."""
    from pressgap.errors import CoverError

    n_cand = orbits.shape[0]
    if n_cand == 0:
        raise CoverError("empty candidate pool")
    cover = pairwise_bowen_broadcast(orbits) <= eps
    uncovered = np.ones(n_cand, dtype=bool)
    total = 0.0
    chosen = []
    target = target_mass - 1e-12
    while total < target:
        gains = cover[:, uncovered] @ masses[uncovered]
        best = float(np.max(gains))
        if best <= 0.0:
            raise CoverError(
                f"cover stalled at mass {total:.6g} < target {target_mass:.6g}")
        tied = np.flatnonzero(gains >= best)
        i = int(tied[np.lexsort((tied, tie_weights[tied]))[0]])
        chosen.append(i)
        total += float(masses[uncovered & cover[i]].sum())
        uncovered &= ~cover[i]
    return np.asarray(chosen, dtype=int)


def greedy_cover_counts(dist, eps, tie_weights, fraction):
    """Reference greedy cover in plain Python integers, from a Bowen
    distance matrix: uncovered points per ball are recounted in full
    at every pick, until the covered share of the pool reaches `fraction`
    (less 1e-12)."""
    n_cand = len(dist)
    near = [[j for j in range(n_cand) if dist[i][j] <= eps]
            for i in range(n_cand)]
    uncovered = set(range(n_cand))
    chosen = []
    while (n_cand - len(uncovered)) / n_cand < fraction - 1e-12:
        i = min(range(n_cand),
                key=lambda c: (-sum(j in uncovered for j in near[c]),
                               tie_weights[c], c))
        chosen.append(i)
        uncovered.difference_update(near[i])
    return chosen


def random_branches(rng, degree, depth, rows=None):
    """Branch ids drawn as the former 'random' backward-orbit policy drew
    them: row by row, one int(rng.integers(degree)) per step.  Returns one
    row of `depth` ids, or a (rows, depth) array when `rows` is given."""
    def row():
        return [int(rng.integers(degree)) for _ in range(depth)]

    if rows is None:
        return np.array(row(), dtype=int).reshape(depth)
    return np.array([row() for _ in range(rows)], dtype=int).reshape(rows, depth)


@dataclass(frozen=True)
class ExtPoint:
    """A truncated backward orbit: g(coords[i+1]) = coords[i]; the one-point
    form of the references here."""

    coords: Tuple[float, ...]

    @property
    def depth(self):
        return len(self.coords) - 1


def extend_scalar(system, x, depth, policy="lex-min", rng=None, branches=None):
    """Reference backward orbit: one single-point branch solve per step."""
    coords = [float(np.asarray(x) % 1.0)]
    for i in range(depth):
        if policy == "lex-min":
            b = 0
        elif policy == "random":
            b = int(rng.integers(system.degree))
        elif policy == "given":
            b = int(branches[i])
        else:
            raise ValueError(f"unknown policy {policy!r}")
        coords.append(float(system.branch_solve(b, np.float64(coords[-1]))))
    return ExtPoint(tuple(coords))


def ext_columns(coords):
    """The columns of a (K + 1, S) coordinate array, as `extend` returns
    it, as S ExtPoints."""
    return [ExtPoint(tuple(col)) for col in coords.T.tolist()]


def ext_points(system, starts, branches):
    """The backward orbits `extend` builds for the starts, as ExtPoints."""
    return ext_columns(extend(system, starts, branches))


def ext_point(system, x, branches):
    """The backward orbit of one start, as `extend` builds it in a batch
    of one."""
    [p] = ext_points(system, [x], [branches])
    return p


def random_good_segments_scalar(system, dec, rng, count, length_range,
                                attempts=4000):
    """Reference good-segment sampler: each attempt draws x, then n, and
    classifies (x, n) on its own.  Returns (segments, attempts made) and
    raises as the CLI does when the attempts run out first."""
    from pressgap.orbits import OrbitSegment

    good = GoodCollection(dec)
    out = []
    made = 0
    for _ in range(attempts):
        if len(out) == count:
            break
        made += 1
        seg = OrbitSegment(float(rng.random()),
                           int(rng.integers(length_range[0], length_range[1] + 1)))
        if good.contains(system, seg.start, seg.length):
            out.append(seg)
    if len(out) < count:
        raise ValidationError("sigma", "could not sample enough good segments")
    return out, made


def hat_orbit_coords(system, p, steps):
    """Coordinate tuples of p, hat_g(p), ..., hat_g^steps(p).

    Forward shifts only prepend base iterates, so the whole forward orbit is
    assembled from one base orbit plus the stored history.
    """
    fwd = system.orbit(p.coords[0], steps + 1)[0]
    k1 = len(p.coords)
    out = []
    for i in range(steps + 1):
        coords = tuple(fwd[i - j] for j in range(min(i, k1 - 1) + 1))
        coords = coords + p.coords[1:k1 - (len(coords) - 1)]
        out.append(coords[:k1])
    return out


def lifted_value_scalar(phi, a, coords):
    """The lift of the circle potential phi at one coordinate tuple: its
    projection lift when a is None, else its fiber-averaged lift of base a."""
    if a is None:
        return float(phi(np.float64(coords[0])))
    c = np.asarray(coords)
    return float(np.sum(a ** -np.arange(c.size) * phi(c)))


def birkhoff_hat_scalar(system, phi, a, p, n):
    """Reference extension Birkhoff sum: the lift of phi (see
    `lifted_value_scalar`) at each of the n forward shifts of p, added one
    at a time to a total that starts at 0.0."""
    total = 0.0
    for coords in hat_orbit_coords(system, p, n - 1):
        total += lifted_value_scalar(phi, a, coords)
    return total


def _bowen_companion(system, ext_cfg, x_hat, n, eps, u, rng, sync_depth):
    """A companion in the n-Bowen ball of x_hat: base pullback through the
    segment's chain to the end point moved by eps (2u - 1), plus a fiber
    perturbation beyond the sync depth along branches drawn from rng."""
    end = system.orbit(x_hat.coords[0], n + 1)[0][-1]
    target = (end + eps * (2.0 * u - 1.0)) % 1.0
    chain = pullback_chain(system, x_hat.coords[0], n, target)
    coords = [float(chain[0])]
    for i in range(ext_cfg.depth):
        if i < sync_depth and i < x_hat.depth:
            ref = x_hat.coords[i + 1]
            z = float(system.pullback(np.float64(ref), np.float64(coords[-1])))
        else:
            b = int(rng.integers(system.degree))
            z = float(system.branch_solve(b, np.float64(coords[-1])))
        coords.append(z)
    return ExtPoint(tuple(coords))


def verify_bowen_scalar(system, ext_cfg, dec_cfg, phi_hat, eps, n_samples,
                        n_range=(5, 20), seed=0, *, phi, lift_a):
    """Reference Bowen-property sampler: one scalar draw at a time, in the
    order `verify_bowen` draws its blocks (every candidate segment, then
    each sample's x branches, then every companion uniform, then each
    sample's y branches), with each backward orbit and companion built one
    point at a time.  phi_hat is the lift of phi (projection when lift_a
    is None, else fiber-averaged of base lift_a) and gives the bound's
    Hoelder data; the sums are taken from phi and lift_a."""
    from pressgap.extension import BowenReport, bowen_bound

    rng = np.random.default_rng(seed)
    good = GoodCollection(dec_cfg)
    sync = max(4, int(math.ceil(math.log(CIRCLE_DIAMETER * 4.0 / eps)
                                / math.log(ext_cfg.a))))
    bound = bowen_bound(ext_cfg, dec_cfg, phi_hat.holder_constant,
                        phi_hat.holder_exponent, eps)
    n_hi = min(n_range[1], ext_cfg.depth)
    segments = []
    attempts = 0
    while len(segments) < n_samples and attempts < 60 * n_samples:
        attempts += 1
        x = float(rng.random())
        n = int(rng.integers(n_range[0], n_hi + 1))
        if good.contains(system, x, n):
            segments.append((x, n))
    x_hats = [extend_scalar(system, x, ext_cfg.depth, policy="random", rng=rng)
              for x, _ in segments]
    us = [float(rng.random()) for _ in segments]
    worst = 0.0
    for (_, n), x_hat, u in zip(segments, x_hats, us):
        y_hat = _bowen_companion(system, ext_cfg, x_hat, n, eps, u, rng, sync)
        diff = abs(birkhoff_hat_scalar(system, phi, lift_a, x_hat, n)
                   - birkhoff_hat_scalar(system, phi, lift_a, y_hat, n))
        worst = max(worst, diff)
    slack = 1e-9 * n_hi
    return BowenReport(empirical_max=float(worst), bound=bound,
                       truncation_slack=float(slack), samples=len(segments))


# ---------------------------------------------------------------------------
# gluing references: one arc, one time and one coordinate at a time
# ---------------------------------------------------------------------------

def arc_sup_distance(arc, point):
    """Sup over the arc [lo, lo + width] of d(point, .), from its ends."""
    lo, width = arc
    ends = circle_dist(np.array([lo % 1.0, (lo + width) % 1.0]), point)
    return float(ends.max())


def verify_shadow_loop(system, plan):
    """Reference `verify_shadow`: one arc distance per in-segment time."""
    worst = 0.0
    for j, seg in enumerate(plan.segments):
        orbit = system.orbit(seg.start, seg.length)[0]
        base = plan.offsets[j]
        for m in range(seg.length):
            worst = max(worst, arc_sup_distance(plan.arcs[base + m].tolist(), orbit[m]))
    return float(worst)


def verify_shadow_extension_loop(system, plan):
    """Reference `verify_shadow_extension`: the distance of coordinate i at
    shift m, weighted and added over i, for every (m, i) of every segment."""
    a, depth = plan.a, plan.depth
    weights = a ** -np.arange(depth + 1)
    tail = tail_bound(a, depth)
    z = ExtPoint(tuple(plan.glue_point.tolist()))
    h0 = plan.history_depths[0]
    worst = 0.0
    for j, (coords, n) in enumerate(plan.ext_segments):
        p = ExtPoint(tuple(coords.tolist()))
        ref_fwd = system.orbit(p.coords[0], n)[0]
        start = plan.offsets[j]
        for m in range(n):
            total = 0.0
            for i in range(depth + 1):
                # coordinate i of the shifted reference point
                ref = ref_fwd[m - i] if i <= m else p.coords[i - m]
                t_idx = start + m - i
                if t_idx >= 0:
                    d = arc_sup_distance(plan.arcs[t_idx].tolist(), float(ref))
                else:
                    back = h0 - t_idx  # index into the glue point's history
                    if back <= z.depth:
                        d = float(circle_dist(z.coords[back], float(ref)))
                    else:
                        d = CIRCLE_DIAMETER
                total += weights[i] * d
            worst = max(worst, total)
    return float(worst), float(tail)


def glue_extension_points(system, cfg, ext_segments, eps, a, depth):
    """Reference `glue_extension` on (ExtPoint, n) segments, through the
    package's `_glue`: the glue point is pulled back one coordinate at a
    time and extended lex-min by one branch-0 solve per coordinate.
    Returns (transition times, offsets, arcs, glue point)."""
    good = GoodCollection(cfg)
    for p, n in ext_segments:
        assert p.depth >= depth and good.contains(system, p.coords[0], n)
    delta = eps * (a - 1.0) / (2.0 * a)
    tau_sync = depth_for_tolerance(a, eps / 2.0)
    hist = [min(tau_sync, p.depth, depth) for p, _ in ext_segments]
    aug_orbits = [np.concatenate([np.array(p.coords[1:h + 1][::-1]),
                                  system.orbit(p.coords[0], n + 1)[0]])
                  for (p, n), h in zip(ext_segments, hist)]
    cap_bridge = (system.mixing_time(min(delta, system.epsilon0))
                  if len(ext_segments) > 1 else 0)
    taus, offsets, arcs = _glue(system, aug_orbits, hist, delta, cap_bridge)
    if len(ext_segments) == 1:
        z = ExtPoint(ext_segments[0][0].coords[:depth + 1])
    else:
        h0 = hist[0]
        coords = [_midpoint(arcs[h0])]
        for i in range(1, h0 + 1):
            ref = aug_orbits[0][h0 - i]
            coords.append(float(system.pullback(np.float64(ref), np.float64(coords[-1]))))
        z = ExtPoint(tuple(coords))
        while z.depth < depth:
            z = ExtPoint(z.coords + (float(system.branch_solve(0, np.float64(z.coords[-1]))),))
    return taus, offsets, arcs, z


# ---------------------------------------------------------------------------
# one-point solenoid references
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttractorPoint:
    """One depth-d approximant, the point type of the references: the row
    of an AttractorBatch as a float theta and tuples."""

    theta: float
    disk: tuple
    itinerary: tuple

    @property
    def depth(self):
        return len(self.itinerary)


def batch_rows(batch):
    """The rows of an AttractorBatch as AttractorPoints."""
    return [AttractorPoint(t, tuple(d), tuple(it)) for t, d, it in
            zip(batch.theta.tolist(), batch.disk.tolist(), batch.itinerary.tolist())]


def as_batch(points):
    """AttractorPoints of one depth as an AttractorBatch."""
    from pressgap.solenoid import AttractorBatch

    return AttractorBatch(np.array([p.theta for p in points], dtype=float),
                          np.array([p.disk for p in points], dtype=float),
                          np.array([p.itinerary for p in points], dtype=int))


def _embed(theta):
    import math

    from pressgap.maps import TWO_PI

    return math.cos(TWO_PI * theta), math.sin(TWO_PI * theta)


def apply_f_scalar(sys, p):
    """One forward step; the itinerary grows by the branch of theta."""
    u, v = p.disk
    e0, e1 = _embed(p.theta)
    branch = 0 if p.theta < 0.5 else 1
    return AttractorPoint(
        theta=float(sys.base.forward(np.float64(p.theta))),
        disk=(sys.lam_s * u + sys.offset * e0, sys.lam_s * v + sys.offset * e1),
        itinerary=(branch,) + p.itinerary)


def backward_bases_scalar(sys, theta, itinerary):
    """Backward base orbit [x_0 .. x_d] determined by the itinerary."""
    bases = [float(np.asarray(theta) % 1.0)]
    for b in itinerary:
        bases.append(float(sys.base.branch_solve(int(b), np.float64(bases[-1]))))
    return bases


def fiber_point_scalar(sys, theta, itinerary):
    """Canonical approximant over theta with the given itinerary: the fiber
    center over the deep base preimage, pushed forward depth times."""
    bases = backward_bases_scalar(sys, theta, itinerary)
    p = AttractorPoint(theta=bases[-1], disk=(0.0, 0.0), itinerary=())
    for _ in itinerary:
        p = apply_f_scalar(sys, p)
    return p


def fiber_sample_scalar(sys, y, depth, cap=1 << 16):
    """All 2^depth depth-approximant points of the fiber over y."""
    from pressgap.errors import NodeCapError, ValidationError

    if depth < 1:
        raise ValidationError("depth", "must be >= 1")
    if 2 ** depth > cap:
        raise NodeCapError(f"2^{depth} fiber points exceed cap {cap}")
    out = []
    for code in range(2 ** depth):
        itin = tuple((code >> j) & 1 for j in range(depth))
        out.append(fiber_point_scalar(sys, y, itin))
    return out


def conjugacy_h_scalar(sys, p, j_depth):
    """Conjugacy to the inverse limit: coordinate j is the base of f^-j(p)."""
    if j_depth > p.depth:
        raise ValidationError("J", "point lacks backward itinerary data "
                              f"(depth {p.depth} < J={j_depth})")
    bases = backward_bases_scalar(sys, p.theta, p.itinerary[:j_depth])
    return ExtPoint(tuple(bases))


def holonomy_scalar(sys, p, target_theta):
    """Itinerary-preserving map into the fiber over target_theta."""
    return fiber_point_scalar(sys, target_theta, p.itinerary)


def d_attractor_scalar(p, q):
    """Ambient product metric: circle distance plus planar fiber distance."""
    import math

    from pressgap.maps import circle_dist

    du = p.disk[0] - q.disk[0]
    dv = p.disk[1] - q.disk[1]
    return float(circle_dist(p.theta, q.theta)) + math.hypot(du, dv)


def metric_equivalence_scalar(sys, samples=1000, depth=16, seed=0):
    """Reference metric-equivalence bracket, one sample pair at a time."""
    from pressgap.errors import ValidationError
    from pressgap.maps import circle_dist

    if samples < 100:
        raise ValidationError("samples", "need at least 100 sample pairs")
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        itin_p = tuple(int(b) for b in rng.integers(0, 2, depth))
        itin_q = tuple(int(b) for b in rng.integers(0, 2, depth))
        th_p, th_q = rng.random(), rng.random()
        p = fiber_point_scalar(sys, th_p, itin_p)
        q = fiber_point_scalar(sys, th_q, itin_q)
        moved = holonomy_scalar(sys, p, q.theta)
        mid = float(circle_dist(p.theta, q.theta)) + d_attractor_scalar(moved, q)
        dm = d_attractor_scalar(p, q)
        if mid < 1e-15 or dm < 1e-15:
            continue
        r = dm / mid
        ratios.append(max(r, 1.0 / r))
    half = max(ratios[: len(ratios) // 2])
    return float(half), float(max(ratios))


def attractor_bowen_check_scalar(sys, dec_cfg, phi, holder_constant,
                                 holder_exponent, eps, n_samples=200,
                                 n_range=(6, 16), depth_pad=8, seed=0):
    """Reference attractor Bowen check: each attempt's points, companion
    chain and forward orbits are built one point at a time, interleaved
    with the random draws, and `phi` takes one point's theta and disk
    coordinates at a time."""
    import math

    from pressgap.errors import ValidationError
    from pressgap.maps import TWO_PI
    from pressgap.solenoid import AttractorBowenReport, attractor_bowen_bound

    rng = np.random.default_rng(seed)
    lam = sys.lam_s
    bound = attractor_bowen_bound(sys, dec_cfg, holder_constant,
                                  holder_exponent, eps)
    worst = 0.0
    ratio_max = 0.0
    used = 0
    attempts = 0
    while used < n_samples and attempts < 50 * n_samples:
        attempts += 1
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        depth = n + depth_pad
        x = float(rng.random())
        itin = tuple(int(b) for b in rng.integers(0, 2, depth))
        p = fiber_point_scalar(sys, x, itin)
        # base companion through the contracting chain, fiber offset on top
        endpoint = (sys.base.orbit(x, n + 1)[0][-1]
                    + eps * 0.35 * (2.0 * rng.random() - 1.0)) % 1.0
        chain = pullback_chain(sys.base, x, n, endpoint)
        q = fiber_point_scalar(sys, float(chain[0]), itin)
        ang = TWO_PI * rng.random()
        rad = eps * 0.5 * rng.random()
        q = AttractorPoint(q.theta, (q.disk[0] + rad * math.cos(ang),
                                     q.disk[1] + rad * math.sin(ang)), q.itinerary)
        # forward distances; membership in the eps-Bowen ball is required
        ps, qs = p, q
        dists = []
        ok = True
        for i in range(n):
            d = d_attractor_scalar(ps, qs)
            dists.append(d)
            if d > eps:
                ok = False
                break
            ps, qs = apply_f_scalar(sys, ps), apply_f_scalar(sys, qs)
        if not ok:
            continue
        var = 0.0
        ps, qs = p, q
        for i in range(n):
            var += phi(ps.theta, *ps.disk) - phi(qs.theta, *qs.disk)
            ratio_max = max(ratio_max, dists[i] /
                            (eps * dec_cfg.sigma ** (n - i) + lam**i * eps))
            ps, qs = apply_f_scalar(sys, ps), apply_f_scalar(sys, qs)
        worst = max(worst, abs(var))
        used += 1
    if used == 0:
        raise ValidationError("n_samples", "no admissible Bowen companions found")
    return AttractorBowenReport(empirical_max=float(worst), bound=bound,
                                two_term_max_ratio=float(ratio_max), samples=used)


def _power_iterate(apply_fn, size, tol, max_iters):
    psi = np.ones(size)
    rq_prev = np.inf
    for it in range(1, max_iters + 1):
        nxt = apply_fn(psi)
        if np.any(nxt <= 0.0):
            raise ConvergenceError("power iteration lost positivity")
        rq = float(nxt @ psi / (psi @ psi))
        psi = nxt / np.linalg.norm(nxt)
        if abs(rq - rq_prev) < tol:
            return psi, rq, it
        rq_prev = rq
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations (last Rayleigh step "
        f"{abs(rq - rq_prev):.3g}); spectral gap may be absent at this scale")


def leading_eigen_power(op, tol=1e-13, max_iters=20000):
    """Leading eigendata of the operator by forward and adjoint power
    iteration from the constant vector, stopping when successive Rayleigh
    quotients differ by less than `tol`."""
    if tol <= 0:
        raise ValidationError("tol", "must be positive")
    h, lam, it_f = _power_iterate(lambda v: apply_operator(op, v), op.size,
                                  tol, max_iters)
    nu, lam_adj, it_a = _power_iterate(lambda v: apply_adjoint(op, v), op.size,
                                       tol, max_iters)
    h = h / h.max()
    nu = nu / nu.sum()
    dens = h * nu
    dens = dens / dens.sum()
    residual = float(np.max(np.abs(apply_operator(op, h) - lam * h)))
    return EigenData(lam=lam, log_lam=float(np.log(lam)), eigenfunction=h,
                     eigenmeasure=nu, equilibrium_density=dens,
                     iterations=it_f + it_a, residual=residual)


@dataclass(frozen=True)
class EquilibriumReport:
    invariance_defect: float
    pressure_match: float


def check_equilibrium(system, op, eigen, test_functions, pressure_rate=None):
    """Invariance defect of the discrete equilibrium density of `system`'s
    grid operator, and the match between log lambda and an externally
    supplied pressure rate."""
    mu = eigen.equilibrium_density
    gx = system.forward(op.nodes)
    defect = 0.0
    for psi in test_functions:
        fwd = float(np.sum(mu * psi(gx)))
        here = float(np.sum(mu * psi(op.nodes)))
        defect = max(defect, abs(fwd - here))
    match = (float("nan") if pressure_rate is None
             else abs(eigen.log_lam - pressure_rate))
    return EquilibriumReport(invariance_defect=defect, pressure_match=match)


# Arnoldi basis dimension of the single-vector restart
_SINGLE_KRYLOV_DIM = 10


def krylov_start_single(apply, basis, tol, budget):
    """Unit vector near the leading eigenvector, by restarted Arnoldi.

    Starts from the normalized constant vector.  Each cycle applies the
    operator to its unit start vector x, which is both the stopping test,
    ||L x - theta x||_2 <= tol * theta with theta = x . L x, and the first
    Arnoldi step.  It fills up to _SINGLE_KRYLOV_DIM rows of `basis` by
    classical Gram-Schmidt applied twice and restarts from the real part of
    the Ritz vector of the rightmost Ritz value, its sign chosen so that its
    entries sum to a positive number.  Returns the vector and the number of
    applications made.
    """
    size = basis.shape[1]
    x = np.full(size, 1.0 / math.sqrt(size))
    hess = np.zeros((_SINGLE_KRYLOV_DIM, _SINGLE_KRYLOV_DIM))
    used = 0
    while True:
        if used >= budget:
            raise ConvergenceError(
                f"no convergence in {budget} operator applications (last "
                f"Krylov residual {res:.3g}); spectral gap may be absent "
                f"at this scale")
        w = apply(x)
        used += 1
        theta = _dot(w, x)
        res = _norm(w - theta * x) / abs(theta)
        if res <= tol:
            return x, used
        basis[0] = x
        hess[:] = 0.0
        dim = _SINGLE_KRYLOV_DIM
        for j in range(_SINGLE_KRYLOV_DIM):
            if j > 0:
                if used >= budget:
                    dim = j
                    break
                w = apply(basis[j])
                used += 1
            w_norm = _basis_norm(w)
            v = basis[:j + 1]
            c = np.einsum("ij,j->i", v, w)
            w -= np.einsum("i,ij->j", c, v)
            c2 = np.einsum("ij,j->i", v, w)
            w -= np.einsum("i,ij->j", c2, v)
            hess[:j + 1, j] = c + c2
            beta = _basis_norm(w)
            if beta <= _BREAKDOWN * w_norm:
                dim = j + 1
                break
            if j + 1 < _SINGLE_KRYLOV_DIM:
                hess[j + 1, j] = beta
                np.divide(w, beta, out=basis[j + 1])
        vals, vecs = np.linalg.eig(hess[:dim, :dim])
        x = np.einsum("i,ij->j", vecs[:, np.argmax(vals.real)].real,
                      basis[:dim])
        x /= math.copysign(_norm(x), x.sum())


def leading_eigen_single_restart(op):
    """Leading eigendata as `transfer.leading_eigen` computes them, with
    `krylov_start_single` in place of the thick-restart start."""
    basis = np.empty((_SINGLE_KRYLOV_DIM, op.size))
    sides = []
    for apply in (lambda v: apply_operator(op, v),
                  lambda v: apply_adjoint(op, v)):
        x, used = krylov_start_single(apply, basis, _TOL, _MAX_APPLICATIONS)
        sides.append((*_power_finish(apply, np.abs(x), None, _TOL,
                                     _MAX_APPLICATIONS - used), used))
    (h, image, lam, it_f, used_f), (nu, _, _, it_a, used_a) = sides
    scale = h.max()
    residual = float(np.max(np.abs(image - lam * h))) / scale
    h = h / scale
    nu = nu / nu.sum()
    dens = h * nu
    dens = dens / dens.sum()
    return EigenData(lam=lam, log_lam=float(np.log(lam)), eigenfunction=h,
                     eigenmeasure=nu, equilibrium_density=dens,
                     iterations=it_f + used_f + it_a + used_a,
                     residual=residual)


# ---------------------------------------------------------------------------
# one-segment and one-point helpers that no package code calls
# ---------------------------------------------------------------------------

def birkhoff_sum(system, phi, seg):
    """Sum of phi along the first `seg.length` iterates of `seg.start`."""
    orbit = system.orbit(seg.start, seg.length)[0]
    return float(np.sum(phi(orbit)))


def bowen_distance(system, x, y, n):
    """max over 0 <= k < n of d(g^k x, g^k y)."""
    if n < 1:
        raise ValidationError("n", "Bowen metric needs n >= 1")
    ox = system.orbit(x, n)[0]
    oy = system.orbit(y, n)[0]
    return float(np.max(circle_dist(ox, oy)))


def separated_set(system, coll, n, eps):
    """Greedy maximal (n, eps)-separated subset of the collection's
    cylinder-tree pool, in selection order, picked by the package's kernel
    as `partition_sum_sep` picks it for the zero potential (address
    order)."""
    points, orbits, _, order, pairs = _candidate_pool(
        system, coll, n, eps, zero_potential(), DEFAULT_ANCHOR)
    if points.size == 0:
        return np.empty(0)
    keep = kernels.greedy_separated(orbits, order, pairs)
    return points[order][keep[order]]


def suffix_means(logs):
    """Trailing-window means: out[j] = mean(logs[j:]), along the last axis."""
    logs = np.asarray(logs, dtype=float)
    n = logs.shape[-1]
    tail_sums = np.cumsum(logs[..., ::-1], axis=-1)[..., ::-1]
    return tail_sums / np.arange(n, 0, -1)


def in_sigma_window(system, cfg, x, j, n):
    """True iff the trailing average over [j, n) beats log sigma."""
    if not 0 <= j <= n - 1:
        raise ValidationError("j", "window index must satisfy 0 <= j <= n-1")
    logs = segment_log_sigma(system, x, n)[0]
    return bool(np.mean(logs[j:]) < cfg.log_sigma)


class Classification(enum.Enum):
    GOOD = "good"
    BAD = "bad"
    NEITHER = "neither"


def classify_logs(logs, log_sigma):
    """Good when every trailing window beats log sigma, bad when the full
    window fails it, else neither."""
    means = suffix_means(logs)
    if np.all(means < log_sigma):
        return Classification.GOOD
    if means[0] >= log_sigma:
        return Classification.BAD
    return Classification.NEITHER


def classify_segment(system, cfg, seg):
    """Good / bad / neither status of one segment (mutually exclusive)."""
    logs = segment_log_sigma(system, seg.start, seg.length)[0]
    return classify_logs(logs, cfg.log_sigma)


@dataclass(frozen=True)
class Decomposition:
    """Lengths of the (prefix, good, bad) split; the prefix is trivial here."""

    g_len: int
    s_len: int
    p_len: int = 0

    @property
    def total(self):
        return self.p_len + self.g_len + self.s_len


def decompose(system, cfg, seg):
    """Split (x, n) into a good prefix and bad suffix at the first bad-suffix
    index; either part may be empty."""
    logs = segment_log_sigma(system, seg.start, seg.length)[0]
    m = int(split_indices(logs[None], [seg.length], cfg.log_sigma)[0])
    return Decomposition(g_len=m, s_len=seg.length - m)


def pullback_chain(system, x, n, endpoint):
    """Pull `endpoint` (near g^n x) back along the inverse-branch chain
    through the orbit of x; returns z_0..z_n with g(z_k) = z_{k+1}."""
    orbit = system.orbit(x, n + 1)[0]
    chain = np.empty(n + 1)
    chain[n] = endpoint % 1.0
    for k in range(n - 1, -1, -1):
        chain[k] = system.pullback(orbit[k], chain[k + 1])
    return chain


def contraction_profile(system, x, n, endpoint):
    """Distances d(g^k x, z_k) of the pullback chain to the reference orbit."""
    orbit = system.orbit(x, n + 1)[0]
    chain = pullback_chain(system, x, n, endpoint)
    return circle_dist(orbit, chain)


def hat_g(system, p):
    """Forward shift: prepend g(x_0), drop the deepest coordinate."""
    new0 = float(system.forward(np.float64(p.coords[0])))
    return ExtPoint((new0,) + p.coords[:-1])


def hat_g_inverse(system, p, policy="lex-min", rng=None, branch=None):
    """Inverse shift: drop x_0, extend the tail by one coordinate."""
    if branch is not None:
        tail = float(system.branch_solve(int(branch), np.float64(p.coords[-1])))
    elif policy == "lex-min":
        tail = float(system.branch_solve(0, np.float64(p.coords[-1])))
    elif policy == "random":
        tail = float(system.branch_solve(int(rng.integers(system.degree)),
                                         np.float64(p.coords[-1])))
    else:
        raise ValidationError("policy", f"unknown policy {policy!r}")
    return ExtPoint(p.coords[1:] + (tail,))


def hat_distance(cfg, p, q):
    """Truncated metric sum and its rigorous tail bound.

    The true distance lies in [truncated, truncated + tail_bound].
    """
    if p.depth != q.depth:
        raise ValidationError("depth", "extension points must share depth")
    weights = cfg.a ** -np.arange(p.depth + 1)
    trunc = float(np.sum(weights * circle_dist(np.asarray(p.coords),
                                               np.asarray(q.coords))))
    return trunc, tail_bound(cfg.a, p.depth)
