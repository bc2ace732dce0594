"""Solid-torus skew product over the doubling map: the solenoid attractor.

Points of the attractor are represented by finite-depth approximants that
carry their backward base itinerary explicitly, which makes fibers,
holonomies, and the conjugacy to the inverse-limit extension computable
without root-finding inside the Cantor fiber.  Every function takes and
returns points as an AttractorBatch of rows, a single point being a batch
of one.  The ambient metric is the sum of the circle metric and the planar
fiber distance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import pull_back_ends
from .errors import NodeCapError, ValidationError
from .extension import extend
from .maps import TWO_PI, circle_dist, doubling

# largest fiber sample (2^depth points) that fiber_sample builds
FIBER_CAP = 1 << 16

# itinerary depth of the points metric_equivalence samples
_EQUIV_DEPTH = 12

# segment lengths attractor_bowen_check samples, and the itinerary depth its
# points carry beyond the segment length
_LENGTH_RANGE = (6, 16)
_DEPTH_PAD = 8


@dataclass(frozen=True)
class SolenoidSystem:
    """f(theta, v) = (2 theta mod 1, lam_s v + offset * e(theta)).

    lam_s must undercut every base inverse-branch contraction (1/2 for the
    doubling base), lam_s + offset <= 1 keeps the image in the torus, and
    offset > lam_s keeps f injective: the two preimage fibers of a circle
    point map to disks of radius lam_s whose centres are 2 offset apart.
    """

    lam_s: float = 0.25
    offset: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.lam_s < 0.5:
            raise ValidationError("lam_s", "fiber contraction must lie in (0, 1/2)")
        if self.lam_s + self.offset > 1.0 + 1e-12:
            raise ValidationError("offset", "need lam_s + offset <= 1")
        if not self.offset > self.lam_s:
            raise ValidationError(
                "offset", f"need offset > lam_s = {self.lam_s!r}, or the images "
                          "of the two preimage fibers overlap")
        object.__setattr__(self, "base", doubling())


@dataclass(frozen=True)
class AttractorBatch:
    """Rows of depth-d approximants of attractor points: `theta` (S,),
    `disk` (S, 2) and `itinerary` (S, d).

    `itinerary[i, j]` is the base branch of row i's (j+1)-st backward step,
    so its backward base orbit is reconstructible and two rows are on the
    same local stable leaf exactly when their itineraries agree.
    """

    theta: np.ndarray
    disk: np.ndarray
    itinerary: np.ndarray

    @property
    def depth(self):
        return self.itinerary.shape[1]

    def __len__(self):
        return self.theta.size


def _step(sys, theta, u, v):
    """f on arrays: (g(theta), lam_s (u, v) + offset e(theta))."""
    turn = TWO_PI * theta
    return (sys.base.forward(theta), sys.lam_s * u + sys.offset * np.cos(turn),
            sys.lam_s * v + sys.offset * np.sin(turn))


def _branch(theta):
    """Base branch of each theta: 0 below 1/2, else 1."""
    return np.where(theta < 0.5, 0, 1)


def apply_f(sys, p):
    """One forward step of every row; each itinerary grows by one column
    in front, the branch of its row's theta."""
    theta, u, v = _step(sys, p.theta, p.disk[:, 0], p.disk[:, 1])
    return AttractorBatch(theta, np.column_stack([u, v]),
                          np.column_stack([_branch(p.theta), p.itinerary]))


def fiber_point(sys, thetas, itineraries):
    """Canonical approximants over the S thetas with the (S, d)
    itineraries: the fiber centre over the deep base preimage, pushed
    forward d times.  The backward bases take one root solve per depth
    step, and the push forward is d steps over all rows.
    """
    itin = np.asarray(itineraries, dtype=int)
    depth = itin.shape[1]
    cur = extend(sys.base, thetas, itin)[-1]
    u = np.zeros_like(cur)
    v = np.zeros_like(cur)
    grown = np.empty_like(itin)
    for k in range(depth):
        grown[:, depth - 1 - k] = _branch(cur)
        cur, u, v = _step(sys, cur, u, v)
    return AttractorBatch(cur, np.column_stack([u, v]), grown)


def check_fiber_depth(depth):
    """Raise unless a fiber sample of 2^depth points is allowed."""
    if depth < 1:
        raise ValidationError("depth", "must be >= 1")
    if 2 ** depth > FIBER_CAP:
        raise NodeCapError(f"2^{depth} fiber points exceed cap {FIBER_CAP}")


def fiber_sample(sys, y, depth):
    """The 2^depth depth-approximant points of the fiber over y as one
    batch, in the order of their itineraries read as binary codes, bit j
    at step j."""
    check_fiber_depth(depth)
    codes = np.arange(2 ** depth)
    bits = (codes[:, None] >> np.arange(depth)) & 1
    return fiber_point(sys, np.full(codes.size, y, dtype=float), bits)


def conjugacy_h(sys, p, j_depth):
    """Conjugacy to the inverse limit: coordinate j of column i is the base
    of f^-j of row i, so the result is `extend`'s (J + 1, S) array."""
    if j_depth > p.depth:
        raise ValidationError("J", "point lacks backward itinerary data "
                              f"(depth {p.depth} < J={j_depth})")
    return extend(sys.base, p.theta, p.itinerary[:, :j_depth])


def holonomy(sys, p, target_thetas):
    """Itinerary-preserving map of each row into the fiber over its target
    theta."""
    return fiber_point(sys, target_thetas, p.itinerary)


def d_attractor(p, q):
    """Ambient product metric, row by row: circle distance plus planar
    fiber distance."""
    diff = p.disk - q.disk
    return _metric(p.theta, q.theta, diff[:, 0], diff[:, 1])


def _metric(theta_p, theta_q, du, dv):
    """d_attractor from the thetas and the disk differences, elementwise.
    The planar part is math.hypot of each pair, which np.hypot does not
    round the same way on every pair."""
    planar = list(map(math.hypot, np.ravel(du).tolist(), np.ravel(dv).tolist()))
    return circle_dist(theta_p, theta_q) + np.reshape(planar, np.shape(du))


def metric_equivalence(sys, samples=1000, seed=0):
    """Empirical bracket for the constant comparing the ambient metric with
    base-distance plus holonomy-matched fiber distance, on points of
    itinerary depth _EQUIV_DEPTH.

    Each sampled pair (p, q) yields the ratio d_M(p,q) against
    d_X(pi p, pi q) + d_M(h(p), q) with h the itinerary-matched holonomy;
    the bracket is (max over the first half, max over all) of
    max(ratio, 1/ratio), so stability under sample growth is visible.
    All pairs are drawn first, pair by pair, and then built together.
    """
    if samples < 100:
        raise ValidationError("samples", "need at least 100 sample pairs")
    depth = _EQUIV_DEPTH
    rng = np.random.default_rng(seed)
    draws = [(rng.integers(0, 2, depth), rng.integers(0, 2, depth), rng.random(2))
             for _ in range(samples)]
    itin_p, itin_q, thetas = (np.array(col).reshape(samples, -1) for col in zip(*draws))
    p = fiber_point(sys, thetas[:, 0], itin_p)
    q = fiber_point(sys, thetas[:, 1], itin_q)
    moved = holonomy(sys, p, q.theta)
    mid = circle_dist(p.theta, q.theta) + d_attractor(moved, q)
    dm = d_attractor(p, q)
    keep = ~((mid < 1e-15) | (dm < 1e-15))
    r = dm[keep] / mid[keep]
    ratios = np.maximum(r, 1.0 / r)
    return float(np.max(ratios[: ratios.size // 2])), float(np.max(ratios))


@dataclass(frozen=True)
class AttractorBowenReport:
    empirical_max: float
    bound: float
    two_term_max_ratio: float
    samples: int

    @property
    def within_bound(self):
        return self.empirical_max <= self.bound


def attractor_bowen_bound(sys, dec_cfg, holder_constant, holder_exponent, eps):
    """Closed-form cap for the Birkhoff variation over attractor Bowen balls
    of good segments: sum of C0 eps^alpha (sigma^(n-i) + lam^i)^alpha."""
    sigma, lam, alpha = dec_cfg.sigma, sys.lam_s, holder_exponent
    s_a, l_a = sigma**alpha, lam**alpha
    return float(holder_constant * eps**alpha * (s_a / (1.0 - s_a) + 1.0 / (1.0 - l_a)))


def attractor_bowen_check(sys, dec_cfg, phi, holder_constant, holder_exponent,
                          eps, n_samples=200, seed=0):
    """Sample good attractor segments, build Bowen-ball companions, and
    return the empirical max Birkhoff variation against the closed-form cap.

    `phi` maps arrays of theta and of the two disk coordinates to the
    potential's value at each point.  Segment lengths are drawn from
    _LENGTH_RANGE, and each point carries _DEPTH_PAD itinerary steps beyond
    its segment.  Companions share the reference itinerary (transported
    along the base pullback) and carry a small fiber offset; companions
    leaving the eps-Bowen ball are rejected.  The per-step two-term estimate
    eps sigma^(n-i) + lam^i eps is reported as a max ratio: the constant it
    hides is the metric-equivalence factor, so ratios slightly above 1 near
    the segment end are expected and only the summed variation is gated.

    Every attempt makes the same draws whatever its outcome, so attempts
    are drawn in order, a chunk at a time, and each chunk is built together
    (`_bowen_chunk`).  Samples are accepted in attempt order until
    `n_samples` are in or 50 n_samples attempts are made, and `phi` is
    evaluated on the forward orbits of each chunk's accepted samples.  Each
    sample's variation adds its n differences left to right from 0.0.
    """
    rng = np.random.default_rng(seed)
    lam = sys.lam_s
    bound = attractor_bowen_bound(sys, dec_cfg, holder_constant,
                                  holder_exponent, eps)
    cap = 50 * n_samples
    worst = 0.0
    ratio_max = 0.0
    used = 0
    attempts = 0
    while used < n_samples and attempts < cap:
        # attempts for the samples still needed at the acceptance rate so
        # far, doubling while none is accepted
        need = n_samples - used
        if not attempts:
            size = need
        elif not used:
            size = attempts
        else:
            size = -(-need * attempts // used)
        size = min(size, cap - attempts)
        attempts += size
        draws = [_bowen_draws(rng) for _ in range(size)]
        for n, dists, p_values, q_values in _bowen_chunk(sys, eps, draws, need, phi):
            var = 0.0
            for i in range(n):
                var += p_values[i] - q_values[i]
                ratio_max = max(ratio_max, dists[i] /
                                (eps * dec_cfg.sigma ** (n - i) + lam**i * eps))
            worst = max(worst, abs(var))
            used += 1
    if used == 0:
        raise ValidationError("n_samples", "no admissible Bowen companions found")
    return AttractorBowenReport(empirical_max=float(worst), bound=bound,
                                two_term_max_ratio=float(ratio_max), samples=used)


def _bowen_draws(rng):
    """One attempt's draws: length n, base point x, the itinerary of depth
    n + _DEPTH_PAD, then the uniforms for the end-point shift, the fiber
    offset angle and its radius."""
    n_lo, n_hi = _LENGTH_RANGE
    n = int(rng.integers(n_lo, n_hi + 1))
    x = rng.random()
    itin = rng.integers(0, 2, n + _DEPTH_PAD)
    return (n, x, itin, *rng.random(3))


def _bowen_chunk(sys, eps, draws, limit, phi):
    """Yield the first `limit` admissible attempts among `draws`, in order:
    for each, its length n, the n distances along the forward orbits of the
    reference point p and its companion q, and phi's n values along each
    orbit.

    q sits over the time-0 end of the base chain that pulls g^n x, shifted
    by eps 0.35 (2u - 1), back along the orbit of x, with p's itinerary, and
    is then moved in the fiber by radius eps r / 2 at angle 2 pi a.
    """
    ns, xs, itins, shift, angle, radius = zip(*draws)
    ns, xs, shift, angle, radius = map(np.array, (ns, xs, shift, angle, radius))
    rows = ns.size
    orbit = sys.base.orbit(xs, int(ns.max()) + 1)
    starts = pull_back_ends(sys.base, orbit, ns, eps * 0.35 * (2.0 * shift - 1.0))
    # p in rows [0, rows), q in rows [rows, 2 rows); one build per depth
    theta = np.empty(2 * rows)
    u = np.empty(2 * rows)
    v = np.empty(2 * rows)
    depths = np.array([len(it) for it in itins])
    for depth in np.unique(depths).tolist():
        group = np.flatnonzero(depths == depth)
        block = np.array([itins[i] for i in group]).reshape(group.size, depth)
        pts = fiber_point(sys, np.concatenate([xs[group], starts[group]]),
                          np.vstack([block, block]))
        both = np.concatenate([group, group + rows])
        theta[both], u[both], v[both] = pts.theta, pts.disk[:, 0], pts.disk[:, 1]
    angle = TWO_PI * angle
    radius = eps * 0.5 * radius
    u[rows:] = u[rows:] + radius * np.cos(angle)
    v[rows:] = v[rows:] + radius * np.sin(angle)
    # forward orbits, one step over all rows at a time
    steps = int(ns.max())
    thetas, us, vs = (np.empty((steps, 2 * rows)) for _ in range(3))
    for i in range(steps):
        thetas[i], us[i], vs[i] = theta, u, v
        if i + 1 < steps:
            theta, u, v = _step(sys, theta, u, v)
    p, q = slice(0, rows), slice(rows, None)
    dists = _metric(thetas[:, p], thetas[:, q], us[:, p] - us[:, q], vs[:, p] - vs[:, q])
    # membership in the eps-Bowen ball is required up to each row's n
    outside = (dists > eps) & (np.arange(steps)[:, None] < ns)
    keep = np.flatnonzero(~outside.any(axis=0))[:limit]
    cols = np.concatenate([keep, keep + rows])
    values = np.asarray(phi(thetas[:, cols], us[:, cols], vs[:, cols]))
    for k, r in enumerate(keep.tolist()):
        n = int(ns[r])
        yield (n, dists[:n, r].tolist(), values[:n, k].tolist(),
               values[:n, k + keep.size].tolist())
