"""The inverse-limit extension: truncated backward orbits, the weighted
metric, lifted potentials, and the uniform Bowen-variation bound.

Points of the extension are truncated backward orbits (x_0, ..., x_K); the
metric weights coordinate distances by a^-n for a base a > 1.  Truncation at
depth K is rigorous through an explicit tail bound, reported alongside every
truncated distance.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ValidationError
from .maps import CIRCLE_DIAMETER, circle_dist


@dataclass(frozen=True)
class ExtensionConfig:
    """Metric base a > 1 and truncation depth K."""

    a: float
    depth: int

    def __post_init__(self):
        if self.a <= 1.0:
            raise ValidationError("a", "metric base must exceed 1")
        if self.depth < 0:
            raise ValidationError("depth", "truncation depth must be >= 0")

    @property
    def tail_bound(self):
        return tail_bound(self.a, self.depth)


def tail_bound(a, depth):
    """Bound on what the coordinates from `depth` down add to the weighted
    metric: the sum over i >= depth of diam * a^-i."""
    return CIRCLE_DIAMETER * a ** (-depth) * a / (a - 1.0)


def depth_for_tolerance(a, tol):
    """Smallest truncation depth whose tail bound sits below `tol`; it is
    also the time after which forward shifts contract a fiber below `tol`."""
    if a <= 1.0:
        raise ValidationError("a", "metric base must exceed 1")
    if tol <= 0.0:
        raise ValidationError("tol", "must be positive")
    depth = max(0, math.ceil(math.log(tail_bound(a, 0) / tol) / math.log(a)))
    while depth > 0 and tail_bound(a, depth - 1) < tol:
        depth -= 1      # the log estimate may overshoot by rounding
    while tail_bound(a, depth) >= tol:
        depth += 1
    return depth


@dataclass(frozen=True)
class ExtPoint:
    """A truncated backward orbit: g(coords[i+1]) = coords[i]."""

    coords: Tuple[float, ...]

    @property
    def depth(self):
        return len(self.coords) - 1

    @property
    def base(self):
        return self.coords[0]


def extend(system, x, depth, policy="lex-min", rng=None, branches=None):
    """Build a backward orbit of the given depth starting at x.

    Policies: 'lex-min' always takes branch 0, 'random' draws branches from
    `rng`, 'given' follows the explicit `branches` list.  A vector of starts
    gives one ExtPoint per start, built together with one root solve per
    (step, branch); 'random' then draws row by row, and 'given' takes one
    row of `branches` per start.
    """
    if depth < 0:
        raise ValidationError("depth", "must be >= 0")
    starts = np.asarray(x, dtype=float) % 1.0
    rows = starts.size
    if policy == "lex-min":
        chosen = np.zeros((rows, depth), dtype=int)
    elif policy == "random":
        if rng is None:
            raise ValidationError("rng", "random policy needs a generator")
        chosen = np.array([[int(rng.integers(system.degree)) for _ in range(depth)]
                           for _ in range(rows)], dtype=int).reshape(rows, depth)
    elif policy == "given":
        chosen = np.asarray(branches if depth else [], dtype=int)
        chosen = chosen[..., :depth].reshape(rows, depth)
    else:
        raise ValidationError("policy", f"unknown policy {policy!r}")
    # one contiguous row per depth, so every solve sees contiguous input
    coords = np.empty((depth + 1, rows))
    coords[0] = starts
    for i in range(depth):
        coords[i + 1] = _branch_step(system, coords[i], chosen[:, i])
    points = [ExtPoint(tuple(col)) for col in coords.T.tolist()]
    return points if starts.ndim else points[0]


def _branch_step(system, y, branch):
    """Preimages of the points `y` under their own `branch` ids."""
    out = np.empty_like(y)
    for b in range(system.degree):
        rows = branch == b
        if rows.any():
            out[rows] = system.branch_solve(b, y[rows])
    return out


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


def hat_orbit_coords(system, p, steps):
    """Coordinate arrays of p, hat_g(p), ..., hat_g^steps(p).

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


# ---------------------------------------------------------------------------
# lifted potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionPotential:
    """A potential on extension points with derived Hoelder data."""

    mode: str
    evaluate: callable
    holder_constant: float
    holder_exponent: float
    sup_norm: float
    base: object = None      # the circle potential the lift was built from
    a: float = 0.0           # coordinate weight base for fiber-averaged lifts
    name: str = "lifted"

    def __call__(self, p):
        return self.evaluate(p)


def lift_projection(phi):
    """phi composed with the base projection; Hoelder data is inherited
    because the projection is 1-Lipschitz."""
    def evaluate(p):
        return float(phi(np.float64(p.coords[0])))

    xs = np.linspace(0.0, 1.0, 2048, endpoint=False)
    sup = float(np.max(np.abs(phi(xs))))
    return ExtensionPotential(mode="projection", evaluate=evaluate,
                              holder_constant=phi.holder_constant,
                              holder_exponent=phi.holder_exponent,
                              sup_norm=sup, base=phi, name=f"proj[{phi.name}]")


def lift_fiber_averaged(psi, a):
    """Genuinely extension-dependent lift: sum of a^-k psi(x_k) over the
    stored coordinates, with constant C_psi a/(a-1) at the same exponent."""
    if a <= 1.0:
        raise ValidationError("a", "metric base must exceed 1")

    def evaluate(p):
        coords = np.asarray(p.coords)
        return float(np.sum(a ** -np.arange(coords.size) * psi(coords)))

    xs = np.linspace(0.0, 1.0, 2048, endpoint=False)
    sup = float(np.max(np.abs(psi(xs)))) * a / (a - 1.0)
    return ExtensionPotential(mode="fiber-averaged", evaluate=evaluate,
                              holder_constant=psi.holder_constant * a / (a - 1.0),
                              holder_exponent=min(psi.holder_exponent, 1.0),
                              sup_norm=sup, base=psi, a=float(a),
                              name=f"fiber[{psi.name}]")


def as_base_potential(system, phi_hat, depth):
    """Push a lifted potential down to the circle for pressure estimation.

    Projection lifts evaluate through the base potential exactly.  For
    fiber-averaged lifts the lifted value is taken on the lex-min backward
    extension of each point (a declared, deterministic policy), vectorized
    through depth branch-0 pullbacks.
    """
    from .maps import Potential

    if phi_hat.mode == "projection":
        return phi_hat.base
    psi, a = phi_hat.base, phi_hat.a

    def fn(x):
        cur = np.asarray(x, dtype=float) % 1.0
        total = psi(cur).astype(float)
        for k in range(1, depth + 1):
            cur = system.branch_solve(0, cur)
            total = total + a ** (-k) * psi(cur)
        return total

    return Potential(fn, phi_hat.holder_constant, phi_hat.holder_exponent,
                     name=f"{phi_hat.name}@lex-min")


def birkhoff_hat(system, phi_hat, p, n):
    """Sum of the lifted potential along n forward shifts of p."""
    total = 0.0
    for coords in hat_orbit_coords(system, p, n - 1):
        total += phi_hat(ExtPoint(coords))
    return total


# ---------------------------------------------------------------------------
# Bowen property on good extension segments
# ---------------------------------------------------------------------------

def bowen_bound(ext_cfg, dec_cfg, holder_constant, holder_exponent, eps):
    """n-free upper bound for the Birkhoff-sum variation over Bowen balls of
    good extension segments.

    The i-th shift distance is at most c(eps) (sigma^(n-i) + a^-i) with
    c(eps) = eps * max(a/(a - sigma), 1); summing the alpha-powers gives
    C * c^alpha * (sigma^alpha / (1 - sigma^alpha) + 1 / (1 - a^-alpha)).
    """
    if eps <= 0:
        raise ValidationError("eps", "must be positive")
    a, sigma, alpha = ext_cfg.a, dec_cfg.sigma, holder_exponent
    c_eps = eps * max(a / (a - sigma), 1.0)
    s_a, a_a = sigma**alpha, a ** -alpha
    return float(holder_constant * c_eps**alpha * (s_a / (1.0 - s_a) + 1.0 / (1.0 - a_a)))


@dataclass(frozen=True)
class BowenReport:
    empirical_max: float
    bound: float
    truncation_slack: float
    samples: int

    @property
    def within_bound(self):
        return self.empirical_max <= self.bound + self.truncation_slack


def _bowen_companions(system, x_hats, ns, draws, eps, sync_depth, branches):
    """Companions in the n-Bowen balls of the `x_hats`: each segment's end
    point, moved by eps (2u - 1) for its uniform draw u in `draws`, is
    pulled back through the segment's chain, then along x_hat's own local
    inverses down to the sync depth and through the given `branches` below
    it."""
    depth = x_hats[0].depth
    cut = min(sync_depth, depth)
    ref = np.array([p.coords for p in x_hats]).T.copy()   # one row per depth
    ns = np.asarray(ns)
    orbit = system.orbit(ref[0], int(ns.max()) + 1)
    rows = np.arange(ns.size)
    # the end point reduced twice, as the scalar pullback chain did
    cur = ((orbit[rows, ns] + eps * (2.0 * np.asarray(draws) - 1.0)) % 1.0) % 1.0
    # chains aligned at their end times; step j pulls back time n - 1 - j
    for j in range(int(ns.max())):
        act = np.flatnonzero(ns > j)
        cur[act] = system.pullback(orbit[act, ns[act] - 1 - j], cur[act])
    coords = np.empty((depth + 1, ns.size))
    coords[0] = cur
    for i in range(cut):
        coords[i + 1] = system.pullback(ref[i + 1], coords[i])
    tail = np.asarray(branches, dtype=int).reshape(ns.size, depth - cut)
    for i in range(cut, depth):
        coords[i + 1] = _branch_step(system, coords[i], tail[:, i - cut])
    return [ExtPoint(tuple(col)) for col in coords.T.tolist()]


def verify_bowen(system, ext_cfg, dec_cfg, phi_hat, eps, n_samples,
                 n_range=(5, 20), seed=0):
    """Empirical max of |S_n phi_hat(x) - S_n phi_hat(y)| over sampled good
    segments and constructed Bowen-ball companions.

    Every random draw is made first, sample by sample; then the backward
    orbits and companions of all accepted samples are built together.
    Returns a BowenReport carrying the closed-form bound plus the truncation
    slack for depth-K evaluation of the lifted potential.
    """
    from .decomposition import GoodCollection

    if ext_cfg.depth < n_range[0]:
        raise ValidationError(
            "depth", f"truncation depth {ext_cfg.depth} is below the shortest "
                     f"sampled segment length {n_range[0]}")
    rng = np.random.default_rng(seed)
    good = GoodCollection(dec_cfg)
    sync = max(4, int(math.ceil(math.log(CIRCLE_DIAMETER * 4.0 / eps)
                                / math.log(ext_cfg.a))))
    bound = bowen_bound(ext_cfg, dec_cfg, phi_hat.holder_constant,
                        phi_hat.holder_exponent, eps)
    n_hi = min(n_range[1], ext_cfg.depth)
    depth = ext_cfg.depth

    def draw_branches(count):
        return [int(rng.integers(system.degree)) for _ in range(count)]

    xs, ns, x_branches, draws, y_branches = [], [], [], [], []
    attempts = 0
    while len(xs) < n_samples and attempts < 60 * n_samples:
        attempts += 1
        x = float(rng.random())
        n = int(rng.integers(n_range[0], n_hi + 1))
        if not good.contains(system, x, n):
            continue
        xs.append(x)
        ns.append(n)
        x_branches.append(draw_branches(depth))
        draws.append(rng.random())
        y_branches.append(draw_branches(depth - min(sync, depth)))
    if not xs:
        raise ValidationError("n_samples", "no good segments found to sample")
    x_hats = extend(system, np.array(xs), depth, policy="given", branches=x_branches)
    y_hats = _bowen_companions(system, x_hats, ns, draws, eps, sync, y_branches)
    worst = 0.0
    for x_hat, y_hat, n in zip(x_hats, y_hats, ns):
        diff = abs(birkhoff_hat(system, phi_hat, x_hat, n)
                   - birkhoff_hat(system, phi_hat, y_hat, n))
        worst = max(worst, diff)
    # the lifted potential is itself the truncated functional and the
    # truncated metric is dominated by the true one, so the closed-form
    # bound applies to truncated evaluation with no extra slack; the field
    # only absorbs root-solve noise
    slack = 1e-9 * n_hi
    return BowenReport(empirical_max=float(worst), bound=bound,
                       truncation_slack=float(slack), samples=len(xs))
