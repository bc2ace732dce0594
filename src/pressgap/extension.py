"""The inverse-limit extension: truncated backward orbits, lifted
potentials, and the uniform Bowen-variation bound.

Points of the extension are truncated backward orbits (x_0, ..., x_K); the
metric weights coordinate distances by a^-n for a base a > 1.  Truncation at
depth K is rigorous through an explicit tail bound on what the dropped
coordinates can add to a distance.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .decomposition import draw_good_segments, pull_back_ends
from .errors import ValidationError
from .maps import CIRCLE_DIAMETER


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


def extend(system, x, branches):
    """Backward orbits of the starts x along the given branch ids.

    Row k of the (K + 1, S) result holds the k-th preimage of each of the
    S starts, K being the length of the last axis of the (S, K) `branches`:
    x_(k+1) is the branch-`branches[:, k]` preimage of x_k, and each depth
    takes one root solve over all starts.  A branch id outside
    [0, degree) raises ValidationError naming `branches`.
    """
    starts = np.asarray(x, dtype=float) % 1.0
    rows = starts.size
    chosen = np.asarray(branches, dtype=int)
    if np.any((chosen < 0) | (chosen >= system.degree)):
        raise ValidationError(
            "branches", f"branch ids must lie in [0, {system.degree}) for {system.name}")
    depth = chosen.shape[-1]
    chosen = chosen.reshape(rows, depth)
    # one contiguous row per depth, so every solve sees contiguous input
    coords = np.empty((depth + 1, rows))
    coords[0] = starts
    for i in range(depth):
        coords[i + 1] = system.branch_solve(chosen[:, i], coords[i])
    return coords


# ---------------------------------------------------------------------------
# lifted potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionPotential:
    """A potential on extension points with derived Hoelder data.

    `evaluate` maps an array of coordinate rows (x_0, ..., x_K) along its
    last axis to one value per row.
    """

    evaluate: callable
    holder_constant: float
    holder_exponent: float
    name: str = "lifted"


def lift_projection(phi):
    """phi composed with the base projection; Hoelder data is inherited
    because the projection is 1-Lipschitz."""
    def evaluate(rows):
        return phi(rows[..., 0])

    return ExtensionPotential(evaluate=evaluate,
                              holder_constant=phi.holder_constant,
                              holder_exponent=phi.holder_exponent,
                              name=f"proj[{phi.name}]")


def lift_fiber_averaged(psi, a):
    """Genuinely extension-dependent lift: sum of a^-k psi(x_k) over the
    stored coordinates, with constant C_psi a/(a-1) at the same exponent."""
    if a <= 1.0:
        raise ValidationError("a", "metric base must exceed 1")

    def evaluate(rows):
        return np.sum(a ** -np.arange(rows.shape[-1]) * psi(rows), axis=-1)

    return ExtensionPotential(evaluate=evaluate,
                              holder_constant=psi.holder_constant * a / (a - 1.0),
                              holder_exponent=min(psi.holder_exponent, 1.0),
                              name=f"fiber[{psi.name}]")


def birkhoff_hat(system, phi_hat, coords, ns):
    """Sums of the lifted potential along n forward shifts of each point:
    the (K + 1, S) coordinates of S backward orbits, as `extend` returns
    them, and a length for each give S sums.  Shift i of (x_0, ..., x_K)
    has the coordinates (g^i x_0, ..., g x_0, x_0, x_1, ...) cut to K + 1,
    so the shifts of a point come from one forward base orbit and its
    stored history, and the potential is evaluated on every shift of every
    point in one call.  Each sum adds its n values left to right, starting
    from 0.0.
    """
    ns = np.asarray(ns, dtype=int)
    totals = np.zeros(ns.size)
    steps = int(ns.max(initial=0))
    if steps > 0:
        fwd = system.orbit(coords[0], steps)
        # row r is g^(steps-1) x_0, ..., g x_0, x_0, x_1, ..., x_K; shift i
        # is its window of K + 1 starting at steps - 1 - i
        aug = np.concatenate([fwd[:, ::-1], coords[1:].T], axis=1)
        shifts = sliding_window_view(aug, coords.shape[0], axis=1)[:, ::-1]
        values = phi_hat.evaluate(shifts)
        for i in range(steps):
            rows = ns > i
            totals[rows] += values[rows, i]
    return totals


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


def _bowen_companions(system, ref, ns, draws, eps, sync_depth, branches):
    """Companions in the n-Bowen balls of the backward orbits whose
    (K + 1, S) coordinates are `ref`: each segment's end point, moved by
    eps (2u - 1) for its uniform draw u in `draws`, is pulled back through
    the segment's chain, then along the orbit's own local inverses down to
    the sync depth and through the given `branches` below it.  Returns the
    companions' coordinates in the same layout."""
    depth = ref.shape[0] - 1
    cut = min(sync_depth, depth)
    ns = np.asarray(ns)
    orbit = system.orbit(ref[0], int(ns.max()) + 1)
    coords = np.empty((depth + 1, ns.size))
    coords[0] = pull_back_ends(system, orbit, ns,
                               eps * (2.0 * np.asarray(draws) - 1.0))
    for i in range(cut):
        coords[i + 1] = system.pullback(ref[i + 1], coords[i])
    tail = np.asarray(branches, dtype=int).reshape(ns.size, depth - cut)
    for i in range(cut, depth):
        coords[i + 1] = system.branch_solve(tail[:, i - cut], coords[i])
    return coords


# shortest and longest sampled segment length in verify_bowen; the longest
# is cut to the truncation depth
_LENGTH_RANGE = (5, 20)


def verify_bowen(system, ext_cfg, dec_cfg, phi_hat, eps, n_samples, seed=0):
    """Empirical max of |S_n phi_hat(x) - S_n phi_hat(y)| over sampled good
    segments of the lengths in _LENGTH_RANGE and constructed Bowen-ball
    companions.

    Every random draw is made first, each kind in one block: all good
    segments from one `draw_good_segments` call with a budget of 60 draws
    per sample, then each sample's x branches, then every companion's
    uniform, then each sample's y branches.  Then the backward orbits and
    companions of all accepted samples are built together, and their
    Birkhoff sums taken in two `birkhoff_hat` calls.  When the budget runs
    out first, fewer samples are used; `BowenReport.samples` says how many.
    Returns a BowenReport carrying the closed-form bound plus the truncation
    slack for depth-K evaluation of the lifted potential.
    """
    n_lo, n_hi = _LENGTH_RANGE
    if ext_cfg.depth < n_lo:
        raise ValidationError(
            "depth", f"truncation depth {ext_cfg.depth} is below the shortest "
                     f"sampled segment length {n_lo}")
    rng = np.random.default_rng(seed)
    sync = max(4, int(math.ceil(math.log(CIRCLE_DIAMETER * 4.0 / eps)
                                / math.log(ext_cfg.a))))
    bound = bowen_bound(ext_cfg, dec_cfg, phi_hat.holder_constant,
                        phi_hat.holder_exponent, eps)
    n_hi = min(n_hi, ext_cfg.depth)
    depth = ext_cfg.depth

    found, _ = draw_good_segments(system, dec_cfg, rng, n_samples,
                                  (n_lo, n_hi), 60 * n_samples)
    if not found:
        raise ValidationError("n_samples", "no good segments found to sample")
    count = len(found)
    ns = [seg.length for seg in found]
    x_branches = rng.integers(system.degree, size=(count, depth))
    draws = rng.random(count)
    y_branches = rng.integers(system.degree, size=(count, depth - min(sync, depth)))
    x_hats = extend(system, [seg.start for seg in found], x_branches)
    y_hats = _bowen_companions(system, x_hats, ns, draws, eps, sync, y_branches)
    diffs = np.abs(birkhoff_hat(system, phi_hat, x_hats, ns)
                   - birkhoff_hat(system, phi_hat, y_hats, ns))
    worst = max([0.0, *diffs.tolist()])
    # the lifted potential is itself the truncated functional and the
    # truncated metric is dominated by the true one, so the closed-form
    # bound applies to truncated evaluation with no extra slack; the field
    # only absorbs root-solve noise
    slack = 1e-9 * n_hi
    return BowenReport(empirical_max=float(worst), bound=bound,
                       truncation_slack=float(slack), samples=count)
