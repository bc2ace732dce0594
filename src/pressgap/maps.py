"""Circle state space, expanding map systems, and potentials.

Every built-in system is a degree-D monotone covering map of the circle
[0, 1), described through its lift G: [0, 1] -> [0, D].  All inverse-branch
machinery (branch solves, local inverses through a point, arc images) runs
on the lift, which makes arc arithmetic exact and keeps every pullback a
single monotone root solve.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BranchSolveError, MixingCapError, ValidationError

TWO_PI = 2.0 * math.pi
CIRCLE_DIAMETER = 0.5

# A root solve stops each point at the first iterate x where the lift at
# _STOP_ULPS ulp either side of x brackets the target.  A point whose step
# is within _STOP_ULPS ulp (or NaN) before that has stalled: it stops if the
# two lift values, widened by _RESIDUAL_ULPS ulp of the target for the error
# of evaluating the lift, bracket the target, and fails otherwise, as does
# any point still open after _SOLVE_CAP iterations.
_STOP_ULPS = 2.0
_SIDES = np.array([[-_STOP_ULPS], [_STOP_ULPS]])
_RESIDUAL_ULPS = 4.0
_SOLVE_CAP = 100
# a map without a closed-form solve tabulates its lift at this many uniform
# points of [0, 1]; the inverse read off the table starts every branch solve
_START_NODES = 2 ** 14 + 1
# batched root solves run on consecutive blocks of at most this many roots,
# so that every temporary of a block stays in cache
_BLOCK = 1 << 12

# `mixing_time` checks covering on a grid of this many ball centres and
# gives up after this many steps
_MIXING_GRID = 256
_MIXING_CAP = 512

# local-inverse radius of the Manneville-Pomeau and tabulated maps
_EPSILON0 = 0.125


def circle_dist(x, y):
    """Wraparound metric d(x, y) = min(|x - y|, 1 - |x - y|)."""
    d = np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)) % 1.0
    return np.minimum(d, 1.0 - d)


def circle_signed(origin, target):
    """Signed circular offset from origin to target, in [-1/2, 1/2)."""
    return (np.asarray(target, dtype=float) - np.asarray(origin, dtype=float) + 0.5) % 1.0 - 0.5


class MapSystem:
    """A topologically exact degree-D monotone circle cover.

    Parameters
    ----------
    name : str
        Identifier used in reports.
    lift : callable
        Strictly increasing lift G on [0, 1] with G(0) = 0, G(1) = degree.
    lift_deriv : callable
        Derivative of the lift, bounded and positive.
    degree : int
        Number of inverse branches.
    epsilon0 : float
        Uniform radius at which local inverses are used.
    inv_deriv_peaks : iterable of (point, value) pairs
        Every local maximum of 1/g' on the circle, at a point in [0, 1),
        with the sup of 1/g' there (the larger one-sided value at a jump of
        g'); `()` if none, which declares 1/g' constant.  `branch_lipschitz`
        and `sigma_max` trust this list, so a missing peak gives too small
        a sigma.
    exact_branch_solve : callable, optional
        Closed-form (branch, y) -> preimage, bypassing the root solver.
    analytic : bool, optional
        Real-analytic and uniformly expanding: `transfer` may collocate.

    Attributes
    ----------
    sigma_max : float
        The contraction bound: the sup of 1/g', which no `branch_lipschitz`
        value exceeds.  It is the largest declared peak, or 1/g' at 0 when
        none is declared.
    """

    def __init__(self, name, lift, lift_deriv, degree, epsilon0, inv_deriv_peaks,
                 exact_branch_solve=None, analytic=False):
        if degree < 2:
            raise ValidationError("degree", "need at least two branches")
        if not 0.0 < epsilon0 <= 0.25:
            raise ValidationError("epsilon0", "must lie in (0, 1/4]")
        self.name = name
        self.degree = int(degree)
        self.epsilon0 = float(epsilon0)
        self.analytic = bool(analytic)
        self._lift = lift
        self._deriv = lift_deriv
        self._exact_solve = exact_branch_solve
        self._peaks = [(float(p), float(v)) for p, v in inv_deriv_peaks]
        if any(not 0.0 <= p < 1.0 for p, _ in self._peaks):
            raise ValidationError("inv_deriv_peaks", "peak points must lie in [0, 1)")
        self.sigma_max = (max(v for _, v in self._peaks) if self._peaks
                          else float(1.0 / self._deriv(np.zeros(1))[0]))
        self.branch_cuts = self._solve_cuts()
        self._start_table = None if exact_branch_solve is not None else self._tabulate()

    # -- basic evaluation ---------------------------------------------------

    def deriv(self, x):
        return self._deriv(np.asarray(x, dtype=float))

    def forward(self, x):
        """g(x), reduced into [0, 1)."""
        return self._lift(np.asarray(x, dtype=float) % 1.0) % 1.0

    def lift_real(self, x):
        """The lift extended to all reals: F(x + 1) = F(x) + degree."""
        x = np.asarray(x, dtype=float)
        k = np.floor(x)
        return self._lift(x - k) + self.degree * k

    def orbit(self, x, n):
        """Forward orbit [x, g(x), ..., g^(n-1)(x)] as rows over x."""
        x = np.atleast_1d(np.asarray(x, dtype=float)) % 1.0
        out = np.empty(x.shape + (n,))
        cur = x
        for k in range(n):
            out[..., k] = cur
            cur = self.forward(cur)
        return out

    # -- inverse branches ---------------------------------------------------

    def _solve_cuts(self):
        targets = np.arange(1.0, self.degree)
        inner = self._bracketed_solve(targets, 0.0, 1.0, targets / self.degree)
        return np.concatenate([[0.0], inner, [1.0]])

    def _tabulate(self):
        """(G at the nodes, the nodes), for the finite values of G only, so
        that a lift that is NaN somewhere still gives an increasing table."""
        nodes = np.linspace(0.0, 1.0, _START_NODES)
        values = self._lift(nodes)
        finite = np.isfinite(values)
        return values[finite], nodes[finite]

    def branch_solve(self, branch, y):
        """Preimage of y under branch `branch`: x in branch domain, G(x) = branch + y.

        `branch` is one branch id for every point, or an integer array of
        per-point ids shaped like y, each in [0, degree) (out-of-range ids
        are the caller's to reject; `extension.extend` does); either
        way every point is solved in one call, on consecutive blocks of at
        most _BLOCK points, so a batch's temporaries stay block-sized
        whatever its length.  The root is found by a
        safeguarded Newton iteration on the point's branch cut interval
        (see `_bracketed_solve`), started from the inverse of the lift
        table sampled at _START_NODES nodes when the map is built, linearly
        interpolated at the target and clipped to the interval.  Each point
        stops at the first iterate x that passes a check made without the
        derivative: the target branch + y must lie between G at 2 ulp
        either side of x (within [0, 1]); a point whose step stalls first
        must pass it widened by 4 ulp of the target, for the error of
        evaluating G.  So every root is within 2 ulp of a sign change of
        G - target (up to those 4 ulp where its step stalled), whatever
        `lift_deriv` returns; a root next to a cut may sit on the cut's
        other side.  A stalled point that fails the widened check (a
        non-finite y always does) or an iteration that does not settle
        raises `BranchSolveError`, which names the failing point's branch and
        which the CLI reports as a numerical failure (exit 2).  Every
        operation is elementwise, so a root does not depend on the other
        points or on how their branches are grouped.  A map with a
        closed-form solve skips the iteration and the check.
        """
        y = np.asarray(y, dtype=float)
        if self._exact_solve is not None:
            return self._exact_solve(branch, y)
        flat = y.reshape(-1)
        branch = np.asarray(branch)
        if branch.ndim:
            branch = branch.reshape(-1)
        if flat.size <= _BLOCK:
            return self._solve_block(branch, flat).reshape(y.shape)
        out = np.empty_like(flat)
        for lo in range(0, flat.size, _BLOCK):
            hi = lo + _BLOCK
            out[lo:hi] = self._solve_block(branch[lo:hi] if branch.ndim else branch,
                                           flat[lo:hi])
        return out.reshape(y.shape)

    def _solve_block(self, branch, y):
        """`branch_solve` on a 1-d y of at most _BLOCK points."""
        target = y + branch
        lo, hi = self.branch_cuts[branch], self.branch_cuts[branch + 1]
        # start at the tabulated inverse lift: the start only has to be
        # finite and inside the bracket, which (with the root check) is
        # what the root rests on
        start = np.maximum(np.minimum(np.interp(target, *self._start_table), hi), lo)
        return self._bracketed_solve(target, lo, hi, start, branch)

    def _bracketed_solve(self, target, lo, hi, x, branch=None):
        """Roots of G(x) = target on the bracket [lo, hi], elementwise.

        `target` and the start `x` are 1-d arrays of one length, `lo` and
        `hi` scalars or arrays of that length, and G is increasing on each
        bracket; `branch` holds the points' branch ids, for the error text
        (None for the branch cuts).  Every iteration shrinks each point's
        bracket by the sign of G(x) - target and takes a Newton step; a step
        that lands outside the bracket, or back on the previous iterate, is
        replaced by the bracket midpoint.  The step's end xn is then checked
        without `lift_deriv`, and a point stops at the first xn where G at
        _STOP_ULPS ulp either side (within [0, 1]) brackets the target.  A
        point that fails the check after a step within _STOP_ULPS ulp, or a
        NaN step, has stalled: it stops if the bracket holds once widened by
        _RESIDUAL_ULPS ulp of the target for the error of evaluating G, and
        raises `BranchSolveError` with its residual otherwise, as does a
        point still open after _SOLVE_CAP iterations.  Later iterations
        leave a stopped point unchanged, and every operation is elementwise,
        so a root does not depend on the rest of the batch.
        """
        out = np.empty_like(x)
        rows = np.arange(x.size)
        prev = np.full_like(x, np.nan)
        for _ in range(_SOLVE_CAP):
            f = self._lift(x) - target
            below = f < 0.0
            lo = np.where(below, x, lo)
            hi = np.where(below, hi, x)
            xn = x - f / self._deriv(x)
            # every earlier iterate is outside the bracket or at one of its
            # ends, so Newton can only cycle between the two ends, as it
            # does between two pieces of a piecewise-linear lift; a step
            # back onto the previous iterate breaks that cycle
            xn = np.where((xn < lo) | (xn > hi) | (xn == prev), 0.5 * (lo + hi), xn)
            sides = np.minimum(np.maximum(xn + _SIDES * np.spacing(xn), 0.0), 1.0)
            left, right = self._lift(sides)
            passed = (left <= target) & (target <= right)  # NaN fails
            stopped = np.count_nonzero(passed)
            if stopped < x.size:
                stalled = ~passed & ~(np.abs(xn - x) > _STOP_ULPS * np.spacing(x))
                if stalled.any():
                    slack = _RESIDUAL_ULPS * np.spacing(np.abs(target))
                    failed = stalled & ~((left - slack <= target) & (target <= right + slack))
                    if failed.any():
                        i = int(np.argmax(failed))
                        what = ("branch cuts" if branch is None else
                                f"branch {int(np.broadcast_to(branch, out.shape)[rows[i]])}")
                        residual = abs(float(self._lift(xn[i])) - float(target[i]))
                        raise BranchSolveError(
                            f"{self.name}: {what} solve at target {target[i]!r} left "
                            f"residual {residual:.3g}, and G over x +- {_STOP_ULPS:g} ulp "
                            f"spans [{left[i]!r}, {right[i]!r}]")
                    passed |= stalled
                    stopped = np.count_nonzero(passed)
            if stopped == x.size:
                out[rows] = xn
                return out
            prev, x = x, xn
            if stopped:
                out[rows[passed]] = xn[passed]
                keep = ~passed
                rows, target, lo, hi = rows[keep], target[keep], lo[keep], hi[keep]
                prev, x = prev[keep], x[keep]
        raise BranchSolveError(
            f"root solve did not settle in {_SOLVE_CAP} iterations "
            f"(first open target {target[0]!r})")

    def inverse_branches(self, y):
        """All degree preimages of y, indexed by branch id."""
        y = np.asarray(y, dtype=float) % 1.0
        return np.stack([self.branch_solve(b, y) for b in range(self.degree)])

    def lift_inverse(self, v):
        """F^{-1}(v) for real v; monotone, used for exact arc pullbacks.

        Each v is reduced to a branch id and a point of [0, 1), and all of
        them are solved in one `branch_solve` call.
        """
        v = np.asarray(v, dtype=float)
        k = np.floor(v / self.degree)
        w = v - self.degree * k
        w = np.clip(w, 0.0, np.nextafter(float(self.degree), 0.0))
        b = np.minimum(np.floor(w).astype(int), self.degree - 1)
        return self.branch_solve(b, w - b) + k

    def pullback(self, x, y):
        """Local inverse through x, evaluated at y near g(x).

        Returns the unique preimage z of y on the same monotone piece as x,
        i.e. the continuation of x under the inverse branch defined on the
        ball around g(x).
        """
        v = self._lift(np.asarray(x, dtype=float) % 1.0)
        # v % 1.0 is forward(x), from the one lift evaluation
        return self.lift_inverse(v + circle_signed(v % 1.0, y)) % 1.0

    # -- derived fields -----------------------------------------------------

    def branch_lipschitz(self, x):
        """sigma(x), the Lipschitz constant of the inverse branch through x
        on the ball of radius epsilon0 about g(x).

        It is the sup of 1/g' over the pulled-back ball [zlo, zhi], whose
        two ends come from one `lift_inverse` call: the larger of 1/g' at
        the two ends, raised to the declared value of every peak of 1/g'
        (`inv_deriv_peaks`) that lies in the arc, one pass per peak.  The
        points are taken _BLOCK / 2 at a time, so their end solves make one
        block of `branch_solve`.  Nothing is sampled or inflated, so the sup
        is exact up to rounding: the 2 ulp of the end solves and one
        division.  A 0-d x gives a float, any other x an array of its shape.
        """
        x = np.asarray(x, dtype=float)
        flat, half = x.reshape(-1), max(_BLOCK // 2, 1)
        if flat.size <= half:
            out = self._sigma_block(flat)
        else:
            out = np.empty_like(flat)
            for lo in range(0, flat.size, half):
                out[lo:lo + half] = self._sigma_block(flat[lo:lo + half])
        return out.reshape(x.shape) if x.ndim else float(out[0])

    def _sigma_block(self, x):
        """`branch_lipschitz` on a 1-d x of at most _BLOCK / 2 points, whose
        two ends make one block of root solves."""
        v = self._lift(x % 1.0)
        ends = self.lift_inverse(np.stack([v - self.epsilon0, v + self.epsilon0]))
        out = (1.0 / self._deriv(ends % 1.0)).max(axis=0)
        zlo, zhi = ends
        for point, value in self._peaks:
            # the peak's first lift at or above zlo
            inside = np.ceil(zlo - point) + point <= zhi
            out = np.where(inside, np.maximum(out, value), out)
        return out

    def mixing_time(self, eps):
        """Smallest N with g^N(B_eps(y)) = X for every y on a verification
        grid of _MIXING_GRID centres.

        Arc images are exact on the lift: an arc covers once its lift length
        reaches 1.  Raises MixingCapError if no N <= _MIXING_CAP covers
        (non-exact map or eps too small for the cap).
        """
        grid, cap = _MIXING_GRID, _MIXING_CAP
        if not 0.0 < eps <= self.epsilon0:
            raise ValidationError("eps", f"must lie in (0, epsilon0={self.epsilon0}]")
        ys = np.linspace(0.0, 1.0, grid, endpoint=False)
        lo = ys - eps
        hi = ys + eps
        times = np.zeros(grid, dtype=int)
        open_mask = (hi - lo) < 1.0
        for t in range(1, cap + 1):
            if not np.any(open_mask):
                break
            lo[open_mask] = self.lift_real(lo[open_mask])
            hi[open_mask] = self.lift_real(hi[open_mask])
            closed = open_mask & ((hi - lo) >= 1.0)
            times[closed] = t
            open_mask &= ~closed
        if np.any(open_mask):
            raise MixingCapError(
                f"{self.name}: no covering time <= {cap} at eps={eps}")
        return int(times.max())

    def __repr__(self):
        return f"MapSystem({self.name!r}, degree={self.degree}, eps0={self.epsilon0})"


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

def _doubling_solve(branch, y):
    return (np.asarray(y, dtype=float) + branch) / 2.0


def doubling():
    """The doubling map g(x) = 2x mod 1."""
    return MapSystem(
        "doubling",
        lift=lambda x: 2.0 * x,
        lift_deriv=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        degree=2,
        epsilon0=0.25,
        inv_deriv_peaks=(),
        exact_branch_solve=_doubling_solve,
        analytic=True,
    )


def manneville_pomeau(alpha=0.5):
    """Intermittent map g(x) = x + x^(1+alpha) mod 1, neutral fixed point at 0."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha", "must lie in (0, 1)")
    a = float(alpha)
    sys = MapSystem(
        f"manneville_pomeau({a:g})",
        lift=lambda x: x + np.power(np.abs(x), 1.0 + a),
        lift_deriv=lambda x: 1.0 + (1.0 + a) * np.power(np.abs(x), a),
        degree=2,
        epsilon0=_EPSILON0,
        inv_deriv_peaks=[(0.0, 1.0)],
    )
    sys.alpha = a
    return sys


def perturbed_doubling(delta=0.75):
    """Smooth perturbation g(x) = 2x + (delta / 2 pi) sin(2 pi x) mod 1."""
    if not 0.0 <= delta < 1.0:
        raise ValidationError("delta", "must lie in [0, 1) to keep g' > 1")
    d = float(delta)
    return MapSystem(
        f"perturbed_doubling({d:g})",
        lift=lambda x: 2.0 * x + (d / TWO_PI) * np.sin(TWO_PI * x),
        lift_deriv=lambda x: 2.0 + d * np.cos(TWO_PI * x),
        degree=2,
        epsilon0=0.25,
        inv_deriv_peaks=[(0.5, 1.0 / (2.0 - d))],
        analytic=True,
    )


def tabulated_map(values):
    """Map given by monotone lift samples on a uniform grid over [0, 1].

    `values` must start at 0, end at an integer degree >= 2, and increase
    strictly; evaluation is by linear interpolation.  The ends are set to 0
    and the degree exactly, so a table that misses them by rounding (up to
    1e-12 at 0 and 1e-9 at the degree) still gives an exact cover.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 9:
        raise ValidationError("values", "need a 1-d table with >= 9 samples")
    if abs(v[0]) > 1e-12 or np.any(np.diff(v) <= 0):
        raise ValidationError("values", "lift table must start at 0 and increase strictly")
    degree = int(round(v[-1]))
    if degree < 2 or abs(v[-1] - degree) > 1e-9:
        raise ValidationError("values", "lift table must end at an integer degree >= 2")
    # the lift must meet G(0) = 0 and G(1) = degree exactly, which the
    # inverse branches' root check relies on
    v = v.copy()
    v[0], v[-1] = 0.0, float(degree)
    if np.any(np.diff(v) <= 0):
        raise ValidationError("values", "lift table must stay within [0, degree]")
    grid = np.linspace(0.0, 1.0, v.size)
    slopes = np.diff(v) / np.diff(grid)

    def lift(x):
        return np.interp(np.asarray(x, dtype=float), grid, v)

    def deriv(x):
        idx = np.clip(np.searchsorted(grid, np.asarray(x, dtype=float), side="right") - 1,
                      0, slopes.size - 1)
        return slopes[idx]

    # 1/g' peaks at every node, at the larger 1/slope of its two sides; the
    # node at 0 has the last piece on its left
    inv = 1.0 / slopes
    peaks = zip(grid[:-1], np.maximum(inv, np.roll(inv, 1)))
    return MapSystem("tabulated", lift=lift, lift_deriv=deriv,
                     degree=degree, epsilon0=_EPSILON0, inv_deriv_peaks=peaks)


BUILTIN_MAPS = {
    "doubling": doubling,
    "manneville_pomeau": manneville_pomeau,
    "perturbed_doubling": perturbed_doubling,
}


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Potential:
    """A real potential on the circle with declared Hoelder data.

    `wrap_jump` records the discontinuity size across the point 0; when it
    is positive the Hoelder data is only claimed for pairs that do not
    straddle the wrap point (piecewise-Hoelder potentials such as the
    geometric potential of a map with a derivative kink).
    """

    fn: Callable
    holder_constant: float
    holder_exponent: float
    name: str = "potential"
    wrap_jump: float = 0.0
    analytic: bool = False     # real-analytic on the whole circle

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def zero_potential():
    return Potential(lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                     0.0, 1.0, name="zero", analytic=True)


def constant_potential(c):
    c = float(c)
    return Potential(lambda x: np.full_like(np.asarray(x, dtype=float), c),
                     0.0, 1.0, name=f"constant({c:g})", analytic=True)


def geometric_potential(system, t=1.0):
    """phi(x) = -t log g'(x), the geometric family of the system.

    Hoelder data is estimated on a fine grid at the natural exponent of the
    map (alpha for intermittent maps, 1 otherwise); a derivative mismatch
    across the wrap point is recorded in `wrap_jump` instead of being folded
    into an unbounded constant.
    """
    t = float(t)

    def fn(x):
        return -t * np.log(system.deriv(np.asarray(x, dtype=float) % 1.0))

    alpha = getattr(system, "alpha", 1.0)
    xs = np.linspace(0.0, 1.0, 4097, endpoint=False)
    vals = fn(xs)
    # max difference quotient over several pair separations, non-wrapping
    c_est = 0.0
    for stride in (1, 4, 16, 64):
        dv = np.abs(vals[stride:] - vals[:-stride])
        dx = xs[stride:] - xs[:-stride]
        c_est = max(c_est, float(np.max(dv / dx**alpha)))
    jump = float(abs(fn(np.float64(0.0)) - fn(np.float64(1.0 - 1e-12))))
    if jump < 1e-9:
        jump = 0.0
    return Potential(fn, 1.05 * c_est, alpha, name=f"geometric({t:g})",
                     wrap_jump=jump, analytic=system.analytic)


def tabulated_potential(xs, values, holder_constant, holder_exponent):
    """Potential from samples on the circle, linearly interpolated.

    The sample points must be distinct points of [0, 1), at least one, and
    the Hoelder data a finite constant >= 0 and an exponent in (0, 1];
    otherwise ValidationError names the field.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape or xs.ndim != 1:
        raise ValidationError("values", "sample and value arrays must match")
    if xs.size == 0:
        raise ValidationError("xs", "need at least one sample")
    if not np.all((xs >= 0.0) & (xs < 1.0)):
        raise ValidationError("xs", "sample points must lie in [0, 1)")
    if np.unique(xs).size < xs.size:
        raise ValidationError("xs", "sample points must be distinct")
    if not (math.isfinite(holder_constant) and holder_constant >= 0.0):
        raise ValidationError("holder_constant", "must be finite and >= 0")
    if not 0.0 < holder_exponent <= 1.0:
        raise ValidationError("holder_exponent", "must lie in (0, 1]")

    def fn(x):
        return np.interp(np.asarray(x, dtype=float) % 1.0, xs, values, period=1.0)

    return Potential(fn, float(holder_constant), float(holder_exponent),
                     name="tabulated")
