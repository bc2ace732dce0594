"""Constructive orbit gluing: one orbit shadowing a list of good segments.

The construction works backward.  The tube around the last segment is the
pullback of the ball at its endpoint through the segment's inverse-branch
chain;  each earlier segment bridges into the next tube by running the
endpoint ball forward on the lift until it overlaps the tube entry (the
covering property bounds the wait by the mixing time), intersecting, and
pulling the intersection back.  Every time step of the glued orbit is
represented by an explicit arc containing the true orbit point, so
verification never iterates a floating-point orbit through expanding
dynamics.  On the natural extension each segment's orbit is led by a stretch
of its stored backward history, whose arcs are clipped to the shadowing
ball; downstairs that stretch is empty, and both use one construction.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .decomposition import GoodCollection
from .errors import GluingError, ValidationError
from .extension import ExtPoint, depth_for_tolerance, tail_bound
from .maps import CIRCLE_DIAMETER, circle_dist
from .orbits import OrbitSegment

_BALL_SHRINK = 1.0 - 1e-9   # tube end balls sit a hair inside the scale
_WIDTH_TOL = 1e-13


@dataclass(frozen=True)
class Arc:
    """A short circle arc [lo, lo + width] kept in lift coordinates."""

    lo: float
    width: float

    @property
    def hi(self):
        return self.lo + self.width

    @property
    def midpoint(self):
        return (self.lo + 0.5 * self.width) % 1.0

    def sup_distance(self, point):
        """Upper bound for sup over the arc of d(point, .); exact for arcs
        shorter than a half circle."""
        ends = circle_dist(np.array([self.lo % 1.0, self.hi % 1.0]), point)
        return float(ends.max())


def _forward_arc(system, arc):
    lo = float(system.lift_real(np.float64(arc.lo)))
    hi = float(system.lift_real(np.float64(arc.hi)))
    return Arc(lo, hi - lo)


def _pullback_arc(system, x, arc):
    lo, hi = system.pullback(np.float64(x), np.array([arc.lo % 1.0, arc.hi % 1.0])).tolist()
    width = (hi - lo) % 1.0
    if width > 0.5:
        width = 0.0  # collapsed arc: endpoints crossed by rounding noise
    return Arc(lo, width)


def _chain_pull(system, orbit_pts, end_arc, clip_radius, clip_until):
    """Pull `end_arc` back through the chain of local inverses along
    `orbit_pts`; arcs[k] covers the orbit of any point of arcs[-1] pulled to
    time k.  Steps with k < clip_until are intersected with the ball of
    `clip_radius` around the reference point."""
    n = len(orbit_pts) - 1
    arcs = [None] * (n + 1)
    arcs[n] = end_arc
    for k in range(n - 1, -1, -1):
        arc = _pullback_arc(system, orbit_pts[k], arcs[k + 1])
        if k < clip_until:
            arc = _clip_to_ball(arc, orbit_pts[k], clip_radius)
            if arc is None:
                raise GluingError("history tube left the shadowing ball")
        arcs[k] = arc
    return arcs


def _clip_to_ball(arc, center, radius):
    lo, hi = arc.lo, arc.hi
    m = math.floor(lo - (center - radius)) if radius else 0
    blo, bhi = center - radius + m, center + radius + m
    # shift the ball copy that overlaps the arc
    while bhi < lo - _WIDTH_TOL:
        blo += 1.0
        bhi += 1.0
    clo, chi = max(lo, blo), min(hi, bhi)
    if chi - clo < -_WIDTH_TOL:
        return None
    return Arc(clo, max(chi - clo, 0.0))


def _bridge(system, source_center, radius, target, cap):
    """Smallest t <= cap with g^t(B(source_center, radius)) meeting `target`.

    Returns (t, entry_arc, transit_arcs): entry_arc is the sub-arc of the
    source ball whose t-th image lies inside the target; transit_arcs are
    its forward images at steps 0..t.  The search runs the full-radius ball
    (the covering guarantee is tight at dyadic scales), then shaves a hair
    off the pulled-back entry so the seam sits strictly inside the ball.
    """
    lo, hi = source_center - radius, source_center + radius
    for t in range(1, cap + 1):
        lo = float(system.lift_real(np.float64(lo)))
        hi = float(system.lift_real(np.float64(hi)))
        hit = _overlap(target, lo, hi)
        if hit is None:
            continue
        # pull the intersection back to the source ball, exactly on the lift
        ends = np.array(hit)
        for _ in range(t):
            ends = system.lift_inverse(ends)
        e_lo, e_hi = ends.tolist()
        hair = min(1e-12, 0.25 * (e_hi - e_lo))
        entry = Arc(e_lo + hair, max(e_hi - e_lo - 2.0 * hair, 0.0))
        transit = [entry]
        for _ in range(t):
            transit.append(_forward_arc(system, transit[-1]))
        return t, entry, transit
    raise GluingError(
        f"no transition within cap={cap}; retry with a larger cap")


def _overlap(target, lo, hi):
    """Widest intersection of the wrapped `target` arc with the interior of
    the real interval [lo, hi] over the admissible integer shifts.

    Bridged tubes narrow geometrically with total glued length, so targets
    may be float-degenerate points; a degenerate intersection strictly
    inside the interval is accepted.  The interiorization keeps seam points
    off the ball boundary.
    """
    ilo, ihi = lo + _WIDTH_TOL, hi - _WIDTH_TOL
    m = math.floor(lo - target.lo)
    best = None
    for shift in (m, m + 1, m + 2):
        tlo, thi = target.lo + shift, target.hi + shift
        if tlo > ihi:
            break
        clo, chi = max(ilo, tlo), min(ihi, thi)
        if chi - clo >= 0.0 and (best is None or chi - clo > best[1] - best[0]):
            best = (clo, chi)
    return best


def _glue(system, orbits, hist, radius, cap):
    """Backward gluing of reference orbits, shared by the base map and the
    extension.

    orbits[j] is segment j's orbit through its end point, led by hist[j]
    points of its backward history (none downstairs); arcs on that history
    are clipped to the shadowing ball around it.  Returns
    (transition_times, offsets, arcs): transition j runs from the end of
    segment j to the start of segment j + 1 (the bridge plus the next
    history), offsets[j] is segment j's start time, and arcs holds one arc
    per time.  A single segment shadows itself: zero-width arcs, no
    transitions.
    """
    if len(orbits) == 1:
        return (), (hist[0],), tuple(Arc(float(p), 0.0) for p in orbits[0])
    ball = radius * _BALL_SHRINK
    k = len(orbits)
    chains = [None] * k
    bridges = [None] * k      # bridges[j] = (t, transit) out of segment j
    end = float(orbits[-1][-1])
    chains[-1] = _chain_pull(system, orbits[-1], Arc(end - ball, 2 * ball),
                             ball, hist[-1])
    for j in range(k - 2, -1, -1):
        t, entry, transit = _bridge(system, float(orbits[j][-1]), radius,
                                    chains[j + 1][0], cap)
        bridges[j] = (t, transit)
        chains[j] = _chain_pull(system, orbits[j], entry, ball, hist[j])
    taus, offsets, timeline = [], [], []
    for j in range(k):
        offsets.append(len(timeline) + hist[j])
        timeline.extend(chains[j])
        if j < k - 1:
            t, transit = bridges[j]
            timeline.extend(transit[1:t])  # transit[0] is chains[j][-1]
            taus.append(t + hist[j + 1])
    return tuple(taus), tuple(offsets), tuple(timeline)


@dataclass(frozen=True)
class GluingPlan:
    segments: Tuple[OrbitSegment, ...]
    eps: float
    tau_cap: int
    transition_times: Tuple[int, ...]
    glue_point: float
    schedule: Tuple[int, ...]          # s_j = sum n_i (i<=j) + sum tau_i (i<j)
    offsets: Tuple[int, ...]           # start time of each segment block
    arcs: Tuple[Arc, ...]              # one arc per absolute time step
    sigma: float

    def to_dict(self):
        return {
            "segments": [[s.start, s.length] for s in self.segments],
            "eps": self.eps,
            "sigma": self.sigma,
            "tau_cap": self.tau_cap,
            "transition_times": list(self.transition_times),
            "glue_point": self.glue_point,
            "schedule": list(self.schedule),
            "offsets": list(self.offsets),
        }


def glue_base(system, cfg, segments, eps, tau_cap=None, k0=1):
    """Construct a shadowing plan for a list of good segments at scale eps.

    Every segment must classify as good at cfg.sigma and be longer than the
    length floor k0; the returned plan carries transition times bounded by
    the cap (default: the mixing time at eps) and per-time arcs whose sup
    distance to the segment orbits is at most eps.
    """
    if not 0.0 < eps <= system.epsilon0:
        raise ValidationError("eps", f"must lie in (0, epsilon0={system.epsilon0}]")
    segments = tuple(segments)
    if not segments:
        raise ValidationError("segments", "need at least one segment")
    good = GoodCollection(cfg)
    for seg in segments:
        if seg.length <= k0:
            raise ValidationError("segments",
                                  f"segment lengths must exceed the floor k0={k0}")
        if not good.contains(system, seg.start, seg.length):
            raise ValidationError(
                "segments", f"({seg.start}, {seg.length}) is not good at sigma={cfg.sigma}")
    if tau_cap is None:
        tau_cap = system.mixing_time(eps)

    orbits = [system.orbit(seg.start, seg.length + 1)[0] for seg in segments]
    taus, offsets, arcs = _glue(system, orbits, [0] * len(segments), eps, tau_cap)
    glue_point = segments[0].start if len(segments) == 1 else arcs[0].midpoint
    return GluingPlan(segments=segments, eps=float(eps), tau_cap=int(tau_cap),
                      transition_times=taus, glue_point=float(glue_point),
                      schedule=tuple(o + seg.length for o, seg in zip(offsets, segments)),
                      offsets=offsets, arcs=arcs, sigma=cfg.sigma)


def verify_shadow(system, plan):
    """Max over segments and in-segment times of the distance from the
    reference orbit to the glued orbit's arc; the contract is <= plan.eps."""
    worst = 0.0
    for j, seg in enumerate(plan.segments):
        orbit = system.orbit(seg.start, seg.length)[0]
        base = plan.offsets[j]
        for m in range(seg.length):
            worst = max(worst, plan.arcs[base + m].sup_distance(orbit[m]))
    return float(worst)


# ---------------------------------------------------------------------------
# gluing on the natural extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionGluingPlan:
    ext_segments: Tuple[Tuple[ExtPoint, int], ...]
    eps: float
    a: float
    depth: int
    sigma: float
    base_scale: float                 # per-coordinate budget used downstairs
    tau_sync: int
    history_depths: Tuple[int, ...]
    tau_cap: int
    transition_times: Tuple[int, ...]  # bridge + history synchronization
    glue_point: ExtPoint
    offsets: Tuple[int, ...]           # segment start indices in the timeline
    arcs: Tuple[Arc, ...]

    def to_dict(self):
        return {
            "segments": [[list(p.coords), n] for p, n in self.ext_segments],
            "eps": self.eps, "a": self.a, "depth": self.depth,
            "sigma": self.sigma, "base_scale": self.base_scale,
            "tau_sync": self.tau_sync,
            "history_depths": list(self.history_depths),
            "tau_cap": self.tau_cap,
            "transition_times": list(self.transition_times),
            "glue_point": list(self.glue_point.coords),
            "offsets": list(self.offsets),
        }


def glue_extension(system, cfg, ext_segments, eps, a, depth):
    """Shadowing plan for good extension segments under the shift.

    The base orbits are glued at the tighter scale eps (a-1) / (2a), and
    each transition appends a synchronization stretch that walks down the
    next segment's stored history, so that by the segment start the glued
    point's recent past matches the target's history.  Transition times are
    therefore bounded by mixing time at the base scale plus the fiber
    synchronization time at eps/2.
    """
    if not 0.0 < eps <= system.epsilon0:
        raise ValidationError("eps", f"must lie in (0, epsilon0={system.epsilon0}]")
    ext_segments = tuple((p, int(n)) for p, n in ext_segments)
    if not ext_segments:
        raise ValidationError("segments", "need at least one segment")
    good = GoodCollection(cfg)
    for p, n in ext_segments:
        if p.depth < depth:
            raise ValidationError("segments", "extension segments need history "
                                  f"down to the truncation depth {depth}")
        if not good.contains(system, p.coords[0], n):
            raise ValidationError("segments", "projected segment is not good")
    delta = eps * (a - 1.0) / (2.0 * a)
    tau_sync = depth_for_tolerance(a, eps / 2.0)
    hist = [min(tau_sync, p.depth, depth) for p, _ in ext_segments]
    # augmented orbit of each segment: deep history first, then the forward leg
    aug_orbits = [np.concatenate([np.array(p.coords[1:h + 1][::-1]),
                                  system.orbit(p.coords[0], n + 1)[0]])
                  for (p, n), h in zip(ext_segments, hist)]
    cap_bridge = (system.mixing_time(min(delta, system.epsilon0))
                  if len(ext_segments) > 1 else 0)
    taus, offsets, arcs = _glue(system, aug_orbits, hist, delta, cap_bridge)

    if len(ext_segments) == 1:
        # the segment's own point shadows itself exactly
        z = ExtPoint(ext_segments[0][0].coords[:depth + 1])
    else:
        # a genuine backward orbit through the synchronized history arcs
        # (pulled back along the same local inverses the chain used), then
        # extended lex-min below the stored history
        h0 = hist[0]
        coords = [arcs[h0].midpoint]
        for i in range(1, h0 + 1):
            ref = aug_orbits[0][h0 - i]
            coords.append(float(system.pullback(np.float64(ref), np.float64(coords[-1]))))
        z = ExtPoint(tuple(coords))
        while z.depth < depth:
            z = ExtPoint(z.coords + (float(system.branch_solve(0, np.float64(z.coords[-1]))),))
    return ExtensionGluingPlan(
        ext_segments=ext_segments, eps=float(eps), a=float(a), depth=int(depth),
        sigma=cfg.sigma, base_scale=float(delta), tau_sync=int(tau_sync),
        history_depths=tuple(hist), tau_cap=int(cap_bridge + tau_sync),
        transition_times=taus, glue_point=z, offsets=offsets, arcs=arcs)


def verify_shadow_extension(system, plan):
    """Max truncated extension distance between the glued orbit and the
    segments over in-segment times, plus the depth-K truncation bound.

    Timeline arcs stand in for the glued orbit's coordinates where they
    exist; before the timeline start the glue point's stored history is
    used.  The contract is max <= eps (up to the reported truncation tail).
    """
    a, depth = plan.a, plan.depth
    weights = a ** -np.arange(depth + 1)
    tail = tail_bound(a, depth)
    z = plan.glue_point
    h0 = plan.history_depths[0]
    worst = 0.0
    for j, (p, n) in enumerate(plan.ext_segments):
        ref_fwd = system.orbit(p.coords[0], n)[0]
        start = plan.offsets[j]
        for m in range(n):
            total = 0.0
            for i in range(depth + 1):
                # coordinate i of the shifted reference point
                ref = ref_fwd[m - i] if i <= m else p.coords[i - m]
                t_idx = start + m - i
                if t_idx >= 0:
                    d = plan.arcs[t_idx].sup_distance(float(ref))
                else:
                    back = h0 - t_idx  # index into the glue point's history
                    if back <= z.depth:
                        d = float(circle_dist(z.coords[back], float(ref)))
                    else:
                        d = CIRCLE_DIAMETER
                total += weights[i] * d
            worst = max(worst, total)
    return float(worst), float(tail)
