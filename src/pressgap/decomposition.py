"""Hyperbolic-time classification of orbit segments.

A segment (x, n) is *good* at threshold sigma when every trailing window
average of log sigma(.) along its orbit beats log sigma, which forces
uniform backward contraction along the inverse-branch chain from g^n(x) to
x.  It is *bad* when already the full-window average fails.  Every segment
splits into a good prefix followed by a bad suffix; the split index is the
first time whose suffix is bad.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ValidationError
from .orbits import OrbitSegment, suffix_means

# `draw_good_segments` classifies a first block of 2 count + 2 draws and
# doubles the block while acceptances fall short, up to this many draws;
# a block of 256 segments of length 20 holds 169k lift samples
_DRAW_BLOCK_CAP = 256


@dataclass(frozen=True)
class DecompositionConfig:
    """Hyperbolicity threshold sigma in (0, 1)."""

    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValidationError("sigma", "must lie in (0, 1)")

    @property
    def log_sigma(self):
        return float(np.log(self.sigma))


@dataclass(frozen=True)
class ObstructionSample:
    """Finite-horizon proxy for membership in the expansivity-obstruction set.

    For each point, `entries` holds the smallest K <= horizon such that every
    Birkhoff average of log sigma with length in [K, horizon] is >= log
    sigma, or None when no such K exists below the horizon.  This is a proxy:
    true membership is an all-lengths condition undecidable from finite data.
    """

    horizon: int
    entries: Tuple[Tuple[float, Optional[int]], ...]

    def hits(self):
        return [(x, k) for x, k in self.entries if k is not None]


# ---------------------------------------------------------------------------
# window machinery
# ---------------------------------------------------------------------------

def segment_log_sigma(system, x, n):
    """log sigma(g^i x) for i = 0..n-1; rows over x when x is an array."""
    orbit = system.orbit(x, n)
    return np.log(system.branch_lipschitz(orbit.reshape(-1))).reshape(orbit.shape)


def split_index(logs, log_sigma):
    """Smallest m whose suffix is bad; len(logs) when no suffix is bad."""
    means = suffix_means(logs)
    bad = np.flatnonzero(means >= log_sigma)
    return int(bad[0]) if bad.size else len(logs)


def good_mask(logs, log_sigma):
    """Row mask: which orbit rows are good segments."""
    return np.all(suffix_means(logs) < log_sigma, axis=-1)


def bad_mask(logs, log_sigma):
    """Row mask: which orbit rows are bad segments."""
    return suffix_means(logs)[..., 0] >= log_sigma


def _check_length(n):
    if n < 1:
        raise ValidationError("n", f"segment length {n} must be >= 1")


class GoodCollection:
    """Segments whose every trailing window beats the threshold."""

    refine_depth = 0

    def __init__(self, cfg):
        self.cfg = cfg
        self.name = f"good({cfg.sigma:g})"

    def member_mask(self, system, points, n):
        logs = segment_log_sigma(system, np.asarray(points), n)
        return good_mask(logs, self.cfg.log_sigma)

    def pool_mask(self, tree, n, depth):
        """Member mask of the depth-`depth` representatives of `tree`:
        `good_mask` of their log sigma rows, since every mean of a row is
        below log sigma exactly when the largest is."""
        _, worst = tree.window_means(n, depth)
        return worst < self.cfg.log_sigma

    def contains(self, system, x, n):
        _check_length(n)
        return bool(self.member_mask(system, np.atleast_1d(x), n)[0])


class BadCollection:
    """Segments whose full-window average fails the threshold.

    The enumerator is refined with deeper-tree cylinder representatives:
    near neutral behavior the depth-n representative of a cylinder can
    escape faster than the cylinder's slowest points, so one representative
    per n-cylinder undercounts the bad set."""

    refine_depth = 4

    def __init__(self, cfg):
        self.cfg = cfg
        self.name = f"bad({cfg.sigma:g})"

    def member_mask(self, system, points, n):
        logs = segment_log_sigma(system, np.asarray(points), n)
        return bad_mask(logs, self.cfg.log_sigma)

    def pool_mask(self, tree, n, depth):
        """Member mask of the depth-`depth` representatives of `tree`:
        `bad_mask` of their log sigma rows."""
        first, _ = tree.window_means(n, depth)
        return first >= self.cfg.log_sigma

    def contains(self, system, x, n):
        _check_length(n)
        return bool(self.member_mask(system, np.atleast_1d(x), n)[0])


def draw_good_segments(system, cfg, rng, count, length_range, max_attempts):
    """Draw good segments by rejection until `count` are found or
    `max_attempts` segments have been drawn.

    Each candidate is drawn as the one-at-a-time loop draws it: x =
    rng.random(), then n = rng.integers(lo, hi + 1) for length_range
    (lo, hi).  Draws are made and classified in blocks, each with one
    `segment_log_sigma` call at the block's longest length and each
    candidate on its own prefix, as `cli.cmd_decompose` does; once `count`
    are found the generator state is set back to just after the last
    candidate used.  So the segments, the attempt count and the generator
    state are those of the loop that classifies one candidate per draw.  Returns
    (segments, attempts); fewer than `count` segments mean the attempts
    ran out.
    """
    lo, hi = length_range
    found = []
    attempts = 0
    block = min(2 * count + 2, _DRAW_BLOCK_CAP)
    while len(found) < count and attempts < max_attempts:
        size = min(block, max_attempts - attempts)
        xs, ns, states = [], [], []
        for _ in range(size):
            xs.append(float(rng.random()))
            ns.append(int(rng.integers(lo, hi + 1)))
            states.append(rng.bit_generator.state)
        logs = segment_log_sigma(system, np.array(xs), max(ns))
        for i, (x, n, row) in enumerate(zip(xs, ns, logs)):
            if good_mask(row[:n], cfg.log_sigma):
                found.append(OrbitSegment(x, n))
                if len(found) == count:
                    rng.bit_generator.state = states[i]
                    return found, attempts + i + 1
        attempts += size
        block = min(2 * block, _DRAW_BLOCK_CAP)
    return found, attempts


def obstruction_sample(system, cfg, points, k_max):
    """Scan Birkhoff averages of log sigma up to the horizon for each point."""
    if k_max < 1:
        raise ValidationError("k_max", "horizon must be >= 1")
    points = np.atleast_1d(np.asarray(points, dtype=float))
    logs = segment_log_sigma(system, points, k_max)
    means = np.cumsum(logs, axis=1) / np.arange(1, k_max + 1)
    below = means < cfg.log_sigma
    entries = []
    for i, x in enumerate(points):
        fail = np.flatnonzero(below[i])
        if fail.size == 0:
            entries.append((float(x), 1))
        elif fail[-1] == k_max - 1:
            entries.append((float(x), None))
        else:
            entries.append((float(x), int(fail[-1]) + 2))
    return ObstructionSample(horizon=k_max, entries=tuple(entries))


# ---------------------------------------------------------------------------
# backward contraction along good segments
# ---------------------------------------------------------------------------

def pull_back_ends(system, orbit, ns, shifts):
    """Time-0 ends of pullback chains along good segments, one per row of
    `orbit`.

    Row r's end point orbit[r, n_r] + shifts[r] is reduced mod 1 twice, so
    that a negative end within rounding of 0 lands on 0.0 rather than 1.0,
    and pulled back n_r steps through the local inverses at
    orbit[r, n_r - 1], ..., orbit[r, 0], each step continuing the inverse
    branch through the reference point at that time.  The
    chains are aligned at their end times: step j pulls back time n_r - 1 - j
    of every row with n_r > j in one call.
    """
    ns = np.asarray(ns)
    cur = ((orbit[np.arange(ns.size), ns] + shifts) % 1.0) % 1.0
    for j in range(int(ns.max(initial=0))):
        act = np.flatnonzero(ns > j)
        cur[act] = system.pullback(orbit[act, ns[act] - 1 - j], cur[act])
    return cur
