"""Pressure estimation on segment collections and the uniqueness-gap report.

The growth rate of the log partition sums stands in for a limsup that finite
data cannot observe: rates are least-squares slopes over the upper half of
the n range with a residual-based uncertainty, plus a limsup proxy (max of
(1/n) log sums over the top quartile).  Empty collections report rate -inf
rather than erroring; the gap test has to handle genuinely empty bad sets.
"""

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from .decomposition import BadCollection, DecompositionConfig
from .errors import CoverError, NodeCapError, ValidationError
from .orbits import (DEFAULT_NODE_CAP, CylinderTree, FullCollection,
                     greedy_cover, partition_sum_sep, tree_depth)


@dataclass(frozen=True)
class PressureEstimate:
    eps: float
    n_values: Tuple[int, ...]
    log_partition_sums: Tuple[float, ...]
    rate: float
    rate_uncertainty: float
    limsup_proxy: float
    is_empty: bool
    collection: str = "full"


def growth_fit(n_values, log_sums):
    """Slope of log sums against n over the upper half of the range.

    Returns (rate, uncertainty, limsup_proxy, is_empty).  Rows with empty
    pools (log sum -inf) are dropped; if fewer than two finite rows remain
    in the upper half the fit widens to all finite rows, and with none the
    collection is flagged empty (rate -inf by convention).
    """
    n_values = np.asarray(n_values, dtype=float)
    log_sums = np.asarray(log_sums, dtype=float)
    finite = np.isfinite(log_sums)
    if not np.any(finite):
        return -np.inf, 0.0, -np.inf, True
    half = n_values >= n_values[finite].max() / 2.0
    sel = finite & half
    if sel.sum() < 2:
        sel = finite
    ns, ls = n_values[sel], log_sums[sel]
    if ns.size < 2:
        rate, unc = float(ls[0] / ns[0]), float("inf")
    else:
        slope, intercept = np.polyfit(ns, ls, 1)
        resid = ls - (slope * ns + intercept)
        dof = max(1, ns.size - 2)
        denom = float(np.sum((ns - ns.mean()) ** 2))
        unc = float(np.sqrt(np.sum(resid**2) / dof / denom))
        rate = float(slope)
    top = n_values >= np.quantile(n_values[finite], 0.75)
    proxy_rows = finite & top
    if not np.any(proxy_rows):
        proxy_rows = finite
    proxy = float(np.max(log_sums[proxy_rows] / n_values[proxy_rows]))
    return rate, unc, proxy, False


def pressure_at_scale(system, phi, coll, eps, n_max, tree=None):
    """Estimate the pressure of phi on the collection at scale eps.

    Log partition sums are computed for n = 1..n_max over greedy separated
    sets of cylinder representatives and fitted for the growth rate.
    """
    if n_max < 4:
        raise ValidationError("n_max", "need n_max >= 4 for a rate fit")
    if not 0 < eps < np.inf:
        raise ValidationError("eps", "must be positive and finite")
    ns = list(range(1, n_max + 1))
    if tree is None:
        depth = tree_depth(system, n_max, coll.refine_depth)
        tree = CylinderTree(system, depth)
    logs = [partition_sum_sep(system, phi, coll, n, eps, log=True, tree=tree)
            for n in ns]
    rate, unc, proxy, empty = growth_fit(ns, logs)
    return PressureEstimate(
        eps=float(eps), n_values=tuple(ns),
        log_partition_sums=tuple(float(v) for v in logs),
        rate=rate, rate_uncertainty=unc, limsup_proxy=proxy,
        is_empty=empty, collection=coll.name)


def katok_sn(system, phi, orbit_sample, delta, eta, n):
    """Greedy approximation of the Katok partition quantity s_n.

    The empirical measure is uniform on `orbit_sample` (a long generic
    orbit).  Closed Bowen balls of radius delta are added greedily by most
    uncovered mass (ties by smaller Birkhoff sum, then index) until a mass
    fraction eta is covered; the value is the weight sum over the chosen
    centers.  The cover needs N x N matrices, so a sample of N points with
    N^2 > 64 DEFAULT_NODE_CAP raises NodeCapError, the pool bound of
    `partition_sum_span`.
    """
    if not 0.0 < eta < 1.0:
        raise CoverError(f"eta={eta} outside (0, 1): cover infeasible")
    sample = np.atleast_1d(np.asarray(orbit_sample, dtype=float)) % 1.0
    if sample.size == 0:
        raise ValidationError("orbit_sample", "must be nonempty")
    if sample.size ** 2 > DEFAULT_NODE_CAP * 64:
        raise NodeCapError(f"Katok pool of {sample.size} points too large for the "
                           f"pairwise cover matrix at node cap {DEFAULT_NODE_CAP}")
    orbits = system.orbit(sample, n)
    weights = np.asarray(phi(orbits)).sum(axis=1)
    # each point carries mass 1/N: cover the fewest points whose mass
    # reaches eta, less a 1e-12 slack
    chosen = greedy_cover(orbits, delta, weights,
                          math.ceil((eta - 1e-12) * sample.size))
    return float(np.exp(weights[chosen]).sum() if chosen.size else 0.0)


@dataclass(frozen=True)
class GapReport:
    """Pressure of the bad collection against the full pressure at one sigma."""

    sigma: float
    p_full: PressureEstimate
    p_bad: PressureEstimate
    gap: float
    hypothesis_holds: bool

    @classmethod
    def build(cls, sigma, p_full, p_bad):
        if p_bad.is_empty:
            gap = float("inf")
        else:
            gap = p_full.rate - p_bad.rate
        combined = p_full.rate_uncertainty + (0.0 if p_bad.is_empty
                                              else p_bad.rate_uncertainty)
        return cls(sigma=float(sigma), p_full=p_full, p_bad=p_bad,
                   gap=gap, hypothesis_holds=bool(gap > combined))


def gap_report(system, phi, sigma_grid, eps, n_max):
    """Gap reports over a sigma grid, one per sigma in grid order.

    One cylinder tree serves the full estimate and every bad-collection
    estimate, so the tree's sigma field is computed once for the grid.

    Raising sigma strengthens the full-window failure condition, so the bad
    collection shrinks and its rate is nonincreasing along an increasing
    grid; the gap widens with sigma.
    """
    sigmas = [float(s) for s in sigma_grid]
    for s in sigmas:
        if not 0.0 < s < 1.0:
            raise ValidationError("sigma", f"{s} outside (0, 1)")
    depth = tree_depth(system, n_max, BadCollection.refine_depth)
    tree = CylinderTree(system, depth)
    p_full = pressure_at_scale(system, phi, FullCollection(), eps, n_max, tree=tree)
    reports = []
    for s in sigmas:
        p_bad = pressure_at_scale(system, phi, BadCollection(DecompositionConfig(s)),
                                  eps, n_max, tree=tree)
        reports.append(GapReport.build(s, p_full, p_bad))
    return reports


@dataclass(frozen=True)
class HypothesisReport:
    """Aggregate of the three uniqueness hypotheses at the tested scales.

    This is scale-limited numerical evidence for the hypotheses of the
    uniqueness criterion -- never a proof.
    """

    gap_ok: bool
    bowen_ok: bool
    specification_ok: bool
    sigma: float
    tested_scale: float
    blockers: Tuple[str, ...] = field(default=())

    @property
    def passes(self):
        return self.gap_ok and self.bowen_ok and self.specification_ok

    def summary(self):
        status = "pass" if self.passes else "fail"
        note = "scale-limited numerical evidence, not a proof"
        if self.blockers:
            return f"{status} (blocked by: {', '.join(self.blockers)}; {note})"
        return f"{status} ({note})"


def ct_hypothesis_check(gap: GapReport, bowen_finite: bool, spec_verified: bool):
    """Combine the pressure gap, Bowen-bound, and specification checks."""
    blockers = []
    if not gap.hypothesis_holds:
        blockers.append("pressure gap")
    if not bowen_finite:
        blockers.append("Bowen bound")
    if not spec_verified:
        blockers.append("specification")
    return HypothesisReport(
        gap_ok=gap.hypothesis_holds, bowen_ok=bool(bowen_finite),
        specification_ok=bool(spec_verified), sigma=gap.sigma,
        tested_scale=gap.p_full.eps, blockers=tuple(blockers))
