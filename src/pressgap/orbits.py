"""Cylinder enumeration, segment collections' pools, and partition sums.

Separated sets are built greedily from the depth-n inverse-branch cylinder
representatives: for an expanding map the n-cylinders are exactly the
resolution at which the n-th Bowen metric distinguishes points, so the
candidate pool is the anchor point pulled back through every depth-n branch
chain.  The greedy value is a lower bound for the separated-set supremum and
the greedy set is simultaneously a spanning set of the pool.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import CoverError, NodeCapError, ValidationError

DEFAULT_NODE_CAP = 1 << 18
DEFAULT_ANCHOR = 0.5


@dataclass(frozen=True)
class OrbitSegment:
    """The orbit segment (x, n): a start point plus a length."""

    start: float
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValidationError("length", "orbit segments need length >= 1")


class FullCollection:
    """The collection of all orbit segments."""

    name = "full"
    refine_depth = 0

    def pool_mask(self, tree, n, depth):
        """Every depth-`depth` representative of `tree` is a member."""
        return np.ones(tree.levels[depth].size, dtype=bool)


class CylinderTree:
    """Anchor pullbacks through every inverse-branch chain up to depth n.

    Level k holds one representative per depth-k cylinder, indexed by the
    branch address read most-significant-first in base `degree`.  Forward
    orbits of representatives are exact level lookups: dropping the leading
    address digit is one application of the map.  The log sigma field is
    cached per level, its window means per (n, depth) and the Bowen
    conflicts per (n, depth, eps), so every collection, sigma and eps served
    by one tree classifies each pool once and finds each pair set once.
    """

    def __init__(self, system, depth, anchor=DEFAULT_ANCHOR):
        if system.degree ** depth > DEFAULT_NODE_CAP:
            raise NodeCapError(f"degree^{depth} = {system.degree ** depth} "
                               f"exceeds node cap {DEFAULT_NODE_CAP}")
        self.system = system
        self.depth = depth
        self.anchor = float(anchor)
        levels = [np.array([self.anchor])]
        for _ in range(depth):
            prev = levels[-1]
            nxt = np.concatenate([system.branch_solve(b, prev)
                                  for b in range(system.degree)])
            levels.append(nxt)
        self.levels = levels
        self._log_sigma_levels = {}
        self._window_means = {}
        self._conflicts = {}

    def _log_sigma_level(self, k):
        if k not in self._log_sigma_levels:
            self._log_sigma_levels[k] = np.log(self.system.branch_lipschitz(self.levels[k]))
        return self._log_sigma_levels[k]

    def orbit_matrix(self, n=None, depth=None, rows=None):
        """Orbits of the depth-`depth` representatives over n time steps,
        of the addresses `rows` only when given.

        Dropping the leading address digit is one application of the map, so
        columns are exact level lookups (no forward float iteration).
        """
        depth = self.depth if depth is None else depth
        n = depth if n is None else n
        if n > depth:
            raise ValidationError("n", "orbit length exceeds tree depth")
        addr = (np.arange(self.levels[depth].size) if rows is None
                else np.asarray(rows, dtype=np.int64))
        out = np.empty((addr.size, n))
        for k in range(n):
            suffix = addr % (self.system.degree ** (depth - k))
            out[:, k] = self.levels[depth - k][suffix]
        return out

    def log_sigma_matrix(self, n, depth=None):
        """log of the inverse-branch Lipschitz field along representative
        orbits, cached per level."""
        depth = self.depth if depth is None else depth
        size = self.levels[depth].size
        out = np.empty((size, n))
        addr = np.arange(size)
        for k in range(n):
            suffix = addr % (self.system.degree ** (depth - k))
            out[:, k] = self._log_sigma_level(depth - k)[suffix]
        return out

    def window_means(self, n, depth):
        """(full-window mean, largest trailing-window mean) of log sigma
        along each depth-`depth` representative's length-n orbit, cached
        per (n, depth).  A row is a good segment iff the largest mean beats
        log sigma, and a bad one iff the full-window mean does not.

        Dropping the leading address digit is one step of the map, so times
        1..n-1 of row `addr` are the (n - 1, depth - 1) row
        `addr % degree**(depth - 1)`: the sum is the level's log sigma plus
        that row's sum, and the largest mean is the larger of sum / n and
        that row's largest, O(rows) down to the n = 1 base.  These are
        bitwise the trailing-window means of the `log_sigma_matrix(n, depth)`
        rows that `decomposition.split_indices` tests: their reversed cumsum
        adds time 0 last to the same time-1.. sum, and division and max are
        exact.  Needs depth >= n, as `tree_depth` guarantees."""
        if (n, depth) not in self._window_means:
            if n == 1:
                logs = self.log_sigma_matrix(1, depth)[:, 0]
                entry = (logs, logs, logs)
            else:
                self.window_means(n - 1, depth - 1)
                prev_sums, _, prev_worst = self._window_means[n - 1, depth - 1]
                shape = (self.system.degree, prev_sums.size)
                sums = (self._log_sigma_level(depth).reshape(shape) + prev_sums).ravel()
                first = sums / n
                worst = np.maximum(first.reshape(shape), prev_worst).ravel()
                entry = (sums, first, worst)
            self._window_means[n, depth] = entry
        return self._window_means[n, depth][1:]

    def conflicts(self, n, depth, eps):
        """Address pairs of the depth-`depth` representatives at Bowen
        distance < eps over n time steps, as a (2, K) int32 array with each
        unordered pair once, cached per (n, depth, eps).

        Times 1..n-1 of address b * M + s, M = degree**(depth - 1), are the
        (n - 1, depth - 1) row s.  So a pair conflicts iff its time-0 circle
        distance is below eps and its suffixes are equal or a previous
        pair: each entry tests the same-suffix pairs and the previous pairs
        under every two leading digits at time 0 only, in O(rows +
        conflicts), down to the one-column search at n = 1.  Each test is
        the Bowen distance's own test of one column, so the pairs are
        exactly those of `pairwise_bowen(orbit_matrix(n, depth)) < eps`.
        Needs depth >= n.  Raises NodeCapError, naming eps, before a step
        with more than 64 * DEFAULT_NODE_CAP candidate pairs.
        """
        key = (n, depth, float(eps))
        if key not in self._conflicts:
            budget = 64 * DEFAULT_NODE_CAP
            x = self.levels[depth]
            if n == 1:
                entry = kernels.close_pairs(x, eps, budget)
            else:
                i, j = self.conflicts(n - 1, depth - 1, eps)
                degree = self.system.degree
                m = x.size // degree
                count = degree * degree * i.size + m * degree * (degree - 1) // 2
                if count > budget:
                    raise NodeCapError(f"eps {eps!r}: {count} candidate pairs at "
                                       f"(n, depth) = ({n}, {depth}) exceed the "
                                       f"pair budget {budget}")
                # time 0 of the addresses with leading digit b, by suffix
                heads = [x[b * m:(b + 1) * m] for b in range(degree)]
                found = []
                for b in range(degree):
                    for c in range(degree):
                        if b < c:
                            s = np.flatnonzero(kernels.circle_close(
                                heads[b], heads[c], eps)).astype(np.int32)
                            found.append(np.stack((s + b * m, s + c * m)))
                        near = kernels.circle_close(heads[b][i], heads[c][j], eps)
                        found.append(np.stack((i[near] + b * m, j[near] + c * m)))
                entry = np.concatenate(found, axis=1)
            self._conflicts[key] = entry
        return self._conflicts[key]


def tree_depth(system, n, refine=0):
    """Depth of the tree behind length-n pools refined by `refine` levels:
    n + refine, cut to fit degree^depth within DEFAULT_NODE_CAP, but never
    below n."""
    depth = n + refine
    while system.degree ** depth > DEFAULT_NODE_CAP and depth > n:
        depth -= 1
    return depth


def _candidate_pool(system, coll, n, eps, phi, anchor, tree=None):
    """The collection's members among the cylinder-tree representatives,
    their length-n orbits and Birkhoff weights, the greedy order, and the
    members' conflicts as (2, K) pool-row pairs.

    Membership-filtered collections may refine the pool with deeper-tree
    representatives (finer resolution, same cylinders); a passed tree is
    used when it is deep enough and shares the anchor.  Only the members'
    orbit rows are gathered, and the conflicts are the tree's pairs with
    both ends members, so one tree entry serves every collection and sigma.
    """
    if not 0 < eps < np.inf:
        raise ValidationError("eps", "must be positive and finite")
    depth = tree_depth(system, n, coll.refine_depth)
    if tree is None or tree.depth < depth or tree.anchor != float(anchor):
        tree = CylinderTree(system, depth, anchor=anchor)
    rows = np.flatnonzero(coll.pool_mask(tree, n, depth))
    points = tree.levels[depth][rows]
    orbits = tree.orbit_matrix(n, depth, rows)
    weights = np.asarray(phi(orbits)).sum(axis=1)
    # descending weight, then candidate (address) order
    order = np.lexsort((np.arange(points.size), -weights))
    pairs = np.empty((2, 0), dtype=np.int32)
    if rows.size > 1:
        local = np.full(tree.levels[depth].size, -1, dtype=np.int32)
        local[rows] = np.arange(rows.size, dtype=np.int32)
        pairs = local[tree.conflicts(n, depth, eps)]
        pairs = pairs[:, (pairs >= 0).all(axis=0)]
    return points, orbits, weights, order, pairs


def _log_sum_exp(values):
    if values.size == 0:
        return -np.inf
    m = float(np.max(values))
    return m + float(np.log(np.sum(np.exp(values - m))))


def partition_sum_sep(system, phi, coll, n, eps, anchor=DEFAULT_ANCHOR,
                      log=False, tree=None):
    """Greedy estimate of the separated-set partition sum.

    Sum of exp(S_n phi) over the greedy maximal (n, eps)-separated subset
    of the collection's cylinder-tree pool, taken in descending Birkhoff
    weight (ties by address); a lower bound for the supremum over all
    separated subsets of the pool.  With ``log=True`` the stable log-sum is
    returned (-inf for empty pools).
    """
    points, orbits, weights, order, pairs = _candidate_pool(
        system, coll, n, eps, phi, anchor, tree=tree)
    if points.size == 0:
        return -np.inf if log else 0.0
    keep = kernels.greedy_separated(orbits, order, pairs)
    log_sum = _log_sum_exp(weights[keep])
    return log_sum if log else float(np.exp(log_sum))


def greedy_cover(orbits, eps, tie_weights, target):
    """Greedy max-coverage cover by closed Bowen balls of radius eps.

    Repeatedly selects the candidate whose ball covers the most uncovered
    points (ties: smaller tie weight, then smaller index) until at least
    `target` points are covered.  Returns selected indices in pick order.

    The balls are read once from the `pairwise_bowen` matrix, as neighbour
    lists.  The gains (uncovered points per ball) are exact integers: they
    start as the ball sizes, and covering a point takes one from the gain
    of each ball that holds it, which by the matrix's exact symmetry are
    the balls around the point.  When the newly covered points' balls hold
    more than N entries together, their rows of the cover matrix are
    counted in one pass instead, so no pick walks more than N entries in
    Python.

    The picks are those of a rescan of every ball at every pick (Minoux's
    lazy greedy).  A heap holds one (-gain, tie rank) entry per candidate
    not yet picked, the tie rank being the candidate's place in one lexsort
    by (tie weight, index): NaN last, 0.0 and -0.0 equal, the order a
    lexsort of any subset of tied candidates gives them.  A stored gain is
    never below the current one, since gains only fall.  So when the top
    entry's stored gain is current, no candidate has a larger gain, nor the
    same gain and a smaller rank, and the top is the pick; a stale top is
    pushed back with its current gain and the heap read again.
    """
    n_cand = orbits.shape[0]
    if n_cand == 0:
        raise CoverError("empty candidate pool")
    cover = kernels.pairwise_bowen(orbits) <= eps
    sizes = np.count_nonzero(cover, axis=1)
    # row-major positions of the cover matrix's entries; the columns of
    # row i, in order, are near[starts[i]:ends[i]]
    near = np.flatnonzero(cover)
    np.remainder(near, n_cand, out=near)
    ends = np.cumsum(sizes).tolist()
    starts = [0] + ends[:-1]
    by_rank = np.lexsort((np.arange(n_cand), np.asarray(tie_weights)))
    heap = list(zip((-sizes[by_rank]).tolist(), range(n_cand)))
    heapq.heapify(heap)
    by_rank = by_rank.tolist()
    sizes = sizes.tolist()
    gains = sizes[:]
    uncovered = [True] * n_cand
    covered = 0
    chosen = []
    while covered < target:
        while heap:
            stored, rank = heap[0]
            i = by_rank[rank]
            best = gains[i]
            if stored == -best:
                break
            heapq.heapreplace(heap, (-best, rank))
        if not heap or best <= 0:
            raise CoverError(f"cover stalled at {covered} < target {target} points")
        heapq.heappop(heap)
        chosen.append(i)
        newly = [j for j in near[starts[i]:ends[i]].tolist() if uncovered[j]]
        for j in newly:
            uncovered[j] = False
        covered += len(newly)
        if sum(sizes[j] for j in newly) <= n_cand:
            for j in newly:
                for k in near[starts[j]:ends[j]].tolist():
                    gains[k] -= 1
        else:
            lost = np.count_nonzero(cover[newly], axis=0).tolist()
            gains = [g - d for g, d in zip(gains, lost)]
    return np.asarray(chosen, dtype=int)


def partition_sum_span(system, phi, coll, n, eps, anchor=DEFAULT_ANCHOR,
                       log=False, tree=None):
    """Greedy estimate of the spanning partition sum.

    Two spanning sets of the collection's cylinder-tree pool are
    constructed -- the max-coverage greedy cover and the greedy maximal
    separated set (maximality makes it spanning) -- and the smaller
    weighted sum is reported.  This keeps the
    estimate an upper bound for the spanning infimum restricted to
    constructed covers and guarantees span <= sep on identical inputs.
    """
    points, orbits, weights, order, pairs = _candidate_pool(
        system, coll, n, eps, phi, anchor, tree=tree)
    if points.size == 0:
        return -np.inf if log else 0.0
    if points.size ** 2 > DEFAULT_NODE_CAP * 64:
        raise NodeCapError("pool too large for pairwise cover matrix")
    chosen = greedy_cover(orbits, eps, weights, points.size)
    keep = kernels.greedy_separated(orbits, order, pairs)
    log_sum = min(_log_sum_exp(weights[chosen]), _log_sum_exp(weights[keep]))
    return log_sum if log else float(np.exp(log_sum))
