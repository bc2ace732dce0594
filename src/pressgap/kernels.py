"""Hot numeric kernels, pure numpy.

Orbit rows hold one point per row and one column per time step, with all
values reduced to [0, 1).  The Bowen distance between two rows is the max
over columns of the circle distance ``min(d, 1 - d)``, ``d = |x - y|``.
"""

import numpy as np

# Widens the time-0 window past eps so that rounding in the window bounds
# can never drop a true neighbour; rows inside the window still get the
# exact test, so the pad changes the work done, not the result.
_WINDOW_PAD = 1e-9


def backend():
    return "numpy"


# ---------------------------------------------------------------------------
# greedy (n, eps)-separated selection
#
# Processing follows `order`; a candidate is kept iff its Bowen distance to
# every previously kept candidate is >= eps.  A Bowen distance below eps
# implies circle distances below eps at every time, so with the pool sorted
# on column 0 a kept row need only look at the rows in its circular time-0
# window (found by binary search).  Those are screened on the last column,
# where an expanding map has spread neighbours furthest apart, and the
# survivors get the full test.  Each screen is the same elementwise test as
# the full one, so the keep-mask is the same as comparing with every row.
# ---------------------------------------------------------------------------

def greedy_separated(orbits, order, eps):
    """Boolean keep-mask of the greedy maximal (n, eps)-separated subset."""
    orbits = np.ascontiguousarray(orbits, dtype=np.float64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    eps = float(eps)
    n_cand = orbits.shape[0]
    keep = np.zeros(n_cand, dtype=bool)
    if n_cand == 0:
        return keep
    by_x0 = np.argsort(orbits[:, 0], kind="stable")
    rows = orbits[by_x0]
    x0, last = rows[:, 0], np.ascontiguousarray(rows[:, -1])
    rank = np.empty(n_cand, dtype=np.int64)
    rank[by_x0] = np.arange(n_cand)
    # windows[r] = (a, b, c, d): sorted rows [0, a), [b, c) and [d, n_cand)
    # hold every time-0 neighbour of sorted row r; the outer two are the
    # wrap at 0/1
    half = eps + _WINDOW_PAD
    if 2.0 * half >= 1.0:
        windows = np.tile([0, 0, n_cand, n_cand], (n_cand, 1))
    else:
        windows = np.searchsorted(x0, np.stack(
            (x0 - 1.0 + half, x0 - half, x0 + half, x0 + 1.0 - half), axis=1))
    windows = windows.tolist()
    # alive[r] == True while sorted row r is >= eps away from every kept row
    alive = np.ones(n_cand, dtype=bool)
    kept = []
    for r in rank[order].tolist():
        if not alive[r]:
            continue
        kept.append(r)
        alive[r] = False
        row = rows[r]
        a, b, c, d = windows[r]
        for lo, hi in ((0, a), (b, c), (d, n_cand)):
            if lo >= hi:
                continue
            dist = np.abs(last[lo:hi] - row[-1])
            near = np.minimum(dist, 1.0 - dist) < eps
            near &= alive[lo:hi]
            cand = lo + np.flatnonzero(near)
            if cand.size == 0:
                continue
            dist = np.abs(rows[cand] - row)
            dist = np.minimum(dist, 1.0 - dist)
            alive[cand[dist.max(axis=1) < eps]] = False
    keep[by_x0[kept]] = True
    return keep


# ---------------------------------------------------------------------------
# pairwise Bowen distance matrix (small candidate pools only)
# ---------------------------------------------------------------------------

def pairwise_bowen(orbits):
    """Full matrix of Bowen distances between orbit rows.

    Built one time step at a time: the circle distances of one column, then
    a running max, in row blocks that keep the two temporaries at most
    8 MB each.  x - y is exactly -(y - x) and max, min and abs are exact,
    so the matrix is exactly symmetric and does not depend on the order of
    the columns.
    """
    orbits = np.asarray(orbits, dtype=np.float64)
    n = orbits.shape[0]
    out = np.zeros((n, n))
    block = max(1, (1 << 20) // max(1, n))
    d_buf = np.empty((min(n, block), n))
    wrap_buf = np.empty_like(d_buf)
    for lo in range(0, n, block):
        rows = out[lo:lo + block]
        d, wrap = d_buf[:rows.shape[0]], wrap_buf[:rows.shape[0]]
        for col in orbits.T:
            np.subtract(col[lo:lo + block, None], col[None, :], out=d)
            np.abs(d, out=d)
            np.subtract(1.0, d, out=wrap)
            np.minimum(d, wrap, out=d)
            np.maximum(rows, d, out=rows)
    return out


def min_bowen_distance(orbits):
    """Smallest pairwise Bowen distance among orbit rows (inf for < 2 rows)."""
    if orbits.shape[0] < 2:
        return np.inf
    d = pairwise_bowen(orbits)
    np.fill_diagonal(d, np.inf)
    return float(d.min())
