"""Hot numeric kernels, pure numpy.

Orbit rows hold one point per row and one column per time step, with all
values reduced to [0, 1).  The Bowen distance between two rows is the max
over columns of the circle distance ``min(d, 1 - d)``, ``d = |x - y|``.

The separated-set kernel takes its conflicts (row pairs closer than eps)
as given.  Cylinder-tree pools get them from the tree, which finds one
column's pairs with `close_pairs` and adds a time step per level with
`circle_close`; no kernel screens the columns of a whole pool.
"""

import numpy as np

from .errors import NodeCapError

# Widens the window of `close_pairs` past eps so that rounding in the
# window bounds can never drop a true neighbour; points inside the window
# still get the exact test, so the pad changes the work done, not the result.
_WINDOW_PAD = 1e-9


def backend():
    return "numpy"


# ---------------------------------------------------------------------------
# close pairs of one column, and the greedy (n, eps)-separated walk
#
# A Bowen distance below eps is a circle distance below eps at every time,
# and |x - y| is exactly |y - x|, so pairs tested one column at a time with
# `circle_close` are exactly the pairs the quadratic reference finds.
# ---------------------------------------------------------------------------

# Window pairs screened per vectorised step; bounds the temporaries of the
# one-column search at a few MB whatever the number of points.
_PAIR_CHUNK = 1 << 16


def circle_close(x, y, eps):
    """Elementwise mask of circle distance ``min(d, 1 - d) < eps``."""
    dist = np.abs(x - y)
    return np.minimum(dist, 1.0 - dist) < eps


def close_pairs(x, eps, max_pairs):
    """Index pairs of the points `x` at circle distance < eps, as a (2, K)
    int32 array with each unordered pair once.

    With the points sorted, point i is tested against the points after it
    up to x[i] + eps and those from x[i] + 1 - eps on (the wrap at 0/1),
    which hold every point closer than eps and never overlap, in chunks of
    `_PAIR_CHUNK` window pairs.  Raises NodeCapError, naming eps, when more
    than `max_pairs` window pairs would be tested.
    """
    x = np.asarray(x, dtype=np.float64)
    by_x = np.argsort(x, kind="stable").astype(np.int32)
    x0 = x[by_x]
    half = eps + _WINDOW_PAD
    n = x0.size
    below = np.arange(1, n + 1)
    if 2.0 * half >= 1.0:
        ahead = wrap = np.full(n, n)
    else:
        ahead = np.maximum(np.searchsorted(x0, x0 + half), below)
        wrap = np.maximum(np.searchsorted(x0, x0 + 1.0 - half), ahead)
    # one segment of consecutive sorted points per (point, window part)
    owner = np.concatenate((below - 1, below - 1))
    first = np.concatenate((below, wrap))
    count = np.concatenate((ahead - below, n - wrap))
    ends = np.cumsum(count)
    # pair p of segment s is (owner[s], p + shift[s])
    shift = first - (ends - count)
    total = int(ends[-1]) if n else 0
    if total > max_pairs:
        raise NodeCapError(f"eps {eps!r}: {total} candidate pairs exceed the "
                           f"pair budget {max_pairs}")
    found = [np.empty((2, 0), dtype=np.int32)]
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(total, lo + _PAIR_CHUNK)
        s0, s1 = np.searchsorted(ends, (lo, hi - 1), side="right").tolist()
        per_seg = count[s0:s1 + 1].copy()
        per_seg[0] -= lo - (ends[s0] - count[s0])
        per_seg[-1] -= ends[s1] - hi
        i = np.repeat(owner[s0:s1 + 1], per_seg)
        j = np.arange(lo, hi) + np.repeat(shift[s0:s1 + 1], per_seg)
        near = circle_close(x0[i], x0[j], eps)
        found.append(by_x[np.stack((i[near], j[near]))])
    return np.concatenate(found, axis=1)


def greedy_separated(orbits, order, pairs):
    """Boolean keep-mask of the greedy maximal (n, eps)-separated subset.

    `pairs` holds the pool's conflicts, the row pairs at Bowen distance
    < eps, as a (2, K) array with each unordered pair once; only the row
    count of `orbits` is read.  Every row without a conflict is kept; the
    conflicting rows are walked in `order`, each row still alive kept and
    its neighbours marked dead.  Time is O(rows + conflicts), with a Python
    step per conflicting row only.  The package passes cylinder-tree pools,
    whose conflicts the tree finds level by level; a dense pool, where most
    rows conflict (e.g. thousands of uniform points at n = 1 and a large
    eps), costs time and memory in the number of conflicting pairs, which
    grows with the square of the pool.
    """
    n_cand = np.shape(orbits)[0]
    order = np.asarray(order, dtype=np.int64)
    pairs = np.asarray(pairs, dtype=np.int64).reshape(2, -1)
    if pairs.shape[1] == 0:
        return np.ones(n_cand, dtype=bool)
    keep = np.zeros(n_cand, dtype=bool)
    src = np.concatenate((pairs[0], pairs[1]))
    neighbours = np.concatenate((pairs[1], pairs[0]))[np.argsort(src, kind="stable")]
    indptr = np.zeros(n_cand + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n_cand), out=indptr[1:])
    # a row without conflicts is kept and marks no other row dead, so only
    # the conflicting rows need the walk
    free = indptr[order] == indptr[order + 1]
    keep[order[free]] = True
    indptr = indptr.tolist()
    # dead[r] is set once row r is kept or conflicts with a kept row; the
    # array shares its bytes, for marking a neighbour list in one call
    dead = bytearray(n_cand)
    dead_arr = np.frombuffer(dead, dtype=bool)
    kept = []
    for r in order[~free].tolist():
        if dead[r]:
            continue
        kept.append(r)
        dead[r] = 1
        dead_arr[neighbours[indptr[r]:indptr[r + 1]]] = True
    keep[kept] = True
    return keep


# ---------------------------------------------------------------------------
# pairwise Bowen distance matrix (small candidate pools only)
# ---------------------------------------------------------------------------

# Elements per temporary of `pairwise_bowen`: 2^15 float64s (256 KB) keep a
# row block and its two temporaries in a 2 MB per-core L2 cache while the
# block runs through every column.
_BOWEN_BLOCK = 1 << 15


def pairwise_bowen(orbits):
    """Full matrix of Bowen distances between orbit rows.

    Built one time step at a time: the circle distances of one column, then
    a running max, in row blocks that keep the two temporaries at
    `_BOWEN_BLOCK` elements (256 KB) each, or one row when a row is longer.
    x - y is exactly -(y - x) and max, min and abs are exact, so the matrix
    is exactly symmetric, does not depend on the order of the columns, and
    is bitwise the same for every block size.
    """
    orbits = np.asarray(orbits, dtype=np.float64)
    n = orbits.shape[0]
    out = np.zeros((n, n))
    block = max(1, _BOWEN_BLOCK // max(1, n))
    d_buf = np.empty((min(n, block), n))
    wrap_buf = np.empty_like(d_buf)
    cols = np.ascontiguousarray(orbits.T)
    for lo in range(0, n, block):
        rows = out[lo:lo + block]
        d, wrap = d_buf[:rows.shape[0]], wrap_buf[:rows.shape[0]]
        for col in cols:
            np.subtract(col[lo:lo + block, None], col[None, :], out=d)
            np.abs(d, out=d)
            np.subtract(1.0, d, out=wrap)
            np.minimum(d, wrap, out=d)
            np.maximum(rows, d, out=rows)
    return out

