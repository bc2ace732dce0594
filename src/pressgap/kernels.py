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
# greedy (n, eps)-separated selection on a sparse conflict graph
#
# Processing follows `order`; a candidate is kept iff its Bowen distance to
# every previously kept candidate is >= eps.  The conflicts (pairs of rows
# at Bowen distance < eps) are found first, in one vectorised pass, and the
# greedy walk then only reads them.  A Bowen distance below eps implies
# circle distances below eps at every time, so with the pool sorted on
# column 0 the conflicts of a row lie in its circular time-0 window.  The
# window pairs are screened on the last column first, where an expanding
# map has spread neighbours furthest apart, and the survivors on each
# earlier column in turn.  Each screen is the elementwise test of the full
# Bowen distance restricted to one column, and |x - y| is exactly |y - x|,
# so the graph holds exactly the pairs the quadratic reference would find,
# and the keep-mask is the same.
# ---------------------------------------------------------------------------

# Window pairs screened per vectorised step; bounds the temporaries of the
# discovery pass at a few MB whatever the pool size.
_PAIR_CHUNK = 1 << 16


def _window_pairs(x0, half):
    """Sorted-row pairs (i, j), i < j, whose time-0 values lie within `half`
    of each other on the circle, in chunks of at most `_PAIR_CHUNK` pairs.

    Row i's pairs are the rows after it up to x0[i] + half and the rows from
    x0[i] + 1 - half on (the wrap at 0/1); a circle distance below `half`
    puts a row in one of the two, and the two never overlap.
    """
    n = x0.size
    below = np.arange(1, n + 1)
    if 2.0 * half >= 1.0:
        ahead = wrap = np.full(n, n)
    else:
        ahead = np.maximum(np.searchsorted(x0, x0 + half), below)
        wrap = np.maximum(np.searchsorted(x0, x0 + 1.0 - half), ahead)
    # one segment of consecutive sorted rows per (row, window part)
    owner = np.concatenate((below - 1, below - 1))
    first = np.concatenate((below, wrap))
    count = np.concatenate((ahead - below, n - wrap))
    ends = np.cumsum(count)
    # pair p of segment s is (owner[s], p + shift[s])
    shift = first - (ends - count)
    total = int(ends[-1])
    for lo in range(0, total, _PAIR_CHUNK):
        hi = min(total, lo + _PAIR_CHUNK)
        s0, s1 = np.searchsorted(ends, (lo, hi - 1), side="right").tolist()
        per_seg = count[s0:s1 + 1].copy()
        per_seg[0] -= lo - (ends[s0] - count[s0])
        per_seg[-1] -= ends[s1] - hi
        yield (np.repeat(owner[s0:s1 + 1], per_seg),
               np.arange(lo, hi) + np.repeat(shift[s0:s1 + 1], per_seg))


def _conflict_graph(cols, eps):
    """CSR adjacency (indptr, neighbours) of the rows at Bowen distance
    < eps from each other.  `cols` holds one time step per row, last time
    first, with the pool sorted on time 0 (so `cols[-1]` is sorted)."""
    n = cols.shape[1]
    found_i, found_j = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for i, j in _window_pairs(cols[-1], eps + _WINDOW_PAD):
        for col in cols:
            dist = np.abs(col[i] - col[j])
            near = np.flatnonzero(np.minimum(dist, 1.0 - dist) < eps)
            i, j = i[near], j[near]
            if near.size == 0:
                break
        found_i.append(i)
        found_j.append(j)
    src = np.concatenate(found_i + found_j)
    dst = np.concatenate(found_j + found_i)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[np.argsort(src, kind="stable")]


def greedy_separated(orbits, order, eps):
    """Boolean keep-mask of the greedy maximal (n, eps)-separated subset.

    Builds the conflict graph of the pool and keeps every row without a
    conflict, then walks the conflicting rows in `order`, keeping each row
    still alive and marking its neighbours dead.  Time is O(time-0 window
    pairs + conflicts), with a Python step per conflicting row only, and
    memory O(conflicts), with the window pairs screened `_PAIR_CHUNK` at a
    time.  The package passes cylinder-tree pools only: at most
    degree**refine representatives per n-cylinder, so few rows conflict
    and the graph is sparse.  A dense pool passed in directly, where most
    rows conflict (e.g. thousands of uniform points at n = 1 and a large
    eps), costs time and memory in the number of conflicting pairs, which
    grows with the square of the pool.
    """
    orbits = np.asarray(orbits, dtype=np.float64)
    order = np.asarray(order, dtype=np.int64)
    eps = float(eps)
    n_cand = orbits.shape[0]
    keep = np.zeros(n_cand, dtype=bool)
    if n_cand == 0:
        return keep
    by_x0 = np.argsort(orbits[:, 0], kind="stable")
    rank = np.empty(n_cand, dtype=np.int64)
    rank[by_x0] = np.arange(n_cand)
    # last time first: the last column screens out the most window pairs
    cols = np.ascontiguousarray(orbits[by_x0, ::-1].T)
    indptr, neighbours = _conflict_graph(cols, eps)
    # a row without conflicts is kept and marks no other row dead, so only
    # the conflicting rows need the walk
    walk = rank[order]
    free = indptr[walk] == indptr[walk + 1]
    keep[by_x0[walk[free]]] = True
    indptr = indptr.tolist()
    # dead[r] is set once sorted row r is kept or conflicts with a kept row;
    # the array shares its bytes, for marking a neighbour list in one call
    dead = bytearray(n_cand)
    dead_arr = np.frombuffer(dead, dtype=bool)
    kept = []
    for r in walk[~free].tolist():
        if dead[r]:
            continue
        kept.append(r)
        dead[r] = 1
        dead_arr[neighbours[indptr[r]:indptr[r + 1]]] = True
    keep[by_x0[kept]] = True
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

