"""Independent reference computations used to freeze expected test values.

Everything here is deliberately brute force and shares no code path with the
package: bisection on explicit functions, exhaustive subset search for
separated sets, dense-point interval images for covering times, and direct
window scans for segment classification.
"""

import numpy as np


def circ(x, y):
    d = abs(float(x) - float(y)) % 1.0
    return min(d, 1.0 - d)


def bisect_root(f, lo, hi, iters=100):
    """Plain bisection for a sign change of f on [lo, hi]."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if (f(mid) < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def orbit_of(forward, x, n):
    out = [float(x) % 1.0]
    for _ in range(n - 1):
        out.append(float(forward(out[-1])) % 1.0)
    return out


def bowen_matrix(forward, points, n):
    orbits = [orbit_of(forward, p, n) for p in points]
    m = len(points)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            d = max(circ(a, b) for a, b in zip(orbits[i], orbits[j]))
            out[i, j] = out[j, i] = d
    return out


def max_separated_cardinality(forward, points, n, eps):
    """Exact maximum size of an (n, eps)-separated subset, by branch and
    bound over the conflict graph (feasible for small pools)."""
    d = bowen_matrix(forward, points, n)
    m = len(points)
    compatible = d >= eps
    np.fill_diagonal(compatible, False)
    if compatible.sum() == m * (m - 1):
        return m  # every pair separated

    best = 0

    def grow(chosen_mask, start, size):
        nonlocal best
        best = max(best, size)
        for i in range(start, m):
            if size + (m - i) <= best:
                return
            if chosen_mask[i]:
                grow(chosen_mask & compatible[i], i + 1, size + 1)

    grow(np.ones(m, dtype=bool), 0, 0)
    return best


def covering_time_dense(forward, y, eps, points=20000, bins=512, cap=200):
    """Covering time of the eps-ball around y by dense forward simulation."""
    xs = (y + np.linspace(-eps, eps, points)) % 1.0
    for t in range(1, cap + 1):
        xs = np.asarray(forward(xs)) % 1.0
        counts = np.bincount((xs * bins).astype(int) % bins, minlength=bins)
        if np.all(counts > 0):
            return t
    raise AssertionError("no covering time below cap")


def window_means(log_values):
    """All trailing-window means [mean(v[j:]) for j]."""
    v = np.asarray(log_values, dtype=float)
    return [float(v[j:].mean()) for j in range(v.size)]


def is_good(log_values, log_sigma):
    return all(m < log_sigma for m in window_means(log_values))


def is_bad(log_values, log_sigma):
    return float(np.mean(log_values)) >= log_sigma


def brute_split(log_values, log_sigma):
    """Smallest m whose suffix is bad, scanning every split point."""
    n = len(log_values)
    for m in range(n):
        if is_bad(log_values[m:], log_sigma):
            return m
    return n


def greedy_separated_quadratic(orbits, order, eps):
    """Reference greedy (n, eps)-separated keep-mask: every kept candidate is
    compared with every still-alive row of the pool."""
    n_cand = orbits.shape[0]
    keep = np.zeros(n_cand, dtype=bool)
    # alive[i] == True while i is >= eps away from every kept candidate
    alive = np.ones(n_cand, dtype=bool)
    for idx in order:
        if not alive[idx]:
            continue
        keep[idx] = True
        cand = np.flatnonzero(alive)
        d = np.abs(orbits[cand] - orbits[idx])
        d = np.minimum(d, 1.0 - d)
        alive[cand[d.max(axis=1) < eps]] = False
    return keep
