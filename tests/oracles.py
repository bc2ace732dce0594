"""Independent reference computations used to freeze expected test values.

Everything here is deliberately brute force and shares no code path with the
package: bisection on explicit functions, exhaustive subset search for
separated sets, dense-point interval images for covering times, and direct
window scans for segment classification.  The one-point samplers at the
end are the exception: they are the package's earlier scalar code for
backward orbits and Bowen companions, kept so that the batched paths can be
compared with it bit for bit.
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


def extend_scalar(system, x, depth, policy="lex-min", rng=None, branches=None):
    """Reference backward orbit: one single-point branch solve per step."""
    from pressgap.extension import ExtPoint

    coords = [float(np.asarray(x) % 1.0)]
    for i in range(depth):
        if policy == "lex-min":
            b = 0
        elif policy == "random":
            b = int(rng.integers(system.degree))
        elif policy == "given":
            b = int(branches[i])
        else:
            raise ValueError(f"unknown policy {policy!r}")
        coords.append(float(system.branch_solve(b, np.float64(coords[-1]))))
    return ExtPoint(tuple(coords))


def _bowen_companion(system, ext_cfg, x_hat, n, eps, rng, sync_depth):
    """A companion in the n-Bowen ball of x_hat: base pullback through the
    segment's chain plus a fiber perturbation beyond the sync depth."""
    from pressgap.decomposition import pullback_chain
    from pressgap.extension import ExtPoint

    end = system.orbit(x_hat.coords[0], n + 1)[0][-1]
    target = (end + eps * (2.0 * rng.random() - 1.0)) % 1.0
    chain = pullback_chain(system, x_hat.coords[0], n, target)
    coords = [float(chain[0])]
    for i in range(ext_cfg.depth):
        if i < sync_depth and i < x_hat.depth:
            ref = x_hat.coords[i + 1]
            z = float(system.pullback(np.float64(ref), np.float64(coords[-1])))
        else:
            b = int(rng.integers(system.degree))
            z = float(system.branch_solve(b, np.float64(coords[-1])))
        coords.append(z)
    return ExtPoint(tuple(coords))


def verify_bowen_scalar(system, ext_cfg, dec_cfg, phi_hat, eps, n_samples,
                        n_range=(5, 20), seed=0):
    """Reference Bowen-property sampler: each accepted sample's backward
    orbit and companion are built one point at a time, interleaved with
    the random draws."""
    import math

    from pressgap.decomposition import GoodCollection
    from pressgap.extension import BowenReport, birkhoff_hat, bowen_bound
    from pressgap.maps import CIRCLE_DIAMETER

    rng = np.random.default_rng(seed)
    good = GoodCollection(dec_cfg)
    sync = max(4, int(math.ceil(math.log(CIRCLE_DIAMETER * 4.0 / eps)
                                / math.log(ext_cfg.a))))
    bound = bowen_bound(ext_cfg, dec_cfg, phi_hat.holder_constant,
                        phi_hat.holder_exponent, eps)
    n_hi = min(n_range[1], ext_cfg.depth)
    worst = 0.0
    used = 0
    attempts = 0
    while used < n_samples and attempts < 60 * n_samples:
        attempts += 1
        x = float(rng.random())
        n = int(rng.integers(n_range[0], n_hi + 1))
        if not good.contains(system, x, n):
            continue
        x_hat = extend_scalar(system, x, ext_cfg.depth, policy="random", rng=rng)
        y_hat = _bowen_companion(system, ext_cfg, x_hat, n, eps, rng, sync)
        diff = abs(birkhoff_hat(system, phi_hat, x_hat, n)
                   - birkhoff_hat(system, phi_hat, y_hat, n))
        worst = max(worst, diff)
        used += 1
    slack = 1e-9 * n_hi
    return BowenReport(empirical_max=float(worst), bound=bound,
                       truncation_slack=float(slack), samples=used)
