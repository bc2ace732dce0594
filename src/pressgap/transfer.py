"""Discretized transfer operator: independent ground truth for pressure.

The operator (L psi)(x) = sum over branches of e^(phi(y_b)) psi(y_b), with
y_b the branch preimages of x, is tabulated on a uniform circle grid with
linear interpolation between nodes.  Power iteration gives the leading
eigenvalue lambda (pressure = log lambda), the eigenfunction, and -- through
the adjoint -- the eigenmeasure; their renormalized product is the
equilibrium density.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError


@dataclass
class OperatorGrid:
    system: object
    phi: object
    size: int
    nodes: np.ndarray          # (G,)
    preimages: np.ndarray      # (D, G)
    weights: np.ndarray        # (D, G), e^(phi(preimage))
    idx: np.ndarray            # (D, G) lower interpolation node
    frac: np.ndarray           # (D, G) interpolation fraction
    # interpolation stencils, computed once per operator
    one_minus_frac: np.ndarray  # (D, G)
    stencil_idx: np.ndarray    # (2, D, G) idx and idx + 1 (mod G)
    stencil_w: np.ndarray      # (2, D, G) weights*(1-frac) and weights*frac


def build_operator(system, phi, grid_size):
    """Tabulate branch preimages and weights on a uniform grid."""
    if grid_size < system.degree * 8:
        raise ValidationError("grid_size", f"need >= {system.degree * 8}")
    nodes = np.arange(grid_size) / grid_size
    pre = system.inverse_branches(nodes)
    weights = np.exp(phi(pre))
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise ValidationError("potential", "weights must be finite and positive")
    pos = pre * grid_size
    idx = np.floor(pos).astype(np.int64) % grid_size
    frac = pos - np.floor(pos)
    one_minus_frac = 1.0 - frac
    return OperatorGrid(system=system, phi=phi, size=grid_size, nodes=nodes,
                        preimages=pre, weights=weights, idx=idx, frac=frac,
                        one_minus_frac=one_minus_frac,
                        stencil_idx=np.stack((idx, (idx + 1) % grid_size)),
                        stencil_w=np.stack((weights * one_minus_frac,
                                            weights * frac)))


def apply_operator(op, psi):
    """(L psi) at the grid nodes, psi linearly interpolated between nodes."""
    lo, hi = psi.take(op.stencil_idx)
    vals = op.one_minus_frac * lo + op.frac * hi
    return (op.weights * vals).sum(axis=0)


def apply_adjoint(op, m):
    """(L^T m): scatter node masses onto the interpolation stencils.

    bincount adds in input order, all lower nodes first, then all upper
    nodes, starting from zero.
    """
    return np.bincount(op.stencil_idx.ravel(),
                       weights=(op.stencil_w * m).ravel(), minlength=op.size)


@dataclass
class EigenData:
    lam: float
    log_lam: float
    eigenfunction: np.ndarray       # normalized to max = 1
    eigenmeasure: np.ndarray        # nonnegative, sums to 1
    equilibrium_density: np.ndarray  # h * nu, renormalized
    iterations: int
    residual: float
    converged: bool


def _power_iterate(apply_fn, size, tol, max_iters):
    psi = np.ones(size)
    rq_prev = np.inf
    for it in range(1, max_iters + 1):
        nxt = apply_fn(psi)
        if np.any(nxt <= 0.0):
            raise ConvergenceError("power iteration lost positivity")
        rq = float(nxt @ psi / (psi @ psi))
        psi = nxt / np.linalg.norm(nxt)
        if abs(rq - rq_prev) < tol:
            return psi, rq, it
        rq_prev = rq
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations (last Rayleigh step "
        f"{abs(rq - rq_prev):.3g}); spectral gap may be absent at this scale")


def leading_eigen(op, tol=1e-13, max_iters=20000):
    """Leading eigendata of the operator by forward and adjoint power iteration.

    Raises ConvergenceError when successive Rayleigh quotients fail to settle
    within `max_iters` -- surfaced, not hidden, since intermittent regimes
    can lack a spectral gap.
    """
    if tol <= 0:
        raise ValidationError("tol", "must be positive")
    h, lam, it_f = _power_iterate(lambda v: apply_operator(op, v), op.size,
                                  tol, max_iters)
    nu, lam_adj, it_a = _power_iterate(lambda v: apply_adjoint(op, v), op.size,
                                       tol, max_iters)
    h = h / h.max()
    nu = nu / nu.sum()
    dens = h * nu
    dens = dens / dens.sum()
    residual = float(np.max(np.abs(apply_operator(op, h) - lam * h)))
    return EigenData(lam=lam, log_lam=float(np.log(lam)), eigenfunction=h,
                     eigenmeasure=nu, equilibrium_density=dens,
                     iterations=it_f + it_a, residual=residual, converged=True)


@dataclass(frozen=True)
class EquilibriumReport:
    invariance_defect: float
    pressure_match: float


def check_equilibrium(op, eigen, test_functions, pressure_rate=None):
    """Invariance defect of the discrete equilibrium density, and the match
    between log lambda and an externally supplied pressure rate."""
    mu = eigen.equilibrium_density
    gx = op.system.forward(op.nodes)
    defect = 0.0
    for psi in test_functions:
        fwd = float(np.sum(mu * psi(gx)))
        here = float(np.sum(mu * psi(op.nodes)))
        defect = max(defect, abs(fwd - here))
    match = (float("nan") if pressure_rate is None
             else abs(eigen.log_lam - pressure_rate))
    return EquilibriumReport(invariance_defect=defect, pressure_match=match)
