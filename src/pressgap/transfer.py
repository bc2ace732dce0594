"""Leading eigendata of the transfer operator; log lambda estimates pressure.

(L psi)(x) = sum over branches of e^(phi(y_b)) psi(y_b), y_b the branch
preimages of x, acts on the trigonometric interpolant of psi at n nodes
(Fourier collocation: pairs declared `analytic`, exponential convergence,
uncertainty from n = 31 against 63) or on its linear interpolant on a
uniform grid (every other pair, and the fallback; order 2).  h and --
through the adjoint -- nu come from thick-restart Arnoldi finished by power
steps; their renormalized product is the equilibrium density.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NodeCapError, ValidationError
from .orbits import DEFAULT_NODE_CAP


@dataclass
class OperatorGrid:
    size: int
    nodes: np.ndarray          # (G,)
    weights: np.ndarray        # (D, G), e^(phi(preimage))
    frac: np.ndarray           # (D, G) interpolation fraction
    # interpolation stencils, computed once per operator
    one_minus_frac: np.ndarray  # (D, G)
    stencil_idx: np.ndarray    # (2, D, G) idx and idx + 1 (mod G)
    stencil_w: np.ndarray      # (2, D, G) weights*(1-frac) and weights*frac


def check_grid_size(grid_size, degree=0):
    """Raise unless grid_size is within the node cap and >= 8 * degree."""
    if grid_size > DEFAULT_NODE_CAP:
        raise NodeCapError(f"grid_size {grid_size} exceeds node cap "
                           f"{DEFAULT_NODE_CAP}")
    if grid_size < degree * 8:
        raise ValidationError("grid_size", f"need >= {degree * 8}")


def _branch_weights(system, phi, size):
    """Nodes j / size, their branch preimages (D, size) and weights e^(phi)."""
    nodes = np.arange(size) / size
    pre = system.inverse_branches(nodes)
    # an overflow is reported as the ValidationError below, not as a warning
    with np.errstate(over="ignore"):
        weights = np.exp(phi(pre))
    if np.any(weights <= 0.0) or not np.all(np.isfinite(weights)):
        raise ValidationError("potential", "weights must be finite and positive")
    return nodes, pre, weights


def build_operator(system, phi, grid_size):
    """Tabulate branch preimages and weights on a uniform grid."""
    check_grid_size(grid_size, system.degree)
    nodes, pre, weights = _branch_weights(system, phi, grid_size)
    pos = pre * grid_size
    idx = np.floor(pos).astype(np.int64) % grid_size
    frac = pos - np.floor(pos)
    one_minus_frac = 1.0 - frac
    return OperatorGrid(size=grid_size, nodes=nodes, weights=weights, frac=frac,
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
    iterations: int                 # operator applications, both sides
    residual: float


# Arnoldi basis dimension, and the Ritz vectors kept at a thick restart
_KRYLOV_DIM = 12
_KEEP = 5
# leading_eigen's relative residual and Rayleigh-step tolerance, and its
# operator applications per side over both phases
_TOL = 1e-13
_MAX_APPLICATIONS = 20000
# a new basis vector this small against the applied vector's norm means
# the Krylov subspace is invariant (lucky breakdown)
_BREAKDOWN = 1e-14
# a Gram-Schmidt pass that leaves less than this share of the vector's norm
# is repeated (the Daniel-Gragg-Kaufman-Stewart test)
_REORTHOGONALIZE = 1.0 / math.sqrt(2.0)


# Sums of products avoid BLAS: a threaded BLAS splits long dot products and
# matrix-vector products between threads and so rounds them differently for
# different thread counts.  The scalars the stopping tests read use numpy's
# pairwise summation; the Arnoldi basis and its restarts use einsum, which
# is faster but sums term by term.  Only the small projected matrices go
# through LAPACK.

def _dot(a, b):
    return float(np.sum(a * b))


def _norm(a):
    return math.sqrt(_dot(a, a))


def _basis_norm(a):
    return math.sqrt(np.einsum("i,i->", a, a))


def _kept_ritz_basis(vals, vecs):
    """Orthonormal basis of the real span of the _KEEP rightmost Ritz
    vectors, or _KEEP + 1 where the last of them is half of a complex
    conjugate pair: the span of half a pair is not invariant under the small
    matrix, so the restarted Arnoldi relation would not hold."""
    cols = []
    for i in np.argsort(-vals.real, kind="stable"):
        if len(cols) >= _KEEP:
            break
        if vals[i].imag < 0.0:
            continue    # its conjugate brings both parts
        cols.append(vecs[:, i].real)
        if vals[i].imag > 0.0:
            cols.append(vecs[:, i].imag)
    return np.linalg.qr(np.stack(cols, axis=1))[0]


def _krylov_start(apply, basis, tol, budget):
    """Unit vector near the leading eigenvector, by thick-restart Arnoldi.

    `basis` holds _KRYLOV_DIM + 1 rows.  Applying the operator to a unit
    start vector x, first the normalized constant vector, is both the
    stopping test, ||L x - theta x||_2 <= tol * theta with
    theta = x . L x, and the first Arnoldi step.  Each cycle fills the
    basis V to _KRYLOV_DIM rows by classical Gram-Schmidt, with a second
    pass where the first leaves less than _REORTHOGONALIZE of the norm, so
    that L V = V H + beta v e_m^T with the unit residual vector v in the
    last row.  The free estimate |beta e_m^T y| / |theta| of the rightmost
    Ritz pair (theta, y) of H only decides when to test: once it is at most
    `tol`, or the Krylov space is invariant (lucky breakdown), the real
    part of V y, its sign chosen so that its entries sum to a positive
    number, is tested and, failing the test, becomes the next start vector.
    Otherwise the cycle restarts thick: the _KEEP rightmost Ritz vectors of
    H (real and imaginary parts, never half of a complex pair),
    orthonormalized as Q, give the first rows V Q, v follows them, H becomes
    Q^T H Q with the coupling row beta e_m^T Q below it, and Arnoldi goes on
    from v.  Every product over the grid is an einsum and the rows are
    rewritten in place.  Returns the vector, its image under the operator
    (the one the passing test computed) and the number of applications
    made.
    """
    size = basis.shape[1]
    x = np.full(size, 1.0 / math.sqrt(size))
    hess = np.zeros((_KRYLOV_DIM + 1, _KRYLOV_DIM))
    # kept = 0: the next cycle starts from x, and tests it first
    used, res, kept = 0, math.inf, 0
    while True:
        if not kept:
            if used >= budget:
                raise _out_of_applications(budget, res)
            w = apply(x)
            used += 1
            theta = _dot(w, x)
            res = _norm(w - theta * x) / abs(theta)
            if res <= tol:
                return x, w, used
            basis[0] = x
            hess[:] = 0.0
        dim = _KRYLOV_DIM
        for j in range(kept, _KRYLOV_DIM):
            if j > 0:
                if used >= budget:
                    raise _out_of_applications(budget, res)
                w = apply(basis[j])
                used += 1
            w_norm = _basis_norm(w)
            v = basis[:j + 1]
            c = np.einsum("ij,j->i", v, w)
            w -= np.einsum("i,ij->j", c, v)
            beta = _basis_norm(w)
            if beta < _REORTHOGONALIZE * w_norm:
                c2 = np.einsum("ij,j->i", v, w)
                w -= np.einsum("i,ij->j", c2, v)
                c += c2
                beta = _basis_norm(w)
            hess[:j + 1, j] = c
            if beta <= _BREAKDOWN * w_norm:
                dim = j + 1     # hess[dim, j] stays 0: the estimate reads 0
                break
            hess[j + 1, j] = beta
            np.divide(w, beta, out=basis[j + 1])
        vals, vecs = np.linalg.eig(hess[:dim, :dim])
        top = np.argmax(vals.real)
        if abs(hess[dim, dim - 1] * vecs[dim - 1, top]) <= tol * abs(vals[top]):
            x = np.einsum("i,ij->j", vecs[:, top].real, basis[:dim])
            x /= math.copysign(_norm(x), x.sum())
            kept = 0
            continue
        q = _kept_ritz_basis(vals, vecs)
        kept = q.shape[1]
        coupling = hess[dim, dim - 1] * q[dim - 1]
        small = q.T @ hess[:dim] @ q
        basis[:kept] = np.einsum("ji,jk->ik", q, basis[:dim])
        basis[kept] = basis[dim]
        hess[:] = 0.0
        hess[:kept, :kept] = small
        hess[kept, :kept] = coupling


def _out_of_applications(budget, res):
    return ConvergenceError(
        f"no convergence in {budget} operator applications (last Krylov "
        f"residual {res:.3g}); spectral gap may be absent at this scale")


def _power_finish(apply, psi, image, tol, max_iters):
    """Power steps from a nonnegative start until successive Rayleigh
    quotients differ by less than `tol`.  `image` is the start's image
    under the operator, or None where the caller does not have it; the
    first step then applies the operator.  Returns the vector the last step
    was applied to, its image under the operator, the Rayleigh quotient and
    the number of applications made, at most `max_iters`."""
    rq_prev = step = math.inf
    used = 0
    while True:
        if image is None:
            if used >= max_iters:
                raise ConvergenceError(
                    f"power steps did not settle within the {max_iters} operator "
                    f"applications left (last Rayleigh step {step:.3g}); spectral gap "
                    f"may be absent at this scale")
            image = apply(psi)
            used += 1
        if np.any(image <= 0.0):
            raise ConvergenceError("power iteration lost positivity")
        rq = _dot(image, psi) / _dot(psi, psi)
        step = abs(rq - rq_prev)
        if step < tol:
            return psi, image, rq, used
        rq_prev = rq
        psi = image / _norm(image)
        image = None


def _leading_vector(apply, basis, tol, max_iters):
    x, image, used = _krylov_start(apply, basis, tol, max_iters)
    # the test's image L x is the first power step's where |x| is x bitwise
    if np.signbit(x).any():
        image = None
    psi, image, rq, steps = _power_finish(apply, np.abs(x), image, tol,
                                          max_iters - used)
    return psi, image, rq, used + steps


def leading_eigen(op):
    """Leading eigendata of the operator, forward and adjoint.

    Each side starts with thick-restart Arnoldi (`_krylov_start`: a
    _KRYLOV_DIM-vector basis keeping _KEEP Ritz vectors at each restart)
    until an explicit test finds the relative residual of a unit vector at
    most _TOL, then finishes with power steps from the entrywise absolute
    value of that vector until successive Rayleigh quotients differ by less
    than _TOL.  Power steps with the nonnegative operator keep every entry
    of h and nu positive, which Arnoldi alone guarantees only in norm.  h
    and nu are the vectors the last power step of each side was applied to,
    so the residual max |L h - lambda h| needs no further application.
    _MAX_APPLICATIONS bounds the operator applications of each side over
    both phases, and `EigenData.iterations` counts the applications made on
    both sides.

    Raises ConvergenceError when a side runs out of applications or a power
    step loses positivity -- surfaced, not hidden, since intermittent
    regimes can lack a spectral gap.
    """
    return _eigendata(lambda v: apply_operator(op, v),
                      lambda v: apply_adjoint(op, v), op.size)


def _eigendata(apply, adjoint, size):
    tol, max_iters = _TOL, _MAX_APPLICATIONS
    basis = np.empty((_KRYLOV_DIM + 1, size))
    h, image, lam, it_f = _leading_vector(apply, basis, tol, max_iters)
    nu, _, _, it_a = _leading_vector(adjoint, basis, tol, max_iters)
    scale = h.max()
    residual = float(np.max(np.abs(image - lam * h))) / scale
    h = h / scale
    nu = nu / nu.sum()
    dens = h * nu
    dens = dens / dens.sum()
    return EigenData(lam=lam, log_lam=float(np.log(lam)), eigenfunction=h,
                     eigenmeasure=nu, equilibrium_density=dens,
                     iterations=it_f + it_a, residual=residual)


# collocation node counts: the fine one gives the estimate, and its distance
# to the coarse one the uncertainty, which must be at most _COLLOCATION_TOL
_COLLOCATION_NODES = (31, 63)
_COLLOCATION_TOL = 1e-10


def _dirichlet(d, n):
    """D_n(d) = sin(pi n d) / (n sin(pi d)), 1 at integer d (n odd)."""
    d = d - np.round(d)
    den = n * np.sin(np.pi * d)
    return np.divide(np.sin(np.pi * n * d), den, out=np.ones_like(d),
                     where=den != 0.0)


def collocation_eigen(system, phi, n):
    """Leading eigendata by Fourier collocation at the n (odd) nodes j / n:
    L[j, k] = sum over branches b of e^(phi(y_bj)) D_n(y_bj - x_k), solved as
    `leading_eigen` solves the grid, so LAPACK never sees the n x n matrix.
    Its entries and nu's weights may be negative, so a power step can raise
    ConvergenceError for losing positivity."""
    if n < 3 or n % 2 == 0:
        raise ValidationError("n", "need an odd number of nodes >= 3")
    nodes, pre, weights = _branch_weights(system, phi, n)
    matrix = np.einsum("bj,bjk->jk", weights,
                       _dirichlet(pre[:, :, None] - nodes, n))
    return _eigendata(lambda v: np.einsum("jk,k->j", matrix, v),
                      lambda m: np.einsum("jk,j->k", matrix, m), n)


def collocation_estimate(system, phi):
    """(fine eigendata, uncertainty), or None where a solve raises
    ConvergenceError, the fine h or nu has an entry <= 0 or the uncertainty
    exceeds _COLLOCATION_TOL."""
    try:
        coarse, eigen = [collocation_eigen(system, phi, n)
                         for n in _COLLOCATION_NODES]
    except ConvergenceError:
        return None
    uncertainty = abs(eigen.log_lam - coarse.log_lam)
    if (np.all(eigen.eigenfunction > 0.0) and np.all(eigen.eigenmeasure > 0.0)
            and uncertainty <= _COLLOCATION_TOL):
        return eigen, uncertainty
    return None
