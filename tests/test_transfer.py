import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

import pressgap as pg
from pressgap import transfer
from pressgap.errors import ConvergenceError, NodeCapError, ValidationError
from pressgap.orbits import DEFAULT_NODE_CAP, FullCollection
from pressgap.pressure import pressure_at_scale
from pressgap.transfer import apply_operator, build_operator, leading_eigen

from oracles import (check_equilibrium, leading_eigen_power,
                     leading_eigen_single_restart)


def test_operator_action_examples(doubling_map):
    op = build_operator(doubling_map, pg.zero_potential(), 256)
    ones = np.ones(256)
    assert np.allclose(apply_operator(op, ones), 2.0)
    op_c = build_operator(doubling_map, pg.constant_potential(0.4), 256)
    assert np.allclose(apply_operator(op_c, ones), 2.0 * math.exp(0.4))
    op_g = build_operator(doubling_map, pg.constant_potential(-math.log(2.0)), 256)
    assert np.allclose(apply_operator(op_g, ones), 1.0)


def test_grid_size_validation(doubling_map):
    with pytest.raises(ValidationError):
        build_operator(doubling_map, pg.zero_potential(), 8)
    with pytest.raises(NodeCapError, match="grid_size"):
        build_operator(doubling_map, pg.zero_potential(), DEFAULT_NODE_CAP + 1)


def test_doubling_leading_eigen(doubling_map):
    op = build_operator(doubling_map, pg.zero_potential(), 1024)
    eigen = leading_eigen(op)
    assert eigen.lam == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(eigen.eigenfunction, 1.0)
    assert np.allclose(eigen.eigenmeasure, 1.0 / 1024)
    assert eigen.residual < 1e-10


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_constant_weight_family(doubling_map, t):
    # the constant vector is an eigenvector, so lambda comes out exact
    c = -t * math.log(2.0)
    op = build_operator(doubling_map, pg.constant_potential(c), 1024)
    eigen = leading_eigen(op)
    assert abs(eigen.lam - 2.0 ** (1.0 - t)) < 1e-10
    assert abs(eigen.lam - 2.0 * math.exp(c)) <= 1e-15 * eigen.lam
    assert np.all(eigen.eigenfunction == 1.0)


def test_lambda_scaling_under_constant_shift(perturbed_map):
    phi = pg.geometric_potential(perturbed_map, 0.5)
    shifted = pg.Potential(lambda x: phi(x) + 0.3, phi.holder_constant,
                           phi.holder_exponent)
    lam0 = leading_eigen(build_operator(perturbed_map, phi, 512)).lam
    lam1 = leading_eigen(build_operator(perturbed_map, shifted, 512)).lam
    assert lam1 == pytest.approx(math.exp(0.3) * lam0, rel=1e-9)


def test_positivity_and_convergence_error(perturbed_map, monkeypatch):
    op = build_operator(perturbed_map, pg.geometric_potential(perturbed_map, 1.0), 256)
    eigen = leading_eigen(op)
    assert np.all(eigen.eigenfunction > 0.0)
    assert np.all(eigen.eigenmeasure >= 0.0)
    monkeypatch.setattr(transfer, "_TOL", 1e-15)
    monkeypatch.setattr(transfer, "_MAX_APPLICATIONS", 2)
    with pytest.raises(ConvergenceError):
        leading_eigen(op)


def test_grid_refinement_shrinks(perturbed_map):
    phi = pg.geometric_potential(perturbed_map, 0.7)
    lams = [leading_eigen(build_operator(perturbed_map, phi, 2**k)).lam
            for k in (8, 9, 10, 11, 12)]
    diffs = [abs(b - a) for a, b in zip(lams, lams[1:])]
    assert all(d2 <= d1 for d1, d2 in zip(diffs, diffs[1:]))


def test_equilibrium_invariance(doubling_map):
    op = build_operator(doubling_map, pg.zero_potential(), 4096)
    eigen = leading_eigen(op)
    rep = check_equilibrium(
        doubling_map, op, eigen,
        [lambda x: np.sin(2 * np.pi * x), lambda x: np.full_like(x, 3.0)],
        pressure_rate=math.log(2.0))
    assert rep.invariance_defect < 1e-6
    assert rep.pressure_match < 1e-12


def test_constant_test_function_zero_defect(doubling_map):
    op = build_operator(doubling_map, pg.zero_potential(), 512)
    eigen = leading_eigen(op)
    rep = check_equilibrium(doubling_map, op, eigen, [lambda x: np.full_like(x, 1.0)])
    assert rep.invariance_defect == 0.0


def test_mp_pressure_cross_check(mp_map):
    op = build_operator(mp_map, pg.zero_potential(), 2048)
    eigen = leading_eigen(op)
    est = pressure_at_scale(mp_map, pg.zero_potential(), FullCollection(),
                            1.0 / 32.0, 10)
    assert abs(eigen.log_lam - est.rate) <= 0.1


def _scipy_eigen(op):
    """lambda, h (max 1) and nu (max 1) from ARPACK on the sparse matrix of
    the operator's interpolation stencils."""
    rows = np.broadcast_to(np.arange(op.size), op.stencil_idx.shape)
    matrix = scipy.sparse.csr_matrix(
        (op.stencil_w.ravel(), (rows.ravel(), op.stencil_idx.ravel())),
        shape=(op.size, op.size))
    out = []
    for m in (matrix, matrix.T.tocsr()):
        vals, vecs = scipy.sparse.linalg.eigs(m, k=1, which="LR",
                                              v0=np.ones(op.size), tol=0)
        vec = np.abs(vecs[:, 0].real)
        out.append((vals[0].real, vec / vec.max()))
    (lam, h), (_, nu) = out
    return lam, h, nu


@pytest.mark.parametrize("system, grid, t", [
    (pg.manneville_pomeau(0.5), 2048, 1.0),
    (pg.perturbed_doubling(0.75), 4096, 1.0),
    (pg.manneville_pomeau(0.5), 2048, 1.2),
    (pg.manneville_pomeau(0.8), 2048, None),
], ids=["system0-2048", "system1-4096", "mp-t1.2-2048", "mp0.8-zero-2048"])
def test_eigendata_matches_scipy(system, grid, t):
    phi = pg.zero_potential() if t is None else pg.geometric_potential(system, t)
    op = build_operator(system, phi, grid)
    lam, h, nu = _scipy_eigen(op)
    eigen = leading_eigen(op)
    assert abs(eigen.lam - lam) <= 1e-12 * lam
    assert np.max(np.abs(eigen.eigenfunction - h)) <= 1e-9
    assert np.max(np.abs(eigen.eigenmeasure / eigen.eigenmeasure.max() - nu)) <= 1e-9
    assert eigen.residual < 1e-12


def test_krylov_beats_power_reference(mp_map):
    op = build_operator(mp_map, pg.geometric_potential(mp_map, 1.0), 2048)
    lam, h, nu = _scipy_eigen(op)
    fast, slow = leading_eigen(op), leading_eigen_power(op)
    assert fast.iterations < slow.iterations
    assert abs(fast.lam - lam) <= abs(slow.lam - lam)
    assert (np.max(np.abs(fast.eigenfunction - h))
            <= np.max(np.abs(slow.eigenfunction - h)))
    assert fast.residual <= slow.residual


def test_positivity_where_arnoldi_alone_goes_negative():
    # plain Arnoldi leaves an eigenmeasure entry of about -3e-20 here
    system = pg.manneville_pomeau(0.8)
    eigen = leading_eigen(build_operator(system, pg.zero_potential(), 2048))
    assert np.all(eigen.eigenfunction > 0.0)
    assert np.all(eigen.eigenmeasure > 0.0)
    assert np.all(eigen.equilibrium_density > 0.0)


def test_lucky_breakdown_on_rank_two_operator(monkeypatch):
    # the Krylov space of the constant vector is 3-dimensional, so Arnoldi
    # breaks down at its third step and the Ritz pair is exact
    rng = np.random.default_rng(3)
    size = 64
    u, w = rng.uniform(0.5, 1.5, (2, 2, size))
    matrix = np.outer(u[0], w[0]) + np.outer(u[1], w[1])
    monkeypatch.setattr(transfer, "apply_operator", lambda op, v: matrix @ v)
    monkeypatch.setattr(transfer, "apply_adjoint", lambda op, m: matrix.T @ m)
    eigen = leading_eigen(SimpleNamespace(size=size))
    vals, vecs = np.linalg.eig(matrix)
    top = np.argmax(vals.real)
    h = np.abs(vecs[:, top].real)
    assert eigen.lam == pytest.approx(vals[top].real, rel=1e-13)
    assert np.allclose(eigen.eigenfunction, h / h.max(), rtol=0, atol=1e-12)
    assert eigen.iterations <= 2 * (3 + 1 + 2)


@pytest.mark.parametrize("system, phi, grid", [
    (pg.doubling(), pg.constant_potential(0.0), 1024),
    (pg.manneville_pomeau(0.5), None, 2048),
    (pg.manneville_pomeau(0.8), pg.zero_potential(), 2048),
], ids=["doubling-constant", "mp-t1", "mp0.8-zero"])
def test_power_finish_reuses_the_tested_image(system, phi, grid, monkeypatch):
    # passing the Arnoldi test's image L x to the power finish saves one
    # application per side where |x| is x, and changes no eigendata bit;
    # phi None is the geometric potential at t = 1
    phi = pg.geometric_potential(system, 1.0) if phi is None else phi
    op = build_operator(system, phi, grid)
    reused = leading_eigen(op)
    finish = transfer._power_finish
    monkeypatch.setattr(transfer, "_power_finish",
                        lambda apply, psi, image, tol, left:
                        finish(apply, psi, None, tol, left))
    recomputed = leading_eigen(op)
    assert reused.iterations == recomputed.iterations - 2
    for field in ("lam", "residual", "eigenfunction", "eigenmeasure",
                  "equilibrium_density"):
        assert (np.asarray(getattr(reused, field)).tobytes()
                == np.asarray(getattr(recomputed, field)).tobytes())


def test_power_finish_applies_the_operator_to_abs_x_where_x_has_a_negative_entry(
        monkeypatch):
    # L x is not L |x| here, so the power finish must not take it
    matrix = np.random.default_rng(5).uniform(0.5, 1.5, (16, 16))
    x = np.full(16, 0.25)
    x[3] = -0.25

    def apply(v):
        return matrix @ v

    monkeypatch.setattr(transfer, "_krylov_start",
                        lambda apply, basis, tol, budget: (x, apply(x), 1))
    psi, image, rq, used = transfer._leading_vector(apply, None, transfer._TOL, 100)
    ref = transfer._power_finish(apply, np.abs(x), None, transfer._TOL, 99)
    assert psi.tobytes() == ref[0].tobytes() and image.tobytes() == ref[1].tobytes()
    assert rq == ref[2] and used == 1 + ref[3]


def test_iterations_count_operator_applications(monkeypatch, mp_map):
    op = build_operator(mp_map, pg.geometric_potential(mp_map, 0.5), 512)
    calls = {"forward": 0, "adjoint": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(transfer, "apply_operator",
                        counted("forward", transfer.apply_operator))
    monkeypatch.setattr(transfer, "apply_adjoint",
                        counted("adjoint", transfer.apply_adjoint))
    eigen = leading_eigen(op)
    assert calls["forward"] > 0 and calls["adjoint"] > 0
    assert eigen.iterations == calls["forward"] + calls["adjoint"]


@pytest.mark.parametrize("budget", [0, 1])
def test_tiny_application_budget_raises_convergence_error(doubling_map,
                                                          monkeypatch, budget):
    op = build_operator(doubling_map, pg.constant_potential(-0.5), 256)
    monkeypatch.setattr(transfer, "_MAX_APPLICATIONS", budget)
    with pytest.raises(ConvergenceError):
        leading_eigen(op)


def _straddling_pair_matrix(keep, size=64):
    """Nonnegative block-diagonal matrix whose rightmost eigenvalues are 1,
    keep - 2 reals from 0.9 down, then the pair 0.8 +- 0.058i, so that the
    pair takes places keep and keep + 1: a symmetric block with Perron root
    1 and the rest of its spectrum below 0.6, a 3x3 block with Perron root
    0.9 and the pair (a circulant made non-circulant by a diagonal
    similarity, so that the constant start vector excites the pair), and
    1x1 blocks for the other reals."""
    reals = 0.88 - 0.02 * np.arange(keep - 3)
    m = size - reals.size - 3
    path = 0.5 * np.eye(m) + 0.25 * (np.eye(m, k=1) + np.eye(m, k=-1))
    u = np.linspace(1.0, 2.0, m)
    sym = 0.6 * path + 0.45 * np.outer(u, u) / (u @ u)
    b = 0.2 / 3.0
    circ = (0.9 - b) * np.eye(3) + b * np.eye(3, k=1) + b * np.eye(3, k=-2)
    d = np.array([1.0, 2.0, 4.0])
    matrix = np.zeros((size, size))
    matrix[:m, :m] = sym / np.linalg.eigvalsh(sym)[-1]
    matrix[m:m + 3, m:m + 3] = circ * d[:, None] / d[None, :]
    matrix[np.arange(m + 3, size), np.arange(m + 3, size)] = reals
    return matrix


def test_thick_restart_keeps_a_straddling_complex_pair_whole(monkeypatch):
    matrix = _straddling_pair_matrix(transfer._KEEP)
    vals = np.linalg.eigvals(matrix)
    ranked = vals[np.argsort(-vals.real, kind="stable")]
    assert ranked[transfer._KEEP - 1].imag != 0.0
    assert ranked[transfer._KEEP].imag == -ranked[transfer._KEEP - 1].imag
    widths, defects = [], []
    kept_ritz_basis = transfer._kept_ritz_basis

    def recorded(vals, vecs):
        q = kept_ritz_basis(vals, vecs)
        widths.append(q.shape[1])
        # the kept span is invariant under the small matrix
        small = ((vecs * vals) @ np.linalg.inv(vecs)).real
        hq = small @ q
        defects.append(np.linalg.norm(hq - q @ (q.T @ hq)) / np.linalg.norm(small))
        return q

    monkeypatch.setattr(transfer, "_kept_ritz_basis", recorded)
    monkeypatch.setattr(transfer, "apply_operator", lambda op, v: matrix @ v)
    monkeypatch.setattr(transfer, "apply_adjoint", lambda op, m: matrix.T @ m)
    eigen = leading_eigen(SimpleNamespace(size=matrix.shape[0]))
    # some restart found the pair at the boundary and kept both halves
    assert transfer._KEEP + 1 in widths
    assert max(defects) <= 1e-12
    sides = []
    for m in (matrix, matrix.T):
        w, v = np.linalg.eig(m)
        top = np.argmax(w.real)
        vec = np.abs(v[:, top].real)
        sides.append((w[top].real, vec / vec.max()))
    (lam, h), (_, nu) = sides
    assert abs(eigen.lam - lam) <= 1e-12 * lam
    assert np.max(np.abs(eigen.eigenfunction - h)) <= 1e-12
    assert np.max(np.abs(eigen.eigenmeasure / eigen.eigenmeasure.max() - nu)) <= 1e-12


def test_thick_restart_halves_applications_at_the_phase_transition(mp_map):
    # MP at t = 1: the two leading eigenvalues nearly meet
    op = build_operator(mp_map, pg.geometric_potential(mp_map, 1.0), 2048)
    thick, single = leading_eigen(op), leading_eigen_single_restart(op)
    assert 2 * thick.iterations < single.iterations
    assert thick.residual <= single.residual


def test_eigendata_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at 16384 nodes a threaded OpenBLAS splits a product with the Arnoldi
    # basis between two threads, so a BLAS product in the solver would
    # change the CSV; at 2048 nodes it runs on one thread either way.  The
    # collocation run writes its 63-node table.
    src = str(Path(pg.__file__).resolve().parents[1])
    runs = {"grid": ["--map", "manneville_pomeau", "--potential", "geometric",
                     "--grid-size", "16384"],
            "collocation": ["--map", "perturbed_doubling", "--potential",
                            "geometric", "--potential-t", "0.5"]}
    for name, args in runs.items():
        outputs = []
        for threads in (1, min(2, os.cpu_count() or 1)):
            env = dict(os.environ)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src, env.get("PYTHONPATH")]))
            out = tmp_path / f"{name}-{threads}.csv"
            subprocess.run([sys.executable, "-m", "pressgap.cli", "transfer",
                            *args, "--out", str(out)],
                           env=env, capture_output=True, timeout=120, check=True)
            outputs.append(out.read_bytes())
        assert (b"method=collocation" in outputs[0]) == (name == "collocation")
        assert outputs[0] == outputs[1], name


# ---------------------------------------------------------------------------
# Fourier collocation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("c", [-0.3, 0.5])
def test_collocation_is_exact_for_constant_potentials(doubling_map, c):
    eigen = transfer.collocation_eigen(doubling_map, pg.constant_potential(c), 63)
    assert abs(eigen.log_lam - (math.log(2.0) + c)) <= 1e-13
    assert eigen.residual < 1e-13


def test_collocation_is_exact_at_the_geometric_potential(perturbed_map):
    # t = 1: Lebesgue measure is conformal, so lambda = 1
    phi = pg.geometric_potential(perturbed_map, 1.0)
    eigen = transfer.collocation_eigen(perturbed_map, phi, 63)
    assert abs(eigen.log_lam) < 1e-13
    # nu is the trapezoidal rule, the quadrature of Lebesgue measure
    assert np.allclose(eigen.eigenmeasure, 1.0 / 63, rtol=0, atol=1e-13)


def test_collocation_matches_the_grid_at_half_the_geometric_potential(perturbed_map):
    phi = pg.geometric_potential(perturbed_map, 0.5)
    eigen, uncertainty = transfer.collocation_estimate(perturbed_map, phi)
    grid = leading_eigen(build_operator(perturbed_map, phi, 16384))
    assert abs(eigen.log_lam - grid.log_lam) <= 1e-9
    assert abs(eigen.log_lam - 0.34232098478045) <= 1e-12
    assert 0.0 < uncertainty <= transfer._COLLOCATION_TOL
    assert eigen.eigenfunction.size == transfer._COLLOCATION_NODES[-1]


def test_collocation_needs_an_odd_node_count(doubling_map):
    for n in (1, 2, 64):
        with pytest.raises(ValidationError, match="n"):
            transfer.collocation_eigen(doubling_map, pg.zero_potential(), n)


def test_collocation_calls_lapack_only_on_the_projected_matrices(perturbed_map,
                                                                 monkeypatch):
    sizes = []
    for name in ("eig", "qr"):
        real = getattr(np.linalg, name)

        def recorded(a, *args, real=real, **kwargs):
            sizes.append(a.shape[0])
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    transfer.collocation_eigen(perturbed_map,
                               pg.geometric_potential(perturbed_map, 0.5), 63)
    assert sizes and max(sizes) <= transfer._KRYLOV_DIM


def _cosine_potential(a):
    return pg.Potential(lambda x: a * np.cos(2.0 * np.pi * x), 2.0 * np.pi * a,
                        1.0, analytic=True)


def test_collocation_estimate_falls_back_where_it_does_not_check_out(doubling_map):
    # 0.5 cos 2 pi x checks out; at 0.8 the eigenmeasure's weights go
    # negative and a power step loses positivity; on PD 0.95 at t = 0.5 the
    # 31- and 63-node values differ by 1.6e-10
    assert transfer.collocation_estimate(doubling_map, _cosine_potential(0.5))
    with pytest.raises(ConvergenceError, match="positivity"):
        transfer.collocation_eigen(doubling_map, _cosine_potential(0.8), 63)
    assert transfer.collocation_estimate(doubling_map, _cosine_potential(0.8)) is None
    pd = pg.perturbed_doubling(0.95)
    assert transfer.collocation_estimate(pd, pg.geometric_potential(pd, 0.5)) is None
