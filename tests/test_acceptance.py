"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time

import numpy as np

import pressgap as pg
from pressgap.decomposition import (DecompositionConfig, GoodCollection,
                                    draw_good_segments, segment_log_sigma,
                                    split_indices)
from pressgap.errors import ConvergenceError
from pressgap.extension import (ExtensionConfig, lift_projection, tail_bound,
                                verify_bowen)
from pressgap.maps import circle_dist
from pressgap.orbits import CylinderTree, FullCollection
from pressgap.pressure import gap_report, pressure_at_scale
from pressgap.solenoid import (SolenoidSystem, apply_f, attractor_bowen_check,
                               conjugacy_h, d_attractor, fiber_point,
                               fiber_sample, holonomy)
from pressgap.specification import glue_base, verify_shadow
from pressgap.transfer import build_operator, leading_eigen
from pressgap.cli import main as cli_main

from oracles import (brute_split, ext_columns, ext_points, hat_distance, hat_g,
                     is_bad, is_good, max_separated_cardinality, separated_set)

LOG2 = math.log(2.0)
EPS5 = 2.0 ** -5


def report(num, ok, detail):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_doubling_pressure_rate():
    system = pg.doubling()
    t0 = time.time()
    est = pressure_at_scale(system, pg.zero_potential(), FullCollection(),
                            EPS5, 14)
    elapsed = time.time() - t0
    # oracle: exactly 2^n cylinders, all pairwise separated at this scale
    oracle = np.allclose(est.log_partition_sums,
                         np.arange(1, 15) * LOG2, atol=1e-9)
    ok = abs(est.rate - LOG2) <= 0.05 and elapsed < 60.0 and oracle
    assert report(1, ok, f"rate={est.rate:.6f} vs log2={LOG2:.6f}, "
                         f"{elapsed:.1f}s, 2^n oracle={'ok' if oracle else 'BAD'}")


def test_criterion_02_transfer_exactness():
    system = pg.doubling()
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        op = build_operator(system, pg.constant_potential(-t * LOG2), 2 ** 10)
        eigen = leading_eigen(op)
        worst = max(worst, abs(eigen.lam - 2.0 ** (1.0 - t)))
    ok = worst < 1e-10
    assert report(2, ok, f"max |lambda - 2^(1-t)| = {worst:.2e} (tol 1e-10)")


def test_criterion_03_variational_cross_check():
    system = pg.manneville_pomeau(0.5)
    est = pressure_at_scale(system, pg.zero_potential(), FullCollection(),
                            EPS5, 14)
    try:
        eigen = leading_eigen(build_operator(system, pg.zero_potential(), 2 ** 12))
    except ConvergenceError as exc:
        assert report(3, True, f"oracle reported non-convergence: {exc}")
        return
    diff = abs(est.rate - eigen.log_lam)
    ok = diff <= 0.1
    assert report(3, ok, f"|rate - log lambda| = {diff:.4f} (tol 0.1)")


def _contraction_violations(system, cfg, starts, splits, rng):
    """Zero-tolerance check of the sigma^(n-k) pullback contraction over the
    good prefixes, of lengths `splits`, of the segments from `starts`,
    batched by prefix length."""
    eps = system.epsilon0
    by_len = {}
    for x, m in zip(starts.tolist(), splits.tolist()):
        if m >= 1:
            by_len.setdefault(m, []).append(x)
    bad = 0
    for length, starts in by_len.items():
        xs = np.asarray(starts)
        orbit = system.orbit(xs, length + 1)
        z = (orbit[:, -1] + eps * (2 * rng.random(xs.size) - 1)) % 1.0
        for k in range(length - 1, -1, -1):
            z = system.pullback(orbit[:, k], z)
            allowed = cfg.sigma ** (length - k) * eps + 1e-9
            bad += int(np.sum(circle_dist(orbit[:, k], z) > allowed))
    return bad


def test_criterion_04_decomposition_suite():
    rng = np.random.default_rng(42)
    total = 10_000
    violations = {"concat": 0, "minimal": 0, "split": 0, "contract": 0}
    for system in (pg.doubling(), pg.manneville_pomeau(0.5)):
        n_segs = total // 2
        starts = rng.random(n_segs)
        lengths = rng.integers(1, 21, n_segs)
        maxlen = int(lengths.max())
        logs_all = segment_log_sigma(system, starts, maxlen)
        segs = [(float(starts[i]), logs_all[i, :lengths[i]])
                for i in range(n_segs)]
        for sigma in (0.6, 0.75, 0.9):
            cfg = DecompositionConfig(sigma)
            good = GoodCollection(cfg)
            splits = split_indices(logs_all, lengths, cfg.log_sigma)
            for (x, logs), m in zip(segs[:1500], splits.tolist()):
                n = len(logs)
                # (b) split minimality vs the brute-force oracle
                if m != brute_split(logs, cfg.log_sigma):
                    violations["split"] += 1
                # (c) the split parts classify as claimed
                if m > 0 and not is_good(logs[:m], cfg.log_sigma):
                    violations["minimal"] += 1
                if m < n and not is_bad(logs[m:], cfg.log_sigma):
                    violations["minimal"] += 1
                # (a) concatenation of consecutive good segments
                if m == n and n >= 2:
                    tail = int(rng.integers(1, 8))
                    y = float(system.orbit(x, n + 1)[0][-1])
                    if good.contains(system, y, tail) and \
                            not good.contains(system, x, n + tail):
                        violations["concat"] += 1
            # (d) inverse-branch contraction along good prefixes
            violations["contract"] += _contraction_violations(
                system, cfg, starts, splits, rng)
    ok = not any(violations.values())
    assert report(4, ok, f"violations={violations} over {total} segments, "
                         "sigma in {0.6, 0.75, 0.9}, both maps")


def test_criterion_05_specification():
    rng = np.random.default_rng(7)
    failures = 0
    checked = 0
    for system in (pg.doubling(), pg.manneville_pomeau(0.5),
                   pg.perturbed_doubling(0.75)):
        sigma = 0.9 if "manneville" in system.name else 0.75
        cfg = DecompositionConfig(sigma)
        for eps in (2.0 ** -4, 2.0 ** -5):
            tau = system.mixing_time(eps)
            for _ in range(100):
                # the draws of a one-at-a-time rejection loop, in its order
                segs, _ = draw_good_segments(system, cfg, rng, 3, (5, 20), 4000)
                assert len(segs) == 3
                plan = glue_base(system, cfg, segs, eps)
                shadow = verify_shadow(system, plan)
                checked += 1
                if shadow > eps or any(t > tau for t in plan.transition_times):
                    failures += 1
    ok = failures == 0
    assert report(5, ok, f"{failures} failures over {checked} gluings "
                         "(3 maps x 2 scales x 100 triples)")


def test_criterion_06_natural_extension():
    rng = np.random.default_rng(11)
    system = pg.manneville_pomeau(0.5)
    ext = ExtensionConfig(2.0, 24)
    # (a) semiconjugacy exact and projection 1-Lipschitz on 10^4 samples;
    # each start is drawn before its 8 branches, p before q
    lip_bad = semi_bad = 0
    starts, branches = [], []
    for _ in range(20_000):
        starts.append(float(rng.random()))
        branches.append([int(rng.integers(system.degree)) for _ in range(8)])
    pts = ext_points(system, starts, branches)
    for p, q in zip(pts[0::2], pts[1::2]):
        if hat_g(system, p).coords[0] != float(system.forward(p.coords[0])):
            semi_bad += 1
        trunc, _ = hat_distance(ExtensionConfig(2.0, 8), p, q)
        if float(circle_dist(p.coords[0], q.coords[0])) > trunc + 1e-15:
            lip_bad += 1
    # (b) Bowen variation for the lifted geometric potential
    dec = DecompositionConfig(0.9)
    geo = pg.geometric_potential(system, 1.0)
    rep = verify_bowen(system, ext, dec, lift_projection(geo), EPS5, 1000,
                       seed=13)
    # (c) fiber contraction for same-base pairs; each base is drawn before
    # the 24 branches of p and then of q
    fiber_bad = 0
    starts, branches = [], []
    for _ in range(500):
        x = float(rng.random())
        for _ in range(2):
            starts.append(x)
            branches.append([int(rng.integers(system.degree)) for _ in range(24)])
    pts = ext_points(system, starts, branches)
    for p, q in zip(pts[0::2], pts[1::2]):
        for k in (0, 3, 7, 12):
            pk, qk = p, q
            for _ in range(k):
                pk, qk = hat_g(system, pk), hat_g(system, qk)
            trunc, _ = hat_distance(ext, pk, qk)
            if trunc > 0.5 * 2.0 ** (-k) * 2.0 + 1e-12:
                fiber_bad += 1
    ok = (semi_bad == 0 and lip_bad == 0 and rep.within_bound
          and fiber_bad == 0)
    assert report(6, ok, f"semiconjugacy bad={semi_bad}, lipschitz bad={lip_bad}, "
                         f"bowen {rep.empirical_max:.4f} <= {rep.bound:.4f}"
                         f"+{rep.truncation_slack:.1e} ({rep.samples} segs), "
                         f"fiber bad={fiber_bad}")


def test_criterion_07_gap_report_mp():
    system = pg.manneville_pomeau(0.5)
    [rep] = gap_report(system, pg.zero_potential(), [0.9], EPS5, 12)
    combined = rep.p_full.rate_uncertainty + (
        0.0 if rep.p_bad.is_empty else rep.p_bad.rate_uncertainty)
    ok = rep.hypothesis_holds and not rep.p_bad.is_empty and rep.gap > combined
    assert report(7, ok, f"p_full={rep.p_full.rate:.4f}, p_bad={rep.p_bad.rate:.4f}, "
                         f"gap={rep.gap:.4f} > uncertainty={combined:.4f}")


def test_criterion_08_solenoid():
    rng = np.random.default_rng(3)
    sol = SolenoidSystem(0.25, 0.5)
    # measured fiber contraction
    pts = fiber_sample(sol, 0.3, 3)
    disks, images = pts.disk.tolist(), apply_f(sol, pts).disk.tolist()
    worst_ratio = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d0 = math.dist(disks[i], disks[j])
            d1 = math.dist(images[i], images[j])
            worst_ratio = max(worst_ratio, abs(d1 / d0 - 0.25))
    # conjugacy defect at K = 24 against the truncation tail bound
    tail = tail_bound(2.0, 24)
    thetas, itins = [], []
    for _ in range(100):
        itins.append([int(b) for b in rng.integers(0, 2, 25)])
        thetas.append(float(rng.random()))
    p = fiber_point(sol, thetas, itins)
    lhs = ext_columns(conjugacy_h(sol, apply_f(sol, p), 24))
    rhs = [hat_g(sol.base, q) for q in ext_columns(conjugacy_h(sol, p, 24))]
    defect = max(abs(a - b) for left, right in zip(lhs, rhs)
                 for a, b in zip(left.coords, right.coords))
    # attractor Bowen check against the closed-form cap
    dec = DecompositionConfig(0.6)

    def phi(theta, u, v):
        return np.cos(2 * math.pi * theta) + 0.5 * u

    bowen = attractor_bowen_check(sol, dec, phi, holder_constant=2 * math.pi,
                                  holder_exponent=1.0, eps=2.0 ** -4,
                                  n_samples=300, seed=5)
    # holonomy invariance at depth <= 20, itinerary matched, same branch
    holo = 0.0
    for _ in range(200):
        depth = int(rng.integers(5, 21))
        itin = tuple(int(b) for b in rng.integers(0, 2, depth))
        branch_half = 0.5 * float(rng.random(2)[0]), 0.5 * float(rng.random(2)[1])
        x, y = branch_half
        z = fiber_point(sol, [x], [itin])
        lhs = apply_f(sol, holonomy(sol, z, [y]))
        rhs = holonomy(sol, apply_f(sol, z), sol.base.forward(np.array([y])))
        holo = max(holo, float(d_attractor(lhs, rhs)[0]))
    ok = (worst_ratio <= 1e-12 and defect <= tail and bowen.within_bound
          and holo == 0.0)
    assert report(8, ok, f"contraction err={worst_ratio:.1e} (tol 1e-12), "
                         f"conjugacy defect={defect:.1e} <= tail={tail:.1e}, "
                         f"bowen {bowen.empirical_max:.4f} <= {bowen.bound:.4f}, "
                         f"holonomy defect={holo}")


def test_criterion_09_small_instance_oracle():
    system = pg.doubling()
    mismatches = []
    for eps in (2.0 ** -3, 2.0 ** -4):
        for n in range(1, 11):
            tree = CylinderTree(system, n)
            greedy = len(separated_set(system, FullCollection(), n, eps))
            exact = max_separated_cardinality(system.forward,
                                              list(tree.levels[tree.depth]),
                                              n, eps)
            if greedy != exact:
                mismatches.append((n, eps, greedy, exact))
    ok = not mismatches
    assert report(9, ok, f"greedy == exhaustive optimum for n <= 10, "
                         f"eps in {{1/8, 1/16}}; mismatches={mismatches}")


def test_criterion_10_determinism(tmp_path):
    runs = {
        "pressure": ["pressure", "--map", "doubling", "--n-max", "8",
                     "--eps", str(EPS5), "--sigma", "0.75", "--seed", "9"],
        "decompose": ["decompose", "--map", "manneville_pomeau", "--samples",
                      "200", "--sigma", "0.9", "--seed", "9"],
        "glue": ["glue", "--samples", "5", "--eps", "0.0625", "--sigma",
                 "0.75", "--length-max", "12", "--seed", "9"],
        "transfer": ["transfer", "--grid-size", "256", "--seed", "9"],
        "extension": ["extension", "--map", "perturbed_doubling",
                      "--potential", "geometric", "--sigma", "0.9",
                      "--samples", "60", "--seed", "9"],
        "solenoid": ["solenoid", "--samples", "100", "--sigma", "0.6",
                     "--eps", "0.0625", "--depth", "10", "--seed", "9"],
        "gap-report": ["gap-report", "--map", "manneville_pomeau",
                       "--sigma-grid", "0.75,0.9", "--n-max", "8",
                       "--seed", "9"],
        "check": ["check", "--map", "doubling", "--sigma", "0.75",
                  "--n-max", "6", "--samples", "30", "--length-max", "9",
                  "--seed", "9"],
    }
    unstable = []
    for name, args in runs.items():
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        code_a = cli_main(args + ["--out", str(a)])
        code_b = cli_main(args + ["--out", str(b)])
        if code_a != code_b or a.read_bytes() != b.read_bytes():
            unstable.append(name)
    ok = not unstable
    assert report(10, ok, f"byte-identical reruns for {len(runs)} subcommands; "
                          f"unstable={unstable}")
