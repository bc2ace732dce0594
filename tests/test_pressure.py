import numpy as np
import pytest

import pressgap as pg
from pressgap import kernels
from pressgap.decomposition import (BadCollection, DecompositionConfig,
                                    GoodCollection, obstruction_sample)
from pressgap.errors import CoverError, NodeCapError, ValidationError
from pressgap.orbits import (DEFAULT_NODE_CAP, FullCollection, greedy_cover,
                             partition_sum_sep)
from pressgap.pressure import (GapReport, ct_hypothesis_check, gap_report,
                               growth_fit, katok_sn, pressure_at_scale)

from oracles import bowen_pairs

LOG2 = np.log(2.0)


def test_doubling_rate_matches_cylinder_count(doubling_map):
    est = pressure_at_scale(doubling_map, pg.zero_potential(), FullCollection(),
                            1.0 / 32.0, 10)
    assert abs(est.rate - LOG2) < 0.05
    # exact 2^n oracle: the log sums are n log 2
    assert np.allclose(est.log_partition_sums, np.arange(1, 11) * LOG2, atol=1e-9)
    assert est.rate_uncertainty < 1e-8
    assert est.limsup_proxy == pytest.approx(LOG2, abs=1e-9)


def test_constant_shift(doubling_map):
    c = 0.7
    est = pressure_at_scale(doubling_map, pg.constant_potential(c),
                            FullCollection(), 1.0 / 32.0, 8)
    assert abs(est.rate - (LOG2 + c)) < 0.05


def test_empty_collection_flag(doubling_map):
    bad = BadCollection(DecompositionConfig(0.75))
    est = pressure_at_scale(doubling_map, pg.zero_potential(), bad, 1.0 / 32.0, 8)
    assert est.is_empty and est.rate == -np.inf


def test_growth_fit_edge_cases():
    rate, unc, proxy, empty = growth_fit([1, 2, 3, 4], [-np.inf] * 4)
    assert empty and rate == -np.inf
    rate, unc, proxy, empty = growth_fit([1, 2, 3, 4, 5, 6],
                                         [0.3 * n for n in range(1, 7)])
    assert rate == pytest.approx(0.3, abs=1e-12)
    assert not empty


def test_pressure_validation(doubling_map):
    with pytest.raises(ValidationError):
        pressure_at_scale(doubling_map, pg.zero_potential(), FullCollection(),
                          1.0 / 32.0, 3)


def test_katok_examples(doubling_map, rng):
    zero = pg.zero_potential()
    sample = rng.random(600)
    # eta -> 0+ needs a single ball
    v = katok_sn(doubling_map, zero, sample, 1.0 / 32.0, 1e-6, 6)
    assert v == pytest.approx(1.0)
    # growth toward log 2 for a generic sample at small delta
    rates = []
    for n in (4, 7, 10):
        v = katok_sn(doubling_map, zero, sample, 1.0 / 32.0, 0.5, n)
        rates.append(np.log(v) / n)
    assert rates[-1] > 0.4
    assert abs(rates[-1] - LOG2) < 0.25
    # constant shift is exact for the same greedy cover
    c = 0.9
    v0 = katok_sn(doubling_map, zero, sample, 1.0 / 16.0, 0.4, 5)
    vc = katok_sn(doubling_map, pg.constant_potential(c), sample, 1.0 / 16.0, 0.4, 5)
    assert vc == pytest.approx(np.exp(5 * c) * v0, rel=1e-9)


def test_katok_infeasible_eta(doubling_map, rng):
    with pytest.raises(CoverError):
        katok_sn(doubling_map, pg.zero_potential(), rng.random(50),
                 1.0 / 16.0, 1.5, 4)


def test_katok_pool_guard(doubling_map, rng):
    # N^2 > 64 DEFAULT_NODE_CAP is refused before any orbit or N x N matrix
    # is built
    zero = pg.zero_potential()
    over = int(np.sqrt(DEFAULT_NODE_CAP * 64)) + 1
    with pytest.raises(NodeCapError, match=f"{over} points"):
        katok_sn(doubling_map, zero, rng.random(over), 1.0 / 16.0, 0.4, 4)


def test_chain_inequality(mp_map):
    # katok <= span(A_k pool) <= sep(A_k pool) <= sep(bad collection),
    # with the A_k points also offered to the bad-collection pool
    cfg = DecompositionConfig(0.99)
    zero = pg.zero_potential()
    grid = np.linspace(0.0, 0.01, 200)
    obs = obstruction_sample(mp_map, cfg, grid, 25)
    k_cap = 8
    pts = np.array([x for x, k in obs.hits() if k <= k_cap])
    assert pts.size >= 3
    n, delta = 12, 1.0 / 32.0
    assert n > k_cap
    katok = katok_sn(mp_map, zero, pts, delta, 0.9, n)
    # with the zero potential each partition sum counts its set: the greedy
    # separated set of the pool, and the smaller of it and the greedy cover
    rows = mp_map.orbit(pts, n)
    keep = kernels.greedy_separated(rows, np.arange(pts.size),
                                    bowen_pairs(rows, delta))
    sep = np.count_nonzero(keep)
    span = min(greedy_cover(rows, delta, np.zeros(pts.size), pts.size).size, sep)
    bad = BadCollection(cfg)
    assert np.all(bad.member_mask(mp_map, pts, n))
    sep_bad = partition_sum_sep(mp_map, zero, bad, n, delta)
    assert katok <= span + 1e-9
    assert span <= sep + 1e-9
    assert sep <= sep_bad + 1e-9


def test_collection_inclusion_monotonicity(mp_map):
    cfg = DecompositionConfig(0.9)
    zero = pg.zero_potential()
    full = pressure_at_scale(mp_map, zero, FullCollection(), 1.0 / 32.0, 9)
    good = pressure_at_scale(mp_map, zero, GoodCollection(cfg), 1.0 / 32.0, 9)
    bad = pressure_at_scale(mp_map, zero, BadCollection(cfg), 1.0 / 32.0, 9)
    slack = full.rate_uncertainty + 1e-6
    assert good.rate <= full.rate + good.rate_uncertainty + slack
    assert bad.rate <= full.rate + bad.rate_uncertainty + slack


def test_rate_eps_monotone(doubling_map):
    zero = pg.zero_potential()
    rates = [pressure_at_scale(doubling_map, zero, FullCollection(), eps, 8).rate
             for eps in (1.0 / 32.0, 0.45, 0.6)]
    assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))


def test_gap_report_doubling(doubling_map):
    reports = gap_report(doubling_map, pg.zero_potential(), [0.6, 0.75, 0.9],
                         1.0 / 32.0, 8)
    for rep in reports[1:]:  # sigma > 1/2: the bad set is empty
        assert rep.p_bad.is_empty
        assert rep.hypothesis_holds
        assert rep.gap == np.inf


def test_gap_report_mp_monotone_in_sigma(mp_map):
    # raising sigma shrinks the bad collection, so its rate falls
    reports = gap_report(mp_map, pg.zero_potential(), [0.6, 0.75, 0.9],
                         1.0 / 32.0, 10)
    bad_rates = [r.p_bad.rate for r in reports]
    assert all(a >= b - 1e-9 for a, b in zip(bad_rates, bad_rates[1:]))
    gaps = [r.gap for r in reports]
    assert all(a <= b + 1e-9 for a, b in zip(gaps, gaps[1:]))
    assert reports[-1].hypothesis_holds


def test_gap_report_holds_iff_gap_beats_uncertainty():
    full = pg.pressure_at_scale(pg.doubling(), pg.zero_potential(),
                                FullCollection(), 1.0 / 16.0, 6)
    close = full.__class__(eps=full.eps, n_values=full.n_values,
                           log_partition_sums=full.log_partition_sums,
                           rate=full.rate - 1e-9,
                           rate_uncertainty=1.0, limsup_proxy=full.limsup_proxy,
                           is_empty=False, collection="bad")
    rep = GapReport.build(0.8, full, close)
    assert not rep.hypothesis_holds  # tiny gap, large uncertainty


def test_ct_hypothesis_check(doubling_map):
    [gap] = gap_report(doubling_map, pg.zero_potential(), [0.75], 1.0 / 32.0, 8)
    rep = ct_hypothesis_check(gap, bowen_finite=True, spec_verified=True)
    assert rep.passes and rep.blockers == ()
    assert "not a proof" in rep.summary()
    rep2 = ct_hypothesis_check(gap, bowen_finite=False, spec_verified=True)
    assert not rep2.passes and "Bowen bound" in rep2.blockers
    fake = GapReport.build(0.75, gap.p_full, gap.p_full)  # zero gap
    rep3 = ct_hypothesis_check(fake, True, True)
    assert not rep3.passes and "pressure gap" in rep3.blockers
