import numpy as np
import pytest

import pressgap as pg
from pressgap import cli
from pressgap.decomposition import (BadCollection, DecompositionConfig,
                                    GoodCollection, draw_good_segments,
                                    obstruction_sample, segment_log_sigma,
                                    split_indices)
from pressgap.errors import ValidationError
from pressgap.maps import TWO_PI
from pressgap.orbits import OrbitSegment

from oracles import (Classification, brute_split, classify_segment,
                     contraction_profile,
                     decompose, in_sigma_window, is_bad, is_good,
                     random_good_segments_scalar, suffix_means)

_GRID = np.linspace(0.0, 1.0, 65)
DRAW_MAPS = {
    "mp": pg.manneville_pomeau(0.5),
    "perturbed": pg.perturbed_doubling(0.75),
    "degree-3 table": pg.tabulated_map(3.0 * _GRID
                                       + (0.9 / TWO_PI) * np.sin(TWO_PI * _GRID)),
}


def test_config_validation():
    with pytest.raises(ValidationError):
        DecompositionConfig(1.0)
    with pytest.raises(ValidationError):
        DecompositionConfig(0.0)


def test_window_examples(doubling_map, mp_map):
    cfg = DecompositionConfig(0.75)
    assert in_sigma_window(doubling_map, cfg, 0.3, 0, 6)
    assert in_sigma_window(doubling_map, cfg, 0.3, 4, 6)
    for sigma in (0.5, 0.9, 0.99):
        assert not in_sigma_window(mp_map, DecompositionConfig(sigma), 0.0, 0, 8)
    # derived: direct average comparison at (j, n) = (0, 10)
    logs = segment_log_sigma(mp_map, 0.5, 10)[0]
    expected = float(np.mean(logs)) < np.log(0.9)
    assert in_sigma_window(mp_map, DecompositionConfig(0.9), 0.5, 0, 10) == expected


def test_classification_examples(doubling_map, mp_map):
    cfg = DecompositionConfig(0.75)
    assert classify_segment(doubling_map, cfg, OrbitSegment(0.42, 9)) is Classification.GOOD
    assert classify_segment(mp_map, DecompositionConfig(0.9),
                            OrbitSegment(0.0, 7)) is Classification.BAD


def test_classification_matches_oracle(builtin_maps, rng):
    for system in builtin_maps:
        for sigma in (0.6, 0.9):
            cfg = DecompositionConfig(sigma)
            for _ in range(60):
                seg = OrbitSegment(float(rng.random()), int(rng.integers(1, 15)))
                logs = segment_log_sigma(system, seg.start, seg.length)[0]
                got = classify_segment(system, cfg, seg)
                if is_good(logs, cfg.log_sigma):
                    assert got is Classification.GOOD
                elif is_bad(logs, cfg.log_sigma):
                    assert got is Classification.BAD
                else:
                    assert got is Classification.NEITHER


def test_good_and_bad_are_exclusive(mp_map, rng):
    cfg = DecompositionConfig(0.9)
    good, bad = GoodCollection(cfg), BadCollection(cfg)
    for x in rng.random(300):
        assert not (good.contains(mp_map, x, 9) and bad.contains(mp_map, x, 9))


@pytest.mark.parametrize("coll", [GoodCollection, BadCollection])
@pytest.mark.parametrize("n", [0, -1])
def test_contains_rejects_lengths_below_one(mp_map, coll, n):
    with pytest.raises(ValidationError, match="^n: ") as err:
        coll(DecompositionConfig(0.75)).contains(mp_map, 0.3, n)
    assert err.value.field == "n"


def test_concatenation_property(builtin_maps, rng):
    # good o good (at the matching break point) is good, zero violations
    for system in builtin_maps:
        cfg = DecompositionConfig(0.85)
        good = GoodCollection(cfg)
        checked = 0
        for _ in range(400):
            x = float(rng.random())
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 10))
            if not good.contains(system, x, n):
                continue
            y = float(system.orbit(x, n + 1)[0][-1])
            if not good.contains(system, y, m):
                continue
            assert good.contains(system, x, n + m)
            checked += 1
        assert checked > 20


def test_decompose_examples(doubling_map, mp_map):
    d = decompose(doubling_map, DecompositionConfig(0.75), OrbitSegment(0.3, 8))
    assert (d.g_len, d.s_len) == (8, 0)
    d2 = decompose(mp_map, DecompositionConfig(0.9), OrbitSegment(0.0, 8))
    assert (d2.g_len, d2.s_len) == (0, 8)
    assert d2.p_len == 0 and d2.total == 8


def test_decompose_against_bruteforce(builtin_maps, rng):
    for system in builtin_maps:
        for sigma in (0.6, 0.75, 0.9):
            cfg = DecompositionConfig(sigma)
            for _ in range(150):
                seg = OrbitSegment(float(rng.random()), int(rng.integers(1, 16)))
                logs = segment_log_sigma(system, seg.start, seg.length)[0]
                d = decompose(system, cfg, seg)
                assert d.g_len == brute_split(logs, cfg.log_sigma)
                # split parts classify correctly (empty parts vacuously)
                if d.g_len > 0:
                    assert is_good(logs[:d.g_len], cfg.log_sigma)
                if d.s_len > 0:
                    assert is_bad(logs[d.g_len:], cfg.log_sigma)
                # minimality
                for m in range(d.g_len):
                    assert not is_bad(logs[m:], cfg.log_sigma)


def test_split_indices_match_the_brute_split_on_ragged_rows(rng):
    # multiples of 1/8 sum exactly, so every mean is one rounded division
    # in both; the thresholds include each trailing mean of one row (the
    # edge of >=), rows of length 1, and NaN and +-inf past each length
    width = 12
    logs = rng.integers(-16, 9, (300, width)) / 8.0
    ns = rng.integers(1, width + 1, 300)
    ns[:20], ns[20] = 1, width
    pad = np.arange(width) >= ns[:, None]
    logs[pad] = rng.choice([np.nan, np.inf, -np.inf], int(pad.sum()))
    for log_sigma in [np.log(0.6), np.log(0.9), *suffix_means(logs[20])]:
        want = [brute_split(row[:n], log_sigma) for row, n in zip(logs, ns)]
        assert split_indices(logs, ns, log_sigma).tolist() == want


def test_window_algebra(rng):
    # if all windows of the full segment pass up to m and the suffix at m
    # fails, then every window of the prefix passes (weighted-average fact)
    log_sigma = np.log(0.8)
    for _ in range(300):
        n = int(rng.integers(2, 20))
        logs = rng.normal(-0.25, 0.4, n)
        m = split_indices(logs[None], [n], log_sigma)[0]
        if 0 < m < n:
            assert is_good(logs[:m], log_sigma)


def test_contraction_along_good_segments(builtin_maps, rng):
    # pullback chain through a good segment contracts like sigma^(n-k)
    for system in builtin_maps:
        cfg = DecompositionConfig(0.9)
        good = GoodCollection(cfg)
        eps = system.epsilon0 / 2.0
        done = 0
        while done < 40:
            x = float(rng.random())
            n = int(rng.integers(3, 14))
            if not good.contains(system, x, n):
                continue
            end = float(system.orbit(x, n + 1)[0][-1])
            target = (end + eps * (2 * rng.random() - 1)) % 1.0
            prof = contraction_profile(system, x, n, target)
            for k in range(n + 1):
                assert prof[k] <= cfg.sigma ** (n - k) * eps + 1e-9
            done += 1


def test_expansion_lemma_shrink(mp_map, rng):
    # companions pinned for n steps sit within sigma^n eps0 of the start
    cfg = DecompositionConfig(0.9)
    good = GoodCollection(cfg)
    done = 0
    while done < 25:
        x = float(rng.random())
        n = int(rng.integers(4, 12))
        if not good.contains(mp_map, x, n):
            continue
        end = float(mp_map.orbit(x, n + 1)[0][-1])
        target = (end + mp_map.epsilon0 * (2 * rng.random() - 1)) % 1.0
        prof = contraction_profile(mp_map, x, n, target)
        assert prof[0] <= cfg.sigma ** n * mp_map.epsilon0 + 1e-9
        done += 1


def test_obstruction_sample(doubling_map, mp_map):
    cfg = DecompositionConfig(0.75)
    obs = obstruction_sample(doubling_map, cfg, np.linspace(0, 1, 20, endpoint=False), 40)
    assert obs.hits() == []
    obs0 = obstruction_sample(mp_map, DecompositionConfig(0.5), [0.0], 30)
    assert obs0.entries[0][1] == 1
    grid = np.linspace(0.0, 1.0, 100, endpoint=False)
    obs2 = obstruction_sample(mp_map, DecompositionConfig(0.99), grid, 200)
    hits = obs2.hits()
    assert hits, "expected a nonempty hit set near the neutral point"
    assert all(k <= 200 for _, k in hits)
    assert all(x < 0.2 for x, _ in hits)


def test_obstruction_k_is_minimal(mp_map):
    cfg = DecompositionConfig(0.99)
    obs = obstruction_sample(mp_map, cfg, [0.003], 150)
    x, k = obs.entries[0]
    if k is not None:
        logs = segment_log_sigma(mp_map, x, 150)[0]
        means = np.cumsum(logs) / np.arange(1, 151)
        assert np.all(means[k - 1:] >= cfg.log_sigma)
        if k > 1:
            assert means[k - 2] < cfg.log_sigma


@pytest.mark.parametrize("name", sorted(DRAW_MAPS))
@pytest.mark.parametrize("sigma", [0.4, 0.6, 0.75, 0.9])
def test_block_draws_match_one_at_a_time_draws(name, sigma):
    system = DRAW_MAPS[name]
    dec = DecompositionConfig(sigma)
    for seed in range(3):
        for count, lengths in ((1, (5, 20)), (3, (5, 20)), (7, (2, 9))):
            rng_ref, rng_new = (np.random.default_rng(seed) for _ in range(2))
            try:
                ref = random_good_segments_scalar(system, dec, rng_ref, count,
                                                  lengths, attempts=200)
            except ValidationError:
                ref = None
            segs, attempts = draw_good_segments(system, dec, rng_new, count,
                                                lengths, 200)
            if ref is None:
                assert len(segs) < count and attempts == 200
            else:
                assert (segs, attempts) == ref
            assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_block_draws_hit_the_attempt_cap_as_one_at_a_time_draws_do(monkeypatch):
    # perturbed doubling accepts about 1 candidate in 250 at sigma 0.5
    system, dec = DRAW_MAPS["perturbed"], DecompositionConfig(0.5)
    rng_ref, rng_new = np.random.default_rng(1), np.random.default_rng(1)
    with pytest.raises(ValidationError) as ref:
        random_good_segments_scalar(system, dec, rng_ref, 3, (5, 20), attempts=400)
    monkeypatch.setattr(cli, "_GOOD_SEGMENT_ATTEMPTS", 400)
    with pytest.raises(ValidationError) as new:
        cli._random_good_segments(system, dec, rng_new, 3, (5, 20))
    assert str(new.value) == str(ref.value)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    segs, attempts = draw_good_segments(system, dec, np.random.default_rng(1), 3,
                                        (5, 20), 400)
    assert len(segs) < 3 and attempts == 400


def test_block_draws_of_nothing_draw_nothing(mp_map):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    dec = DecompositionConfig(0.9)
    assert draw_good_segments(mp_map, dec, rng, 0, (5, 20), 100) == ([], 0)
    assert draw_good_segments(mp_map, dec, rng, 2, (5, 20), 0) == ([], 0)
    assert rng.bit_generator.state == state
