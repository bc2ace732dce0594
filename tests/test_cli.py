import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pressgap as pg
from pressgap import cli, orbits, transfer
from pressgap.cli import fmt, main
from pressgap.decomposition import DecompositionConfig

from oracles import classify_segment, decompose, verify_bowen_scalar


def run(args):
    return main(args)


def read(path):
    return path.read_text()


def test_pressure_csv(tmp_path):
    out = tmp_path / "p.csv"
    code = run(["pressure", "--map", "doubling", "--n-max", "6",
                "--sigma", "0.75", "--out", str(out)])
    assert code == 0
    lines = read(out).splitlines()
    assert lines[0].startswith("# pressgap=")
    assert "config_hash=" in lines[0] and "seed=" in lines[0]
    assert lines[1] == "collection,sigma,eps,rate,rate_uncertainty,limsup_proxy,empty"
    assert len(lines) == 5


def test_validation_exit_code_names_field(tmp_path, capsys):
    assert run(["pressure", "--sigma", "1.5"]) == 1
    assert "sigma" in capsys.readouterr().err
    assert run(["gap-report", "--a", "0.5"]) == 1
    assert "a:" in capsys.readouterr().err
    assert run(["pressure", "--n-max", "2"]) == 1
    assert "n_max" in capsys.readouterr().err


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["decompose", "--map", "manneville_pomeau", "--samples", "25",
            "--sigma", "0.9", "--seed", "7"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["decompose", "--samples", "10", "--seed", "1", "--out", str(a)])
    run(["decompose", "--samples", "10", "--seed", "2", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"map": {"kind": "doubling"}, "n_max": 6,
                               "sigma": 0.6, "seed": 3}))
    out = tmp_path / "o.csv"
    code = run(["pressure", "--config", str(cfg), "--sigma", "0.75",
                "--out", str(out)])
    assert code == 0
    assert "good(0.75)" in read(out)


def test_unknown_config_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery": 1}))
    assert run(["pressure", "--config", str(cfg)]) == 1
    assert "mystery" in capsys.readouterr().err


def test_glue_json_plans(tmp_path):
    out = tmp_path / "plans.json"
    code = run(["glue", "--samples", "2", "--eps", "0.0625", "--sigma", "0.75",
                "--length-max", "8", "--seed", "5", "--out", str(out)])
    assert code == 0
    doc = json.loads(read(out))
    assert doc["seed"] == 5 and len(doc["plans"]) == 2
    for plan in doc["plans"]:
        assert plan["verified_max"] <= 0.0625
        assert set(plan) >= {"segments", "transition_times", "glue_point",
                             "schedule", "eps"}


def test_transfer_csv(tmp_path):
    # doubling with the zero potential is analytic: the table lists the
    # collocation nodes, not the grid
    out = tmp_path / "t.csv"
    assert run(["transfer", "--grid-size", "64", "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert "lambda=2" in lines[0]
    assert "method=collocation nodes=63 uncertainty=" in lines[0]
    assert lines[1] == "node,x,h,nu,density"
    assert len(lines) == 65


def test_transfer_grid_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["transfer", "--map", "manneville_pomeau", "--grid-size", "64",
                "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert "method=" not in lines[0] and "uncertainty=" not in lines[0]
    assert lines[1] == "node,x,h,nu,density"
    assert len(lines) == 66


@pytest.mark.parametrize("kind", ["doubling", "perturbed_doubling",
                                  "manneville_pomeau", "tabulated"])
@pytest.mark.parametrize("potential", ["zero", "constant", "geometric", "tabulated"])
def test_transfer_method_follows_the_analytic_declarations(kind, potential, tmp_path):
    cfg = {"map": {"kind": kind, "values": list(np.linspace(0.0, 2.0, 9))},
           "potential": {"kind": potential, "c": -0.3, "t": 0.5,
                         "xs": [0.0, 0.5], "values": [0.0, 0.1],
                         "holder_constant": 0.4, "holder_exponent": 1.0},
           "grid_size": 256}
    config = tmp_path / "c.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "t.csv"
    assert run(["transfer", "--config", str(config), "--out", str(out)]) == 0
    lines = read(out).splitlines()
    analytic = kind in ("doubling", "perturbed_doubling") and potential != "tabulated"
    assert ("method=collocation nodes=63" in lines[0]) == analytic
    assert len(lines) == (63 if analytic else 256) + 2


def test_transfer_falls_back_to_the_grid_byte_for_byte(tmp_path, monkeypatch):
    # the grid digest of this run, retaken when each inverse-branch root
    # came to stop at the first iterate that passes its root check (density
    # entries moved by up to 3.6e-13 relative, lambda and the iteration
    # count did not); PD 0.75 at t = 0.5 has a collocation uncertainty of
    # about 1e-14, above a tolerance of 0
    monkeypatch.setattr(transfer, "_COLLOCATION_TOL", 0.0)
    out = tmp_path / "t.csv"
    assert run(["transfer", "--map", "perturbed_doubling", "--potential",
                "geometric", "--potential-t", "0.5", "--out", str(out)]) == 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == "acd010189df390b0d519ed0835d7367cae1852a4c68da46e6faff342d537abc2")


def test_small_grid_size_fails_before_collocation(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("transfer work ran before validation")

    monkeypatch.setattr(cli, "collocation_estimate", fail)
    monkeypatch.setattr(cli, "build_operator", fail)
    assert run(["transfer", "--grid-size", "8", "--out", str(tmp_path / "t.csv")]) == 1
    assert "validation error: grid_size: need >= 16" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("kind", ["doubling", "manneville_pomeau"])
def test_weight_overflow_prints_only_the_validation_error(kind, tmp_path):
    # in a fresh process, so that numpy's warning filter has not yet seen
    # the overflow
    src = str(Path(pg.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-m", "pressgap.cli", "transfer",
                           "--map", kind, "--potential", "constant",
                           "--potential-c", "1e308",
                           "--out", str(tmp_path / "t.csv")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == ("validation error: potential: weights must be "
                           "finite and positive\n")


def test_transfer_rows_match_fmt(tmp_path):
    # 2500 rows cross the row-chunk boundaries and end inside a chunk
    out = tmp_path / "t.csv"
    assert run(["transfer", "--map", "manneville_pomeau", "--potential",
                "geometric", "--grid-size", "2500", "--out", str(out)]) == 0
    system = pg.manneville_pomeau(0.5)
    op = pg.build_operator(system, pg.geometric_potential(system, 1.0), 2500)
    eigen = pg.leading_eigen(op)
    expected = [",".join(fmt(v) for v in (i, op.nodes[i], eigen.eigenfunction[i],
                                          eigen.eigenmeasure[i],
                                          eigen.equilibrium_density[i]))
                for i in range(op.size)]
    assert read(out).split("\n")[2:] == expected + [""]


def test_gap_report_csv(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["gap-report", "--map", "manneville_pomeau",
                "--sigma-grid", "0.75,0.9", "--n-max", "6",
                "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[1] == "sigma,eps,n_max,p_full,p_bad,gap,holds"
    assert len(lines) == 4
    assert all(row.endswith(",1") for row in lines[2:])


def test_extension_csv(tmp_path):
    out = tmp_path / "e.csv"
    assert run(["extension", "--map", "perturbed_doubling", "--potential",
                "geometric", "--sigma", "0.9", "--samples", "30",
                "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert lines[1] == "sigma,a,alpha,eps,bound,empirical_max,slack,within,samples"
    assert len(lines) == 3
    assert lines[2].endswith(",1,30")


def test_extension_reports_a_sample_shortfall(tmp_path):
    # sigma 0.5 admits few good segments on this map: the 60-draws-per-sample
    # budget runs out before 25 are found, and the samples column says so
    out = tmp_path / "e.csv"
    assert run(["extension", "--map", "perturbed_doubling", "--potential",
                "geometric", "--sigma", "0.5", "--samples", "25",
                "--out", str(out)]) == 0
    _, header, values = read(out).splitlines()
    row = dict(zip(header.split(","), values.split(",")))
    assert row["within"] == "1"
    assert 0 < int(row["samples"]) < 25
    system = pg.perturbed_doubling(0.75)
    phi = pg.geometric_potential(system, 1.0)
    ref = verify_bowen_scalar(system, pg.ExtensionConfig(2.0, 24), DecompositionConfig(0.5),
                              pg.lift_projection(phi), 1.0 / 32.0, 25, seed=0,
                              phi=phi, lift_a=None)
    assert int(row["samples"]) == ref.samples


def test_solenoid_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["solenoid", "--samples", "100", "--sigma", "0.6",
                "--eps", "0.0625", "--depth", "10", "--cloud-depth", "3",
                "--out", str(out)]) == 0
    text = read(out)
    assert "fiber_contraction,0.25" in text
    assert "conjugacy_defect,0," in text
    assert "cloud_0," in text


def test_solenoid_rejects_overlapping_fibers(tmp_path, capsys):
    assert run(["solenoid", "--lam-s", "0.3", "--offset", "0.2",
                "--out", str(tmp_path / "s.csv")]) == 1
    assert "offset" in capsys.readouterr().err


def _no_solenoid_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("solenoid work ran before validation")

    for name in ("SolenoidSystem", "metric_equivalence", "attractor_bowen_check"):
        monkeypatch.setattr(cli, name, fail)


def test_negative_cloud_depth_is_rejected_first(tmp_path, capsys, monkeypatch):
    _no_solenoid_work(monkeypatch)
    assert run(["solenoid", "--cloud-depth", "-1",
                "--out", str(tmp_path / "s.csv")]) == 1
    assert "cloud_depth" in capsys.readouterr().err


def test_cloud_depth_over_the_fiber_cap_fails_first(tmp_path, capsys, monkeypatch):
    _no_solenoid_work(monkeypatch)
    assert run(["solenoid", "--cloud-depth", "17",
                "--out", str(tmp_path / "s.csv")]) == 2
    assert "2^17 fiber points exceed cap 65536" in capsys.readouterr().err


def test_grid_size_over_the_node_cap_fails_first(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("transfer work ran before validation")

    monkeypatch.setattr(cli, "build_operator", fail)
    assert run(["transfer", "--grid-size", "10000000000000",
                "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert "grid_size" in err and "Traceback" not in err
    assert not (tmp_path / "t.csv").exists()


def _no_sampling_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("sampling work ran before validation")

    for name in ("draw_good_segments", "segment_log_sigma", "glue_base",
                 "verify_bowen", "gap_report"):
        monkeypatch.setattr(cli, name, fail)


@pytest.mark.parametrize("args, field", [
    (["glue", "--group-size", "-2"], "group_size"),
    (["check", "--group-size", "0"], "group_size"),
    (["decompose", "--samples", "-3"], "samples"),
    (["extension", "--samples", "0"], "samples"),
    (["check", "--samples", "0"], "samples"),
])
def test_sample_counts_are_rejected_first(args, field, tmp_path, capsys, monkeypatch):
    _no_sampling_work(monkeypatch)
    assert run(args + ["--out", str(tmp_path / "o.csv")]) == 1
    assert f"validation error: {field}: must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


# sha256 of one benchmark-size Manneville-Pomeau run of each sampling
# subcommand, as written by the one-at-a-time samplers and per-point
# Birkhoff sums that the block samplers replaced; the glue digest was
# retaken when each inverse-branch root came to stop at the first iterate
# that passes its root check, which moved four glue points by 1 to 4 ulp
# and one verified_max by 8 ulp; the
# decompose digest was taken when its class column still came from
# classifying the log sigma row apart from the split; the extension digest
# was retaken when the Bowen sampler came to draw all candidate segments
# first and then all branches, in blocks, and its CSV gained the samples
# column
_MP = ["--map", "manneville_pomeau", "--alpha", "0.5", "--seed", "3"]
_GOLDEN = {
    "decompose.csv": (["decompose", "--samples", "150"],
                      "1b7d7d98548ed2a8109439c6b5db85701ef6ee28e629c48513a2fe076e234178"),
    "glue.json": (["glue", "--sigma", "0.9", "--eps", "0.03125", "--samples", "6"],
                  "3ffd29b266448447198a4cd01d06e0371228d0b7e946639638931c7bc0fdd03e"),
    "extension.csv": (["extension", "--potential", "geometric", "--samples", "25"],
                      "652080c61ebb8e0d60c4003a4b34e03c217adff28f49dbde0409243e8472933d"),
    "check.csv": (["check", "--sigma", "0.9", "--n-max", "8"],
                  "a4b5cee5ae2fdc381216bf10404c904ab9fab388c012ba2c329df18718ff6afe"),
}


# the pressure-ladder runs, from the parent of the cached window means
_PRESSURE_GOLDEN = {
    "gap-report-mp.csv": (
        ["gap-report", "--map", "manneville_pomeau", "--alpha", "0.5",
         "--sigma-grid", "0.6,0.75,0.9", "--eps", "0.03125", "--n-max", "10"],
        "6ab9129322f8dbca0de32cd79ff3fbc03a1b3d3c6050a84ed165fb88da215621"),
    "pressure-pd-geometric.csv": (
        ["pressure", "--map", "perturbed_doubling", "--delta", "0.75",
         "--potential", "geometric", "--potential-t", "1",
         "--eps-list", "0.0625,0.03125", "--n-max", "10"],
        "c2ce6a99e59bc2d99601742271f5a0aa53c026a3658cca21b98704b54ca8a274"),
    "pressure-doubling-zero.csv": (
        ["pressure", "--map", "doubling", "--potential", "zero", "--n-max", "10"],
        "ea092a0b51c526545a397f530e6aba0cc50b0a836a8cd06452d04577c5c554f5"),
    # a dense regime (several conflicts per row), taken from the screen of
    # every time-0 window pair that the tree's conflict recursion replaced
    "pressure-mp-dense.csv": (
        ["pressure", "--map", "manneville_pomeau", "--eps-list", "0.25,0.3",
         "--n-max", "10"],
        "810226aeea54d0b3c5bc7a785f7829e825804cfd26e828ba197f87eefac70f19"),
}


# the solenoid runs, as the one-point attractor forms wrote them
_SOLENOID_GOLDEN = {
    "solenoid-cloud8.csv": (
        ["solenoid", "--samples", "200", "--cloud-depth", "8", "--seed", "3"],
        "b2d12117ad593fd420191321c9efeaa64e159202139f614d79d9d20a4c491569"),
    "solenoid-sigma0.6.csv": (
        ["solenoid", "--samples", "100", "--sigma", "0.6", "--eps", "0.0625",
         "--depth", "10", "--cloud-depth", "3", "--seed", "9"],
        "f0d96005104ec19650f198ef2aac406a30bc770da9606d242207ef70c80f99dd"),
}


# the benchmark's Manneville-Pomeau transfer run, which solves the grid, and
# a perturbed-doubling run, which collocation solves; both were retaken when
# each inverse-branch root came to stop at the first iterate that passes its
# root check, which moved lambda in its last digit or two and the density
# and measure entries by up to 1.4e-12 relative (MP) and 1.7e-14 (PD), with
# the same iteration counts
_TRANSFER_GOLDEN = {
    "transfer-mp-grid.csv": (
        ["transfer", "--map", "manneville_pomeau", "--alpha", "0.5",
         "--potential", "geometric", "--potential-t", "1",
         "--grid-size", "8192", "--seed", "0"],
        "de5595439f53e4e7f584961a07c5672bee4860282cd38575d6d98c1a08d632e3"),
    "transfer-pd-collocation.csv": (
        ["transfer", "--map", "perturbed_doubling", "--potential", "geometric",
         "--potential-t", "0.5"],
        "ea68e6ffec8f80a1a85582a7b623506e5114d1890f164ea0b1905124c2ff3f33"),
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_sampling_outputs_are_unchanged(name, tmp_path):
    args, digest = _GOLDEN[name]
    out = tmp_path / name
    assert run(args + _MP + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(_PRESSURE_GOLDEN))
def test_pressure_outputs_are_unchanged(name, tmp_path):
    args, digest = _PRESSURE_GOLDEN[name]
    out = tmp_path / name
    assert run(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(_SOLENOID_GOLDEN))
def test_solenoid_outputs_are_unchanged(name, tmp_path):
    args, digest = _SOLENOID_GOLDEN[name]
    out = tmp_path / name
    assert run(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(_TRANSFER_GOLDEN))
def test_transfer_outputs_are_unchanged(name, tmp_path):
    args, digest = _TRANSFER_GOLDEN[name]
    out = tmp_path / name
    assert run(args + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_check_pass_and_exit_codes(tmp_path):
    out = tmp_path / "c.csv"
    code = run(["check", "--map", "doubling", "--sigma", "0.75",
                "--n-max", "6", "--samples", "30", "--length-max", "9",
                "--out", str(out)])
    assert code == 0
    assert ",1,1,1,1," in read(out).splitlines()[2]


def test_node_cap_overflow_exit_code(capsys):
    assert run(["pressure", "--n-max", "40"]) == 2
    assert "node cap" in capsys.readouterr().err


def _count_tree_builds(monkeypatch):
    builds = []
    init = orbits.CylinderTree.__init__

    def counting_init(self, system, depth, *args, **kwargs):
        builds.append(depth)
        init(self, system, depth, *args, **kwargs)

    monkeypatch.setattr(orbits.CylinderTree, "__init__", counting_init)
    return builds


def test_gap_report_builds_one_tree(tmp_path, monkeypatch):
    builds = _count_tree_builds(monkeypatch)
    assert run(["gap-report", "--map", "manneville_pomeau",
                "--sigma-grid", "0.7,0.8,0.9", "--n-max", "6",
                "--out", str(tmp_path / "g.csv")]) == 0
    assert builds == [10]


def test_pressure_builds_one_tree(tmp_path, monkeypatch):
    builds = _count_tree_builds(monkeypatch)
    assert run(["pressure", "--map", "manneville_pomeau", "--n-max", "6",
                "--eps-list", "0.0625,0.03125",
                "--out", str(tmp_path / "p.csv")]) == 0
    assert builds == [10]


def _count_window_work(monkeypatch):
    """(n, depth) of every `log_sigma_matrix` call, and of every window-means
    entry when it enters its tree's cache."""
    matrices, entries = [], []
    build = orbits.CylinderTree.log_sigma_matrix
    means = orbits.CylinderTree.window_means

    def counting_build(self, n, depth=None):
        matrices.append((n, depth))
        return build(self, n, depth)

    def counting_means(self, n, depth):
        fresh = (n, depth) not in self._window_means
        out = means(self, n, depth)
        if fresh:
            entries.append((n, depth))
        return out

    monkeypatch.setattr(orbits.CylinderTree, "log_sigma_matrix", counting_build)
    monkeypatch.setattr(orbits.CylinderTree, "window_means", counting_means)
    return matrices, entries


def test_gap_report_builds_each_log_sigma_matrix_once(tmp_path, monkeypatch):
    # three sigmas share the bad pools' window means of each n, and each
    # (n, n + 4) entry is derived from (n - 1, n + 3) down to one n = 1 matrix
    matrices, entries = _count_window_work(monkeypatch)
    assert run(["gap-report", "--map", "manneville_pomeau",
                "--sigma-grid", "0.6,0.75,0.9", "--n-max", "10",
                "--out", str(tmp_path / "g.csv")]) == 0
    assert matrices == [(1, 5)]
    assert entries == [(n, n + 4) for n in range(1, 11)]


def test_pressure_builds_each_log_sigma_matrix_once(tmp_path, monkeypatch):
    # two eps values share the good (depth n) and bad (depth n + 4) means;
    # one n = 1 matrix per depth offset, and each entry is built once
    matrices, entries = _count_window_work(monkeypatch)
    assert run(["pressure", "--map", "manneville_pomeau", "--n-max", "10",
                "--eps-list", "0.0625,0.03125",
                "--out", str(tmp_path / "p.csv")]) == 0
    assert sorted(matrices) == [(1, 1), (1, 5)]
    assert sorted(entries) == sorted({(n, d) for n in range(1, 11) for d in (n, n + 4)})
    assert len(entries) == 20


def _count_conflict_entries(monkeypatch):
    """(n, depth, eps) of every conflict entry when it enters its tree's
    cache."""
    entries = []
    conflicts = orbits.CylinderTree.conflicts

    def counting_conflicts(self, n, depth, eps):
        fresh = (n, depth, eps) not in self._conflicts
        out = conflicts(self, n, depth, eps)
        if fresh:
            entries.append((n, depth, eps))
        return out

    monkeypatch.setattr(orbits.CylinderTree, "conflicts", counting_conflicts)
    return entries


def test_gap_report_builds_each_conflict_entry_once(tmp_path, monkeypatch):
    # three sigmas share the bad pools' pairs of each n, and each (n, n + 4)
    # entry is derived from (n - 1, n + 3) down to one n = 1 search
    entries = _count_conflict_entries(monkeypatch)
    assert run(["gap-report", "--map", "manneville_pomeau",
                "--sigma-grid", "0.6,0.75,0.9", "--n-max", "10",
                "--out", str(tmp_path / "g.csv")]) == 0
    assert sorted(entries) == sorted({(n, d, 0.03125) for n in range(1, 11)
                                      for d in (n, n + 4)})
    assert len(entries) == 20


def test_pressure_builds_each_conflict_entry_once(tmp_path, monkeypatch):
    # the full, good and bad pools of both eps values share the entries of
    # their (n, depth, eps)
    entries = _count_conflict_entries(monkeypatch)
    assert run(["pressure", "--map", "manneville_pomeau", "--n-max", "10",
                "--eps-list", "0.0625,0.03125",
                "--out", str(tmp_path / "p.csv")]) == 0
    assert sorted(entries) == sorted({(n, d, eps) for n in range(1, 11)
                                      for d in (n, n + 4)
                                      for eps in (0.0625, 0.03125)})
    assert len(entries) == 40


def test_conflicts_over_the_pair_budget_exit_2_naming_eps(capsys, monkeypatch):
    # a cap of 2^10 nodes still holds the depth-10 tree of n_max 6, and its
    # 64 * 2^10 pair budget is far below the pairs of eps 0.5
    monkeypatch.setattr(orbits, "DEFAULT_NODE_CAP", 1 << 10)
    assert run(["pressure", "--map", "manneville_pomeau", "--n-max", "6",
                "--eps", "0.5"]) == 2
    assert "eps 0.5:" in capsys.readouterr().err


def test_pressure_rows_match_unshared_trees(tmp_path):
    out = tmp_path / "p.csv"
    args = ["pressure", "--map", "manneville_pomeau", "--potential", "geometric",
            "--n-max", "6", "--sigma", "0.75", "--eps-list", "0.0625,0.03125"]
    assert run(args + ["--out", str(out)]) == 0
    system = pg.manneville_pomeau(0.5)
    phi = pg.geometric_potential(system, 1.0)
    dec = pg.DecompositionConfig(0.75)
    expected = []
    for eps in (0.0625, 0.03125):
        for coll in (orbits.FullCollection(), pg.GoodCollection(dec),
                     pg.BadCollection(dec)):
            est = pg.pressure_at_scale(system, phi, coll, eps, 6, tree=None)
            expected.append(",".join(fmt(v) for v in (
                coll.name, 0.75, eps, est.rate, est.rate_uncertainty,
                est.limsup_proxy, int(est.is_empty))))
    assert read(out).splitlines()[2:] == expected


def test_extension_depth_below_segment_lengths(capsys):
    assert run(["extension", "--depth", "3", "--samples", "5"]) == 1
    assert "depth:" in capsys.readouterr().err


def test_unparsable_number_lists(capsys):
    assert run(["gap-report", "--sigma-grid", "0.5,abc"]) == 1
    assert "sigma_grid:" in capsys.readouterr().err
    assert run(["pressure", "--eps-list", "0.03125,x"]) == 1
    assert "eps_list:" in capsys.readouterr().err


def test_usage_errors_exit_1_naming_the_flag(capsys):
    assert run(["pressure", "--n-max", "abc"]) == 1
    assert "validation error: --n-max:" in capsys.readouterr().err
    assert run(["pressure", "--map", "foo"]) == 1
    assert "validation error: --map:" in capsys.readouterr().err
    assert run(["nonsense"]) == 1
    assert "validation error: command:" in capsys.readouterr().err


def test_workers_is_not_a_setting(tmp_path, capsys):
    assert run(["gap-report", "--workers", "2"]) == 1
    assert "--workers" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 2}))
    assert run(["gap-report", "--config", str(cfg)]) == 1
    assert ("validation error: workers: unknown configuration field"
            in capsys.readouterr().err)


@pytest.mark.parametrize("args, field", [
    (["pressure", "--eps", "nan"], "eps"),
    (["gap-report", "--eps", "nan"], "eps"),
    (["check", "--eps", "nan"], "eps"),
    (["extension", "--a", "nan"], "a"),
    (["extension", "--a", "inf"], "a"),
    (["pressure", "--eps-list", "inf"], "eps_list"),
    (["gap-report", "--sigma-grid", "0.5,nan"], "sigma_grid"),
    (["pressure", "--potential-t", "nan"], "potential.t"),
    (["pressure", "--potential-c", "nan"], "potential.c"),
    (["decompose", "--seed", "-1"], "seed"),
    (["glue", "--group-size", "-2"], "group_size"),
    (["glue", "--group-size", "0"], "group_size"),
    (["glue", "--samples", "0"], "samples"),
    (["decompose", "--samples", "-3"], "samples"),
    (["extension", "--samples", "0"], "samples"),
    (["solenoid", "--samples", "0"], "samples"),
    (["check", "--group-size", "0"], "group_size"),
    (["gap-report", "--sigma-grid", "0.5,1.5"], "sigma_grid"),
    (["pressure", "--eps-list", "0.1,-0.2"], "eps_list"),
])
def test_bad_numbers_exit_1_naming_the_field(args, field, capsys):
    assert run(args) == 1
    err = capsys.readouterr().err
    assert f"validation error: {field}:" in err
    assert "Traceback" not in err


def _literal_reads(tree):
    """String keys read as a subscript, or as the first argument of .get."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args):
            key = node.args[0]
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            yield key.value


def test_every_config_field_is_read():
    # a field that only DEFAULTS and the flag tables name is dead
    # configuration; k_max waits on the expansivity hypothesis, which
    # ROADMAP item 6 either wires to it or deletes with it
    tree = ast.parse(Path(cli.__file__).read_text())
    read = set(_literal_reads(tree))
    fields = set(cli.DEFAULTS)
    fields |= {sub for v in cli.DEFAULTS.values() if isinstance(v, dict) for sub in v}
    assert fields - read == {"k_max"}


def test_config_field_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for doc, field in (({"n_max": "abc"}, "n_max"), ({"n_max": 6.0}, "n_max"),
                       ({"seed": True}, "seed"), ({"sigma": "0.5"}, "sigma"),
                       ({"eps_list": [0.1, "x"]}, "eps_list"), ({"out": 3}, "out"),
                       ({"map": {"alpha": "x"}}, "map.alpha"),
                       ({"potential": {"kind": 1}}, "potential.kind"),
                       ({"map": "doubling"}, "map"),
                       ({"eps": float("nan")}, "eps"),
                       ({"sigma": float("inf")}, "sigma"),
                       ({"eps_list": [0.1, -float("inf")]}, "eps_list"),
                       ({"map": {"alpha": float("nan")}}, "map.alpha"),
                       ({"seed": -3}, "seed")):
        cfg.write_text(json.dumps(doc))
        assert run(["pressure", "--config", str(cfg)]) == 1
        assert f"validation error: {field}:" in capsys.readouterr().err
    for text in ("[1]", "{"):
        cfg.write_text(text)
        assert run(["pressure", "--config", str(cfg)]) == 1
        assert "validation error: config:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pressure", "gap-report"])
def test_empty_config_lists_are_rejected(command, tmp_path, capsys):
    # an empty list is not the scalar field's one value; an empty flag
    # still leaves the configured list as it is
    cfg = tmp_path / "cfg.json"
    for doc, field in (({"eps_list": []}, "eps_list"), ({"sigma_grid": []}, "sigma_grid"),
                       ({"eps_list": [], "sigma_grid": []}, "sigma_grid")):
        cfg.write_text(json.dumps(doc))
        assert run([command, "--n-max", "4", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"validation error: {field}: must not be empty" in err
        assert "Traceback" not in err
    cfg.write_text(json.dumps({"eps_list": []}))
    assert run([command, "--n-max", "4", "--eps-list", "", "--config", str(cfg)]) == 1
    assert "validation error: eps_list:" in capsys.readouterr().err
    assert run([command, "--n-max", "4", "--eps-list", "0.0625", "--config", str(cfg),
                "--out", str(tmp_path / "out.csv")]) == 0


def test_config_numbers_are_not_coerced(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 3, "eps_list": [1, 0.5], "out": None}))
    resolved = cli.resolve_config(cli.build_parser().parse_args(
        ["pressure", "--config", str(cfg)]))
    assert resolved["a"] == 3 and isinstance(resolved["a"], int)
    assert resolved["eps_list"] == [1, 0.5]


def test_check_rejects_depth_before_gap_report(monkeypatch, capsys):
    def no_gap_report(*args, **kwargs):
        raise AssertionError("gap_report ran before the depth was checked")

    monkeypatch.setattr(cli, "gap_report", no_gap_report)
    assert run(["check", "--depth", "3", "--samples", "5"]) == 1
    assert "depth:" in capsys.readouterr().err


def test_tabulated_fields_are_checked(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    pot = {"kind": "tabulated", "xs": [0.0, 0.5], "values": [1.0, 2.0],
           "holder_constant": 1.0, "holder_exponent": 1.0}
    for doc, field in (({"map": {"kind": "tabulated"}}, "map.values"),
                       ({"map": {"kind": "tabulated", "values": "abc"}}, "map.values"),
                       ({"map": {"kind": "tabulated", "values": [0, "x"]}}, "map.values"),
                       ({"map": {"kind": "tabulated",
                                 "values": [1.5 * i / 16 for i in range(17)]}},
                        "map.values"),
                       ({"potential": dict(pot, xs=None)}, "potential.xs"),
                       ({"potential": dict(pot, values=3)}, "potential.values"),
                       ({"potential": dict(pot, holder_constant="1")},
                        "potential.holder_constant"),
                       ({"potential": {k: v for k, v in pot.items()
                                       if k != "holder_exponent"}},
                        "potential.holder_exponent"),
                       ({"potential": dict(pot, xs=[], values=[])}, "potential.xs"),
                       ({"potential": dict(pot, xs=[0.2, 1.5])}, "potential.xs"),
                       ({"potential": dict(pot, xs=[-0.1, 0.5])}, "potential.xs"),
                       ({"potential": dict(pot, xs=[0.5, 0.5])}, "potential.xs"),
                       ({"potential": dict(pot, holder_constant=-1.0)},
                        "potential.holder_constant"),
                       ({"potential": dict(pot, holder_exponent=7.0)},
                        "potential.holder_exponent"),
                       ({"potential": dict(pot, holder_exponent=0.0)},
                        "potential.holder_exponent")):
        cfg.write_text(json.dumps(doc))
        assert run(["pressure", "--n-max", "4", "--config", str(cfg)]) == 1
        assert f"validation error: {field}:" in capsys.readouterr().err
    table = {"map": {"kind": "tabulated", "values": [2.0 * i / 16 for i in range(17)]},
             "potential": pot}
    cfg.write_text(json.dumps(table))
    assert run(["pressure", "--n-max", "4", "--config", str(cfg),
                "--out", str(tmp_path / "p.csv")]) == 0


def test_decompose_rows_match_per_segment_calls(tmp_path, monkeypatch):
    system = pg.manneville_pomeau(0.5)
    dec = DecompositionConfig(0.9)
    args = ["decompose", "--map", "manneville_pomeau", "--samples", "80",
            "--length-min", "1", "--length-max", "24", "--seed", "11"]
    out = tmp_path / "d.csv"
    assert run(args + ["--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    rng = np.random.default_rng(11)
    for row in rows:
        seg = orbits.OrbitSegment(float(rng.random()), int(rng.integers(1, 25)))
        d = decompose(system, dec, seg)
        assert row == ",".join(fmt(v) for v in (
            seg.start, seg.length, classify_segment(system, dec, seg).value,
            d.g_len, d.s_len))
    assert len(rows) == 80
    # blocks of a few starts give the same bytes as one block
    monkeypatch.setattr(cli, "_DECOMPOSE_POINTS", 50)
    blocks = tmp_path / "b.csv"
    assert run(args + ["--out", str(blocks)]) == 0
    assert blocks.read_bytes() == out.read_bytes()
