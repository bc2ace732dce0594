import json

import numpy as np

import pressgap as pg
from pressgap import cli, orbits
from pressgap.cli import fmt, main
from pressgap.decomposition import DecompositionConfig, classify_segment, decompose


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
    out = tmp_path / "t.csv"
    assert run(["transfer", "--grid-size", "64", "--out", str(out)]) == 0
    lines = read(out).splitlines()
    assert "lambda=2" in lines[0]
    assert lines[1] == "node,x,h,nu,density"
    assert len(lines) == 66


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
    assert lines[1].startswith("sigma,a,alpha,eps,bound,empirical_max")


def test_solenoid_csv(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["solenoid", "--samples", "100", "--sigma", "0.6",
                "--eps", "0.0625", "--depth", "10", "--cloud-depth", "3",
                "--out", str(out)]) == 0
    text = read(out)
    assert "fiber_contraction,0.25" in text
    assert "conjugacy_defect,0," in text
    assert "cloud_0," in text


def test_check_pass_and_exit_codes(tmp_path):
    out = tmp_path / "c.csv"
    code = run(["check", "--map", "doubling", "--sigma", "0.75",
                "--n-max", "6", "--samples", "30", "--length-max", "9",
                "--out", str(out)])
    assert code == 0
    assert ",1,1,1,1," in read(out).splitlines()[2]


def test_gap_report_worker_pool_deterministic(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gap-report", "--map", "manneville_pomeau",
            "--sigma-grid", "0.7,0.8,0.9", "--n-max", "6", "--seed", "2"]
    assert run(args + ["--workers", "1", "--out", str(a)]) == 0
    monkeypatch.setenv("PRESSGAP_WORKERS", "3")
    assert run(args + ["--workers", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_unparsable_workers_variable(monkeypatch, capsys):
    monkeypatch.setenv("PRESSGAP_WORKERS", "abc")
    assert run(["gap-report", "--n-max", "4"]) == 1
    assert "validation error: workers:" in capsys.readouterr().err


def test_config_field_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for doc, field in (({"n_max": "abc"}, "n_max"), ({"n_max": 6.0}, "n_max"),
                       ({"seed": True}, "seed"), ({"sigma": "0.5"}, "sigma"),
                       ({"eps_list": [0.1, "x"]}, "eps_list"), ({"out": 3}, "out"),
                       ({"map": {"alpha": "x"}}, "map.alpha"),
                       ({"potential": {"kind": 1}}, "potential.kind"),
                       ({"map": "doubling"}, "map")):
        cfg.write_text(json.dumps(doc))
        assert run(["pressure", "--config", str(cfg)]) == 1
        assert f"validation error: {field}:" in capsys.readouterr().err
    for text in ("[1]", "{"):
        cfg.write_text(text)
        assert run(["pressure", "--config", str(cfg)]) == 1
        assert "validation error: config:" in capsys.readouterr().err


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
                       ({"potential": dict(pot, xs=None)}, "potential.xs"),
                       ({"potential": dict(pot, values=3)}, "potential.values"),
                       ({"potential": dict(pot, holder_constant="1")},
                        "potential.holder_constant"),
                       ({"potential": {k: v for k, v in pot.items()
                                       if k != "holder_exponent"}},
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
