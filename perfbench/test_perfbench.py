"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from pressgap import orbits, pressure  # noqa: E402

WORKLOADS, _, PER_LAYER = run.load_spec()


@pytest.fixture(scope="module")
def systems():
    return workloads.build_systems()


@pytest.fixture(scope="module")
def traced_passes(systems, tmp_path_factory):
    """One traced pass of each workload's (seed 0, list 0) op list."""
    out = {}
    for name in WORKLOADS:
        ops = workloads.op_list(name, 0)
        t = tracer.Tracer()
        t.install()
        try:
            _, results = run.run_pass(ops, systems, tmp_path_factory.mktemp(name), t)
        finally:
            t.uninstall()
        out[name] = (ops, results, t.metrics())
    return out


def test_same_seed_gives_same_op_list():
    for name in WORKLOADS:
        assert workloads.op_list(name, 7) == workloads.op_list(name, 7)
        assert workloads.op_list(name, 7, 3) == workloads.op_list(name, 7, 3)
        assert workloads.op_list(name, 7) != workloads.op_list(name, 8)
        assert workloads.op_list(name, 7, 0) != workloads.op_list(name, 7, 1)


def test_outputs_pass_their_oracles(traced_passes, systems):
    for name, (ops, results, _) in traced_passes.items():
        for op, (_, code, text, error) in zip(ops, results):
            assert error is None, (op.key, error)
            assert workloads.check_output(op, code, text, systems) == [], op.key


def test_declared_layer_metrics_are_nonzero(traced_passes):
    for name, (_, _, metrics) in traced_passes.items():
        zero = [m for m in run.DECLARED[name] if not metrics.get(m, 0.0) > 0.0]
        assert zero == [], f"{name}: {zero}"


def test_per_layer_metrics_are_reported(traced_passes):
    known = set().union(*(m for _, _, m in traced_passes.values()))
    for name, _ in PER_LAYER:
        assert name in known, name
    for name, _ in PER_LAYER:
        if name.endswith(("self_s", "build_s")):
            assert all(m[name] > 0.0 for _, _, m in traced_passes.values()), name


def test_uninstall_restores_every_binding():
    before = (pressure.partition_sum_sep, orbits.CylinderTree.__dict__["__init__"])
    t = tracer.Tracer()
    t.install()
    assert pressure.partition_sum_sep is not before[0]
    assert pressure.partition_sum_sep is orbits.partition_sum_sep
    t.uninstall()
    assert (pressure.partition_sum_sep, orbits.CylinderTree.__dict__["__init__"]) == before


def test_self_time_on_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 3.0, 6.0, 0, 0],      # overlaps a: the union is counted once
        ["c", 9.0, 12.0, 0, 0],     # runs past its parent: clipped at 10
        ["other", 20.0, 21.0, -1, 1],
    ]
    assert tracer.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 3.0, 3.0, 1.0])
    t = tracer.Tracer()
    t.spans = spans
    metrics = t.metrics()
    assert metrics["root.self_s"] == pytest.approx(4.0)
    assert metrics["root.total_s"] == pytest.approx(10.0)


def _edit_rows(text, edit):
    lines = text.splitlines()
    columns = lines[1].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[2:]]
    edit(rows)
    body = [",".join(r[c] for c in columns) for r in rows]
    return "\n".join(lines[:2] + body) + "\n"


def _set(index, column, value):
    def edit(rows):
        rows[index][column] = value
    return edit


def _edit_header(text, key, value):
    head, rest = text.split("\n", 1)
    tokens = [f"{key}={value}" if tok.startswith(key + "=") else tok
              for tok in head.split(" ")]
    return " ".join(tokens) + "\n" + rest


CORRUPTIONS = {
    "gap_report": lambda t: _edit_rows(t, _set(-1, "holds", "0")),
    "pressure_pd_geometric": lambda t: _edit_rows(t, _set(0, "rate", "0.001")),
    "pressure_doubling_zero": lambda t: _edit_rows(t, _set(0, "rate", "0.6931")),
    "decompose": lambda t: _edit_rows(
        t, lambda rows: rows[0].update(g_len=str(int(rows[0]["g_len"]) + 1))),
    "glue": lambda t: _edit_rows(t, _set(0, "ok", "0")),
    "extension": lambda t: _edit_rows(t, _set(0, "within", "0")),
    "solenoid": lambda t: _edit_rows(t, lambda rows: rows.pop()),
    "check": lambda t: _edit_rows(t, _set(0, "passes", "0")),
    "transfer_log_lambda_zero": lambda t: _edit_header(t, "log_lambda", "0.02"),
    "transfer_constant": lambda t: _edit_header(t, "lambda", "1.5"),
    "span_vs_sep": lambda t: "log_span=1.0\nlog_sep=0.5\n",
    "katok": lambda t: "katok=0.0\n",
}


def test_corrupted_outputs_fail_their_oracles(traced_passes, systems):
    seen = set()
    for name, (ops, results, _) in traced_passes.items():
        for op, (_, code, text, _) in zip(ops, results):
            bad = CORRUPTIONS[op.check](text)
            assert bad != text
            assert workloads.check_output(op, code, bad, systems), op.key
            assert workloads.check_output(op, 1, text, systems), op.key
            seen.add(op.check)
    assert seen == set(workloads.ORACLES)


def test_raising_op_counts_as_failed_and_run_goes_on(systems, tmp_path):
    ops = [workloads.Op(key="bad api", check="katok", api="katok",
                        params=(("bad", 1),)),
           workloads.Op(key="bad cli", check="check", argv=("check", "--sigma", "2")),
           workloads.op_list("shadow-sampling", 0)[3]]
    _, results = run.run_pass(ops, systems, str(tmp_path))
    ledger = run.Ledger(systems)
    ledger.add(ops, results)
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert results[0][3].startswith("raised")
    assert results[1][1] == 1


def test_yardstick_never_enters_pressgap():
    t = tracer.Tracer()
    t.install()
    try:
        seconds = run.yardstick()
    finally:
        t.uninstall()
    assert seconds > 0
    assert t.spans == []


def test_separated_count_matches_definition():
    # 0.95 is 0.05 from 0.0 on the circle, so it falls in the first ball
    rows = np.array([[0.0], [0.01], [0.1], [0.5], [0.95]])
    assert workloads.separated_count(rows, 0.06) == 3

