#!/usr/bin/env python3
"""pressgap benchmark: closed-loop workloads with oracle-checked outputs.

    python3 perfbench/run.py --workload pressure-ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --update-baseline

One process, one client: the workload's ops run back to back in passes
until ``--seconds`` have been spent, and a set-up probe is timed before
each pass.  Every op's output is checked by its oracle outside the timed
region.  The reported times are rescaled by two machine-speed yardsticks
timed in the same run (see YARDSTICK_REF_S).  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` the passes alternate
traced and untraced, and the per-layer metrics of the traced passes are
printed together with the tracing overhead.  The last stdout line is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A run record with the machine, the op hashes and every
layer metric is written under ``perfbench/results/``.

The package is imported from ``src/`` next to this directory; the run exits
with code 2 and prints no result when it is missing.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
BASELINE = os.path.join(HERE, "baseline_hashes.json")

# An untraced run cycles through this many op lists per seed; a traced run
# makes at least MIN_PASSES traced and MIN_PASSES untraced passes.
OP_LISTS = 3
MIN_PASSES = 3

# Machine-speed yardsticks.  Shared cores on the 2-core machine the
# benchmark was defined on change speed by up to 1.7x from one pass to the
# next and over minutes, and start processes at speeds that vary as much.
# So each pass is rescaled by YARDSTICK_REF_S / (mean time of a fixed piece
# of numpy work, timed after every op of that pass), and each set-up probe
# by IMPORT_REF_S / (time to start `python3 -c "import numpy"`, timed right
# after the probe).  Neither yardstick touches pressgap or BLAS.  The two
# constants are round values near the yardsticks' medians on that machine,
# so the rescaled times read as seconds on a machine of its usual speed.
YARDSTICK_REF_S = 0.040
IMPORT_REF_S = 0.150
IMPORT_YARDSTICK = ("-c", "import numpy; print('ready', flush=True)")

# Layer metrics each workload must exercise (non-zero in its traced pass).
DECLARED = {
    "pressure-ladder": (
        "kernels.greedy_separated.self_s", "kernels.greedy_separated.work",
        "orbits.CylinderTree.builds", "orbits.CylinderTree.build_s",
        "orbits.log_sigma_matrix.self_s", "orbits.partition_sum_sep.calls",
        "maps.branch_solve.points", "maps.branch_lipschitz.points",
        "pressure.pressure_at_scale.self_s", "pressure.gap_report.calls",
        "pressure.growth_fit.self_s", "cli.main.self_s"),
    "shadow-sampling": (
        "maps.branch_solve.self_s", "maps.branch_lipschitz.points",
        "maps.pullback.calls", "maps.mixing_time.calls",
        "decomposition.segment_log_sigma.self_s", "decomposition.contains.accept_ratio",
        "specification.glue_base.self_s", "specification.verify_shadow.self_s",
        "specification.transition_steps", "specification.plan_arcs",
        "extension.verify_bowen.samples_used", "extension.extend.self_s",
        "extension.birkhoff_hat.self_s", "solenoid.fiber_point.self_s",
        "solenoid.attractor_bowen_check.self_s", "solenoid.metric_equivalence.self_s",
        "kernels.greedy_separated.calls", "cli.main.self_s"),
    "operator-crosscheck": (
        "transfer.build_operator.self_s", "transfer.leading_eigen.self_s",
        "transfer.power_iterations", "transfer.apply_operator.self_s",
        "transfer.apply_adjoint.self_s", "kernels.pairwise_bowen.bytes_out",
        "orbits.greedy_cover.picks", "orbits.partition_sum_span.self_s",
        "pressure.katok_sn.self_s", "kernels.greedy_separated.calls",
        "cli.main.self_s"),
}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "PRESSGAP_BACKEND", "PRESSGAP_WORKERS")


def load_spec():
    """Workload names, and (name, unit) of the end-to-end and per-layer
    metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (tuple(w["name"] for w in spec["workloads"]),
            tuple((m["name"], m["unit"]) for m in spec["end_to_end"]),
            tuple((m["name"], m["unit"]) for m in spec["per_layer"]))


def import_package():
    """Import pressgap from this checkout's src/, and nowhere else."""
    sys.path.insert(0, SRC)
    import pressgap
    if os.path.dirname(os.path.dirname(os.path.abspath(pressgap.__file__))) != SRC:
        sys.exit(f"perfbench: imported pressgap from {pressgap.__file__}, not {SRC}")
    return pressgap


def git_sha():
    """HEAD commit read from .git without running git; None outside a repo."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def machine_record():
    import numpy as np
    from pressgap import kernels
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": kernels.backend(),
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def time_until_ready(*args):
    """Wall time from spawning `python3 *args` until it prints ready."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, *args],
                          stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: {' '.join(args)} failed (exit {code})")
    return seconds


def yardstick():
    """Seconds for the fixed yardstick work: 100 rounds of elementwise
    ufuncs (sin, abs, add, multiply) over 20,000 floats.  Of the kernels
    tried (an interpreter loop, small ufunc calls, sorts, dict updates),
    this one slowed in step with the workloads' ops when the machine did."""
    import numpy as np
    t0 = time.perf_counter()
    values = np.linspace(0.0, 1.0, 20000)
    for _ in range(100):
        values = np.abs(np.sin(values * 3.0) + 0.1)
    return time.perf_counter() - t0


def run_pass(ops, systems, tmpdir, tracer=None, yard=None):
    """Run every op once, timing the yardstick after each op into `yard`.
    Returns (seconds, [(op seconds, code, text, error)])."""
    import workloads
    results = []
    for i, op in enumerate(ops):
        out = os.path.join(tmpdir, f"op{i}.out")
        if os.path.exists(out):
            os.unlink(out)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            code, text = workloads.run_op(op, systems, out)
            error = None
        except (Exception, SystemExit) as exc:  # argparse exits; the run goes on
            traceback.print_exc()
            code, text, error = None, "", f"raised {exc!r}"
        results.append((time.perf_counter() - t0, code, text, error))
        if yard is not None:
            yard.append(yardstick())
    return sum(r[0] for r in results), results


class Ledger:
    """Op outcomes across passes: failures, times and output hashes."""

    def __init__(self, systems):
        self.systems = systems
        self.attempted = self.failed = 0
        self.ops = {}

    def add(self, ops, results):
        import workloads
        for i, (op, (seconds, code, text, error)) in enumerate(zip(ops, results)):
            failures = [error] if error else workloads.check_output(
                op, code, text, self.systems)
            self.attempted += 1
            self.failed += bool(failures)
            entry = self.ops.setdefault(op.key, {
                "key": op.key, "position": i, "kind": op.check, "times": [],
                "hashes": set(), "failures": []})
            entry["times"].append(seconds)
            entry["hashes"].add(hashlib.sha256(text.encode()).hexdigest())
            entry["failures"] += [f for f in failures if f not in entry["failures"]]

    def op_records(self, baseline):
        out = []
        for entry in self.ops.values():
            hashes = sorted(entry["hashes"])
            digest = hashes[0] if len(hashes) == 1 else hashes
            known = baseline.get(entry["key"])
            record = {k: v for k, v in entry.items() if k != "hashes"}
            record.update(sha256=digest, median_s=statistics.median(entry["times"]),
                          baseline=("none" if known is None
                                    else "same" if known == digest else "differs"))
            out.append(record)
        return out


def load_baseline():
    try:
        with open(BASELINE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def measure(workload, seed, systems, seconds, trace, tmpdir):
    """Run passes until `seconds` are spent, with one set-up probe before each.

    Untraced runs cycle through the op lists of (seed, 0) .. (seed, OP_LISTS
    - 1), and each list's passes are folded separately, so every run of a
    seed times the same inputs with the same weight, however fast the code
    is.  The first pass of an untraced run holds the process's first-call
    costs and is left out of those lists.  Traced runs repeat the op list of
    (seed, 0), alternating traced and untraced passes and starting traced,
    so the layer counts of every traced pass must agree and the first-call
    costs of a process land in the recorded spans."""
    import workloads
    from tracer import Tracer
    run = types.SimpleNamespace(
        ledger=Ledger(systems), setup=[], import_yard=[], yard=[], plain=[],
        traced=[], layers=[], spans=None, first=None, by_list=[[] for _ in range(OP_LISTS)],
        scaled=[[] for _ in range(OP_LISTS)])
    tracer = Tracer() if trace else None
    passes = 0
    start = time.perf_counter()
    while True:
        run.setup.append(time_until_ready(os.path.join(HERE, "probe.py")))
        run.import_yard.append(time_until_ready(*IMPORT_YARDSTICK))
        index = 0 if trace else passes % OP_LISTS
        ops = workloads.op_list(workload, seed, index)
        if trace and passes % 2 == 0:
            tracer.reset()
            tracer.install()
            try:
                seconds_pass, results = run_pass(ops, systems, tmpdir, tracer, run.yard)
            finally:
                tracer.uninstall()
            run.traced.append(seconds_pass)
            run.layers.append(tracer.metrics())
            if run.spans is None:
                run.spans = tracer.spans
        else:
            mark = len(run.yard)
            seconds_pass, results = run_pass(ops, systems, tmpdir, yard=run.yard)
            run.plain.append(seconds_pass)
            if passes:  # the first pass is reported on its own
                run.by_list[index].append(seconds_pass)
                run.scaled[index].append(seconds_pass * YARDSTICK_REF_S
                                         / statistics.fmean(run.yard[mark:]))
        if run.first is None:
            run.first = {"seconds": seconds_pass, "op_s": [r[0] for r in results]}
        run.ledger.add(ops, results)
        passes += 1
        if not (min(len(run.plain), len(run.traced)) >= MIN_PASSES if trace
                else all(run.by_list)):
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return run


def fold_layers(layer_passes):
    """Median of each layer metric over the traced passes after the first,
    which carries the process's first-call costs, and the names of the
    exact counters that differed between any two traced passes."""
    from tracer import EXACT_SUFFIXES
    names = sorted(set().union(*layer_passes))
    steady = layer_passes[1:]
    folded = {n: statistics.median(p.get(n, 0.0) for p in steady) for n in names}
    unstable = [n for n in names if n.rsplit(".", 1)[-1] in EXACT_SUFFIXES
                and len({p.get(n, 0.0) for p in layer_passes}) > 1]
    return folded, unstable


def write_spans(path, spans):
    with gzip.open(path, "wt") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


def run_workload(args):
    _, end_to_end, per_layer = load_spec()
    pressgap = import_package()
    import workloads
    systems = workloads.build_systems()
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmpdir:
        run = measure(args.workload, args.seed, systems, args.seconds, args.trace, tmpdir)
    ledger = run.ledger
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # mean over the op lists of each list's median pass, rescaled pass by
    # pass to the yardstick's reference speed, and in wall seconds
    run_s = statistics.fmean(statistics.median(t) for t in run.scaled if t)
    wall_run_s = statistics.fmean(statistics.median(t) for t in run.by_list if t)
    setup_s = statistics.median(s * IMPORT_REF_S / y
                                for s, y in zip(run.setup, run.import_yard))
    wall_setup_s = statistics.median(run.setup)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pressgap": pressgap.__version__,
        "machine": machine_record(),
        "passes": {"untraced_s": run.plain, "traced_s": run.traced, "setup_s": run.setup,
                   "yardstick_s": run.yard, "import_yardstick_s": run.import_yard,
                   "first_pass": run.first},
        "wall": {"run_s": wall_run_s, "setup_s": wall_setup_s,
                 "yardstick_s": statistics.median(run.yard),
                 "yardstick_ref_s": YARDSTICK_REF_S,
                 "import_yardstick_s": statistics.median(run.import_yard),
                 "import_ref_s": IMPORT_REF_S},
        "end_to_end": {"run_s": run_s, "setup_s": setup_s,
                       "peak_rss_mb": peak_rss_mb,
                       "fail_share": ledger.failed / ledger.attempted},
        "attempted": ledger.attempted, "failed": ledger.failed,
        "ops": ledger.op_records(load_baseline()),
    }
    print(f"{args.workload} seed={args.seed} passes={len(run.plain) + len(run.traced)} "
          f"ops={ledger.attempted} blas_threads={record['machine']['thread_env']}")
    units = dict(end_to_end, fail_share="ratio")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<12} {value:.6g} {units[name]}")
    print(f"  wall clock: run_s {wall_run_s:.6g} s, setup_s {wall_setup_s:.6g} s;"
          f" yardstick median {statistics.median(run.yard):.6g} s"
          f" (reference {YARDSTICK_REF_S} s) over {len(run.yard)} timings;"
          f" import yardstick median {statistics.median(run.import_yard):.6g} s"
          f" (reference {IMPORT_REF_S} s)")
    print(f"  first pass {run.first['seconds']:.4f} s, with the process's first-call costs"
          f" ({'traced' if args.trace else 'untraced'})")
    for position in sorted({op["position"] for op in record["ops"]}):
        group = [op for op in record["ops"] if op["position"] == position]
        times = [t for op in group for t in op["times"]]
        same = sum(op["baseline"] == "same" for op in group)
        differs = sum(op["baseline"] == "differs" for op in group)
        print(f"  op{position} {group[0]['kind']:<26} median {statistics.median(times):.4f} s"
              f"  first {run.first['op_s'][position]:.4f} s"
              f"  hashes vs baseline: {same} same, {differs} differ,"
              f" {len(group) - same - differs} new")
        for op in group:
            if op["failures"]:
                print(f"    FAILED {op['key']}: {'; '.join(op['failures'])}")
    if args.trace:
        folded, unstable = fold_layers(run.layers)
        traced_s = statistics.median(run.traced[1:])
        overhead = traced_s - wall_run_s
        record.update(layers=folded, unstable_counts=unstable,
                      tracing_overhead_s=overhead)
        write_spans(os.path.join(RESULTS, tag + "-spans.jsonl.gz"), run.spans)
        print(f"  tracing overhead {overhead:.4f} s per pass "
              f"(traced {traced_s:.4f} s, untraced {wall_run_s:.4f} s, wall clock)")
        for name in sorted(folded):
            share = (f"  {folded[name] / traced_s:6.1%} of the traced pass"
                     if name.endswith(("self_s", "build_s")) else "")
            print(f"  {name:<44} {folded[name]:<12.6g}{share}")
        if unstable:
            print(f"  counts that did not repeat: {', '.join(unstable)}")
        metrics = {name: {"value": folded.get(name, 0.0), "unit": unit}
                   for name, unit in per_layer}
    else:
        metrics = {name: {"value": record["end_to_end"][name], "unit": unit}
                   for name, unit in end_to_end}
    with open(os.path.join(RESULTS, tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return {"correct": ledger.failed == 0, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def run_all(args):
    """Each workload in its own process; prints their tables and results."""
    summary = {}
    for name in load_spec()[0]:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        summary[name] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in summary.values()),
            "attempted": sum(r["attempted"] for r in summary.values()),
            "failed": sum(r["failed"] for r in summary.values()),
            "metrics": {f"{w}.{m}": v for w, r in summary.items()
                        for m, v in r["metrics"].items()}}


def update_baseline():
    """Merge the op hashes of every run record into baseline_hashes.json."""
    baseline = load_baseline()
    for entry in sorted(os.listdir(RESULTS)):
        if not entry.endswith(".json"):
            continue
        with open(os.path.join(RESULTS, entry)) as fh:
            record = json.load(fh)
        for op in record["ops"]:
            if isinstance(op["sha256"], str) and not op["failures"]:
                if baseline.setdefault(op["key"], op["sha256"]) != op["sha256"]:
                    print(f"kept earlier hash for {op['key']}")
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(baseline)} op hashes in {BASELINE}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=load_spec()[0] + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-baseline", action="store_true",
                    help="merge the hashes of recorded runs into the baseline")
    args = ap.parse_args(argv)
    if args.update_baseline:
        update_baseline()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "pressgap", "__init__.py")):
        print(f"perfbench: no pressgap sources under {SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
