"""In-memory span tracer that times calls into pressgap from the outside.

`Tracer.install()` replaces each traced function by a wrapper everywhere a
caller looks it up: the class attribute for methods, and every ``pressgap``
module that bound the function under some name (``from .orbits import
partition_sum_sep`` in ``pressure``, ``from .specification import
glue_base`` in ``cli``).  No span is opened inside the package itself.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the index of the benchmark
operation that caused it.  Counters, named in full, are added at the same
boundaries from argument and result sizes.
"""

import functools
import sys
import time
from collections import defaultdict

import numpy as np


def _greedy_counts(args, kwargs, keep):
    pool, steps = np.shape(args[0])
    kept = int(np.count_nonzero(keep))
    # computed from array sizes: every kept row is compared with the pool
    return {"kernels.greedy_separated.pool_rows": pool,
            "kernels.greedy_separated.kept_rows": kept,
            "kernels.greedy_separated.work": kept * pool * steps}


def _pairwise_counts(args, kwargs, out):
    rows = int(np.shape(args[0])[0])
    return {"kernels.pairwise_bowen.rows": rows,
            "kernels.pairwise_bowen.bytes_out": rows * rows * 8}


def _points(name, index, arg):
    def count(args, kwargs, result):
        value = args[index] if len(args) > index else kwargs[arg]
        return {f"{name}.points": int(np.size(value))}
    return count


def _accepted(args, kwargs, result):
    return {"decomposition.contains.accepted": int(bool(result))}


def _picks(args, kwargs, chosen):
    return {"orbits.greedy_cover.picks": int(np.size(chosen))}


def _plan_counts(args, kwargs, plan):
    return {"specification.transition_steps": int(sum(plan.transition_times)),
            "specification.plan_arcs": len(plan.arcs)}


def _bowen_counts(args, kwargs, report):
    return {"extension.verify_bowen.samples_used": int(report.samples)}


def _eigen_counts(args, kwargs, eigen):
    return {"transfer.power_iterations": int(eigen.iterations)}


# (module, attribute path, span name, counter function or None)
TARGETS = (
    ("pressgap.kernels", "greedy_separated", "kernels.greedy_separated", _greedy_counts),
    ("pressgap.kernels", "pairwise_bowen", "kernels.pairwise_bowen", _pairwise_counts),
    ("pressgap.orbits", "CylinderTree.__init__", "orbits.CylinderTree", None),
    ("pressgap.orbits", "CylinderTree.log_sigma_matrix", "orbits.log_sigma_matrix", None),
    ("pressgap.orbits", "partition_sum_sep", "orbits.partition_sum_sep", None),
    ("pressgap.orbits", "partition_sum_span", "orbits.partition_sum_span", None),
    ("pressgap.orbits", "greedy_cover", "orbits.greedy_cover", _picks),
    ("pressgap.maps", "MapSystem.branch_solve", "maps.branch_solve",
     _points("maps.branch_solve", 2, "y")),
    ("pressgap.maps", "MapSystem.branch_lipschitz", "maps.branch_lipschitz",
     _points("maps.branch_lipschitz", 1, "x")),
    ("pressgap.maps", "MapSystem.pullback", "maps.pullback", None),
    ("pressgap.maps", "MapSystem.mixing_time", "maps.mixing_time", None),
    ("pressgap.decomposition", "segment_log_sigma", "decomposition.segment_log_sigma", None),
    ("pressgap.decomposition", "GoodCollection.contains", "decomposition.contains", _accepted),
    ("pressgap.decomposition", "BadCollection.contains", "decomposition.contains", _accepted),
    ("pressgap.pressure", "pressure_at_scale", "pressure.pressure_at_scale", None),
    ("pressgap.pressure", "gap_report", "pressure.gap_report", None),
    ("pressgap.pressure", "growth_fit", "pressure.growth_fit", None),
    ("pressgap.pressure", "katok_sn", "pressure.katok_sn", None),
    ("pressgap.specification", "glue_base", "specification.glue_base", _plan_counts),
    ("pressgap.specification", "verify_shadow", "specification.verify_shadow", None),
    ("pressgap.extension", "verify_bowen", "extension.verify_bowen", _bowen_counts),
    ("pressgap.extension", "extend", "extension.extend", None),
    ("pressgap.extension", "birkhoff_hat", "extension.birkhoff_hat", None),
    ("pressgap.transfer", "build_operator", "transfer.build_operator", None),
    ("pressgap.transfer", "leading_eigen", "transfer.leading_eigen", _eigen_counts),
    ("pressgap.transfer", "apply_operator", "transfer.apply_operator", None),
    ("pressgap.transfer", "apply_adjoint", "transfer.apply_adjoint", None),
    ("pressgap.solenoid", "fiber_point", "solenoid.fiber_point", None),
    ("pressgap.solenoid", "attractor_bowen_check", "solenoid.attractor_bowen_check", None),
    ("pressgap.solenoid", "metric_equivalence", "solenoid.metric_equivalence", None),
    ("pressgap.cli", "main", "cli.main", None),
)

# counters that must repeat exactly between traced passes of one op list
EXACT_SUFFIXES = ("calls", "points", "pool_rows", "kept_rows", "work", "rows",
                  "bytes_out", "builds", "picks", "power_iterations",
                  "transition_steps", "plan_arcs", "samples_used", "accepted")


class Tracer:
    """Collects spans and counters while installed; `metrics()` folds them."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.op = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    tracer.counts[key] += value
            return result

        return traced

    def install(self):
        """Wrap every target; `uninstall()` restores the originals."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "pressgap" or k.startswith("pressgap."))]
        for module_name, path, name, counter in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            wrapper = self.wrap(name, original, counter)
            if outer:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)

    def metrics(self):
        """Per-name totals of the current spans and counters.

        For every traced name: ``calls``, ``self_s`` and ``total_s``;
        ``orbits.CylinderTree`` also as ``builds``/``build_s``, and
        ``decomposition.contains`` with its ``accept_ratio``.
        """
        out = defaultdict(float)
        for span, own in zip(self.spans, self_times(self.spans)):
            name = span[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name}.total_s"] += span[2] - span[1]
        for key, value in self.counts.items():
            out[key] += value
        out["orbits.CylinderTree.builds"] = out["orbits.CylinderTree.calls"]
        out["orbits.CylinderTree.build_s"] = out["orbits.CylinderTree.total_s"]
        calls = out["decomposition.contains.calls"]
        out["decomposition.contains.accept_ratio"] = (
            out["decomposition.contains.accepted"] / calls if calls else 0.0)
        return dict(out)


def self_times(spans):
    """Each span's duration minus the part of it covered by its children."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c_lo, c_hi in sorted(children.get(i, ())):
            c_lo, c_hi = max(c_lo, start), min(c_hi, end)
            if c_hi <= c_lo:
                continue
            if hi is None or c_lo > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_lo, c_hi
            else:
                hi = max(hi, c_hi)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out
