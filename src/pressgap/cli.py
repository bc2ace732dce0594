"""Experiment orchestration: config parsing, subcommand dispatch, seeding,
and CSV/JSON emission.

Configuration is a single JSON document; every field can also be set on the
command line, with the command line taking precedence.  Output files embed a
hash of the resolved configuration and the seed, and identical (config,
seed) pairs produce byte-identical files.  Exit codes: 0 pass, 1 validation
failure, 2 numerical failure, 3 hypothesis-check failure.
"""

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .decomposition import (BadCollection, DecompositionConfig,
                            GoodCollection, draw_good_segments,
                            segment_log_sigma, split_indices)
from .errors import PressgapError, ValidationError
from .extension import ExtensionConfig, lift_projection, verify_bowen
from .maps import (BUILTIN_MAPS, constant_potential, doubling,
                   geometric_potential, manneville_pomeau, perturbed_doubling,
                   tabulated_map, tabulated_potential, zero_potential)
from .orbits import (CylinderTree, FullCollection, OrbitSegment, refine_levels,
                     tree_depth)
from .pressure import ct_hypothesis_check, gap_report, pressure_at_scale
from .solenoid import (SolenoidSystem, apply_f, attractor_bowen_check,
                       check_fiber_depth, conjugacy_h, fiber_point,
                       fiber_sample, metric_equivalence)
from .specification import glue_base, verify_shadow
from .transfer import (build_operator, check_grid_size, collocation_estimate,
                       leading_eigen)

DEFAULTS = {
    "map": {"kind": "doubling", "alpha": 0.5, "delta": 0.75},
    "potential": {"kind": "zero", "c": 0.0, "t": 1.0},
    "sigma": 0.9,
    "sigma_grid": None,
    "eps": 1.0 / 32.0,
    "eps_list": None,
    "n_max": 12,
    "grid_size": 1024,
    "a": 2.0,
    "depth": 24,
    "seed": 0,
    "out": None,
    "samples": 200,
    "length_min": 5,
    "length_max": 20,
    "group_size": 3,
    "k_max": 64,
    "lam_s": 0.25,
    "offset": 0.5,
    "cloud_depth": 0,
}

# orbit points per segment_log_sigma call in decompose, which bounds the
# memory of the call's orbit rows; the sigma field under them is solved in
# blocks of its own whatever this size
_DECOMPOSE_POINTS = 1 << 12

# transfer CSV rows formatted per chunk
_ROW_CHUNK = 1 << 10

# draws of one good-segment sample in glue and check
_GOOD_SEGMENT_ATTEMPTS = 4000

# fields given on the command line as comma-separated numbers
_LIST_FIELDS = ("sigma_grid", "eps_list")


def fmt(x):
    """17-significant-digit float formatting for bit-stable round trips."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def config_hash(cfg):
    semantic = {k: v for k, v in cfg.items() if k != "out"}
    canonical = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_map(cfg):
    m = cfg["map"]
    kind = m["kind"]
    if kind == "doubling":
        return doubling()
    if kind == "manneville_pomeau":
        return manneville_pomeau(m["alpha"])
    if kind == "perturbed_doubling":
        return perturbed_doubling(m["delta"])
    if kind == "tabulated":
        values = _table_field(cfg, "map", "values", list)
        try:
            return tabulated_map(values)
        except ValidationError as exc:
            # the API names its argument; the config names the field
            raise ValidationError(f"map.{exc.field}", exc.message) from None
    raise ValidationError("map", f"unknown kind {kind!r}")


def build_potential(cfg, system):
    p = cfg["potential"]
    kind = p["kind"]
    if kind == "zero":
        return zero_potential()
    if kind == "constant":
        return constant_potential(p["c"])
    if kind == "geometric":
        return geometric_potential(system, p["t"])
    if kind == "tabulated":
        table = [_table_field(cfg, "potential", name, form)
                 for name, form in (("xs", list), ("values", list),
                                    ("holder_constant", float),
                                    ("holder_exponent", float))]
        try:
            return tabulated_potential(*table)
        except ValidationError as exc:
            # the API names its argument; the config names the field
            raise ValidationError(f"potential.{exc.field}", exc.message) from None
    raise ValidationError("potential", f"unknown kind {kind!r}")


def _is_number(v):
    """A finite JSON number: NaN and the infinities are rejected."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and (isinstance(v, int) or math.isfinite(v)))


def _table_field(cfg, key, name, kind):
    """Field `name` of a tabulated map or potential: a list of numbers when
    `kind` is list, else a number.  DEFAULTS does not declare these fields,
    so `validate` leaves them to this check."""
    value = cfg[key].get(name)
    if kind is list:
        ok = isinstance(value, list) and all(map(_is_number, value))
    else:
        ok = _is_number(value)
    if not ok:
        raise ValidationError(f"{key}.{name}", "missing" if value is None else
                              f"{value!r} is not of the field's type")
    return value


def _check_type(field, value, default):
    """Reject a value of another JSON type than the field's, or a number
    that is not finite; nothing is coerced, so a valid config keeps its
    config_hash."""
    if value is None and default is None:
        return
    name = field.rsplit(".", 1)[-1]
    if name in _LIST_FIELDS:
        ok = isinstance(value, list) and all(map(_is_number, value))
    elif name in ("kind", "out"):
        ok = isinstance(value, str)
    elif isinstance(default, int):
        ok = _is_number(value) and isinstance(value, int)
    else:
        ok = _is_number(value)
    if not ok:
        raise ValidationError(field, f"{value!r} is not of the field's type")


def validate(cfg):
    for key, default in DEFAULTS.items():
        if not isinstance(default, dict):
            _check_type(key, cfg[key], default)
        elif not isinstance(cfg[key], dict):
            raise ValidationError(key, "must be a JSON object")
        else:
            for sub, sub_default in default.items():
                _check_type(f"{key}.{sub}", cfg[key].get(sub, sub_default), sub_default)
    for field in _LIST_FIELDS:
        if cfg[field] == []:
            raise ValidationError(field, "must not be empty")
    if not 0.0 < cfg["sigma"] < 1.0:
        raise ValidationError("sigma", f"{cfg['sigma']} outside (0, 1)")
    for s in cfg["sigma_grid"] or []:
        if not 0.0 < s < 1.0:
            raise ValidationError("sigma_grid", f"{s} outside (0, 1)")
    if cfg["a"] <= 1.0:
        raise ValidationError("a", "metric base must exceed 1")
    if cfg["eps"] <= 0.0:
        raise ValidationError("eps", "must be positive")
    for e in cfg["eps_list"] or []:
        if e <= 0.0:
            raise ValidationError("eps_list", f"{e} must be positive")
    if cfg["n_max"] < 4:
        raise ValidationError("n_max", "need n_max >= 4")
    if cfg["depth"] < 0:
        raise ValidationError("depth", "must be >= 0")
    if cfg["seed"] < 0:
        raise ValidationError("seed", "must be >= 0")
    for field in ("samples", "group_size"):
        if cfg[field] < 1:
            raise ValidationError(field, "must be >= 1")
    if cfg["length_min"] < 1 or cfg["length_max"] < cfg["length_min"]:
        raise ValidationError("length_min", "need 1 <= length_min <= length_max")
    if cfg["cloud_depth"] < 0:
        raise ValidationError("cloud_depth", "must be >= 0")
    if cfg["cloud_depth"] > 0:
        check_fiber_depth(cfg["cloud_depth"])   # over the fiber cap: exit 2
    check_grid_size(cfg["grid_size"])           # over the node cap: exit 2


class Writer:
    """CSV writer with a config-hash/seed header line."""

    def __init__(self, path, cfg, columns):
        self.lines = [f"# pressgap={__version__} config_hash={config_hash(cfg)} "
                      f"seed={cfg['seed']}", ",".join(columns)]
        self.path = path

    def row(self, *values):
        self.lines.append(",".join(fmt(v) for v in values))

    def flush(self):
        if self.path:
            with open(self.path, "w") as fh:
                self._write(fh)
        else:
            self._write(sys.stdout)

    def _write(self, fh):
        # line by line: the file never exists as one string in memory
        for line in self.lines:
            fh.write(line)
            fh.write("\n")


def _eps_values(cfg):
    return cfg["eps_list"] if cfg["eps_list"] else [cfg["eps"]]


def _sigma_values(cfg):
    return cfg["sigma_grid"] if cfg["sigma_grid"] else [cfg["sigma"]]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_pressure(cfg):
    system = build_map(cfg)
    phi = build_potential(cfg, system)
    dec = DecompositionConfig(cfg["sigma"])
    colls = [FullCollection(), GoodCollection(dec), BadCollection(dec)]
    # one tree, deep enough for every unsettled collection's refinement,
    # serves all (eps, collection) cells
    tree = CylinderTree(system, tree_depth(
        system, cfg["n_max"], refine_levels(system, colls)))
    w = Writer(cfg["out"], cfg, ["collection", "sigma", "eps", "rate",
                                 "rate_uncertainty", "limsup_proxy", "empty"])
    for eps in _eps_values(cfg):
        for coll in colls:
            est = pressure_at_scale(system, phi, coll, eps, cfg["n_max"], tree=tree)
            w.row(coll.name, cfg["sigma"], eps, est.rate, est.rate_uncertainty,
                  est.limsup_proxy, int(est.is_empty))
    w.flush()
    return 0


def cmd_decompose(cfg):
    system = build_map(cfg)
    dec = DecompositionConfig(cfg["sigma"])
    rng = np.random.default_rng(cfg["seed"])
    w = Writer(cfg["out"], cfg, ["start", "length", "class", "g_len", "s_len"])
    segs = [OrbitSegment(float(rng.random()),
                         int(rng.integers(cfg["length_min"], cfg["length_max"] + 1)))
            for _ in range(cfg["samples"])]
    # the log-sigma field of a block of starts at their longest length;
    # each segment is split on its own prefix of its row
    block = max(1, _DECOMPOSE_POINTS // cfg["length_max"])
    for first in range(0, len(segs), block):
        group = segs[first:first + block]
        lengths = [seg.length for seg in group]
        logs = segment_log_sigma(system, np.array([seg.start for seg in group]),
                                 max(lengths))
        splits = split_indices(logs, lengths, dec.log_sigma).tolist()
        for seg, m in zip(group, splits):
            cls = "good" if m == seg.length else "bad" if m == 0 else "neither"
            w.row(seg.start, seg.length, cls, m, seg.length - m)
    w.flush()
    return 0


def _random_good_segments(system, dec, rng, count, length_range):
    out, _ = draw_good_segments(system, dec, rng, count, length_range,
                                _GOOD_SEGMENT_ATTEMPTS)
    if len(out) < count:
        raise ValidationError("sigma", "could not sample enough good segments")
    return out


def cmd_glue(cfg):
    system = build_map(cfg)
    dec = DecompositionConfig(cfg["sigma"])
    rng = np.random.default_rng(cfg["seed"])
    as_json = bool(cfg["out"] and cfg["out"].endswith(".json"))
    plans = []
    rows = []
    for _ in range(cfg["samples"]):
        segs = _random_good_segments(system, dec, rng, cfg["group_size"],
                                     (cfg["length_min"], cfg["length_max"]))
        plan = glue_base(system, dec, segs, cfg["eps"])
        shadow = verify_shadow(system, plan)
        rows.append((cfg["eps"], plan.tau_cap,
                     max(plan.transition_times) if plan.transition_times else 0,
                     shadow, int(shadow <= cfg["eps"])))
        if as_json:
            d = plan.to_dict()
            d["verified_max"] = shadow
            plans.append(d)
    if as_json:
        doc = {"config_hash": config_hash(cfg), "seed": cfg["seed"], "plans": plans}
        with open(cfg["out"], "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        w = Writer(cfg["out"], cfg, ["eps", "tau_cap", "tau_max", "shadow_max", "ok"])
        for r in rows:
            w.row(*r)
        w.flush()
    return 0 if all(r[-1] for r in rows) else 2


def cmd_transfer(cfg):
    system = build_map(cfg)
    phi = build_potential(cfg, system)
    # the grid is the fallback of collocation, so it is checked first
    check_grid_size(cfg["grid_size"], system.degree)
    found = (collocation_estimate(system, phi)
             if system.analytic and phi.analytic else None)
    if found is None:
        op = build_operator(system, phi, cfg["grid_size"])
        nodes, eigen, method = op.nodes, leading_eigen(op), ""
    else:
        eigen, uncertainty = found
        nodes = np.arange(eigen.eigenfunction.size) / eigen.eigenfunction.size
        method = f" method=collocation nodes={nodes.size} uncertainty={fmt(uncertainty)}"
    w = Writer(cfg["out"], cfg, ["node", "x", "h", "nu", "density"])
    w.lines[0] += (f" lambda={fmt(eigen.lam)} log_lambda={fmt(eigen.log_lam)}"
                   f" iterations={eigen.iterations} residual={fmt(eigen.residual)}{method}")
    cols = (nodes, eigen.eigenfunction, eigen.eigenmeasure,
            eigen.equilibrium_density)
    # "%.17g" gives the bytes of fmt; each chunk of rows becomes one string,
    # so the Python floats and row strings alive at a time stay few
    for lo in range(0, nodes.size, _ROW_CHUNK):
        chunk = [c[lo:lo + _ROW_CHUNK].tolist() for c in cols]
        w.lines.append("\n".join(
            "%d,%.17g,%.17g,%.17g,%.17g" % row
            for row in zip(range(lo, lo + len(chunk[0])), *chunk)))
    w.flush()
    return 0


def cmd_extension(cfg):
    system = build_map(cfg)
    phi = build_potential(cfg, system)
    dec = DecompositionConfig(cfg["sigma"])
    ext = ExtensionConfig(cfg["a"], cfg["depth"])
    phi_hat = lift_projection(phi)
    report = verify_bowen(system, ext, dec, phi_hat, cfg["eps"],
                          cfg["samples"], seed=cfg["seed"])
    w = Writer(cfg["out"], cfg, ["sigma", "a", "alpha", "eps", "bound",
                                 "empirical_max", "slack", "within", "samples"])
    w.row(dec.sigma, ext.a, phi_hat.holder_exponent, cfg["eps"], report.bound,
          report.empirical_max, report.truncation_slack, int(report.within_bound),
          report.samples)
    w.flush()
    return 0 if report.within_bound else 2


def cmd_solenoid(cfg):
    sol = SolenoidSystem(cfg["lam_s"], cfg["offset"])
    dec = DecompositionConfig(cfg["sigma"])
    rng = np.random.default_rng(cfg["seed"])
    # measured fiber contraction on the first two rows of one sampled fiber
    y = float(rng.random())
    fiber = fiber_sample(sol, y, 2)
    # planar distances only: the pair lies over one theta
    d0 = math.dist(*fiber.disk[:2].tolist())
    d1 = math.dist(*apply_f(sol, fiber).disk[:2].tolist())
    contraction = d1 / d0

    depth = max(cfg["depth"], 8)
    p = fiber_point(sol, np.array([y]), rng.integers(0, 2, (1, depth + 1)))
    lhs = conjugacy_h(sol, apply_f(sol, p), depth)
    rhs = np.concatenate([sol.base.forward(p.theta)[None],
                          conjugacy_h(sol, p, depth)[:-1]])
    defect = float(np.max(np.abs(lhs - rhs)))

    c_low, c_high = metric_equivalence(sol, samples=max(cfg["samples"], 100),
                                       seed=cfg["seed"])

    def torus_phi(theta, u, v):
        # math.cos, element by element: np.cos may round differently
        turns = (2 * math.pi * theta).ravel().tolist()
        return np.reshape(list(map(math.cos, turns)), np.shape(theta)) + 0.5 * u

    bowen = attractor_bowen_check(sol, dec, torus_phi,
                                  holder_constant=2 * math.pi, holder_exponent=1.0,
                                  eps=cfg["eps"], n_samples=cfg["samples"],
                                  seed=cfg["seed"])
    w = Writer(cfg["out"], cfg, ["check", "value", "reference"])
    w.row("fiber_contraction", contraction, sol.lam_s)
    w.row("conjugacy_defect", defect, 0.0)
    w.row("metric_equiv_c_low", c_low, c_high)
    w.row("metric_equiv_c_high", c_high, c_high)
    w.row("bowen_empirical_max", bowen.empirical_max, bowen.bound)
    w.row("bowen_two_term_ratio", bowen.two_term_max_ratio, 1.0)
    if cfg["cloud_depth"] > 0:
        cloud = fiber_sample(sol, y, cfg["cloud_depth"])
        rows = zip(cloud.theta.tolist(), cloud.disk.tolist(), cloud.itinerary.tolist())
        for i, (theta, (u, v), itin) in enumerate(rows):
            w.row(f"cloud_{i}", theta,
                  f"{fmt(u)};{fmt(v)};" + "".join(map(str, itin)))
    w.flush()
    ok = (abs(contraction - sol.lam_s) < 1e-9 and bowen.within_bound)
    return 0 if ok else 2


def cmd_gap_report(cfg):
    system = build_map(cfg)
    phi = build_potential(cfg, system)
    reports = gap_report(system, phi, _sigma_values(cfg), cfg["eps"], cfg["n_max"])
    w = Writer(cfg["out"], cfg, ["sigma", "eps", "n_max", "p_full", "p_bad",
                                 "gap", "holds"])
    for rep in reports:
        bad_rate = float("-inf") if rep.p_bad.is_empty else rep.p_bad.rate
        w.row(rep.sigma, cfg["eps"], cfg["n_max"], rep.p_full.rate, bad_rate,
              rep.gap, int(rep.hypothesis_holds))
    w.flush()
    return 0


def cmd_check(cfg):
    system = build_map(cfg)
    phi = build_potential(cfg, system)
    dec = DecompositionConfig(cfg["sigma"])
    rng = np.random.default_rng(cfg["seed"])

    # verify_bowen rejects a too-shallow depth, so it runs before the
    # costlier pressure estimate
    ext = ExtensionConfig(cfg["a"], cfg["depth"])
    phi_hat = lift_projection(phi)
    bowen = verify_bowen(system, ext, dec, phi_hat, cfg["eps"],
                         max(50, cfg["samples"] // 4), seed=cfg["seed"])
    bowen_ok = math.isfinite(bowen.bound) and bowen.within_bound

    [gap] = gap_report(system, phi, [cfg["sigma"]], cfg["eps"], cfg["n_max"])

    spec_ok = True
    for _ in range(3):
        segs = _random_good_segments(system, dec, rng, cfg["group_size"],
                                     (cfg["length_min"], cfg["length_max"]))
        plan = glue_base(system, dec, segs, cfg["eps"])
        shadow = verify_shadow(system, plan)
        spec_ok &= (shadow <= cfg["eps"]
                    and all(t <= plan.tau_cap for t in plan.transition_times))

    report = ct_hypothesis_check(gap, bowen_ok, spec_ok)
    w = Writer(cfg["out"], cfg, ["sigma", "eps", "gap_ok", "bowen_ok",
                                 "specification_ok", "passes", "summary"])
    w.row(report.sigma, report.tested_scale, int(report.gap_ok),
          int(report.bowen_ok), int(report.specification_ok),
          int(report.passes), report.summary().replace(",", ";"))
    w.flush()
    return 0 if report.passes else 3


COMMANDS = {
    "pressure": cmd_pressure,
    "decompose": cmd_decompose,
    "glue": cmd_glue,
    "transfer": cmd_transfer,
    "extension": cmd_extension,
    "solenoid": cmd_solenoid,
    "gap-report": cmd_gap_report,
    "check": cmd_check,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are validation errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        # argparse reports "argument --n-max: invalid int value: 'abc'"
        field, _, detail = message.partition(": ")
        if field.startswith("argument ") and detail:
            raise ValidationError(field[len("argument "):], detail)
        raise ValidationError("arguments", message)


def build_parser():
    ap = _ArgumentParser(
        prog="pressgap",
        description="pressure, decomposition, specification, and "
                    "equilibrium-state experiments for expanding circle maps")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="JSON configuration document")
    ap.add_argument("--map", dest="map_kind",
                    choices=sorted(BUILTIN_MAPS) + ["tabulated"])
    ap.add_argument("--alpha", dest="map_alpha", type=float,
                    help="intermittency exponent")
    ap.add_argument("--delta", dest="map_delta", type=float,
                    help="perturbation amplitude")
    ap.add_argument("--potential", dest="potential_kind",
                    choices=["zero", "constant", "geometric", "tabulated"])
    ap.add_argument("--potential-c", type=float)
    ap.add_argument("--potential-t", type=float)
    ap.add_argument("--sigma", type=float)
    ap.add_argument("--sigma-grid", help="comma-separated thresholds")
    ap.add_argument("--eps", type=float)
    ap.add_argument("--eps-list", help="comma-separated scales")
    ap.add_argument("--n-max", type=int)
    ap.add_argument("--grid-size", type=int)
    ap.add_argument("--a", type=float, help="extension metric base")
    ap.add_argument("--depth", type=int, help="extension truncation depth")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--samples", type=int)
    ap.add_argument("--length-min", type=int)
    ap.add_argument("--length-max", type=int)
    ap.add_argument("--group-size", type=int)
    ap.add_argument("--k-max", type=int)
    ap.add_argument("--lam-s", type=float)
    ap.add_argument("--offset", type=float)
    ap.add_argument("--cloud-depth", type=int)
    ap.add_argument("--out", help="output path (.csv, or .json for glue plans)")
    return ap


def _float_list(field, text):
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise ValidationError(field, f"{text!r} is not a comma-separated list "
                                     "of numbers") from None


def resolve_config(args):
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if args.config:
        try:
            with open(args.config) as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValidationError("config", str(exc)) from None
        if not isinstance(user, dict):
            raise ValidationError("config", "must be a JSON object")
        for key, value in user.items():
            if key not in cfg:
                raise ValidationError(key, "unknown configuration field")
            if isinstance(cfg[key], dict) and isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    # every field has a flag: dest `key`, or `key_sub` for a field of the
    # map or potential object; an absent or empty flag leaves the field
    for key, default in DEFAULTS.items():
        if isinstance(default, dict):
            fields = [(cfg[key], sub, f"{key}_{sub}") for sub in default]
        else:
            fields = [(cfg, key, key)]
        for target, name, dest in fields:
            value = getattr(args, dest)
            if value is None or value == "":
                continue
            target[name] = _float_list(key, value) if key in _LIST_FIELDS else value
    validate(cfg)
    return cfg


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except PressgapError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
