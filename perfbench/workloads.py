"""Workload op lists and the oracle checks applied to every op's output.

An op is either one in-process ``pressgap.cli.main(argv)`` call that writes
its output to a file, or one call to a public API function where no
subcommand reaches the layer.  Either way the op's output is text: the CLI
file, or ``name=value`` lines for API ops.  The text is hashed and handed to
the op's oracle, which returns a list of failures (empty when correct).

Every op's ``--seed`` and every sampled input comes from the workload seed
and the op-list index, so one (seed, index) always gives the same op list.
"""

import math
from dataclasses import dataclass

import numpy as np

from pressgap import cli, maps, orbits, pressure

LOG2 = math.log(2.0)
MP_ALPHA = 0.5
PD_DELTA = 0.75

# Op sizes.  Each workload's pass takes a few seconds on 2 cores, so one run
# holds several passes and reports their median.
LADDER_GAP_N_MAX = 10
LADDER_PD_N_MAX = 10
LADDER_DOUBLING_N_MAX = 10
SHADOW_DECOMPOSE_SAMPLES = 150
SHADOW_GLUE_PLANS = 6
SHADOW_EXTENSION_SAMPLES = 25
SHADOW_SOLENOID_SAMPLES = 200
SHADOW_CHECK_N_MAX = 8
CROSS_MP_GRID = 8192
CROSS_PD_GRID = 16384
CROSS_DOUBLING_GRID = 4096
CROSS_SPAN_N = 9
CROSS_KATOK_PIECES = 50
CROSS_KATOK_PIECE_LENGTH = 20
CROSS_KATOK_N = 6

# Tolerances.  Degree-2 maps with the zero potential have pressure log 2;
# the doubling estimate is exact up to rounding, and the Manneville-Pomeau
# estimate also reads log 2 to 1e-16 at the seed commit.  The other
# tolerances cover the discretization error measured at the seed commit,
# with headroom.
TOL_DOUBLING_LOG2 = 1e-9
TOL_MP_LOG2 = 1e-6
TOL_PD_GEOMETRIC_RATE = 1e-5
TOL_CONSTANT_LAMBDA = 1e-10
TOL_MP_LOG_LAMBDA = 5e-3
TOL_PD_LOG_LAMBDA = 1e-9
TOL_ORDER = 1e-12


@dataclass(frozen=True)
class Op:
    """One operation: a CLI argv, or an API function name with parameters."""

    key: str
    check: str
    argv: tuple = ()
    api: str = ""
    params: tuple = ()


def build_systems():
    """The maps and potentials the workloads use, built once in set-up."""
    systems = {"mp": maps.manneville_pomeau(MP_ALPHA), "doubling": maps.doubling(),
               "pd": maps.perturbed_doubling(PD_DELTA), "zero": maps.zero_potential()}
    for name in ("mp", "pd"):
        systems[f"{name}_geometric"] = maps.geometric_potential(systems[name], 1.0)
    return systems


# ---------------------------------------------------------------------------
# op lists
# ---------------------------------------------------------------------------

def _cli(check, *argv):
    return Op(key=" ".join(argv), check=check, argv=tuple(argv))


def _api(api, check, **params):
    items = tuple(sorted(params.items()))
    key = api + " " + " ".join(f"{k}={v!r}" for k, v in items)
    return Op(key=key, check=check, api=api, params=items)


def _ladder(rng):
    s = [str(int(v)) for v in rng.integers(0, 2**31 - 1, size=3)]
    return [
        _cli("gap_report", "gap-report", "--map", "manneville_pomeau",
             "--alpha", str(MP_ALPHA), "--sigma-grid", "0.6,0.75,0.9",
             "--eps", "0.03125", "--n-max", str(LADDER_GAP_N_MAX), "--seed", s[0]),
        _cli("pressure_pd_geometric", "pressure", "--map", "perturbed_doubling",
             "--delta", str(PD_DELTA), "--potential", "geometric", "--potential-t", "1",
             "--eps-list", "0.0625,0.03125", "--n-max", str(LADDER_PD_N_MAX),
             "--seed", s[1]),
        _cli("pressure_doubling_zero", "pressure", "--map", "doubling",
             "--potential", "zero", "--n-max", str(LADDER_DOUBLING_N_MAX),
             "--seed", s[2]),
    ]


def _shadow(rng):
    s = [str(int(v)) for v in rng.integers(0, 2**31 - 1, size=5)]
    mp = ("--map", "manneville_pomeau", "--alpha", str(MP_ALPHA))
    return [
        _cli("decompose", "decompose", *mp,
             "--samples", str(SHADOW_DECOMPOSE_SAMPLES), "--seed", s[0]),
        _cli("glue", "glue", *mp, "--sigma", "0.9", "--eps", "0.03125",
             "--samples", str(SHADOW_GLUE_PLANS), "--seed", s[1]),
        _cli("extension", "extension", *mp, "--potential", "geometric",
             "--samples", str(SHADOW_EXTENSION_SAMPLES), "--seed", s[2]),
        _cli("solenoid", "solenoid", "--samples", str(SHADOW_SOLENOID_SAMPLES),
             "--cloud-depth", "8", "--seed", s[3]),
        _cli("check", "check", *mp, "--sigma", "0.9",
             "--n-max", str(SHADOW_CHECK_N_MAX), "--seed", s[4]),
    ]


def _crosscheck(rng):
    s = [str(int(v)) for v in rng.integers(0, 2**31 - 1, size=3)]
    # doubling with constant potential c = -t log 2, so lambda = 2^(1 - t)
    t = float(rng.uniform(0.25, 2.0))
    anchors = rng.uniform(0.05, 0.95, size=2)
    sample_seed = int(rng.integers(0, 2**31 - 1))
    return [
        _cli("transfer_log_lambda_zero", "transfer", "--map", "manneville_pomeau",
             "--alpha", str(MP_ALPHA), "--potential", "geometric", "--potential-t", "1",
             "--grid-size", str(CROSS_MP_GRID), "--seed", s[0]),
        _cli("transfer_log_lambda_zero", "transfer", "--map", "perturbed_doubling",
             "--delta", str(PD_DELTA), "--potential", "geometric", "--potential-t", "1",
             "--grid-size", str(CROSS_PD_GRID), "--seed", s[1]),
        _cli("transfer_constant", "transfer", "--map", "doubling",
             "--potential", "constant", "--potential-c", repr(-t * LOG2),
             "--grid-size", str(CROSS_DOUBLING_GRID), "--seed", s[2]),
        _api("span_vs_sep", "span_vs_sep", system="doubling", potential="zero",
             n=CROSS_SPAN_N, eps=1.0 / 32.0, anchor=float(anchors[0])),
        _api("span_vs_sep", "span_vs_sep", system="mp", potential="mp_geometric",
             n=CROSS_SPAN_N, eps=1.0 / 32.0, anchor=float(anchors[1])),
        _api("katok", "katok", sample_seed=sample_seed, pieces=CROSS_KATOK_PIECES,
             length=CROSS_KATOK_PIECE_LENGTH, n=CROSS_KATOK_N, delta=1.0 / 32.0,
             eta=0.9),
    ]


WORKLOADS = {
    "pressure-ladder": (0, _ladder),
    "shadow-sampling": (1, _shadow),
    "operator-crosscheck": (2, _crosscheck),
}


def op_list(workload, seed, list_index=0):
    """The workload's op list `list_index` for `seed`; the same arguments
    give the same list."""
    index, make = WORKLOADS[workload]
    return make(np.random.default_rng([int(seed), index, int(list_index)]))


# ---------------------------------------------------------------------------
# API ops: each returns its output as text
# ---------------------------------------------------------------------------

def api_span_vs_sep(systems, system, potential, n, eps, anchor):
    g, phi = systems[system], systems[potential]
    tree = orbits.CylinderTree(g, n, anchor=anchor)
    coll = orbits.FullCollection()
    span = orbits.partition_sum_span(g, phi, coll, n, eps, anchor=anchor,
                                     log=True, tree=tree)
    sep = orbits.partition_sum_sep(g, phi, coll, n, eps, anchor=anchor,
                                   log=True, tree=tree)
    return f"log_span={span!r}\nlog_sep={sep!r}\n"


def katok_sample(systems, sample_seed, pieces, length):
    """Orbit pieces of the Manneville-Pomeau map from seeded start points.
    Several pieces keep one orbit trapped at the neutral fixed point from
    deciding the whole sample."""
    starts = np.random.default_rng(sample_seed).uniform(0.05, 0.95, size=pieces)
    return systems["mp"].orbit(starts, length).ravel()


def api_katok(systems, sample_seed, pieces, length, n, delta, eta):
    sample = katok_sample(systems, sample_seed, pieces, length)
    value = pressure.katok_sn(systems["mp"], systems["zero"], sample, delta, eta, n)
    return f"katok={value!r}\n"


API_OPS = {"span_vs_sep": api_span_vs_sep, "katok": api_katok}


def run_op(op, systems, out_path):
    """Run one op; returns (exit code, output text).  May raise."""
    if op.api:
        return 0, API_OPS[op.api](systems, **dict(op.params))
    code = cli.main(list(op.argv) + ["--out", str(out_path)])
    try:
        with open(out_path) as fh:
            text = fh.read()
    except FileNotFoundError:
        text = ""
    return code, text


# ---------------------------------------------------------------------------
# oracles: (text, op, systems) -> list of failure messages
# ---------------------------------------------------------------------------

def parse_csv(text):
    """(header fields, rows as dicts) of a pressgap CSV output."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("#"):
        raise ValueError("missing header")
    header = dict(tok.split("=", 1) for tok in lines[0][1:].split() if "=" in tok)
    columns = lines[1].split(",")
    rows = []
    for line in lines[2:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, expected {len(columns)}")
        rows.append(dict(zip(columns, cells)))
    return header, rows


def parse_values(text):
    return {k: float(v) for k, v in (line.split("=", 1) for line in text.splitlines())}


def _near(errors, what, value, target, tol):
    if not abs(value - target) <= tol:
        errors.append(f"{what}={value!r}, expected {target!r} within {tol:g}")


def _at_most(errors, what, lower, upper):
    if not lower <= upper + TOL_ORDER:
        errors.append(f"{what}: {lower!r} exceeds {upper!r}")


def check_gap_report(text, op, systems):
    _, rows = parse_csv(text)
    errors = []
    if [float(r["sigma"]) for r in rows] != [0.6, 0.75, 0.9]:
        errors.append("sigma rows differ from the requested grid")
    for r in rows:
        p_full, p_bad = float(r["p_full"]), float(r["p_bad"])
        _near(errors, f"p_full(sigma={r['sigma']})", p_full, LOG2, TOL_MP_LOG2)
        _at_most(errors, f"p_bad <= p_full at sigma={r['sigma']}", p_bad, p_full)
        if float(r["sigma"]) == 0.9 and r["holds"] != "1":
            errors.append("gap hypothesis does not hold at sigma=0.9")
    return errors


def _pressure_rows(text, eps_count):
    _, rows = parse_csv(text)
    by_eps = {}
    for r in rows:
        by_eps.setdefault(r["eps"], {})[r["collection"].split("(")[0]] = r
    if len(by_eps) != eps_count or any(set(v) != {"full", "good", "bad"}
                                       for v in by_eps.values()):
        raise ValueError("pressure rows do not cover full/good/bad per eps")
    return by_eps


def _bad_below_full(errors, by_eps):
    for eps, rows in by_eps.items():
        _at_most(errors, f"bad rate <= full rate at eps={eps}",
                 float(rows["bad"]["rate"]), float(rows["full"]["rate"]))


def check_pressure_pd_geometric(text, op, systems):
    by_eps = _pressure_rows(text, 2)
    errors = []
    for eps, rows in by_eps.items():
        _near(errors, f"full rate at eps={eps}", float(rows["full"]["rate"]),
              0.0, TOL_PD_GEOMETRIC_RATE)
    _bad_below_full(errors, by_eps)
    return errors


def check_pressure_doubling_zero(text, op, systems):
    by_eps = _pressure_rows(text, 1)
    errors = []
    for eps, rows in by_eps.items():
        _near(errors, f"full rate at eps={eps}", float(rows["full"]["rate"]),
              LOG2, TOL_DOUBLING_LOG2)
    _bad_below_full(errors, by_eps)
    return errors


def _arg_value(op, flag):
    return op.argv[op.argv.index(flag) + 1]


def check_decompose(text, op, systems):
    _, rows = parse_csv(text)
    errors = []
    if len(rows) != int(_arg_value(op, "--samples")):
        errors.append(f"{len(rows)} rows, expected {_arg_value(op, '--samples')}")
    for i, r in enumerate(rows):
        length, g_len, s_len = int(r["length"]), int(r["g_len"]), int(r["s_len"])
        if g_len + s_len != length or g_len < 0 or s_len < 0:
            errors.append(f"row {i}: g_len + s_len = {g_len + s_len} != length {length}")
        expected = "good" if s_len == 0 else "bad" if g_len == 0 else "neither"
        if r["class"] != expected:
            errors.append(f"row {i}: class {r['class']} but split ({g_len}, {s_len})")
    return errors


def check_glue(text, op, systems):
    _, rows = parse_csv(text)
    errors = []
    if len(rows) != int(_arg_value(op, "--samples")):
        errors.append(f"{len(rows)} plans, expected {_arg_value(op, '--samples')}")
    for i, r in enumerate(rows):
        if r["ok"] != "1" or float(r["shadow_max"]) > float(r["eps"]):
            errors.append(f"plan {i}: shadow {r['shadow_max']} exceeds eps {r['eps']}")
        if int(r["tau_max"]) > int(r["tau_cap"]):
            errors.append(f"plan {i}: transition {r['tau_max']} exceeds cap {r['tau_cap']}")
    return errors


def check_extension(text, op, systems):
    _, rows = parse_csv(text)
    if not rows:
        return ["no rows"]
    errors = []
    for r in rows:
        if r["within"] != "1" or float(r["empirical_max"]) > float(r["bound"]) + float(r["slack"]):
            errors.append(f"Bowen variation {r['empirical_max']} exceeds bound {r['bound']}")
    return errors


def check_solenoid(text, op, systems):
    _, rows = parse_csv(text)
    values = {r["check"]: r for r in rows}
    errors = []
    c = values["fiber_contraction"]
    _near(errors, "fiber_contraction", float(c["value"]), float(c["reference"]), 1e-9)
    b = values["bowen_empirical_max"]
    _at_most(errors, "bowen_empirical_max <= bound", float(b["value"]), float(b["reference"]))
    clouds = sum(k.startswith("cloud_") for k in values)
    if clouds != 2 ** int(_arg_value(op, "--cloud-depth")):
        errors.append(f"{clouds} cloud points, expected 2^{_arg_value(op, '--cloud-depth')}")
    return errors


def check_check(text, op, systems):
    _, rows = parse_csv(text)
    if len(rows) != 1 or rows[0]["passes"] != "1":
        return ["hypothesis check does not pass"]
    return []


def _transfer(text):
    header, rows = parse_csv(text)
    dens = np.array([float(r["density"]) for r in rows])
    errors = []
    if not (np.all(dens >= 0.0) and abs(dens.sum() - 1.0) < 1e-9):
        errors.append("equilibrium density is not a probability vector")
    return header, errors


def check_transfer_log_lambda_zero(text, op, systems):
    header, errors = _transfer(text)
    tol = TOL_MP_LOG_LAMBDA if "manneville_pomeau" in op.argv else TOL_PD_LOG_LAMBDA
    _near(errors, "log_lambda", float(header["log_lambda"]), 0.0, tol)
    return errors


def check_transfer_constant(text, op, systems):
    header, errors = _transfer(text)
    t = -float(_arg_value(op, "--potential-c")) / LOG2
    _near(errors, "lambda", float(header["lambda"]), 2.0 ** (1.0 - t), TOL_CONSTANT_LAMBDA)
    return errors


def check_span_vs_sep(text, op, systems):
    v = parse_values(text)
    errors = []
    if not math.isfinite(v["log_span"]):
        errors.append("spanning estimate is not finite")
    _at_most(errors, "log span <= log sep", v["log_span"], v["log_sep"])
    return errors


def separated_count(orbits_rows, radius):
    """Size of a greedy set of rows pairwise more than `radius` apart in the
    Bowen metric (reference computation, independent of pressgap.kernels)."""
    alive = np.ones(orbits_rows.shape[0], dtype=bool)
    count = 0
    for i in range(orbits_rows.shape[0]):
        if not alive[i]:
            continue
        count += 1
        d = np.abs(orbits_rows - orbits_rows[i])
        d = np.minimum(d, 1.0 - d).max(axis=1)
        alive &= d > radius
    return count


def check_katok(text, op, systems):
    """With the zero potential the value is the number of chosen centres k.
    Each pick covers at least one new point, so k <= ceil(eta N).  Points
    pairwise more than 2 delta apart need distinct delta-balls, and at most
    (1 - eta) N points stay uncovered, so k >= |S| - floor((1 - eta) N)."""
    p = dict(op.params)
    value = parse_values(text)["katok"]
    sample = katok_sample(systems, p["sample_seed"], p["pieces"], p["length"])
    rows = systems["mp"].orbit(sample, p["n"])
    n_pts = sample.size
    upper = math.ceil(p["eta"] * n_pts)
    lower = separated_count(rows, 2.0 * p["delta"]) - math.floor((1.0 - p["eta"]) * n_pts)
    errors = []
    if value != round(value) or not max(1, lower) <= value <= upper:
        errors.append(f"katok={value!r} outside [{max(1, lower)}, {upper}]")
    return errors


ORACLES = {
    "gap_report": check_gap_report,
    "pressure_pd_geometric": check_pressure_pd_geometric,
    "pressure_doubling_zero": check_pressure_doubling_zero,
    "decompose": check_decompose,
    "glue": check_glue,
    "extension": check_extension,
    "solenoid": check_solenoid,
    "check": check_check,
    "transfer_log_lambda_zero": check_transfer_log_lambda_zero,
    "transfer_constant": check_transfer_constant,
    "span_vs_sep": check_span_vs_sep,
    "katok": check_katok,
}


def check_output(op, code, text, systems):
    """Failures of one op: a non-zero exit code, or its oracle's findings."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        return ORACLES[op.check](text, op, systems)
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
