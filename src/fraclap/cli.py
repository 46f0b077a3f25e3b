"""Configuration-driven experiment runner.

Usage:
    fraclap run --config cfg.json --out outdir [--seed S]
    fraclap validate --config cfg.json

A config names a space (inline matrices or a fixture descriptor), one or more
exponent values, and a list of experiments.  Running writes `report.json`
plus per-experiment CSV tables under the output directory.  The jobs (one
per experiment, and per theta for the kinds that take one) run one at a
time in config order on one shared decomposition.  It exits 0 iff every
assertive experiment passed, 1 if one failed, and 2 on a bad config or on a
`--seed` that is not a nonnegative integer.  A config key the runner does
not read, at any level, is a bad config.  `--threads` is accepted only as
`--threads 1`.
Reports are reproducible byte-for-byte for a fixed config and seed once the
`metadata` field (timestamps and wall times) is dropped.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dirichlet import (
    DirichletProblem,
    _leaves_domain,
    harnack_quotient,
    maximum_principle_check,
    solve_extension,
    solve_spectral,
    solve_spectral_batch,
    strong_maximum_check,
)
from .energy import comparability_report, stiffness_matrix
from .errors import ConfigParseError, FraclapError, InvalidParams
from .extension import (
    DEFAULT_RATIO,
    MIN_GRID_NODES,
    _check_first_cell,
    _first_node_vanishes,
    build_grid,
    codim_ball_check,
    default_ymax,
    dtn_apply,
    dtn_constant,
    extension_energy_constant,
    mode_energy_quadrature,
    poisson_extend,
    vertical_modulus,
)
from .space import (
    Space,
    _check_keys,
    _row_blocks,
    ball_mask,
    check_space_spec,
    interior_mask,
    space_from_spec,
)
from .spectral import (
    check_theta,
    decompose,
    frac_apply,
    heat_kernel,
    heat_kernel_log_bound,
    subordination_check,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# config handling


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigParseError(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    return normalize_config(raw, origin=path)


def normalize_config(raw: dict, origin: str = "<config>") -> dict:
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{origin}: top level must be an object")
    keys = ("schema_version", "space", "theta", "experiments", "seed")
    _check_keys(raw, keys, origin, ConfigParseError)
    # a normalized config (validate's printout, a report's `config`) names
    # the schema it was written in
    version = raw.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ConfigParseError(
            f"{origin}: schema_version {version!r} is not this runner's {SCHEMA_VERSION}"
        )

    space_spec = raw.get("space")
    if space_spec is None:
        raise ConfigParseError(f"{origin}: missing required field 'space'")
    try:
        check_space_spec(space_spec)
    except InvalidParams as exc:
        raise ConfigParseError(f"{origin}: space: {exc}") from None

    theta = raw.get("theta", 0.5)
    if isinstance(theta, (int, float)):
        thetas = [theta]
    elif isinstance(theta, list):
        thetas = theta
    else:
        raise ConfigParseError(f"{origin}: 'theta' must be a number or a list, got {theta!r}")
    if not thetas:
        raise ConfigParseError(f"{origin}: 'theta' must name at least one value")
    for th in thetas:
        if not isinstance(th, (int, float)):
            raise ConfigParseError(f"{origin}: theta values must be numbers, got {th!r}")
        try:
            check_theta(th)
        except InvalidParams as exc:
            raise ConfigParseError(f"{origin}: {exc}") from None

    experiments = raw.get("experiments", [])
    if not isinstance(experiments, list):
        raise ConfigParseError(f"{origin}: 'experiments' must be a list")
    normalized_experiments = []
    for i, exp in enumerate(experiments):
        if not isinstance(exp, dict) or "kind" not in exp:
            raise ConfigParseError(f"{origin}: experiments[{i}] needs a 'kind' field")
        _check_keys(exp, ("kind", "params"), f"{origin}: experiments[{i}]", ConfigParseError)
        kind = exp["kind"]
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ConfigParseError(
                f"{origin}: experiments[{i}]: unknown kind {kind!r}; "
                f"valid kinds: {list(_KINDS)}"
            )
        params = exp.get("params", {})
        if not isinstance(params, dict):
            raise ConfigParseError(f"{origin}: experiments[{i}].params must be an object")
        where = f"{origin}: experiments[{i}] ({kind})"
        allowed = _KINDS[kind].defaults
        _check_keys(params, allowed, f"{where}: params", ConfigParseError)
        for key, value in params.items():
            if key == "omega_mask":
                if value is not None:
                    _check_omega_mask(value, where)
                continue
            _check_param(value, allowed[key], f"{where}: {key!r}")
            if key in _GRID_SIZE_PARAMS and min(np.atleast_1d(value)) < MIN_GRID_NODES:
                raise ConfigParseError(
                    f"{where}: {key!r} grid sizes must be at least {MIN_GRID_NODES}, got {value!r}"
                )
            if key in _GRID_SIZE_PARAMS and kind in _GEOMETRIC_GRID_KINDS:
                vanishing = [m for m in np.atleast_1d(value).tolist() if _first_node_vanishes(m)]
                if vanishing:
                    raise ConfigParseError(
                        f"{where}: {key!r} grid size {vanishing[0]} puts the first node "
                        f"Ymax * {DEFAULT_RATIO}^{vanishing[0] - 1} at 0 for every finite Ymax"
                    )
        if kind == "dtn_convergence" and len(set(params.get("ms", allowed["ms"]))) < 2:
            raise ConfigParseError(f"{where}: 'ms' needs 2 distinct grid sizes to fit a slope")
        normalized_experiments.append({"kind": kind, "params": params})

    seed = _check_seed(raw.get("seed", 0), f"{origin}: 'seed'")

    return {
        "schema_version": SCHEMA_VERSION,
        "space": space_spec,
        "theta": [float(t) for t in thetas],
        "experiments": normalized_experiments,
        "seed": seed,
    }


def _check_seed(seed, where):
    """`seed` if it is a nonnegative integer, the seeds `numpy.random.default_rng`
    takes; ConfigParseError otherwise."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigParseError(f"{where} must be a nonnegative integer, got {seed!r}")
    return seed


# params that count nodes of an extension grid (`build_grid`'s m), and the
# kinds that lay those grids out geometrically from Ymax (the others are
# uniform), whose first node underflows for large m (`_first_node_vanishes`)
_GRID_SIZE_PARAMS = ("m", "ms")
_GEOMETRIC_GRID_KINDS = ("dtn_convergence", "dirichlet_routes")


def _check_param(value, default, where):
    """ConfigParseError unless `value` fits the param's default: a finite
    positive number for a number; a nonempty list of them for a list;
    integers where the default's are."""
    integer = isinstance(default[0] if isinstance(default, list) else default, int)
    noun = "positive integer" if integer else "finite positive number"
    if isinstance(default, list):
        ok = isinstance(value, list) and value and all(_positive(v, integer) for v in value)
        want = f"a nonempty list of {noun}s"
    else:
        ok, want = _positive(value, integer), f"a {noun}"
    if not ok:
        raise ConfigParseError(f"{where} must be {want}, got {value!r}")


def _positive(value, integer):
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        return False
    return value > 0 and (isinstance(value, int) or bool(np.isfinite(value)))


def _check_omega_mask(mask, where):
    """ConfigParseError unless `mask` is a list of booleans; `_set_up` checks
    that it has one per point."""
    if not isinstance(mask, list) or not all(isinstance(x, bool) for x in mask):
        raise ConfigParseError(f"{where}: omega_mask must be a list of booleans")


def _set_up(config: dict) -> Space:
    """Build the space of a normalized config and check each omega_mask on
    it, one entry per point and neither side empty: what `run` does before
    it writes anything, and all that `validate` adds to `load_config`.
    ConfigParseError if either fails."""
    try:
        space = space_from_spec(config["space"])
    except FraclapError as exc:
        raise ConfigParseError(f"space: {exc}") from None
    for i, exp in enumerate(config["experiments"]):
        mask = exp["params"].get("omega_mask")
        where = f"experiments[{i}] ({exp['kind']}): omega_mask"
        if mask is not None and len(mask) != space.n:
            raise ConfigParseError(f"{where} has {len(mask)} entries, space has {space.n} points")
        if mask is not None and (all(mask) or not any(mask)):
            raise ConfigParseError(f"{where} leaves the domain or its complement empty")
    return space


# ---------------------------------------------------------------------------
# experiments: each returns (metrics, passed, tables) where passed is None
# for purely diagnostic experiments and tables maps csv basenames to rows.
# `params` holds the user's params over the kind's defaults (_KINDS).


def _domain(ctx, params):
    """The params' omega_mask, else the space's interior mask."""
    if params["omega_mask"] is None:
        return ctx["interior"]
    return np.asarray(params["omega_mask"], dtype=bool)


def _exp_heat_properties(ctx, params):
    space, dec = ctx["space"], ctx["dec"]
    log_bound = heat_kernel_log_bound(space)
    markov = 0.0
    min_entry = min_bound = float("inf")
    excess = -1.0  # (bound - k) / max k is never below -1
    rows = [("t", "markov_err", "min_entry", "min_log10_bound", "bound_excess")]
    for t in params["ts"]:
        k = heat_kernel(dec, t)
        kmax = k.max()
        m_err = float(np.max(np.abs(k @ space.mu - 1.0)))
        # the walk bound against the spectral kernel, both relative to the
        # largest entry, where the bound is above the kernel's roundoff
        rel = log_bound(t)
        rel -= np.log(kmax)
        b_min = float((rel.min() + np.log(space.total_mass * kmax)) / np.log(10.0))
        resolvable = rel >= np.log(1e-10)
        gap = np.exp(rel, out=rel)
        for block in _row_blocks(space.n):
            gap[block] -= k[block] / kmax
        b_err = float(np.max(gap, where=resolvable, initial=-1.0))
        del rel, gap, resolvable
        markov, excess = max(markov, m_err), max(excess, b_err)
        min_entry, min_bound = min(min_entry, float(k.min())), min(min_bound, b_min)
        rows.append((t, m_err, float(k.min()), b_min, b_err))
        del k  # freed before the next kernel is built
    # max|K_{t/2} M K_{t/2} - K_t| / max K_t at every t > 0 is at most the
    # decomposition's orthogonality defect (SpectralDecomposition)
    semigroup = dec.ortho_defect
    passed = markov <= 1e-10 and semigroup <= 1e-10 and np.isfinite(min_bound) and excess <= 1e-12
    metrics = {
        "markov_max_err": markov,
        "semigroup_max_err": semigroup,
        "min_entry_spectral": min_entry,
        "min_log10_bound": min_bound,
        "bound_max_excess": excess,
        "subordination_err": float(
            max(subordination_check(dec, t) for t in (0.1, 1.0))
        ),
    }
    passed = bool(passed and metrics["subordination_err"] <= 1e-6)
    return metrics, passed, {"heat_properties.csv": rows}


def _exp_energy_comparability(ctx, params):
    space, dec, theta = ctx["space"], ctx["dec"], ctx["theta"]
    size = params["family_size"]
    rng = np.random.default_rng([ctx["seed"], ctx["index"]])
    family = rng.standard_normal((size, space.n))
    rep = comparability_report(dec, theta, family)
    ok = (
        np.isfinite(rep["ratio_min"])
        and np.isfinite(rep["ratio_max"])
        and rep["ratio_min"] > 0
    )
    return rep, bool(ok), {}


def _exp_dtn_convergence(ctx, params):
    space, dec, theta = ctx["space"], ctx["dec"], ctx["theta"]
    ms = params["ms"]
    ymax = default_ymax(dec)
    rng = np.random.default_rng([ctx["seed"], ctx["index"]])
    f = rng.standard_normal(space.n)
    target = frac_apply(dec, theta, f)
    scale = float(np.max(np.abs(target)))
    rows = [("m", "y1", "max_err")]
    y1s, errs = [], []
    for m in ms:
        grid = build_grid(theta, ymax, m)
        # a first cell too thin for dtn_apply ends the run before the
        # extension, whose rows it could not read
        _check_first_cell(grid)
        u = poisson_extend(dec, f, grid)
        err = float(np.max(np.abs(dtn_apply(u) - target)))
        y1s.append(grid.ys[1])
        errs.append(err)
        rows.append((m, grid.ys[1], err))
    slope = float(np.polyfit(np.log(y1s), np.log(errs), 1)[0])
    rel = errs[-1] / scale
    metrics = {"slope": slope, "final_rel_err": rel, "ymax": ymax, "ms": list(ms)}
    return metrics, bool(slope >= 0.9 and rel <= 1e-2), {"dtn_convergence.csv": rows}


def _exp_energy_identity(ctx, params):
    theta = ctx["theta"]
    lams = np.array([0.5, 1.0, 2.0])
    const = extension_energy_constant(theta)
    quadrature = mode_energy_quadrature(lams, theta)
    expected = const * lams**theta
    errs = np.abs(quadrature - expected)
    rows = [("lam", "quadrature", "expected", "err")]
    rows += zip(lams.tolist(), quadrature.tolist(), expected.tolist(), errs.tolist())
    metrics = {"max_err": float(errs.max()), "constant": const, "dtn_constant": dtn_constant(theta)}
    return metrics, bool(errs.max() <= 1e-4), {"energy_identity.csv": rows}


def _exp_dirichlet_routes(ctx, params):
    space, dec, theta = ctx["space"], ctx["dec"], ctx["theta"]
    m = params["m"]
    omega = _domain(ctx, params)
    rng = np.random.default_rng([ctx["seed"], ctx["index"]])
    f = rng.standard_normal(space.n)
    problem = DirichletProblem(ctx["form"](), omega, f)
    spectral = solve_spectral(problem)
    grid = build_grid(theta, default_ymax(dec), m)
    ext = solve_extension(problem, grid)
    gap = float(np.max(np.abs(spectral.u - ext.u)))
    osc = problem.data_oscillation
    rows = [("index", "u_spectral", "u_extension")]
    rows += [(i, a, b) for i, (a, b) in enumerate(zip(spectral.u.tolist(), ext.u.tolist()))]
    # constant data (one complement point, say) has no oscillation to judge
    # the gap against, so the data's magnitude stands in for it
    if osc > 0:
        gap_over_osc, passed = gap / osc, gap <= 1e-2 * osc
    else:
        data = problem.f[~problem.omega]
        gap_over_osc, passed = None, gap <= 1e-2 * max(1.0, float(np.abs(data).max()))
    metrics = {
        "gap": gap,
        "gap_over_osc": gap_over_osc,
        "energy_spectral": spectral.energy,
        "energy_extension": ext.energy,
        "correction_passes": ext.iterations,
        "m": m,
    }
    return metrics, bool(passed), {"dirichlet_routes.csv": rows}


def _exp_max_principle_batch(ctx, params):
    space = ctx["space"]
    n_seeds = params["n_seeds"]
    omega = _domain(ctx, params)
    form = ctx["form"]()
    rngs = (np.random.default_rng([ctx["seed"], ctx["index"], s]) for s in range(n_seeds))
    problems = [DirichletProblem(form, omega, rng.standard_normal(space.n)) for rng in rngs]
    failures = 0
    strong_failures = 0
    for sol, problem in zip(solve_spectral_batch(problems), problems):
        if not maximum_principle_check(sol, problem)["passed"]:
            failures += 1
        if not strong_maximum_check(sol, problem)["passed"]:
            strong_failures += 1
    metrics = {"n_seeds": n_seeds, "failures": failures, "strong_failures": strong_failures}
    return metrics, bool(failures == 0 and strong_failures == 0), {}


def _exp_harnack_scan(ctx, params):
    space = ctx["space"]
    omega = _domain(ctx, params)
    radius = params["radius"]
    rng = np.random.default_rng([ctx["seed"], ctx["index"]])
    f = np.abs(rng.standard_normal(space.n))
    problem = DirichletProblem(ctx["form"](), omega, f)
    sol = solve_spectral(problem)
    centres = np.flatnonzero(omega)
    centres = centres[~_leaves_domain(problem, ball_mask(space, centres, 2.0 * radius))]
    quotients = harnack_quotient(sol, problem, centres, radius)
    rows = [("center", "radius", "quotient")]
    rows += zip(centres.tolist(), [radius] * len(centres), quotients.tolist())
    top = float(quotients.max()) if len(quotients) else None
    metrics = {"n_balls": len(quotients), "max_quotient": top}
    return metrics, None, {"harnack_scan.csv": rows}


def _exp_modulus_check(ctx, params):
    space, theta = ctx["space"], ctx["theta"]
    ms = params["ms"]
    a = 1.0 - 2.0 * theta
    worst = 0.0
    bracket_ok = True
    rows = [("h", "extrapolated", "exact", "err")]
    subset = np.ones(space.n, dtype=bool)
    for h in (0.5, 1.0, 2.0):
        vals = []
        for m in ms:
            grid = build_grid(theta, h, m, layout="uniform")
            out = vertical_modulus(space, subset, h, grid)
            vals.append(out["numeric"])
            lo = out["exact"]
            hi = space.total_mass / ((1.0 + a) * h ** (1.0 - a))
            if not (lo - 1e-12 <= out["numeric"] <= hi + 1e-12):
                bracket_ok = False
        exact = out["exact"]
        limit = _richardson(vals, [1.0 - a, min(2.0, 2.0 - 2.0 * a)])
        err = abs(limit - exact)
        # both values are mu(A) times a per-column number, so the error per
        # unit mass does not grow with the space
        worst = max(worst, err / space.total_mass)
        rows.append((h, limit, exact, err))
    metrics = {"max_err_per_mass": worst, "bracket_ok": bracket_ok, "a": a}
    return metrics, bool(worst <= 1e-7 and bracket_ok), {"modulus_check.csv": rows}


def _richardson(values, exponents):
    """Eliminate known error orders from a sequence on grids refined by 2."""
    vals = list(map(float, values))
    for p in exponents:
        if len(vals) < 2:
            break
        r = 2.0**p
        if abs(r - 1.0) < 1e-12:
            continue
        vals = [(r * b - a) / (r - 1.0) for a, b in zip(vals[:-1], vals[1:])]
    return vals[-1]


def _exp_codim_check(ctx, params):
    space, theta = ctx["space"], ctx["theta"]
    rs = [0.25, 0.5, 1.0]
    grid = build_grid(theta, max(rs), 64)
    outs = [codim_ball_check(space, grid, np.arange(space.n), r) for r in rs]
    # (x, r) tables, flattened centre-major like the rows
    lhs, rhs = (np.stack([out[side] for out in outs], axis=1).ravel() for side in ("lhs", "rhs"))
    worst = float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))
    xs = np.repeat(np.arange(space.n), len(rs)).tolist()
    rows = [("x", "r", "lhs", "rhs"), *zip(xs, rs * space.n, lhs.tolist(), rhs.tolist())]
    metrics = {"max_rel_err": worst}
    return metrics, bool(worst <= 1e-12), {"codim_check.csv": rows}


class _Kind(NamedTuple):
    runner: Callable
    theta_free: bool  # runs once, not once per theta
    defaults: dict  # every param the runner reads; no other is accepted


_KINDS = {
    "heat_properties": _Kind(_exp_heat_properties, True, {"ts": [0.01, 0.1, 1.0, 10.0]}),
    "energy_comparability": _Kind(_exp_energy_comparability, False, {"family_size": 100}),
    "dtn_convergence": _Kind(_exp_dtn_convergence, False, {"ms": [8, 10, 12, 14, 16]}),
    "energy_identity": _Kind(_exp_energy_identity, False, {}),
    "dirichlet_routes": _Kind(_exp_dirichlet_routes, False, {"m": 32, "omega_mask": None}),
    "max_principle_batch": _Kind(
        _exp_max_principle_batch, False, {"n_seeds": 100, "omega_mask": None}
    ),
    "harnack_scan": _Kind(_exp_harnack_scan, False, {"omega_mask": None, "radius": 1.0}),
    "modulus_check": _Kind(_exp_modulus_check, False, {"ms": [2048, 4096, 8192, 16384]}),
    "codim_check": _Kind(_exp_codim_check, False, {}),
}


# ---------------------------------------------------------------------------
# runner


def run(config: dict, out_dir: str) -> dict:
    space = _set_up(config)
    os.makedirs(out_dir, exist_ok=True)
    dec = decompose(space)
    interior = interior_mask(space, config["space"])

    # jobs run in config order; their tables are written with the report,
    # after the last one, so a run that fails writes none
    records, wall_times, csvs = [], {}, []
    for exp in config["experiments"]:
        kind, params = exp["kind"], exp["params"]
        runner, theta_free, defaults = _KINDS[kind]
        for theta in [None] if theta_free else config["theta"]:
            index = len(records)
            ctx = {
                "space": space,
                "dec": dec,
                # each job builds its own form, O(n): it holds no matrix
                "form": lambda: stiffness_matrix(dec, theta),
                "theta": theta,
                "seed": config["seed"],
                "index": index,
                "interior": interior,
            }
            start = time.perf_counter()
            metrics, passed, tables = runner(ctx, {**defaults, **params})
            wall_times[f"{index:02d}_{kind}"] = round(time.perf_counter() - start, 6)
            records.append(
                dict(kind=kind, theta=theta, params=params, metrics=metrics, passed=passed)
            )
            csvs += [(f"{index:02d}_{name}", rows) for name, rows in tables.items()]
    for name, rows in csvs:
        _write_csv(os.path.join(out_dir, name), rows)

    assertive = [r for r in records if r["passed"] is not None]
    failed = [r for r in records if r["passed"] is False]
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config,
        "experiments": records,
        "summary": {
            "n_experiments": len(records),
            "n_assertive": len(assertive),
            "n_failed": len(failed),
        },
        "metadata": {
            "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "wall_time_s": wall_times,
            "version": __version__,
        },
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        # np.float64 is a float and json writes it as one; other numpy
        # scalars and arrays reach `default`
        json.dump(report, fh, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
        fh.write("\n")
    return report


def _write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fraclap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the experiments in a config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    # accepted at its one value, 1, for callers that still pass it
    p_run.add_argument("--threads", default="1")
    p_run.add_argument("--seed", type=int, default=None)

    p_val = sub.add_parser("validate", help="check a config without executing")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "validate":
            _set_up(config)
        elif args.seed is not None:
            config["seed"] = _check_seed(args.seed, "--seed")
    except ConfigParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        print("OK")
        print(json.dumps(config, indent=2, sort_keys=True))
        return 0

    if args.threads != "1":
        message = f"--threads must be 1, got {args.threads!r}: jobs run one at a time"
        print(f"run failed: {message}", file=sys.stderr)
        return 2

    try:
        report = run(config, args.out)
    except FraclapError as exc:
        stage = "config error" if isinstance(exc, ConfigParseError) else "run failed"
        print(f"{stage}: {exc}", file=sys.stderr)
        return 2
    failed = report["summary"]["n_failed"]
    for rec in report["experiments"]:
        tag = {True: "pass", False: "FAIL", None: "info"}[rec["passed"]]
        theta = "" if rec["theta"] is None else f" theta={rec['theta']}"
        print(f"[{tag}] {rec['kind']}{theta}")
    if failed:
        print(f"{failed} assertive experiment(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
