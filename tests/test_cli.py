import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclap import build_space, decompose, fixture, spectral
from fraclap.cli import _KINDS, _exp_heat_properties, load_config, main, normalize_config, run
from fraclap.errors import ConfigParseError
from fraclap.extension import MIN_GRID_NODES


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def base_config(**overrides):
    cfg = {
        "space": {"fixture": {"kind": "path", "params": {"n": 8}}},
        "theta": 0.5,
        "seed": 0,
        "experiments": [],
    }
    cfg.update(overrides)
    return cfg


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK")
    normalized = json.loads(out[len("OK") :])
    assert normalized["theta"] == [0.5]
    assert normalized["schema_version"] == 1


def test_unknown_experiment_kind_named(tmp_path):
    path = write_config(
        tmp_path, base_config(experiments=[{"kind": "frobnicate"}])
    )
    with pytest.raises(ConfigParseError) as err:
        load_config(path)
    assert "frobnicate" in str(err.value)
    assert "heat_properties" in str(err.value)  # the valid set is listed


def test_theta_out_of_range_rejected(tmp_path):
    path = write_config(tmp_path, base_config(theta=1.5))
    with pytest.raises(ConfigParseError, match="theta"):
        load_config(path)


def test_random_geometric_missing_seed_named(tmp_path):
    cfg = base_config(
        space={"fixture": {"kind": "random_geometric", "params": {"n": 10, "radius": 0.5}}}
    )
    with pytest.raises(ConfigParseError, match="seed"):
        load_config(write_config(tmp_path, cfg))


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  broken\n}")
    with pytest.raises(ConfigParseError, match="bad.json:2"):
        load_config(str(path))


def test_validate_exit_code_on_error(tmp_path, capsys):
    path = write_config(tmp_path, base_config(theta=7))
    assert main(["validate", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def test_empty_experiments_runs_clean(tmp_path):
    path = write_config(tmp_path, base_config())
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--out", out]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["experiments"] == []
    assert report["summary"] == {"n_experiments": 0, "n_assertive": 0, "n_failed": 0}


def test_run_writes_report_and_csv(tmp_path):
    cfg = base_config(
        experiments=[
            {"kind": "heat_properties", "params": {"ts": [0.1, 1.0]}},
            {"kind": "codim_check", "params": {}},
        ]
    )
    path = write_config(tmp_path, cfg)
    out = str(tmp_path / "out")
    assert main(["run", "--config", path, "--out", out]) == 0
    files = os.listdir(out)
    assert "report.json" in files
    assert "00_heat_properties.csv" in files
    assert "01_codim_check.csv" in files
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert all(rec["passed"] for rec in report["experiments"])


def test_run_deterministic_modulo_metadata(tmp_path):
    cfg = base_config(
        theta=[0.5],
        experiments=[
            {"kind": "energy_comparability", "params": {"family_size": 20}},
            {"kind": "dirichlet_routes", "params": {"m": 16}},
            {"kind": "modulus_check", "params": {"ms": [512, 1024, 2048, 4096]}},
        ],
    )
    path = write_config(tmp_path, cfg)
    reports = []
    for sub in ("a", "b"):
        out = str(tmp_path / sub)
        assert main(["run", "--config", path, "--out", out]) == 0
        obj = json.loads((tmp_path / sub / "report.json").read_text())
        del obj["metadata"]
        reports.append(json.dumps(obj, sort_keys=True))
    assert reports[0] == reports[1]


def test_threads_change_scheduling_not_results(tmp_path):
    # eight jobs on two threads against one: same report and tables
    cfg = base_config(
        space={"fixture": {"kind": "grid2d", "params": {"nx": 4}}},
        theta=[0.25, 0.75],
        experiments=[
            {"kind": "energy_comparability", "params": {"family_size": 10}},
            {"kind": "dirichlet_routes", "params": {"m": 16}},
            {"kind": "max_principle_batch", "params": {"n_seeds": 5}},
            {"kind": "harnack_scan", "params": {}},
        ],
    )
    path = write_config(tmp_path, cfg)
    outputs = []
    for threads in ("2", "1"):
        out = tmp_path / f"threads{threads}"
        assert main(["run", "--config", path, "--out", str(out), "--threads", threads]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["metadata"]["wall_time_s"]) == 8
        del report["metadata"]
        tables = {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}
        del tables["report.json"]
        outputs.append((json.dumps(report, indent=2, sort_keys=True), tables))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
@pytest.mark.parametrize("source", ["--threads"])  # the one way to set the count
def test_bad_thread_count_exits_2(tmp_path, capsys, source, raw):
    path = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), source, raw]) == 2
    err = capsys.readouterr().err
    assert f"{source} must be a positive integer, got {raw!r}" in err
    assert not out.exists()


def test_run_failure_exit_code(tmp_path, capsys):
    # grids too coarse for the fixed 1e-7 threshold make the assertive
    # experiment fail on a real error (theta != 1/2, so the column program
    # carries discretization error; about 6.5e-5 per unit mass here)
    cfg = base_config(
        theta=0.25,
        experiments=[{"kind": "modulus_check", "params": {"ms": [512, 1024]}}],
    )
    path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    assert "failed" in capsys.readouterr().err
    (record,) = json.loads((out / "report.json").read_text())["experiments"]
    assert record["passed"] is False and record["metrics"]["bracket_ok"] is True
    assert record["metrics"]["max_err_per_mass"] > 1e-5


def test_seed_override_changes_report(tmp_path):
    cfg = base_config(
        experiments=[{"kind": "energy_comparability", "params": {"family_size": 10}}]
    )
    path = write_config(tmp_path, cfg)
    metrics = []
    for seed, sub in ((0, "s0"), (123, "s123")):
        main(["run", "--config", path, "--out", str(tmp_path / sub), "--seed", str(seed)])
        rep = json.loads((tmp_path / sub / "report.json").read_text())
        metrics.append(rep["experiments"][0]["metrics"]["ratio_max"])
    assert metrics[0] != metrics[1]


def test_inline_space_config(tmp_path):
    cfg = base_config(
        space={
            "dist": [[0, 1], [1, 0]],
            "mu": [1, 1],
            "cond": [[0, 1], [1, 0]],
        },
        experiments=[{"kind": "heat_properties", "params": {"ts": [1.0]}}],
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0


def test_normalize_rejects_non_object():
    with pytest.raises(ConfigParseError):
        normalize_config([1, 2, 3])
    with pytest.raises(ConfigParseError, match="space"):
        normalize_config({})


def test_max_principle_batch_decomposes_once(tmp_path, monkeypatch):
    import fraclap.cli as cli

    real = cli.decompose
    calls = []

    def counting(space, *args, **kwargs):
        calls.append(space)
        return real(space, *args, **kwargs)

    monkeypatch.setattr(cli, "decompose", counting)
    cfg = normalize_config(
        base_config(
            theta=[0.25, 0.75],
            experiments=[{"kind": "max_principle_batch", "params": {"n_seeds": 5}}],
        )
    )
    report = cli.run(cfg, str(tmp_path / "out"))
    assert report["summary"]["n_failed"] == 0
    assert len(calls) == 1


def test_pinned_solves_factor_the_smaller_side(tmp_path, monkeypatch):
    # no kind forms the n x n fractional stiffness, and each pinned solve
    # factors one matrix, of order min(|Omega|, |c|): 76 for the interior of
    # grid2d nx=20 (324 points, 76 on the rim).  Per theta those are the
    # spectral solve and the extension preconditioner of dirichlet_routes,
    # the batch of max_principle_batch and the solve of harnack_scan.  An
    # order up to dirichlet._CHOLESKY_LEAF is factored by one call of
    # np.linalg.cholesky; a larger one by halves, one call per leaf
    from fraclap.energy import FracEnergyForm

    def unread(form):
        raise AssertionError("a run read FracEnergyForm.stiffness")

    monkeypatch.setattr(FracEnergyForm, "stiffness", property(unread))
    # every numpy Cholesky factorization of the run is counted
    real, orders = np.linalg.cholesky, []

    def counting(a, *args, **kwargs):
        orders.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    kinds = ("dirichlet_routes", "max_principle_batch", "harnack_scan")
    space = {"fixture": {"kind": "grid2d", "params": {"nx": 20}}}
    cfg = base_config(space=space, theta=[0.25, 0.75], experiments=[{"kind": k} for k in kinds])
    report = run(normalize_config(cfg), str(tmp_path / "out"))
    assert report["summary"]["n_failed"] == 0
    assert orders == [(76, 76)] * 8


@pytest.mark.parametrize(
    "fixture_spec",
    [
        {"kind": "path", "params": {"m": 8}},  # a parameter the builder does not take
        "path",  # descriptor not an object
        {"kind": "path", "params": [8]},  # params not an object
    ],
)
def test_malformed_fixture_is_config_error(tmp_path, capsys, fixture_spec):
    path = write_config(tmp_path, base_config(space={"fixture": fixture_spec}))
    with pytest.raises(ConfigParseError, match="space"):
        load_config(path)
    assert main(["validate", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


def _fixture_config(kind, **params):
    return base_config(space={"fixture": {"kind": kind, "params": params}})


_RGG = {"n": 10, "radius": 0.5, "seed": 1}


@pytest.mark.parametrize(
    "config, seed_flag, named",
    [
        (_fixture_config("path", n=4.5), None, "'n'"),
        (_fixture_config("grid2d", nx="3"), None, "'nx'"),
        (_fixture_config("dumbbell", clique=3, bridge=1.5), None, "'bridge'"),
        (_fixture_config("random_geometric", **{**_RGG, "radius": "x"}), None, "'radius'"),
        (_fixture_config("random_geometric", **{**_RGG, "seed": -2}), None, "'seed'"),
        (_fixture_config("random_geometric", **{**_RGG, "seed": 1.5}), None, "'seed'"),
        (base_config(seed=-1), None, "'seed'"),
        (base_config(seed=True), None, "'seed'"),
        (base_config(), "-5", "--seed"),
    ],
    ids=[
        "path-n-float",
        "grid2d-nx-str",
        "dumbbell-bridge-float",
        "rgg-radius-str",
        "rgg-seed-negative",
        "rgg-seed-float",
        "config-seed-negative",
        "config-seed-bool",
        "flag-seed-negative",
    ],
)
def test_bad_fixture_param_or_seed_exits_2(tmp_path, capsys, config, seed_flag, named):
    # each of these once passed `validate` and ended `run` in a traceback
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    run_argv = ["run", "--config", path, "--out", str(out)]
    if seed_flag is None:
        assert main(["validate", "--config", path]) == 2
        assert named in capsys.readouterr().err
    else:
        run_argv += ["--seed", seed_flag]
    assert main(run_argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and named in err
    assert not out.exists()


@pytest.mark.parametrize("n", [80, 400])
def test_modulus_check_passes_on_long_paths(tmp_path, n):
    # the absolute error grows with mu(A) (1.3e-6 at n=80 against a bound of
    # 1e-6); per unit mass it stays near 1.6e-8 at every n
    cfg = base_config(
        space={"fixture": {"kind": "path", "params": {"n": n}}},
        theta=0.25,
        experiments=[{"kind": "modulus_check", "params": {}}],
    )
    report = run(normalize_config(cfg), str(tmp_path / "out"))
    (record,) = report["experiments"]
    assert record["passed"] is True
    assert record["metrics"]["max_err_per_mass"] <= 2e-8


def test_modulus_check_verdict_unit_free(tmp_path):
    # mu -> s mu scales the limit and the exact modulus alike
    space = fixture("path", n=8)
    reports = []
    for s in (1e-6, 1.0, 1e6):
        inline = {"dist": space.dist.tolist(), "mu": (s * space.mu).tolist()}
        cfg = base_config(
            space={**inline, "cond": space.graph.toarray().tolist()},
            theta=0.25,
            experiments=[{"kind": "modulus_check", "params": {}}],
        )
        (record,) = run(normalize_config(cfg), str(tmp_path / f"out{s}"))["experiments"]
        assert record["passed"] is True
        reports.append(record["metrics"]["max_err_per_mass"])
    assert reports[0] == pytest.approx(reports[1], rel=1e-6)
    assert reports[2] == pytest.approx(reports[1], rel=1e-6)


def test_unknown_experiment_param_named(tmp_path):
    cfg = base_config(
        experiments=[{"kind": "energy_comparability", "params": {"famly_size": 3}}]
    )
    with pytest.raises(ConfigParseError) as err:
        load_config(write_config(tmp_path, cfg))
    assert "famly_size" in str(err.value)
    assert "family_size" in str(err.value)  # the allowed keys are listed


@pytest.mark.parametrize(
    "overrides, key, allowed",
    [
        (
            {"experiment": []},
            "experiment",
            ["experiments", "schema_version", "seed", "space", "theta"],
        ),
        ({"experiments": [{"kind": "energy_identity", "param": {}}]}, "param", ["kind", "params"]),
        ({"space": {"fixture": {"kind": "path", "prams": {"n": 8}}}}, "prams", ["kind", "params"]),
        (
            {"space": {"fixture": {"kind": "path", "params": {"n": 2}}, "dist": [[0, 1], [1, 0]]}},
            "dist",
            ["fixture"],
        ),
        (
            {"space": {"dist": [[0, 1], [1, 0]], "mu": [1, 1], "cond": [[0, 1], [1, 0]], "n": 2}},
            "n",
            ["cond", "dist", "mu"],
        ),
    ],
    ids=["top", "experiment", "fixture", "space", "inline space"],
)
def test_unknown_config_key_is_config_error(tmp_path, capsys, overrides, key, allowed):
    # a misspelled key would otherwise drop silently: a misspelled
    # `experiments` ran nothing and exited 0
    path = write_config(tmp_path, base_config(**overrides))
    out = tmp_path / "out"
    assert main(["validate", "--config", path]) == 2
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count(f"unknown keys [{key!r}]; allowed: {allowed}") == 2
    assert not out.exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.name)
def test_bundled_config_validates(path, capsys):
    assert main(["validate", "--config", str(path)]) == 0


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.name)
def test_normalized_config_runs_again(path, tmp_path, capsys):
    # validate's printout and a report's `config` carry schema_version; fed
    # back, each is the same config and gives the same report
    def normalized(config_path):
        capsys.readouterr()
        assert main(["validate", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK\n")
        return json.loads(out[len("OK\n") :])

    def report(config_path, out):
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        obj = json.loads((out / "report.json").read_text())
        del obj["metadata"]
        return obj

    printout = normalized(path)
    assert printout["schema_version"] == 1
    again = write_config(tmp_path, printout, "printout.json")
    assert normalized(again) == printout
    original = report(path, tmp_path / "original")
    assert report(again, tmp_path / "again") == original
    assert normalized(write_config(tmp_path, original["config"], "report.json")) == printout


@pytest.mark.parametrize("version", [2, 0, "1", True, None])
def test_other_schema_version_is_config_error(tmp_path, capsys, version):
    path = write_config(tmp_path, base_config(schema_version=version))
    assert main(["validate", "--config", path]) == 2
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count(f"schema_version {version!r} is not this runner's 1") == 2
    assert not (tmp_path / "out").exists()


def test_dtn_convergence_writes_its_table(tmp_path):
    ms = [8, 10, 12]
    cfg = base_config(
        space={"fixture": {"kind": "path", "params": {"n": 4}}},
        experiments=[{"kind": "dtn_convergence", "params": {"ms": ms}}],
    )
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    with open(out / "00_dtn_convergence.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["m", "y1", "max_err"]
    assert [int(row[0]) for row in rows[1:]] == ms
    assert all(len(row) == 3 for row in rows)


def test_dirichlet_routes_constant_complement_data(tmp_path):
    # one complement point: the data has no oscillation to judge the gap by
    params = {"m": 16, "omega_mask": [True, True, True, False]}
    cfg = base_config(
        space={"fixture": {"kind": "path", "params": {"n": 4}}},
        experiments=[{"kind": "dirichlet_routes", "params": params}],
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    (rec,) = report["experiments"]
    assert rec["passed"] is True
    assert rec["metrics"]["gap_over_osc"] is None
    assert rec["params"] == params  # the user's params, without the defaults


def test_dirichlet_routes_reports_correction_passes(tmp_path):
    cfg = base_config(
        space={"fixture": {"kind": "grid2d", "params": {"nx": 6}}},
        theta=[0.25, 0.5, 0.75],
        experiments=[{"kind": "dirichlet_routes", "params": {"m": 32}}],
    )
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for rec in report["experiments"]:
        assert 1 <= rec["metrics"]["correction_passes"] <= 2


def test_dirichlet_routes_nan_residual_exits_2(tmp_path, capsys):
    # at m = 1000 the geometric grid's first cells are so thin that dy^2
    # underflows and the cell stiffnesses w / dy^2 are infinite, which
    # would make every residual NaN: the operator's set-up rejects the
    # first such cell, so the run stops with exit 2 instead of reporting a
    # NaN gap
    cfg = base_config(experiments=[{"kind": "dirichlet_routes", "params": {"m": 1000}}])
    path = write_config(tmp_path, cfg)
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cell 0 [" in err and "too thin" in err and "residual" not in err


def test_empty_theta_list_is_config_error(tmp_path, capsys):
    cfg = base_config(theta=[], experiments=[{"kind": "energy_comparability", "params": {}}])
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert "theta" in capsys.readouterr().err
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2


_INLINE_K2 = {"dist": [[0, 1], [1, 0]], "mu": [1, 1], "cond": [[0, 1], [1, 0]]}
_INLINE_P3 = {
    "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]],
    "mu": [1, 1, 1],
    "cond": [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
}


@pytest.mark.parametrize(
    "config, named",
    [
        (base_config(theta=None), "'theta'"),
        (base_config(space={**_INLINE_K2, "dist": [[0, 1], [1]]}), "dist"),
        (base_config(space={**_INLINE_K2, "dist": "x"}), "dist"),
        (base_config(space={**_INLINE_K2, "mu": 5}), "mu"),
        (base_config(space={**_INLINE_K2, "cond": [[0, 0], [0, 0]]}), "2 components"),
        (
            base_config(space={**_INLINE_P3, "dist": [[0, 1, 3], [1, 0, 1], [3, 1, 0]]}),
            "witness triple 0,1,2",
        ),
    ],
    ids=[
        "theta-null",
        "dist-ragged",
        "dist-string",
        "mu-scalar",
        "cond-disconnected",
        "dist-triangle",
    ],
)
def test_bad_config_values_exit_2_without_traceback(tmp_path, capsys, config, named):
    # each of these once ended in a TypeError or ValueError traceback, or
    # passed `validate` and then failed `run`; both now reject it alike
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    for argv in (["validate", "--config", path], ["run", "--config", path, "--out", str(out)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and "Traceback" not in err and named in err
    assert not out.exists()


@pytest.mark.parametrize(
    "mask, message",
    [
        ([True, True, False, False], "4 entries, space has 8 points"),
        ([0, 1, 1, 1, 1, 1, 1, 0], "list of booleans"),
        ("interior", "list of booleans"),
        # `validate` once passed these, and `run` then failed on the domain
        ([True] * 8, "experiments[0] (dirichlet_routes): omega_mask leaves the domain or"),
        ([False] * 8, "experiments[0] (dirichlet_routes): omega_mask leaves the domain or"),
    ],
    ids=["short", "integers", "string", "all_true", "all_false"],
)
def test_bad_omega_mask_is_config_error(tmp_path, capsys, mask, message):
    cfg = base_config(
        experiments=[{"kind": "dirichlet_routes", "params": {"omega_mask": mask}}]
    )
    path = write_config(tmp_path, cfg)
    assert main(["validate", "--config", path]) == 2
    assert message in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize(
    "kind, params",
    [
        ("harnack_scan", {"radius": -1}),
        ("harnack_scan", {"radius": "1"}),
        ("codim_check", {"rs": []}),
        ("codim_check", {"rs": [0.5, float("inf")]}),
        ("heat_properties", {"subordination_ts": []}),
        ("heat_properties", {"ts": []}),
        ("heat_properties", {"ts": [0.1, "1.0"]}),
        ("dtn_convergence", {"ms": []}),
        ("dtn_convergence", {"ms": [16]}),  # one point fits no slope
        ("dtn_convergence", {"ymax": 0}),
        ("energy_comparability", {"family_size": "3"}),
        ("energy_comparability", {"family_size": True}),
        ("energy_identity", {"lams": []}),
        ("energy_identity", {"tol": float("nan")}),
        ("modulus_check", {"hs": []}),
        ("modulus_check", {"ms": [1024.5, 2048]}),
        ("max_principle_batch", {"n_seeds": 0}),
        # sample points and verdict thresholds are fixed in code, so naming
        # one is an unknown param even at its fixed value
        ("heat_properties", {"subordination_ts": [0.1, 1.0]}),
        ("dtn_convergence", {"ymax": None}),
        ("energy_identity", {"lams": [0.5, 1.0, 2.0]}),
        ("energy_identity", {"tol": 1e-4}),
        ("modulus_check", {"hs": [0.5, 1.0, 2.0]}),
        ("modulus_check", {"tol": 1e-7}),
        ("codim_check", {"rs": [0.25, 0.5, 1.0]}),
        ("codim_check", {"tol": 1e-12}),
        ("codim_check", {"m": 64}),
    ],
)
def test_bad_experiment_param_is_config_error(tmp_path, capsys, kind, params):
    path = write_config(tmp_path, base_config(experiments=[{"kind": kind, "params": params}]))
    (key,) = params
    with pytest.raises(ConfigParseError) as err:
        load_config(path)
    assert repr(key) in str(err.value)
    assert main(["validate", "--config", path]) == 2
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, params",
    [
        ("dtn_convergence", {"ms": [4, 6]}),
        ("dtn_convergence", {"ms": [8, 7]}),
        ("modulus_check", {"ms": [2, 2048]}),
        ("dirichlet_routes", {"m": 7}),
    ],
)
def test_grid_size_below_minimum_is_config_error(tmp_path, capsys, kind, params):
    # the extension grid needs MIN_GRID_NODES nodes: caught at validate, not
    # when the run reaches build_grid
    path = write_config(tmp_path, base_config(experiments=[{"kind": kind, "params": params}]))
    (key,) = params
    message = f"'{key}' grid sizes must be at least {MIN_GRID_NODES}"
    with pytest.raises(ConfigParseError, match=message):
        load_config(path)
    assert main(["validate", "--config", path]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, sizes, run_error",
    [
        ("dtn_convergence", lambda m: {"ms": [m - 1, m]}, "unresolvable"),
        ("dirichlet_routes", lambda m: {"m": m}, "too thin"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_grid_whose_first_node_vanishes_is_config_error(tmp_path, capsys, kind, sizes, run_error):
    # build_grid's first geometric node is Ymax * 2^-(m-1), the power formed
    # first: 2^-1075 rounds to 0, so from m = 1076 the node is 0 for every
    # finite Ymax, and validate rejects the config.  At m = 1075 the node
    # depends on Ymax, which only the run knows: validate passes, and the
    # run rejects the thin first cell with no warning: it stops before the
    # extension, whose profiles overflow on that grid
    at = write_config(tmp_path, base_config(experiments=[{"kind": kind, "params": sizes(1076)}]))
    with pytest.raises(ConfigParseError, match="grid size 1076 puts the first node"):
        load_config(at)
    assert main(["validate", "--config", at]) == 2
    assert "for every finite Ymax" in capsys.readouterr().err
    cfg = base_config(experiments=[{"kind": kind, "params": sizes(1075)}])
    below = write_config(tmp_path, cfg, name="below.json")
    assert main(["validate", "--config", below]) == 0
    capsys.readouterr()
    assert main(["run", "--config", below, "--out", str(tmp_path / "out")]) == 2
    assert run_error in capsys.readouterr().err


def test_experiment_params_fitting_the_defaults_accepted(tmp_path):
    # ints where a default is a float, and every default itself
    experiments = [
        {"kind": "harnack_scan", "params": {"radius": 1}},
        {"kind": "dtn_convergence", "params": {"ms": [8, 10]}},
        {"kind": "heat_properties", "params": {"ts": [1, 10]}},
    ]
    experiments += [{"kind": kind, "params": spec.defaults} for kind, spec in _KINDS.items()]
    assert load_config(write_config(tmp_path, base_config(experiments=experiments)))



# pure numbers, unchanged by the units of mu and cond up to roundoff
_DIMENSIONLESS = (
    "markov_max_err",
    "semigroup_max_err",
    "min_log10_bound",
    "bound_max_excess",
    "subordination_err",
)


def _heat_properties(sp):
    params = _KINDS["heat_properties"].defaults
    metrics, passed, _ = _exp_heat_properties({"space": sp, "dec": decompose(sp)}, params)
    return metrics, passed


@given(name=st.sampled_from(["path8", "grid44"]), log_s=st.floats(-6, 6))
@settings(max_examples=25, deadline=None)
def test_heat_properties_unit_free(path8, grid44, name, log_s):
    # (mu, cond) -> s (mu, cond) leaves Delta unchanged and scales kernel
    # entries by 1/s; an absolute semigroup bound failed at s = 1e-6
    s = 10.0**log_s
    sp = {"path8": path8, "grid44": grid44}[name]
    ref_metrics, ref_passed = _heat_properties(sp)
    metrics, passed = _heat_properties(build_space(sp.dist, s * sp.mu, s * sp.graph.toarray()))
    assert passed is ref_passed is True
    for key in _DIMENSIONLESS:
        assert abs(metrics[key] - ref_metrics[key]) <= 1e-13, key


def test_heat_properties_semigroup_verdict_sees_orthogonality_defect(dumbbell55):
    # one eigenvector scaled by 1 + 1e-9: Phi^T M Phi - I gets one diagonal
    # entry of 2e-9, which decompose's own check (max-abs <= 1e-8) accepts.
    # The scaled mode is orthogonal to the constants, so Markov still holds,
    # and only the semigroup verdict can fail
    dec = decompose(dumbbell55)
    phis = dec.phis.copy()
    phis[:, 1] *= 1.0 + 1e-9
    ortho_defect = spectral._validate_decomposition(dumbbell55, dec.lambdas, phis)
    bad = spectral.SpectralDecomposition(dumbbell55, dec.lambdas, phis, ortho_defect)
    params = _KINDS["heat_properties"].defaults
    metrics, passed, _ = _exp_heat_properties({"space": dumbbell55, "dec": bad}, params)
    assert passed is False
    assert abs(metrics["semigroup_max_err"] - 2e-9) <= 1e-13
    assert metrics["markov_max_err"] <= 1e-10
    # the composed defect at t = 1 is of the same order, so the verdict
    # flags a semigroup law that does fail
    k = spectral.heat_kernel(bad, 1.0)
    half = spectral.heat_kernel(bad, 0.5)
    comp = (half * dumbbell55.mu[None, :]) @ half
    assert np.max(np.abs(comp - k)) / k.max() > 1e-10


@pytest.mark.parametrize("n", [100, 200])
def test_heat_properties_positive_on_long_paths(n):
    # the series route underflowed to 0.0 here; the walk bound is a logarithm
    metrics, passed = _heat_properties(fixture("path", n=n))
    assert passed is True
    assert -800 < metrics["min_log10_bound"] < -300
    assert -1e-12 < metrics["bound_max_excess"] < 0.0


@pytest.mark.filterwarnings("error")
def test_heat_properties_one_point_space():
    # no edges and beta = 0: the kernel is 1/mu, and the bound is exact.  The
    # row minimum of cond over no edges is inf, and inf / 0 raises no warning
    metrics, passed = _heat_properties(build_space([[0.0]], [2.0], [[0.0]]))
    assert passed is True
    assert abs(metrics["min_log10_bound"]) <= 1e-15
    assert abs(metrics["bound_max_excess"]) <= 1e-15


def test_heat_properties_past_series_time_cap(tmp_path):
    # beta * t = 800 on path8, past the series route's cap of 600
    cfg = base_config(experiments=[{"kind": "heat_properties", "params": {"ts": [400.0]}}])
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    metrics = json.loads((out / "report.json").read_text())["experiments"][0]["metrics"]
    assert np.isfinite(metrics["min_log10_bound"])
    # e^-800 puts every entry of the bound below the kernel's roundoff
    assert metrics["bound_max_excess"] == -1.0

