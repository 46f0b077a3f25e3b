"""Guards on the public surface: every exported name resolves, every
function the benchmark's tracer wraps still exists under its layer, and the
number of settable parameters does not grow."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fraclap

MODULES = sorted(info.name for info in pkgutil.iter_modules(fraclap.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fraclap.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_package_exports_are_public_names():
    # each name fraclap/__init__ re-exports is in its home module's __all__
    tree = ast.parse(Path(fraclap.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"fraclap.{node.module}")
            public = getattr(module, "__all__", dir(module))
            for alias in node.names:
                assert alias.name in public, f"fraclap.{node.module}.{alias.name}"
                assert getattr(fraclap, alias.name) is getattr(module, alias.name)


def test_traced_layers_exist():
    # LAYERS is read from the tracer's source, which is not imported here
    tree = ast.parse(TRACER.read_text())
    (layers,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "LAYERS" for target in node.targets)
    ]
    layers = ast.literal_eval(layers)
    assert layers
    for layer, functions in layers.items():
        module = importlib.import_module(f"fraclap.{layer}")
        for fn in functions:
            assert callable(getattr(module, fn, None)), f"fraclap.{layer}.{fn}"


def test_cli_builds_fixtures_through_fixture(tmp_path, monkeypatch):
    # the tracer times `space.fixture` by patching the module attribute, so
    # the CLI must reach the builders through that name
    import fraclap.space as space
    from fraclap import cli

    calls = []
    real = space.fixture

    def counting(kind, **params):
        calls.append(kind)
        return real(kind, **params)

    monkeypatch.setattr(space, "fixture", counting)
    config = cli.normalize_config({"space": {"fixture": {"kind": "path", "params": {"n": 4}}}})
    cli.run(config, str(tmp_path / "out"))
    assert calls == ["path"]


def _modules_loaded(code, setup=""):
    """The modules a fresh interpreter loads running `code` after `setup`,
    with this checkout's package on its path."""
    src = str(Path(fraclap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        f"import json, sys\n{setup}\nbefore = set(sys.modules)\n{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.strip().splitlines()[-1]))


def _loaded_after(code, modules):
    """The modules of `modules` that a fresh interpreter running `code` loads."""
    return sorted(set(modules) & _modules_loaded(code))


def test_cli_import_leaves_quadrature_and_optimize_unloaded():
    # scipy.special is imported on first use, the quadratures and the dense
    # linear algebra are numpy's, and the runner has no job pool, so
    # `import fraclap.cli` loads none of these, nor logging
    modules = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.special")
    modules += ("concurrent.futures", "logging")
    assert _loaded_after("import fraclap.cli", modules) == []


def test_default_config_run_leaves_integrate_and_optimize_unloaded(tmp_path):
    # every kind of configs/default.json runs, energy_identity's mode energy
    # on the exp-sinh rule in numpy, so the run loads no scipy quadrature
    config = Path(fraclap.__file__).resolve().parents[2] / "configs" / "default.json"
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "out")]
    code = f"from fraclap.cli import main; assert main({argv!r}) == 0"
    assert _loaded_after(code, ("scipy.integrate", "scipy.optimize")) == []


# what a run may load after `import fraclap.cli`: the modules numpy's random
# generators and the command line's parser load on first use (numpy.random
# with its bit generators and hashlib; locale, through argparse's gettext).
# Any other module is one the run pays for and, on the runs checked here,
# does not need: scipy (`scipy.sparse` alone is about 12.5 MiB), numpy.ma
# (np.unique without an inverse asks it whether its input is masked),
# numpy.polynomial or the job pool
_RUN_MAY_LOAD = "import argparse, numpy.random; argparse.ArgumentParser()"


def _unexpected_run_loads(config, tmp_path):
    """The modules a run of `config` loads after `import fraclap.cli` that
    `_RUN_MAY_LOAD` does not load in a fresh interpreter."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    code = f"from fraclap.cli import main; assert main({argv!r}) == 0"
    loaded = _modules_loaded(code, setup="import fraclap.cli")
    return sorted(loaded - _modules_loaded(_RUN_MAY_LOAD))


def _imported_modules(tree):
    """Every absolute module `tree` imports, at module level or in a
    function; `from scipy import integrate` counts as scipy.integrate."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return found


@pytest.mark.parametrize("oracle_only", ["scipy.integrate", "scipy.sparse.linalg"])
def test_no_module_imports_an_oracle_only_scipy_module(oracle_only):
    # QUADPACK and scipy's cg are the tests' oracles (tests/oracles.py, the
    # plain-CG trace in tests/test_dirichlet.py); the library runs its own
    # quadrature and defect correction
    found = [
        (path.name, module)
        for path in sorted(Path(fraclap.__file__).parent.glob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text()))
        if module == oracle_only or module.startswith(oracle_only + ".")
    ]
    assert found == []


def test_no_module_imports_a_job_pool():
    # the runner runs its jobs one at a time, in config order: no module
    # imports concurrent.futures, at module level or in a function
    found = [
        (path.name, module)
        for path in sorted(Path(fraclap.__file__).parent.glob("*.py"))
        for module in _imported_modules(ast.parse(path.read_text()))
        if module.split(".")[0] == "concurrent"
    ]
    assert found == []


def test_routes_run_leaves_special_quadrature_and_spatial_unloaded(tmp_path):
    # both Dirichlet routes and the batched spectral solves on a grid
    # evaluate no special function, no quadrature and no Euclidean
    # distance, the extension route's defect correction is a numpy loop,
    # the grid's metric is certified by its hop table, the eigensolves and
    # Cholesky factors are numpy's, and the profile table finds the distinct
    # eigenvalues by a comparison of neighbours, so a run of them loads no
    # scipy module, numpy.ma or numpy.polynomial, and on one thread no pool
    config = {
        "space": {"fixture": {"kind": "grid2d", "params": {"nx": 4}}},
        "theta": [0.25, 0.75],
        "experiments": [
            {"kind": "dirichlet_routes", "params": {}},
            {"kind": "max_principle_batch", "params": {}},
        ],
    }
    assert _unexpected_run_loads(config, tmp_path) == []


def test_random_geometric_run_leaves_spatial_special_and_quadrature_unloaded(tmp_path):
    # the Euclidean distances are summed in numpy, the walk bound takes log j!
    # from math.lgamma, the subordination check integrates its distinct
    # eigenvalues with a numpy rule whose nodes are constants, the
    # components are counted in numpy, the metric is certified by its planar
    # embedding, and the eigensolves and Cholesky factors are numpy's: a run
    # of the kernel and energy kinds on a random_geometric space loads no
    # scipy module (not even the sparse solvers that only the fallback
    # metric checks use), numpy.ma or numpy.polynomial
    config = {
        "space": {
            "fixture": {"kind": "random_geometric", "params": {"n": 40, "radius": 0.4, "seed": 0}}
        },
        "theta": [0.5],
        "experiments": [
            {"kind": "heat_properties", "params": {"ts": [0.1, 1.0]}},
            {"kind": "energy_comparability", "params": {"family_size": 5}},
            {"kind": "max_principle_batch", "params": {"n_seeds": 3}},
        ],
    }
    assert _unexpected_run_loads(config, tmp_path) == []


# the scipy modules the package imports at module level, which every
# `import fraclap` loads: none.  The dense eigensolves and Cholesky factors
# are numpy's, and the conductance graph is a record of numpy arrays, so
# every scipy module is imported on first use, in the function that needs it
_MODULE_LEVEL_SCIPY = ()


def _module_level_imports(tree):
    """The absolute modules `tree` imports outside its function bodies, the
    imports that run when the module is."""
    nodes, found = list(tree.body), []
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
        nodes.extend(ast.iter_child_nodes(node))
    return found


def test_no_module_imports_scipy_at_module_level():
    trees = [
        (path.name, ast.parse(path.read_text()))
        for path in sorted(Path(fraclap.__file__).parent.glob("*.py"))
    ]
    scipy = [
        (name, module)
        for name, tree in trees
        for module in _module_level_imports(tree)
        if module.split(".")[0] == "scipy"
    ]
    assert [(name, m) for name, m in scipy if m not in _MODULE_LEVEL_SCIPY] == []
    # the scan does see the scipy imports there are: those on first use
    assert any(
        module.split(".")[0] == "scipy" for _, tree in trees for module in _imported_modules(tree)
    )


def _is_dataclass(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(target, "id", None) == "dataclass"


def _settable_parameters():
    """(module, owner, name) of every function parameter with a default and
    every dataclass field with a default in the package's source."""
    found = []
    for path in sorted(Path(fraclap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                with_default = positional[len(positional) - len(args.defaults) :]
                with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                found += [(path.stem, node.name, a.arg) for a in with_default]
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                found += [
                    (path.stem, node.name, field.target.id)
                    for field in node.body
                    if isinstance(field, ast.AnnAssign) and field.value is not None
                ]
    return found


def _package_exports():
    """The names fraclap/__init__ re-exports from its modules."""
    tree = ast.parse(Path(fraclap.__file__).read_text())
    return [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def test_public_name_count():
    # a new public name has to replace an old one
    exports = _package_exports()
    assert len(exports) == 44, exports


def test_settable_parameter_count():
    # the error budgets of the quadrature and of the defect correction are
    # module constants, not options; a new knob has to replace an old one
    found = _settable_parameters()
    assert len(found) <= 6, found


def test_config_parameter_count():
    # a param no config sets is a constant of its kind, and no verdict
    # threshold is a param; a new param has to replace an old one
    from fraclap.cli import _KINDS

    assert sum(len(kind.defaults) for kind in _KINDS.values()) == 10


def test_readme_scripts_list_matches_scripts():
    # README's Scripts section lists each script under scripts/, no other
    root = Path(fraclap.__file__).resolve().parents[2]
    section = (root / "README.md").read_text().split("\n## Scripts\n")[1].split("\n## ")[0]
    listed = re.findall(r"^- `(scripts/[\w.]+)`", section, re.MULTILINE)
    assert sorted(listed) == sorted(f"scripts/{path.name}" for path in root.glob("scripts/*.py"))


def test_readme_kinds_table_matches_kinds():
    # each row of README's kinds table names its kind's params with their
    # defaults as JSON, or "none"
    from fraclap.cli import _KINDS

    readme = (Path(fraclap.__file__).resolve().parents[2] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)`[^|]* \| (.+) \|$", readme, re.MULTILINE)
    param = re.compile(r"`(\w+)` \(([^)]*)\)")
    table = {kind: {key: json.loads(v) for key, v in param.findall(cell)} for kind, cell in rows}
    assert table == {kind: spec.defaults for kind, spec in _KINDS.items()}
