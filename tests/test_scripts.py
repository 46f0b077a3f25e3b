"""Smoke tests of the study scripts: each `main()` runs with tiny arguments
and writes a CSV with the documented header and one row per data point."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name, args, out, monkeypatch):
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args, "--out", str(out)])
    load_script(name).main()
    with open(out, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize(
    "name, args, header, n_rows",
    [
        (
            "route_agreement_study",
            ["--nx", "3", "--thetas", "0.25", "0.75", "--levels", "2"],
            ["theta", "level", "h_max", "gap", "gap_over_osc"],
            2 * 2,
        ),
    ],
)
def test_script_writes_its_table(name, args, header, n_rows, tmp_path, monkeypatch):
    rows = run_script(name, args, tmp_path / f"{name}.csv", monkeypatch)
    assert rows[0] == header
    assert len(rows) == 1 + n_rows
    assert all(len(row) == len(header) for row in rows)
