"""Tests of the benchmark's output checker on real yflow outputs.

    python3 -m pytest perfbench/test_checks.py
"""
from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from checks import REFERENCE_COLUMNS, final_row, fingerprint, flow_problems
from jobs import yflow
from workloads import README_SCENARIO

SMALL = {**README_SCENARIO, "grid.M": "64", "flow.T": "0.05", "output.plots": "false",
         "seed": "3"}


@pytest.fixture(scope="module")
def real_run(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("real")
    cfg = work / "small.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in SMALL.items()), encoding="ascii")
    out = work / "out"
    job = yflow(["run", "--config", str(cfg), "--out", str(out), "--quiet"], work / "log", 120.0)
    assert job.code == 0, (work / "log" / "stderr.txt").read_text()
    return out


@pytest.fixture
def copy(real_run, tmp_path) -> Path:
    return Path(shutil.copytree(real_run, tmp_path / "copy"))


def _reference(out: Path) -> dict:
    row = final_row(out / "timeseries.csv")
    return {"run": {col: row[col] for col in REFERENCE_COLUMNS}}


def _flip_digit(path: Path, line_index: int) -> None:
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    line = lines[line_index]
    col = line.index(",") + 3                     # a digit inside the dt column
    assert line[col].isdigit()
    lines[line_index] = line[:col] + str((int(line[col]) + 1) % 10) + line[col + 1:]
    path.write_text("".join(lines), encoding="ascii")


def test_real_outputs_pass(real_run, copy):
    problems, _ = flow_problems({"run": copy}, _reference(real_run), fingerprint({"run": real_run}))
    assert problems == []


def test_flipped_digit_in_timeseries_fails(real_run, copy):
    _flip_digit(copy / "timeseries.csv", 5)
    problems, _ = flow_problems({"run": copy}, _reference(real_run), fingerprint({"run": real_run}))
    assert problems == ["rerun differs from the first run: run/timeseries.csv"]


def test_flipped_digit_in_final_row_leaves_the_reference(real_run, copy):
    path = copy / "timeseries.csv"
    lines = path.read_text(encoding="ascii").splitlines(keepends=True)
    cols = lines[-1].split(",")
    cols[2] = repr(float(cols[2]) * (1.0 + 1e-6))   # rho, off by 1e-6 relative
    lines[-1] = ",".join(cols)
    path.write_text("".join(lines), encoding="ascii")
    problems, _ = flow_problems({"run": copy}, _reference(real_run), None)
    assert len(problems) == 1 and problems[0].startswith("run: final rho")


def test_injected_fail_row_fails(real_run, copy):
    with open(copy / "monitors.csv", "a", encoding="ascii") as fh:
        fh.write("u_upper,0.05,1,0.5,-0.5,FAIL\n")
    problems, _ = flow_problems({"run": copy}, _reference(real_run), None)
    assert problems == ["run: 1 FAIL rows in monitors.csv"]
