"""Output checks that decide whether a benchmark job failed.

A flow job fails when it exits non-zero, when ``monitors.csv`` holds a
``FAIL`` row, when a rerun's ``timeseries.csv``, ``monitors.csv`` or
``ledger.txt`` differs byte-wise from the first run of the same
invocation, or when the final row leaves the stored reference.  A
catalogue job fails on any in-region violation, a sharpness probe that
finds no violation, or a wrong row count.  The sha256 of each output is
kept as the behaviour fingerprint.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import CATALOGUE_IDS, CATALOGUE_SAMPLES, SHARPNESS_IDS, Workload

FLOW_FILES = ("timeseries.csv", "monitors.csv", "ledger.txt")
REFERENCE_COLUMNS = ("rho", "min_u", "max_u", "energy_S_rho")
REL_TOL = 1e-9
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> Dict[str, Dict[str, float]]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def final_row(timeseries: Path) -> Dict[str, float]:
    lines = timeseries.read_text(encoding="ascii").splitlines()
    return dict(zip(lines[0].split(","), map(float, lines[-1].split(","))))


def accepted_steps(out_dir: Path) -> int:
    """Rows of timeseries.csv minus the header and the initial state."""
    with open(out_dir / "timeseries.csv", "rb") as fh:
        return sum(1 for _ in fh) - 2


def fingerprint(out_dirs: Dict[str, Path]) -> Dict[str, str]:
    """sha256 of each output file, keyed ``label/file``."""
    out = {}
    for label, d in out_dirs.items():
        for name in FLOW_FILES:
            path = d / name
            if path.is_file():
                out[f"{label}/{name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def reference_problems(label: str, row: Dict[str, float],
                       ref: Dict[str, float]) -> List[str]:
    problems = []
    for col in REFERENCE_COLUMNS:
        # energy_S_rho = int (S - rho)^2 dVol_g decays to rounding level, where
        # its own digits are noise; rho^2 is its natural scale.
        scale = ref["rho"] ** 2 if col == "energy_S_rho" else abs(ref[col])
        if not abs(row.get(col, float("nan")) - ref[col]) <= REL_TOL * scale:
            problems.append(f"{label}: final {col} {row.get(col)!r} is not within "
                            f"{REL_TOL:g} of the reference {ref[col]!r}")
    return problems


def flow_problems(out_dirs: Dict[str, Path], reference: Dict[str, Dict[str, float]],
                  first: Optional[Dict[str, str]]) -> Tuple[List[str], Dict[str, str]]:
    """Problems of one flow job's outputs, plus their fingerprint.

    ``first`` is the fingerprint of the invocation's first run; None when
    this is that run.
    """
    problems: List[str] = []
    for label, d in out_dirs.items():
        missing = [name for name in FLOW_FILES if not (d / name).is_file()]
        if missing:
            problems.append(f"{label}: missing {', '.join(missing)}")
            continue
        with open(d / "monitors.csv", encoding="ascii") as fh:
            fails = sum(1 for line in fh if line.rstrip("\n").endswith(",FAIL"))
        if fails:
            problems.append(f"{label}: {fails} FAIL rows in monitors.csv")
        try:
            row = final_row(d / "timeseries.csv")
        except (ValueError, IndexError):
            problems.append(f"{label}: unreadable timeseries.csv")
            continue
        problems += reference_problems(label, row, reference[label])
    prints = fingerprint(out_dirs)
    if first is not None:
        problems += [f"rerun differs from the first run: {key}"
                     for key in sorted(first) if prints.get(key) != first[key]]
    return problems, prints


def job_problems(wl: Workload, code: int, stdout: str, out: Path,
                 reference: Dict[str, Dict[str, float]],
                 first: Optional[Dict[str, str]] = None) -> Tuple[List[str], Dict[str, str], int]:
    """Problems of one full job, its fingerprint, and its work done:
    accepted steps for a flow job, samples evaluated for the catalogue."""
    problems = [] if code == 0 else [f"exit code {code}"]
    if not wl.is_flow:
        more, work = catalogue_problems(stdout)
        return problems + more, {}, work
    dirs = wl.output_dirs(out)
    more, prints = flow_problems(dirs, reference, first)
    work = sum(accepted_steps(d) for d in dirs.values() if (d / "timeseries.csv").is_file())
    return problems + more, prints, work


def catalogue_problems(stdout: str) -> Tuple[List[str], int]:
    """Problems of one ``auxcheck --sharpness`` table, plus the samples it evaluated."""
    problems: List[str] = []
    rows = {}
    for line in stdout.splitlines():
        tok = line.split()
        if len(tok) == 4 and tok[0] in CATALOGUE_IDS and tok[1].isdigit() and tok[2].isdigit():
            rows[tok[0]] = (int(tok[1]), int(tok[2]))
    if sorted(rows) != sorted(CATALOGUE_IDS):
        problems.append(f"catalogue table has rows {sorted(rows)}, "
                        f"expected the {len(CATALOGUE_IDS)} ids")
    for ineq_id, (samples, violations) in sorted(rows.items()):
        if violations:
            problems.append(f"{ineq_id}: {violations} in-region violations")
        if samples != CATALOGUE_SAMPLES:
            problems.append(f"{ineq_id}: {samples} samples, expected {CATALOGUE_SAMPLES}")
    for ineq_id in SHARPNESS_IDS:
        if f"  {ineq_id}: violated at " not in stdout:
            problems.append(f"{ineq_id}: sharpness probe found no violation")
    return problems, sum(s for s, _ in rows.values())
