"""The four benchmark workloads and the yflow command lines that run them.

Each workload is one ``yflow`` job, run as ``python -m yflow.cli ...``.
The seed reaches the program only through the generated scenario file
(its ``seed =`` key, which draws the Sobolev test fields) and through
``auxcheck --seed``; everything else about a workload is fixed, so a new
seed gives fresh inputs of the same size.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# The README scenario; refine_sweep fans it out over grid.M.
README_SCENARIO = {
    "profile.name": "perturbed_sphere",
    "profile.eps": "0.1",
    "manifold.n": "3",
    "grid.M": "256",
    "grid.gamma": "2.0",
    "flow.T": "1.0",
    "flow.dt_init": "1e-3",
    "flow.dt_max": "2e-3",
    "flow.snapshot_every": "10",
    "monitors.p": "2,4,8,inf",
    "output.plots": "true",
}

CATALOGUE_SAMPLES = 500_000
CATALOGUE_IDS = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9", "I10",
                 "I11", "I12", "I13", "LIMITS")
SHARPNESS_IDS = ("I2", "I4")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Optional[Dict[str, str]]   # None: the auxcheck catalogue
    sweep: Tuple[int, ...] = ()          # grid.M values for --sweep

    @property
    def is_flow(self) -> bool:
        return self.scenario is not None

    def config_text(self, seed: int, cut: bool = False, **override: str) -> str:
        """Scenario file for this seed; ``cut`` shrinks it to one step, no monitors, no plots."""
        kv = dict(self.scenario, seed=str(seed), **override)
        if cut:
            kv["flow.T"] = kv["flow.dt_init"]
            kv["monitors.enable"] = "none"
            # a one-step series can span a single ulp, on which the plot's
            # tick loop never ends
            kv["output.plots"] = "false"
        return "".join(f"{k} = {v}\n" for k, v in kv.items())

    def argv(self, config: Path, out: Path, seed: int, cut: bool = False) -> List[str]:
        """Arguments after ``python -m yflow.cli``."""
        if not self.is_flow:
            if cut:
                return ["auxcheck", "--samples", "1", "--seed", str(seed)]
            return ["auxcheck", "--samples", str(CATALOGUE_SAMPLES), "--sharpness",
                    "--seed", str(seed)]
        args = ["run", "--config", str(config), "--out", str(out), "--quiet"]
        if self.sweep:
            args += ["--sweep", "grid.M=" + ",".join(map(str, self.sweep))]
        return args

    def output_dirs(self, out: Path) -> Dict[str, Path]:
        """Label -> directory holding timeseries.csv, monitors.csv and ledger.txt."""
        if not self.is_flow:
            return {}
        if self.sweep:
            return {f"M{m}": out / f"grid.M={m}" for m in self.sweep}
        return {self.name: out}


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("long_flow", {
        **README_SCENARIO, "grid.M": "512", "flow.T": "5.0", "flow.dt_init": "5e-4",
        "flow.dt_max": "5e-4", "flow.snapshot_every": "25", "output.plots": "false"}),
    Workload("dense_monitors", {
        **README_SCENARIO, "profile.eps": "0.2", "grid.M": "128", "flow.T": "2.0",
        "flow.dt_init": "1e-3", "flow.dt_max": "1e-3", "flow.snapshot_every": "1",
        "flow.checkpoint_every": "100", "monitors.samples": "50",
        "monitors.p": "2,3,4,6,8,inf"}),
    Workload("refine_sweep", README_SCENARIO, sweep=(256, 512, 1024, 2048)),
    Workload("catalogue", None),
)}
