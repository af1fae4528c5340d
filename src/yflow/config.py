"""Flat ``key = value`` scenario configuration.

Dotted keys address sections (``flow.T``, ``grid.M``); ``#`` starts a
comment; unknown keys are errors so typos surface as exit-code-2 parse
failures with a line and column.  The format is deliberately flat for
diff-friendliness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .bounds import MONITOR_NAMES, check_chain_parameters
from .flow import FlowConfig
from .geometry import DiscretizedManifold, RadialGrid, WarpedProfile, build_manifold, make_profile

__all__ = ["ConfigError", "ScenarioConfig", "parse_kv", "parse_scenario", "load_scenario"]


class ConfigError(ValueError):
    """Malformed configuration; carries (line, column) for the CLI."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        super().__init__(
            f"line {line}, column {column}: {message}" if line else message
        )


_KNOWN_KEYS = {
    "profile.name": str,
    "profile.eps": float,
    "profile.a": float,
    "profile.cap_radius": float,
    "profile.x_max": float,
    "profile.path": str,
    "manifold.n": int,
    "grid.M": int,
    "grid.gamma": float,
    "flow.T": float,
    "flow.cfl": float,
    "flow.dt_init": float,
    "flow.dt_min": float,
    "flow.dt_max": float,
    "flow.vol_tol": float,
    "flow.positivity_floor": float,
    "flow.checkpoint_every": int,
    "flow.snapshot_every": int,
    "monitors.enable": str,
    "monitors.p": str,
    "monitors.samples": int,
    "audit.q": float,
    "yamabe.max_iter": int,
    "moser.beta": float,
    "moser.k_max": int,
    "output.dir": str,
    "output.plots": str,
    "seed": int,
}


def parse_kv(text: str, source: str = "<config>") -> Dict[str, object]:
    """Parse the flat key = value format, validating keys and types."""
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if "=" not in body:
            col = len(body) - len(body.lstrip()) + 1
            raise ConfigError(f"expected 'key = value', got {body.strip()!r}",
                              lineno, col)
        key_part, val_part = body.split("=", 1)
        key = key_part.strip()
        val = val_part.strip()
        col = body.index("=") + 1
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}", lineno, 1)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        caster = _KNOWN_KEYS[key]
        try:
            values[key] = caster(val)
        except ValueError:
            raise ConfigError(
                f"cannot parse value {val!r} for {key!r} as {caster.__name__}",
                lineno, col + 1,
            ) from None
    return values


def _section(kv: Dict[str, object], name: str) -> Dict[str, object]:
    """The keys of one dotted section, without the section prefix."""
    return {k.split(".", 1)[1]: v for k, v in kv.items() if k.startswith(name + ".")}


def _parse_p_list(spec: str) -> Tuple[float, ...]:
    out = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if tok in ("inf", "infty", "oo"):
            out.append(math.inf)
        else:
            out.append(float(tok))
    if not out:
        raise ConfigError("monitors.p must list at least one exponent")
    for p in out:
        if not p >= 2.0:    # NaN fails too; inf passes
            raise ConfigError(f"monitor exponent p = {p:g} must be >= 2")
    return tuple(out)


@dataclass
class ScenarioConfig:
    """Everything one scenario run needs, resolved and validated."""

    profile: WarpedProfile
    grid: RadialGrid
    flow: FlowConfig
    monitors: Tuple[str, ...] = MONITOR_NAMES
    p_values: Tuple[float, ...] = (2.0, 4.0, 8.0, math.inf)
    sobolev_samples: int = 20
    audit_q: Optional[float] = None
    yamabe_max_iter: int = 300
    moser_beta: float = 2.0
    moser_k_max: int = 6
    output_dir: Optional[str] = None
    plots: bool = False
    seed: int = 0

    def build(self) -> DiscretizedManifold:
        return build_manifold(self.profile, self.grid)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text, source=path)


def parse_scenario(text: str, source: str = "<config>") -> ScenarioConfig:
    """Resolve and validate the text of a scenario file."""
    kv = parse_kv(text, source=source)

    prof_params = _section(kv, "profile")
    name = prof_params.pop("name", None)
    if name is None:
        raise ConfigError("missing required key 'profile.name'")
    n = int(kv.get("manifold.n", 3))
    flow_params = _section(kv, "flow")     # FlowConfig's own defaults fill the rest
    try:
        profile = make_profile(str(name), n=n, **prof_params)
        grid = RadialGrid(M=int(kv.get("grid.M", 256)),
                          gamma=float(kv.get("grid.gamma", 1.0)))
        flow = FlowConfig(T_final=float(flow_params.pop("T", 1.0)), **flow_params)
        check_chain_parameters(kv.get("moser.beta", 2.0), kv.get("moser.k_max", 6))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    enable = str(kv.get("monitors.enable", "all")).strip()
    if enable == "all":
        monitors = MONITOR_NAMES
    elif enable in ("none", ""):
        monitors = ()
    else:
        monitors = tuple(tok.strip() for tok in enable.split(",") if tok.strip())
        for mname in monitors:
            if mname not in MONITOR_NAMES:
                raise ConfigError(
                    f"unknown monitor {mname!r} (known: {', '.join(MONITOR_NAMES)})"
                )

    plots_raw = str(kv.get("output.plots", "false")).strip().lower()
    if plots_raw not in ("true", "false", "0", "1", "yes", "no"):
        raise ConfigError(f"output.plots must be boolean-like, got {plots_raw!r}")
    if not kv.get("audit.q", 1.0) > 0.0:
        raise ConfigError(f"audit.q must be positive, got {kv['audit.q']:g}")

    return ScenarioConfig(
        profile=profile,
        grid=grid,
        flow=flow,
        monitors=monitors,
        p_values=_parse_p_list(str(kv.get("monitors.p", "2,4,8,inf"))),
        sobolev_samples=int(kv.get("monitors.samples", 20)),
        audit_q=kv.get("audit.q"),
        yamabe_max_iter=int(kv.get("yamabe.max_iter", 300)),
        moser_beta=float(kv.get("moser.beta", 2.0)),
        moser_k_max=int(kv.get("moser.k_max", 6)),
        output_dir=kv.get("output.dir"),
        plots=plots_raw in ("true", "1", "yes"),
        seed=int(kv.get("seed", 0)),
    )
