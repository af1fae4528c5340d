"""Flat ``key = value`` scenario configuration.

Dotted keys address sections (``flow.T``, ``grid.M``); ``#`` starts a
comment; unknown keys are errors so typos surface as exit-code-2 parse
failures with a line and column.  The format is deliberately flat for
diff-friendliness.  Each key is read once, by its reader in ``_KNOWN_KEYS``,
and its value goes straight to a keyword argument of the profile function,
``RadialGrid`` or ``FlowConfig``, or to a ``ScenarioConfig`` field; a key the
file leaves out takes the default declared there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from .bounds import MONITOR_NAMES, P_DEFAULT, check_chain_parameters
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


def _monitor_list(spec: str) -> Tuple[str, ...]:
    if spec == "all":
        return MONITOR_NAMES
    if spec == "none":
        return ()
    names = tuple(tok.strip() for tok in spec.split(",") if tok.strip())
    for name in names:
        if name not in MONITOR_NAMES:
            raise ConfigError(
                f"unknown monitor {name!r} (known: {', '.join(MONITOR_NAMES)})"
            )
    return names


def _exponent_list(spec: str) -> Tuple[float, ...]:
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


def _integer_from(least: int):
    """Reader of an integer ``>= least``; a parse error names it by that range."""
    def read(spec: str) -> int:
        if (value := int(spec)) < least:
            raise ValueError(spec)
        return value

    read.__name__ = f"int >= {least}"
    return read


def _boolean(spec: str) -> bool:
    flag = spec.lower()
    if flag not in ("true", "false", "0", "1", "yes", "no"):
        raise ConfigError(f"output.plots must be boolean-like, got {flag!r}")
    return flag in ("true", "1", "yes")


# least value of each bounded integer ScenarioConfig field (the Sobolev fields
# always include const and u_along_run); ScenarioConfig checks it, and so does
# the scenario reader, which cites a file's value at its line and column
_LEAST = {"sobolev_samples": 2, "seed": 0}

# key -> (reader, part, keyword).  The value reader(text) is the keyword
# argument of the profile function that profile.name names (part "profile"),
# of RadialGrid ("grid") or of FlowConfig ("flow"), or the ScenarioConfig
# field ("scenario") of that name.
_KNOWN_KEYS = {
    "profile.name": (str, "profile", "name"),
    "profile.eps": (float, "profile", "eps"),
    "profile.a": (float, "profile", "a"),
    "profile.cap_radius": (float, "profile", "cap_radius"),
    "profile.x_max": (float, "profile", "x_max"),
    "profile.path": (str, "profile", "path"),
    "manifold.n": (int, "profile", "n"),
    "grid.M": (int, "grid", "M"),
    "grid.gamma": (float, "grid", "gamma"),
    "flow.T": (float, "flow", "T_final"),
    "flow.dt_init": (float, "flow", "dt_init"),
    "flow.dt_max": (float, "flow", "dt_max"),
    "flow.checkpoint_every": (_integer_from(0), "flow", "checkpoint_every"),
    "flow.snapshot_every": (int, "flow", "snapshot_every"),
    "monitors.enable": (_monitor_list, "scenario", "monitors"),
    "monitors.p": (_exponent_list, "scenario", "p_values"),
    "monitors.samples": (_integer_from(_LEAST["sobolev_samples"]), "scenario",
                         "sobolev_samples"),
    "moser.beta": (float, "scenario", "moser_beta"),
    "moser.k_max": (int, "scenario", "moser_k_max"),
    "output.dir": (str, "scenario", "output_dir"),
    "output.plots": (_boolean, "scenario", "plots"),
    "seed": (_integer_from(_LEAST["seed"]), "scenario", "seed"),
}


def _read(key: str, text: str, line: int = 0, column: int = 0) -> object:
    """``text`` read as the value of ``key``; ``line`` (0: none) and ``column`` locate it."""
    if key not in _KNOWN_KEYS:
        raise ConfigError(f"unknown key {key!r}", line, 1)
    reader = _KNOWN_KEYS[key][0]
    try:
        return reader(text)
    except ConfigError:         # a reader's own message, which names the key
        raise
    except ValueError:
        kind = reader.__name__.strip("_").replace("_", " ")
        raise ConfigError(f"cannot parse value {text!r} for {key!r} as {kind}",
                          line, column) from None


def parse_kv(text: str, overrides: Optional[Mapping[str, str]] = None) -> Dict[str, object]:
    """Parse the flat key = value format, validating keys and types.

    ``overrides`` maps keys to value texts that replace the file's values,
    as ``run --seed``, ``--sweep`` and ``moser --beta``/``--kmax`` give them;
    their errors cite no line.
    """
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
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", lineno, 1)
        # the value is cited at its first character, past '=' and its blanks
        values[key] = _read(key, val_part.strip(), lineno, len(body) - len(val_part.lstrip()) + 1)
    for key, val in (overrides or {}).items():
        values[key] = _read(key, val.strip())
    return values


@dataclass
class ScenarioConfig:
    """Everything one scenario run needs, resolved and validated."""

    profile: WarpedProfile
    grid: RadialGrid
    flow: FlowConfig
    monitors: Tuple[str, ...] = MONITOR_NAMES
    p_values: Tuple[float, ...] = P_DEFAULT
    sobolev_samples: int = 20
    moser_beta: float = 2.0
    moser_k_max: int = 6
    output_dir: Optional[str] = None
    plots: bool = False
    seed: int = 0

    def __post_init__(self):
        for name, least in _LEAST.items():
            if (value := getattr(self, name)) < least:
                raise ValueError(f"{name} must be >= {least} (got {value})")
        check_chain_parameters(self.moser_beta, self.moser_k_max)
        # each entry names its own monitor results
        for key, values in (("monitors.enable", self.monitors), ("monitors.p", self.p_values)):
            if twice := [v for i, v in enumerate(values) if v in values[:i]]:
                raise ValueError(f"{key} lists {twice[0]} twice")

    def build(self) -> DiscretizedManifold:
        return build_manifold(self.profile, self.grid)


def load_scenario(path: str, overrides: Optional[Mapping[str, str]] = None) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_scenario(text, overrides)


def parse_scenario(text: str, overrides: Optional[Mapping[str, str]] = None) -> ScenarioConfig:
    """Resolve and validate the text of a scenario file; see ``parse_kv`` for ``overrides``."""
    args = {"profile": {}, "grid": {}, "flow": {}, "scenario": {}}
    for key, value in parse_kv(text, overrides).items():
        _, part, keyword = _KNOWN_KEYS[key]
        args[part][keyword] = value
    if "name" not in args["profile"]:
        raise ConfigError("missing required key 'profile.name'")
    try:
        return ScenarioConfig(profile=make_profile(**args["profile"]),
                              grid=RadialGrid(**args["grid"]), flow=FlowConfig(**args["flow"]),
                              **args["scenario"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
