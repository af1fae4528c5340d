"""Span tracer installed from outside the program.

``Tracer.install`` wraps every public function, and every public plain,
class- or static method of a public class, defined in the listed yflow
modules, and rebinds each name that any loaded yflow module imported with
``from .x import f``.  Each call records a span: name, start, end and the
span that was open when it began.  Spans stay in memory (about 150 bytes
each) and are written out once, at the end.
A layer's self time is its spans' duration minus what their child spans
cover.  A function that no longer exists simply has no span; the metrics
built on it are then reported as absent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

PACKAGE = "yflow"
MODULES = ("flow", "yamabe", "discretization", "bounds", "auxfn", "cli", "config",
           "geometry", "svgplot")


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.results: Dict[str, object] = {}    # last return value per name
        self._spans: list = []          # (span id, name id, parent id, start, end)
        self._ids = itertools.count()
        self._stack = [-1]
        self._patches: list = []

    # -- installation ----------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        finish, ids, stack = self._spans.append, self._ids, self._stack
        results, clock = self.results, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
                results[name] = out
                return out
            finally:
                finish((sid, nid, parent, start, clock()))
                stack.pop()

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        wrapped = {}                            # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(f"{short}.{attr}", obj)
                    wrapped[id(obj)] = (obj, w)
                    self._patch(mod, attr, w)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_methods(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        return self

    def _install_methods(self, qual: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(obj, (classmethod, staticmethod)):
                self._patch(cls, attr, type(obj)(self._wrap(f"{qual}.{attr}", obj.__func__)))
            elif inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"{qual}.{attr}", obj))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def table(self) -> Dict[str, dict]:
        """Per wrapped name: calls, self seconds in total and median self seconds per call."""
        spans = np.array(self._spans, dtype=float).reshape(-1, 5)
        spans = spans[np.argsort(spans[:, 0])]      # row i is span i
        name, parent = spans[:, 1].astype(np.int64), spans[:, 2].astype(np.int64)
        dur = spans[:, 4] - spans[:, 3]
        has = parent >= 0
        self_time = dur - np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        out = {}
        for nid, qual in enumerate(self.names):
            mine = self_time[name == nid]
            out[qual] = {"calls": int(mine.size), "self_s": float(mine.sum()),
                         "self_median_s": float(np.median(mine)) if mine.size else None}
        return out

    def write(self, stem: Path) -> Dict[str, dict]:
        """``stem.json``: the table; ``stem.npz``: every span.  Returns the table."""
        table = self.table()
        stem.with_suffix(".json").write_text(json.dumps(table, indent=1) + "\n")
        np.savez_compressed(stem.with_suffix(".npz"), names=np.array(self.names),
                            spans=np.array(self._spans, dtype=float).reshape(-1, 5))
        return table


class Profile:
    """Read side of a trace table; None marks a function that no longer exists."""

    def __init__(self, table: Dict[str, dict]):
        self.table = table

    def calls(self, name: str) -> Optional[int]:
        row = self.table.get(name)
        return None if row is None else row["calls"]

    def self_total(self, name: str, scale: float = 1.0) -> Optional[float]:
        row = self.table.get(name)
        return None if row is None else row["self_s"] * scale

    def self_median(self, name: str, scale: float = 1.0) -> Optional[float]:
        row = self.table.get(name)
        return None if row is None or row["self_median_s"] is None else row["self_median_s"] * scale

    def module_self(self) -> Dict[str, float]:
        """Self seconds per yflow module."""
        out: Dict[str, float] = {}
        for name, row in self.table.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + row["self_s"]
        return out
