"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output bytes depend only on the input series, so
plot artifacts from identical runs diff clean.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["render_series"]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 15, 30, 45


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, count: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(count - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    else:
        step = mag * 10.0
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-12 * span:
        out.append(0.0 if abs(v) < 1e-12 * span else v)
        if v + step == v:   # step below the resolution of v: no further tick
            break
        v += step
    return out


def render_series(
    ts: Sequence[float], values: Sequence[float], label: str, path: str
) -> None:
    """Write one t-vs-value polyline plot as an SVG file."""
    if len(ts) != len(values) or not ts:
        raise ValueError("need equal, non-empty t and value sequences")
    t_lo, t_hi = min(ts), max(ts)
    v_lo, v_hi = min(values), max(values)
    if v_hi <= v_lo:
        pad = max(abs(v_lo), 1.0) * 1e-6
        v_lo, v_hi = v_lo - pad, v_hi + pad
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0

    def sx(t):
        return _ML + (t - t_lo) / (t_hi - t_lo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - v_lo) / (v_hi - v_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="20" font-family="monospace" font-size="14">{label}</text>',
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for tv in _ticks(t_lo, t_hi):
        x = sx(tv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 18}" font-family="monospace" '
            f'font-size="10" text-anchor="middle">{_fmt(tv)}</text>'
        )
    for vv in _ticks(v_lo, v_hi):
        y = sy(vv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 3:.2f}" font-family="monospace" '
            f'font-size="10" text-anchor="end">{_fmt(vv)}</text>'
        )
    # the tick expressions on whole arrays; "%.3f" % v is f"{v:.3f}"
    xy = np.column_stack((sx(np.asarray(ts, dtype=float)), sy(np.asarray(values, dtype=float))))
    pts = ("%.3f,%.3f " * len(ts) % tuple(xy.ravel().tolist()))[:-1]
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    with open(path, "wb") as fh:
        fh.write("\n".join(parts).encode("ascii"))
