"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: output bytes depend only on the input series, so
plot artifacts from identical runs diff clean.
"""
from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

__all__ = ["render_series"]

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 70, 15, 30, 45


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _ticks(lo: float, hi: float, count: int = 5):
    """Tick values over [lo, hi]; ``_axis`` makes ``(hi - lo) / 4`` a normal float."""
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


def _axis(lo: float, hi: float, unit: float = 0.0):
    """(lo, hi, scale) of an axis over the finite data in [lo, hi].

    A span whose quarter, the finest tick spacing, is zero or subnormal is
    degenerate: it becomes [lo, lo + unit] if ``lo + unit > lo``, and is otherwise
    padded by ``max(|lo|, 1) 1e-6`` each way, within the finite floats.  A span
    that overflows is taken at half scale: positions and ticks are then in
    units of ``scale = 2``, and a tick v is labelled ``v * scale``.
    """
    if not (hi - lo) / 4.0 >= sys.float_info.min:
        if lo + unit > lo:
            hi = lo + unit
        else:
            pad = max(abs(lo), 1.0) * 1e-6
            lo, hi = max(lo - pad, -sys.float_info.max), min(hi + pad, sys.float_info.max)
    scale = 1.0 if hi - lo < math.inf else 2.0      # two finite halves have a finite span
    return lo / scale, hi / scale, scale


def render_series(
    ts: Sequence[float], values: Sequence[float], label: str, path: str
) -> None:
    """Write one t-vs-value polyline plot as an SVG file."""
    if len(ts) != len(values) or not ts:
        raise ValueError("need equal, non-empty t and value sequences")
    t_lo, t_hi, t_scale = _axis(min(ts), max(ts), unit=1.0)
    v_lo, v_hi, v_scale = _axis(min(values), max(values))

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
            f'font-size="10" text-anchor="middle">{_fmt(tv * t_scale)}</text>'
        )
    for vv in _ticks(v_lo, v_hi):
        y = sy(vv)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 3:.2f}" font-family="monospace" '
            f'font-size="10" text-anchor="end">{_fmt(vv * v_scale)}</text>'
        )
    # the tick expressions on whole arrays; "%.3f" % v is f"{v:.3f}"
    xy = np.column_stack((sx(np.asarray(ts, dtype=float) / t_scale),
                          sy(np.asarray(values, dtype=float) / v_scale)))
    pts = ("%.3f,%.3f " * len(ts) % tuple(xy.ravel().tolist()))[:-1]
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    with open(path, "wb") as fh:
        fh.write("\n".join(parts).encode("ascii"))
