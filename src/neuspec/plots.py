"""Standalone SVG renderers for solver artifacts.

Hand-written SVG keeps output byte-deterministic for identical inputs
(no library version strings, ids, or timestamps).  Three kinds are
supported: indicator curves on a log axis, convergence studies on
log-log axes with the fitted slope, and per-vertex eigenfunction
heatmaps over a triangle mesh.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["sigma_curve_svg", "convergence_svg", "eigenfunction_svg"]

_W, _H = 800, 560
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _header() -> list:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]


def _axes(parts, xlo, xhi, ylo, yhi, xlabel, ylabel, xlog=False):
    """Draw frame, five ticks per axis, and labels, y on a log scale; returns mapping fns."""
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT

    def tx(v):
        t = (math.log10(v) - math.log10(xlo)) / (math.log10(xhi) - math.log10(xlo)) if xlog else (v - xlo) / (xhi - xlo)
        return x0 + t * (x1 - x0)

    def ty(v):
        t = (math.log10(v) - math.log10(ylo)) / (math.log10(yhi) - math.log10(ylo))
        return y0 + t * (y1 - y0)

    parts.append(
        f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
        'fill="none" stroke="black" stroke-width="1"/>'
    )
    for k in range(5):
        f = k / 4.0
        xv = 10 ** (math.log10(xlo) + f * (math.log10(xhi) - math.log10(xlo))) if xlog else xlo + f * (xhi - xlo)
        yv = 10 ** (math.log10(ylo) + f * (math.log10(yhi) - math.log10(ylo)))
        px = _fmt(tx(xv))
        py = _fmt(ty(yv))
        parts.append(f'<line x1="{px}" y1="{y0}" x2="{px}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{px}" y="{y0 + 20}" font-size="12" text-anchor="middle" '
            f'font-family="monospace">{xv:.3g}</text>'
        )
        parts.append(f'<line x1="{x0 - 5}" y1="{py}" x2="{x0}" y2="{py}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py}" font-size="12" text-anchor="end" '
            f'dominant-baseline="middle" font-family="monospace">{yv:.3g}</text>'
        )
    parts.append(
        f'<text x="{(x0 + x1) // 2}" y="{_H - 10}" font-size="14" text-anchor="middle" '
        f'font-family="monospace">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(y0 + y1) // 2}" font-size="14" text-anchor="middle" '
        f'font-family="monospace" transform="rotate(-90 18 {(y0 + y1) // 2})">{ylabel}</text>'
    )
    return tx, ty


def sigma_curve_svg(omegas, sigmas) -> str:
    """Indicator curve, log-scale vertically so eigenvalue dips are visible."""
    omegas = np.asarray(omegas, dtype=float)
    sigmas = np.maximum(np.asarray(sigmas, dtype=float), 1e-18)
    parts = _header()
    ylo = 10 ** math.floor(math.log10(sigmas.min()))
    yhi = 1.0
    tx, ty = _axes(
        parts, float(omegas.min()), float(omegas.max()), ylo, yhi,
        "omega", "sigma(omega)",
    )
    coords = " ".join(f"{_fmt(tx(w))},{_fmt(ty(s))}" for w, s in zip(omegas, sigmas))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="#1f4e9c" stroke-width="1.5"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def convergence_svg(h_list, values, extrapolated=None, observed_order=None) -> str:
    """Log-log error-vs-h points with the fitted slope annotated."""
    h = np.asarray(h_list, dtype=float)
    v = np.asarray(values, dtype=float)
    ref = extrapolated if extrapolated is not None else v[-1]
    err = np.abs(v - ref)
    err = np.where(err > 0, err, np.nan)
    keep = np.isfinite(err)
    parts = _header()
    if not np.any(keep):
        parts.append(
            f'<text x="{_W // 2}" y="{_H // 2}" font-size="14" text-anchor="middle" '
            'font-family="monospace">all values identical; nothing to plot</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
    hk, ek = h[keep], err[keep]
    tx, ty = _axes(
        parts, float(hk.min()) * 0.8, float(hk.max()) * 1.25,
        float(ek.min()) * 0.5, float(ek.max()) * 2.0,
        "h", "|value - limit|", xlog=True,
    )
    for hi, ei in zip(hk, ek):
        parts.append(
            f'<circle cx="{_fmt(tx(hi))}" cy="{_fmt(ty(ei))}" r="4" fill="#b22222"/>'
        )
    if len(hk) >= 2:
        slope = np.polyfit(np.log(hk), np.log(ek), 1)[0]
        label = f"fitted slope {slope:.2f}"
        if observed_order is not None:
            label += f" (study order {observed_order:.2f})"
        parts.append(
            f'<text x="{_ML + 12}" y="{_MT + 18}" font-size="13" '
            f'font-family="monospace">{label}</text>'
        )
        lo, hi_ = float(hk.min()), float(hk.max())
        c = math.log(ek[np.argmin(hk)]) - slope * math.log(lo)
        y_lo = math.exp(slope * math.log(lo) + c)
        y_hi = math.exp(slope * math.log(hi_) + c)
        parts.append(
            f'<line x1="{_fmt(tx(lo))}" y1="{_fmt(ty(y_lo))}" '
            f'x2="{_fmt(tx(hi_))}" y2="{_fmt(ty(y_hi))}" '
            'stroke="#888888" stroke-dasharray="4,3"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _diverging_color(t: float) -> str:
    """t in [-1, 1] -> blue/white/red."""
    t = max(-1.0, min(1.0, t))
    if t >= 0:
        r, g, b = 255, round(255 * (1 - t)), round(255 * (1 - t))
    else:
        r, g, b = round(255 * (1 + t)), round(255 * (1 + t)), 255
    return f"rgb({r},{g},{b})"


def eigenfunction_svg(vertices, triangles, values) -> str:
    """Heatmap of a vertex field: triangles filled by their mean value."""
    verts = np.asarray(vertices, dtype=float)
    tris = np.asarray(triangles, dtype=int)
    vals = np.asarray(values, dtype=float)
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    pad = 0.03 * span
    scale = (min(_W, _H) - 60) / (span + 2 * pad)

    def to_px(p):
        x = 30 + (p[0] - lo[0] + pad) * scale
        y = _H - 30 - (p[1] - lo[1] + pad) * scale
        return f"{x:.2f},{y:.2f}"

    vmax = float(np.abs(vals).max()) or 1.0
    parts = _header()
    tri_means = vals[tris].mean(axis=1)
    for tri, mean in zip(tris, tri_means):
        pts = " ".join(to_px(verts[i]) for i in tri)
        color = _diverging_color(mean / vmax)
        parts.append(f'<polygon points="{pts}" fill="{color}" stroke="none"/>')
    parts.append(
        f'<text x="{_W // 2}" y="{_H - 8}" font-size="13" text-anchor="middle" '
        f'font-family="monospace">vertex field, |max| = {vmax:.6g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
