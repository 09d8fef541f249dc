"""Result serialization: a versioned JSON document plus hand-built SVG figures.

report.json is written by the stdlib encoder with a fixed layout.  Floats
appear as Python's repr, the shortest text that parses back to the same
float64, so a report round-trips exactly and identical runs give identical
bytes.  NaN and infinity are refused.  SVG figures are emitted as plain
text with no plotting dependency, so tests can diff them.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .persist import significant_pairs

__all__ = ["build_document", "dumps_json", "emit_report"]

SCHEMA_VERSION = 1


# --- JSON -------------------------------------------------------------------

def _plain(obj):
    """numpy scalars as the Python scalars json writes; anything else is refused."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into the report")


def dumps_json(doc: dict) -> str:
    """The report text: two-space indent, keys in insertion order, finite floats only."""
    try:
        return json.dumps(doc, indent=2, allow_nan=False, default=_plain) + "\n"
    except ValueError as exc:
        raise ValueError(f"cannot serialize the report, floats must be finite: {exc}") from exc


def build_document(config=None, report=None, scan=None, diagram=None) -> dict:
    """Assemble the versioned report dictionary (sections absent -> null)."""
    doc: dict = {"schema": SCHEMA_VERSION, "config": config if config is not None else {}}

    candidates = []
    portraits = []
    if report is not None:
        for cand in report.candidates:
            candidates.append(
                {
                    "location": [float(v) for v in cand.location],
                    "density": float(cand.density_value),
                    "basin_size": int(cand.basin_size),
                }
            )
        for portrait, grad in zip(report.portraits, report.stage2_gradient_norms):
            portraits.append(
                {
                    "gamma_rectangles": [[float(lo), float(hi)] for lo, hi in portrait.rectangles],
                    "c_interval": [float(portrait.c_interval[0]), float(portrait.c_interval[1])],
                    "significant": bool(portrait.significant),
                    "grad_norm": float(grad),
                }
            )
    doc["candidates"] = candidates
    doc["portraits"] = portraits

    doc["scan"] = (
        None
        if scan is None
        else {
            "h": [float(v) for v in scan.grid],
            "k": [int(v) for v in scan.candidate_counts],
            "N": [int(v) for v in scan.significant_counts],
            "h_hat": float(scan.h_hat),
        }
    )
    doc["persistence"] = (
        None
        if diagram is None
        else {
            "pairs": [[float(d), float(b)] for d, b in np.asarray(diagram.pairs).reshape(-1, 2)],
            "band": float(diagram.band),
        }
    )
    return doc


# --- SVG --------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _svg(width: int, height: int, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">\n'
    )
    return head + "\n".join(body) + "\n</svg>\n"


def placeholder_svg(note: str) -> str:
    body = [
        '<rect x="0" y="0" width="360" height="80" fill="#fafafa" stroke="#999"/>',
        f'<text x="16" y="45" fill="#555">{note}</text>',
    ]
    return _svg(360, 80, body)


def eigenportrait_svg(report) -> str:
    """One panel per mode; each eigen index drawn as a whisker for gamma."""
    k = len(report.portraits)
    if k == 0:
        return placeholder_svg("no candidate modes; nothing to portray")
    panel_w, panel_h, gap = 220, 190, 14
    cols = min(k, 4)
    rows = (k + cols - 1) // cols
    width = cols * panel_w + (cols + 1) * gap
    height = rows * panel_h + (rows + 1) * gap

    bounds = np.concatenate([p.rectangles.ravel() for p in report.portraits])
    lo, hi = float(np.min(bounds)), float(np.max(bounds))
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    span = (hi - lo) or 1.0
    lo -= 0.08 * span
    hi += 0.08 * span

    body = []
    for j, portrait in enumerate(report.portraits):
        px = gap + (j % cols) * (panel_w + gap)
        py = gap + (j // cols) * (panel_h + gap)
        d = portrait.rectangles.shape[0]
        inner_x, inner_y = px + 30, py + 26
        inner_w, inner_h = panel_w - 42, panel_h - 40

        def sy(v: float) -> float:
            return inner_y + inner_h * (hi - v) / (hi - lo)

        verdict = "significant" if portrait.significant else "not significant"
        body.append(
            f'<g class="panel"><rect x="{px}" y="{py}" width="{panel_w}" height="{panel_h}" '
            f'fill="#fff" stroke="#888"/>'
        )
        body.append(f'<text x="{px + 8}" y="{py + 16}" fill="#222">mode {j + 1} — {verdict}</text>')
        body.append(
            f'<line x1="{inner_x}" y1="{_fmt(sy(0.0))}" x2="{inner_x + inner_w}" '
            f'y2="{_fmt(sy(0.0))}" stroke="#bbb" stroke-dasharray="3,3"/>'
        )
        color = "#1a6f3c" if portrait.significant else "#9a9a9a"
        for s in range(d):
            x = inner_x + inner_w * (s + 0.5) / d
            g_lo, g_hi = portrait.rectangles[s]
            mid = 0.5 * (g_lo + g_hi)
            body.append(
                f'<g class="interval"><line x1="{_fmt(x)}" y1="{_fmt(sy(g_lo))}" '
                f'x2="{_fmt(x)}" y2="{_fmt(sy(g_hi))}" stroke="{color}" stroke-width="2"/>'
                f'<circle cx="{_fmt(x)}" cy="{_fmt(sy(mid))}" r="3" fill="{color}"/></g>'
            )
        body.append("</g>")
    return _svg(width, height, body)


def persistence_svg(diagram) -> str:
    """Death-birth scatter with the diagonal and the 2*band noise strip."""
    pairs = np.asarray(diagram.pairs, dtype=np.float64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return placeholder_svg("empty persistence diagram")
    size, margin = 340, 46
    vmin = float(min(pairs.min(), 0.0))
    vmax = float(pairs.max())
    span = (vmax - vmin) or 1.0
    vmin -= 0.06 * span
    vmax += 0.06 * span

    def sx(v: float) -> float:
        return margin + (size - 2 * margin) * (v - vmin) / (vmax - vmin)

    def sy(v: float) -> float:
        return size - margin - (size - 2 * margin) * (v - vmin) / (vmax - vmin)

    band = 2.0 * diagram.band
    body = [
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#fff"/>',
        # noise strip: birth within band of death
        f'<polygon class="band" points="{_fmt(sx(vmin))},{_fmt(sy(vmin))} '
        f'{_fmt(sx(vmax))},{_fmt(sy(vmax))} {_fmt(sx(vmax - band))},{_fmt(sy(vmax))} '
        f'{_fmt(sx(vmin))},{_fmt(sy(vmin + band))}" fill="#d9e8f5" stroke="none"/>',
        f'<line x1="{_fmt(sx(vmin))}" y1="{_fmt(sy(vmin))}" x2="{_fmt(sx(vmax))}" '
        f'y2="{_fmt(sy(vmax))}" stroke="#666"/>',
        f'<line x1="{margin}" y1="{size - margin}" x2="{size - margin}" y2="{size - margin}" stroke="#222"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{size - margin}" stroke="#222"/>',
        f'<text x="{size // 2 - 14}" y="{size - 12}" fill="#222">death</text>',
        f'<text x="10" y="{size // 2}" fill="#222" transform="rotate(-90 14 {size // 2})">birth</text>',
    ]
    kept = set(map(tuple, significant_pairs(diagram)))
    for death, birth in pairs:
        cls = "pair significant" if (death, birth) in kept else "pair"
        body.append(
            f'<circle class="{cls}" cx="{_fmt(sx(death))}" cy="{_fmt(sy(birth))}" r="3.5" '
            f'fill="{"#b03030" if (death, birth) in kept else "#777"}"/>'
        )
    return _svg(size, size, body)


def bandwidth_svg(scan) -> str:
    """k(h) dashed and N(h) solid across the grid, with the pick marked."""
    h = np.asarray(scan.grid, dtype=np.float64)
    k = np.asarray(scan.candidate_counts)
    n = np.asarray(scan.significant_counts)
    width, height, margin = 480, 280, 48
    lx = np.log(h)
    x0, x1 = float(lx.min()), float(lx.max())
    xspan = (x1 - x0) or 1.0
    ymax = max(int(k.max()), 1)

    def sx(v: float) -> float:
        return margin + (width - 2 * margin) * (v - x0) / xspan

    def sy(c: float) -> float:
        return height - margin - (height - 2 * margin) * c / ymax

    def poly(counts) -> str:
        return " ".join(f"{_fmt(sx(v))},{_fmt(sy(c))}" for v, c in zip(lx, counts))

    body = [
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#fff"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" y2="{height - margin}" stroke="#222"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="#222"/>',
        f'<polyline class="k-curve" points="{poly(k)}" fill="none" stroke="#888" '
        f'stroke-dasharray="5,4" stroke-width="1.5"/>',
        f'<polyline class="n-curve" points="{poly(n)}" fill="none" stroke="#1a466f" stroke-width="2"/>',
        f'<line class="h-hat" x1="{_fmt(sx(float(np.log(scan.h_hat))))}" y1="{margin}" '
        f'x2="{_fmt(sx(float(np.log(scan.h_hat))))}" y2="{height - margin}" stroke="#b03030" '
        f'stroke-dasharray="2,3"/>',
        f'<text x="{width // 2 - 40}" y="{height - 14}" fill="#222">bandwidth h (log scale)</text>',
        f'<text x="{margin}" y="{margin - 10}" fill="#888">dashed: candidates k(h)   solid: significant N(h)</text>',
    ]
    return _svg(width, height, body)


# --- file emission ------------------------------------------------------------

def emit_report(out_dir, config=None, report=None, scan=None, diagram=None,
                emit_plots: bool = True) -> list[str]:
    """Write report.json and the figures for whichever sections are present.

    Returns the list of paths written.  A run with zero candidates still
    produces valid JSON (empty arrays) and an annotated placeholder figure.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    doc = build_document(config=config, report=report, scan=scan, diagram=diagram)
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_json(doc))
    written.append(path)

    if emit_plots:
        figures = []
        if report is not None:
            figures.append(("eigenportrait.svg", eigenportrait_svg(report)))
        if diagram is not None:
            figures.append(("persistence.svg", persistence_svg(diagram)))
        if scan is not None:
            figures.append(("bandwidth.svg", bandwidth_svg(scan)))
        for name, text in figures:
            fig_path = os.path.join(out_dir, name)
            with open(fig_path, "w", newline="\n") as fh:
                fh.write(text)
            written.append(fig_path)
    return written
