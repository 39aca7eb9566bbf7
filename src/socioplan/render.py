"""Deterministic SVG rendering of costmaps, scene footprints, and paths."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .cost_field import Costmap, footprint_of
from .planner import Path
from .scene_graph import SceneGraph

PX_PER_M = 90.0
PATH_COLORS = ("#1f6fb4", "#c23728", "#2a8f3c", "#8a4fad", "#b0771c")
PATH_DASHES = ("", "7 4", "2 4", "9 4 2 4", "12 3")


def _xml_text(text: str) -> str:
    # What xml.sax.saxutils.escape does, without importing it: it pulls in urllib.request and ssl.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _heat_color(value: float, vmax: float) -> str:
    # White at cost 1, warm red toward the map maximum.
    t = 0.0 if vmax <= 1.0 else (value - 1.0) / (vmax - 1.0)
    red = 255
    green = int(round(250.0 - 190.0 * t))
    blue = int(round(240.0 - 210.0 * t))
    return f"#{red:02x}{green:02x}{blue:02x}"


def render_svg(
    costmap: Costmap, paths: Sequence[Path], scene: SceneGraph, labels: Sequence[str]
) -> str:
    """Render the costmap as heat cells with object footprints, human
    markers, one dashed polyline per path, and a legend with one label per path.

    Pure function of its inputs: identical inputs give identical bytes.
    """
    if len(labels) != len(paths):
        raise ValueError("need exactly one label per path")
    # Each path's color and dash attribute, shared by its polyline and its legend line.
    styles = []
    for i in range(len(paths)):
        dash = PATH_DASHES[i % len(PATH_DASHES)]
        styles.append((PATH_COLORS[i % len(PATH_COLORS)], f' stroke-dasharray="{dash}"' if dash else ""))

    (xmin, ymin) = costmap.origin
    (xmax, ymax) = costmap.max_xy
    width_px = (xmax - xmin) * PX_PER_M
    height_px = (ymax - ymin) * PX_PER_M

    def sx(x: float) -> float:
        return (x - xmin) * PX_PER_M

    def sy(y: float) -> float:
        return (ymax - y) * PX_PER_M  # flip: world y up, SVG y down

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.2f} {height_px:.2f}">',
        f'<rect x="0" y="0" width="{width_px:.2f}" height="{height_px:.2f}" fill="#ffffff"/>',
    ]

    # Heat cells: each column's x, each row's y and each distinct cost's color
    # is formatted once. The white background already covers cost-1 cells.
    cells, res = costmap.cells, costmap.resolution
    vmax = float(cells.max())
    cell_px = res * PX_PER_M
    size = f'width="{cell_px:.2f}" height="{cell_px:.2f}"'
    xs = [f"{sx(xmin + ix * res):.2f}" for ix in range(costmap.width)]
    ys = [f"{sy(ymin + (iy + 1) * res):.2f}" for iy in range(costmap.height)]
    rows, cols = np.nonzero(cells > 1.0)  # row-major, like a loop over rows
    distinct, which = np.unique(cells[rows, cols], return_inverse=True)
    fills = [_heat_color(value, vmax) for value in distinct.tolist()]
    out.append('<g shape-rendering="crispEdges">')
    out.extend(
        f'<rect x="{xs[ix]}" y="{ys[iy]}" {size} fill="{fills[k]}"/>'
        for iy, ix, k in zip(rows.tolist(), cols.tolist(), which.tolist())
    )
    out.append("</g>")

    for node in scene:
        rect = footprint_of(node)
        x, y = sx(rect.min_xy[0]), sy(rect.max_xy[1])
        w = (rect.max_xy[0] - rect.min_xy[0]) * PX_PER_M
        h = (rect.max_xy[1] - rect.min_xy[1]) * PX_PER_M
        cx, cy = sx(rect.center[0]), sy(rect.center[1])
        if node.is_human:
            r = max(rect.sides) / 2.0 * PX_PER_M
            out.append(
                f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{r:.2f}" fill="none" '
                f'stroke="#111111" stroke-width="2"/>'
            )
        else:
            out.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" height="{h:.2f}" '
                f'fill="none" stroke="#333333" stroke-width="1.5"/>'
            )
        out.append(
            f'<text x="{cx:.2f}" y="{cy:.2f}" font-size="11" font-family="sans-serif" '
            f'text-anchor="middle" fill="#111111">{_xml_text(node.tag)}</text>'
        )

    for path, (color, dash) in zip(paths, styles):
        points = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in path.polyline)
        out.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="2.5"{dash}/>'
        )

    if labels:
        box_h = 16.0 * len(labels) + 10.0
        out.append(
            f'<rect x="8" y="8" width="190" height="{box_h:.2f}" fill="#ffffff" '
            f'fill-opacity="0.85" stroke="#555555" stroke-width="0.5"/>'
        )
        for i, (label, (color, dash)) in enumerate(zip(labels, styles)):
            y = 20.0 + 16.0 * i
            out.append(
                f'<line x1="14" y1="{y:.2f}" x2="44" y2="{y:.2f}" stroke="{color}" '
                f'stroke-width="2.5"{dash}/>'
            )
            out.append(
                f'<text x="50" y="{y + 4:.2f}" font-size="11" '
                f'font-family="sans-serif" fill="#111111">{_xml_text(label)}</text>'
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
