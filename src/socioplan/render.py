"""Deterministic SVG rendering of costmaps, scene footprints, and paths."""

from __future__ import annotations

import binascii
import struct
import zlib
from typing import Sequence

import numpy as np

from .cost_field import Costmap
from .planner import Path
from .scene_graph import SceneGraph, box_corners

PX_PER_M = 90.0
PATH_COLORS = ("#1f6fb4", "#c23728", "#2a8f3c", "#8a4fad", "#b0771c")
PATH_DASHES = ("", "7 4", "2 4", "9 4 2 4", "12 3")


def _xml_text(text: str) -> str:
    # What xml.sax.saxutils.escape does, without importing it: it pulls in urllib.request and ssl.
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _stored_zlib(data: bytes) -> bytes:
    """``data`` as a zlib stream of stored (uncompressed) deflate blocks.

    zlib builds (zlib, zlib-ng) may compress the same input to different
    bytes; stored blocks depend on ``data`` alone, so the SVG does too.
    """
    view = memoryview(data)
    pieces = [b"\x78\x01"]  # deflate with a 32 KB window, no dictionary
    for start in range(0, len(data), 0xFFFF):
        block = view[start : start + 0xFFFF]
        final = start + 0xFFFF >= len(data)
        pieces += (struct.pack("<BHH", final, len(block), len(block) ^ 0xFFFF), block)
    pieces.append(struct.pack(">I", zlib.adler32(data)))
    return b"".join(pieces)


def _png_chunk(kind: bytes, data: bytes) -> tuple[bytes, ...]:
    """A PNG chunk's pieces: length, type, data and the CRC of type and data."""
    return struct.pack(">I", len(data)), kind, data, struct.pack(">I", zlib.crc32(data, zlib.crc32(kind)))


def _heat_scanlines(costmap: Costmap) -> bytes:
    """The heat layer's PNG scanlines: one RGB pixel per cell, each row opened
    by filter byte 0 (none). Row 0 is the map's highest-y row; cost-1 pixels
    are white, like the background.
    """
    cells = costmap.cells
    hot = np.flatnonzero(cells > 1.0)  # row-major, like a loop over rows
    # Warm red toward the map maximum; rint, like round, breaks ties to even.
    # With no heat cell, t is empty and nothing divides.
    t = (cells.take(hot) - 1.0) / (float(cells.max()) - 1.0)
    pixels = np.full((costmap.height * costmap.width, 3), 255, np.uint8)
    pixels[hot, 1] = np.rint(250.0 - 190.0 * t)
    pixels[hot, 2] = np.rint(240.0 - 210.0 * t)
    rows = pixels.reshape(costmap.height, -1)[::-1]  # image rows run top down, world y up
    return np.insert(rows, 0, 0, axis=1).tobytes()


def _heat_image(costmap: Costmap, width_px: float, height_px: float) -> str:
    """The heat layer: one ``<image>`` over the whole picture, an embedded PNG
    with one pixel per cell, scaled nearest-neighbour."""
    header = struct.pack(">IIBBBBB", costmap.width, costmap.height, 8, 2, 0, 0, 0)  # 8-bit RGB
    png = b"".join(
        (
            b"\x89PNG\r\n\x1a\n",
            *_png_chunk(b"IHDR", header),
            *_png_chunk(b"IDAT", _stored_zlib(_heat_scanlines(costmap))),
            *_png_chunk(b"IEND", b""),
        )
    )
    return (
        f'<image x="0" y="0" width="{width_px:.2f}" height="{height_px:.2f}" '
        f'preserveAspectRatio="none" image-rendering="optimizeSpeed" href="data:image/png;base64,'
        f'{binascii.b2a_base64(png, newline=False).decode("ascii")}"/>'
    )


def render_svg(
    costmap: Costmap, paths: Sequence[Path], scene: SceneGraph, labels: Sequence[str]
) -> str:
    """Render the costmap as a heat image with object footprints, human
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

    out.append(_heat_image(costmap, width_px, height_px))

    # Every node's footprint from one corner array, with the float operations
    # of footprint_of, sx and sy, so each coordinate is the same float.
    nodes = tuple(scene)
    lo, hi = box_corners(nodes)
    if (lo[:2] > hi[:2]).any():
        raise ValueError("footprint min corner must not exceed max corner")
    (x0, y0), (x1, y1) = lo[:2], hi[:2]
    sides_x, sides_y = x1 - x0, y1 - y0
    columns = (
        (x0 - xmin) * PX_PER_M,
        (ymax - y1) * PX_PER_M,
        sides_x * PX_PER_M,
        sides_y * PX_PER_M,
        ((x0 + x1) / 2.0 - xmin) * PX_PER_M,
        (ymax - (y0 + y1) / 2.0) * PX_PER_M,
        # max(sides) / 2, with max's pick: the first side unless the second is larger.
        np.where(sides_y > sides_x, sides_y, sides_x) / 2.0 * PX_PER_M,
    )
    for node, x, y, w, h, cx, cy, r in zip(nodes, *(c.tolist() for c in columns)):
        if node.is_human:
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

    out.append("</svg>\n")  # the final newline, without copying the joined text once more
    return "\n".join(out)
