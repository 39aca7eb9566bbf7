"""Workload inputs for the benchmark: the shipped bedroom files and two
seeded synthetic scenes.

Every workload is a directory holding a scenario file and the files it names.
The program under test only ever sees these files.

The synthetic scenes change with the seed, but the work a run does does not,
so that runs on different seeds measure the same thing:

- Seeded clutter uses tags the rule assessor scores as no impact (cost 1,
  clearance 0), and sittable furniture sits far from every path. The costmap,
  and with it every planned path, therefore depends only on a fixed group (a
  human sitting on a bed and watching a TV) and not on the seed.
- No object's distance to the start-goal segment lies within ``BAND_M`` of
  the query radius, and node ids are ranked by where the straight trip first
  comes within the radius of them. Where the planned path runs along that
  segment, relevance extraction returns the same ordered ids for the straight
  first-round trajectory and for the path, on every seed.

So the assess-and-plan loop takes the same rounds on every seed: one per
condition in ``cluttered_house``, whose costs never reach the diagonal trip,
and one, two and two in ``open_hall``, where the human conditions detour
around the group past a fixed plant that changes the relevant set once.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bedroom", "cluttered_house", "open_hall")

BAND_M = 0.05
WATCHING_ZONE = [2.0, 0.5]
CONDITIONS = ["no_human", "human_no_relations", "human_with_relations"]

# Tags the rule assessor leaves at no impact: not sittable, not human.
CLUTTER = (
    ("table", (0.6, 1.2), (0.7, 0.8), ("put on",), ("wooden",)),
    ("desk", (0.8, 1.4), (0.5, 0.8), ("work at",), ("wooden",)),
    ("lamp", (0.3, 0.4), (1.4, 1.8), ("light",), ("tall",)),
    ("plant", (0.3, 0.6), (0.5, 1.5), (), ("green",)),
    ("shelf", (0.3, 1.0), (1.0, 2.0), ("store",), ("wooden",)),
    ("cabinet", (0.5, 0.9), (0.8, 1.2), ("open", "store"), ("white",)),
    ("box", (0.3, 0.6), (0.3, 0.6), ("open",), ("cardboard",)),
    ("bin", (0.3, 0.4), (0.5, 0.7), ("throw away",), ("metal",)),
)
# Sittable furniture, placed only where no path comes near.
SEATS = (
    ("chair", (0.45, 0.6), (0.9, 1.0), ("sit",), ("wooden",)),
    ("sofa", (0.9, 2.0), (0.8, 0.9), ("sit", "lie on"), ("soft",)),
)


@dataclass(frozen=True)
class Box:
    tag: str
    center: tuple[float, float, float]
    extent: tuple[float, float, float]
    affordances: tuple[str, ...] = ()
    attributes: tuple[str, ...] = ()

    def gap(self, x: float, y: float) -> float:
        """3D distance from the ground point (x, y, 0) to the box."""
        gaps = []
        for c, e, p in zip(self.center, self.extent, (x, y, 0.0)):
            gaps.append(max(c - e / 2.0 - p, 0.0, p - c - e / 2.0))
        return math.sqrt(sum(g * g for g in gaps))


@dataclass(frozen=True)
class Layout:
    """Map size and resolution, and the human group fixed for every seed."""

    size_m: float
    resolution: float
    radius_m: float
    bed: Box
    tv: Box
    human: Box
    armchair: Box | None
    landmark: Box | None

    @property
    def start(self) -> tuple[float, float]:
        s = 1.5 * self.resolution  # center of cell (1, 1)
        return (s, s)

    @property
    def goal(self) -> tuple[float, float]:
        g = self.size_m - 1.5 * self.resolution
        return (g, g)

    def fixed(self) -> list[Box]:
        return [b for b in (self.bed, self.tv, self.armchair, self.landmark) if b is not None]


# The TV is within the query radius of the trip but its cost ends short of it;
# the human and the bed are out of range. Relevance dominates the op.
HOUSE = Layout(
    size_m=20.0,
    resolution=0.25,
    radius_m=1.5,
    bed=Box("bed", (6.6, 12.9, 0.3), (1.6, 2.0, 0.6), ("lie on", "sit"), ("large", "soft")),
    tv=Box("tv", (8.78, 11.22, 0.6), (1.2, 0.3, 1.2), ("watch",), ("flat screen",)),
    human=Box("human", (7.0, 12.5, 0.75), (0.5, 0.5, 0.9)),
    armchair=None,
    landmark=None,
)

# The human sits next to the diagonal, so the human conditions detour over the
# fine grid. Relevance of the plant differs between the straight trip and the
# detour, so those conditions always plan twice. A* dominates the op.
HALL = Layout(
    size_m=10.0,
    resolution=0.05,
    radius_m=2.5,
    bed=Box("bed", (4.1, 5.9, 0.3), (1.6, 2.0, 0.6), ("lie on", "sit"), ("large", "soft")),
    tv=Box("tv", (6.3, 3.9, 0.6), (1.2, 0.3, 1.2), ("watch",), ("flat screen",)),
    human=Box("human", (4.7, 5.2, 0.75), (0.5, 0.5, 0.9)),
    armchair=Box("armchair", (6.6, 5.9, 0.45), (0.8, 0.8, 0.9), ("sit",), ("cushioned",)),
    landmark=Box("plant", (7.1, 3.3, 0.5), (0.4, 0.4, 1.0), (), ("green",)),
)


# --- geometry of the straight trip ------------------------------------------------


def _trip_point(layout: Layout, t: float) -> tuple[float, float]:
    (sx, sy), (gx, gy) = layout.start, layout.goal
    return (sx + (gx - sx) * t, sy + (gy - sy) * t)


def _trip_gap(layout: Layout, box: Box, t: float) -> float:
    return box.gap(*_trip_point(layout, t))


def trip_distance(layout: Layout, box: Box) -> tuple[float, float]:
    """Minimum distance from the start-goal segment to the box, and where
    along the segment (0..1) it is reached. The distance is convex in t."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        a = lo + (hi - lo) / 3.0
        b = hi - (hi - lo) / 3.0
        if _trip_gap(layout, box, a) <= _trip_gap(layout, box, b):
            hi = b
        else:
            lo = a
    t = (lo + hi) / 2.0
    return _trip_gap(layout, box, t), t


def first_hit(layout: Layout, box: Box) -> float:
    """Smallest t at which the segment comes within the query radius of the
    box; infinity when it never does."""
    d_min, t_min = trip_distance(layout, box)
    if d_min > layout.radius_m:
        return math.inf
    if _trip_gap(layout, box, 0.0) <= layout.radius_m:
        return 0.0
    lo, hi = 0.0, t_min
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if _trip_gap(layout, box, mid) <= layout.radius_m:
            hi = mid
        else:
            lo = mid
    return hi


def clear_of_band(layout: Layout, box: Box) -> bool:
    return abs(trip_distance(layout, box)[0] - layout.radius_m) >= BAND_M


def overlaps(a: Box, b: Box, margin: float) -> bool:
    return all(
        abs(a.center[i] - b.center[i]) < (a.extent[i] + b.extent[i]) / 2.0 + margin
        for i in range(2)
    )


# --- scene generation ---------------------------------------------------------


def _r2(value: float) -> float:
    return round(value, 2)


def _random_box(rng: random.Random, kinds, x0: float, y0: float, cell: float) -> Box:
    tag, sides, heights, affordances, attributes = rng.choice(kinds)
    w = _r2(rng.uniform(*sides))
    d = _r2(rng.uniform(*sides))
    h = _r2(rng.uniform(*heights))
    x = _r2(x0 + rng.uniform(w / 2.0, max(w / 2.0, cell - w / 2.0)))
    y = _r2(y0 + rng.uniform(d / 2.0, max(d / 2.0, cell - d / 2.0)))
    return Box(tag, (x, y, _r2(h / 2.0)), (w, d, h), affordances, attributes)


def _clutter(rng: random.Random, layout: Layout, slots: int, seat_gap_m: float) -> list[Box]:
    """One object per cell of a ``slots`` x ``slots`` grid, jittered inside it.
    Cells that touch the human group stay empty; seats only go where the
    cell is at least ``seat_gap_m`` from the diagonal trip."""
    cell = layout.size_m / slots
    keep_out = layout.fixed() + [layout.human]
    boxes = []
    for j in range(slots):
        for i in range(slots):
            x0, y0 = i * cell, j * cell
            cx, cy = x0 + cell / 2.0, y0 + cell / 2.0
            slot = Box("slot", (cx, cy, 0.5), (cell, cell, 1.0))
            if any(overlaps(slot, other, 0.3) for other in keep_out):
                continue
            far = abs(cx - cy) / math.sqrt(2.0) - cell >= seat_gap_m
            kinds = CLUTTER + SEATS if far else CLUTTER
            for _ in range(100):
                box = _random_box(rng, kinds, x0, y0, cell)
                if clear_of_band(layout, box):
                    boxes.append(box)
                    break
            else:
                raise ValueError(f"no placement outside the relevance band in cell ({i}, {j})")
    return boxes


def _ranked_ids(layout: Layout, boxes: list[Box]) -> list[str]:
    """Ids ordered by where the straight trip first reaches each box, so the
    id tie-break of relevance extraction agrees with trip order."""
    order = sorted(range(len(boxes)), key=lambda k: (first_hit(layout, boxes[k]), k))
    ids = [""] * len(boxes)
    for rank, k in enumerate(order):
        ids[k] = f"n{rank:03d}-{boxes[k].tag}"
    return ids


def _relations(rng: random.Random, ids: list[str], boxes: list[Box]) -> list[dict]:
    """Spatial and comparative relations between nearby objects."""
    relations = []
    seen = set()
    for a in range(len(boxes)):
        for b in range(a + 1, len(boxes)):
            ax, ay, _ = boxes[a].center
            bx, by, _ = boxes[b].center
            if math.hypot(ax - bx, ay - by) > 1.6 or rng.random() > 0.35:
                continue
            if rng.random() < 0.7:
                name, kind = "next to", "spatial"
            else:
                taller = boxes[a].extent[2] > boxes[b].extent[2]
                name, kind = ("taller than" if taller else "shorter than"), "comparative"
            triple = (name, ids[a], ids[b])
            if triple not in seen:
                seen.add(triple)
                relations.append({"name": name, "head": ids[a], "tail": ids[b], "kind": kind})
    return relations


def _node(node_id: str, box: Box) -> dict:
    return {
        "id": node_id,
        "tag": box.tag,
        "bbox_center": list(box.center),
        "bbox_extent": list(box.extent),
        "affordances": sorted(box.affordances),
        "attributes": sorted(box.attributes),
    }


def synthetic(layout: Layout, name: str, seed: int, slots: int, seat_gap_m: float) -> tuple[dict, dict]:
    """Scene and scenario documents for one synthetic workload and seed."""
    rng = random.Random(f"{name}:{seed}")
    boxes = layout.fixed() + _clutter(rng, layout, slots, seat_gap_m)
    for box in layout.fixed() + [layout.human]:
        if not clear_of_band(layout, box):
            raise ValueError(f"{name}: fixed {box.tag} lies in the relevance band")
    ids = _ranked_ids(layout, boxes)
    scene = {
        "schema_version": 1,
        "nodes": [_node(i, b) for i, b in sorted(zip(ids, boxes))],
        "relations": _relations(rng, ids, boxes),
    }
    bed_id, tv_id = ids[0], ids[1]
    h = layout.human
    scenario = {
        "schema_version": 1,
        "name": name,
        "scene": f"{name}_scene.json",
        "conditions": CONDITIONS,
        "human": {
            "id": "human",
            "bbox_center": list(h.center),
            "bbox_extent": list(h.extent),
            "spatial_relations": [["sitting on", bed_id]],
            "activity_relations": [["watching", tv_id]],
        },
        "preferences": ["Don't disturb anyone watching TV"],
        "start": list(layout.start),
        "goal": list(layout.goal),
        "query_radius_m": layout.radius_m,
        "map": {"bounds": [[0.0, 0.0], [layout.size_m, layout.size_m]], "resolution": layout.resolution},
        "assessor": {"kind": "rules"},
        "activity_zones": {"watching": WATCHING_ZONE},
    }
    return scene, scenario


def _write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def materialize(workload: str, seed: int, root: Path, out_dir: Path) -> Path:
    """Write the workload's files into ``out_dir``; return the scenario path.

    ``bedroom`` copies the shipped scenario, scene and replay fixtures from
    ``root/data`` unchanged; the seed does not alter them.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "bedroom":
        for name in ("bedroom_scenario.json", "bedroom_scene.json", "bedroom_assessments.json"):
            shutil.copyfile(root / "data" / name, out_dir / name)
        return out_dir / "bedroom_scenario.json"
    if workload == "cluttered_house":
        scene, scenario = synthetic(HOUSE, workload, seed, slots=18, seat_gap_m=5.0)
    elif workload == "open_hall":
        scene, scenario = synthetic(HALL, workload, seed, slots=4, seat_gap_m=3.0)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(out_dir / scenario["scene"], scene)
    _write_json(out_dir / f"{workload}_scenario.json", scenario)
    return out_dir / f"{workload}_scenario.json"
