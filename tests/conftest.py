from __future__ import annotations

import heapq
import math
from pathlib import Path

import numpy as np
import pytest

from socioplan import (
    Condition,
    HumanSpec,
    ObjectNode,
    Relation,
    RelationKind,
    SceneGraph,
    insert_human,
)
from socioplan.cost_field import Costmap

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def bedroom_scene_text() -> str:
    return (DATA_DIR / "bedroom_scene.json").read_text(encoding="utf-8")


def make_small_scene() -> SceneGraph:
    """Three-object room: bed, tv, armchair, one static relation."""
    return SceneGraph(
        nodes=[
            ObjectNode("bed", "bed", (1.0, 3.8, 0.3), (1.6, 2.0, 0.6),
                       affordances={"sit", "lie on"}),
            ObjectNode("tv", "tv", (3.0, 4.85, 1.2), (1.2, 0.2, 0.7),
                       affordances={"watch"}),
            ObjectNode("armchair", "armchair", (3.0, 1.0, 0.45), (0.8, 0.8, 0.9),
                       affordances={"sit"}),
        ],
        relations=[Relation("next to", "armchair", "bed", RelationKind.SPATIAL)],
    )


def make_seated_human_spec() -> HumanSpec:
    return HumanSpec(
        id="human_1",
        bbox_center=(1.0, 3.5, 0.75),
        bbox_extent=(0.5, 0.5, 0.9),
        spatial_relations=(("sitting on", "bed"),),
        activity_relations=(("watching", "tv"),),
    )


@pytest.fixture
def small_scene() -> SceneGraph:
    return make_small_scene()


@pytest.fixture
def scene_with_human() -> SceneGraph:
    return insert_human(make_small_scene(), make_seated_human_spec())


def uniform_costmap(width: int, height: int, resolution: float = 1.0, cost: float = 1.0) -> Costmap:
    return Costmap(
        origin=(0.0, 0.0),
        resolution=resolution,
        width=width,
        height=height,
        cells=np.full((height, width), float(cost)),
    )


def random_costmap(rng: np.random.Generator, max_side: int = 20, resolution: float = 0.5) -> Costmap:
    width = int(rng.integers(2, max_side + 1))
    height = int(rng.integers(2, max_side + 1))
    cells = rng.uniform(1.0, 10.0, size=(height, width))
    return Costmap(origin=(0.0, 0.0), resolution=resolution, width=width, height=height, cells=cells)


def dijkstra_path(
    costmap: Costmap, start: tuple[int, int], goal: tuple[int, int]
) -> tuple[float, tuple[tuple[int, int], ...]]:
    """Independent oracle: textbook Dijkstra over the 8-connected grid with
    step weight = step length x mean endpoint cell cost, then the planner's
    tie rule. Walking back from the goal, each step takes the neighbour u
    whose distance is below the current cell's and adds up to it exactly,
    with the least (distance + Euclidean distance to the goal, that
    Euclidean distance, iy, ix). Returns the optimum and the path's cells,
    or (inf, ()) when the goal is not reached."""
    width, height = costmap.width, costmap.height
    resolution = costmap.resolution
    cells = costmap.cells

    def weight(u: tuple[int, int], v: tuple[int, int]) -> float:
        step = resolution * math.sqrt(2.0) if u[0] != v[0] and u[1] != v[1] else resolution
        return step * ((cells[u[1], u[0]] + cells[v[1], v[0]]) / 2.0)

    def neighbors(u: tuple[int, int]):
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                v = (u[0] + dx, u[1] + dy)
                if (dx or dy) and 0 <= v[0] < width and 0 <= v[1] < height:
                    yield v

    dist: dict[tuple[int, int], float] = {start: 0.0}
    done: set[tuple[int, int]] = set()
    queue: list[tuple[float, tuple[int, int]]] = [(0.0, start)]
    while queue:
        d, u = heapq.heappop(queue)
        if u in done:
            continue
        done.add(u)
        if u == goal:
            break
        for v in neighbors(u):
            nd = d + weight(u, v)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(queue, (nd, v))
    else:
        return math.inf, ()

    path = [goal]
    while path[-1] != start:
        v = path[-1]
        keys = []
        for u in neighbors(v):
            if u in done and dist[u] < dist[v] and dist[u] + weight(u, v) == dist[v]:
                euclid = resolution * math.sqrt((u[0] - goal[0]) ** 2 + (u[1] - goal[1]) ** 2)
                keys.append((dist[u] + euclid, euclid, u[1], u[0]))
        _, _, iy, ix = min(keys)
        path.append((ix, iy))
    return dist[goal], tuple(reversed(path))


def dijkstra_optimum(costmap: Costmap, start: tuple[int, int], goal: tuple[int, int]) -> float:
    """The optimum of ``dijkstra_path``: inf when the goal is not reached."""
    return dijkstra_path(costmap, start, goal)[0]


# Re-exported so tests can parametrize over conditions without imports noise.
ALL_CONDITIONS = (
    Condition.NO_HUMAN,
    Condition.HUMAN_NO_RELATIONS,
    Condition.HUMAN_WITH_RELATIONS,
)


# --- acceptance reporting -------------------------------------------------
# Tests marked @pytest.mark.acceptance(label=...) get one PASS/FAIL line in
# the terminal summary.

def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(label): acceptance criterion with a summary line"
    )
    config._acceptance_lines = []


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    label = marker.kwargs.get("label", item.name)
    verdict = "PASS" if report.passed else "FAIL"
    item.config._acceptance_lines.append(f"ACCEPTANCE {label}: {verdict}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
