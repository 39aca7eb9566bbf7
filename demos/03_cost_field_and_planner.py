"""Turn per-object (cost, clearance) pairs into a planar cost field,
rasterize it, and search it for the minimum-cost path.

Costs come from the recorded with-relations assessment: the seated human
dominates (5, 2 m), the occupied bed repels (3, 1.5 m), the empty armchair
is free (1, 0). The planner detours around the human while cutting past the
armchair.
"""

from pathlib import Path

from socioplan import (
    PlanRequest,
    combined_cost,
    field_spec_from_assessment,
    insert_human,
    load_assessment_fixtures,
    load_scene,
    plan,
    point_cost,
    rasterize,
    replay_assess,
    footprint_of,
    Condition,
    HumanSpec,
)

DATA = Path(__file__).resolve().parent.parent / "data"

scene = load_scene((DATA / "bedroom_scene.json").read_bytes())
graph = insert_human(
    scene,
    HumanSpec(
        id="human",
        bbox_center=(1.0, 3.5, 0.75),
        bbox_extent=(0.5, 0.5, 0.9),
        spatial_relations=(("sitting on", "bed"),),
        activity_relations=(("watching", "tv"),),
    ),
)

store = load_assessment_fixtures((DATA / "bedroom_assessments.json").read_bytes())
recorded = ("armchair", "bed", "human")
assessment = replay_assess(store, "bedroom", Condition.HUMAN_WITH_RELATIONS, recorded)
print("assessment:", {k: (v.cost, v.clearance) for k, v in sorted(assessment.entries.items())})

# Single-contribution falloff: the bed's influence fades linearly and
# vanishes at its clearance distance.
bed = footprint_of(graph.node("bed"))
for d in (0.0, 0.75, 1.5, 2.0):
    value = point_cost((bed.max_xy[0] + d, graph.node("bed").bbox_center[1]), bed, 3.0, 1.5)
    print(f"  bed contribution {d:.2f} m from the footprint: {value:.2f}")

spec = field_spec_from_assessment(graph, assessment)
print("combined cost at the human's edge:", combined_cost((1.0, 3.2), spec))

costmap = rasterize(spec, (), bounds=((0.0, 0.0), (6.0, 5.0)), resolution=0.1)
print(f"costmap {costmap.width}x{costmap.height}, max cell {costmap.cells.max():.1f}")

path = plan(PlanRequest(start=(0.8, 2.0), goal=(3.4, 0.2), costmap=costmap))
print(
    f"planned path: {len(path.cells)} cells, total cost {path.total_cost:.3f}, "
    f"length {path.length_m:.3f} m"
)
print("first waypoints:", [tuple(round(c, 2) for c in p) for p in path.polyline[:5]])
