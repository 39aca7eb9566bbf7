"""Insert a human into the scene, derive the three ablation conditions, and
assess object costs with the deterministic rule model.

The human sits on the bed watching the tv. Dropping their relations makes
the rule model treat every sittable object as potentially occupied; keeping
them concentrates the impact on the bed (occupied) and releases the
armchair (demonstrably empty).
"""

from pathlib import Path

from socioplan import (
    Condition,
    HumanSpec,
    derive_condition_variant,
    insert_human,
    load_scene,
    render_context_text,
    relevant_objects,
    rule_based_assess,
    Trajectory,
)
from socioplan.planner import relevant_context

DATA = Path(__file__).resolve().parent.parent / "data"

scene = load_scene((DATA / "bedroom_scene.json").read_bytes())
human = HumanSpec(
    id="human",
    bbox_center=(1.0, 3.5, 0.75),
    bbox_extent=(0.5, 0.5, 0.9),
    spatial_relations=(("sitting on", "bed"),),
    activity_relations=(("watching", "tv"),),
)
graph = insert_human(scene, human)
print("relations after insertion:")
for relation in graph.relations:
    print(f"  {relation.head_id} --{relation.name}--> {relation.tail_id} [{relation.kind.value}]")

# A straight trajectory from near the bed to just past the armchair.
trajectory = Trajectory(((0.8, 2.0, 0.0), (3.4, 0.2, 0.0)))
preferences = ["Don't disturb anyone watching a football match"]

for condition in Condition:
    variant = derive_condition_variant(graph, condition)
    partial, assessed = relevant_context(variant, relevant_objects(variant, trajectory, radius=1.5))
    assessment = rule_based_assess(partial, trajectory, assessed, preferences)
    print(f"\n{condition.label}: relevant = {list(assessed)}")
    for object_id, cc in sorted(assessment.entries.items()):
        print(f"  {object_id:9s} cost {cc.cost:4.1f}  clearance {cc.clearance:.1f} m")

# The canonical text block fed to assessors (and to the LLM prompt):
variant = derive_condition_variant(graph, Condition.HUMAN_WITH_RELATIONS)
partial, _ = relevant_context(variant, relevant_objects(variant, trajectory, radius=1.5))
print("\ncontext text for the with-relations partial graph:\n")
print(render_context_text(partial, trajectory, preferences))
