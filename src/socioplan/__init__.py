"""socioplan: socially aware trajectory planning over human-augmented 3D
semantic scene graphs.

Pipeline: load a scene graph, insert humans with spatial and activity
relations, extract the trajectory-relevant partial graph, assess each object
with a (cost >= 1, clearance >= 0 m) pair via an LLM, rule model, or replay
fixtures, synthesize a planar cost field, and search it for a minimum-cost
path. A scenario runner compares graph-variant conditions end to end.

The package root exports the library API that README's "Library use"
section walks through; everything else stays in its module.
"""

from .cost_assessment import (
    Assessment,
    CostClearance,
    load_assessment_fixtures,
    replay_assess,
    rule_based_assess,
)
from .cost_field import (
    Costmap,
    RectFootprint,
    combined_cost,
    field_spec_from_assessment,
    footprint_of,
    point_cost,
    rasterize,
)
from .human_augmentation import (
    Condition,
    HumanSpec,
    derive_condition_variant,
    insert_human,
)
from .jsonio import FormatError
from .planner import (
    Path,
    PlanRequest,
    PlanningError,
    iterate_plan,
    plan,
)
from .render import render_svg
from .scenario_runner import (
    RunReport,
    Scenario,
    ScenarioError,
    compare_conditions,
    comparison_dict,
    load_report,
    load_scenario,
    min_distance_to_human,
    report_to_json,
    run_scenario,
)
from .scene_graph import (
    ObjectNode,
    Relation,
    RelationKind,
    SceneGraph,
    distance_to_object,
    load_scene,
    objects_within_radius,
    serialize_scene,
    validate_scene,
)
from .trajectory_context import (
    Trajectory,
    induce_partial_graph,
    relevant_objects,
    render_context_text,
)

__version__ = "0.1.0"
