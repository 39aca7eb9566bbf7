"""Load a scene graph, validate it, and run the geometric queries.

The bedroom fixture has four objects (armchair, bed, tv, wardrobe). We check
its invariants, measure point-to-box distances, and ask which objects lie
within a radius of a few probe points.
"""

from pathlib import Path

from socioplan import (
    distance_to_object,
    load_scene,
    objects_within_radius,
    serialize_scene,
    validate_scene,
)

DATA = Path(__file__).resolve().parent.parent / "data"

scene = load_scene((DATA / "bedroom_scene.json").read_bytes())
print(f"loaded {len(scene.nodes)} nodes, {len(scene.relations)} relations")

validate_scene(scene)  # raises FormatError at the first broken rule
print("scene is valid")

# Distances are measured to the closest point of the axis-aligned box,
# so a point inside the bed reports 0.
probe = (0.8, 2.0, 0.0)
for node in scene:
    print(f"  distance from {probe} to {node.id:9s} = {distance_to_object(probe, node):.3f} m")

for radius in (0.5, 1.5, 5.0):
    hits = sorted(objects_within_radius(scene, probe, radius))
    print(f"within {radius:.1f} m of {probe}: {hits}")

# Round trip: serializing and re-loading reproduces the same graph.
assert load_scene(serialize_scene(scene)) == scene
print("serialize -> load round trip ok")
