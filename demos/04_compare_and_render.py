"""Run the full scenario under all three conditions, print the comparison
table, and render the result as an SVG.

Equivalent CLI:
    socioplan compare data/bedroom_scenario.json
    socioplan plan data/bedroom_scenario.json -o report.json
    socioplan render report.json -o bedroom.svg
"""

from pathlib import Path

from socioplan import (
    compare_conditions,
    load_scenario,
    min_distance_to_human,
    render_svg,
    report_to_json,
    run_scenario,
)

DATA = Path(__file__).resolve().parent.parent / "data"
OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

scenario = load_scenario(DATA / "bedroom_scenario.json")
report = run_scenario(scenario)

print(compare_conditions(report))
for result in report.conditions:
    print(
        f"{result.condition.label:22s} cost {result.path.total_cost:6.3f}  "
        f"length {result.path.length_m:5.3f} m  "
        f"min dist to human {min_distance_to_human(report.scene, result.path.polyline):.3f} m"
    )

(OUT / "bedroom_report.json").write_text(report_to_json(report), encoding="utf-8")
svg = render_svg(
    report.conditions[-1].costmap,
    [r.path for r in report.conditions],
    report.scene,
    labels=[r.condition.label for r in report.conditions],
)
(OUT / "bedroom.svg").write_text(svg, encoding="utf-8")
print(f"\nreport and SVG written to {OUT}")

# The same pipeline with the deterministic rule model instead of fixtures:
rules_report = run_scenario(scenario, assessor_kind="rules")
print("\nrule-model comparison:\n")
print(compare_conditions(rules_report))
