"""Fresh-interpreter probe: what one CLI invocation pays before planning, and
the peak memory of one op.

    python3 bench/probe.py ROOT SCENARIO [op]

Times ``import socioplan`` plus ``load_scenario`` and ``load_scene`` of the
scenario's files and prints one JSON line with that set-up time. With ``op``
it then runs one op and adds the process's peak resident memory
(``ru_maxrss``), the report's digest for the caller to compare with its own,
and the op's check results.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    root, scenario_path = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path.insert(0, str(root / "src"))
    started = time.perf_counter()
    import socioplan

    scenario = socioplan.load_scenario(scenario_path)
    socioplan.load_scene(scenario.scene_path().read_bytes())
    setup_s = time.perf_counter() - started

    result = {"setup_s": setup_s}
    if sys.argv[3:] == ["op"]:
        import ops  # this script's directory is on sys.path

        op = ops.run_op(scenario_path)
        result.update(
            peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            report_sha256=hashlib.sha256(op.report).hexdigest(),
            problems=ops.check_op(op, None, None),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
