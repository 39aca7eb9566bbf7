"""Measurement loop of the benchmark: generated inputs, checked ops,
calibrated timing, fresh-interpreter probes and the traced run.

``run.py`` is the entry point; it puts ``src/`` on the path before importing
this module.
"""

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy

import calibrate
import ops
import tracing
import workloads
from socioplan import load_scenario, load_scene, validate_scene

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROBES = 15  # fresh interpreters per run for setup_s
RSS_PROBES = 1  # of which this many also run one op, for peak_rss_mb
PROBE_TIMEOUT_S = 120
GAP_SHARE = 0.1  # calibration time after each op, as a share of the op's time
TRACE_OVERHEAD = "bench.trace_overhead_ms"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def attempt(scenario_path, tally, reference, expected, tracer=None):
    """Run one op, optionally traced, and check it; None if it failed to run."""
    tally.attempted += 1
    try:
        if tracer is None:
            op = ops.run_op(scenario_path)
        else:
            with tracer:
                op = ops.run_op(scenario_path)
        problems = ops.check_op(op, reference, expected)
    except Exception as exc:  # a failing op is counted, and the run goes on
        tally.fail(f"op or its checks raised {type(exc).__name__}: {exc}")
        return None
    if problems:
        tally.fail("; ".join(problems))
    return op


def check_inputs(scenario_path: Path, tally: Tally) -> None:
    """Generated files must load strictly and give a valid scene."""
    scenario = load_scenario(scenario_path, strict=True)
    violations = validate_scene(load_scene(scenario.scene_path().read_bytes(), strict=True))
    if violations:
        tally.problems.append(f"generated scene is invalid: {violations[0].message}")


def probe(scenario_path: Path, reference, tally: Tally, with_op: bool):
    """Set-up time, and with ``with_op`` the peak memory of one op, from a
    fresh interpreter; None if the probe did not finish."""
    tally.attempted += 1
    command = [sys.executable, str(BENCH_DIR / "probe.py"), str(ROOT), str(scenario_path)]
    try:
        done = subprocess.run(
            command + (["op"] if with_op else []),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        tally.fail("probe timed out")
        return None
    if done.returncode != 0:
        tally.fail(f"probe exited {done.returncode}: {done.stderr.strip()[-300:]}")
        return None
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = list(result.get("problems", []))
    if with_op and result["report_sha256"] != hashlib.sha256(reference.report).hexdigest():
        problems.append("probe report differs from the run's report")
    if problems:
        tally.fail("probe: " + "; ".join(problems))
    return result


def until(seconds: float):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        yield


def calibrated(calls, run_one):
    """Call ``run_one`` on each item of ``calls`` with a run of the calibration
    kernel in the gap after each call. Return each result with two factors
    that scale its times to the reference host speed (see calibrate.py): one
    from the window of gaps around the call, for the call as a whole, and one
    from the gap right after it, for its last short step."""
    gaps = [calibrate.sample(0.0)]
    results = []
    for item in calls:
        started = time.perf_counter()
        results.append(run_one(item))
        gaps.append(calibrate.sample(GAP_SHARE * (time.perf_counter() - started)))
    after = [calibrate.REFERENCE_S / gap for gap in gaps[1:]]
    return list(zip(results, calibrate.scales(gaps), after))


def summarize(name: str, samples: list[float], unit: str) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    parts = [f"p50 {statistics.median(samples):.3f} {unit}"]
    for pct in (99, 90):
        if n * (100 - pct) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
            parts.append(f"p{pct} {cut:.3f} {unit}")
            break
    return f"{name}: " + ", ".join(parts) + f" (n={n})"


def end_to_end(scenario_path, seconds, tally, reference, expected, lines):
    def run_probe(with_op):
        return probe(scenario_path, reference, tally, with_op)

    def run_op(_):
        return attempt(scenario_path, tally, reference, expected)

    setup, raw_setup, rss = [], [], []
    with_op = [k < RSS_PROBES for k in range(PROBES)]
    for result, scale, _ in calibrated(with_op, run_probe):
        if result is not None:
            setup.append(result["setup_s"] * scale)
            raw_setup.append(result["setup_s"])
            if "peak_rss_kb" in result:
                rss.append(result["peak_rss_kb"] / 1024.0)
    plan, render, raw_plan, raw_render = [], [], [], []
    for op, scale, scale_after in calibrated(until(seconds), run_op):
        if op is not None:
            plan.append(op.plan_s * 1000.0 * scale)
            render.append(op.render_s * 1000.0 * scale_after)
            raw_plan.append(op.plan_s * 1000.0)
            raw_render.append(op.render_s * 1000.0)
    if not (plan and setup and rss):
        return {}
    lines.append(summarize("plan_ms", plan, "ms"))
    lines.append(summarize("render_ms", render, "ms"))
    lines.append(summarize("setup_s", setup, "s"))
    lines.append(summarize("peak_rss_mb", rss, "MB"))
    lines.append(summarize("unscaled plan_ms", raw_plan, "ms"))
    lines.append(summarize("unscaled render_ms", raw_render, "ms"))
    lines.append(summarize("unscaled setup_s", raw_setup, "s"))
    return {
        "plan_ms.p50": statistics.median(plan),
        "render_ms.p50": statistics.median(render),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
        "report_bytes": len(reference.report),
    }


def per_layer(scenario_path, seconds, tally, reference, expected, lines):
    def untraced_then_traced(_):
        tracer = tracing.Tracer()
        return (
            attempt(scenario_path, tally, reference, expected),
            attempt(scenario_path, tally, reference, expected, tracer),
            tracer,
        )

    untraced, traced = [], []
    samples = defaultdict(list)
    for (plain, op, tracer), scale, _ in calibrated(until(seconds), untraced_then_traced):
        if plain is not None:
            untraced.append(plain.plan_s * 1000.0 * scale)
        if op is not None:
            traced.append(op.plan_s * 1000.0 * scale)
            for name, value in tracing.layer_metrics(tracer).items():
                samples[name].append(value * scale if name.endswith("_ms") else value)
    if not (untraced and traced):
        return {}
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics[TRACE_OVERHEAD] = statistics.median(traced) - statistics.median(untraced)
    lines.append(summarize("plan_ms untraced", untraced, "ms"))
    lines.append(summarize("plan_ms traced", traced, "ms"))
    self_times = sorted(
        ((v, k[: -len("_ms")]) for k, v in metrics.items() if k.endswith("_ms") and k != TRACE_OVERHEAD),
        reverse=True,
    )
    lines.append("self time per op (ms): " + ", ".join(f"{k} {v:.2f}" for v, k in self_times))
    lines.append(f"largest self time: {self_times[0][1]}")
    return metrics


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run(args) -> int:
    """Run one workload; print the log lines, then the result as JSON."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    tally = Tally()
    lines = [f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}"]
    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    metrics = {}
    try:
        scenario_path = workloads.materialize(args.workload, args.seed, ROOT, work)
        check_inputs(scenario_path, tally)
        expected = (ROOT / "data" / "bedroom_report.json").read_bytes() if args.workload == "bedroom" else None
        reference = attempt(scenario_path, tally, None, expected)  # also warms caches
        if reference is not None:
            measure = per_layer if args.trace else end_to_end
            metrics = measure(scenario_path, args.seconds, tally, reference, expected, lines)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "nproc": os.cpu_count(),
    }
    complete = bool(metrics)
    result = {
        "correct": complete and tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
        if complete
        else {},
    }
    lines.append(f"ops attempted {tally.attempted}, failed {tally.failed}")
    lines.extend(f"problem: {p}" for p in tally.problems)
    lines.append("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if complete else 1
