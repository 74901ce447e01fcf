"""latcut benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One process with one closed-loop client drives the program: it runs the
workload's fixed load (one pass over its scenarios, or one batch of CLI
queries) again and again until ``--seconds`` have passed, and reports the
median load, with times scaled to a fixed host speed (see REFERENCE_S).
``--trace 1`` instead reports per-layer numbers from a run in which
``tracer`` wraps the library's public functions.  The last line of stdout
is one JSON object; the exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
FIXTURES = ROOT / "tests" / "fixtures"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import queries  # noqa: E402
from tracer import UNITS, Tracer  # noqa: E402

# Scenario workloads: (scenario, parameter overrides).  Sizes keep most
# calls near a tenth to a quarter of a second on a 2-CPU machine, so a run
# makes a hundred or more calls on fresh random inputs.  In
# certify-construct the calls of fixed work (cubeface-census, 0.25 s, and
# lifting-end-to-end, 0.7 s) hold the median and the 95th percentile, and
# the seeded calls sit clear of them.
SCENARIO_WORKLOADS = {
    "strength-containment": [
        ("rho-closed-form", {"trials": 2}),
        ("one-for-all-sandwich", {"instances": 3}),
    ],
    "polar-metric": [
        ("gauge-metric-properties", {"checks": 8}),
        ("split-vs-triangles", {"count": 2, "tmax": 16}),
    ],
    "certify-construct": [
        ("cubeface-census", {}),
        ("approximation-factors", {"count": 1}),
        ("lifting-end-to-end", {}),
        ("inapprox-witnesses", {"samples": 4}),
        ("truncated-cone-shrink", {"count": 10}),
    ],
}
WORKLOADS = list(SCENARIO_WORKLOADS) + ["cli-queries"]

CLI_PER_KIND = 2        # queries of each kind in a batch
SETUP_REPEATS = 7
MIN_LOADS = 3
# The host's speed drifts by up to 2x over spans of a minute or more, longer
# than a run, so raw times of runs made minutes apart differ by more than
# any change worth detecting.  Before every load the run times a fixed
# exact-arithmetic task of the benchmark's own (it never calls latcut) and
# scales every time metric by REFERENCE_S / (the mean of those reference
# times; set-up by its own): times are reported at the host speed where that
# task takes REFERENCE_S.  The table before the result line shows the raw
# values too.
REFERENCE_S = 0.014
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "query_p50_ms": "ms", "query_p95_ms": "ms",
                    "queries_per_s": "1/s"}


@dataclass
class Load:
    """Outcome of one fixed load."""
    wall: float = 0.0
    reference: float = 0.0      # reference task time just before the load
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digests: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# set-up


def fresh_import():
    """Import latcut from src/ anew, so set-up time includes the import."""
    for name in [m for m in sys.modules if m == "latcut" or m.startswith("latcut.")]:
        del sys.modules[name]
    importlib.import_module("latcut")
    return (importlib.import_module("latcut.scenarios"),
            importlib.import_module("latcut.cli"))


def setup(fixtures):
    """The program's set-up: import latcut anew, then read the fixture
    catalogue through its JSON reader.  Returns the modules the workloads
    drive and the fixtures whose parse disagrees with the benchmark's own
    reading of them."""
    scenarios, cli = fresh_import()
    jsonio = importlib.import_module("latcut.jsonio")
    bad = []
    for name, body in fixtures.items():
        p = jsonio.parse_polyhedron((FIXTURES / f"{name}.json").read_text())
        if (len(p.halfspaces), len(p.vertices), len(p.rays)) != (
                len(body.facets), len(body.vertices), len(body.rays)):
            bad.append(f"fixture {name} parses to different counts")
    return scenarios, cli, bad


def reference_inputs(fixtures):
    rng = random.Random("reference")
    bodies = [queries.placed(rng, fixtures, "octahedron") for _ in range(6)]
    return [(b, queries.interior_point(rng, b)) for b in bodies]


def reference_time(inputs) -> float:
    """Seconds the fixed reference task takes now."""
    t0 = time.perf_counter()
    for body, f in inputs:
        oracle.interior_lattice_points(body)
        for v in body.vertices:
            oracle.gauge(body, f, tuple(x - y for x, y in zip(v, f)))
    return time.perf_counter() - t0


def scenario_plan(scenarios, workload, seed, index):
    """The calls of load `index`.  Load 0 passes the workload seed as the
    scenario seed and load k passes seed + 1000 k, so no two loads of a run
    share random inputs (scenarios without a seed repeat the same work)."""
    plan = []
    for name, params in SCENARIO_WORKLOADS[workload]:
        params = dict(params)
        if "seed" in scenarios.SCENARIOS[name].defaults:
            params["seed"] = seed + 1000 * index
        plan.append((name, params))
    return plan


def report_digest(report) -> str:
    obj = report.to_obj()
    obj.pop("wall_time_s")
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def scenario_load(scenarios, workload, seed):
    def load(index) -> Load:
        out = Load()
        start = time.perf_counter()
        for name, params in scenario_plan(scenarios, workload, seed, index):
            t0 = time.perf_counter()
            try:
                report = scenarios.run_scenario(name, params)
            except Exception:
                out.latencies.append(time.perf_counter() - t0)
                out.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
                out.digests.append(None)
                continue
            out.latencies.append(time.perf_counter() - t0)
            if not report.passed:
                bad = [a for a in report.assertions if not a.passed]
                out.failures.append(f"{name}: {bad[0].name}: {bad[0].detail}")
            out.digests.append(report_digest(report))
        out.wall = time.perf_counter() - start
        return out
    return load


def run_query(cli, query):
    """(latency, exit code or None, stdout, failure reason or None)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(query.argv))
    except SystemExit as exc:      # argparse rejected the arguments
        return (time.perf_counter() - t0, exc.code, "",
                f"{query.kind}: usage error: {stderr.getvalue().strip()}")
    except Exception:
        return (time.perf_counter() - t0, None, "",
                f"{query.kind}: {traceback.format_exc(limit=3)}")
    latency = time.perf_counter() - t0
    if code == 2:
        return latency, code, "", f"{query.kind}: exit 2: {stderr.getvalue().strip()}"
    try:
        reason = query.check(code, stdout.getvalue())
    except Exception as exc:        # output lacks a key or has a bad value
        reason = f"malformed output: {exc!r}"
    return latency, code, stdout.getvalue(), reason and f"{query.kind}: {reason}"


def cli_load(cli, batches):
    def load(index) -> Load:
        out = Load()
        h = hashlib.sha256()
        for query in batches[index]:
            latency, code, text, reason = run_query(cli, query)
            out.latencies.append(latency)
            if reason:
                out.failures.append(f"{' '.join(query.argv)}: {reason}")
            h.update(f"{code}\n{text}".encode())
        out.wall = sum(out.latencies)
        out.digests.append(h.hexdigest())
        return out
    return load


def run_loads(load, reference, seconds, min_loads, limit=None):
    """Loads 0, 1, ... until seconds have passed (and at least min_loads
    ran), or limit loads ran; each after a timing of the reference task."""
    loads = []
    start = time.perf_counter()
    while limit is None or len(loads) < limit:
        gc.collect()
        ref = reference()
        loads.append(load(len(loads)))
        loads[-1].reference = ref
        if time.perf_counter() - start >= seconds and len(loads) >= min_loads:
            break
    return loads


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))]


def end_to_end(setup_times, loads, setup_scale=1.0, scale=1.0):
    """The end-to-end metrics, with times multiplied by the scales."""
    lat = [x for ld in loads for x in ld.latencies]
    return {
        "setup_s": setup_scale * statistics.median(setup_times),
        "wall_s": scale * statistics.median(ld.wall for ld in loads),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "query_p50_ms": scale * 1000 * percentile(lat, 0.50),
        "query_p95_ms": scale * 1000 * percentile(lat, 0.95),
        "queries_per_s": len(lat) / sum(lat) / scale,
    }


def host_scale(reference_times) -> float:
    return REFERENCE_S / statistics.mean(reference_times)


def digest_problems(traced, plain):
    """Traced loads whose output digests differ from the same plain load's."""
    return [f"load {i}: traced output digests differ from the untraced run"
            for i, (t, p) in enumerate(zip(traced, plain)) if t.digests != p.digests]


# ---------------------------------------------------------------------------
# driver


def measure(workload, seed, seconds, trace, work):
    """(loads, metrics, raw metrics, problems, digests of the first load)."""
    fixtures = queries.load_fixtures(FIXTURES)
    inputs = reference_inputs(fixtures)

    def reference():
        return reference_time(inputs)
    setup_times, setup_refs = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        gc.collect()
        setup_refs.append(reference())
        t0 = time.perf_counter()
        scenarios, cli, problems = setup(fixtures)
        setup_times.append(time.perf_counter() - t0)
    if workload == "cli-queries":
        load = cli_load(cli, queries.Batches(seed, fixtures, work, CLI_PER_KIND))
    else:
        load = scenario_load(scenarios, workload, seed)

    if not trace:
        loads = run_loads(load, reference, seconds, MIN_LOADS)
        scaled = end_to_end(setup_times, loads, host_scale(setup_refs),
                            host_scale([ld.reference for ld in loads]))
        return (loads, scaled, end_to_end(setup_times, loads), problems,
                loads[0].digests)

    # traced: plain loads first, then the same loads under the tracer
    plain = run_loads(load, reference, seconds / 3, 1)
    tracer = Tracer()
    with tracer:
        traced = run_loads(load, reference, seconds / 2, 1, limit=len(plain))
    problems += digest_problems(traced, plain)
    problems += tracer.check_threads()
    per_layer = tracer.metrics(len(traced))
    per_layer["trace.overhead_s"] = (statistics.median(ld.wall for ld in traced)
                                     - statistics.median(ld.wall for ld in plain))
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"trace-{workload}-seed{seed}.jsonl.gz")
    return plain + traced, per_layer, per_layer, problems, plain[0].digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "latcut" / "__init__.py").is_file():
        print(f"error: no latcut sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = OUT / f"work-{os.getpid()}"
    try:
        loads, metrics, raw, problems, digests = measure(
            args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(ld.latencies) for ld in loads)
    failed = sum(len(ld.failures) for ld in loads)
    for ld in loads:
        for reason in ld.failures[:3]:
            print(f"FAIL {reason}")
    for reason in problems:
        print(f"FAIL {reason}")
    names = ([n for n, _ in SCENARIO_WORKLOADS[args.workload]]
             if args.workload in SCENARIO_WORKLOADS else ["batch-0"])
    for name, digest in zip(names, digests):
        print(f"digest {args.workload} seed={args.seed} {name} {digest}")
    units = {} if args.trace else END_TO_END_UNITS
    walls = sorted(ld.wall for ld in loads)
    print(f"loads {len(loads)}  load wall min/median/max {walls[0]:.4f}/"
          f"{statistics.median(walls):.4f}/{walls[-1]:.4f} s")
    print(f"queries {attempted}  failed {failed}  error_rate {failed / attempted:.6f}")
    if not args.trace:
        print(f"host scale {host_scale([ld.reference for ld in loads]):.4f} "
              f"(reference {REFERENCE_S} s / mean reference time); "
              f"raw values in the last column")
    for name, value in metrics.items():
        unit = units.get(name) or _layer_unit(name)
        print(f"{name:48} {value:14.6f} {unit:6} {raw[name]:14.6f}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": v, "unit": units.get(n) or _layer_unit(n)}
                    for n, v in metrics.items()},
    }))
    return 0 if correct else 1


def _layer_unit(name):
    return UNITS[name.rsplit(".", 1)[-1]]


if __name__ == "__main__":
    sys.exit(main())
