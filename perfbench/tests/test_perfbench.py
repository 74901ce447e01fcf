"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import queries  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402


def latcut_modules():
    importlib.import_module("latcut.cli")
    return {n: m for n, m in sys.modules.items()
            if n == "latcut" or n.startswith("latcut.")}


def bindings():
    """Every (namespace, name) -> object of the latcut modules and classes."""
    out = {}
    for ns in tracer._namespaces(latcut_modules().values()):
        for key, val in vars(ns).items():
            out[(id(ns), key)] = val
    return out


def test_wrappers_cover_every_binding_and_are_removed_afterwards():
    mods = latcut_modules()
    before = bindings()
    original = mods["latcut.geometry"].homothety
    with Tracer():
        wrapped = mods["latcut.geometry"].homothety
        assert wrapped is not original
        for name in ("latcut.strength", "latcut.scenarios", "latcut.constructions",
                     "latcut"):
            assert mods[name].homothety is wrapped
        poly = mods["latcut.geometry"].Polyhedron
        assert poly.__dict__["from_generators"].__func__.__name__ == "spanned"
        assert poly.__dict__["contains"].__name__ == "spanned"
    after = bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_a_target_the_program_lacks_reads_as_never_called(monkeypatch):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("linalg", "gone_function", "span", ()),
        ("geometry", "Gone.method", "span", ())])
    t = Tracer()
    with t:
        latcut_modules()["latcut.linalg"].rank([[1, 2], [2, 4]])
    m = t.metrics(1)
    assert m["linalg.gone_function.calls"] == 0 and m["linalg.rank.calls"] == 1


def test_spans_are_per_thread_and_self_time_fits_wall_time():
    scenarios = latcut_modules()["latcut.scenarios"]
    t = Tracer()
    with t:
        report = scenarios.run_scenario("cubeface-census", {"n": 2})
    assert report.passed
    assert t.check_threads() == []
    threads = {log.index for log in t._logs if log.spans}
    assert len(threads) >= 2          # the caller and the scenario's pool
    m = t.metrics(1)
    assert list(m) == [n for n in tracer.metric_names() if n != "trace.overhead_s"]
    assert m["scenarios.run_scenario.calls"] == 1
    assert m["constructions.cube_face_construction.calls"] == 3
    assert m["constructions.cube_face_construction.distinct_ratio"] == 1
    assert m["geometry.cone_dd.rows_in"] > 0 and m["linalg.dot.calls"] > 0


def read_batch(batch, work):
    files = sorted(p for p in work.rglob("*.json"))
    return ([[a.replace(str(work), "") for a in q.argv] for q in batch],
            [p.read_text() for p in files])


def test_seeded_inputs_are_deterministic(tmp_path):
    fixtures = queries.load_fixtures(ROOT / "tests" / "fixtures")
    made = []
    for k, seed in enumerate((7, 7, 8)):
        work = tmp_path / str(k)
        made.append(read_batch(queries.Batches(seed, fixtures, work, 1)[0], work))
    assert made[0] == made[1]
    assert made[0] != made[2]
    scenarios = latcut_modules()["latcut.scenarios"]
    for index, seed in ((0, 5), (2, 2005)):
        plan = run.scenario_plan(scenarios, "strength-containment", 5, index)
        assert all(params["seed"] == seed for _, params in plan)


def corrupt(obj, done):
    """obj with its first rational "p/q" string replaced by "(p+1)/q"."""
    if isinstance(obj, str) and "/" in obj and not done:
        p, q = obj.split("/")
        done.append(True)
        return f"{int(p) + 1}/{q}"
    if isinstance(obj, list):
        return [corrupt(x, done) for x in obj]
    if isinstance(obj, dict):
        return {k: corrupt(v, done) for k, v in obj.items()}
    return obj


class CorruptingCli:
    """The real CLI with one rational of every answer changed."""

    def __init__(self, cli):
        self.cli = cli

    def main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        print(json.dumps(corrupt(json.loads(buf.getvalue()), [])))
        return code


class EmptyCli:
    @staticmethod
    def main(argv):
        print("{}")
        return 0


def test_wrong_outputs_count_as_failures(tmp_path):
    fixtures = queries.load_fixtures(ROOT / "tests" / "fixtures")
    batches = queries.Batches(3, fixtures, tmp_path, 2)
    cli = latcut_modules()["latcut.cli"]
    for fake in (CorruptingCli(cli), EmptyCli):
        load = run.cli_load(fake, batches)(0)
        assert len(load.failures) == len(load.latencies) == 2 * len(queries.KINDS)


def test_wrong_scenario_report_counts_as_failure():
    scenarios = latcut_modules()["latcut.scenarios"]

    class Broken:
        SCENARIOS = scenarios.SCENARIOS

        @staticmethod
        def run_scenario(name, params):
            report = scenarios.run_scenario(name, params)
            bad = scenarios.Assertion("injected", False, "wrong on purpose")
            return scenarios.ScenarioReport(report.scenario, report.params,
                                            report.assertions + (bad,), 0.0)

    load = run.scenario_load(Broken, "certify-construct", 1)(0)
    assert load.failures and "wrong on purpose" in load.failures[0]


def test_real_outputs_pass_the_checks(tmp_path):
    fixtures = queries.load_fixtures(ROOT / "tests" / "fixtures")
    cli = latcut_modules()["latcut.cli"]
    load = run.cli_load(cli, queries.Batches(11, fixtures, tmp_path, 1))(0)
    assert load.failures == []


def test_traced_run_matches_untraced_digests(tmp_path):
    loads, metrics, _, problems, _ = run.measure("cli-queries", 2, 0.1, 1, tmp_path)
    assert problems == []
    assert list(metrics) == tracer.metric_names()
    assert metrics["cli.main.calls"] == len(queries.KINDS) * run.CLI_PER_KIND


def test_time_metrics_scale_with_the_reference(tmp_path):
    loads, scaled, raw, problems, _ = run.measure("cli-queries", 4, 0.1, 0, tmp_path)
    assert problems == [] and all(ld.reference > 0 for ld in loads)
    k = run.host_scale([ld.reference for ld in loads])
    assert scaled["wall_s"] == k * raw["wall_s"]
    assert scaled["queries_per_s"] == raw["queries_per_s"] / k
    assert scaled["peak_rss_mb"] == raw["peak_rss_mb"]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == tracer.metric_names()
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
