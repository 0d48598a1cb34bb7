"""Tests of the benchmark's own code: span arithmetic, oracle, names, wrapper hygiene.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import child
import common
import run
import tracing
import trajectory
from conftest import BENCH, ROOT

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def span(sid, parent, start, end, name="x", pid=1, **attrs):
    return {"id": sid, "parent": parent, "start": start, "end": end, "name": name, "pid": pid,
            "run": "r", **attrs}


def benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- self time ------------------------------------------------------------------


def test_union_length_merges_overlaps_and_gaps():
    assert tracing.union_length([]) == 0.0
    assert tracing.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracing.union_length([(3, 6), (1, 4), (2, 3)]) == 5.0
    assert tracing.union_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_of_nested_overlapping_and_foreign_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),
        span("a1", "a", 2.0, 3.0),
        span("b", "root", 3.0, 6.0),          # overlaps a: the union counts once
        span("late", "root", 9.0, 12.0),      # clipped to the parent's end
        span("w", "root", 5.0, 9.5, pid=2),   # a pool worker: parent waits, keeps the time
    ]
    selfs = tracing.self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["a"] == pytest.approx(2.0)
    assert selfs["a1"] == pytest.approx(1.0)
    assert selfs["b"] == pytest.approx(3.0)
    assert selfs["late"] == pytest.approx(3.0)
    assert selfs["w"] == pytest.approx(4.5)


def test_layer_metrics_counts_passes_pools_and_overhead():
    spans = [
        span("m", None, 0.0, 10.0, name="cli.main"),
        span("v", "m", 0.5, 9.0, name="montecarlo.verify_tag_marginals"),
        span("p", "v", 1.0, 8.0, name="montecarlo.pool"),
    ]
    for i, chunk in enumerate((0, 1, 0, 1)):
        t = 1.0 + i
        spans.append(span(f"u{i}", "p", t, t + 0.25, name="engine.chunk_uniforms", pid=2, chunk=chunk))
        spans.append(span(f"t{i}", "p", t + 0.25, t + 1.0, name="engine.batch_tag_matrix", pid=2,
                          rows=100, peak_bytes=2**20 * (i + 1)))
    m = tracing.layer_metrics(spans, main_pid=1, cpu_s=9.0)
    assert m["montecarlo.passes_per_chunk"] == 2.0
    assert m["montecarlo.pools"] == 1
    assert m["engine.batch_tag_matrix.calls"] == 4
    assert m["engine.batch_tag_matrix.rows"] == 400
    assert m["engine.batch_tag_matrix.rows_per_s"] == pytest.approx(400 / 3.0)
    assert m["engine.batch_tag_matrix.peak_mb"] == pytest.approx(4.0)
    assert m["engine.batch_tag_matrix.call_p50_ms"] == pytest.approx(750.0)
    assert m["montecarlo.self_s"] == pytest.approx(1.5 + 7.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    # busy: parent self outside the pool wait (1.5 + 1.5) plus worker spans (4.0)
    assert m["montecarlo.pool.overhead_cpu_s"] == pytest.approx(9.0 - 7.0)
    assert m["greedy.mu_exact.rankings_per_s"] == 0.0


# -- oracle ---------------------------------------------------------------------


def test_digest_check_flags_one_changed_byte_and_a_changed_exit_code():
    report = b'{"results": {"p_hat": 0.5}}\n'
    oracle = {"workloads": {"w": {"7": {"sha256": common.digest(report), "exit": 1}}}}
    assert common.check_output(oracle, "w", 7, common.digest(report), 1) is None
    flipped = report.replace(b"5", b"6", 1)
    assert len(flipped) == len(report)
    assert "sha256" in common.check_output(oracle, "w", 7, common.digest(flipped), 1)
    assert "exit code" in common.check_output(oracle, "w", 7, common.digest(report), 0)
    assert common.check_output(oracle, "w", 8, common.digest(report), 1) is not None


def test_oracle_covers_every_workload_and_pool_seed():
    spec, oracle = common.load_spec(), common.load_oracle()
    for name in spec["workloads"]:
        assert set(oracle["workloads"][name]) == {str(s) for s in range(spec["seed_pool"])}


def test_program_seeds_are_a_function_of_the_run_seed():
    def take(name, seed):
        g = common.program_seeds(name, seed, 32)
        return [next(g) for _ in range(8)]

    assert take("w", 3) == take("w", 3)
    assert take("w", 3) != take("w", 4)
    assert all(0 <= s < 32 for s in take("w", 5))


# -- run records ----------------------------------------------------------------


def test_trajectory_point_keeps_only_records_of_the_measured_source(tmp_path):
    pkg = tmp_path / "src" / "poset_secretary"
    pkg.mkdir(parents=True)
    (pkg / "engine.py").write_text("x = 1\n")
    env = run.environment(tmp_path)
    out = tmp_path / "out"
    out.mkdir()

    def write(seed, source_sha256, wall_s):
        rec = {"workload": "w", "trace": 0, "seed": seed, "env": dict(env, source_sha256=source_sha256,
                                                                      versions={}),
               "result": {"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}}
        (out / f"w.seed{seed}.trace0.json").write_text(json.dumps(rec))

    write(1, env["source_sha256"], 2.0)
    write(2, "0" * 64, 9.0)  # left over from other code
    write(3, env["source_sha256"], 4.0)
    p = trajectory.point("now", tmp_path, out)
    entry = p["workloads"]["w"]["end_to_end"]
    assert entry["seeds"] == [1, 3]
    assert entry["metrics"]["wall_s"]["runs"] == [2.0, 4.0]
    assert entry["metrics"]["wall_s"]["median"] == 3.0
    assert p["source_sha256"] == env["source_sha256"]
    (pkg / "engine.py").write_text("x = 2\n")
    with pytest.raises(SystemExit):
        trajectory.point("changed", tmp_path, out)


def test_quantiles_stay_within_the_values():
    assert common.quantiles([], 4) == [0.0, 0.0, 0.0]
    assert common.quantiles([5.0], 10) == [5.0] * 9
    assert common.quantiles([0.0, 10.0], 10)[4] == pytest.approx(5.0)
    assert common.quantiles([0.0, 10.0], 10)[8] == pytest.approx(9.0)
    assert run.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)


# -- declared names -------------------------------------------------------------


def test_benchmark_json_matches_spec():
    bench, spec = benchmark(), common.load_spec()
    assert {w["name"] for w in bench["workloads"]} <= set(spec["workloads"])
    for w in bench["workloads"]:
        assert w["why"] == spec["workloads"][w["name"]]["why"]
    assert [m["name"] for m in bench["per_layer"]] == list(spec["layers"])
    assert [m["name"] for m in bench["end_to_end"]] == list(spec["end_to_end"])
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    for layer, info in spec["layers"].items():
        assert set(info["moves"]) <= set(spec["end_to_end"]), layer
        assert set(info["most"]) | set(info["least"]) <= set(spec["workloads"]), layer


def printed_names(stdout: str) -> set[str]:
    return {m.group(1) for m in re.finditer(r"^(\S+) = ", stdout, re.MULTILINE)}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_prints_only_declared_names(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-mu-random10", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in benchmark()["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    # failed_frac is carried by the result's attempted and failed keys
    assert printed_names(proc.stdout) == set(declared) | {"failed_frac"}
    assert all(NAME_RE.fullmatch(n) for n in printed_names(proc.stdout))
    if trace:
        assert result["metrics"]["engine.batch_tag_matrix.calls"]["value"] == 0
        assert result["metrics"]["greedy.mu_exact.calls"]["value"] == 1


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-random8", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- wrapper hygiene ------------------------------------------------------------

SMALL_VERIFY = ["verify", "random:5:0.3:1", "--lemma", "all", "--trials", "40000", "--seed", "3",
                "--workers", "2"]


def test_the_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    from poset_secretary import cli

    def refuse(_tracer):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(tracing, "install", refuse)
    out = child.run_cli(cli, {"trace": 0, "argv": SMALL_VERIFY, "trace_dir": str(tmp_path)})
    assert out["exit"] in (0, 1) and "layers" not in out
    assert tracing.installed_wrappers() == []


def test_the_traced_run_counts_pools_and_passes_and_unwraps(tmp_path):
    from poset_secretary import cli, engine, families

    original = engine.batch_tag_matrix
    traced = child.run_cli(cli, {"trace": 1, "argv": SMALL_VERIFY, "trace_dir": str(tmp_path)})
    plain = child.run_cli(cli, {"trace": 0, "argv": SMALL_VERIFY, "trace_dir": str(tmp_path)})
    assert tracing.installed_wrappers() == []
    assert engine.batch_tag_matrix is original
    assert traced["stdout_sha256"] == plain["stdout_sha256"]
    maximal = len(families.parse_generator_spec("random:5:0.3:1").build().maximal)
    passes = 4 + 3 * maximal  # marginals, independence, two last-tag times, 3 pinned times each
    layers = traced["layers"]
    assert layers["montecarlo.pools"] == passes
    assert layers["montecarlo.passes_per_chunk"] == passes
    assert layers["engine.batch_tag_matrix.calls"] == 2 * passes
    assert layers["engine.batch_tag_matrix.rows"] == 40000 * passes
    assert layers["greedy.mu_t_exact.calls"] > 0
