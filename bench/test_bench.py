"""Tests of the benchmark itself, run at a tiny size through the same code path.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, **estimator) -> dict:
    """The named workload shrunk to a second or so, same strategies and threads."""
    workload = run.load_workload(name)
    cfg = dict(workload["config"])
    dims = [min(d, 10) for d in cfg["dims"][:6]]
    cfg.update(
        dims=dims,
        ranks=[min(r, 2) for r in cfg["ranks"][: len(dims)]],
        budget=sum(d * d for d in dims) // 2,
        schedule=dict(cfg["schedule"], init_multiplier=2, num_batches=4),
        estimator={**cfg["estimator"], "max_iters": 20, **estimator},
        reps=1,
    )
    workload["config"] = cfg
    return workload


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch):
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("name", run.workload_names())
def test_every_metric_present(name):
    assert name in [w["name"] for w in BENCHMARK["workloads"]]
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, records = run.run_workload(tiny(name), seed=1, seconds=0, trace=trace)
        assert result["correct"], records
        assert result["attempted"] == len(records) >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
        if not trace:
            assert all(result["metrics"][m]["value"] > 0 for m in expected)


def test_tracing_does_not_change_outputs():
    _, records = run.run_workload(tiny("desk_exp2"), seed=2, seconds=0, trace=True)
    untraced, traced = records
    assert untraced["sha256"] == traced["sha256"]


def traced_spans(tmp_path, workload) -> list:
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(workload["config"]))
    spans_path = tmp_path / "spans.json"
    cmd = [
        sys.executable, str(run.BENCH / "tracing.py"), str(spans_path), "--",
        "run", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
        "--threads", str(workload["threads"]),
    ]
    code, *_ = run.run_child(cmd, tmp_path / "stderr.txt")
    assert code == 0, (tmp_path / "stderr.txt").read_text()
    return json.loads(spans_path.read_text())["spans"]


def test_span_self_times_and_nesting(tmp_path):
    spans = traced_spans(tmp_path, tiny("desk_exp2"))
    by_id = {sp[tracing.ID]: sp for sp in spans}
    names = {sp[tracing.NAME] for sp in spans}
    assert {"cli.main", "harness.run_experiment", "strategies.job", "estimators.fit",
            "error_bounds.band", "problem.sample", "harness.csv"} <= names
    assert all(s >= -1e-9 for s in tracing.self_times(spans).values())
    for sp in spans:
        parent = by_id.get(sp[tracing.PARENT])
        if parent is None:
            continue
        assert parent[tracing.START] <= sp[tracing.START] <= sp[tracing.END] <= parent[tracing.END]
        if parent[tracing.NAME] != "harness.run_experiment":
            assert sp[tracing.JOB] == parent[tracing.JOB]
    jobs = [sp for sp in spans if sp[tracing.NAME] == "strategies.job"]
    assert len({sp[tracing.JOB] for sp in jobs}) == len(jobs) == 4


def test_self_time_subtracts_union_of_children():
    spans = [
        [1, None, None, "a", 0.0, 10.0, {}],
        [2, 1, None, "b", 1.0, 4.0, {}],
        [3, 1, None, "b", 2.0, 6.0, {}],  # overlaps the first child
    ]
    assert tracing.self_times(spans) == {1: 5.0, 2: 3.0, 3: 4.0}


def test_tail_percentile_needs_ten_samples_beyond():
    assert tracing.tail_percentile(list(range(1000)))[0] == 99.0
    assert tracing.tail_percentile(list(range(100)))[0] == 90.0
    assert tracing.tail_percentile(list(range(5))) == (50.0, 2)


def test_max_iters_one_hits_max_every_fit():
    result, _ = run.run_workload(tiny("full_d200", max_iters=1), seed=1, seconds=0, trace=True)
    metrics = result["metrics"]
    assert metrics["estimators.fit_calls"]["value"] > 0
    assert metrics["estimators.maxiter_share"]["value"] == 1.0
    assert metrics["estimators.iters_per_fit"]["value"] == 1.0


def test_workload_env_reaches_child(tmp_path):
    cmd = [sys.executable, "-c", "import os, sys; sys.exit(os.environ.get('BENCH_X') != '1')"]
    assert run.run_child(cmd, tmp_path / "stderr.txt", {"BENCH_X": "1"})[0] == 0
    assert run.run_child(cmd, tmp_path / "stderr.txt", {"BENCH_X": "2"})[0] == 1


def test_references_of_another_definition_are_dropped(tmp_path, monkeypatch):
    workload = run.load_workload("many_arms")
    entry = {"references": {"1": {"sha256": "x"}}}
    baseline = tmp_path / "baseline.json"
    monkeypatch.setattr(run, "BASELINE", baseline)
    for definition, kept in ((run.definition_sha256(workload), True),
                             (run.definition_sha256(dict(workload, threads=3)), False)):
        baseline.write_text(json.dumps(
            {"workloads": {"many_arms": dict(entry, definition_sha256=definition)}}
        ))
        assert ("many_arms" in run.load_references()) is kept


@pytest.fixture(scope="module")
def good_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("csv")
    workload = tiny("many_arms")
    cfg = dict(workload["config"], seed=5)
    (tmp / "config.json").write_text(json.dumps(cfg))
    cmd = [sys.executable, "-m", "amcsim.cli", "run", "--config", str(tmp / "config.json"),
           "--out", str(tmp / "out")]
    code, *_ = run.run_child(cmd, tmp / "stderr.txt")
    assert code == 0, (tmp / "stderr.txt").read_text()
    return cfg, (tmp / "out" / "metrics.csv").read_text()


def test_good_csv_passes(good_csv, tmp_path):
    cfg, text = good_csv
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    problems, losses, sha = run.check_metrics_csv(path, cfg)
    assert problems == []
    assert len(losses) == 2 * len(cfg["strategies"])
    assert run.check_metrics_csv(path, cfg, losses)[0] == []


def _replace_field(text, row, col, value):
    lines = text.splitlines()
    fields = lines[row].split(",")
    fields[col] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines) + "\n"


CORRUPTIONS = {
    "header": lambda t, d: t.replace("loss_pinf", "loss_max", 1),
    "missing row": lambda t, d: "\n".join(t.splitlines()[:-1]) + "\n",
    "T_k above d^2": lambda t, d: _replace_field(t, 1, 7, str(d * d + 1)),
    "nan loss": lambda t, d: _replace_field(t, 2, 10, "nan"),
    "inf error": lambda t, d: _replace_field(t, 3, 9, "inf"),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_csv_fails(good_csv, tmp_path, kind):
    cfg, text = good_csv
    path = tmp_path / "metrics.csv"
    path.write_text(CORRUPTIONS[kind](text, cfg["dims"][0]))
    problems, _, _ = run.check_metrics_csv(path, cfg)
    assert problems, kind


def test_loss_above_reference_fails(good_csv, tmp_path):
    cfg, text = good_csv
    path = tmp_path / "metrics.csv"
    path.write_text(text)
    _, losses, _ = run.check_metrics_csv(path, cfg)
    reference = {name: value / (1 + 2 * run.LOSS_TOLERANCE) for name, value in losses.items()}
    problems, _, _ = run.check_metrics_csv(path, cfg, reference)
    assert len(problems) == len(losses)
    reference = {name: value / (1 + run.LOSS_TOLERANCE / 2) for name, value in losses.items()}
    assert run.check_metrics_csv(path, cfg, reference)[0] == []


def test_exits_nonzero_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in run.BENCH.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / "bench" / path.relative_to(run.BENCH)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "many_arms", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == "" or not out.stdout.strip().splitlines()[-1].startswith("{")
