"""Measure the benchmark over many seeds and record the baseline.

    python3 bench/record.py --seeds 1-10 [--workloads many_arms,full_d200] [--write]

For every workload and seed this runs ``bench/run.py --trace 0`` in a
child process, exactly as a driver would, then one ``--trace 1`` run per
workload on the first seed. It prints, per end-to-end metric, the median
over seeds and the spread: the distance between the first and third
quartiles (``statistics.quantiles(n=4)``) as a share of the median,
beside the metric's bound from ``BENCHMARK.json``.

With ``--write`` it stores ``bench/baseline.json``: the host facts, the
program commit, those medians and spreads, the traced per-layer
breakdown with the shares that state each workload's purpose, and per
seed the final losses and the ``metrics.csv`` hash that ``run.py``
checks later runs against. Workloads not run keep their stored entry.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SHARE_BASE = "trace.wall_s"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_run(workload: str, seed: int, seconds: int, trace: int, details: Path) -> dict:
    cmd = [
        sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--details", str(details),
    ]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
    sys.stdout.write(out.stdout)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def host_facts() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = bool(subprocess.run(
            ["git", "status", "--porcelain", "--", "src"], cwd=run.ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip())
    except (OSError, subprocess.CalledProcessError):
        sha, dirty = None, None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_sha": sha,
        "src_dirty": dirty,
    }


def shares(layers: dict) -> dict:
    """Where the traced wall time went, as shares of ``trace.wall_s``.

    Span times are summed over threads, so with a thread pool a share
    can exceed 1.
    """
    base = layers[SHARE_BASE]
    parts = {
        "fit": ["estimators.fit_s"],
        "bookkeeping": ["strategies.self_s", "harness.self_s", "harness.csv_s",
                        "harness.aggregate_s"],
        "band_and_split": ["error_bounds.band_s", "error_bounds.split_s"],
        "sample": ["problem.sample_s"],
        "select": ["strategies.select_s"],
        "truth": ["problem.truth_s"],
    }
    out = {name: sum(layers[m] for m in keys) / base for name, keys in parts.items()}
    out["base"] = SHARE_BASE
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(run.workload_names()))
    parser.add_argument("--write", action="store_true", help="update bench/baseline.json")
    args = parser.parse_args(argv)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    baseline = json.loads(run.BASELINE.read_text()) if run.BASELINE.exists() else {}
    entries = baseline.setdefault("workloads", {})

    for name in args.workloads.split(","):
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".bench_record") as tmp:
            details = Path(tmp) / "details.jsonl"
            results = [bench_run(name, seed, seconds, 0, details) for seed in seeds]
            layers = bench_run(name, seeds[0], seconds, 1, details)
            records = [json.loads(line) for line in details.read_text().splitlines()]

        failed = sum(r["failed"] for r in results)
        end_to_end = {
            metric: spread([r["metrics"][metric]["value"] for r in results])
            for metric in run.END_TO_END_UNITS
        }
        print(f"\n{name}: {len(seeds)} seeds, {failed} failed invocations")
        for metric, s in end_to_end.items():
            flag = "" if metric == "setup_s" or s["spread"] < bounds[metric] / 3 else "  <-- spread >= bound/3"
            print(f"  {metric:26s} median {s['median']:12.6g}  spread {s['spread']:.4f}"
                  f"  bound {bounds[metric]}{flag}")
        definition = run.definition_sha256(run.load_workload(name))
        stored = entries.get(name, {})
        entry = {
            "definition_sha256": definition,
            "seeds": seeds,
            "run_seconds": seconds,
            "failed_invocations": failed,
            "end_to_end": end_to_end,
            "references": {
                **(stored.get("references", {})
                   if stored.get("definition_sha256") == definition else {}),
                **{
                    str(r["seed"]): {**r["losses"], "sha256": r["sha256"]}
                    for r in records
                    if not r["traced"] and not r["problems"]
                },
            },
        }
        per_layer = {k: v["value"] for k, v in layers["metrics"].items()}
        entry["per_layer"] = {"seed": seeds[0], **per_layer}
        entry["shares"] = shares(per_layer)
        entry["facts"] = {
            "cpu_over_wall": end_to_end["cpu_s"]["median"] / end_to_end["wall_s"]["median"],
            **{k: per_layer[k] for k in (
                "estimators.maxiter_share", "estimators.iters_per_fit",
                "harness.job_concurrency", "trace.overhead_s",
            )},
            "svd_ms": 1e3 * per_layer["estimators.svd_s"] / max(per_layer["estimators.svd_calls"], 1),
            "fit_share": entry["shares"]["fit"],
            "bookkeeping_share": entry["shares"]["bookkeeping"],
        }
        print(f"  shares of {SHARE_BASE}: "
              + ", ".join(f"{k} {v:.3f}" for k, v in entry["shares"].items() if k != "base"))
        print("  facts: " + ", ".join(f"{k} {v:.4g}" for k, v in entry["facts"].items()))
        entries[name] = entry

    if args.write:
        baseline["host"] = host_facts()
        run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
        print(f"wrote {run.BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
