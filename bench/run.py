"""End-to-end benchmark of the `amcsim` CLI.

Each workload in ``bench/workloads/`` is a config, a thread count and
optional environment variables for the child (``env``), such as the
number of BLAS threads. A run starts the CLI in a child process over
and over, as a user would, until ``--seconds`` have passed, checks
every ``metrics.csv`` it writes and prints each metric by name with its
unit. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 bench/run.py --workload full_d200 --seed 3 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics (tracing off). ``--trace 1``
alternates untraced and traced invocations (``bench/tracing.py``) and
reports the per-layer metrics plus the tracing overhead. ``--workload
all`` runs every workload in turn. Run it from any directory; it reads
and writes only inside the checkout that holds it.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = BENCH / "workloads"
BASELINE = BENCH / "baseline.json"
WORK = ROOT / ".bench_work"

METRICS_HEADER = "experiment,strategy,p,rep,seed,t,k,T_k,B_k,true_err_k,loss_p1,loss_pinf"

# Accuracy metrics: final losses of these strategies, median over reps.
# Every workload runs both. The p=inf losses are maxima over arms and
# vary across seeds by more than any allowed bound, so they are not
# metrics; like every other final loss they are still checked per seed
# against the stored reference.
LOSS_METRICS = ("loss_p1.malocate_p1", "loss_p1.uniform")
# A final loss may exceed its stored reference for the same workload and
# seed by this share before the output check fails. Lower is never a
# failure: a more accurate fit must be able to pass.
LOSS_TOLERANCE = 0.10

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    **{name: "sq_err" for name in LOSS_METRICS},
}

PER_LAYER_UNITS = {
    "problem.truth_s": "s",
    "problem.sample_s": "s",
    "problem.sample_calls": "count",
    "estimators.fit_s": "s",
    "estimators.fit_calls": "count",
    "estimators.fit_ms_p50": "ms",
    "estimators.fit_ms_tail": "ms",
    "estimators.fit_ms_tail_pct": "pct",
    "estimators.svd_calls": "count",
    "estimators.svd_s": "s",
    "estimators.iters_per_fit": "count",
    "estimators.maxiter_share": "share",
    "error_bounds.split_s": "s",
    "error_bounds.band_s": "s",
    "error_bounds.pairs_per_band": "count",
    "error_bounds.zero_pair_share": "share",
    "strategies.job_s": "s",
    "strategies.self_s": "s",
    "strategies.select_s": "s",
    "strategies.refits": "count",
    "strategies.accept_share": "share",
    "strategies.skipped_refits": "count",
    "harness.self_s": "s",
    "harness.csv_s": "s",
    "harness.csv_bytes": "bytes",
    "harness.aggregate_s": "s",
    "harness.rows": "count",
    "harness.job_concurrency": "ratio",
    "harness.job_s_p50": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# The per-layer metrics computed from spans by tracing.layer_metrics.
LAYER_METRICS = tuple(name for name in PER_LAYER_UNITS if not name.startswith("trace."))

# Set-up is short and follows the machine's speed from moment to moment,
# so a run measures it in this many fresh processes before every
# invocation, spread over the whole run, and reports the median.
SETUP_PROBES = 3
# A child that runs longer than this is killed and counted as failed, so
# a run always ends within its time limit.
CHILD_TIMEOUT_S = 80.0


def load_workload(name: str) -> dict:
    with open(WORKLOADS / f"{name}.json") as fh:
        workload = json.load(fh)
    workload["name"] = name
    return workload


def workload_names() -> list[str]:
    return sorted(p.stem for p in WORKLOADS.glob("*.json"))


def definition_sha256(workload: dict) -> str:
    """Hash of what a workload runs: its config, thread count and environment."""
    spec = {key: workload.get(key) for key in ("config", "threads", "env")}
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


def load_references() -> dict:
    """Stored final losses and metrics.csv hashes per workload and seed.

    References recorded for another definition of a workload are dropped.
    """
    if not BASELINE.exists():
        return {}
    with open(BASELINE) as fh:
        baseline = json.load(fh)
    return {
        name: entry.get("references", {})
        for name, entry in baseline.get("workloads", {}).items()
        if name in workload_names()
        and entry.get("definition_sha256") == definition_sha256(load_workload(name))
    }


def child_env(extra: dict | None = None) -> dict:
    """This process's environment, with ``src`` on the path and ``extra`` set."""
    env = dict(os.environ, **(extra or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --- output check ------------------------------------------------------------

def strategy_label(kind: str, p: str) -> str:
    if p == "":
        return kind
    return f"{kind}_pinf" if p == "inf" else f"{kind}_p{float(p):g}"


def expected_events(cfg: dict) -> int | None:
    """Events per run when no arm reaches its cap (Discretized only)."""
    schedule = cfg.get("schedule", {})
    if schedule.get("kind") != "discretized":
        return None
    dims = cfg["dims"]
    init = [min(schedule.get("init_multiplier", 8) * d, d * d) for d in dims]
    free = cfg["budget"] - sum(init)
    if free <= 0:
        return len(dims)
    sub_batch = max(1, math.ceil(free / schedule.get("num_batches", 100)))
    return len(dims) + math.ceil(free / sub_batch)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_metrics_csv(path, cfg: dict, reference: dict | None = None):
    """Check one metrics.csv against its config.

    Returns ``(problems, losses, sha256)``: a list of what is wrong (empty
    when the output is correct), the final loss of every strategy as
    ``loss_p1.<label>`` / ``loss_pinf.<label>`` (median over reps), and
    the file's hash. The file is streamed one event (K rows) at a time,
    so this process stays small: a child forked from it would otherwise
    report this process's memory as its own peak.
    """
    problems: list[str] = []
    dims = cfg["dims"]
    K, caps, budget = len(dims), [d * d for d in dims], cfg["budget"]
    runs: dict[tuple, dict] = {}  # (strategy, p, rep) -> events, capped, last
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != METRICS_HEADER.split(","):
            return ["header differs from METRICS_HEADER"], {}, file_sha256(path)
        event: list[list[str]] = []
        for rec in reader:
            if len(rec) != 12:
                return [f"row with {len(rec)} fields"], {}, file_sha256(path)
            event.append(rec)
            if len(event) < K:
                continue
            key, t = (event[0][1], event[0][2], int(event[0][3])), int(event[0][5])
            where = f"{strategy_label(key[0], key[1])} rep {key[2]} t={t}"
            run = runs.setdefault(key, {"events": 0, "capped": False, "last": None})
            spends = [int(r[7]) for r in event]
            if [(r[1], r[2], int(r[3]), int(r[5])) for r in event] != [(*key, t)] * K:
                problems.append(f"{where}: rows of one event disagree")
            if [int(r[6]) for r in event] != list(range(1, K + 1)):
                problems.append(f"{where}: event does not list k=1..{K}")
            if sum(spends) != t:
                problems.append(f"{where}: T_k do not add up to t")
            if t > budget or (run["last"] is not None and t <= int(run["last"][5])):
                problems.append(f"{where}: t out of order or over budget {budget}")
            if any(T > cap for T, cap in zip(spends, caps)):
                problems.append(f"{where}: T_k above d^2")
            if not all(math.isfinite(float(r[c])) for r in event for c in (9, 10, 11)):
                problems.append(f"{where}: non-finite loss")
            run["events"] += 1
            run["capped"] |= any(T == cap for T, cap in zip(spends, caps))
            run["last"] = event[0]
            event = []
        if event:
            problems.append(f"{len(event)} trailing rows do not fill an event of K={K}")

    n_strategies = len(cfg["strategies"])
    if len(runs) != n_strategies * cfg["reps"]:
        problems.append(f"{len(runs)} (strategy, rep) runs, expected {n_strategies} x {cfg['reps']}")
    want_events = expected_events(cfg)
    finals: dict[str, list[tuple[float, float]]] = {}
    for (kind, p, rep), run in runs.items():
        label = strategy_label(kind, p)
        n = run["events"]
        if want_events is not None and (n < want_events or (n > want_events and not run["capped"])):
            problems.append(f"{label} rep {rep}: {n} events, expected {want_events}")
        finals.setdefault(label, []).append((float(run["last"][10]), float(run["last"][11])))

    losses = {}
    for label, vals in finals.items():
        losses[f"loss_p1.{label}"] = statistics.median(v[0] for v in vals)
        losses[f"loss_pinf.{label}"] = statistics.median(v[1] for v in vals)
    problems += [f"no rows for {name}" for name in LOSS_METRICS if name not in losses]
    for name, value in losses.items():
        if reference and name in reference and value > reference[name] * (1 + LOSS_TOLERANCE):
            problems.append(
                f"{name} = {value:.6g} exceeds reference "
                f"{reference[name]:.6g} by more than {LOSS_TOLERANCE:.0%}"
            )
    return problems, losses, file_sha256(path)


# --- child processes -----------------------------------------------------------

def run_child(cmd: list[str], stderr_path: Path,
              env: dict | None = None) -> tuple[int, float, float, float]:
    """Run ``cmd``; return (exit code, wall s, user+sys CPU s, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(env), stdout=subprocess.DEVNULL, stderr=err
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,  # KiB on Linux
    )


def measure_setup(cfg_path: Path, seed: int, env: dict | None = None) -> float:
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), str(cfg_path), str(seed)],
        cwd=ROOT, env=child_env(env), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout.split()[-1])


class Runner:
    """Runs one workload at one seed and checks every output."""

    def __init__(self, workload: dict, seed: int, references: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.cfg = dict(workload["config"], seed=seed)
        self.reference = (references or {}).get(str(seed))
        self.dir = WORK / f"{workload['name']}-{seed}-{os.getpid()}"
        self.cfg_path = self.dir / "config.json"
        self.count = 0
        self.records: list[dict] = []

    def __enter__(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        with open(self.cfg_path, "w") as fh:
            json.dump(self.cfg, fh)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    def cli_args(self, out_dir: Path) -> list[str]:
        return [
            "run", "--config", str(self.cfg_path), "--out", str(out_dir),
            "--seed", str(self.seed), "--threads", str(self.workload["threads"]),
        ]

    def invoke(self, traced: bool = False) -> dict:
        """One CLI invocation, checked; traced ones also return layer metrics."""
        self.count += 1
        out_dir = self.dir / f"out{self.count}"
        spans_path = self.dir / f"spans{self.count}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracing.py"), str(spans_path), "--"]
        else:
            cmd = [sys.executable, "-m", "amcsim.cli"]
        code, wall, cpu, rss = run_child(
            cmd + self.cli_args(out_dir), self.dir / "stderr.txt", self.workload.get("env")
        )
        rec = {
            "workload": self.workload["name"], "seed": self.seed, "traced": traced,
            "exit": code, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "problems": [], "losses": {}, "sha256": None,
        }
        metrics_csv = out_dir / "metrics.csv"
        if code != 0:
            tail = (self.dir / "stderr.txt").read_text(errors="replace").strip()[-300:]
            rec["problems"].append(f"exit code {code}: {tail}")
        elif not metrics_csv.exists():
            rec["problems"].append("no metrics.csv written")
        else:
            rec["problems"], rec["losses"], rec["sha256"] = check_metrics_csv(
                metrics_csv, self.cfg, self.reference
            )
        ref_sha = (self.reference or {}).get("sha256")
        rec["sha_match"] = None if ref_sha is None or rec["sha256"] is None else rec["sha256"] == ref_sha
        if traced and code == 0:
            with open(spans_path) as fh:
                rec["layers"] = layer_metrics(json.load(fh)["spans"])
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        self.records.append(rec)
        print_record(rec)
        return rec


def print_record(rec: dict) -> None:
    verdict = "ok" if not rec["problems"] else "FAIL: " + "; ".join(rec["problems"])
    ref = {None: "no reference", True: "matches reference", False: "differs from reference"}[
        rec["sha_match"]
    ]
    print(
        f"  {rec['workload']} seed={rec['seed']} {'traced' if rec['traced'] else 'untraced'}"
        f" wall_s={rec['wall_s']:.4f} cpu_s={rec['cpu_s']:.4f}"
        f" peak_rss_mb={rec['peak_rss_mb']:.1f} check={verdict}"
        f" metrics.csv sha256={rec['sha256']} ({ref})",
        flush=True,
    )


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(workload: dict, seed: int, seconds: float, trace: bool,
                 references: dict | None = None) -> tuple[dict, list[dict]]:
    """Measure one workload for ``seconds``; return (result line, records)."""
    name = workload["name"]
    print(f"workload {name} seed={seed} trace={int(trace)}: {workload['why']}", flush=True)
    setups: list[float] = []
    with Runner(workload, seed, references) as runner:
        t0 = time.perf_counter()
        durations = []
        while True:
            # Start another invocation (or untraced/traced pair) only if
            # it is expected to finish within the run's time.
            start = time.perf_counter()
            if not trace:
                setups += [
                    measure_setup(runner.cfg_path, seed, workload.get("env"))
                    for _ in range(SETUP_PROBES)
                ]
            runner.invoke()
            if trace:
                runner.invoke(traced=True)
            durations.append(time.perf_counter() - start)
            if time.perf_counter() - t0 + statistics.median(durations) > seconds:
                break
        records = runner.records

    ok = [r for r in records if not r["problems"]]
    failed = len(records) - len(ok)
    if trace:
        traced = [r for r in ok if r["traced"]]
        untraced = [r for r in ok if not r["traced"]]
        metrics = {key: _median(r["layers"][key] for r in traced) for key in LAYER_METRICS}
        metrics["trace.wall_s"] = _median(r["wall_s"] for r in traced)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - _median(
            r["wall_s"] for r in untraced
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {key: _median(r[key] for r in ok) for key in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        for loss in LOSS_METRICS:
            metrics[loss] = _median(r["losses"][loss] for r in ok)
        units = END_TO_END_UNITS

    for key, unit in units.items():
        print(f"  {name} seed={seed} {key} = {metrics[key]:.6g} {unit}")
    print(f"  {name} seed={seed} failed_share = {failed}/{len(records)}"
          f" check={'ok' if failed == 0 else 'FAIL'}", flush=True)
    result = {
        "correct": failed == 0 and bool(ok),
        "attempted": len(records),
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True, help="seed passed to amcsim --seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", help="append every invocation record to this JSONL file")
    args = parser.parse_args(argv)

    if not (SRC / "amcsim" / "cli.py").is_file():
        print(f"bench: no amcsim sources under {SRC}", file=sys.stderr)
        return 2
    names = workload_names() if args.workload == "all" else [args.workload]
    unknown = set(names) - set(workload_names())
    if unknown or not names:
        print(f"bench: unknown workload {sorted(unknown)}; have {workload_names()}", file=sys.stderr)
        return 2

    references = load_references()
    for name in names:
        result, records = run_workload(
            load_workload(name), args.seed, args.seconds, bool(args.trace), references.get(name)
        )
        if args.details:
            with open(args.details, "a") as fh:
                for rec in records:
                    fh.write(json.dumps(rec) + "\n")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
