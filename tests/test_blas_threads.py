"""Importing ``amcsim`` pins BLAS to one thread, and results do not depend on it.

Each test starts fresh Python processes, because BLAS reads its thread
count once, when numpy loads it.
"""
import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(**blas) -> dict:
    """This environment with ``src`` on the path, no BLAS variable but ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(blas)
    return env


def blas_vars_after_import(**blas) -> dict:
    code = f"import json, os, amcsim; print(json.dumps({{v: os.environ.get(v) for v in {BLAS_VARS!r}}}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env(**blas),
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout)


def test_import_sets_one_thread():
    assert blas_vars_after_import() == dict.fromkeys(BLAS_VARS, "1")


def test_import_keeps_an_explicit_value():
    got = blas_vars_after_import(OPENBLAS_NUM_THREADS="2")
    assert got == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_pin_comes_before_every_submodule_import():
    body = ast.parse((SRC / "amcsim" / "__init__.py").read_text()).body
    first_import = next(
        i for i, node in enumerate(body) if isinstance(node, ast.ImportFrom) and node.level == 1
    )
    pinned = [
        node.value.args[0].value
        for node in body[:first_import]
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and ast.unparse(node.value.func) == "os.environ.setdefault"
    ]
    assert sorted(pinned) == sorted(BLAS_VARS)


# Two d = 160 arms: large enough that a two-thread OpenBLAS uses both
# cores, small enough that a run takes well under a second.
CONFIG = {
    "experiment": "blas_threads",
    "dims": [160, 160],
    "ranks": [8, 4],
    "sigma": 0.1,
    "bound_a": 4.0,
    "budget": 2560,
    "strategies": [{"kind": "malocate", "p": 1.0, "weights": None}],
    "schedule": {"kind": "discretized", "init_multiplier": 4, "num_batches": 1,
                 "reuse_samples": True},
    "split": "by_multiplicity",
    "estimator": {"lambda_scale": 1.0, "max_iters": 30, "tol": 1e-5, "warm_start": True,
                  "clip_output": True},
    "confidence_scale": 0.0625,
    "reps": 1,
    "seed": 1,
}


def run_cli(config: Path, out: Path, **blas) -> tuple[float, float]:
    """Run the CLI in a child process; return its (wall s, user+sys CPU s)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "amcsim.cli", "run", "--config", str(config), "--out", str(out)],
        env=child_env(**blas), stdout=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    assert os.waitstatus_to_exitcode(status) == 0
    return wall, usage.ru_utime + usage.ru_stime


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="needs two cores to run BLAS on two threads"
)
def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    wall_2, cpu_2 = run_cli(config, tmp_path / "two", OPENBLAS_NUM_THREADS="2")
    run_cli(config, tmp_path / "one", OPENBLAS_NUM_THREADS="1")
    wall_d, cpu_d = run_cli(config, tmp_path / "default")
    assert cpu_2 > wall_2, "the two-thread child did not run BLAS on two cores"
    assert cpu_d <= wall_d, "the default child ran on more than one thread"
    for name in ("metrics.csv", "summary.csv"):
        one = (tmp_path / "one" / name).read_bytes()
        assert (tmp_path / "two" / name).read_bytes() == one
        assert (tmp_path / "default" / name).read_bytes() == one
