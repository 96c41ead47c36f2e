"""Span tracing of one `amcsim` CLI run, from outside the package.

Run as a script, this module installs wrappers around the public
functions each layer calls, runs ``amcsim.cli.main`` in this process and
writes the recorded spans as JSON when the run ends:

    python3 bench/tracing.py SPANS_OUT -- run --config cfg.json --out DIR

A span is ``[id, parent, job, name, start, end, attrs]``. All spans of
one (rep, strategy) job share its job id. Each thread keeps its own span
stack, because the harness may run jobs on a thread pool. Wrappers are
installed on the binding where each name is looked up (``strategies``
and ``harness`` import their callees by name), so patching only the
defining module would miss the calls. ``numpy.linalg.svd`` is counted
inside fits to give the SoftImpute iteration count.

``layer_metrics`` turns a span list into the per-layer metrics that
``run.py --trace 1`` reports. No file of the package is modified.
"""
from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time

ID, PARENT, JOB, NAME, START, END, ATTRS = range(7)

# Percentiles tried, highest first, for the fit-time tail; the tail is
# the highest one with at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


class Tracer:
    """In-memory span recorder with a span stack per thread.

    Create it on the thread that starts the run: spans that other threads
    open with an empty stack get that thread's innermost span as parent.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._main_stack = self._stack()
        self._ids = itertools.count(1)
        self._jobs = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def top(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def current_job(self):
        """Innermost job span on this thread, or None."""
        for span in reversed(self._stack()):
            if span[NAME] == "strategies.job":
                return span
        return None

    def wrap(self, name, fn, after=None, new_job=False):
        """Return ``fn`` wrapped in a span; ``after(span, args, kwargs, result)``
        annotates the span once the call returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A span opened on a pool thread with nothing open there was
            # caused by whatever the creating thread is running.
            parents = stack or self._main_stack
            parent = parents[-1] if parents else None
            with self._lock:
                span_id = next(self._ids)
                job = next(self._jobs) if new_job else (parent[JOB] if parent else None)
            span = [span_id, parent[ID] if parent else None, job, name, 0.0, 0.0, {}]
            stack.append(span)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def install(tracer: Tracer) -> list[str]:
    """Patch the layer boundaries of ``amcsim``; return the patched names.

    A name the package no longer defines is skipped, so the traced run
    still works after a refactor; its metrics then read 0.
    """
    import numpy
    import amcsim.cli as cli
    import amcsim.harness as harness
    import amcsim.strategies as strategies

    patched = []

    def patch(module, attr, name, after=None, new_job=False):
        fn = getattr(module, attr, None)
        if fn is None:
            return
        setattr(module, attr, tracer.wrap(name, fn, after=after, new_job=new_job))
        patched.append(f"{module.__name__}.{attr}")

    def after_run_experiment(span, args, kwargs, rows):
        rows = rows[0] if isinstance(rows, tuple) else rows
        span[ATTRS]["rows"] = len(rows)

    def after_csv(span, args, kwargs, result):
        span[ATTRS]["bytes"] = os.path.getsize(_arg(args, kwargs, 1, "path"))

    def after_fit(span, args, kwargs, result):
        span[ATTRS]["max_iters"] = _arg(args, kwargs, 2, "cfg").max_iters

    def after_band(span, args, kwargs, result):
        span[ATTRS]["n_pairs"] = result.n_pairs
        job = tracer.current_job()
        if job is not None:
            est = _arg(args, kwargs, 0, "est")
            job[ATTRS].setdefault("bands", {})[job[ATTRS].get("events", 0) - 1] = (
                getattr(est, "index", None),
                result.b,
            )

    def after_sample(span, args, kwargs, result):
        # One batch is drawn per step, so this counts the job's events.
        job = tracer.current_job()
        if job is not None:
            job[ATTRS]["events"] = job[ATTRS].get("events", 0) + 1

    def after_job(span, args, kwargs, result):
        # A refit is accepted when the band it produced is the chosen
        # arm's band in the trace after that step, skipped when the
        # step made no band call.
        attrs = span[ATTRS]
        events = result[1].events
        bands = attrs.pop("bands", {})
        accepted = skipped = 0
        for i, event in enumerate(events):
            if i not in bands:
                skipped += 1
                continue
            index, b = bands[i]
            if index is not None and 1 <= index <= len(event.b_values):
                accepted += event.b_values[index - 1] == b
        attrs.update(refits=len(events), accepted=accepted, skipped=skipped)

    patch(cli, "run_experiment", "harness.run_experiment", after=after_run_experiment)
    patch(harness, "generate_ground_truth", "problem.truth")
    for runner in ("malocate_run", "uniform_run", "oracle_run"):
        patch(harness, runner, "strategies.job", after=after_job, new_job=True)
    patch(harness, "write_metrics_csv", "harness.csv", after=after_csv)
    patch(harness, "write_summary_csv", "harness.csv", after=after_csv)
    patch(harness, "aggregate", "harness.aggregate")
    patch(strategies, "new_samples", "problem.sample", after=after_sample)
    patch(strategies, "split_dataset", "error_bounds.split")
    patch(strategies, "soft_impute_fit", "estimators.fit", after=after_fit)
    patch(strategies, "estimate_error_bound", "error_bounds.band", after=after_band)

    # Every strategy hands its chooser to the shared run loop; wrapping
    # the chooser there times selection for all of them.
    run_loop = getattr(strategies, "_run", None)
    if run_loop is not None:
        @functools.wraps(run_loop)
        def traced_run_loop(*args, **kwargs):
            if "chooser" in kwargs:
                kwargs["chooser"] = tracer.wrap("strategies.select", kwargs["chooser"])
            return run_loop(*args, **kwargs)

        strategies._run = traced_run_loop
        patched.append("amcsim.strategies._run.chooser")

    svd = numpy.linalg.svd

    @functools.wraps(svd)
    def counted_svd(*args, **kwargs):
        span = tracer.top()
        if span is None or span[NAME] != "estimators.fit":
            return svd(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return svd(*args, **kwargs)
        finally:
            attrs = span[ATTRS]
            attrs["svd_calls"] = attrs.get("svd_calls", 0) + 1
            attrs["svd_s"] = attrs.get("svd_s", 0.0) + time.perf_counter() - t0

    numpy.linalg.svd = counted_svd
    patched.append("numpy.linalg.svd")
    return patched


# --- per-layer metrics from spans --------------------------------------------

def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for s, e in sorted(intervals):
        s, e = max(s, end), min(e, hi)
        if e > s:
            total += e - s
            end = e
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part covered by its child spans."""
    children: dict[int, list] = {}
    for sp in spans:
        if sp[PARENT] is not None:
            children.setdefault(sp[PARENT], []).append((sp[START], sp[END]))
    return {
        sp[ID]: (sp[END] - sp[START])
        - _covered(children.get(sp[ID], []), sp[START], sp[END])
        for sp in spans
    }


def tail_percentile(values) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with >= 10
    samples beyond it, or the median when there are too few samples."""
    n = len(values)
    if n == 0:
        return 50.0, 0.0
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        if round(n * (100 - pct) / 100, 6) >= 10:
            rank = min(n - 1, max(0, int(round(pct / 100 * (n - 1)))))
            return pct, ordered[rank]
    return 50.0, statistics.median(ordered)


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer times, counts and ratios of one traced run."""
    by_name: dict[str, list] = {}
    for sp in spans:
        by_name.setdefault(sp[NAME], []).append(sp)
    selfs = self_times(spans)

    def dur(name):
        return sum(sp[END] - sp[START] for sp in by_name.get(name, []))

    def count(name):
        return len(by_name.get(name, []))

    def self_sum(name):
        return sum(selfs[sp[ID]] for sp in by_name.get(name, []))

    fits = by_name.get("estimators.fit", [])
    fit_ms = [(sp[END] - sp[START]) * 1e3 for sp in fits]
    svd_calls = [sp[ATTRS].get("svd_calls", 0) for sp in fits]
    at_max = sum(
        1 for sp, n in zip(fits, svd_calls) if n >= sp[ATTRS].get("max_iters", float("inf"))
    )
    tail_pct, tail_ms = tail_percentile(fit_ms)

    bands = by_name.get("error_bounds.band", [])
    pairs = [sp[ATTRS].get("n_pairs", 0) for sp in bands]

    jobs = by_name.get("strategies.job", [])
    job_s = [sp[END] - sp[START] for sp in jobs]
    refits = sum(sp[ATTRS].get("refits", 0) for sp in jobs)
    accepted = sum(sp[ATTRS].get("accepted", 0) for sp in jobs)
    pool_s = (max(sp[END] for sp in jobs) - min(sp[START] for sp in jobs)) if jobs else 0.0

    return {
        "problem.truth_s": dur("problem.truth"),
        "problem.sample_s": dur("problem.sample"),
        "problem.sample_calls": count("problem.sample"),
        "estimators.fit_s": dur("estimators.fit"),
        "estimators.fit_calls": len(fits),
        "estimators.fit_ms_p50": statistics.median(fit_ms) if fit_ms else 0.0,
        "estimators.fit_ms_tail": tail_ms,
        "estimators.fit_ms_tail_pct": tail_pct,
        "estimators.svd_calls": sum(svd_calls),
        "estimators.svd_s": sum(sp[ATTRS].get("svd_s", 0.0) for sp in fits),
        "estimators.iters_per_fit": sum(svd_calls) / len(fits) if fits else 0.0,
        "estimators.maxiter_share": at_max / len(fits) if fits else 0.0,
        "error_bounds.split_s": dur("error_bounds.split"),
        "error_bounds.band_s": dur("error_bounds.band"),
        "error_bounds.pairs_per_band": sum(pairs) / len(pairs) if pairs else 0.0,
        "error_bounds.zero_pair_share": pairs.count(0) / len(pairs) if pairs else 0.0,
        "strategies.job_s": sum(job_s) / len(job_s) if job_s else 0.0,
        "strategies.self_s": self_sum("strategies.job"),
        "strategies.select_s": dur("strategies.select"),
        "strategies.refits": refits,
        "strategies.accept_share": accepted / refits if refits else 0.0,
        "strategies.skipped_refits": sum(sp[ATTRS].get("skipped", 0) for sp in jobs),
        "harness.self_s": self_sum("harness.run_experiment"),
        "harness.csv_s": dur("harness.csv"),
        "harness.csv_bytes": sum(sp[ATTRS].get("bytes", 0) for sp in by_name.get("harness.csv", [])),
        "harness.aggregate_s": dur("harness.aggregate"),
        "harness.rows": sum(sp[ATTRS].get("rows", 0) for sp in by_name.get("harness.run_experiment", [])),
        "harness.job_concurrency": sum(job_s) / pool_s if pool_s > 0 else 0.0,
        "harness.job_s_p50": statistics.median(job_s) if job_s else 0.0,
        "cli.self_s": self_sum("cli.main"),
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py SPANS_OUT -- AMCSIM_ARGS...", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    patched = install(tracer)
    import amcsim.cli

    code = tracer.wrap("cli.main", amcsim.cli.main)(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"patched": patched, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
