import csv
import io
import itertools
import json
import math
import re
from collections import namedtuple
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amcsim import (
    Discretized,
    EstimatorConfig,
    ExperimentConfig,
    ExperimentResult,
    StrategySpec,
    aggregate,
    config_from_dict,
    config_to_dict,
    load_config,
    preset_experiment_1,
    preset_experiment_2,
    run_experiment,
    scaled,
    write_metrics_csv,
)
from amcsim.checks import (
    _tiny_config,
    csv_violation,
    determinism_violation,
    paired_violation,
    read_metrics,
    trace_rows,
    trace_violation,
)
from amcsim.harness import METRICS_HEADER
from test_strategies import loop_instances


def tiny_config(**overrides):
    base = dict(
        experiment="tiny",
        dims=(16, 20),
        ranks=(2, 2),
        sigma=0.05,
        budget=1100,
        reps=2,
        seed=11,
        schedule=Discretized(init_multiplier=8, num_batches=8),
        estimator=EstimatorConfig(max_iters=50, tol=1e-4),
        confidence_scale=0.0625,
        strategies=(
            StrategySpec("malocate", p=math.inf),
            StrategySpec("uniform"),
            StrategySpec("oracle"),
        ),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_raw(path, value):
    """The dict of ``tiny_config()`` with ``value`` at ``path``, a tuple of keys."""
    raw = config_to_dict(tiny_config())
    *parents, key = path
    reduce(dict.__getitem__, parents, raw)[key] = value
    return raw


MetricsRow = namedtuple("MetricsRow", METRICS_HEADER)


def read_rows(path):
    """A metrics.csv's rows as ``MetricsRow``s, typed as ``read_metrics`` types them."""
    header, rows = read_metrics(path)
    assert header == METRICS_HEADER.split(",")
    return [MetricsRow(*row) for row in rows]


def csv_writer_bytes(result):
    """metrics.csv of a result as ``csv.writer`` writes it, with each row's
    "\\r\\n" ending turned to "\\n"."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(METRICS_HEADER.split(","))
    for exp, kind, p, rep, seed, t, k, T_k, *floats in trace_rows(result):
        p = "" if p is None else f"{p:.17g}"
        writer.writerow([exp, kind, p, rep, seed, t, k, T_k, *(f"{x:.17g}" for x in floats)])
    return buf.getvalue().replace("\r\n", "\n").encode()


def edited_arm_fields(result, edit):
    """``result`` with the per-arm fields of each job's events rewritten.

    "repeated_fields": event n carries the T_k, B_k and true_err_k of
    event n // 3, so each triple of events repeats them and they change on
    events that chose another arm. "signed_zero": arm 1's B_k and
    true_err_k flip between 0.0 and -0.0 from event to event.
    """
    jobs = []
    for rep, strategy, trace in result.jobs:
        events = trace.events
        if edit == "repeated_fields":
            events = [
                replace(event, t_values=events[n // 3].t_values,
                        b_values=events[n // 3].b_values, true_errors=events[n // 3].true_errors)
                for n, event in enumerate(events)
            ]
        else:
            events = [
                replace(event, b_values=(zero, *event.b_values[1:]),
                        true_errors=(-zero, *event.true_errors[1:]))
                for event, zero in zip(events, itertools.cycle([0.0, -0.0]))
            ]
        jobs.append((rep, strategy, replace(trace, events=events)))
    return replace(result, jobs=tuple(jobs))


def loop_aggregate(result):
    """Summary entries computed one (strategy, p, t) group at a time."""
    per_rep = {}
    for rep, strategy, trace in result.jobs:
        for event in trace.events:
            group = per_rep.setdefault((strategy.kind, strategy.p, event.t), {})
            group[rep] = (event.loss_p1, event.loss_pinf)
    out = []
    for key in sorted(per_rep, key=lambda g: (g[0], math.inf if g[1] is None else g[1], g[2])):
        entry = dict(zip(("strategy", "p", "t"), key), n_reps=len(per_rep[key]))
        for j, loss in enumerate(("loss_p1", "loss_pinf")):
            v = np.array([pair[j] for pair in per_rep[key].values()])
            entry[f"{loss}_median"] = float(np.median(v))
            entry[f"{loss}_mean"] = float(np.mean(v))
            entry[f"{loss}_q25"] = float(np.percentile(v, 25))
            entry[f"{loss}_q75"] = float(np.percentile(v, 75))
        out.append(entry)
    return out


@pytest.fixture(scope="module")
def one_rep_result():
    return run_experiment(tiny_config(reps=1))


@st.composite
def valid_configs(draw):
    """Any ExperimentConfig the constructors accept (finite floats, p up to inf).

    Strategies differ in (kind, p), the oracle's missing p reading as inf, as
    the config requires. Uniform takes no p.
    """
    K = draw(st.integers(1, 4))
    dims = draw(st.lists(st.integers(2, 60), min_size=K, max_size=K))
    ranks = [draw(st.integers(1, d)) for d in dims]
    positive = st.floats(1e-6, 1e6)
    p = st.floats(1.0, 50.0) | st.just(math.inf)
    weights = st.none() | st.tuples(*[positive] * K)
    strategy = st.builds(
        StrategySpec, st.sampled_from(["malocate", "oracle"]), p=p, weights=weights
    ) | st.builds(StrategySpec, st.sampled_from(["uniform", "oracle"]), weights=weights)
    schedule = draw(st.builds(Discretized, st.integers(1, 20), st.integers(1, 500)))
    estimator = st.builds(
        EstimatorConfig,
        lambda_scale=st.floats(0.0, 1e3),
        max_iters=st.integers(1, 10_000),
        tol=positive,
    )
    return ExperimentConfig(
        experiment=draw(st.text(max_size=12)),
        dims=dims,
        ranks=ranks,
        sigma=draw(st.floats(0.0, 1e3)),
        bound_a=draw(positive),
        budget=draw(st.integers(sum(min(schedule.init_multiplier * d, d * d) for d in dims),
                                10**9)),
        strategies=tuple(
            draw(
                st.lists(
                    strategy, min_size=1, max_size=5, unique_by=lambda s: (s.kind, s.p or math.inf)
                )
            )
        ),
        schedule=schedule,
        estimator=draw(estimator),
        confidence_scale=draw(positive),
        reps=draw(st.integers(1, 100)),
        seed=draw(st.integers(0, 2**63)),
    )


@settings(max_examples=10, deadline=None)
@given(loop_instances(max_dim=12), st.text(max_size=8))
def test_outputs_property(instance, name):
    """csv_round_trip, paired_generation and determinism on drawn configs."""
    _, cfg, seed, weights = instance
    strategies = (StrategySpec("malocate", p=1.0, weights=weights), StrategySpec("uniform"))
    cfg = replace(cfg, experiment=name, reps=2, seed=seed, strategies=strategies)
    result = run_experiment(cfg)
    assert csv_violation(result) is None
    assert paired_violation(result) is None
    assert determinism_violation(cfg) is None


class TestPresets:
    def test_experiment_1(self):
        cfg = preset_experiment_1()
        assert cfg.ranks == (40, 10, 10, 10, 10, 10, 10, 10, 10, 10)
        assert cfg.dims == (200,) * 10
        assert cfg.budget == 200000
        assert cfg.reps == 15
        assert cfg.sigma == 0.1
        assert cfg.schedule == Discretized(8, 100)
        kinds = {(s.kind, s.p) for s in cfg.strategies}
        assert ("malocate", 1.0) in kinds and ("malocate", math.inf) in kinds
        assert ("uniform", None) in kinds and ("oracle", None) in kinds

    def test_experiment_2(self):
        cfg = preset_experiment_2()
        assert len(cfg.ranks) == 15
        assert cfg.ranks[0] == 18
        assert cfg.ranks[14] == 76
        assert sum(1 for r in cfg.ranks if r <= 22) == 8
        assert cfg.budget == 15 * 200 * 200 // 2

    def test_scaled_keeps_other_fields(self):
        # Two samples per dimension keep the halved dims' first batches
        # within the default budget.
        cfg = tiny_config(schedule=Discretized(2, 8), estimator=EstimatorConfig(tol=1e-4))
        small = scaled(cfg, 2.0)
        assert small.dims == (8, 10) and small.budget == 82
        assert replace(small, dims=cfg.dims, ranks=cfg.ranks, budget=cfg.budget) == cfg

    def test_scaled_preserves_shape(self):
        cfg = scaled(preset_experiment_1(), 5.0)
        assert cfg.dims == (40,) * 10
        assert cfg.ranks[0] == 8 and cfg.ranks[1] == 2
        assert cfg.budget == 10 * 40 * 40 // 2
        assert cfg.reps == 15


class TestRunExperiment:
    def test_threads_do_not_change_rows(self, tmp_path):
        one, three = tmp_path / "one", tmp_path / "three"
        run_experiment(tiny_config(), str(one))
        run_experiment(tiny_config(), str(three), threads=3)
        for name in ("metrics.csv", "summary.csv"):
            assert (one / name).read_bytes() == (three / name).read_bytes()

    def test_output_files(self, tmp_path):
        out = tmp_path / "run"
        cfg = tiny_config(reps=1)
        run_experiment(cfg, str(out))
        assert (out / "metrics.csv").exists()
        assert (out / "summary.csv").exists()
        echoed = json.loads((out / "config.echo.json").read_text())
        assert config_from_dict(echoed) == cfg


class TestMetricsCsv:
    def test_round_trip(self, one_rep_result):
        assert csv_violation(one_rep_result) is None
        assert len(trace_rows(one_rep_result)) == len(one_rep_result)

    # Text columns need csv quoting, a bare '\r' too since readers end a row
    # there; a '%' must survive the row format.
    @pytest.mark.parametrize(
        "name", ["tiny", 'a,"b"', "100%d %s", "two\nlines", "a\rb", " ", ""]
    )
    def test_bytes_match_csv_writer(self, tmp_path, one_rep_result, name):
        result = replace(one_rep_result, cfg=replace(one_rep_result.cfg, experiment=name))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result, str(path))
        assert path.read_bytes() == csv_writer_bytes(result)
        assert {r.experiment for r in read_rows(path)} == {name}

    # The writer formats an arm's fragment again only on events that chose
    # it, so the trace law must catch fields that change on other events,
    # 0.0 against -0.0 (equal, printed apart) included.
    @pytest.mark.parametrize("edit", ["repeated_fields", "signed_zero"])
    def test_trace_law_catches_edited_arm_fields(self, one_rep_result, edit):
        result = edited_arm_fields(one_rep_result, edit)
        for _, strategy, trace in result.jobs:
            assert trace_violation(result.cfg, strategy, trace) is not None, strategy.label

    @pytest.mark.parametrize("loss", ["loss_p1", "loss_pinf"])
    def test_trace_law_catches_doubled_losses(self, one_rep_result, loss):
        for _, strategy, trace in one_rep_result.jobs:
            events = [replace(event, **{loss: 2 * getattr(event, loss)}) for event in trace.events]
            failure = trace_violation(one_rep_result.cfg, strategy, replace(trace, events=events))
            assert failure.startswith(f"event 0 has {loss} = "), strategy.label

    def test_trace_law_catches_an_event_after_the_budget(self):
        # The last batch of this run is cut to the budget left.
        result = run_experiment(_tiny_config(budget=905, reps=1))
        for _, strategy, trace in result.jobs:
            events = [*trace.events, trace.events[-1]]
            failure = trace_violation(result.cfg, strategy, replace(trace, events=events))
            assert failure == f"event {len(trace.events)} comes after the budget 905 is spent"

    def test_csv_law_catches_a_missing_job(self, one_rep_result):
        result = replace(one_rep_result, jobs=one_rep_result.jobs[:-1])
        assert csv_violation(result).startswith("the jobs are not one per")

    def test_header_schema(self, tmp_path, one_rep_result):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(one_rep_result, str(path))
        first = path.read_text().splitlines()[0]
        assert first == METRICS_HEADER
        assert first == "experiment,strategy,p,rep,seed,t,k,T_k,B_k,true_err_k,loss_p1,loss_pinf"

    def test_infinite_band_round_trips(self, one_rep_result):
        # Arms not yet initialized are logged with an infinite band, which
        # test_round_trip reads back exactly.
        assert any(math.isinf(MetricsRow(*row).B_k) for row in trace_rows(one_rep_result))


class TestAggregate:
    def test_single_rep_degenerate(self, one_rep_result):
        for entry in aggregate(one_rep_result):
            assert entry["n_reps"] == 1
            assert entry["loss_p1_median"] == entry["loss_p1_mean"]

    def test_median_of_two(self):
        result = run_experiment(tiny_config(reps=2))
        summary = aggregate(result)
        per_rep = {}
        for rep, strategy, trace in result.jobs:
            for event in trace.events:
                group = per_rep.setdefault((strategy.kind, strategy.p, event.t), {})
                group.setdefault(rep, event.loss_p1)
        for entry in summary:
            values = per_rep[(entry["strategy"], entry["p"], entry["t"])]
            if len(values) == 2:
                assert entry["loss_p1_median"] == pytest.approx(
                    np.mean(list(values.values()))
                )

    def test_duplicate_runs_aggregate_identically(self, one_rep_result):
        assert aggregate(one_rep_result) == aggregate(run_experiment(tiny_config(reps=1)))

    def test_matches_per_group_loop(self):
        # Where an arm reaches its cap, a batch falls short of the
        # sub-batch, so the t-grids differ between reps and groups hold
        # every rep count from 1 to 9 (where numpy sums pairwise).
        cfg = tiny_config(
            dims=(8, 10), schedule=Discretized(4, 7), budget=150, reps=9,
            strategies=(StrategySpec("malocate", p=1.0), StrategySpec("oracle")),
        )
        result = run_experiment(cfg)
        summary = aggregate(result)
        assert summary == loop_aggregate(result)
        assert {entry["n_reps"] for entry in summary} == set(range(1, cfg.reps + 1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate(ExperimentResult(tiny_config(), ()))


class TestConfigSerialization:
    def test_round_trip(self):
        cfg = tiny_config()
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_presets_round_trip(self):
        for cfg in (preset_experiment_1(), preset_experiment_2()):
            assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict(tiny_raw(("unexpected",), 1))

    def test_unknown_nested_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict(tiny_raw(("estimator", "mystery"), True))

    def test_inf_p_serializes(self):
        raw = config_to_dict(tiny_config())
        text = json.dumps(raw)
        cfg = config_from_dict(json.loads(text))
        assert any(s.p == math.inf for s in cfg.strategies)

    def test_load_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config_to_dict(tiny_config())))
        assert load_config(str(path)) == tiny_config()

    def test_missing_dims_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"ranks": [2]})

    @settings(max_examples=60, deadline=None)
    @given(valid_configs())
    def test_json_round_trip_property(self, cfg):
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    def test_debug_key_rejected(self):
        # The objective check is always on, so there is no knob to set.
        raw = json.loads('{"dims": [8], "ranks": [2], "estimator": {"debug": true}}')
        with pytest.raises(ValueError, match="unknown keys"):
            config_from_dict(raw)

    @pytest.mark.parametrize(
        "path,tag",
        [
            pytest.param(("split",), "by_multiplicity", id="path0-by_multiplicity"),
            pytest.param(("schedule", "reuse_samples"), True, id="path1-True"),
            pytest.param(("estimator", "warm_start"), True, id="path2-True"),
            pytest.param(("estimator", "clip_output"), True, id="path3-True"),
        ],
    )
    def test_format_tags(self, path, tag):
        # Each is written with its one value and may be left out; the
        # schedule's kind, which may not, is in the tables below.
        raw = config_to_dict(tiny_config())
        *parents, key = path
        assert reduce(dict.__getitem__, parents, raw).pop(key) == tag
        assert config_from_dict(raw) == tiny_config()

    def test_missing_keys_take_defaults(self):
        cfg = config_from_dict({"dims": [16, 20], "ranks": [1, 2]})
        assert cfg == ExperimentConfig(experiment="custom", dims=(16, 20), ranks=(1, 2),
                                       budget=328)

    def test_default_budget(self):
        # 16^2 / 2 + 20^2 / 2 = 328 however the budget is left unset; it
        # covers the first batches 8 * 16 + 8 * 20 = 288.
        raw = {"dims": [16, 20], "ranks": [1, 2]}
        assert ExperimentConfig("x", dims=(16, 20), ranks=(1, 2)).budget == 328
        assert config_from_dict(raw).budget == 328
        assert config_from_dict({**raw, "budget": None}).budget == 328
        assert scaled(tiny_config(dims=(32, 40), budget=2000), 2.0).budget == 328

    # Each case's id is "key-tag-message", the tag a fixed string, so a
    # case added anywhere renames no other.
    @pytest.mark.parametrize(
        "key,value,message",
        [
            pytest.param(key, value, message, id=f"{key}-{tag}-{message}")
            for key, tag, value, message in [
                ("experiment", "None", None, "config.experiment must be a string, got None"),
                ("experiment", "value1", ["x"], "config.experiment must be a string, got ['x']"),
                ("experiment", "True", True, "config.experiment must be a string, got True"),
                ("sigma", "abc", "abc", "config.sigma: expected float, got 'abc'"),
                ("dims", "5", 5, "config.dims must be a list, got 5"),
                ("reps", "value5", [1], "config.reps: expected int, got [1]"),
                ("estimator", "3", 3, "config.estimator must be an object, got 3"),
                ("strategies", "value7", [{"kind": "malocate", "p": "abc"}],
                 "config.strategies[0].p: expected float, got 'abc'"),
                ("strategies", "value8", [{"kind": "malocate", "p": math.nan}],
                 "config.strategies[0]: p must be >= 1, got nan"),
                ("strategies", "value9", [{"p": 1.0}],
                 "missing keys in config.strategies[0]: ['kind']"),
                # The format tags, each with its one value.
                ("schedule", "value10", {"kind": "discretized", "reuse_samples": "yes"},
                 "config.schedule.reuse_samples must be True, got 'yes'"),
                ("schedule", "value11", {"kind": "bogus"},
                 "config.schedule.kind must be 'discretized', got 'bogus'"),
                ("schedule", "value12", {"num_batches": 8},
                 "missing keys in config.schedule: ['kind']"),
                ("split", "halves", "halves",
                 "config.split must be 'by_multiplicity', got 'halves'"),
                ("schedule", "value14", {"kind": "discretized", "reuse_samples": False},
                 "config.schedule.reuse_samples must be True, got False"),
                ("estimator", "value15", {"warm_start": False},
                 "config.estimator.warm_start must be True, got False"),
                ("estimator", "value16", {"warm_start": 1},
                 "config.estimator.warm_start must be True, got 1"),
                # A list element is named by its index, and a dataclass's own
                # check by the dataclass's path.
                ("strategies", "value17", [{"kind": "uniform"}, {"kind": "malocate", "p": "abc"}],
                 "config.strategies[1].p: expected float, got 'abc'"),
                ("dims", "value18", [16, "x"], "config.dims[1]: expected int, got 'x'"),
                ("estimator", "value19", {"tol": math.nan},
                 "config.estimator: tol must be positive and finite"),
                ("sigma", "-1.0", -1.0, "config: sigma must be nonnegative and finite"),
                ("estimator", "value21", {"clip_output": False},
                 "config.estimator.clip_output must be True, got False"),
            ]
        ],
    )
    def test_malformed_value_names_its_field(self, key, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(tiny_raw((key,), value))

    @pytest.mark.parametrize(
        "path,value",
        [
            pytest.param(("reps",), 2.5, id="path0-2.5"),
            pytest.param(("budget",), 1000.7, id="path1-1000.7"),
            pytest.param(("seed",), math.inf, id="path2-inf"),
            pytest.param(("dims",), [16.5, 20], id="path3-value3"),
            pytest.param(("schedule", "num_batches"), 8.25, id="path4-8.25"),
            pytest.param(("estimator", "max_iters"), 50.5, id="path5-50.5"),
        ],
    )
    def test_fractional_int_rejected(self, path, value):
        with pytest.raises(ValueError, match="must be an integer"):
            config_from_dict(tiny_raw(path, value))

    @pytest.mark.parametrize(
        "path,value",
        [
            pytest.param(("reps",), True, id="path0-True"),
            pytest.param(("budget",), True, id="path1-True"),
            pytest.param(("sigma",), False, id="path2-False"),
            pytest.param(("dims",), [True, 20], id="path3-value3"),
            pytest.param(("estimator", "max_iters"), True, id="path4-True"),
            pytest.param(("estimator", "tol"), True, id="path5-True"),
            pytest.param(("strategies",), [{"kind": "malocate", "p": True}], id="path6-value6"),
        ],
    )
    def test_bool_number_rejected(self, path, value):
        with pytest.raises(ValueError, match="must be a number"):
            config_from_dict(tiny_raw(path, value))

    @pytest.mark.parametrize(
        "weights",
        [
            pytest.param([1, 2, 3], id="weights0"),
            pytest.param([-1, 2], id="weights1"),
            pytest.param([0, 1], id="weights2"),
            pytest.param(["nan", 1], id="weights3"),
            pytest.param(["inf", 1], id="weights4"),
        ],
    )
    def test_bad_strategy_weights_rejected_at_load(self, weights):
        raw = {
            "dims": [8, 8],
            "ranks": [2, 2],
            "budget": 128,
            "strategies": [{"kind": "uniform"}, {"kind": "malocate", "p": 1, "weights": weights}],
        }
        with pytest.raises(ValueError, match="weights"):
            config_from_dict(raw)
        raw["strategies"][1]["weights"] = [1, 2]
        strategy = config_from_dict(raw).strategies[1]
        assert (strategy.p, strategy.weights) == (1.0, (1.0, 2.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "path",
        [
            pytest.param(("sigma",), id="path0"),
            pytest.param(("bound_a",), id="path1"),
            pytest.param(("confidence_scale",), id="path2"),
            pytest.param(("estimator", "tol"), id="path3"),
            pytest.param(("estimator", "lambda_scale"), id="path4"),
        ],
    )
    def test_non_finite_settings_rejected_at_load(self, path, value):
        # NaN passes a plain `x <= 0` check, and a NaN or inf setting makes
        # a run go wrong or fail mid-run, so each must fail at load.
        *parents, key = path
        where = ".".join(("config", *parents))
        with pytest.raises(ValueError, match=f"^{where}: {key} must be"):
            config_from_dict(tiny_raw(path, value))
        config_from_dict(tiny_raw(path, 0.0 if key in ("sigma", "lambda_scale") else 1.0))

    def test_duplicate_strategy_label_rejected_at_load(self):
        # metrics.csv and summary.csv label a strategy by (kind, p) alone,
        # so strategies that differ only in weights cannot both run.
        raw = {
            "dims": [8, 8],
            "ranks": [2, 2],
            "budget": 128,
            "strategies": [
                {"kind": "malocate", "p": 1},
                {"kind": "malocate", "p": 1.0, "weights": [1, 5]},
            ],
        }
        with pytest.raises(ValueError, match="duplicate strategy malocate_p1"):
            config_from_dict(raw)
        with pytest.raises(ValueError, match="duplicate strategy oracle"):
            tiny_config(strategies=(StrategySpec("oracle"), StrategySpec("oracle", weights=(1, 3))))
        # The oracle reads a missing p as inf, so these two are one strategy.
        with pytest.raises(ValueError, match="duplicate strategy oracle_pinf"):
            tiny_config(strategies=(StrategySpec("oracle"), StrategySpec("oracle", p=math.inf)))
        raw["strategies"][1]["p"] = 2
        assert len(config_from_dict(raw).strategies) == 2

    def test_integral_floats_and_strings_accepted(self):
        raw = config_to_dict(tiny_config())
        raw.update(reps=2.0, budget="1100", dims=[16.0, "20"])
        raw["schedule"]["num_batches"] = 8.0
        raw["estimator"]["max_iters"] = "50"
        assert config_from_dict(raw) == tiny_config()

    def test_invalid_config_values_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="x", dims=(4,), ranks=(9,), budget=100)
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="x", dims=(4, 4), ranks=(2,), budget=100)
        with pytest.raises(ValueError):
            tiny_config(reps=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            tiny_config(seed=-1)
        with pytest.raises(ValueError):
            tiny_config(confidence_scale=0.0)
        with pytest.raises(ValueError):
            StrategySpec("malocate")  # p required
        with pytest.raises(ValueError):
            StrategySpec("bogus")
        with pytest.raises(ValueError, match="uniform takes no p"):
            config_from_dict({"dims": [8], "ranks": [2], "strategies": [{"kind": "uniform", "p": 2}]})
