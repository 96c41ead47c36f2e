import json
import math
from dataclasses import replace

import pytest

from amcsim import (
    Discretized,
    EstimatorConfig,
    ExperimentConfig,
    StrategySpec,
    config_to_dict,
    load_config,
)
from amcsim import checks, cli, harness
from amcsim.cli import main
from test_harness import read_rows


def small_config_file(tmp_path, **overrides):
    base = dict(
        experiment="cli",
        dims=(16,),
        ranks=(2,),
        sigma=0.05,
        budget=256,
        reps=1,
        seed=3,
        schedule=Discretized(init_multiplier=8, num_batches=4),
        estimator=EstimatorConfig(max_iters=40, tol=1e-4),
        confidence_scale=0.0625,
        strategies=(StrategySpec("malocate", p=1.0), StrategySpec("uniform")),
    )
    base.update(overrides)
    cfg = ExperimentConfig(**base)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


def test_run_subcommand(tmp_path, capsys):
    cfg_path = small_config_file(tmp_path)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "summary.csv").exists()
    assert (out / "config.echo.json").exists()
    rows = read_rows(out / "metrics.csv")
    assert rows and all(r.experiment == "cli" for r in rows)


def test_run_with_overrides(tmp_path):
    cfg_path = small_config_file(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(cfg_path), "--out", str(out), "--seed", "9",
         "--reps", "2", "--threads", "2"]
    )
    assert code == 0
    echoed = json.loads((out / "config.echo.json").read_text())
    assert echoed["seed"] == 9
    assert echoed["reps"] == 2
    rows = read_rows(out / "metrics.csv")
    assert {r.rep for r in rows} == {0, 1}


@pytest.mark.parametrize("config,message", [
    ({"bogus": 1}, "unknown keys in config: ['bogus']"),
    ({"sigma": "abc"}, "config.sigma: expected float, got 'abc'"),
    ({"budget": 64, "reps": 2.5}, "config.reps must be an integer, got 2.5"),
    ({"experiment": None}, "config.experiment must be a string, got None"),
    ({"budget": 64, "reps": True}, "config.reps must be a number, got True"),
    ({"schedule": {"kind": "discretized", "reuse_samples": False}},
     "config.schedule.reuse_samples must be True, got False"),
    ({"estimator": {"warm_start": False}}, "config.estimator.warm_start must be True, got False"),
    ({"estimator": {"clip_output": False}},
     "config.estimator.clip_output must be True, got False"),
], ids=["unknown_key", "malformed_scalar", "fractional_int", "non_string_experiment",
        "bool_number", "fresh_batches", "cold_refits", "unclamped_fits"])
def test_run_rejects_bad_config(tmp_path, capsys, config, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dims": [8], "ranks": [2], **config}))
    out = tmp_path / "o"
    code = main(["run", "--config", str(bad), "--out", str(out)])
    assert code == 1
    assert f"amcsim: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale,message", [
    *(pytest.param(s, "scale factor must be positive and finite", id=s)
      for s in ["inf", "nan", "0", "-2"]),
    # exp1's d = 200 becomes 12, whose first batches 10 * 8 * 12 the
    # default budget 10 * 12^2 / 2 cannot pay for.
    pytest.param("16", "scale 16: budget 720 cannot cover initialization (960)", id="16"),
])
def test_preset_rejects_bad_scale(tmp_path, capsys, scale, message):
    out = tmp_path / "o"
    code = main(["preset", "exp1", "--scale", scale, "--out", str(out)])
    assert code == 1
    assert f"amcsim: error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_negative_seed_before_any_output(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["run", "--config", str(small_config_file(tmp_path)), "--out", str(out),
                 "--seed", "-1"])
    assert code == 1
    assert "amcsim: error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "weights,budget,message",
    [
        pytest.param([1, 2, 3], 64, "weights", id="weights0"),
        pytest.param([-1, 2], 64, "weights", id="weights1"),
        pytest.param([0, 1], 64, "weights", id="weights2"),
        pytest.param(["nan", 1], 64, "weights", id="weights3"),
        # The first batches are 2 * 8 per arm.
        pytest.param([1, 2], 31, "budget 31 cannot cover initialization (32)", id="budget"),
    ],
)
def test_run_rejects_bad_weights_before_any_job(tmp_path, capsys, monkeypatch, weights, budget,
                                                message):
    # A malocate job with bad weights listed after a uniform one, or a
    # budget short of the first batches, must fail when the config loads,
    # not after the uniform job has run or the out dir is made.
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("jobs started"))
    bad = tmp_path / "bad.json"
    strategies = [{"kind": "uniform"}, {"kind": "malocate", "p": 1, "weights": weights}]
    bad.write_text(json.dumps({
        "dims": [8, 8], "ranks": [2, 2], "budget": budget, "strategies": strategies,
        "schedule": {"kind": "discretized", "init_multiplier": 2, "num_batches": 2},
    }))
    out = tmp_path / "o"
    code = main(["run", "--config", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("amcsim: error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_rejects_bad_threads(tmp_path, capsys, threads):
    out = tmp_path / "o"
    code = main(["run", "--config", str(small_config_file(tmp_path)), "--out", str(out),
                 "--threads", threads])
    assert code == 1
    assert "amcsim: error:" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_run_rejects_duplicate_strategy_label(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    strategies = [{"kind": "malocate", "p": 1}, {"kind": "malocate", "p": 1, "weights": [1, 5]}]
    bad.write_text(json.dumps({"dims": [8, 8], "ranks": [2, 2], "budget": 128,
                               "strategies": strategies}))
    out = tmp_path / "o"
    code = main(["run", "--config", str(bad), "--out", str(out)])
    assert code == 1
    assert "amcsim: error: config: duplicate strategy" in capsys.readouterr().err
    assert not (out / "metrics.csv").exists()


def test_config_echo_independent_of_out(tmp_path):
    # config.echo.json records what ran, not where it was written.
    cfg_path = small_config_file(tmp_path)
    echoes = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_path), "--out", str(out), "--seed", "9"]) == 0
        echoes.append(out / "config.echo.json")
    assert echoes[0].read_bytes() == echoes[1].read_bytes()
    ran = replace(load_config(str(cfg_path)), seed=9)
    assert all(load_config(str(path)) == ran for path in echoes)


def test_run_rejects_unusable_out_before_any_job(tmp_path, capsys, monkeypatch):
    for runner in ("malocate_run", "uniform_run", "oracle_run"):
        monkeypatch.setattr(harness, runner, lambda *a: pytest.fail("jobs started"))
    cfg_path = small_config_file(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (str(taken), ""):
        code = main(["run", "--config", str(cfg_path), "--out", out])
        assert code == 1
        assert "amcsim: error:" in capsys.readouterr().err


def test_run_missing_config_file(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1


def test_preset_scaled_runs(tmp_path):
    out = tmp_path / "exp1"
    code = main(
        ["preset", "exp1", "--scale", "10", "--out", str(out), "--reps", "1"]
    )
    assert code == 0
    echoed = json.loads((out / "config.echo.json").read_text())
    assert echoed["dims"] == [20] * 10
    assert echoed["ranks"][0] == 4 and echoed["ranks"][1] == 1
    rows = read_rows(out / "metrics.csv")
    strategies = {(r.strategy, r.p) for r in rows}
    assert ("malocate", math.inf) in strategies
    assert ("oracle", None) in strategies


def test_check_subcommand(capsys):
    code = main(["check"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(checks.CHECKS)
    for name, _ in checks.CHECKS:
        assert f"PASS {name}" in lines


def test_check_survives_a_raising_check(capsys, monkeypatch):
    def raising():
        raise RuntimeError("boom")

    monkeypatch.setattr(checks, "CHECKS", [
        ("first", lambda: None), ("raising", raising), ("last", lambda: None),
    ])
    assert main(["check"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS first", "FAIL raising: raised RuntimeError: boom", "PASS last",
    ]


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
