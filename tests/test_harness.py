"""Harness tests: config parsing, metrics oracles, runner artifacts, compare, CLI."""

import copy
import json
import re
from pathlib import Path

import numpy as np
import pytest

from slicesim.harness import runner
from slicesim.harness.cli import main
from slicesim.harness.compare import (compare_runs, format_table, load_summary,
                                      mean_curve, read_column)
from slicesim.harness.config import PhasePlan, load_config, parse_config, scenario_hash
from slicesim.harness.gridsearch import evaluate_static, grid_search, simplex_grid
from slicesim.harness.metrics import (mask_correlation, resource_efficiency, smooth,
                                      steps_to_fraction_of_final)
from slicesim.harness.runner import csv_header, run_experiment, run_single
from slicesim.mdp import RewardSpec
from slicesim.netsim import ConfigError, NetState, Topology
from slicesim.schemes import BaselineController, build_scheme

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def tiny_config_data(phases=(5, 6, 4), kind="static_default", mask_value=1.0):
    return {
        "scenario": {
            "topology": "ring",
            "cells": 1,
            "bandwidth_hz": 20e6,
            "coupling": 0.0,
            "se_max": 2.0,
            "p_stay": 1.0,
            "slices": [
                {"throughput_req": 5e6, "delay_req": 1e-3, "demand_per_user": 5e6,
                 "group_size_max": 3,
                 "mask": {"period": 500.0, "breakpoints": [[0.0, mask_value]]}},
                {"throughput_req": 3e6, "delay_req": 1e-3, "demand_per_user": 3e6,
                 "group_size_max": 3,
                 "mask": {"period": 500.0, "breakpoints": [[0.0, mask_value]]}},
            ],
        },
        "scheme": {"kind": kind},
        "phases": {"explore": phases[0], "train": phases[1], "eval": phases[2]},
        "seeds": [0],
    }


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_load_toy_config():
    cfg = load_config(CONFIG_DIR / "toy.json")
    assert cfg.scenario.cell_count == 1
    assert cfg.scheme_kinds == ("dist",)
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.phases.total == 15000
    assert len(cfg.scenario_hash) == 16


def test_invalid_json_reports_line_and_column(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "scenario": [,]\n}\n')
    with pytest.raises(ConfigError, match=r"bad\.json:2:"):
        load_config(p)


def test_missing_field_has_dotted_path():
    data = tiny_config_data()
    del data["scenario"]["slices"][0]["throughput_req"]
    with pytest.raises(ConfigError, match=r"scenario\.slices\[0\]\.throughput_req"):
        parse_config(data)


def test_unknown_scheme_kind_rejected():
    data = tiny_config_data(kind="frobnicate")
    with pytest.raises(ConfigError, match="scheme.kind"):
        parse_config(data)


def test_unknown_agent_key_rejected():
    data = tiny_config_data()
    data["agent"] = {"actor_momentum": 0.9}
    with pytest.raises(ConfigError, match="agent.actor_momentum"):
        parse_config(data)


def test_negative_phase_rejected():
    data = tiny_config_data()
    data["phases"]["train"] = -1
    with pytest.raises(ConfigError, match="phases"):
        parse_config(data)


def test_all_zero_phases_rejected():
    # a run of zero steps has nothing to summarize
    with pytest.raises(ConfigError, match="phases"):
        parse_config(tiny_config_data(phases=(0, 0, 0)))


@pytest.mark.parametrize("agent, path", [
    ({"tau": 5.0}, "agent.tau"),
    ({"gamma": 2.0}, "agent.gamma"),
    ({"epsilon_start": 1.5}, "agent.epsilon_start"),
    ({"epsilon_end": 2.0}, "agent.epsilon_end"),
    ({"epsilon_start": 0.2, "epsilon_end": 0.3}, "agent.epsilon_end"),
])
def test_agent_fraction_out_of_range_rejected(agent, path):
    data = tiny_config_data()
    data["agent"] = agent
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        parse_config(data)


def _set_path(data, path, value):
    keys = [int(k) if k.isdigit() else k for k in re.split(r"[.\[\]]+", path) if k]
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value


@pytest.mark.parametrize("path", [
    "config.seed",
    "scheme.bta",
    "scheme.signed_penalty",
    "scheme.penalty_aggregate",
    "scenario.fp_tl",
    "scenario.slices[0].delay_rq",
    "scenario.slices[1].mask.perod",
    "phases.evl",
    "output.dri",
])
def test_unknown_config_key_rejected_with_dotted_path(path):
    data = tiny_config_data()
    data["output"] = {"dir": "runs"}
    _set_path(data, path.removeprefix("config."), 3)
    with pytest.raises(ConfigError, match=re.escape(path) + ": unknown field"):
        parse_config(data)


def test_removed_reward_variant_rejected():
    data = tiny_config_data()
    data["scheme"]["reward_variant"] = "penalized"
    with pytest.raises(ConfigError, match=r"scheme\.reward_variant"):
        parse_config(data)


@pytest.mark.parametrize("tol", [0.0, -1e-6])
def test_non_positive_fp_tol_rejected(tol):
    data = tiny_config_data()
    data["scenario"]["fp_tol"] = tol
    with pytest.raises(ConfigError, match=r"scenario\.fp_tol"):
        parse_config(data)


def test_agent_fractions_at_their_bounds_accepted():
    data = tiny_config_data()
    data["agent"] = {"tau": 1.0, "gamma": 1.0, "epsilon_start": 0.0, "epsilon_end": 0.0}
    assert parse_config(data).hyper.tau == 1.0


def test_empty_seed_list_rejected():
    data = tiny_config_data()
    data["seeds"] = []
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(data)


def test_scenario_hash_ignores_key_order_but_not_values():
    section = tiny_config_data()["scenario"]
    reordered = json.loads(json.dumps(section))
    reordered["slices"][0] = dict(reversed(list(reordered["slices"][0].items())))
    assert scenario_hash(section) == scenario_hash(reordered)
    changed = copy.deepcopy(section)
    changed["bandwidth_hz"] = 10e6
    assert scenario_hash(section) != scenario_hash(changed)


def test_phase_plan_boundaries():
    plan = PhasePlan(explore=2500, train=10000, eval=2500)
    assert plan.total == 15000
    assert plan.anneal_steps == 12500
    assert plan.phase_of(0) == "explore"
    assert plan.phase_of(2499) == "explore"
    assert plan.phase_of(2500) == "train"
    assert plan.phase_of(12499) == "train"
    assert plan.phase_of(12500) == "eval"


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _state(throughput, users):
    thr = np.asarray(throughput, dtype=float)
    return NetState(throughput=thr, delay=np.full_like(thr, 5e-4),
                    load=np.zeros_like(thr), users=np.asarray(users), t=0)


def test_resource_efficiency_worked_example():
    # served (4, 2) Mbit/s on shares (0.4, 0.2) of 20 MHz -> 0.5 bit/s/Hz
    topo = Topology.ring(1, bandwidth_hz=20e6, coupling=0.0, se_max=2.0)
    net = _state([[2e6, 2e6]], [[2, 1]])
    alloc = np.array([[0.4, 0.4, 0.2]])
    assert resource_efficiency(net, alloc, topo, 0) == pytest.approx(0.5, abs=1e-12)


def test_resource_efficiency_zero_traffic():
    topo = Topology.ring(1, bandwidth_hz=20e6, coupling=0.0, se_max=2.0)
    net = _state([[0.0, 0.0]], [[0, 0]])
    assert resource_efficiency(net, np.array([[0.2, 0.4, 0.4]]), topo, 0) == 0.0


def test_resource_efficiency_halved_share_doubles_term():
    topo = Topology.ring(1, bandwidth_hz=20e6, coupling=0.0, se_max=2.0)
    net = _state([[2e6, 2e6]], [[2, 1]])
    full = resource_efficiency(net, np.array([[0.4, 0.4, 0.2]]), topo, 0)
    halved = resource_efficiency(net, np.array([[0.6, 0.2, 0.2]]), topo, 0)
    assert halved == pytest.approx(full + 0.25, abs=1e-12)  # slice-1 term 0.5 -> 1.0


def test_resource_efficiency_zero_share_contributes_zero():
    topo = Topology.ring(1, bandwidth_hz=20e6, coupling=0.0, se_max=2.0)
    net = _state([[2e6, 2e6]], [[2, 1]])
    v = resource_efficiency(net, np.array([[0.8, 0.0, 0.2]]), topo, 0)
    assert v == pytest.approx(0.25, abs=1e-12)  # only slice 2's 0.5, averaged


def test_mask_correlation_exact():
    m = np.sin(np.linspace(0, 6 * np.pi, 200))
    assert mask_correlation(m, m) == pytest.approx(1.0, abs=1e-12)
    assert mask_correlation(-m, m) == pytest.approx(-1.0, abs=1e-12)


def test_mask_correlation_constant_is_nan():
    assert np.isnan(mask_correlation(np.ones(10), np.arange(10.0)))
    assert np.isnan(mask_correlation(np.arange(10.0), np.ones(10)))


def test_mask_correlation_white_noise_small():
    # independent noise vs a periodic mask: |rho| < 0.1 at length 1000
    t = np.arange(1000)
    mask = 0.5 + 0.5 * np.sin(2 * np.pi * t / 500)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        rho = mask_correlation(rng.random(1000), mask)
        assert abs(rho) < 0.1


def test_mask_correlation_shape_checks():
    with pytest.raises(ValueError):
        mask_correlation(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        mask_correlation(np.ones(1), np.ones(1))


def test_smooth_trailing_average():
    out = smooth([0.0, 3.0, 6.0, 9.0], window=3)
    assert np.allclose(out, [0.0, 1.5, 3.0, 6.0])
    series = np.arange(10.0)
    assert np.allclose(smooth(series, window=1), series)


def test_steps_to_fraction_of_final_ramp():
    # smoothed ramp reaches 90% of its final value at index 90
    assert steps_to_fraction_of_final(np.arange(100.0), fraction=0.9, window=10) == 90
    flat = np.full(50, 2.0)
    assert steps_to_fraction_of_final(flat, window=10) == 0


# ---------------------------------------------------------------------------
# grid-search oracle
# ---------------------------------------------------------------------------


def test_simplex_grid_enumeration():
    pts = list(simplex_grid(3, 4))
    assert len(pts) == 15  # C(4+2, 2)
    for p in pts:
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p * 4, np.round(p * 4))


def test_grid_search_toy_optimum():
    cfg = load_config(CONFIG_DIR / "toy.json")
    res = grid_search(cfg.scenario, cfg.rewards, step=0.01)
    assert res["allocation"] == pytest.approx([0.0, 0.62, 0.38], abs=1e-12)
    assert res["reward"] == pytest.approx(0.7903225806451613, abs=1e-12)
    assert res["points"] == 5151


def test_grid_search_coarse_step():
    # at step 0.05 the best split is (0.60, 0.40): reward 2*(1 - 0.375/0.6) = 0.75
    cfg = load_config(CONFIG_DIR / "toy.json")
    res = grid_search(cfg.scenario, cfg.rewards, step=0.05)
    assert res["allocation"] == pytest.approx([0.0, 0.6, 0.4], abs=1e-12)
    assert res["reward"] == pytest.approx(0.75, abs=1e-12)


def test_evaluate_static_requires_single_cell_constant_masks():
    ref = load_config(CONFIG_DIR / "reference.json")
    with pytest.raises(ConfigError, match="single-cell"):
        evaluate_static(ref.scenario, ref.rewards, [0.0, 0.5, 0.5])
    toy = load_config(CONFIG_DIR / "toy.json")
    varying = tiny_config_data()
    varying["scenario"]["slices"][0]["mask"]["breakpoints"] = [[0.0, 0.2], [100.0, 1.0]]
    cfg = parse_config(varying)
    with pytest.raises(ConfigError, match="constant"):
        evaluate_static(cfg.scenario, toy.rewards, [0.0, 0.5, 0.5])


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def test_run_single_row_count_and_header(tmp_path):
    cfg = parse_config(tiny_config_data())
    run_single(cfg, "static_default", 0, tmp_path)
    lines = (tmp_path / "steps.csv").read_text().splitlines()
    assert lines[0] == ",".join(csv_header(1, 2))
    assert len(lines) == 1 + cfg.phases.total
    phases = [ln.split(",")[1] for ln in lines[1:]]
    assert phases.count("explore") == 5
    assert phases.count("train") == 6
    assert phases.count("eval") == 4


def test_run_single_zero_traffic_idle_reward(tmp_path):
    cfg = parse_config(tiny_config_data(mask_value=0.0))
    summary = run_single(cfg, "static_default", 0, tmp_path)
    assert summary["mean_eval_reward"] == 1.0
    assert summary["mean_eval_eta"] == 0.0
    assert summary["throughput_ratio_s1"] is None  # no active steps to average
    assert summary["simplex_violations"] == 0


def test_run_single_deterministic_csv(tmp_path):
    cfg = parse_config(tiny_config_data(phases=(40, 40, 20), kind="dist"))
    run_single(cfg, "dist", 7, tmp_path / "a")
    run_single(cfg, "dist", 7, tmp_path / "b")
    a = (tmp_path / "a" / "steps.csv").read_bytes()
    b = (tmp_path / "b" / "steps.csv").read_bytes()
    assert a == b
    assert (tmp_path / "a" / "checkpoints" / "agent.npz").exists()


def test_run_single_different_seed_differs(tmp_path):
    cfg = parse_config(tiny_config_data(phases=(40, 40, 20), kind="dist"))
    run_single(cfg, "dist", 0, tmp_path / "a")
    run_single(cfg, "dist", 1, tmp_path / "b")
    assert (tmp_path / "a" / "steps.csv").read_bytes() != (tmp_path / "b" / "steps.csv").read_bytes()


def test_run_single_checkpoint_loads_into_a_fresh_controller(tmp_path):
    cfg = parse_config(tiny_config_data(phases=(40, 40, 20), kind="dist"))
    agents = {}
    for kind in ("dist", "cen_soft"):
        summary = run_single(cfg, kind, 0, tmp_path / kind)
        assert summary["checkpoint"] == str(tmp_path / kind / "checkpoints" / "agent.npz")
        ctl = build_scheme(kind, cfg.scenario, cfg.rewards, cfg.scaling, cfg.hyper,
                           np.random.default_rng(1), cfg.phases.anneal_steps)
        with np.load(summary["checkpoint"]) as data:
            ctl.agent.load_state(data)
            state = ctl.agent.state()
            for name in data.files:
                assert np.array_equal(state[name], data[name]), (kind, name)
        agents[kind] = ctl.agent
    with np.load(tmp_path / "dist" / "checkpoints" / "agent.npz") as data:
        with pytest.raises(ValueError):
            agents["cen_soft"].load_state(data)


class _ActFailsAtStep5(BaselineController):
    def act(self, net, phase, step):
        if step == 5:
            raise RuntimeError("act failed at step 5")
        return super().act(net, phase, step)


def test_failed_run_leaves_no_steps_csv_or_summary(tmp_path, monkeypatch):
    cfg = parse_config(tiny_config_data())
    run_single(cfg, "baseline", 0, tmp_path)  # an earlier run's results, to be cleared
    monkeypatch.setattr(runner, "build_scheme",
                        lambda kind, sc, rewards, scaling, *_, **__:
                        _ActFailsAtStep5(sc, rewards, scaling))
    with pytest.raises(RuntimeError, match="step 5"):
        run_single(cfg, "baseline", 1, tmp_path)
    assert not (tmp_path / "steps.csv").exists()
    assert not (tmp_path / "summary.json").exists()
    # the rows written before the failure stay in the partial file
    assert len((tmp_path / "steps.csv.partial").read_text().splitlines()) == 1 + 5


def test_static_scheme_writes_no_checkpoint(tmp_path):
    cfg = parse_config(tiny_config_data())
    summary = run_single(cfg, "static_default", 0, tmp_path)
    assert summary["checkpoint"] is None
    assert not (tmp_path / "checkpoints").exists()


def test_summary_self_consistency_from_csv(tmp_path):
    cfg = parse_config(tiny_config_data(phases=(35, 80, 40), kind="dist"))
    summary = run_single(cfg, "dist", 3, tmp_path)
    rows = [ln.split(",") for ln in (tmp_path / "steps.csv").read_text().splitlines()]
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}

    def f(row, name):
        return float(row[col[name]])

    ev = [r for r in body if r[col["phase"]] == "eval"]
    tr = [r for r in body if r[col["phase"]] == "train"]
    assert abs(np.mean([f(r, "reward_raw") for r in ev]) - summary["mean_eval_reward"]) < 1e-9
    assert abs(np.mean([f(r, "eta_c1") for r in ev]) - summary["mean_eval_eta"]) < 1e-9

    for s, req in ((1, 5e6), (2, 3e6)):
        served = np.array([f(r, f"phi_c1_s{s}") * f(r, f"users_c1_s{s}") for r in ev])
        users = np.array([f(r, f"users_c1_s{s}") for r in ev])
        active = users > 0
        ratio = np.mean(served[active] / users[active] / req)
        assert abs(ratio - summary[f"throughput_ratio_s{s}"]) < 1e-9
        delay = np.array([f(r, f"delay_c1_s{s}") * f(r, f"users_c1_s{s}") for r in ev])
        assert abs(np.mean(delay[active] / users[active]) - summary[f"mean_delay_s_s{s}"]) < 1e-9

    pen = np.array([f(r, "penalty") for r in tr])
    assert abs(np.mean(pen[-1000:]) - summary["penalty_mean_last_1000_train"]) < 1e-9
    raw_tr = np.array([f(r, "reward_raw") for r in tr])
    assert steps_to_fraction_of_final(raw_tr) == summary["steps_to_90pct_train_reward"]

    share = np.array([f(r, "action_c1_a1") for r in ev])
    mask = np.array([f(r, "mask_s1") for r in ev])
    corr = mask_correlation(share, mask)
    if summary["mask_correlation_s1"] is None:
        assert np.isnan(corr)
    else:
        assert abs(corr - summary["mask_correlation_s1"]) < 1e-9


def test_run_experiment_layout(tmp_path):
    cfg = parse_config(tiny_config_data())
    out = run_experiment(cfg, schemes=["static_default", "baseline"], seeds=[0, 1],
                         out_root=tmp_path)
    assert len(out) == 4
    for kind in ("static_default", "baseline"):
        for seed in (0, 1):
            assert (tmp_path / kind / f"seed{seed}" / "summary.json").exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _two_runs(tmp_path, seeds=(0, 1)):
    cfg = parse_config(tiny_config_data())
    dirs = []
    for s in seeds:
        d = tmp_path / f"seed{s}"
        run_single(cfg, "static_default", s, d)
        dirs.append(d)
    return dirs


def test_compare_single_run(tmp_path):
    (d,) = _two_runs(tmp_path, seeds=(0,))
    result = compare_runs([load_summary(d)])
    assert result["ranking"] == ["static_default"]
    row = result["schemes"]["static_default"]
    assert row["runs"] == 1
    assert row["eval_reward"] is not None
    assert "static_default" in format_table(result)
    assert result["scenario_hash"] in format_table(result)


def test_compare_duplicated_runs_zero_spread(tmp_path):
    (d,) = _two_runs(tmp_path, seeds=(0,))
    s = load_summary(d)
    result = compare_runs([s, dict(s)])
    assert result["schemes"]["static_default"]["eval_reward"] == s["mean_eval_reward"]


def test_compare_rejects_mixed_scenarios(tmp_path):
    (d,) = _two_runs(tmp_path, seeds=(0,))
    a = load_summary(d)
    b = dict(a)
    b["scenario_hash"] = "0" * 16
    with pytest.raises(ValueError, match="scenario"):
        compare_runs([a, b])


def test_mean_curve_matches_smoothed_column(tmp_path):
    (d,) = _two_runs(tmp_path, seeds=(0,))
    s = load_summary(d)
    curve = mean_curve([s, s], column="reward_raw", window=5, stride=3)
    raw = smooth(read_column(s["steps_csv"], "reward_raw"), window=5)
    assert curve["steps"] == list(range(0, len(raw), 3))
    assert np.allclose(curve["values"], raw[::3])


def test_read_column_unknown_name(tmp_path):
    (d,) = _two_runs(tmp_path, seeds=(0,))
    with pytest.raises(KeyError):
        read_column(load_summary(d)["steps_csv"], "no_such_column")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_validate_ok(capsys):
    assert main(["validate", "--config", str(CONFIG_DIR / "toy.json")]) == 0
    out = capsys.readouterr().out
    assert "cells=1" in out and "schemes=dist" in out


def test_cli_validate_missing_file(capsys):
    assert main(["validate", "--config", "/nonexistent.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_oracle_grid(capsys):
    code = main(["oracle", "grid", "--config", str(CONFIG_DIR / "toy.json"),
                 "--step", "0.05"])
    assert code == 0
    res = json.loads(capsys.readouterr().out)
    assert res["reward"] == pytest.approx(0.75, abs=1e-12)
    assert res["allocation"] == pytest.approx([0.0, 0.6, 0.4], abs=1e-12)


def test_cli_run_and_compare(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_config_data()))
    code = main(["run", "--config", str(cfg_path), "--seed", "0", "--seed", "1",
                 "--out", str(tmp_path / "runs")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("static_default") == 2
    code = main(["compare", str(tmp_path / "runs" / "static_default" / "seed0"),
                 str(tmp_path / "runs" / "static_default" / "seed1")])
    assert code == 0
    assert "eval_reward" in capsys.readouterr().out
