"""Harness tests: config parsing, metrics oracles, runner artifacts, compare, CLI."""

import copy
import itertools
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields as dc_fields
from pathlib import Path

import numpy as np
import pytest

from slicesim.harness import runner
from slicesim.harness.cli import main
from slicesim.harness.compare import (compare_runs, format_table, load_summary,
                                      mean_curve, read_column)
from slicesim.harness.config import (MAX_CELLS, PhasePlan, load_config, parse_config,
                                     scenario_hash)
from slicesim.harness.gridsearch import evaluate_static, grid_search, simplex_grid
from slicesim.harness.metrics import (mask_correlation, resource_efficiency, smooth,
                                      steps_to_fraction_of_final)
from slicesim.harness.runner import csv_header, run_experiment, run_single
from slicesim.mdp import reward_global
from slicesim.netsim import (TOPOLOGY_BUILDERS, ConfigError, ConstraintViolationError,
                             NetState, SliceEnv, Topology, TrafficMask)
from slicesim.schemes import BaselineController, build_scheme
from slicesim.td3 import AgentHyperParams

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def tiny_config_data(phases=(5, 6, 4), kind="static_default", mask_value=1.0, cells=1):
    return {
        "scenario": {
            "topology": "ring",
            "cells": cells,
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


def test_omitted_optional_fields_take_their_defaults():
    data = tiny_config_data()
    del data["scenario"]["p_stay"]
    del data["phases"]
    cfg = parse_config(data)
    assert cfg.scenario.p_stay == 0.8
    assert cfg.rewards.beta == 1.2
    assert cfg.phases == PhasePlan(explore=2500, train=10000, eval=2500)
    data["phases"] = {"train": 7}
    assert parse_config(data).phases == PhasePlan(explore=2500, train=7, eval=2500)


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


@pytest.mark.parametrize("agent, capacity", [
    ({"batch_size": 32, "buffer_capacity": 10}, 10),
    ({"batch_size": 11, "buffer_capacity": 10}, 10),
    ({"buffer_capacity": 16}, 16),  # the default batch of 32
])
def test_batch_larger_than_the_replay_buffer_rejected(agent, capacity):
    # the buffer never holds a batch, so such a learner would never train
    data = tiny_config_data()
    data["agent"] = agent
    with pytest.raises(ConfigError, match=re.escape(
            f"agent.batch_size: must be <= agent.buffer_capacity ({capacity})")):
        parse_config(data)
    data["agent"] = {"batch_size": capacity, "buffer_capacity": capacity}
    assert parse_config(data).hyper.batch_size == capacity


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
    # fixed constants of netsim, no longer scenario fields
    "scenario.delay_base_s",
    "scenario.load_cap",
    "scenario.fp_tol",
    "scenario.fp_max_iter",
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


@pytest.mark.parametrize("tol", [0.0, -1e-6])
def test_non_positive_fp_tol_rejected(tol):
    # fp_tol is a fixed default of the solve now: a config that sets it at all,
    # and so one that sets it to a non-positive value, is refused
    data = tiny_config_data()
    data["scenario"]["fp_tol"] = tol
    with pytest.raises(ConfigError, match=r"scenario\.fp_tol: unknown field"):
        parse_config(data)


def test_removed_reward_variant_rejected():
    data = tiny_config_data()
    data["scheme"]["reward_variant"] = "penalized"
    with pytest.raises(ConfigError, match=r"scheme\.reward_variant"):
        parse_config(data)


# numbers that json parses but no config may hold: NaN, the infinities, and
# an integer too large for a float (which overflows where it is converted)
NON_FINITE = [
    ("scenario.coupling", math.nan),
    ("scenario.bandwidth_hz", math.inf),
    ("scenario.bandwidth_hz", 10 ** 400),
    ("scenario.slices[0].throughput_req", math.inf),
    ("scenario.slices[0].mask.period", math.inf),
    ("scenario.slices[1].mask.breakpoints[0][0]", math.nan),
    ("scheme.beta", math.inf),
    ("scheme.static_allocation[1]", math.nan),
    ("agent.actor_lr", math.nan),
    ("agent.gamma", math.nan),
    ("agent.batch_size", math.inf),
    ("phases.train", -math.inf),
]


def _non_finite_config(path, value):
    data = tiny_config_data()
    data["scheme"]["static_allocation"] = [0.0, 0.5, 0.5]
    data["agent"] = {"actor_lr": 1e-3, "gamma": 0.1, "batch_size": 4}
    _set_path(data, path, value)
    return data


@pytest.mark.parametrize("path, value", NON_FINITE)
def test_non_finite_number_rejected_with_dotted_path(path, value):
    with pytest.raises(ConfigError, match=re.escape(path) + ": must be a finite number"):
        parse_config(_non_finite_config(path, value))


def test_agent_fractions_at_their_bounds_accepted():
    data = tiny_config_data()
    data["agent"] = {"tau": 1.0, "gamma": 1.0, "epsilon_start": 0.0, "epsilon_end": 0.0}
    assert parse_config(data).hyper.tau == 1.0


def test_empty_seed_list_rejected():
    data = tiny_config_data()
    data["seeds"] = []
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(data)


def test_negative_seed_rejected():
    data = tiny_config_data()
    data["seeds"] = [0, -1]
    with pytest.raises(ConfigError, match=r"seeds\[1\]: must be >= 0"):
        parse_config(data)


@pytest.mark.parametrize("seeds, path", [([0, 0], "seeds[1]"), ([3, 1, 3], "seeds[2]")])
def test_duplicate_seed_rejected(seeds, path):
    data = tiny_config_data()
    data["seeds"] = seeds
    with pytest.raises(ConfigError, match=re.escape(f"{path}: duplicate of seeds[0]")):
        parse_config(data)


def test_duplicate_scheme_kind_rejected():
    data = tiny_config_data()
    data["scheme"]["kind"] = ["dist", "baseline", "dist"]
    with pytest.raises(ConfigError,
                       match=re.escape("scheme.kind[2]: duplicate of scheme.kind[0]")):
        parse_config(data)


@pytest.mark.parametrize("out_dir", [None, 5, ""])
def test_output_dir_must_be_a_non_empty_string(out_dir):
    data = tiny_config_data()
    data["output"] = {"dir": out_dir}
    with pytest.raises(ConfigError, match=re.escape("output.dir: expected a non-empty string")):
        parse_config(data)


@pytest.mark.parametrize("hidden", [[True, 8], [8, False], [0, 8], [8.0]])
def test_hidden_widths_must_be_positive_integers(hidden):
    data = tiny_config_data()
    data["agent"] = {"dist_actor_hidden": hidden}
    with pytest.raises(ConfigError, match=re.escape("agent.dist_actor_hidden: expected a list")):
        parse_config(data)


@pytest.mark.parametrize("field", dc_fields(AgentHyperParams), ids=lambda f: f.name)
def test_agent_settings_parse_as_their_declared_types(field):
    # the dataclass annotations alone say which settings are integers and
    # which are lists of layer widths
    data = tiny_config_data()
    if field.type == "int":
        data["agent"] = {field.name: 2.5}
        with pytest.raises(ConfigError,
                           match=re.escape(f"agent.{field.name}: expected an integer")):
            parse_config(data)
    elif field.type == "tuple[int, ...]":
        data["agent"] = {field.name: 8}
        with pytest.raises(ConfigError, match=re.escape(
                f"agent.{field.name}: expected a list of positive integers")):
            parse_config(data)
    else:
        assert field.type == "float"
        data["agent"] = {field.name: 0.5}
        assert getattr(parse_config(data).hyper, field.name) == 0.5


@pytest.mark.parametrize("entry, message", [
    (None, "expected a number, got NoneType"),
    ("0.5", "expected a number, got str"),
    (True, "expected a number, got bool"),
])
def test_non_numeric_breakpoint_rejected_with_dotted_path(entry, message):
    data = tiny_config_data()
    data["scenario"]["slices"][0]["mask"]["breakpoints"] = [[0.0, 1.0], [250.0, entry]]
    path = "scenario.slices[0].mask.breakpoints[1][1]"
    with pytest.raises(ConfigError, match=re.escape(f"{path}: {message}")):
        parse_config(data)


@pytest.mark.parametrize("entry, message", [
    (None, "expected a number, got NoneType"),
    ("0.5", "expected a number, got str"),
    (True, "expected a number, got bool"),
])
def test_non_numeric_static_allocation_rejected_with_dotted_path(entry, message):
    data = tiny_config_data()
    data["scheme"]["static_allocation"] = [0.0, 0.5, entry]
    with pytest.raises(ConfigError, match=re.escape(f"scheme.static_allocation[2]: {message}")):
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
    # cell 1: served (4, 2) Mbit/s on shares (0.4, 0.2) of 20 MHz -> (0.5, 0.5);
    # cell 2: served (2, 3) Mbit/s on shares (0.1, 0.5) -> (1.0, 0.3)
    topo = Topology.ring(2, bandwidth_hz=20e6, coupling=0.0, se_max=2.0)
    net = _state([[2e6, 2e6], [1e6, 3e6]], [[2, 1], [2, 1]])
    alloc = np.array([[0.4, 0.4, 0.2], [0.4, 0.1, 0.5]])
    eta = resource_efficiency(net, alloc, topo)
    assert eta.shape == (2,)
    np.testing.assert_allclose(eta, [0.5, 0.65], rtol=0, atol=1e-12)


def test_resource_efficiency_zero_traffic():
    topo = Topology.ring(1, bandwidth_hz=20e6, coupling=0.0, se_max=2.0)
    net = _state([[0.0, 0.0]], [[0, 0]])
    assert resource_efficiency(net, np.array([[0.2, 0.4, 0.4]]), topo).tolist() == [0.0]


def test_resource_efficiency_halved_share_doubles_term():
    topo = Topology.ring(1, bandwidth_hz=20e6, coupling=0.0, se_max=2.0)
    net = _state([[2e6, 2e6]], [[2, 1]])
    full = resource_efficiency(net, np.array([[0.4, 0.4, 0.2]]), topo)
    halved = resource_efficiency(net, np.array([[0.6, 0.2, 0.2]]), topo)
    assert halved[0] == pytest.approx(full[0] + 0.25, abs=1e-12)  # slice-1 term 0.5 -> 1.0


def test_resource_efficiency_zero_share_contributes_zero():
    topo = Topology.ring(1, bandwidth_hz=20e6, coupling=0.0, se_max=2.0)
    net = _state([[2e6, 2e6]], [[2, 1]])
    v = resource_efficiency(net, np.array([[0.8, 0.0, 0.2]]), topo)
    assert v[0] == pytest.approx(0.25, abs=1e-12)  # only slice 2's 0.5, averaged


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
    # a final smoothed value of exactly 0 after a negative start is reached
    # where the smoothed series first climbs to 0, not immediately
    assert steps_to_fraction_of_final(np.array([-1.0, -1.0, 1.0, -1.0]), window=2) == 2


# ---------------------------------------------------------------------------
# grid-search oracle
# ---------------------------------------------------------------------------


def test_simplex_grid_enumeration():
    pts = simplex_grid(3, 4)
    assert pts.shape == (15, 3)  # C(4+2, 2)
    for p in pts:
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(p * 4, np.round(p * 4))


def simplex_grid_points(parts, resolution):
    """Reference: the grid point by point, each counted bar to bar."""
    for bars in itertools.combinations(range(resolution + parts - 1), parts - 1):
        counts = []
        prev = -1
        for b in bars + (resolution + parts - 1,):
            counts.append(b - prev - 1)
            prev = b
        yield np.array(counts, dtype=float) / resolution


@pytest.mark.parametrize("parts", [1, 2, 3, 4])
@pytest.mark.parametrize("resolution", [1, 2, 7, 20])
def test_simplex_grid_matches_the_point_by_point_enumeration(parts, resolution):
    grid = simplex_grid(parts, resolution)
    reference = list(simplex_grid_points(parts, resolution))
    assert grid.shape == (len(reference), parts) and grid.dtype == np.float64
    assert grid.tobytes() == np.array(reference).tobytes()


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


@pytest.mark.parametrize("step", [0.3, 0.7, 0.015])
def test_grid_search_rejects_a_step_that_is_not_one_over_a_whole_number(step):
    # 1/0.3 would round to a grid of thirds and 1/0.7 to the vertices only
    cfg = load_config(CONFIG_DIR / "toy.json")
    with pytest.raises(ValueError, match="1/n"):
        grid_search(cfg.scenario, cfg.rewards, step=step)


def test_evaluate_static_requires_single_cell_constant_masks():
    ref = load_config(CONFIG_DIR / "reference.json")
    with pytest.raises(ConfigError, match="single-cell"):
        evaluate_static(ref.scenario, ref.rewards, [[0.0, 0.5, 0.5]])
    toy = load_config(CONFIG_DIR / "toy.json")
    varying = tiny_config_data()
    varying["scenario"]["slices"][0]["mask"]["breakpoints"] = [[0.0, 0.2], [100.0, 1.0]]
    cfg = parse_config(varying)
    with pytest.raises(ConfigError, match="constant"):
        evaluate_static(cfg.scenario, toy.rewards, [[0.0, 0.5, 0.5]])


def test_evaluate_static_scores_each_point_as_a_fresh_environment_would(monkeypatch):
    # the reference: one fresh environment and one step per grid point
    cfg = load_config(CONFIG_DIR / "toy.json")
    grid = simplex_grid(3, 20)
    assert len(grid) == 231
    reference = []
    for alloc in grid:
        env = SliceEnv(cfg.scenario, 0)
        env.reset()
        env.draw(1)
        reference.append(reward_global(env.step(alloc[None, None, :]), cfg.rewards)[0])
    scores = evaluate_static(cfg.scenario, cfg.rewards, grid)
    assert scores.shape == (231,)
    assert scores.tobytes() == np.array(reference).tobytes()

    calls = []
    step = SliceEnv.step

    def counted_step(env, allocation):
        calls.append(allocation.shape)
        return step(env, allocation)

    monkeypatch.setattr(SliceEnv, "step", counted_step)
    assert grid_search(cfg.scenario, cfg.rewards, step=0.05)["points"] == 231
    assert calls == [(231, 1, 3)]


def test_grid_search_ties_keep_the_first_enumerated_point():
    # with no traffic every slice meets its targets, so every point scores 1
    data = json.loads((CONFIG_DIR / "toy.json").read_text())
    for s in data["scenario"]["slices"]:
        s["mask"]["breakpoints"] = [[0.0, 0.0]]
    cfg = parse_config(data)
    grid = simplex_grid(3, 100)
    assert (evaluate_static(cfg.scenario, cfg.rewards, grid) == 1.0).all()
    res = grid_search(cfg.scenario, cfg.rewards, step=0.01)
    assert res["allocation"] == [0.0, 0.0, 1.0]
    assert res["reward"] == 1.0


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


class _ActFailsAt(BaselineController):
    # not open-loop, so the runner steps it one step a pass
    open_loop = False

    def __init__(self, scenario, fail_step):
        super().__init__(scenario)
        self.fail_step = fail_step

    def act(self, net, phase, step):
        if step == self.fail_step:
            raise RuntimeError(f"act failed at step {step}")
        return super().act(net.users, phase, step)


def test_failed_run_leaves_no_steps_csv_or_summary(tmp_path, monkeypatch):
    cfg = parse_config(tiny_config_data(phases=(300, 300, 300)))
    block = runner._BLOCK_CELLS // len(csv_header(1, 2))
    full = tmp_path / "full"
    run_single(cfg, "baseline", 1, full)
    complete = full.joinpath("steps.csv").read_text().splitlines(keepends=True)
    # inside the first row block, and past its boundary
    for fail_step in (5, block + 3):
        out = tmp_path / f"fail{fail_step}"
        run_single(cfg, "baseline", 0, out)  # an earlier run's results, to be cleared
        monkeypatch.setattr(runner, "build_scheme",
                            lambda kind, sc, *_, **__: _ActFailsAt(sc, fail_step))
        with pytest.raises(RuntimeError, match=f"step {fail_step}"):
            run_single(cfg, "baseline", 1, out)
        monkeypatch.undo()
        assert not (out / "steps.csv").exists()
        assert not (out / "summary.json").exists()
        # the completed steps' rows stay in the partial file, as a full run writes them
        partial = (out / "steps.csv.partial").read_text()
        assert partial == "".join(complete[:1 + fail_step])


class _ActsOffSimplex(BaselineController):
    # not open-loop, so the runner steps it one step a pass
    open_loop = False

    def act(self, net, phase, step):
        proposals, alloc = super().act(net.users, phase, step)
        alloc[..., 0, 1] += 1e-6
        return proposals, alloc


def test_off_simplex_allocation_ends_the_run(tmp_path, monkeypatch):
    cfg = load_config(CONFIG_DIR / "toy.json")
    run_single(cfg, "baseline", 0, tmp_path)  # an earlier run's results, to be cleared
    monkeypatch.setattr(runner, "build_scheme", lambda kind, sc, *_, **__: _ActsOffSimplex(sc))
    with pytest.raises(ConstraintViolationError, match="off simplex"):
        run_single(cfg, "baseline", 1, tmp_path)
    assert not (tmp_path / "steps.csv").exists()
    assert not (tmp_path / "summary.json").exists()
    # the first step's allocation was refused, so only the header was written
    assert (tmp_path / "steps.csv.partial").read_text().count("\n") == 1


def test_subnormal_static_share_runs_to_finite_results(tmp_path):
    # a peak capacity of 5e-324 bit/s rounds to zero once the neighbours
    # load, and an entry with traffic and no capacity saturates to load 1
    data = tiny_config_data(phases=(3, 3, 3), cells=3)
    data["scenario"].update(bandwidth_hz=1.0, se_max=1.0, coupling=1.0)
    data["scheme"]["static_allocation"] = [0.0, 1.0, 5e-324]
    cfg = parse_config(data)
    with np.errstate(over="ignore"):  # offered / 5e-324 is inf, which saturates to 1
        summary = run_single(cfg, "static_default", 0, tmp_path)
    assert math.isfinite(summary["mean_eval_reward"])
    lines = (tmp_path / "steps.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        for col, v in row.items():
            if col not in ("phase", "critic_loss", "actor_objective"):
                assert math.isfinite(float(v)), (col, v)


def test_one_eval_step_run_writes_results_without_correlation(tmp_path):
    cfg = parse_config(tiny_config_data(phases=(5, 6, 1), kind="baseline"))
    summary = run_single(cfg, "baseline", 0, tmp_path)
    assert len((tmp_path / "steps.csv").read_text().splitlines()) == 1 + 12
    assert not (tmp_path / "steps.csv.partial").exists()
    written = json.loads((tmp_path / "summary.json").read_text())
    for j in (1, 2):
        assert summary[f"mask_correlation_s{j}"] is None
        assert written[f"mask_correlation_s{j}"] is None


def test_run_evaluates_each_mask_once_per_state(tmp_path, monkeypatch):
    cfg = parse_config(tiny_config_data(phases=(5, 6, 4), kind="baseline"))
    calls = []
    value = TrafficMask.value

    def counting(self, t):
        calls.append(t)
        return value(self, t)

    monkeypatch.setattr(TrafficMask, "value", counting)
    run_single(cfg, "baseline", 0, tmp_path)
    # the reset state and one state per step, once for each slice's mask
    assert len(calls) == cfg.scenario.slice_count * (cfg.phases.total + 1)


def test_summary_paths_read_from_another_directory(tmp_path, monkeypatch):
    cfg = parse_config(tiny_config_data(phases=(40, 40, 20), kind="dist"))
    monkeypatch.chdir(tmp_path)
    summary = run_single(cfg, "dist", 0, "runs/dist")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    written = json.loads((tmp_path / "runs" / "dist" / "summary.json").read_text())
    csv = (tmp_path / "runs" / "dist" / "steps.csv").read_bytes()
    for paths in (summary, written):
        assert Path(paths["steps_csv"]).read_bytes() == csv
        with np.load(paths["checkpoint"]) as data:
            assert data.files


def test_static_scheme_writes_no_checkpoint(tmp_path):
    cfg = parse_config(tiny_config_data())
    summary = run_single(cfg, "static_default", 0, tmp_path)
    assert summary["checkpoint"] is None
    assert not (tmp_path / "checkpoints").exists()


@pytest.mark.parametrize("cells", [1, 3])
def test_summary_self_consistency_from_csv(cells, tmp_path):
    data = tiny_config_data(phases=(35, 80, 40), kind="dist", cells=cells)
    data["scenario"]["p_stay"] = 0.5
    for sl in data["scenario"]["slices"]:
        sl["mask"] = {"period": 40.0, "breakpoints": [[0.0, 1.0], [20.0, 0.3]]}
    cfg = parse_config(data)
    summary = run_single(cfg, "dist", 3, tmp_path)
    rows = [ln.split(",") for ln in (tmp_path / "steps.csv").read_text().splitlines()]
    header, body = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}

    def f(rows, name):
        return np.array([float(r[col[name]]) for r in rows])

    ev = [r for r in body if r[col["phase"]] == "eval"]
    tr = [r for r in body if r[col["phase"]] == "train"]
    cell_ids = range(1, cells + 1)
    # every cell's eta, recomputed from its served traffic and allocation
    for c in cell_ids:
        terms = []
        for s in (1, 2):
            served = f(body, f"phi_c{c}_s{s}") * f(body, f"users_c{c}_s{s}")
            share = f(body, f"action_c{c}_a{s}")
            terms.append(np.where(share > 0, served / np.where(share > 0, share, 1) / 20e6,
                                  0.0))
        np.testing.assert_allclose(f(body, f"eta_c{c}"), np.mean(terms, axis=0),
                                   rtol=1e-12, atol=0)
    assert abs(np.mean(f(ev, "reward_raw")) - summary["mean_eval_reward"]) < 1e-9
    eta = np.mean([f(ev, f"eta_c{c}") for c in cell_ids], axis=0)
    assert abs(np.mean(eta) - summary["mean_eval_eta"]) < 1e-9

    for s, req in ((1, 5e6), (2, 3e6)):
        # slice KPIs sum over cells before the per-user division
        served = sum(f(ev, f"phi_c{c}_s{s}") * f(ev, f"users_c{c}_s{s}") for c in cell_ids)
        users = sum(f(ev, f"users_c{c}_s{s}") for c in cell_ids)
        delay = sum(f(ev, f"delay_c{c}_s{s}") * f(ev, f"users_c{c}_s{s}") for c in cell_ids)
        active = users > 0
        ratio = np.mean(served[active] / users[active] / req)
        assert abs(ratio - summary[f"throughput_ratio_s{s}"]) < 1e-9
        assert abs(np.mean(delay[active] / users[active]) - summary[f"mean_delay_s_s{s}"]) < 1e-9

        share = np.mean([f(ev, f"action_c{c}_a{s}") for c in cell_ids], axis=0)
        corr = mask_correlation(share, f(ev, f"mask_s{s}"))
        if summary[f"mask_correlation_s{s}"] is None:
            assert np.isnan(corr)
        else:
            assert abs(corr - summary[f"mask_correlation_s{s}"]) < 1e-9

    pen = f(tr, "penalty")
    assert abs(np.mean(pen[-1000:]) - summary["penalty_mean_last_1000_train"]) < 1e-9
    assert steps_to_fraction_of_final(f(tr, "reward_raw")) == summary["steps_to_90pct_train_reward"]


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


def test_compare_rejects_mixed_phase_plans(tmp_path):
    (d,) = _two_runs(tmp_path, seeds=(0,))
    a = load_summary(d)
    b = dict(a, phases={"explore": 5, "train": 7, "eval": 3})
    with pytest.raises(ValueError, match="different phase plans") as err:
        compare_runs([a, b])
    assert '"train": 6' in str(err.value) and '"train": 7' in str(err.value)


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


def test_cli_validate_reports_a_null_breakpoint(tmp_path, capsys):
    data = tiny_config_data()
    data["scenario"]["slices"][0]["mask"]["breakpoints"] = [[None, 1.0]]
    cfg_path = tmp_path / "null.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    assert "scenario.slices[0].mask.breakpoints[0][0]: expected a number" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("path, value", NON_FINITE)
def test_cli_validate_reports_a_non_finite_number(tmp_path, capsys, path, value):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(_non_finite_config(path, value)))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: must be a finite number\n"


# finite radio constants whose full-share peak capacity is not: the first
# overflows outright, the second only with the simplex tolerance added
OVERFLOWING_PEAKS = [(1e300, 1e9), (sys.float_info.max, 1.0)]
PEAK_OVERFLOW = "scenario: bandwidth_hz * se_max overflows the peak capacity"


@pytest.mark.parametrize("bandwidth, se_max", OVERFLOWING_PEAKS)
def test_overflowing_peak_capacity_rejected_with_the_scenario_path(bandwidth, se_max):
    data = tiny_config_data(cells=3)
    data["scenario"].update(bandwidth_hz=bandwidth, se_max=se_max)
    with pytest.raises(ConfigError, match=re.escape(PEAK_OVERFLOW)):
        parse_config(data)


@pytest.mark.parametrize("cells", [MAX_CELLS + 1, 1e9])
def test_absurd_cell_count_rejected_before_any_topology_is_built(monkeypatch, cells):
    def no_build(*args):
        raise AssertionError("a topology builder ran")

    monkeypatch.setitem(TOPOLOGY_BUILDERS, "ring", no_build)
    with pytest.raises(ConfigError, match=re.escape(f"scenario.cells: must be <= {MAX_CELLS}")):
        parse_config(tiny_config_data(cells=cells))


def test_cell_count_at_the_bound_accepted():
    assert parse_config(tiny_config_data(cells=MAX_CELLS)).scenario.cell_count == MAX_CELLS


def test_cli_validate_reports_an_absurd_cell_count(tmp_path, capsys):
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(tiny_config_data(cells=1e9)))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: scenario.cells: must be <= {MAX_CELLS}\n"


@pytest.mark.parametrize("bandwidth, se_max", OVERFLOWING_PEAKS)
def test_cli_validate_reports_an_overflowing_peak_capacity(tmp_path, capsys, bandwidth, se_max):
    data = tiny_config_data()
    data["scenario"].update(bandwidth_hz=bandwidth, se_max=se_max)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["validate", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {PEAK_OVERFLOW}\n"


@pytest.mark.parametrize("row", [[0.5, 0.6, 0.1], [-0.1, 0.6, 0.5], [0.0, 0.5, 0.5 - 2e-9]],
                         ids=["sums_over_1", "negative_entry", "sum_off_by_2e-9"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_an_off_simplex_static_allocation(tmp_path, capsys, command, row):
    data = json.loads((CONFIG_DIR / "toy.json").read_text())
    data["scheme"].update(kind="static_default", static_allocation=row)
    data["output"] = {"dir": str(tmp_path / "runs")}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(data))
    assert main([command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scheme.static_allocation: must lie on the simplex\n"
    assert not (tmp_path / "runs").exists()  # refused before the first run


def test_static_allocation_within_the_simplex_tolerance_accepted():
    # the same 1e-9 tolerance as the static scheme and the environment
    data = tiny_config_data()
    data["scheme"]["static_allocation"] = [0.0, 0.5, 0.5 + 0.5e-9]
    assert parse_config(data).static_allocation == (0.0, 0.5, 0.5 + 0.5e-9)
    data["scheme"]["static_allocation"] = [0.0, 0.5, 0.5 + 2e-9]
    with pytest.raises(ConfigError, match=re.escape("scheme.static_allocation: must lie on")):
        parse_config(data)


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


def test_cli_oracle_grid_rejects_a_step_that_is_not_one_over_a_whole_number(capsys):
    code = main(["oracle", "grid", "--config", str(CONFIG_DIR / "toy.json"), "--step", "0.3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: step must be 1/n")


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


@pytest.mark.parametrize("seeds, message", [
    (["0", "-1"], "seeds[1]: must be >= 0"),
    (["0", "0"], "seeds[1]: duplicate of seeds[0]"),
])
def test_cli_run_checks_seed_overrides_before_any_run(tmp_path, capsys, seeds, message):
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_config_data()))
    argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "runs")]
    for seed in seeds:
        argv += ["--seed", seed]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_run_experiment_rejects_duplicate_scheme_overrides(tmp_path):
    cfg = parse_config(tiny_config_data())
    with pytest.raises(ConfigError, match=re.escape("scheme.kind[1]: duplicate")):
        run_experiment(cfg, schemes=["baseline", "baseline"], out_root=tmp_path / "runs")
    assert not (tmp_path / "runs").exists()


def test_cli_compare_curves_from_another_directory(tmp_path, monkeypatch, capsys):
    # the summary names its steps.csv relative to where the run started
    cfg_path = tmp_path / "tiny.json"
    cfg_path.write_text(json.dumps(tiny_config_data(phases=(50, 60, 40))))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    assert main(["run", "--config", str(cfg_path), "--out", "runs/t"]) == 0
    monkeypatch.chdir(tmp_path / "b")
    run_dir = Path("..", "a", "runs", "t", "static_default", "seed0")
    assert main(["compare", str(run_dir), "--curves", "out.json"]) == 0
    assert "curves written to out.json" in capsys.readouterr().out
    curves = json.loads(Path("out.json").read_text())
    raw = smooth(read_column(run_dir / "steps.csv", "reward_raw"), window=100)
    assert curves["static_default"]["values"] == raw[::50].tolist()


def cli_run_errors(tmp_path, data) -> list[str]:
    """The ``error:`` lines of ``slicesim run`` on the config ``data``, run in
    a process of its own to see what a user sees on stderr, after checking
    that it exits with code 2 and prints no traceback."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "slicesim.harness.cli", "run", "--config", str(cfg_path),
         "--out", str(tmp_path / "runs")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    return [line for line in proc.stderr.splitlines() if line.startswith("error:")]


def test_cli_run_reports_a_diverging_learner_in_one_line(tmp_path):
    # learning rates of 1e300 overflow the first update, and Adam refuses the
    # next, non-finite gradient
    data = tiny_config_data(phases=(40, 10, 5), kind="dist")
    data["agent"] = {"actor_lr": 1e300, "critic_lr": 1e300}
    errors = cli_run_errors(tmp_path, data)
    assert len(errors) == 1 and "non-finite" in errors[0]


def test_cli_run_reports_an_unallocatable_replay_buffer_in_one_line(tmp_path):
    # the replay array would take over 10**14 bytes, more than a 47-bit
    # address space, so the allocation fails before any page is touched
    data = tiny_config_data(kind="dist")
    data["agent"] = {"buffer_capacity": 10 ** 13}
    errors = cli_run_errors(tmp_path, data)
    assert len(errors) == 1 and errors[0].startswith("error: Unable to allocate")
    # validation passes: it cannot know the machine's memory
    assert main(["validate", "--config", str(tmp_path / "config.json")]) == 0
