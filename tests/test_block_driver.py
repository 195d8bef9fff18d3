"""The runner's block passes against its single-step passes, and how a block fails.

The two heuristics are open-loop: the runner draws each block's traffic
ahead, acts once on the block's stacked user counts and steps the block as
one stack. A test-only subclass of each that is not open-loop runs the same
scheme one step a pass, acting on each state, the reference: both must write
the same ``steps.csv`` bytes and the same summary.
"""

import json

import numpy as np
import pytest

from slicesim import netsim
from slicesim.harness import runner
from slicesim.harness.config import parse_config
from slicesim.harness.runner import csv_header, run_single
from slicesim.netsim import ConstraintViolationError, SliceEnv
from slicesim.schemes import BaselineController, StaticController, build_scheme

KINDS = ("baseline", "static_default")
# summary fields that name paths or hold wall-clock time
UNSTABLE_SUMMARY_KEYS = ("runtime_s", "steps_csv", "checkpoint")


class _PerStepBaseline(BaselineController):
    open_loop = False

    def act(self, net, phase, step):
        return super().act(net.users, phase, step)


class _PerStepStatic(StaticController):
    open_loop = False

    def act(self, net, phase, step):
        return super().act(net.users, phase, step)


def _build_per_step(*args, **kwargs):
    """``build_scheme``, with each heuristic turned into its subclass that
    is not open-loop."""
    controller = build_scheme(*args, **kwargs)
    controller.__class__ = {BaselineController: _PerStepBaseline,
                            StaticController: _PerStepStatic}[type(controller)]
    return controller


def config_data(topology, cells, slices, phases):
    """A scenario whose masks change within a block, differently per slice,
    with about two users per cell and slice."""
    return {
        "scenario": {
            "topology": topology, "cells": cells, "bandwidth_hz": 20e6, "coupling": 0.3,
            "se_max": 2.0, "p_stay": 0.5,
            "slices": [
                {"throughput_req": 5e6 - 1e6 * j, "delay_req": 1e-3,
                 "demand_per_user": 5e6 - 1e6 * j, "group_size_max": 2 * cells,
                 "mask": {"period": 40.0,
                          "breakpoints": [[float(j), 1.0], [15.0 + j, 0.2], [30.0, 0.6]]}}
                for j in range(slices)],
        },
        "scheme": {"kind": list(KINDS)},
        "phases": dict(zip(("explore", "train", "eval"), phases)),
        "seeds": [0],
    }


def block_rows(cells, slices):
    return runner._BLOCK_CELLS // len(csv_header(cells, slices))


def _outputs(out):
    summary = json.loads((out / "summary.json").read_text())
    for key in UNSTABLE_SUMMARY_KEYS:
        del summary[key]
    return (out / "steps.csv").read_bytes(), summary


# (topology, cells, slices, phases); block rows in the comments
CASES = [
    ("ring", 1, 1, (1, 0, 0)),  # a 1-step run
    ("ring", 1, 2, (0, 0, 2)),
    ("ring", 3, 2, (5, 150, 45)),  # 89: the phase changes inside the first block
    ("grid", 25, 2, (20, 40, 10)),  # 13: both changes inside blocks, 70 steps
    ("grid", 12, 1, (30, 40, 9)),  # 44
    ("grid", 6, 3, (11, 60, 30)),  # 35
    ("full", 4, 3, (7, 50, 20)),  # 51
    ("full", 9, 2, (0, 3, 60)),  # 18
    ("ring", 25, 3, (10, 10, 10)),  # 9
]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("topology, cells, slices, phases", CASES)
def test_block_driver_writes_the_bytes_of_the_per_step_driver(topology, cells, slices, phases,
                                                              kind, tmp_path, monkeypatch):
    cfg = parse_config(config_data(topology, cells, slices, phases))
    blocks = run_single(cfg, kind, 3, tmp_path / "blocks")
    monkeypatch.setattr(runner, "build_scheme", _build_per_step)
    steps = run_single(cfg, kind, 3, tmp_path / "steps")
    assert blocks["total_steps"] == steps["total_steps"] == sum(phases)
    assert _outputs(tmp_path / "blocks") == _outputs(tmp_path / "steps")


def test_open_loop_schemes_step_the_environment_once_a_block(tmp_path, monkeypatch):
    cfg = parse_config(config_data("grid", 25, 2, (20, 40, 10)))
    calls = []
    step = SliceEnv.step

    def counting(self, allocation):
        calls.append(np.shape(allocation))
        return step(self, allocation)

    monkeypatch.setattr(SliceEnv, "step", counting)
    for kind in KINDS:
        calls.clear()
        run_single(cfg, kind, 0, tmp_path / kind)
        rows = block_rows(25, 2)
        assert calls == [(rows, 25, 3)] * (70 // rows) + [(70 % rows, 25, 3)]
    # a learner reacts to every state: each of its stacks is one step
    cfg = parse_config(config_data("ring", 3, 2, (4, 6, 3)))
    for kind in ("cen_pen", "cen_soft", "dist", "dist_comm"):
        calls.clear()
        run_single(cfg, kind, 0, tmp_path / kind)
        assert calls == [(1, 3, 3)] * 13


def test_steps_short_of_convergence_are_flagged_as_the_per_step_driver_flags_them(
        tmp_path, monkeypatch):
    # solves cut at 8 rounds by default leave some of a block's steps short
    # of convergence and not others
    for solve in (netsim.solve_coupled_loads, netsim._solve_steps):
        monkeypatch.setattr(solve, "__defaults__", (1e-6, 8))
    cfg = parse_config(config_data("grid", 25, 2, (20, 40, 10)))
    summary = run_single(cfg, "baseline", 3, tmp_path / "blocks")
    assert 0 < summary["fp_nonconverged_steps"] < 70
    monkeypatch.setattr(runner, "build_scheme", _build_per_step)
    run_single(cfg, "baseline", 3, tmp_path / "steps")
    assert _outputs(tmp_path / "blocks") == _outputs(tmp_path / "steps")


class _OffSimplexAt(BaselineController):
    """Open-loop, with the allocation of step ``fail`` off the simplex."""

    def __init__(self, scenario, fail):
        super().__init__(scenario)
        self.fail = fail

    def act(self, net, phase, step):
        proposals, alloc = super().act(net, phase, step)
        if step <= self.fail < step + len(alloc):
            alloc[self.fail - step, 0, 1] += 1e-6
        return proposals, alloc


def test_off_simplex_step_refuses_its_whole_block(tmp_path, monkeypatch):
    cfg = parse_config(config_data("ring", 3, 2, (5, 150, 45)))
    rows = block_rows(3, 2)
    full = tmp_path / "full"
    run_single(cfg, "baseline", 1, full)
    complete = full.joinpath("steps.csv").read_text().splitlines(keepends=True)
    # in the first block, on the first step of a later block, and inside it
    for fail in (5, rows, 2 * rows + 20):
        out = tmp_path / f"fail{fail}"
        run_single(cfg, "baseline", 0, out)  # an earlier run's results, to be cleared
        monkeypatch.setattr(runner, "build_scheme",
                            lambda kind, sc, *_, **__: _OffSimplexAt(sc, fail))
        with pytest.raises(ConstraintViolationError, match=f"^step {fail}: cell 0 .*off simplex"):
            run_single(cfg, "baseline", 1, out)
        monkeypatch.undo()
        assert not (out / "steps.csv").exists()
        assert not (out / "summary.json").exists()
        # exactly the earlier blocks' rows, as a full run writes them
        written = (fail // rows) * rows
        assert (out / "steps.csv.partial").read_text() == "".join(complete[:1 + written])
