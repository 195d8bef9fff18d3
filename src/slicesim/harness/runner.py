"""Single-run and multi-run experiment execution with CSV/JSON artifacts.

Every environment step appends exactly one row to ``steps.csv`` with a fixed,
scheme-independent schema. Floats are serialized with ``repr`` so re-parsing
gives back the exact same doubles; identical config and seed therefore
produce byte-identical CSVs.

Rows are formatted a block at a time. Each step stores its values in a
preallocated block (a float table, an int table and the phase strings), and
``_write_block`` formats a full block with each distinct value of it
formatted once, then writes it with one call. The last, partial block is
written when the run ends; a run that raises still writes every completed
step's row before the error propagates.

Each step's values are computed once: the step's mean penalty gap feeds both
the ``penalty`` column and the penalized reward, and one ``resource_efficiency``
call gives every cell's efficiency. What ``summary.json`` reads is stored in
arrays indexed by step (per-slice values summed over cells, the allocation
share averaged over cells), and the summary is built from those arrays.

Rows go to ``steps.csv.partial``, which becomes ``steps.csv`` only when
the run completes, so a run that raises leaves neither ``steps.csv`` nor
``summary.json``, not even an earlier run's in the same directory (the
partial file stays, ending with the last completed step). An allocation off
the per-cell simplex is such a failure: ``SliceEnv.step`` raises
``ConstraintViolationError`` for it. A learning scheme also saves its agent
as ``checkpoints/agent.npz``, the arrays of ``Td3Agent.state``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from ..mdp import penalty_gaps, reward_global, reward_penalized
from ..netsim import SliceEnv
from ..schemes import build_scheme
from .config import ExperimentConfig, parse_scheme_kinds, parse_seeds
from .metrics import mask_correlation, resource_efficiency, steps_to_fraction_of_final


def csv_header(cell_count: int, slice_count: int) -> list[str]:
    k, n = cell_count, slice_count
    cols = ["step", "phase", "reward_raw", "reward_penalized", "penalty",
            "critic_loss", "actor_objective", "fp_converged"]
    cols += [f"mask_s{j + 1}" for j in range(n)]
    cols += [f"eta_c{i + 1}" for i in range(k)]
    for name in ("phi", "delay", "load", "users"):
        cols += [f"{name}_c{i + 1}_s{j + 1}" for i in range(k) for j in range(n)]
    cols += [f"action_c{i + 1}_a{j}" for i in range(k) for j in range(n + 1)]
    return cols


def _json_safe(x):
    if isinstance(x, float) and not np.isfinite(x):
        return None
    return x


# Cells per block of CSV rows, so each table of a block takes at most 32 KiB.
# Most repeats of a value fall within one row, so a larger block formats
# hardly fewer values; it only holds more strings at once, which shows in
# peak RSS.
_BLOCK_CELLS = 4096


def _block_layout(cell_count: int, slice_count: int):
    """The CSV columns of the float-table columns and of the int-table columns."""
    k, n = cell_count, slice_count
    users = 8 + n + k + 3 * k * n  # mask, eta, phi, delay and load end here
    actions = users + k * n
    float_cols = np.r_[2:7, 8:users, actions:actions + k * (n + 1)]
    int_cols = np.r_[0, 7, users:actions]
    return float_cols, int_cols


def _write_block(fh, floats, ints, phases, layout) -> None:
    """Write one CSV row for each of ``phases`` from the first rows of the tables.

    The bytes are those of joining ``repr`` of each float and ``str`` of each
    int row by row, but each distinct value of the block is formatted once.
    Floats are keyed on their bits, so -0.0 does not print as 0.0.
    """
    rows = len(phases)
    float_cols, int_cols = layout
    fkeys, fidx = np.unique(floats[:rows].view(np.int64), return_inverse=True)
    ikeys, iidx = np.unique(ints[:rows], return_inverse=True)
    strings = [*map(repr, fkeys.view(np.float64).tolist()), *map(str, ikeys.tolist()), *phases]
    index = np.empty((rows, len(float_cols) + len(int_cols) + 1), dtype=np.intp)
    index[:, float_cols] = fidx.reshape(rows, -1)
    index[:, int_cols] = iidx.reshape(rows, -1) + len(fkeys)
    index[:, 1] = np.arange(len(strings) - rows, len(strings))
    cells = np.array(strings, dtype=object)[index]
    fh.write("".join([",".join(row) + "\n" for row in cells.tolist()]))


def run_single(cfg: ExperimentConfig, kind: str, seed: int, out_dir) -> dict:
    """Run one scheme under one seed; returns the summary dict."""
    t_start = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a failed rerun must not leave an earlier run's results looking current
    for stale in ("steps.csv", "summary.json"):
        (out / stale).unlink(missing_ok=True)
    sc = cfg.scenario
    k, n = sc.cell_count, sc.slice_count
    plan = cfg.phases

    env_ss, ctl_ss = np.random.SeedSequence(seed).spawn(2)
    env = SliceEnv(sc, env_ss)
    controller = build_scheme(kind, sc, cfg.rewards, cfg.scaling, cfg.hyper,
                              np.random.default_rng(ctl_ss), plan.anneal_steps,
                              static_allocation=cfg.static_allocation)

    # what the summary reads, one entry per step; per-slice values are
    # summed over cells, except the allocation share, a mean over cells
    raw, pen_reward, penalty, eta_mean = (np.empty(plan.total) for _ in range(4))
    served, users, delay_w, share, mask = (np.empty((plan.total, n)) for _ in range(5))
    nonconverged = 0

    # one block of rows: a float table (the five head scalars, mask, eta,
    # phi, delay, load, actions), an int table (step, fp_converged, users)
    # and the phase strings
    header = csv_header(k, n)
    block_rows = max(1, _BLOCK_CELLS // len(header))
    layout = float_cols, int_cols = _block_layout(k, n)
    floats = np.empty((block_rows, len(float_cols)))
    ints = np.empty((block_rows, len(int_cols)), dtype=np.int64)
    phases = []

    state = env.reset()
    csv_path = out / "steps.csv"
    partial_path = out / "steps.csv.partial"
    with open(partial_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        try:
            for step in range(plan.total):
                phase = plan.phase_of(step)
                proposals, alloc = controller.act(state, phase, step)
                nxt = env.step(alloc)
                if not nxt.fp_converged:
                    nonconverged += 1

                # a mean over cells is np.add.reduce over them divided by k, as
                # np.mean computes it, without np.mean's Python layer
                raw[step] = reward = reward_global(nxt, cfg.rewards)
                penalty[step] = mean_gap = float(np.add.reduce(penalty_gaps(proposals)) / k)
                pen_reward[step] = reward_pen = reward_penalized(reward, mean_gap, cfg.rewards.beta)
                if phase != "eval":
                    controller.record(state, proposals, nxt)
                diag = controller.train(step) if phase == "train" and controller.trains else None

                mask[step] = nxt.mask
                eta = resource_efficiency(nxt, alloc, sc.topology)
                eta_mean[step] = np.add.reduce(eta) / k
                served[step] = np.add.reduce(nxt.throughput * nxt.users, 0)
                users[step] = np.add.reduce(nxt.users, 0)
                delay_w[step] = np.add.reduce(nxt.delay * nxt.users, 0)
                share[step] = np.add.reduce(alloc[:, 1:], 0) / k

                # mean over agents; with one agent this is its own value, exactly
                if diag:
                    agents = diag.critic_loss.size
                    critic = float(np.add.reduce(diag.critic_loss) / agents)
                    actor = float(np.add.reduce(diag.actor_objective) / agents)
                else:
                    critic = actor = float("nan")
                row = len(phases)
                frow = floats[row]
                frow[:5] = reward, reward_pen, mean_gap, critic, actor
                np.concatenate([mask[step], eta, nxt.throughput, nxt.delay, nxt.load, alloc],
                               axis=None, out=frow[5:])
                irow = ints[row]
                irow[0] = step
                irow[1] = nxt.fp_converged
                irow[2:] = nxt.users.reshape(-1)
                phases.append(phase)
                if len(phases) == block_rows:
                    _write_block(fh, floats, ints, phases, layout)
                    phases.clear()
                state = nxt
        finally:
            # every completed step's row reaches the file, also when the run raises
            if phases:
                _write_block(fh, floats, ints, phases, layout)

    train = slice(plan.explore, plan.anneal_steps)
    ev = slice(plan.anneal_steps, plan.total)

    def eval_mean(x):
        return _json_safe(float(np.mean(x[ev]))) if plan.eval else None

    summary = {
        "scheme": kind,
        "seed": seed,
        "scenario_hash": cfg.scenario_hash,
        "phases": {"explore": plan.explore, "train": plan.train, "eval": plan.eval},
        "total_steps": plan.total,
        "mean_eval_reward": eval_mean(raw),
        "mean_eval_reward_penalized": eval_mean(pen_reward),
        "mean_eval_eta": eval_mean(eta_mean),
        "simplex_violations": 0,  # env.step raises on an off-simplex allocation
        "fp_nonconverged_steps": nonconverged,
        "param_count": int(controller.param_count()),
        "total_param_count": int(controller.total_param_count()),
    }
    for j in range(n):
        active = users[ev, j] > 0
        if active.any():
            u = users[ev, j][active]
            per_user = served[ev, j][active] / u
            ratio = float(np.mean(per_user / sc.slices.throughput_req[j]))
            delay = float(np.mean(delay_w[ev, j][active] / u))
        else:
            ratio, delay = float("nan"), float("nan")
        summary[f"throughput_ratio_s{j + 1}"] = _json_safe(ratio)
        summary[f"mean_delay_s_s{j + 1}"] = _json_safe(delay)
    if plan.train:
        summary["penalty_mean_last_1000_train"] = float(np.mean(penalty[train][-1000:]))
        summary["steps_to_90pct_train_reward"] = int(
            steps_to_fraction_of_final(raw[train], fraction=0.9, window=100))
    else:
        summary["penalty_mean_last_1000_train"] = None
        summary["steps_to_90pct_train_reward"] = None
    for j in range(n):
        # a correlation needs two points; with fewer it is missing
        corr = mask_correlation(share[ev, j], mask[ev, j]) if plan.eval >= 2 else float("nan")
        summary[f"mask_correlation_s{j + 1}"] = _json_safe(corr)
    summary["runtime_s"] = round(time.perf_counter() - t_start, 3)
    summary["steps_csv"] = str(csv_path)

    if controller.trains:
        ckpt_dir = out / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        ckpt_path = ckpt_dir / "agent.npz"
        np.savez(ckpt_path, **controller.agent.state())
        summary["checkpoint"] = str(ckpt_path)
    else:
        summary["checkpoint"] = None

    os.replace(partial_path, csv_path)
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def run_experiment(cfg: ExperimentConfig, schemes=None, seeds=None, out_root=None) -> list[dict]:
    """Run every requested scheme under every seed; one directory per run.

    ``schemes`` and ``seeds`` override the config's lists and are checked
    as those are, before the first run starts.
    """
    kinds = parse_scheme_kinds({"kind": list(schemes)}) if schemes else cfg.scheme_kinds
    seed_list = parse_seeds(list(seeds)) if seeds else cfg.seeds
    root = Path(out_root) if out_root else Path(cfg.out_dir)
    results = []
    for kind in kinds:
        for seed in seed_list:
            out = root / kind / f"seed{seed}"
            results.append(run_single(cfg, kind, seed, out))
    return results
