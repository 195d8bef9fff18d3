"""Single-run and multi-run experiment execution with CSV/JSON artifacts.

Every environment step appends exactly one row to ``steps.csv`` with a fixed,
scheme-independent schema. Floats are serialized with ``repr`` so re-parsing
gives back the exact same doubles; identical config and seed therefore
produce byte-identical CSVs.

Each step's values are computed once: the step's mean penalty gap feeds both
the ``penalty`` column and the penalized reward, and one ``resource_efficiency``
call gives every cell's efficiency. What ``summary.json`` reads is stored in
arrays indexed by step (per-slice values summed over cells, the allocation
share averaged over cells), and the summary is built from those arrays.

Rows stream to ``steps.csv.partial``, which becomes ``steps.csv`` only when
the run completes, so a run that raises leaves neither ``steps.csv`` nor
``summary.json``, not even an earlier run's in the same directory (the
partial file stays, ending where the run died). A learning scheme also
saves its agent as ``checkpoints/agent.npz``, the arrays of
``Td3Agent.state``.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from ..mdp import penalty_gaps, reward_global, reward_penalized
from ..netsim import SIMPLEX_ATOL, SliceEnv
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
    violations = 0
    nonconverged = 0

    state = env.reset()
    csv_path = out / "steps.csv"
    partial_path = out / "steps.csv.partial"
    with open(partial_path, "w", newline="") as fh:
        fh.write(",".join(csv_header(k, n)) + "\n")
        for step in range(plan.total):
            phase = plan.phase_of(step)
            proposals, alloc = controller.act(state, phase, step)
            gap = np.abs(alloc.sum(axis=1) - 1.0).max()
            if gap > SIMPLEX_ATOL or (alloc < -SIMPLEX_ATOL).any():
                violations += 1
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
            critic = float(np.mean(diag.critic_loss)) if diag else float("nan")
            actor = float(np.mean(diag.actor_objective)) if diag else float("nan")
            head = (f"{step},{phase},{reward!r},{reward_pen!r},{mean_gap!r},{critic!r},{actor!r},"
                    f"{1 if nxt.fp_converged else 0}")
            floats = np.concatenate([mask[step], eta, nxt.throughput, nxt.delay, nxt.load],
                                    axis=None)
            fh.write(",".join([head, *map(repr, floats.tolist()),
                               *map(str, nxt.users.ravel().tolist()),
                               *map(repr, alloc.ravel().tolist())]) + "\n")
            state = nxt

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
        "simplex_violations": violations,
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
