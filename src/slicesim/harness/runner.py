"""Single-run and multi-run experiment execution with CSV/JSON artifacts.

Every environment step appends exactly one row to ``steps.csv`` with a fixed,
scheme-independent schema. Floats are serialized with ``repr`` so re-parsing
gives back the exact same doubles; identical config and seed therefore
produce byte-identical CSVs.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from ..mdp import penalty_gaps, reward_global, reward_penalized
from ..netsim import SIMPLEX_ATOL, SliceEnv
from ..schemes import build_scheme
from .config import ExperimentConfig
from .metrics import mask_correlation, resource_efficiency, steps_to_fraction_of_final


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


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
    sc = cfg.scenario
    k, n = sc.cell_count, sc.slice_count

    env_ss, ctl_ss = np.random.SeedSequence(seed).spawn(2)
    env = SliceEnv(sc, env_ss)
    controller = build_scheme(kind, sc, cfg.rewards, cfg.scaling, cfg.hyper,
                              np.random.default_rng(ctl_ss), cfg.phases.anneal_steps,
                              static_allocation=cfg.static_allocation)

    header = csv_header(k, n)
    phases, rewards_raw, rewards_pen, penalties = [], [], [], []
    etas, served, users_tot, delay_w = [], [], [], []
    act_share = []
    mask_trace = []
    violations = 0
    nonconverged = 0

    state = env.reset()
    csv_path = out / "steps.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for step in range(cfg.phases.total):
            phase = cfg.phases.phase_of(step)
            proposals, alloc = controller.act(state, phase, step)
            gap = np.abs(alloc.sum(axis=1) - 1.0).max()
            if gap > SIMPLEX_ATOL or (alloc < -SIMPLEX_ATOL).any():
                violations += 1
            nxt = env.step(alloc)
            if not nxt.fp_converged:
                nonconverged += 1

            raw = reward_global(nxt, cfg.rewards)
            pen_term = float(np.mean(penalty_gaps(proposals)))
            pen_reward = reward_penalized(raw, proposals, cfg.rewards.beta)
            if phase != "eval":
                controller.record(state, proposals, alloc, nxt)
            diag = controller.train(step) if phase == "train" and controller.trains else None

            masks = [sc.masks[j].value(nxt.t) for j in range(n)]
            eta = [resource_efficiency(nxt, alloc, sc.topology, i) for i in range(k)]
            # mean over agents; with one agent this is its own value, exactly
            row = [step, phase, raw, pen_reward, pen_term,
                   np.mean(diag.critic_loss) if diag else float("nan"),
                   np.mean(diag.actor_objective) if diag else float("nan"),
                   nxt.fp_converged]
            row += masks
            row += eta
            row += [nxt.throughput[i, j] for i in range(k) for j in range(n)]
            row += [nxt.delay[i, j] for i in range(k) for j in range(n)]
            row += [nxt.load[i, j] for i in range(k) for j in range(n)]
            row += [int(nxt.users[i, j]) for i in range(k) for j in range(n)]
            row += [alloc[i, j] for i in range(k) for j in range(n + 1)]
            fh.write(",".join(_fmt(x) for x in row) + "\n")

            phases.append(phase)
            rewards_raw.append(raw)
            rewards_pen.append(pen_reward)
            penalties.append(pen_term)
            etas.append(float(np.mean(eta)))
            served.append((nxt.throughput * nxt.users).sum(axis=0))
            users_tot.append(nxt.users.sum(axis=0))
            delay_w.append((nxt.delay * nxt.users).sum(axis=0))
            act_share.append(alloc[:, 1:].mean(axis=0))
            mask_trace.append(masks)
            state = nxt

    summary = _summarize(cfg, kind, seed, phases, rewards_raw, rewards_pen, penalties,
                         etas, served, users_tot, delay_w, act_share, mask_trace,
                         violations, nonconverged, controller)
    summary["runtime_s"] = round(time.perf_counter() - t_start, 3)
    summary["steps_csv"] = str(csv_path)

    if controller.trains:
        ckpt_dir = out / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        ckpt_path = ckpt_dir / "agent.json"
        with open(ckpt_path, "w") as fh:
            json.dump(controller.checkpoint(), fh)
        summary["checkpoint"] = str(ckpt_path)
    else:
        summary["checkpoint"] = None

    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


def _summarize(cfg, kind, seed, phases, rewards_raw, rewards_pen, penalties, etas,
               served, users_tot, delay_w, act_share, mask_trace,
               violations, nonconverged, controller) -> dict:
    sc = cfg.scenario
    n = sc.slice_count
    phase_arr = np.array(phases)
    raw = np.array(rewards_raw)
    pen_reward = np.array(rewards_pen)
    pen = np.array(penalties)
    eta = np.array(etas)
    served_a = np.array(served)  # (T, N) summed over cells
    users_a = np.array(users_tot)  # (T, N)
    delay_a = np.array(delay_w)  # (T, N) user-weighted sums
    share_a = np.array(act_share)  # (T, N) mean over cells
    mask_a = np.array(mask_trace)  # (T, N)

    is_eval = phase_arr == "eval"
    is_train = phase_arr == "train"

    def eval_mean(x):
        return float(np.mean(x[is_eval])) if is_eval.any() else float("nan")

    summary = {
        "scheme": kind,
        "seed": seed,
        "scenario_hash": cfg.scenario_hash,
        "phases": {"explore": cfg.phases.explore, "train": cfg.phases.train,
                   "eval": cfg.phases.eval},
        "total_steps": int(cfg.phases.total),
        "mean_eval_reward": _json_safe(eval_mean(raw)),
        "mean_eval_reward_penalized": _json_safe(eval_mean(pen_reward)),
        "mean_eval_eta": _json_safe(eval_mean(eta)),
        "simplex_violations": int(violations),
        "fp_nonconverged_steps": int(nonconverged),
        "param_count": int(controller.param_count()),
        "total_param_count": int(controller.total_param_count()),
    }

    for j in range(n):
        active = is_eval & (users_a[:, j] > 0)
        if active.any():
            per_user = served_a[active, j] / users_a[active, j]
            ratio = float(np.mean(per_user / sc.slices.throughput_req[j]))
            delay = float(np.mean(delay_a[active, j] / users_a[active, j]))
        else:
            ratio, delay = float("nan"), float("nan")
        summary[f"throughput_ratio_s{j + 1}"] = _json_safe(ratio)
        summary[f"mean_delay_s_s{j + 1}"] = _json_safe(delay)

    if is_train.any():
        tail = pen[is_train][-1000:]
        summary["penalty_mean_last_1000_train"] = float(np.mean(tail))
        summary["steps_to_90pct_train_reward"] = int(
            steps_to_fraction_of_final(raw[is_train], fraction=0.9, window=100))
    else:
        summary["penalty_mean_last_1000_train"] = None
        summary["steps_to_90pct_train_reward"] = None

    for j in range(n):
        if is_eval.any():
            corr = mask_correlation(share_a[is_eval, j], mask_a[is_eval, j])
        else:
            corr = float("nan")
        summary[f"mask_correlation_s{j + 1}"] = _json_safe(corr)

    return summary


def run_experiment(cfg: ExperimentConfig, schemes=None, seeds=None, out_root=None) -> list[dict]:
    """Run every requested scheme under every seed; one directory per run."""
    kinds = tuple(schemes) if schemes else cfg.scheme_kinds
    seed_list = tuple(seeds) if seeds else cfg.seeds
    root = Path(out_root) if out_root else Path(cfg.out_dir)
    results = []
    for kind in kinds:
        for seed in seed_list:
            out = root / kind / f"seed{seed}"
            results.append(run_single(cfg, kind, seed, out))
    return results
