"""Single-run and multi-run experiment execution with CSV/JSON artifacts.

Every environment step appends exactly one row to ``steps.csv`` with a fixed,
scheme-independent schema. Floats are serialized with ``repr`` so re-parsing
gives back the exact same doubles; identical config and seed therefore
produce byte-identical CSVs.

One loop, ``_run``, drives every controller. Each pass draws the traffic of
its steps (``SliceEnv.draw``), acts, steps the environment on the stack of
allocations, records and trains a learner, and hands the stack of states to
the record. An open-loop controller (the heuristics, ``Controller.open_loop``)
reads only user counts, and the environment's traffic never depends on the
allocations, so a pass covers a whole block of ``4096 // columns`` steps: the
controller acts once on the stacked user counts of the states it acts on. Any
other controller acts on the state itself, and its passes are single steps.

The record holds the passes' stacks until a block is full. One routine,
``_Record.settle``, then turns the block's stacked states into its rows and
its entries of the summary arrays: rewards, penalties and efficiencies are
computed as (T,) and (T, K) arrays, with the bits each step's values have
when computed alone. ``_write_block`` formats the block's tables with each
distinct value formatted once and writes them with one call. The last,
partial block is written when the run ends, and also when a pass raises, so
every completed step's row is written before the error propagates. A stack
that raises writes nothing of itself: an allocation off the per-cell simplex
refuses its whole stack, and the error names the step.

The step's mean penalty gap feeds both the ``penalty`` column and the
penalized reward, and one ``resource_efficiency`` call gives every cell's
efficiency. What ``summary.json`` reads is stored in arrays indexed by step
(per-slice values summed over cells, the allocation share averaged over
cells), and the summary is built from those arrays.

Rows go to ``steps.csv.partial``, which becomes ``steps.csv`` only when
the run completes, so a run that raises leaves neither ``steps.csv`` nor
``summary.json``, not even an earlier run's in the same directory (the
partial file stays, ending with the last settled step). An allocation off
the per-cell simplex is such a failure: ``SliceEnv.step`` raises
``ConstraintViolationError`` for it. A learning scheme also saves its agent
as ``checkpoints/agent.npz``, the arrays of ``Td3Agent.state``. The summary
names ``steps.csv`` and the checkpoint by absolute paths, so they can be
read from any directory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from ..mdp import penalty_gaps, reward_global, reward_penalized
from ..netsim import NetState, SliceEnv
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


def _block_layout(header: list[str]):
    """The CSV columns of the float-table columns and of the int-table
    columns: ``step``, ``fp_converged`` and the user counts are ints, every
    other column but ``phase`` is a float, each table in header order."""
    ints = np.array([c in ("step", "fp_converged") or c.startswith("users_") for c in header])
    floats = ~ints & (np.array(header) != "phase")
    return np.flatnonzero(floats), np.flatnonzero(ints)


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


class _Record:
    """What a run keeps of its steps: the summary's arrays, one entry per
    step (per-slice values summed over cells, except the allocation share,
    a mean over cells), and one block of CSV rows, a float table (the five
    head scalars, mask, eta, phi, delay, load, actions), an int table
    (step, fp_converged, users) and the phase strings."""

    def __init__(self, cfg: ExperimentConfig, fh):
        sc, plan = cfg.scenario, cfg.phases
        self.k, n = sc.cell_count, sc.slice_count
        self.rewards, self.topology, self.fh = cfg.rewards, sc.topology, fh
        self.raw, self.pen_reward, self.penalty, self.eta_mean = (
            np.empty(plan.total) for _ in range(4))
        self.served, self.users, self.delay_w, self.share, self.mask = (
            np.empty((plan.total, n)) for _ in range(5))
        self.nonconverged = 0
        self.phases = [plan.phase_of(step) for step in range(plan.total)]
        header = csv_header(self.k, n)
        self.block_rows = max(1, _BLOCK_CELLS // len(header))
        self.layout = float_cols, int_cols = _block_layout(header)
        self.floats = np.empty((self.block_rows, len(float_cols)))
        self.ints = np.empty((self.block_rows, len(int_cols)), dtype=np.int64)
        self.held: list[tuple] = []  # the hold calls of the block being filled
        fh.write(",".join(header) + "\n")

    def hold(self, first: int, nets: NetState, proposals: np.ndarray, alloc: np.ndarray,
             critic, actor) -> None:
        """Hold the stack of states of the steps from ``first``, with their
        proposals and allocations and the stack's critic loss and actor
        objective, and settle the block once it is full."""
        self.held.append((first, nets, proposals, alloc, critic, actor))
        if first + len(alloc) - self.held[0][0] >= self.block_rows:
            self.flush()

    def flush(self) -> None:
        """Settle the held stacks as one. Each hold brings one critic loss and
        actor objective, so a block is one stack or single steps."""
        if self.held:
            firsts, nets, proposals, alloc, critic, actor = zip(*self.held)
            self.held.clear()
            nets = NetState(*map(np.concatenate, zip(*(vars(s).values() for s in nets))))
            self.settle(firsts[0], nets, np.concatenate(proposals), np.concatenate(alloc),
                        critic, actor)

    def settle(self, first: int, nets: NetState, proposals: np.ndarray, alloc: np.ndarray,
               critic, actor) -> None:
        """Write the rows of the block of steps from ``first``, a stack of
        T states with its (T, K, N+1) proposals and allocations and the
        mean critic loss and actor objective, (T,) or one for all steps (NaN
        where none trained), and fill the block's entries of the summary
        arrays."""
        count, k = len(alloc), self.k
        steps = slice(first, first + count)
        # a mean over cells is np.add.reduce over them divided by k, as
        # np.mean computes it, without np.mean's Python layer
        self.raw[steps] = raw = reward_global(nets, self.rewards)
        self.penalty[steps] = gaps = np.add.reduce(penalty_gaps(proposals), -1) / k
        self.pen_reward[steps] = pen = reward_penalized(raw, gaps, self.rewards.beta)
        eta = resource_efficiency(nets, alloc, self.topology)
        self.eta_mean[steps] = np.add.reduce(eta, -1) / k
        self.served[steps] = np.add.reduce(nets.throughput * nets.users, -2)
        self.users[steps] = np.add.reduce(nets.users, -2)
        self.delay_w[steps] = np.add.reduce(nets.delay * nets.users, -2)
        self.share[steps] = np.add.reduce(alloc[..., 1:], -2) / k
        self.mask[steps] = nets.mask
        self.nonconverged += count - int(np.count_nonzero(nets.fp_converged))

        floats, ints = self.floats[:count], self.ints[:count]
        floats[:, 0], floats[:, 1], floats[:, 2] = raw, pen, gaps
        floats[:, 3], floats[:, 4] = critic, actor
        np.concatenate([nets.mask, eta] + [x.reshape(count, -1) for x in (
            nets.throughput, nets.delay, nets.load, alloc)], axis=1, out=floats[:, 5:])
        ints[:, 0] = np.arange(first, first + count)
        ints[:, 1] = nets.fp_converged
        ints[:, 2:] = nets.users.reshape(count, -1)
        _write_block(self.fh, self.floats, self.ints, self.phases[steps], self.layout)


def _run(env: SliceEnv, controller, plan, state: NetState, record: _Record) -> None:
    """Run the plan from ``state``: a block of steps a pass for an open-loop
    controller and one step a pass for any other. The held steps are
    settled when the loop ends, also when it raises."""
    count = record.block_rows if controller.open_loop else 1
    try:
        for first in range(0, plan.total, count):
            phase = plan.phase_of(first)
            drawn = env.draw(min(count, plan.total - first))
            # each step acts on the state before it; an open-loop controller
            # on the user counts of the last pass's final state, then of the
            # pass's own states but its last
            acted = (np.concatenate([state.users[-1:], drawn[:-1]]) if controller.open_loop
                     else state)
            proposals, alloc = controller.act(acted, phase, first)
            nxt = env.step(alloc)
            critic = actor = np.nan
            if controller.trains:
                if phase != "eval":
                    controller.record(state, proposals, nxt)
                # mean over agents; with one agent this is its own value, exactly
                diag = controller.train(first) if phase == "train" else None
                if diag:
                    agents = diag.critic_loss.size
                    critic = float(np.add.reduce(diag.critic_loss) / agents)
                    actor = float(np.add.reduce(diag.actor_objective) / agents)
            record.hold(first, nxt, proposals, alloc, critic, actor)
            state = nxt
    finally:
        record.flush()


def run_single(cfg: ExperimentConfig, kind: str, seed: int, out_dir) -> dict:
    """Run one scheme under one seed; returns the summary dict."""
    t_start = time.perf_counter()
    out = Path(out_dir).resolve()
    out.mkdir(parents=True, exist_ok=True)
    # a failed rerun must not leave an earlier run's results looking current
    for stale in ("steps.csv", "summary.json"):
        (out / stale).unlink(missing_ok=True)
    sc = cfg.scenario
    n = sc.slice_count
    plan = cfg.phases

    env_ss, ctl_ss = np.random.SeedSequence(seed).spawn(2)
    env = SliceEnv(sc, env_ss)
    controller = build_scheme(kind, sc, cfg.rewards, cfg.scaling, cfg.hyper,
                              np.random.default_rng(ctl_ss), plan.anneal_steps,
                              static_allocation=cfg.static_allocation)

    state = env.reset()
    csv_path = out / "steps.csv"
    partial_path = out / "steps.csv.partial"
    with open(partial_path, "w", newline="") as fh:
        record = _Record(cfg, fh)
        _run(env, controller, plan, state, record)
    raw, pen_reward, penalty, eta_mean = (
        record.raw, record.pen_reward, record.penalty, record.eta_mean)
    served, users, delay_w, share, mask = (
        record.served, record.users, record.delay_w, record.share, record.mask)

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
        "fp_nonconverged_steps": record.nonconverged,
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
