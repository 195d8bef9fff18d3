"""End-to-end acceptance checks on the shipped configs.

This module runs the full experiment matrix (six schemes x five seeds on
the three-cell config, plus five seeds on the single-cell config), so
expect roughly fifteen minutes on one core. Every check ends by printing
one PASS/FAIL line; run ``pytest -s tests/test_acceptance.py`` to watch
them appear as the suite progresses.
"""

from pathlib import Path

import numpy as np
import pytest

from slicesim.harness.config import load_config
from slicesim.harness.gridsearch import grid_search
from slicesim.harness.runner import run_experiment, run_single
from slicesim.netsim import Topology, solve_coupled_loads
from slicesim.nn import Mlp, MlpSpec

pytestmark = pytest.mark.acceptance

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# frozen output of `slicesim oracle grid --config configs/toy.json`; the
# closed-form continuous optimum is 0.8 at (0, 0.625, 0.375), the best
# 0.01-grid point is (0, 0.62, 0.38)
TOY_GRID_REWARD = 0.7903225806451613


def report(num: int, ok: bool, detail: str):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    assert ok, line


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


@pytest.fixture(scope="session")
def reference_runs(tmp_path_factory):
    """All six schemes, five seeds each, grouped by scheme."""
    cfg = load_config(CONFIG_DIR / "reference.json")
    out = tmp_path_factory.mktemp("reference")
    by_scheme: dict[str, list[dict]] = {}
    for summary in run_experiment(cfg, out_root=out):
        by_scheme.setdefault(summary["scheme"], []).append(summary)
    return by_scheme


@pytest.fixture(scope="session")
def toy_cfg():
    return load_config(CONFIG_DIR / "toy.json")


@pytest.fixture(scope="session")
def toy_runs(toy_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    return run_experiment(toy_cfg, out_root=out)


def test_criterion_1_constraints_and_runtime(reference_runs):
    runs = [s for group in reference_runs.values() for s in group]
    worst_viol = max(s["simplex_violations"] for s in runs)
    worst_rt = max(s["runtime_s"] for s in runs)
    report(1, worst_viol == 0 and worst_rt < 300.0,
           f"{len(runs)} runs of 15000 steps, max simplex violations "
           f"{worst_viol} (need 0), max runtime {worst_rt:.1f}s (< 300s)")


def test_criterion_2_gradient_oracle():
    # analytic backward vs central differences on random small nets,
    # cycling through all three output heads
    rng = np.random.default_rng(20240817)
    heads = ["linear", "sigmoid", "softmax_blocks"]
    h = 1e-5
    worst = 0.0

    def rel(a, b):
        if abs(a) < 1e-7 and abs(b) < 1e-7:
            return 0.0  # relative error is meaningless at double-precision zero
        return abs(a - b) / max(abs(a), abs(b), 1e-6)

    for trial in range(100):
        head = heads[trial % 3]
        d_in = int(rng.integers(2, 7))
        hidden = [int(rng.integers(3, 33)) for _ in range(int(rng.integers(0, 3)))]
        d_out = 6 if head == "softmax_blocks" else int(rng.integers(1, 7))
        spec = MlpSpec((d_in, *hidden, d_out), head=head,
                       block_size=3 if head == "softmax_blocks" else 0)
        net = Mlp.init(rng, spec)
        x = rng.normal(size=(2, d_in))
        v = rng.normal(size=(2, d_out))

        def loss():
            return float((net.forward(x) * v).sum())

        _, cache = net.forward_cached(x)
        grads, gx = net.backward(cache, v)
        params = net.parameters()
        for _ in range(8):
            pi = int(rng.integers(len(params)))
            idx = tuple(int(rng.integers(s)) for s in params[pi].shape)
            keep = params[pi][idx]
            params[pi][idx] = keep + h
            up = loss()
            params[pi][idx] = keep - h
            dn = loss()
            params[pi][idx] = keep
            worst = max(worst, rel(grads[pi][idx], (up - dn) / (2 * h)))
        for _ in range(2):
            r, c = int(rng.integers(2)), int(rng.integers(d_in))
            keep = x[r, c]
            x[r, c] = keep + h
            up = loss()
            x[r, c] = keep - h
            dn = loss()
            x[r, c] = keep
            worst = max(worst, rel(gx[r, c], (up - dn) / (2 * h)))
    report(2, worst < 1e-4,
           f"100 random nets, max relative gradient error {worst:.2e} (< 1e-4)")


def test_criterion_3_fixed_point_oracle():
    # symmetric pair with coupling 1: l = 0.25 (1 + l) => l = 1/3
    topo = Topology(2, ((1,), (0,)), 20e6, 1.0, 2.0)
    alloc = np.array([[0.5, 0.5], [0.5, 0.5]])
    loads, converged, _ = solve_coupled_loads(topo, alloc, np.full((2, 1), 5e6))
    err = float(np.max(np.abs(loads - 1.0 / 3.0)))

    # raising one offered-traffic entry must not lower any load component
    rng = np.random.default_rng(77)
    min_margin = np.inf
    for _ in range(1000):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        coupling = float(rng.uniform(0.0, 0.5))
        if k == 2:
            topo_i = Topology(2, ((1,), (0,)), 20e6, coupling, 2.0)
        else:
            topo_i = Topology.ring(k, 20e6, coupling, 2.0)
        raw = rng.random((k, n + 1)) + 0.05
        alloc_i = raw / raw.sum(axis=1, keepdims=True)
        lam = rng.random((k, n)) * 12e6
        base, _, _ = solve_coupled_loads(topo_i, alloc_i, lam, tol=1e-9)
        bumped = lam.copy()
        bumped[rng.integers(k), rng.integers(n)] *= 1.0 + float(rng.uniform(0.1, 1.0))
        after, _, _ = solve_coupled_loads(topo_i, alloc_i, bumped, tol=1e-9)
        min_margin = min(min_margin, float(np.min(after - base)))

    ok = converged and err < 1e-6 and min_margin > -1e-7
    report(3, ok,
           f"two-cell closed-form load error {err:.2e} (< 1e-6); 1000 demand "
           f"bumps, worst load decrease {min_margin:.2e} (tolerance -1e-7)")


def test_criterion_4_toy_optimality(toy_cfg, toy_runs):
    result = grid_search(toy_cfg.scenario, toy_cfg.rewards, step=0.01)
    r_star = result["reward"]
    rewards = sorted(s["mean_eval_reward"] for s in toy_runs)
    hits = sum(r >= 0.95 * r_star for r in rewards)
    worst_rt = max(s["runtime_s"] for s in toy_runs)
    ok = abs(r_star - TOY_GRID_REWARD) < 1e-12 and hits >= 4 and worst_rt < 600.0
    report(4, ok,
           f"grid oracle r*={r_star:.6f}, eval rewards "
           f"{[round(r, 4) for r in rewards]}, {hits}/5 seeds >= 0.95 r*, "
           f"max runtime {worst_rt:.1f}s (< 600s)")


def test_criterion_5_efficiency_vs_baseline(reference_runs):
    dc_eta = median([s["mean_eval_eta"] for s in reference_runs["dist_comm"]])
    bl_eta = median([s["mean_eval_eta"] for s in reference_runs["baseline"]])
    dc_rew = median([s["mean_eval_reward"] for s in reference_runs["dist_comm"]])
    bl_rew = median([s["mean_eval_reward"] for s in reference_runs["baseline"]])
    ok = dc_eta >= 1.5 * bl_eta and dc_rew >= 0.9 * bl_rew
    report(5, ok,
           f"median eta dist_comm {dc_eta:.4f} vs baseline {bl_eta:.4f} "
           f"({dc_eta / bl_eta:.2f}x, need 1.5x); median reward {dc_rew:.4f} "
           f"vs {bl_rew:.4f} ({dc_rew / bl_rew:.2f}x, need 0.9x)")


def test_criterion_6_message_passing_ordering(reference_runs):
    dc = median([s["mean_eval_reward"] for s in reference_runs["dist_comm"]])
    d = median([s["mean_eval_reward"] for s in reference_runs["dist"]])
    report(6, dc >= d,
           f"median eval reward dist_comm {dc:.4f} >= dist {d:.4f}")


def test_criterion_7_constraint_methods(reference_runs):
    soft = median([s["steps_to_90pct_train_reward"]
                   for s in reference_runs["cen_soft"]])
    pen = median([s["steps_to_90pct_train_reward"]
                  for s in reference_runs["cen_pen"]])
    tail = median([s["penalty_mean_last_1000_train"]
                   for s in reference_runs["cen_pen"]])
    ok = soft <= pen and tail < 0.05
    report(7, ok,
           f"train steps to 90% of final reward: softmax {soft:.0f} <= "
           f"penalty {pen:.0f}; penalty-term tail mean {tail:.4f} (< 0.05)")


def test_criterion_8_mask_tracking(reference_runs):
    corr = median([s["mask_correlation_s1"]
                   for s in reference_runs["dist_comm"]])
    report(8, corr >= 0.5,
           f"median correlation between slice-1 share and its traffic mask "
           f"{corr:.3f} (>= 0.5)")


def test_criterion_9_bit_determinism(toy_cfg, toy_runs, tmp_path):
    s0 = next(s for s in toy_runs if s["seed"] == 0)
    first = Path(s0["steps_csv"]).read_bytes()
    run_single(toy_cfg, "dist", 0, tmp_path / "rerun")
    second = (tmp_path / "rerun" / "steps.csv").read_bytes()
    report(9, first == second,
           f"same config + seed reruns produce byte-identical steps.csv "
           f"({len(first)} bytes)")
