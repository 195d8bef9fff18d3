"""Exhaustive static-allocation search for single-cell, constant-traffic scenarios.

Used as an independent optimum oracle: when the cell graph has one node and
every traffic mask is constant, the network state does not depend on time, so
the long-run reward of a fixed allocation equals its one-step reward. The
whole grid is scored as one stack of steps, in one ``SliceEnv.step``. The
best grid point then bounds what any controller can achieve (up to grid
resolution).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..mdp import RewardSpec, reward_global
from ..netsim import ConfigError, Scenario, SliceEnv


def simplex_grid(parts: int, resolution: int):
    """Yield every length-``parts`` vector of multiples of 1/resolution summing to 1."""
    if parts < 1 or resolution < 1:
        raise ValueError("parts and resolution must be positive")
    for bars in combinations(range(resolution + parts - 1), parts - 1):
        counts = []
        prev = -1
        for b in bars + (resolution + parts - 1,):
            counts.append(b - prev - 1)
            prev = b
        yield np.array(counts, dtype=float) / resolution


def evaluate_static(scenario: Scenario, rewards: RewardSpec, allocations) -> np.ndarray:
    """Steady-state global rewards of a (P, N+1) stack of fixed allocations,
    as a (P,) array: the rewards of one ``draw(P)`` and one ``SliceEnv.step``
    on a fresh seed-0 environment, each the same at every step of a static
    scenario."""
    if scenario.cell_count != 1:
        raise ConfigError("grid search needs a single-cell scenario")
    for n, mask in enumerate(scenario.masks):
        values = {v for _, v in mask.breakpoints}
        if len(values) != 1:
            raise ConfigError(f"grid search needs constant masks, slice {n} varies")
    alloc = np.asarray(allocations, dtype=float)
    env = SliceEnv(scenario, seed=0)
    env.reset()
    env.draw(len(alloc))
    # every user stays in the one cell and every mask is constant, so each
    # step of the stack scores its allocation as a fresh environment would,
    # and stacking the steps changes none of their bits
    return reward_global(env.step(alloc[:, None, :]), rewards)


def grid_search(scenario: Scenario, rewards: RewardSpec, step: float = 0.01) -> dict:
    """Evaluate every allocation on the simplex grid of spacing ``step``,
    which must be 1/n for a whole n (within 1e-9 relative); returns the best
    one.

    Ties keep the first hit in enumeration order, so results are
    deterministic for a given step size.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError("step must lie in (0, 1]")
    resolution = round(1.0 / step)
    if abs(1.0 / step - resolution) > 1e-9 * resolution:
        raise ValueError(f"step must be 1/n for a whole n, not {step}")
    grid = np.array(list(simplex_grid(scenario.slice_count + 1, resolution)))
    scores = evaluate_static(scenario, rewards, grid)
    best = int(np.argmax(scores))  # the first of equal maxima
    return {
        "allocation": [float(x) for x in grid[best]],
        "reward": float(scores[best]),
        "step": float(step),
        "points": len(grid),
    }
