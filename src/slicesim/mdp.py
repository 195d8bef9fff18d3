"""RL-facing view of the network: state vectors, rewards, action projection.

Everything here is a pure function of value inputs, so agents and harness
code can call into it from anywhere without locking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .netsim import SIMPLEX_ATOL, ConstraintViolationError, NetState, Topology, neighbor_table

REWARD_VARIANTS = ("plain", "delay_aware")


@dataclass(frozen=True)
class StateScaling:
    """Normalizers bringing every state feature into [0, 1].

    Per-user throughput is divided by the slice requirement (and capped at 1,
    since over-serving carries no extra reward), user counts by the slice's
    population cap; loads are already fractions.
    """

    throughput_req: tuple[float, ...]
    group_size_max: tuple[int, ...]


@dataclass(frozen=True)
class RewardSpec:
    """Reward variant and constants.

    ``plain`` scores throughput ratios only; ``delay_aware`` adds the
    delay-requirement ratio. ``beta`` weighs the budget penalty that
    :func:`reward_penalized` subtracts for the penalty scheme.
    """

    variant: str
    throughput_req: tuple[float, ...]
    delay_req: tuple[float, ...]
    beta: float = 1.2

    def __post_init__(self):
        if self.variant not in REWARD_VARIANTS:
            raise ValueError(f"unknown reward variant {self.variant!r}")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if min(self.throughput_req) <= 0 or min(self.delay_req) <= 0:
            raise ValueError("requirements must be positive")

    @property
    def uses_delay(self) -> bool:
        return self.variant != "plain"


# ---------------------------------------------------------------------------
# states and messages
# ---------------------------------------------------------------------------


def local_state(net: NetState, scaling: StateScaling) -> np.ndarray:
    """(K, 3N) observations, one row per cell: [throughput ratios, loads,
    user fractions]; (T, K, 3N) for a stack of T states."""
    phi = np.minimum(net.throughput / np.asarray(scaling.throughput_req), 1.0)
    users = net.users / np.asarray(scaling.group_size_max, dtype=float)
    return np.concatenate([phi, net.load, users], axis=-1)


def global_state(net: NetState, scaling: StateScaling) -> np.ndarray:
    """(3KN,) local observations concatenated in cell order; (T, 3KN) for a
    stack of T states."""
    local = local_state(net, scaling)
    return local.reshape(local.shape[:-2] + (-1,))


def extract_message(net: NetState, topology: Topology) -> np.ndarray:
    """(K, N) coordination messages: each cell's per-slice mean of its
    neighbours' loads; (T, K, N) for a stack of T states.

    The sum masks out the neighbour table's padding, so each cell adds its
    own neighbours' rows in the order a sum over those rows alone would.
    Cells without neighbours get a zero message.
    """
    table, degree = neighbor_table(topology)
    real = np.arange(table.shape[1]) < degree[:, None]
    total = np.add.reduce(net.load[..., table, :], axis=-2, where=real[:, :, None])
    return total / np.maximum(degree, 1)[:, None]


# ---------------------------------------------------------------------------
# rewards
# ---------------------------------------------------------------------------


def reward_local(net: NetState, spec: RewardSpec) -> np.ndarray:
    """Bottleneck service score of every cell, a (K,) array in [0, 1], or
    (T, K) for a stack of T states.

    Per active slice the score is min(throughput ratio, delay ratio, 1);
    a cell's score is its worst slice. Idle slices (no users) are skipped;
    a fully idle cell scores 1 so it never drags a global min down.
    """
    terms = net.throughput / np.asarray(spec.throughput_req)
    if spec.uses_delay:
        terms = np.minimum(terms, np.asarray(spec.delay_req) / net.delay)
    terms[net.users == 0] = np.inf
    return np.minimum(terms.min(axis=-1), 1.0)


def reward_global(net: NetState, spec: RewardSpec):
    """Network-wide score: the worst cell's score; a (T,) array for a stack
    of T states."""
    return reward_local(net, spec).min(axis=-1)


def penalty_gaps(proposal: np.ndarray) -> np.ndarray:
    """Per-cell budget gap |1 - sum| of a raw action proposal, which
    punishes over- and under-spending alike; (K,), or (T, K) for a stack."""
    a = np.asarray(proposal, dtype=float)
    return np.abs(a.sum(axis=-1) - 1.0)


def reward_penalized(raw_reward, mean_gap, beta: float):
    """Raw reward minus beta times ``mean_gap``, the mean of the budget gaps
    that :func:`penalty_gaps` gives for a proposal; (T,) arrays of both give
    the (T,) rewards of a stack of steps."""
    return raw_reward - beta * mean_gap


# ---------------------------------------------------------------------------
# action projection
# ---------------------------------------------------------------------------


def project_or_reject(proposal: np.ndarray) -> np.ndarray:
    """Turn a raw proposal into an executable on-simplex action.

    Proposals already satisfying the simplex constraint (no negative entry,
    a sum within ``SIMPLEX_ATOL`` of 1) pass through unchanged. Otherwise
    negatives are clipped to zero and the row is renormalized; an all-zero
    row falls back to the uniform split. Non-finite proposals are rejected
    outright.
    """
    a = np.asarray(proposal, dtype=float)
    if not np.isfinite(a).all():
        raise ConstraintViolationError("action proposal contains non-finite entries")
    ok = (a >= 0.0).all(axis=-1) & (np.abs(a.sum(axis=-1) - 1.0) <= SIMPLEX_ATOL)
    if np.all(ok):
        return a.copy()
    clipped = np.clip(a, 0.0, None)
    sums = clipped.sum(axis=-1, keepdims=True)
    safe = np.where(sums > 0.0, sums, 1.0)
    scaled = np.where(sums > 0.0, clipped / safe, 1.0 / a.shape[-1])
    return np.where(np.asarray(ok)[..., None], a, scaled)
