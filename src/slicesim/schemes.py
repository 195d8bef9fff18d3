"""Controller layer: the compared agent configurations over one network.

Six kinds:

* ``cen_pen``   - one TD3 agent over the global state/action, sigmoid actor,
                  budget violations punished through the reward.
* ``cen_soft``  - one TD3 agent, per-cell block-softmax actor, constraint
                  satisfied by construction.
* ``dist``      - one independent TD3 agent per cell on its local state.
* ``dist_comm`` - like dist, plus a neighbour-load message in each state.
* ``baseline``  - no learning; split proportional to active users, no headroom.
* ``static_default`` - no learning; a fixed allocation everywhere.

A controller's step contract: ``act`` maps the current network state to
(raw proposals, executable allocation); ``record`` stores the transition with
scheme-appropriate rewards; ``train``, which only the learning controllers
(``trains``) have, advances the learners and returns the agent's
``TrainDiagnostics``.

The four learning kinds share one body, ``_LearningController``, whose
``act`` passes the run phase to the agent as its action mode. ``build_scheme``
chooses what differs: the agent's shape and member count, its observation
function (global, local, or local plus message) and its reward function
(global, local, or penalized).
"""

from __future__ import annotations

import numpy as np

from .mdp import (
    RewardSpec,
    StateScaling,
    extract_message,
    global_state,
    local_state,
    penalty_gaps,
    reward_global,
    reward_local,
    reward_penalized,
)
from .netsim import SIMPLEX_ATOL, ConfigError, NetState, Scenario
from .td3 import AgentHyperParams, Experience, Td3Agent, Td3Config

SCHEME_KINDS = ("cen_pen", "cen_soft", "dist", "dist_comm", "baseline", "static_default")


class Controller:
    """Common bookkeeping for every scheme."""

    trains = False

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def act(self, net: NetState, phase: str, step: int) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def record(self, prev: NetState, proposals: np.ndarray, net: NetState) -> None:
        pass

    def param_count(self) -> int:
        """Parameters of one deployed model (the per-site footprint)."""
        return 0

    def total_param_count(self) -> int:
        return 0


def static_allocation_row(allocation_row, slice_count: int,
                          path: str = "static allocation") -> np.ndarray:
    """The row as a float array, checked to hold one entry per slice plus
    headroom and to lie on the simplex: no negative entry, and a sum within
    ``SIMPLEX_ATOL`` of 1. ``path`` names the row in the ``ConfigError``."""
    row = np.asarray(allocation_row, dtype=float)
    if row.shape != (slice_count + 1,):
        raise ConfigError(f"{path}: expected one entry per slice plus headroom")
    if (row < 0).any() or abs(row.sum() - 1.0) > SIMPLEX_ATOL:
        raise ConfigError(f"{path}: must lie on the simplex")
    return row


class StaticController(Controller):
    """Fixed allocation, identical in every cell, never learns."""

    def __init__(self, scenario, allocation_row):
        super().__init__(scenario)
        row = static_allocation_row(allocation_row, scenario.slice_count)
        self._alloc = np.tile(row, (scenario.cell_count, 1))

    def act(self, net, phase, step):
        return self._alloc.copy(), self._alloc.copy()


class BaselineController(Controller):
    """Traffic-aware heuristic: share resources proportional to active users.

    Headroom is always zero; a cell with no active users at all splits
    equally across slices.
    """

    def act(self, net, phase, step):
        alloc = baseline_allocation(net.users)
        return alloc.copy(), alloc


def baseline_allocation(users: np.ndarray) -> np.ndarray:
    u = np.asarray(users, dtype=float)
    k, n = u.shape
    alloc = np.zeros((k, n + 1))
    totals = u.sum(axis=1)
    idle = totals == 0
    safe = np.where(idle, 1.0, totals)
    alloc[:, 1:] = u / safe[:, None]
    alloc[idle, 1:] = 1.0 / n
    return alloc


def annealed_epsilon(step: int, start: float, end: float, horizon: int) -> float:
    """Linear anneal from start to end over ``horizon`` steps, then end."""
    frac = min(1.0, max(0.0, step / max(1, horizon)))
    return start + (end - start) * frac


class _LearningController(Controller):
    """The TD3 schemes' one body: a (possibly stacked) agent, an observation
    function giving its ``(A, state_dim)`` states, a reward function of
    ``(net, proposals)`` giving its ``(A,)`` rewards, the horizon of its
    epsilon anneal, and a one-entry memo of the last observed state matrix,
    so each network state is observed once although act and record both
    need it.
    """

    trains = True

    def __init__(self, scenario, agent: Td3Agent, observe, reward, anneal_steps: int):
        super().__init__(scenario)
        self.agent = agent
        self._observation = observe
        self._reward = reward
        self.anneal_steps = anneal_steps
        self._memo: tuple[NetState, np.ndarray] | None = None

    def _observe(self, net: NetState) -> np.ndarray:
        """(A, state_dim) agent observations of ``net``."""
        if self._memo is None or self._memo[0] is not net:
            self._memo = (net, self._observation(net))
        return self._memo[1]

    def act(self, net, phase, step):
        epsilon = None
        if phase == "train":
            h = self.agent.hyper
            epsilon = annealed_epsilon(step, h.epsilon_start, h.epsilon_end, self.anneal_steps)
        prop, act = self.agent.select_action(self._observe(net), phase, epsilon)
        shape = (self.scenario.cell_count, self.scenario.slice_count + 1)
        return prop.reshape(shape), act.reshape(shape)

    def record(self, prev, proposals, net):
        self.agent.buffer.add(Experience(
            state=self._observe(prev), proposal=proposals.reshape(self.agent.members, -1),
            reward=self._reward(net, proposals), next_state=self._observe(net)))

    def train(self, step):
        return self.agent.train_step(step)

    def param_count(self):
        return self.agent.param_count()

    def total_param_count(self):
        return self.agent.members * self.agent.param_count()


# The benchmark's per-class spans look for act, record and train in each
# class's own __dict__, so the two public classes bind the shared body there.

class CentralController(_LearningController):
    """One agent that sees every cell and emits the full allocation
    (``cen_soft``, ``cen_pen``)."""

    act, record, train = (_LearningController.act, _LearningController.record,
                          _LearningController.train)


class DistributedController(_LearningController):
    """One independent agent per cell on local observations, all trained as
    one stacked learner (``dist``, ``dist_comm``)."""

    act, record, train = (_LearningController.act, _LearningController.record,
                          _LearningController.train)


def build_scheme(kind: str, scenario: Scenario, rewards: RewardSpec,
                 scaling: StateScaling, hyper: AgentHyperParams,
                 rng: np.random.Generator, anneal_steps: int,
                 static_allocation=None) -> Controller:
    if kind == "static_default":
        if static_allocation is None:
            n = scenario.slice_count
            static_allocation = [0.0, 0.8] + [0.2 / (n - 1)] * (n - 1) if n > 1 else [0.2, 0.8]
        return StaticController(scenario, static_allocation)
    if kind == "baseline":
        return BaselineController(scenario)
    k, n = scenario.cell_count, scenario.slice_count
    if kind in ("cen_pen", "cen_soft"):
        mode = "penalty" if kind == "cen_pen" else "softmax_embedded"
        cfg = Td3Config(state_dim=3 * n * k, action_dim=k * (n + 1), block_size=n + 1,
                        actor_hidden=hyper.central_actor_hidden,
                        critic_hidden=hyper.central_critic_hidden, constraint_mode=mode)

        def observe(net):
            return global_state(net, scaling)[None]

        if kind == "cen_pen":
            def reward(net, proposals):
                raw = reward_global(net, rewards)
                # the mean gap over cells, as np.mean computes it
                gaps = penalty_gaps(proposals)
                return np.array([reward_penalized(raw, np.add.reduce(gaps) / gaps.size,
                                                  rewards.beta)])
        else:
            def reward(net, proposals):
                return np.array([reward_global(net, rewards)])

        return CentralController(scenario, Td3Agent(cfg, hyper, [rng]), observe, reward,
                                 anneal_steps)
    if kind in ("dist", "dist_comm"):
        cfg = Td3Config(state_dim=3 * n + (n if kind == "dist_comm" else 0), action_dim=n + 1,
                        block_size=n + 1, actor_hidden=hyper.dist_actor_hidden,
                        critic_hidden=hyper.dist_critic_hidden)
        if kind == "dist_comm":
            # each agent also sees the per-slice mean load of its neighbours,
            # from the same network state it acts on
            def observe(net):
                return np.concatenate(
                    [local_state(net, scaling), extract_message(net, scenario.topology)], axis=1)
        else:
            def observe(net):
                return local_state(net, scaling)

        def reward(net, proposals):
            return reward_local(net, rewards)

        return DistributedController(scenario, Td3Agent(cfg, hyper, rng.spawn(k)), observe,
                                     reward, anneal_steps)
    raise ConfigError(f"unknown scheme kind {kind!r}")
