"""TD3 learner: replay, twin critics with targets, delayed actor updates.

Two constraint modes for the actor:

* ``softmax_embedded`` - the actor ends in a per-cell block softmax, so every
  output already sits on the simplex; proposal and executed action coincide.
* ``penalty`` - the actor ends in a sigmoid; raw proposals may violate the
  budget (that is the point: the reward carries the penalty), the executed
  action is the projected proposal.

Critics always score the raw proposal, which in softmax mode equals the
executed action.

``Td3Agent(config, hyper, rngs)`` takes two records: ``Td3Config`` holds
what a scheme derives from the scenario (state and action sizes, block
size, constraint mode, hidden layers), and ``AgentHyperParams`` holds the
learning settings, declared once here with their defaults and shared by
every learning scheme and the config parser.

One ``Td3Agent`` trains A independent, same-shaped agents at once (one per
cell for the distributed schemes, A = 1 for a central agent). Every array
carries the agents on a leading member axis:

* the actor and its target are ``Mlp`` stacks with A members;
* both twin critics share one stack with 2A members: member ``a`` is agent
  a's first critic and member ``A + a`` its second; the targets mirror it;
* each stack's parameters are one flat ``(E, P)`` array, so Adam and the
  Polyak update each touch one array per family;
* the checkpoint (``state``/``load_state``) is those four flat stacks plus
  both optimizers' moments and step counts: ten named arrays, saved with
  ``np.savez`` and restored in place;
* the replay buffer stores one ``(capacity, A, d)`` array and samples
  ``(A, batch, d)`` batches.

Agents never mix: member a's outputs and gradients depend only on agent a's
parameters and data. Each agent keeps its own ``Generator`` and draws from
it in the same order a lone agent would: at init its actor, first critic
and second critic; in ``select_action`` the epsilon draw, then the simplex
or exploration-noise draw (or the random proposal when exploring); in
``train_step`` the replay indices, then the target-smoothing noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import project_or_reject
from .nn import Adam, Mlp, MlpSpec

CONSTRAINT_MODES = ("softmax_embedded", "penalty")
ACTION_MODES = ("explore", "train", "eval")
_NETWORKS = ("actor", "critics", "actor_target", "critics_target")


@dataclass
class Experience:
    """One step of every agent: arrays carry the member axis first."""

    state: np.ndarray  # (A, state_dim)
    proposal: np.ndarray  # (A, action_dim) raw actor output, pre-projection
    reward: np.ndarray  # (A,)
    next_state: np.ndarray  # (A, state_dim)


@dataclass
class Batch:
    states: np.ndarray  # (A, batch, state_dim)
    proposals: np.ndarray
    rewards: np.ndarray  # (A, batch)
    next_states: np.ndarray

    @property
    def size(self) -> int:
        return self.states.shape[-2]


class ReplayBuffer:
    """Fixed-capacity ring buffer over flat experience arrays; each slot holds
    one row per agent, so the agents share the cursor.

    All four fields live in one ``(capacity, A, 2 * state_dim + action_dim
    + 1)`` array, each row laid out state | proposal | next_state | reward,
    so a sample is one gather and its fields are views of it. Slots come
    first: a partly filled buffer then touches one contiguous region, not A
    of them, which keeps the memory of its large, lazily mapped array low.
    """

    def __init__(self, capacity: int, state_dim: int, action_dim: int, members: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.size = 0
        self._cursor = 0
        s, a = state_dim, action_dim
        # column ranges of state, proposal and next_state; the reward is last
        self._fields = (slice(0, s), slice(s, s + a), slice(s + a, 2 * s + a))
        self._rows = np.zeros((capacity, members, 2 * s + a + 1))

    def add(self, exp: Experience) -> None:
        i = self._cursor
        row, (st, pr, ns) = self._rows[i], self._fields
        row[:, st] = exp.state
        row[:, pr] = exp.proposal
        row[:, ns] = exp.next_state
        row[:, -1] = exp.reward
        self._cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def peek(self, i: int) -> Experience:
        """Experience at slot i in insertion order (oldest surviving = 0)."""
        if not 0 <= i < self.size:
            raise IndexError("buffer index out of range")
        base = self._cursor if self.size == self.capacity else 0
        row, (st, pr, ns) = self._rows[(base + i) % self.capacity], self._fields
        return Experience(row[:, st].copy(), row[:, pr].copy(), row[:, -1].copy(),
                          row[:, ns].copy())

    def sample(self, rngs: list[np.random.Generator], batch_size: int) -> Batch:
        """Agent a's rows at indices drawn from ``rngs[a]``."""
        members = len(rngs)
        idx = np.empty((members, batch_size), dtype=np.int64)
        for a, rng in enumerate(rngs):
            idx[a] = rng.integers(0, self.size, size=batch_size)
        rows, (st, pr, ns) = self._rows[idx, np.arange(members)[:, None]], self._fields
        return Batch(states=rows[..., st], proposals=rows[..., pr], rewards=rows[..., -1],
                     next_states=rows[..., ns])


def soft_update(online: list[np.ndarray], target: list[np.ndarray], tau: float) -> None:
    """Polyak average: target <- tau * online + (1 - tau) * target, in place."""
    for src, dst in zip(online, target):
        dst *= 1.0 - tau
        dst += tau * src


def uniform_simplex(rng: np.random.Generator, blocks: int, block_size: int) -> np.ndarray:
    """Flat vector of ``blocks`` independent uniform draws on the simplex."""
    e = rng.standard_exponential((blocks, block_size))
    return (e / e.sum(axis=1, keepdims=True)).reshape(-1)


@dataclass(frozen=True)
class AgentHyperParams:
    """TD3 and exploration knobs shared by every learning scheme, each
    declared here only, with its default."""

    gamma: float = 0.1
    batch_size: int = 32
    tau: float = 0.005
    policy_delay: int = 2
    target_noise: float = 0.2
    noise_clip: float = 0.5
    explore_noise: float = 0.1
    actor_lr: float = 5e-4
    critic_lr: float = 1e-3
    buffer_capacity: int = 100_000
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    central_actor_hidden: tuple[int, ...] = (96, 64, 48)
    central_critic_hidden: tuple[int, ...] = (120, 64, 32)
    dist_actor_hidden: tuple[int, ...] = (48, 24)
    dist_critic_hidden: tuple[int, ...] = (64, 24)

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")


@dataclass(frozen=True)
class Td3Config:
    """The agent's shape, which a scheme derives from the scenario."""

    state_dim: int
    action_dim: int
    block_size: int  # slices + headroom; actions are per-cell blocks of this size
    actor_hidden: tuple[int, ...]
    critic_hidden: tuple[int, ...]
    constraint_mode: str = "softmax_embedded"

    def __post_init__(self):
        if self.constraint_mode not in CONSTRAINT_MODES:
            raise ValueError(f"unknown constraint mode {self.constraint_mode!r}")
        if self.action_dim % self.block_size:
            raise ValueError("action_dim must be a multiple of block_size")


@dataclass
class TrainDiagnostics:
    """Per-agent values, each (A,); NaN where no update ran."""

    actor_updated: bool
    critic_loss: np.ndarray
    actor_objective: np.ndarray
    mean_abs_td: np.ndarray


class Td3Agent:
    """TD3 learner for A same-shaped agents, one per ``Generator`` in ``rngs``:
    a stacked actor, a stacked twin-critic pair, their targets, two Adams.

    ``config`` fixes the networks' shapes and the constraint mode; ``hyper``
    holds the learning settings: discount, learning rates, noise, batch
    size, Polyak rate, policy delay and replay capacity.
    """

    def __init__(self, config: Td3Config, hyper: AgentHyperParams,
                 rngs: list[np.random.Generator]):
        self.config = config
        self.hyper = hyper
        self.rngs = list(rngs)
        c = config
        head = "softmax_blocks" if c.constraint_mode == "softmax_embedded" else "sigmoid"
        actor_spec = MlpSpec((c.state_dim, *c.actor_hidden, c.action_dim), head=head,
                             block_size=c.block_size if head == "softmax_blocks" else 0)
        critic_spec = MlpSpec((c.state_dim + c.action_dim, *c.critic_hidden, 1), head="linear")
        actors, twins1, twins2 = [], [], []
        for rng in self.rngs:
            actors.append(Mlp.init(rng, actor_spec))
            twins1.append(Mlp.init(rng, critic_spec))
            twins2.append(Mlp.init(rng, critic_spec))
        self.actor = Mlp.stack(actors)
        self.critics = Mlp.stack(twins1 + twins2)
        self.actor_target = self.actor.copy()
        self.critics_target = self.critics.copy()
        self.actor_opt = Adam(self.actor.flat, lr=hyper.actor_lr)
        self.critic_opt = Adam(self.critics.flat, lr=hyper.critic_lr)
        # gradient buffers reused by every update, bound once as nets so each
        # backward writes through the same views; likewise the first critics
        self._actor_grad = Mlp(actor_spec, np.empty_like(self.actor.flat))
        self._critic_grad = Mlp(critic_spec, np.empty_like(self.critics.flat))
        self._critic1 = self.critics.member(slice(0, self.members))
        self.buffer = ReplayBuffer(hyper.buffer_capacity, c.state_dim, c.action_dim,
                                   members=self.members)

    @property
    def members(self) -> int:
        """Number of agents A."""
        return len(self.rngs)

    # -- acting ---------------------------------------------------------------

    def _random_proposal(self, rng: np.random.Generator) -> np.ndarray:
        c = self.config
        if c.constraint_mode == "softmax_embedded":
            return uniform_simplex(rng, c.action_dim // c.block_size, c.block_size)
        # raw box sample: lets the penalty agent experience violations
        return rng.random(c.action_dim)

    def _execute(self, proposals: np.ndarray) -> np.ndarray:
        rows = project_or_reject(proposals.reshape(-1, self.config.block_size))
        return rows.reshape(proposals.shape)

    def select_action(self, states: np.ndarray, mode: str,
                      epsilon: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Return (raw proposals, executed on-simplex actions), both (A, action_dim),
        for states of shape (A, state_dim).

        The modes are the run phases. ``explore`` ignores the states and
        draws random proposals; ``eval`` executes the actor's output as it
        is; ``train`` perturbs the actor's pre-head outputs with exploration
        noise, and with an ``epsilon`` each agent first draws u, where
        u < epsilon replaces its actor output by a uniform simplex draw,
        executed as drawn. Only proposals the actor produced are checked for
        non-finite values.
        """
        if mode not in ACTION_MODES:
            raise ValueError(f"unknown action mode {mode!r}")
        c = self.config
        if mode == "explore":
            proposals = np.stack([self._random_proposal(rng) for rng in self.rngs])
            return proposals, self._execute(proposals)
        z = self.actor.logits(states[:, None])[:, 0]  # each agent's batch of one
        drawn = np.zeros(self.members, dtype=bool)  # took a simplex draw, not the actor
        simplex = np.empty_like(z)
        if mode == "train":
            for i, rng in enumerate(self.rngs):
                if epsilon is not None and rng.random() < epsilon:
                    drawn[i] = True
                    simplex[i] = uniform_simplex(rng, c.action_dim // c.block_size, c.block_size)
                else:
                    # exploration perturbs the raw pre-head outputs, so the head
                    # nonlinearity keeps noisy proposals in their natural range
                    z[i] += rng.normal(0.0, self.hyper.explore_noise, size=c.action_dim)
        proposals = self.actor.apply_head(z)
        if not np.isfinite(proposals[~drawn]).all():
            raise FloatingPointError("actor produced a non-finite action")
        proposals[drawn] = simplex[drawn]
        # a drawn row is on the simplex, which the projection passes through bit for bit
        return proposals, self._execute(proposals)

    # -- learning -------------------------------------------------------------

    def _smoothed_target_actions(self, next_states: np.ndarray) -> np.ndarray:
        h = self.hyper
        noise = np.empty(next_states.shape[:-1] + (self.config.action_dim,))
        for a, rng in enumerate(self.rngs):
            noise[a] = rng.normal(0.0, h.target_noise, size=noise.shape[1:])
        np.maximum(noise, -h.noise_clip, out=noise)
        np.minimum(noise, h.noise_clip, out=noise)
        z = self.actor_target.logits(next_states)
        z += noise
        return self.actor_target.apply_head(z)

    def compute_targets(self, rewards: np.ndarray, next_states: np.ndarray) -> np.ndarray:
        """TD targets g = r + gamma * min of the twin target critics at the
        smoothed target-policy action; (A, batch)."""
        a2 = self._smoothed_target_actions(next_states)
        x2 = np.concatenate([next_states, a2], axis=-1)
        q = self.critics_target.forward(np.concatenate([x2, x2]))[..., 0]
        return rewards + self.hyper.gamma * np.minimum(q[:self.members], q[self.members:])

    def critic_update(self, batch: Batch) -> tuple[np.ndarray, np.ndarray]:
        """One TD regression step on every critic; returns per agent the
        pre-update MSE loss summed over its twins and the mean |TD error| of
        its first critic."""
        # a mean is np.add.reduce divided by the count, as np.mean computes
        # it, without np.mean's Python layer
        a, b = self.members, batch.size
        g = self.compute_targets(batch.rewards, batch.next_states)
        x = np.concatenate([batch.states, batch.proposals], axis=-1)
        # both twins of agent i (members i and a + i) regress on agent i's batch
        q, cache = self.critics.forward_cached(np.concatenate([x, x]))
        td = (q[..., 0].reshape(2, a, b) - g).reshape(2 * a, b)
        mse = np.add.reduce(td ** 2, -1) / b
        self.critics.backward(cache, (2.0 * td / b)[..., None], out=self._critic_grad)
        self.critic_opt.step(self.critics.flat, self._critic_grad.flat)
        return mse[:a] + mse[a:], np.add.reduce(np.abs(td[:a]), -1) / b

    def actor_gradients(self, batch: Batch) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-agent objective mean Q1(s, pi(s)) and the gradients of its
        negation, shaped like ``actor.parameters()`` (views into the actor's
        gradient buffer).

        Only dQ1/da is needed from the first critics, so they run the
        input-gradient pass and compute no parameter gradient.
        """
        critic1, b = self._critic1, batch.size
        a, actor_cache = self.actor.forward_cached(batch.states)
        x = np.concatenate([batch.states, a], axis=-1)
        q, critic_cache = critic1.forward_cached(x)
        objective = np.add.reduce(q[..., 0], -1) / b
        gx = critic1.input_grad(critic_cache, np.full(q.shape, 1.0 / b))
        dq_da = gx[..., self.config.state_dim:]
        grads, _ = self.actor.backward(actor_cache, -dq_da, out=self._actor_grad)
        return objective, grads

    def actor_update(self, batch: Batch) -> np.ndarray:
        """Ascend mean Q1(s, pi(s)); critics are read, never written."""
        objective, _ = self.actor_gradients(batch)
        self.actor_opt.step(self.actor.flat, self._actor_grad.flat)
        return objective

    def sync_targets(self) -> None:
        soft_update([self.actor.flat, self.critics.flat],
                    [self.actor_target.flat, self.critics_target.flat], self.hyper.tau)

    def train_step(self, step: int) -> TrainDiagnostics:
        """Critic update every call; actor and targets every policy_delay."""
        h = self.hyper
        skipped = np.full(self.members, np.nan)
        if self.buffer.size < h.batch_size:
            return TrainDiagnostics(False, skipped, skipped, skipped)
        batch = self.buffer.sample(self.rngs, h.batch_size)
        loss, mean_abs_td = self.critic_update(batch)
        actor_obj = skipped
        actor_updated = step % h.policy_delay == 0
        if actor_updated:
            actor_obj = self.actor_update(batch)
            self.sync_targets()
        return TrainDiagnostics(actor_updated, loss, actor_obj, mean_abs_td)

    # -- checkpointing ----------------------------------------------------------

    def _optimizers(self) -> tuple[tuple[str, Adam], ...]:
        return ("actor", self.actor_opt), ("critic", self.critic_opt)

    def state(self) -> dict[str, np.ndarray]:
        """The checkpoint: the four flat ``(E, P)`` stacks, each optimizer's
        moments ``<family>_m``/``_v`` and its step count ``<family>_t`` (0-d).
        Not the RNG streams or the replay buffer.

        The parameter and moment arrays are the live ones, not copies, so
        ``np.savez(path, **agent.state())`` writes them without a copy.
        """
        arrays = {name: getattr(self, name).flat for name in _NETWORKS}
        for family, opt in self._optimizers():
            arrays.update({f"{family}_m": opt.m, f"{family}_v": opt.v,
                           f"{family}_t": np.array(opt.t)})
        return arrays

    def load_state(self, arrays) -> None:
        """Restore a ``state()`` checkpoint from any mapping of its names to
        arrays, such as ``np.load(path)``.

        Values are copied into the live arrays, so the per-layer views and
        gradient buffers stay bound; learning rates stay this agent's. Every
        name, shape and dtype is checked before anything is copied, and a
        missing name or any mismatch raises ``ValueError``.
        """
        state, loaded = self.state(), {}
        for name, live in state.items():
            if name not in arrays:
                raise ValueError(f"checkpoint has no {name!r} array")
            value = np.asarray(arrays[name])
            if value.shape != live.shape or value.dtype != live.dtype:
                raise ValueError(f"checkpoint {name!r} is {value.dtype}{list(value.shape)}, "
                                 f"this agent's is {live.dtype}{list(live.shape)}")
            loaded[name] = value
        for name, value in loaded.items():
            state[name][...] = value
        # the step counts are plain ints; state() hands out copies of them
        for family, opt in self._optimizers():
            opt.t = int(loaded[f"{family}_t"])

    def param_count(self) -> int:
        """Parameters of one agent: its actor and both critics."""
        return self.actor.param_count() + 2 * self.critics.param_count()
