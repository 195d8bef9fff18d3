"""TD3 learner tests: buffer, targets, updates, schedules, checkpoints.

Most tests drive a single agent (A = 1), so arrays carry a member axis of
length one; the stacked-agent tests at the end compare A agents trained
together with the same agents trained one by one.
"""

import dataclasses

import numpy as np
import pytest

from slicesim.mdp import project_or_reject
from slicesim.nn import Mlp
from slicesim.td3 import (
    AgentHyperParams,
    Batch,
    Experience,
    ReplayBuffer,
    Td3Agent,
    Td3Config,
    soft_update,
)

SHAPE_FIELDS = {f.name for f in dataclasses.fields(Td3Config)}


def split_config(**kw):
    """(Td3Config, AgentHyperParams) from one set of keywords, each going to
    the record that declares it."""
    shape = dict(state_dim=4, action_dim=3, block_size=3, actor_hidden=(16, 12),
                 critic_hidden=(16, 12))
    shape.update({k: v for k, v in kw.items() if k in SHAPE_FIELDS})
    hyper = {k: v for k, v in kw.items() if k not in SHAPE_FIELDS}
    return Td3Config(**shape), AgentHyperParams(**hyper)


def make_agent(seed=0, **kw):
    cfg, hyper = split_config(**dict(dict(buffer_capacity=512), **kw))
    return Td3Agent(cfg, hyper, [np.random.default_rng(seed)])


def fill_buffer(agent, n, seed=1, reward_fn=None):
    rng = np.random.default_rng(seed)
    c = agent.config
    for _ in range(n):
        s = rng.random((1, c.state_dim))
        prop, _ = agent.select_action(s, "explore")
        r = float(rng.random()) if reward_fn is None else reward_fn(s, prop)
        agent.buffer.add(Experience(s, prop, np.array([r]), rng.random((1, c.state_dim))))


def set_constant_net(net: Mlp, value: float):
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    net.biases[-1][:] = value


# ---------------------------------------------------------------------------
# replay buffer
# ---------------------------------------------------------------------------


def test_buffer_capacity_and_fifo():
    buf = ReplayBuffer(3, state_dim=1, action_dim=1)
    for i in range(5):
        buf.add(Experience(np.array([[float(i)]]), np.array([[1.0]]),
                           np.array([float(i)]), np.array([[0.0]])))
    assert buf.size == 3
    # oldest two evicted; survivors in insertion order are 2, 3, 4
    assert [buf.peek(i).reward[0] for i in range(3)] == [2.0, 3.0, 4.0]


def test_buffer_sample_shapes_and_determinism():
    buf = ReplayBuffer(16, state_dim=2, action_dim=3)
    rng = np.random.default_rng(0)
    for _ in range(10):
        buf.add(Experience(rng.random((1, 2)), rng.random((1, 3)),
                           rng.random(1), rng.random((1, 2))))
    a = buf.sample([np.random.default_rng(5)], 4)
    b = buf.sample([np.random.default_rng(5)], 4)
    assert a.states.shape == (1, 4, 2) and a.proposals.shape == (1, 4, 3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.rewards, b.rewards)


class FourArrayBuffer:
    """The replay buffer as it was before its fields shared one array: four
    ``(capacity, A, d)`` arrays and four gathers per sample."""

    def __init__(self, capacity, state_dim, action_dim, members):
        self.capacity, self.size, self.cursor = capacity, 0, 0
        self.states = np.zeros((capacity, members, state_dim))
        self.proposals = np.zeros((capacity, members, action_dim))
        self.rewards = np.zeros((capacity, members))
        self.next_states = np.zeros((capacity, members, state_dim))

    def add(self, exp):
        i = self.cursor
        self.states[i], self.proposals[i] = exp.state, exp.proposal
        self.rewards[i], self.next_states[i] = exp.reward, exp.next_state
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def peek(self, i):
        base = self.cursor if self.size == self.capacity else 0
        j = (base + i) % self.capacity
        return Experience(self.states[j].copy(), self.proposals[j].copy(),
                          self.rewards[j].copy(), self.next_states[j].copy())

    def sample(self, rngs, batch_size):
        idx = np.stack([rng.integers(0, self.size, size=batch_size) for rng in rngs])
        agents = np.arange(len(rngs))[:, None]
        return Batch(states=self.states[idx, agents], proposals=self.proposals[idx, agents],
                     rewards=self.rewards[idx, agents],
                     next_states=self.next_states[idx, agents])


@pytest.mark.parametrize("members", [1, 3])
def test_packed_buffer_matches_the_four_array_buffer(members):
    state_dim, action_dim, capacity = 5, 4, 7
    buf = ReplayBuffer(capacity, state_dim, action_dim, members=members)
    ref = FourArrayBuffer(capacity, state_dim, action_dim, members)
    data = np.random.default_rng(8)
    for n in range(1, 3 * capacity + 3):  # wraps the ring three times
        exp = Experience(data.random((members, state_dim)), data.random((members, action_dim)),
                         data.random(members), data.random((members, state_dim)))
        buf.add(exp)
        ref.add(exp)
        assert buf.size == ref.size == min(n, capacity)
        for batch_size in (1, 6):
            seeds = np.random.SeedSequence(n * 10 + batch_size).spawn(members)
            got = buf.sample([np.random.default_rng(s) for s in seeds], batch_size)
            want = ref.sample([np.random.default_rng(s) for s in seeds], batch_size)
            for field in ("states", "proposals", "rewards", "next_states"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), field
                assert getattr(got, field).shape == getattr(want, field).shape, field
    # peek returns copies in insertion order, and re-adding them rebuilds the buffer
    copy = ReplayBuffer(capacity, state_dim, action_dim, members=members)
    for i in range(buf.size):
        mine, theirs = buf.peek(i), ref.peek(i)
        for field in ("state", "proposal", "reward", "next_state"):
            assert np.array_equal(getattr(mine, field), getattr(theirs, field)), field
            assert not np.shares_memory(getattr(mine, field), buf._rows)
        copy.add(mine)
    for i in range(buf.size):
        for field in ("state", "proposal", "reward", "next_state"):
            assert np.array_equal(getattr(copy.peek(i), field), getattr(buf.peek(i), field))


# ---------------------------------------------------------------------------
# soft update
# ---------------------------------------------------------------------------


def test_soft_update_extremes_and_arithmetic():
    online = [np.ones(3)]
    target = [np.zeros(3)]
    soft_update(online, target, 0.005)
    assert target[0] == pytest.approx([0.005] * 3)
    target = [np.zeros(3)]
    soft_update(online, target, 1.0)
    assert np.array_equal(target[0], online[0])
    target = [np.full(3, 0.7)]
    soft_update(online, target, 0.0)
    assert target[0] == pytest.approx([0.7] * 3)


# ---------------------------------------------------------------------------
# action selection
# ---------------------------------------------------------------------------


def test_softmax_eval_action_on_simplex():
    agent = make_agent()
    prop, act = agent.select_action(np.random.default_rng(1).random((1, 4)), "eval")
    assert np.array_equal(prop, act)
    assert act.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(act >= 0)


def test_explore_random_reproducible():
    a1 = make_agent(seed=7)
    a2 = make_agent(seed=7)
    s = np.zeros((1, 4))
    p1, e1 = a1.select_action(s, "explore")
    p2, e2 = a2.select_action(s, "explore")
    assert np.array_equal(p1, p2) and np.array_equal(e1, e2)
    assert p1.sum() == pytest.approx(1.0, abs=1e-9)  # uniform simplex draw


def test_penalty_mode_proposal_and_projection():
    agent = make_agent(constraint_mode="penalty")
    s = np.random.default_rng(2).random((1, 4))
    prop, act = agent.select_action(s, "eval")
    # sigmoid outputs will not generally sum to 1
    assert abs(prop.sum() - 1.0) > 1e-6
    assert np.allclose(act, project_or_reject(prop))
    assert act.sum() == pytest.approx(1.0, abs=1e-9)


def test_penalty_mode_executes_simplex_draws_exactly_as_drawn():
    # epsilon 1: every proposal is a uniform simplex draw, which the
    # projection passes through bit for bit
    stacked, _ = stacked_and_serial(constraint_mode="penalty", action_dim=6)
    states = np.random.default_rng(5).random((3, 4))
    for _ in range(20):
        props, acts = stacked.select_action(states, "train", epsilon=1.0)
        assert acts.tobytes() == props.tobytes()


def test_train_noisy_respects_simplex_in_softmax_mode():
    agent = make_agent(seed=3)
    for _ in range(10):
        _, act = agent.select_action(np.random.default_rng(4).random((1, 4)), "train")
        assert act.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(act >= 0)


def test_non_finite_actor_output_is_fatal():
    agent = make_agent()
    agent.actor.weights[0][0, 0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        agent.select_action(np.ones((1, 4)), "eval")


# ---------------------------------------------------------------------------
# critic update
# ---------------------------------------------------------------------------


def test_targets_use_min_of_twin_critics():
    agent = make_agent(gamma=0.5)
    set_constant_net(agent.critics_target.member(0), 5.0)
    set_constant_net(agent.critics_target.member(1), 3.0)
    g = agent.compute_targets(np.array([[1.0, 2.0]]), np.zeros((1, 2, 4)))
    assert g[0] == pytest.approx([1.0 + 0.5 * 3.0, 2.0 + 0.5 * 3.0])


def test_critic_regresses_to_reward_when_gamma_zero():
    agent = make_agent(gamma=0.0, batch_size=4)
    s = np.full(4, 0.3)
    prop = np.array([0.2, 0.5, 0.3])
    exp = Experience(s[None], prop[None], np.array([0.6180]), np.zeros((1, 4)))
    for _ in range(8):
        agent.buffer.add(exp)
    batch = agent.buffer.sample([np.random.default_rng(0)], 4)
    for _ in range(600):
        agent.critic_update(batch)
    q = agent.critics.member(0).forward(np.concatenate([s, prop])[None])
    assert q[0, 0] == pytest.approx(0.6180, abs=1e-2)


def test_identical_twins_stay_identical():
    agent = make_agent(seed=11)
    # member 0 is the first twin and member 1 the second, sharing one Adam
    agent.critics.flat[1] = agent.critics.flat[0]
    agent.critics_target.flat[1] = agent.critics_target.flat[0]
    fill_buffer(agent, 64)
    for step in range(5):
        batch = agent.buffer.sample([np.random.default_rng(step)], agent.hyper.batch_size)
        agent.critic_update(batch)
    for p1, p2 in zip(agent.critics.member(0).parameters(), agent.critics.member(1).parameters()):
        assert np.array_equal(p1, p2)


def test_critic_update_returns_pre_update_loss():
    agent = make_agent(gamma=0.0, batch_size=2)
    set_constant_net(agent.critics, 0.0)
    batch = Batch(states=np.zeros((1, 2, 4)), proposals=np.zeros((1, 2, 3)),
                  rewards=np.array([[1.0, -1.0]]), next_states=np.zeros((1, 2, 4)))
    loss, mean_abs_td = agent.critic_update(batch)
    # before the update both critics output 0, so each MSE is 1
    assert loss[0] == pytest.approx(2.0)
    assert mean_abs_td[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# actor update
# ---------------------------------------------------------------------------


def test_zero_critic_freezes_actor():
    agent = make_agent()
    set_constant_net(agent.critics.member(0), 0.0)
    keep = [p.copy() for p in agent.actor.parameters()]
    fill_buffer(agent, 40)
    batch = agent.buffer.sample([np.random.default_rng(1)], 8)
    agent.actor_update(batch)
    for a, b in zip(agent.actor.parameters(), keep):
        assert np.array_equal(a, b)


def test_actor_update_leaves_critics_untouched():
    agent = make_agent(seed=5)
    fill_buffer(agent, 64)
    keep1 = [p.copy() for p in agent.critics.member(0).parameters()]
    keep2 = [p.copy() for p in agent.critics.member(1).parameters()]
    batch = agent.buffer.sample([np.random.default_rng(2)], 16)
    agent.actor_update(batch)
    for a, b in zip(agent.critics.member(0).parameters(), keep1):
        assert np.array_equal(a, b)
    for a, b in zip(agent.critics.member(1).parameters(), keep2):
        assert np.array_equal(a, b)


def test_actor_converges_to_critic_optimum():
    # penalty-mode 1-D actor vs. a critic trained on r(a) = -(a - 0.7)^2:
    # repeated policy steps push the actor output towards 0.7
    agent = make_agent(seed=9, state_dim=1, action_dim=1, block_size=1,
                       constraint_mode="penalty", gamma=0.0,
                       actor_hidden=(16,), critic_hidden=(24, 16))
    rng = np.random.default_rng(3)
    s = np.array([[0.5]])
    for _ in range(400):
        a = rng.random((1, 1))
        agent.buffer.add(Experience(s, a, -(a[0] - 0.7) ** 2, s))
    for step in range(1500):
        agent.critic_update(agent.buffer.sample(agent.rngs, 32))
    for step in range(800):
        agent.actor_update(agent.buffer.sample(agent.rngs, 32))
    out = agent.actor.forward(s[:, None])  # the one agent's batch of one
    assert out[0, 0, 0] == pytest.approx(0.7, abs=0.05)


def test_actor_gradients_match_finite_differences_through_softmax():
    agent = make_agent(seed=13, state_dim=2, action_dim=3, block_size=3,
                       actor_hidden=(6,), critic_hidden=(8,))
    states = np.random.default_rng(4).random((3, 2))
    batch = Batch(states=states[None], proposals=np.zeros((1, 3, 3)),
                  rewards=np.zeros((1, 3)), next_states=states[None])

    def objective():
        a = agent.actor.member(0).forward(states)
        x = np.concatenate([states, a], axis=1)
        return float(np.mean(agent.critics.member(0).forward(x)))

    obj, grads = agent.actor_gradients(batch)
    assert obj[0] == pytest.approx(objective())
    params = agent.actor.parameters()
    h = 1e-6
    rng = np.random.default_rng(8)
    for _ in range(12):
        pi = int(rng.integers(len(params)))
        idx = tuple(int(rng.integers(d)) for d in params[pi].shape)
        keep = params[pi][idx]
        params[pi][idx] = keep + h
        up = objective()
        params[pi][idx] = keep - h
        dn = objective()
        params[pi][idx] = keep
        numeric = (up - dn) / (2 * h)
        analytic = -grads[pi][idx]  # grads are for the negated objective
        assert abs(analytic - numeric) / max(abs(numeric), abs(analytic), 1e-6) < 1e-3 \
            or abs(analytic - numeric) < 1e-8


# ---------------------------------------------------------------------------
# train_step orchestration
# ---------------------------------------------------------------------------


def test_policy_delay_schedule():
    agent = make_agent(seed=17)
    fill_buffer(agent, 64)
    flags = [agent.train_step(step).actor_updated for step in range(100)]
    assert sum(flags) == 50
    assert flags[0] and not flags[1]


def test_train_step_noop_below_batch_size():
    agent = make_agent(seed=19)
    fill_buffer(agent, agent.hyper.batch_size - 1)
    keep = [p.copy() for p in agent.actor.parameters() + agent.critics.parameters()]
    diag = agent.train_step(0)
    assert not diag.actor_updated
    for values in (diag.critic_loss, diag.actor_objective, diag.mean_abs_td):
        assert values.shape == (agent.members,) and np.isnan(values).all()
    for a, b in zip(agent.actor.parameters() + agent.critics.parameters(), keep):
        assert np.array_equal(a, b)


def test_targets_frozen_when_tau_zero():
    agent = make_agent(seed=23, tau=0.0)
    fill_buffer(agent, 64)
    keep = [p.copy() for p in agent.actor_target.parameters()
            + agent.critics_target.parameters()]
    for step in range(6):
        agent.train_step(step)
    now = agent.actor_target.parameters() + agent.critics_target.parameters()
    for a, b in zip(now, keep):
        assert np.array_equal(a, b)


def test_training_deterministic_under_seed():
    def run():
        agent = make_agent(seed=29)
        fill_buffer(agent, 64, seed=31)
        trace = []
        for step in range(20):
            d = agent.train_step(step)
            trace.append((d.critic_loss[0], d.actor_objective[0], d.mean_abs_td[0]))
        return trace, [p.copy() for p in agent.actor.parameters()]

    t1, p1 = run()
    t2, p2 = run()
    for (a1, b1, c1), (a2, b2, c2) in zip(t1, t2):
        assert (a1 == a2) and (c1 == c2)
        assert b1 == b2 or (np.isnan(b1) and np.isnan(b2))
    for x, y in zip(p1, p2):
        assert np.array_equal(x, y)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


CHECKPOINT_NAMES = {"actor", "critics", "actor_target", "critics_target", "actor_m", "actor_v",
                    "critic_m", "critic_v", "actor_t", "critic_t"}


def trained_agent(seed=37):
    agent = make_agent(seed=seed)
    fill_buffer(agent, 64)
    for step in range(10):
        agent.train_step(step)
    return agent


def load_saved(agent, into, path):
    """Save ``agent`` with ``np.savez`` and load the file into ``into``."""
    np.savez(path, **agent.state())
    with np.load(path) as data:
        assert set(data.files) == CHECKPOINT_NAMES
        into.load_state(data)


def test_agent_checkpoint_roundtrip(tmp_path):
    agent = trained_agent()
    other = make_agent(seed=99)
    load_saved(agent, other, tmp_path / "agent.npz")
    theirs = other.state()
    for name, value in agent.state().items():
        assert np.array_equal(theirs[name], value), name
    assert (other.actor_opt.t, other.critic_opt.t) == (5, 10)
    # copied in place: the per-layer views still read the loaded parameters
    s = np.random.default_rng(3).random((1, 1, 4))
    assert np.array_equal(other.actor.forward(s), agent.actor.forward(s))


def test_checkpoint_continues_training_bit_for_bit(tmp_path):
    agent = trained_agent()
    other = make_agent(seed=99)
    load_saved(agent, other, tmp_path / "agent.npz")
    # the checkpoint holds neither the replay buffer nor the RNG streams
    for i in range(agent.buffer.size):
        other.buffer.add(agent.buffer.peek(i))
    for mine, theirs in zip(agent.rngs, other.rngs):
        theirs.bit_generator.state = mine.bit_generator.state
    # step 10 updates both families, so both Adams' m, v and t must be restored
    agent.train_step(10)
    other.train_step(10)
    for name in ("actor", "critics", "actor_target", "critics_target"):
        assert np.array_equal(getattr(other, name).flat, getattr(agent, name).flat), name


def test_bound_views_survive_load_state(tmp_path):
    # stacked agents whose gradient nets, first-critic view and per-layer
    # views were bound at construction; load_state copies into the live
    # arrays, so every one of them must still read and write the loaded values
    cfg, hyper = split_config(batch_size=8, buffer_capacity=64)
    agent = Td3Agent(cfg, hyper, np.random.default_rng(21).spawn(3))
    other = Td3Agent(cfg, hyper, np.random.default_rng(22).spawn(3))
    data = np.random.default_rng(23)
    for _ in range(20):
        agent.buffer.add(Experience(data.random((3, 4)), data.random((3, 3)), data.random(3),
                                   data.random((3, 4))))
    for step in range(5):
        agent.train_step(step)
    load_saved(agent, other, tmp_path / "agent.npz")
    for i in range(agent.buffer.size):
        other.buffer.add(agent.buffer.peek(i))
    for mine, theirs in zip(agent.rngs, other.rngs):
        theirs.bit_generator.state = mine.bit_generator.state
    for step in range(5, 13):  # four actor and target updates among them
        agent.train_step(step)
        other.train_step(step)
        for name in ("actor", "critics", "actor_target", "critics_target"):
            assert np.array_equal(getattr(other, name).flat, getattr(agent, name).flat), \
                (step, name)


@pytest.mark.parametrize("gamma", [-0.1, 1.5])
def test_hyper_gamma_outside_unit_interval_rejected(gamma):
    with pytest.raises(ValueError, match="gamma"):
        AgentHyperParams(gamma=gamma)


def test_checkpoint_of_another_shape_rejected(tmp_path):
    agent = make_agent(seed=2)
    before = {name: value.copy() for name, value in agent.state().items()}
    # the actor matches, so a copy made before every check would change it
    with pytest.raises(ValueError, match="critics"):
        load_saved(make_agent(seed=1, critic_hidden=(8,)), agent, tmp_path / "agent.npz")
    for name, value in agent.state().items():
        assert np.array_equal(value, before[name]), name


@pytest.mark.parametrize("name, value", [("critic_t", None), ("actor_t", np.array(5.0))],
                         ids=["missing", "float_step_count"])
def test_checkpoint_missing_or_mistyped_array_rejected(name, value):
    arrays = make_agent(seed=1).state()
    if value is None:
        del arrays[name]
    else:
        arrays[name] = value
    with pytest.raises(ValueError, match=name):
        make_agent(seed=2).load_state(arrays)


# ---------------------------------------------------------------------------
# stacked agents
# ---------------------------------------------------------------------------


def stacked_and_serial(count=3, seed=41, **kw):
    cfg, hyper = split_config(**dict(dict(batch_size=8, buffer_capacity=64), **kw))
    stacked = Td3Agent(cfg, hyper, np.random.default_rng(seed).spawn(count))
    serial = [Td3Agent(cfg, hyper, [rng]) for rng in np.random.default_rng(seed).spawn(count)]
    return stacked, serial


@pytest.mark.parametrize("mode", ["softmax_embedded", "penalty"])
def test_stacked_agents_match_serial_agents_bit_for_bit(mode):
    stacked, serial = stacked_and_serial(constraint_mode=mode)
    data = np.random.default_rng(43)
    for step in range(40):
        states = data.random((3, 4))
        phase = ("explore", "train", "eval")[min(step // 12, 2)]
        props, acts = stacked.select_action(states, phase, epsilon=0.5)
        for i, agent in enumerate(serial):
            p, a = agent.select_action(states[i:i + 1], phase, epsilon=0.5)
            assert np.array_equal(p[0], props[i]) and np.array_equal(a[0], acts[i])
        rewards, nxt = data.random(3), data.random((3, 4))
        stacked.buffer.add(Experience(states, props, rewards, nxt))
        for i, agent in enumerate(serial):
            agent.buffer.add(Experience(states[i:i + 1], props[i:i + 1], rewards[i:i + 1],
                                        nxt[i:i + 1]))
        d = stacked.train_step(step)
        for i, agent in enumerate(serial):
            di = agent.train_step(step)
            for field in ("critic_loss", "actor_objective", "mean_abs_td"):
                assert np.array_equal(getattr(d, field)[i], getattr(di, field)[0],
                                      equal_nan=True)
    for i, agent in enumerate(serial):
        assert np.array_equal(stacked.actor.flat[i], agent.actor.flat[0])
        assert np.array_equal(stacked.actor_target.flat[i], agent.actor_target.flat[0])
        for twin in (0, 1):
            assert np.array_equal(stacked.critics.flat[twin * 3 + i],
                                  agent.critics.flat[twin])
            assert np.array_equal(stacked.critics_target.flat[twin * 3 + i],
                                  agent.critics_target.flat[twin])


def test_non_finite_check_skips_agents_that_drew_a_random_action():
    stacked, _ = stacked_and_serial()
    stacked.actor.flat[1] = np.nan
    # epsilon 1: every agent takes a simplex draw, so agent 1's actor is unused
    _, acts = stacked.select_action(np.zeros((3, 4)), "train", epsilon=1.0)
    assert np.isfinite(acts).all()
    with pytest.raises(FloatingPointError):
        stacked.select_action(np.zeros((3, 4)), "train", epsilon=0.0)
