"""Controller wiring tests: dimensions, rewards, constraints, baselines."""

import numpy as np
import pytest

from slicesim.mdp import (RewardSpec, StateScaling, penalty_gaps, reward_global, reward_local,
                          reward_penalized)
from slicesim.netsim import (
    ConfigError,
    NetState,
    Scenario,
    SliceSpec,
    Topology,
    TrafficMask,
    validate_allocation,
)
from slicesim.schemes import (
    AgentHyperParams,
    annealed_epsilon,
    baseline_allocation,
    build_scheme,
    build_scheme as build,
    CentralController,
    DistributedController,
)

REQ = (5e6, 3e6)


def make_scenario(k=3, kind="ring"):
    topo = getattr(Topology, kind)(k, 20e6, 0.3, 2.0)
    slices = SliceSpec(REQ, (1e-3, 1e-3), REQ)
    masks = tuple(TrafficMask(((0.0, 1.0),), period=100.0) for _ in range(2))
    return Scenario(topology=topo, slices=slices, masks=masks, group_size_max=(6, 6))


def make_parts(k=3, variant="delay_aware", **reward_kw):
    sc = make_scenario(k)
    rewards = RewardSpec(variant, REQ, (1e-3, 1e-3), **reward_kw)
    scaling = StateScaling(REQ, sc.group_size_max)
    return sc, rewards, scaling


def small_hyper(**kw):
    base = dict(buffer_capacity=256, central_actor_hidden=(12, 8),
                central_critic_hidden=(12, 8), dist_actor_hidden=(10, 6),
                dist_critic_hidden=(10, 6))
    base.update(kw)
    return AgentHyperParams(**base)


def make_net(scenario, rng=None, load=0.3):
    """A stack of one state, as the runner hands a learner."""
    k, n = scenario.cell_count, scenario.slice_count
    rng = rng or np.random.default_rng(0)
    return NetState(throughput=rng.random((1, k, n)) * 5e6,
                    delay=rng.random((1, k, n)) * 1e-3 + 2e-4,
                    load=np.full((1, k, n), load),
                    users=rng.integers(0, 6, (1, k, n)), t=np.ones(1, dtype=np.int64))


def controller(kind, k=3, hyper=None, seed=0, **reward_kw):
    sc, rewards, scaling = make_parts(k, **reward_kw)
    return build(kind, sc, rewards, scaling, hyper or small_hyper(),
                 np.random.default_rng(seed), anneal_steps=100), sc, rewards, scaling


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_central_dimensions_nine_cells():
    ctl, *_ = controller("cen_soft", k=9, hyper=AgentHyperParams(buffer_capacity=64))
    assert ctl.agent.config.state_dim == 54
    assert ctl.agent.config.action_dim == 27


def test_dist_comm_state_dimension_nine_cells():
    ctl, *_ = controller("dist_comm", k=9, hyper=small_hyper())
    assert ctl.agent.members == 9
    assert ctl.agent.config.state_dim == 8
    assert ctl.agent.config.action_dim == 3


def test_dist_dimensions_three_cells():
    ctl, *_ = controller("dist")
    assert ctl.agent.members == 3
    assert ctl.agent.config.state_dim == 6 and ctl.agent.config.action_dim == 3


def test_unknown_kind_rejected():
    sc, rewards, scaling = make_parts()
    with pytest.raises(ConfigError):
        build("cen_mystery", sc, rewards, scaling, small_hyper(),
              np.random.default_rng(0), anneal_steps=10)


# ---------------------------------------------------------------------------
# static and baseline
# ---------------------------------------------------------------------------


def test_static_default_allocation():
    ctl, sc, *_ = controller("static_default")
    _, alloc = ctl.act(make_net(sc).users, "eval", 0)
    assert alloc.shape == (1, 3, 3)
    for row in alloc[0]:
        assert row == pytest.approx([0.0, 0.8, 0.2])


def test_baseline_proportional_split():
    assert baseline_allocation(np.array([[10, 30]]))[0] == pytest.approx([0.0, 0.25, 0.75])
    assert baseline_allocation(np.array([[5, 5]]))[0] == pytest.approx([0.0, 0.5, 0.5])


def test_baseline_idle_cell_convention():
    assert baseline_allocation(np.array([[0, 0]]))[0] == pytest.approx([0.0, 0.5, 0.5])


def test_baseline_never_allocates_headroom():
    rng = np.random.default_rng(3)
    for _ in range(10):
        alloc = baseline_allocation(rng.integers(0, 9, (1, 4, 2)))
        assert np.all(alloc[..., 0] == 0.0)
        validate_allocation(alloc, 4, 2)


def test_static_and_baseline_do_not_learn():
    for kind in ("static_default", "baseline"):
        ctl, sc, *_ = controller(kind)
        net = make_net(sc)
        ctl.act(net.users, "train", 5)
        assert not ctl.trains and not hasattr(ctl, "record") and not hasattr(ctl, "train")
        assert ctl.param_count() == 0


# ---------------------------------------------------------------------------
# constraint satisfaction across phases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cen_pen", "cen_soft", "dist", "dist_comm",
                                  "baseline", "static_default"])
def test_every_scheme_emits_valid_allocations(kind):
    ctl, sc, *_ = controller(kind, seed=5)
    rng = np.random.default_rng(7)
    for phase in ("explore", "train", "eval"):
        for step in range(4):
            net = make_net(sc, rng)
            _, alloc = ctl.act(net.users if ctl.open_loop else net, phase, step)
            validate_allocation(alloc, sc.cell_count, sc.slice_count)


def test_cen_soft_proposal_equals_action():
    ctl, sc, *_ = controller("cen_soft")
    props, alloc = ctl.act(make_net(sc), "eval", 0)
    assert np.array_equal(props, alloc)


def test_cen_pen_proposals_can_violate():
    ctl, sc, *_ = controller("cen_pen", seed=2)
    props, alloc = ctl.act(make_net(sc), "eval", 0)
    assert np.abs(props.sum(axis=-1) - 1.0).max() > 1e-6  # sigmoid rows off-simplex
    validate_allocation(alloc, sc.cell_count, sc.slice_count)


# ---------------------------------------------------------------------------
# recording rewards
# ---------------------------------------------------------------------------


def test_dist_buffers_grow_by_one_per_record():
    ctl, sc, *_ = controller("dist")
    net = make_net(sc)
    props, _ = ctl.act(net, "explore", 0)
    ctl.record(net, props, net)
    assert ctl.agent.buffer.size == 1
    ctl.record(net, props, net)
    assert ctl.agent.buffer.size == 2


def test_dist_stores_local_rewards():
    ctl, sc, rewards, _ = controller("dist")
    net = make_net(sc)
    props, _ = ctl.act(net, "explore", 0)
    ctl.record(net, props, net)
    assert np.array_equal(ctl.agent.buffer.peek(0).reward, reward_local(net, rewards)[0])


def test_cen_soft_stores_global_reward():
    ctl, sc, rewards, _ = controller("cen_soft")
    net = make_net(sc)
    props, _ = ctl.act(net, "explore", 0)
    ctl.record(net, props, net)
    assert ctl.agent.buffer.peek(0).reward[0] == pytest.approx(reward_global(net, rewards)[0])


def test_cen_pen_stores_penalized_reward():
    ctl, sc, rewards, _ = controller("cen_pen", variant="delay_aware")
    net = make_net(sc)
    props, _ = ctl.act(net, "explore", 0)
    ctl.record(net, props, net)
    expect = reward_penalized(reward_global(net, rewards)[0], np.mean(penalty_gaps(props)),
                              rewards.beta)
    assert ctl.agent.buffer.peek(0).reward[0] == pytest.approx(expect)


def test_dist_comm_state_includes_message():
    ctl, sc, *_ = controller("dist_comm")
    net = make_net(sc, load=0.42)
    s = ctl._observe(net)[0]
    assert s.shape == (8,)
    # every neighbour runs at load 0.42, so the message is exactly that
    assert s[6:] == pytest.approx([0.42, 0.42])


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


def test_dist_symmetry_with_shared_weights():
    ctl, sc, *_ = controller("dist")
    ctl.agent.actor.flat[1:] = ctl.agent.actor.flat[0]
    k, n = sc.cell_count, sc.slice_count
    net = NetState(throughput=np.full((1, k, n), 2e6), delay=np.full((1, k, n), 5e-4),
                   load=np.full((1, k, n), 0.3), users=np.full((1, k, n), 2),
                   t=np.ones(1, dtype=np.int64))
    _, (alloc,) = ctl.act(net, "eval", 0)
    for row in alloc[1:]:
        assert np.allclose(row, alloc[0])


def test_deployed_model_smaller_for_distributed():
    # the per-site model of the distributed schemes stays far smaller than
    # the centralized one as the cell count grows
    for k in (3, 9):
        hyper = AgentHyperParams(buffer_capacity=32)
        cen, *_ = controller("cen_soft", k=k, hyper=hyper)
        for kind in ("dist", "dist_comm"):
            d, *_ = controller(kind, k=k, hyper=hyper)
            assert d.param_count() < cen.param_count()


def test_dist_comm_reduces_to_dist_when_messages_zero():
    # isolated cell (no neighbours) -> zero message; with the shared input
    # coordinates carrying identical weights both controllers act the same
    sc, rewards, scaling = make_parts(k=1)
    hyper = small_hyper()
    dist = build("dist", sc, rewards, scaling, hyper, np.random.default_rng(1), 100)
    comm = build("dist_comm", sc, rewards, scaling, hyper, np.random.default_rng(2), 100)
    da, ca = dist.agent.actor.member(0), comm.agent.actor.member(0)
    ca.weights[0][:6, :] = da.weights[0]
    ca.weights[0][6:, :] = 0.0
    for i in range(1, len(da.weights)):
        ca.weights[i][:] = da.weights[i]
    for i in range(len(da.biases)):
        ca.biases[i][:] = da.biases[i]
    rng = np.random.default_rng(3)
    for _ in range(5):
        net = make_net(sc, rng)
        _, a1 = dist.act(net, "eval", 0)
        _, a2 = comm.act(net, "eval", 0)
        assert np.allclose(a1, a2)


def test_training_changes_parameters_and_is_deterministic():
    def run(kind):
        ctl, sc, *_ = controller(kind, seed=11, hyper=small_hyper(batch_size=8))
        rng = np.random.default_rng(13)
        net = make_net(sc, rng)
        for step in range(12):
            props, _ = ctl.act(net, "explore", step)
            nxt = make_net(sc, rng)
            ctl.record(net, props, nxt)
            net = nxt
        before = [p.copy() for p in ctl.agent.critics.parameters()]
        for step in range(6):
            ctl.train(step)
        after = ctl.agent.critics.parameters()
        assert any(not np.array_equal(a, b) for a, b in zip(before, after))
        return [p.copy() for p in ctl.agent.actor.parameters()]

    for kind in ("cen_soft", "dist"):
        p1, p2 = run(kind), run(kind)
        for a, b in zip(p1, p2):
            assert np.array_equal(a, b)


def test_epsilon_schedule():
    def eps(step):
        return annealed_epsilon(step, 1.0, 0.05, 100)

    assert eps(0) == pytest.approx(1.0)
    assert eps(50) == pytest.approx(0.525)
    assert eps(100) == pytest.approx(0.05)
    assert eps(500) == pytest.approx(0.05)


@pytest.mark.parametrize("horizon", [0, 1])
def test_epsilon_over_a_horizon_of_at_most_one_step_ends_at_step_one(horizon):
    # a horizon of 0 anneals as one of 1: the start at step 0, the end from step 1
    assert annealed_epsilon(0, 1.0, 0.25, horizon) == 1.0
    assert annealed_epsilon(1, 1.0, 0.25, horizon) == 0.25
    assert annealed_epsilon(2, 1.0, 0.25, horizon) == 0.25
