"""State construction, reward variants, penalty, and projection tests."""

import numpy as np
import pytest

from slicesim.mdp import (
    RewardSpec,
    StateScaling,
    extract_message,
    global_state,
    local_state,
    penalty_gaps,
    project_or_reject,
    reward_global,
    reward_local,
    reward_penalized,
)
from slicesim.netsim import ConstraintViolationError, NetState, Topology, validate_allocation

REQ = (5e6, 3e6)
DELAY_REQ = (1e-3, 1e-3)
SCALING = StateScaling(throughput_req=REQ, group_size_max=(8, 8))


def make_net(phi, delay, load, users, t=1):
    return NetState(throughput=np.asarray(phi, dtype=float),
                    delay=np.asarray(delay, dtype=float),
                    load=np.asarray(load, dtype=float),
                    users=np.asarray(users, dtype=int), t=t)


def spec(variant="delay_aware", **kw):
    return RewardSpec(variant=variant, throughput_req=REQ, delay_req=DELAY_REQ, **kw)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def test_local_state_zero_net_is_zero_vector():
    net = make_net(np.zeros((2, 2)), np.full((2, 2), 5e-4), np.zeros((2, 2)), np.zeros((2, 2)))
    s = local_state(net, SCALING)
    assert s.shape == (2, 6)
    assert np.all(s == 0.0)


def test_local_state_ordering_and_scaling():
    net = make_net([[2.5e6, 3e6]], [[1e-3, 1e-3]], [[0.25, 0.75]], [[4, 8]])
    s = local_state(net, SCALING)[0]
    assert s == pytest.approx([0.5, 1.0, 0.25, 0.75, 0.5, 1.0])


def test_local_state_caps_throughput_ratio():
    net = make_net([[10e6, 9e6]], [[1e-3, 1e-3]], [[0.1, 0.1]], [[1, 1]])
    s = local_state(net, SCALING)[0]
    assert s[0] == 1.0 and s[1] == 1.0


def test_local_state_ignores_other_cells():
    phi = np.array([[2.5e6, 1e6], [4e6, 2e6]])
    net_a = make_net(phi, np.full((2, 2), 1e-3), np.full((2, 2), 0.3), np.full((2, 2), 2))
    net_b = make_net(phi[::-1], np.full((2, 2), 1e-3), np.full((2, 2), 0.3), np.full((2, 2), 2))
    assert np.array_equal(local_state(net_a, SCALING)[0], local_state(net_b, SCALING)[1])


def test_global_state_is_concatenation():
    rng = np.random.default_rng(0)
    net = make_net(rng.random((3, 2)) * 5e6, rng.random((3, 2)) * 1e-3 + 5e-4,
                   rng.random((3, 2)), rng.integers(0, 8, (3, 2)))
    g = global_state(net, SCALING)
    assert g.shape == (18,)
    assert np.array_equal(g, np.concatenate(list(local_state(net, SCALING))))


def test_global_state_of_a_stack_is_each_steps_global_state():
    rng = np.random.default_rng(1)
    steps = 4
    net = make_net(rng.random((steps, 3, 2)) * 5e6, rng.random((steps, 3, 2)) * 1e-3 + 5e-4,
                   rng.random((steps, 3, 2)), rng.integers(0, 8, (steps, 3, 2)),
                   t=np.arange(1, steps + 1))
    g = global_state(net, SCALING)
    assert g.shape == (steps, 18)
    for i in range(steps):
        one = make_net(net.throughput[i], net.delay[i], net.load[i], net.users[i], t=i + 1)
        assert g[i].tobytes() == global_state(one, SCALING).tobytes()


# ---------------------------------------------------------------------------
# coordination messages
# ---------------------------------------------------------------------------


def msg_net(load):
    load = np.asarray(load, dtype=float)
    k, n = load.shape
    return make_net(np.zeros((k, n)), np.full((k, n), 1e-3), load, np.ones((k, n)))


def test_message_is_neighbor_mean():
    topo = Topology.ring(3, 20e6, 0.5, 2.0)
    net = msg_net([[0.0, 0.0], [0.4, 0.1], [0.6, 0.3]])
    c = extract_message(net, topo)[0]  # neighbours are cells 1 and 2
    assert c == pytest.approx([0.5, 0.2])


def test_message_single_neighbor_verbatim():
    topo = Topology.ring(2, 20e6, 0.5, 2.0)
    net = msg_net([[0.9, 0.2], [0.3, 0.7]])
    assert extract_message(net, topo)[0] == pytest.approx([0.3, 0.7])


def test_message_empty_neighborhood_is_zero():
    topo = Topology.ring(1, 20e6, 0.5, 2.0)
    net = msg_net([[0.5, 0.5]])
    assert np.array_equal(extract_message(net, topo)[0], np.zeros(2))


def test_message_neighbor_order_invariant():
    base = ((1, 2), (0, 2), (0, 1))
    flipped = ((2, 1), (0, 2), (0, 1))
    net = msg_net([[0.0, 0.0], [0.4, 0.1], [0.6, 0.3]])
    a = extract_message(net, Topology(3, base, 20e6, 0.5, 2.0))[0]
    b = extract_message(net, Topology(3, flipped, 20e6, 0.5, 2.0))[0]
    assert np.allclose(a, b)
    assert np.all(a >= 0) and np.all(a <= 1)


# ---------------------------------------------------------------------------
# local / global rewards
# ---------------------------------------------------------------------------


def test_reward_capped_at_one():
    net = make_net([[6e6, 3.3e6]], [[0.77e-3, 0.83e-3]], [[0.2, 0.2]], [[2, 2]])
    assert reward_local(net, spec())[0] == 1.0


def test_reward_throughput_bottleneck():
    net = make_net([[2.5e6, 3e6]], [[0.5e-3, 0.5e-3]], [[0.2, 0.2]], [[2, 2]])
    assert reward_local(net, spec())[0] == pytest.approx(0.5)


def test_reward_delay_bottleneck():
    net = make_net([[5e6, 3e6]], [[0.5e-3, 2e-3]], [[0.2, 0.2]], [[2, 2]])
    assert reward_local(net, spec())[0] == pytest.approx(0.5)


def test_plain_variant_ignores_delay():
    net = make_net([[5e6, 3e6]], [[0.5e-3, 2e-3]], [[0.2, 0.2]], [[2, 2]])
    assert reward_local(net, spec("plain"))[0] == 1.0


def test_idle_slice_excluded_from_min():
    # slice 0 idle with zero throughput; only slice 1 counts
    net = make_net([[0.0, 3e6]], [[5e-4, 1e-3]], [[0.0, 0.2]], [[0, 2]])
    assert reward_local(net, spec())[0] == 1.0


def test_all_idle_cell_scores_one():
    net = make_net([[0.0, 0.0]], [[5e-4, 5e-4]], [[0.0, 0.0]], [[0, 0]])
    assert reward_local(net, spec())[0] == 1.0


def test_global_reward_is_min_over_cells():
    rng = np.random.default_rng(3)
    net = make_net(rng.random((4, 2)) * 6e6, rng.random((4, 2)) * 2e-3 + 1e-4,
                   rng.random((4, 2)), rng.integers(0, 5, (4, 2)))
    s = spec()
    assert reward_global(net, s) == pytest.approx(min(reward_local(net, s)))


def test_global_reward_requirements_exactly_met():
    net = make_net([[5e6, 3e6], [5e6, 3e6]], np.full((2, 2), 1e-3),
                   np.full((2, 2), 0.3), np.full((2, 2), 2))
    assert reward_global(net, spec()) == 1.0


def test_global_reward_bottleneck_cell():
    net = make_net([[5e6, 3e6], [2.5e6, 3e6]], np.full((2, 2), 0.5e-3),
                   np.full((2, 2), 0.3), np.full((2, 2), 2))
    assert reward_global(net, spec()) == pytest.approx(0.5)


def test_reward_scale_invariance():
    rng = np.random.default_rng(8)
    phi = rng.random((3, 2)) * 8e6
    net = make_net(phi, rng.random((3, 2)) * 2e-3 + 1e-4, rng.random((3, 2)),
                   rng.integers(1, 5, (3, 2)))
    for c in (0.5, 3.0, 1e3):
        scaled_net = make_net(phi * c, net.delay, net.load, net.users)
        scaled_spec = RewardSpec("delay_aware", tuple(r * c for r in REQ), DELAY_REQ)
        assert reward_global(scaled_net, scaled_spec) == pytest.approx(
            reward_global(net, spec()))


def test_rewards_stay_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(20):
        net = make_net(rng.random((2, 2)) * 12e6, rng.random((2, 2)) * 5e-3 + 1e-5,
                       rng.random((2, 2)), rng.integers(0, 6, (2, 2)))
        for variant in ("plain", "delay_aware"):
            r = reward_global(net, spec(variant))
            assert 0.0 <= r <= 1.0


# ---------------------------------------------------------------------------
# penalty
# ---------------------------------------------------------------------------


def test_penalty_zero_on_simplex():
    prop = np.array([[0.2, 0.5, 0.3], [0.0, 0.6, 0.4]])
    assert reward_penalized(0.7, np.mean(penalty_gaps(prop)), beta=1.2) == pytest.approx(0.7)


def test_penalty_overspend_single_cell():
    prop = np.array([0.25, 0.6, 0.4])  # sums to 1.25
    assert reward_penalized(1.0, np.mean(penalty_gaps(prop)), beta=1.2) == pytest.approx(1.0 - 0.3)


def test_penalty_underspend_absolute_form():
    prop = np.array([0.1, 0.4, 0.3])  # sums to 0.8
    assert reward_penalized(1.0, np.mean(penalty_gaps(prop)), beta=1.2) == pytest.approx(1.0 - 0.24)


def test_penalty_aggregation_modes():
    prop = np.array([[0.25, 0.6, 0.4], [0.2, 0.5, 0.3]])  # gaps 0.25 and 0
    assert reward_penalized(1.0, np.mean(penalty_gaps(prop)), beta=1.2) == pytest.approx(1.0 - 0.15)


def test_penalized_never_exceeds_raw_unsigned():
    rng = np.random.default_rng(21)
    for _ in range(50):
        prop = rng.random((3, 3)) * 1.4
        raw = float(rng.random())
        assert reward_penalized(raw, np.mean(penalty_gaps(prop)), beta=1.2) <= raw + 1e-12


def test_penalty_gaps_values():
    gaps = penalty_gaps(np.array([[0.5, 0.5, 0.25], [0.1, 0.2, 0.3]]))
    assert gaps == pytest.approx([0.25, 0.4])


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------


def test_projection_passes_valid_through():
    prop = np.array([0.2, 0.5, 0.3])
    out = project_or_reject(prop)
    assert np.array_equal(out, prop)


def test_projection_renormalizes_overspend():
    out = project_or_reject(np.array([0.6, 0.6, 0.0]))
    assert out == pytest.approx([0.5, 0.5, 0.0])


def test_projection_clips_then_renormalizes():
    out = project_or_reject(np.array([-0.1, 0.7, 0.4]))
    assert out == pytest.approx([0.0, 7 / 11, 4 / 11])


def test_projection_all_zero_becomes_uniform():
    out = project_or_reject(np.array([0.0, 0.0, 0.0]))
    assert out == pytest.approx([1 / 3, 1 / 3, 1 / 3])


def test_projection_rejects_non_finite():
    with pytest.raises(ConstraintViolationError):
        project_or_reject(np.array([np.nan, 0.5, 0.5]))
    with pytest.raises(ConstraintViolationError):
        project_or_reject(np.array([np.inf, 0.5, 0.5]))


def test_projection_batch_rows_are_valid_actions():
    rng = np.random.default_rng(4)
    prop = rng.normal(0.3, 0.5, size=(5, 3))
    out = project_or_reject(prop)
    validate_allocation(out[None], 5, 2)
    # mixed batch: valid rows untouched, invalid rows fixed
    prop[2] = [0.2, 0.5, 0.3]
    out = project_or_reject(prop)
    assert np.array_equal(out[2], prop[2])
