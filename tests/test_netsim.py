"""Environment tests: masks, mobility, the coupled-load fixed point, KPIs."""

import math
import sys

import numpy as np
import pytest

from slicesim.netsim import (
    SIMPLEX_ATOL,
    ConfigError,
    ConstraintViolationError,
    Scenario,
    SliceEnv,
    SliceSpec,
    Topology,
    TrafficMask,
    compute_kpis,
    solve_coupled_loads,
    validate_allocation,
    walk_users,
)

B20 = 20e6  # 20 MHz cell bandwidth used throughout


def one_cell(alpha=0.0, se=2.0):
    return Topology.ring(1, B20, alpha, se)


def make_scenario(topology, lam_ue=(3e6,), groups=(10,), masks=None, **kw):
    n = len(lam_ue)
    slices = SliceSpec(throughput_req=(5e6,) * n, delay_req=(1e-3,) * n,
                       demand_per_user=lam_ue)
    if masks is None:
        masks = tuple(TrafficMask(((0.0, 1.0),), period=100.0) for _ in range(n))
    return Scenario(topology=topology, slices=slices, masks=masks,
                    group_size_max=groups, **kw)


# ---------------------------------------------------------------------------
# traffic masks
# ---------------------------------------------------------------------------


def test_mask_breakpoint_identity():
    m = TrafficMask(((0.0, 0.2), (100.0, 1.0)), period=200.0)
    assert m.value(0) == pytest.approx(0.2)


def test_mask_linear_midpoint():
    m = TrafficMask(((0.0, 0.2), (100.0, 1.0)), period=200.0)
    assert m.value(50) == pytest.approx(0.6)


def test_mask_periodicity():
    m = TrafficMask(((0.0, 0.2), (100.0, 1.0)), period=200.0)
    assert m.value(250) == pytest.approx(m.value(50)) == pytest.approx(0.6)


def test_mask_wraparound_segment():
    # between the last breakpoint and the period the mask interpolates
    # towards the first breakpoint of the next cycle
    m = TrafficMask(((0.0, 0.2), (100.0, 1.0)), period=200.0)
    assert m.value(150) == pytest.approx(0.6)
    assert m.value(199) == pytest.approx(0.2 + 0.8 * 1 / 100)


def test_mask_single_breakpoint_is_constant():
    m = TrafficMask(((25.0, 0.7),), period=100.0)
    for t in (0, 10, 99, 100, 1234):
        assert m.value(t) == pytest.approx(0.7)


def test_mask_validation():
    with pytest.raises(ConfigError):
        TrafficMask((), period=100.0)
    with pytest.raises(ConfigError):
        TrafficMask(((0.0, 0.5), (0.0, 0.6)), period=100.0)  # duplicate time
    with pytest.raises(ConfigError):
        TrafficMask(((0.0, 1.5),), period=100.0)  # value out of range
    with pytest.raises(ConfigError):
        TrafficMask(((0.0, 0.5), (120.0, 0.6)), period=100.0)  # beyond period


# ---------------------------------------------------------------------------
# topologies
# ---------------------------------------------------------------------------


def test_ring_topology():
    t = Topology.ring(3, B20, 0.5, 2.0)
    assert t.neighbors == ((1, 2), (0, 2), (0, 1))


def test_ring_degenerate_sizes():
    assert Topology.ring(1, B20, 0.5, 2.0).neighbors == ((),)
    assert Topology.ring(2, B20, 0.5, 2.0).neighbors == ((1,), (0,))


def test_full_topology():
    t = Topology.full(4, B20, 0.5, 2.0)
    assert t.neighbors[0] == (1, 2, 3)
    assert all(len(nb) == 3 for nb in t.neighbors)


def test_grid_topology_2x3():
    t = Topology.grid(6, B20, 0.5, 2.0)
    # layout: 0 1 2 / 3 4 5
    assert t.neighbors[0] == (1, 3)
    assert t.neighbors[1] == (0, 2, 4)
    assert t.neighbors[4] == (1, 3, 5)


def test_grid_topology_3x3_center():
    t = Topology.grid(9, B20, 0.5, 2.0)
    assert t.neighbors[4] == (1, 3, 5, 7)
    assert t.neighbors[0] == (1, 3)


def test_topology_validation():
    with pytest.raises(ConfigError):
        Topology(2, ((1,), ()), B20, 0.5, 2.0)  # asymmetric
    with pytest.raises(ConfigError):
        Topology(2, ((0,), (0,)), B20, 0.5, 2.0)  # self-neighbour
    with pytest.raises(ConfigError):
        Topology(1, ((),), 0.0, 0.5, 2.0)  # zero bandwidth


# ---------------------------------------------------------------------------
# mobility and user counting
# ---------------------------------------------------------------------------


def reset_users(groups, mask_values):
    """User counts of ``reset()`` on one cell, one slice per (group size,
    constant mask value)."""
    masks = tuple(TrafficMask(((0.0, v),), period=100.0) for v in mask_values)
    sc = make_scenario(one_cell(), lam_ue=(3e6,) * len(groups), groups=groups, masks=masks)
    return SliceEnv(sc, 0).reset().users[0]


def test_active_user_target_rounding():
    users = reset_users((32, 32, 6, 5, 4), (1.0, 0.0, 0.2, 0.5, 0.125))
    # 6 * 0.2 = 1.2 rounds down; 5 * 0.5 = 2.5 and 4 * 0.125 = 0.5 round half-up
    assert users.tolist() == [[32, 0, 1, 3, 1]]


def test_zero_mask_means_no_users():
    assert reset_users((32,), (0.0,)).sum() == 0


def test_full_mask_single_cell():
    assert reset_users((32,), (1.0,))[0, 0] == 32


def test_walk_conserves_population_and_alignment():
    topo = Topology.ring(4, B20, 0.5, 2.0)
    rng = np.random.default_rng(7)
    pos = rng.integers(0, 4, size=(2, 16))
    out = walk_users(np.random.default_rng(1), topo, pos, p_stay=0.8, steps=1)
    assert out.shape == (1,) + pos.shape
    assert ((0 <= out) & (out < 4)).all()
    # same seed, same input -> identical walk
    out2 = walk_users(np.random.default_rng(1), topo, pos, p_stay=0.8, steps=1)
    assert np.array_equal(out, out2)


def test_walk_stays_when_no_neighbors():
    topo = Topology.ring(1, B20, 0.5, 2.0)
    pos = np.zeros((1, 8), dtype=int)
    out = walk_users(np.random.default_rng(0), topo, pos, p_stay=0.0, steps=1)
    assert np.array_equal(out[0], pos)


def test_walk_p_stay_one_freezes_users():
    topo = Topology.ring(5, B20, 0.5, 2.0)
    pos = np.arange(10).reshape(2, 5) % 5
    out = walk_users(np.random.default_rng(3), topo, pos, p_stay=1.0, steps=1)
    assert np.array_equal(out[0], pos)


# ---------------------------------------------------------------------------
# offered traffic
# ---------------------------------------------------------------------------


def test_offered_traffic_values():
    # one uncoupled cell with ample capacity (100 Mbit/s a slice) serves
    # each slice's users times its per-user demand
    masks = (TrafficMask(((0.0, 0.0),), period=100.0), TrafficMask(((0.0, 1.0),), period=100.0))
    for users in (10, 20):
        sc = make_scenario(one_cell(se=10.0), lam_ue=(2e6, 3e6), groups=(users, users),
                           masks=masks)
        env = SliceEnv(sc, 0)
        env.reset()
        st = draw_and_step(env, np.array([[[0.0, 0.5, 0.5]]]))
        assert st.users.tolist() == [[[0, users]]]
        served = st.throughput[0] * st.users[0]
        assert served[0, 0] == 0.0
        assert served[0, 1] == pytest.approx(users * 3e6)
        assert st.load[0, 0, 1] == pytest.approx(users * 3e6 / 100e6)


# ---------------------------------------------------------------------------
# coupled-load fixed point
# ---------------------------------------------------------------------------


def plain_iteration_oracle(topo, alloc, lam, iters):
    """Literal re-statement of the load map, iterated a fixed number of times."""
    loads = np.zeros_like(lam, dtype=float)
    for _ in range(iters):
        cell_load = loads.sum(axis=1)
        nxt = np.zeros_like(loads)
        for k in range(topo.cell_count):
            inter = sum(cell_load[j] for j in topo.neighbors[k])
            for n in range(lam.shape[1]):
                cap = alloc[k, n + 1] * topo.bandwidth_hz * topo.se_max / (1 + topo.coupling * inter)
                if lam[k, n] == 0:
                    nxt[k, n] = 0.0
                elif cap <= 0:
                    nxt[k, n] = 1.0
                else:
                    nxt[k, n] = min(1.0, lam[k, n] / cap)
        loads = nxt
    return loads


def test_single_cell_closed_form():
    topo = one_cell()
    alloc = np.array([[0.5, 0.5]])
    lam = np.array([[10e6]])
    loads, ok, _ = solve_coupled_loads(topo, alloc, lam)
    assert ok
    assert loads[0, 0] == pytest.approx(0.5, abs=1e-9)


def test_zero_traffic_zero_load():
    topo = Topology.ring(3, B20, 1.0, 2.0)
    alloc = np.tile([0.2, 0.4, 0.4], (3, 1))
    loads, ok, _ = solve_coupled_loads(topo, alloc, np.zeros((3, 2)))
    assert ok
    assert np.all(loads == 0.0)


def test_two_cell_symmetric_fixed_point():
    # symmetric pair: l = 0.25 (1 + l)  =>  l = 1/3
    topo = Topology(2, ((1,), (0,)), B20, 1.0, 2.0)
    alloc = np.array([[0.5, 0.5], [0.5, 0.5]])
    lam = np.full((2, 1), 5e6)
    loads, ok, _ = solve_coupled_loads(topo, alloc, lam)
    assert ok
    assert np.allclose(loads, 1.0 / 3.0, atol=2e-6)
    oracle = plain_iteration_oracle(topo, alloc, lam, iters=10_000)
    assert np.allclose(loads, oracle, atol=2e-6)


def test_zero_capacity_with_demand_saturates():
    topo = one_cell()
    alloc = np.array([[1.0, 0.0]])  # nothing allocated to the slice
    loads, ok, _ = solve_coupled_loads(topo, alloc, np.array([[1e6]]))
    assert ok
    assert loads[0, 0] == 1.0


def test_nonconvergence_is_flagged_not_fatal():
    topo = Topology(2, ((1,), (0,)), B20, 1.0, 2.0)
    alloc = np.array([[0.5, 0.5], [0.5, 0.5]])
    lam = np.full((2, 1), 5e6)
    loads, ok, its = solve_coupled_loads(topo, alloc, lam, max_iter=2)
    assert not ok
    assert its == 2
    assert np.isfinite(loads).all()


def test_solver_matches_plain_iteration_on_random_cases():
    rng = np.random.default_rng(42)
    topo = Topology.ring(3, B20, 0.3, 2.0)
    for _ in range(5):
        raw = rng.random((3, 3))
        alloc = raw / raw.sum(axis=1, keepdims=True)
        lam = rng.random((3, 2)) * 15e6
        loads, ok, _ = solve_coupled_loads(topo, alloc, lam)
        assert ok
        oracle = plain_iteration_oracle(topo, alloc, lam, iters=10_000)
        assert np.allclose(loads, oracle, atol=5e-6)
        assert np.all(loads >= 0) and np.all(loads <= 1)


def test_iterates_monotone_from_zero():
    # the load map is monotone, so iterating from zero climbs towards the
    # least fixed point without ever overshooting
    rng = np.random.default_rng(9)
    topo = Topology.ring(3, B20, 0.5, 2.0)
    raw = rng.random((3, 3))
    alloc = raw / raw.sum(axis=1, keepdims=True)
    lam = rng.random((3, 2)) * 20e6
    prev = np.zeros((3, 2))
    for i in range(1, 60):
        cur = plain_iteration_oracle(topo, alloc, lam, iters=i)
        assert np.all(cur >= prev - 1e-12)
        prev = cur


def test_fixed_point_monotone_in_demand():
    # raising one slice's offered traffic cannot lower any load component
    topo = Topology.ring(3, B20, 0.3, 2.0)
    alloc = np.tile([0.2, 0.4, 0.4], (3, 1))
    lam = np.full((3, 2), 6e6)
    base, ok, _ = solve_coupled_loads(topo, alloc, lam)
    assert ok
    bumped = lam.copy()
    bumped[1, 0] *= 1.5
    after, ok, _ = solve_coupled_loads(topo, alloc, bumped)
    assert ok
    assert np.all(after >= base - 1e-9)


# ---------------------------------------------------------------------------
# KPI computation
# ---------------------------------------------------------------------------


def kpi_inputs(load_value, users=4, lam_val=4e6, alloc_val=0.5):
    topo = one_cell()
    alloc = np.array([[1.0 - alloc_val, alloc_val]])
    lam = np.array([[float(lam_val)]])
    loads = np.array([[float(load_value)]])
    return topo, alloc, lam, loads, np.array([[users]])


@pytest.mark.parametrize("bandwidth, coupling, se_max, message", [
    (B20, math.nan, 2.0, "coupling"),
    (B20, math.inf, 2.0, "coupling"),
    (math.inf, 0.3, 2.0, "bandwidth_hz and se_max"),
    (B20, 0.3, math.nan, "bandwidth_hz and se_max"),
    # finite, but the peak of a full share overflows, or does so only once the
    # simplex tolerance is added to it
    (1e300, 0.3, 1e9, "overflows"),
    (sys.float_info.max, 0.0, 1.0, "overflows"),
])
def test_topology_that_could_make_a_capacity_not_a_number_rejected(bandwidth, coupling,
                                                                   se_max, message):
    for cells in (1, 3):
        with pytest.raises(ConfigError, match=message):
            Topology.ring(cells, bandwidth, coupling, se_max)


def test_delay_at_zero_load_is_base():
    topo, alloc, lam, loads, users = kpi_inputs(0.0)
    st = compute_kpis(topo, alloc, lam, loads, users, t=1)
    assert st.delay[0, 0] == pytest.approx(5e-4)


def test_delay_at_half_load_doubles():
    topo, alloc, lam, loads, users = kpi_inputs(0.5)
    st = compute_kpis(topo, alloc, lam, loads, users, t=1)
    assert st.delay[0, 0] == pytest.approx(1.0e-3)


def test_delay_capped_near_saturation():
    topo, alloc, lam, loads, users = kpi_inputs(1.0)
    st = compute_kpis(topo, alloc, lam, loads, users, t=1)
    assert st.delay[0, 0] == pytest.approx(5e-4 / 0.01)


def test_uncongested_serves_all_demand():
    # capacity 0.5 * 20e6 * 2 = 20e6 > lam = 4e6 -> everything served
    topo, alloc, lam, loads, users = kpi_inputs(0.2, users=4, lam_val=4e6)
    st = compute_kpis(topo, alloc, lam, loads, users, t=1)
    assert st.throughput[0, 0] * users[0, 0] == pytest.approx(4e6)


def test_idle_slice_kpi_convention():
    topo, alloc, lam, loads, users = kpi_inputs(0.4, users=0, lam_val=0.0)
    st = compute_kpis(topo, alloc, lam, loads, users, t=1)
    assert st.throughput[0, 0] == 0.0
    assert st.delay[0, 0] == pytest.approx(5e-4)


def test_served_traffic_conservation():
    rng = np.random.default_rng(5)
    topo = Topology.ring(3, B20, 0.4, 2.0)
    raw = rng.random((3, 3))
    alloc = raw / raw.sum(axis=1, keepdims=True)
    lam = rng.random((3, 2)) * 25e6
    loads, _, _ = solve_coupled_loads(topo, alloc, lam)
    users = rng.integers(1, 8, size=(3, 2))
    st = compute_kpis(topo, alloc, lam, loads, users, t=3)
    served = st.throughput * users
    # on a 3-ring every cell neighbours the other two
    neighbour_load = loads.sum() - loads.sum(axis=1)
    cap = alloc[:, 1:] * B20 * 2.0 / (1.0 + 0.4 * neighbour_load)[:, None]
    assert np.all(served <= lam + 1e-6)
    assert np.all(served <= cap + 1e-6)


# ---------------------------------------------------------------------------
# allocation validation
# ---------------------------------------------------------------------------


def test_validate_allocation_accepts_simplex():
    a = np.array([[[0.2, 0.5, 0.3]]])
    out = validate_allocation(a, 1, 2)
    assert out is not None and np.array_equal(out, a)


def test_validate_allocation_rejects_bad_sum():
    with pytest.raises(ConstraintViolationError):
        validate_allocation(np.array([[[0.2, 0.5, 0.4]]]), 1, 2)


def test_validate_allocation_rejects_negative_and_nan():
    with pytest.raises(ConstraintViolationError):
        validate_allocation(np.array([[[-0.1, 0.7, 0.4]]]), 1, 2)
    with pytest.raises(ConstraintViolationError):
        validate_allocation(np.array([[[np.nan, 0.5, 0.5]]]), 1, 2)


def test_validate_allocation_rejects_wrong_shape():
    with pytest.raises(ConstraintViolationError):
        validate_allocation(np.array([[[0.5, 0.5]]]), 1, 2)
    # one step's (K, N+1) matrix without the step axis is refused too
    with pytest.raises(ConstraintViolationError, match=r"\(1, 3\) is not a \(T, 1, 3\) stack"):
        validate_allocation(np.array([[0.2, 0.5, 0.3]]), 1, 2)


def test_validate_allocation_tolerance_boundary():
    a = np.array([[[0.2, 0.5, 0.3 + 9e-10]]])
    validate_allocation(a, 1, 2)  # within 1e-9, accepted


def _over_one(excess):
    """One cell's allocation with an entry of 1 + ``excess`` * atol, its
    sum kept at 1 by two entries just inside the lower tolerance."""
    return np.array([[-0.5 * excess * SIMPLEX_ATOL, 1 + excess * SIMPLEX_ATOL,
                      -0.5 * excess * SIMPLEX_ATOL]])


def test_validate_allocation_upper_tolerance_boundary():
    validate_allocation(_over_one(0.5)[None], 1, 2)
    with pytest.raises(ConstraintViolationError, match=r"outside \[0, 1\]"):
        validate_allocation(_over_one(1.5)[None], 1, 2)


def test_validate_allocation_upper_tolerance_boundary_in_a_stack():
    ok = np.array([[[0.2, 0.5, 0.3]]] * 4)
    stack = ok.copy()
    stack[2] = _over_one(0.5)
    validate_allocation(stack, 1, 2, step=10)
    stack[3] = _over_one(1.5)
    with pytest.raises(ConstraintViolationError, match=r"^step 13: .*outside \[0, 1\]"):
        validate_allocation(stack, 1, 2, step=10)


# ---------------------------------------------------------------------------
# environment stepping
# ---------------------------------------------------------------------------


def draw_and_step(env, alloc):
    """Draw as many steps as the stack ``alloc`` holds and step them."""
    env.draw(len(alloc))
    return env.step(alloc)


def test_env_determinism():
    topo = Topology.ring(3, B20, 0.3, 2.0)
    sc = make_scenario(topo, lam_ue=(3e6, 2e6), groups=(8, 8),
                       masks=(TrafficMask(((0.0, 0.2), (50.0, 1.0)), period=100.0),
                              TrafficMask(((0.0, 1.0), (50.0, 0.2)), period=100.0)))
    rng = np.random.default_rng(11)
    seq = []
    for _ in range(25):
        raw = rng.random((3, 3))
        seq.append(raw / raw.sum(axis=1, keepdims=True))

    def run(seed):
        env = SliceEnv(sc, seed)
        env.reset()
        return [draw_and_step(env, a[None]) for a in seq]

    sa, sb = run(123), run(123)
    for x, y in zip(sa, sb):
        assert np.array_equal(x.throughput, y.throughput)
        assert np.array_equal(x.delay, y.delay)
        assert np.array_equal(x.load, y.load)
        assert np.array_equal(x.users, y.users)


def test_env_zero_mask_yields_zero_throughput():
    topo = one_cell()
    sc = make_scenario(topo, masks=(TrafficMask(((0.0, 0.0),), period=100.0),))
    env = SliceEnv(sc, 0)
    env.reset()
    for _ in range(5):
        st = draw_and_step(env, np.array([[[0.5, 0.5]]]))
        assert st.users.sum() == 0
        assert np.all(st.throughput == 0.0)


def test_env_mask_evaluated_after_time_advances():
    topo = one_cell()
    mask = TrafficMask(((0.0, 0.0), (1.0, 1.0)), period=1000.0)
    sc = make_scenario(topo, groups=(6,), masks=(mask,))
    env = SliceEnv(sc, 2)
    st0 = env.reset()
    assert st0.users.sum() == 0  # mask value 0 at t=0
    st1 = draw_and_step(env, np.array([[[0.5, 0.5]]]))
    assert st1.t.tolist() == [1]
    assert st1.users.sum() == 6  # mask value 1 at t=1


def test_env_state_carries_the_mask_values_of_its_time():
    topo = Topology.grid(6, B20, 0.2, 2.0)
    masks = (TrafficMask(((0.0, 0.2), (7.0, 1.0)), period=13.0),
             TrafficMask(((2.0, 1.0), (9.0, 0.0)), period=11.0))
    sc = make_scenario(topo, lam_ue=(3e6, 2e6), groups=(12, 12), masks=masks)
    env = SliceEnv(sc, 4)
    states = [env.reset()]
    alloc = np.full((1, 6, 3), 1.0 / 3.0)
    states += [draw_and_step(env, alloc) for _ in range(30)]
    for st in states:
        assert st.mask.tolist() == [[m.value(t) for m in masks] for t in st.t.tolist()]


def test_env_monotone_allocation_sweep():
    # single cell, static demand of 30 Mbit/s against 40 Mbit/s full capacity:
    # served traffic climbs with the slice share until the slice is uncongested
    topo = one_cell()
    sc = make_scenario(topo, lam_ue=(3e6,), groups=(10,))
    served = []
    for share in np.arange(0.1, 0.95, 0.1):
        env = SliceEnv(sc, 7)
        env.reset()
        st = draw_and_step(env, np.array([[[1.0 - share, share]]]))
        served.append(float(st.throughput[0, 0, 0] * st.users[0, 0, 0]))
    for lo, hi in zip(served, served[1:]):
        assert hi >= lo - 1e-6
    assert served[1] > served[0]
    assert served[-1] == pytest.approx(30e6)  # uncongested at 0.9 share


def test_env_rejects_off_simplex_action():
    topo = one_cell()
    sc = make_scenario(topo)
    env = SliceEnv(sc, 0)
    env.reset()
    with pytest.raises(ConstraintViolationError):
        draw_and_step(env, np.array([[[0.3, 0.3]]]))


def test_env_does_not_mutate_allocation():
    topo = one_cell()
    sc = make_scenario(topo)
    env = SliceEnv(sc, 0)
    env.reset()
    a = np.array([[[0.25, 0.75]]])
    keep = a.copy()
    draw_and_step(env, a)
    assert np.array_equal(a, keep)


def test_env_requires_reset():
    env = SliceEnv(make_scenario(one_cell()), 0)
    with pytest.raises(RuntimeError):
        env.step(np.array([[[0.5, 0.5]]]))


def _states_bytes(st):
    return [np.asarray(getattr(st, f)).tobytes() for f in (
        "throughput", "delay", "load", "users", "t", "fp_converged", "mask")]


def test_env_step_refuses_a_single_allocation_and_names_the_stack_shape():
    sc = make_scenario(Topology.grid(6, B20, 0.2, 2.0), lam_ue=(3e6, 2e6), groups=(12, 12))
    env = SliceEnv(sc, 5)
    env.reset()
    alloc = np.full((6, 3), 1.0 / 3.0)
    env.draw(1)
    with pytest.raises(ConstraintViolationError, match=r"\(6, 3\) is not a \(T, 6, 3\) stack"):
        env.step(alloc)


def test_env_step_with_nothing_drawn_raises_and_leaves_the_stream():
    topo = Topology.grid(6, B20, 0.2, 2.0)
    masks = (TrafficMask(((0.0, 0.2), (7.0, 1.0)), period=13.0),
             TrafficMask(((2.0, 1.0), (9.0, 0.0)), period=11.0))
    sc = make_scenario(topo, lam_ue=(3e6, 2e6), groups=(12, 12), masks=masks, p_stay=0.5)
    env, fresh = SliceEnv(sc, 9), SliceEnv(sc, 9)
    assert _states_bytes(env.reset()) == _states_bytes(fresh.reset())
    raw = np.random.default_rng(8).random((3, 6, 3))
    alloc = raw / raw.sum(axis=-1, keepdims=True)
    with pytest.raises(RuntimeError, match=r"draw\(\) before step\(\)"):
        env.step(alloc)
    assert env.t == 0
    # the refused step drew nothing: the next block is a fresh run's first
    users = env.draw(3)
    assert users.tobytes() == fresh.draw(3).tobytes()
    got = env.step(alloc)
    assert got.users.tobytes() == users.tobytes()
    assert _states_bytes(got) == _states_bytes(fresh.step(alloc))
    # a stepped block is spent: stepping it again raises
    with pytest.raises(RuntimeError, match=r"draw\(\) before step\(\)"):
        env.step(alloc)
    assert env.t == 3
