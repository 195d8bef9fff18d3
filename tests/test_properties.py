"""Property tests for the core invariants: the action simplex, traffic-mask
evaluation, the environment's user counts and monotonicity of the
coupled-load fixed point; and exactness
tests of the whole-array environment step, the load solve, the mask
lookup, observations, messages and rewards against the code they
replaced, kept here as literal references.

``derandomize=True`` makes hypothesis draw the same cases on every run, so
the suite stays deterministic and its cost fixed.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slicesim.mdp import (
    RewardSpec,
    StateScaling,
    extract_message,
    global_state,
    local_state,
    project_or_reject,
    reward_global,
    reward_local,
)
from slicesim.netsim import (
    SIMPLEX_ATOL,
    TOPOLOGY_BUILDERS,
    NetState,
    Scenario,
    SliceEnv,
    SliceSpec,
    Topology,
    TrafficMask,
    solve_coupled_loads,
    walk_users,
)

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None)


def _rows(elements):
    return hnp.arrays(float, st.tuples(st.integers(1, 6), st.integers(2, 5)), elements=elements)


@PROPERTY
@given(_rows(st.floats(-2.0, 2.0)))
def test_project_or_reject_lands_on_the_simplex(proposal):
    out = project_or_reject(proposal)
    assert out.shape == proposal.shape
    assert (out >= 0.0).all()
    assert np.abs(out.sum(axis=-1) - 1.0).max() <= SIMPLEX_ATOL


@PROPERTY
@given(_rows(st.floats(0.0, 1.0)), st.data())
def test_project_or_reject_passes_on_simplex_rows_through(raw, data):
    # put a random subset of rows on the simplex, their sums off 1 by less
    # than the tolerance, so renormalizing them would change their bits
    n = len(raw)
    on = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    slack = np.array(data.draw(st.lists(st.floats(-0.5 * SIMPLEX_ATOL, 0.5 * SIMPLEX_ATOL),
                                        min_size=n, max_size=n)))
    sums = raw.sum(axis=-1, keepdims=True)
    scaled = raw * ((1.0 + slack[:, None]) / np.where(sums > 0.0, sums, 1.0))
    proposal = np.where(on[:, None] & (sums > 0.0), scaled, raw)
    ok = (proposal >= 0.0).all(axis=-1) & (np.abs(proposal.sum(axis=-1) - 1.0) <= SIMPLEX_ATOL)
    out = project_or_reject(proposal)
    assert np.array_equal(out[ok], proposal[ok])


@st.composite
def masks(draw):
    period = float(draw(st.integers(1, 1000)))
    times = sorted(draw(st.lists(st.floats(0.0, period, exclude_max=True),
                                 min_size=1, max_size=6, unique=True)))
    values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(times), max_size=len(times)))
    return TrafficMask(tuple(zip(times, values)), period=period)


@PROPERTY
@given(masks(), st.integers(0, 10 ** 6), st.integers(1, 100))
def test_mask_value_stays_in_breakpoint_range_and_repeats(mask, t, periods):
    values = [v for _, v in mask.breakpoints]
    v = mask.value(t)
    assert min(values) - 1e-12 <= v <= max(values) + 1e-12
    # integer times and periods keep the wrap-around exact
    assert mask.value(t + periods * int(mask.period)) == v


@PROPERTY
@given(st.sampled_from(["ring", "grid", "full"]), st.integers(1, 9), st.integers(1, 3),
       st.floats(0.0, 0.5), st.data())
def test_loads_never_fall_as_offered_traffic_rises(kind, cells, slices, coupling, data):
    topo = TOPOLOGY_BUILDERS[kind](cells, 20e6, coupling, 2.0)
    raw = data.draw(hnp.arrays(float, (cells, slices + 1), elements=st.floats(0.01, 1.0)))
    alloc = raw / raw.sum(axis=1, keepdims=True)
    demand = hnp.arrays(float, (cells, slices), elements=st.floats(0.0, 30e6))
    offered = data.draw(demand)
    raised = offered + data.draw(demand)
    # a tight tolerance keeps both solves well within the margin checked
    base, ok_base, _ = solve_coupled_loads(topo, alloc, offered, tol=1e-12, max_iter=20000)
    after, ok_after, _ = solve_coupled_loads(topo, alloc, raised, tol=1e-12, max_iter=20000)
    assert ok_base and ok_after
    assert np.all(after >= base - 1e-9)


topologies = st.builds(lambda kind, cells, coupling: TOPOLOGY_BUILDERS[kind](cells, 20e6, coupling, 2.0),
                       st.sampled_from(["ring", "grid", "full"]), st.integers(1, 9),
                       st.floats(0.0, 1.0))


# constant masks at values that put group_size * mask on a half, where
# rounding half-up and half-down part
exact_masks = st.builds(lambda v: TrafficMask(((0.0, v),), period=10.0),
                        st.sampled_from([0.0, 0.125, 0.25, 0.5, 0.75, 1.0]))


@PROPERTY
@given(topologies, st.integers(1, 3), st.floats(0.0, 1.0), st.integers(0, 8),
       st.integers(0, 2 ** 32), st.data())
def test_user_counts_follow_the_rounded_mask(topo, slices, p_stay, steps, seed, data):
    k = topo.cell_count
    groups = tuple(data.draw(st.lists(st.integers(1, 12), min_size=slices, max_size=slices)))
    slice_masks = tuple(data.draw(st.lists(st.one_of(exact_masks, masks()),
                                           min_size=slices, max_size=slices)))
    spec = SliceSpec((5e6,) * slices, (1e-3,) * slices, (3e6,) * slices)
    env = SliceEnv(Scenario(topo, spec, slice_masks, groups, p_stay=p_stay), seed)
    alloc = np.full((k, slices + 1), 1.0 / (slices + 1))
    states = [env.reset()] + [env.step(alloc) for _ in range(steps)]
    for net in states:
        want = [math.floor(g * m.value(net.t) + 0.5) for g, m in zip(groups, slice_masks)]
        assert net.users.shape == (k, slices)
        assert (net.users >= 0).all()
        assert net.users.sum(axis=0).tolist() == want


# ---------------------------------------------------------------------------
# whole-array code against the loops it replaced
# ---------------------------------------------------------------------------

def reference_walk_users(rng, topology, positions, p_stay):
    """The per-user loop ``walk_users`` replaced."""
    new_pos = positions.copy()
    flat = new_pos.ravel()
    move = rng.random(flat.shape[0]) >= p_stay
    draws = rng.random(flat.shape[0])  # drawn unconditionally to keep the stream aligned
    for i in np.nonzero(move)[0]:
        nbrs = topology.neighbors[flat[i]]
        if nbrs:
            flat[i] = nbrs[int(draws[i] * len(nbrs))]
    return new_pos


@PROPERTY
@given(topologies, st.integers(1, 3), st.integers(1, 40),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.integers(0, 2 ** 32),
       st.data())
def test_walk_users_matches_the_per_user_loop(topo, slices, users, p_stay, seed, data):
    positions = data.draw(hnp.arrays(np.int64, (slices, users),
                                     elements=st.integers(0, topo.cell_count - 1)))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = walk_users(rng, topo, positions, p_stay)
    want = reference_walk_users(ref_rng, topo, positions, p_stay)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert rng.random() == ref_rng.random()  # both consumed the same draws


def reference_solve(topology, allocation, offered, tol, max_iter):
    """The ``_load_map`` iteration ``solve_coupled_loads`` replaced."""
    adjacency = np.zeros((topology.cell_count, topology.cell_count))
    for k, nbrs in enumerate(topology.neighbors):
        adjacency[k, list(nbrs)] = 1.0

    def capacity(loads):
        interference = adjacency @ loads.sum(axis=1)
        denom = 1.0 + topology.coupling * interference
        return allocation[:, 1:] * topology.bandwidth_hz * topology.se_max / denom[:, None]

    def load_map(loads):
        cap = capacity(loads)
        out = np.zeros_like(offered)
        pos = offered > 0
        served_pos = pos & (cap > 0)
        out[served_pos] = np.minimum(1.0, offered[served_pos] / cap[served_pos])
        out[pos & (cap <= 0)] = 1.0
        return out

    loads = np.zeros_like(offered, dtype=float)
    for it in range(1, max_iter + 1):
        nxt = load_map(loads)
        delta = np.max(np.abs(nxt - loads)) if loads.size else 0.0
        loads = nxt
        if delta <= tol:
            return loads, True, it
    return loads, False, max_iter


# up to 30 cells; 8 slices or more reach numpy's pairwise sum of a row
wide_topologies = st.builds(
    lambda kind, cells, coupling: TOPOLOGY_BUILDERS[kind](cells, 20e6, coupling, 2.0),
    st.sampled_from(["ring", "grid", "full"]), st.integers(1, 30), st.floats(0.0, 1.0))


@settings(PROPERTY, max_examples=200)
@given(wide_topologies, st.integers(1, 9), st.sampled_from([1e-6, 1e-12, 0.0, 1.0]),
       st.integers(0, 12), st.data())
def test_solve_coupled_loads_matches_the_load_map_loop(topo, slices, tol, max_iter, data):
    k = topo.cell_count

    def sparse(low, high):
        # distinct values, so that the order of a row sum shows in its bits,
        # with zeros at random entries
        values = data.draw(hnp.arrays(float, (k, slices), elements=st.floats(low, high),
                                      unique=True))
        return np.where(data.draw(hnp.arrays(bool, (k, slices))), 0.0, values)

    # zero slice shares give zero capacity; zero entries give no traffic
    share = sparse(0.01, 1.0)
    headroom = data.draw(hnp.arrays(float, (k, 1), elements=st.floats(0.01, 1.0)))
    raw = np.concatenate([headroom, share], axis=1)
    alloc = raw / raw.sum(axis=1, keepdims=True)
    # traffic up to twice the peak of an even split, so that loads short of
    # 1 are common at every slice count
    offered = sparse(0.0, 2 * 40e6 / (slices + 1))
    # one round is a cut-off for every instance with traffic; a tolerance of
    # 1 converges in round 1 and zero rounds return the zero loads
    for cut in (1, max_iter):
        loads, converged, iterations = solve_coupled_loads(topo, alloc, offered, tol, cut)
        ref_loads, ref_converged, ref_iterations = reference_solve(topo, alloc, offered, tol, cut)
        assert loads.tobytes() == ref_loads.tobytes()
        assert (converged, iterations) == (ref_converged, ref_iterations)


def _raises_fp_error(solve):
    with np.errstate(all="raise"):
        try:
            solve()
        except FloatingPointError:
            return True
    return False


@pytest.mark.parametrize("topo, alloc, offered", [
    # a positive peak whose capacity rounds to zero once the neighbours load
    (Topology.ring(3, 1.0, 1.0, 1.0), [[0.5, 5e-324, 0.5], [0.2, 0.4, 0.4], [0.2, 0.4, 0.4]],
     [[1e-320, 1e6], [1e6, 1e6], [1e6, 1e6]]),
    # a coupling whose denominators overflow once the neighbours load
    (Topology.ring(3, 20e6, 1e308, 2.0), [[0.2, 0.4, 0.4]] * 3, [[1e6, 3e7]] * 3),
])
def test_solve_coupled_loads_matches_the_load_map_loop_on_degenerate_inputs(topo, alloc, offered):
    alloc, offered = np.array(alloc), np.array(offered)

    def solve():
        return solve_coupled_loads(topo, alloc, offered, 1e-6, 50)

    def reference():
        return reference_solve(topo, alloc, offered, 1e-6, 50)

    # no floating-point error the load map itself does not raise
    assert _raises_fp_error(solve) <= _raises_fp_error(reference)
    with np.errstate(all="ignore"):
        (loads, *rest), (ref_loads, *ref_rest) = solve(), reference()
    assert loads.tobytes() == ref_loads.tobytes()
    assert rest == ref_rest


def reference_mask_value(mask, t):
    """The ``np.searchsorted`` body ``TrafficMask.value`` replaced."""
    pts = mask.breakpoints
    if len(pts) == 1:
        return pts[0][1]
    tau = float(t) % mask.period
    times = [p[0] for p in pts]
    if tau < times[0]:
        t0, v0 = pts[-1]
        t1, v1 = pts[0]
        t0 -= mask.period
    else:
        idx = int(np.searchsorted(times, tau, side="right")) - 1
        t0, v0 = pts[idx]
        if idx + 1 < len(pts):
            t1, v1 = pts[idx + 1]
        else:
            t1, v1 = pts[0]
            t1 += mask.period
    if t1 == t0:
        return v0
    w = (tau - t0) / (t1 - t0)
    return v0 + w * (v1 - v0)


@PROPERTY
@given(masks(), st.data())
def test_mask_value_matches_the_searchsorted_lookup(mask, data):
    # a breakpoint's own time sits on the boundary of two segments
    times = [t for t, _ in mask.breakpoints]
    t = data.draw(st.one_of(st.sampled_from(times), st.integers(0, 10 ** 6),
                            st.floats(0.0, 1e6)))
    assert mask.value(t).hex() == float(reference_mask_value(mask, t)).hex()


def reference_reward_local(net, spec, k):
    """The per-slice loop ``reward_local`` replaced."""
    worst = 1.0
    any_active = False
    for n in range(net.slice_count):
        if net.users[k, n] == 0:
            continue
        any_active = True
        term = net.throughput[k, n] / spec.throughput_req[n]
        if spec.uses_delay:
            term = min(term, spec.delay_req[n] / net.delay[k, n])
        worst = min(worst, term)
    if not any_active:
        return 1.0
    return float(min(worst, 1.0))


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 3), st.sampled_from(["plain", "delay_aware"]),
       st.data())
def test_rewards_match_the_per_slice_loop(cells, slices, variant, data):
    shape = (cells, slices)
    # few users per entry, so idle slices and fully idle cells are common
    users = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 2)))
    net = NetState(throughput=data.draw(hnp.arrays(float, shape, elements=st.floats(0.0, 12e6))),
                   delay=data.draw(hnp.arrays(float, shape, elements=st.floats(1e-5, 5e-3))),
                   load=np.zeros(shape), users=users, t=1)
    req = tuple(data.draw(st.lists(st.floats(1e5, 1e7), min_size=slices, max_size=slices)))
    delay_req = tuple(data.draw(st.lists(st.floats(1e-4, 2e-3), min_size=slices, max_size=slices)))
    spec = RewardSpec(variant, req, delay_req)
    want = [reference_reward_local(net, spec, k) for k in range(cells)]
    assert reward_local(net, spec).tolist() == want
    assert reward_global(net, spec) == min(want)


def reference_local_state(net, k, scaling):
    """The per-cell observation ``local_state`` replaced."""
    phi = np.minimum(net.throughput[k] / np.asarray(scaling.throughput_req), 1.0)
    users = net.users[k] / np.asarray(scaling.group_size_max, dtype=float)
    return np.concatenate([phi, net.load[k], users])


def reference_global_state(net, scaling):
    """The per-cell loop ``global_state`` replaced."""
    return np.concatenate([reference_local_state(net, k, scaling) for k in range(net.cell_count)])


def reference_extract_message(net, topology, k):
    """The per-cell message ``extract_message`` replaced."""
    nbrs = topology.neighbors[k]
    if not nbrs:
        return np.zeros(net.slice_count)
    return net.load[list(nbrs)].mean(axis=0)


@st.composite
def shuffled_topologies(draw):
    """A ring, grid or full topology with each cell's neighbours in a drawn
    order, and maybe one more cell with no neighbours at all."""
    topo = draw(topologies)
    nbrs = [tuple(draw(st.permutations(n))) for n in topo.neighbors]
    if draw(st.booleans()):
        nbrs.append(())
    return Topology(len(nbrs), tuple(nbrs), topo.bandwidth_hz, topo.coupling, topo.se_max)


@st.composite
def observed_states(draw):
    """A topology and a network state on it, with loads that are often 0 or 1."""
    topo = draw(shuffled_topologies())
    shape = (topo.cell_count, draw(st.integers(1, 3)))
    net = NetState(
        throughput=draw(hnp.arrays(float, shape, elements=st.floats(0.0, 12e6))),
        delay=np.full(shape, 1e-3),
        load=draw(hnp.arrays(float, shape, elements=st.one_of(st.sampled_from([0.0, 1.0]),
                                                              st.floats(0.0, 1.0)))),
        users=draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 8))), t=1)
    return topo, net


@PROPERTY
@given(observed_states(), st.data())
def test_states_match_the_per_cell_functions(observed, data):
    topo, net = observed
    slices = net.slice_count
    scaling = StateScaling(
        throughput_req=tuple(data.draw(st.lists(st.floats(1e5, 1e7), min_size=slices,
                                                max_size=slices))),
        group_size_max=tuple(data.draw(st.lists(st.integers(1, 8), min_size=slices,
                                                max_size=slices))))
    states = local_state(net, scaling)
    want = np.stack([reference_local_state(net, k, scaling) for k in range(topo.cell_count)])
    assert states.shape == (topo.cell_count, 3 * slices)
    assert states.tobytes() == want.tobytes()
    assert global_state(net, scaling).tobytes() == reference_global_state(net, scaling).tobytes()


def loaded_net(load):
    return NetState(throughput=np.zeros(load.shape), delay=np.full(load.shape, 1e-3), load=load,
                    users=np.zeros(load.shape, dtype=np.int64), t=1)


@PROPERTY
@given(observed_states())
# eight neighbours and one slice: numpy adds eight or more contiguous values
# pairwise, not left to right, and the message must add them the same way
@example((Topology.full(9, 20e6, 0.5, 2.0), loaded_net(np.random.default_rng(0).random((9, 1)))))
def test_messages_match_the_per_cell_mean(observed):
    topo, net = observed
    got = extract_message(net, topo)
    want = np.stack([reference_extract_message(net, topo, k) for k in range(topo.cell_count)])
    assert got.shape == want.shape == (topo.cell_count, net.slice_count)
    assert got.tobytes() == want.tobytes()
