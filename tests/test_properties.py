"""Property tests for the core invariants: the action simplex, traffic-mask
evaluation, the environment's user counts and monotonicity of the
coupled-load fixed point; the load solve against the exact least fixed
point of small instances, found by enumerating which entries saturate;
and exactness
tests of the whole-array environment step, the load solve, the mask
lookup, observations, messages and rewards against the code they
replaced, kept here as literal references; stacks of steps (the walk,
the load solve, the KPIs, validation, rewards and efficiencies) against
the same steps one at a time, a stacked solve raising no floating-point
error its steps do not raise alone. ``Mlp.input_grad`` must give
the bits of ``Mlp.backward``'s input gradient, and the runner's block
CSV writer the bytes of the per-row ``repr``/``str`` join. Last, configs
with one or two leaves replaced by a degenerate value (NaN, an infinity,
zero, a negative, a boolean, a subnormal, an empty list, a wrong type)
must either be rejected with the path of a replaced leaf or run every
scheme to finite rewards and KPIs.

``derandomize=True`` makes hypothesis draw the same cases on every run, so
the suite stays deterministic and its cost fixed.
"""

import copy
import csv
import itertools
import json
import math
import sys
import tempfile
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slicesim.harness.config import parse_config
from slicesim.harness.metrics import resource_efficiency
from slicesim.harness.runner import (_BLOCK_CELLS, _block_layout, _write_block, csv_header,
                                      run_single)
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
from slicesim.netsim import (
    SIMPLEX_ATOL,
    ConfigError,
    ConstraintViolationError,
    TOPOLOGY_BUILDERS,
    NetState,
    Scenario,
    SliceEnv,
    SliceSpec,
    Topology,
    TrafficMask,
    _solve_steps,
    compute_kpis,
    solve_coupled_loads,
    validate_allocation,
    walk_users,
)
from slicesim.nn import HEADS, Mlp, MlpSpec
from slicesim.schemes import SCHEME_KINDS

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
    alloc = np.full((1, k, slices + 1), 1.0 / (slices + 1))
    states = [env.reset()]
    for _ in range(steps):
        env.draw(1)
        states.append(env.step(alloc))
    for net in states:
        want = [math.floor(g * m.value(int(net.t[0])) + 0.5) for g, m in zip(groups, slice_masks)]
        assert net.users.shape == (1, k, slices)
        assert (net.users >= 0).all()
        assert net.users.sum(axis=1).tolist() == [want]


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
    got = walk_users(rng, topo, positions, p_stay, 1)[0]
    want = reference_walk_users(ref_rng, topo, positions, p_stay)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert rng.random() == ref_rng.random()  # both consumed the same draws


def reference_adjacency(topology):
    adjacency = np.zeros((topology.cell_count, topology.cell_count))
    for k, nbrs in enumerate(topology.neighbors):
        adjacency[k, list(nbrs)] = 1.0
    return adjacency


def reference_solve(topology, allocation, offered, tol, max_iter):
    """The ``_load_map`` iteration ``solve_coupled_loads`` replaced."""
    adjacency = reference_adjacency(topology)

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


# the benchmark's radio constants, or a full-share peak capacity near the
# float maximum that Topology still accepts
radio_constants = st.one_of(
    st.just((20e6, 2.0)),
    st.tuples(st.floats(0.25, 0.999), st.floats(1.0, 1e12)).map(
        lambda f_se: (f_se[0] * sys.float_info.max / f_se[1], f_se[1])))

# up to 30 cells; 8 slices or more reach numpy's pairwise sum of a row;
# couplings up to 1e308 make the denominators overflow once neighbours load
wide_topologies = st.builds(
    lambda kind, cells, coupling, radio: TOPOLOGY_BUILDERS[kind](cells, radio[0], coupling,
                                                                 radio[1]),
    st.sampled_from(["ring", "grid", "full"]), st.integers(1, 30),
    st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e308), st.just(1e308)), radio_constants)


def _fp_errors(solve):
    """The result of ``solve()`` and the kinds of floating-point error it met."""
    kinds = set()
    with np.errstate(all="call", call=lambda kind, flag: kinds.add(kind)):
        result = solve()
    return result, kinds


@settings(PROPERTY, max_examples=300)
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
    # subnormal shares at random entries: capacities that round to zero once
    # the neighbours load
    if data.draw(st.booleans()):
        subnormal = data.draw(hnp.arrays(bool, (k, slices)))
        alloc[:, 1:][subnormal] = data.draw(st.sampled_from([5e-324, 1e-310]))
    # traffic up to twice the peak of an even split, so that loads short of
    # 1 are common at every slice count
    offered = sparse(0.0, topo.bandwidth_hz * topo.se_max / (slices + 1) * 2)
    # one round is a cut-off for every instance with traffic; a tolerance of
    # 1 converges in round 1 and zero rounds return the zero loads
    for cut in (1, max_iter):
        (loads, converged, iterations), errors = _fp_errors(
            lambda: solve_coupled_loads(topo, alloc, offered, tol, cut))
        (ref_loads, ref_converged, ref_iterations), ref_errors = _fp_errors(
            lambda: reference_solve(topo, alloc, offered, tol, cut))
        assert loads.tobytes() == ref_loads.tobytes()
        assert (converged, iterations) == (ref_converged, ref_iterations)
        # the load map divides only where a capacity is positive, so a solve
        # that divides by a capacity fallen to 0 must not show it
        assert errors <= ref_errors - {"divide by zero", "invalid value"}


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


def least_fixed_point(topology, allocation, offered):
    """The least fixed point of the load map, solved exactly for a small
    (K, N) instance: no iteration, so it shares no error with the solve.

    An entry with traffic and no capacity is 1 and one without traffic 0; a
    served entry is ``min(1, r_kn * (1 + c * (A L)_k))`` with ``r = offered
    / peak``. Once the saturated served entries are chosen, the cell totals
    L solve ``(I - c * diag(R) A) L = s + R``, with s the entries at 1 and R
    the sum of r over the free entries of each cell. Every saturation
    pattern is tried; the consistent ones (totals not negative, free
    entries at most 1, saturated entries driven to at least 1) are every
    fixed point, and the least is their componentwise minimum.
    """
    k = topology.cell_count
    adjacency = reference_adjacency(topology)
    peak = allocation[:, 1:] * topology.bandwidth_hz * topology.se_max
    served = (offered > 0) & (peak > 0)
    r = np.divide(offered, peak, out=np.zeros_like(offered), where=served)
    blocked = ((offered > 0) & ~served).astype(float)
    least = None
    for pattern in itertools.product([False, True], repeat=int(served.sum())):
        saturated = np.zeros_like(served)
        saturated[served] = pattern
        free = served & ~saturated
        ones = (blocked + saturated).sum(axis=1)
        rates = np.where(free, r, 0.0).sum(axis=1)
        try:
            totals = np.linalg.solve(np.eye(k) - topology.coupling * rates[:, None] * adjacency,
                                     ones + rates)
        except np.linalg.LinAlgError:
            continue
        drive = r * (1.0 + topology.coupling * (adjacency @ totals))[:, None]
        if ((totals < -1e-12).any() or (drive[free] > 1 + 1e-12).any()
                or (drive[saturated] < 1 - 1e-12).any()):
            continue
        loads = np.where(free, drive, blocked + saturated)
        least = loads if least is None else np.minimum(least, loads)
    return least


@st.composite
def small_load_problems(draw):
    """A topology, allocation and traffic with K * N <= 8, and the factor
    ``q = c * N * max(degree_k * r_kn)`` over the served entries by which
    the load map contracts in the max norm where q < 1.

    Zero shares give entries with traffic and no capacity, and traffic up
    to twice the peak saturates entries in round 1. The coupling is drawn
    as a share of the largest that keeps q at most 1, so that q < 0.9 is
    common and the saturation is not only that of round 1."""
    kind, slices = draw(st.sampled_from(["ring", "grid", "full"])), draw(st.integers(1, 4))
    cells = draw(st.integers(1, 8 // slices))
    raw = draw(hnp.arrays(float, (cells, slices + 1), elements=st.floats(0.01, 1.0)))
    raw[:, 1:][draw(hnp.arrays(bool, (cells, slices)))] = 0.0
    alloc = raw / raw.sum(axis=1, keepdims=True)
    peak = alloc[:, 1:] * 20e6 * 2.0
    ratio = draw(hnp.arrays(float, (cells, slices), elements=st.floats(0.0, 2.0)))
    offered = ratio * np.where(peak > 0, peak, 20e6)
    topo = TOPOLOGY_BUILDERS[kind](cells, 20e6, 0.0, 2.0)
    degree = np.array([len(nbrs) for nbrs in topo.neighbors])
    reach = slices * (degree[:, None] * np.where((offered > 0) & (peak > 0), ratio, 0.0)).max()
    coupling = draw(st.floats(0.0, 1.0)) / max(reach, 1.0)
    return replace(topo, coupling=coupling), alloc, offered, coupling * reach


@settings(PROPERTY, max_examples=200)
@given(small_load_problems(), st.sampled_from([1e-6, 1e-13]))
def test_solve_coupled_loads_reaches_the_least_fixed_point(problem, tol):
    topo, alloc, offered, q = problem
    assume(q < 0.9)
    loads, converged, _ = solve_coupled_loads(topo, alloc, offered, tol)
    exact = least_fixed_point(topo, alloc, offered)
    assert converged
    # from zero loads the iterates rise towards the least fixed point, and
    # the last change bounds the distance left by q / (1 - q)
    assert (loads <= exact + 1e-12).all()
    assert (exact - loads).max() <= tol * q / (1 - q) + 1e-12


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


# ---------------------------------------------------------------------------
# stacks of steps against the same steps one at a time
# ---------------------------------------------------------------------------

@PROPERTY
@given(topologies, st.integers(1, 3), st.integers(1, 40), st.integers(1, 6),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), st.integers(0, 2 ** 32),
       st.data())
def test_walk_of_several_steps_matches_as_many_single_steps(topo, slices, users, steps, p_stay,
                                                            seed, data):
    positions = data.draw(hnp.arrays(np.int64, (slices, users),
                                     elements=st.integers(0, topo.cell_count - 1)))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = walk_users(rng, topo, positions, p_stay, steps)
    want, pos = [], positions
    for _ in range(steps):
        pos = walk_users(ref_rng, topo, pos, p_stay, 1)[0]
        want.append(pos)
    assert got.shape == (steps, slices, users) and got.dtype == positions.dtype
    assert np.array_equal(got, np.stack(want))
    assert rng.random() == ref_rng.random()  # both consumed the same draws


@st.composite
def stacked_problems(draw):
    """A topology and T steps' allocations, offered traffic and user counts
    on it; up to 9 slices and 30 cells reach numpy's pairwise sums."""
    topo = draw(wide_topologies)
    k, slices, steps = topo.cell_count, draw(st.integers(1, 9)), draw(st.integers(1, 6))
    raw = draw(hnp.arrays(float, (steps, k, slices + 1), elements=st.floats(0.01, 1.0)))
    alloc = raw / raw.sum(axis=-1, keepdims=True)
    peak = topo.bandwidth_hz * topo.se_max / (slices + 1) * 2
    traffic = draw(hnp.arrays(float, (steps, k, slices), elements=st.floats(0.0, peak)))
    offered = np.where(draw(hnp.arrays(bool, (steps, k, slices))), 0.0, traffic)
    users = draw(hnp.arrays(np.int64, (steps, k, slices), elements=st.integers(0, 3)))
    return topo, alloc, offered, users


@settings(PROPERTY, max_examples=200)
# two steps of which the first converges in round 3 and the second never
# within 3 rounds, so the stack has both kinds
@example((Topology.ring(3, 20e6, 0.3, 2.0), np.full((2, 3, 3), 1 / 3),
          np.array([np.full((3, 2), 1e5), np.full((3, 2), 4e6)]), np.ones((2, 3, 2), int)),
         1e-6, 3)
@given(stacked_problems(), st.sampled_from([1e-6, 1e-12, 0.0, 1.0]),
       st.sampled_from([0, 1, 2, 3, 5, 1000]))
def test_stacked_solve_and_kpis_match_each_step_alone(problem, tol, max_iter):
    topo, alloc, offered, users = problem
    steps = len(alloc)
    with np.errstate(all="ignore"):  # couplings up to 1e308 overflow alike
        loads, converged, iterations = solve_coupled_loads(topo, alloc, offered, tol, max_iter)
        _, rounds, flags = _solve_steps(topo, alloc, offered, tol, max_iter)
        alone = [solve_coupled_loads(topo, a, o, tol, max_iter) for a, o in zip(alloc, offered)]
        loops = [reference_solve(topo, a, o, tol, max_iter) for a, o in zip(alloc, offered)]
        net = compute_kpis(topo, alloc, offered, loads, users, np.arange(1, steps + 1),
                           flags, np.zeros((steps, 1)))
        nets = [compute_kpis(topo, a, o, one[0], u, i + 1)
                for i, (a, o, u, one) in enumerate(zip(alloc, offered, users, alone))]
    assert loads.tobytes() == np.stack([one[0] for one in alone]).tobytes()
    # the stack converged when every step did, in as many rounds as theirs,
    # which the load-map loop counts too
    assert flags.tolist() == [one[1] for one in alone]
    assert rounds.tolist() == [one[2] for one in alone] == [loop[2] for loop in loops]
    assert converged == all(flags) and iterations == sum(rounds)
    assert (net.cell_count, net.slice_count) == (topo.cell_count, alloc.shape[-1] - 1)
    for name in ("throughput", "delay"):
        assert getattr(net, name).tobytes() == np.stack([getattr(one, name)
                                                         for one in nets]).tobytes()


def _example_with_an_early_and_a_late_step():
    """Two steps on a ring with coupling 1e308: step 0 converges in round 3
    and step 1 in round 1, whose loads would saturate in round 2 and make
    a denominator overflow in round 3."""
    alloc = np.full((2, 4, 3), 1 / 3)
    alloc[0, 0] = [32 / 33, 1 / 66, 1 / 66]
    offered = np.zeros((2, 4, 2))
    offered[0, :2, 0] = 1.0
    offered[1, 0] = 1.0
    offered[1, 3, 0] = 1.0
    return Topology.ring(4, 20e6, 1e308, 2.0), alloc, offered, np.ones((2, 4, 2), int)


def _example_with_a_subnormal_step():
    """Step 0 converges in round 12; step 1's one load, 2**-1064, is exact
    in round 1, but the coupling times it underflows in round 2."""
    offered = np.zeros((2, 3, 1))
    offered[0] = 2.0 ** 23
    offered[1, 0] = 2.0 ** -1040
    return (Topology.ring(3, 2.0 ** 24, 0.3, 2.0), np.full((2, 3, 2), 0.5), offered,
            np.ones((2, 3, 1), int))


@settings(PROPERTY, max_examples=200)
# a stack that iterated its converged steps on would overflow in the first
# and underflow in the second, where no step does alone; the second shows it
# even when the steps converged in round 1 start from zero loads
@example(_example_with_an_early_and_a_late_step(), 1e-6, 1000)
@example(_example_with_a_subnormal_step(), 1e-6, 1000)
@given(stacked_problems(), st.sampled_from([1e-6, 1e-12, 0.0, 1.0]),
       st.sampled_from([0, 1, 2, 3, 5, 1000]))
def test_stacked_solve_raises_no_error_its_steps_do_not_alone(problem, tol, max_iter):
    topo, alloc, offered, _ = problem
    _, errors = _fp_errors(lambda: _solve_steps(topo, alloc, offered, tol, max_iter))
    alone = set()
    for a, o in zip(alloc, offered):
        alone |= _fp_errors(lambda: _solve_steps(topo, a[None], o[None], tol, max_iter))[1]
    assert errors <= alone


def _single_problem(allocation, cells, slices):
    """The error ``validate_allocation`` gives one allocation, alone in a
    stack of one, or None."""
    try:
        validate_allocation(allocation[None], cells, slices)
    except ConstraintViolationError as e:
        return str(e)
    return None


@PROPERTY
@given(st.integers(1, 5), st.integers(1, 3), st.integers(1, 6), st.integers(0, 10 ** 4),
       st.data())
def test_stacked_validation_refuses_the_first_step_refused_alone(cells, slices, steps, first,
                                                                 data):
    raw = data.draw(hnp.arrays(float, (steps, cells, slices + 1), elements=st.floats(0.01, 1.0)))
    alloc = raw / raw.sum(axis=-1, keepdims=True)
    # spoil entries of some steps: off the range or the sum, by a little or
    # a lot, or not a number
    for _ in range(data.draw(st.integers(0, 3))):
        i, k, j = (data.draw(st.integers(0, d - 1)) for d in alloc.shape)
        alloc[i, k, j] += data.draw(st.sampled_from(
            [0.5 * SIMPLEX_ATOL, 2 * SIMPLEX_ATOL, -1.0, 0.5, np.nan, np.inf]))
    problems = [_single_problem(a, cells, slices) for a in alloc]
    bad = [i for i, p in enumerate(problems) if p]
    if not bad:
        assert validate_allocation(alloc, cells, slices, step=first) is not None
        return
    with pytest.raises(ConstraintViolationError) as refused:
        validate_allocation(alloc, cells, slices, step=first)
    assert str(refused.value) == f"step {first + bad[0]}: {problems[bad[0]]}"


@PROPERTY
@given(st.integers(1, 6), st.integers(1, 25), st.integers(1, 3),
       st.sampled_from(["plain", "delay_aware"]), st.data())
def test_stacked_rewards_and_efficiency_match_each_step_alone(steps, cells, slices, variant,
                                                              data):
    shape = (steps, cells, slices)
    net = NetState(throughput=data.draw(hnp.arrays(float, shape, elements=st.floats(0.0, 12e6))),
                   delay=data.draw(hnp.arrays(float, shape, elements=st.floats(1e-5, 5e-3))),
                   load=np.zeros(shape),
                   users=data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 2))),
                   t=np.arange(steps))
    spec = RewardSpec(variant, (5e6,) * slices, (1e-3,) * slices, beta=1.2)
    raw = data.draw(hnp.arrays(float, (steps, cells, slices + 1), elements=st.floats(0.0, 1.0)))
    alloc = raw / np.where(raw.sum(axis=-1, keepdims=True) > 0, raw.sum(axis=-1, keepdims=True), 1)
    proposals = data.draw(hnp.arrays(float, alloc.shape, elements=st.floats(-1.0, 2.0)))
    topo = Topology.ring(cells, 20e6, 0.3, 2.0)

    rewards = reward_global(net, spec)
    gaps = np.add.reduce(penalty_gaps(proposals), -1) / cells
    penalized = reward_penalized(rewards, gaps, spec.beta)
    efficiency = resource_efficiency(net, alloc, topo)
    for i in range(steps):
        one = NetState(throughput=net.throughput[i], delay=net.delay[i], load=net.load[i],
                       users=net.users[i], t=i)
        assert reward_local(net, spec)[i].tobytes() == reward_local(one, spec).tobytes()
        reward = reward_global(one, spec)
        gap = float(np.add.reduce(penalty_gaps(proposals[i])) / cells)
        assert (rewards[i], gaps[i], penalized[i]) == (
            reward, gap, reward_penalized(reward, gap, spec.beta))
        assert efficiency[i].tobytes() == resource_efficiency(one, alloc[i], topo).tobytes()


# ---------------------------------------------------------------------------
# the input-gradient pass against backward
# ---------------------------------------------------------------------------


@st.composite
def nets_and_inputs(draw):
    """A plain net or a stack of 1-3 members, any head, 0-2 hidden layers,
    with a batch of 1-5 rows."""
    head = draw(st.sampled_from(HEADS))
    block = draw(st.integers(2, 3)) if head == "softmax_blocks" else 0
    d_out = block * draw(st.integers(1, 3)) if block else draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 12), max_size=2))
    spec = MlpSpec((draw(st.integers(1, 6)), *hidden, d_out), head=head, block_size=block)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    members = draw(st.sampled_from([None, 1, 2, 3]))
    if members is None:
        net, lead = Mlp.init(rng, spec), ()
    else:
        net, lead = Mlp.stack([Mlp.init(rng, spec) for _ in range(members)]), (members,)
    batch = draw(st.sampled_from([1, 2, 5]))
    x = rng.normal(size=lead + (batch, spec.d_in))
    v = rng.normal(size=lead + (batch, spec.d_out))
    return net, x, v


@PROPERTY
@given(nets_and_inputs())
def test_input_grad_matches_the_input_gradient_of_backward(case):
    net, x, v = case
    _, cache = net.forward_cached(x)
    grad_x = net.input_grad(cache, v)
    _, dx = net.backward(cache, v)
    assert grad_x.shape == dx.shape == x.shape
    assert np.array_equal(grad_x, dx)


@PROPERTY
@given(nets_and_inputs())
def test_backward_into_a_bound_gradient_net_matches_a_fresh_buffer(case):
    net, x, v = case
    _, cache = net.forward_cached(x)
    fresh, dx = net.backward(cache, v)
    bound = Mlp.from_flat(net.spec, np.full_like(net.flat, np.nan))
    for _ in range(2):  # the second call writes over the first through the same views
        grads, bound_dx = net.backward(cache, v, out=bound)
        assert all(np.shares_memory(g, bound.flat) for g in grads)
        assert all(np.array_equal(g, f) for g, f in zip(grads, fresh))
        assert np.array_equal(bound_dx, dx)


# ---------------------------------------------------------------------------
# mutated configs: a clean ConfigError or a run with finite numbers
# ---------------------------------------------------------------------------

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHORT = {"explore": 3, "train": 3, "eval": 3}


def toy_data():
    data = json.loads((CONFIGS / "toy.json").read_text())
    data.update(phases=dict(SHORT), agent={"batch_size": 2})
    return data


def grid12_data():
    """The golden tests' 12-cell grid on a short plan."""
    data = json.loads((CONFIGS / "reference.json").read_text())
    data["scenario"].update(topology="grid", cells=12, coupling=0.15)
    for s in data["scenario"]["slices"]:
        s["group_size_max"] = 24
    data.update(phases=dict(SHORT))
    data["agent"]["batch_size"] = 2
    return data


def leaves(node, path=""):
    """(dotted path, key chain) of every scalar in a JSON tree."""
    if isinstance(node, dict):
        items = [(f"{path}.{k}" if path else k, k, v) for k, v in node.items()]
    elif isinstance(node, list):
        items = [(f"{path}[{i}]", i, v) for i, v in enumerate(node)]
    else:
        return [(path, ())]
    return [(p, (key, *chain)) for sub, key, v in items for p, chain in leaves(v, sub)]


# every replacement is small, so no draw can ask for a huge topology, user
# group, network or plan; the zeros and the subnormal, which many leaves
# accept, are drawn half the time, so that enough drawn configs parse and run
ACCEPTABLE = [0, 0.0, -0.0, 5e-324]
REPLACEMENTS = st.one_of(
    st.sampled_from(ACCEPTABLE),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, -0.5, True, False, [], {}, None, "x"]))


def mutated(base):
    paths = leaves(base)
    return st.tuples(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True),
                     st.lists(REPLACEMENTS, min_size=2, max_size=2))


def names_a_mutated_path(message, paths):
    where = message.split(": ", 1)[0]
    return any(p == where or p.startswith((where + ".", where + "[")) for p in paths)


def check_mutated_config(base, picks, values):
    data = copy.deepcopy(base)
    for (_, chain), value in zip(picks, values):
        node = data
        for key in chain[:-1]:
            node = node[key]
        node[chain[-1]] = value
    paths = [p for p, _ in picks]
    try:
        cfg = parse_config(data)
    except ConfigError as e:
        assert names_a_mutated_path(str(e), paths), (str(e), paths)
        return
    with tempfile.TemporaryDirectory() as tmp:
        for kind in SCHEME_KINDS:
            run_single(cfg, kind, 0, Path(tmp) / kind)
            with open(Path(tmp) / kind / "steps.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    for col, v in row.items():
                        # losses are NaN on steps that do not train
                        if col not in ("phase", "critic_loss", "actor_objective"):
                            assert math.isfinite(float(v)), (kind, paths, col, v)


@PROPERTY
@given(mutated(toy_data()))
def test_mutated_toy_config_is_rejected_by_path_or_runs_finite(mutation):
    check_mutated_config(toy_data(), *mutation)


@settings(PROPERTY, max_examples=40)
@given(mutated(grid12_data()))
def test_mutated_grid_config_is_rejected_by_path_or_runs_finite(mutation):
    check_mutated_config(grid12_data(), *mutation)


# floats the block writer must print exactly as repr does: both zeros, NaNs
# with the default and other payloads, the infinities, the smallest
# subnormal, and the values on each side of repr's switches to exponent form
SPECIAL_FLOAT_BITS = np.array([
    0x0000000000000000, 0x8000000000000000, 0x7FF8000000000000, 0x7FF8000000000ABC,
    0xFFF8000000000001, 0x7FF0000000000000, 0xFFF0000000000000, 0x0000000000000001,
], dtype=np.uint64).view(np.float64)
SPECIAL_FLOATS = [1e16, 9999999999999998.0, 1e-4, 1e-5, 0.5, 3e6, 5e-4]
SPECIAL_INTS = [0, 1, -1, 2 ** 63 - 1, -2 ** 63, 10 ** 18]


def _rows_joined(floats, ints, phases, k, n):
    """Reference: the per-row ``repr``/``str`` join the block writer replaced."""
    spans = n + k + 3 * k * n
    lines = []
    for f, i, phase in zip(floats.tolist(), ints.tolist(), phases):
        head = f"{i[0]},{phase},{f[0]!r},{f[1]!r},{f[2]!r},{f[3]!r},{f[4]!r},{i[1]}"
        lines.append(",".join([head, *map(repr, f[5:5 + spans]), *map(str, i[2:]),
                               *map(repr, f[5 + spans:])]) + "\n")
    return "".join(lines)


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.sampled_from(["one", "partial", "full"]),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6),
       st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), max_size=4), st.integers(0, 2 ** 32 - 1))
def test_block_writer_matches_the_per_row_join(cells, slices, size, drawn_floats,
                                               drawn_ints, seed):
    k, n = cells, slices
    block = _BLOCK_CELLS // len(csv_header(k, n))
    rng = np.random.default_rng(seed)
    rows = {"one": 1, "partial": int(rng.integers(2, block)), "full": block}[size]
    float_pool = np.concatenate([SPECIAL_FLOAT_BITS, SPECIAL_FLOATS, drawn_floats,
                                 rng.standard_normal(4)])
    int_pool = np.array(SPECIAL_INTS + drawn_ints + [7, 42], dtype=np.int64)
    # the writer sees whole block tables and formats their first rows only
    floats = float_pool[rng.integers(len(float_pool), size=(block, 5 + n + k + 3 * k * n
                                                              + k * (n + 1)))]
    ints = int_pool[rng.integers(len(int_pool), size=(block, 2 + k * n))]
    phases = [str(p) for p in rng.choice(["explore", "train", "eval"], size=rows)]
    fh = StringIO()
    _write_block(fh, floats, ints, phases, _block_layout(k, n))
    assert fh.getvalue() == _rows_joined(floats[:rows], ints[:rows], phases, k, n)
