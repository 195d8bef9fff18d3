"""Property tests for the core invariants: the action simplex, traffic-mask
evaluation and monotonicity of the coupled-load fixed point.

``derandomize=True`` makes hypothesis draw the same cases on every run, so
the suite stays deterministic and its cost fixed.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from slicesim.mdp import project_or_reject
from slicesim.netsim import SIMPLEX_ATOL, TOPOLOGY_BUILDERS, TrafficMask, solve_coupled_loads

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
