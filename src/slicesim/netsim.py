"""Multi-cell slicing environment with load-coupled inter-cell interference.

The simulator is deliberately small and fully deterministic under a seed:
users perform a Markov walk over cells, per-slice traffic is scaled by a
periodic mask, and the per-slice loads are the fixed point of a coupling map
in which a cell's effective capacity shrinks with its neighbours' total load.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

import numpy as np


class ConfigError(ValueError):
    """Raised for invalid scenario/topology/mask configuration."""


class ConstraintViolationError(ValueError):
    """Raised when an allocation handed to the environment is off the simplex."""


# ---------------------------------------------------------------------------
# static network description
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Topology:
    """Static cell graph: neighbour sets plus the shared radio constants.

    ``coupling`` scales how strongly a neighbour's total load degrades this
    cell's effective capacity; ``se_max`` is the peak spectral efficiency in
    bit/s/Hz so that a fully-allocated uninterfered cell serves
    ``bandwidth_hz * se_max`` bit/s.
    """

    cell_count: int
    neighbors: tuple[tuple[int, ...], ...]
    bandwidth_hz: float
    coupling: float
    se_max: float

    def __post_init__(self):
        k = self.cell_count
        if k < 1:
            raise ConfigError("cell_count must be >= 1")
        if len(self.neighbors) != k:
            raise ConfigError("neighbors must have one entry per cell")
        if self.bandwidth_hz <= 0 or self.se_max <= 0:
            raise ConfigError("bandwidth_hz and se_max must be positive")
        if self.coupling < 0:
            raise ConfigError("coupling must be >= 0")
        for i, nbrs in enumerate(self.neighbors):
            for j in nbrs:
                if j == i:
                    raise ConfigError(f"cell {i} neighbours itself")
                if not 0 <= j < k:
                    raise ConfigError(f"cell {i} has out-of-range neighbour {j}")
                if i not in self.neighbors[j]:
                    raise ConfigError(f"neighbour relation not symmetric: {i}->{j}")

    @staticmethod
    def ring(cell_count: int, bandwidth_hz: float, coupling: float, se_max: float) -> "Topology":
        """Cells on a cycle; each cell neighbours its two ring adjacents."""
        nbrs = []
        for i in range(cell_count):
            s = {(i - 1) % cell_count, (i + 1) % cell_count} - {i}
            nbrs.append(tuple(sorted(s)))
        return Topology(cell_count, tuple(nbrs), bandwidth_hz, coupling, se_max)

    @staticmethod
    def full(cell_count: int, bandwidth_hz: float, coupling: float, se_max: float) -> "Topology":
        """Every pair of cells interferes."""
        nbrs = tuple(tuple(j for j in range(cell_count) if j != i) for i in range(cell_count))
        return Topology(cell_count, nbrs, bandwidth_hz, coupling, se_max)

    @staticmethod
    def grid(cell_count: int, bandwidth_hz: float, coupling: float, se_max: float) -> "Topology":
        """Rectangular 4-neighbour grid, rows x cols chosen closest to square."""
        rows = int(np.sqrt(cell_count))
        while rows > 1 and cell_count % rows != 0:
            rows -= 1
        cols = cell_count // rows
        nbrs: list[tuple[int, ...]] = []
        for i in range(cell_count):
            r, c = divmod(i, cols)
            s = []
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    s.append(rr * cols + cc)
            nbrs.append(tuple(sorted(s)))
        return Topology(cell_count, tuple(nbrs), bandwidth_hz, coupling, se_max)


TOPOLOGY_BUILDERS = {"ring": Topology.ring, "full": Topology.full, "grid": Topology.grid}


@dataclass(frozen=True)
class SliceSpec:
    """Per-slice service requirements and per-user offered demand (bit/s)."""

    throughput_req: tuple[float, ...]
    delay_req: tuple[float, ...]
    demand_per_user: tuple[float, ...]

    def __post_init__(self):
        n = len(self.throughput_req)
        if n < 1:
            raise ConfigError("need at least one slice")
        if len(self.delay_req) != n or len(self.demand_per_user) != n:
            raise ConfigError("slice requirement tuples must have equal length")
        if min(self.throughput_req) <= 0 or min(self.delay_req) <= 0 or min(self.demand_per_user) <= 0:
            raise ConfigError("slice requirements and per-user demand must be positive")

    @property
    def slice_count(self) -> int:
        return len(self.throughput_req)


_time = itemgetter(0)  # a breakpoint's time


@dataclass(frozen=True)
class TrafficMask:
    """Piecewise-linear periodic activity scaling in [0, 1].

    Breakpoints are (time, value) pairs inside one period; values between
    breakpoints interpolate linearly and the last segment wraps around to
    the first breakpoint of the next period.
    """

    breakpoints: tuple[tuple[float, float], ...]
    period: float

    def __post_init__(self):
        if not self.breakpoints:
            raise ConfigError("mask needs at least one breakpoint")
        if self.period <= 0:
            raise ConfigError("mask period must be positive")
        times = [t for t, _ in self.breakpoints]
        if sorted(times) != times or len(set(times)) != len(times):
            raise ConfigError("mask breakpoint times must be strictly increasing")
        if times[0] < 0 or times[-1] >= self.period:
            raise ConfigError("mask breakpoint times must lie in [0, period)")
        for _, v in self.breakpoints:
            if not 0.0 <= v <= 1.0:
                raise ConfigError("mask values must lie in [0, 1]")

    def value(self, t: float) -> float:
        """Mask value at time t (t >= 0), wrapped by the period."""
        pts = self.breakpoints
        if len(pts) == 1:
            return pts[0][1]
        tau = float(t) % self.period
        # segment [t_i, t_{i+1}) containing tau; tau before the first
        # breakpoint falls on the wrap-around segment from the last one
        if tau < pts[0][0]:
            t0, v0 = pts[-1]
            t1, v1 = pts[0]
            t0 -= self.period
        else:
            idx = bisect_right(pts, tau, key=_time) - 1
            t0, v0 = pts[idx]
            if idx + 1 < len(pts):
                t1, v1 = pts[idx + 1]
            else:
                t1, v1 = pts[0]
                t1 += self.period
        if t1 == t0:
            return v0
        w = (tau - t0) / (t1 - t0)
        return v0 + w * (v1 - v0)


@dataclass
class NetState:
    """Per-(cell, slice) KPIs observed after one environment step.

    ``throughput`` is the average per-user served rate (bit/s), ``delay`` the
    per-slice packet delay (s), ``load`` the fraction of the slice's
    allocated capacity in use, ``users`` the active-user count. ``mask``
    holds each slice's traffic-mask value at ``t``, evaluated once by the
    environment that made the state.
    """

    throughput: np.ndarray  # (K, N)
    delay: np.ndarray  # (K, N)
    load: np.ndarray  # (K, N)
    users: np.ndarray  # (K, N) int
    t: int
    fp_converged: bool = True
    mask: tuple[float, ...] = ()

    @property
    def cell_count(self) -> int:
        return self.throughput.shape[0]

    @property
    def slice_count(self) -> int:
        return self.throughput.shape[1]


# ---------------------------------------------------------------------------
# allocations
# ---------------------------------------------------------------------------

SIMPLEX_ATOL = 1e-9


def validate_allocation(allocation: np.ndarray, cell_count: int, slice_count: int,
                        atol: float = SIMPLEX_ATOL) -> np.ndarray:
    """Check an action matrix against the per-cell simplex invariant.

    Expects shape (K, N+1) with column 0 the headroom; every entry in [0, 1]
    and every row summing to 1 within ``atol``. Returns the array unchanged.
    """
    a = np.asarray(allocation, dtype=float)
    if a.shape != (cell_count, slice_count + 1):
        raise ConstraintViolationError(
            f"allocation shape {a.shape} != ({cell_count}, {slice_count + 1})")
    if not np.isfinite(a).all():
        raise ConstraintViolationError("allocation contains non-finite entries")
    if (a < -atol).any() or (a > 1 + atol).any():
        raise ConstraintViolationError("allocation entries outside [0, 1]")
    gaps = np.abs(a.sum(axis=1) - 1.0)
    if (gaps > atol).any():
        k = int(np.argmax(gaps))
        raise ConstraintViolationError(
            f"cell {k} allocation sums to {a[k].sum():.12f}, off simplex by {gaps[k]:.3e}")
    return a


# ---------------------------------------------------------------------------
# per-step mechanics
# ---------------------------------------------------------------------------


def walk_users(rng: np.random.Generator, topology: Topology, positions: np.ndarray,
               p_stay: float) -> np.ndarray:
    """One Markov-walk step for every (potential) user.

    Each user stays in its cell with probability ``p_stay``, otherwise moves
    to a uniformly random neighbour. Users in a cell without neighbours stay.
    """
    table, degree = neighbor_table(topology)
    flat = positions.ravel()
    move = rng.random(flat.shape[0]) >= p_stay
    draws = rng.random(flat.shape[0])  # drawn unconditionally to keep the stream aligned
    # truncation of the non-negative product picks neighbour floor(draw * degree);
    # a cell without neighbours has only itself in its row
    pick = (draws * degree[flat]).astype(np.int64)
    return np.where(move, table[flat, pick], flat).reshape(positions.shape)


@lru_cache(maxsize=16)
def _adjacency(topology: Topology) -> np.ndarray:
    a = np.zeros((topology.cell_count, topology.cell_count))
    for k, nbrs in enumerate(topology.neighbors):
        a[k, list(nbrs)] = 1.0
    return a


@lru_cache(maxsize=16)
def neighbor_table(topology: Topology) -> tuple[np.ndarray, np.ndarray]:
    """(K, max degree) neighbour table, each row padded with its own cell,
    and the (K,) degree vector."""
    degree = np.array([len(nbrs) for nbrs in topology.neighbors], dtype=np.int64)
    table = np.tile(np.arange(topology.cell_count, dtype=np.int64)[:, None],
                    (1, max(1, int(degree.max()))))
    for k, nbrs in enumerate(topology.neighbors):
        table[k, : len(nbrs)] = nbrs
    return table, degree


_TINY = np.finfo(float).tiny


def _capacity(adjacency: np.ndarray, coupling: float, peak: np.ndarray, loads: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """``peak`` capacity shrunk by the neighbours' total load."""
    denom = 1.0 + coupling * (adjacency @ loads.sum(axis=1))
    return np.divide(peak, denom[:, None], out=out)


def _peak_capacity(topology: Topology, allocation: np.ndarray) -> np.ndarray:
    return allocation[:, 1:] * topology.bandwidth_hz * topology.se_max


def solve_coupled_loads(topology: Topology, allocation: np.ndarray, offered: np.ndarray,
                        tol: float = 1e-6, max_iter: int = 1000) -> tuple[np.ndarray, bool, int]:
    """Fixed point of the coupled load map, iterated from all-zero loads.

    Each round maps every entry with traffic to min(1, offered / capacity),
    or to 1 where its capacity is not positive, and every entry without
    traffic to 0. Returns (loads, converged, iterations). The map is
    monotone, so from l = 0 the iterates increase towards the least fixed
    point; if the max-norm change stays above ``tol`` after ``max_iter``
    rounds the last iterate is returned with converged=False.

    The capacity is ``peak / denom`` with ``denom = 1 + coupling * (A @ row
    sums of the loads)``. Round 1 starts from zero loads, so its denominator
    is exactly 1 and its capacity is ``peak``. Loads lie in [0, 1], so every
    denominator lies in [1, 1 + coupling * (K - 1) * N]. When that bound is
    finite, no peak is +inf and every positive peak exceeds ``tiny`` times
    the bound, a capacity is positive exactly where its peak is: the entries
    served (traffic and positive capacity) are fixed for the whole solve,
    and the others keep their round-1 value. Otherwise (a non-finite
    coupling, or a peak so small that its capacity could round to zero)
    every round checks the capacity's sign again. Both ways give the same
    bits as the map applied round by round.
    """
    if max_iter < 1:
        return np.zeros_like(offered, dtype=float), False, max_iter
    peak = _peak_capacity(topology, allocation)
    pos = offered > 0
    served = pos & (peak > 0)
    k, n = offered.shape
    floor = _TINY * (1.0 + topology.coupling * ((k - 1) * n))
    if not (floor < np.minimum.reduce(peak, None, None, None, False, np.inf, served)
            and np.maximum.reduce(peak, None, None, None, False, -np.inf) < np.inf):
        return _solve_checking_signs(topology, peak, offered, pos, tol, max_iter)
    # round 1: 1 where there is traffic and 0 elsewhere, then min(1, offered
    # / peak) where served; entries not served keep this value in both buffers
    loads = pos.astype(float)
    np.divide(offered, peak, loads, where=served)
    np.minimum(loads, 1.0, out=loads)
    # the change from zero loads is the loads themselves
    delta = np.maximum.reduce(loads, None, None, None, False, 0.0)
    if delta <= tol:
        return loads, True, 1
    adjacency = _adjacency(topology)
    coupling = topology.coupling
    nxt, cap, diff = loads.copy(), np.empty_like(loads), np.empty_like(loads)
    total, denom = np.empty(k), np.empty(k)
    column = denom[:, None]
    for it in range(2, max_iter + 1):
        np.add.reduce(loads, 1, None, total)
        np.dot(adjacency, total, denom)
        np.multiply(denom, coupling, denom)
        np.add(denom, 1.0, denom)
        np.divide(peak, column, cap)
        np.divide(offered, cap, nxt, where=served)
        np.minimum(nxt, 1.0, out=nxt)
        # every operation of the map is monotone in floating point too, so
        # the iterates never fall and the change is its own absolute value
        delta = np.maximum.reduce(np.subtract(nxt, loads, diff), None, None, None, False, 0.0)
        loads, nxt = nxt, loads
        if delta <= tol:
            return loads, True, it
    return loads, False, max_iter


def _solve_checking_signs(topology: Topology, peak: np.ndarray, offered: np.ndarray,
                          pos: np.ndarray, tol: float,
                          max_iter: int) -> tuple[np.ndarray, bool, int]:
    """:func:`solve_coupled_loads` with the capacity's sign checked in every round."""
    adjacency = _adjacency(topology)
    # every round starts from 1 where there is traffic and 0 elsewhere; the
    # divide then overwrites the entries with traffic and positive capacity
    saturated = pos.astype(float)
    loads = np.zeros_like(offered, dtype=float)
    nxt, cap, diff = (np.empty_like(loads) for _ in range(3))
    served = np.empty_like(pos)
    for it in range(1, max_iter + 1):
        _capacity(adjacency, topology.coupling, peak, loads, out=cap)
        np.logical_and(pos, cap > 0, out=served)
        np.copyto(nxt, saturated)
        np.divide(offered, cap, out=nxt, where=served)
        np.minimum(nxt, 1.0, out=nxt)
        np.subtract(nxt, loads, out=diff)
        delta = np.abs(diff, out=diff).max() if diff.size else 0.0
        loads, nxt = nxt, loads
        if delta <= tol:
            return loads, True, it
    return loads, False, max_iter


def compute_kpis(topology: Topology, allocation: np.ndarray, offered: np.ndarray,
                 loads: np.ndarray, users: np.ndarray, t: int, delay_base_s: float,
                 load_cap: float, fp_converged: bool = True,
                 mask: tuple[float, ...] = ()) -> NetState:
    """Derive the observable KPIs from a solved load pattern.

    ``users`` holds the (K, N) active-user counts. The state holds
    ``loads`` and ``users`` themselves, not copies. Served traffic is
    min(offered, capacity); per-user throughput divides by the active-user
    count; delay follows an M/M/1-style congestion curve
    d_base / (1 - load). Idle slices report zero throughput and base delay.
    """
    cap = _capacity(_adjacency(topology), topology.coupling,
                    _peak_capacity(topology, allocation), loads)
    served = np.minimum(offered, cap)
    throughput = served / np.maximum(users, 1)
    delay = delay_base_s / (1.0 - np.minimum(loads, load_cap))
    idle = users == 0
    throughput[idle] = 0.0
    delay[idle] = delay_base_s
    return NetState(throughput=throughput, delay=delay, load=loads, users=users, t=t,
                    fp_converged=fp_converged, mask=mask)


# ---------------------------------------------------------------------------
# scenario + environment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """Everything the environment needs: graph, slices, traffic, mobility."""

    topology: Topology
    slices: SliceSpec
    masks: tuple[TrafficMask, ...]
    group_size_max: tuple[int, ...]
    p_stay: float = 0.8
    delay_base_s: float = 5e-4
    load_cap: float = 0.99
    fp_tol: float = 1e-6
    fp_max_iter: int = 1000

    def __post_init__(self):
        n = self.slices.slice_count
        if len(self.masks) != n or len(self.group_size_max) != n:
            raise ConfigError("need one mask and one group size per slice")
        if min(self.group_size_max) < 1:
            raise ConfigError("group sizes must be positive")
        if not 0.0 <= self.p_stay <= 1.0:
            raise ConfigError("p_stay must lie in [0, 1]")
        if not 0.0 < self.load_cap < 1.0:
            raise ConfigError("load_cap must lie in (0, 1)")
        if self.delay_base_s <= 0:
            raise ConfigError("delay_base_s must be positive")

    @property
    def cell_count(self) -> int:
        return self.topology.cell_count

    @property
    def slice_count(self) -> int:
        return self.slices.slice_count


class SliceEnv:
    """Seeded, single-owner environment instance.

    One instance per run; two instances with the same scenario and seed and
    the same allocation sequence produce identical KPI traces.
    """

    def __init__(self, scenario: Scenario, seed):
        self.scenario = scenario
        self._demand = np.asarray(scenario.slices.demand_per_user)
        self._rng = np.random.default_rng(seed)
        self._positions: np.ndarray | None = None
        self.t = 0

    def _mask_values(self, t: int) -> tuple[float, ...]:
        return tuple(m.value(t) for m in self.scenario.masks)

    def _count_users(self, mask: tuple[float, ...]) -> np.ndarray:
        """(K, N) counts per cell of each slice's first
        floor(group_size_max * mask + 0.5) users."""
        sc = self.scenario
        users = np.zeros((sc.cell_count, sc.slice_count), dtype=int)
        for n, (g, v) in enumerate(zip(sc.group_size_max, mask)):
            active = self._positions[n, : int(np.floor(g * v + 0.5))]
            users[:, n] = np.bincount(active, minlength=sc.cell_count)
        return users

    def reset(self) -> NetState:
        """Place users uniformly at random and return the idle initial state."""
        sc = self.scenario
        self.t = 0
        self._positions = self._rng.integers(
            0, sc.cell_count, size=(sc.slice_count, max(sc.group_size_max)))
        mask = self._mask_values(0)
        shape = (sc.cell_count, sc.slice_count)
        return NetState(throughput=np.zeros(shape), delay=np.full(shape, sc.delay_base_s),
                        load=np.zeros(shape), users=self._count_users(mask), t=0, mask=mask)

    def step(self, allocation: np.ndarray) -> NetState:
        """Advance one step under ``allocation`` and return the new KPIs.

        The allocation must satisfy the per-cell simplex invariant (headroom
        in column 0); it is validated, never mutated.
        """
        if self._positions is None:
            raise RuntimeError("call reset() before step()")
        sc = self.scenario
        alloc = validate_allocation(allocation, sc.cell_count, sc.slice_count)
        self.t += 1
        self._positions = walk_users(self._rng, sc.topology, self._positions, sc.p_stay)
        mask = self._mask_values(self.t)
        users = self._count_users(mask)
        offered = users * self._demand
        loads, converged, _ = solve_coupled_loads(
            sc.topology, alloc, offered, tol=sc.fp_tol, max_iter=sc.fp_max_iter)
        return compute_kpis(sc.topology, alloc, offered, loads, users, self.t,
                            sc.delay_base_s, sc.load_cap, fp_converged=converged, mask=mask)
