"""Multi-cell slicing environment with load-coupled inter-cell interference.

The simulator is deliberately small and fully deterministic under a seed:
users perform a Markov walk over cells, per-slice traffic is scaled by a
periodic mask, and the per-slice loads are the fixed point of a coupling map
in which a cell's effective capacity shrinks with its neighbours' total load.

The environment steps a (T, K, N+1) stack of allocations into a stack of T
states. The traffic never depends on the allocations, so the environment
draws a block of steps' traffic first (``SliceEnv.draw``) and then steps
that block. Validation, the walk and the environment take stacks only:
(T, K, N) arrays for T steps, each step computed with the bits it has when
stepped alone. The load solve and the KPIs also take one step without the
step axis.
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
        if not (0 < self.bandwidth_hz < np.inf and 0 < self.se_max < np.inf):
            raise ConfigError("bandwidth_hz and se_max must be positive and finite")
        if not 0 <= self.coupling < np.inf:
            raise ConfigError("coupling must be finite and >= 0")
        # the largest peak capacity of any allocation validate_allocation accepts,
        # in the order _peak_capacity multiplies
        if (1 + SIMPLEX_ATOL) * self.bandwidth_hz * self.se_max == np.inf:
            raise ConfigError("bandwidth_hz * se_max overflows the peak capacity")
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

    ``SliceEnv`` returns stacks of T states, with a leading step axis:
    (T, K, N) arrays, ``t`` and ``fp_converged`` as (T,) arrays and ``mask``
    as a (T, N) array. The readers of states also take one state without it.
    """

    throughput: np.ndarray  # ([T,] K, N)
    delay: np.ndarray  # ([T,] K, N)
    load: np.ndarray  # ([T,] K, N)
    users: np.ndarray  # ([T,] K, N) int
    t: int | np.ndarray
    fp_converged: bool | np.ndarray = True
    mask: tuple[float, ...] | np.ndarray = ()

    @property
    def cell_count(self) -> int:
        return self.throughput.shape[-2]

    @property
    def slice_count(self) -> int:
        return self.throughput.shape[-1]


# ---------------------------------------------------------------------------
# allocations
# ---------------------------------------------------------------------------

SIMPLEX_ATOL = 1e-9


def validate_allocation(allocation: np.ndarray, cell_count: int, slice_count: int,
                        step: int | None = None) -> np.ndarray:
    """Check a (T, K, N+1) stack of action matrices against the per-cell
    simplex invariant.

    Column 0 is the headroom; every entry must lie in [0, 1] and every row
    sum to 1 within ``SIMPLEX_ATOL``. Returns the array unchanged. A stack
    is refused whole at its first offending step. ``step`` numbers the
    first step, and the error then names the offending one.
    """
    a = np.asarray(allocation, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (cell_count, slice_count + 1):
        raise ConstraintViolationError(
            f"allocation shape {a.shape} is not a (T, {cell_count}, {slice_count + 1}) stack")
    # a NaN fails every comparison, and the sums are formed only of entries
    # in range, so only a valid stack passes
    atol = SIMPLEX_ATOL
    if (np.minimum.reduce(a, None) >= -atol and np.maximum.reduce(a, None) <= 1 + atol
            and np.maximum.reduce(np.abs(np.add.reduce(a, -1) - 1.0), None) <= atol):
        return a
    # the whole-stack check failed, so some step has a problem: name the first
    i, problem = next((i, p) for i, p in enumerate(map(_simplex_problem, a)) if p)
    raise ConstraintViolationError(("" if step is None else f"step {step + i}: ") + problem)


def _simplex_problem(a: np.ndarray) -> str:
    """What is wrong with one (K, N+1) allocation, or '' when it is valid."""
    atol = SIMPLEX_ATOL
    if not np.isfinite(a).all():
        return "allocation contains non-finite entries"
    if (a < -atol).any() or (a > 1 + atol).any():
        return "allocation entries outside [0, 1]"
    gaps = np.abs(a.sum(axis=1) - 1.0)
    if (gaps > atol).any():
        k = int(np.argmax(gaps))
        return f"cell {k} allocation sums to {a[k].sum():.12f}, off simplex by {gaps[k]:.3e}"
    return ""


# ---------------------------------------------------------------------------
# per-step mechanics
# ---------------------------------------------------------------------------


def walk_users(rng: np.random.Generator, topology: Topology, positions: np.ndarray,
               p_stay: float, steps: int) -> np.ndarray:
    """``steps`` Markov-walk steps for every (potential) user.

    Each user stays in its cell with probability ``p_stay``, otherwise moves
    to a uniformly random neighbour. Users in a cell without neighbours stay.
    A step draws one uniform per user for the move and one for the
    neighbour, the latter unconditionally to keep the stream aligned.

    The walk takes all its draws from one ``rng.random((steps, 2, users))``
    call, the same stream as that many steps' pairs of draws, and returns
    the (steps, *positions.shape) positions after each step.
    """
    table, degree = neighbor_table(topology)
    flat = positions.ravel()
    draws = rng.random((steps, 2, flat.shape[0]))
    moves = draws[:, 0] >= p_stay
    out = np.empty((steps, flat.shape[0]), dtype=positions.dtype)
    for i in range(steps):
        # truncation of the non-negative product picks neighbour floor(draw *
        # degree); a cell without neighbours has only itself in its row
        pick = (draws[i, 1] * degree[flat]).astype(np.int64)
        flat = out[i] = np.where(moves[i], table[flat, pick], flat)
    return out.reshape((steps, *positions.shape))


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


def _capacity(adjacency: np.ndarray, coupling: float, peak: np.ndarray,
              loads: np.ndarray) -> np.ndarray:
    """``peak`` capacity shrunk by the neighbours' total load, for ([T,] K, N)
    arrays; the neighbour sum is one matrix-vector product per step."""
    total = np.add.reduce(loads, -1)
    denom = 1.0 + coupling * np.matmul(adjacency, total[..., None])
    return peak / denom


def _peak_capacity(topology: Topology, allocation: np.ndarray) -> np.ndarray:
    return allocation[..., 1:] * topology.bandwidth_hz * topology.se_max


def solve_coupled_loads(topology: Topology, allocation: np.ndarray, offered: np.ndarray,
                        tol: float = 1e-6, max_iter: int = 1000) -> tuple[np.ndarray, bool, int]:
    """Fixed point of the coupled load map, iterated from all-zero loads.

    Each round maps every entry with traffic to min(1, offered / capacity),
    or to 1 where its capacity is not positive, and every entry without
    traffic to 0. Returns (loads, converged, iterations). The map is
    monotone, so from l = 0 the iterates increase towards the least fixed
    point; if the max-norm change stays above ``tol`` after ``max_iter``
    rounds the last iterate is returned with converged=False.

    ``allocation`` (T, K, N+1) and ``offered`` (T, K, N) solve T steps at
    once, each stopping at its own round with the bits it has when solved
    alone. ``converged`` is then whether every step converged and
    ``iterations`` the sum of the steps' rounds; ``_solve_steps`` gives them
    per step.
    """
    loads, rounds, converged = _solve_steps(topology, allocation, offered, tol, max_iter)
    return loads, bool(np.logical_and.reduce(converged)), int(np.add.reduce(rounds))


def _solve_steps(topology: Topology, allocation: np.ndarray, offered: np.ndarray,
                 tol: float = 1e-6, max_iter: int = 1000):
    """The loads of ``solve_coupled_loads`` with each step's rounds and
    convergence flag, as (T,) arrays (T = 1 without a step axis).

    The capacity is ``peak / denom`` with ``denom = 1 + coupling * (A @ row
    sums of the loads)``. Round 1 starts from zero loads, so its denominator
    is exactly 1 and its capacity is ``peak``. ``Topology`` keeps the
    coupling finite, and the peak of every allocation ``validate_allocation``
    accepts, so every denominator is at least 1 and no capacity is a NaN:
    the entries served (traffic and a positive peak) are fixed for the whole
    solve, and the others keep their round-1 value. A served capacity that
    underflows to 0, or whose denominator overflows, gives ``offered / 0 =
    inf`` and so the load 1 the map gives a non-positive capacity: the same
    bits as the map applied round by round.

    Every operation is elementwise within a step, except the neighbour sum,
    which is one matrix-vector product per step (``np.matmul`` of the
    adjacency with a (T, K, 1) stack, the kernel ``np.dot`` runs on one
    step). Every step keeps its place in the stack, and ``live`` marks the
    steps not yet converged. A converged step repeats the round it converged
    in, from the iterate it had before that round (zero loads for round 1),
    so the stack computes nothing that the step's own solve does not.
    """
    k, n = offered.shape[-2:]
    steps = offered.size // (k * n)
    if max_iter < 1:
        return (np.zeros_like(offered, dtype=float), np.full(steps, max_iter),
                np.zeros(steps, dtype=bool))
    peak = _peak_capacity(topology, allocation)
    pos = offered > 0
    served = pos & (peak > 0)
    # round 1: 1 where there is traffic and 0 elsewhere, then min(1, offered
    # / peak) where served; entries not served keep this value in both buffers
    loads = pos.astype(float)
    np.divide(offered, peak, loads, where=served)
    np.minimum(loads, 1.0, out=loads)
    result = loads.reshape(steps, k, n)  # a view: writing a step writes loads
    rounds = np.ones(steps, dtype=np.int64)
    # the change from zero loads is the loads themselves
    live = np.maximum.reduce(result, (1, 2), None, None, False, 0.0) > tol
    if not any(live):  # any and min below: cheaper than a reduce call on a few steps
        return loads, rounds, ~live
    adjacency = _adjacency(topology)
    coupling = topology.coupling
    peak, offered, served = (peak.reshape(steps, k, n), offered.reshape(steps, k, n),
                             served.reshape(steps, k, n))
    # the steps that converged in round 1 repeat it from zero loads
    cur = np.where(live[:, None, None], result, 0.0)
    nxt, cap, diff = cur.copy(), np.empty_like(cur), np.empty_like(cur)
    total, denom = np.empty((steps, k)), np.empty((steps, k, 1))
    column = total[..., None]
    with np.errstate(divide="ignore"):  # offered / 0 where a capacity fell to 0
        for it in range(2, max_iter + 1):
            np.add.reduce(cur, 2, None, total)
            np.matmul(adjacency, column, denom)
            np.multiply(denom, coupling, denom)
            np.add(denom, 1.0, denom)
            np.divide(peak, denom, cap)
            np.divide(offered, cap, nxt, where=served)
            np.minimum(nxt, 1.0, out=nxt)
            # every operation of the map is monotone in floating point too, so
            # the iterates never fall and the change is its own absolute value
            delta = np.maximum.reduce(np.subtract(nxt, cur, diff), (1, 2), None, None, False,
                                      0.0)
            cur, nxt = nxt, cur
            # a converged step's change stays within tol, so once one step
            # has converged this runs every round
            if min(delta) <= tol:
                done = live & (delta <= tol)
                result[done] = cur[done]
                rounds[done] = it
                live &= ~done
                if not any(live):
                    return loads, rounds, ~live
                # the converged steps go back to the iterate before this round
                np.copyto(cur, nxt, where=~live[:, None, None])
    result[live] = cur[live]
    rounds[live] = max_iter
    return loads, rounds, ~live


# the delay curve: an idle or unloaded slice's delay (s), and the load at
# which the curve is capped, so that a saturated slice's delay stays finite
DELAY_BASE_S = 5e-4
LOAD_CAP = 0.99


def compute_kpis(topology: Topology, allocation: np.ndarray, offered: np.ndarray,
                 loads: np.ndarray, users: np.ndarray, t, fp_converged=True,
                 mask=()) -> NetState:
    """Derive the observable KPIs from a solved load pattern.

    ``users`` holds the (K, N) active-user counts; with a leading step axis
    on the arrays (and ``t``, ``fp_converged`` and ``mask`` given per step)
    the result is a stack of states. The state holds
    ``loads`` and ``users`` themselves, not copies. Served traffic is
    min(offered, capacity); per-user throughput divides by the active-user
    count; delay follows an M/M/1-style congestion curve
    ``DELAY_BASE_S / (1 - min(load, LOAD_CAP))``. Idle slices report zero
    throughput and the base delay.
    """
    cap = _capacity(_adjacency(topology), topology.coupling,
                    _peak_capacity(topology, allocation), loads)
    served = np.minimum(offered, cap)
    throughput = served / np.maximum(users, 1)
    delay = DELAY_BASE_S / (1.0 - np.minimum(loads, LOAD_CAP))
    idle = users == 0
    throughput[idle] = 0.0
    delay[idle] = DELAY_BASE_S
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

    def __post_init__(self):
        n = self.slices.slice_count
        if len(self.masks) != n or len(self.group_size_max) != n:
            raise ConfigError("need one mask and one group size per slice")
        if min(self.group_size_max) < 1:
            raise ConfigError("group sizes must be positive")
        if not 0.0 <= self.p_stay <= 1.0:
            raise ConfigError("p_stay must lie in [0, 1]")

    @property
    def cell_count(self) -> int:
        return self.topology.cell_count

    @property
    def slice_count(self) -> int:
        return self.slices.slice_count


class SliceEnv:
    """Seeded, single-owner environment instance.

    One instance per run; two instances with the same scenario and seed and
    the same allocation sequence produce identical KPI traces, however the
    steps are cut into blocks.
    """

    def __init__(self, scenario: Scenario, seed):
        self.scenario = scenario
        self._demand = np.asarray(scenario.slices.demand_per_user)
        self._group = np.asarray(scenario.group_size_max)
        n, width = scenario.slice_count, max(scenario.group_size_max)
        self._rank = np.arange(width)  # each user's rank within its slice
        self._slot = np.arange(n)[:, None]  # each user's slice
        self._rng = np.random.default_rng(seed)
        self._positions: np.ndarray | None = None
        self._drawn = None  # (users, masks, times) of steps drawn and not yet stepped
        self.t = 0

    def _mask_values(self, times) -> np.ndarray:
        """(T, N) mask values at each of ``times``."""
        return np.array([[m.value(t) for m in self.scenario.masks] for t in times])

    def _count_users(self, positions: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """(T, K, N) counts per cell of each slice's first
        floor(group_size_max * mask + 0.5) users, from (T, N, users)
        positions and (T, N) mask values, in one ``bincount``."""
        steps, n, _ = positions.shape
        k = self.scenario.cell_count
        active = self._rank < np.floor(self._group * masks + 0.5)[..., None]
        # one bin per (step, cell, slice), in that order
        bins = np.arange(0, steps * k * n, k * n)[:, None, None] + positions * n + self._slot
        return np.bincount(bins[active], minlength=steps * k * n).reshape(steps, k, n)

    def reset(self) -> NetState:
        """Place users uniformly at random and return the idle initial state,
        a stack of one."""
        sc = self.scenario
        self.t = 0
        self._drawn = None
        self._positions = self._rng.integers(
            0, sc.cell_count, size=(sc.slice_count, max(sc.group_size_max)))
        mask = self._mask_values([0])
        users = self._count_users(self._positions[None], mask)
        shape = users.shape
        return NetState(throughput=np.zeros(shape), delay=np.full(shape, DELAY_BASE_S),
                        load=np.zeros(shape), users=users, t=np.zeros(1, dtype=np.int64),
                        fp_converged=np.ones(1, dtype=bool), mask=mask)

    def draw(self, steps: int) -> np.ndarray:
        """Draw the traffic of the next ``steps`` steps and return the
        (steps, K, N) user counts of the states they will make.

        The walk, the mask values and the user counts never depend on the
        allocations, so they are drawn before the allocations are known; the
        next ``step`` then takes a stack of ``steps`` allocations. The random
        stream is the one that many single steps draw.
        """
        if self._positions is None:
            raise RuntimeError("call reset() before draw()")
        if self._drawn is not None:
            raise RuntimeError("step the drawn steps before drawing more")
        sc = self.scenario
        times = np.arange(self.t + 1, self.t + steps + 1)
        walk = walk_users(self._rng, sc.topology, self._positions, sc.p_stay, steps)
        masks = self._mask_values(times.tolist())
        users = self._count_users(walk, masks)
        self._positions = walk[-1]
        self.t += steps
        self._drawn = users, masks, times
        return users

    def step(self, allocation: np.ndarray) -> NetState:
        """Advance under a (T, K, N+1) stack of allocations and return the
        stack of the T new states.

        The stack steps the T steps ``draw(T)`` drew; a step with nothing
        drawn raises ``RuntimeError`` and leaves the environment as it was.
        Allocations must satisfy the per-cell simplex invariant (headroom in
        column 0); they are validated, never mutated. A stack is refused
        whole at its first off-simplex step, which the error names (steps
        count from 0, as the rows of ``steps.csv`` do), and its drawn steps
        are dropped.
        """
        if self._drawn is None:
            raise RuntimeError("call draw() before step()")
        sc = self.scenario
        (users, mask, times), self._drawn = self._drawn, None
        alloc = validate_allocation(allocation, sc.cell_count, sc.slice_count,
                                    step=times[0] - 1)
        if len(alloc) != len(times):
            raise RuntimeError("a stack of allocations needs as many steps as draw() drew")
        offered = users * self._demand
        loads, converged, _ = solve_coupled_loads(sc.topology, alloc, offered)
        # the solve reports a stack's convergence as a whole; a stack with a
        # step short of it is solved again for each step's flag
        converged = (np.ones(len(times), dtype=bool) if converged
                     else _solve_steps(sc.topology, alloc, offered)[2])
        return compute_kpis(sc.topology, alloc, offered, loads, users, times,
                            fp_converged=converged, mask=mask)
