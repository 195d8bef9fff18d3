"""Experiment config: JSON schema, validation, scenario hashing.

Top-level sections: ``scenario``, ``scheme``, ``agent``, ``phases``,
``output``, plus a ``seeds`` list. Validation errors carry the dotted path
of the offending field so a bad config is quick to fix; a key no parser
reads is an error too, so a misspelt field cannot silently fall back to its
default.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, fields as dc_fields

from ..mdp import REWARD_VARIANTS, RewardSpec, StateScaling
from ..netsim import (
    TOPOLOGY_BUILDERS,
    ConfigError,
    Scenario,
    SliceSpec,
    TrafficMask,
)
from ..schemes import SCHEME_KINDS, static_allocation_row
from ..td3 import AgentHyperParams

# Far above any shipped scenario (the largest has 25 cells), this bound
# refuses a cell count no run could hold before a topology builder starts
# allocating its per-cell objects.
MAX_CELLS = 10_000


@dataclass(frozen=True)
class PhasePlan:
    explore: int = 2500
    train: int = 10000
    eval: int = 2500

    def __post_init__(self):
        if min(self.explore, self.train, self.eval) < 0:
            raise ConfigError("phases: lengths must be >= 0")
        if self.total == 0:
            raise ConfigError("phases: at least one phase must have a positive length")

    @property
    def total(self) -> int:
        return self.explore + self.train + self.eval

    @property
    def anneal_steps(self) -> int:
        return self.explore + self.train

    def phase_of(self, step: int) -> str:
        if step < self.explore:
            return "explore"
        if step < self.explore + self.train:
            return "train"
        return "eval"


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: Scenario
    scheme_kinds: tuple[str, ...]
    static_allocation: tuple[float, ...] | None
    rewards: RewardSpec
    scaling: StateScaling
    hyper: AgentHyperParams
    phases: PhasePlan
    seeds: tuple[int, ...]
    out_dir: str
    scenario_hash: str


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}: missing required field")
    return section[key]


def _number(section: dict, key: str, path: str, default=None, minimum=None, maximum=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return _checked_number(section[key], f"{path}.{key}", minimum, maximum)


def _checked_number(v, path: str, minimum=None, maximum=None):
    """``v`` if it is a finite number (not a boolean) within the bounds."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {type(v).__name__}")
    if not abs(v) <= sys.float_info.max:  # NaN, the infinities, an int no float holds
        raise ConfigError(f"{path}: must be a finite number")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}")
    return v


def _integer(section: dict, key: str, path: str, minimum=None, maximum=None):
    v = _number(section, key, path, minimum=minimum, maximum=maximum)
    if int(v) != v:
        raise ConfigError(f"{path}.{key}: expected an integer")
    return int(v)


def _reject_duplicates(values, path: str) -> None:
    """Raise for the first entry of ``values`` that repeats an earlier one."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{path}[{i}]: duplicate of {path}[{values.index(v)}]")


def _check_section(obj, path: str, keys) -> dict:
    """``obj`` as a config object, every key of which is one of ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"{path}.{key}: unknown field")
    return obj


def parse_mask(obj, path: str) -> TrafficMask:
    section = _check_section(obj, path, ("period", "breakpoints"))
    period = _number(section, "period", path, minimum=1e-12)
    pts = _require(section, "breakpoints", path)
    if not isinstance(pts, list) or not pts:
        raise ConfigError(f"{path}.breakpoints: expected a non-empty list")
    out = []
    for i, bp in enumerate(pts):
        bp_path = f"{path}.breakpoints[{i}]"
        if not isinstance(bp, list) or len(bp) != 2:
            raise ConfigError(f"{bp_path}: expected a [time, value] pair")
        out.append(tuple(float(_checked_number(x, f"{bp_path}[{j}]")) for j, x in enumerate(bp)))
    try:
        return TrafficMask(tuple(out), period=float(period))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def parse_scenario(obj, path: str = "scenario") -> Scenario:
    section = _check_section(obj, path, (
        "topology", "cells", "bandwidth_hz", "coupling", "se_max", "slices", "p_stay"))
    kind = str(section.get("topology", "ring"))
    if kind not in TOPOLOGY_BUILDERS:
        raise ConfigError(f"{path}.topology: unknown kind {kind!r} "
                          f"(expected one of {sorted(TOPOLOGY_BUILDERS)})")
    cells = _integer(section, "cells", path, minimum=1, maximum=MAX_CELLS)
    bandwidth = _number(section, "bandwidth_hz", path, minimum=1.0)
    coupling = _number(section, "coupling", path, default=0.0, minimum=0.0)
    se_max = _number(section, "se_max", path, minimum=1e-9)

    slices_obj = _require(section, "slices", path)
    if not isinstance(slices_obj, list) or not slices_obj:
        raise ConfigError(f"{path}.slices: expected a non-empty list")
    thr, dly, dem, groups, masks = [], [], [], [], []
    for i, s in enumerate(slices_obj):
        sp = f"{path}.slices[{i}]"
        s = _check_section(s, sp, ("throughput_req", "delay_req", "demand_per_user",
                                   "group_size_max", "mask"))
        thr.append(float(_number(s, "throughput_req", sp, minimum=1e-9)))
        dly.append(float(_number(s, "delay_req", sp, minimum=1e-12)))
        dem.append(float(_number(s, "demand_per_user", sp, minimum=1e-9)))
        groups.append(_integer(s, "group_size_max", sp, minimum=1))
        masks.append(parse_mask(_require(s, "mask", sp), f"{sp}.mask"))
    p_stay = float(_number(section, "p_stay", path, default=Scenario.p_stay, minimum=0.0))
    try:
        return Scenario(
            topology=TOPOLOGY_BUILDERS[kind](cells, float(bandwidth), float(coupling),
                                             float(se_max)),
            slices=SliceSpec(tuple(thr), tuple(dly), tuple(dem)),
            masks=tuple(masks),
            group_size_max=tuple(groups),
            p_stay=p_stay,
        )
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def parse_rewards(scheme_section: dict, scenario: Scenario, path: str = "scheme") -> RewardSpec:
    variant = str(scheme_section.get("reward_variant", "delay_aware"))
    if variant not in REWARD_VARIANTS:
        raise ConfigError(f"{path}.reward_variant: unknown variant {variant!r} "
                          f"(expected one of {REWARD_VARIANTS})")
    optional = {}
    if "beta" in scheme_section:
        optional["beta"] = float(_number(scheme_section, "beta", path, minimum=0.0))
    return RewardSpec(
        variant=variant,
        throughput_req=scenario.slices.throughput_req,
        delay_req=scenario.slices.delay_req,
        **optional,
    )


# Agent parameters that are fractions: discount, Polyak rate, exploration odds.
UNIT_INTERVAL = ("gamma", "tau", "epsilon_start", "epsilon_end")


def parse_hyper(obj, path: str = "agent") -> AgentHyperParams:
    known = [f.name for f in dc_fields(AgentHyperParams)]
    section = _check_section(obj, path, known) if obj is not None else {}
    kwargs = {}
    for f in dc_fields(AgentHyperParams):
        if f.name not in section:
            continue
        v = section[f.name]
        if f.type == "tuple[int, ...]":  # layer widths
            if not isinstance(v, list) or not all(
                    isinstance(x, int) and not isinstance(x, bool) and x > 0 for x in v):
                raise ConfigError(f"{path}.{f.name}: expected a list of positive integers")
            kwargs[f.name] = tuple(v)
        elif f.type == "int":
            kwargs[f.name] = _integer(section, f.name, path, minimum=1)
        else:
            top = 1.0 if f.name in UNIT_INTERVAL else None
            kwargs[f.name] = float(_number(section, f.name, path, minimum=0.0, maximum=top))
    hyper = AgentHyperParams(**kwargs)
    if hyper.epsilon_end > hyper.epsilon_start:
        raise ConfigError(f"{path}.epsilon_end: must be <= {path}.epsilon_start "
                          f"({hyper.epsilon_start})")
    if hyper.batch_size > hyper.buffer_capacity:  # the buffer never fills a batch
        raise ConfigError(f"{path}.batch_size: must be <= {path}.buffer_capacity "
                          f"({hyper.buffer_capacity})")
    return hyper


def parse_scheme_kinds(scheme_section: dict, path: str = "scheme") -> tuple[str, ...]:
    kind = _require(scheme_section, "kind", path)
    kinds = kind if isinstance(kind, list) else [kind]
    if not kinds:
        raise ConfigError(f"{path}.kind: expected a scheme kind or a non-empty list")
    for k in kinds:
        if k not in SCHEME_KINDS:
            raise ConfigError(f"{path}.kind: unknown scheme {k!r} "
                              f"(expected one of {SCHEME_KINDS})")
    _reject_duplicates(kinds, f"{path}.kind")
    return tuple(kinds)


def parse_seeds(seeds) -> tuple[int, ...]:
    """Run seeds: a non-empty list of distinct non-negative integers."""
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds: expected a non-empty list of integers")
    for i, s in enumerate(seeds):
        if isinstance(s, bool) or not isinstance(s, int):
            raise ConfigError("seeds: expected a non-empty list of integers")
        if s < 0:
            raise ConfigError(f"seeds[{i}]: must be >= 0")
    _reject_duplicates(seeds, "seeds")
    return tuple(seeds)


def scenario_hash(scenario_section: dict) -> str:
    """Stable digest of the scenario section (canonical JSON)."""
    blob = json.dumps(scenario_section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_config(data: dict) -> ExperimentConfig:
    _check_section(data, "config", ("scenario", "scheme", "agent", "phases", "seeds", "output"))
    scenario_section = _require(data, "scenario", "config")
    scenario = parse_scenario(scenario_section)
    scheme_section = _check_section(_require(data, "scheme", "config"), "scheme",
                                    ("kind", "reward_variant", "beta", "static_allocation"))
    kinds = parse_scheme_kinds(scheme_section)
    rewards = parse_rewards(scheme_section, scenario)

    static = scheme_section.get("static_allocation")
    if static is not None:
        if not isinstance(static, list):
            raise ConfigError("scheme.static_allocation: expected one entry per slice "
                              "plus headroom")
        for i, x in enumerate(static):
            _checked_number(x, f"scheme.static_allocation[{i}]")
        # the length and simplex checks the static scheme makes when it is
        # built, so validate catches them
        static = tuple(static_allocation_row(static, scenario.slice_count,
                                             "scheme.static_allocation").tolist())

    hyper = parse_hyper(data.get("agent"))

    phases_section = _check_section(data.get("phases", {}), "phases",
                                    ("explore", "train", "eval"))
    phases = PhasePlan(**{key: _integer(phases_section, key, "phases", minimum=0)
                          for key in ("explore", "train", "eval") if key in phases_section})

    seeds = parse_seeds(data.get("seeds", [0]))

    output_section = _check_section(data.get("output", {}), "output", ("dir",))
    out_dir = output_section.get("dir", "runs")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output.dir: expected a non-empty string")

    return ExperimentConfig(
        scenario=scenario,
        scheme_kinds=kinds,
        static_allocation=static,
        rewards=rewards,
        scaling=StateScaling(scenario.slices.throughput_req, scenario.group_size_max),
        hyper=hyper,
        phases=phases,
        seeds=seeds,
        out_dir=out_dir,
        scenario_hash=scenario_hash(scenario_section),
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON ({e.msg})") from None
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror}") from None
    return parse_config(data)
