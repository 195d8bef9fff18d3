"""Experiment config: JSON schema, validation, scenario hashing.

Top-level sections: ``scenario``, ``scheme``, ``agent``, ``phases``,
``output``, plus a ``seeds`` list. Validation errors carry the dotted path
of the offending field so a bad config is quick to fix.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields as dc_fields

import numpy as np

from ..mdp import PENALTY_AGGREGATES, REWARD_VARIANTS, RewardSpec, StateScaling
from ..netsim import (
    TOPOLOGY_BUILDERS,
    ConfigError,
    Scenario,
    SliceSpec,
    Topology,
    TrafficMask,
)
from ..schemes import SCHEME_KINDS, AgentHyperParams


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
    v = section[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path}.{key}: must be >= {minimum}")
    if maximum is not None and v > maximum:
        raise ConfigError(f"{path}.{key}: must be <= {maximum}")
    return v


def _integer(section: dict, key: str, path: str, default=None, minimum=None):
    v = _number(section, key, path, default=default, minimum=minimum)
    if int(v) != v:
        raise ConfigError(f"{path}.{key}: expected an integer")
    return int(v)


def _check_section(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    return obj


def parse_mask(obj, path: str) -> TrafficMask:
    section = _check_section(obj, path)
    period = _number(section, "period", path, minimum=1e-12)
    pts = _require(section, "breakpoints", path)
    if not isinstance(pts, list) or not pts:
        raise ConfigError(f"{path}.breakpoints: expected a non-empty list")
    out = []
    for i, bp in enumerate(pts):
        if not isinstance(bp, list) or len(bp) != 2:
            raise ConfigError(f"{path}.breakpoints[{i}]: expected a [time, value] pair")
        out.append((float(bp[0]), float(bp[1])))
    try:
        return TrafficMask(tuple(out), period=float(period))
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def parse_scenario(obj, path: str = "scenario") -> Scenario:
    section = _check_section(obj, path)
    kind = str(section.get("topology", "ring"))
    if kind not in TOPOLOGY_BUILDERS:
        raise ConfigError(f"{path}.topology: unknown kind {kind!r} "
                          f"(expected one of {sorted(TOPOLOGY_BUILDERS)})")
    cells = _integer(section, "cells", path, minimum=1)
    bandwidth = _number(section, "bandwidth_hz", path, minimum=1.0)
    coupling = _number(section, "coupling", path, default=0.0, minimum=0.0)
    se_max = _number(section, "se_max", path, minimum=1e-9)
    topology = TOPOLOGY_BUILDERS[kind](cells, float(bandwidth), float(coupling), float(se_max))

    slices_obj = _require(section, "slices", path)
    if not isinstance(slices_obj, list) or not slices_obj:
        raise ConfigError(f"{path}.slices: expected a non-empty list")
    thr, dly, dem, groups, masks = [], [], [], [], []
    for i, s in enumerate(slices_obj):
        sp = f"{path}.slices[{i}]"
        s = _check_section(s, sp)
        thr.append(float(_number(s, "throughput_req", sp, minimum=1e-9)))
        dly.append(float(_number(s, "delay_req", sp, minimum=1e-12)))
        dem.append(float(_number(s, "demand_per_user", sp, minimum=1e-9)))
        groups.append(_integer(s, "group_size_max", sp, minimum=1))
        masks.append(parse_mask(_require(s, "mask", sp), f"{sp}.mask"))
    try:
        return Scenario(
            topology=topology,
            slices=SliceSpec(tuple(thr), tuple(dly), tuple(dem)),
            masks=tuple(masks),
            group_size_max=tuple(groups),
            p_stay=float(_number(section, "p_stay", path, default=0.8, minimum=0.0)),
            delay_base_s=float(_number(section, "delay_base_s", path, default=5e-4, minimum=1e-12)),
            load_cap=float(_number(section, "load_cap", path, default=0.99, minimum=1e-6)),
            fp_tol=float(_number(section, "fp_tol", path, default=1e-6, minimum=0.0)),
            fp_max_iter=_integer(section, "fp_max_iter", path, default=1000, minimum=1),
        )
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def parse_rewards(scheme_section: dict, scenario: Scenario, path: str = "scheme") -> RewardSpec:
    variant = str(scheme_section.get("reward_variant", "delay_aware"))
    if variant not in REWARD_VARIANTS:
        raise ConfigError(f"{path}.reward_variant: unknown variant {variant!r} "
                          f"(expected one of {REWARD_VARIANTS})")
    aggregate = str(scheme_section.get("penalty_aggregate", "mean"))
    if aggregate not in PENALTY_AGGREGATES:
        raise ConfigError(f"{path}.penalty_aggregate: expected one of {PENALTY_AGGREGATES}")
    signed = scheme_section.get("signed_penalty", False)
    if not isinstance(signed, bool):
        raise ConfigError(f"{path}.signed_penalty: expected true or false")
    return RewardSpec(
        variant=variant,
        throughput_req=scenario.slices.throughput_req,
        delay_req=scenario.slices.delay_req,
        beta=float(_number(scheme_section, "beta", path, default=1.2, minimum=0.0)),
        signed_penalty=signed,
        penalty_aggregate=aggregate,
    )


# Agent parameters that are fractions: discount, Polyak rate, exploration odds.
UNIT_INTERVAL = ("gamma", "tau", "epsilon_start", "epsilon_end")


def parse_hyper(obj, path: str = "agent") -> AgentHyperParams:
    section = _check_section(obj, path) if obj is not None else {}
    known = {f.name for f in dc_fields(AgentHyperParams)}
    for key in section:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown agent parameter")
    kwargs = {}
    for f in dc_fields(AgentHyperParams):
        if f.name not in section:
            continue
        v = section[f.name]
        if f.name.endswith("_hidden"):
            if not isinstance(v, list) or not all(isinstance(x, int) and x > 0 for x in v):
                raise ConfigError(f"{path}.{f.name}: expected a list of positive integers")
            kwargs[f.name] = tuple(v)
        elif f.name in ("batch_size", "policy_delay", "buffer_capacity"):
            kwargs[f.name] = _integer(section, f.name, path, minimum=1)
        else:
            top = 1.0 if f.name in UNIT_INTERVAL else None
            kwargs[f.name] = float(_number(section, f.name, path, minimum=0.0, maximum=top))
    hyper = AgentHyperParams(**kwargs)
    if hyper.epsilon_end > hyper.epsilon_start:
        raise ConfigError(f"{path}.epsilon_end: must be <= {path}.epsilon_start "
                          f"({hyper.epsilon_start})")
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
    return tuple(kinds)


def scenario_hash(scenario_section: dict) -> str:
    """Stable digest of the scenario section (canonical JSON)."""
    blob = json.dumps(scenario_section, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root: expected an object")
    scenario_section = _check_section(_require(data, "scenario", "config"), "scenario")
    scenario = parse_scenario(scenario_section)
    scheme_section = _check_section(_require(data, "scheme", "config"), "scheme")
    kinds = parse_scheme_kinds(scheme_section)
    rewards = parse_rewards(scheme_section, scenario)

    static = scheme_section.get("static_allocation")
    if static is not None:
        if not isinstance(static, list) or len(static) != scenario.slice_count + 1:
            raise ConfigError("scheme.static_allocation: expected one entry per slice "
                              "plus headroom")
        static = tuple(float(x) for x in static)

    hyper = parse_hyper(data.get("agent"))

    phases_section = _check_section(data.get("phases", {}), "phases")
    phases = PhasePlan(
        explore=_integer(phases_section, "explore", "phases", default=2500, minimum=0),
        train=_integer(phases_section, "train", "phases", default=10000, minimum=0),
        eval=_integer(phases_section, "eval", "phases", default=2500, minimum=0),
    )

    seeds = data.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds: expected a non-empty list of integers")
    for s in seeds:
        if isinstance(s, bool) or not isinstance(s, int):
            raise ConfigError("seeds: expected a non-empty list of integers")

    output_section = _check_section(data.get("output", {}), "output")
    out_dir = str(output_section.get("dir", "runs"))

    return ExperimentConfig(
        scenario=scenario,
        scheme_kinds=kinds,
        static_allocation=static,
        rewards=rewards,
        scaling=StateScaling(scenario.slices.throughput_req, scenario.group_size_max),
        hyper=hyper,
        phases=phases,
        seeds=tuple(int(s) for s in seeds),
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
