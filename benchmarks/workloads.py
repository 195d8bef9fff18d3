"""Workload definitions: the configs the benchmark generates and the run matrix.

Every workload is a fixed matrix of (scheme, run seed) runs on a short plan
that keeps the shipped 1:4:1 explore:train:eval proportion, so all three
phase paths run. The matrix is fixed so that ``eval_reward`` and the
deterministic counts are comparable across workload seeds; the workload seed
fixes the order in which the matrix runs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
from dataclasses import dataclass

# Scenario of configs/reference.json, copied so that an edit there cannot
# silently change what the benchmark measures.
_REF_SLICES = [
    {"throughput_req": 5000000.0, "delay_req": 0.001, "demand_per_user": 5000000.0,
     "group_size_max": 6,
     "mask": {"period": 500.0, "breakpoints": [[0.0, 1.0], [125.0, 0.17], [375.0, 0.17]]}},
    {"throughput_req": 3000000.0, "delay_req": 0.001, "demand_per_user": 3000000.0,
     "group_size_max": 6,
     "mask": {"period": 500.0, "breakpoints": [[125.0, 0.17], [250.0, 1.0], [375.0, 0.17]]}},
]
REF3_SCENARIO = {
    "topology": "ring", "cells": 3, "bandwidth_hz": 20000000.0, "coupling": 0.3,
    "se_max": 2.0, "p_stay": 0.25, "slices": _REF_SLICES,
}
# 25-cell grid with the reference slices and masks. Group sizes of 50 keep
# two users per cell per slice, as in the ring (6 users over 3 cells);
# coupling 0.15 with up to 4 neighbours matches the ring's worst case of
# 2 neighbours at 0.3.
GRID25_SCENARIO = dict(
    REF3_SCENARIO, topology="grid", cells=25, coupling=0.15,
    slices=[dict(s, group_size_max=50) for s in _REF_SLICES])

PHASES = {"explore": 100, "train": 400, "eval": 100}
RUN_SEEDS = (0, 1, 2, 3)
# Run seeds for checking a claim on inputs not used while the change was
# written (``--held-out``); golden digests cover them too.
HELD_OUT_SEEDS = (1000, 1001, 1002, 1003)


# Spans every workload must enter. One left at zero means its caller reaches
# the function through a name the tracer did not wrap.
COMMON_SPANS = (
    "config.load_config", "runner.run_single", "schemes.build_scheme",
    "netsim.SliceEnv.step", "netsim.walk_users", "netsim.solve_coupled_loads",
    "netsim.compute_kpis", "netsim.validate_allocation", "netsim.TrafficMask.value",
    "mdp.reward_global", "mdp.reward_penalized", "mdp.penalty_gaps",
    "metrics.resource_efficiency")
LEARNER_SPANS = (
    "mdp.project_or_reject", "td3.Td3Agent.select_action", "td3.ReplayBuffer.add",
    "td3.ReplayBuffer.sample", "td3.Td3Agent.train_step", "td3.Td3Agent.critic_update",
    "td3.Td3Agent.compute_targets", "td3.Td3Agent.actor_update",
    "td3.Td3Agent.actor_gradients", "td3.Td3Agent.sync_targets", "nn.Mlp.logits",
    "nn.Mlp.forward", "nn.Mlp.forward_cached", "nn.Mlp.backward", "nn.Adam.step")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: dict
    kinds: tuple[str, ...]
    spans: tuple[str, ...]  # spans this workload must enter

    @property
    def learns(self) -> bool:
        return set(LEARNER_SPANS) <= set(self.spans)

    def config(self, run_seeds) -> dict:
        """The full experiment config the benchmark loads for this workload."""
        return {
            "scenario": copy.deepcopy(self.scenario),
            "scheme": {"kind": list(self.kinds), "reward_variant": "delay_aware", "beta": 4.0},
            "agent": {"actor_lr": 0.001, "target_noise": 0.1},
            "phases": dict(PHASES),
            "seeds": list(run_seeds),
            "output": {"dir": "runs/bench"},
        }


WORKLOADS = {w.name: w for w in (
    Workload("ref3-percell", REF3_SCENARIO, ("dist", "dist_comm"),
             spans=COMMON_SPANS + LEARNER_SPANS + (
                 "mdp.local_state", "mdp.extract_message", "mdp.reward_local",
                 "schemes.DistributedController.act", "schemes.DistributedController.record",
                 "schemes.DistributedController.train")),
    Workload("ref3-central", REF3_SCENARIO, ("cen_soft", "cen_pen"),
             spans=COMMON_SPANS + LEARNER_SPANS + (
                 "mdp.global_state", "schemes.CentralController.act",
                 "schemes.CentralController.record", "schemes.CentralController.train")),
    Workload("grid25-heuristic", GRID25_SCENARIO, ("baseline", "static_default"),
             spans=COMMON_SPANS + (
                 "schemes.BaselineController.act", "schemes.StaticController.act",
                 "schemes.baseline_allocation")),
)}


def config_sha256(config: dict) -> str:
    """Digest of the whole config, not only its scenario section."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def rounds(workload: Workload, run_seeds, workload_seed: int) -> list[list[tuple[str, int]]]:
    """The matrix as rounds, one per run seed, each running every scheme once,
    in an order drawn from the workload seed."""
    rng = random.Random(workload_seed)
    seeds = list(run_seeds)
    rng.shuffle(seeds)
    out = []
    for seed in seeds:
        kinds = list(workload.kinds)
        rng.shuffle(kinds)
        out.append([(kind, seed) for kind in kinds])
    return out
