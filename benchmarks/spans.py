"""Span timers and counters wrapped around slicesim's public functions.

No program file is edited: ``Tracer.install`` replaces every public function
and method of the traced modules with a timing wrapper, at every name a
caller resolves. ``from .mdp import reward_global`` binds a second name in
the importing module, so each module-level function is replaced wherever
any slicesim module holds it. Each span knows its parent through a stack, so
a span's self time is its duration minus the time of its child spans.

Spans aggregate into groups (for example ``nn.forward`` covers ``logits``,
``forward`` and ``forward_cached``). A group's inclusive time and call count
only take spans whose parent is outside the group, so nesting inside one
group is not counted twice; its self time sums over all of its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

TRACED_MODULES = {
    "slicesim.netsim": "netsim",
    "slicesim.mdp": "mdp",
    "slicesim.nn": "nn",
    "slicesim.td3": "td3",
    "slicesim.schemes": "schemes",
    "slicesim.harness.runner": "runner",
    "slicesim.harness.metrics": "metrics",
    "slicesim.harness.config": "config",
}

# Span name -> group name; spans not listed form a group of their own.
GROUPS = {
    "netsim.SliceEnv.step": "netsim.step",
    "netsim.TrafficMask.value": "netsim.mask_value",
    "mdp.global_state": "mdp.state",
    "mdp.local_state": "mdp.state",
    "mdp.extract_message": "mdp.state",
    "mdp.reward_global": "mdp.reward",
    "mdp.reward_local": "mdp.reward",
    "mdp.reward_penalized": "mdp.reward",
    "nn.Mlp.logits": "nn.forward",
    "nn.Mlp.forward": "nn.forward",
    "nn.Mlp.forward_cached": "nn.forward",
    "nn.Mlp.backward": "nn.backward",
    "nn.Adam.step": "nn.adam",
    "td3.Td3Agent.select_action": "td3.select_action",
    "td3.ReplayBuffer.add": "td3.buffer_add",
    "td3.ReplayBuffer.sample": "td3.buffer_sample",
    "td3.Td3Agent.critic_update": "td3.critic_update",
    "td3.Td3Agent.compute_targets": "td3.compute_targets",
    "td3.Td3Agent.actor_update": "td3.actor_update",
    "td3.Td3Agent.actor_gradients": "td3.actor_update",
    "td3.Td3Agent.sync_targets": "td3.sync_targets",
    "td3.Td3Agent.train_step": "td3.train_step",
    "schemes.baseline_allocation": "schemes.act",
    "runner.run_single": "runner",
}
CONTROLLER_METHODS = ("act", "record", "train")
PHASES = ("explore", "train", "eval")


def group_of(span: str) -> str:
    if span in GROUPS:
        return GROUPS[span]
    parts = span.split(".")
    if parts[0] == "schemes" and len(parts) == 3 and parts[2] in CONTROLLER_METHODS:
        return f"schemes.{parts[2]}"
    return span


def _mlp_flops(mlp, rows: int, per_weight: int) -> int:
    sizes = mlp.spec.layer_sizes
    return per_weight * rows * sum(a * b for a, b in zip(sizes, sizes[1:]))


def _rows(x) -> int:
    return 1 if x.ndim == 1 else x.shape[0]


class Tracer:
    """Owns the patched names and the span aggregates of one traced pass."""

    def __init__(self):
        self.groups: dict[str, list] = {}  # group -> [calls, inclusive_s, self_s]
        self.span_calls: dict[str, list] = {}  # span -> [calls]
        self.counters: dict[str, int] = {}
        self.step_ms: dict[str, list[float]] = {p: [] for p in PHASES}
        self.replay_nbytes = 0
        self._stack: list[list] = [[0.0, None]]  # root frame: [child_s, group]
        self._patched: list[tuple[object, str, object]] = []
        self._iteration: tuple[float, str] | None = None

    # -- counters fed by hooks ----------------------------------------------

    def _count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _on_solve(self, args, result) -> None:
        _, converged, iterations = result
        self._count("netsim.fp_iterations", iterations)
        self._count("netsim.fp_nonconverged", 0 if converged else 1)

    def _on_adam(self, args, result) -> None:
        self._count("nn.adam.params", sum(p.size for p in args[1]))

    def _on_forward(self, args, result) -> None:
        self._count("nn.flops", _mlp_flops(args[0], _rows(args[1]), 2))

    def _on_backward(self, args, result) -> None:
        # weight gradient and input gradient: two matmuls per layer
        self._count("nn.flops", _mlp_flops(args[0], _rows(args[2]), 4))

    def _on_build(self, args, result) -> None:
        agents = getattr(result, "agents", None) or (
            [result.agent] if hasattr(result, "agent") else [])
        nbytes = sum(a.nbytes for agent in agents for a in vars(agent.buffer).values()
                     if hasattr(a, "nbytes"))
        self.replay_nbytes = max(self.replay_nbytes, nbytes)

    def _on_act(self, args) -> None:
        # a loop iteration of run_single runs from one act() to the next; the
        # last one of a run also holds the summary and is not sampled
        now = time.perf_counter()
        if self._iteration is not None:
            start, phase = self._iteration
            self.step_ms[phase].append((now - start) * 1e3)
        self._iteration = (now, args[2])

    def _on_run(self, args) -> None:
        self._iteration = None

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, span: str):
        g = self.groups.setdefault(group_of(span), [0, 0.0, 0.0])
        n = self.span_calls.setdefault(span, [0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n[0] += 1
            parent = stack[-1]
            frame = [0.0, g]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                g[2] += dur - frame[0]
                if parent[1] is not g:
                    g[0] += 1
                    g[1] += dur
                parent[0] += dur

        pre, post = self._hooks(span)
        if pre is None and post is None:
            return traced

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if pre is not None:
                pre(args)
            result = traced(*args, **kwargs)
            if post is not None:
                post(args, result)
            return result

        return hooked

    def _hooks(self, span: str):
        post = {
            "netsim.solve_coupled_loads": self._on_solve,
            "nn.Adam.step": self._on_adam,
            "nn.Mlp.logits": self._on_forward,
            "nn.Mlp.forward_cached": self._on_forward,
            "nn.Mlp.backward": self._on_backward,
            "schemes.build_scheme": self._on_build,
        }.get(span)
        if span == "runner.run_single":
            return self._on_run, None
        if span.startswith("schemes.") and span.endswith(".act"):  # Controller.act methods
            return self._on_act, None
        return None, post

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the traced modules."""
        loaded = [m for name, m in sorted(sys.modules.items())
                  if name == "slicesim" or name.startswith("slicesim.")]
        for modname, short in TRACED_MODULES.items():
            module = importlib.import_module(modname)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(obj, f"{short}.{name}")
                    for holder in loaded:
                        for attr, val in list(vars(holder).items()):
                            if val is obj:
                                self._set(holder, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, f"{short}.{name}")

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            span = f"{prefix}.{attr}"
            if isinstance(val, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(val.__func__, span)))
            elif inspect.isfunction(val):
                self._set(cls, attr, self._wrap(val, span))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def calls(self, group: str) -> int:
        return self.groups.get(group, [0, 0.0, 0.0])[0]

    def inclusive_s(self, group: str) -> float:
        return self.groups.get(group, [0, 0.0, 0.0])[1]

    def self_s(self, group: str) -> float:
        return self.groups.get(group, [0, 0.0, 0.0])[2]

    def total_self_s(self) -> float:
        return sum(g[2] for g in self.groups.values())
