"""In-memory span tracer that wraps mfgsolve's layers from outside the package.

Every traced function is replaced wherever a caller looks it up: in each
loaded ``mfgsolve`` module whose namespace holds it (the defining module and
every module that imported it by name), or on its class for methods.  A name
that no longer exists is skipped, so a layer refactored away reads 0 calls.

Spans (name, parent, start, end) live in flat arrays and are written out at
the end.  A span's self time is its duration minus the durations of its
direct children.  For a few layers the tracer also counts *repeats*: calls
whose input is byte-for-byte equal to the input of an earlier call in the
same solver iteration or the one before it.  The two-iteration window
catches ``optimal_q(mu_next)``, which is computed for one iteration's
exploitability and again for the next iteration's policy step.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _arg1(_, x, *__):
    return x


def _flow(_, mu, *__):
    return mu.per_time


def _policy(_, pi, *__):
    return pi.per_time_state


def _forward_name(_, obs, *__):
    # Batch 1 is action selection; larger batches are targets and evaluation.
    return "rl.forward.b1" if len(obs) == 1 else "rl.forward.batch"


# (defining module, attribute or Class.method, span name, input key or None)
TARGETS = (
    ("mfgsolve.cli", "run", "cli.run", None),
    ("mfgsolve.solvers", "prior_descent", "solvers.prior_descent", None),
    ("mfgsolve.solvers", "boltzmann_iteration", "solvers.boltzmann_iteration", None),
    ("mfgsolve.exploitability", "exploitability_exact", "exploitability.exploitability_exact", None),
    ("mfgsolve.exploitability", "exploitability_stochastic", "exploitability.exploitability_stochastic", None),
    ("mfgsolve.dp", "optimal_q", "dp.optimal_q", _flow),
    ("mfgsolve.dp", "soft_q", "dp.soft_q", None),
    ("mfgsolve.dp", "policy_q", "dp.policy_q", None),
    ("mfgsolve.dp", "boltzmann_policy", "dp.boltzmann_policy", None),
    ("mfgsolve.dp", "induced_mean_field", "dp.induced_mean_field", _policy),
    ("mfgsolve.envs.base", "EnvironmentSpec.transition_table", "envs.transition_table", _arg1),
    ("mfgsolve.envs.base", "EnvironmentSpec.reward_table", "envs.reward_table", None),
    ("mfgsolve.core", "as_distribution", "core.as_distribution", None),
    ("mfgsolve.sim", "simulate_mean_field", "sim.simulate_mean_field", None),
    ("mfgsolve.sim", "evaluate_policy_stochastic", "sim.evaluate_policy_stochastic", None),
    ("mfgsolve.envs.taxi", "TaxiEnvironment.sample_step", "envs.taxi.sample_step", None),
    ("mfgsolve.envs.taxi", "TaxiEnvironment.observe", "envs.taxi.observe", None),
    ("mfgsolve.rl.dqn", "dqn_train", "rl.dqn_train", None),
    ("mfgsolve.rl.network", "DuelingQNetwork.forward", _forward_name, None),
    ("mfgsolve.rl.network", "DuelingQNetwork.loss_and_grad", "rl.loss_and_grad", None),
    ("mfgsolve.rl.network", "Adam.step", "rl.adam_step", None),
)
SPAN_NAMES = tuple(
    n for _, _, name, _ in TARGETS
    for n in ((name,) if isinstance(name, str) else ("rl.forward.b1", "rl.forward.batch"))
)
REPEAT_NAMES = tuple(name for _, _, name, key in TARGETS if key is not None)
# Solver loops end every iteration by building one of these records.
ITERATION_MARKER = ("mfgsolve.solvers", "IterationRecord")


def _resolve(module: str, attr: str):
    """(owner, attribute name, current value or None)."""
    owner = importlib.import_module(module)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls, None)
    return owner, attr, getattr(owner, attr, None)


def patch_everywhere(module: str, attr: str, make_wrapper) -> None:
    """Replace ``module.attr`` at every place mfgsolve looks it up; a name
    that does not exist is left alone."""
    owner, name, original = _resolve(module, attr)
    if original is None:
        return
    wrapped = make_wrapper(original)
    if isinstance(owner, type):
        setattr(owner, name, wrapped)
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "mfgsolve" or mod_name.startswith("mfgsolve."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


class Tracer:
    """Span recorder for one traced solve in a dedicated process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.iterations = 0
        self._recent: dict[str, tuple[int, set, set]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _note_input(self, name: str, value: np.ndarray) -> None:
        key = np.ascontiguousarray(value).tobytes()
        it, current, previous = self._recent.get(name, (self.iterations, set(), set()))
        if it != self.iterations:
            previous = current if it == self.iterations - 1 else set()
            current = set()
        if key in current or key in previous:
            self.counts[name + ".repeats"] += 1
        current.add(key)
        self._recent[name] = (self.iterations, current, previous)

    def span(self, fn, name, key=None):
        """Wrap ``fn`` so each call records one span named ``name`` (or
        ``name(*args)`` when it is callable)."""
        fixed = None if callable(name) else self._id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nid = fixed if fixed is not None else self._id(name(*args))
            if key is not None:
                try:
                    value = key(*args)
                except (AttributeError, IndexError, TypeError):
                    self.counts[self.names[nid] + ".unkeyed"] += 1
                else:
                    self._note_input(self.names[nid], value)
            i = len(self.span_end)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_end.append(0.0)
            self._stack.append(i)
            self.span_start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{self.names[nid]}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self.span_end[i] = time.perf_counter()
                self._stack.pop()

        return traced

    def _marker(self, record_cls):
        def record(*args, **kwargs):
            self.iterations += 1
            return record_cls(*args, **kwargs)

        return record

    def install(self) -> None:
        """Patch every target that exists in the loaded package."""
        for module, attr, name, key in TARGETS:
            patch_everywhere(module, attr, lambda fn, n=name, k=key: self.span(fn, n, k))
        patch_everywhere(*ITERATION_MARKER, self._marker)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays, with self time in seconds."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        duration = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": parent,
            "start": start - (start[0] if len(start) else 0.0),
            "duration": duration,
            "self": duration - covered,
        }

    def summary(self) -> dict:
        """Per-name calls, self and total milliseconds, plus raw counts."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        self_ms = np.bincount(a["name"], weights=a["self"], minlength=n) * 1e3
        total_ms = np.bincount(a["name"], weights=a["duration"], minlength=n) * 1e3
        counts = dict(self.counts)
        if "rl.dqn_train" in self._ids and "envs.taxi.sample_step" in self._ids:
            parents = a["parent"][a["name"] == self._ids["envs.taxi.sample_step"]]
            parents = parents[parents >= 0]
            inside = a["name"][parents] == self._ids["rl.dqn_train"]
            counts["rl.dqn_train.env_steps"] = int(inside.sum())
        return {
            "spans": {
                name: {
                    "calls": int(calls[i]),
                    "self_ms": float(self_ms[i]),
                    "total_ms": float(total_ms[i]),
                }
                for i, name in enumerate(self.names)
            },
            "counts": counts,
            "iterations": self.iterations,
            "span_count": int(len(a["name"])),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
