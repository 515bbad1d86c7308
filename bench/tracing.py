"""Traced rounds: spans and counts recorded around the package's public calls.

``Tracer.install`` wraps every public function of each package module (and
the methods of ``TrialStreams`` and ``Reporter``) from the outside, on every
module that bound the function by name at import. Each call records a span
(name, start, end, parent) in memory; per-step methods such as
``Policy.choose`` are only counted. ``uninstall`` puts the originals back.

A layer is a module. Its self time is the time of its spans not covered by
their child spans, so the self times of one round add up to the round's time
inside the package.
"""

from __future__ import annotations

import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("rng", "distributions", "policies", "engine", "oracles", "construction", "verification", "reporting", "cli")
# Per-value helpers: spans there would cost more than the work they time,
# which stays in the caller's self time.
UNSPANNED = {"reporting": {"fmt_float", "jsonable"}}
# Reported per-layer metrics and their units. A layer that does not run in a
# workload reads 0 there.
PER_LAYER = {
    "rng.self_s": "s",
    "rng.generators": "count",
    "rng.doubles": "count",
    "engine.self_s": "s",
    "engine.trial_steps": "count",
    "engine.trial_steps_per_s": "1/s",
    "engine.extreme_regret_s": "s",
    "engine.bootstrap_resamples": "count",
    "engine.exact_curve_s": "s",
    "engine.steps_past_crossing": "count",
    "engine.stream_useful_ratio": "ratio",
    "distributions.self_s": "s",
    "distributions.log_survivals_calls": "count",
    "policies.choose_calls": "count",
    "oracles.self_s": "s",
    "oracles.dp_state_updates": "count",
    "construction.self_s": "s",
    "verification.self_s": "s",
    "verification.corollary9.round_robin_s": "s",
    "verification.corollary9.eps_greedy_min_s": "s",
    "verification.theorem1.round_robin_s": "s",
    "verification.theorem1.eps_greedy_min_s": "s",
    "reporting.self_s": "s",
    "reporting.bytes": "B",
    "cli.self_s": "s",
}
CLASS_METHODS = {
    ("rng", "TrialStreams"): ("__init__", "next_block"),
    ("reporting", "Reporter"): ("write_config", "write_csv", "write_records", "emit_curve", "emit_regret", "emit_checks", "emit_scan", "emit_tuple"),
}


class _CountingGenerator:
    """Forwards to a numpy Generator and counts the doubles drawn by random()."""

    __slots__ = ("_gen", "_counts")

    def __init__(self, gen, counts):
        self._gen = gen
        self._counts = counts

    def random(self, size=None, *args, **kwargs):
        if size is None:
            n = 1
        elif isinstance(size, int):
            n = size
        else:
            n = math.prod(size)
        self._counts["rng.doubles"] += n
        return self._gen.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _bind(signature, args, kwargs) -> dict:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _support_size(arms) -> int:
    return len({v for d in arms for v in getattr(d, "support", ())})


class Tracer:
    def __init__(self):
        self.reset()
        self._undo: list[tuple] = []

    def reset(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.mc_time = 0.0

    # -- wrappers ---------------------------------------------------------

    def _span(self, fn, name, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        tracer = self
        signature = inspect.signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            span = [nid, perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = perf_counter()
            if after is not None:
                result = after(lambda: _bind(signature, args, kwargs), result, span[2] - span[1])
            return result

        return traced

    def _counted(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- counters read at layer boundaries --------------------------------

    def _after_hooks(self):
        c = self.counts

        def gen(args, result, dur):
            c["rng.generators"] += 1
            return _CountingGenerator(result, c)

        def stream(args, result, dur):
            args = args()
            self.mc_time += dur
            c["engine.trial_steps"] += args["n_trials"] * result.t_evaluated
            useful = result.crossed_at if result.crossed_at is not None else result.t_evaluated
            c["engine.stream_steps"] += result.t_evaluated
            c["engine.stream_useful_steps"] += useful
            return result

        def estimate(args, result, dur):
            args = args()
            self.mc_time += dur
            c["engine.trial_steps"] += args["n_trials"] * args["t_max"]
            return result

        def trajectory(args, result, dur):
            args = args()
            self.mc_time += dur
            c["engine.trial_steps"] += args["horizon"]
            return result

        def regret(args, result, dur):
            args = args()
            c["engine.extreme_regret_s"] += dur
            if args["mode"] == "monte_carlo":
                self.mc_time += dur
                c["engine.trial_steps"] += args["n_trials"] * result.cap
                if args["bootstrap"] > 0 and args["n_trials"] > 1:
                    c["engine.bootstrap_resamples"] += args["bootstrap"]
            return result

        def survivals(args, result, dur):
            c["distributions.log_survivals_calls"] += 1
            return result

        def exact_curve(args, result, dur):
            c["engine.exact_curve_s"] += dur
            return result

        def optimal(args, result, dur):
            args = args()
            arms = args["arms"]
            c["oracles.dp_state_updates"] += (_support_size(arms) + 1) * len(arms) * args["horizon"]
            return result

        def greedy(args, result, dur):
            args = args()
            if args["mode"] == "exact":
                c["oracles.dp_state_updates"] += (_support_size(args["arms"]) + 1) * args["horizon"]
            return result

        def part(check):
            def hook(args, result, dur):
                policy = args().get("policy")
                pname = getattr(policy, "name", "round_robin")
                c[f"verification.{check}.{pname}_s"] += dur
                return result

            return hook

        def written(args, result, dur):
            reporter = args()["self"]
            c["reporting.bytes"] += os.path.getsize(reporter.written[-1])
            return result

        return {
            "rng.generator_for": gen,
            "engine.stream_curve": stream,
            "engine.estimate_min_curve": estimate,
            "engine.run_trajectory": trajectory,
            "engine.extreme_regret": regret,
            "engine.exact_min_curve": exact_curve,
            "distributions.log_survivals": survivals,
            "oracles.optimal_oracle_value": optimal,
            "oracles.greedy_oracle_value": greedy,
            "verification.check_corollary9": part("corollary9"),
            "verification.demonstrate_theorem1": part("theorem1"),
            "reporting.Reporter.write_config": written,
            "reporting.Reporter.write_csv": written,
            "reporting.Reporter.write_records": written,
        }

    # -- install / uninstall ----------------------------------------------

    def install(self, package: str = "extremebandits"):
        hooks = self._after_hooks()
        modules = {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS if f"{package}.{layer}" in sys.modules}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                    or name in UNSPANNED.get(layer, ())
                ):
                    continue
                key = f"{layer}.{name}"
                wrappers[id(obj)] = (obj, self._span(obj, key, hooks.get(key)))
        holders = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for mod in holders:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, hit[1])
        for (layer, cls_name), methods in CLASS_METHODS.items():
            cls = getattr(modules.get(layer), cls_name, None)
            for meth in methods:
                if cls is None or meth not in vars(cls):
                    continue
                original = vars(cls)[meth]
                key = f"{layer}.{cls_name}.{meth}"
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._span(original, key, hooks.get(key)))
        policies = modules.get("policies")
        base = getattr(policies, "Policy", None)
        for obj in list(vars(policies).values()) if policies else []:
            if inspect.isclass(obj) and base is not None and issubclass(obj, base) and "choose" in vars(obj):
                original = vars(obj)["choose"]
                self._undo.append((obj, "choose", original))
                setattr(obj, "choose", self._counted(original, "policies.choose_calls"))

    def uninstall(self):
        while self._undo:
            holder, name, original = self._undo.pop()
            setattr(holder, name, original)

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer: span time minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (nid, start, end, parent), covered in zip(self.spans, child):
            out[self.names[nid].split(".", 1)[0]] += (end - start) - covered
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced round, keyed as in PER_LAYER."""
        c = self.counts
        out = {f"{layer}.self_s": t for layer, t in self.self_times().items()}
        out.update(c)
        out["engine.trial_steps_per_s"] = c["engine.trial_steps"] / self.mc_time if self.mc_time > 0 else 0.0
        evaluated, useful = c["engine.stream_steps"], c["engine.stream_useful_steps"]
        out["engine.steps_past_crossing"] = evaluated - useful
        out["engine.stream_useful_ratio"] = useful / evaluated if evaluated else 0.0
        return {key: float(out.get(key, 0.0)) for key in PER_LAYER}

    def dump(self) -> dict:
        return {
            "names": list(self.names),
            "spans": [list(s) for s in self.spans],
            "self_s": self.self_times(),
            "counts": dict(self.counts),
        }
