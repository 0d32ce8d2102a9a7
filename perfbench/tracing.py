"""Spans and counters around the package's public functions.

The tracer rebinds each public function and method of the nine modules,
in every chainforge namespace and class that holds it, with a wrapper that
records a span (name, start, end, parent). Spans stay in memory until the
pass ends. Helpers called once per gate or per slot get count-only
wrappers, since a span there would cost more than the call it measures.
uninstall() puts every original object back.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("core", "skeleton", "qft", "linsynth", "stabilizer", "css", "oracle", "bounds", "cli")

# the public gate constructors share one counter
GATE_HELPERS = {f"core.{g}" for g in ("h", "p", "cnot", "cz", "swap", "cphase", "generic2")}
COUNT_ONLY = GATE_HELPERS | {
    "core.validate_gate",
    "core.is_two_qubit",
    "core.Architecture.adjacent",
    "skeleton.all_pairs",
    "skeleton.stage_pairs",
    "skeleton.stage_of",
    "skeleton.SkeletonSpec.present",
    "skeleton.SkeletonSpec.gate_for",
    "linsynth.GF2Matrix.entry",
    "linsynth.GF2Matrix.apply",
    "stabilizer.apply_gate",
    "stabilizer.StageDecomposition.stages",
    "oracle.apply_gate",
    *(f"css.CssSpec.{m}" for m in ("cell", "level_of", "control_wire", "target_wire", "control_label", "present")),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = defaultdict(lambda: [0])
        self.units: dict[str, int] = defaultdict(int)  # gates handled, per span name
        self.expansions: list[tuple] = []  # (input, output) of each CNOT expansion
        self.slots = [0, 0]  # present, scheduled
        self._patches: list[tuple[object, str, object]] = []

    # --- hooks that read a finished call's arguments or result; O(1) each

    def _unit_hook(self, name: str):
        if name == "core.parse_circuit":
            return lambda args, result: self._add_units(name, len(result.gates))
        if name == "stabilizer.tableau_of":
            return lambda args, result: self._add_units(name, len(args[0].gates))
        if name == "linsynth.expand_circuit_to_cnot":
            def hook(args, result):
                self._add_units(name, len(args[0].gates))
                self.expansions.append((args[0], result))
            return hook
        if name == "skeleton.staged_schedule":
            def hook(args, result):
                spec = args[0]
                total = spec.n * (spec.n - 1) // 2
                self.slots[0] += total - len(spec.absent)
                self.slots[1] += total
            return hook
        return None

    def _add_units(self, name: str, k: int) -> None:
        self.units[name] += k

    # --- wrappers

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._unit_hook(name)

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        cell = self.counts[name]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            return self._counter("core.gate_helpers" if name in GATE_HELPERS else name, fn)
        return self._span(name, fn)

    def _patch(self, target, attr: str, value) -> None:
        self._patches.append((target, attr, target.__dict__[attr]))
        setattr(target, attr, value)

    def install(self, cf) -> None:
        namespaces = [m for k, m in sys.modules.items() if k == "chainforge" or k.startswith("chainforge.")]
        for layer in LAYERS:
            mod = getattr(cf, layer)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", obj)
                    for ns in namespaces:
                        if ns.__dict__.get(name) is obj:
                            self._patch(ns, name, wrapped)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr == "__post_init__":
                label = "init"
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            name = f"{layer}.{cls.__name__}.{label}"
            if isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(name, raw))

    def uninstall(self) -> None:
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # --- summaries

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self and inclusive seconds per span name."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), t in zip(self.spans, own):
            self_s[name] += t
            incl_s[name] += end - start
        return self_s, incl_s

    def fold_ratio(self) -> float:
        """Folded SWAPs over all SWAPs the CNOT expansions received."""
        folded = swaps = 0
        for inp, out in self.expansions:
            kinds = defaultdict(int)
            for g in inp.gates:
                kinds[g.kind.value] += 1
            one_qubit = kinds["h"] + kinds["p"]
            # a folded SWAP adds one CNOT, a bare one adds three
            folded += (one_qubit + kinds["cnot"] + 3 * kinds["swap"] - len(out.gates)) // 2
            swaps += kinds["swap"]
        return folded / swaps if swaps else 0.0
