"""Outside-in tracer for the ocalab benchmark.

The tracer changes no file of the package.  ``install`` replaces every
public function of every ocalab module with a timing wrapper, both where
the function is defined and wherever another module imported it (for
example ``adversary.run`` and ``cli.run_classical``), so a call made
through either name is seen.  ``Amplitude.__mul__``/``__add__`` and
``CounterMachine.entries`` get counting wrappers only.  ``uninstall``
puts every original back.

A span is one call of a wrapped function.  Its self time is its duration
minus the part covered by wrapped calls made inside it.  Spans are
aggregated per name (calls, total, self); calls made directly by the
benchmark, outside any other span, are also kept one by one.  Everything
stays in memory until ``write``.

The wrappers on ``classical.step`` and ``quantum.evolve`` also read the
distribution each step receives and returns, which gives the engines'
run statistics without touching the engines: steps, steps whose input
lies wholly in the sink, peak support and, for the exact ``Fraction``
engine, the largest denominator bit length.
"""
from __future__ import annotations

import functools
import inspect
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Optional

LAYERS = (
    "amplitudes",
    "core",
    "classical",
    "quantum",
    "dsl",
    "problems",
    "zoo",
    "adversary",
    "cli",
)

# ``status_of`` is a one-line comparison called once per configuration per
# step; a timing wrapper would cost more than the function and would land
# in the self time of ``step`` and ``evolve``.
UNWRAPPED = frozenset({("core", "status_of")})

# Private functions that mark a layer boundary worth its own span.
EXTRA_SPANS = {("cli", "_cmd_batch"): "cli.batch"}

Hook = Callable[[tuple, dict, object], None]


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class EngineStats:
    """Statistics read off the distributions one engine's steps return."""

    steps: int = 0
    sink_steps: int = 0
    support_peak: int = 0
    denom_bits_max: int = 0


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self) -> None:
        self.aggregates: dict[str, Aggregate] = {}
        self.counters: dict[str, int] = {}
        self.top_spans: list[tuple[str, float, float, float]] = []
        self.engines = {"classical": EngineStats(), "quantum": EngineStats()}
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self._cells: dict[str, list[int]] = {}
        self._sink: object = None

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn: Callable, after: Optional[Hook] = None) -> Callable:
        """Wrap ``fn`` so each call records a span called ``name``.

        ``after(args, kwargs, result)`` runs once the span has ended; its
        cost is kept out of the caller's self time.
        """
        agg = self.aggregates.setdefault(name, Aggregate())
        stack = self._stack
        top_spans = self.top_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                own = duration - stack.pop()
                agg.calls += 1
                agg.total_s += duration
                agg.self_s += own
                if stack:
                    stack[-1] += duration
                else:
                    top_spans.append((name, start, end, own))
            if after is not None:
                hook_start = perf_counter()
                after(args, kwargs, result)
                if stack:
                    stack[-1] += perf_counter() - hook_start
            return result

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _counting(self, name: str, fn: Callable) -> Callable:
        # The count lives in a one-element list so the hot path skips a
        # dict update; ``uninstall`` adds it to ``counters``.
        cell = self._cells.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _engine_hook(self, engine: str, param: str, exact: bool) -> Hook:
        stats = self.engines[engine]

        def after(args: tuple, kwargs: dict, result: dict) -> None:
            # Both engines take (machine, distribution, symbol).
            incoming = args[1] if len(args) > 1 else kwargs[param]
            sink = self._sink
            stats.steps += 1
            if all(state == sink for state, _counter in incoming):
                stats.sink_steps += 1
            if len(result) > stats.support_peak:
                stats.support_peak = len(result)
            if exact:
                for mass in result.values():
                    bits = mass.denominator.bit_length()
                    if bits > stats.denom_bits_max:
                        stats.denom_bits_max = bits

        return after

    def _hooks(self) -> dict[str, Hook]:
        def instances(args: tuple, kwargs: dict, result: list) -> None:
            self.count("problems.instances", len(result))

        def parsed(args: tuple, kwargs: dict, result: object) -> None:
            text = args[0] if args else kwargs["text"]
            self.count("dsl.bytes_parsed", len(text.encode("utf-8")))

        return {
            "classical.step": self._engine_hook("classical", "dist", exact=True),
            "quantum.evolve": self._engine_hook("quantum", "psi", exact=False),
            "problems.generate": instances,
            "dsl.parse_with_diagnostics": parsed,
        }

    # -- installing -------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: ModuleType, modules: dict[str, ModuleType]) -> None:
        """Wrap the functions of ``modules`` (layer name -> module)."""
        self._sink = modules["core"].SINK
        hooks = self._hooks()
        wrapped: dict[int, tuple[Callable, Callable]] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = EXTRA_SPANS.get((layer, attr))
                if name is None:
                    if attr.startswith("_") or (layer, attr) in UNWRAPPED:
                        continue
                    name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self.span(name, obj, hooks.get(name)))
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])

        amplitude = modules["amplitudes"].Amplitude
        for name, attrs in (("amplitudes.mul", ("__mul__", "__rmul__")),
                            ("amplitudes.add", ("__add__", "__radd__"))):
            counting = self._counting(name, vars(amplitude)[attrs[0]])
            for attr in attrs:
                self._patch(amplitude, attr, counting)
        machine = modules["core"].CounterMachine
        self._patch(machine, "entries", self._counting("core.entries", machine.entries))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        for name, cell in self._cells.items():
            self.counters[name] = self.counters.get(name, 0) + cell[0]
            cell[0] = 0

    # -- results ----------------------------------------------------------

    def layer_metrics(self, symbols: dict[str, int]) -> dict[str, float]:
        """Per-layer figures; ``symbols`` maps engine -> tape symbols read."""

        def agg(name: str) -> Aggregate:
            return self.aggregates.get(name, Aggregate())

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {
            "amplitudes.mul_calls": self.counters.get("amplitudes.mul", 0),
            "amplitudes.add_calls": self.counters.get("amplitudes.add", 0),
            "core.entries_calls": self.counters.get("core.entries", 0),
            "core.tape_of_self_s": agg("core.tape_of").self_s,
            "core.validate_machine_self_s": agg("core.validate_machine").self_s,
            "classical.step_calls": agg("classical.step").calls,
            "classical.step_self_s": agg("classical.step").self_s,
            "classical.verdict_of_self_s": agg("classical.verdict_of").self_s,
            "quantum.evolve_calls": agg("quantum.evolve").calls,
            "quantum.evolve_self_s": agg("quantum.evolve").self_s,
            "quantum.measure_self_s": agg("quantum.measure").self_s,
            "quantum.check_unitarity_self_s": agg("quantum.check_unitarity").self_s,
            "dsl.parse_self_s": agg("dsl.parse_with_diagnostics").self_s,
            "dsl.bytes_parsed": self.counters.get("dsl.bytes_parsed", 0),
            "dsl.emit_self_s": agg("dsl.emit").self_s,
            "problems.generate_s": agg("problems.generate").total_s,
            "problems.instances": self.counters.get("problems.instances", 0),
            "zoo.get_entry_s": agg("zoo.get_entry").total_s,
            "adversary.brute_refute_self_s": agg("adversary.brute_refute").self_s,
            "adversary.words_scanned": self.counters.get("adversary.words_scanned", 0),
            "cli.batch_self_s": agg("cli.batch").self_s,
        }
        for engine, stats in self.engines.items():
            out[f"{engine}.steps_per_symbol"] = ratio(stats.steps, symbols.get(engine, 0))
            out[f"{engine}.sink_step_frac"] = ratio(stats.sink_steps, stats.steps)
            out[f"{engine}.support_peak"] = stats.support_peak
        out["classical.denom_bits_max"] = self.engines["classical"].denom_bits_max
        return out

    def write(self, path: Path, extra: dict) -> None:
        payload = {
            **extra,
            "aggregates": {name: asdict(a) for name, a in sorted(self.aggregates.items())},
            "counters": dict(sorted(self.counters.items())),
            "engines": {name: asdict(s) for name, s in self.engines.items()},
            "top_spans": [
                {"name": n, "start": s, "end": e, "self_s": own}
                for n, s, e, own in self.top_spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
