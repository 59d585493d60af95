"""Outside-in tracer for tfnpkit: spans around calls into each module's public
functions, installed by rebinding names from the benchmark's own files.

A module that did ``from .problems import verify`` resolves ``verify`` in its
own globals, so patching only ``tfnpkit.problems.verify`` would miss it.
``install`` therefore rebinds every module-global name in the package whose
value is one of the traced functions, under one span name per function, and
``uninstall`` restores exactly what it replaced.

A span's self time is its duration minus the durations of its direct child
spans.  Spans are recorded from the main thread only; the traced passes run
with parallelism 1.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from collections import defaultdict

# (defining module, function name) -> span name
FUNCTIONS = {
    ("circuit", "eval_all"): "circuit.eval_all",
    ("circuit", "apply_many"): "circuit.apply_many",
    ("circuit", "from_text"): "circuit.from_text",
    ("circuit", "to_text"): "circuit.to_text",
    ("encodings", "baranyai_index"): "encodings.baranyai_index",
    ("problems", "verify"): "problems.verify",
    ("problems", "wellformed"): "problems.wellformed",
    ("problems", "gen_random_instance"): "problems.gen_random_instance",
    ("problems", "instance_from_text"): "problems.instance_from_text",
    ("problems", "instance_to_text"): "problems.instance_to_text",
    ("reductions", "apply"): "reductions.apply",
    ("reductions", "pullback"): "reductions.pullback",
    ("solvers", "enumerate_solutions"): "solvers.enumerate_solutions",
    ("solvers", "fuzz_instance"): "solvers.fuzz_instance",
    ("solvers", "brute_force_solve"): "solvers.brute_force_solve",
    ("cli", "_cmd_gen"): "cli.gen",
    ("cli", "_cmd_reduce"): "cli.reduce",
    ("cli", "_cmd_solve"): "cli.solve",
    ("cli", "_cmd_pullback"): "cli.pullback",
    ("cli", "_cmd_verify"): "cli.verify",
}

# registry builders whose Reduction gets its transform/translate wrapped
BUILDERS = (("reductions", "build_entry"), ("reductions", "build_reduction"))

MODULES = ("numerics", "circuit", "encodings", "problems", "reductions", "solvers", "cli")


@dataclasses.dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects per-span-name call counts, inclusive and self seconds, plus
    the layer counters that need the call's arguments or result."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, child_seconds, verify_calls_seen]
        self._main = threading.main_thread().ident
        self._patched: list[tuple[object, str, object]] = []
        self._case_seen: set = set()
        self._case_circuits: dict = {}
        self._case_instances: dict = {}

    # -- spans ---------------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        if threading.get_ident() != self._main:
            return fn(*args, **kwargs)
        frame = [name, 0.0, 0]
        stack = self._stack
        parent = stack[-1] if stack else None
        if name == "problems.verify" and parent is not None and parent[0] == "reductions.pullback":
            parent[2] += 1
            role = "target" if parent[2] == 1 else "source"
        else:
            role = None
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            st = self.stats[name]
            st.calls += 1
            st.total_s += dt
            st.self_s += dt - frame[1]
            if parent is not None:
                parent[1] += dt
            if role is not None:
                self.counters[f"problems.verify.{role}_s"] += dt

    def wrap(self, name, fn, on_call=None):
        tracer = self

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            return tracer._span(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- case-scoped counters -------------------------------------------------

    def new_case(self):
        """Point-evaluation repeats and wellformed-per-instance are counted
        within one case: a battery case, a solve or a pipeline job."""
        self._case_seen = set()
        # the case's circuits and instances are held so that their ids stay unique
        self._case_circuits = {}
        self._case_instances = {}

    def _on_eval(self, args, kwargs):
        circuit, x = args[0], args[1]
        self._case_circuits[id(circuit)] = circuit
        key = (id(circuit), x.value)
        if key in self._case_seen:
            self.counters["circuit.eval.repeats"] += 1
        else:
            self._case_seen.add(key)

    def _on_wellformed(self, args, kwargs):
        inst = args[0] if args else kwargs["inst"]
        if id(inst) not in self._case_instances:
            self._case_instances[id(inst)] = inst
            self.counters["problems.wellformed.instances"] += 1

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        mods = {name: getattr(package, name) for name in MODULES}
        wrappers = {}
        for (mod, fname), span in FUNCTIONS.items():
            original = getattr(mods[mod], fname)
            wrappers[id(original)] = (original, self._make(span, original))
        for mod, fname in BUILDERS:
            original = getattr(mods[mod], fname)
            wrappers[id(original)] = (original, self._wrap_builder(original))
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        circuit_cls = mods["circuit"].Circuit
        self._set(circuit_cls, "eval",
                  self.wrap("circuit.eval", circuit_cls.eval, on_call=self._on_eval))
        bitstring = mods["numerics"].BitString
        post_init = bitstring.__post_init__
        counters = self.counters

        def counted_post_init(obj):
            counters["numerics.bitstring_new"] += 1
            post_init(obj)

        self._set(bitstring, "__post_init__", counted_post_init)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def _make(self, span, original):
        if span == "problems.wellformed":
            return self.wrap(span, original, on_call=self._on_wellformed)
        if span == "solvers.enumerate_solutions":
            inner = self.wrap(span, original)

            def enumerate_solutions(*args, **kwargs):
                sols, truncated = inner(*args, **kwargs)
                self.counters["solvers.enumerate_solutions.solutions"] += len(sols)
                self.counters["solvers.enumerate_solutions.truncated_cases"] += bool(truncated)
                return sols, truncated

            return enumerate_solutions
        if span == "circuit.eval_all":
            inner = self.wrap(span, original)

            def eval_all(c):
                self.counters["circuit.eval_all.points"] += 1 << c.in_width
                return inner(c)

            return eval_all
        if span == "circuit.from_text":
            def on_parse(args, kwargs):
                self.counters["circuit.from_text.bytes"] += len(args[0])

            return self.wrap(span, original, on_call=on_parse)
        if span == "circuit.to_text":
            inner = self.wrap(span, original)

            def to_text(c):
                text = inner(c)
                self.counters["circuit.to_text.bytes"] += len(text)
                return text

            return to_text
        if span == "reductions.apply":
            # fuzz_soundness applies the reduction exactly once per case
            return self.wrap(span, original, on_call=lambda a, k: self.new_case())
        return self.wrap(span, original)

    def _wrap_builder(self, builder):
        def build(*args, **kwargs):
            red = builder(*args, **kwargs)
            return dataclasses.replace(
                red,
                transform=self.wrap("reductions.transform", red.transform),
                translate=self.wrap("reductions.translate", red.translate),
            )

        return build


def _self(span):
    return lambda st, c: st[span].self_s


def _calls(span):
    return lambda st, c: st[span].calls


def _ratio(num, den):
    return lambda st, c: num(st, c) / den(st, c) if den(st, c) else 0.0


def _mb_per_s(span):
    return _ratio(lambda st, c: c[f"{span}.bytes"] / 1e6, _self(span))


# metric -> (unit, span whose calls show that a pass entered the layer, or
# None where every pass does; function of (stats, counters) giving the value)
LAYER_METRICS = {
    "numerics.bitstring_new": ("count", None, lambda st, c: c["numerics.bitstring_new"]),
    "circuit.eval.calls": ("count", "circuit.eval", _calls("circuit.eval")),
    "circuit.eval.self_s": ("s", "circuit.eval", _self("circuit.eval")),
    "circuit.eval.repeat_ratio": (
        "ratio", "circuit.eval", _ratio(lambda st, c: c["circuit.eval.repeats"], _calls("circuit.eval"))),
    "circuit.eval_all.calls": ("count", "circuit.eval_all", _calls("circuit.eval_all")),
    "circuit.eval_all.self_s": ("s", "circuit.eval_all", _self("circuit.eval_all")),
    "circuit.eval_all.ns_per_point": (
        "ns", "circuit.eval_all",
        _ratio(lambda st, c: st["circuit.eval_all"].total_s * 1e9, lambda st, c: c["circuit.eval_all.points"])),
    "circuit.apply_many.calls": ("count", "circuit.apply_many", _calls("circuit.apply_many")),
    "circuit.apply_many.self_s": ("s", "circuit.apply_many", _self("circuit.apply_many")),
    "circuit.from_text.self_s": ("s", "circuit.from_text", _self("circuit.from_text")),
    "circuit.from_text.mb_per_s": ("MB/s", "circuit.from_text", _mb_per_s("circuit.from_text")),
    "circuit.to_text.self_s": ("s", "circuit.to_text", _self("circuit.to_text")),
    "circuit.to_text.mb_per_s": ("MB/s", "circuit.to_text", _mb_per_s("circuit.to_text")),
    "encodings.baranyai_index.calls": ("count", "encodings.baranyai_index", _calls("encodings.baranyai_index")),
    "encodings.baranyai_index.self_s": ("s", "encodings.baranyai_index", _self("encodings.baranyai_index")),
    "problems.verify.calls": ("count", "problems.verify", _calls("problems.verify")),
    "problems.verify.target_s": ("s", "reductions.pullback", lambda st, c: c["problems.verify.target_s"]),
    "problems.verify.source_s": ("s", "reductions.pullback", lambda st, c: c["problems.verify.source_s"]),
    "problems.wellformed.calls": ("count", "problems.wellformed", _calls("problems.wellformed")),
    "problems.wellformed.self_s": ("s", "problems.wellformed", _self("problems.wellformed")),
    "problems.wellformed.per_instance": (
        "ratio", "problems.wellformed",
        _ratio(_calls("problems.wellformed"), lambda st, c: c["problems.wellformed.instances"])),
    "problems.gen_random_instance.self_s": (
        "s", "problems.gen_random_instance", _self("problems.gen_random_instance")),
    "problems.instance_from_text.self_s": (
        "s", "problems.instance_from_text", _self("problems.instance_from_text")),
    "problems.instance_to_text.self_s": ("s", "problems.instance_to_text", _self("problems.instance_to_text")),
    "reductions.apply.self_s": ("s", "reductions.apply", _self("reductions.apply")),
    "reductions.transform.s": ("s", "reductions.transform", lambda st, c: st["reductions.transform"].total_s),
    "reductions.pullback.calls": ("count", "reductions.pullback", _calls("reductions.pullback")),
    "reductions.pullback.self_s": ("s", "reductions.pullback", _self("reductions.pullback")),
    "reductions.translate.self_s": ("s", "reductions.translate", _self("reductions.translate")),
    "solvers.enumerate_solutions.self_s": (
        "s", "solvers.enumerate_solutions", _self("solvers.enumerate_solutions")),
    "solvers.enumerate_solutions.solutions": (
        "count", "solvers.enumerate_solutions", lambda st, c: c["solvers.enumerate_solutions.solutions"]),
    "solvers.enumerate_solutions.truncated_cases": (
        "count", "solvers.enumerate_solutions", lambda st, c: c["solvers.enumerate_solutions.truncated_cases"]),
    "solvers.fuzz_instance.self_s": ("s", "solvers.fuzz_instance", _self("solvers.fuzz_instance")),
    "solvers.brute_force_solve.self_s": ("s", "solvers.brute_force_solve", _self("solvers.brute_force_solve")),
    **{f"cli.{cmd}.self_s": ("s", f"cli.{cmd}", _self(f"cli.{cmd}"))
       for cmd in ("gen", "reduce", "solve", "pullback", "verify")},
}


def layer_values(tracer: Tracer) -> tuple[dict, dict]:
    """(metric -> value, span -> calls) for one traced pass."""
    values = {name: float(fn(tracer.stats, tracer.counters))
              for name, (_, _, fn) in LAYER_METRICS.items()}
    calls = {span: stat.calls for span, stat in tracer.stats.items()}
    return values, calls
