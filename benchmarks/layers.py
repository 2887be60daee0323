"""Per-layer tracing of demazure_crystals from outside the package.

`install()` replaces the public functions and methods named in `LAYERS`, and
the CLI suite generators, with wrappers that time every call.  Nothing under
`src/` is edited: the wrappers are set on the classes and on every loaded
`demazure_crystals` module that holds the original function.

Each wrapped call is a span.  Self time is the span's duration minus the
durations of the wrapped spans it directly contains; it is accumulated as the
calls return, so the hot B(inf) operators, which are called millions of
times, cost a counter update each instead of a stored record.  Spans down to
`SPAN_DEPTH` levels (CLI suites and renders, and the checks, generation and
closure calls directly under those) are also kept in memory with name,
start, end and parent, and written once when the run ends.

Wrapper overhead is charged to the caller's self time, so traced timings are
for attributing work between layers only; end-to-end numbers come from
untraced runs.
"""

from __future__ import annotations

import sys
from time import perf_counter

SPAN_DEPTH = 2

# Every entry reports `calls` and `self_s` (the `cli` entries only `self_s`).
# A unique key adds `unique_ratio`: distinct keys over calls, the share of
# calls a cache keyed on the arguments could not answer.  An accept test adds
# `accept_ratio`: the share of calls whose result passes it.
_ALL_ARGS = "args"  # the key is the whole argument tuple, `self` included

LAYERS: tuple[tuple[str, str, str, object, object], ...] = (
    # (metric prefix, module, attribute path, unique key, accept test)
    ("binf.f", "binf", "BInfRealization.f", _ALL_ARGS, None),
    ("binf.e", "binf", "BInfRealization.e", None, None),
    ("binf.eps", "binf", "BInfRealization.eps", _ALL_ARGS, None),
    ("binf.phi", "binf", "BInfRealization.phi", None, None),
    ("binf.wt", "binf", "BInfRealization.wt", None, None),
    ("binf.peel", "binf", "BInfRealization.peel", _ALL_ARGS, None),
    ("binf.replay", "binf", "BInfRealization.replay", None, None),
    ("binf.convert_from", "binf", "BInfRealization.convert_from", _ALL_ARGS, None),
    ("binf.eps_star", "binf", "BInfRealization.eps_star", _ALL_ARGS, None),
    ("binf.f_star", "binf", "BInfRealization.f_star", _ALL_ARGS, None),
    ("binf.e_star", "binf", "BInfRealization.e_star", None, None),
    ("binf.psi", "binf", "BInfRealization.psi", None, None),
    ("binf.star", "binf", "BInfRealization.star", None, None),
    ("binf.generate", "binf", "BInfRealization.generate", None, None),
    ("blambda.contains_base", "blambda", "BLambdaCrystal.contains_base", _ALL_ARGS, bool),
    ("blambda.f", "blambda", "BLambdaCrystal.f", None, lambda y: y is not None),
    ("blambda.generate", "blambda", "BLambdaCrystal.generate", None, None),
    ("blambda.strings", "blambda", "BLambdaCrystal.strings", None, None),
    ("blambda.char_map", "blambda", "char_map", None, None),
    (
        "demazure.demazure_blambda",
        "demazure",
        "demazure_blambda",
        lambda args: (args[0], tuple(args[1])),
        None,
    ),
    ("demazure.demazure_binf", "demazure", "demazure_binf", None, None),
    ("demazure.demazure_operator", "demazure", "demazure_operator", None, None),
    ("demazure.demazure_chain", "demazure", "demazure_chain", None, None),
    ("demazure.refined_formula_check", "demazure", "refined_formula_check", None, None),
    ("demazure.string_property_check", "demazure", "string_property_check", None, None),
    ("demazure.word_independence_check", "demazure", "word_independence_check", None, None),
    ("demazure.binf_consistency_check", "demazure", "binf_consistency_check", None, None),
    ("demazure.braid_witness_search", "demazure", "braid_witness_search", None, None),
    ("demazure.structural_check", "demazure", "structural_check", None, None),
    ("charring.weyl_dim", "charring", "weyl_dim", None, None),
    ("charring.freudenthal_character", "charring", "freudenthal_character", None, None),
    ("charring.algebraic_demazure", "charring", "algebraic_demazure", None, None),
    ("charring.apply_demazure_word", "charring", "apply_demazure_word", None, None),
    ("core.FormalSum.init", "core", "FormalSum.__init__", None, None),
    ("core.FormalSum.add", "core", "FormalSum.__add__", None, None),
    ("core.FormalSum.eq", "core", "FormalSum.__eq__", None, None),
    ("core.TensorCrystal.f", "core", "TensorCrystal.f", None, None),
    ("core.TensorCrystal.e", "core", "TensorCrystal.e", None, None),
    ("cartan.enumerate_weyl", "cartan", "enumerate_weyl", None, None),
    ("cartan.reduced_words", "cartan", "WeylGroup.reduced_words", None, None),
    ("cartan.is_reduced", "cartan", "WeylGroup.is_reduced", None, None),
    ("cli.render", "cli", "cmd_crystal", None, None),
)

# Suites of `demazure-crystals verify`, in its default order; each is timed
# while its report generator is being consumed.
SUITES = (
    "eq4", "strings", "words", "iota", "psi", "star", "lem31",
    "thm32", "cor33", "lem34", "thm35", "thm35r", "p3", "braid",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for prefix, _module, _path, unique, accept in LAYERS:
        if prefix.startswith("cli."):
            names.append(f"{prefix}.self_s")
            continue
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
        if unique is not None:
            names.append(f"{prefix}.unique_ratio")
        if accept is not None:
            names.append(f"{prefix}.accept_ratio")
    names += [f"cli.suite.{name}.self_s" for name in SUITES]
    return names


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".calls"):
        return "count"
    return "ratio"


class _Stat:
    __slots__ = ("calls", "self_s", "keys", "accepted")

    def __init__(self, unique: bool, accept: bool):
        self.calls = 0
        self.self_s = 0.0
        self.keys = set() if unique else None
        self.accepted = 0 if accept else None


class Tracer:
    """Per-function statistics and the shallow spans of one traced run."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        # One frame per open wrapped call: [time covered by child spans,
        # index of its stored span or -1].
        self._stack: list[list] = []

    def _stat(self, name: str, unique=False, accept=False) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat(unique, accept)
        return stat

    def _open(self, name: str, start: float) -> list:
        stack = self._stack
        index = -1
        if len(stack) < SPAN_DEPTH:
            index = len(self.spans)
            parent = stack[-1][1] if stack else -1
            self.spans.append([name, start, None, parent])
        frame = [0.0, index]
        stack.append(frame)
        return frame

    def _close(self, stat: _Stat, frame: list, start: float) -> None:
        end = perf_counter()
        elapsed = end - start
        stack = self._stack
        stack.pop()
        stat.calls += 1
        stat.self_s += elapsed - frame[0]
        if stack:
            stack[-1][0] += elapsed
        if frame[1] >= 0:
            self.spans[frame[1]][2] = end

    def wrap(self, name: str, fn, key=None, accept=None):
        stat = self._stat(name, key is not None, accept is not None)
        keys = stat.keys
        key_of = (lambda args: args) if key == _ALL_ARGS else key
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            start = perf_counter()
            frame = open_(name, start)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(stat, frame, start)
            if keys is not None:
                keys.add(key_of(args))
            if accept is not None and accept(result):
                stat.accepted += 1
            return result

        return wrapper

    def wrap_generator(self, name: str, make):
        """Time each resumption of the generator that `make` returns."""
        stat = self._stat(name)
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            gen = make(*args, **kwargs)
            while True:
                start = perf_counter()
                frame = open_(name, start)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    close(stat, frame, start)
                yield item

        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; functions never called report zero."""
        out = {}
        for metric in metric_names():
            prefix, stat_name = metric.rsplit(".", 1)
            stat = self.stats.get(prefix)
            calls = stat.calls if stat else 0
            if stat_name == "calls":
                out[metric] = calls
            elif stat_name == "self_s":
                out[metric] = stat.self_s if stat else 0.0
            elif stat_name == "unique_ratio":
                out[metric] = len(stat.keys) / calls if calls else 0.0
            else:
                out[metric] = stat.accepted / calls if calls else 0.0
        return out

    def counts(self) -> dict[str, list[int]]:
        """Every count the tracer derives; these must repeat exactly."""
        return {
            name: [
                stat.calls,
                -1 if stat.keys is None else len(stat.keys),
                -1 if stat.accepted is None else stat.accepted,
            ]
            for name, stat in sorted(self.stats.items())
        }


def _resolve(root, path: str):
    owner = root
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Wrap every entry of LAYERS, and the CLI suites in SUITES, in the loaded package."""
    package = "demazure_crystals"
    loaded = [
        mod for name, mod in list(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]
    for prefix, module, path, unique, accept in LAYERS:
        owner, attr = _resolve(sys.modules[f"{package}.{module}"], path)
        original = getattr(owner, attr)
        wrapper = tracer.wrap(prefix, original, unique, accept)
        if "." in path:
            setattr(owner, attr, wrapper)
            continue
        # Module-level functions are imported by name into sibling modules
        # and the package namespace; rebind every reference.
        for mod in loaded:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
    cli = sys.modules[f"{package}.cli"]
    for name in SUITES:
        cli.SUITES[name] = tracer.wrap_generator(f"cli.suite.{name}", cli.SUITES[name])
