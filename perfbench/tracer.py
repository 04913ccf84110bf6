"""Spans and counters around cyclocode's public functions, from outside.

install() replaces every public function of the traced modules at every
place it is bound (the defining module, modules that imported it by
name, the package root) with a wrapper that times it.  Self time is a
span's duration minus the time of the spans nested in it.  Per-word
helpers (`words`, Codec methods) and generator functions are not
wrapped; their time stays in the caller's self time.  Graph `neighbors`
methods are counted, not timed, because they run once per vertex.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from math import comb
from time import perf_counter

MODULES = ("cli", "engine", "classgraph", "solver", "codes", "concentration", "volumes")


def _ball(n: int, q: int, t: int) -> int:
    return sum(comb(n, i) * (q - 1) ** i for i in range(t + 1))


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s: list[float] = []

    def call(self, key, fn, args, kwargs):
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = perf_counter() - start
            nested = self._child_s.pop()
            if self._child_s:
                self._child_s[-1] += spent
            self.calls[key] += 1
            self.total_s[key] += spent
            self.self_s[key] += spent - nested

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


# ---------------------------------------------------------------------------
# Counters read at particular boundaries.  Each hook is (before, after):
# before(args, kwargs) returns a state for after(state, args, kwargs, result).


def _after(fn):
    return None, lambda state, args, kwargs, result: fn(args, kwargs, result)


def _hooks(tr: Tracer, class_system) -> dict:
    c = tr.counts

    def cache_before(args, kwargs):
        return class_system.cache_info()

    def cache_after(info, args, kwargs, result):
        now = class_system.cache_info()
        c["engine.class_system.cache_hits"] += now.hits - info.hits
        if now.misses > info.misses:
            n, q = result.n, result.q
            c["engine.class_system.words"] += (
                q**n if result.weight is None else comb(n, result.weight))

    def distance_matrix(args, kwargs, result):
        c["engine.class_distance_matrix.bytes"] += result.size

    def build_graph(args, kwargs, result):
        c["classgraph.build_graph.vertices"] += result.num_vertices
        kind = type(result).__name__.removesuffix("ClassGraph").lower()
        c[f"classgraph.build_graph.kind.{kind}"] += 1
        adjacency = getattr(result, "_adjacency", None)  # explicit graphs only
        if adjacency is not None:
            c["classgraph.build_graph.edges"] += sum(len(a) for a in adjacency) // 2

    def solve_report(args, kwargs, result):
        c["solver.picked"] += len(result.vertices)

    def read_code_file(args, kwargs, result):
        c["codes.read_code_file.words"] += result.word_count

    def verify_code(args, kwargs, result):
        c["codes.verify_code.words"] += result.word_count
        c["codes.verify_code.failed"] += not result.passed
        notes = " ".join(result.notes)
        if "ball patterns" in notes:
            c["codes.verify_code.strategy.ballprobe"] += 1
        elif "class collapse" in notes:
            c["codes.verify_code.strategy.collapse"] += 1
        elif result.checks.get("min_distance") is not None:
            c["codes.verify_code.strategy.pairwise"] += 1

    def census(args, kwargs, result):
        c["concentration.census.words"] += result.total

    def samples(name):
        def after(args, kwargs, result):
            c[f"concentration.{name}.samples"] += result.samples
        return after

    def intersection(args, kwargs, result):
        """Membership tests the enumeration does: one per member of B(x, t)."""
        x, t = args[0], args[2] if len(args) > 2 else kwargs["t"]
        if kwargs.get("constant_weight"):
            w = sum(1 for s in x.symbols if s)
            tests = sum(comb(w, i) * comb(x.n - w, i) for i in range(t // 2 + 1))
        else:
            tests = _ball(x.n, x.q, t)
        c["volumes.intersection.membership_tests"] += tests

    return {
        "engine.class_system": (cache_before, cache_after),
        "engine.class_distance_matrix": _after(distance_matrix),
        "classgraph.build_graph": _after(build_graph),
        "solver.solve_report": _after(solve_report),
        "codes.read_code_file": _after(read_code_file),
        "codes.verify_code": _after(verify_code),
        "concentration.exact_autodistance_census": _after(census),
        "concentration.exact_autodistance_census_cw": _after(census),
        "concentration.mc_tail": _after(samples("mc_tail")),
        "concentration.conditional_tail_weight_slice":
            _after(samples("conditional_tail_weight_slice")),
        "volumes.ball_intersection_volume": _after(intersection),
    }


def _span_key(key: str, fn):
    """greedy_independent_set is split by the configured strategy."""
    if key != "solver.greedy_independent_set":
        return lambda args, kwargs: key
    sig = inspect.signature(fn)

    def by_strategy(args, kwargs):
        config = sig.bind(*args, **kwargs).arguments.get("config")
        return f"{key}.{getattr(config, 'strategy', None) or 'gv-greedy'}"

    return by_strategy


def _wrap(tr: Tracer, key: str, fn, hooks):
    before, after = hooks.get(key, (None, None))
    span_key = _span_key(key, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before else None
        try:
            result = tr.call(span_key(args, kwargs), fn, args, kwargs)
        except Exception as exc:
            if type(exc).__name__ == "CapacityError":  # a work cap refused the call
                tr.counts[f"{key}.refused"] += 1
            raise
        if after:
            after(state, args, kwargs, result)
        return result

    return wrapper


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or not callable(obj):
            continue
        if inspect.isgeneratorfunction(getattr(obj, "__wrapped__", obj)):
            continue
        yield name, obj


def install() -> Tracer:
    """Wrap the traced modules of the already-imported cyclocode package."""
    tr = Tracer()
    modules = {m: importlib.import_module(f"cyclocode.{m}") for m in MODULES}
    hooks = _hooks(tr, modules["engine"].class_system)
    replaced = {}
    for short, module in modules.items():
        for name, fn in _public_functions(module):
            replaced[id(fn)] = _wrap(tr, f"{short}.{name}", fn, hooks)
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "cyclocode" and not mod_name.startswith("cyclocode."):
            continue
        for name, obj in list(vars(module).items()):
            if id(obj) in replaced:
                setattr(module, name, replaced[id(obj)])

    classgraph = modules["classgraph"]
    for cls in vars(classgraph).values():
        if inspect.isclass(cls) and issubclass(cls, classgraph.ClassGraph) \
                and "neighbors" in vars(cls) and cls is not classgraph.ClassGraph:
            cls.neighbors = _counted(tr, cls.neighbors)
    return tr


def _counted(tr: Tracer, method):
    @functools.wraps(method)
    def neighbors(self, v):
        tr.counts["classgraph.neighbors.calls"] += 1
        return method(self, v)

    return neighbors
