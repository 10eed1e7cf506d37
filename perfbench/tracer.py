"""Spans and counters around the library's layers, recorded from outside.

The library has no instrumentation of its own, so the tracer wraps the public
functions and methods of each layer module and patches every name under which
they are looked up: module globals across the package (coverideals.cli and
coverideals.invariants import functions by name), module-level dicts such as
cli.HANDLERS, and class attributes. Leaving the context restores every name.

Each call of a wrapped function records a span [name, start, end, parent,
instance]. Monomial methods run up to millions of times per instance, so they
are counted instead of timed. Spans and counters stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "graphs", "covers", "quotients", "invariants", "monomials")
COUNTED_CLASS = "monomials.Monomial"
INTERSECTION = "covers.cover_ideal_by_intersection"
ROUTES = (INTERSECTION, "covers.kprime_cover_ideal", "covers.minimal_covers_bruteforce")
FIND_ORDER = "quotients.find_linear_order"
IDEAL_NEW = "monomials.MonomialIdeal.__init__"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.instance = None
        self._stack: list[int] = []
        self._restore: list = []
        self._canonical: set[int] = set()
        self._observers = {
            "monomials.MonomialIdeal.intersect": self._observe_intersect,
            "quotients.check_linear_quotients": self._observe_check,
        }

    def __enter__(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{self.package.__name__}.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._span_wrapper(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj, mod)
        prefix = self.package.__name__
        for name, mod in list(sys.modules.items()):
            if name != prefix and not name.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set_attr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._restore.append((obj.__setitem__, key, value))
                            obj[key] = wrapped[value]
        return self

    def __exit__(self, *exc):
        while self._restore:
            setter, key, value = self._restore.pop()
            setter(key, value)
        return False

    def _set_attr(self, owner, attr, value):
        original = vars(owner)[attr]
        self._restore.append((functools.partial(setattr, owner), attr, original))
        setattr(owner, attr, value)

    def _wrap_class(self, layer, cls, mod):
        counted = f"{layer}.{cls.__name__}" == COUNTED_CLASS
        for attr, raw in list(vars(cls).items()):
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if not inspect.isfunction(fn) or fn.__code__.co_filename != mod.__file__:
                continue  # properties and dataclass-generated methods
            if attr.startswith("_") and attr != "__init__":
                continue
            if counted:
                wrapper = self._count_wrapper(layer, attr, fn)
            else:
                wrapper = self._span_wrapper(f"{layer}.{cls.__name__}.{attr}", fn)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(wrapper)
            self._set_attr(cls, attr, wrapper)

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(index, args, result)
            return result

        return wrapper

    def _count_wrapper(self, layer, attr, fn):
        counters = self.counters
        if attr == "__init__":
            @functools.wraps(fn)
            def init(obj, *args, **kwargs):
                fn(obj, *args, **kwargs)
                counters[f"{layer}.monomial_new"] += 1
                counters[f"{layer}.entries"] += obj.n
            return init
        key = f"{layer}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_intersect(self, index, args, result):
        parent = self.spans[index][3]
        if parent >= 0 and self.spans[parent][0] == INTERSECTION:
            c = self.counters
            c["covers.intersection.lcm_pairs"] += len(args[0].gens) * len(args[1].gens)
            c["covers.intersection.gens_kept"] += len(result.gens)
            c["covers.intersection.peak_gens"] = max(
                c["covers.intersection.peak_gens"], len(result.gens))

    def _observe_check(self, index, args, result):
        # find_linear_order builds the canonical order and checks it first;
        # a later check under the same parent verifies a searched order
        spans = self.spans
        parent = spans[index][3]
        before = index - 1
        if (parent >= 0 and spans[parent][0] == FIND_ORDER
                and spans[before][0] == "quotients.canonical_order"
                and spans[before][3] == parent):
            self._canonical.update((before, index))
            self.counters["quotients.canonical.attempts"] += 1
            self.counters["quotients.canonical.hits"] += bool(result.linear)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer times (s) and counts over the spans of instances; spans
        recorded while no instance was set are left out."""
        spans = self.spans
        child = [0.0] * len(spans)
        route_child = [0.0] * len(spans)
        canonical_child = [0.0] * len(spans)
        calls, incl, self_by_layer = Counter(), Counter(), Counter()
        colon_steps = 0
        for i, (name, start, end, parent, instance) in enumerate(spans):
            if instance is None:
                continue
            if parent >= 0:
                child[parent] += end - start
                if name in ROUTES:
                    route_child[parent] += end - start
                if i in self._canonical:
                    canonical_child[parent] += end - start
                if name == IDEAL_NEW and spans[parent][0] == FIND_ORDER:
                    colon_steps += 1
        patrol_s = search_s = 0.0
        for i, (name, start, end, _, instance) in enumerate(spans):
            if instance is None:
                continue
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_by_layer[name.split(".", 1)[0]] += dur - child[i]
            if name == "covers.min_patrols":
                patrol_s += dur - route_child[i]
            elif name == FIND_ORDER:
                search_s += dur - canonical_child[i]
        c = self.counters
        pairs, kept = c["covers.intersection.lcm_pairs"], c["covers.intersection.gens_kept"]
        attempts, hits = c["quotients.canonical.attempts"], c["quotients.canonical.hits"]
        return {
            "cli.self_s": self_by_layer["cli"],
            "cli.load_s": incl["cli.load_payload"] + incl["cli.classify_input"],
            "cli.render_s": incl["cli.render"],
            "graphs.self_s": self_by_layer["graphs"],
            "graphs.calls": sum(v for k, v in calls.items() if k.startswith("graphs.")),
            "covers.intersection.s": incl[INTERSECTION],
            "covers.intersection.calls": calls[INTERSECTION],
            "covers.intersection.peak_gens": c["covers.intersection.peak_gens"],
            "covers.intersection.lcm_pairs": pairs,
            "covers.intersection.gens_kept": kept,
            "covers.intersection.useful_ratio": kept / pairs if pairs else 0.0,
            "covers.closed_form.s": incl["covers.kprime_cover_ideal"],
            "covers.closed_form.calls": calls["covers.kprime_cover_ideal"],
            "covers.bruteforce.s": incl["covers.minimal_covers_bruteforce"],
            "covers.bruteforce.calls": calls["covers.minimal_covers_bruteforce"],
            "covers.patrol.s": patrol_s,
            "quotients.canonical.s": sum(spans[i][2] - spans[i][1] for i in self._canonical),
            "quotients.canonical.attempts": attempts,
            "quotients.canonical.hits": hits,
            "quotients.canonical.hit_ratio": hits / attempts if attempts else 0.0,
            "quotients.search.s": search_s,
            "quotients.search.colon_steps": colon_steps,
            "invariants.self_s": self_by_layer["invariants"],
            "invariants.h_of.s": incl["invariants.h_of"],
            "monomials.monomial_new": c["monomials.monomial_new"],
            "monomials.entries": c["monomials.entries"],
            "monomials.divides": c["monomials.divides"],
            "monomials.lcm": c["monomials.lcm"],
            "monomials.div_by_gcd": c["monomials.div_by_gcd"],
            "monomials.ideal_new": calls[IDEAL_NEW],
            "monomials.ideal_new.s": incl[IDEAL_NEW],
        }
