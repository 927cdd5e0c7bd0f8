"""Per-layer tracing applied from outside the ``dfblang`` package.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``dfblang`` module that binds it (``validity`` imports
``is_subtype`` by name, the package ``__init__`` re-exports most names),
so calls between modules go through the wrapper too. A recursive
function (``eval_expr``, ``substitute``, ``render``,
``require_well_formed``) gets a span only for its outermost call; inner
calls are counted and their time stays inside that one span. A layer's
self time is its span time minus the time of traced spans it caused.

Spans are aggregated as they close (count, total and self time per
name) rather than kept one by one: a traced batch closes millions of
them. A name missing from the package is reported as absent.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from dataclasses import dataclass, field

perf_counter = time.perf_counter


def _tokens(extra, result):
    extra["tokens"] += len(result)


def _classes(extra, result):
    extra["classes"] += len(result.names())


def _true(extra, result):
    extra["true"] += bool(result)


def _invalid(extra, result):
    extra["invalid"] += not result.is_valid


def _queries(extra, result):
    extra["queries"] += len(result.query_log)


def _elements(extra, result):
    extra["elements"] += result.size


def _report(extra, result):
    extra["samples"] += result.sample_count
    extra["skipped"] += len(result.skipped)
    extra["intervals"] += len(result.intervals)


# (module, attribute, result hook, name whose activity qualifies a call)
TARGETS = (
    ("syntax", "tokenize", _tokens, None),
    ("syntax", "parse_program", None, None),
    ("syntax", "parse_type", None, None),
    ("syntax", "render", None, None),
    ("classtable", "build_table", _classes, None),
    ("classtable", "substitute", None, None),
    ("classtable", "superclass_of", None, "subtyping.is_subtype"),
    ("classtable", "bounds_of", None, None),
    ("subtyping", "is_subtype", _true, None),
    ("subtyping", "require_well_formed", None, None),
    ("subtyping", "enumerate_ground", None, None),
    ("subtyping", "export_graph", None, None),
    ("validity", "check_type", _invalid, None),
    ("validity", "is_valid_argument", _queries, None),
    ("poset", "make_poset", _elements, None),
    ("poset", "random_poset", None, None),
    ("poset", "dfbf_domain", None, None),
    ("poset", "recursive_domain_gfp", None, None),
    ("poset", "validity_step", None, None),
    ("poset", "FinitePoset.leq", None, None),
    ("realline", "parse_expr", None, None),
    ("realline", "real_domain", _report, None),
    ("realline", "eval_expr", None, None),
    ("cli", "main", None, None),
)


@dataclass
class Stat:
    calls: int = 0  # every call, recursion included
    spans: int = 0  # outermost calls
    self_s: float = 0.0
    under_calls: int = 0  # calls made while the qualifying name was active
    extra: dict = field(default_factory=Counter)
    active: int = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "spans": self.spans, "self_s": self.self_s,
                "under_calls": self.under_calls, "extra": dict(self.extra)}

    def merge(self, d: dict) -> None:
        self.calls += d["calls"]
        self.spans += d["spans"]
        self.self_s += d["self_s"]
        self.under_calls += d["under_calls"]
        for k, v in d["extra"].items():
            self.extra[k] += v


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {f"{m}.{a.split('.')[-1]}": Stat()
                                       for m, a, _, _ in TARGETS}
        self.absent: set[str] = set()
        self.unreadable: set[str] = set()
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook, under):
        stat = self.stats[name]
        qualifier = self.stats[under] if under else None
        stack = self._stack
        unreadable = self.unreadable

        def wrapper(*args, **kwargs):
            stat.calls += 1
            if qualifier is not None and qualifier.active:
                stat.under_calls += 1
            if stat.active:
                stat.active += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat.active -= 1
            stat.active = 1
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stat.active = 0
                stat.spans += 1
                stat.self_s += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if hook is not None:
                try:
                    hook(stat.extra, result)
                except (AttributeError, TypeError):
                    unreadable.add(name)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded ``dfblang`` module."""
        import dfblang.cli  # noqa: F401  (loads every module of the package)

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dfblang" or n.startswith("dfblang.")]
        for module_name, attr, hook, under in TARGETS:
            name = f"{module_name}.{attr.split('.')[-1]}"
            owner = sys.modules.get(f"dfblang.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(leaf)
            if not callable(original):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original, hook, under)
            if path:  # a method: patch the class
                self._patches.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"stats": {n: s.as_dict() for n, s in self.stats.items()},
                "absent": sorted(self.absent), "unreadable": sorted(self.unreadable)}

    def merge(self, dumped: dict) -> None:
        for name, d in dumped["stats"].items():
            self.stats[name].merge(d)
        self.absent |= set(dumped["absent"])
        self.unreadable |= set(dumped["unreadable"])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, cli_times: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced batch."""
    s = tracer.stats
    m: dict[str, tuple[float, str]] = {}

    def self_s(name):
        m[f"{name}.self_s"] = (s[name].self_s, "s")

    def calls(name):
        m[f"{name}.calls"] = (s[name].calls, "count")

    self_s("syntax.parse_program")
    self_s("syntax.parse_type")
    self_s("syntax.render")
    m["syntax.tokens"] = (s["syntax.tokenize"].extra["tokens"], "count")
    self_s("classtable.build_table")
    m["classtable.classes"] = (s["classtable.build_table"].extra["classes"], "count")
    calls("classtable.substitute")
    self_s("classtable.substitute")
    calls("classtable.superclass_of")
    calls("classtable.bounds_of")
    sub = s["subtyping.is_subtype"]
    calls("subtyping.is_subtype")
    self_s("subtyping.is_subtype")
    m["subtyping.is_subtype.true_ratio"] = (_ratio(sub.extra["true"], sub.calls), "ratio")
    m["subtyping.chain_steps_per_query"] = (
        _ratio(s["classtable.superclass_of"].under_calls, sub.calls), "count")
    calls("subtyping.require_well_formed")
    self_s("subtyping.require_well_formed")
    self_s("subtyping.enumerate_ground")
    self_s("subtyping.export_graph")
    self_s("validity.check_type")
    calls("validity.is_valid_argument")
    inst = s["validity.is_valid_argument"]
    m["validity.queries_per_instantiation"] = (_ratio(inst.extra["queries"], inst.calls), "count")
    check = s["validity.check_type"]
    m["validity.invalid_ratio"] = (_ratio(check.extra["invalid"], check.spans), "ratio")
    self_s("poset.make_poset")
    self_s("poset.random_poset")
    self_s("poset.dfbf_domain")
    self_s("poset.recursive_domain_gfp")
    m["poset.validity_step.calls_per_gfp"] = (
        _ratio(s["poset.validity_step"].calls, s["poset.recursive_domain_gfp"].calls), "count")
    calls("poset.leq")
    make = s["poset.make_poset"]
    m["poset.elements_mean"] = (_ratio(make.extra["elements"], make.calls), "count")
    self_s("realline.parse_expr")
    self_s("realline.real_domain")
    ev, rd = s["realline.eval_expr"], s["realline.real_domain"]
    m["realline.bound_evals"] = (ev.spans, "count")
    m["realline.eval_nodes"] = (ev.calls, "count")
    m["realline.bound_evals_per_sample"] = (_ratio(ev.spans, rd.extra["samples"]), "count")
    m["realline.samples"] = (rd.extra["samples"], "count")
    m["realline.skipped_samples"] = (rd.extra["skipped"], "count")
    m["realline.intervals"] = (rd.extra["intervals"], "count")
    m["cli.interpreter_s"] = (cli_times.get("interpreter_s", 0.0), "s")
    m["cli.import_s"] = (cli_times.get("import_s", 0.0), "s")
    self_s("cli.main")
    return m
