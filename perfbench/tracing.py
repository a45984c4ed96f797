"""Per-layer timing of the chainmail modules, from outside the package.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` at
every place the name is bound (a function imported into three modules is
wrapped in all three); ``Tracer.uninstall`` puts the originals back.  Each call is a
span whose parent is the innermost span still open; a span's self time is
its duration minus the time of its child spans.  Spans are aggregated by
name as they close.

Hot helpers such as ``join_mask``, ``bits_of`` and ``least_of_upset`` run
more than 10^5 times per run and are not wrapped: their cost stays in the
self time of the caller.  Calls made in forked workers pass straight
through, so only the parent side of a parallel enumeration is traced.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time
from typing import Callable, NamedTuple, Optional


def _scan_kind(args: tuple, kwargs: dict) -> str:
    """``reduced_mail_scan(n, up, down, allow_unbounded)``: the enumerator's
    completability filter allows unbounded mails, the chainmail test does
    not."""
    unbounded = kwargs["allow_unbounded"] if "allow_unbounded" in kwargs else args[3]
    return "filter" if unbounded else "strict"


def _size(args: tuple, kwargs: dict) -> str:
    """``canonicalize(n, up, down)``: split spans by element count."""
    return str(args[0])


class Target(NamedTuple):
    module: str                      # chainmail module that defines the name
    attr: str                        # "name", or "Class.name" for a method
    span: str                        # span name
    split: Optional[Callable] = None    # (args, kwargs) -> span name suffix
    tally: Optional[Callable] = None    # result -> amount added to the span's tally
    usage: bool = False              # also record CPU time of self and children


TARGETS = (
    Target("canon", "canonicalize", "canon.canonicalize", split=_size),
    Target("poset", "reduced_mail_scan", "poset.reduced_mail_scan", split=_scan_kind),
    Target("poset", "FinitePoset.is_complete_lattice", "poset.is_complete_lattice"),
    Target("poset", "FinitePoset.from_json", "poset.from_json"),
    Target("enumeration", "enumerate_posets", "enumeration",
           tally=lambda result: result.count, usage=True),
    Target("enumeration", "enumerate_connected_chainmails", "enumeration",
           tally=lambda result: result.count, usage=True),
    Target("connectivity", "classify", "connectivity.classify"),
    Target("connectivity", "absolutely_connected_elements",
           "connectivity.absolutely_connected_elements"),
    Target("exterior", "exterior", "exterior.exterior"),
    Target("exterior", "tmd_set_masks", "exterior.tmd_set_masks", tally=len),
    Target("cli", "run", "cli.run"),
    Target("generators", "named_fixture", "generators.named_fixture"),
)

CANON_SIZES = range(1, 9)

# name, unit, better; the order in which run.py reports them
PER_LAYER = (
    [("canon.canonicalize.calls", "count", "lower"),
     ("canon.canonicalize.self_s", "s", "lower"),
     ("canon.canonicalize.us_per_call", "us", "lower")]
    + [(f"canon.calls_at_n.{k}", "count", "lower") for k in CANON_SIZES]
    + [("poset.reduced_mail_scan.filter.calls", "count", "lower"),
       ("poset.reduced_mail_scan.filter.self_s", "s", "lower"),
       ("poset.reduced_mail_scan.strict.calls", "count", "lower"),
       ("poset.reduced_mail_scan.strict.self_s", "s", "lower"),
       ("poset.is_complete_lattice.calls", "count", "lower"),
       ("poset.is_complete_lattice.self_s", "s", "lower"),
       ("poset.from_json.self_s", "s", "lower"),
       ("enumeration.self_s", "s", "lower"),
       ("enumeration.filter_pass_ratio", "ratio", "lower"),
       ("enumeration.canon_per_class", "ratio", "lower"),
       ("enumeration.parent_cpu_s", "s", "lower"),
       ("enumeration.children_cpu_s", "s", "lower"),
       ("enumeration.parallel_efficiency", "ratio", "higher"),
       ("connectivity.classify.calls", "count", "lower"),
       ("connectivity.classify.self_s", "s", "lower"),
       ("connectivity.absolutely_connected_elements.self_s", "s", "lower"),
       ("connectivity.absolutely_connected_elements.hit_ratio", "ratio", "higher"),
       ("exterior.exterior.calls", "count", "lower"),
       ("exterior.exterior.self_s", "s", "lower"),
       ("exterior.tmd_set_masks.calls", "count", "lower"),
       ("exterior.tmd_set_masks.self_s", "s", "lower"),
       ("exterior.tmd_set_masks.sets", "count", "lower"),
       ("exterior.tmd_set_masks.hit_ratio", "ratio", "higher"),
       ("cli.run.calls", "count", "lower"),
       ("cli.run.self_s", "s", "lower"),
       ("generators.named_fixture.self_s", "s", "lower"),
       ("trace.overhead_frac", "ratio", "lower")]
)


class Span:
    """Aggregate of the closed spans of one name."""

    __slots__ = ("calls", "total_s", "self_s", "tally", "cpu_self_s", "cpu_children_s")

    def __init__(self):
        self.calls = 0
        self.total_s = self.self_s = 0.0
        self.tally = 0
        self.cpu_self_s = self.cpu_children_s = 0.0


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class Tracer:
    def __init__(self):
        self.spans: dict = {}
        self.absent: list = []        # span names whose target no longer exists
        self.cache_calls: dict = {}   # span name -> (hits, misses) of an lru_cache target
        self._caches: dict = {}       # span name -> (lru_cache, its cache_info at install)
        self._open: list = []         # child time of each open span, innermost last
        self._pid = os.getpid()

    def _span(self, name: str) -> Span:
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span()
        return span

    def wrap(self, fn: Callable, target: Target) -> Callable:
        open_spans, pid, clock = self._open, self._pid, time.perf_counter
        split, tally, usage = target.split, target.tally, target.usage

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != pid:
                return fn(*args, **kwargs)
            name = target.span if split is None else f"{target.span}.{split(args, kwargs)}"
            if usage:
                cpu0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child_s = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                span = self._span(name)
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - child_s
                if usage:
                    span.cpu_self_s += _cpu(resource.RUSAGE_SELF) - cpu0[0]
                    span.cpu_children_s += _cpu(resource.RUSAGE_CHILDREN) - cpu0[1]
            if tally is not None:
                span.tally += tally(result)
            return result

        return wrapper

    @staticmethod
    def _bindings(cm, target: Target) -> list:
        """(owner, attribute, original) for every binding of the target."""
        module = getattr(cm, target.module)
        if "." in target.attr:
            cls_name, attr = target.attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or attr not in vars(cls):
                return []
            return [(cls, attr, vars(cls)[attr])]
        original = getattr(module, target.attr, None)
        if original is None:
            return []
        owners = [mod for name, mod in list(sys.modules.items())
                  if (name == "chainmail" or name.startswith("chainmail."))
                  and getattr(mod, target.attr, None) is original]
        return [(owner, target.attr, original) for owner in owners]

    def install(self, cm) -> list:
        """Wrap every target; returns the bindings to restore."""
        replaced = []
        found = set()
        for target in TARGETS:
            bindings = self._bindings(cm, target)
            if not bindings:
                continue
            found.add(target.span)
            original = bindings[0][2]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self.wrap(original.__func__, target))
            else:
                wrapped = self.wrap(original, target)
                if hasattr(original, "cache_info"):
                    self._caches[target.span] = (original, original.cache_info())
            for owner, attr, value in bindings:
                setattr(owner, attr, wrapped)
                replaced.append((owner, attr, value))
        self.absent = sorted({target.span for target in TARGETS} - found)
        return replaced

    def uninstall(self, replaced: list) -> None:
        for owner, attr, value in reversed(replaced):
            setattr(owner, attr, value)
        for span, (cached, before) in self._caches.items():
            after = cached.cache_info()
            self.cache_calls[span] = (after.hits - before.hits, after.misses - before.misses)

    # -- metrics -----------------------------------------------------------

    def _sum(self, prefix: str) -> Span:
        """All spans named ``prefix`` or ``prefix.<split>``, added up."""
        out = Span()
        for name, span in self.spans.items():
            if name == prefix or name.startswith(prefix + "."):
                out.calls += span.calls
                out.total_s += span.total_s
                out.self_s += span.self_s
                out.tally += span.tally
                out.cpu_self_s += span.cpu_self_s
                out.cpu_children_s += span.cpu_children_s
        return out

    def _hit_ratio(self, span: str) -> float:
        hits, misses = self.cache_calls.get(span, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    def metrics(self, threads: int) -> dict:
        """Every ``PER_LAYER`` metric but ``trace.overhead_frac``, except
        those of targets that no longer exist."""
        canon = self._sum("canon.canonicalize")
        scans = self._sum("poset.reduced_mail_scan")
        enum = self._sum("enumeration")
        cpu = enum.cpu_self_s + enum.cpu_children_s
        values = {
            "canon.canonicalize.calls": canon.calls,
            "canon.canonicalize.self_s": canon.self_s,
            "canon.canonicalize.us_per_call": 1e6 * canon.self_s / canon.calls if canon.calls else 0.0,
            "enumeration.self_s": enum.self_s,
            # the enumerator's last level tests candidates with the strict scan
            "enumeration.filter_pass_ratio": canon.calls / scans.calls if enum.calls and scans.calls else 0.0,
            "enumeration.canon_per_class": canon.calls / enum.tally if enum.tally else 0.0,
            "enumeration.parent_cpu_s": enum.cpu_self_s,
            "enumeration.children_cpu_s": enum.cpu_children_s,
            "enumeration.parallel_efficiency": cpu / (enum.total_s * threads) if enum.calls else 0.0,
            "connectivity.absolutely_connected_elements.hit_ratio":
                self._hit_ratio("connectivity.absolutely_connected_elements"),
            "exterior.tmd_set_masks.sets": self._sum("exterior.tmd_set_masks").tally,
            "exterior.tmd_set_masks.hit_ratio": self._hit_ratio("exterior.tmd_set_masks"),
        }
        for k in CANON_SIZES:
            values[f"canon.calls_at_n.{k}"] = self._sum(f"canon.canonicalize.{k}").calls
        for name, _unit, _better in PER_LAYER:
            base, _, field = name.rpartition(".")
            if field in ("calls", "self_s") and name not in values:
                values[name] = getattr(self._sum(base), field)
        return {name: value for name, value in values.items()
                if not any(name.startswith(prefix) for prefix in self._absent_prefixes())}

    def _absent_prefixes(self) -> list:
        prefixes = [span + "." for span in self.absent]
        if "canon.canonicalize" in self.absent:
            prefixes.append("canon.calls_at_n.")
        return prefixes
