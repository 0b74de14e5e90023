"""The traced run: spans around the public calls into each layer, counters at
the same boundaries, and a standard-library profile for per-module counts.

Spans are recorded by wrappers that replace the program's public functions
on their modules for the length of one pass, so calls made by `cli.main` are
seen as well as the benchmark's own.  A span is [name, start, end, parent,
job id]; a layer's self time is its span minus the time its child spans
cover.  Nothing here runs in the untraced measurement.
"""

from __future__ import annotations

import pstats
import time
from collections import defaultdict

from multirole import cli, kernel, logic, mtlc, runtime, session

from core import node_count

MODULES = ("roles", "logic", "kernel", "session", "runtime", "mtlc", "cli")
CUTS = ("cut2_residual", "mp_cut", "split_roles", "cut1")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.job_kind = ""
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    def span(self, name, fn, after=None, skip_inside=None):
        """Wrap fn in a span.  `name` may depend on the call's arguments.  A
        call made from inside a span of the same name (recursion through the
        module global) is not a new span, nor is a call made anywhere inside
        a span whose name starts with `skip_inside`."""
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kw):
            label = name(args, kw) if callable(name) else name
            if stack and spans[stack[-1]][0] == label or skip_inside and any(
                    spans[i][0].startswith(skip_inside) for i in stack):
                return fn(*args, **kw)
            idx = len(spans)
            spans.append([label, time.perf_counter(), None,
                          stack[-1] if stack else None, self.job])
            stack.append(idx)
            try:
                out = fn(*args, **kw)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if after is not None:
                after(spans[idx], args, out)
            return out

        return wrapper

    def counter(self, fn, count):
        def wrapper(*args, **kw):
            count(args)
            return fn(*args, **kw)

        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        c = self.counts

        def wrap(owner, attr, name, **kw):
            self.patch(owner, attr, self.span(name, getattr(owner, attr), **kw))

        def count(key):
            def bump(args):
                c[key] += 1
            return bump

        def out_nodes(span, args, out):
            c["kernel.out_nodes"] += node_count(out)

        def checked_nodes(span, args, out):
            c["kernel.checked_nodes"] += node_count(args[0])

        def events(span, args, out):
            c["runtime.events"] += len(out.trace)
            c[f"runtime.events.{self.job_kind}"] += len(out.trace)
            c[f"runtime.run_s.{self.job_kind}"] += span[2] - span[1]

        def search_depth(args):
            c["kernel.search_calls"] += 1
            if args[2] <= 0:
                c["kernel.search_cutoffs"] += 1

        wrap(logic, "parse_formula", "logic.parse_formula")
        wrap(kernel, "axiom_multi", "kernel.axiom_multi")
        for cut in CUTS:
            wrap(kernel, cut, f"kernel.{cut}", after=out_nodes)
        wrap(kernel, "check", "kernel.check", after=checked_nodes)
        wrap(kernel, "derivation_to_json", "kernel.json")
        wrap(kernel, "derivation_from_json", "kernel.json")
        self.patch(kernel, "search", self.counter(kernel.search, count("kernel.search_top")))
        wrap(kernel, "search", "kernel.search")
        # memo accounting: the search recursion and its expansion step, when
        # the kernel still has them (they are not public)
        if hasattr(kernel, "_search") and hasattr(kernel, "_search_raw"):
            self.patch(kernel, "_search", self.counter(kernel._search, search_depth))
            self.patch(kernel, "_search_raw", self.counter(
                kernel._search_raw, count("kernel.search_expansions")))
        wrap(session, "parse_session", "session.parse")
        wrap(session, "parse_protocol", "session.parse")
        wrap(session, "encode_lmrl", "session.encode")
        # the calculus runs its threads inside Pool.run: that time is mtlc's
        wrap(runtime.Pool, "run", "runtime.run", after=events, skip_inside="mtlc.eval")
        wrap(runtime, "synthesize", "runtime.synthesize")
        wrap(mtlc, "typecheck", "mtlc.typecheck")
        wrap(mtlc, "eval_pool", lambda a, kw: "mtlc.eval_retyped"
             if kw.get("retype_every_step") else "mtlc.eval")
        # eval_pool hands retype_thread to every thread as its per-step hook,
        # so a retyped evaluation calls it once per reduction
        self.patch(mtlc, "retype_thread", self.counter(
            mtlc.retype_thread, count("mtlc.reductions")))
        wrap(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def times(self):
        """Per span name: (inclusive seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        incl, own = defaultdict(float), defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            incl[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        return incl, own


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced pass (times in ms, self time unless
    the name says otherwise)."""
    incl, own = tracer.times()
    c = tracer.counts
    ms = lambda name: own.get(name, 0.0) * 1e3
    out = {f"kernel.{op}_ms": ms(f"kernel.{op}")
           for op in CUTS + ("check", "search", "json", "axiom_multi")}
    cut_ms = sum(ms(f"kernel.{op}") for op in CUTS)
    recursive = c["kernel.search_calls"] - c["kernel.search_top"]
    hits = recursive - c["kernel.search_cutoffs"] - (
        c["kernel.search_expansions"] - c["kernel.search_top"])
    plain_ms = incl.get("mtlc.eval", 0.0) * 1e3
    out.update({
        "logic.parse_formula_ms": ms("logic.parse_formula"),
        "kernel.out_nodes": c["kernel.out_nodes"],
        "kernel.cut_us_per_node": _ratio(cut_ms * 1e3, c["kernel.out_nodes"]),
        "kernel.check_us_per_node": _ratio(ms("kernel.check") * 1e3, c["kernel.checked_nodes"]),
        "kernel.search_memo_ratio": _ratio(hits, recursive),
        "session.parse_ms": ms("session.parse"),
        "session.encode_ms": ms("session.encode"),
        "runtime.run_ms": ms("runtime.run"),
        "runtime.synthesize_ms": ms("runtime.synthesize"),
        "runtime.events": c["runtime.events"],
        "runtime.us_per_event_long": _ratio(c["runtime.run_s.long"] * 1e6,
                                            c["runtime.events.long"]),
        "runtime.us_per_event_short": _ratio(c["runtime.run_s.short"] * 1e6,
                                             c["runtime.events.short"]),
        "mtlc.typecheck_ms": ms("mtlc.typecheck"),
        "mtlc.eval_ms": ms("mtlc.eval"),
        "mtlc.eval_retyped_ms": ms("mtlc.eval_retyped"),
        "mtlc.reductions": c["mtlc.reductions"],
        "mtlc.us_per_reduction": _ratio(plain_ms * 1e3, c["mtlc.reductions"]),
        "mtlc.retype_overhead": _ratio(incl.get("mtlc.eval_retyped", 0.0) * 1e3, plain_ms),
        "cli.main_ms": ms("cli.main"),
    })
    return out


def module_metrics(profile) -> dict:
    """Calls and self time per program module, from a cProfile.Profile.

    Dataclass-generated methods (__init__, __eq__, __hash__ ...) are compiled
    from strings and are counted as `dataclass`; built-in functions as
    `builtin`, wherever they are called from.
    """
    calls, self_s = defaultdict(int), defaultdict(float)
    for (filename, _, func), (_, nc, tt, _, _) in pstats.Stats(profile).stats.items():
        if filename == "~":
            group = "builtin"
        elif filename == "<string>":
            group = "dataclass"
        else:
            stem = filename.replace("\\", "/").rsplit("/", 2)
            if len(stem) < 3 or stem[-2] != "multirole":
                continue
            group = stem[-1].removesuffix(".py")
        calls[group] += nc
        self_s[group] += tt
    out = {}
    for group in MODULES + ("dataclass", "builtin"):
        out[f"{group}.calls"] = calls[group]
        out[f"{group}.self_ms"] = self_s[group] * 1e3
    return out
