"""Span tracer that wraps hyperf's public functions from the outside.

``Tracer.install`` replaces every public function of the eight library
modules, plus the three methods named in ``METHODS``, with a wrapper that
records a span: name, start, end, parent span, request id, whether it
raised, and for a few functions a note taken from the arguments or the
result.  hyperf modules import names directly (``extremal`` binds
``saturating_assignment``, ``fcalc`` binds ``m_value``, ``verify.SUITES``
holds the suite functions), so every module attribute and every dict
value that is one of the wrapped functions is replaced, and ``uninstall``
puts each one back.  No source file is edited.

Spans are recorded only while ``request`` is set, so work the benchmark
does outside a request (set-up, correctness checks) is never traced.
Spans stay in memory; ``write`` saves them at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import statistics
import sys
from time import perf_counter

MODULES = ("hypercore", "netflow", "orient", "extremal", "fcalc", "ramsey", "verify", "cli")

# (module, class, method, span name); add_arc is counted, never timed
METHODS = (
    ("hypercore", "Hypergraph", "edges_inside", "hypercore.edges_inside"),
    ("netflow", "FlowNetwork", "max_flow", "netflow.max_flow"),
    ("netflow", "FlowNetwork", "add_arc", None),
)

# span name -> note(arguments, result) stored with the span; arguments()
# binds the call to the signature, by parameter name
NOTES = {
    "orient.saturating_assignment": lambda arguments, res: res[0] is not None,
    # (C(n,p), e*C(r,p)): p-sets degree_vectors allocates, p-set incidences
    "hypercore.degree_vectors": lambda arguments, res: _psets(**arguments()),
}


def _psets(d, p):
    h = d.base
    return math.comb(h.n, p), h.e * math.comb(h.r, p)


NAME, START, END, PARENT, REQUEST, ERROR, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.add_arcs = 0
        # CLI requests: spawn to hyperf.cli imported, and stdout bytes
        self.startup: list[float] = []
        self.output_bytes = 0
        self.request = None
        self._stack: list[int] = []
        self._undo: list = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        tracer = self
        note = NOTES.get(name)
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is None:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, tracer.request, False, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(lambda: sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def _counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.request is not None:
                tracer.add_arcs += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every public library function and rebind each reference."""
        import hyperf

        wrapped = {}
        for short in MODULES:
            mod = importlib.import_module(f"hyperf.{short}")
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrapped[id(obj)] = self._span(f"{short}.{attr}", obj)
        for short, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[f"hyperf.{short}"], cls_name)
            orig = vars(cls)[meth]
            self._set(cls, meth, self._span(span, orig) if span else self._counter(orig))
        modules = [hyperf] + [m for k, m in sys.modules.items() if k.startswith("hyperf.")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrapped:
                            self._undo.append((obj.__setitem__, key, val))
                            obj[key] = wrapped[id(val)]

    def _set(self, owner, attr, value):
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for put, key, orig in reversed(self._undo):
            put(key, orig)
        self._undo.clear()

    # ------------------------------------------------------------ output

    def merge(self, spans, add_arcs, request):
        """Append spans recorded by another process under one request id."""
        base = len(self.spans)
        for rec in spans:
            rec[PARENT] = rec[PARENT] + base if rec[PARENT] >= 0 else -1
            rec[REQUEST] = request
            self.spans.append(rec)
        self.add_arcs += add_arcs

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(tracer: Tracer, suite_funcs: dict) -> dict:
    """Per-layer numbers from the recorded spans.

    self time is a span's duration minus the durations of its direct
    children (calls nest, one thread).  ``suite_funcs`` maps each verify
    suite name to the name of the function that runs it.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    under_m = [False] * len(spans)
    under_mad = [False] * len(spans)
    for i, rec in enumerate(spans):
        p = rec[PARENT]
        if p >= 0:
            child[p] += rec[END] - rec[START]
            pname = spans[p][NAME]
            under_m[i] = under_m[p] or pname == "extremal.m_value"
            under_mad[i] = under_mad[p] or pname == "extremal.mad_exact"

    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    wall_s: dict[str, float] = {}
    errors = {m: 0 for m in MODULES}
    part_checks = flow_checks = flow_ok = mad_flows = saturated = 0
    allocated = touched = 0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        dur = rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        wall_s[name] = wall_s.get(name, 0.0) + dur
        if rec[ERROR]:
            errors[name.split(".", 1)[0]] += 1
        if name == "orient.saturating_assignment":
            saturated += bool(rec[NOTE])
            if under_m[i]:
                flow_checks += 1
                flow_ok += bool(rec[NOTE])
        elif name == "hypercore.edges_inside" and under_m[i]:
            part_checks += 1
        elif name == "netflow.max_flow" and under_mad[i]:
            mad_flows += 1
        elif name == "hypercore.degree_vectors" and rec[NOTE] is not None:
            allocated += rec[NOTE][0]
            touched += rec[NOTE][1]

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def timed(span, metric=None, count=True):
        metric = metric or span
        if count:
            put(f"{metric}.calls", calls.get(span, 0), "count")
        put(f"{metric}.self_s", self_s.get(span, 0.0), "s")

    timed("hypercore.degree_vectors")
    timed("fcalc.f_count")
    put("hypercore.psets_allocated_computed", allocated, "count")
    put("hypercore.psets_touched_computed", touched, "count")
    put("hypercore.pset_useful_ratio_computed", ratio(touched, allocated), "ratio")
    timed("hypercore.canonicalize")
    timed("hypercore.edges_inside")
    timed("netflow.max_flow")
    put("netflow.add_arc.calls", tracer.add_arcs, "count")
    put("netflow.arcs_per_flow", ratio(tracer.add_arcs, calls.get("netflow.max_flow", 0)), "ratio")
    timed("netflow.perfect_matching")
    timed("orient.saturating_assignment")
    put("orient.saturating_assignment.saturated_ratio",
        ratio(saturated, calls.get("orient.saturating_assignment", 0)), "ratio")
    timed("orient.orient_budget", count=False)
    timed("orient.orient_from_partition", count=False)
    timed("extremal.mad_exact")
    put("extremal.mad_exact.flows_per_call", ratio(mad_flows, calls.get("extremal.mad_exact", 0)), "ratio")
    timed("extremal.m_value")
    put("extremal.m_value.part_checks", part_checks, "count")
    put("extremal.m_value.flow_checks", flow_checks, "count")
    put("extremal.m_value.flow_ok_ratio", ratio(flow_ok, flow_checks), "ratio")
    timed("extremal.alpha2")
    timed("extremal.mad_bruteforce", count=False)
    timed("fcalc.f_via_m", count=False)
    timed("fcalc.f_bruteforce")
    timed("ramsey.b_value")
    timed("ramsey.f_p1_exact", count=False)
    for suite, func in suite_funcs.items():
        put(f"verify.suite.{suite}.wall_s", wall_s.get(f"verify.{func}", 0.0), "s")
    timed("cli.main", count=False)
    put("cli.startup_s", statistics.median(tracer.startup) if tracer.startup else 0.0, "s")
    put("cli.output_bytes", tracer.output_bytes, "bytes")
    for mod in MODULES:
        put(f"{mod}.errors", errors[mod], "count")
    return out
