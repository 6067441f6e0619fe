"""Spans around archcheck's public functions, recorded from the outside.

``Tracer.install`` swaps each traced function for a wrapper in every loaded
``archcheck`` module that refers to it, so calls between modules are seen
without changing the package.  Spans are kept in memory as tuples and
written out at the end; a layer's self time is its span's duration minus
the time of its direct child spans.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
from statistics import fmean, median
from time import perf_counter

from stats import slope

# span name -> (defining module, attribute); "Monitor.step" is a method.
TRACED = {
    "cli.main": ("archcheck.cli", "main"),
    "checker.verify_theorem": ("archcheck.checker", "verify_theorem"),
    "checker.run_check": ("archcheck.checker", "run_check"),
    "parser.parse_unit": ("archcheck.parser.grammar", "parse_unit"),
    "parser.resolve": ("archcheck.parser.resolver", "resolve"),
    "interfaces.check_spec_interpretation": ("archcheck.interfaces", "check_spec_interpretation"),
    "model.check_trace": ("archcheck.model", "check_trace"),
    "algebra.models_spec": ("archcheck.algebra", "models_spec"),
    "diagrams.desugar_diagram": ("archcheck.diagrams", "desugar_diagram"),
    "constraints.check_trace_assertion": ("archcheck.constraints", "check_trace_assertion"),
    "blackboard.simulate_blackboard": ("archcheck.blackboard", "simulate_blackboard"),
    "constraints.Monitor.step": ("archcheck.constraints", "Monitor.step"),
}
NAME, START, END, PARENT, OP, SELF, DETAIL = range(7)


def rigid_assignments(alg, J, gamma, rigid_comp_decls=None, rigid_data_decls=None):
    """Size of the rigid-assignment space ``check_trace_assertion`` enumerates:
    the product of the carriers of the free data variables and the component
    sets of the free component variables."""
    from archcheck.constraints import free_vars

    data, comps = free_vars(gamma)
    data_decls = {**data, **(rigid_data_decls or {})}
    comp_decls = {**comps, **{k: v for k, v in (rigid_comp_decls or {}).items() if k in comps}}
    total = 1
    for name in data:
        total *= len(alg.carrier(data_decls[name]))
    for name in comps:
        total *= len(J.ids_of(comp_decls[name]))
    return total


class Tracer:
    def __init__(self, assertion_names: dict):
        self.spans: list[list] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self._restore: list = []
        self._names = assertion_names  # gamma -> assertion name

    # -- recording ---------------------------------------------------------

    def _open(self, name, op, detail=None):
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, op, None, detail])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        index, children = self._stack.pop()
        span = self.spans[index]
        span[END] = perf_counter()
        duration = span[END] - span[START]
        span[SELF] = duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def op(self, op_id, run):
        """Run one operation inside a root span named ``op``."""
        self._open("op", op_id)
        try:
            return run()
        finally:
            self._close()

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack
            if not stack or self.spans[stack[-1][0]][NAME] == name:
                return fn(*args, **kwargs)
            # The detail is the tracer's own work: count it as a child of the
            # caller so that it stays out of the caller's self time.
            started = perf_counter()
            detail = self._detail(name, args, kwargs)
            stack[-1][1] += perf_counter() - started
            self._open(name, self.spans[stack[0][0]][OP], detail)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return functools.wraps(fn)(wrapper)

    def _detail(self, name, args, kwargs):
        if name == "parser.parse_unit":
            return len(args[0].encode("utf-8"))
        if name == "constraints.check_trace_assertion":
            alg, J, _, gamma = args[:4]
            count = rigid_assignments(
                alg, J, gamma,
                kwargs.get("rigid_comp_decls"), kwargs.get("rigid_data_decls"),
            )
            return [self._names.get(gamma, "unknown"), count]
        return None

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("archcheck") and m]
        for name, (module, attr) in TRACED.items():
            owner = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        while self._restore:
            target, key, original = self._restore.pop()
            setattr(target, key, original)

    def dump(self, path):
        keys = ("name", "start", "end", "parent", "op", "self", "detail")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def layer_metrics(spans, ops_info, all_assertions):
    """Per-layer figures per traced operation, as ``{name: (value, unit)}``.

    ``ops_info`` maps an operation id to the info dict of its ``Op``.  Layers
    a workload never calls read 0.
    """
    n_ops = max(1, len(ops_info))
    total = {}
    self_time = {}
    for span in spans:
        duration = span[END] - span[START]
        total[span[NAME]] = total.get(span[NAME], 0.0) + duration
        self_time[span[NAME]] = self_time.get(span[NAME], 0.0) + span[SELF]

    def per_op_ms(seconds):
        return 1000 * seconds / n_ops, "ms"

    parse = [s for s in spans if s[NAME] == "parser.parse_unit"]
    parse_s = sum(s[END] - s[START] for s in parse)
    parse_bytes = sum(s[DETAIL] for s in parse)
    metrics = {
        "parser.parse_ms": per_op_ms(parse_s),
        "parser.parse_kb_per_s": (parse_bytes / 1000 / parse_s if parse_s else 0.0, "kB/s"),
        "parser.resolve_ms": per_op_ms(total.get("parser.resolve", 0.0)),
    }
    by_assertion = {name: 0.0 for name in all_assertions}
    assignments = 0
    for span in spans:
        if span[NAME] == "constraints.check_trace_assertion":
            name, count = span[DETAIL]
            by_assertion[name] = by_assertion.get(name, 0.0) + span[END] - span[START]
            assignments += count
    for name in sorted(by_assertion):
        metrics[f"constraints.assertion_ms.{name}"] = per_op_ms(by_assertion[name])
    metrics["constraints.rigid_assignments"] = (assignments / n_ops, "count")

    steps = [s for s in spans if s[NAME] == "constraints.Monitor.step"]
    step_ms = [1000 * (s[END] - s[START]) for s in steps]
    last_ms = [ms for s, ms in zip(steps, step_ms) if ops_info[s[OP]].get("last")]
    evaluated = [(ops_info[s[OP]]["prefix"], 1000 * ms) for s, ms in zip(steps, step_ms)
                 if not ops_info[s[OP]].get("decided")]
    metrics["constraints.monitor_step_ms_p50"] = (median(step_ms) if step_ms else 0.0, "ms")
    metrics["constraints.monitor_step_ms_last"] = (fmean(last_ms) if last_ms else 0.0, "ms")
    metrics["constraints.monitor_us_per_prefix_step"] = (
        slope(*zip(*evaluated)) if len(evaluated) > 1 else 0.0, "us"
    )
    for metric, span_name in (
        ("interfaces.check_spec_interpretation_ms", "interfaces.check_spec_interpretation"),
        ("blackboard.simulate_ms", "blackboard.simulate_blackboard"),
        ("model.check_trace_ms", "model.check_trace"),
        ("algebra.models_spec_ms", "algebra.models_spec"),
        ("diagrams.desugar_diagram_ms", "diagrams.desugar_diagram"),
    ):
        metrics[metric] = per_op_ms(total.get(span_name, 0.0))
    metrics["checker.self_ms"] = per_op_ms(
        sum(v for k, v in self_time.items() if k.startswith("checker."))
    )
    metrics["cli.self_ms"] = per_op_ms(self_time.get("cli.main", 0.0))
    return metrics, {name: 1000 * v for name, v in sorted(self_time.items())}
