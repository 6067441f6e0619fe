"""Checks on blackboard traces, computed apart from archcheck's evaluator.

Each function reads the steps of a configuration trace through plain
attribute access (active snapshots, their port values, the connection map)
and decides one property by a direct scan, so that a fault in the checker
cannot hide itself in the benchmark's own expectations.
"""
from __future__ import annotations

BB = "bb"
REQUIRED = (
    # (input component, input port, output component, output port); "ks"
    # stands for every active knowledge source.
    ("ks", "ksip", BB, "bbop"),
    ("ks", "ksis", BB, "bbos"),
    (BB, "bbip", "ks", "ksop"),
    (BB, "bbis", "ks", "ksos"),
)
INCONCLUSIVE = "Inconclusive"
VIOLATED = "Violated"


def _bb(step):
    for snap in step.active:
        if snap.id == BB:
            return snap.valuation
    return None


def port_values(steps, port):
    """Per step, the set held by the blackboard's ``port`` (empty if inactive)."""
    out = []
    for step in steps:
        valuation = _bb(step)
        out.append(frozenset(valuation[port]) if valuation is not None else frozenset())
    return out


def _reaches_later(seen_at, item, index):
    return any(item in values for values in seen_at[index:])


def unsolved_request(steps, solve):
    """First ``(step, problem)`` whose request in ``bb.bbip`` is never answered
    by ``(p, solve(p))`` in ``bb.bbos`` at that step or later, else None."""
    requests = port_values(steps, "bbip")
    published = port_values(steps, "bbos")
    for i, values in enumerate(requests):
        for p, _ in sorted(values, key=repr):
            if not _reaches_later(published, (p, solve[p]), i):
                return i, p
    return None


def unforwarded_solution(steps):
    """First ``(step, (p, s))`` that arrives in ``bb.bbis`` and is not in
    ``bb.bbos`` at that step or later, else None."""
    arrivals = port_values(steps, "bbis")
    published = port_values(steps, "bbos")
    for i, values in enumerate(arrivals):
        for item in sorted(values, key=repr):
            if not _reaches_later(published, item, i):
                return i, item
    return None


def connections_ok(step):
    """Every active source exchanges exactly the four pattern connections with
    the one blackboard, and nothing else is connected."""
    ids = {snap.id for snap in step.active}
    if BB not in ids:
        return False
    sources = ids - {BB}
    expected = {}
    for in_c, in_p, out_c, out_p in REQUIRED:
        for ks in sorted(sources):
            source = (ks if in_c == "ks" else in_c, in_p)
            target = (ks if out_c == "ks" else out_c, out_p)
            expected.setdefault(source, set()).add(target)
    actual = {ref: set(targets) for ref, targets in step.connection.items() if targets}
    return actual == expected


def one_blackboard(step):
    return sum(1 for snap in step.active if snap.id == BB) == 1


def first_failure(steps, holds):
    for i, step in enumerate(steps):
        if not holds(step):
            return i
    return None


def globally_open(steps, holds):
    """Open-mode verdicts of ``G(state)`` after each prefix: Violated from the
    first step where the state fails, Inconclusive before it."""
    bad = first_failure(steps, holds)
    return [
        VIOLATED if bad is not None and i >= bad else INCONCLUSIVE
        for i in range(len(steps))
    ]
