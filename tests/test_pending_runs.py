"""Runs that stay pending, against the oracle in both modes.

Random assertions decide early: most of their runs end at the first step,
so they rarely reach a chain's later positions or feed a configuration
again after the residual changed.  Here every assertion is a response or
chain shape over atoms that read the steps, ``G(a -> F b)``, ``U`` and
``W`` whose both sides stay pending, and chains nested in chains, each
over free rigid variables, on a random world's trace made to stutter and
to come back to its first steps.  The checks must agree with the oracle
and with the plain progression, which reads every step, and a monitor
with both on every prefix.
"""
import random

from archcheck.algebra import BoolLit, Equals, PredAtom
from archcheck.constraints import (
    CLOSED,
    OPEN,
    AssertionPlan,
    Eventually,
    Globally,
    Monitor,
    Next,
    State,
    TraceAnd,
    TraceImplies,
    TraceOr,
    Until,
    WeakUntil,
    check_trace_assertion,
)
from archcheck.model import ConfigurationTrace

import oracle
from generators import FormulaGenerator, random_world
from test_stutter import _plain

SHAPES = {
    "response": lambda a, b, c: Globally(TraceImplies(a, Eventually(b))),
    "response until": lambda a, b, c: Globally(TraceImplies(a, Until(b, Next(c)))),
    "until, both pending": lambda a, b, c: Until(Eventually(a), Next(b)),
    "weak until, both pending": lambda a, b, c: WeakUntil(Globally(a), Eventually(b)),
    "until, right pending": lambda a, b, c: Until(a, Next(b)),
    "weak until, right pending": lambda a, b, c: WeakUntil(a, Eventually(TraceAnd((b, c)))),
    "until in weak until": lambda a, b, c: WeakUntil(Until(a, b), Next(c)),
    "eventually always": lambda a, b, c: Eventually(Globally(TraceOr((a, b)))),
    "always eventually": lambda a, b, c: Globally(Eventually(TraceAnd((a, Next(b))))),
    "until always": lambda a, b, c: Until(a, Globally(b)),
}


def _traces(rng, world):
    """The world's longer trace, the same with each step repeated one to
    three times, and the stuttering one with two steps from its middle on
    replaced by its first two: back at configurations met before."""
    steps = list(world.extension.steps)
    stutter = [k for k in steps for _ in range(rng.randint(1, 3))]
    back = list(stutter)
    middle = len(back) // 2
    back[middle:middle + 2] = back[:2]
    universe = world.extension.universe
    return [ConfigurationTrace(universe, s) for s in (steps, stutter, back)]


def _atom(gen, iface):
    """A state atom over the free data variable ``x`` and the free
    component variable ``b`` that reads the step: not one of the datatype
    atoms, whose truth no step changes."""
    atom = gen.state_atom(["x"], [("b", iface)])
    while type(atom) in (BoolLit, Equals, PredAtom):
        atom = gen.state_atom(["x"], [("b", iface)])
    return State(atom)


def test_pending_runs_agree_with_the_oracle_and_the_plain_progression():
    rng = random.Random(420001)
    shapes, runs, at_first_step, letters = set(), 0, 0, set()
    for _ in range(60):
        world = random_world(rng, max_len=4, extra_steps=3)
        # an interface with no component would close every assertion at once
        iface = rng.choice([i for i in world.interfaces if world.ids_by_interface[i]])
        oworld = oracle.World(world.alg, world.J)
        gen = FormulaGenerator(rng, world)
        decls = {"b": iface}
        name = rng.choice(sorted(SHAPES))
        shapes.add(name)
        gamma = SHAPES[name](*(_atom(gen, iface) for _ in range(3)))
        plan = AssertionPlan(gamma, decls)
        for trace in _traces(rng, world):
            for mode in (OPEN, CLOSED):
                verdict = check_trace_assertion(world.alg, world.J, trace, gamma, mode, plan=plan)
                assert verdict == _plain(world.alg, world.J, trace, gamma, mode, decls), (
                    name, mode, gamma)
                letter = oracle.check_assertion(oworld, trace, gamma, mode, rigid_comp=decls)
                assert oracle.truth_letter(verdict) == letter, (name, mode, gamma)
                letters.add(letter)
            monitor, final = Monitor(world.alg, world.J, gamma, plan), None
            for t, k in enumerate(trace.steps, start=1):
                verdict = monitor.step(k)
                prefix = ConfigurationTrace(trace.universe, trace.steps[:t])
                closed = check_trace_assertion(world.alg, world.J, prefix, gamma, CLOSED, plan=plan)
                assert oracle.truth_letter(closed) == oracle.check_assertion(
                    oworld, prefix, gamma, CLOSED, rigid_comp=decls
                ), (name, t, gamma)
                if final is not None:
                    assert verdict == final
                    continue
                assert verdict == check_trace_assertion(
                    world.alg, world.J, prefix, gamma, OPEN, plan=plan
                ), (name, t, gamma)
                assert oracle.truth_letter(verdict) == oracle.check_assertion(
                    oworld, prefix, gamma, OPEN, rigid_comp=decls
                ), (name, t, gamma)
                if verdict.final:
                    final = verdict
                    at_first_step += t == 1
            runs += 1
    assert shapes == set(SHAPES)
    assert letters == {oracle.T, oracle.F, oracle.U}
    # the point of the shapes: few runs are decided at their first step
    assert at_first_step <= runs // 5, (at_first_step, runs)
