"""Random raw syntax trees for parser round-trip testing.

Round trips exercise the grammar and printer only, so the generated units
need to be well-shaped but not well-sorted.
"""
from __future__ import annotations

import random

from archcheck.parser.syntax import (
    ActiveDecl,
    AlgebraBody,
    AxiomDecl,
    CarrierDecl,
    ComponentDecl,
    ConnectDecl,
    ConstraintsBody,
    DatatypeBody,
    DiagramBody,
    EActive,
    EApply,
    EBinary,
    EBool,
    EConn,
    EDot,
    EIRConn,
    EMax,
    EMin,
    EMinMax,
    EName,
    ENum,
    EPair,
    EQuant,
    ESet,
    EUnary,
    EWellFounded,
    InterfaceBody,
    InterfaceDecl,
    PREFIX_OPERATORS,
    PortDecl,
    PortSpecBody,
    RName,
    RPair,
    RSet,
    RigidAnnDecl,
    SourceUnit,
    StepDecl,
    SymbolDecl,
    TableEntry,
    TraceBody,
    VarDecl,
)

NAMES = (
    "alpha", "beta", "gamma'", "delta", "kappa", "mu", "solvekind",
    "p1", "q2", "r3", "pp", "qv", "zz", "handle", "route",
)
UNIT_NAMES = ("Alpha", "Beta", "Gamma", "Delta", "Kilo", "Mike")


class RawGen:
    def __init__(self, rng: random.Random):
        self.rng = rng

    def name(self):
        return self.rng.choice(NAMES)

    def sortref(self, depth=1):
        roll = self.rng.random()
        if depth == 0 or roll < 0.6:
            return RName(self.name())
        if roll < 0.8:
            return RSet(self.sortref(depth - 1))
        return RPair(self.sortref(depth - 1), self.sortref(depth - 1))

    # -- expressions ----------------------------------------------------

    def primary(self, depth=2):
        rng = self.rng
        roll = rng.randrange(7 if depth else 3)
        if roll == 0:
            return EName(self.name())
        if roll == 1:
            return EDot(self.name(), self.name())
        if roll == 2:
            return ENum(rng.randint(0, 9))
        if roll == 3:
            return EApply(
                self.name(),
                tuple(self.primary(depth - 1) for _ in range(rng.randint(0, 2))),
            )
        if roll == 4:
            return EPair(self.primary(depth - 1), self.primary(depth - 1))
        if roll == 5:
            return ESet(
                tuple(self.primary(depth - 1) for _ in range(rng.randint(0, 3)))
            )
        return EName(self.name())

    def atom(self):
        rng = self.rng
        roll = rng.randrange(8)
        if roll == 0:
            return EBool(rng.random() < 0.5)
        if roll == 1:
            return EApply(
                self.name(), tuple(self.primary(1) for _ in range(rng.randint(1, 2)))
            )
        if roll == 2:
            return EBinary("==", self.primary(1), self.primary(1))
        if roll == 3:
            return EBinary("in", self.primary(1), self.primary(1))
        if roll == 4:
            return EActive(self.name())
        if roll == 5:
            return EConn(self.name(), self.name(), self.name(), self.name())
        if roll == 6:
            pick = rng.randrange(4)
            if pick == 0:
                return EMin(self.name(), rng.randint(0, 5))
            if pick == 1:
                return EMax(self.name(), rng.randint(0, 5))
            if pick == 2:
                low = rng.randint(0, 3)
                return EMinMax(self.name(), low, low + rng.randint(0, 3))
            return EIRConn(self.name(), self.name(), self.name(), self.name())
        return EWellFounded(self.name())

    def formula(self, depth=3):
        rng = self.rng
        if depth == 0 or rng.random() < 0.35:
            return self.atom()
        roll = rng.randrange(8)
        if roll == 0:
            return EUnary(rng.choice(PREFIX_OPERATORS), self.formula(depth - 1))
        if roll <= 4:
            op = rng.choice(("and", "or", "->", "<->", "U", "W"))
            return EBinary(op, self.formula(depth - 1), self.formula(depth - 1))
        kind = rng.choice(("forall", "exists"))
        shape = rng.randrange(4)
        if shape == 0:
            return EQuant(kind, (self.name(),), None, None, self.formula(depth - 1))
        if shape == 1:
            return EQuant(
                kind, (self.name(),), self.sortref(), None, self.formula(depth - 1)
            )
        if shape == 2:
            bound = rng.choice(
                (
                    EName(self.name()),
                    EDot(self.name(), self.name()),
                    ESet(tuple(self.primary(1) for _ in range(rng.randint(0, 2)))),
                    EApply(self.name(), (self.primary(1),)),
                )
            )
            return EQuant(kind, (self.name(),), None, bound, self.formula(depth - 1))
        bound = rng.choice(
            (EDot(self.name(), self.name()), EName(self.name()))
        )
        return EQuant(
            kind, (self.name(), self.name()), None, bound, self.formula(depth - 1)
        )

    def axioms(self, low=0, high=3):
        return tuple(
            AxiomDecl(self.formula()) for _ in range(self.rng.randint(low, high))
        )

    def var_decls(self, max_groups=2):
        return tuple(
            VarDecl(
                tuple(
                    self.name() for _ in range(self.rng.randint(1, 2))
                ),
                self.sortref(),
            )
            for _ in range(self.rng.randint(0, max_groups))
        )

    def port_decls(self, max_groups=3):
        return tuple(
            PortDecl((self.name(),), self.sortref())
            for _ in range(self.rng.randint(0, max_groups))
        )

    def ground(self, depth=1):
        rng = self.rng
        roll = rng.randrange(3 if depth else 1)
        if roll == 0:
            return EName(self.name())
        if roll == 1:
            return EPair(self.ground(depth - 1), self.ground(depth - 1))
        return ESet(tuple(self.ground(depth - 1) for _ in range(rng.randint(0, 2))))

    # -- units ----------------------------------------------------

    def unit(self, kind):
        return getattr(self, f"unit_{kind}")()

    def _header(self):
        rng = self.rng
        name = rng.choice(UNIT_NAMES)
        imports = tuple(
            sorted({rng.choice(UNIT_NAMES) for _ in range(rng.randint(0, 2))})
        )
        return name, imports

    def unit_datatype(self):
        rng = self.rng
        name, imports = self._header()
        symbols = []
        for _ in range(rng.randint(0, 3)):
            args = tuple(self.sortref() for _ in range(rng.randint(0, 2)))
            if rng.random() < 0.6:
                symbols.append(SymbolDecl(self.name(), args, self.sortref()))
            elif args:
                symbols.append(SymbolDecl(self.name(), args, None))
            else:
                symbols.append(SymbolDecl(self.name(), (), self.sortref()))
        return SourceUnit(
            "datatype",
            name,
            imports,
            DatatypeBody(
                sorts=tuple(
                    sorted({self.name() for _ in range(rng.randint(1, 3))})
                ),
                symbols=tuple(symbols),
                vars=self.var_decls(),
                axioms=self.axioms(),
            ),
        )

    def unit_portspec(self):
        name, imports = self._header()
        return SourceUnit(
            "portspec", name, imports, PortSpecBody(self.port_decls())
        )

    def unit_interface(self):
        rng = self.rng
        name, imports = self._header()
        pool = list(dict.fromkeys(self.name() for _ in range(6)))
        rng.shuffle(pool)
        a = rng.randint(0, len(pool))
        b = rng.randint(a, len(pool))
        return SourceUnit(
            "interface",
            name,
            imports,
            InterfaceBody(
                ports=self.port_decls(2),
                local=tuple(pool[:a]),
                inputs=tuple(pool[a:b]),
                outputs=tuple(pool[b:]),
                vars=self.var_decls(),
                axioms=self.axioms(),
            ),
        )

    def unit_constraints(self):
        name, imports = self._header()
        return SourceUnit(
            "constraints",
            name,
            imports,
            ConstraintsBody(
                vars=self.var_decls(),
                rigid_vars=self.var_decls(),
                axioms=self.axioms(1, 3),
            ),
        )

    def unit_diagram(self):
        rng = self.rng
        name, imports = self._header()
        interfaces = []
        for _ in range(rng.randint(0, 2)):
            pool = list(dict.fromkeys(self.name() for _ in range(5)))
            rng.shuffle(pool)
            a = rng.randint(0, len(pool))
            b = rng.randint(a, len(pool))
            minmax = rng.choice(
                (
                    None,
                    (rng.randint(0, 3),) * 2,
                    (rng.randint(0, 2), rng.randint(3, 5)),
                    (rng.randint(0, 3), None),
                    (None, rng.randint(0, 3)),
                )
            )
            interfaces.append(
                InterfaceDecl(
                    rng.choice(UNIT_NAMES),
                    local=tuple(pool[:a]),
                    inputs=tuple(pool[a:b]),
                    outputs=tuple(pool[b:]),
                    minmax=minmax,
                )
            )
        rigid_annotations = tuple(
            RigidAnnDecl(
                rng.choice(UNIT_NAMES),
                tuple(dict.fromkeys(self.name() for _ in range(rng.randint(1, 2)))),
            )
            for _ in range(rng.randint(0, 2))
        )
        connects = tuple(
            ConnectDecl(self.name(), self.name(), self.name(), self.name())
            for _ in range(rng.randint(0, 3))
        )
        axiom_blocks = tuple(
            (rng.choice(UNIT_NAMES), self.axioms(1, 2))
            for _ in range(rng.randint(0, 2))
        )
        return SourceUnit(
            "diagram",
            name,
            imports,
            DiagramBody(
                ports=self.port_decls(2),
                vars=self.var_decls(),
                rigid_vars=self.var_decls(),
                interfaces=tuple(interfaces),
                rigid_annotations=rigid_annotations,
                connects=connects,
                axioms=axiom_blocks,
            ),
        )

    def unit_algebra(self):
        rng = self.rng
        name, imports = self._header()
        carriers = tuple(
            CarrierDecl(
                self.name(),
                tuple(dict.fromkeys(self.name() for _ in range(rng.randint(0, 3)))),
            )
            for _ in range(rng.randint(0, 2))
        )
        functions = tuple(
            TableEntry(
                self.name(),
                tuple(self.ground() for _ in range(rng.randint(0, 2))),
                self.ground(),
            )
            for _ in range(rng.randint(0, 3))
        )
        predicates = tuple(
            TableEntry(
                self.name(),
                tuple(self.ground() for _ in range(rng.randint(1, 2))),
                None,
            )
            for _ in range(rng.randint(0, 3))
        )
        return SourceUnit(
            "algebra", name, imports, AlgebraBody(carriers, functions, predicates)
        )

    def unit_trace(self):
        rng = self.rng
        name, imports = self._header()
        components = tuple(
            ComponentDecl(
                f"c{i}",
                rng.choice(UNIT_NAMES),
                tuple(
                    (self.name(), self.ground())
                    for _ in range(rng.randint(0, 2))
                ),
            )
            for i in range(rng.randint(0, 3))
        )
        steps = []
        for _ in range(rng.randint(1, 3)):
            actives = tuple(
                ActiveDecl(
                    f"c{rng.randint(0, 3)}",
                    tuple(
                        (self.name(), self.ground())
                        for _ in range(rng.randint(0, 2))
                    ),
                )
                for _ in range(rng.randint(0, 2))
            )
            connects = tuple(
                ConnectDecl(f"c{rng.randint(0, 3)}", self.name(),
                            f"c{rng.randint(0, 3)}", self.name())
                for _ in range(rng.randint(0, 2))
            )
            steps.append(StepDecl(actives, connects))
        return SourceUnit("trace", name, imports, TraceBody(components, tuple(steps)))
