"""Signatures, finite algebras, datatype terms and assertions.

Carriers are finite ordered sets, which keeps quantifier evaluation and the
models relation decidable.  Two sort constructors are built in: ``pair(S, T)``
with tuple-valued carriers and ``set(S)`` with frozenset-valued carriers
(enumerating a set carrier requires the element carrier to hold at most
eight values).  Equality of terms is definitional: both sides are evaluated
and the carrier elements compared.

Quantifiers over carriers follow the one-point rule for guarded
quantification, as in the relational evaluation of MonPoly (Basin, Klaedtke,
Müller and Zălinescu, JACM 2015).  A guard is ``pattern in t``, ``t ==
{pattern}`` or ``{pattern} == t``, alone or as the first item of an ``And``,
where ``t`` reads none of the quantified variables and ``pattern`` is a
quantified variable or a pair whose quantified parts are distinct variables.
A quantifier's quantified variables are its own and those of the
quantifiers of its class directly inside it, up to one that binds a name
again, so ``forall x . forall y . ((x, y) in t -> ...)`` finds the guard at
both.  The guard can hold only under the values that match an element of
``t``'s value (its one element, for the equations), so the quantifier's
range reads ``t`` once and keeps only the values of its variable that some
element offers, in carrier order.  Under every other value the guard is
false, whatever the inner variables are bound to, without reading anything
that could fail: the antecedent of ``forall ... (guard -> body)`` is then
false and the first item of ``exists ... (guard and ...)`` too, so skipping
the value changes neither the truth, nor which assignment decides, nor what
the evaluation raises.  The carriers of all the quantified variables are
still built first, so a carrier over the set cap raises as before; a guard
whose reads fail, or a membership against a non-set, falls back to the
carrier, which meets the same failure.  An axiom holds when its universal
closure does (``universal_closure``), so the same rule ranges over the
assignments of its free variables.

Every quantifier is evaluated by one rule over the range its ``SHAPE`` names,
compiled once per node by the evaluator's ``RANGES``: a carrier (or what a
guard can meet), a set's elements in value order, or an interface's
components.  Data and component variables are keys of one assignment, so
``free_vars`` refuses a name used as both.
"""
from __future__ import annotations

import itertools
from dataclasses import field
from typing import Iterable, Iterator, Mapping, Optional

from ._record import record
from .errors import (
    AssignmentError,
    CapacityError,
    SignatureError,
    SortError,
    StructuralError,
)
from .model import Value, format_value, freeze_value, value_key

SET_CARRIER_CAP = 8
# distinct message sets an algebra keeps in order before it clears its table
_ORDERED_SETS = 4096


# ---------------------------------------------------------------------------
# Sorts


class Sort:
    """Base class for sort expressions."""

    __slots__ = ()


@record
class BaseSort(Sort):
    name: str

    def __str__(self) -> str:
        return self.name


@record
class PairSort(Sort):
    first: Sort
    second: Sort

    def __str__(self) -> str:
        return f"pair({self.first}, {self.second})"


@record
class SetSort(Sort):
    element: Sort

    def __str__(self) -> str:
        return f"set({self.element})"


def base_sorts(sort: Sort) -> frozenset[str]:
    if isinstance(sort, BaseSort):
        return frozenset((sort.name,))
    if isinstance(sort, PairSort):
        return base_sorts(sort.first) | base_sorts(sort.second)
    if isinstance(sort, SetSort):
        return base_sorts(sort.element)
    raise SortError(f"unknown sort expression: {sort!r}")


# ---------------------------------------------------------------------------
# Signatures and algebras


@record
class Signature:
    """Sort names plus typed function and predicate symbols.

    Arity-0 functions are constants; arity-0 predicates are propositional
    atoms.  Function typings are (argument sorts, result sort) pairs.
    """

    sorts: frozenset[str]
    functions: Mapping[str, tuple[tuple[Sort, ...], Sort]] = field(default_factory=dict)
    predicates: Mapping[str, tuple[Sort, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "functions", dict(self.functions))
        object.__setattr__(self, "predicates", dict(self.predicates))
        for name, (args, result) in self.functions.items():
            for sort in (*args, result):
                self._require_declared(name, sort)
        for name, args in self.predicates.items():
            for sort in args:
                self._require_declared(name, sort)
        overlap = set(self.functions) & set(self.predicates)
        if overlap:
            raise SignatureError(
                f"symbols declared as both function and predicate: {sorted(overlap)}"
            )

    def _require_declared(self, symbol: str, sort: Sort):
        missing = base_sorts(sort) - self.sorts
        if missing:
            raise SignatureError(
                f"symbol {symbol!r} uses undeclared sorts {sorted(missing)}"
            )


@record
class Algebra:
    """Concrete finite interpretation of a signature.

    ``carriers`` assigns each base sort a nonempty ordered tuple of message
    atoms; ``functions`` are total lookup tables over argument tuples;
    ``predicates`` are sets of argument tuples (closed world).
    """

    signature: Signature
    carriers: Mapping[str, tuple[Value, ...]]
    functions: Mapping[str, Mapping[tuple, Value]] = field(default_factory=dict)
    predicates: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self):
        carriers = {}
        for sort, values in dict(self.carriers).items():
            values = tuple(freeze_value(v) for v in values)
            if not values:
                raise StructuralError(f"carrier of sort {sort} must be nonempty")
            if len(set(values)) != len(values):
                raise StructuralError(f"carrier of sort {sort} has duplicates")
            carriers[sort] = values
        object.__setattr__(self, "carriers", carriers)
        missing = self.signature.sorts - set(carriers)
        if missing:
            raise StructuralError(f"no carrier for sorts {sorted(missing)}")
        functions = {}
        for name, table in dict(self.functions).items():
            functions[name] = {
                tuple(freeze_value(a) for a in args): freeze_value(v)
                for args, v in dict(table).items()
            }
        object.__setattr__(self, "functions", functions)
        predicates = {}
        for name, rows in dict(self.predicates).items():
            predicates[name] = frozenset(
                tuple(freeze_value(a) for a in row) for row in rows
            )
        object.__setattr__(self, "predicates", predicates)
        object.__setattr__(self, "_carrier_cache", {})
        object.__setattr__(self, "_position_cache", {})
        object.__setattr__(self, "_ordered_cache", {})
        self._validate_tables()

    def _validate_tables(self):
        for name, (args, result) in self.signature.functions.items():
            table = self.functions.get(name)
            if table is None:
                raise StructuralError(f"no table for function symbol {name!r}")
            for row in itertools.product(*(self.carrier(s) for s in args)):
                if row not in table:
                    rendered = ", ".join(format_value(v) for v in row)
                    raise StructuralError(
                        f"function table {name!r} undefined at ({rendered})"
                    )
            for row, value in table.items():
                if not self.contains(value, result):
                    raise StructuralError(
                        f"function table {name!r} maps outside its result carrier"
                    )
        for name, args in self.signature.predicates.items():
            rows = self.predicates.get(name, frozenset())
            for row in rows:
                if len(row) != len(args) or not all(
                    self.contains(v, s) for v, s in zip(row, args)
                ):
                    raise StructuralError(
                        f"predicate table {name!r} holds an ill-sorted tuple"
                    )

    def carrier(self, sort: Sort) -> tuple[Value, ...]:
        """The ordered carrier of a (possibly composite) sort."""
        cache = self._carrier_cache
        if sort in cache:
            return cache[sort]
        if isinstance(sort, BaseSort):
            try:
                result = self.carriers[sort.name]
            except KeyError:
                raise SignatureError(f"no carrier for sort {sort.name!r}") from None
        elif isinstance(sort, PairSort):
            result = tuple(
                (a, b)
                for a in self.carrier(sort.first)
                for b in self.carrier(sort.second)
            )
        elif isinstance(sort, SetSort):
            base = self.carrier(sort.element)
            if len(base) > SET_CARRIER_CAP:
                raise CapacityError(
                    f"cannot enumerate set({sort.element}): element carrier has"
                    f" {len(base)} > {SET_CARRIER_CAP} values",
                    bound=SET_CARRIER_CAP,
                )
            subsets = []
            for size in range(len(base) + 1):
                for combo in itertools.combinations(range(len(base)), size):
                    subsets.append(frozenset(base[i] for i in combo))
            result = tuple(subsets)
        else:
            raise SortError(f"unknown sort expression: {sort!r}")
        cache[sort] = result
        return result

    def ordered(self, values: frozenset) -> tuple[Value, ...]:
        """The elements of a message set in ``value_key`` order, sorted once
        per distinct set."""
        cache = self._ordered_cache
        result = cache.get(values)
        if result is None:
            if len(cache) >= _ORDERED_SETS:
                cache.clear()
            result = cache[values] = tuple(sorted(values, key=value_key))
        return result

    def positions(self, sort: Sort) -> dict[Value, int]:
        """The index of each element in the ordered carrier of ``sort``."""
        cache = self._position_cache
        if sort not in cache:
            cache[sort] = {v: i for i, v in enumerate(self.carrier(sort))}
        return cache[sort]

    def contains(self, value: Value, sort: Sort) -> bool:
        """Membership in a carrier, without enumerating set carriers."""
        if isinstance(sort, BaseSort):
            return value in self.carriers.get(sort.name, ())
        if isinstance(sort, PairSort):
            return (
                isinstance(value, tuple)
                and len(value) == 2
                and self.contains(value[0], sort.first)
                and self.contains(value[1], sort.second)
            )
        if isinstance(sort, SetSort):
            return isinstance(value, frozenset) and all(
                self.contains(v, sort.element) for v in value
            )
        raise SortError(f"unknown sort expression: {sort!r}")


# ---------------------------------------------------------------------------
# Terms

# Semantic AST nodes are frozen dataclasses; structural equality is the
# notion of equality everywhere (round-trips, caches, fixtures).


class Node:
    """Base of every semantic AST node: terms, assertions, trace assertions.

    ``SHAPE`` is a quantifier's ``(kind, range)``: ``"forall"`` or
    ``"exists"``, binding ``var`` over a ``"sort"`` or an ``"interface"``,
    or the pattern ``vars`` over the elements of the ``"set"``-valued term
    ``source``; it is None for every other node.  ``COMP_FIELDS`` names, for
    each component variable a node reads, the field holding it and the
    field holding its interface, or None when the node does not reveal it.
    """

    __slots__ = ()
    SHAPE: Optional[tuple[str, str]] = None
    COMP_FIELDS: tuple[tuple[str, Optional[str]], ...] = ()


class Term(Node):
    __slots__ = ()


@record
class Var(Term):
    name: str
    sort: Sort


@record
class Apply(Term):
    symbol: str
    args: tuple[Term, ...] = ()


@record
class PairTerm(Term):
    first: Term
    second: Term


@record
class SetTerm(Term):
    elements: tuple[Term, ...] = ()
    element_sort: Optional[Sort] = None  # required for the empty literal


# ---------------------------------------------------------------------------
# Assertions


class Assertion(Node):
    __slots__ = ()


@record
class BoolLit(Assertion):
    value: bool


@record
class PredAtom(Assertion):
    symbol: str
    args: tuple[Term, ...] = ()


@record
class Equals(Assertion):
    left: Term
    right: Term


@record
class Member(Assertion):
    element: Term
    collection: Term


@record
class Not(Assertion):
    operand: Assertion


@record
class And(Assertion):
    items: tuple[Assertion, ...]


@record
class Or(Assertion):
    items: tuple[Assertion, ...]


@record
class Implies(Assertion):
    left: Assertion
    right: Assertion


@record
class Iff(Assertion):
    left: Assertion
    right: Assertion


@record
class ForallData(Assertion):
    SHAPE = ("forall", "sort")

    var: str
    sort: Sort
    body: Assertion


@record
class ExistsData(Assertion):
    SHAPE = ("exists", "sort")

    var: str
    sort: Sort
    body: Assertion


@record
class BoundedForall(Assertion):
    """For all elements of an evaluated set-valued term (pattern-bound)."""

    SHAPE = ("forall", "set")

    vars: tuple[str, ...]
    source: Term
    body: Assertion


@record
class BoundedExists(Assertion):
    SHAPE = ("exists", "set")

    vars: tuple[str, ...]
    source: Term
    body: Assertion


@record
class WellFounded(Assertion):
    """Axiom form requiring a binary relation to be acyclic on its carrier.

    Not first-order expressible, hence a built-in rather than user syntax.
    """

    symbol: str


# ---------------------------------------------------------------------------
# Evaluation
#
# One evaluator serves every assertion context, by compiling each node once
# to a closure ``f(ev, asg)``.  ``Evaluator`` holds the compile rules of the
# datatype fragment in two tables keyed by node type; the interface and
# configuration contexts subclass it and add rules for their own nodes.  A
# rule is called as ``rule(compiler, node)``: it compiles the node's
# children through the ``Compiler`` (named ``_`` when there are none) and
# returns the node's closure, which reads whatever depends on the algebra,
# the interpretation or the step from the evaluator it is called with, so
# evaluators that share a table of closures share their closures, and a
# plan can compile before any of them exists.  ``holds`` and ``term``
# look a node's closure up by the node's id and call it.  A node no rule
# covers compiles to a closure that raises when it is reached, so that a
# short circuit or an empty range still passes it by.


def bind_pattern(names: tuple[str, ...], value: Value) -> dict[str, Value]:
    """Bind a bounded quantifier's variable, or its pair pattern, to a value."""
    if len(names) == 1:
        return {names[0]: value}
    if not isinstance(value, tuple) or len(value) != len(names):
        raise SortError(
            f"pattern ({', '.join(names)}) does not match value {format_value(value)}"
        )
    return dict(zip(names, value))


def _raises(error, message: str):
    def fail(ev, asg):
        raise error(message)

    return fail


def _var(ev, term):
    name = term.name

    def var(ev, asg):
        try:
            return asg[name]
        except KeyError:
            raise AssignmentError(f"unbound variable {name!r}") from None

    return var


def _apply(ev, term):
    symbol = term.symbol
    args = [ev.term_fn(a) for a in term.args]

    def apply(ev, asg):
        table = ev.alg.functions.get(symbol)
        if table is None:
            raise SignatureError(f"no table for function symbol {symbol!r}")
        values = tuple([a(ev, asg) for a in args])
        try:
            return table[values]
        except KeyError:
            rendered = ", ".join(format_value(v) for v in values)
            raise SignatureError(
                f"function table {symbol!r} undefined at ({rendered})"
            ) from None

    return apply


def _pair(ev, term):
    first, second = ev.term_fn(term.first), ev.term_fn(term.second)
    return lambda ev, asg: (first(ev, asg), second(ev, asg))


def _set(ev, term):
    elements = [ev.term_fn(e) for e in term.elements]
    return lambda ev, asg: frozenset([e(ev, asg) for e in elements])


def _pred(ev, phi):
    symbol = phi.symbol
    args = [ev.term_fn(a) for a in phi.args]

    def pred(ev, asg):
        rows = ev.alg.predicates.get(symbol)
        if rows is None:
            if symbol not in ev.alg.signature.predicates:
                raise SignatureError(f"unknown predicate symbol {symbol!r}")
            rows = frozenset()
        return tuple([a(ev, asg) for a in args]) in rows

    return pred


def _equals(ev, phi):
    left, right = ev.term_fn(phi.left), ev.term_fn(phi.right)
    return lambda ev, asg: left(ev, asg) == right(ev, asg)


def _member(ev, phi):
    element, collection = ev.term_fn(phi.element), ev.term_fn(phi.collection)

    def member(ev, asg):
        values = collection(ev, asg)
        if not isinstance(values, frozenset):
            raise SortError("membership against a non-set value")
        return element(ev, asg) in values

    return member


def _not(ev, phi):
    operand = ev.assertion_fn(phi.operand)
    return lambda ev, asg: not operand(ev, asg)


def _items(forall: bool):
    """``And`` holds when all its items do (``forall``), ``Or`` when some
    item does; the first item that decides ends the scan."""

    def rule(ev, phi):
        items = [ev.assertion_fn(item) for item in phi.items]

        def connective(ev, asg):
            for item in items:
                if (not item(ev, asg)) is forall:  # false decides forall, true exists
                    return not forall
            return forall

        return connective

    return rule


def _implies(ev, phi):
    left, right = ev.assertion_fn(phi.left), ev.assertion_fn(phi.right)
    return lambda ev, asg: not left(ev, asg) or right(ev, asg)


def _iff(ev, phi):
    left, right = ev.assertion_fn(phi.left), ev.assertion_fn(phi.right)
    return lambda ev, asg: left(ev, asg) == right(ev, asg)


def quantifier_guard(
    phi, formula=lambda node: node, implications=(Implies,)
) -> Optional[Guard]:
    """The guard of a quantifier over a sort whose pattern holds its
    variable (see the module docstring), found in what must hold for a value
    to matter: the antecedent of its body, an instance of ``implications``,
    for ``forall``, and its body for ``exists``, each read through
    ``formula`` (``constraints`` unwraps ``State`` with it).  Its body is
    read below the quantifiers of its class directly inside it, up to one
    that binds a name again; their variables are quantified too."""
    quantified = {phi.var: phi.sort}
    body = phi.body
    while type(body) is type(phi) and body.var not in quantified:
        quantified[body.var] = body.sort
        body = body.body
    body = formula(body)
    if phi.SHAPE[0] == "forall":
        body = formula(body.left) if type(body) in implications else None
    guard = find_guard(body, quantified)
    return guard if guard is not None and phi.var in guard.names else None


def bound_names(phi) -> tuple[str, ...]:
    """The names a quantifier binds: its pattern over a set, else its
    variable."""
    return phi.vars if phi.SHAPE[1] == "set" else (phi.var,)


def sort_range(guard_of):
    """The range rule over a sort: the carrier, or, when ``guard_of`` finds
    the quantifier a guard, only the values that can meet it (the one-point
    rule, see the module docstring)."""

    def rule(ev, phi):
        var, sort, guard = phi.var, phi.sort, guard_of(phi)
        if guard is None:
            return lambda ev, asg: ev.alg.carrier(sort)

        def values(ev, asg):
            for each in guard.sorts:  # an over-cap carrier raises before matching
                ev.alg.carrier(each)
            matches = _guard_matches(ev, asg, guard, var, sort)
            return ev.alg.carrier(sort) if matches is None else matches

        return values

    return rule


def _set_range(ev, phi):
    """The range rule over a set: the elements of the source's value, in
    value order."""
    source = ev.term_fn(phi.source)

    def values(ev, asg):
        value = source(ev, asg)
        if not isinstance(value, frozenset):
            raise SortError("bounded quantifier over a non-set value")
        return ev.alg.ordered(value)

    return values


def _decide(forall: bool, body, ev, asg, names: tuple[str, ...], values) -> bool:
    """Whether the closure ``body`` holds under ``asg`` with the pattern
    ``names`` bound to every one (``forall``) or to some one of ``values``,
    tried in turn until one decides.  One extended copy of ``asg`` serves
    every binding, as a closure keeps no assignment after it returns."""
    inner = dict(asg)
    name = names[0] if len(names) == 1 else None
    for value in values:
        if name is None:
            inner.update(bind_pattern(names, value))
        else:
            inner[name] = value
        if (not body(ev, inner)) is forall:  # as in _items
            return not forall
    return forall


def _quantifier(ev, phi):
    """The compile rule of every quantifier of a formula: ``_decide`` over
    the range that the evaluator's ``RANGES`` gives its ``SHAPE``."""
    forall, names, body = phi.SHAPE[0] == "forall", bound_names(phi), ev.assertion_fn(phi.body)
    values = ev.rules.RANGES[phi.SHAPE[1]](ev, phi)
    return lambda ev, asg: _decide(forall, body, ev, asg, names, values(ev, asg))


class Compiler:
    """Compiles nodes to closures by the rule tables of ``rules``, an
    ``Evaluator`` class, into ``closures``: by the id of a node, the node
    and its closure.  The entry holds the node, so its id is not reused;
    pass one table to every compiler that should share it.  An evaluator
    compiles by its own class's rules."""

    def __init__(self, rules: type, closures: Optional[dict] = None):
        self.rules = rules
        self.closures = {} if closures is None else closures

    def compile(self, node: Node, table: dict):
        """The closure of ``node`` by its rule in ``table``; called once per
        node and table of closures."""
        return table[type(node)](self, node)

    def closure(self, node: Node, table: dict, missing: str):
        """The closure of ``node`` from ``closures``, compiled on a miss; for
        a node ``table`` does not cover, a closure, not kept, that raises."""
        if type(node) not in table:
            name = type(node).__name__
            return _raises(SortError, missing.format(name, self.rules.FRAGMENT))
        entry = self.closures.get(id(node))
        if entry is None:
            entry = self.closures[id(node)] = (node, self.compile(node, table))
        return entry[1]

    def term_fn(self, term: Term):
        return self.closure(term, self.rules.TERMS, "cannot evaluate {} in {}")

    def assertion_fn(self, phi: Assertion):
        return self.closure(phi, self.rules.ASSERTIONS, "{} is not part of {}")


class Evaluator(Compiler):
    """Terms and assertions of the datatype fragment over one algebra, each
    compiled once per table of closures (see ``Compiler``)."""

    FRAGMENT = "datatype assertions"
    TERMS = {Var: _var, Apply: _apply, PairTerm: _pair, SetTerm: _set}
    ASSERTIONS = {
        BoolLit: lambda _, phi: lambda ev, asg: phi.value,
        PredAtom: _pred,
        Equals: _equals,
        Member: _member,
        Not: _not,
        And: _items(True),
        Or: _items(False),
        Implies: _implies,
        Iff: _iff,
        **dict.fromkeys((ForallData, ExistsData, BoundedForall, BoundedExists), _quantifier),
        WellFounded: lambda _, phi: lambda ev, asg: check_well_founded(ev.alg, phi.symbol),
    }
    # range rules by the range of a quantifier's SHAPE: each is called as
    # ``rule(compiler, quantifier)`` and returns ``values(ev, asg)``
    RANGES = {"sort": sort_range(quantifier_guard), "set": _set_range}

    def __init__(self, alg: Algebra, closures: Optional[dict] = None):
        super().__init__(type(self), closures)
        self.alg = alg

    def term(self, asg: Mapping[str, Value], term: Term) -> Value:
        return self.term_fn(term)(self, asg)

    def holds(self, asg: Mapping[str, Value], phi: Assertion) -> bool:
        # an entry holds its node, so a hit is phi's own closure
        entry = self.closures.get(id(phi))
        if entry is None:
            return self.assertion_fn(phi)(self, asg)
        return entry[1](self, asg)


def eval_term(alg: Algebra, asg: Mapping[str, Value], term: Term) -> Value:
    """Value of a well-sorted term under a variable assignment."""
    return Evaluator(alg).term(asg, term)


def children(node: Node) -> list[Node]:
    """Immediate sub-terms and sub-assertions of any AST node, in field order.

    Every node is a dataclass, and its children are the fields holding a
    node or a tuple of nodes; ``nodes`` and ``free_vars`` walk through it.
    """
    found = []
    for name in node.__dataclass_fields__:
        value = getattr(node, name)
        if isinstance(value, Node):
            found.append(value)
        elif isinstance(value, tuple):
            found.extend(v for v in value if isinstance(v, Node))
    return found


def nodes(root: Node) -> Iterator[Node]:
    """``root`` and every node under it, in preorder."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def free_vars(node: Node) -> tuple[dict[str, Sort], dict[str, Optional[str]]]:
    """Free data and component variables of a term, an assertion or a trace
    assertion.  Data variables map to their sort; component variables map
    to their interface when an occurrence reveals it (port reads, conn),
    otherwise to None.  Raises SortError when a name is used at two sorts
    or two interfaces, or as a data and as a component variable (see the
    module docstring): free as both, or as one inside a quantifier that
    binds it as the other.
    """
    data: dict[str, Sort] = {}
    comps: dict[str, Optional[str]] = {}

    def both(name):
        raise SortError(f"{name!r} is used as a data and as a component variable")

    def walk(node, bound: dict):
        # bound: each name bound around node, to whether it is a component's
        if isinstance(node, Var):
            comp = bound.get(node.name)
            if comp:
                both(node.name)
            if comp is None:
                previous = data.get(node.name)
                if previous is not None and previous != node.sort:
                    raise SortError(
                        f"variable {node.name!r} used at sorts {previous} and {node.sort}"
                    )
                data[node.name] = node.sort
            return
        if node.SHAPE is not None:
            comp = node.SHAPE[1] == "interface"
            if node.SHAPE[1] == "set":
                walk(node.source, bound)
            inner = dict(bound)
            for name in bound_names(node):
                if bound.get(name, comp) is not comp:
                    both(name)
                inner[name] = comp
            walk(node.body, inner)
            return
        if node.COMP_FIELDS:
            for var_field, interface_field in node.COMP_FIELDS:
                name = getattr(node, var_field)
                if bound.get(name) is False:
                    both(name)
                if name in bound:
                    continue
                known = comps.get(name)
                interface = interface_field and getattr(node, interface_field)
                if known and interface and known != interface:
                    raise SortError(
                        f"component variable {name!r} used at interfaces"
                        f" {known!r} and {interface!r}"
                    )
                comps[name] = known or interface
            return
        for child in children(node):
            walk(child, bound)

    walk(node, {})
    for name in sorted(data.keys() & comps.keys())[:1]:
        both(name)
    return data, comps


@record
class Guard:
    """A guard of quantified variables (see the module docstring): ``pattern
    in source``, or ``source == {pattern}`` when ``single``.  ``names``
    holds, for each part of the pattern (the pattern itself, or the two
    sides of a pair), the quantified variable it is, or None for a part that
    reads none."""

    pattern: Term
    source: Term
    single: bool
    names: tuple[Optional[str], ...]
    sorts: tuple[Sort, ...]  # of the quantified variables, in their order


def _parts(pattern: Term) -> tuple[Term, ...]:
    return (pattern.first, pattern.second) if type(pattern) is PairTerm else (pattern,)


def _var_names(node: Node) -> set[str]:
    return {item.name for item in nodes(node) if type(item) is Var}


def find_guard(
    phi: Optional[Assertion], quantified: Mapping[str, Sort]
) -> Optional[Guard]:
    """The guard that ``phi`` is or begins with, over the variables
    ``quantified``; None when ``phi`` is None or has no such guard."""
    if type(phi) is And and phi.items:
        phi = phi.items[0]
    if type(phi) is Member:
        shapes = [(phi.element, phi.collection, False)]
    elif type(phi) is Equals:
        shapes = [
            (one.elements[0], source, True)
            for one, source in ((phi.right, phi.left), (phi.left, phi.right))
            if type(one) is SetTerm and len(one.elements) == 1
        ]
    else:
        return None
    for pattern, source, single in shapes:
        parts = _parts(pattern)
        names = tuple(
            p.name if type(p) is Var and p.name in quantified else None for p in parts
        )
        bound = [n for n in names if n is not None]
        reads = _var_names(source)
        for part, name in zip(parts, names):
            if name is None:
                reads |= _var_names(part)
        if bound and len(set(bound)) == len(bound) and not reads & quantified.keys():
            return Guard(pattern, source, single, names, tuple(quantified.values()))
    return None


def _guard_matches(ev, asg, guard: Guard, var: str, sort: Sort):
    """The values of ``var`` in the carrier of ``sort``, in carrier order,
    that some element of ``guard``'s source offers its part of the pattern,
    the fixed parts equal; None when reading the source or the fixed parts
    fails or the source is not a set."""
    parts = _parts(guard.pattern)
    try:
        source = ev.term(asg, guard.source)
        fixed = [ev.term(asg, p) if n is None else None for p, n in zip(parts, guard.names)]
    except Exception:  # noqa: BLE001 - the evaluation over the carrier meets it again
        return None
    if not isinstance(source, frozenset):
        return None
    if guard.single and len(source) != 1:
        source = ()
    at, positions = guard.names.index(var), ev.alg.positions(sort)
    hits = set()
    for element in source:
        if len(parts) == 1:
            values = (element,)
        elif type(element) is tuple and len(element) == 2:
            values = element
        else:
            continue
        if all(n is not None or v == want for n, want, v in zip(guard.names, fixed, values)):
            index = positions.get(values[at])
            if index is not None:  # outside the carrier: binds nothing
                hits.add(index)
    carrier = ev.alg.carrier(sort)
    return [carrier[i] for i in sorted(hits)]


def universal_closure(phi: Node, variables: Mapping, quantifier=ForallData) -> Node:
    """``phi`` under one ``quantifier`` per variable of ``variables``, each
    with its range (a sort, or an interface), the names sorted and the first
    outermost: its instances come in the product order of the variables."""
    for name in reversed(sorted(variables)):
        phi = quantifier(name, variables[name], phi)
    return phi


def models_spec(alg: Algebra, assertions: Iterable[Assertion]) -> bool:
    """True iff every assertion holds under every assignment of its free
    variables: iff its universal closure holds."""
    evaluator = Evaluator(alg)
    return all(
        evaluator.holds({}, universal_closure(a, free_vars(a)[0])) for a in assertions
    )


def check_well_founded(alg: Algebra, symbol: str) -> bool:
    """Acyclicity of a binary same-sorted relation, equivalent on finite
    carriers to the absence of infinite descending chains."""
    typing = alg.signature.predicates.get(symbol)
    if typing is None:
        raise SignatureError(f"unknown predicate symbol {symbol!r}")
    if len(typing) != 2 or typing[0] != typing[1]:
        raise SignatureError(
            f"well-founded requires a binary relation over one sort,"
            f" got {symbol!r}: {tuple(str(s) for s in typing)}"
        )
    adjacency: dict[Value, set] = {}
    for a, b in alg.predicates.get(symbol, frozenset()):
        adjacency.setdefault(a, set()).add(b)
    return next(back_edges(adjacency, lambda a: adjacency.get(a, ())), None) is None


def back_edges(roots: Iterable, successors) -> Iterator[tuple]:
    """The edges that close a cycle, in the order of a depth-first search
    from each root not reached before: each as the search path from its root
    to the edge's source, then the edge's target.  The search keeps its own
    stack, so a chain of any length is searched."""
    done: set = set()
    for root in roots:
        if root in done:
            continue
        path, on_path = [root], {root}
        pending = [iter(successors(root))]
        while pending:
            for node in pending[-1]:
                if node in on_path:
                    yield (*path, node)
                elif node not in done:
                    path.append(node)
                    on_path.add(node)
                    pending.append(iter(successors(node)))
                    break
            else:
                pending.pop()
                on_path.remove(path[-1])
                done.add(path.pop())
