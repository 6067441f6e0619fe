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
It can hold only under the assignments that match an element of ``t``'s value
(its one element, for the equations), so ``enumerate_assignments`` reads
``t`` once and yields only those, in the product order of the full
enumeration.  Every other assignment makes the guard false without reading
anything that could fail: the antecedent of ``forall ... (guard -> body)``
is then false and the first item of ``exists ... (guard and ...)`` too, so
skipping it changes neither the truth, nor which assignment decides, nor
what the evaluation raises.  The carriers are still enumerated first, so a
carrier over the set cap raises as before and an empty one evaluates
nothing; a guard whose reads fail, or a membership against a non-set, falls
back to the full enumeration, which meets the same failure.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional

from .errors import (
    AssignmentError,
    CapacityError,
    SignatureError,
    SortError,
    StructuralError,
)
from .model import Value, format_value, freeze_value, value_key

SET_CARRIER_CAP = 8


# ---------------------------------------------------------------------------
# Sorts


class Sort:
    """Base class for sort expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class BaseSort(Sort):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PairSort(Sort):
    first: Sort
    second: Sort

    def __str__(self) -> str:
        return f"pair({self.first}, {self.second})"


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Signature:
    """Sort names plus typed function and predicate symbols.

    Arity-0 functions are constants; arity-0 predicates are propositional
    atoms.  Function typings are (argument sorts, result sort) pairs.
    """

    sorts: frozenset[str]
    functions: Mapping[str, tuple[tuple[Sort, ...], Sort]] = field(default_factory=dict)
    predicates: Mapping[str, tuple[Sort, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sorts", frozenset(self.sorts))
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Var(Term):
    name: str
    sort: Sort


@dataclass(frozen=True)
class Apply(Term):
    symbol: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class PairTerm(Term):
    first: Term
    second: Term


@dataclass(frozen=True)
class SetTerm(Term):
    elements: tuple[Term, ...] = ()
    element_sort: Optional[Sort] = None  # required for the empty literal

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))


# ---------------------------------------------------------------------------
# Assertions


class Assertion(Node):
    __slots__ = ()


@dataclass(frozen=True)
class BoolLit(Assertion):
    value: bool


@dataclass(frozen=True)
class PredAtom(Assertion):
    symbol: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class Equals(Assertion):
    left: Term
    right: Term


@dataclass(frozen=True)
class Member(Assertion):
    element: Term
    collection: Term


@dataclass(frozen=True)
class Not(Assertion):
    operand: Assertion


@dataclass(frozen=True)
class And(Assertion):
    items: tuple[Assertion, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class Or(Assertion):
    items: tuple[Assertion, ...]

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True)
class Implies(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True)
class Iff(Assertion):
    left: Assertion
    right: Assertion


@dataclass(frozen=True)
class ForallData(Assertion):
    SHAPE = ("forall", "sort")

    var: str
    sort: Sort
    body: Assertion


@dataclass(frozen=True)
class ExistsData(Assertion):
    SHAPE = ("exists", "sort")

    var: str
    sort: Sort
    body: Assertion


@dataclass(frozen=True)
class BoundedForall(Assertion):
    """For all elements of an evaluated set-valued term (pattern-bound)."""

    SHAPE = ("forall", "set")

    vars: tuple[str, ...]
    source: Term
    body: Assertion

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class BoundedExists(Assertion):
    SHAPE = ("exists", "set")

    vars: tuple[str, ...]
    source: Term
    body: Assertion

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))


@dataclass(frozen=True)
class WellFounded(Assertion):
    """Axiom form requiring a binary relation to be acyclic on its carrier.

    Not first-order expressible, hence a built-in rather than user syntax.
    """

    symbol: str


# ---------------------------------------------------------------------------
# Evaluation
#
# One evaluator serves every assertion context.  ``Evaluator`` holds the
# datatype fragment as two tables keyed by node type; the interface and
# configuration contexts subclass it and add rules for their own nodes.  A
# rule is called as ``rule(evaluator, asg, node)``.


def bind_pattern(names: tuple[str, ...], value: Value) -> dict[str, Value]:
    """Bind a bounded quantifier's variable, or its pair pattern, to a value."""
    if len(names) == 1:
        return {names[0]: value}
    if not isinstance(value, tuple) or len(value) != len(names):
        raise SortError(
            f"pattern ({', '.join(names)}) does not match value {format_value(value)}"
        )
    return dict(zip(names, value))


def _var(ev, asg, term):
    try:
        return asg[term.name]
    except KeyError:
        raise AssignmentError(f"unbound variable {term.name!r}") from None


def _apply(ev, asg, term):
    table = ev.alg.functions.get(term.symbol)
    if table is None:
        raise SignatureError(f"no table for function symbol {term.symbol!r}")
    args = tuple([ev.term(asg, a) for a in term.args])
    try:
        return table[args]
    except KeyError:
        rendered = ", ".join(format_value(v) for v in args)
        raise SignatureError(
            f"function table {term.symbol!r} undefined at ({rendered})"
        ) from None


def _pred(ev, asg, phi):
    rows = ev.alg.predicates.get(phi.symbol)
    if rows is None:
        if phi.symbol not in ev.alg.signature.predicates:
            raise SignatureError(f"unknown predicate symbol {phi.symbol!r}")
        rows = frozenset()
    return tuple([ev.term(asg, a) for a in phi.args]) in rows


def _member(ev, asg, phi):
    collection = ev.term(asg, phi.collection)
    if not isinstance(collection, frozenset):
        raise SortError("membership against a non-set value")
    return ev.term(asg, phi.element) in collection


def antecedent(phi: Assertion) -> Optional[Assertion]:
    """What guards ``phi`` under a universal quantifier: its left side, when
    ``phi`` is an implication."""
    return phi.left if type(phi) is Implies else None


def quantifier_guard(phi) -> Optional[Guard]:
    """The guard of a ``ForallData`` or ``ExistsData``: of its body's
    antecedent for ``forall``, of its body for ``exists``."""
    body = antecedent(phi.body) if type(phi) is ForallData else phi.body
    return find_guard(body, {phi.var: phi.sort})


def _quantifier(combine):
    def rule(ev, asg, phi):
        bindings = enumerate_assignments(ev, {phi.var: phi.sort}, asg, ev.guard(phi))
        return combine(ev.holds({**asg, **b}, phi.body) for b in bindings)

    return rule


def _bounded(combine):
    def rule(ev, asg, phi):
        source = sorted(ev.source(asg, phi.source), key=value_key)
        return combine(
            ev.holds({**asg, **bind_pattern(phi.vars, v)}, phi.body) for v in source
        )

    return rule


class Evaluator:
    """Terms and assertions of the datatype fragment over one algebra."""

    FRAGMENT = "datatype assertions"
    TERMS = {
        Var: _var,
        Apply: _apply,
        PairTerm: lambda ev, asg, t: (ev.term(asg, t.first), ev.term(asg, t.second)),
        SetTerm: lambda ev, asg, t: frozenset([ev.term(asg, e) for e in t.elements]),
    }
    ASSERTIONS = {
        BoolLit: lambda ev, asg, phi: phi.value,
        PredAtom: _pred,
        Equals: lambda ev, asg, phi: ev.term(asg, phi.left) == ev.term(asg, phi.right),
        Member: _member,
        Not: lambda ev, asg, phi: not ev.holds(asg, phi.operand),
        And: lambda ev, asg, phi: all(ev.holds(asg, item) for item in phi.items),
        Or: lambda ev, asg, phi: any(ev.holds(asg, item) for item in phi.items),
        Implies: lambda ev, asg, phi: (
            not ev.holds(asg, phi.left) or ev.holds(asg, phi.right)
        ),
        Iff: lambda ev, asg, phi: ev.holds(asg, phi.left) == ev.holds(asg, phi.right),
        ForallData: _quantifier(all),
        ExistsData: _quantifier(any),
        BoundedForall: _bounded(all),
        BoundedExists: _bounded(any),
        WellFounded: lambda ev, asg, phi: check_well_founded(ev.alg, phi.symbol),
    }
    # quantifier type -> the rule that finds its guard
    GUARDS = {ForallData: quantifier_guard, ExistsData: quantifier_guard}

    def __init__(self, alg: Algebra, guards: Optional[dict] = None):
        self.alg = alg
        # id(quantifier) -> (quantifier, its guard); the entry holds the
        # quantifier, so its id is not reused
        self.guards = {} if guards is None else guards

    def guard(self, phi) -> Optional[Guard]:
        """The guard of the quantifier ``phi`` by the rule ``GUARDS`` holds
        for its type, found once per node and guard table."""
        entry = self.guards.get(id(phi))
        if entry is None:
            entry = self.guards[id(phi)] = (phi, self.GUARDS[type(phi)](phi))
        return entry[1]

    def term(self, asg: Mapping[str, Value], term: Term) -> Value:
        try:
            rule = self.TERMS[type(term)]
        except KeyError:
            raise SortError(
                f"cannot evaluate {type(term).__name__} in {self.FRAGMENT}"
            ) from None
        return rule(self, asg, term)

    def holds(self, asg: Mapping[str, Value], phi: Assertion) -> bool:
        try:
            rule = self.ASSERTIONS[type(phi)]
        except KeyError:
            raise SortError(
                f"{type(phi).__name__} is not part of {self.FRAGMENT}"
            ) from None
        return rule(self, asg, phi)

    def source(self, asg: Mapping[str, Value], term: Term) -> frozenset:
        """The set a bounded quantifier ranges over."""
        value = self.term(asg, term)
        if not isinstance(value, frozenset):
            raise SortError("bounded quantifier over a non-set value")
        return value


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
    or two interfaces.
    """
    data: dict[str, Sort] = {}
    comps: dict[str, Optional[str]] = {}

    def walk(node, bound_data: frozenset, bound_comp: frozenset):
        if isinstance(node, Var):
            if node.name not in bound_data:
                previous = data.get(node.name)
                if previous is not None and previous != node.sort:
                    raise SortError(
                        f"variable {node.name!r} used at sorts {previous} and {node.sort}"
                    )
                data[node.name] = node.sort
            return
        if node.SHAPE is not None:
            over = node.SHAPE[1]
            if over == "set":
                walk(node.source, bound_data, bound_comp)
                walk(node.body, bound_data | set(node.vars), bound_comp)
            elif over == "sort":
                walk(node.body, bound_data | {node.var}, bound_comp)
            else:
                walk(node.body, bound_data, bound_comp | {node.var})
            return
        if node.COMP_FIELDS:
            for var_field, interface_field in node.COMP_FIELDS:
                name = getattr(node, var_field)
                if name in bound_comp:
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
            walk(child, bound_data, bound_comp)

    walk(node, frozenset(), frozenset())
    return data, comps


@dataclass(frozen=True)
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
            return Guard(pattern, source, single, names)
    return None


def _guard_matches(ev, asg, guard: Guard, variables, names, domains):
    """The value tuples, in ``names`` order and product order, of the
    assignments under which ``guard`` can hold; None when reading its source
    or its fixed parts fails or the source is not a set."""
    parts = _parts(guard.pattern)
    try:
        source = ev.term(asg, guard.source)
        fixed = [ev.term(asg, p) if n is None else None for p, n in zip(parts, guard.names)]
    except Exception:  # noqa: BLE001 - the full enumeration meets it again
        return None
    if not isinstance(source, frozenset):
        return None
    if guard.single and len(source) != 1:
        source = ()
    positions = {n: ev.alg.positions(variables[n]) for n in guard.names if n is not None}
    hits = set()
    for element in source:
        if len(parts) == 1:
            values = (element,)
        elif type(element) is tuple and len(element) == 2:
            values = element
        else:
            continue
        hit = []
        for name, want, value in zip(guard.names, fixed, values):
            if name is None:
                if value != want:
                    break
            else:
                index = positions[name].get(value)
                if index is None:  # outside the carrier: binds nothing
                    break
                hit.append((name, index))
        else:
            hits.add(tuple(hit))
    keys = []
    for hit in hits:
        at = dict(hit)
        keys.extend(itertools.product(*(
            (at[n],) if n in at else range(len(d)) for n, d in zip(names, domains)
        )))
    keys.sort()
    return [tuple(d[i] for d, i in zip(domains, key)) for key in keys]


def enumerate_assignments(
    ev: Evaluator,
    variables: Mapping[str, Sort],
    asg: Optional[Mapping[str, Value]] = None,
    guard: Optional[Guard] = None,
):
    """The bindings of ``variables`` over their carriers, in product order:
    names sorted, each carrier in its order.  ``guard``, found by
    ``find_guard`` over ``variables``, must hold for a binding to matter,
    read under ``asg`` extended by it; with it, only the bindings under
    which it can hold are yielded (the one-point rule, see the module
    docstring)."""
    names = sorted(variables)
    domains = [ev.alg.carrier(variables[n]) for n in names]
    combos = None
    if guard is not None and all(domains):
        combos = _guard_matches(ev, asg or {}, guard, variables, names, domains)
    if combos is None:
        combos = itertools.product(*domains)
    for combo in combos:
        yield dict(zip(names, combo))


def models_spec(alg: Algebra, assertions: Iterable[Assertion]) -> bool:
    """True iff every assertion holds under every assignment of its free vars."""
    evaluator = Evaluator(alg)
    for assertion in assertions:
        variables = free_vars(assertion)[0]
        guard = find_guard(antecedent(assertion), variables)
        bindings = enumerate_assignments(evaluator, variables, guard=guard)
        if not all(evaluator.holds(asg, assertion) for asg in bindings):
            return False
    return True


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
    rows = alg.predicates.get(symbol, frozenset())
    adjacency: dict[Value, set] = {}
    for a, b in rows:
        adjacency.setdefault(a, set()).add(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[Value, int] = {}

    def has_cycle(node) -> bool:
        color[node] = GREY
        for nxt in adjacency.get(node, ()):
            state = color.get(nxt, WHITE)
            if state == GREY:
                return True
            if state == WHITE and has_cycle(nxt):
                return True
        color[node] = BLACK
        return False

    for start in adjacency:
        if color.get(start, WHITE) == WHITE and has_cycle(start):
            return False
    return True
