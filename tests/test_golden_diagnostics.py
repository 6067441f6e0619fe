"""Golden diagnostics: one small input for each diagnostic call site of the
front end, with every diagnostic it gives, rendered.

Each case parses its units and, when they all parse, resolves them together
with a small base bundle (two sorts, three ports, interfaces ``I`` and
``J``).  A case pins the text, span, code and order of the diagnostics, so a
rewrite of the grammar or the resolver that keeps them has to keep them
byte for byte.

Call sites no input reaches, and why:

* grammar ``Cursor.take``, "unexpected end of line": every caller looks at
  the token first.
* resolver ``resolve_sortref``, "malformed sort reference": the grammar
  makes only names, ``set(...)`` and ``pair(...)``.
* resolver ``resolve_formula``, "malformed formula", and
  ``_resolve_binary``, "unknown operator": the grammar makes no other node
  or operator.

Each is a guard: the first stops a cursor from handing on a missing token,
the others end a dispatch on node type or operator.
"""
import pytest

from archcheck.parser import parse_unit, resolve

DATA = """\
datatype Data
sorts
  S, T
symbols
  c : -> S
  e : -> T
  f : S -> S
  p : S
  r : S * S
"""

PORTS = """\
portspec Ports
imports Data
ports
  i, o, l : S
  q : T
"""

IFACE_I = """\
interface I
imports Data, Ports
local l
inputs i
outputs o
"""

IFACE_J = """\
interface J
imports Data, Ports
inputs q
outputs o
"""

BASE = (DATA, PORTS, IFACE_I, IFACE_J)


def diagnose(*texts):
    """Rendered parse diagnostics, then, if every unit parsed, the rendered
    diagnostics of resolving the units with the base bundle."""
    units, rendered = [], []
    for text in texts:
        unit, diagnostics = parse_unit(text)
        rendered += [d.render() for d in diagnostics]
        units.append(unit)
    if None in units:
        return rendered
    base = [parse_unit(text)[0] for text in BASE]
    _, diagnostics = resolve([*base, *units])
    return rendered + [d.render() for d in diagnostics]


def datatype_axiom(formula):
    return f"datatype Extra\nimports Data\nvars\n  y : S\naxioms\n  {formula}\n"


def interface_axiom(formula):
    return (
        "interface K\nimports Data, Ports\nlocal l\ninputs i\noutputs o\n"
        f"vars\n  y : S\naxioms\n  {formula}\n"
    )


def constraint(formula, decls="  y : S\n  u : I"):
    return (
        f"constraints C\nimports I, J\nvars\n{decls}\n"
        f"rigid vars\n  x : S\n  v, w : I\naxioms\n  {formula}\n"
    )


def diagram(*lines):
    return (
        "diagram D\nimports Data, Ports\nrigid vars\n  v : I\n  w : J\n"
        "interface I\n  local l\n  inputs i\n  outputs o\n"
        "interface J\n  inputs q\n  outputs o\n" + "".join(f"{x}\n" for x in lines)
    )


def algebra(carriers=("S = {a, b}", "T = {t}"), functions=(), predicates=()):
    return (
        "algebra A\nimports Data\ncarriers\n"
        + "".join(f"  {x}\n" for x in carriers)
        + "functions\n  c = a\n  e = t\n  f(a) = b\n  f(b) = a\n"
        + "".join(f"  {x}\n" for x in functions)
        + "predicates\n  p(a)\n  r(a, b)\n"
        + "".join(f"  {x}\n" for x in predicates)
    )


def trace(components=(), step=("active a", "  i = {c}")):
    return (
        "trace R\nimports I, J\ncomponents\n  a : I\n  b : J\n"
        + "".join(f"  {x}\n" for x in components)
        + ("step\n" + "".join(f"  {x}\n" for x in step) if step else "")
    )


CASES = {
    # -- lexer and grammar ---------------------------------------------------
    "lex.character": ("datatype D\nsorts\n  S @\n",),
    "parse.no_header": ("# only a comment\n",),
    "parse.unknown_kind": ("widget W\n",),
    "parse.header_without_name": ("datatype\n",),
    "parse.header_trailing": ("datatype D E\n",),
    "parse.imports": ("datatype D\nimports A,\n",),
    "parse.expected_token": (constraint("p(c"),),
    "parse.expected_ident": (constraint("forall 3 . p(c)"),),
    "parse.expected_number": (constraint("G(min(I, x))"),),
    "parse.trailing": (constraint("p(c) c"),),
    "parse.nesting": (constraint("(" * 65 + "p(c)" + ")" * 65),),
    "parse.annotation_and_bound": (constraint("forall z : S in {c} . p(z)"),),
    "parse.primary_end_of_line": (constraint("p(c) and"),),
    "parse.unexpected_token": (constraint("p(c) and )"),),
    "parse.empty_minmax": (diagram("interface K [..]"),),
    "parse.datatype_section": ("datatype D\nS\n",),
    "parse.portspec_section": ("portspec P\ni : S\n",),
    "parse.interface_section": ("interface K\nimports Data\ni : S\n",),
    "parse.constraints_section": ("constraints C\np(c)\n",),
    "parse.diagram_role_outside_interface": ("diagram D\nlocal l\n",),
    "parse.diagram_line": ("diagram D\np(c)\n",),
    "parse.algebra_section": ("algebra A\nS = {a}\n",),
    "parse.valuation_before_active": ("trace R\nstep\n  i = {c}\n",),
    "parse.trace_section": ("trace R\nactive a\n",),
    "parse.symbol_and_connect": (
        "datatype D\nsymbols\n  g : S * -> S\n",
        "trace R\nstep\n  connect a.i b.o\n",
    ),
    # -- units, imports and the signature ------------------------------------
    "resolve.duplicate_unit": ("portspec Data\n",),
    "resolve.unknown_import": ("datatype X\nimports Nope\n",),
    "resolve.cyclic_imports": ("datatype A\nimports B\n", "datatype B\nimports A\n"),
    "resolve.duplicate_sort": ("datatype X\nsorts\n  S\n",),
    "resolve.duplicate_symbol": ("datatype X\nsymbols\n  c : -> S\n",),
    "resolve.symbol_is_a_sort": ("datatype X\nsymbols\n  T : -> S\n",),
    "resolve.symbol_unknown_sort": ("datatype X\nsymbols\n  g : Nope -> S\n",),
    # -- ports and interfaces ------------------------------------------------
    "resolve.port_unknown_sort": ("portspec X\nports\n  z : Nope\n",),
    "resolve.port_redeclared": ("portspec X\nports\n  i : T\n",),
    "resolve.interface_undeclared_port": ("interface K\nimports Data\ninputs zz\n",),
    "resolve.interface_is_a_sort": ("interface S\nimports Ports\ninputs i\n",),
    "resolve.interface_roles_overlap": (
        "interface K\nimports Ports\ninputs i\noutputs i\n",
    ),
    "resolve.diagram_interface_roles_overlap": (
        diagram("interface K", "  inputs i", "  outputs i"),
    ),
    "resolve.interface_redeclared": (diagram("interface I", "  inputs i"),),
    # -- variable declarations -----------------------------------------------
    "resolve.duplicate_variable": (constraint("p(c)", "  y : S\n  y : S"),),
    "resolve.variable_collides": (constraint("p(c)", "  c : S"),),
    "resolve.variable_unknown_sort": (constraint("p(c)", "  z : Nope"),),
    # -- terms ---------------------------------------------------------------
    "term.constant_and_port": (
        "portspec CP\nimports Data\nports\n  c : S\n",
        "interface K\nimports Data, CP\ninputs c\naxioms\n  c == c\n",
    ),
    "term.component_variable": (constraint("G(v == c)"),),
    "term.unknown_name": (datatype_axiom("p(zz)"),),
    "term.port_read_outside_constraints": (datatype_axiom("p(v.i)"),),
    "term.port_read_undeclared": (constraint("G(forall z : S . z.i == c)"),),
    "term.port_read_no_port": (constraint("G(v.q == {e})"),),
    "term.predicate_as_term": (datatype_axiom("p(p(c))"),),
    "term.unknown_function": (datatype_axiom("p(g(c))"),),
    "term.function_arity": (datatype_axiom("p(f(c, c))"),),
    "term.empty_set": (datatype_axiom("{} == {}"),),
    "term.number": (datatype_axiom("p(3)"),),
    "term.not_a_term": (datatype_axiom("p(true)"),),
    "term.sort": (datatype_axiom("p(e)"),),
    # -- formulas ------------------------------------------------------------
    "formula.well_founded_level": (interface_axiom("well-founded(r)"),),
    "formula.well_founded_unknown": (datatype_axiom("well-founded(zz)"),),
    "formula.function_as_formula": (datatype_axiom("f(c)"),),
    "formula.unknown_predicate": (datatype_axiom("zz(c)"),),
    "formula.predicate_arity": (datatype_axiom("p(c, c)"),),
    "formula.active_undeclared": (constraint("G(forall z : S . active(z))"),),
    "formula.irconn_input": (constraint("G(irconn(I.o <- I.o))"),),
    "formula.irconn_output": (constraint("G(irconn(I.i <- I.i))"),),
    "formula.minmax_inverted": (constraint("G(minmax(I, 3, 1))"),),
    "formula.temporal_level": (datatype_axiom("G(p(c))"),),
    "formula.term": (datatype_axiom("c"),),
    "formula.components_level": (interface_axiom("min(I, 1)"),),
    "formula.unknown_interface": (constraint("G(min(Nope, 1))"),),
    "formula.conn_undeclared": (constraint("G(forall z : S . conn(z.i <- v.o))"),),
    "formula.conn_input": (constraint("G(conn(v.o <- w.o))"),),
    "formula.conn_output": (constraint("G(conn(v.i <- w.i))"),),
    "formula.until_level": (datatype_axiom("p(c) U p(c)"),),
    "formula.membership": (datatype_axiom("c in c"),),
    "formula.equation": (datatype_axiom("c == e"),),
    # -- quantifiers ---------------------------------------------------------
    "quant.not_declared": (datatype_axiom("forall zz . p(zz)"),),
    "quant.data_as_component": (datatype_axiom("forall y : I . p(c)"),),
    "quant.other_interface": (constraint("G(forall v : J . active(v))"),),
    "quant.component_as_data": (constraint("G(forall v : S . p(c))"),),
    "quant.other_sort": (datatype_axiom("forall y : T . p(c)"),),
    "quant.annotation_unknown_sort": (datatype_axiom("forall z : Nope . p(c)"),),
    "quant.bound_not_a_set": (datatype_axiom("forall z in c . p(z)"),),
    "quant.pattern_not_pairs": (datatype_axiom("forall (a, b) in {c} . p(a)"),),
    "quant.bound_component": (constraint("G(forall v in {c} . p(c))"),),
    "quant.bound_other_sort": (datatype_axiom("forall y in {e} . p(c)"),),
    "quant.bound_mixes_rigidity": (
        constraint("G(forall (x, y) in {(c, c)} . p(x))"),
    ),
    "quant.bound_flexible_temporal": (constraint("forall y in {c} . F(p(y))"),),
    "quant.data_flexible_temporal": (constraint("forall y . F(p(y))"),),
    "quant.component_flexible_temporal": (constraint("forall u . F(active(u))"),),
    # -- constraint axioms ---------------------------------------------------
    "constraint.no_port_usage": (constraint("G(active(zz))"),),
    "constraint.ambiguous": (constraint("G(zz.o == {c})"),),
    "constraint.repaired": (constraint("G(zz.i == {c})"),),
    "constraint.implicit_closure": (constraint("G(p(y))"),),
    # -- diagrams ------------------------------------------------------------
    "diagram.rigid_undeclared_interface": (diagram("rigid K : v"),),
    "diagram.rigid_not_rigid": (diagram("rigid I : u"),),
    "diagram.rigid_other_interface": (diagram("rigid J : v"),),
    "diagram.connect_unknown_in": (diagram("connect Z.i <- I.o"),),
    "diagram.connect_unknown_out": (diagram("connect I.i <- Z.o"),),
    "diagram.connect_input": (diagram("connect I.o <- I.o"),),
    "diagram.connect_output": (diagram("connect I.i <- I.i"),),
    "diagram.axioms_undeclared_interface": (diagram("axioms Z", "  p(c)"),),
    "diagram.axioms_error": (diagram("axioms I", "  F(p(c))"),),
    "diagram.minmax_inverted": (
        "diagram D\nimports Ports\ninterface I [3..1]\n  local l\n"
        "  inputs i\n  outputs o\n",
    ),
    # -- algebras ------------------------------------------------------------
    "algebra.unknown_sort": (algebra(carriers=("S = {a, b}", "T = {t}", "Z = {z}")),),
    "algebra.duplicate_carrier": (
        algebra(carriers=("S = {a, b}", "T = {t}", "S = {z}")),
    ),
    "algebra.unknown_function": (algebra(functions=("g(a) = b",)),),
    "algebra.function_not_ground": (algebra(functions=("f(f(a)) = b",)),),
    "algebra.duplicate_entry": (algebra(functions=("f(a) = a",)),),
    "algebra.unknown_predicate": (algebra(predicates=("zz(a)",)),),
    "algebra.predicate_not_ground": (algebra(predicates=("p(f(a))",)),),
    "algebra.structure": (algebra(carriers=("S = {a, b}",)),),
    # -- traces --------------------------------------------------------------
    "trace.duplicate_component": (trace(components=("a : J",)),),
    "trace.unknown_interface": (trace(components=("z : Z",)),),
    "trace.not_local": (trace(components=("z : I with i = {c}",)),),
    "trace.local_not_ground": (trace(components=("z : I with l = f(c)",)),),
    "trace.no_step": (trace(step=()),),
    "trace.activated_twice": (trace(step=("active a", "active a")),),
    "trace.connect_undeclared": (trace(step=("active a", "connect z.i <- a.o")),),
    "trace.connect_input": (trace(step=("active a", "connect a.o <- a.o")),),
    "trace.connect_output": (trace(step=("active a", "connect a.i <- b.q")),),
    "trace.active_undeclared": (trace(step=("active z",)),),
    "trace.local_fixed": (trace(step=("active a", "  l = {c}")),),
    "trace.not_a_port": (trace(step=("active a", "  q = {c}")),),
    "trace.value_not_ground": (trace(step=("active a", "  i = {f(c)}")),),
    "order.several_units": (
        datatype_axiom("p(zz)"),
        constraint("G(active(zz))"),
        trace(step=("active z", "active a", "active a", "connect a.o <- a.o")),
    ),
}

EXPECTED = {
    'algebra.duplicate_carrier': [
        "A:6:3: error[resolve]: duplicate carrier for 'S'",
    ],
    'algebra.duplicate_entry': [
        "A:11:3: error[resolve]: duplicate table entry for 'f'",
    ],
    'algebra.function_not_ground': [
        'A:11:5: error[resolve]: expected a ground value (name, pair, or set literal)',
    ],
    'algebra.predicate_not_ground': [
        'A:14:5: error[resolve]: expected a ground value (name, pair, or set literal)',
    ],
    'algebra.structure': [
        "A: error[resolve]: no carrier for sorts ['T']",
    ],
    'algebra.unknown_function': [
        "A:11:3: error[resolve]: unknown function symbol 'g'",
    ],
    'algebra.unknown_predicate': [
        "A:14:3: error[resolve]: unknown predicate symbol 'zz'",
    ],
    'algebra.unknown_sort': [
        "A:6:3: error[resolve]: unknown sort 'Z'",
    ],
    'constraint.ambiguous': [
        "C:10:3: error[resolve]: undeclared component variable 'zz': interface is ambiguous",
    ],
    'constraint.implicit_closure': [
        "C:10:3: warning[implicit-closure]: flexible variable 'y' closed existentially at each step",
    ],
    'constraint.no_port_usage': [
        "C:10:3: error[resolve]: undeclared component variable 'zz' and no port usage identifies its interface",
    ],
    'constraint.repaired': [
        "C:10:3: warning[undeclared-component-var]: undeclared component variable 'zz' treated as a universally quantified rigid variable of interface 'I'",
    ],
    'diagram.axioms_error': [
        'D:14:3: error[resolve]: temporal operators are only allowed in constraint axioms',
    ],
    'diagram.axioms_undeclared_interface': [
        "D: error[resolve]: axioms for undeclared interface 'Z'",
    ],
    'diagram.connect_input': [
        "D:13:1: error[resolve]: 'o' is not an input port of 'I'",
    ],
    'diagram.connect_output': [
        "D:13:1: error[resolve]: 'i' is not an output port of 'I'",
    ],
    'diagram.connect_unknown_in': [
        "D:13:1: error[resolve]: unknown interface 'Z'",
    ],
    'diagram.connect_unknown_out': [
        "D:13:1: error[resolve]: unknown interface 'Z'",
    ],
    'diagram.minmax_inverted': [
        "D: error[resolve]: min-max annotation for 'I' has min 3 > max 1",
    ],
    'diagram.rigid_not_rigid': [
        "D:13:1: error[resolve]: rigid annotation variable 'u' must be a declared rigid component variable",
    ],
    'diagram.rigid_other_interface': [
        "D:13:1: error[resolve]: variable 'v' has interface 'I', not 'J'",
    ],
    'diagram.rigid_undeclared_interface': [
        "D:13:1: error[resolve]: rigid annotation for undeclared interface 'K'",
    ],
    'formula.active_undeclared': [
        "C:10:20: error[resolve]: undeclared component variable 'z'",
    ],
    'formula.components_level': [
        'K:9:3: error[resolve]: activation/connection predicates are only allowed in constraint axioms',
    ],
    'formula.conn_input': [
        "C:10:5: error[resolve]: 'o' is not an input port of 'I'",
    ],
    'formula.conn_output': [
        "C:10:5: error[resolve]: 'i' is not an output port of 'I'",
    ],
    'formula.conn_undeclared': [
        "C:10:20: error[resolve]: undeclared component variable 'z'",
    ],
    'formula.equation': [
        'Extra:6:5: error[resolve]: cannot equate sorts S and T',
    ],
    'formula.function_as_formula': [
        "Extra:6:3: error[resolve]: function 'f' used as a formula",
    ],
    'formula.irconn_input': [
        "C:10:5: error[resolve]: 'o' is not an input port of 'I'",
    ],
    'formula.irconn_output': [
        "C:10:5: error[resolve]: 'i' is not an output port of 'I'",
    ],
    'formula.membership': [
        'Extra:6:5: error[resolve]: membership needs a set-valued right operand, got S',
    ],
    'formula.minmax_inverted': [
        'C:10:5: error[resolve]: minmax bounds inverted: 3 > 1',
    ],
    'formula.predicate_arity': [
        "Extra:6:3: error[resolve]: 'p' expects 1 arguments, got 2",
    ],
    'formula.temporal_level': [
        'Extra:6:3: error[resolve]: temporal operators are only allowed in constraint axioms',
    ],
    'formula.term': [
        'Extra:6:3: error[resolve]: expected a formula, found a term',
    ],
    'formula.unknown_interface': [
        "C:10:5: error[resolve]: unknown interface 'Nope'",
    ],
    'formula.unknown_predicate': [
        "Extra:6:3: error[resolve]: unknown predicate symbol 'zz'",
    ],
    'formula.until_level': [
        'Extra:6:8: error[resolve]: temporal operators are only allowed in constraint axioms',
    ],
    'formula.well_founded_level': [
        'K:9:3: error[resolve]: well-founded(...) is a datatype axiom form',
    ],
    'formula.well_founded_unknown': [
        "Extra:6:3: error[resolve]: unknown predicate symbol 'zz'",
    ],
    'lex.character': [
        "3:5: error[lex]: unexpected character '@'",
    ],
    'order.several_units': [
        "C:10:3: error[resolve]: undeclared component variable 'zz' and no port usage identifies its interface",
        "Extra:6:5: error[resolve]: unknown name 'zz'",
    ],
    'parse.algebra_section': [
        '2:1: error[parse]: expected carriers, functions, or predicates section',
    ],
    'parse.annotation_and_bound': [
        '10:16: error[parse]: a quantifier takes either a sort annotation or a bound, not both',
    ],
    'parse.constraints_section': [
        '2:1: error[parse]: expected vars, rigid vars, or axioms section',
    ],
    'parse.datatype_section': [
        '2:1: error[parse]: expected a section header (sorts, symbols, vars, axioms)',
    ],
    'parse.diagram_line': [
        '2:1: error[parse]: unexpected line in diagram unit',
    ],
    'parse.diagram_role_outside_interface': [
        "2:1: error[parse]: 'local' outside an interface block",
    ],
    'parse.empty_minmax': [
        '13:13: error[parse]: empty min-max annotation',
    ],
    'parse.expected_ident': [
        "10:10: error[parse]: expected variable, got '3'",
    ],
    'parse.expected_number': [
        "10:12: error[parse]: expected a number, got 'x'",
    ],
    'parse.expected_token': [
        "10:6: error[parse]: expected ')', got 'end of line'",
    ],
    'parse.header_trailing': [
        "1:12: error[parse]: unexpected trailing 'E'",
    ],
    'parse.header_without_name': [
        "1:9: error[parse]: expected unit name, got 'end of line'",
    ],
    'parse.imports': [
        "2:11: error[parse]: expected identifier, got 'end of line'",
    ],
    'parse.interface_section': [
        '3:1: error[parse]: expected ports/vars/axioms section or local/inputs/outputs',
    ],
    'parse.nesting': [
        '10:67: error[parse]: nested deeper than 64 levels',
    ],
    'parse.no_header': [
        'error[parse]: expected unit header',
    ],
    'parse.portspec_section': [
        '2:1: error[parse]: expected the `ports` section header',
    ],
    'parse.primary_end_of_line': [
        '10:11: error[parse]: unexpected end of line',
    ],
    'parse.symbol_and_connect': [
        "3:11: error[parse]: expected sort, got '->'",
        "3:15: error[parse]: expected '<-', got 'b'",
    ],
    'parse.trace_section': [
        '2:1: error[parse]: expected components or step section',
    ],
    'parse.trailing': [
        "10:8: error[parse]: unexpected trailing 'c'",
    ],
    'parse.unexpected_token': [
        "10:12: error[parse]: unexpected ')'",
    ],
    'parse.unknown_kind': [
        "1:1: error[parse]: unknown unit kind 'widget'",
    ],
    'parse.valuation_before_active': [
        '3:3: error[parse]: port valuations must follow an `active` line',
    ],
    'quant.annotation_unknown_sort': [
        "Extra:6:14: error[resolve]: unknown sort 'Nope'",
    ],
    'quant.bound_component': [
        "C:10:5: error[resolve]: 'v' is a component variable; bounded quantifiers bind data variables",
    ],
    'quant.bound_flexible_temporal': [
        'C:10:3: error[resolve]: flexible variables cannot scope over temporal operators; declare them rigid',
    ],
    'quant.bound_mixes_rigidity': [
        'C:10:5: error[resolve]: bounded pattern mixes rigid and flexible variables',
    ],
    'quant.bound_not_a_set': [
        'Extra:6:3: error[resolve]: bounded quantifier needs a set-valued source, got S',
    ],
    'quant.bound_other_sort': [
        "Extra:6:3: error[resolve]: 'y' declared S but bound at T",
    ],
    'quant.component_as_data': [
        "C:10:5: error[resolve]: 'v' is a component variable, not a data variable",
    ],
    'quant.component_flexible_temporal': [
        "C:10:3: error[resolve]: flexible variable 'u' cannot scope over temporal operators; declare it rigid",
    ],
    'quant.data_as_component': [
        "Extra:6:3: error[resolve]: 'y' is a data variable, not a component variable",
    ],
    'quant.data_flexible_temporal': [
        "C:10:3: error[resolve]: flexible variable 'y' cannot scope over temporal operators; declare it rigid",
    ],
    'quant.not_declared': [
        "Extra:6:3: error[resolve]: quantified variable 'zz' is neither declared nor annotated",
    ],
    'quant.other_interface': [
        "C:10:5: error[resolve]: 'v' declared at interface 'I', annotated 'J'",
    ],
    'quant.other_sort': [
        "Extra:6:3: error[resolve]: 'y' declared S, annotated T",
    ],
    'quant.pattern_not_pairs': [
        'Extra:6:3: error[resolve]: pattern (a, b) needs pair-valued elements, got S',
    ],
    'resolve.cyclic_imports': [
        'B: error[resolve]: cyclic imports: A -> B -> A',
    ],
    'resolve.diagram_interface_roles_overlap': [
        'D:13:1: error[resolve]: interface port roles must be pairwise disjoint',
    ],
    'resolve.duplicate_sort': [
        "X: error[resolve]: duplicate sort 'S'",
    ],
    'resolve.duplicate_symbol': [
        "X:3:3: error[resolve]: duplicate symbol 'c'",
    ],
    'resolve.duplicate_unit': [
        "Data: error[resolve]: duplicate unit name 'Data'",
    ],
    'resolve.duplicate_variable': [
        "C:5:3: error[resolve]: duplicate variable 'y'",
    ],
    'resolve.interface_is_a_sort': [
        "S: error[resolve]: interface 'S' collides with a sort name",
    ],
    'resolve.interface_redeclared': [
        "D:13:1: error[resolve]: interface 'I' redeclared with a different shape",
    ],
    'resolve.interface_roles_overlap': [
        'K: error[resolve]: interface port roles must be pairwise disjoint',
    ],
    'resolve.interface_undeclared_port': [
        "K: error[resolve]: interface 'K' uses undeclared port 'zz'",
    ],
    'resolve.port_redeclared': [
        "X:3:3: error[resolve]: port 'i' redeclared at a different sort (S vs T)",
    ],
    'resolve.port_unknown_sort': [
        "X:3:7: error[resolve]: unknown sort 'Nope'",
    ],
    'resolve.symbol_is_a_sort': [
        "X:3:3: error[resolve]: symbol 'T' collides with a sort",
    ],
    'resolve.symbol_unknown_sort': [
        "X:3:7: error[resolve]: unknown sort 'Nope'",
    ],
    'resolve.unknown_import': [
        "X: error[resolve]: import of unknown unit 'Nope'",
    ],
    'resolve.variable_collides': [
        "C:4:3: error[resolve]: variable 'c' collides with another declaration",
    ],
    'resolve.variable_unknown_sort': [
        "C:4:7: error[resolve]: unknown sort 'Nope'",
    ],
    'term.component_variable': [
        "C:10:5: error[resolve]: component variable 'v' cannot be used as a data term",
    ],
    'term.constant_and_port': [
        "K:5:3: error[resolve]: 'c' is both a constant and a port of this interface",
    ],
    'term.empty_set': [
        'Extra:6:9: error[resolve]: cannot infer the element sort of an empty set literal',
    ],
    'term.function_arity': [
        "Extra:6:5: error[resolve]: 'f' expects 1 arguments, got 2",
    ],
    'term.not_a_term': [
        'Extra:6:5: error[resolve]: expected a term',
    ],
    'term.number': [
        'Extra:6:5: error[resolve]: numbers appear only in min/max cardinality forms',
    ],
    'term.port_read_no_port': [
        "C:10:5: error[resolve]: interface 'I' has no port 'q'",
    ],
    'term.port_read_outside_constraints': [
        'Extra:6:5: error[resolve]: component port reads are only allowed in constraint axioms',
    ],
    'term.port_read_undeclared': [
        "C:10:20: error[resolve]: undeclared component variable 'z'",
    ],
    'term.predicate_as_term': [
        "Extra:6:5: error[resolve]: predicate 'p' used in term position",
    ],
    'term.sort': [
        'Extra:6:5: error[resolve]: expected sort S, got T',
    ],
    'term.unknown_function': [
        "Extra:6:5: error[resolve]: unknown function symbol 'g'",
    ],
    'term.unknown_name': [
        "Extra:6:5: error[resolve]: unknown name 'zz'",
    ],
    'trace.activated_twice': [
        "R:8:3: error[resolve]: component 'a' activated twice in one step",
    ],
    'trace.active_undeclared': [
        "R:7:3: error[resolve]: undeclared component 'z'",
    ],
    'trace.connect_input': [
        "R:8:3: error[resolve]: 'o' is not an input port of 'a'",
    ],
    'trace.connect_output': [
        "R:8:3: error[resolve]: 'q' is not an output port of 'b'",
    ],
    'trace.connect_undeclared': [
        'R:8:3: error[resolve]: connection references an undeclared component',
    ],
    'trace.duplicate_component': [
        "R:6:3: error[resolve]: duplicate component id 'a'",
    ],
    'trace.local_fixed': [
        "R:7:3: error[resolve]: local port 'l' is fixed by the component declaration",
    ],
    'trace.local_not_ground': [
        'R:6:18: error[resolve]: expected a ground value (name, pair, or set literal)',
    ],
    'trace.no_step': [
        'R: error[resolve]: a trace needs at least one step',
    ],
    'trace.not_a_port': [
        "R:7:3: error[resolve]: 'q' is not a port of interface 'I'",
    ],
    'trace.not_local': [
        "R:6:3: error[resolve]: 'i' is not a local port of 'I'",
    ],
    'trace.unknown_interface': [
        "R:6:3: error[resolve]: unknown interface 'Z'",
    ],
    'trace.value_not_ground': [
        'R:8:10: error[resolve]: expected a ground value (name, pair, or set literal)',
    ],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_diagnostics_are_pinned(case):
    assert diagnose(*CASES[case]) == EXPECTED[case]


def test_every_case_is_pinned():
    assert sorted(EXPECTED) == sorted(CASES)
